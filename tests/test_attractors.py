import dataclasses
import math
import re

import numpy as np
import pytest

import singularflow as sf

ALPHA = 1.0 / 3.0


def saddle():
    return sf.builtin_field("saddle2d", ALPHA)


def angles_of(points):
    return sorted(math.atan2(p.location[1], p.location[0]) % (2 * math.pi) for p in points)


def test_saddle_fixed_point_catalog():
    fps = sf.find_fixed_points(saddle())
    assert len(fps) == 4
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    got = angles_of(fps)
    assert np.allclose(got, expected, atol=1e-8)
    by_angle = {round(math.atan2(p.location[1], p.location[0]) % (2 * math.pi), 6): p for p in fps}
    assert by_angle[0.0].stable and by_angle[0.0].mean_radial == pytest.approx(1.0, abs=1e-10)
    assert by_angle[round(math.pi, 6)].stable
    assert by_angle[round(math.pi, 6)].mean_radial == pytest.approx(-1.0, abs=1e-10)
    assert not by_angle[round(math.pi / 2, 6)].stable
    assert not by_angle[round(3 * math.pi / 2, 6)].stable
    for p in fps:
        assert np.linalg.norm(
            saddle().sphere_map(p.location)
            - p.mean_radial * p.location
        ) <= 1e-10  # tangential residual
        assert p.label == ("focusing" if p.mean_radial < 0 else "defocusing")


def test_sphere3d_fixed_points():
    field = sf.builtin_field("sphere3d")
    fps = sf.find_fixed_points(field)
    assert len(fps) == 2
    south = min(fps, key=lambda p: p.location[2])
    north = max(fps, key=lambda p: p.location[2])
    assert south.location == pytest.approx([0, 0, -1], abs=1e-9)
    assert south.stable and south.mean_radial == pytest.approx(-0.5, abs=1e-10)
    assert north.location == pytest.approx([0, 0, 1], abs=1e-9)
    assert not north.stable
    assert north.mean_radial == pytest.approx(0.5, abs=1e-10)


def test_spiral_has_no_fixed_points():
    assert sf.find_fixed_points(sf.builtin_field("spiral2d", ALPHA)) == []


def test_power1d_fixed_points():
    fps = sf.find_fixed_points(sf.builtin_field("power1d", ALPHA))
    assert len(fps) == 2
    assert all(p.mean_radial == pytest.approx(1.0) for p in fps)
    assert all(p.label == "defocusing" for p in fps)


def test_fixed_point_refinement_stability():
    # a stable point re-found from a 1e-3 perturbed seed lands at the same spot
    field = saddle()
    fps = [p for p in sf.find_fixed_points(field) if p.stable]
    from singularflow.attractors import _newton_on_sphere

    for p in fps:
        seed = p.location + 1e-3 * np.array([0.7, -0.4])
        y = _newton_on_sphere(field, seed / np.linalg.norm(seed))
        assert y is not None
        assert np.linalg.norm(y - p.location) < 1e-8


def test_sphere3d_limit_cycle_numbers():
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    assert cyc.kind == "limit_cycle"
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert cyc.mean_radial == pytest.approx(0.25, abs=1e-8)
    assert cyc.stable
    assert cyc.label == "defocusing"
    assert np.abs(cyc.location[:, 2] - 0.5).max() < 1e-6
    # orbit closes
    assert np.linalg.norm(cyc.location[0] - cyc.location[-1]) <= 1e-8


def test_sphere3d_cycle_contraction_rate():
    # transverse linearization of the latitude flow at the cycle: rate 3/4
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.35]), transient=6.0)
    rate = cyc.stability_exponents[0]
    assert rate == pytest.approx(0.75, abs=1e-8)


def test_spiral_whole_circle_orbit():
    field = sf.builtin_field("spiral2d", ALPHA)
    cyc = sf.find_limit_cycle(field, np.array([0.3, -0.9]) / np.linalg.norm([0.3, -0.9]))
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert cyc.mean_radial == pytest.approx(1.0, abs=1e-10)
    assert cyc.stability_exponents.size == 0  # no transverse direction on S^1


def test_limit_cycle_not_found_in_fixed_point_basin():
    with pytest.raises(sf.LimitCycleNotFound):
        sf.find_limit_cycle(saddle(), np.array([-0.8, 0.6]))


def test_limit_cycle_search_endings_name_their_cause(monkeypatch):
    from singularflow import attractors

    with pytest.raises(sf.LimitCycleNotFound, match="no spherical flow in one dimension"):
        sf.find_limit_cycle(sf.builtin_field("power1d", ALPHA), np.array([1.0]))
    # from 0.3 rad the saddle's direction flows into the sink at angle 0:
    # the first lap never comes back to the section
    with pytest.raises(sf.LimitCycleNotFound, match="no recurrence within the return horizon"):
        sf.find_limit_cycle(saddle(), np.array([math.cos(0.3), math.sin(0.3)]), transient=0.0)
    # a sphere3d start off its latitude cycle recurs, but two laps do not
    # bring the returns within 1e-8 of each other
    monkeypatch.setattr(attractors, "_MAX_RETURNS", 2)
    y0 = np.array([1.0, 0.0, 0.35]) / np.linalg.norm([1.0, 0.0, 0.35])
    with pytest.raises(sf.LimitCycleNotFound,
                       match="returns did not converge below 1e-08 in 2 laps"):
        sf.find_limit_cycle(sf.builtin_field("sphere3d"), y0, transient=0.0)


def test_mean_radial_two_quadratures_agree():
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    # independent check: Simpson over the tabulated orbit
    from scipy.integrate import simpson

    fr = np.array([sf.decompose(field, y).radial for y in cyc.location])
    mean2 = simpson(fr, x=cyc.orbit_times) / cyc.period
    assert abs(mean2 - cyc.mean_radial) < 1e-8


def test_catalog_sphere3d_two_cycles():
    field = sf.builtin_field("sphere3d")
    cat = sf.catalog_attractors(field)
    fps = [a for a in cat if a.kind == "fixed_point"]
    cycles = [a for a in cat if a.kind == "limit_cycle"]
    assert len(fps) == 2
    assert len(cycles) == 2
    stable = [c for c in cycles if c.stable]
    unstable = [c for c in cycles if not c.stable]
    assert len(stable) == 1 and len(unstable) == 1
    assert np.abs(stable[0].location[:, 2] - 0.5).max() < 1e-6
    assert np.abs(unstable[0].location[:, 2] + 0.5).max() < 1e-6
    assert stable[0].mean_radial == pytest.approx(0.25, abs=1e-8)
    assert unstable[0].mean_radial == pytest.approx(-0.25, abs=1e-8)
    # on S^2 the return map's multiplier is exp(-T * exponent), the exponent
    # minus the orbit mean of div_S F_s (Liouville's formula)
    assert stable[0].stability_exponents == pytest.approx([0.75], abs=1e-8)
    assert unstable[0].stability_exponents == pytest.approx([-0.75], abs=1e-8)


@pytest.mark.parametrize("name", sf.BUILTIN_NAMES)
def test_no_builtin_catalog_holds_a_nan(name):
    cat = sf.catalog_attractors(sf.builtin_field(name, None if name == "sphere3d" else ALPHA))
    assert cat and not any(np.isnan(a.stability_exponents).any() for a in cat)


def _catalog_without_early_stop(field, n_seeds=32, cycle_seeds=8):
    # every cycle search runs to completion; duplicates are dropped afterwards
    from singularflow.attractors import _seed_directions

    fps = sf.find_fixed_points(field, n_seeds=n_seeds)
    cycles = []
    for reverse in (False, True):
        for y0 in _seed_directions(field.dimension, cycle_seeds, 1):
            if any(np.linalg.norm(y0 - fp.location) < 1e-3 for fp in fps):
                continue
            try:
                cyc = sf.find_limit_cycle(field, y0, _reverse=reverse)
            except (sf.LimitCycleNotFound, sf.StepFailure):
                continue
            duplicate = False
            for c in cycles:
                if abs(c.period - cyc.period) > 1e-6 * max(1.0, c.period):
                    continue
                gap = float(np.max(np.linalg.norm(np.diff(c.location, axis=0), axis=1)))
                if c.distance_to(cyc.anchor) < max(1e-4, 2.0 * gap):
                    duplicate = True
                    break
            if not duplicate:
                cycles.append(cyc)
    return fps + cycles


def _bits(a):
    times = None if a.orbit_times is None else a.orbit_times.tobytes()
    return repr(a.to_dict()), np.asarray(a.stability_exponents, dtype=float).tobytes(), times


@pytest.mark.parametrize(
    "name, alpha", [("sphere3d", None), ("spiral2d", ALPHA), ("saddle2d", ALPHA)]
)
def test_catalog_early_stop_keeps_the_catalog(name, alpha, monkeypatch):
    # a search stopped on a known cycle is one the duplicate rule would drop,
    # and one stopped at a sink is one that would find no cycle
    from singularflow import attractors

    field = sf.builtin_field(name, alpha)
    transients = []  # (accepted steps, end) of each search's transient, in order
    lapped = []  # per cycle search: whether it reached its return laps
    run = attractors.renorm_integrate

    def counted_run(*args, **kwargs):
        rt = run(*args, **kwargs)
        if "event" in kwargs:  # a return lap
            if lapped:
                lapped[-1] = True
        elif "until" in kwargs:
            transients.append((len(rt.s) - 1, rt.s_end))
        return rt

    monkeypatch.setattr(attractors, "renorm_integrate", counted_run)
    reference = _catalog_without_early_stop(field)
    full, transients[:] = list(transients), []
    sink_bound = []  # per cycle search: whether it ended at a fixed point
    search = attractors.find_limit_cycle

    def counted_search(*args, **kwargs):
        lapped.append(False)
        sink_bound.append(False)
        try:
            return search(*args, **kwargs)
        except sf.LimitCycleNotFound as exc:
            sink_bound[-1] = "fixed point" in str(exc)
            raise

    monkeypatch.setattr(attractors, "find_limit_cycle", counted_search)
    catalog = sf.catalog_attractors(field)
    assert [_bits(a) for a in catalog] == [_bits(a) for a in reference]
    # one search per cycle and pass: sphere3d has one cycle in each direction,
    # spiral2d's circle is a cycle of the forward and of the reversed flow
    assert sum(lapped) <= 2
    # the same seeds in the same order; a stopped transient is a prefix of
    # the full one, and a search bound for a sink stops long before the
    # 80-unit transient ends (its steps lengthen as it settles, so the steps
    # saved are fewer than the time)
    assert len(transients) == len(full) == len(sink_bound)
    assert all(n <= m for (n, _), (m, _) in zip(transients, full))
    for (n, t_end), (m, _), sink in zip(transients, full, sink_bound):
        if sink:
            assert t_end < 20.0 and 3 * n < 2 * m
    if name == "saddle2d":
        # two sinks in each direction, no cycle: every search ends at one
        assert len(sink_bound) == 8 and all(sink_bound)


def test_search_inside_a_known_cycle_returns_it_at_the_first_poll(monkeypatch):
    # a transient that starts on a known cycle is inside its tube at the
    # first check, _SINK_POLL accepted steps in, and the search returns the
    # known object itself without running a lap
    from singularflow import attractors

    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    runs = []
    run = attractors.renorm_integrate

    def counted_run(*args, **kwargs):
        rt = run(*args, **kwargs)
        runs.append(len(rt.s) - 1)
        return rt

    monkeypatch.setattr(attractors, "renorm_integrate", counted_run)
    for k in (0, 300, 700):
        runs.clear()
        y0 = cyc.location[k]
        assert attractors.find_limit_cycle(field, y0, _known=[cyc]) is cyc
        assert runs == [attractors._SINK_POLL]


def test_label_consistency_with_renorm_averages():
    # classification by the attractor label agrees with the trajectory average
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    y0 = np.array([0.9, 0.1, 0.4])
    y0 /= np.linalg.norm(y0)
    rt = sf.renorm_integrate(field, y0, 0.0, 250.0)
    av = sf.radial_averages(rt, 60.0)
    assert abs(av.lower - cyc.mean_radial) < 1e-3
    assert abs(av.upper - cyc.mean_radial) < 1e-3
    assert cyc.label == "defocusing" and av.lower > 0


def test_defocusing_label_cases():
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    assert cyc.label == "defocusing"
    fps = sf.find_fixed_points(saddle())
    plus = min(fps, key=lambda p: np.linalg.norm(p.location - np.array([1.0, 0.0])))
    assert plus.label == "defocusing"
    minus = min(fps, key=lambda p: np.linalg.norm(p.location - np.array([-1.0, 0.0])))
    assert minus.label == "focusing"
    # degenerate synthetic cycle with F_r = 0 everywhere
    rot = sf.SingularField(2, ALPHA, lambda y: np.array([-y[1], y[0]]))
    cyc0 = sf.find_limit_cycle(rot, np.array([1.0, 0.0]))
    assert cyc0.label in ("focusing", "degenerate")


def test_tau_entry_value():
    assert sf.tau_entry(-1.0, ALPHA) == pytest.approx(-1.5, rel=1e-14)
    with pytest.raises(sf.SignError):
        sf.tau_entry(0.5, ALPHA)


def test_rescaled_escape_trapping_blend():
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], 0.1)
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.outcome == "trapped"
    assert res.tau_ent == pytest.approx(-1.5, rel=1e-12)
    assert res.r_bound is not None and res.r_bound < 2.0
    assert res.certificate


def test_rescaled_escape_expelling_blend():
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 0.1)
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.outcome == "expelled"
    assert res.tau_esc is not None and res.tau_esc > res.tau_ent
    assert np.linalg.norm(res.y_esc) == pytest.approx(1.0, abs=1e-10)
    # the escape direction lands in the basin of the defocusing point (1, 0)
    assert res.attractor is not None
    assert res.attractor.kind == "fixed_point"
    assert res.attractor.location == pytest.approx([1.0, 0.0], abs=1e-8)


def test_rescaled_escape_step_failure_is_undetermined():
    # a failed run inside the ball proves nothing about trapping
    field = saddle()
    rf = sf.RegularizedField(field, 0.1, lambda X: np.full(2, np.nan))
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.outcome == "undetermined"
    assert "integration failed" in res.certificate
    assert "non-finite" in res.certificate


def test_rescaled_escape_is_scale_invariant():
    field = saddle()
    outcomes = []
    for nu in (1.0, 0.1, 0.003):
        rf = sf.make_polynomial_blend(field, [1.0, -2.0], nu)
        res = sf.rescaled_escape(rf, [-1.0, 0.0])
        outcomes.append((res.outcome, res.tau_esc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def quarter_speed_sphere():
    # sphere3d's map at a quarter of the speed: the same latitude cycles, of
    # period 8 pi, whose five periods exceed the default window of 50
    base = sf.builtin_field("sphere3d")
    smap, jac = base.sphere_map, base.jacobian_on_sphere
    return dataclasses.replace(
        base,
        sphere_map=lambda y: 0.25 * np.asarray(smap(y)),
        jacobian_on_sphere=lambda y: 0.25 * np.asarray(jac(y)),
        name="sphere3d/4",
    )


def test_rescaled_escape_window_stretches_to_the_landing_cycle():
    # the cycle is known only once the excursion lands on it; the window is
    # then stretched to five of its periods, five closed-form 8 pi
    field = quarter_speed_sphere()
    rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
    res = sf.rescaled_escape(rf, [0.0, 0.0, -1.0])
    window = float(re.search(r"over a window of (\S+) renormalized", res.certificate).group(1))
    assert res.outcome == "expelled"
    assert res.attractor.kind == "limit_cycle" and res.attractor.label == "defocusing"
    assert res.attractor.period == pytest.approx(8 * math.pi, abs=1e-8)
    assert window == pytest.approx(5 * 8 * math.pi, abs=1e-2)


def test_outside_excursion_ends_at_reentry(monkeypatch):
    # re-entry is the located downward crossing of Z = 0: Z there is zero to
    # the locator's tolerance, on the side crossed to, and the crossing lies
    # in the first step of the full-window run whose end has Z <= 0
    from singularflow import attractors

    field = saddle()
    d = field.dimension
    y_exit = np.array([-0.324, 0.946]) / math.hypot(-0.324, 0.946)
    opts = sf.IntegrationOptions()
    located = []
    search = attractors.renorm_integrate

    def recorded(*args, **kwargs):
        rt = search(*args, **kwargs)
        located.append(rt.run)
        return rt

    monkeypatch.setattr(attractors, "renorm_integrate", recorded)
    out = attractors._outside_excursion(field, y_exit, 50.0, opts)
    assert out["reentered"]
    (run,) = located
    assert run.status == "hit_event"
    s_re, u_re = run.t_end, run.final_state
    full = sf.renorm_integrate(
        field, y_exit, 0.0, 50.0, sf.IntegrationOptions(rtol=opts.rtol, atol=opts.atol)
    )
    z = full.z
    k = next(i for i in range(1, len(z)) if z[i] <= 0.0)
    assert full.s[k - 1] < s_re <= full.s[k] < full.s_end
    assert -1e-12 * max(z[k - 1], -z[k]) <= u_re[d] <= 0.0
    # the search takes the full run's steps up to the crossing
    assert np.array_equal(run.states[:k], full.run.states[:k])
    # the time quadrature stops at the crossing's fraction of its full step
    assert out["dtau"] == sf.physical_time(full, s_re)
    assert np.array_equal(out["y_end"], u_re[:d] / np.linalg.norm(u_re[:d]))


def test_attractor_serialization():
    cat = sf.catalog_attractors(saddle())
    for a in cat:
        d = a.to_dict()
        assert d["kind"] == a.kind
        assert "label" in d and "mean_radial" in d


def _rotating_circle(mean):
    # F(y) = (mean + y1/2) y + (-y2, y1): the whole unit circle is a cycle of
    # period 2 pi, along which F_r = mean + y1/2 changes sign for |mean| < 1/2
    return sf.SingularField(2, ALPHA, lambda y: (mean + 0.5 * y[0]) * y + np.array([-y[1], y[0]]))


def test_defocusing_label_of_a_cycle_whose_radial_rate_changes_sign():
    field = _rotating_circle(0.25)
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0]))
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert cyc.mean_radial == pytest.approx(0.25, abs=1e-8)
    # min F_r < 0 on the cycle: the label follows the sign of the mean alone
    assert min(sf.decompose(field, y).radial for y in cyc.location) < 0.0
    assert cyc.label == "defocusing"
    field = _rotating_circle(-0.25)
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0]))
    assert cyc.mean_radial == pytest.approx(-0.25, abs=1e-8)
    assert cyc.label == "focusing"


def test_cycle_table_is_the_converged_lap(monkeypatch):
    # from a direction on the cycle, with no transient, the section laps are
    # the whole search: the converged lap is tabulated, nothing is re-run
    from singularflow import attractors

    runs = []
    monkeypatch.setattr(attractors, "integrate", lambda *a, **k: runs.append(a))
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([math.sqrt(3.0) / 2.0, 0.0, 0.5]), transient=0.0)
    assert runs == []
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert cyc.mean_radial == pytest.approx(0.25, abs=1e-8)
    assert np.abs(cyc.location[:, 2] - 0.5).max() < 1e-8
    assert np.linalg.norm(cyc.location[0] - cyc.location[-1]) < 1e-8
    assert cyc.orbit_times[0] == 0.0 and cyc.orbit_times[-1] == pytest.approx(cyc.period)


def test_landing_search_counts_the_excursion_as_transient(monkeypatch):
    # the benchmark's cycle escape: the 50-unit excursion settles the
    # direction, so its one landing search runs the remaining 30 units
    from singularflow import attractors

    searches = []
    search = attractors.find_limit_cycle

    def recorded(*args, **kwargs):
        searches.append(kwargs)
        return search(*args, **kwargs)

    monkeypatch.setattr(attractors, "find_limit_cycle", recorded)
    field = sf.builtin_field("sphere3d")
    rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
    res = sf.rescaled_escape(rf, [0.0, 0.0, -1.0])
    assert res.outcome == "expelled" and res.attractor.kind == "limit_cycle"
    assert res.attractor.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert [s.get("transient") for s in searches] == [30.0]


_SINK_CERTIFICATE = re.compile(r"interior sink x\* = \(([^)]*)\) at tau = (\S+):")


def sink_of(res):
    """x* and the tau named by a sink certificate."""
    m = _SINK_CERTIFICATE.search(res.certificate)
    assert m, res.certificate
    return np.array([float(v) for v in m.group(1).split(",")]), float(m.group(2))


def comb_field():
    """F(y) = cos(theta) y + sin(20 theta) y_perp: 40 fixed points on the circle,
    at theta = k pi / 20, the stable ones at odd k."""

    def smap(y):
        y = np.asarray(y, dtype=float)
        theta = math.atan2(y[1], y[0])
        return math.cos(theta) * y + math.sin(20 * theta) * np.array([-y[1], y[0]])

    return sf.SingularField(2, ALPHA, smap)


def test_escape_lands_on_a_fixed_point_the_seeded_catalog_misses():
    # 32 seeds find 32 of the 40 fixed points, and not the stable defocusing
    # one at 27 degrees.  A constant inner field carries the entry at 180
    # degrees across the ball to an exit at 24 degrees, in that point's basin
    # (18 to 36 degrees), and the excursion settles there.  The landing
    # direction is looked up by a Newton solve from it, not matched against
    # seeded roots, so the escape is certified on that point.
    field = comb_field()
    target = np.array([math.cos(math.radians(27.0)), math.sin(math.radians(27.0))])
    seeded = sf.find_fixed_points(field, n_seeds=32)
    assert len(seeded) == 32
    assert min(np.linalg.norm(a.location - target) for a in seeded) > 0.1
    chord = np.array([math.cos(math.radians(12.0)), math.sin(math.radians(12.0))])
    rf = sf.RegularizedField(field, 1.0, lambda X: chord)
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.y_esc == pytest.approx([math.cos(math.radians(24.0)), math.sin(math.radians(24.0))])
    assert res.outcome == "expelled"
    assert res.certificate.endswith("direction settled on the defocusing fixed_point")
    fp = res.attractor
    assert fp.kind == "fixed_point" and fp.stable and fp.label == "defocusing"
    assert np.linalg.norm(fp.location - target) < 1e-12
    assert fp.mean_radial == pytest.approx(math.cos(math.radians(27.0)), rel=1e-12)
    assert fp.stability_exponents == pytest.approx([-20.0], rel=1e-6)


def test_rescaled_escape_trapping_blend_settles_on_interior_sink():
    # the inside run ends on the stable focus x*, long before tau = 1000
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], 0.1)
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.outcome == "trapped"
    x_star, tau = sink_of(res)
    assert x_star == pytest.approx([-0.5129, 0.4792], abs=1e-3)
    assert tau <= 50.0
    assert "eigenvalues of Df(x*) -0.1908+2.296i, -0.1908-2.296i" in res.certificate
    assert res.r_bound is not None and 1.0 < res.r_bound < 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rescaled_escape_certifies_a_linear_sink(d):
    # inner map A (X - p) with A stable (a focus in the plane, a node across
    # it) under a field that collapses along every direction
    A = np.array([[-1.0, -0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, -0.5]])[:d, :d]
    p = np.full(d, 0.2)
    field = sf.SingularField(d, ALPHA, lambda y: -np.asarray(y, dtype=float))
    rf = sf.RegularizedField(field, 1.0, lambda X: A @ (np.asarray(X) - p))
    res = sf.rescaled_escape(rf, np.eye(d)[0])
    assert res.outcome == "trapped" and res.revisits == 1
    x_star, tau = sink_of(res)
    assert x_star == pytest.approx(p, abs=1e-6)
    assert tau < 5.0


def test_rescaled_escape_lingering_at_a_saddle_is_not_trapped(monkeypatch):
    # inner map A X with A (1, 0) = -(1, 0) and A (1, 1) = (1, 1): the entry
    # just off the stable axis lingers by the saddle at 0, where the speed
    # falls below the sink poll's threshold, then leaves along (1, 1) into
    # the basin of the defocusing direction (1, 0)
    from singularflow import attractors

    tried = []
    find = attractors._interior_sink

    def recorded(*args):
        tried.append(find(*args))
        return tried[-1]

    monkeypatch.setattr(attractors, "_interior_sink", recorded)
    field = saddle()
    rf = sf.RegularizedField(field, 1.0, lambda X: np.array([-X[0] + 2.0 * X[1], X[1]]))
    delta = 1e-4
    res = sf.rescaled_escape(rf, [-math.cos(delta), math.sin(delta)])
    # a certificate on the speed alone would have stopped the run here
    assert tried and all(sink is None for sink in tried)
    assert res.outcome == "expelled"
    assert res.attractor.location == pytest.approx([1.0, 0.0], abs=1e-8)


CENTER_A = 0.5


def center_field():
    # F(y) = (-y2, y1) + a y1 y: the direction turns at unit speed and
    # dz/ds = a y1, so every orbit is closed, z = a (sin(theta) - sin(theta_0))
    def sphere_map(y):
        y = np.asarray(y, dtype=float)
        return np.array([-y[1], y[0]]) + CENTER_A * y[0] * y

    return sf.SingularField(2, ALPHA, sphere_map, name="center")


def center_regularization(field):
    # the ideal field inside the ball too: the orbit entering at (-1, 0)
    # is inside for theta in (pi, 2 pi) and outside for theta in (0, pi),
    # with sup R = e^a, and never comes near the origin
    def inner(X):
        r = float(np.linalg.norm(X))
        return np.zeros(2) if r == 0.0 else r**ALPHA * field.sphere_map(np.asarray(X) / r)

    return sf.RegularizedField(field, 1.0, inner)


def test_rescaled_escape_bound_cap_exit(monkeypatch):
    from singularflow import attractors

    monkeypatch.setattr(attractors, "_R_BOUND_CAP", 1.5)
    field = center_field()
    res = sf.rescaled_escape(center_regularization(field), [-1.0, 0.0])
    assert res.outcome == "undetermined"
    assert res.certificate == "excursion exceeded the bound cap 1.5"
    assert res.revisits == 1
    assert res.r_bound == pytest.approx(math.exp(CENTER_A), rel=1e-5)


@pytest.mark.parametrize("visits, outcome", [(2, "undetermined"), (3, "trapped")])
def test_rescaled_escape_tau_budget_after_visits(visits, outcome, monkeypatch):
    # a lap spends dtau = e^((1-alpha) z) ds inside the ball and as much
    # again outside, by the midpoint rule; a budget halfway through the
    # last excursion ends the loop at that excursion's re-entry
    from singularflow import attractors

    field = center_field()
    n = 4096
    theta = (np.arange(n) + 0.5) * (math.pi / n)

    def half_lap(shift):
        return float(np.sum(np.exp((1 - ALPHA) * CENTER_A * np.sin(theta + shift)))) * math.pi / n

    t_in, t_out = half_lap(math.pi), half_lap(0.0)
    budget = sf.tau_entry(-CENTER_A, ALPHA) + (visits - 1) * (t_in + t_out) + t_in + t_out / 2
    monkeypatch.setattr(attractors, "_TAU_BUDGET", budget)
    res = sf.rescaled_escape(center_regularization(field), [-1.0, 0.0])
    assert res.outcome == outcome
    assert res.certificate.startswith(f"tau budget reached after {visits} visits; sup R = ")
    assert res.revisits == visits
    assert res.r_bound == pytest.approx(math.exp(CENTER_A), rel=1e-5)


def test_rescaled_escape_stays_in_the_ball_without_a_sink(monkeypatch):
    # Hopf normal form inside the ball: an attracting cycle of radius 1/2
    # around an unstable focus, where the speed stays near 1/2, so no sink
    # is sought and the tau budget decides
    from singularflow import attractors

    monkeypatch.setattr(attractors, "_TAU_BUDGET", 30.0)
    field = saddle()
    rf = sf.RegularizedField(
        field, 1.0,
        lambda X: (0.25 - float(np.dot(X, X))) * np.asarray(X) + np.array([-X[1], X[0]]),
    )
    res = sf.rescaled_escape(rf, [-1.0, 0.0])
    assert res.outcome == "trapped"
    assert res.certificate == "stayed in the unit ball until tau = 30 after 1 visit(s); sup R = 1"


def test_sink_watch_calls_count_in_the_inside_run_stats(monkeypatch):
    # the sink search's Newton Jacobians and boundary samples are charged to
    # the inside run, whose stats then count every call of the rescaled
    # right-hand side; the speed polls read the stepper's own derivative and
    # make none
    from singularflow import attractors

    calls = [0]
    runs = []
    sink_calls = [0]
    build, search = attractors.regularized_rhs, attractors.integrate
    sink = attractors._interior_sink

    def counted_sink(rhs, x, tau):
        def counted(t, z):
            sink_calls[0] += 1
            return rhs(t, z)

        return sink(counted, x, tau)

    def counted_rhs(rf):
        rhs = build(rf)

        def counted(t, x):  # no float form: every stepper call comes here
            calls[0] += 1
            return rhs(t, x)

        return counted

    def recorded(*args, **kwargs):
        runs.append(search(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(attractors, "regularized_rhs", counted_rhs)
    monkeypatch.setattr(attractors, "integrate", recorded)
    monkeypatch.setattr(attractors, "_interior_sink", counted_sink)
    A = np.array([[-1.0, -0.5], [0.5, -1.0]])
    field = sf.SingularField(2, ALPHA, lambda y: -np.asarray(y, dtype=float))
    rf = sf.RegularizedField(field, 1.0, lambda X: A @ (np.asarray(X) - 0.2))
    res = sf.rescaled_escape(rf, [1.0, 0.0])
    assert res.outcome == "trapped" and [run.status for run in runs] == ["stopped"]
    stats = runs[0].stats
    # the start, the starting-step probe, six stages per attempted step and
    # the sink search: nothing else
    assert sink_calls[0] > 0
    assert stats.rhs_calls == calls[0] == 2 + 6 * (stats.accepted + stats.rejected) + sink_calls[0]


def test_max_step_reaches_every_internal_run(monkeypatch):
    # every internal run inherits the caller's options with only the radius
    # floor turned off, so a step cap bounds the cycle search, the escape
    # probe (inside and outside the ball) and the family runs alike
    from singularflow import attractors, renorm

    caps = []
    run = renorm.integrate

    def recorded(rhs, x0, t0, t1, opts, *args, **kwargs):
        caps.append(opts.max_step)
        return run(rhs, x0, t0, t1, opts, *args, **kwargs)

    # the modules that call integrate: renorm_integrate's runs, and the
    # escape probe's inside run
    monkeypatch.setattr(renorm, "integrate", recorded)
    monkeypatch.setattr(attractors, "integrate", recorded)
    opts = sf.IntegrationOptions(max_step=0.5)
    spiral = sf.builtin_field("spiral2d", ALPHA)
    cycle = sf.find_limit_cycle(spiral, [1.0, 0.0], opts)
    searched = len(caps)
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 0.1)
    assert sf.rescaled_escape(rf, [-1.0, 0.0], opts).outcome == "expelled"
    escaped = len(caps)
    sf.build_cycle_family(spiral, cycle, 0.0, opts)
    assert 0 < searched < escaped < len(caps)
    assert set(caps) == {0.5}


def test_rescaled_escape_bound_reads_the_dense_maximum(monkeypatch):
    # at loose tolerances the steps are long, and the largest accepted
    # sample of Z misses the orbit's sup R = e^a by 1.5e-3; the maximum of
    # the dense Z on the turning step does not
    from singularflow import attractors

    monkeypatch.setattr(attractors, "_R_BOUND_CAP", 1.5)
    opts = sf.IntegrationOptions(rtol=1e-6, atol=1e-9)
    res = sf.rescaled_escape(center_regularization(center_field()), [-1.0, 0.0], opts)
    assert res.certificate == "excursion exceeded the bound cap 1.5"
    assert res.r_bound == pytest.approx(math.exp(CENTER_A), rel=1e-4)


def test_cycle_search_laps_restart_from_projected_returns():
    # a located section return lies off the sphere by the dense output's
    # error (|y| = 0.9999999978 on the first return here), more than
    # renorm_integrate accepts of a start: each lap starts from the
    # projection of the return before it
    cyc = sf.find_limit_cycle(sf.builtin_field("sphere3d"), [1.0, 0.0, 0.35], transient=6.0)
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert np.abs(cyc.location[:, 2] - 0.5).max() < 1e-6
    assert cyc.mean_radial == pytest.approx(0.25, abs=1e-8)
