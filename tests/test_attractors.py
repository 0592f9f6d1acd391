import math

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
            sf.eval_sphere_map(saddle(), p.location)
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
    assert rate == pytest.approx(0.75, rel=0.1)


def test_spiral_whole_circle_orbit():
    field = sf.builtin_field("spiral2d", ALPHA)
    cyc = sf.find_limit_cycle(field, np.array([0.3, -0.9]) / np.linalg.norm([0.3, -0.9]))
    assert cyc.period == pytest.approx(2 * math.pi, abs=1e-8)
    assert cyc.mean_radial == pytest.approx(1.0, abs=1e-10)
    assert cyc.stability_exponents.size == 0  # no transverse direction on S^1


def test_limit_cycle_not_found_in_fixed_point_basin():
    with pytest.raises(sf.LimitCycleNotFound):
        sf.find_limit_cycle(saddle(), np.array([-0.8, 0.6]))


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


def _catalog_without_early_stop(field, n_seeds=32, cycle_seeds=8, seed=0):
    # every cycle search runs to completion; duplicates are dropped afterwards
    from singularflow.attractors import _seed_directions

    fps = sf.find_fixed_points(field, n_seeds=n_seeds, seed=seed)
    cycles = []
    for reverse in (False, True):
        for y0 in _seed_directions(field.dimension, cycle_seeds, seed + 1):
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
    run = attractors.integrate

    def counted_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        if "until" in kwargs:
            transients.append((len(traj.times) - 1, traj.t_end))
        return traj

    monkeypatch.setattr(attractors, "integrate", counted_run)
    reference = _catalog_without_early_stop(field)
    full, transients[:] = list(transients), []
    lapped = []  # per cycle search: whether it reached its return laps
    sink_bound = []  # per cycle search: whether it ended at a fixed point
    search, crossing = attractors.find_limit_cycle, attractors._integrate_to_crossing

    def counted_search(*args, **kwargs):
        lapped.append(False)
        sink_bound.append(False)
        try:
            return search(*args, **kwargs)
        except sf.LimitCycleNotFound as exc:
            sink_bound[-1] = "fixed point" in str(exc)
            raise

    def counted_crossing(*args, **kwargs):
        lapped[-1] = True
        return crossing(*args, **kwargs)

    monkeypatch.setattr(attractors, "find_limit_cycle", counted_search)
    monkeypatch.setattr(attractors, "_integrate_to_crossing", counted_crossing)
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


def test_tube_bound_never_rejects_a_point_in_the_tube():
    # the block lower bound may only rule a cycle out where distance_to
    # does: random unit directions in, at the edge of, and around the tube
    from singularflow.attractors import _Tube

    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    tube = _Tube(cyc)
    rng = np.random.default_rng(9)
    ruled_out = inside = 0
    for _ in range(4000):
        base = cyc.location[rng.integers(len(cyc.location))]
        y = base + rng.standard_normal(3) * tube.radius * 10.0 ** rng.uniform(-2.0, 2.0)
        y /= np.linalg.norm(y)
        exact = cyc.distance_to(y) < tube.radius
        diff = tube.centres - y
        bound = float(np.min(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - tube.radii))
        assert bound <= cyc.distance_to(y) + 1e-15
        assert tube.holds(y) == exact
        inside += exact
        ruled_out += bound - tube._SLACK >= tube.radius
    assert inside > 400 and ruled_out > 400


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


def test_verify_defocusing_condition_cases():
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0, 0.05]))
    assert sf.verify_defocusing_condition(field, cyc) == "satisfied"
    fps = sf.find_fixed_points(saddle())
    plus = min(fps, key=lambda p: np.linalg.norm(p.location - np.array([1.0, 0.0])))
    assert sf.verify_defocusing_condition(saddle(), plus) == "satisfied"
    minus = min(fps, key=lambda p: np.linalg.norm(p.location - np.array([-1.0, 0.0])))
    assert sf.verify_defocusing_condition(saddle(), minus) == "violated"
    # degenerate synthetic cycle with F_r = 0 everywhere
    rot = sf.SingularField(2, ALPHA, lambda y: np.array([-y[1], y[0]]))
    cyc0 = sf.find_limit_cycle(rot, np.array([1.0, 0.0]))
    assert sf.verify_defocusing_condition(rot, cyc0) in ("violated", "inconclusive")


def test_tau_entry_value():
    assert sf.tau_entry(-1.0, ALPHA) == pytest.approx(-1.5, rel=1e-14)
    with pytest.raises(sf.SignError):
        sf.tau_entry(0.5, ALPHA)


def test_rescaled_escape_trapping_blend():
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], 0.1)
    res = sf.rescaled_escape(field, rf, [-1.0, 0.0])
    assert res.outcome == "trapped"
    assert res.tau_ent == pytest.approx(-1.5, rel=1e-12)
    assert res.r_bound is not None and res.r_bound < 2.0
    assert res.certificate


def test_rescaled_escape_expelling_blend():
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 0.1)
    res = sf.rescaled_escape(field, rf, [-1.0, 0.0])
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
    res = sf.rescaled_escape(field, rf, [-1.0, 0.0], catalog=[])
    assert res.outcome == "undetermined"
    assert "integration failed" in res.certificate
    assert "non-finite" in res.certificate


def test_rescaled_escape_is_scale_invariant():
    field = saddle()
    outcomes = []
    for nu in (1.0, 0.1, 0.003):
        rf = sf.make_polynomial_blend(field, [1.0, -2.0], nu)
        res = sf.rescaled_escape(field, rf, [-1.0, 0.0])
        outcomes.append((res.outcome, res.tau_esc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_outside_excursion_ends_at_reentry(monkeypatch):
    # the run ends on the step of the first downward crossing of Z = 0; the
    # steps never depend on the poll, so the result is the full window's,
    # bit for bit
    from singularflow import attractors

    field = saddle()
    y_exit = np.array([-0.324, 0.946]) / math.hypot(-0.324, 0.946)
    opts = sf.IntegrationOptions()
    runs = []
    run = attractors.renorm_integrate

    def recorded(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    def full_window(*args, until=None, **kwargs):
        return recorded(*args, **kwargs)

    monkeypatch.setattr(attractors, "renorm_integrate", recorded)
    stopped = attractors._outside_excursion(field, y_exit, 50.0, opts)
    monkeypatch.setattr(attractors, "renorm_integrate", full_window)
    reference = attractors._outside_excursion(field, y_exit, 50.0, opts)
    assert stopped["reentered"]
    bits = lambda out: {k: np.asarray(v).tobytes() for k, v in out.items()}
    assert bits(stopped) == bits(reference)
    short, full = runs
    n = len(short.s)
    assert np.array_equal(short.base.states, full.base.states[:n])
    z = full.z
    crossing = next(i for i in range(1, len(z)) if z[i - 1] > 0.0 >= z[i])
    assert n - 1 == crossing < (len(z) - 1) // 2


def test_attractor_serialization():
    cat = sf.catalog_attractors(saddle())
    for a in cat:
        d = a.to_dict()
        assert d["kind"] == a.kind
        assert "label" in d and "mean_radial" in d
