import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import singularflow as sf
from singularflow import integrators
from singularflow.renorm import renormalized_system

ALPHA = 1.0 / 3.0


def saddle():
    return sf.builtin_field("saddle2d", ALPHA)


def test_fixed_point_run_closed_forms():
    # from the collapsing direction: y stays put, z(s) = -s,
    # t(s) = 1.5 (1 - exp(-2s/3)); dense queries need small steps
    opts = sf.IntegrationOptions(rtol=1e-12, atol=1e-15, max_step=0.25)
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 20.0, opts)
    assert np.abs(rt.y - np.array([-1.0, 0.0])).max() < 1e-9
    assert np.abs(rt.z + rt.s).max() < 1e-8
    for s in (0.5, 3.0, 11.0):
        t_closed = 1.5 * (1.0 - math.exp(-2.0 * s / 3.0))
        assert sf.physical_time(rt, s) == pytest.approx(t_closed, abs=1e-8)
    assert sf.physical_time(rt, 0.0) == 0.0
    # approach to t_b from below
    assert sf.physical_time(rt, 20.0) < 1.5
    assert 1.5 - sf.physical_time(rt, 20.0) < 1e-5


def test_physical_time_out_of_range():
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 5.0)
    with pytest.raises(sf.OutOfRange):
        sf.physical_time(rt, 6.0)
    with pytest.raises(sf.NotUnitVector):
        sf.renorm_integrate(saddle(), [-1.2, 0.0], 0.0, 5.0)


def test_renorm_integrate_rejects_a_start_of_the_wrong_length():
    # the package's one unit-vector check names the expected length
    sphere3d = sf.builtin_field("sphere3d")
    for call in (lambda: sf.renorm_integrate(sphere3d, [1.0, 0.0], 0.0, 1.0),
                 lambda: sf.classify_blowup(sphere3d, [0.0, 1.0])):
        with pytest.raises(ValueError, match=r"expected a vector of length 3, got shape \(2,\)"):
            call()


def test_sphere_projection_invariant():
    rt = sf.renorm_integrate(saddle(), [-0.6, 0.8], 0.0, 40.0)
    assert np.abs(np.linalg.norm(rt.y, axis=1) - 1.0).max() <= 1e-9
    # s and t strictly increase
    assert np.all(np.diff(rt.s) > 0)
    assert np.all(np.diff(rt.t) > 0)


def _random_directions(d, n, seed):
    pts = np.random.default_rng(seed).standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("name", ["power1d", "saddle2d", "spiral2d", "sphere3d"])
def test_renormalized_system_rhs(name):
    field = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    d = field.dimension
    fwd, _ = renormalized_system(field)
    bwd, _ = renormalized_system(field, reverse=True)
    for y in _random_directions(d, 16, seed=d):
        u = np.concatenate([y, [0.3]])
        f, b = fwd(0.0, u), bwd(0.0, u)
        assert f.shape == (d + 1,)
        assert abs(float(y @ f[:d])) <= 1e-15  # the direction stays on the sphere
        assert np.array_equal(b[:d], -f[:d])
        assert b[d] == f[d]


def test_renormalized_system_state_length_and_projection():
    field = sf.builtin_field("sphere3d")
    # the state is (y, z): physical time is a quadrature along the run, not
    # a state component
    rhs, project = renormalized_system(field)
    u = np.array([0.0, 0.0, -1.0, 0.5])
    assert rhs(0.0, u).shape == (4,)
    on = project(0.0, u)
    assert on.tobytes() == u.tobytes()  # a unit direction keeps its bits
    off = np.array([0.0, 3.0, 4.0, 0.5])
    v = project(0.0, off)
    assert v is not off and off[1] == 3.0
    assert np.array_equal(v[:3], [0.0, 0.6, 0.8])
    assert np.array_equal(v[3:], off[3:])


@pytest.mark.parametrize(
    "name, y0",
    [("saddle2d", [-0.6, 0.8]), ("spiral2d", [0.6, 0.8]), ("sphere3d", [0.48, 0.6, 0.64])],
)
def test_reverse_run_retraces_the_forward_run(name, y0):
    # reverse negates dy/ds only: a reversed run from the end of a forward
    # run brings y back to its start, and z, which still accumulates F_r
    # along the traversal, gains the forward run's increment once more
    field = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    y0 = np.array(y0) / np.linalg.norm(y0)
    fwd = sf.renorm_integrate(field, y0, 0.0, 3.0)
    y_end = fwd.y[-1] / np.linalg.norm(fwd.y[-1])
    bwd = sf.renorm_integrate(field, y_end, fwd.z[-1], 3.0, reverse=True)
    assert fwd.run.status == bwd.run.status == "completed"
    assert np.abs(bwd.y[-1] - y0).max() < 1e-7
    assert bwd.z[-1] - fwd.z[-1] == pytest.approx(fwd.z[-1], abs=1e-7)


def test_renorm_integrate_ends_at_the_first_section_crossing():
    # spiral2d's direction turns at unit angular speed with F_r = 1: from
    # angle th0 the section y2 = 0 is crossed downward at s = pi - th0 and
    # upward at s = 2 pi - th0, and z = s there
    field = sf.builtin_field("spiral2d", ALPHA)
    th0 = math.atan2(0.8, 0.6)
    section = lambda s, u: float(u[1])
    for direction, s_cross in ((-1, math.pi - th0), (+1, 2.0 * math.pi - th0)):
        rt = sf.renorm_integrate(field, [0.6, 0.8], 0.0, 40.0, event=section,
                                 direction=direction)
        assert rt.run.status == "hit_event"
        assert rt.s_end == pytest.approx(s_cross, abs=1e-6)
        assert rt.z[-1] == pytest.approx(s_cross, abs=1e-6)
        assert abs(rt.y[-1][1]) < 1e-12
        assert np.sign(rt.y[-1][0]) == direction
        # the crossing's state is the dense output's, off the sphere by the
        # interpolant's error
        assert abs(np.linalg.norm(rt.y[-1]) - 1.0) < 1e-6


@pytest.mark.parametrize("direction", [0, 2])
def test_renorm_integrate_event_needs_a_direction(direction):
    section = lambda s, u: float(u[1])
    with pytest.raises(ValueError, match="direction"):
        sf.renorm_integrate(sf.builtin_field("spiral2d", ALPHA), [0.6, 0.8], 0.0, 40.0,
                            event=section, direction=direction)


def test_renormalized_run_keeps_fsal_across_the_projection():
    # the stages of each attempted step (accepted or rejected) and the
    # dense output's stages of each accepted one, plus one call at the start
    # point and one for the initial-step probe: the projection after an
    # accepted step costs no call
    import dataclasses

    field = sf.builtin_field("sphere3d")
    smap = field.sphere_map
    calls = 0

    def counted_map(y):
        nonlocal calls
        calls += 1
        return smap(y)

    counted = dataclasses.replace(field, sphere_map=counted_map)
    rt = sf.renorm_integrate(counted, [0.6, 0.0, 0.8], 0.0, 80.0)
    accepted = len(rt.s) - 1
    attempts = rt.run.stats.accepted + rt.run.stats.rejected
    assert rt.run.stats.accepted == accepted > 100
    assert calls == integrators._STAGES * attempts + integrators._DENSE_STAGES * accepted + 2
    # the projection still holds the direction on the sphere
    assert np.max(np.abs(np.linalg.norm(rt.y, axis=1) - 1.0)) < 1e-12


def test_radial_integral_cross_check():
    # z(s_max) - z0 equals the quadrature of F_r(y(s)) along the run;
    # the independent quadrature samples the dense output, so steps are
    # kept small enough for the interpolation to carry 1e-8
    from scipy.integrate import simpson

    field = saddle()
    opts = sf.IntegrationOptions(rtol=1e-11, atol=1e-14)
    rt = sf.renorm_integrate(field, [-0.6, 0.8], 0.0, 30.0, opts)
    s = np.linspace(0.0, 30.0, 8193)
    y = rt.run.sample(s)[:, :2]
    y /= np.linalg.norm(y, axis=1)[:, None]
    fr = np.array([sf.decompose(field, yi).radial for yi in y])
    quad = simpson(fr, x=s)
    assert abs((rt.z[-1] - rt.z[0]) - quad) < 1e-8


def test_radial_averages_values():
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 40.0)
    av = sf.radial_averages(rt, 20.0)
    assert av.lower == pytest.approx(-1.0, abs=1e-9)
    assert av.upper == pytest.approx(-1.0, abs=1e-9)

    spiral = sf.builtin_field("spiral2d", ALPHA)
    rt = sf.renorm_integrate(spiral, [1.0, 0.0], 0.0, 40.0)
    av = sf.radial_averages(rt, 20.0)
    assert av.lower == pytest.approx(1.0, abs=1e-10)
    assert av.upper == pytest.approx(1.0, abs=1e-10)

    s3 = sf.builtin_field("sphere3d")
    y0 = np.array([math.sqrt(3) / 2, 0.0, 0.5])
    rt = sf.renorm_integrate(s3, y0, 0.0, 60.0)
    av = sf.radial_averages(rt, 20.0)
    assert av.lower == pytest.approx(0.25, abs=1e-3)
    assert av.upper == pytest.approx(0.25, abs=1e-3)
    assert av.lower <= av.upper


def test_radial_averages_window_precondition():
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 10.0)
    with pytest.raises(ValueError):
        sf.radial_averages(rt, 8.0)


def test_classify_saddle_basins():
    v = sf.classify_blowup(saddle(), [-1.0, 0.0])
    assert v.verdict == "blowup"
    assert v.t_b == pytest.approx(1.5, abs=1e-6)
    v = sf.classify_blowup(saddle(), [1.0, 0.0])
    assert v.verdict == "escape_to_infinity"
    assert v.t_b is None
    y = np.array([-0.3, -0.9])
    y /= np.linalg.norm(y)
    assert sf.classify_blowup(saddle(), y).verdict == "blowup"


def counting(field):
    """The field with a sphere_map that counts its calls in calls[0]."""
    calls = [0]
    smap = field.sphere_map

    def counted(y):
        calls[0] += 1
        return smap(y)

    return sf.SingularField(field.dimension, field.alpha, counted), calls


@pytest.mark.parametrize("y0", [(-0.6, 0.8), (0.6, 0.8)])
def test_classify_is_one_run(y0):
    # the doubling stages resume one run instead of restarting at s = 0, so
    # classify's run is renorm_integrate's to the deciding stage, bit for
    # bit, up to the step that lands on the stage: classify's steps go on
    # past it.  Those cost at most three attempted steps more (one more
    # accepted and two more rejected at (0.6, 0.8), 794 calls against 755,
    # 1.052 times, where a run of 48 steps of the 8(5,3) pair ends), and a
    # restart at every stage would cost twice the run
    field, calls = counting(saddle())
    v = sf.classify_blowup(field, y0)
    assert v.reason == "stabilized"
    n_classify = calls[0]
    calls[0] = 0
    direct = sf.renorm_integrate(field, y0, 0.0, v.s_budget)
    shared = len(direct.s) - 1
    for a, b in ((v.renorm.s, direct.s), (v.renorm.y, direct.y), (v.renorm.z, direct.z)):
        assert a[:shared].tobytes() == b[:shared].tobytes()
    assert n_classify <= calls[0] + 3 * (integrators._STAGES + integrators._DENSE_STAGES)


def test_classify_stops_at_a_stage_passed_by_the_run():
    v = sf.classify_blowup(saddle(), [-0.6, 0.8])
    assert v.renorm.run.status == "stopped"
    assert v.s_budget <= v.renorm.s_end
    assert v.averages.horizon == v.s_budget / 2


def test_classify_reports_the_stage_it_measured_at():
    # on the ray one step runs past s = 32 and 64; each boundary gets its
    # own bracket, and the bracket at 32 already agrees with the one at 16
    v = sf.classify_blowup(saddle(), [-1.0, 0.0], math.log(2.0))
    assert v.verdict == "blowup"
    assert v.s_budget == 32.0 and v.averages.horizon == 16.0
    assert v.t_b == pytest.approx(1.5 * 2 ** (2 / 3), rel=1e-13)


# start angles at least 0.17 rad from the unstable directions pi/2, 3 pi/2
_GENERIC_ANGLES = st.one_of(st.floats(-1.4, 1.4), st.floats(1.75, 4.5))


@settings(deadline=None, derandomize=True, max_examples=20)
@given(_GENERIC_ANGLES, st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
def test_classify_scaling_symmetry(theta, z0, log_lam):
    # x -> lam x, t -> lam^(1-alpha) t maps solutions to solutions; in
    # renormalized variables it is the shift z0 -> z0 + log(lam)
    field = saddle()
    y0 = [math.cos(theta), math.sin(theta)]
    a = sf.classify_blowup(field, y0, z0)
    b = sf.classify_blowup(field, y0, z0 + log_lam)
    assert a.verdict == b.verdict
    if a.t_b is not None:
        expected = math.exp((1.0 - ALPHA) * log_lam) * a.t_b
        assert b.t_b == pytest.approx(expected, rel=1e-9)


# a latitude of sphere3d, clear of its poles
_LATITUDES = st.floats(-0.95, 0.95)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(st.sampled_from(["saddle2d", "sphere3d"]), _GENERIC_ANGLES, _LATITUDES,
       st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.floats(-3.0, 3.0))
def test_renorm_integrate_is_scaling_equivariant(name, theta, y3, z0, t0, log_lam):
    # x -> lam x, t -> lam^(1-alpha) t maps solutions to solutions: the run
    # from (y0, z0 + log lam) at t0 lam^(1-alpha) has the same y(s), and
    # z(s) + log lam and t(s) lam^(1-alpha).  The two runs take different
    # steps, so they agree to their global error, which stays below 2e3 rtol
    # on these starts; the bound is 1e4 rtol, relative to max(1, |value|)
    if name == "saddle2d":
        field, y0 = saddle(), [math.cos(theta), math.sin(theta)]
    else:
        rho = math.sqrt(1.0 - y3 * y3)
        field, y0 = sf.builtin_field(name), [rho * math.cos(theta), rho * math.sin(theta), y3]
    d, c = field.dimension, math.exp((1.0 - field.alpha) * log_lam)
    opts = sf.IntegrationOptions()
    base = sf.renorm_integrate(field, y0, z0, 10.0, opts, t0=t0)
    scaled = sf.renorm_integrate(field, y0, z0 + log_lam, 10.0, opts, t0=t0 * c)
    s = np.linspace(0.0, 10.0, 201)
    u, v = (np.column_stack([rt.run.sample(s), sf.physical_time(rt, s)]) for rt in (base, scaled))
    # each run starts at the time asked for, so t(s) is the physical time
    assert (u[0, d + 1], v[0, d + 1]) == (t0, t0 * c)
    bound = 1e4 * opts.rtol
    assert np.max(np.abs(v[:, :d] - u[:, :d])) <= bound
    for want, got in ((u[:, d] + log_lam, v[:, d]), (u[:, d + 1] * c, v[:, d + 1])):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound


def test_windowed_bracket_off_the_attractor():
    # started off the y3 = 1/2 cycle, the windowed increment forgets the
    # approach; the running mean (z(s) - z0)/s still carries it as C/s
    s3 = sf.builtin_field("sphere3d")
    y0 = np.array([0.9, 0.1, 0.4])
    y0 /= np.linalg.norm(y0)
    mean = sf.find_limit_cycle(s3, y0).mean_radial
    rt = sf.renorm_integrate(s3, y0, 0.0, 64.0)
    av = sf.radial_averages(rt, 16.0)
    assert abs(av.lower - mean) <= 1e-8
    assert abs(av.upper - mean) <= 1e-8
    assert abs((rt.z[-1] - rt.z[0]) / rt.s_end - mean) > 1e-4
    v = sf.classify_blowup(s3, y0)
    assert v.verdict == "escape_to_infinity"
    assert v.averages.lower <= mean + 1e-6 and v.averages.upper >= mean - 1e-6


def test_classify_degenerate_rotation():
    # pure rotation: F_r = 0 identically, no verdict possible
    field = sf.SingularField(2, ALPHA, lambda y: np.array([-y[1], y[0]]))
    v = sf.classify_blowup(field, [1.0, 0.0])
    assert v.verdict == "undetermined"
    assert v.reason == "degenerate"


def test_classify_blowup_time_matches_tail_fit():
    field = saddle()
    y0 = np.array([-0.6, 0.8])
    y0 /= np.linalg.norm(y0)
    v = sf.classify_blowup(field, y0)
    assert v.verdict == "blowup"
    traj = sf.integrate_ideal(field, y0, 0.0, v.t_b + 1.0)
    t_fit, _, _ = sf.estimate_blowup_time(traj, ALPHA)
    assert abs(t_fit - v.t_b) <= 1e-5 * abs(v.t_b)


def test_reconstruct_fixed_point_run():
    # closed-form collapse: r(t) = ((2/3)(1.5 - t))^{3/2} along (-1, 0)
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 25.0)
    traj = sf.reconstruct(rt)
    r = traj.radii()
    expected = ((2.0 / 3.0) * (1.5 - traj.times)) ** 1.5
    assert np.abs(r - expected).max() < 1e-8
    assert np.abs(traj.states[:, 1]).max() < 1e-12


def test_reconstruct_constant_when_degenerate():
    field = sf.SingularField(2, ALPHA, lambda y: np.array([-y[1], y[0]]))
    rt = sf.renorm_integrate(field, [1.0, 0.0], 0.0, 3.0)
    traj = sf.reconstruct(rt)
    assert np.abs(traj.radii() - 1.0).max() < 1e-9


@pytest.mark.parametrize("name", ["power1d", "saddle2d", "spiral2d", "sphere3d"])
def test_cross_oracle_reconstruct_vs_direct(name):
    # renormalized integration mapped back to x(t) agrees with direct
    # integration of the ideal field on the overlap r in [1e-6, r_b]
    field = sf.builtin_field(name) if name == "sphere3d" else sf.builtin_field(name, ALPHA)
    rng = np.random.default_rng(hash(name) % 2**32)
    opts = sf.IntegrationOptions(rtol=1e-11, atol=1e-14)
    for _ in range(10):
        y0 = rng.standard_normal(field.dimension)
        y0 /= np.linalg.norm(y0)
        rt = sf.renorm_integrate(field, y0, 0.0, 14.0 / (1 - field.alpha), opts)
        rec = sf.reconstruct(rt)
        keep = (rec.radii() >= 1e-6) & (np.exp(rt.z) <= math.e)
        if keep.sum() < 2:
            continue
        t_end = rec.times[keep].max()
        rhs = lambda t, x: sf.eval_field(field, x)
        direct = sf.integrate(rhs, y0, 0.0, t_end * (1 + 1e-12), opts)
        diff = rec.states[keep] - direct.sample(rec.times[keep])
        assert np.abs(diff).max() < 1e-6


def test_renorm_csv(tmp_path):
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 2.0)
    path = tmp_path / "renorm.csv"
    rt.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "s,y1,y2,z,t"
    assert len(lines) == len(rt.s) + 1


def test_verdict_record_round_trip():
    v = sf.classify_blowup(saddle(), [-1.0, 0.0])
    d = v.to_dict()
    assert d["verdict"] == "blowup"
    assert d["t_b"] == pytest.approx(1.5, abs=1e-6)
    assert set(d["averages"]) == {"lower", "upper", "horizon"}
    assert d["s_budget"] > 0


# Physical time is a quadrature over the dense z of each step, not a state
# component: it sets no step and is exact on a collapse ray, where z is linear

_RAYS = [("saddle2d", (-1.0, 0.0), -1.0), ("saddle2d", (0.0, -1.0), -1.0),
         ("sphere3d", (0.0, 0.0, -1.0), -0.5)]


@pytest.mark.parametrize("name, direction, fr", _RAYS)
@pytest.mark.parametrize("r0", [0.2, 1.0, 2.0])
def test_on_ray_blowup_time_is_the_closed_form(name, direction, fr, r0):
    field = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    v = sf.classify_blowup(field, direction, math.log(r0))
    closed = r0 ** (1.0 - field.alpha) / ((field.alpha - 1.0) * fr)
    assert v.verdict == "blowup"
    assert v.t_b == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("degrees", [40.0, 70.0])
def test_escape_starts_take_steps_for_the_direction_only(degrees):
    # t grows like e^((2/3) s) here; under error control it held the step
    # near 0.24, and 357-479 steps reached s = 64
    th = math.radians(degrees)
    rt = sf.renorm_integrate(saddle(), [math.cos(th), math.sin(th)], 0.0, 64.0)
    steps = len(rt.s) - 1
    assert steps <= 210
    assert rt.stats.accepted == steps


@pytest.mark.parametrize("degrees", [115.0, 120.0, 160.0, 200.0, 220.0])
@pytest.mark.parametrize("z0", [0.0, 1.0])
def test_off_ray_blowup_time_matches_a_tight_run(degrees, z0):
    th = math.radians(degrees)
    y0 = [math.cos(th), math.sin(th)]
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-16)
    v = sf.classify_blowup(saddle(), y0, z0)
    ref = sf.classify_blowup(saddle(), y0, z0, tight)
    assert v.verdict == ref.verdict == "blowup"
    assert v.t_b == pytest.approx(ref.t_b, rel=3e-10)


@pytest.mark.parametrize("offset", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6])
@pytest.mark.parametrize("name, direction, tangent", [
    ("saddle2d", (-1.0, 0.0), (0.0, 1.0)),
    ("saddle2d", (-1.0, 0.0), (0.0, -1.0)),
    # (0, -1) repels the direction flow; this side of it leads to (-1, 0)
    ("saddle2d", (0.0, -1.0), (-1.0, 0.0)),
    ("sphere3d", (0.0, 0.0, -1.0), (0.6, 0.8, 0.0)),
])
def test_starts_next_to_a_ray_keep_the_blowup_verdict(offset, name, direction, tangent):
    # the steps on a ray grow long; a start next to it is still followed
    field = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    y0 = np.array(direction) + offset * np.array(tangent)
    v = sf.classify_blowup(field, y0 / np.linalg.norm(y0))
    assert v.verdict == "blowup"


def test_physical_time_integrates_the_partial_step():
    # on the ray the steps grow to tens of units; between samples the time
    # comes from the dense z of the step, not from a Hermite of t
    rt = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 64.0)
    assert rt.stats.h_max > 10.0
    s = np.linspace(0.0, 64.0, 257)
    closed = 1.5 * (1.0 - np.exp(-2.0 * s / 3.0))
    assert np.max(np.abs(sf.physical_time(rt, s) - closed)) <= 1e-14
    assert np.max(np.abs(rt.t - 1.5 * (1.0 - np.exp(-2.0 * rt.s / 3.0)))) <= 1e-14
    assert sf.physical_time(rt, rt.s_end) == rt.t[-1]
    # a start at t0 shifts the time and nothing else
    shifted = sf.renorm_integrate(saddle(), [-1.0, 0.0], 0.0, 64.0, t0=2.0)
    assert np.array_equal(shifted.run.states, rt.run.states)
    assert np.max(np.abs(shifted.t - 2.0 - rt.t)) <= 1e-15


def test_an_escape_verdict_reads_no_physical_time():
    v = sf.classify_blowup(saddle(), [0.6, 0.8])
    assert v.verdict == "escape_to_infinity"
    assert "t" not in vars(v.renorm) and "base" not in vars(v.renorm)


def test_verdict_record_carries_the_run_stats():
    v = sf.classify_blowup(saddle(), [-0.6, 0.8])
    run = v.to_dict()["run"]
    stats = v.renorm.stats
    assert run == {"rhs_calls": stats.rhs_calls, "accepted": stats.accepted,
                   "rejected": stats.rejected, "h_min": stats.h_min, "h_max": stats.h_max,
                   "s_end": v.renorm.s_end}
    assert run["accepted"] == len(v.renorm.s) - 1
    assert run["s_end"] >= v.s_budget


def test_verdict_record_writes_the_stats_as_the_json_outputs_do():
    # SolverStats.to_dict: h_min is None while no step is counted
    from singularflow.integrators import SolverStats

    v = sf.classify_blowup(saddle(), [-0.6, 0.8])
    assert v.to_dict()["run"] == {**v.renorm.stats.to_dict(), "s_end": v.renorm.s_end}
    v.renorm.run.stats = SolverStats()
    assert v.to_dict()["run"]["h_min"] is None


def test_time_quadrature_rule_is_gauss_legendre():
    # the hand-written 8-point rule, mapped to [0, 1], is NumPy's bit for bit
    from singularflow import renorm

    x, w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(renorm._GL_NODES, 0.5 * (x + 1.0))
    assert np.array_equal(renorm._GL_WEIGHTS, 0.5 * w)


def test_physical_time_past_the_float_range_is_inf():
    # an escape run's time leaves the float range near s = 1066; from there
    # t is inf, at the samples and between them, never NaN
    th = math.radians(40.0)
    rt = sf.renorm_integrate(saddle(), [math.cos(th), math.sin(th)], 0.0, 1200.0)
    t = rt.t
    assert not np.isnan(t).any() and np.all(np.diff(t[np.isfinite(t)]) > 0)
    k = int(np.argmax(~np.isfinite(t)))
    assert 0 < k and np.all(np.isinf(t[k:]))
    s = [rt.s[k - 1], rt.s[k + 2], 0.5 * (rt.s[k + 2] + rt.s[k + 3])]
    assert sf.physical_time(rt, s[0]) == t[k - 1]
    assert np.isinf(sf.physical_time(rt, np.array(s[1:]))).all()
