import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import singularflow as sf

ALPHA = 1.0 / 3.0


def power1d_rhs():
    f = sf.builtin_field("power1d", ALPHA)
    return lambda t, x: sf.eval_field(f, x)


def saddle_rhs():
    f = sf.builtin_field("saddle2d", ALPHA)
    return lambda t, x: sf.eval_field(f, x)


def test_power1d_closed_form():
    # separation of variables: x(t) = x0 (1 + (2/3)|x0|^{-2/3} t)^{3/2}
    exact = (1.0 + 2.0 / 3.0) ** 1.5
    traj = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    assert traj.status == "completed"
    assert traj.final_state[0] == pytest.approx(exact, rel=1e-8)


def test_zero_rhs_constant():
    traj = sf.integrate(lambda t, x: np.zeros_like(x), [1.0, -2.0], 0.0, 5.0)
    assert np.all(traj.states == traj.states[0])
    assert traj.status == "completed"


def test_saddle_hits_radius_floor_before_blowup_time():
    traj = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 3.0)
    assert traj.status == "hit_radius_floor"
    assert traj.t_end < 1.5 + 1e-6
    assert np.linalg.norm(traj.final_state) == pytest.approx(1e-10, rel=1e-6)


def test_step_failure_on_finite_time_escape():
    # x' = 1 + x^2 reaches infinity at t = pi/2: the step size underflows
    # and the partial trajectory is carried by the exception
    opts = sf.IntegrationOptions(r_floor=0.0)
    with pytest.raises(sf.StepFailure) as exc:
        sf.integrate(lambda t, x: 1.0 + x * x, [0.0], 0.0, 2.0, opts)
    partial = exc.value.trajectory
    assert partial.status == "step_failure"
    assert partial.t_end == pytest.approx(math.pi / 2, abs=1e-6)


# Runs in a child process: an integrator that loops on a NaN must fail the
# test by timing out instead of hanging the suite.
NAN_SCRIPT = """
import json
import numpy as np
import singularflow as sf

def late_nan(t, x):
    return np.array([np.nan if t > 0.5 else 1.0])

out = {}
for name, rhs in [("late", late_nan), ("start", lambda t, x: np.full(2, np.nan))]:
    try:
        sf.integrate(rhs, np.zeros(1 if name == "late" else 2), 0.0, 1.0)
    except sf.StepFailure as exc:
        out[name] = [exc.trajectory.status, exc.trajectory.t_end, str(exc)]
event = lambda t, x: x[0] - 2.0
try:
    sf.integrate_to_event(late_nan, [0.0], 0.0, event, +1)
except sf.NoEvent as exc:
    out["event"] = str(exc)
print(json.dumps(out))
"""


def test_non_finite_rhs_raises_step_failure():
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", NAN_SCRIPT], env=env, capture_output=True, text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("integrate did not terminate on a NaN right-hand side")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    status, t_end, msg = out["late"]
    assert status == "step_failure"
    assert t_end <= 0.5
    assert "non-finite" in msg
    status, t_end, msg = out["start"]
    assert status == "step_failure" and t_end == 0.0 and "non-finite" in msg
    assert "non-finite" in out["event"]


def test_tolerance_ladder_convergence():
    # The embedded 5(4) pair gives endpoint error ~ tol^(4/5): a 256x
    # tolerance reduction must cut the error at least 4x until the 1e-12
    # floor (endpoint error of an adaptive embedded pair scales like tol^{4/5}).
    exact = (1.0 + 2.0 / 3.0) ** 1.5
    rhs = power1d_rhs()
    errs = []
    for rtol in (1e-5, 1e-5 / 256, 1e-5 / 256**2):
        opts = sf.IntegrationOptions(rtol=rtol, atol=rtol * 1e-3)
        traj = sf.integrate(rhs, [1.0], 0.0, 1.0, opts)
        errs.append(abs(traj.final_state[0] - exact))
    for a, b in zip(errs, errs[1:]):
        if a < 1e-12:
            break
        assert b <= a / 4.0


def test_determinism_bitwise():
    runs = []
    for _ in range(2):
        traj = sf.integrate(saddle_rhs(), [-0.3, 0.4], 0.0, 1.0)
        runs.append((traj.times.copy(), traj.states.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_event_ball_entry_time():
    # entry into r = nu along the collapse ray: t = t_b - nu^{1-alpha} / ((2/3))
    nu = 0.1
    expected = 1.5 - 1.5 * nu ** (2.0 / 3.0)
    event = lambda t, x: np.linalg.norm(x) - nu
    t_e, x_e, traj = sf.integrate_to_event(
        saddle_rhs(), [-1.0, 0.0], 0.0, event, -1, sf.IntegrationOptions(horizon=3.0)
    )
    assert t_e == pytest.approx(expected, abs=1e-7)
    assert np.linalg.norm(x_e) == pytest.approx(nu, abs=1e-10)
    assert traj.status == "hit_event"
    assert traj.t_end == t_e


def test_event_direction_precondition():
    event = lambda t, x: np.linalg.norm(x) - 0.1
    # already on the wrong side for a downward crossing
    with pytest.raises(sf.NoEventDirection):
        sf.integrate_to_event(saddle_rhs(), [-0.05, 0.0], 0.0, event, -1, sf.IntegrationOptions())
    # idempotence: restart exactly at the located event
    t_e, x_e, _ = sf.integrate_to_event(
        saddle_rhs(), [-1.0, 0.0], 0.0, event, -1, sf.IntegrationOptions(horizon=3.0)
    )
    with pytest.raises(sf.NoEventDirection):
        sf.integrate_to_event(saddle_rhs(), x_e, t_e, event, -1, sf.IntegrationOptions(horizon=3.0))


def test_no_event_within_horizon():
    event = lambda t, x: np.linalg.norm(x) - 5.0
    with pytest.raises(sf.NoEvent):
        sf.integrate_to_event(
            saddle_rhs(), [-1.0, 0.0], 0.0, event, +1, sf.IntegrationOptions(horizon=0.5)
        )


def test_no_event_carries_the_run_to_the_horizon():
    # the search already integrated to the horizon: that run equals integrate
    event = lambda t, x: np.linalg.norm(x) - 5.0
    opts = sf.IntegrationOptions(horizon=0.5)
    with pytest.raises(sf.NoEvent) as exc:
        sf.integrate_to_event(saddle_rhs(), [-1.0, 0.0], 0.0, event, +1, opts)
    run = exc.value.trajectory
    direct = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 0.5, opts)
    assert run.status == "completed"
    assert np.array_equal(run.times, direct.times)
    assert np.array_equal(run.states, direct.states)


def test_integrate_until_stops_on_a_prefix():
    full = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    seen = []

    def until(t, y, partial):
        seen.append(t)
        return t >= 0.5 and partial().t_end == t

    run = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0, until=until)
    assert run.status == "stopped"
    assert run.t_end == seen[-1] >= 0.5 > seen[-2]
    n = len(run.times)
    assert np.array_equal(run.states, full.states[:n])


def test_rhs_evaluated_once_at_the_start_point():
    # the stored first derivative is the stepper's first stage: one call at t0
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x

    run = sf.integrate(rhs, [1.0], 0.0, 1.0)
    assert len(run.times) - 1 == 19
    assert calls.count(0.0) == 1
    assert len(calls) == 116
    calls.clear()
    sf.integrate_to_event(rhs, [1.0], 0.0, lambda t, x: 0.5 - x[0], +1)
    assert calls.count(0.0) == 1


def _scalar_scan(event, direction, g_prev, step):
    # reference: np.linspace subsample times, one scalar Hermite call each
    from singularflow.integrators import _hermite_eval

    tp, yp, fp, tn, yn, fn = step
    ta, ga = tp, g_prev
    for tq in np.linspace(tp, tn, 9)[1:]:
        yq = yn if tq == tn else _hermite_eval(tq, tp, yp, fp, tn, yn, fn)
        gq = float(event(tq, yq))
        if (ga < 0.0 <= gq) if direction > 0 else (ga > 0.0 >= gq):
            return (ta, ga, tq, gq)
        ta, ga = tq, gq
    return None


def _crafted_steps():
    # x(s) = 1 - 6 s (1 - s) on a step with h f = -6 at its start and +6 at
    # its end: x dips to -1/2 and comes back, so both ends read x = 1 and
    # only the subsamples see the double crossing
    for tp, h in ((0.0, 1.0), (2.0, 0.5), (-3.0, 0.125)):
        yield (tp, np.array([1.0]), np.array([-6.0 / h]),
               tp + h, np.array([1.0]), np.array([6.0 / h]))
    rng = np.random.default_rng(7)
    for _ in range(300):
        tp = float(rng.uniform(-5.0, 5.0))
        h = float(rng.uniform(1e-3, 2.0))
        yp, fp, yn, fn = rng.standard_normal((4, 2))
        yield tp, yp, fp, tp + h, yn, fn


def test_event_scan_matches_a_scalar_reference():
    from singularflow.integrators import _locate_crossing, _scan_step

    events = (lambda t, x: float(x[0]), lambda t, x: math.sqrt(float(x @ x)) - 0.8)
    hits = 0
    for step in _crafted_steps():
        for event in events:
            g0 = event(step[0], step[1])
            for direction in (+1, -1):
                want = _scalar_scan(event, direction, g0, step)
                got, g_end = _scan_step(event, direction, g0, step)
                if want is None:
                    assert got is None
                    assert g_end == event(step[3], step[4])
                    continue
                hits += 1
                # same sub-interval; the event values at its ends agree to
                # rounding of states of order one
                assert (got[0], got[2]) == (want[0], want[2])
                assert got[1] == pytest.approx(want[1], rel=0.0, abs=1e-14)
                assert got[3] == pytest.approx(want[3], rel=0.0, abs=1e-14)
                t_got, x_got = _locate_crossing(event, step, got)
                t_want, x_want = _locate_crossing(event, step, want)
                assert t_got == t_want
                assert np.array_equal(x_got, x_want)
    assert hits > 100
    # the dip: the first downward crossing is at s = (1 - 1/sqrt(3))/2 and
    # the first upward one at s = (1 + 1/sqrt(3))/2, inside the step
    step = next(_crafted_steps())
    for direction, s_root in ((-1, 0.5 - 0.5 / math.sqrt(3.0)), (+1, 0.5 + 0.5 / math.sqrt(3.0))):
        bracket, _ = _scan_step(events[0], direction, 1.0, step)
        assert bracket[0] < s_root <= bracket[2]
        t_e, _ = _locate_crossing(events[0], step, bracket)
        assert t_e == pytest.approx(s_root, abs=1e-12)


def _sphere_steps(rng, n):
    # random steps about a sphere of radius R, d = 1..3: generic ones, steps
    # with both ends within 1e-15 R of the sphere, short steps in a 1e-6 R
    # shell about it, and shallow chords just inside it
    for i in range(n):
        d = 1 + i % 3
        R = float(10.0 ** rng.uniform(-2.0, 1.0))
        h = float(10.0 ** rng.uniform(-3.0, 0.3))
        tp = float(rng.uniform(-5.0, 5.0))
        u, v, w = rng.standard_normal((3, d))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        kind = i % 4
        if kind == 0:
            yp, yn = R * rng.uniform(0.2, 2.0) * u, R * rng.uniform(0.2, 2.0) * v
        elif kind == 1:
            yp = R * (1.0 + rng.choice([-1e-15, 0.0, 1e-15])) * u
            yn = R * (1.0 + rng.choice([-1e-15, 0.0, 1e-15])) * v
        elif kind == 2:
            yp = R * (1.0 + rng.uniform(-1e-6, 1e-6)) * u
            yn = yp + 1e-7 * R * v
        else:
            w -= (w @ u) * u
            yp, yn = R * (1.0 - 1e-9) * u + 1e-5 * R * w, R * (1.0 - 1e-9) * u - 1e-5 * R * w
        fp, fn = rng.standard_normal((2, d)) * (R / h) * rng.choice([0.0, 1e-6, 1e-3, 0.1, 1.0])
        yield R, (tp, yp, fp, tp + h, yn, fn)


def _crafted_sphere_steps():
    # R = 1.  The hull touches the sphere (P1 = P2 = 1) while the curve peaks
    # at 0.975; the curve R + 1e-3 - (s - 7/16)^2 leaves and re-enters the
    # ball inside the subsample (3/8, 1/2), where no scan can see it; one
    # plain exit; ends at 1 -+ 1e-15 with zero and nonzero slopes
    yield (0.0, np.array([0.9]), np.array([0.3]), 1.0, np.array([0.9]), np.array([-0.3]))
    top = 1.0 + 1e-3
    yield (0.0, np.array([top - (7 / 16) ** 2]), np.array([7 / 8]),
           1.0, np.array([top - (9 / 16) ** 2]), np.array([-9 / 8]))
    yield (0.0, np.array([0.9, 0.0]), np.array([0.2, 0.1]), 1.0, np.array([1.1, 0.1]),
           np.array([0.2, 0.1]))
    for a, b in ((-1e-15, 1e-15), (1e-15, -1e-15), (-1e-15, -1e-15), (1e-15, 1e-15)):
        for slope in (0.0, 1e-3):
            yield (2.0, np.array([1.0 + a, 0.0]), np.array([0.0, slope]),
                   2.5, np.array([0.0, 1.0 + b]), np.array([-slope, 0.0]))


def test_sphere_event_scan_matches_the_plain_closure():
    from singularflow.integrators import _scan_step, _Sphere

    rng = np.random.default_rng(2024)
    steps = list(_sphere_steps(rng, 20000)) + [(1.0, s) for s in _crafted_sphere_steps()]
    skipped = brackets = 0
    for R, step in steps:
        sphere = _Sphere(R)
        plain = lambda t, x, R=R: math.sqrt(float(x.dot(x))) - R
        g0 = plain(step[0], step[1])
        assert sphere(step[0], step[1]) == g0
        skipped += sphere.clear_of(g0, step)
        for direction in (+1, -1):
            got = _scan_step(sphere, direction, g0, step)
            assert got == _scan_step(plain, direction, g0, step)
            brackets += got[0] is not None
    # both branches ran: many steps skipped, many crossings found
    assert skipped > 5000 and brackets > 1000
    crafted = list(_crafted_sphere_steps())
    touching, hidden, exit_step = crafted[:3]
    one = _Sphere(1.0)
    for step in (touching, hidden):
        assert not one.clear_of(one(0.0, step[1]), step)
        assert _scan_step(one, +1, one(0.0, step[1]), step)[0] is None
    assert _scan_step(one, +1, one(0.0, exit_step[1]), exit_step)[0] is not None


def test_error_norm_matches_the_numpy_formula():
    from singularflow.integrators import _error_norm

    rng = np.random.default_rng(5)
    for n in range(1, 10):
        for _ in range(2000):
            err = rng.standard_normal(n) * 10.0 ** rng.uniform(-14.0, 0.0, n)
            ay0, ay1 = np.abs(rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-4.0, 4.0, (2, n)))
            scale = 1e-12 + 1e-9 * np.maximum(ay0, ay1)
            want = math.sqrt(float(np.mean((err / scale) ** 2)))
            assert _error_norm(err, ay0.tolist(), ay1.tolist(), 1e-12, 1e-9) == want
    # a NaN in either |y| poisons the norm, as np.maximum does; an infinite
    # |y| only widens the scale
    err = np.array([1e-9, 0.0])
    assert math.isnan(_error_norm(err, [math.nan, 1.0], [1.0, 1.0], 1e-12, 1e-9))
    assert math.isnan(_error_norm(err, [1.0, 1.0], [1.0, math.nan], 1e-12, 1e-9))
    assert _error_norm(err, [math.inf, 1.0], [1.0, 1.0], 1e-12, 1e-9) == 0.0


def test_non_finite_state_or_rhs_ends_in_step_failure():
    # a NaN that only the error scale sees (a constant right-hand side, a
    # postprocess that breaks the state), and an infinite right-hand side
    def breaks_late(t, y):
        return np.array([math.nan if t > 0.5 else y[0], y[1]])

    runs = (
        (lambda t, x: np.ones(2), breaks_late),
        (lambda t, x: np.array([math.inf if t > 0.5 else 1.0, 0.0]), None),
    )
    opts = sf.IntegrationOptions(max_step=0.05)
    for rhs, post in runs:
        with np.errstate(invalid="ignore"):
            with pytest.raises(sf.StepFailure, match="non-finite") as exc:
                sf.integrate(rhs, [0.0, 0.0], 0.0, 1.0, opts, postprocess=post)
        assert exc.value.trajectory.status == "step_failure"
        assert exc.value.trajectory.t_end <= 0.5 + 0.05


def test_step_cap_ends_every_run(monkeypatch):
    from singularflow import integrators

    monkeypatch.setattr(integrators, "_MAX_STEPS", 5)
    decay = lambda t, x: -x
    with pytest.raises(sf.StepFailure, match="after 5 attempted steps") as exc:
        sf.integrate(decay, [1.0], 0.0, 100.0)
    partial = exc.value.trajectory
    assert partial.status == "step_failure"
    assert 2 <= len(partial.times) <= 6 and partial.t_end < 100.0
    never = lambda t, x: float(x[0]) + 1.0  # x decays to 0 and never reaches -1
    with pytest.raises(sf.StepFailure, match="after 5 attempted steps") as exc:
        integrators._integrate_to_crossing(
            decay, np.array([1.0]), 0.0, never, -1, integrators.DEFAULT_OPTIONS, 100.0
        )
    assert exc.value.trajectory.status == "step_failure"
    assert 2 <= len(exc.value.trajectory.times) <= 6


def test_rescaled_escape_event_reaches_unit_sphere():
    # expelling inner field: the rescaled solution exits R = 1 at finite tau
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)

    def rhs(t, x):
        r = np.linalg.norm(x)
        if r > 1.0:
            return sf.eval_field(field, x)
        return np.asarray(rf.inner_map(x), float)

    event = lambda t, x: np.linalg.norm(x) - 1.0
    opts = sf.IntegrationOptions(horizon=100.0, r_floor=0.0)
    # start just inside, on the entry ray
    x0 = np.array([-1.0, 0.0]) * (1 - 1e-9)
    t_esc, x_esc, _ = sf.integrate_to_event(rhs, x0, -1.5, event, +1, opts)
    assert np.linalg.norm(x_esc) == pytest.approx(1.0, abs=1e-10)
    assert -1.5 < t_esc < 10.0


def test_blowup_fit_on_ray():
    traj = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 3.0)
    t_b, p, resid = sf.estimate_blowup_time(traj, ALPHA)
    assert t_b == pytest.approx(1.5, abs=1e-6)
    assert p == pytest.approx(1.5, rel=0.01)
    assert resid < 1e-6


def test_blowup_fit_exact_self_similar_samples():
    # sample the closed-form collapse r(t) = ((2/3)(t_b - t))^{3/2} directly
    t_b = 0.77
    ts = np.linspace(0.0, t_b - 1e-6, 120)
    r = ((2.0 / 3.0) * (t_b - ts)) ** 1.5
    states = -np.column_stack([r, np.zeros_like(r)])
    derivs = np.gradient(states, ts, axis=0)
    traj = sf.Trajectory(ts, states, derivs, "hit_radius_floor")
    t_fit, p, resid = sf.estimate_blowup_time(traj, ALPHA)
    assert t_fit == pytest.approx(t_b, abs=1e-10)
    assert p == pytest.approx(1.5, abs=1e-6)


def test_blowup_fit_sphere3d_axis():
    field = sf.builtin_field("sphere3d")
    rhs = lambda t, x: sf.eval_field(field, x)
    traj = sf.integrate(rhs, [0.0, 0.0, -1.0], 0.0, 4.0)
    assert traj.status == "hit_radius_floor"
    t_b, p, _ = sf.estimate_blowup_time(traj, field.alpha)
    assert t_b == pytest.approx(3.0, abs=1e-6)
    assert p == pytest.approx(1.5, rel=0.01)


def test_blowup_fit_rejects_growth():
    traj = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    with pytest.raises(sf.NotBlowingUp):
        sf.estimate_blowup_time(traj, ALPHA)


def test_dense_output_accuracy():
    # cubic Hermite interpolation: error bounded by h^4/384 * max|y''''|
    rhs = lambda t, x: np.array([math.cos(t)])
    traj = sf.integrate(rhs, [0.0], 0.0, 10.0)
    ts = np.linspace(0.0, 10.0, 777)
    vals = traj.sample(ts)[:, 0]
    h_max = float(np.max(np.diff(traj.times)))
    bound = 1.2 * h_max**4 / 384 + 1e-9
    assert np.max(np.abs(vals - np.sin(ts))) < bound


def test_sample_out_of_range():
    traj = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    with pytest.raises(sf.OutOfRange):
        traj.sample(1.5)


def test_sample_rejects_non_finite_times():
    traj = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    for bad in (math.nan, math.inf, [0.5, math.nan]):
        with pytest.raises(sf.OutOfRange):
            traj.sample(bad)


def test_csv_format(tmp_path):
    traj = sf.integrate(saddle_rhs(), [-0.5, 0.2], 0.0, 0.5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) == len(traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == traj.times[0]
    # 17 significant digits round-trip exactly
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == traj.states[-1][0]


def test_options_validation():
    with pytest.raises(ValueError):
        sf.IntegrationOptions(rtol=0.0)
    with pytest.raises(ValueError):
        sf.IntegrationOptions(r_floor=-1.0)
    with pytest.raises(ValueError):
        sf.integrate(power1d_rhs(), [1.0], 1.0, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("which", ["rtol", "atol"])
def test_options_reject_non_positive_or_non_finite_tolerances(which, bad):
    # NaN passes a "<= 0" test, so a NaN tolerance used to be accepted
    with pytest.raises(ValueError, match="positive and finite"):
        sf.IntegrationOptions(**{which: bad})
