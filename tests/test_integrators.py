import json
import math
import os
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize("alpha", [-1.9, -1.25, -0.5, 0.0, 1.0 / 3.0, 0.6, 0.9])
def test_power1d_closed_form_across_alpha(alpha):
    # dx/dt = sgn(x)|x|^alpha points away from the origin on both sides:
    # from x0 = +-1, x(t) = +-(1 + (1 - alpha) t)^(1/(1 - alpha))
    field = sf.builtin_field("power1d", alpha)
    rhs = lambda t, x: sf.eval_field(field, x)
    opts = sf.IntegrationOptions(rtol=1e-12, atol=1e-15)
    p = 1.0 - alpha
    for sign in (1.0, -1.0):
        traj = sf.integrate(rhs, [sign], 0.0, 2.0, opts)
        assert traj.status == "completed" and traj.t_end == 2.0
        # at the accepted steps, clear of the dense output's interpolation error
        exact = sign * (1.0 + p * traj.times) ** (1.0 / p)
        assert np.max(np.abs(traj.states[:, 0] / exact - 1.0)) <= 1e-11


@pytest.mark.parametrize(
    "name, alpha, x0",
    [
        ("spiral2d", 1.0 / 3.0, [1.0, 0.0]),
        ("saddle2d", -0.5, [math.cos(0.7), math.sin(0.7)]),
        ("sphere3d", None, [0.6, 0.0, 0.8]),
    ],
)
@pytest.mark.parametrize("lam", [1e-3, 0.5, 7.0, 1e3])
def test_integrate_is_scaling_equivariant(name, alpha, x0, lam):
    # f(lam x) = lam^alpha f(x), so the run from lam x0 at lam^(1 - alpha) t
    # is lam times the run from x0 at t
    field = sf.builtin_field(name, alpha)
    rhs = lambda t, x: sf.eval_field(field, x)
    opts = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    c = lam ** (1.0 - field.alpha)
    ts = np.linspace(0.0, 2.0, 41)
    base = sf.integrate(rhs, x0, 0.0, 2.0 * (1 + 1e-12), opts).sample(ts)
    scaled = sf.integrate(rhs, lam * np.array(x0), 0.0, 2.0 * c * (1 + 1e-12), opts)
    got = scaled.sample(c * ts) / lam
    err = np.linalg.norm(got - base, axis=1) / np.linalg.norm(base, axis=1)
    assert np.max(err) <= 1e-9


def test_zero_rhs_constant():
    traj = sf.integrate(lambda t, x: np.zeros_like(x), [1.0, -2.0], 0.0, 5.0)
    assert np.all(traj.states == traj.states[0])
    assert traj.status == "completed"


def test_saddle_hits_radius_floor_before_blowup_time():
    traj = sf.integrate_ideal(sf.builtin_field("saddle2d", ALPHA), [-1.0, 0.0], 0.0, 3.0)
    assert traj.status == "hit_radius_floor"
    assert traj.t_end < 1.5 + 1e-6
    assert np.linalg.norm(traj.final_state) == pytest.approx(1e-10, rel=1e-6)


def test_step_failure_on_finite_time_escape():
    # x' = 1 + x^2 reaches infinity at t = pi/2: the step size underflows
    # and the partial trajectory is carried by the exception
    with pytest.raises(sf.StepFailure) as exc:
        sf.integrate(lambda t, x: 1.0 + x * x, [0.0], 0.0, 2.0)
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
    sf.integrate(late_nan, [0.0], 0.0, 1000.0, event=event, direction=+1)
except sf.StepFailure as exc:
    out["event"] = [exc.trajectory.status, str(exc)]
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
    status, msg = out["event"]
    assert status == "step_failure" and "non-finite" in msg


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
    traj = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 3.0, event=event, direction=-1)
    assert traj.status == "hit_event"
    t_e, x_e = traj.t_end, traj.final_state
    assert t_e == pytest.approx(expected, abs=1e-7)
    assert np.linalg.norm(x_e) == pytest.approx(nu, abs=1e-10)


def test_event_counts_only_crossings_after_the_start():
    event = lambda t, x: np.linalg.norm(x) - 0.1
    # a start already on the side a downward crossing leads to is no
    # crossing: the run goes on toward the origin (t_b = 0.2036 from
    # |x0| = 0.05 on the collapse ray) and completes at t1
    inside = sf.integrate(saddle_rhs(), [-0.05, 0.0], 0.0, 0.15, event=event, direction=-1)
    assert inside.status == "completed"
    # idempotence: a restart exactly at the located event does not fire on
    # it, up to t1 = 1.4 < t_b = 1.5
    located = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 3.0, event=event, direction=-1)
    assert located.status == "hit_event"
    again = sf.integrate(saddle_rhs(), located.final_state, located.t_end, 1.4,
                         event=event, direction=-1)
    assert again.status == "completed"


@pytest.mark.parametrize("direction", [0, 2])
def test_event_needs_a_direction(direction):
    event = lambda t, x: np.linalg.norm(x) - 0.1
    with pytest.raises(ValueError, match="direction"):
        sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, 3.0, event=event, direction=direction)


@pytest.mark.parametrize("t1", [0.5, 1.4999])
def test_event_run_with_no_crossing_is_the_plain_run(t1):
    # a run that meets no crossing ends at t1, also deep in the collapse on
    # the ray (t_b = 1.5), with the steps of the run without the event
    event = lambda t, x: np.linalg.norm(x) - 5.0
    run = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, t1, event=event, direction=+1)
    direct = sf.integrate(saddle_rhs(), [-1.0, 0.0], 0.0, t1)
    assert run.status == direct.status == "completed"
    assert np.array_equal(run.times, direct.times)
    assert np.array_equal(run.states, direct.states)


def test_integrate_until_stops_on_a_prefix():
    full = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    rhs = power1d_rhs()
    seen = []

    def until(t, y, f, partial):
        # the derivative handed over is the stepper's own: rhs at (t, y),
        # bit for bit, so a caller needs no call of its own
        assert np.array_equal(f, rhs(t, y))
        seen.append(t)
        return t >= 0.5 and partial().t_end == t

    run = sf.integrate(rhs, [1.0], 0.0, 1.0, until=until)
    assert run.status == "stopped"
    assert run.t_end == seen[-1] >= 0.5 > seen[-2]
    n = len(run.times)
    assert np.array_equal(run.states, full.states[:n])
    assert np.array_equal(run.derivs, full.derivs[:n])
    # so it is for a right-hand side the stepper runs through its float form
    from singularflow.regularize import regularized_rhs

    blend = regularized_rhs(sf.make_polynomial_blend(sf.builtin_field("saddle2d", ALPHA),
                                                     [1.0, -2.0], 0.5))
    differs = lambda t, y, f, _partial: not np.array_equal(f, blend(t, y))
    assert sf.integrate(blend, [-1.0, 0.2], 0.0, 2.0, until=differs).status == "completed"


def test_event_search_until_stops_with_no_event():
    rhs = power1d_rhs()
    level = lambda t, x: float(x[0]) - 1.5  # x(t) = (1 + 2t/3)^(3/2) crosses 1.5 upward
    full = sf.integrate(rhs, [1.0], 0.0, 10.0, event=level, direction=+1)
    assert full.status == "hit_event"
    t_cross = full.t_end

    def halfway(t, y, f, partial):
        return t >= 0.5 * t_cross

    # an until that fires before the crossing ends the search there
    stopped = sf.integrate(rhs, [1.0], 0.0, 10.0, until=halfway, event=level, direction=+1)
    assert stopped.status == "stopped"
    assert 0.5 * t_cross <= stopped.t_end < t_cross
    assert np.array_equal(stopped.states, full.states[: len(stopped.times)])
    # one that fires on the step the crossing is located in loses to it
    run = sf.integrate(rhs, [1.0], 0.0, 10.0, until=lambda t, y, f, p: y[0] >= 1.5,
                       event=level, direction=+1)
    assert run.status == "hit_event"
    assert run.t_end == t_cross and np.array_equal(run.final_state, full.final_state)
    # with no crossing before t1 the search completes there
    short = sf.integrate(rhs, [1.0], 0.0, 0.5 * t_cross, event=level, direction=+1)
    assert short.status == "completed" and short.t_end == 0.5 * t_cross
    # integrate's until stops the event-free run on the same prefix
    plain = sf.integrate(rhs, [1.0], 0.0, 10.0, until=halfway)
    assert plain.status == "stopped"
    assert np.array_equal(plain.times, stopped.times)
    assert np.array_equal(plain.states, stopped.states)


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
    run = sf.integrate(rhs, [1.0], 0.0, 10.0, event=lambda t, x: 0.5 - x[0], direction=+1)
    assert run.status == "hit_event"
    assert calls.count(0.0) == 1


def _scalar_scan(event, direction, g_prev, step):
    # reference: np.linspace subsample times, one scalar dense state each
    from singularflow.integrators import _hermite_point

    tp, yp, fp, tn, yn, fn, e = step
    ta, ga = tp, g_prev
    for tq in np.linspace(tp, tn, 9)[1:]:
        yq = yn if tq == tn else _hermite_point((tq - tp) / (tn - tp), tn - tp, yp, fp, yn, fn, e)
        gq = float(event(tq, yq))
        if (ga < 0.0 <= gq) if direction > 0 else (ga > 0.0 >= gq):
            return (ta, ga, tq, gq)
        ta, ga = tq, gq
    return None


def _crafted_steps():
    # x(s) = 1 - 6 s (1 - s) on a step with h f = -6 at its start and +6 at
    # its end and e = 0: x dips to -1/2 and comes back, so both ends read
    # x = 1 and only the subsamples see the double crossing.  The random
    # steps carry a term e of up to a few percent of their states
    for tp, h in ((0.0, 1.0), (2.0, 0.5), (-3.0, 0.125)):
        yield (tp, np.array([1.0]), np.array([-6.0 / h]),
               tp + h, np.array([1.0]), np.array([6.0 / h]), np.zeros(1))
    rng = np.random.default_rng(7)
    for _ in range(300):
        tp = float(rng.uniform(-5.0, 5.0))
        h = float(rng.uniform(1e-3, 2.0))
        yp, fp, yn, fn = rng.standard_normal((4, 2))
        e = rng.standard_normal(2) * rng.choice([0.0, 1e-6, 1e-2])
        yield tp, yp, fp, tp + h, yn, fn, e


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
    # shell about it, and shallow chords just inside it.  Each carries a
    # term e sized like a real step's, up to 1e-5 of the step's motion
    # |y_n - y_p| + h |f_p| + h |f_n| per component, which can push a
    # chord's dense output out through the sphere
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
        e = rng.standard_normal(d) * rng.choice([0.0, 1e-7, 1e-5])
        e *= np.abs(yn - yp) + h * (np.abs(fp) + np.abs(fn))
        yield R, (tp, yp, fp, tp + h, yn, fn, e)


def _crafted_sphere_steps():
    # R = 1, e = 0 unless said.  The hull touches the sphere (Q2 = 1) while
    # the curve peaks at 0.975; the curve R + 1e-3 - (s - 7/16)^2 leaves
    # and re-enters the ball inside the subsample (3/8, 1/2), where no scan
    # can see it; one plain exit; a flat step at 0.9 that only its term
    # e = 2 carries out, to 0.9 + 2/16 at s = 1/2; ends at 1 -+ 1e-15 with
    # zero and nonzero slopes
    yield (0.0, np.array([0.9]), np.array([0.3]), 1.0, np.array([0.9]), np.array([-0.3]),
           np.array([0.0]))
    top = 1.0 + 1e-3
    yield (0.0, np.array([top - (7 / 16) ** 2]), np.array([7 / 8]),
           1.0, np.array([top - (9 / 16) ** 2]), np.array([-9 / 8]), np.array([0.0]))
    yield (0.0, np.array([0.9, 0.0]), np.array([0.2, 0.1]), 1.0, np.array([1.1, 0.1]),
           np.array([0.2, 0.1]), np.zeros(2))
    yield (0.0, np.array([0.9]), np.array([0.0]), 1.0, np.array([0.9]), np.array([0.0]),
           np.array([2.0]))
    for a, b in ((-1e-15, 1e-15), (1e-15, -1e-15), (-1e-15, -1e-15), (1e-15, 1e-15)):
        for slope in (0.0, 1e-3):
            yield (2.0, np.array([1.0 + a, 0.0]), np.array([0.0, slope]),
                   2.5, np.array([0.0, 1.0 + b]), np.array([-slope, 0.0]), np.zeros(2))


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
    touching, hidden, exit_step, bumped = crafted[:4]
    one = _Sphere(1.0)
    for step in (touching, hidden):
        assert not one.clear_of(one(0.0, step[1]), step)
        assert _scan_step(one, +1, one(0.0, step[1]), step)[0] is None
    for step in (exit_step, bumped):
        assert _scan_step(one, +1, one(0.0, step[1]), step)[0] is not None
    # the bump is e's alone: without it the hull clears the step
    assert not one.clear_of(-0.1, bumped)
    assert one.clear_of(-0.1, bumped[:6] + (np.zeros(1),))


def _level_steps(rng, n):
    # random steps about a level L of component i, d = 1..3, L = 0 in a
    # quarter of them: generic ones, steps with both ends within 1e-15 of
    # the level, short steps in a 1e-6 band about it, shallow bumps whose
    # ends sit 1e-9 below (or above) it while the curve pokes through, and
    # flat steps a few ulps off it, where only the rounding of the
    # subsamples can reach it.  Each carries a term e sized like a real
    # step's, as in _sphere_steps
    for k in range(n):
        d = 1 + k % 3
        i = int(rng.integers(d))
        scale = float(10.0 ** rng.uniform(-2.0, 1.0))
        L = 0.0 if k % 4 == 3 else scale * rng.choice([-1.0, 1.0])
        h = float(10.0 ** rng.uniform(-3.0, 0.3))
        tp = float(rng.uniform(-5.0, 5.0))
        yp, yn = rng.standard_normal((2, d)) * scale
        fp, fn = rng.standard_normal((2, d)) * (scale / h) * rng.choice([0.0, 1e-6, 1e-3, 0.1, 1.0])
        e = rng.standard_normal(d) * rng.choice([0.0, 1e-7, 1e-5])
        kind = (k // 4) % 5
        if kind == 1:
            yp[i] = L + rng.choice([-1e-15, 0.0, 1e-15]) * max(scale, abs(L))
            yn[i] = L + rng.choice([-1e-15, 0.0, 1e-15]) * max(scale, abs(L))
        elif kind == 2:
            yp[i] = L + rng.uniform(-1e-6, 1e-6) * scale
            yn[i] = yp[i] + 1e-7 * scale * rng.standard_normal()
        elif kind == 3:
            side = rng.choice([-1.0, 1.0])
            yp[i] = yn[i] = L - side * 1e-9 * scale
            fp[i] = side * 1e-8 * scale / h * rng.uniform(0.5, 8.0)
            fn[i] = -side * 1e-8 * scale / h * rng.uniform(0.5, 8.0)
        elif kind == 4:
            toward = rng.choice([-math.inf, math.inf])
            yp[i] = yn[i] = L if L else math.copysign(1e-300, toward)
            for _ in range(int(rng.integers(1, 4))):
                yp[i] = yn[i] = math.nextafter(yp[i], toward)
            fp[i], fn[i] = rng.choice([0.0, 1e-17, -1e-17], 2)
        e *= np.abs(yn - yp) + h * (np.abs(fp) + np.abs(fn))
        yield i, L, (tp, yp, fp, tp + h, yn, fn, e)


def _crafted_level_steps():
    # level 1 of component 0: the touching, hidden, plain-exit and bumped
    # cases of the unit sphere, whose first component is |x| or crosses 1
    # with it, and ends at 1 -+ 1e-15 with zero and nonzero slopes
    yield from list(_crafted_sphere_steps())[:4]
    for a, b in ((-1e-15, 1e-15), (1e-15, -1e-15), (-1e-15, -1e-15), (1e-15, 1e-15)):
        for slope in (0.0, 1e-3):
            yield (2.0, np.array([1.0 + a, 0.0]), np.array([slope, 0.0]),
                   2.5, np.array([1.0 + b, 1.0]), np.array([-slope, 0.0]), np.zeros(2))


def test_level_event_scan_matches_the_plain_closure():
    from singularflow.integrators import _Level, _scan_step

    rng = np.random.default_rng(2025)
    steps = list(_level_steps(rng, 20000)) + [(0, 1.0, s) for s in _crafted_level_steps()]
    skipped = brackets = 0
    for i, L, step in steps:
        level = _Level(i, L)
        plain = lambda t, x, i=i, L=L: float(x[i]) - L
        g0 = plain(step[0], step[1])
        assert level(step[0], step[1]) == g0
        skipped += level.clear_of(g0, step)
        for direction in (+1, -1):
            got = _scan_step(level, direction, g0, step)
            assert got == _scan_step(plain, direction, g0, step)
            brackets += got[0] is not None
    # both branches ran: many steps skipped, many crossings found
    assert skipped > 4000 and brackets > 1000
    touching, hidden, cross, bumped = list(_crafted_level_steps())[:4]
    one = _Level(0, 1.0)
    for step in (touching, hidden):
        assert not one.clear_of(one(0.0, step[1]), step)
        assert _scan_step(one, +1, one(0.0, step[1]), step)[0] is None
    for step in (cross, bumped):
        assert _scan_step(one, +1, one(0.0, step[1]), step)[0] is not None
    assert not one.clear_of(-0.1, bumped)
    assert one.clear_of(-0.1, bumped[:6] + (np.zeros(1),))


def test_small_sphere_is_located_to_its_own_scale():
    # the stopping test is relative to the bracket's event values, so a
    # sphere of radius 1e-6 on the collapse ray is located to 1e-9 of R
    from singularflow import integrators

    R = 1e-6
    traj = sf.integrate(saddle_rhs(), np.array([-1.0, 0.0]), 0.0, 3.0,
                        event=integrators._Sphere(R), direction=-1)
    assert traj.status == "hit_event"
    t_e, x_e = traj.t_end, traj.final_state
    assert abs(np.linalg.norm(x_e) - R) <= 1e-9 * R
    assert t_e == pytest.approx(1.5 - 1.5 * R ** (2.0 / 3.0), abs=1e-7)


def test_error_norm_matches_the_numpy_formula():
    from singularflow.integrators import _error_norm

    rng = np.random.default_rng(5)
    for n in range(1, 10):
        for _ in range(2000):
            err = rng.standard_normal(n) * 10.0 ** rng.uniform(-14.0, 0.0, n)
            ay0, ay1 = np.abs(rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-4.0, 4.0, (2, n)))
            scale = 1e-12 + 1e-9 * np.maximum(ay0, ay1)
            squares = (err / scale) ** 2
            if n < 8:
                # np.add.reduce sums fewer than 8 terms left to right
                want = math.sqrt(float(np.mean(squares)))
            else:
                # and more pairwise, so the sequential formula stands in
                total = 0.0
                for q in squares.tolist():
                    total += q
                want = math.sqrt(total / n)
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
        sf.integrate(decay, np.array([1.0]), 0.0, 100.0, event=never, direction=-1)
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
    # start just inside, on the entry ray
    x0 = np.array([-1.0, 0.0]) * (1 - 1e-9)
    run = sf.integrate(rhs, x0, -1.5, 98.5, event=event, direction=+1)
    assert run.status == "hit_event"
    t_esc, x_esc = run.t_end, run.final_state
    assert np.linalg.norm(x_esc) == pytest.approx(1.0, abs=1e-10)
    assert -1.5 < t_esc < 10.0


def test_blowup_fit_on_ray():
    traj = sf.integrate_ideal(sf.builtin_field("saddle2d", ALPHA), [-1.0, 0.0], 0.0, 3.0)
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
    traj = sf.integrate_ideal(field, [0.0, 0.0, -1.0], 0.0, 4.0)
    assert traj.status == "hit_radius_floor"
    t_b, p, _ = sf.estimate_blowup_time(traj, field.alpha)
    assert t_b == pytest.approx(3.0, abs=1e-6)
    assert p == pytest.approx(1.5, rel=0.01)


def test_blowup_fit_rejects_growth():
    traj = sf.integrate(power1d_rhs(), [1.0], 0.0, 1.0)
    with pytest.raises(sf.NotBlowingUp):
        sf.estimate_blowup_time(traj, ALPHA)


def test_dense_output_accuracy():
    # the order-4 dense output is within the cubic Hermite's error bound
    # h^4/384 * max|y''''|
    rhs = lambda t, x: np.array([math.cos(t)])
    traj = sf.integrate(rhs, [0.0], 0.0, 10.0)
    ts = np.linspace(0.0, 10.0, 777)
    vals = traj.sample(ts)[:, 0]
    h_max = float(np.max(np.diff(traj.times)))
    bound = 1.2 * h_max**4 / 384 + 1e-9
    assert np.max(np.abs(vals - np.sin(ts))) < bound


def test_dense_max_finds_a_peak_between_samples():
    # dx/dt = (x2, -x1) from (0, 1) is (sin t, cos t): x1 peaks at t = pi/2
    # with value 1, inside a step, and x2 at the first sample
    from singularflow.integrators import _dense_max

    traj = sf.integrate(lambda t, x: np.array([x[1], -x[0]]), [0.0, 1.0], 0.0, 3.0)
    assert np.min(np.abs(traj.times - math.pi / 2)) > 1e-3
    t, value = _dense_max(traj, 0)
    assert t == pytest.approx(math.pi / 2, abs=1e-9)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert _dense_max(traj, 1) == (0.0, 1.0)


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
    with pytest.raises(ValueError, match="r_floor must be nonnegative"):
        sf.integrate_ideal(sf.builtin_field("power1d", ALPHA), [1.0], 0.0, 1.0, r_floor=-1.0)
    with pytest.raises(ValueError):
        sf.integrate(power1d_rhs(), [1.0], 1.0, 0.5)
    for bad in (0.0, -1.0, math.nan):  # a cap that fails every first step, or caps none
        with pytest.raises(ValueError, match="max_step must be positive"):
            sf.IntegrationOptions(max_step=bad)


@pytest.mark.parametrize("rtol", [1e-300, 1e-9, 1e300])
@pytest.mark.parametrize("atol", [5e-324, 1e-300, 1e-12, 1e300])
def test_initial_step_is_positive_and_finite_for_every_accepted_tolerance(atol, rtol):
    # a zero component of x0 puts atol alone in the scale of the starting-step
    # heuristic; where its norms overflow, it falls back to a fixed step
    from singularflow.integrators import _float_form, _initial_step

    f = sf.builtin_field("spiral2d", ALPHA)
    rhs = _float_form(lambda t, x: sf.eval_field(f, x))
    for x0 in ([1.0, 0.0], [1e-150, 0.0], [1e100, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowed norm is expected, and silent
            h = _initial_step(rhs, 0.0, np.array(x0), np.array(rhs(0.0, x0)), atol, rtol, math.inf)
        assert 0.0 < h < math.inf, (x0, h)
    opts = sf.IntegrationOptions(rtol=rtol, atol=atol)
    try:
        traj = sf.integrate(lambda t, x: sf.eval_field(f, x), [1.0, 0.0], 0.0, 1.0, opts)
    except sf.StepFailure:
        return
    assert traj.status == "completed"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("which", ["rtol", "atol"])
def test_options_reject_non_positive_or_non_finite_tolerances(which, bad):
    # NaN passes a "<= 0" test, so a NaN tolerance used to be accepted
    with pytest.raises(ValueError, match="positive and finite"):
        sf.IntegrationOptions(**{which: bad})


# The Dormand-Prince 5(4) tableau and its order-4 continuous extension
# (Hairer, Norsett and Wanner, Solving ODEs I, sections II.5 and II.6): at
# fraction theta of a step of length h, y = y_0 + h sum_i k_i sum_p
# _DP_DENSE[i][p] theta^(p+1) over the seven stages, the last of which is f
# at the step's end
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _stage_extension(rhs, tp, yp, h, theta):
    # the seven stages of the step from (tp, yp), recomputed from the
    # tableau, and the continuous extension at fractions theta of it
    k = []
    for c, a in zip(_DP_C, _DP_A):
        k.append(rhs(tp + c * h, yp + h * sum((w * kj for w, kj in zip(a, k)), np.zeros_like(yp))))
    powers = np.power.outer(theta, np.arange(1, 5))  # theta, ..., theta^4
    return yp + h * (powers @ _DP_DENSE.T) @ np.array(k)


def test_dense_output_is_the_stage_based_order_4_extension():
    # sample on every step, and on a last step cut at a located crossing
    # (over the full step it keeps), is the order-4 continuous extension
    # formed from the step's seven stages; the cubic Hermite of the step's
    # ends is not, by about 1e-8 of the state here
    b = _DP_A[6] + (0.0,)  # the reference's rows sum to the weights b_i
    assert np.allclose(_DP_DENSE.sum(axis=1), b, rtol=0.0, atol=1e-15)
    rhs = lambda t, x: np.array([x[1], -x[0] + 0.3 * math.cos(t)])
    theta = np.linspace(0.0, 1.0, 9)[1:-1]
    full = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0)
    cut = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0, event=lambda t, x: x[0] + 0.9, direction=-1)
    assert cut.status == "hit_event" and full.cut is None
    scale = np.abs(full.states).max()
    worst = 0.0
    for run in (full, cut):
        ends = list(run.times[1:-1]) + [run.cut[0] if run.cut else run.times[-1]]
        for tp, yp, tn in zip(run.times, run.states, ends):
            h = tn - tp
            want = _stage_extension(rhs, tp, yp, h, theta)
            t = tp + theta * h
            inside = t <= run.t_end
            got = run.sample(t[inside])
            worst = max(worst, float(np.abs(got - want[inside]).max(initial=0.0)))
    assert worst <= 1e-14 * scale
    # the cut run's last step is the full run's step, sampled up to the crossing
    k = len(cut.times) - 2
    assert cut.cut[0] == full.times[k + 1]
    assert np.array_equal(cut.quartic, full.quartic[: k + 1])
    t = np.linspace(cut.times[k], cut.t_end, 7)
    assert np.abs(cut.sample(t) - full.sample(t)).max() <= 1e-15 * scale


def test_a_trajectory_without_dense_output_says_so():
    rt = sf.renorm_integrate(sf.builtin_field("saddle2d", ALPHA), [-1.0, 0.0], 0.0, 5.0)
    samples_only = (
        sf.reconstruct(rt),
        sf.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)), "completed"),
    )
    for traj in samples_only:
        assert traj.quartic is None
        with pytest.raises(ValueError, match="no dense output"):
            traj.sample(traj.t0)
