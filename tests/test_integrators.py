import json
import math
import os
import re
import subprocess
import sys
import traceback

import numpy as np
import pytest

import singularflow as sf
from singularflow import integrators

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
    # The 8(5,3) pair controls an error of order 7: a 256x tolerance
    # reduction must cut the endpoint error at least 32x (tol^(7/8) gives
    # 128x) until the 1e-12 floor.  Over t in [0, 10] the tolerance sets the
    # steps (to t = 1 the pair takes 4 or 5 steps at every rung, set by the
    # starting step and the growth cap, and the errors read 7.0e-11, 1.1e-11
    # and 2.8e-12)
    exact = (1.0 + 2.0 / 3.0 * 10.0) ** 1.5
    rhs = power1d_rhs()
    errs = []
    for rtol in (1e-5, 1e-5 / 256, 1e-5 / 256**2):
        opts = sf.IntegrationOptions(rtol=rtol, atol=rtol * 1e-3)
        traj = sf.integrate(rhs, [1.0], 0.0, 10.0, opts)
        errs.append(abs(traj.final_state[0] - exact) / exact)
    for a, b in zip(errs, errs[1:]):
        if a < 1e-12:
            break
        assert b <= a / 32.0


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
    assert len(run.times) - 1 == 4 and run.stats.rejected == 0
    assert calls.count(0.0) == 1
    assert len(calls) == 2 + 4 * (integrators._STAGES + integrators._DENSE_STAGES) == 62
    calls.clear()
    run = sf.integrate(rhs, [1.0], 0.0, 10.0, event=lambda t, x: 0.5 - x[0], direction=+1)
    assert run.status == "hit_event"
    assert calls.count(0.0) == 1


def _terms(e):
    # a step's dense-output terms F_3 to F_6: e as F_3, which alone is the
    # quartic term s^2 (1 - s)^2 e, and zero F_4 to F_6
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return np.vstack([e, np.zeros((integrators._TERMS - 1, len(e)))])


def _scalar_scan(event, direction, g_prev, step):
    # reference: np.linspace subsample times, one scalar dense state each
    from singularflow.integrators import _dense_point

    tp, yp, fp, tn, yn, fn, terms = step
    ta, ga = tp, g_prev
    for tq in np.linspace(tp, tn, 9)[1:]:
        yq = yn if tq == tn else _dense_point((tq - tp) / (tn - tp), tn - tp, yp, fp, yn, fn, terms)
        gq = float(event(tq, yq))
        if (ga < 0.0 <= gq) if direction > 0 else (ga > 0.0 >= gq):
            return (ta, ga, tq, gq)
        ta, ga = tq, gq
    return None


def _crafted_steps():
    # x(s) = 1 - 6 s (1 - s) on a step with h f = -6 at its start and +6 at
    # its end and no term: x dips to -1/2 and comes back, so both ends read
    # x = 1 and only the subsamples see the double crossing.  The random
    # steps carry terms of up to a few percent of their states
    for tp, h in ((0.0, 1.0), (2.0, 0.5), (-3.0, 0.125)):
        yield (tp, np.array([1.0]), np.array([-6.0 / h]),
               tp + h, np.array([1.0]), np.array([6.0 / h]), _terms(0.0))
    rng = np.random.default_rng(7)
    for _ in range(300):
        tp = float(rng.uniform(-5.0, 5.0))
        h = float(rng.uniform(1e-3, 2.0))
        yp, fp, yn, fn = rng.standard_normal((4, 2))
        terms = rng.standard_normal((integrators._TERMS, 2)) * rng.choice([0.0, 1e-6, 1e-2])
        yield tp, yp, fp, tp + h, yn, fn, terms


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
    # shell about it, and shallow chords just inside it.  Each carries terms
    # sized like a real step's, up to 1e-5 of the step's motion
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
        terms = rng.standard_normal((integrators._TERMS, d)) * rng.choice([0.0, 1e-7, 1e-5])
        terms *= np.abs(yn - yp) + h * (np.abs(fp) + np.abs(fn))
        yield R, (tp, yp, fp, tp + h, yn, fn, terms)


def _crafted_sphere_steps():
    # R = 1, no terms unless said.  The hull touches the sphere (the
    # degree-7 Bernstein points of 0.9 + 0.35 s (1 - s) peak at 0.9 + 0.35
    # 2/7 = 1) while the curve peaks at 0.9875; the curve R + 1e-3 -
    # (s - 7/16)^2 leaves and re-enters the ball inside the subsample
    # (3/8, 1/2), where no scan can see it; one plain exit; a flat step at
    # 0.9 that only its term F_3 = 2 carries out, to 0.9 + 2/16 at s = 1/2;
    # ends at 1 -+ 1e-15 with zero and nonzero slopes
    yield (0.0, np.array([0.9]), np.array([0.35]), 1.0, np.array([0.9]), np.array([-0.35]),
           _terms(0.0))
    top = 1.0 + 1e-3
    yield (0.0, np.array([top - (7 / 16) ** 2]), np.array([7 / 8]),
           1.0, np.array([top - (9 / 16) ** 2]), np.array([-9 / 8]), _terms(0.0))
    yield (0.0, np.array([0.9, 0.0]), np.array([0.2, 0.1]), 1.0, np.array([1.1, 0.1]),
           np.array([0.2, 0.1]), _terms([0.0, 0.0]))
    yield (0.0, np.array([0.9]), np.array([0.0]), 1.0, np.array([0.9]), np.array([0.0]),
           _terms(2.0))
    for a, b in ((-1e-15, 1e-15), (1e-15, -1e-15), (-1e-15, -1e-15), (1e-15, 1e-15)):
        for slope in (0.0, 1e-3):
            yield (2.0, np.array([1.0 + a, 0.0]), np.array([0.0, slope]),
                   2.5, np.array([0.0, 1.0 + b]), np.array([-slope, 0.0]), _terms([0.0, 0.0]))


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
    # the bump is F_3's alone: without it the hull clears the step
    assert not one.clear_of(-0.1, bumped)
    assert one.clear_of(-0.1, bumped[:6] + (_terms(0.0),))


def _level_steps(rng, n):
    # random steps about a level L of component i, d = 1..3, L = 0 in a
    # quarter of them: generic ones, steps with both ends within 1e-15 of
    # the level, short steps in a 1e-6 band about it, shallow bumps whose
    # ends sit 1e-9 below (or above) it while the curve pokes through, and
    # flat steps a few ulps off it, where only the rounding of the
    # subsamples can reach it.  Each carries terms sized like a real
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
        terms = rng.standard_normal((integrators._TERMS, d)) * rng.choice([0.0, 1e-7, 1e-5])
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
        terms *= np.abs(yn - yp) + h * (np.abs(fp) + np.abs(fn))
        yield i, L, (tp, yp, fp, tp + h, yn, fn, terms)


def _crafted_level_steps():
    # level 1 of component 0: the touching, hidden, plain-exit and bumped
    # cases of the unit sphere, whose first component is |x| or crosses 1
    # with it, and ends at 1 -+ 1e-15 with zero and nonzero slopes
    yield from list(_crafted_sphere_steps())[:4]
    for a, b in ((-1e-15, 1e-15), (1e-15, -1e-15), (-1e-15, -1e-15), (1e-15, 1e-15)):
        for slope in (0.0, 1e-3):
            yield (2.0, np.array([1.0 + a, 0.0]), np.array([slope, 0.0]),
                   2.5, np.array([1.0 + b, 1.0]), np.array([-slope, 0.0]), _terms([0.0, 0.0]))


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
    assert one.clear_of(-0.1, bumped[:6] + (_terms(0.0),))


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


def test_non_finite_state_or_rhs_ends_in_step_failure():
    # a NaN that only the postprocess makes (under a constant right-hand
    # side), and an infinite right-hand side
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
        # no non-finite state is accepted, the postprocessed one included
        assert np.all(np.isfinite(exc.value.trajectory.states))
    # a NaN at the first of the dense output's stages alone (the start, the
    # starting-step probe and the first step's stages come before it) fails
    # the step that would have been accepted
    calls = []

    def nan_in_dense_stage(t, x):
        calls.append(t)
        return np.array([math.nan if len(calls) == 3 + integrators._STAGES else 1.0])

    with pytest.raises(sf.StepFailure, match="non-finite right-hand side in the dense output"):
        sf.integrate(nan_in_dense_stage, [0.0], 0.0, 1.0)


def test_a_state_that_overflows_to_inf_fails_its_step():
    # component 0 runs from 1.79e308 at 1e307 a unit time and overflows at
    # t = 0.077; its error scale atol + rtol |y_new| would then be inf and
    # count its error as 0, so only the state itself can fail the step
    with pytest.raises(sf.StepFailure, match="non-finite state or right-hand side") as exc:
        sf.integrate(lambda t, x: np.array([1e307, -0.5 * x[1]]), [1.79e308, 1.0], 0.0, 1.0)
    traj = exc.value.trajectory
    assert traj.status == "step_failure" and np.all(np.isfinite(traj.states))
    assert traj.t_end < 0.077


def test_an_error_norm_that_overflows_on_finite_values_rejects_the_step():
    # at atol = 5e-324 and rtol = 1e-300 the error over its scale overflows
    # though the state, the right-hand side and h are finite: each attempt is
    # rejected, h shrinks, and the run fails by step-size underflow, never
    # on a non-finite state
    field = sf.builtin_field("spiral2d", 1.0 / 3.0)
    opts = sf.IntegrationOptions(atol=5e-324, rtol=1e-300)
    with pytest.raises(sf.StepFailure) as exc:
        sf.renorm_integrate(field, [1.0, 0.0], 0.0, 1.0, opts)
    assert str(exc.value).startswith("step size underflow")
    stats = exc.value.trajectory.stats
    assert stats.rejected > 10 and np.all(np.isfinite(exc.value.trajectory.states))


@pytest.mark.parametrize("x0", [1.0, [], [[1.0, 2.0]]], ids=["scalar", "empty", "row"])
def test_malformed_start_state_is_a_value_error_naming_its_shape(x0):
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x

    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(x0)}")):
        sf.integrate(rhs, x0, 0.0, 1.0)
    assert calls == []


def _ends_at_rendered_line(exc, filename, start):
    """The traceback's last frame is the rendered line, shown as source."""
    frame = traceback.extract_tb(exc.tb)[-1]
    assert frame.filename == filename
    assert frame.line.startswith(start)
    assert frame.line in "".join(traceback.format_exception(exc.type, exc.value, exc.tb))


def test_step_loop_is_rendered_once_per_state_size(monkeypatch):
    from singularflow import integrators

    decay = lambda t, x: -x
    before = integrators._rendered.cache_info()
    for _ in range(2):
        sf.integrate(decay, np.ones(7), 0.0, 1.0)
    after = integrators._rendered.cache_info()
    assert after.misses - before.misses <= 1 and after.hits > before.hits
    template = integrators._STEPPER_TEMPLATE
    assert integrators._rendered(template, 7) is integrators._rendered(template, 7)

    # a failure inside the rendered loop shows the rendered line, also when
    # it is raised through integrate, which adds the partial trajectory
    monkeypatch.setattr(integrators, "_MAX_STEPS", 5)
    x0 = np.ones(3)
    steps = integrators._stepper(decay, x0, decay(0.0, x0), 0.0, 100.0,
                                 sf.IntegrationOptions(), sf.SolverStats())
    with pytest.raises(sf.StepFailure, match="after 5 attempted steps") as exc:
        for _ in steps:
            pass
    _ends_at_rendered_line(exc, "<singularflow stepper, n = 3>", "raise StepFailure(")
    with pytest.raises(sf.StepFailure, match="after 5 attempted steps") as exc:
        sf.integrate(decay, x0, 0.0, 100.0)
    assert exc.value.trajectory.status == "step_failure"
    _ends_at_rendered_line(exc, "<singularflow stepper, n = 3>", "raise StepFailure(")

    # so does an exception raised inside a rendered kernel: a sphere map of
    # the wrong size fails where the ideal field unpacks it
    from singularflow.integrators import _with_floats

    short = sf.SingularField(2, ALPHA, _with_floats(lambda y: [y[0]]))
    with pytest.raises(ValueError, match="not enough values to unpack") as exc:
        sf.integrate_ideal(short, [1.0, 0.5], 0.0, 1.0)
    _ends_at_rendered_line(exc, "<singularflow ideal_kernel, n = 2>", "f_0, f_1, = smap(")


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
    # the order-7 dense output is within the cubic Hermite's error bound
    # h^4/384 * max|y''''|
    rhs = lambda t, x: np.array([math.cos(t)])
    traj = sf.integrate(rhs, [0.0], 0.0, 10.0)
    ts = np.linspace(0.0, 10.0, 777)
    vals = traj.sample(ts)[:, 0]
    h_max = float(np.max(np.diff(traj.times)))
    bound = 1.2 * h_max**4 / 384 + 1e-9
    assert np.max(np.abs(vals - np.sin(ts))) < bound


def test_dense_output_bases_are_the_one_polynomial():
    # each step's monomial coefficients (_monomials) and Bernstein points
    # (_hull, whose convex hull the event prefilters and _dense_max read)
    # are the polynomial that sample evaluates
    from singularflow.integrators import _hull, _monomials

    rhs = lambda t, x: np.array([x[1], -x[0] + 0.3 * math.cos(t)])
    traj = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0)
    steps = np.arange(len(traj.times) - 1)
    h, c = _monomials(traj, steps, slice(None))
    d = c.shape[1]
    assert d == integrators._TERMS + 3 == 7
    theta = np.linspace(0.0, 1.0, 9)
    for k in steps:
        want = traj.sample(traj.times[k] + theta * h[k])
        monomial = traj.states[k] + sum(np.multiply.outer(theta ** (p + 1), c[k, p])
                                        for p in range(d))
        columns, _ = _hull((traj.times[k], traj.states[k], traj.derivs[k], traj.times[k + 1],
                            traj.states[k + 1], traj.derivs[k + 1], traj.dense[k]))
        bernstein = sum(math.comb(d, j) * np.multiply.outer(theta ** j * (1 - theta) ** (d - j), q)
                        for j, q in enumerate(zip(*columns)))
        for got in (monomial, bernstein):
            assert np.abs(got - want).max() <= 1e-13


def _dense_error(traj, exact):
    # the largest error of the run's dense output on a fine grid
    ts = np.linspace(traj.t0, traj.t_end, 4001)
    return float(np.abs(traj.sample(ts) - exact(ts)).max())


def _is_the_dense_peak(traj, t, value, of):
    # value is the dense output's own maximum, at t: no point of a fine grid
    # over t's step reads more, and its neighbours 1e-6 away read less
    k = int(np.searchsorted(traj.times, t)) - 1
    grid = np.linspace(traj.times[k], traj.times[k + 1], 20001)
    assert of(traj.sample(t)) == pytest.approx(value, rel=1e-15)
    assert np.max(of(traj.sample(grid))) <= value * (1 + 1e-15)
    assert max(of(traj.sample(t - 1e-6)), of(traj.sample(t + 1e-6))) < value


def test_dense_max_finds_a_peak_between_samples():
    # dx/dt = (x2, -x1) from (0, 1) is (sin t, cos t): x1 peaks at t = pi/2
    # with value 1, inside a step, and x2 at the first sample.  The dense
    # output's own peak is found to rounding.  Against (sin t, cos t) it is
    # off by the interpolant's error: 1.7e-11 in value, within the 1e-9 the
    # 5(4) pair met, and 2.0e-9 in t, where the order-4 extension of the
    # 5(4) pair met 1e-9 (3.5e-11).  Between samples the order-7 extension
    # of the pair's 4-5 times longer steps is about as accurate as the
    # tolerance (2.0e-9 here), where the 5(4) pair's order-4 one was well
    # within it; at rtol/64 the pair would meet 1e-9 again, for 1.55 times
    # the steps
    from singularflow.integrators import _dense_max

    traj = sf.integrate(lambda t, x: np.array([x[1], -x[0]]), [0.0, 1.0], 0.0, 3.0)
    assert np.min(np.abs(traj.times - math.pi / 2)) > 1e-3
    t, value = _dense_max(traj, 0)
    _is_the_dense_peak(traj, t, value, lambda x: x[..., 0])
    assert t == pytest.approx(math.pi / 2, abs=5e-9)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert _dense_error(traj, lambda t: np.column_stack([np.sin(t), np.cos(t)])) <= 5e-9
    assert _dense_max(traj, 1) == (0.0, 1.0)


def test_dense_max_finds_a_radius_peak_between_samples():
    # dx/dt = (-x2 / 2, 2 x1) from (1, 0) is (cos t, 2 sin t): |x| peaks at
    # t = pi/2 with value 2, inside a step
    from singularflow.integrators import _dense_max, _monomials

    traj = sf.integrate(lambda t, x: np.array([-0.5 * x[1], 2.0 * x[0]]), [1.0, 0.0], 0.0, 3.0)
    # the nearest sample is 0.12 from the peak, so |x| there is 0.011 short.
    # The dense output's own peak is found to rounding; against the ellipse
    # it is off by the interpolant's error, 3.1e-8 in t (the peak is flat)
    # and 1.1e-9 in value, where the 5(4) pair met 1e-9 in both (1.4e-11
    # and 3.8e-10, a sample 2.4e-4 from the peak), as in the test above
    assert np.min(np.abs(traj.times - math.pi / 2)) > 1e-1
    t, value = _dense_max(traj)
    _is_the_dense_peak(traj, t, value, lambda x: np.linalg.norm(x, axis=-1))
    assert t == pytest.approx(math.pi / 2, abs=1e-7)
    error = _dense_error(traj, lambda t: np.column_stack([np.cos(t), 2 * np.sin(t)]))
    assert abs(value - 2.0) <= error <= 5e-9
    assert value > np.max(traj.radii()) + 1e-2
    # the monomials of several components are each component's, bit for bit
    steps = np.arange(len(traj.times) - 1)
    h, c = _monomials(traj, steps, slice(None))
    for m in range(2):
        h_m, c_m = _monomials(traj, steps, m)
        assert np.array_equal(h, h_m) and np.array_equal(c[:, :, m], c_m)


def test_dense_max_of_a_run_without_a_turn_is_its_largest_sample():
    from singularflow.integrators import _dense_max

    # |x| decays from 5 on dx/dt = -x: no step turns, the first sample wins
    traj = sf.integrate(lambda t, x: -x, [3.0, 4.0], 0.0, 2.0)
    assert _dense_max(traj) == (0.0, 5.0)
    # a run that fails at its first step holds its start alone
    with pytest.raises(sf.StepFailure) as failure:
        sf.integrate(lambda t, x: x if t == 0.0 else np.array([math.nan] * 2), [3.0, 4.0],
                     0.0, 1.0)
    one = failure.value.trajectory
    assert len(one.times) == 1
    assert _dense_max(one) == (0.0, 5.0)
    assert _dense_max(one, 0) == (0.0, 3.0)


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


def test_csv_rows_are_the_per_value_format(tmp_path):
    # one "%.17g,...,%.17g" % row per row writes the bytes of f"{v:.17g}" per
    # value: NaN, signed infinities and zero, a subnormal, the largest
    # decades and NumPy floats
    from singularflow.integrators import write_csv

    rows = [
        (math.nan, math.inf, -math.inf),
        (-0.0, 0.0, 5e-324),
        (1e308, -1.7976931348623157e308, 2.2250738585072014e-308),
        (np.float64(0.1), np.float64(-1.0) / 3.0, np.float64(1e-300)),
        (1, np.float64(math.nan), -np.float64(0.0)),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c"], iter(rows))
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def _row_by_row_csv(path, header, rows):
    """The reference writer: one "%.17g" line per row, written as it is formatted."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(("%.17g",) * len(row)) % tuple(row) + "\n")


def test_csv_file_is_the_row_by_row_format(tmp_path):
    # write_csv formats a whole file in one % operation: the bytes are those
    # of the row-by-row writer, for rows that mix NumPy and Python floats,
    # for rows of a 2-d array (read as Python floats), and for no rows
    from singularflow.integrators import write_csv

    mixed = [
        (np.float64(-0.0), 5e-324, np.float64(1e308)),
        (math.inf, np.float64(math.nan), -np.float64(math.inf)),
        (0.1, np.float64(2.2250738585072014e-308), -1.7976931348623157e308),
        (1, np.float64(1.0) / 3.0, -5e-324),
    ]
    table = np.array([[float(v) for v in row] for row in mixed])
    walk = sf.integrate(saddle_rhs(), [-0.5, 0.2], 0.0, 0.5)
    steps = np.column_stack([walk.times, walk.states])
    cases = [(mixed, mixed), (table, table), (steps, list(zip(walk.times, *walk.states.T))),
             ([], [])]
    for k, (rows, reference) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write_csv(got, ["t", "x1", "x2"], iter(rows) if isinstance(rows, list) else rows)
        _row_by_row_csv(want, ["t", "x1", "x2"], reference)
        assert got.read_bytes() == want.read_bytes(), k


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("which", ["rtol", "atol"])
def test_options_reject_non_positive_or_non_finite_tolerances(which, bad):
    # NaN passes a "<= 0" test, so a NaN tolerance used to be accepted
    with pytest.raises(ValueError, match="positive and finite"):
        sf.IntegrationOptions(**{which: bad})


def _dense_tableau():
    # the 8(5,3) tableau as arrays: c (16), A (16 x 16), b (12), the error
    # weights e5 and e3 (13, the last on f at the new state) and the dense
    # output's weights D (4 x 16)
    def row(weights, size):
        out = np.zeros(size)
        for j, w in weights.items():
            out[j] = w
        return out

    A = np.array([row(r, 16) for r in integrators._A])
    E5, E3 = (row(r, 13) for r in (integrators._E5, integrators._E3))
    D = np.array([row(r, 16) for r in integrators._D])
    return np.array(integrators._C), A, A[12, :12], E5, E3, D


def test_tableau_meets_the_order_conditions():
    # each stage's weights sum to its node; the solution's weights integrate
    # t^(q-1) exactly for q = 1 to 8 (order 8), the two error estimates
    # vanish on t^(q-1) up to their orders 5 and 3, and the dense output's
    # weights at theta integrate t^(q-1) over [0, theta] for q = 1 to 7
    c, A, b, e5, e3, D = _dense_tableau()
    assert np.abs(A.sum(axis=1) - c).max() <= 1e-14
    q = np.arange(1, 9)
    assert np.abs(c[:12] ** (q[:, None] - 1) @ b - 1.0 / q).max() <= 1e-14
    powers = c[:13] ** (q[:, None] - 1)
    assert np.abs(powers[:5] @ e5).max() <= 1e-14 and np.abs(powers[:3] @ e3).max() <= 1e-14
    assert abs(powers[5] @ e5) > 1e-4 and abs(powers[3] @ e3) > 1e-4
    # the weights of the dense output at theta (_dense with h = 1, y0 = 0
    # and unit stages), in the quadrature conditions
    for theta in (0.1, 0.37, 0.5, 0.8, 1.0):
        weights = np.empty(16)
        for i in range(16):
            k = np.zeros(16)
            k[i] = 1.0
            f1 = 1.0 if i == 12 else 0.0
            weights[i] = integrators._dense(theta, 1.0, 0.0, k[0], b @ k[:12], f1, *(D @ k))
        got = c ** (q[:7, None] - 1) @ weights
        assert np.abs(got - theta ** q[:7] / q[:7]).max() <= 1e-14, theta


def test_tableau_is_scipys_bit_for_bit():
    # the published dop853 coefficients, as scipy carries them
    coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    c, A, b, e5, e3, D = _dense_tableau()
    pairs = [(c, coefficients.C), (A, coefficients.A), (b, coefficients.B),
             (e5, coefficients.E5), (e3, coefficients.E3), (D, coefficients.D)]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def _stage_extension(rhs, tp, yp, yn, fn, h, theta):
    # the sixteen stages of the step from (tp, yp) to (tp + h, yn), recomputed
    # from the tableau, and scipy's evaluation of dop853's continuous
    # extension at fractions theta of it
    c, A, _, _, _, D = _dense_tableau()
    k = []
    for ci, a in zip(c, A):
        k.append(rhs(tp + ci * h, yp + h * sum((w * kj for w, kj in zip(a, k)), np.zeros_like(yp))))
    rise = yn - yp
    F = [rise, h * k[0] - rise, 2 * rise - h * (fn + k[0]), *(h * D @ np.array(k))]
    x = theta[:, None]
    y = np.zeros((len(theta), len(yp)))
    for i, term in enumerate(reversed(F)):
        y = (y + term) * (x if i % 2 == 0 else 1 - x)
    return yp + y


def test_dense_output_is_the_stage_based_order_7_extension():
    # sample on every step, and on a last step cut at a located crossing
    # (over the full step it keeps), is dop853's order-7 continuous
    # extension formed from the step's sixteen stages; the cubic Hermite of
    # the step's ends is not, by about 1e-6 of the state here
    rhs = lambda t, x: np.array([x[1], -x[0] + 0.3 * math.cos(t)])
    theta = np.linspace(0.0, 1.0, 9)[1:-1]
    full = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0)
    cut = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0, event=lambda t, x: x[0] + 0.9, direction=-1)
    assert cut.status == "hit_event" and full.cut is None
    scale = np.abs(full.states).max()
    worst = hermite = 0.0
    for run in (full, cut):
        ends = list(zip(run.times[1:-1], run.states[1:-1], run.derivs[1:-1]))
        ends.append(run.cut if run.cut else (run.times[-1], run.states[-1], run.derivs[-1]))
        for tp, yp, fp, (tn, yn, fn) in zip(run.times, run.states, run.derivs, ends):
            h = tn - tp
            want = _stage_extension(rhs, tp, yp, yn, fn, h, theta)
            t = tp + theta * h
            inside = t <= run.t_end
            got = run.sample(t[inside])
            worst = max(worst, float(np.abs(got - want[inside]).max(initial=0.0)))
            cubic = integrators._dense(theta[:, None], h, yp, fp, yn, fn)
            hermite = max(hermite, float(np.abs(cubic - want).max()))
    assert worst <= 1e-14 * scale
    assert hermite > 1e-7 * scale
    # the cut run's last step is the full run's step, sampled up to the crossing
    k = len(cut.times) - 2
    assert cut.cut[0] == full.times[k + 1]
    assert np.array_equal(cut.dense, full.dense[: k + 1])
    t = np.linspace(cut.times[k], cut.t_end, 7)
    assert np.abs(cut.sample(t) - full.sample(t)).max() <= 1e-15 * scale


def test_dense_output_reads_an_int_or_a_slice_of_columns():
    # a list of columns would broadcast against the steps: it raises
    traj = sf.integrate(lambda t, x: -x, [1.0, 2.0, 3.0], 0.0, 1.0)
    steps = np.arange(len(traj.times) - 1)
    assert traj._steps(steps, np.int64(1))[2].shape == steps.shape
    assert traj._steps(steps, slice(0, 2))[6].shape == (len(steps), integrators._TERMS, 2)
    for bad in ([0], [0, 1], np.array([1]), 1.0):
        with pytest.raises(TypeError):
            traj._steps(steps, bad)
        with pytest.raises(TypeError):
            traj.sample(0.5, bad)


def test_one_step_holds_a_double_crossing_and_the_scan_finds_the_first():
    # the 8(5,3) pair's steps are 4 to 5 times longer than the 5(4) pair's,
    # and each is still scanned at _EVENT_SUBSAMPLES points: a level of x1
    # on the circle (cos t, sin t) near its peak at t = 2 pi, and a sphere
    # about the ellipse (cos t, 2 sin t) near its peak radius at t = pi / 2,
    # that one accepted step leaves and re-enters with both its ends on one
    # side, are located at their first crossing
    from singularflow.integrators import _Level, _locate_crossing, _scan_step, _Sphere

    cases = (
        (lambda t, x: np.array([-x[1], x[0]]), 2 * math.pi, lambda w: _Level(0, math.cos(w))),
        (lambda t, x: np.array([-0.5 * x[1], 2.0 * x[0]]), math.pi / 2,
         lambda w: _Sphere(math.hypot(math.cos(math.pi / 2 - w), 2 * math.sin(math.pi / 2 - w)))),
    )
    for rhs, peak, event_at in cases:
        traj = sf.integrate(rhs, [1.0, 0.0], 0.0, peak + 1.0)
        k = int(np.searchsorted(traj.times, peak)) - 1
        tp, tn = traj.times[k], traj.times[k + 1]
        h = tn - tp
        # the crossings at peak -+ w, a dip wider than two subsamples
        w = 0.8 * min(peak - tp, tn - peak)
        assert 2 * w > 2 * h / integrators._EVENT_SUBSAMPLES
        event = event_at(w)
        step = (tp, traj.states[k], traj.derivs[k], tn, traj.states[k + 1], traj.derivs[k + 1],
                traj.dense[k])
        g0 = event(tp, traj.states[k])
        assert g0 < 0.0 and event(tn, traj.states[k + 1]) < 0.0
        assert not event.clear_of(g0, step)
        bracket, g_end = _scan_step(event, +1, g0, step)
        assert bracket[0] < peak - w <= bracket[2] < peak
        t_e, x_e = _locate_crossing(event, step, bracket)
        assert t_e == pytest.approx(peak - w, abs=1e-7)
        assert event(t_e, x_e) >= 0.0
        # a run with the event ends there, on that step
        run = sf.integrate(rhs, [1.0, 0.0], 0.0, peak + 1.0, event=event, direction=+1)
        assert run.status == "hit_event" and run.t_end == t_e and run.cut[0] == tn


def test_a_trajectory_without_dense_output_says_so():
    rt = sf.renorm_integrate(sf.builtin_field("saddle2d", ALPHA), [-1.0, 0.0], 0.0, 5.0)
    samples_only = (
        sf.reconstruct(rt),
        sf.Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)), "completed"),
    )
    for traj in samples_only:
        assert traj.dense is None
        with pytest.raises(ValueError, match="no dense output"):
            traj.sample(traj.t0)
