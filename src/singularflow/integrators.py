"""Adaptive explicit integration with dense output and event location.

A hand-rolled Dormand-Prince 5(4) embedded pair drives everything in this
package: it keeps the trajectories bitwise deterministic, exposes cubic
Hermite dense output between accepted steps, and lets event crossings be
located by bisection on that dense output.  Blowup times are recovered from
trajectory tails through the exact linearity of r^(1-alpha) in t on the
self-similar collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoEvent, NoEventDirection, NotBlowingUp, OutOfRange, StepFailure

# Dormand-Prince 5(4) tableau (FSAL: the last stage is f at the new point).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# b5 - b4 including the FSAL stage
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EVENT_SUBSAMPLES = 8
# attempted steps after which a run gives up: more than 30 times the longest
# run of the test suite and the benchmark, so it only ends runs that would
# not end otherwise
_MAX_STEPS = 1_000_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IntegrationOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: float = math.inf
    r_floor: float = 1e-10
    horizon: float = 1e3

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):  # NaN fails too
            raise ValueError(
                f"rtol and atol must be positive and finite, got {self.rtol!r} and {self.atol!r}"
            )
        if self.r_floor < 0:
            raise ValueError("r_floor must be nonnegative")


DEFAULT_OPTIONS = IntegrationOptions()


@dataclass
class Trajectory:
    """Sampled solution with cubic Hermite dense output per accepted step.

    status is one of completed | stopped | hit_radius_floor | hit_event |
    step_failure and explains the terminal sample.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str
    t_b_estimate: Optional[tuple] = None

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def __call__(self, t):
        return self.sample(t)

    def sample(self, t):
        """Dense evaluation at scalar or array times within the sampled span."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        ts = self.times
        lo, hi = ts[0], ts[-1]
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        # written so that a NaN time fails the test too
        if not np.all((t_arr >= lo - pad) & (t_arr <= hi + pad)):
            raise OutOfRange(f"query outside sampled range [{lo}, {hi}]")
        tq = np.clip(t_arr, lo, hi)
        idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
        h = ts[idx + 1] - ts[idx]
        s = np.where(h > 0, (tq - ts[idx]) / np.where(h > 0, h, 1.0), 0.0)
        out = _hermite(
            s[:, None], h[:, None],
            self.states[idx], self.derivs[idx], self.states[idx + 1], self.derivs[idx + 1],
        )
        if np.isscalar(t) or np.ndim(t) == 0:
            return out[0]
        return out

    def radii(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.states, self.states))

    def to_csv(self, path):
        header = ["t"] + [f"x{i+1}" for i in range(self.states.shape[1])]
        write_csv(path, header, ((t, *x) for t, x in zip(self.times, self.states)))


def write_csv(path, header, rows):
    """Write a header line and rows of numbers, each to round-trip precision."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _error_norm(err, ay0, ay1, atol, rtol):
    """The RMS of err/scale, with ay0 and ay1 the |y| of the step's two ends.

    ay0 and ay1 are lists.  Below 8 entries np.add.reduce sums left to
    right, so the loop on Python floats is np.mean of the NumPy formula bit
    for bit at a fifth of its cost; from 8 on NumPy sums pairwise, and the
    NumPy formula itself runs.
    """
    n = err.size
    if n >= 8:
        scale = atol + rtol * np.maximum(ay0, ay1)
        return math.sqrt(float(np.add.reduce((err / scale) ** 2)) / n)
    total = 0.0
    for e, a, b in zip(err.tolist(), ay0, ay1):
        # the larger of a and b, or NaN if either is NaN, as np.maximum
        q = e / (atol + rtol * (a if a > b or a != a else b))
        total += q * q
    return math.sqrt(total / n)


def _initial_step(rhs, t0, y0, f0, direction, atol, rtol, max_step):
    # Hairer/Wanner starting-step heuristic.
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def _stepper(rhs, x0, f0, t0, t1, opts, postprocess=None):
    """Generate accepted steps (t_prev, y_prev, f_prev, t_new, y_new, f_new).

    f0 is rhs(t0, x0), which every caller has already evaluated for its
    first stored derivative.  Raises StopIteration values through generator
    return semantics; the calling integrate functions collect samples and
    statuses.  A non-finite start or error estimate (NaN or inf in the state
    or the right-hand side) raises StepFailure: no step size can repair it.
    """
    y = np.asarray(x0, dtype=float).copy()
    t = t0
    f = f0
    if y.shape != f.shape:
        raise ValueError("rhs output shape does not match the state shape")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f))):
        raise StepFailure(f"non-finite state or right-hand side at t = {t!r}", None)
    atol, rtol, max_step = opts.atol, opts.rtol, opts.max_step
    h = _initial_step(rhs, t, y, f, 1.0, atol, rtol, max_step)
    h = min(h, t1 - t0)
    K = np.empty((7, y.size))
    # stage i + 1 of a step: its row of the tableau, the stages it sums and
    # its node; K is filled in place, so the views stay current
    stages = [(a, K[: i + 1], c) for i, (a, c) in enumerate(zip(_A, _C[1:]))]
    K6 = K[:6]
    ay = np.abs(y).tolist()
    attempts = 0
    while t < t1:
        if attempts == _MAX_STEPS:
            raise StepFailure(f"no end after {attempts} attempted steps, at t = {t!r}", None)
        attempts += 1
        h = min(h, max_step, t1 - t)
        if h < 16 * _EPS * max(1.0, abs(t)):
            raise StepFailure(f"step size underflow at t = {t!r}", None)
        K[0] = f
        for i, (a, k, c) in enumerate(stages):
            K[i + 1] = rhs(t + c * h, y + h * a.dot(k))
        y_new = y + h * _B.dot(K6)
        t_new = t + h
        f_new = np.asarray(rhs(t_new, y_new), dtype=float)
        K[6] = f_new
        ay_new = np.abs(y_new).tolist()
        enorm = _error_norm(h * _E.dot(K), ay, ay_new, atol, rtol)
        if not math.isfinite(enorm):
            raise StepFailure(
                f"non-finite state or right-hand side in the step from t = {t!r} (h = {h!r})",
                None,
            )
        if enorm <= 1.0:
            if postprocess is not None:
                # the right-hand side is invariant under postprocess, so
                # f_new stays the derivative at the adjusted state
                y_new = np.asarray(postprocess(t_new, y_new), dtype=float)
                ay_new = np.abs(y_new).tolist()
            yield t, y, f, t_new, y_new, f_new
            t, y, f, ay = t_new, y_new, f_new, ay_new
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * enorm ** -0.2
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            h *= max(_MIN_FACTOR, min(1.0, _SAFETY * enorm ** -0.2))


def _trajectory(times, states, derivs, status) -> Trajectory:
    return Trajectory(np.array(times), np.array(states), np.array(derivs), status)


def integrate(
    rhs: Callable,
    x0,
    t0: float,
    t1: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    postprocess=None,
    until: Optional[Callable] = None,
) -> Trajectory:
    """Integrate dx/dt = rhs(t, x) from t0 to t1 with adaptive 5(4) stepping.

    Stops early with status hit_radius_floor when |x| drops below
    opts.r_floor (the ideal singular field cannot be followed into the
    origin).  Raises StepFailure, carrying the partial trajectory, when the
    step size underflows or the state turns non-finite.

    postprocess, if given, is applied to every accepted state as
    postprocess(t, y) and returns the adjusted state, which the run keeps.
    rhs must be invariant under it (rhs(t, postprocess(t, y)) == rhs(t, y)
    up to rounding): the stepper keeps the derivative it has already
    evaluated at the unadjusted state, so an adjustment costs no extra
    right-hand-side call.

    until, if given, is polled after every accepted step as
    until(t, y, partial), where y is the accepted state at t and partial()
    builds the trajectory up to t (at a cost that grows with its length); a
    true result ends the run at that step with status stopped.  The steps
    taken never depend on it, so a stopped run is a prefix of the full one.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    x0 = np.asarray(x0, dtype=float)
    times = [t0]
    states = [x0.astype(float)]
    derivs = [np.asarray(rhs(t0, x0), dtype=float)]
    status = "completed"

    def partial():
        return _trajectory(times, states, derivs, "stopped")

    try:
        steps = _stepper(rhs, x0, derivs[0], t0, t1, opts, postprocess)
        for tp, yp, fp, t_new, y_new, f_new in steps:
            floor_hit = None
            if opts.r_floor > 0.0:
                floor_hit = _floor_crossing(opts.r_floor, tp, yp, fp, t_new, y_new, f_new)
            if floor_hit is not None:
                t_f, x_f = floor_hit
                times.append(t_f)
                states.append(x_f)
                derivs.append(np.asarray(rhs(t_f, x_f), dtype=float))
                status = "hit_radius_floor"
                break
            times.append(t_new)
            states.append(y_new)
            derivs.append(f_new)
            if until is not None and until(t_new, y_new, partial):
                status = "stopped"
                break
    except StepFailure as exc:
        raise StepFailure(str(exc), _trajectory(times, states, derivs, "step_failure")) from None
    return _trajectory(times, states, derivs, status)


def _floor_crossing(r_floor, tp, yp, fp, tn, yn, fn):
    """First sub-step time where the dense radius drops below r_floor.

    One accepted step can straddle the origin passage entirely (the window
    with r < r_floor is much narrower than the step), so the dense output is
    subsampled whenever an endpoint is within a few decades of the floor.
    """
    rp = math.sqrt(float(yp @ yp))
    rn = math.sqrt(float(yn @ yn))
    if min(rp, rn) >= 1e3 * r_floor:
        return None
    y0, f0, y1, f1 = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist()
    if rn < r_floor:
        lo, hi = tp, tn
    else:
        ts = np.linspace(tp, tn, 33)[1:-1]
        below = None
        for tq in ts:
            yq = _hermite_eval(tq, tp, y0, f0, tn, y1, f1)
            if math.sqrt(float(yq @ yq)) < r_floor:
                below = tq
                break
        if below is None:
            return None
        lo, hi = tp, below
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        ym = _hermite_eval(mid, tp, y0, f0, tn, y1, f1)
        if math.sqrt(float(ym @ ym)) < r_floor:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4 * _EPS * max(1.0, abs(mid)):
            break
    t_f = hi
    return t_f, _hermite_eval(t_f, tp, y0, f0, tn, y1, f1)


def _hermite_weights(s, uu):
    """Cubic Hermite weights (h00, h10, h01, h11) at fraction s of a step.

    uu is (1 - s) squared, formed by the caller: NumPy's ** 2 on an array is
    u * u, while ** 2 on a scalar is C pow, which differs from u * u in the
    last bit about once in a thousand.  Each caller keeps the square it has
    always used, so every dense state keeps its bits.
    """
    ss = s * s
    return (1 + 2 * s) * uu, s * uu, ss * (3 - 2 * s), ss * (s - 1)


def _hermite(s, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant at fractions s (an array) of a step of length h."""
    h00, h10, h01, h11 = _hermite_weights(s, (1 - s) ** 2)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _hermite_point(s, uu, h, y0, f0, y1, f1):
    """One dense state from the components of the step's ends, on Python floats.

    The sum runs in _hermite's order, so the state is bitwise what _hermite
    gives at the same s and uu, at about half its cost for one state
    of a few components.
    """
    h00, h10, h01, h11 = _hermite_weights(s, uu)
    a, b = h10 * h, h11 * h
    return np.array([((h00 * p + a * q) + h01 * r) + b * w for p, q, r, w in zip(y0, f0, y1, f1)])


def _hermite_eval(t, tp, yp, fp, tn, yn, fn):
    """The dense state at a scalar time t; the ends may be arrays or lists."""
    h = tn - tp
    s = (t - tp) / h
    return _hermite_point(s, (1 - s) ** 2, h, yp, fp, yn, fn)


def _locate_crossing(event, step, bracket):
    """Bisect the dense output of one accepted step for the event root.

    step is the full Hermite interval (tp, yp, fp, tn, yn, fn); bracket is
    (ta, ga, tb, gb) with the sign change between ta and tb.
    """
    tp, yp, fp, tn, yn, fn = step
    y0, f0, y1, f1 = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist()
    lo, glo, hi, ghi = bracket
    scale = max(1.0, abs(glo), abs(ghi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ymid = _hermite_eval(mid, tp, y0, f0, tn, y1, f1)
        gmid = float(event(mid, ymid))
        if abs(gmid) <= 1e-12 * scale or hi - lo <= 16 * _EPS * max(1.0, abs(mid)):
            return mid, ymid
        if (gmid > 0) == (glo > 0):
            lo, glo = mid, gmid
        else:
            hi = mid
    ymid = _hermite_eval(0.5 * (lo + hi), tp, y0, f0, tn, y1, f1)
    return 0.5 * (lo + hi), ymid


class _Sphere:
    """The event |x| - radius, whose crossings _scan_step can rule out per step.

    Its value is bitwise that of the closure math.sqrt(float(x.dot(x))) -
    radius.  A step's cubic Hermite is a convex combination of its Bezier
    points y_p, y_p + h f_p / 3, y_n - h f_n / 3 and y_n, so when all four
    lie strictly inside the sphere, or strictly outside it, so does every
    subsample, and no crossing can be found.
    """

    __slots__ = ("radius",)

    def __init__(self, radius):
        self.radius = float(radius)

    def __call__(self, _t, x):
        # x.dot(x) is x @ x bit for bit (the same BLAS dot), with less overhead
        return math.sqrt(float(x.dot(x))) - self.radius

    def clear_of(self, g_prev, step):
        """True when no subsample of the step can reach the sphere.

        g_prev, the event at the step's start, must agree with the side found,
        so that the answer is the full scan's for any caller.  The margin
        bounds the rounding of the subsample states (a dozen roundings of
        terms whose sum is at most 4 times the hull's 1-norm, since
        |h f / 3| is the distance between two hull points), of their norms
        (d + 2 more), and of the hull computed here, for any dimension d.
        """
        tp, yp, fp, tn, yn, fn = step
        y0, f0, y1, f1 = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist()
        h3 = (tn - tp) / 3.0
        p1 = [a + h3 * b for a, b in zip(y0, f0)]
        p2 = [a - h3 * b for a, b in zip(y1, f1)]
        r = self.radius
        margin = 128 * (len(y0) + 2) * _EPS * (sum(map(abs, y0 + p1 + p2 + y1)) + r)
        if g_prev < 0.0:
            reach = max(math.hypot(*y0), math.hypot(*p1), math.hypot(*p2), math.hypot(*y1))
            return reach + margin < r
        if g_prev > 0.0:
            c = [0.5 * (a + b) for a, b in zip(y0, y1)]
            spread = max(math.hypot(*(a - b for a, b in zip(p, c))) for p in (y0, p1, p2, y1))
            return math.hypot(*c) - spread - margin > r
        return False


def _scan_step(event, direction, g_prev, step):
    """Subsample one accepted step for the first crossing in direction.

    The step is cut into _EVENT_SUBSAMPLES equal parts so a double crossing
    inside it is not skipped; subsample k sits at k * (h / _EVENT_SUBSAMPLES)
    past the step's start, which is how np.linspace places it, bit for bit,
    and its state comes from _hermite_point.  A _Sphere event skips the
    subsamples of a step it is clear of.  g_prev is the event at the step's
    start.  Returns (bracket, g_end): bracket is (ta, ga, tb, gb) around the
    first crossing, or None with g_end the event at the step's end.
    """
    tp, yp, fp, tn, yn, fn = step
    if isinstance(event, _Sphere) and event.clear_of(g_prev, step):
        return None, event(tn, yn)
    h = tn - tp
    dt = h / _EVENT_SUBSAMPLES
    y0, f0, y1, f1 = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist()
    ta, ga = tp, g_prev
    for k in range(1, _EVENT_SUBSAMPLES + 1):
        if k < _EVENT_SUBSAMPLES:
            tq = k * dt + tp
            s = (tq - tp) / h
            u = 1.0 - s
            yq = _hermite_point(s, u * u, h, y0, f0, y1, f1)
        else:
            tq, yq = tn, yn
        gq = float(event(tq, yq))
        if (ga < 0.0 <= gq) if direction > 0 else (ga > 0.0 >= gq):
            return (ta, ga, tq, gq), gq
        ta, ga = tq, gq
    return None, ga


def _integrate_to_crossing(rhs, x0, t0, event, direction, opts, t_max, postprocess=None):
    """Event search without the strict start-side precondition.

    Detects the first crossing of event through zero in the requested
    direction strictly after t0, scanning the dense output of each accepted
    step.  Returns (t_event, x_event, trajectory ending at the event).  When
    the run reaches t_max without a crossing, the NoEvent it raises carries
    the completed trajectory to t_max; a StepFailure propagates with the
    partial trajectory.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 (upward) or -1 (downward)")
    x0 = np.asarray(x0, dtype=float)
    times = [t0]
    states = [x0.astype(float)]
    derivs = [np.asarray(rhs(t0, x0), dtype=float)]
    g_prev = float(event(t0, x0))
    try:
        stepper = _stepper(rhs, x0, derivs[0], t0, t_max, opts, postprocess)
        for step in stepper:
            bracket, g_prev = _scan_step(event, direction, g_prev, step)
            if bracket is not None:
                t_e, x_e = _locate_crossing(event, step, bracket)
                times.append(t_e)
                states.append(x_e)
                derivs.append(np.asarray(rhs(t_e, x_e), dtype=float))
                return t_e, x_e, _trajectory(times, states, derivs, "hit_event")
            _, _, _, tn, yn, fn = step
            times.append(tn)
            states.append(yn)
            derivs.append(fn)
            if opts.r_floor > 0.0 and math.sqrt(float(yn @ yn)) < opts.r_floor:
                raise NoEvent("trajectory hit the radius floor before the event")
    except StepFailure as exc:
        raise StepFailure(str(exc), _trajectory(times, states, derivs, "step_failure")) from None
    raise NoEvent(
        f"no event crossing within horizon t <= {t_max!r}",
        _trajectory(times, states, derivs, "completed"),
    )


def integrate_to_event(
    rhs: Callable,
    x0,
    t0: float,
    event: Callable,
    direction: int,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
):
    """Locate the first directional zero crossing of event(t, x).

    direction=+1 looks for an upward crossing (the event function must be
    strictly negative at t0), direction=-1 for a downward one.  The search
    spans t0 .. t0 + opts.horizon.
    """
    x0 = np.asarray(x0, dtype=float)
    g0 = float(event(t0, x0))
    if direction > 0 and g0 >= 0.0:
        raise NoEventDirection(
            f"event already at or past an upward crossing at t0 (event = {g0!r})"
        )
    if direction < 0 and g0 <= 0.0:
        raise NoEventDirection(
            f"event already at or past a downward crossing at t0 (event = {g0!r})"
        )
    try:
        return _integrate_to_crossing(rhs, x0, t0, event, direction, opts, t0 + opts.horizon)
    except StepFailure as exc:
        raise NoEvent(f"integration failed before the event: {exc}", exc.trajectory) from None


def estimate_blowup_time(traj: Trajectory, alpha: float):
    """Fit the collapse tail r^(1-alpha) ~ (t_b - t) and return (t_b, p, resid).

    p is the fitted exponent of r against (t_b - t), which equals 1/(1-alpha)
    for a self-similar blowup.  resid is the rms misfit of the linear law
    relative to the tail amplitude.  Raises NotBlowingUp when the tail radius
    is not monotonically decreasing over at least 20 samples.
    """
    r = traj.radii()
    t = traj.times
    n = len(r)
    i = n - 1
    while i > 0 and r[i - 1] > r[i]:
        i -= 1
    rt, tt = r[i:], t[i:]
    if len(rt) < 20:
        raise NotBlowingUp(
            f"tail has only {len(rt)} monotonically decreasing samples (need >= 20)"
        )
    # restrict to the self-similar regime: the deepest sub-tail that still
    # holds enough samples (transients decay like a power of r)
    for cut in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        sel = rt <= rt[0] * cut
        if sel.sum() >= 20:
            break
    rt, tt = rt[sel][-400:], tt[sel][-400:]
    u = rt ** (1.0 - alpha)
    m, b = np.polyfit(tt, u, 1)
    if m >= 0:
        raise NotBlowingUp("tail radius is not shrinking linearly in r^(1-alpha)")
    t_b = -b / m
    resid = float(np.sqrt(np.mean((u - (m * tt + b)) ** 2)) / np.max(u))
    dt = t_b - tt
    ok = (dt > 0) & (rt > 0)
    p, _ = np.polyfit(np.log(dt[ok]), np.log(rt[ok]), 1)
    return float(t_b), float(p), resid
