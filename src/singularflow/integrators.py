"""Adaptive explicit integration with dense output and event location.

A hand-rolled Dormand-Prince 5(4) embedded pair drives everything in this
package: it keeps the trajectories bitwise deterministic, and its dense
output between accepted steps is the pair's own order-4 continuous
extension, written as the cubic Hermite of the step's ends plus one term
per step.  Event crossings are located by bisection on that dense output.
Blowup times are recovered from trajectory tails through the exact
linearity of r^(1-alpha) in t on the self-similar collapse.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NotBlowingUp, OutOfRange, StepFailure

# Dormand-Prince 5(4) tableau (FSAL: the last stage is f at the new point),
# Hairer, Norsett and Wanner, Solving ODEs I, section II.5.  The stepper
# unrolls it on Python floats; c_6 = c_7 = 1, and b_2 = e_2 = 0.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# b5 - b4, including the FSAL stage
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
# Its continuous extension of order 4 (ibid., II.6; Shampine, Math. Comp. 46,
# 1986) is the cubic Hermite of the step's ends plus theta^2 (1 - theta)^2 e:
# e = h (d_1 k_1 + d_3 k_3 + ... + d_7 k_7) is its theta^4 coefficient.
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)

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

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):  # NaN fails too
            raise ValueError(
                f"rtol and atol must be positive and finite, got {self.rtol!r} and {self.atol!r}"
            )
        if not self.max_step > 0:  # NaN fails too: it would cap no step
            raise ValueError(f"max_step must be positive, got {self.max_step!r}")


DEFAULT_OPTIONS = IntegrationOptions()


@dataclass
class SolverStats:
    """What a run cost the stepper.

    rhs_calls counts every right-hand-side evaluation of the run, the start
    point's and the initial-step probe's included; accepted and rejected
    count attempted steps; h_min and h_max are the smallest and largest
    accepted step sizes (inf and 0.0 while none is accepted).
    """

    rhs_calls: int = 0
    accepted: int = 0
    rejected: int = 0
    h_min: float = math.inf
    h_max: float = 0.0


@dataclass
class Trajectory:
    """Sampled solution with the stepper's order-4 dense output per accepted step.

    status is one of completed | stopped | hit_event | step_failure, or
    hit_radius_floor from integrate_ideal, and explains the terminal sample;
    stats is what the run cost the stepper.  Row i of quartic is accepted
    step i's term e of the dense output (_hermite), None for samples alone
    (reconstruct's), which have no dense output.  A run that ends at a
    located crossing keeps its last step whole: cut is that step's end
    (t, state, derivative), past the crossing.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str
    stats: SolverStats = field(default_factory=SolverStats)
    quartic: Optional[np.ndarray] = None
    cut: Optional[tuple] = None

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t):
        """Dense evaluation at scalar or array times within the sampled span."""
        tq, idx = _locate(self.times, t)
        tp, h, *ends = self._steps(idx)
        s = np.where(h > 0, (tq - tp) / np.where(h > 0, h, 1.0), 0.0)
        out = _hermite(s[:, None], h[:, None], *ends)
        if np.isscalar(t) or np.ndim(t) == 0:
            return out[0]
        return out

    def _steps(self, idx):
        """Steps idx as the dense output takes them: (t, h, y0, f0, y1, f1, e),
        with a cut last step's full end."""
        if self.quartic is None:
            raise ValueError("this trajectory has no dense output: it holds samples only")
        ends = [a[1:] for a in (self.times, self.states, self.derivs)]
        if self.cut is not None:
            ends = [np.concatenate([a[:-1], [b]]) for a, b in zip(ends, self.cut)]
        t1, y1, f1 = (a[idx] for a in ends)
        tp = self.times[idx]
        return tp, t1 - tp, self.states[idx], self.derivs[idx], y1, f1, self.quartic[idx]

    def radii(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.states, self.states))

    def to_csv(self, path):
        header = ["t"] + [f"x{i+1}" for i in range(self.states.shape[1])]
        write_csv(path, header, ((t, *x) for t, x in zip(self.times, self.states)))


def _locate(times, t):
    """Scalar or array times within the sampled span, as a clipped 1-d array,
    and the index of the step that holds each; OutOfRange outside."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = times[0], times[-1]
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    # written so that a NaN time fails the test too
    if not np.all((t_arr >= lo - pad) & (t_arr <= hi + pad)):
        raise OutOfRange(f"query outside sampled range [{lo}, {hi}]")
    tq = np.clip(t_arr, lo, hi)
    return tq, np.clip(np.searchsorted(times, tq, side="right") - 1, 0, len(times) - 2)


def write_csv(path, header, rows):
    """Write a header line and rows of numbers, each to round-trip precision."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _floats(x):
    """The components of a state as Python floats: the same IEEE arithmetic
    as NumPy scalars, bit for bit, at a fraction of the per-operation cost.
    A list passes through as it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def _with_floats(form):
    """The array callable of a float form, carrying it as .floats.

    form maps its arguments, the state last ((t, x) for a right-hand side,
    (y) for a sphere map) as a list of floats, to a list of floats; the
    array callable is np.array(form(..., _floats(x))), so the two cannot
    disagree.
    """

    def fn(*args):
        return np.array(form(*args[:-1], _floats(args[-1])))

    fn.floats = form
    return fn


def _float_form(fn):
    """fn's float form: fn.floats when it has one, else fn through arrays."""
    form = getattr(fn, "floats", None)
    if form is not None:
        return form

    def through_arrays(*args):
        return np.asarray(fn(*args[:-1], np.array(args[-1])), dtype=float).tolist()

    return through_arrays


def _error_norm(err, ay0, ay1, atol, rtol):
    """The RMS of err/scale, with ay0 and ay1 the |y| of the step's two ends.

    err, ay0 and ay1 are sequences of floats, and the squares are summed
    left to right.  Below 8 entries np.add.reduce sums in that order too, so
    this is np.mean of the NumPy formula bit for bit; from 8 on NumPy sums
    pairwise, and the two can differ in the last bits.
    """
    n = len(err)
    total = 0.0
    for e, a, b in zip(err, ay0, ay1):
        # the larger of a and b, or NaN if either is NaN, as np.maximum
        q = e / (atol + rtol * (a if a > b or a != a else b))
        total += q * q
    return math.sqrt(total / n)


def _initial_step(f, t0, y0, f0, atol, rtol, max_step):
    # Hairer/Wanner starting-step heuristic, on arrays; f is a float form.  A
    # norm that overflows (atol far below |y0| or |f0|) measures no more than
    # one too small to measure, and both take the fallback steps.
    with np.errstate(over="ignore"):
        scale = atol + rtol * np.abs(y0)
        d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
        h0 = 0.01 * d0 / d1 if 1e-5 <= min(d0, d1) and max(d0, d1) < math.inf else 1e-6
        f1 = np.array(f(t0 + h0, (y0 + h0 * f0).tolist()))
        d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    d12 = max(d1, d2)
    h1 = (0.01 / d12) ** 0.2 if 1e-15 < d12 < math.inf else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, max_step)


def _stepper(rhs, x0, f0, t0, t1, opts, stats, postprocess=None):
    """Generate accepted steps (t_prev, y_prev, f_prev, t_new, y_new, f_new, e).

    x0 and f0 are arrays, f0 = rhs(t0, x0), which every caller has already
    evaluated for its first stored derivative.  The stages, the state and
    the error estimate are lists of Python floats, and rhs and postprocess
    run through their float forms (_float_form); the arrays of each
    accepted state and derivative are built once, for the caller.  Raises
    StopIteration values through generator return semantics; the calling
    integrate functions collect samples and statuses.  stats, a
    SolverStats, counts the right-hand-side calls made here and the steps.
    A non-finite start or error estimate (NaN or inf in the state or the
    right-hand side) raises StepFailure: no step size can repair it.  e is
    the step's term of the dense output (_hermite), a list of floats.
    """
    if x0.shape != f0.shape:
        raise ValueError("rhs output shape does not match the state shape")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(f0))):
        raise StepFailure(f"non-finite state or right-hand side at t = {t0!r}", None)
    f_of = _float_form(rhs)
    post = None if postprocess is None else _float_form(postprocess)
    atol, rtol, max_step = opts.atol, opts.rtol, opts.max_step
    h = min(_initial_step(f_of, t0, x0, f0, atol, rtol, max_step), t1 - t0)
    stats.rhs_calls += 1
    t, y, k1, y_arr, f_arr = t0, x0.tolist(), f0.tolist(), x0, f0
    ay = [abs(v) for v in y]
    attempts = 0
    while t < t1:
        if attempts == _MAX_STEPS:
            raise StepFailure(f"no end after {attempts} attempted steps, at t = {t!r}", None)
        attempts += 1
        h = min(h, max_step, t1 - t)
        if h < 16 * _EPS * max(1.0, abs(t)):
            raise StepFailure(f"step size underflow at t = {t!r}", None)
        # each stage state is y + h (a_i1 k1 + ... ), summed left to right
        k2 = f_of(t + _C2 * h, [v + h * (_A21 * p) for v, p in zip(y, k1)])
        k3 = f_of(t + _C3 * h, [v + h * (_A31 * p + _A32 * q) for v, p, q in zip(y, k1, k2)])
        k4 = f_of(t + _C4 * h, [
            v + h * (_A41 * p + _A42 * q + _A43 * r) for v, p, q, r in zip(y, k1, k2, k3)
        ])
        k5 = f_of(t + _C5 * h, [
            v + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * w)
            for v, p, q, r, w in zip(y, k1, k2, k3, k4)
        ])
        k6 = f_of(t + h, [
            v + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * w + _A65 * x)
            for v, p, q, r, w, x in zip(y, k1, k2, k3, k4, k5)
        ])
        y_new = [
            v + h * (_B1 * p + _B3 * r + _B4 * w + _B5 * x + _B6 * z)
            for v, p, r, w, x, z in zip(y, k1, k3, k4, k5, k6)
        ]
        t_new = t + h
        k7 = f_of(t_new, y_new)
        stats.rhs_calls += 6
        ay_new = [abs(v) for v in y_new]
        # the error estimate and the dense output's term e in one loop, which
        # costs a fraction of what a second comprehension would
        err, e = [], []
        for p, r, w, x, z, q in zip(k1, k3, k4, k5, k6, k7):
            err.append(h * (_E1 * p + _E3 * r + _E4 * w + _E5 * x + _E6 * z + _E7 * q))
            e.append(h * (_D1 * p + _D3 * r + _D4 * w + _D5 * x + _D6 * z + _D7 * q))
        enorm = _error_norm(err, ay, ay_new, atol, rtol)
        if not math.isfinite(enorm):
            raise StepFailure(
                f"non-finite state or right-hand side in the step from t = {t!r} (h = {h!r})",
                None,
            )
        if enorm <= 1.0:
            if post is not None:
                # the right-hand side is invariant under postprocess, so
                # k7 stays the derivative at the adjusted state
                y_new = post(t_new, y_new)
                ay_new = [abs(v) for v in y_new]
            stats.accepted += 1
            if h < stats.h_min:
                stats.h_min = h
            if h > stats.h_max:
                stats.h_max = h
            y_new_arr, f_new_arr = np.array(y_new), np.array(k7)
            yield t, y_arr, f_arr, t_new, y_new_arr, f_new_arr, e
            t, y, k1, ay, y_arr, f_arr = t_new, y_new, k7, ay_new, y_new_arr, f_new_arr
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * enorm ** -0.2
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, min(1.0, _SAFETY * enorm ** -0.2))


def _trajectory(times, states, derivs, status, stats, quartic, cut=None) -> Trajectory:
    return Trajectory(np.array(times), np.array(states), np.array(derivs), status, stats=stats,
                      quartic=np.array(quartic).reshape(-1, len(states[0])), cut=cut)


def integrate(
    rhs: Callable,
    x0,
    t0: float,
    t1: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    postprocess=None,
    until: Optional[Callable] = None,
    event: Optional[Callable] = None,
    direction: int = 0,
) -> Trajectory:
    """Integrate dx/dt = rhs(t, x) from t0 to t1 with adaptive 5(4) stepping.

    The returned trajectory's status says why the run ended: completed at
    t1, stopped by until, hit_event at a located crossing; a StepFailure,
    raised when the step size underflows or the state turns non-finite,
    carries the partial trajectory (status step_failure).

    event, if given, is a function event(t, x) whose first zero crossing in
    direction (+1 upward, -1 downward, required with an event) strictly
    after t0 ends the run with status hit_event.  A start at zero or on the
    side the crossing leads to is no crossing: the event must first return
    to the other side, so a run restarted from a located crossing does not
    fire on it again.  Each accepted step is scanned for a crossing
    (_scan_step), and the run ends at the first one located
    (_locate_crossing), whose time, state and derivative close the
    trajectory; the step keeps its full length (Trajectory.cut).  No other
    crossing ends a run.

    postprocess, if given, is applied to every accepted state as
    postprocess(t, y) and returns the adjusted state, which the run keeps.
    rhs must be invariant under it (rhs(t, postprocess(t, y)) == rhs(t, y)
    up to rounding): the stepper keeps the derivative it has already
    evaluated at the unadjusted state, so an adjustment costs no extra
    right-hand-side call.

    until, if given, is polled after every accepted step as
    until(t, y, f, partial), where y is the accepted state at t, f the
    derivative the stepper already holds there (its FSAL stage, rhs(t, y)
    bit for bit; with a postprocess, the derivative at the state before the
    adjustment) and partial() builds the trajectory up to t (at a cost that
    grows with its length); a true result ends the run at that step with
    status stopped.  The steps taken never depend on it, so a stopped run is
    a prefix of the full one.  A crossing located on an accepted step beats
    until: the step is scanned before until sees it.

    rhs and postprocess may carry a float form as their .floats attribute,
    a function (t, y) -> list on lists of Python floats that the stepper
    calls directly; the array callable must be np.array(rhs.floats(t,
    y.tolist())) bit for bit, as _with_floats builds it.  Any other callable
    is called on arrays, with the same steps bit for bit.  The trajectory's
    stats count the right-hand-side calls, the accepted and rejected steps
    and the range of accepted step sizes.  Its dense output (sample) is the
    stepper's order-4 continuous extension on every step.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if event is not None and direction not in (+1, -1):
        raise ValueError("direction must be +1 (upward) or -1 (downward)")
    x0 = np.array(x0, dtype=float)
    times = [t0]
    states = [x0]
    derivs = [np.asarray(rhs(t0, x0), dtype=float)]
    stats = SolverStats(rhs_calls=1)
    g = None if event is None else float(event(t0, x0))
    status = "completed"
    quartic = array("d")
    cut = None

    def partial():
        return _trajectory(times, states, derivs, "stopped", stats, quartic)

    try:
        for step in _stepper(rhs, x0, derivs[0], t0, t1, opts, stats, postprocess):
            _, _, _, t_new, y_new, f_new, e = step
            quartic.extend(e)
            if event is not None:
                bracket, g = _scan_step(event, direction, g, step)
                if bracket is not None:
                    t_e, x_e = _locate_crossing(event, step, bracket)
                    times.append(t_e)
                    states.append(x_e)
                    derivs.append(np.asarray(rhs(t_e, x_e), dtype=float))
                    stats.rhs_calls += 1
                    status = "hit_event"
                    cut = (t_new, y_new, f_new)
                    break
            times.append(t_new)
            states.append(y_new)
            derivs.append(f_new)
            if until is not None and until(t_new, y_new, f_new, partial):
                status = "stopped"
                break
    except StepFailure as exc:
        raise StepFailure(
            str(exc), _trajectory(times, states, derivs, "step_failure", stats, quartic)
        ) from None
    return _trajectory(times, states, derivs, status, stats, quartic, cut)


def _hermite_weights(s):
    """The weights of y0, h f0, y1, h f1 and e in the dense output at fraction s."""
    u = 1 - s
    ss, uu = s * s, u * u
    return (1 + 2 * s) * uu, s * uu, ss * (3 - 2 * s), ss * (s - 1), ss * uu


def _hermite(s, h, y0, f0, y1, f1, e):
    """The dense output at fractions s (an array) of a step of length h.

    The cubic Hermite of the step's ends plus s^2 (1 - s)^2 e is the
    stepper's order-4 continuous extension: both are quartics with the
    same ends, end slopes and s^4 coefficient e.
    """
    h00, h10, h01, h11, q = _hermite_weights(s)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1 + q * e


def _hermite_point(s, h, y0, f0, y1, f1, e):
    """One dense state from the components of the step's ends, on Python floats.

    The sum runs in _hermite's order, so the state is bitwise what _hermite
    gives at the same s, at about half its cost for one state of a few
    components.
    """
    h00, h10, h01, h11, q = _hermite_weights(s)
    a, b = h10 * h, h11 * h
    return np.array([
        (((h00 * p + a * v) + h01 * r) + b * w) + q * c
        for p, v, r, w, c in zip(y0, f0, y1, f1, e)
    ])


def _monomials(traj, steps, i):
    """Component i's dense output on steps, as (h, c) with c of shape (n, 4).

    h is each step's full length; on the step from t_k, the component at
    t_k + theta h is x_k + c_1 theta + ... + c_4 theta^4, _hermite in
    monomial form.  Each row depends on its own step only.
    """
    _, h, y0, f0, y1, f1, e = traj._steps(steps)
    rise, hf0, hf1, e = y1[:, i] - y0[:, i], h * f0[:, i], h * f1[:, i], e[:, i]
    c = (hf0, 3 * rise - 2 * hf0 - hf1 + e, -2 * rise + hf0 + hf1 - 2 * e, e)
    return h, np.stack(c, axis=1)


def _dense_max(traj, i):
    """The largest value of component i over the run, between samples
    included, and where it is: (t, value).

    A maximum between samples lies on a step over which the dense
    derivative turns from positive to nonpositive; on each such step the
    zero of the derivative of the component's dense output (_monomials) is
    found by bisection.
    """
    times, x = traj.times, traj.states[:, i]
    h, c = _monomials(traj, np.arange(len(times) - 1), i)
    theta = np.diff(times) / h  # a cut last step ends before its full length
    slope_end = ((4 * c[:, 3] * theta + 3 * c[:, 2]) * theta + 2 * c[:, 1]) * theta + c[:, 0]
    j = int(np.argmax(x))
    t_best, best = float(times[j]), float(x[j])
    for k in np.flatnonzero((c[:, 0] > 0.0) & (slope_end <= 0.0)).tolist():
        c1, c2, c3, c4 = c[k].tolist()
        lo, hi = 0.0, float(theta[k])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ((4 * c4 * mid + 3 * c3) * mid + 2 * c2) * mid + c1 > 0.0:
                lo = mid
            else:
                hi = mid
        value = float(x[k]) + (((c4 * lo + c3) * lo + c2) * lo + c1) * lo
        if value > best:
            t_best, best = float(times[k]) + lo * float(h[k]), value
    return t_best, best


def _locate_crossing(event, step, bracket):
    """Bisect the dense output of one accepted step for the event root.

    step is the full step (tp, yp, fp, tn, yn, fn, e); bracket is
    (ta, ga, tb, gb) with the sign change between ta and tb.  The bisection
    keeps tb on the side the crossing leads to, and so does the (t, x) it
    returns: the event there is within 1e-12 of zero relative to the
    larger of the bracket's two end values, so an event of any scale (a
    radius floor of 1e-10, say) is located to the same relative accuracy,
    or the bracket is a few ulps wide.  A run that restarts from the
    located state, such as the next lap of a Poincare-section search or the
    excursion rescaled_escape starts where its inside run leaves the unit
    ball, then starts on the side it crossed to.
    """
    tp, yp, fp, tn, yn, fn, e = step
    y0, f0, y1, f1, e = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist(), _floats(e)
    h = tn - tp
    lo, glo, hi, ghi = bracket
    y_hi = None
    scale = max(abs(glo), abs(ghi))
    for _ in range(200):
        if abs(ghi) <= 1e-12 * scale or hi - lo <= 16 * _EPS * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        ymid = _hermite_point((mid - tp) / h, h, y0, f0, y1, f1, e)
        gmid = float(event(mid, ymid))
        if (gmid > 0) == (glo > 0):
            lo, glo = mid, gmid
        else:
            hi, ghi, y_hi = mid, gmid, ymid
    if y_hi is None:
        y_hi = yn if hi == tn else _hermite_point((hi - tp) / h, h, y0, f0, y1, f1, e)
    return hi, y_hi


class _Sphere:
    """The event |x| - radius, whose crossings _scan_step can rule out per step.

    Its value is bitwise that of the closure math.sqrt(float(x.dot(x))) -
    radius.  A step's dense output is a convex combination of the
    quartic's five Bezier points (_bezier), so when all five lie strictly
    inside the sphere, or strictly outside it, so does every subsample, and
    no crossing can be found.
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
        terms whose sum is at most 4 times the hull's 1-norm, since h f_p,
        h f_n and e are combinations of the hull points), of their norms
        (d + 2 more), and of the hull computed here, for any dimension d.
        """
        tp, yp, fp, tn, yn, fn, e = step
        ends = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist(), _floats(e)
        hull = list(zip(*map(_bezier, [tn - tp] * len(yp), *ends)))  # five points
        r = self.radius
        margin = 128 * (len(yp) + 2) * _EPS * (sum(abs(v) for p in hull for v in p) + r)
        if g_prev < 0.0:
            return max(math.hypot(*p) for p in hull) + margin < r
        if g_prev > 0.0:
            c = [0.5 * (a + b) for a, b in zip(hull[0], hull[4])]
            spread = max(math.hypot(*(a - b for a, b in zip(p, c))) for p in hull)
            return math.hypot(*c) - spread - margin > r
        return False


class _Level:
    """The event x[index] - level, whose crossings _scan_step can rule out per step.

    Component index of a step's dense output is a convex combination of
    that component of its five Bezier points (_bezier), so when all five lie
    strictly below the level, or strictly above it, so does every
    subsample, and no crossing can be found.
    """

    __slots__ = ("index", "level")

    def __init__(self, index, level=0.0):
        self.index = int(index)
        self.level = float(level)

    def __call__(self, _t, x):
        return float(x[self.index]) - self.level

    def clear_of(self, g_prev, step):
        """True when no subsample of the step can reach the level.

        As _Sphere.clear_of, for one component: g_prev must agree with the
        side found, and the margin bounds the rounding of the subsample
        component and of the hull computed here.
        """
        tp, yp, fp, tn, yn, fn, e = step
        i = self.index
        q = _bezier(tn - tp, float(yp[i]), float(fp[i]), float(yn[i]), float(fn[i]), float(e[i]))
        level = self.level
        margin = 384 * _EPS * (sum(map(abs, q)) + abs(level))
        if g_prev < 0.0:
            return max(q) + margin < level
        if g_prev > 0.0:
            return min(q) - margin > level
        return False


def _bezier(h, a, fa, b, fb, c):
    """The five Bezier points Q_j of one component's dense output on a step
    of length h from (a, fa) to (b, fb) with term c: _hermite is
    sum_j C(4, j) s^j (1 - s)^(4 - j) Q_j, for s in [0, 1] a convex
    combination of them."""
    return a, a + h / 4.0 * fa, 0.5 * (a + b) + h / 6.0 * (fa - fb) + c / 6.0, b - h / 4.0 * fb, b


def _scan_step(event, direction, g_prev, step):
    """Subsample one accepted step for the first crossing in direction.

    The step is cut into _EVENT_SUBSAMPLES equal parts so a double crossing
    inside it is not skipped; subsample k sits at k * (h / _EVENT_SUBSAMPLES)
    past the step's start, which is how np.linspace places it, bit for bit,
    and its state comes from _hermite_point.  step is as _stepper yields it.
    An event with a clear_of method (_Sphere, _Level) skips the subsamples
    of a step it is clear of.
    g_prev is the event at the step's start.  Returns (bracket, g_end):
    bracket is (ta, ga, tb, gb) around the first crossing, or None with
    g_end the event at the step's end.
    """
    tp, yp, fp, tn, yn, fn, e = step
    clear_of = getattr(event, "clear_of", None)
    if clear_of is not None and clear_of(g_prev, step):
        return None, event(tn, yn)
    h = tn - tp
    dt = h / _EVENT_SUBSAMPLES
    y0, f0, y1, f1, e = yp.tolist(), fp.tolist(), yn.tolist(), fn.tolist(), _floats(e)
    ta, ga = tp, g_prev
    for k in range(1, _EVENT_SUBSAMPLES + 1):
        if k < _EVENT_SUBSAMPLES:
            tq = k * dt + tp
            yq = _hermite_point((tq - tp) / h, h, y0, f0, y1, f1, e)
        else:
            tq, yq = tn, yn
        gq = float(event(tq, yq))
        if (ga < 0.0 <= gq) if direction > 0 else (ga > 0.0 >= gq):
            return (ta, ga, tq, gq), gq
        ta, ga = tq, gq
    return None, ga


def estimate_blowup_time(traj: Trajectory, alpha: float):
    """Fit the collapse tail r^(1-alpha) ~ (t_b - t) and return (t_b, p, resid).

    p is the fitted exponent of r against (t_b - t), which equals 1/(1-alpha)
    for a self-similar blowup.  resid is the rms misfit of the linear law
    relative to the tail amplitude.  Only integrated nodes are fitted, not
    the located crossing that ends a hit_event or hit_radius_floor run.
    Raises NotBlowingUp when the tail radius is not monotonically
    decreasing over at least 20 samples.
    """
    n = len(traj.times) - (traj.status in ("hit_event", "hit_radius_floor"))
    r, t = traj.radii()[:n], traj.times[:n]
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
