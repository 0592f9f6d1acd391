"""Adaptive explicit integration with dense output and event location.

A hand-rolled Dormand-Prince 5(4) embedded pair drives everything in this
package: it keeps the trajectories bitwise deterministic, and its dense
output between accepted steps is the pair's own order-4 continuous
extension, written as the cubic Hermite of the step's ends plus one term
per step.  Its step loop, like the package's float kernels, is rendered
once per state size (_rendered), one Python float per component: on states
of 2 to 5 components a list comprehension costs more than its arithmetic.
The loop computes its own starting step and error norm on those floats.
Event crossings are located by bisection on that dense output.  Blowup
times are recovered from trajectory tails through the exact linearity of
r^(1-alpha) in t on the self-similar collapse.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import zlib
from array import array
from dataclasses import asdict, dataclass, field
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

    def to_dict(self):
        """The counters as the JSON outputs write them: h_min None while no
        step was accepted."""
        out = asdict(self)
        if math.isinf(self.h_min):
            out["h_min"] = None
        return out


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

    def sample(self, t, i=None):
        """Dense evaluation at scalar or array times within the sampled span;
        with i, of component i alone, bitwise sample(t)[..., i]."""
        tq, idx = _locate(self.times, t)
        tp, h, *ends = self._steps(idx, i)
        s = np.where(h > 0, (tq - tp) / np.where(h > 0, h, 1.0), 0.0)
        out = _hermite(s, h, *ends) if i is not None else _hermite(s[:, None], h[:, None], *ends)
        return out[0] if np.ndim(t) == 0 else out

    def _steps(self, idx, i=None):
        """Steps idx as the dense output takes them: (t, h, y0, f0, y1, f1, e),
        with a cut last step's full end; with i, of component i alone."""
        if self.quartic is None:
            raise ValueError("this trajectory has no dense output: it holds samples only")
        col = slice(None) if i is None else i
        states, derivs = self.states[:, col], self.derivs[:, col]
        ends = [a[1:] for a in (self.times, states, derivs)]
        if self.cut is not None:
            t, y, f = self.cut
            ends = [np.concatenate([a[:-1], [b]]) for a, b in zip(ends, (t, y[col], f[col]))]
        t1, y1, f1 = (a[idx] for a in ends)
        tp = self.times[idx]
        return tp, t1 - tp, states[idx], derivs[idx], y1, f1, self.quartic[idx, col]

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
    """Write a header line and rows of numbers, each to round-trip precision (%.17g)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(("%.17g",) * len(row)) % tuple(row) + "\n")


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


def _inlined(fn):
    """A map for a rendered kernel: (fn.source, None) when fn carries the source
    _rendered puts in place of its call, else (None, fn's float form)."""
    source = getattr(fn, "source", None)
    return (source, None) if source is not None else (None, _float_form(fn))


# _stepper's body, rendered for each state size by _rendered
_STEPPER_TEMPLATE = '''\
def stepper(rhs, y_arr, f_arr, t, t1, opts, stats, postprocess):
    if y_arr.shape != f_arr.shape:
        raise ValueError("rhs output shape does not match the state shape")
    if not (np.all(np.isfinite(y_arr)) and np.all(np.isfinite(f_arr))):
        raise StepFailure("non-finite state or right-hand side at t = %r" % t, None)
    f_of = _float_form(rhs)
    post = None if postprocess is None else _float_form(postprocess)
    atol, rtol, max_step = opts.atol, opts.rtol, opts.max_step
    n = len(y_arr)
    {y_}, = y = y_arr.tolist()
    {k1_}, = f = f_arr.tolist()
    # Hairer and Wanner's starting step (Solving ODEs I, II.4); a norm that
    # overflows (atol far below |y0| or |f0|) measures no more than one too
    # small to measure, and both take the fallback steps.  Every RMS sums
    # q * q left to right (a float ** raises OverflowError where q * q is
    # inf); from 8 components on, NumPy's pairwise np.mean can differ from it
    # in the last bits.  The loop caps h by max_step and t1 - t.
    {sc_}, = {atol + rtol * abs(y_)},
    {q_}, {r_}, = {y_ / sc_}, {k1_ / sc_},
    d0, d1 = math.sqrt(({+ q_ * q_}) / n), math.sqrt(({+ r_ * r_}) / n)
    h0 = 0.01 * d0 / d1 if 1e-5 <= min(d0, d1) and max(d0, d1) < math.inf else 1e-6
    {f1_}, = f_of(t + h0, [{y_ + h0 * k1_}])
    stats.rhs_calls += 1
    {q_}, = {(f1_ - k1_) / sc_},
    d12 = max(d1, math.sqrt(({+ q_ * q_}) / n) / h0)
    h = min(100 * h0, (0.01 / d12) ** 0.2 if 1e-15 < d12 < math.inf else max(1e-6, h0 * 1e-3))
    while t < t1:
        if stats.accepted + stats.rejected == _MAX_STEPS:
            raise StepFailure("no end after %d attempted steps, at t = %r" % (_MAX_STEPS, t), None)
        h = min(h, max_step, t1 - t)
        if h < 16 * _EPS * max(1.0, abs(t)):
            raise StepFailure("step size underflow at t = %r" % t, None)
        {k2_}, = f_of(t + _C2 * h, [{y_ + h * (_A21 * k1_)}])
        {k3_}, = f_of(t + _C3 * h, [{y_ + h * (_A31 * k1_ + _A32 * k2_)}])
        {k4_}, = f_of(t + _C4 * h, [{y_ + h * (_A41 * k1_ + _A42 * k2_ + _A43 * k3_)}])
        {k5_}, = f_of(t + _C5 * h, [{y_ + h * (_A51 * k1_ + _A52 * k2_ + _A53 * k3_ + _A54 * k4_)}])
        {k6_}, = f_of(t + h, [{
            y_ + h * (_A61 * k1_ + _A62 * k2_ + _A63 * k3_ + _A64 * k4_ + _A65 * k5_)}])
        {yn_}, = y_new = [{y_ + h * (_B1 * k1_ + _B3 * k3_ + _B4 * k4_ + _B5 * k5_ + _B6 * k6_)}]
        t_new = t + h
        {k7_}, = k7 = f_of(t_new, y_new)
        stats.rhs_calls += 6
        # v - v is 0.0 for a finite v and NaN for inf or NaN
        if {+ (yn_ - yn_) + (k7_ - k7_)} != 0.0:
            raise StepFailure("non-finite state or right-hand side in the step from t = %r "
                              "(h = %r)" % (t, h), None)
        {er_}, = {h * (_E1 * k1_ + _E3 * k3_ + _E4 * k4_ + _E5 * k5_ + _E6 * k6_ + _E7 * k7_)},
        # the RMS of er over atol + rtol max(|y|, |y_new|), both finite here;
        # a norm that overflows (inf, or NaN from an er that did) is far past
        # any tolerance, and rejects the step at the smallest factor
        {a_}, {b_}, = {abs(y_)}, {abs(yn_)},
        {q_}, = {er_ / (atol + rtol * (a_ if a_ > b_ else b_))},
        enorm = math.sqrt(({+ q_ * q_}) / n)
        if enorm <= 1.0:
            if post is not None:  # k7 holds: rhs is invariant under post
                {yn_}, = y_new = post(t_new, y_new)
                if {+ (yn_ - yn_)} != 0.0:
                    raise StepFailure("non-finite state after the postprocess at t = %r"
                                      % t_new, None)
            stats.accepted += 1
            if h < stats.h_min:
                stats.h_min = h
            if h > stats.h_max:
                stats.h_max = h
            e = [{h * (_D1 * k1_ + _D3 * k3_ + _D4 * k4_ + _D5 * k5_ + _D6 * k6_ + _D7 * k7_)}]
            yield t, y, f, t_new, y_new, k7, e
            t, y, f = t_new, y_new, k7
            {y_}, {k1_}, = {yn_}, {k7_},
            factor = _MAX_FACTOR if enorm == 0.0 else min(_MAX_FACTOR, _SAFETY * enorm ** -0.2)
            h *= max(_MIN_FACTOR, factor)
        else:
            stats.rejected += 1
            factor = min(1.0, _SAFETY * enorm ** -0.2) if enorm < math.inf else 0.0
            h *= max(_MIN_FACTOR, factor)
'''
_PER_COMPONENT = re.compile(r"\{([^{}]*)\}")
_COMPONENT_NAME = re.compile(r"\b([a-z][a-z0-9]*_)(?!\w)")
# a slot, a map's call alone on its line; a temporary, a name other than a
# component that a source assigns
_CALL_LINE = re.compile(r"^( *)\{\w+_\}, = (\w+)\(\[\{\w+_\}\]\)\n", re.M)
_TEMPORARY = re.compile(r"^ *(?![a-z][a-z0-9]*_\d* =)(\w+) = ", re.M)


@functools.cache
def _rendered(template, n, **sources):
    """The function template defines, for n components, each a Python float
    of its own: a name ending in "_" is one component, and each {expr}
    renders as expr at components 0 to n - 1, comma-separated ([{y_ + k_}]
    as [y_0 + k_0, y_1 + k_1] at n = 2), or "+"-joined if it starts with "+"
    ({+ y_} as y_0 + y_1), so every sum keeps its written order.  It is
    compiled on first use in this module's globals, where the stepper reads
    _MAX_STEPS as it is when it runs; linecache holds its source for
    tracebacks.

    A line {f_}, = smap([{y_}]) is a slot for the map smap.  Where sources
    gives smap a source, the source replaces the line, indented as it; with
    None the line stays, a call of the kernel's argument smap.  A source
    assigns the line's targets from its own components (f_0 from y_0, ...)
    and may hold slots of its own, filled first.  The names it assigns then
    take the suffix _smap (w as w_smap), where its own slots read them too,
    so that they cannot shadow the kernel's names.  A kernel rendered with
    the source of one of its arguments has a file name of its own."""

    def spliced(text, arg=None):
        def slot(m):
            source = sources.get(m[2])
            return m[0] if source is None else re.sub(r"(?m)^(?=.)", m[1], spliced(source, m[2]))

        text = _CALL_LINE.sub(slot, text)
        temps = set(_TEMPORARY.findall(text)) if arg else ()
        return re.sub(r"\w+", lambda m: f"{m[0]}_{arg}" if m[0] in temps else m[0], text)

    template = spliced(template)

    def unrolled(m):
        expr, sep = m[1].strip(), ", "
        if expr.startswith("+"):
            expr, sep = expr[1:].lstrip(), " + "
        return sep.join(_COMPONENT_NAME.sub(rf"\g<1>{i}", expr) for i in range(n))

    source = _PER_COMPONENT.sub(unrolled, template)
    name, args = re.match(r"def (\w+)\((.*)\)", template).groups()
    inlined = any(sources.get(arg) for arg in args.split(", "))
    tag = f", {zlib.crc32(source.encode()):08x}" if inlined else ""
    filename = f"<singularflow {name}, n = {n}{tag}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


def _stepper(rhs, x0, f0, t0, t1, opts, stats, postprocess=None):
    """Generate accepted steps (t_prev, y_prev, f_prev, t_new, y_new, f_new, e),
    one yield each, from the 1-d arrays x0 and f0 = rhs(t0, x0): the states,
    derivatives and e, the step's term of the dense output (_hermite), are
    lists of floats; stats, a SolverStats, counts the rhs calls and steps."""
    return _rendered(_STEPPER_TEMPLATE, len(x0))(rhs, x0, f0, t0, t1, opts, stats, postprocess)


def _trajectory(n, times, states, derivs, status, stats, quartic, cut=None) -> Trajectory:
    # copies of the flat buffers, n floats a row, which the run can go on filling
    states, derivs, quartic = (np.array(a).reshape(-1, n) for a in (states, derivs, quartic))
    return Trajectory(np.array(times), states, derivs, status, stats, quartic, cut)


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
    raised when the step size underflows or a step's new state (before or
    after postprocess) or its derivative there is non-finite, carries the
    partial trajectory (status step_failure).  An error norm that overflows
    on finite values rejects the step at the smallest step-size factor.

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
    adjustment), both lists of Python floats, and partial() builds the
    trajectory up to t (one copy of the run's buffers, at a cost that
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

    The step loop computes its own starting step (Hairer and Wanner's) and
    error norm, RMS sums of squares taken left to right: below 8 components
    np.mean of the squares bit for bit, from 8 on within its last bits.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if event is not None and direction not in (+1, -1):
        raise ValueError("direction must be +1 (upward) or -1 (downward)")
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-d vector, got shape {x0.shape}")
    f0 = np.asarray(rhs(t0, x0), dtype=float)  # a misshapen one fails in the stepper
    n = len(x0)  # floats per row of the run's buffers: state, derivative, quartic
    times, states, derivs, quartic = (array("d", a) for a in ([t0], x0, f0.ravel(), ()))
    stats = SolverStats(rhs_calls=1)
    g = None if event is None else float(event(t0, x0))
    status = "completed"
    cut = None

    def partial():
        return _trajectory(n, times, states, derivs, "stopped", stats, quartic)

    try:
        for step in _stepper(rhs, x0, f0, t0, t1, opts, stats, postprocess):
            _, _, _, t_new, y_new, f_new, e = step
            quartic.extend(e)
            if event is not None:
                bracket, g = _scan_step(event, direction, g, step)
                if bracket is not None:
                    t_e, x_e = _locate_crossing(event, step, bracket)
                    times.append(t_e)
                    states.extend(x_e.tolist())
                    derivs.extend(np.asarray(rhs(t_e, x_e), dtype=float).tolist())
                    stats.rhs_calls += 1
                    status = "hit_event"
                    cut = (t_new, np.array(y_new), np.array(f_new))
                    break
            times.append(t_new)
            states.extend(y_new)
            derivs.extend(f_new)
            if until is not None and until(t_new, y_new, f_new, partial):
                status = "stopped"
                break
    except StepFailure as exc:  # re-raised with its frames, down to the failing line
        exc.trajectory = _trajectory(n, times, states, derivs, "step_failure", stats, quartic)
        raise
    return _trajectory(n, times, states, derivs, status, stats, quartic, cut)


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
    """Component i's dense output on steps, as (h, c) with c of shape (n, 4),
    or (n, 4, m) for i a slice of m components.

    h is each step's full length; on the step from t_k, the component at
    t_k + theta h is x_k + c_1 theta + ... + c_4 theta^4, _hermite in
    monomial form.  Each row depends on its own step only.
    """
    _, h, y0, f0, y1, f1, e = traj._steps(steps, i)
    hs = h if np.ndim(y0) == 1 else h[:, None]
    rise, hf0, hf1 = y1 - y0, hs * f0, hs * f1
    c = (hf0, 3 * rise - 2 * hf0 - hf1 + e, -2 * rise + hf0 + hf1 - 2 * e, e)
    return h, np.stack(c, axis=1)


def _dense_max(traj, i=None):
    """The largest value over the run of component i, or with i None of the
    radius |x|, between samples included, and where it is: (t, value).

    A maximum between samples lies on a step over which the sampled rate,
    f_i or x . f, turns from positive to nonpositive.  Of these, the steps
    whose Bezier hull (_bezier), which holds their dense output, reaches
    past the largest sample are kept, and on each the zero of the dense
    output's slope (_monomials) is found by bisection.
    """
    times, x, f = traj.times, traj.states, traj.derivs
    col = slice(None) if i is None else slice(i, i + 1)
    values, rate = (traj.radii(), np.einsum("ij,ij->i", x, f)) if i is None else (x[:, i], f[:, i])
    j = int(np.argmax(values))
    t_best, best = float(times[j]), float(values[j])
    turns = np.flatnonzero((rate[:-1] > 0.0) & (rate[1:] <= 0.0))
    _, h, *ends = traj._steps(turns, col)
    reach = np.max([np.linalg.norm(q, axis=1) if i is None else q[:, 0]
                    for q in _bezier(h[:, None], *ends)], axis=0)
    turns = turns[reach > best]
    h, c = _monomials(traj, turns, col)
    for k, length, terms in zip(turns.tolist(), h.tolist(), c.tolist()):
        # component m at the fraction u is p_m + c_m1 u + ... + c_m4 u^4
        rows = list(zip(x[k, col].tolist(), *terms))

        def at(u):  # the dense state and its slope at u
            return ([p + u * (c1 + u * (c2 + u * (c3 + u * c4))) for p, c1, c2, c3, c4 in rows],
                    [c1 + u * (2 * c2 + u * (3 * c3 + u * 4 * c4)) for _, c1, c2, c3, c4 in rows])

        lo, hi = 0.0, float(times[k + 1] - times[k]) / length
        for _ in range(60):
            u = 0.5 * (lo + hi)
            state, slope = at(u)  # the radius turns with x . x', a component with x_i'
            rising = (sum(p * s for p, s in zip(state, slope)) if i is None else slope[0]) > 0.0
            lo, hi = (u, hi) if rising else (lo, u)
        state = at(lo)[0]
        value = math.hypot(*state) if i is None else state[0]
        if value > best:
            t_best, best = float(times[k]) + lo * length, value
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
    excursion rescaled_escape starts where its run reaches the bound cap,
    then starts on the side it crossed to.
    """
    tp, yp, fp, tn, yn, fn, e = step
    y0, f0, y1, f1, e = map(_floats, (yp, fp, yn, fn, e))
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
        y_hi = np.array(y1) if hi == tn else _hermite_point((hi - tp) / h, h, y0, f0, y1, f1, e)
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
        return _rendered(_SPHERE_TEMPLATE, len(step[1]))(self.radius, g_prev, step)


# _Sphere.clear_of's body, rendered for each state size; p0_ to p4_ is the hull
_SPHERE_TEMPLATE = '''\
def sphere_clear_of(r, g_prev, step):
    tp, yp, fp, tn, yn, fn, e = step
    h = tn - tp
    {a_}, {fa_}, {b_}, {fb_}, = *_floats(yp), *_floats(fp), *_floats(yn), *_floats(fn)
    {c_}, = _floats(e)
    {(p0_, p1_, p2_, p3_, p4_)}, = {_bezier(h, a_, fa_, b_, fb_, c_)},
    l1 = sum(({abs(p0_)}, {abs(p1_)}, {abs(p2_)}, {abs(p3_)}, {abs(p4_)}))  # point by point
    margin = 128 * (len(yp) + 2) * _EPS * (l1 + r)
    if g_prev < 0.0:
        return max(math.hypot({p0_}), math.hypot({p1_}), math.hypot({p2_}), math.hypot({p3_}),
                   math.hypot({p4_})) + margin < r
    if g_prev > 0.0:
        {m_}, = {0.5 * (p0_ + p4_)},
        spread = max(math.hypot({p0_ - m_}), math.hypot({p1_ - m_}), math.hypot({p2_ - m_}),
                     math.hypot({p3_ - m_}), math.hypot({p4_ - m_}))
        return math.hypot({m_}) - spread - margin > r
    return False
'''


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


class _Plane:
    """The event normal . (x[:k] - point), normal a unit k-vector, whose
    crossings _scan_step can rule out per step: it is affine, so on a step's
    dense output, a convex combination of the five Bezier points (_bezier),
    when all five are strictly on one side, so is every subsample."""

    __slots__ = ("normal", "point", "_normal", "_point")

    def __init__(self, normal, point):
        self.normal, self.point = np.asarray(normal, dtype=float), np.asarray(point, dtype=float)
        self._normal, self._point = self.normal.tolist(), self.point.tolist()

    def __call__(self, _t, x):
        return float(self.normal @ (x[: len(self.normal)] - self.point))

    def clear_of(self, g_prev, step):
        """True when no subsample of the step can reach the plane.

        g_prev must agree with the side found, as for _Sphere.clear_of.  With
        L the 1-norm of the hull's first k components and of point, the
        margin 128 (k + 2) eps L bounds the rounding of a subsample's value,
        (50 + k) eps L (a dozen roundings of terms at most 4 times the
        hull's 1-norm, then k + 2 in the difference and the dot, |normal_i|
        <= 1), plus that of the hull's values, (33 + k) eps L.
        """
        return _rendered(_PLANE_TEMPLATE, len(self.normal))(self._normal, self._point, g_prev, step)


# _Plane.clear_of's body, rendered for each k; p0_ to p4_ is the hull, g its values
_PLANE_TEMPLATE = '''\
def plane_clear_of(normal, point, g_prev, step):
    tp, yp, fp, tn, yn, fn, e = step
    h = tn - tp
    ({a_}, *_), ({fa_}, *_), ({b_}, *_) = _floats(yp), _floats(fp), _floats(yn)
    ({fb_}, *_), ({c_}, *_) = _floats(fn), _floats(e)
    {(p0_, p1_, p2_, p3_, p4_)}, = {_bezier(h, a_, fa_, b_, fb_, c_)},
    ({n_},), ({o_},) = normal, point
    g = ({+ n_ * (p0_ - o_)}, {+ n_ * (p1_ - o_)}, {+ n_ * (p2_ - o_)}, {+ n_ * (p3_ - o_)},
         {+ n_ * (p4_ - o_)})
    l1 = {+ abs(p0_) + abs(p1_) + abs(p2_) + abs(p3_) + abs(p4_) + abs(o_)}
    margin = 128 * (len(normal) + 2) * _EPS * l1
    if g_prev < 0.0:
        return max(g) + margin < 0.0
    if g_prev > 0.0:
        return min(g) - margin > 0.0
    return False
'''


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
        return None, event(tn, np.array(yn))
    h = tn - tp
    dt = h / _EVENT_SUBSAMPLES
    y0, f0, y1, f1, e = map(_floats, (yp, fp, yn, fn, e))
    ta, ga = tp, g_prev
    for k in range(1, _EVENT_SUBSAMPLES + 1):
        if k < _EVENT_SUBSAMPLES:
            tq = k * dt + tp
            yq = _hermite_point((tq - tp) / h, h, y0, f0, y1, f1, e)
        else:
            tq, yq = tn, np.array(y1)
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
