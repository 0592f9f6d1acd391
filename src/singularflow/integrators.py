"""Adaptive explicit integration with dense output and event location.

A hand-rolled Dormand-Prince 8(5,3) pair drives everything in this package:
it keeps the trajectories bitwise deterministic, and its dense output
between accepted steps is the pair's own order-7 continuous extension,
written as the cubic Hermite of the step's ends plus four terms per step
(_dense).  Its step loop, like the package's float kernels, is rendered
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
import operator
import re
import zlib
from array import array
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NotBlowingUp, OutOfRange, StepFailure

# The Dormand-Prince 8(5,3) pair and its order-7 continuous extension
# (Hairer, Norsett and Wanner, Solving ODEs I, sections II.5 and II.6, and
# their code dop853, whose 30-digit coefficients round to these doubles).
# Stage k_(i+1) is f at t + _C[i] h and y + h sum_j _A[i][j] k_(j+1); row 12
# is the solution's weights b, so k13 is f at the new state (FSAL), and k14
# to k16 are the extension's own stages.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
_B = _A[12]
# the error estimates of orders 5 and 3: _E3 is b less dop853's third-order weights
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_E3 = {j: b - {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}.get(j, 0.0)
       for j, b in _B.items()}
# row p weighs the dense output's term F_(p+3) (_dense): F_(p+3) = h sum_j _D[p][j] k_(j+1)
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)
# right-hand-side calls per attempted step (k2 to k13) and per accepted one
# besides (k14 to k16); the terms of each step's dense output past the cubic
_STAGES = 12
_DENSE_STAGES = 3
_TERMS = len(_D)

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
    """Sampled solution with the stepper's order-7 dense output per accepted step.

    status is one of completed | stopped | hit_event | step_failure, or
    hit_radius_floor from integrate_ideal, and explains the terminal sample;
    stats is what the run cost the stepper.  dense[i] holds accepted step
    i's terms F_3, F_4, ... of the dense output (_dense), one row each,
    None for samples alone (reconstruct's), which have no dense output.  A
    run that ends at a located crossing keeps its last step whole: cut is
    that step's end (t, state, derivative), past the crossing.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str
    stats: SolverStats = field(default_factory=SolverStats)
    dense: Optional[np.ndarray] = None
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
        tp, h, *ends, terms = self._steps(idx, i)
        s = np.where(h > 0, (tq - tp) / np.where(h > 0, h, 1.0), 0.0)
        if i is None:
            s, h = s[:, None], h[:, None]
        out = _dense(s, h, *ends, *np.moveaxis(terms, 1, 0))
        return out[0] if np.ndim(t) == 0 else out

    def _steps(self, idx, i=None):
        """Steps idx as the dense output takes them: (t, h, y0, f0, y1, f1,
        terms), terms of shape (len(idx), _TERMS, ...), with a cut last
        step's full end; with i, an int or a slice, of those columns alone."""
        if self.dense is None:
            raise ValueError("this trajectory has no dense output: it holds samples only")
        # an int or a slice: a list of columns would broadcast against idx
        col = slice(None) if i is None else i if isinstance(i, slice) else operator.index(i)
        states, derivs = self.states[:, col], self.derivs[:, col]
        ends = [a[1:] for a in (self.times, states, derivs)]
        if self.cut is not None:
            t, y, f = self.cut
            ends = [np.concatenate([a[:-1], [b]]) for a, b in zip(ends, (t, y[col], f[col]))]
        t1, y1, f1 = (a[idx] for a in ends)
        tp = self.times[idx]
        return tp, t1 - tp, states[idx], derivs[idx], y1, f1, self.dense[idx][:, :, col]

    def radii(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.states, self.states))

    def to_csv(self, path):
        header = ["t"] + [f"x{i+1}" for i in range(self.states.shape[1])]
        write_csv(path, header, np.column_stack([self.times, self.states]))


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
    """Write a header line and rows of numbers (a 2-d array's as Python floats)
    to round-trip precision (%.17g), the whole file in one % operation."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    lines = "".join([",".join(("%.17g",) * len(row)) + "\n" for row in rows])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + lines % tuple(v for row in rows for v in row))


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


@functools.cache
def _texts():
    """The text of each $name of a template (_rendered), written on first
    use, every weight a float literal and every weighted sum left to right.
    From the tableau: $stages and $dense_stages, the lines of stages k2 to
    k13 and k14 to k16; $b, $e5 and $e3, the solution's and the error
    estimates' sums of the stages; $terms, the list of the dense output's
    terms.  From _basis, for _HULL_TEMPLATE: $term_names, those terms
    unpacked; $l1, the sum of their sizes; $points, the Bernstein points'
    sums of _dense's values."""

    def weighted(pairs, names):
        return " + ".join(f"{w!r} * {names[i]}" for i, w in pairs)

    k = [f"k{j + 1}_" for j in range(len(_C))]

    def stages(first, last):
        return "\n".join(f"{{k{i + 1}_}}, = f_of(t + {_C[i]!r} * h, "
                         f"[{{y_ + h * ({weighted(_A[i].items(), k)})}}])"
                         for i in range(first, last))

    hull = ["p_", "r_", "g1_", "g2_"] + [f"c{j + 3}_" for j in range(_TERMS)]
    return {
        "stages": stages(1, 12), "dense_stages": stages(13, 16),
        "b": weighted(_B.items(), k), "e5": weighted(_E5.items(), k),
        "e3": weighted(_E3.items(), k),
        "terms": "[%s]" % ", ".join(f"[{{h * ({weighted(row.items(), k)})}}]" for row in _D),
        "term_names": ", ".join("({%s},)" % name for name in hull[4:]),
        "l1": " + ".join(f"abs({name})" for name in hull[4:]),
        "points": ", ".join(weighted(w, hull) for w in _basis(_TERMS)[1]),
    }


# _stepper's body, rendered for each state size by _rendered; the $ lines
# and sums are the tableau's (_texts)
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
    # Hairer and Wanner's starting step (Solving ODEs I, II.4) at order 7; a
    # norm that overflows (atol far below |y0| or |f0|) measures no more
    # than one too small to measure, and both take the fallback steps.
    # Every RMS sums q * q left to right (a float ** raises OverflowError
    # where q * q is inf); from 8 components on, NumPy's pairwise np.mean
    # can differ from it in the last bits.  The loop caps h by max_step and
    # t1 - t.
    {sc_}, = {atol + rtol * abs(y_)},
    {q_}, {r_}, = {y_ / sc_}, {k1_ / sc_},
    d0, d1 = math.sqrt(({+ q_ * q_}) / n), math.sqrt(({+ r_ * r_}) / n)
    h0 = 0.01 * d0 / d1 if 1e-5 <= min(d0, d1) and max(d0, d1) < math.inf else 1e-6
    {f1_}, = f_of(t + h0, [{y_ + h0 * k1_}])
    stats.rhs_calls += 1
    {q_}, = {(f1_ - k1_) / sc_},
    d12 = max(d1, math.sqrt(({+ q_ * q_}) / n) / h0)
    h = min(100 * h0, (0.01 / d12) ** 0.125 if 1e-15 < d12 < math.inf else max(1e-6, h0 * 1e-3))
    while t < t1:
        if stats.accepted + stats.rejected == _MAX_STEPS:
            raise StepFailure("no end after %d attempted steps, at t = %r" % (_MAX_STEPS, t), None)
        h = min(h, max_step, t1 - t)
        if h < 16 * _EPS * max(1.0, abs(t)):
            raise StepFailure("step size underflow at t = %r" % t, None)
        $stages
        {yn_}, = y_new = [{y_ + h * ($b)}]
        t_new = t + h
        {k13_}, = k13 = f_of(t_new, y_new)
        stats.rhs_calls += _STAGES
        # v - v is 0.0 for a finite v and NaN for inf or NaN
        if {+ (yn_ - yn_) + (k13_ - k13_)} != 0.0:
            raise StepFailure("non-finite state or right-hand side in the step from t = %r "
                              "(h = %r)" % (t, h), None)
        # dop853's norm of the two error estimates, each over atol + rtol
        # max(|y|, |y_new|), both finite here: h |e5|^2 / sqrt(n (|e5|^2 +
        # 0.01 |e3|^2)).  A norm that overflows (NaN from inf over inf) is
        # far past any tolerance, and rejects the step at the smallest factor
        {a_}, {b_}, = {abs(y_)}, {abs(yn_)},
        {sc_}, = {atol + rtol * (a_ if a_ > b_ else b_)},
        {q_}, {r_}, = {($e5) / sc_}, {($e3) / sc_},
        e5, e3 = {+ q_ * q_}, {+ r_ * r_}
        enorm = h * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 or e3 else 0.0
        if enorm <= 1.0:
            if post is not None:  # k13 holds: rhs is invariant under post
                {yn_}, = y_new = post(t_new, y_new)
                if {+ (yn_ - yn_)} != 0.0:
                    raise StepFailure("non-finite state after the postprocess at t = %r"
                                      % t_new, None)
            $dense_stages
            stats.rhs_calls += _DENSE_STAGES
            if {+ (k14_ - k14_) + (k15_ - k15_) + (k16_ - k16_)} != 0.0:
                raise StepFailure("non-finite right-hand side in the dense output of the step "
                                  "from t = %r (h = %r)" % (t, h), None)
            stats.accepted += 1
            if h < stats.h_min:
                stats.h_min = h
            if h > stats.h_max:
                stats.h_max = h
            yield t, y, f, t_new, y_new, k13, $terms
            t, y, f = t_new, y_new, k13
            {y_}, {k1_}, = {yn_}, {k13_},
            factor = _MAX_FACTOR if enorm == 0.0 else min(_MAX_FACTOR, _SAFETY * enorm ** -0.125)
            h *= max(_MIN_FACTOR, factor)
        else:
            stats.rejected += 1
            factor = min(1.0, _SAFETY * enorm ** -0.125) if enorm < math.inf else 0.0
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
    the source of one of its arguments has a file name of its own.  Each
    $name is first replaced by its text (_texts), a text of several lines
    indented as the line it stands on."""

    def spliced(text, arg=None):
        def slot(m):
            source = sources.get(m[2])
            return m[0] if source is None else re.sub(r"(?m)^(?=.)", m[1], spliced(source, m[2]))

        text = _CALL_LINE.sub(slot, text)
        temps = set(_TEMPORARY.findall(text)) if arg else ()
        return re.sub(r"\w+", lambda m: f"{m[0]}_{arg}" if m[0] in temps else m[0], text)

    template = re.sub(r"( *)\$(\w+)",
                      lambda m: m[1] + _texts()[m[2]].replace("\n", "\n" + m[1]), template)
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
    """Generate accepted steps (t_prev, y_prev, f_prev, t_new, y_new, f_new,
    terms), one yield each, from the 1-d arrays x0 and f0 = rhs(t0, x0): the
    states and derivatives are lists of floats, terms the _TERMS lists of
    the step's dense output (_dense); stats, a SolverStats, counts the rhs
    calls and steps."""
    stepper = _rendered(_STEPPER_TEMPLATE, len(x0))
    return stepper(rhs, x0, f0, t0, t1, opts, stats, postprocess)


def _trajectory(n, times, states, derivs, status, stats, dense, cut=None) -> Trajectory:
    # copies of the flat buffers, n floats a row, which the run can go on filling
    states, derivs = (np.array(a).reshape(-1, n) for a in (states, derivs))
    dense = np.array(dense).reshape(-1, _TERMS, n)
    return Trajectory(np.array(times), states, derivs, status, stats, dense, cut)


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
    """Integrate dx/dt = rhs(t, x) from t0 to t1 with adaptive 8(5,3) stepping.

    The returned trajectory's status says why the run ended: completed at
    t1, stopped by until, hit_event at a located crossing; a StepFailure,
    raised when the step size underflows or a step's new state (before or
    after postprocess), its derivative there or a stage of its dense output
    is non-finite, carries the partial trajectory (status step_failure).
    An error norm that overflows on finite values rejects the step at the
    smallest step-size factor.

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
    stepper's order-7 continuous extension on every step.

    The step loop computes its own starting step (Hairer and Wanner's) and
    error norm (dop853's), sums of squares taken left to right: below 8
    components NumPy's sums bit for bit, from 8 on within their last bits.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if event is not None and direction not in (+1, -1):
        raise ValueError("direction must be +1 (upward) or -1 (downward)")
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-d vector, got shape {x0.shape}")
    f0 = np.asarray(rhs(t0, x0), dtype=float)  # a misshapen one fails in the stepper
    n = len(x0)  # floats per row of the run's buffers: state, derivative, dense term
    times, states, derivs, dense = (array("d", a) for a in ([t0], x0, f0.ravel(), ()))
    stats = SolverStats(rhs_calls=1)
    g = None if event is None else float(event(t0, x0))
    status = "completed"
    cut = None

    def partial():
        return _trajectory(n, times, states, derivs, "stopped", stats, dense)

    try:
        for step in _stepper(rhs, x0, f0, t0, t1, opts, stats, postprocess):
            _, _, _, t_new, y_new, f_new, terms = step
            for row in terms:
                dense.extend(row)
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
        exc.trajectory = _trajectory(n, times, states, derivs, "step_failure", stats, dense)
        raise
    return _trajectory(n, times, states, derivs, status, stats, dense, cut)


def _dense(s, h, y0, f0, y1, f1, *terms):
    """The dense output at fractions s of a step of length h from (y0, f0)
    to (y1, f1) with terms F_3, F_4, ..., on floats or arrays alike.

    It is dop853's form of the continuous extension (Hairer, Norsett and
    Wanner, II.6), y0 + s (F_0 + (1 - s) (F_1 + s (F_2 + (1 - s) (F_3 + s
    (F_4 + ...))))), with F_0 = y1 - y0, F_1 = h f0 - F_0 and F_2 = F_0 -
    h f1 - F_1: the cubic Hermite of the step's ends plus one term per
    power past the cubic.  It is summed as (1 - s) y0 + s y1 + s (1 - s)
    (F_1 + ...), so it is y0 at s = 0 and y1 at s = 1 exactly.
    """
    u = 1.0 - s
    y0, y1, *tail = _nested(h, y0, f0, y1, f1, *terms)
    p = tail[-1]
    for k in range(len(tail) - 2, -1, -1):
        p = tail[k] + (s if k % 2 == 0 else u) * p
    return (u * y0 + s * y1) + (s * u) * p


def _nested(h, y0, f0, y1, f1, *terms):
    """The values _dense sums: y0, y1, F_1, F_2 and the terms."""
    rise = y1 - y0
    g1 = h * f0 - rise
    return (y0, y1, g1, rise - h * f1 - g1, *terms)


def _dense_point(s, h, y0, f0, y1, f1, terms):
    """One dense state from the lists of floats of a step's ends and terms,
    bitwise _dense on arrays, at a fraction of its cost for a few components."""
    return np.array([_dense(s, h, *c) for c in zip(y0, f0, y1, f1, *terms)])


@functools.cache
def _basis(m):
    """The dense output with m terms in the monomial and the Bernstein basis
    of degree d = m + 3: the values y0, y1, F_1, ..., F_(m+2) of _dense
    (_nested) are each s^a (1 - s)^b there.  Each basis is a tuple of
    coefficients, those of s^1 to s^d (s^0 is y0's alone) and of the d + 1
    Bernstein points, each a tuple of (index, weight) over those values,
    the weight nonzero."""
    d = m + 3
    powers = list(enumerate([(0, 1), (1, 0)] + [(j // 2 + 1, (j + 1) // 2)
                                                for j in range(1, m + 3)]))
    monomial = tuple(tuple((i, float(math.comb(b, p - a) * (-1) ** (p - a)))
                           for i, (a, b) in powers if a <= p <= a + b) for p in range(1, d + 1))
    bernstein = tuple(tuple((i, math.comb(d - a - b, k - a) / math.comb(d, k))
                            for i, (a, b) in powers if a <= k <= d - b) for k in range(d + 1))
    return monomial, bernstein


def _monomials(traj, steps, i):
    """Component i's dense output on steps, as (h, c) with c of shape (n, d),
    or (n, d, m) for i a slice of m components.

    h is each step's full length; on the step from t_k, the component at
    t_k + theta h is x_k + c_1 theta + ... + c_d theta^d, _dense in
    monomial form.  Each row depends on its own step only.
    """
    _, h, y0, f0, y1, f1, terms = traj._steps(steps, i)
    hs = h if np.ndim(y0) == 1 else h[:, None]
    values = _nested(hs, y0, f0, y1, f1, *np.moveaxis(terms, 1, 0))
    # each coefficient a sum of those values, left to right
    c = [functools.reduce(operator.add, [w * values[j] for j, w in weights])
         for weights in _basis(terms.shape[1])[0]]
    return h, np.stack(c, axis=1)


def _dense_max(traj, i=None):
    """The largest value over the run of component i, or with i None of the
    radius |x|, between samples included, and where it is: (t, value).

    A maximum between samples lies on a step over which the sampled rate,
    f_i or x . f, turns from positive to nonpositive.  Of these, the steps
    whose Bernstein points (_hull), whose hull holds their dense output,
    reach past the largest sample are kept, and on each the zero of the
    dense output's slope (_monomials) is found by bisection.
    """
    times, x, f = traj.times, traj.states, traj.derivs
    col = slice(None) if i is None else slice(i, i + 1)
    values, rate = (traj.radii(), np.einsum("ij,ij->i", x, f)) if i is None else (x[:, i], f[:, i])
    j = int(np.argmax(values))
    t_best, best = float(times[j]), float(values[j])
    turns = np.flatnonzero((rate[:-1] > 0.0) & (rate[1:] <= 0.0))
    _, h, *ends, terms = traj._steps(turns, col)
    # _hull's kernel on arrays over the steps: points[column, k, step]
    hull = _rendered(_HULL_TEMPLATE, ends[0].shape[1])
    points = np.array(hull(h, *(a.T for a in ends), np.moveaxis(terms, 0, -1))[0])
    reach = (np.linalg.norm(points, axis=0) if i is None else points[0]).max(axis=0)
    turns = turns[reach > best]
    h, c = _monomials(traj, turns, col)
    for k, length, terms in zip(turns.tolist(), h.tolist(), c.tolist()):
        # component m at the fraction u is p_m + c_m1 u + ... + c_md u^d
        rows = list(zip(x[k, col].tolist(), *terms))

        def at(u):  # the dense state and its slope at u, by Horner's rule
            state, slope = [], []
            for p, *cs in rows:
                value, rise = cs[-1], len(cs) * cs[-1]
                for m in range(len(cs) - 2, -1, -1):
                    value, rise = cs[m] + u * value, (m + 1) * cs[m] + u * rise
                state.append(p + u * value)
                slope.append(rise)
            return state, slope

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

    step is the full step (tp, yp, fp, tn, yn, fn, terms); bracket is
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
    tp, yp, fp, tn, yn, fn, terms = step
    ends = tuple(map(_floats, (yp, fp, yn, fn, terms)))
    h = tn - tp
    lo, glo, hi, ghi = bracket
    y_hi = None
    scale = max(abs(glo), abs(ghi))
    for _ in range(200):
        if abs(ghi) <= 1e-12 * scale or hi - lo <= 16 * _EPS * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        ymid = _dense_point((mid - tp) / h, h, *ends)
        gmid = float(event(mid, ymid))
        if (gmid > 0) == (glo > 0):
            lo, glo = mid, gmid
        else:
            hi, ghi, y_hi = mid, gmid, ymid
    if y_hi is None:
        y_hi = np.array(ends[2]) if hi == tn else _dense_point((hi - tp) / h, h, *ends)
    return hi, y_hi


# _hull's arithmetic, rendered for each number of columns: each Bernstein
# point a sum of _dense's values (_nested) left to right, _basis's weights
# written in as literals, on the floats of a step or on arrays over steps
_HULL_TEMPLATE = '''\
def hull(h, y0, f0, y1, f1, terms):
    ({p_},), ({v_},), ({r_},), ({w_},) = y0, f0, y1, f1
    $term_names = terms
    {e_}, = {r_ - p_},
    {g1_}, = {h * v_ - e_},
    {g2_}, = {e_ - h * w_ - g1_},
    l1 = {+ abs(p_) + abs(h * v_) + abs(r_) + abs(h * w_) + $l1}
    return [{($points)}], l1
'''


def _hull(step, col=None):
    """The Bernstein points Q_0 = y0, ..., Q_d = y1 of a step's dense
    output, a tuple of floats per column (those of the slice col only): it
    is sum_k C(d, k) s^k (1 - s)^(d - k) Q_k, for s in [0, 1] a convex
    combination of them.  l1 is the 1-norm of the values _dense forms them
    from: y0, h f0, y1, h f1 and the terms.

    Both a subsample's state and these points are sums of a few dozen
    terms, each at most 4 l1 in size, so each rounds by less than 128 eps
    l1: the margin of the prefilters (clear_of) below.
    """
    tp, yp, fp, tn, yn, fn, terms = step
    ends = [_floats(yp), _floats(fp), _floats(yn), _floats(fn), _floats(terms)]
    if col is not None:
        ends = [a[col] for a in ends[:4]] + [[row[col] for row in ends[4]]]
    # a Python float h keeps the arithmetic off NumPy scalars
    return _rendered(_HULL_TEMPLATE, len(ends[0]))(float(tn - tp), *ends)


class _Sphere:
    """The event |x| - radius, whose crossings _scan_step can rule out per step.

    Its value is bitwise that of the closure math.sqrt(float(x.dot(x))) -
    radius.  A step's dense output is a convex combination of its Bernstein
    points (_hull), so when all of them lie strictly inside the sphere, or
    strictly outside it, so does every subsample, and no crossing can be
    found.
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
        bounds the rounding of the subsample states and of the hull (_hull),
        and of their norms (d + 2 more), for any dimension d.
        """
        columns, l1 = _hull(step)
        r = self.radius
        margin = 128 * (len(columns) + 2) * _EPS * (l1 + r)
        if g_prev < 0.0:
            return max(map(math.hypot, *columns)) + margin < r
        if g_prev > 0.0:
            mid = [0.5 * (c[0] + c[-1]) for c in columns]
            spread = max(map(math.hypot, *([q - m for q in c] for c, m in zip(columns, mid))))
            return math.hypot(*mid) - spread - margin > r
        return False


class _Level:
    """The event x[index] - level, whose crossings _scan_step can rule out per step.

    Component index of a step's dense output is a convex combination of
    that component of its Bernstein points (_hull), so when all of them lie
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
        component and of the hull.
        """
        (q,), l1 = _hull(step, slice(self.index, self.index + 1))
        level = self.level
        return _one_side(g_prev, [v - level for v in q], 384 * _EPS * (l1 + abs(level)))


class _Plane:
    """The event normal . (x[:k] - point), normal a unit k-vector, whose
    crossings _scan_step can rule out per step: it is affine, so on a step's
    dense output, a convex combination of its Bernstein points (_hull),
    when all of them are strictly on one side, so is every subsample."""

    __slots__ = ("normal", "point", "_normal", "_point")

    def __init__(self, normal, point):
        self.normal, self.point = np.asarray(normal, dtype=float), np.asarray(point, dtype=float)
        self._normal, self._point = self.normal.tolist(), self.point.tolist()

    def __call__(self, _t, x):
        return float(self.normal @ (x[: len(self.normal)] - self.point))

    def clear_of(self, g_prev, step):
        """True when no subsample of the step can reach the plane.

        g_prev must agree with the side found, as for _Sphere.clear_of.  With
        L the 1-norm of the hull's values (_hull) and of point, the margin
        128 (k + 2) eps L bounds the rounding of a subsample's value and of
        the plane's value at each hull point (k + 2 roundings in the
        difference and the dot, |normal_i| <= 1).
        """
        normal, point = self._normal, self._point
        columns, l1 = _hull(step, slice(len(normal)))
        g = [functools.reduce(operator.add, [n * (v - o) for n, v, o in zip(normal, p, point)])
             for p in zip(*columns)]
        size = functools.reduce(operator.add, map(abs, point), l1)
        return _one_side(g_prev, g, 128 * (len(normal) + 2) * _EPS * size)


def _one_side(g_prev, values, margin):
    """True when every value, moved by margin, lies strictly on g_prev's side
    of 0: below it for g_prev < 0, above it for g_prev > 0."""
    if g_prev < 0.0:
        return max(values) + margin < 0.0
    if g_prev > 0.0:
        return min(values) - margin > 0.0
    return False


def _scan_step(event, direction, g_prev, step):
    """Subsample one accepted step for the first crossing in direction.

    The step is cut into _EVENT_SUBSAMPLES equal parts so a double crossing
    inside it is not skipped; subsample k sits at k * (h / _EVENT_SUBSAMPLES)
    past the step's start, which is how np.linspace places it, bit for bit,
    and its state comes from _dense_point.  step is as _stepper yields it.
    An event with a clear_of method (_Sphere, _Level, _Plane) skips the
    subsamples of a step it is clear of.
    g_prev is the event at the step's start.  Returns (bracket, g_end):
    bracket is (ta, ga, tb, gb) around the first crossing, or None with
    g_end the event at the step's end.
    """
    tp, yp, fp, tn, yn, fn, terms = step
    clear_of = getattr(event, "clear_of", None)
    if clear_of is not None and clear_of(g_prev, step):
        return None, event(tn, np.array(yn))
    h = tn - tp
    dt = h / _EVENT_SUBSAMPLES
    ends = tuple(map(_floats, (yp, fp, yn, fn, terms)))
    ta, ga = tp, g_prev
    for k in range(1, _EVENT_SUBSAMPLES + 1):
        if k < _EVENT_SUBSAMPLES:
            tq = k * dt + tp
            yq = _dense_point((tq - tp) / h, h, *ends)
        else:
            tq, yq = tn, np.array(ends[2])
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
