"""Renormalized dynamics: direction and log-radius in a fictitious time.

Writing x = e^z y with |y| = 1 and rescaling time so the direction moves at
unit-order speed turns the singular problem into the autonomous system

    dy/ds = F_s(y),    dz/ds = F_r(y),

along which physical time is the quadrature dt/ds = e^((1-alpha) z).
Blowup corresponds to s -> infinity with z -> -infinity, so the collapse can
be followed for as long as needed.  The stepper integrates (y, z) alone, so
t sets no step: t(s) is a Gauss-Legendre quadrature of e^((1-alpha) z) over
z's dense output on each step, the stepper's order-7 continuous extension,
computed when first read (RenormTrajectory.t, physical_time).  It is the
package's one quadrature: the cycle family's phase map reads it too
(continuation.build_cycle_family, whose weight K(s) over one period is a
run's physical time).

renormalized_system is the single definition of this system and of its
projection onto the sphere, as one template rendered once per dimension
(_SYSTEM_TEMPLATE), and renorm_integrate is the one run of it: the
blowup classification here, and the cycle searches, escape excursions and
continuation families elsewhere, are all renorm_integrate calls.  Elsewhere
renormalized_system is only evaluated, for a speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .fields import SingularField, _checked_unit
from .integrators import (
    DEFAULT_OPTIONS,
    IntegrationOptions,
    Trajectory,
    _inlined,
    _locate,
    _monomials,
    _rendered,
    _with_floats,
    integrate,
    write_csv,
)

# classify_blowup's verdict band, stabilization tolerance and first stage
_VERDICT_DELTA = 1e-3
_STABILIZE_TOL = 1e-4
_S_START = 16.0
# The time quadrature: the 8-point Gauss-Legendre rule, nodes +-x_k and
# weights w_k on [-1, 1] (Abramowitz and Stegun, table 25.4), mapped to
# [0, 1] and applied to pieces of a step over each of which (1-alpha) z
# moves by at most _PIECE_RISE.  A ray's steps grow to h ~ 100, over which
# one rule would miss t_b by up to 2e-6; on pieces this short
# e^((1-alpha) z) is resolved to rounding.
_GL_X = (0.9602898564975362, 0.7966664774136267, 0.525532409916329, 0.18343464249564978)
_GL_W = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166)
_GL_NODES = 0.5 * (np.array([-x for x in _GL_X] + [x for x in reversed(_GL_X)]) + 1.0)
_GL_WEIGHTS = 0.5 * np.array(_GL_W + tuple(reversed(_GL_W)))
_PIECE_RISE = 0.25


@dataclass
class RenormTrajectory:
    """A renormalized run: s, unit direction y, log-radius z and time t.

    run is the integrated Trajectory of the state (y, z), with its dense
    output; t0 is the physical time at its start.
    t is computed on first read, so a reader of y and z alone pays nothing
    for it.
    """

    field: SingularField
    run: Trajectory
    t0: float = 0.0

    @property
    def dimension(self) -> int:
        return self.field.dimension

    @property
    def s(self) -> np.ndarray:
        return self.run.times

    @property
    def y(self) -> np.ndarray:
        return self.run.states[:, : self.dimension]

    @property
    def z(self) -> np.ndarray:
        return self.run.states[:, self.dimension]

    @property
    def s_end(self) -> float:
        return float(self.run.times[-1])

    @cached_property
    def t(self) -> np.ndarray:
        """Physical time at every sample: t0 plus the quadrature of each step."""
        inc = _elapsed(self, np.arange(len(self.s) - 1), self.s[1:])
        return np.cumsum(np.concatenate([[self.t0], inc]))

    @property
    def stats(self):
        return self.run.stats

    def to_csv(self, path):
        header = ["s"] + [f"y{i+1}" for i in range(self.dimension)] + ["z", "t"]
        write_csv(path, header, np.column_stack([self.s, self.run.states, self.t]))


def _elapsed(rt: RenormTrajectory, steps, s) -> np.ndarray:
    """Physical time from the start of each step in steps to s on it.

    s is read as a fraction theta of the step's full length (a cut last
    step's too).  e^((1-alpha) z) is integrated over z's dense output on
    the step (_monomials), cut into equal pieces over each of which (1-alpha) z
    moves by at most _PIECE_RISE (bounded through |dz/dtheta|), by the
    Gauss-Legendre rule on each piece.  Each step's value depends on its
    own row only.  Past the float range the time is inf, and a step's
    start (theta = 0) adds exactly 0.
    """
    a = 1.0 - rt.field.alpha
    h, c = _monomials(rt.run, steps, rt.dimension)
    theta = (s - rt.s[steps]) / h
    slope = (np.abs(c) * np.arange(1, c.shape[1] + 1)).sum(axis=1)  # bounds |dz/dtheta|
    pieces = np.maximum(1, np.ceil(abs(a) / _PIECE_RISE * theta * slope)).astype(np.int64)
    step = np.repeat(np.arange(len(h)), pieces)
    index = np.arange(len(step)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    width = theta[step] / pieces[step]
    x = (index[:, None] + _GL_NODES) * width[:, None]  # fractions of the step
    cs = c[step]
    dz = cs[:, -1:]
    for p in range(c.shape[1] - 2, -1, -1):
        dz = dz * x + cs[:, p:p + 1]
    dz = dz * x
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(a * (rt.z[steps][step, None] + dz))
        total = e[:, 0] * _GL_WEIGHTS[0]
        for k in range(1, len(_GL_WEIGHTS)):
            total = total + e[:, k] * _GL_WEIGHTS[k]
        inc = np.bincount(step, weights=total * (width * h[step]), minlength=len(h))
    return np.where(theta > 0.0, inc, 0.0)


@dataclass(frozen=True)
class RadialAverages:
    """Finite-horizon bracket for the renormalized-time average of F_r."""

    lower: float
    upper: float
    horizon: float


@dataclass
class BlowupVerdict:
    """The verdict of classify_blowup; to_dict's "run" key holds the solver
    stats of the renormalized run and the s it reached."""

    verdict: str  # blowup | escape_to_infinity | undetermined
    t_b: Optional[float]
    averages: RadialAverages
    s_budget: float
    reason: str = ""
    renorm: Optional[RenormTrajectory] = None

    def to_dict(self):
        out = {
            "verdict": self.verdict,
            "t_b": self.t_b,
            "averages": {
                "lower": self.averages.lower,
                "upper": self.averages.upper,
                "horizon": self.averages.horizon,
            },
            "s_budget": self.s_budget,
            "reason": self.reason,
        }
        if self.renorm is not None:
            out["run"] = {**self.renorm.stats.to_dict(), "s_end": self.renorm.s_end}
        return out


# F_r keeps its 0.0 start and its left-to-right sum
_SYSTEM_TEMPLATE = '''\
def renormalized_system(smap, reverse):
    def rhs(_s, u):
        {y_}, _ = u
        r = math.hypot({y_})
        {y_}, = ({y_ / r},) if r else ({math.nan},)
        {f_}, = smap([{y_}])
        fr = 0.0 + {+ f_ * y_}
        return [{fr * y_ - f_}, fr] if reverse else [{f_ - fr * y_}, fr]

    def project(_s, u):
        {y_}, z = u
        norm = math.hypot({y_})
        return [{y_ / norm}, z] if norm else [{math.nan}, z]
    return rhs, project
'''


def renormalized_system(field: SingularField, reverse: bool = False):
    """The renormalized system and its sphere projection, as (rhs, project).

    The state is the direction y followed by z, which integrates
    dz/ds = F_r(y).  Physical time is no component: it is a quadrature
    along the run (physical_time).  reverse negates dy/ds only; z still
    accumulates F_r along the traversal.  project(s, u) rescales y back
    onto the unit sphere after an accepted step.  rhs normalizes y itself
    and z does not feed back into it, so rhs is invariant under project, as
    integrate requires of a postprocess.

    Both are written once, on Python floats, as _SYSTEM_TEMPLATE rendered
    once per dimension and map, and exposed as their .floats attribute (see
    integrate); rhs and project themselves are the array callables
    np.array(form(s, _floats(u))).  A built-in map's source
    (fields._SourceMap) is rendered in place of its call; any other map is
    called, through its float form when it has one.
    """
    source, smap = _inlined(field.sphere_map)
    rhs, project = _rendered(_SYSTEM_TEMPLATE, field.dimension, smap=source)(smap, reverse)
    return _with_floats(rhs), _with_floats(project)


def renorm_integrate(
    field: SingularField,
    y0,
    z0: float,
    s_max: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    t0: float = 0.0,
    until: Optional[Callable] = None,
    event: Optional[Callable] = None,
    direction: int = 0,
    reverse: bool = False,
) -> RenormTrajectory:
    """Integrate the renormalized system from s = 0 up to fictitious time s_max.

    y0 must be a vector of the field's dimension (ValueError otherwise)
    within 1e-9 of the unit sphere (fields._checked_unit, NotUnitVector
    otherwise); the run starts from its projection.  The direction is
    re-projected onto the sphere after every accepted step, keeping
    max | |y|-1 | at the level of the local error.  The stepper integrates
    (y, z) with opts; physical time starts at t0 and is a quadrature over
    z's dense output, read on demand (RenormTrajectory.t, physical_time).
    reverse runs the reversed direction flow (renormalized_system).

    until, if given, is polled after every accepted step as until(s, u, f,
    partial), where u is the accepted state (y, z) at s and f the
    derivative integrate hands its until, both lists of Python floats, and
    partial() builds the RenormTrajectory up to s (at a cost that grows
    with its length); a true result ends the run on a prefix of the full
    run.  event(s, u) and direction are integrate's: the run ends at the
    first located crossing, with status hit_event.  A crossing's state is
    the dense output's, so its y lies off the sphere by the interpolant's
    error (up to 2.4e-12 on sphere3d section returns), and a run restarted
    from it starts from its projection, as find_limit_cycle's laps do.
    """
    y0 = _checked_unit(y0, field.dimension)
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    t0 = float(t0)
    u0 = np.concatenate([y0, [float(z0)]])
    poll = None
    if until is not None:
        poll = lambda s, u, f, partial: until(
            s, u, f, lambda: RenormTrajectory(field, partial(), t0)
        )
    rhs, project = renormalized_system(field, reverse)
    run = integrate(rhs, u0, 0.0, s_max, opts, project, until=poll, event=event,
                    direction=direction)
    return RenormTrajectory(field, run, t0)


def physical_time(rt: RenormTrajectory, s):
    """Physical time at renormalized time s, a scalar or an array.

    At a sample it is rt.t there; between samples the quadrature of the
    partial step, over z's dense output on the step, is added.
    Raises OutOfRange outside the run.
    """
    sq, steps = _locate(rt.s, s)
    t = rt.t[steps] + _elapsed(rt, steps, sq)
    return float(t[0]) if np.ndim(s) == 0 else t


def radial_averages(rt: RenormTrajectory, window: float) -> RadialAverages:
    """Bracket the windowed increment (z(s) - z(s/2))/(s/2) over the trailing window.

    z is the integral of F_r, so the increment is the renormalized-time
    average of F_r over the second half of [0, s].  Unlike the running mean
    (z(s) - z0)/s it forgets the transient: near a hyperbolic attractor it
    converges exponentially in s, and on a limit cycle it oscillates by
    O(amplitude/s) around the cycle mean, which the min/max bracket keeps.
    s is measured from the start of the run.
    """
    return _bracket(rt, window, rt.s_end)


def _bracket(rt: RenormTrajectory, window: float, s_end: float) -> RadialAverages:
    """radial_averages over the window that ends at s_end, within the run."""
    if not s_end >= 2 * window:
        raise ValueError("trajectory must cover at least twice the averaging window")
    s0 = float(rt.s[0])
    lo = s_end - window
    mask = (rt.s >= lo) & (rt.s <= s_end)
    s_samples = np.unique(np.concatenate([rt.s[mask], np.linspace(lo, s_end, 513)]))
    s_samples = s_samples[s_samples > s0]
    s_half = 0.5 * (s0 + s_samples)
    z, z_half = np.split(rt.run.sample(np.concatenate([s_samples, s_half]), rt.dimension), 2)
    means = (z - z_half) / (s_samples - s_half)
    return RadialAverages(float(means.min()), float(means.max()), window)


def classify_blowup(
    field: SingularField,
    y0,
    z0: float = 0.0,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    t0: float = 0.0,
    s_budget: float = 2.0e4,
) -> BlowupVerdict:
    """Decide blowup vs escape from the sign of the stabilized radial average.

    One renormalized run heads for s_budget.  At every stage boundary
    (_S_START = 16, 32, 64, ..., s_budget) the run passes, in order, the
    windowed radial-average bracket over the half-stage that ends at that
    boundary is taken, and the run stops at the first boundary whose
    bracket moved by less than _STABILIZE_TOL (1e-4) from the one before
    ("stabilized"), so its cost follows the transient, not the budget.  A
    stabilized bracket below -_VERDICT_DELTA (1e-3) means finite-time
    blowup: t_b is the run's physical-time quadrature to its end plus the
    closed-form tail at the bracket's mean.  A bracket above
    +_VERDICT_DELTA means escape to infinity, a verdict that reads no
    physical time, so an escaping run never computes it.  Anything else is
    reported as undetermined.  s_budget of the verdict is the stage that
    decided it; the run ends at the accepted step that passed it.
    """
    stages = []
    s = _S_START
    while s < s_budget:
        stages.append(s)
        s *= 2
    stages.append(s_budget)
    passed = 0  # stage boundaries behind the run
    prev = av = None

    def stabilized(s, _u, _f, partial):
        nonlocal passed, prev, av
        if s < stages[passed]:
            return False
        rt = partial()
        while passed < len(stages) and stages[passed] <= s:
            prev, av = av, _bracket(rt, stages[passed] / 2, stages[passed])
            passed += 1
            if prev is not None:
                moved = max(abs(av.lower - prev.lower), abs(av.upper - prev.upper))
                if moved < _STABILIZE_TOL:
                    return True
        return False

    rt = renorm_integrate(field, y0, z0, s_budget, opts, t0=t0, until=stabilized)
    s_stage = stages[passed - 1]
    if rt.run.status != "stopped":
        return BlowupVerdict("undetermined", None, av, s_stage, "budget_exhausted", rt)
    if av.upper < -_VERDICT_DELTA:
        t_b = _blowup_time_from_run(rt, av)
        return BlowupVerdict("blowup", t_b, av, s_stage, "stabilized", rt)
    if av.lower > _VERDICT_DELTA:
        return BlowupVerdict("escape_to_infinity", None, av, s_stage, "stabilized", rt)
    return BlowupVerdict("undetermined", None, av, s_stage, "degenerate", rt)


def _blowup_time_from_run(rt: RenormTrajectory, av: RadialAverages) -> float:
    # t(s) converges to t_b; add the geometric tail of the remaining quadrature
    one_minus_a = 1.0 - rt.field.alpha
    z_end = float(rt.z[-1])
    t_end = float(rt.t[-1])
    mean = 0.5 * (av.lower + av.upper)
    tail = math.exp(one_minus_a * z_end) / (one_minus_a * abs(mean))
    return t_end + tail


def reconstruct(rt: RenormTrajectory) -> Trajectory:
    """Map the renormalized samples back to a physical trajectory x(t) = e^z y."""
    y, z, t = rt.y, rt.z, rt.t
    x = np.exp(z)[:, None] * y
    # dx/dt = r^alpha F(y), evaluated sample-wise for the dense output
    F = np.array([rt.field.sphere_map(yi) for yi in y], dtype=float)
    dx = np.exp(rt.field.alpha * z)[:, None] * F
    return Trajectory(t.copy(), x, dx, rt.run.status, stats=rt.run.stats)
