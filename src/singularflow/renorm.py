"""Renormalized dynamics: direction and log-radius in a fictitious time.

Writing x = e^z y with |y| = 1 and rescaling time so the direction moves at
unit-order speed turns the singular problem into the autonomous system

    dy/ds = F_s(y),    dz/ds = F_r(y),    dt/ds = e^((1-alpha) z).

Blowup corresponds to s -> infinity with z -> -infinity, so the collapse can
be followed for as long as needed; physical time is recovered alongside by
quadrature of the third equation (carried as an extra state component so it
shares the integrator's dense output and error control).

renormalized_system is the single definition of this system and of its
projection onto the sphere: the blowup classification here, and the cycle
searches, orbit tables and continuation families elsewhere, all run it,
each carrying only the components it needs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotUnitVector, OutOfRange
from .fields import SingularField, _map_float_form
from .integrators import (
    DEFAULT_OPTIONS,
    IntegrationOptions,
    Trajectory,
    _with_floats,
    integrate,
    write_csv,
)

# Once (1-alpha) z exceeds this, the physical-time derivative is frozen at
# exp(_EXP_CAP): the trajectory has escaped far beyond any physically
# meaningful radius and t would only overflow.  Collapsing runs (z -> -inf)
# never touch the cap.
_EXP_CAP = 60.0
# classify_blowup's verdict band, stabilization tolerance and first stage
_VERDICT_DELTA = 1e-3
_STABILIZE_TOL = 1e-4
_S_START = 16.0


@dataclass
class RenormTrajectory:
    """Sampled renormalized run: s, unit direction y, log-radius z, time t."""

    field: SingularField
    base: Trajectory

    @property
    def dimension(self) -> int:
        return self.field.dimension

    @property
    def s(self) -> np.ndarray:
        return self.base.times

    @property
    def y(self) -> np.ndarray:
        return self.base.states[:, : self.dimension]

    @property
    def z(self) -> np.ndarray:
        return self.base.states[:, self.dimension]

    @property
    def t(self) -> np.ndarray:
        return self.base.states[:, self.dimension + 1]

    @property
    def s_end(self) -> float:
        return float(self.base.times[-1])

    def y_at(self, s):
        u = self.base.sample(s)
        return u[..., : self.dimension]

    def to_csv(self, path):
        header = ["s"] + [f"y{i+1}" for i in range(self.dimension)] + ["z", "t"]
        write_csv(path, header, ((s, *u) for s, u in zip(self.base.times, self.base.states)))


@dataclass(frozen=True)
class RadialAverages:
    """Finite-horizon bracket for the renormalized-time average of F_r."""

    lower: float
    upper: float
    horizon: float


@dataclass
class BlowupVerdict:
    verdict: str  # blowup | escape_to_infinity | undetermined
    t_b: Optional[float]
    averages: RadialAverages
    s_budget: float
    reason: str = ""
    renorm: Optional[RenormTrajectory] = None

    def to_dict(self):
        return {
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


def renormalized_system(field: SingularField, extras=("z", "t"), reverse: bool = False):
    """The renormalized system and its sphere projection, as (rhs, project).

    The state is the direction y followed by the extras, in this order:
    "z" integrates dz/ds = F_r(y) and "t" integrates dt/ds = e^((1-alpha) z),
    so extras is ("z", "t"), ("z",) or ().  reverse negates dy/ds only; z
    still accumulates F_r along the traversal.  project(s, u) rescales y
    back onto the unit sphere after an accepted step, and leaves u as it is
    when |y| is already exactly 1.  rhs normalizes y itself and no extra
    depends on y, so rhs is invariant under project, as integrate requires
    of a postprocess.

    Both are written once, on lists of Python floats, and exposed as their
    .floats attribute (see integrate); rhs and project themselves are the
    array callables np.array(form(s, _floats(u))).  The sphere map runs
    through its own float form when the field's map has one.
    """
    d = field.dimension
    one_minus_a = 1.0 - field.alpha
    smap = _map_float_form(field.sphere_map)
    carry_t = len(extras) > 1

    def rhs(_s, u):
        y = u[:d] if extras else u
        r = math.hypot(*y)
        y = [v / r for v in y] if r else [math.nan] * d
        F = smap(y)
        fr = 0.0
        for p, q in zip(F, y):
            fr += p * q
        if reverse:
            dy = [fr * q - p for p, q in zip(F, y)]
        else:
            dy = [p - fr * q for p, q in zip(F, y)]
        if extras:
            dy.append(fr)
            if carry_t:
                dy.append(math.exp(min(one_minus_a * u[d], _EXP_CAP)))
        return dy

    def project(_s, u):
        y = u[:d] if extras else u
        norm = math.hypot(*y)
        if norm == 1.0:
            return u
        out = [v / norm for v in y] if norm else [math.nan] * d
        if extras:
            out += u[d:]
        return out

    return _with_floats(rhs), _with_floats(project)


def renorm_integrate(
    field: SingularField,
    y0,
    z0: float,
    s_max: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    t0: float = 0.0,
    until: Optional[Callable] = None,
) -> RenormTrajectory:
    """Integrate the renormalized system up to fictitious time s_max.

    The direction is re-projected onto the sphere after every accepted step,
    keeping max | |y|-1 | at the level of the local error.  until, if given,
    is polled after every accepted step as until(s, u, f, partial), where u
    is the accepted state (y, z, t) at s, f the derivative integrate hands
    its until and partial() builds the RenormTrajectory up to s (at a cost
    that grows with its length); a true result ends the run there, on a
    prefix of the full run.
    """
    y0 = np.asarray(y0, dtype=float)
    n0 = math.sqrt(float(y0 @ y0))
    if abs(n0 - 1.0) > 1e-9:
        raise NotUnitVector(f"|y0| = {n0!r} is not on the unit sphere")
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    u0 = np.concatenate([y0 / n0, [float(z0)], [float(t0)]])
    run_opts = dataclasses.replace(opts, r_floor=0.0)
    poll = None
    if until is not None:
        poll = lambda s, u, f, partial: until(s, u, f, lambda: RenormTrajectory(field, partial()))
    rhs, project = renormalized_system(field)
    base = integrate(rhs, u0, 0.0, s_max, run_opts, postprocess=project, until=poll)
    return RenormTrajectory(field, base)


def physical_time(rt: RenormTrajectory, s) -> float:
    """Monotone interpolation of the stored t(s); OutOfRange outside the run."""
    u = rt.base.sample(s)
    return float(u[..., rt.dimension + 1]) if np.ndim(s) == 0 else u[..., rt.dimension + 1]


def radial_averages(rt: RenormTrajectory, window: float) -> RadialAverages:
    """Bracket the windowed increment (z(s) - z(s/2))/(s/2) over the trailing window.

    z is the integral of F_r, so the increment is the renormalized-time
    average of F_r over the second half of [0, s].  Unlike the running mean
    (z(s) - z0)/s it forgets the transient: near a hyperbolic attractor it
    converges exponentially in s, and on a limit cycle it oscillates by
    O(amplitude/s) around the cycle mean, which the min/max bracket keeps.
    s is measured from the start of the run.
    """
    s_end = rt.s_end
    if not s_end >= 2 * window:
        raise ValueError("trajectory must cover at least twice the averaging window")
    s0 = float(rt.s[0])
    lo = s_end - window
    mask = rt.s >= lo
    s_samples = np.unique(np.concatenate([rt.s[mask], np.linspace(lo, s_end, 513)]))
    s_samples = s_samples[s_samples > s0]
    s_half = 0.5 * (s0 + s_samples)
    z = rt.base.sample(s_samples)[:, rt.dimension]
    z_half = rt.base.sample(s_half)[:, rt.dimension]
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

    One renormalized run heads for s_budget.  Each time it passes a stage
    boundary (_S_START = 16, 32, 64, ..., s_budget) the windowed
    radial-average bracket over the trailing half-stage is taken, and the run
    stops as soon as the bracket moves by less than _STABILIZE_TOL (1e-4)
    between stages ("stabilized"), so its cost follows the transient, not the
    budget.  A stabilized bracket below -_VERDICT_DELTA (1e-3) means
    finite-time blowup and the physical time already carried by the run
    converges to t_b; a bracket above +_VERDICT_DELTA means escape to
    infinity.  Anything else is reported as undetermined.  s_budget of the
    verdict is the stage that decided it.
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
        while passed < len(stages) and stages[passed] <= s:
            passed += 1
        prev, av = av, radial_averages(partial(), window=stages[passed - 1] / 2)
        if prev is None:
            return False
        moved = max(abs(av.lower - prev.lower), abs(av.upper - prev.upper))
        return moved < _STABILIZE_TOL

    rt = renorm_integrate(field, y0, z0, s_budget, opts, t0=t0, until=stabilized)
    s_stage = stages[passed - 1]
    if rt.base.status != "stopped":
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
    d = rt.dimension
    y = rt.y
    z = rt.z
    t = rt.t
    x = np.exp(z)[:, None] * y
    # dx/dt = r^alpha F(y), evaluated sample-wise for the dense output
    F = np.array([rt.field.sphere_map(yi) for yi in y], dtype=float)
    dx = np.exp(rt.field.alpha * z)[:, None] * F
    return Trajectory(t.copy(), x, dx, rt.base.status, stats=rt.base.stats)
