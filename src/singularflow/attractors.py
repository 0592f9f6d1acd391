"""Attractors of the spherical flow dy/ds = F_s(y) and escape decisions.

Fixed points are refined by damped Newton constrained to the sphere; limit
cycles are located by Poincare-section returns of the flow.  The trapped vs
expelled decision integrates the nu-independent rescaled system (the
regularized problem at unit ball radius) and certifies escape by membership
of the out-going direction in the basin of a defocusing attractor together
with monotone log-radius growth over a confirmation window, and trapping by
an interior sink of the rescaled field whose Lyapunov level set holds the
solution inside the ball.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import LimitCycleNotFound, SignError, StepFailure
from .fields import SingularField, _central_jacobian, decompose, sphere_jacobian
from .integrators import (
    DEFAULT_OPTIONS, IntegrationOptions, Trajectory, _dense_max, _Level, _locate_crossing,
    _Plane, _scan_step, _Sphere, integrate,
)
from .regularize import RegularizedField, regularized_rhs
from .renorm import renorm_integrate, renormalized_system

LABEL_DELTA = 1e-6
_FP_RESIDUAL_TOL = 1e-10
_MERGE_DISTANCE = 1e-6
_RETURN_TOL = 1e-8
# the Newton refinement on the sphere: its iterations and its residual target
_NEWTON_MAX_ITER = 60
_NEWTON_TOL = 1e-13
# seed directions of the catalog's fixed-point and cycle searches
_FP_SEEDS = 32
_CYCLE_SEEDS = 8
# A transient this close to a sink is taken to have entered its basin and
# to converge there.  That holds when the basin contains this ball, as it
# does for the built-in fields; a sink of narrower basin could let a passing
# transient stop early where a full run would have gone on to a cycle.
_SINK_RADIUS = 1e-3
# a cycle search's default transient, its lap budget, its longest lap and
# the uniform intervals of its orbit table over one period
_TRANSIENT = 80.0
_MAX_RETURNS = 64
_RETURN_HORIZON = 400.0
_ORBIT_SAMPLES = 1024
# the orbit-table rows, uniform in s, that a cycle's exponent averages over
_DIVERGENCE_NODES = 64
# A cycle search's transient polls the known attractors each time it passes
# _SINK_POLL more units of s; the inside run of rescaled_escape polls its
# speed as often in tau and, below _SINK_SPEED, looks for an interior sink
# (_interior_sink): Newton steps, the largest Lyapunov level as a fraction
# of the way from the sink to the unit sphere, the number of levels (each a
# quarter of the last), and the boundary points sampled on the one tried.
# The saddle2d trapping blends (1 +- 0.05, 1.3 +- 0.05) were certified at
# tau = 9.48 to 24.02 polling every 8 steps of the 5(4) pair, about 0.25 in
# tau, and are at 9.55 to 23.78 polling every 0.25; 8 steps of the 8(5,3)
# pair, 4 to 5 times longer, put them up to 2.7 later.
_SINK_POLL = 0.25
_SINK_SPEED = 0.1
_NEWTON_ITERS = 20
_SINK_REACH = 0.9
_SINK_LEVELS = 8
_SINK_SAMPLES = 64
# the escape's confirmation window before an identified cycle stretches it
_CONFIRM_WINDOW = 50.0
# rescaled_escape's tau budget: the trapping blends of the examples settle on
# a certified sink by tau = 50, so twenty times that ends only undecided runs
_TAU_BUDGET = 1e3
# the largest excursion, in ball radii, whose return still counts toward
# trapping: far beyond the ball a finite run cannot tell a bounded orbit from
# one whose excursions keep growing
_R_BOUND_CAP = 50.0


@dataclass
class AttractorInfo:
    """A fixed point or limit cycle of the spherical flow.

    location is the point itself (fixed point) or closed orbit samples with
    first row repeated last (limit cycle); stability_exponents holds the
    tangent-linearization eigenvalue real parts for a fixed point, or for a
    cycle minus the orbit mean of div_S F_s (positive = stable; none for
    d = 2): by Liouville's formula its one exponent on S^2 (d = 3), the sum
    of its d - 2 exponents for d >= 4.
    """

    kind: str  # fixed_point | limit_cycle
    location: np.ndarray
    mean_radial: float
    label: str  # focusing | defocusing | degenerate
    stable: bool
    stability_exponents: np.ndarray
    period: Optional[float] = None
    orbit_times: Optional[np.ndarray] = None

    @property
    def anchor(self) -> np.ndarray:
        return self.location if self.kind == "fixed_point" else self.location[0]

    def distance_to(self, y) -> float:
        """Euclidean distance from a direction to the attractor set."""
        y = np.asarray(y, dtype=float)
        if self.kind == "fixed_point":
            # np.linalg.norm of a vector is this, bit for bit, at a third of the cost
            diff = y - self.location
            return math.sqrt(float(diff.dot(diff)))
        return float(np.min(np.linalg.norm(self.location - y[None, :], axis=1)))

    def to_dict(self):
        out = {
            "kind": self.kind,
            "mean_radial": self.mean_radial,
            "label": self.label,
            "stable": self.stable,
            "exponents": np.asarray(self.stability_exponents, dtype=float).tolist(),
        }
        if self.kind == "fixed_point":
            out["location"] = self.location.tolist()
        else:
            out["period"] = self.period
            out["orbit"] = self.location.tolist()
        return out


@dataclass
class EscapeResult:
    outcome: str  # expelled | trapped | undetermined
    tau_ent: float
    tau_esc: Optional[float] = None
    y_esc: Optional[np.ndarray] = None
    r_bound: Optional[float] = None
    revisits: int = 0
    attractor: Optional[AttractorInfo] = None
    certificate: str = ""
    # the run in ball units below the bound cap (rescaled_escape); to_dict writes its stats
    run: Optional[Trajectory] = dataclasses.field(default=None, compare=False, repr=False)

    def to_dict(self):
        return {
            "outcome": self.outcome,
            "certificate": self.certificate,
            "revisits": self.revisits,
            "r_bound": self.r_bound,
            "run": None if self.run is None else self.run.stats.to_dict(),
        }


def _label(mean_radial: float) -> str:
    if mean_radial < -LABEL_DELTA:
        return "focusing"
    if mean_radial > LABEL_DELTA:
        return "defocusing"
    return "degenerate"


def _tangent_basis(y: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space at y (d x (d-1))."""
    d = len(y)
    k = int(np.argmax(np.abs(y)))
    v = y.copy()
    v[k] += math.copysign(1.0, y[k])
    v /= np.linalg.norm(v)
    H = np.eye(d) - 2.0 * np.outer(v, v)  # Householder mapping e_k -> -sign*y
    cols = [H[:, j] for j in range(d) if j != k]
    return np.column_stack(cols)


def tangential_flow_jacobian(field: SingularField, y: np.ndarray) -> np.ndarray:
    """Tangent-space linearization of the spherical flow at a fixed point."""
    d = field.dimension
    J = sphere_jacobian(field, y)
    F = np.asarray(field.sphere_map(y), dtype=float)
    grad_fr = J.T @ y + F
    JFs = J - np.outer(y, grad_fr) - float(F @ y) * np.eye(d)
    Q = _tangent_basis(y)
    return Q.T @ JFs @ Q


def _surface_divergence(field, y) -> float:
    """div_S F_s at the unit vector y: tr J - y.J y - (d - 1) F_r(y), with J
    the ambient Jacobian sphere_jacobian."""
    J = sphere_jacobian(field, y)
    F = np.asarray(field.sphere_map(y), dtype=float)
    return float(np.trace(J) - y @ J @ y - (len(y) - 1) * (F @ y))


def _tangential(field, y):
    F = np.asarray(field.sphere_map(y), dtype=float)
    return F - float(F @ y) * y


def _newton_on_sphere(field, y0):
    y = np.asarray(y0, dtype=float)
    y = y / np.linalg.norm(y)
    for _ in range(_NEWTON_MAX_ITER):
        Fs = _tangential(field, y)
        res = np.linalg.norm(Fs)
        if res < _NEWTON_TOL:
            return y
        Q = _tangent_basis(y)
        B = tangential_flow_jacobian(field, y)
        rhs = Q.T @ Fs
        try:
            step = np.linalg.solve(B, -rhs)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(B, rhs, rcond=None)[0]
        lam = 1.0
        for _ in range(30):
            cand = y + lam * (Q @ step)
            cand /= np.linalg.norm(cand)
            if np.linalg.norm(_tangential(field, cand)) <= (1 - 0.25 * lam) * res:
                break
            lam *= 0.5
        else:
            return None
        y = cand
    Fs = _tangential(field, y)
    return y if np.linalg.norm(Fs) < _NEWTON_TOL * 10 else None


def _seed_directions(d: int, n_seeds: int, seed: int) -> List[np.ndarray]:
    if d == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if d == 2:
        angles = np.linspace(0.0, 2 * np.pi, max(n_seeds, 8), endpoint=False)
        return [np.array([math.cos(a), math.sin(a)]) for a in angles]
    if d == 3:
        n = max(n_seeds, 16)
        k = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * k / n)
        theta = np.pi * (1 + 5**0.5) * k
        pts = np.column_stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
        )
        return [p for p in pts]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((max(n_seeds, 4 * d), d))
    return [p / np.linalg.norm(p) for p in pts]


def find_fixed_points(field: SingularField, n_seeds: int = 64) -> List[AttractorInfo]:
    """Locate fixed points of the spherical flow, stable and unstable alike.

    Newton runs from n_seeds directions (_seed_directions): a fixed grid
    for d <= 3, a random one of seed 0 for d >= 4.
    """
    d = field.dimension
    if d == 1:
        return [_fixed_point_info(field, np.array([sign])) for sign in (1.0, -1.0)]
    found: List[np.ndarray] = []
    for y0 in _seed_directions(d, n_seeds, 0):
        y = _newton_on_sphere(field, y0)
        if y is None:
            continue
        if any(np.linalg.norm(y - q) < _MERGE_DISTANCE for q in found):
            continue
        found.append(y)
    results = [a for a in (_fixed_point_info(field, y) for y in found) if a is not None]
    results.sort(key=lambda a: tuple(np.round(a.location, 9)))
    return results


def _fixed_point_info(field: SingularField, y: np.ndarray) -> Optional[AttractorInfo]:
    """The fixed point y as a catalog lists it, or None if |F_s(y)| exceeds
    _FP_RESIDUAL_TOL.

    Its exponents are the real parts of the tangent linearization's
    eigenvalues, largest first, and it is stable when all are negative; on
    the two points of the 0-sphere (d = 1) there is no tangent space, and
    each counts as stable with no exponent.
    """
    if np.linalg.norm(_tangential(field, y)) > _FP_RESIDUAL_TOL:
        return None
    fr = decompose(field, y).radial
    if field.dimension == 1:
        return AttractorInfo("fixed_point", y, fr, _label(fr), True, np.zeros(0), None, None)
    B = tangential_flow_jacobian(field, y)
    exps = np.sort(np.real(np.linalg.eigvals(B)))[::-1]
    return AttractorInfo("fixed_point", y, fr, _label(fr), bool(np.max(exps) < 0), exps, None, None)


def _fixed_point_near(field: SingularField, y, tol: float) -> Optional[AttractorInfo]:
    """The fixed point within tol of the unit direction y, or None.

    It is looked up by one Newton solve from y itself (_newton_on_sphere,
    which returns only roots with |F_s| < 1e-12), built as
    find_fixed_points builds each root.  A direction on a fixed point
    returns at once, and one within a root's Newton basin converges onto it,
    wherever the catalog's seeds lie.
    """
    root = _newton_on_sphere(field, y)
    if root is None or not np.linalg.norm(root - y) < tol:
        return None
    return _fixed_point_info(field, root)


def find_limit_cycle(
    field: SingularField,
    y0,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    transient: float = _TRANSIENT,
    _reverse: bool = False,
    _known: Sequence[AttractorInfo] = (),
) -> AttractorInfo:
    """Find the limit cycle attracting y0, via Poincare-section returns.

    The section is the hyperplane through the first post-transient point
    (y0 itself when transient is 0) with normal along the flow there.  The
    lap whose return distance falls below 1e-8 is the cycle: its length is
    the period, and its dense output at _ORBIT_SAMPLES + 1 uniform times is
    the orbit table, with the log-radius it carries as the radial integral.
    On S^2 the return map's multipliers are 1 and exp(period * mean div_S
    F_s) (Liouville's formula), so the cycle's exponent is minus that mean,
    taken by the periodic trapezoid rule on _DIVERGENCE_NODES (64) uniform
    rows of the table, where it converges geometrically.
    A search converges only onto a cycle that attracts the flow it runs, so
    the cycle is stable unless the flow is reversed.  Raises
    LimitCycleNotFound when the orbit collapses onto a fixed point or never
    recurs within the budget.  Each time the transient passes _SINK_POLL
    (0.25) more units of s, it is checked against the _known attractors
    (_tube_radius).  One found in the duplicate tube of a known cycle ends
    the search, which returns that cycle object itself; one within
    _SINK_RADIUS (1e-3) of a known fixed point, which must be a sink of the
    flow searched, ends it with LimitCycleNotFound.  That stop assumes the
    1e-3 ball around each such sink lies in its basin.  A transient that
    ends before its next check runs its laps, and a catalog drops the cycle
    they find as a duplicate.
    """
    d = field.dimension
    if d < 2:
        raise LimitCycleNotFound("no spherical flow in one dimension")
    y0 = np.asarray(y0, dtype=float)
    p0 = y0 / np.linalg.norm(y0)
    if transient > 0:
        tubes = [(a, _tube_radius(a)) for a in _known]
        reached = []
        due = _SINK_POLL

        def in_known_tube(s, u, _f, _partial):
            nonlocal due
            if s < due:
                return False
            due = s + _SINK_POLL
            reached.extend(a for a, radius in tubes if a.distance_to(u[:d]) < radius)
            return bool(reached)

        run = renorm_integrate(field, p0, 0.0, transient, opts,
                               until=in_known_tube if tubes else None, reverse=_reverse)
        if reached:
            if reached[0].kind == "fixed_point":
                raise LimitCycleNotFound("orbit converges to a fixed point")
            return reached[0]
        p0 = run.y[-1] / np.linalg.norm(run.y[-1])
    rhs, _ = renormalized_system(field, _reverse)
    v0 = rhs(0.0, np.append(p0, 0.0))[:d]
    speed = np.linalg.norm(v0)
    if speed < 1e-7:
        raise LimitCycleNotFound("orbit converges to a fixed point")
    section = _Plane(v0 / speed, p0)
    sec_opts = dataclasses.replace(opts, rtol=min(opts.rtol, 1e-11), atol=min(opts.atol, 1e-13))
    y_here, z_here = p0, 0.0
    for _ in range(_MAX_RETURNS):
        # each lap starts on the section or on the side a return crossed
        # to, where an upward crossing cannot fire again at once; a return
        # lies off the sphere by the dense output's error, and the next
        # lap starts from its projection
        try:
            lap = renorm_integrate(field, y_here, z_here, _RETURN_HORIZON, sec_opts,
                                   event=section, direction=+1, reverse=_reverse)
        except StepFailure:
            lap = None
        if lap is None or lap.run.status != "hit_event":
            raise LimitCycleNotFound("no recurrence within the return horizon")
        if np.linalg.norm(lap.run.derivs[-1][:d]) < 1e-7:
            raise LimitCycleNotFound("orbit converges to a fixed point")
        y_ret = lap.y[-1] / np.linalg.norm(lap.y[-1])
        if np.linalg.norm(y_ret - y_here) < _RETURN_TOL:
            break
        y_here, z_here = y_ret, float(lap.z[-1])
    else:
        raise LimitCycleNotFound(
            f"returns did not converge below {_RETURN_TOL} in {_MAX_RETURNS} laps"
        )
    period = lap.s_end
    s_grid = np.linspace(0.0, period, _ORBIT_SAMPLES + 1)
    uu = lap.run.sample(s_grid)
    orbit = uu[:, :d] / np.linalg.norm(uu[:, :d], axis=1)[:, None]
    radial_integral = uu[:, d] - uu[0, d]
    if _reverse:
        # re-parametrize along the forward flow
        s_grid = s_grid[::-1].copy()
        s_grid = s_grid[0] - s_grid  # 0 .. period increasing
        orbit = orbit[::-1].copy()
        radial_integral = (radial_integral[-1] - radial_integral)[::-1].copy()
    mean_radial = float(radial_integral[-1] / period)
    exps = np.zeros(0)
    if d > 2:
        nodes = orbit[:-1:_ORBIT_SAMPLES // _DIVERGENCE_NODES]
        exps = np.array([-float(np.mean([_surface_divergence(field, y) for y in nodes]))])
    return AttractorInfo("limit_cycle", orbit, mean_radial, _label(mean_radial), not _reverse,
                         exps, float(period), s_grid)


def _tube_radius(attractor: AttractorInfo) -> float:
    """Distance from an attractor within which a point counts as on it.

    _SINK_RADIUS for a fixed point.  For a cycle, twice the largest gap
    between successive orbit samples, so a point on the true orbit is always
    inside, and never less than 1e-4.
    """
    if attractor.kind == "fixed_point":
        return _SINK_RADIUS
    gap = float(np.max(np.linalg.norm(np.diff(attractor.location, axis=0), axis=1)))
    return max(1e-4, 2.0 * gap)


def catalog_attractors(
    field: SingularField,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> List[AttractorInfo]:
    """Fixed points plus limit cycles (stable, and unstable via reversed flow).

    The fixed points come from _FP_SEEDS (32) Newton seeds, the cycles from
    searches at _CYCLE_SEEDS (8) seed directions in each of two passes; for
    d >= 4 those are random directions of seeds 0 and 1 (_seed_directions).
    Each pass (forward, then reversed) hands its searches the cycles it has
    found so far and the sinks of its flow, and a search checks its
    transient against them every _SINK_POLL (0.25) units of s, so a seed
    whose transient reaches one of them stops there: on a cycle instead of
    re-finding it, on a sink instead of running out the transient.
    """
    out = list(find_fixed_points(field, n_seeds=_FP_SEEDS))
    fps = [a for a in out if a.kind == "fixed_point"]
    if field.dimension < 2:
        return out
    cycles: List[AttractorInfo] = []
    for reverse in (False, True):
        sign = -1.0 if reverse else 1.0
        sinks = [fp for fp in fps if np.all(sign * fp.stability_exponents < 0)]
        found: List[AttractorInfo] = []  # every cycle this pass's searches found
        for y0 in _seed_directions(field.dimension, _CYCLE_SEEDS, 1):
            if any(np.linalg.norm(y0 - fp.location) < 1e-3 for fp in fps):
                continue
            try:
                cyc = find_limit_cycle(
                    field, y0, opts, _reverse=reverse, _known=found + sinks
                )
            except (LimitCycleNotFound, StepFailure):
                continue
            if any(cyc is c for c in found):
                continue  # the search stopped on a cycle this pass found
            found.append(cyc)
            duplicate = any(
                abs(c.period - cyc.period) <= 1e-6 * max(1.0, c.period)
                and c.distance_to(cyc.anchor) < _tube_radius(c)
                for c in cycles
            )
            if not duplicate:
                cycles.append(cyc)
    out.extend(cycles)
    return out


# ---------------------------------------------------------------------------
# Rescaled escape decision
# ---------------------------------------------------------------------------

def tau_entry(f_r_star: float, alpha: float) -> float:
    """Entry time of the rescaled solution at the unit sphere."""
    if f_r_star >= 0:
        raise SignError("entry requires a collapsing direction (F_r(y*) < 0)")
    return -1.0 / (f_r_star * (alpha - 1.0))


def _interior_sink(rhs, x, tau):
    """The certificate of an interior sink of the rescaled field holding the
    state x at tau, or None.

    Newton on rhs = 0 from x, on central-difference Jacobians, gives x*.
    It is certified (Khalil, Nonlinear Systems, section 4.3) when
    - |x*| < 1;
    - every eigenvalue of A = Df(x*) has a negative real part (Kuznetsov,
      Elements of Applied Bifurcation Theory, ch. 2);
    - with P solving A^T P + P A = -I and V(x) = (x - x*)^T P (x - x*),
      a level set {V <= c} lies strictly inside the unit ball, holds x, and
      has dV/dtau = 2 (x - x*)^T P rhs(x) < 0 at its boundary points in the
      _seed_directions(d, _SINK_SAMPLES) directions (two in one dimension).
    The largest level reaches _SINK_REACH of the way from x* to the unit
    sphere, and each of the next _SINK_LEVELS - 1 is a quarter of the last;
    the one tried is the smallest that holds x, the nearest to linear and
    the most densely sampled.  The sampled boundary stands for the whole:
    a solution cannot leave a set on whose boundary V decreases, so it
    stays in the ball for all later tau, and x(t) = nu X(...) tends to the
    rest solution.  The certificate names x*, the eigenvalues, c and
    tau.
    """
    xs = np.array(x, dtype=float)

    def f_at(z):
        return rhs(0.0, z)

    for _ in range(_NEWTON_ITERS):
        f = f_at(xs)
        residual = math.sqrt(float(f.dot(f)))
        if not residual > _FP_RESIDUAL_TOL:  # converged, or NaN
            break
        try:
            xs = xs - np.linalg.solve(_central_jacobian(f_at, xs), f)
        except np.linalg.LinAlgError:
            return None
        if not math.sqrt(float(xs.dot(xs))) < 1.0:
            return None
    if not residual <= _FP_RESIDUAL_TOL:
        return None
    d = len(xs)
    A = _central_jacobian(f_at, xs)
    eigs = np.linalg.eigvals(A)
    if not np.all(eigs.real < 0.0):
        return None
    eye = np.eye(d)
    P = np.linalg.solve(np.kron(A.T, eye) + np.kron(eye, A.T), -eye.ravel()).reshape(d, d)
    P = 0.5 * (P + P.T)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    # {V <= c} lies within sqrt(c / lambda_min(P)) of x*
    reach = _SINK_REACH * (1.0 - math.sqrt(float(xs.dot(xs))))
    top = float(np.linalg.eigvalsh(P)[0]) * reach * reach
    offset = x - xs
    v_here = float(offset @ P @ offset)
    level = top
    for _ in range(_SINK_LEVELS - 1):
        if 0.25 * level < v_here:
            break
        level *= 0.25
    if not v_here <= level:
        return None
    # boundary points of the level set {V = 1}, scaled to {V = level}
    unit = np.linalg.solve(L.T, np.array(_seed_directions(d, _SINK_SAMPLES, 0)).T).T
    if not all(float(e @ P @ f_at(xs + e)) < 0.0 for e in math.sqrt(level) * unit):
        return None
    where = ", ".join(f"{v:.6g}" for v in xs)
    spectrum = ", ".join(
        f"{z.real:.4g}" if z.imag == 0 else f"{z.real:.4g}{z.imag:+.4g}i" for z in eigs
    )
    return (
        f"settled into the interior sink x* = ({where}) at tau = {tau:.6g}: "
        f"eigenvalues of Df(x*) {spectrum}; the level set V <= {level:.3g} of "
        "V = (x - x*)^T P (x - x*), A^T P + P A = -I, lies in the unit ball, holds "
        f"the state and has dV/dtau < 0 at its {len(unit)} sampled points"
    )


class _SinkWatch:
    """The until of rescaled_escape's run: it stops at a certified sink.

    Each time the run passes _SINK_POLL more units of tau from tau0, the
    first at tau0 + _SINK_POLL, it reads the speed |f| off the
    derivative the run hands it at the accepted state, at no right-hand-side
    call, and only then arrays of it and the state; a speed below
    _SINK_SPEED (never NaN or inf) at a state in the unit ball, the only
    place a sink's level set can hold it, runs _interior_sink from there.
    The certificate is the sink's once the run has stopped on it; rhs_calls
    counts the sink searches' right-hand-side calls, which rescaled_escape
    adds to the stats of the run.
    """

    def __init__(self, rhs, tau0):
        self.due = tau0 + _SINK_POLL
        self.rhs_calls = 0
        self.certificate = None

        def counted(t, x):
            self.rhs_calls += 1
            return rhs(t, x)

        self.rhs = counted

    def __call__(self, tau, x, f, _partial):
        if tau < self.due:
            return False
        self.due = tau + _SINK_POLL
        f = np.array(f)
        if not (math.sqrt(float(f.dot(f))) < _SINK_SPEED and math.hypot(*x) < 1.0):
            return False
        self.certificate = _interior_sink(self.rhs, np.array(x), tau)
        return self.certificate is not None


def _identify_attractor(field, y_end, opts, cycle=None):
    # the fixed point within 1e-5 of the excursion's end y_end, else cycle
    # within 5e-3, else the cycle a search finds with no transient: the
    # excursion, at least _CONFIRM_WINDOW long, served as one
    found = _fixed_point_near(field, y_end, 1e-5)
    if found is not None:
        return found
    if cycle is not None and cycle.distance_to(y_end) < 5e-3:
        return cycle
    try:
        return find_limit_cycle(field, y_end, opts, transient=0.0)
    except (LimitCycleNotFound, StepFailure):
        return None


def rescaled_escape(
    rf: RegularizedField,
    y_ent,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> EscapeResult:
    """Decide whether the regularization expels or traps the blowup solution.

    The rescaled system is rf at nu = 1: the nu dependence scales out, so
    only rf's base and inner map matter.  Below the bound cap _R_BOUND_CAP
    (50) it is one run in ball units from y_ent at tau_ent, kept as the
    result's run (on y_ent's collapse ray, the passage that inviscid_sweep
    reads every radius off), to the tau budget _TAU_BUDGET (1000), to where
    |X| first reaches the cap, or to a certified interior sink (_SinkWatch,
    _interior_sink), which traps; a failed run is undetermined.  revisits
    is 1 plus the re-entries into the unit ball between the run's accepted
    states.  A run that completes in the ball is trapped by the budget
    fallback: "stayed in the unit ball until tau = ..." if it never left,
    else "tau budget reached after N visits" for N >= 3.

    Where the run reaches the cap, or the budget outside the ball, one
    renormalized excursion from there (_outside_excursion) takes over.  If
    it re-enters the ball, past the cap it is undetermined, below it the
    budget fallback decides.  If not, the direction it ends on is
    identified (_identify_attractor), and escape is certified when that
    attractor is defocusing and the log-radius grew by more than 0.5 over
    the confirmation window _CONFIRM_WINDOW (50), stretched to five periods
    of a landing cycle when they are longer (the excursion is then run
    again).  tau_esc and y_esc are the run's last exit through the unit
    sphere (_last_exit).
    r_bound, the certificates' "sup R", is the largest |X| of the run
    between samples included, read off its dense output by
    integrators._dense_max, or past the cap the re-entering excursion's,
    inf past the float range; an expelled result has none.
    Every run inherits opts, max_step included.
    """
    field = rf.base
    y_ent = np.asarray(y_ent, dtype=float)
    y_ent = y_ent / np.linalg.norm(y_ent)
    t_ent = tau_entry(decompose(field, y_ent).radial, field.alpha)
    rhs = regularized_rhs(dataclasses.replace(rf, nu=1.0))
    watch = _SinkWatch(rhs, t_ent)
    try:
        run, failure = integrate(rhs, y_ent, t_ent, _TAU_BUDGET, opts, until=watch,
                                 event=_Sphere(_R_BOUND_CAP), direction=+1), None
    except StepFailure as exc:
        run, failure = exc.trajectory, exc
    run.stats.rhs_calls += watch.rhs_calls
    radii = run.radii()
    visits = 1 + int(np.count_nonzero((radii[1:-1] >= 1.0) & (radii[2:] < 1.0)))
    r_max = _dense_max(run)[1]

    def result(outcome, certificate, **found):
        found.setdefault("r_bound", r_max)
        return EscapeResult(outcome, t_ent, revisits=visits, certificate=certificate, run=run,
                            **found)

    if failure is not None:
        return result("undetermined", f"integration failed in ball units at visit {visits}: "
                                      f"{failure}")
    inside = run.status == "completed" and radii[-1] < 1.0
    if run.status == "stopped" or (inside and visits == 1):
        held = (f"{watch.certificate};" if run.status == "stopped"
                else f"stayed in the unit ball until tau = {_TAU_BUDGET:g}")
        return result("trapped", f"{held} after {visits} visit(s); sup R = {r_max:.6g}")
    if not inside:  # at the cap, or at the budget outside the ball
        window = _CONFIRM_WINDOW
        out = _outside_excursion(field, run.final_state, window, opts)
        if not out["reentered"]:
            attr = _identify_attractor(field, out["y_end"], opts)
            if attr is not None and attr.kind == "limit_cycle" and 5 * attr.period > window:
                window = 5 * attr.period
                out = _outside_excursion(field, run.final_state, window, opts)
                if not out["reentered"]:
                    attr = _identify_attractor(field, out["y_end"], opts, cycle=attr)
        if not out["reentered"]:  # certify expulsion
            tau_x, x_x = _last_exit(run)
            expelled = (attr is not None and attr.label == "defocusing"
                        and out["z_end"] - out["z_start"] > 0.5
                        and out["mean_tail"] > LABEL_DELTA and out["z_min_tail"] > 0.0)
            certificate = (
                f"exited at tau = {tau_x:.6g}; log-radius grew to {out['z_end']:.3g} over a "
                f"window of {window:g} renormalized units with tail mean F_r = "
                f"{out['mean_tail']:.6g}; direction settled on the {attr.label} {attr.kind}"
            ) if expelled else "exit without a defocusing-basin certificate"
            return result("expelled" if expelled else "undetermined", certificate, r_bound=None,
                          tau_esc=float(tau_x), y_esc=x_x / np.linalg.norm(x_x), attractor=attr)
        try:
            r_max = max(r_max, math.exp(out["z_max"]))
        except OverflowError:  # a radius beyond the float range
            r_max = math.inf
        if r_max > _R_BOUND_CAP:
            return result("undetermined", f"excursion exceeded the bound cap {_R_BOUND_CAP:g}")
    outcome = "trapped" if visits >= 3 else "undetermined"
    return result(outcome, f"tau budget reached after {visits} visits; sup R = {r_max:.6g}")


def _last_exit(run):
    """The run's last upward crossing of the unit sphere, (tau, X), or its
    start when it has none: each step from the last accepted state in the
    ball on is scanned as integrate scans an event (_scan_step), and the
    last crossing is located on the dense output (_locate_crossing): with
    one visit, bit for bit where a run with that event would have ended."""
    ball, last, n = _Sphere(1.0), None, len(run.times) - 1
    inside = np.flatnonzero(run.radii()[:-1] <= 1.0 + 1e-9)
    for k in range(inside[-1] if len(inside) else 0, n):
        end = run.cut if run.cut is not None and k == n - 1 else (
            run.times[k + 1], run.states[k + 1], run.derivs[k + 1])
        step = (run.times[k], run.states[k], run.derivs[k], *end, run.dense[k])
        bracket, _ = _scan_step(ball, +1, ball(0.0, run.states[k]), step)
        if bracket is not None:
            last = step, bracket
    return (run.t0, run.states[0]) if last is None else _locate_crossing(ball, *last)


def _outside_excursion(field, x, window, opts):
    """Renormalized run from the state x, |x| >= 1 in ball units, until
    re-entry (Z = 0) or the window end; Z starts at z_start = log|x|.

    Re-entry is the first downward crossing of Z = 0, the unit sphere,
    located as the event _Level(d) on the state (y, Z); a run that starts at
    Z = 0 is ended only by a crossing from Z > 0.  The run reports z_max,
    the supremum of Z over it, between samples included
    (integrators._dense_max on component d, the maximum rescaled_escape
    also reads |X| with), and Z at its end, with Z's mean slope and its
    minimum over its second half.
    """
    d, radius = field.dimension, float(np.linalg.norm(x))
    rt = renorm_integrate(field, x / radius, math.log(radius), window, opts, event=_Level(d),
                          direction=-1)
    s, z, y_end = rt.s, rt.z, rt.y[-1]
    half = s[-1] / 2
    return {
        "z_start": float(z[0]),
        "reentered": rt.run.status == "hit_event",
        "y_end": y_end / np.linalg.norm(y_end),
        "z_max": _dense_max(rt.run, d)[1],
        "z_end": float(z[-1]),
        "mean_tail": float((z[-1] - float(rt.run.sample(half, d))) / (s[-1] - half)),
        "z_min_tail": float(np.min(z[s >= half])),
    }
