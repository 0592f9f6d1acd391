"""Attractors of the spherical flow dy/ds = F_s(y) and escape decisions.

Fixed points are refined by damped Newton constrained to the sphere; limit
cycles are located by Poincare-section returns of the flow.  The trapped vs
expelled decision integrates the nu-independent rescaled system (the
regularized problem at unit ball radius) and certifies escape by membership
of the out-going direction in the basin of a defocusing attractor together
with monotone log-radius growth over a confirmation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import LimitCycleNotFound, NoEvent, SignError, StepFailure
from .fields import SingularField, decompose, sphere_jacobian
from .integrators import (
    DEFAULT_OPTIONS,
    IntegrationOptions,
    _integrate_to_crossing,
    _Sphere,
    integrate,
)
from .regularize import RegularizedField, regularized_rhs
from .renorm import renorm_integrate, renormalized_system

LABEL_DELTA = 1e-6
_FP_RESIDUAL_TOL = 1e-10
_MERGE_DISTANCE = 1e-6
_RETURN_TOL = 1e-8
# A transient this close to a sink is taken to have entered its basin and
# to converge there.  That holds when the basin contains this ball, as it
# does for the built-in fields; a sink of narrower basin could let a passing
# transient stop early where a full run would have gone on to a cycle.
_SINK_RADIUS = 1e-3
# orbit samples per block of the cycle-tube poll's lower bound
_TUBE_BLOCK = 32


@dataclass
class AttractorInfo:
    """A fixed point or limit cycle of the spherical flow.

    location is the point itself (fixed point) or closed orbit samples with
    first row repeated last (limit cycle); stability_exponents holds the
    tangent-linearization eigenvalue real parts for a fixed point, or the
    single return-map contraction rate for a cycle (positive = stable).
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


def _tangential(field, y):
    F = np.asarray(field.sphere_map(y), dtype=float)
    return F - float(F @ y) * y


def _newton_on_sphere(field, y0, max_iter=60, tol=1e-13):
    y = np.asarray(y0, dtype=float)
    y = y / np.linalg.norm(y)
    for _ in range(max_iter):
        Fs = _tangential(field, y)
        res = np.linalg.norm(Fs)
        if res < tol:
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
    return y if np.linalg.norm(Fs) < tol * 10 else None


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


def find_fixed_points(field: SingularField, n_seeds: int = 64, seed: int = 0) -> List[AttractorInfo]:
    """Locate fixed points of the spherical flow, stable and unstable alike."""
    d = field.dimension
    results: List[AttractorInfo] = []
    if d == 1:
        for y in (np.array([1.0]), np.array([-1.0])):
            fr = decompose(field, y).radial
            results.append(
                AttractorInfo(
                    "fixed_point", y, fr, _label(fr), True, np.zeros(0), None, None
                )
            )
        return results
    found: List[np.ndarray] = []
    for y0 in _seed_directions(d, n_seeds, seed):
        y = _newton_on_sphere(field, y0)
        if y is None:
            continue
        if any(np.linalg.norm(y - q) < _MERGE_DISTANCE for q in found):
            continue
        found.append(y)
    for y in found:
        if np.linalg.norm(_tangential(field, y)) > _FP_RESIDUAL_TOL:
            continue
        B = tangential_flow_jacobian(field, y)
        exps = np.sort(np.real(np.linalg.eigvals(B)))[::-1]
        fr = decompose(field, y).radial
        results.append(
            AttractorInfo(
                "fixed_point",
                y,
                fr,
                _label(fr),
                bool(np.max(exps) < 0),
                exps,
                None,
                None,
            )
        )
    results.sort(key=lambda a: tuple(np.round(a.location, 9)))
    return results


def _orbit_tabulation(field, anchor, period, n_samples, opts, reverse=False):
    """One period of the (possibly reversed) flow with the radial integral.

    The radial integral is accumulated along the traversal direction; the
    reverse case is re-indexed to the forward parametrization by the caller.
    """
    d = field.dimension
    rhs, project = renormalized_system(field, extras=("z",), reverse=reverse)
    u0 = np.concatenate([anchor, [0.0]])
    run_opts = IntegrationOptions(
        rtol=min(opts.rtol, 1e-11), atol=min(opts.atol, 1e-13), max_step=opts.max_step,
        r_floor=0.0, horizon=opts.horizon,
    )
    traj = integrate(rhs, u0, 0.0, period, run_opts, postprocess=project)
    s_grid = np.linspace(0.0, period, n_samples + 1)
    uu = traj.sample(s_grid)
    orbit = uu[:, :d]
    orbit /= np.linalg.norm(orbit, axis=1)[:, None]
    radial_integral = uu[:, d]
    return s_grid, orbit, radial_integral


def find_limit_cycle(
    field: SingularField,
    y0,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    transient: float = 80.0,
    max_returns: int = 64,
    return_horizon: float = 400.0,
    orbit_samples: int = 1024,
    _reverse: bool = False,
    _known: Sequence[AttractorInfo] = (),
) -> AttractorInfo:
    """Find the limit cycle attracting y0, via Poincare-section returns.

    The section is the hyperplane through the first post-transient point with
    normal along the flow there; the period is read off once the return
    distance falls below 1e-8.  Raises LimitCycleNotFound when the orbit
    collapses onto a fixed point or never recurs within the budget.  A
    transient that enters the duplicate tube of one of the _known cycles
    ends the search, which returns that cycle object itself; one that comes
    within _SINK_RADIUS (1e-3) of one of the _known fixed points, which must
    be sinks of the flow searched, ends it with LimitCycleNotFound.  That
    stop assumes the 1e-3 ball around each such sink lies in its basin.
    """
    d = field.dimension
    if d < 2:
        raise LimitCycleNotFound("no spherical flow in one dimension")
    y0 = np.asarray(y0, dtype=float)
    y0 = y0 / np.linalg.norm(y0)
    rhs, project = renormalized_system(field, extras=(), reverse=_reverse)
    tubes = [_Tube(c) for c in _known]
    reached = []

    def in_known_tube(_t, y, _partial):
        reached.extend(tube.attractor for tube in tubes if tube.holds(y))
        return bool(reached)

    run = integrate(
        rhs,
        y0,
        0.0,
        transient,
        IntegrationOptions(rtol=opts.rtol, atol=opts.atol, r_floor=0.0),
        postprocess=project,
        until=in_known_tube,
    )
    if reached:
        if reached[0].kind == "fixed_point":
            raise LimitCycleNotFound("orbit converges to a fixed point")
        return reached[0]
    p0 = run.final_state / np.linalg.norm(run.final_state)
    v0 = rhs(0.0, p0)
    speed = np.linalg.norm(v0)
    if speed < 1e-7:
        raise LimitCycleNotFound("orbit converges to a fixed point")
    normal = v0 / speed

    def section(_t, y):
        return float(normal @ (y - p0))

    sec_opts = IntegrationOptions(rtol=min(opts.rtol, 1e-11), atol=min(opts.atol, 1e-13),
                                  r_floor=0.0)
    nudge = 1e-6  # step off the section so the located point cannot re-fire
    returns = [(0.0, p0)]
    distances = []  # successive return-point separations
    t_here, y_here = 0.0, p0
    period = None
    for _ in range(max_returns):
        lead = integrate(
            rhs, y_here, t_here, t_here + nudge, sec_opts, postprocess=project
        )
        try:
            t_ret, y_ret, _ = _integrate_to_crossing(
                rhs, lead.final_state, t_here + nudge, section, +1, sec_opts,
                t_here + return_horizon, postprocess=project,
            )
        except (NoEvent, StepFailure):
            raise LimitCycleNotFound("no recurrence within the return horizon") from None
        if np.linalg.norm(rhs(0.0, y_ret)) < 1e-7:
            raise LimitCycleNotFound("orbit converges to a fixed point")
        dist = float(np.linalg.norm(y_ret - returns[-1][1]))
        distances.append(dist)
        returns.append((t_ret, y_ret))
        if dist < _RETURN_TOL:
            period = t_ret - returns[-2][0]
            break
        t_here, y_here = t_ret, y_ret
    if period is None:
        raise LimitCycleNotFound(
            f"returns did not converge below {_RETURN_TOL} in {max_returns} laps"
        )
    anchor = returns[-1][1] / np.linalg.norm(returns[-1][1])
    # contraction rate from the geometric decay of return distances
    usable = [x for x in distances if 1e-11 < x < 1e-2]
    if len(usable) >= 2:
        rate = float(np.mean(np.diff(-np.log(usable))) / period)
    else:
        rate = math.nan
    s_grid, orbit, radial_integral = _orbit_tabulation(
        field, anchor, period, orbit_samples, opts, reverse=_reverse
    )
    if _reverse:
        # re-parametrize along the forward flow
        s_grid = s_grid[::-1].copy()
        s_grid = s_grid[0] - s_grid  # 0 .. period increasing
        orbit = orbit[::-1].copy()
        radial_integral = (radial_integral[-1] - radial_integral)[::-1].copy()
        rate = -rate if not math.isnan(rate) else rate
    mean_radial = float(radial_integral[-1] / period)
    closure = float(np.linalg.norm(orbit[0] - orbit[-1]))
    if closure > 10 * _RETURN_TOL:
        raise LimitCycleNotFound(f"orbit failed to close: defect {closure:g}")
    stable = (not _reverse) if math.isnan(rate) else rate > 0
    exps = np.zeros(0) if d == 2 else np.array([rate])
    return AttractorInfo(
        "limit_cycle",
        orbit,
        mean_radial,
        _label(mean_radial),
        bool(stable),
        exps,
        float(period),
        s_grid,
    )


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


class _Tube:
    """The duplicate tube of a known attractor, as find_limit_cycle polls it.

    holds(y) is attractor.distance_to(y) < _tube_radius(attractor).  For a
    cycle it first bounds the distance from below through blocks of
    _TUBE_BLOCK orbit samples, each held in a ball: every sample of block j
    lies within radii[j] of centres[j], so the distance is at least
    min_j(|y - centres[j]| - radii[j]).  A bound clear of the radius rules
    the cycle out at a fraction of the exact distance's cost; otherwise the
    exact distance decides, so the answer never changes.
    """

    # y and the samples are unit directions, so either computation rounds
    # by a few eps per dimension; the bound must clear the radius by this
    _SLACK = 1e-12

    def __init__(self, attractor: AttractorInfo):
        self.attractor = attractor
        self.radius = _tube_radius(attractor)
        self.centres = self.radii = None
        if attractor.kind == "limit_cycle":
            orbit = attractor.location
            n, d = orbit.shape
            pad = np.repeat(orbit[-1:], (-n) % _TUBE_BLOCK, axis=0)
            blocks = np.concatenate([orbit, pad]).reshape(-1, _TUBE_BLOCK, d)
            self.centres = blocks.mean(axis=1)
            spread = blocks - self.centres[:, None]
            self.radii = np.sqrt(np.max(np.einsum("ijk,ijk->ij", spread, spread), axis=1))

    def holds(self, y) -> bool:
        if self.centres is not None:
            diff = self.centres - y
            bound = float(np.min(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - self.radii))
            if bound - self._SLACK >= self.radius:
                return False
        return self.attractor.distance_to(y) < self.radius


def catalog_attractors(
    field: SingularField,
    n_seeds: int = 32,
    cycle_seeds: int = 8,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    seed: int = 0,
) -> List[AttractorInfo]:
    """Fixed points plus limit cycles (stable, and unstable via reversed flow).

    Each pass (forward, then reversed) hands its searches the cycles it has
    found so far and the sinks of its flow, so a seed whose transient
    reaches one of them stops there: on a cycle instead of re-finding it, on
    a sink instead of running out the transient.
    """
    out = list(find_fixed_points(field, n_seeds=n_seeds, seed=seed))
    fps = [a for a in out if a.kind == "fixed_point"]
    if field.dimension < 2:
        return out
    cycles: List[AttractorInfo] = []
    for reverse in (False, True):
        sign = -1.0 if reverse else 1.0
        sinks = [fp for fp in fps if np.all(sign * fp.stability_exponents < 0)]
        found: List[AttractorInfo] = []  # every cycle this pass's searches found
        for y0 in _seed_directions(field.dimension, cycle_seeds, seed + 1):
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


def verify_defocusing_condition(field: SingularField, attractor: AttractorInfo) -> str:
    """Check the escape condition on an attractor: satisfied/violated/inconclusive.

    min F_r > 0 on the attractor set is the sufficient certificate.  For a
    cycle with positive mean but sign-changing F_r, the integral lower bound
    I(S', S) >= c1 (S - S') + c0 is probed over sampled pairs with
    c1 = mean/2; a finite c0 over several periods certifies the condition.
    """
    if attractor.kind == "fixed_point":
        fr = attractor.mean_radial
        if fr > LABEL_DELTA:
            return "satisfied"
        return "violated" if fr < -LABEL_DELTA else "inconclusive"
    orbit = attractor.location
    fr_samples = np.array([decompose(field, y).radial for y in orbit])
    if fr_samples.min() > LABEL_DELTA:
        return "satisfied"
    mean = attractor.mean_radial
    if mean < -LABEL_DELTA:
        return "violated"
    if abs(mean) <= LABEL_DELTA:
        return "inconclusive"
    # sampled-pair probe of the integral bound over three periods
    s = attractor.orbit_times
    ds = np.diff(s)
    seg = 0.5 * (fr_samples[1:] + fr_samples[:-1]) * ds
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    T = attractor.period
    s3 = np.concatenate([s[:-1], s[:-1] + T, s[:-1] + 2 * T, [3 * T]])
    C = cum[-1]
    cum3 = np.concatenate([cum[:-1], cum[:-1] + C, cum[:-1] + 2 * C, [3 * C]])
    # I(s_i, s_j) - (mean/2)(s_j - s_i) over ordered pairs i < j
    g = cum3 - 0.5 * mean * s3
    running_max = np.maximum.accumulate(g)
    c0 = float(np.min(g[1:] - running_max[:-1]))
    return "satisfied" if np.isfinite(c0) else "inconclusive"


# ---------------------------------------------------------------------------
# Rescaled escape decision
# ---------------------------------------------------------------------------

def tau_entry(f_r_star: float, alpha: float) -> float:
    """Entry time of the rescaled solution at the unit sphere."""
    if f_r_star >= 0:
        raise SignError("entry requires a collapsing direction (F_r(y*) < 0)")
    return -1.0 / (f_r_star * (alpha - 1.0))


def _identify_attractor(field, y_end, catalog, opts):
    for a in catalog:
        tol = 1e-5 if a.kind == "fixed_point" else 5e-3
        if a.distance_to(y_end) < tol:
            return a
    try:
        return find_limit_cycle(field, y_end, opts)
    except (LimitCycleNotFound, StepFailure):
        return None


def rescaled_escape(
    field: SingularField,
    rf: RegularizedField,
    y_ent,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    y_star=None,
    tau_budget: float = 1e3,
    confirm_window: float = 50.0,
    r_bound_cap: float = 50.0,
    catalog: Optional[List[AttractorInfo]] = None,
) -> EscapeResult:
    """Decide whether the regularization expels or traps the blowup solution.

    Integrates the rescaled system (regularization at unit radius; the nu
    dependence scales out) from the entry state on the unit sphere.  Escape
    is certified by exit through R = 1 followed by a confirmation window in
    renormalized variables with growing log-radius and the direction settled
    in the basin of a defocusing attractor.  Trapping is certified by a
    bounded solution that keeps revisiting (or never leaves) the unit ball
    up to the tau budget; a run that fails inside the ball is undetermined.
    rf regularizes field: the rescaled system is rf at nu = 1.
    """
    y_ent = np.asarray(y_ent, dtype=float)
    y_ent = y_ent / np.linalg.norm(y_ent)
    base_star = y_ent if y_star is None else np.asarray(y_star, dtype=float)
    fr_star = decompose(field, base_star / np.linalg.norm(base_star)).radial
    t_ent = tau_entry(fr_star, field.alpha)

    rhs = regularized_rhs(rf.with_nu(1.0))
    ball = _Sphere(1.0)
    if catalog is None:
        catalog = catalog_attractors(field, opts=opts)
    cycle_periods = [a.period for a in catalog if a.kind == "limit_cycle"]
    window = max(confirm_window, 5 * max(cycle_periods) if cycle_periods else 0.0)

    in_opts = IntegrationOptions(rtol=opts.rtol, atol=opts.atol, r_floor=0.0)
    tau = t_ent
    x = y_ent.copy()
    visits = 0
    r_max = 1.0
    while tau < tau_budget:
        visits += 1
        # inside phase: run until the solution exits the unit ball
        try:
            tau_x, x_x, _seg = _integrate_to_crossing(
                rhs, x, tau, ball, +1, in_opts, tau_budget
            )
        except StepFailure as exc:
            return EscapeResult(
                "undetermined",
                t_ent,
                r_bound=r_max,
                revisits=visits,
                certificate=f"integration failed inside the unit ball at visit {visits}: {exc}",
            )
        except NoEvent:
            return EscapeResult(
                "trapped",
                t_ent,
                r_bound=r_max,
                revisits=visits,
                certificate=(
                    f"stayed in the unit ball until tau = {tau_budget:g} "
                    f"after {visits} visit(s); sup R = {r_max:.6g}"
                ),
            )
        r_max = max(r_max, 1.0)
        # outside phase in renormalized variables: Z = 0 at the exit sphere
        y_exit = x_x / np.linalg.norm(x_x)
        out = _outside_excursion(field, y_exit, window, opts)
        r_max = max(r_max, math.exp(out["z_max"]))
        if out["reentered"]:
            if r_max > r_bound_cap:
                return EscapeResult(
                    "undetermined",
                    t_ent,
                    revisits=visits,
                    r_bound=r_max,
                    certificate=f"excursion exceeded the bound cap {r_bound_cap:g}",
                )
            tau = tau_x + out["dtau"]
            x = out["y_end"]
            continue
        # never re-entered within the window: certify expulsion
        attr = _identify_attractor(field, out["y_end"], catalog, opts)
        grew = out["z_end"] > 0.5 and out["mean_tail"] > LABEL_DELTA and out["z_min_tail"] > 0.0
        if attr is not None and attr.label == "defocusing" and grew:
            return EscapeResult(
                "expelled",
                t_ent,
                tau_esc=tau_x,
                y_esc=y_exit,
                revisits=visits,
                attractor=attr,
                certificate=(
                    f"exited at tau = {tau_x:.6g}; log-radius grew to {out['z_end']:.3g} "
                    f"over a window of {window:g} renormalized units with tail mean "
                    f"F_r = {out['mean_tail']:.6g}; direction settled on the "
                    f"{attr.label} {attr.kind}"
                ),
            )
        return EscapeResult(
            "undetermined",
            t_ent,
            tau_esc=tau_x,
            y_esc=y_exit,
            revisits=visits,
            attractor=attr,
            certificate="exit without a defocusing-basin certificate",
        )
    return EscapeResult(
        "trapped" if r_max <= r_bound_cap and visits >= 3 else "undetermined",
        t_ent,
        r_bound=r_max,
        revisits=visits,
        certificate=f"tau budget reached after {visits} visits; sup R = {r_max:.6g}",
    )


def _outside_excursion(field, y_exit, window, opts):
    """Renormalized run outside the ball until re-entry (Z = 0) or the window end."""
    d = field.dimension
    z_last = 0.0  # Z of the last accepted state; the run starts at Z = 0

    def reentered(_s, u, _partial):
        # the step of the first downward crossing of Z = 0 ends the run; the
        # steps never depend on the poll, so it is a prefix of the full run
        nonlocal z_last
        z_prev, z_last = z_last, float(u[d])
        return z_prev > 0.0 >= z_last

    rt = renorm_integrate(
        field,
        y_exit,
        0.0,
        window,
        IntegrationOptions(rtol=opts.rtol, atol=opts.atol, r_floor=0.0),
        until=reentered,
    )
    z = rt.z
    s = rt.s
    # find the first downward crossing of Z = 0 after Z has been positive
    crossed = None
    for i in range(1, len(s)):
        if z[i - 1] > 0.0 >= z[i]:
            crossed = i
            break
    if crossed is not None:
        # bisect the dense output of the base trajectory for Z = 0
        lo, hi = s[crossed - 1], s[crossed]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            zm = float(rt.z_at(mid))
            if zm > 0:
                lo = mid
            else:
                hi = mid
        s_re = 0.5 * (lo + hi)
        u = rt.state_at(s_re)
        y_end = u[:d] / np.linalg.norm(u[:d])
        dtau = float(u[d + 1])  # physical-time quadrature started at 0
        return {
            "reentered": True,
            "y_end": y_end,
            "dtau": dtau,
            "z_max": float(np.max(z[: crossed + 1])),
            "z_end": 0.0,
            "mean_tail": 0.0,
            "z_min_tail": 0.0,
        }
    half = s[-1] / 2
    tail = z[s >= half]
    mean_tail = (z[-1] - float(rt.z_at(half))) / (s[-1] - half)
    return {
        "reentered": False,
        "y_end": rt.y[-1] / np.linalg.norm(rt.y[-1]),
        "dtau": float(rt.t[-1]),
        "z_max": float(np.max(z)),
        "z_end": float(z[-1]),
        "mean_tail": float(mean_tail),
        "z_min_tail": float(np.min(tail)),
    }
