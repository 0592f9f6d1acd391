"""Pre- and post-blowup solutions and the vanishing-regularization sweeps.

A collapsing fixed point gives the closed-form pre-blowup solution and, when
the escape direction lands on a defocusing fixed point, the unique post-
blowup ray.  A defocusing limit cycle instead generates a one-parameter
family x(t; zeta): the radius grows like (t - t_b)^(1/(1-alpha)) while the
direction runs around the cycle, with the phase zeta selected one value at a
time by geometric subsequences of the regularization radius.

The family is discretely self-similar: with p = 1/(1-alpha),

    x(t; zeta) = (t - t_b)^p G(p log(t - t_b) + zeta),
    G(xi) = exp(-phi(s, s)) y_c(s)  at  s = psi_inv(xi),

and the log-profile G is periodic in xi with period zeta_period = T <F_r>.
The family is one renormalized run over one period of the cycle, from
which the radial integral, the orbit and psi are read (psi through the
run's physical time, renorm.physical_time), and G through psi_inv.  The
phase origin s = 0, zeta = 0 is the maximum of one coordinate on that run,
kept as two constants: the run's time s_a and its z_a there.  The improper
integral defining the phase map psi is reduced exactly through the
periodicity of the radial integral (a geometric series over past periods),
so no truncation of the infinite history is needed.

A regularized solution trails the family by a lag delta = Lambda
nu^(1-alpha), so a sample follows the member x(t - delta; zeta).  Each
sample is read off in closed form (_read_phase, after Guckenheimer's
isochrons, J. Math. Biol. 1, 1975): its direction fixes s on the cycle,
then log|x| = J(s) - zeta gives its phase and dt = exp((1 - alpha)
(psi(s) - zeta)) its lag, with no scan over zeta.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .attractors import AttractorInfo, EscapeResult, _fixed_point_near, rescaled_escape
from .errors import NonPositiveMean, OutOfDomain, SignError, SingularFlowError, StepFailure
from .fields import SingularField, eval_field
from .integrators import DEFAULT_OPTIONS, IntegrationOptions, SolverStats, _dense_max
from .regularize import RegularizedField, integrate_regularized
from .renorm import classify_blowup, physical_time, renorm_integrate

_MEAN_DELTA = 1e-6
# a coordinate whose range over a cycle's orbit table exceeds this varies on it
_ANCHOR_RANGE = 1e-3
# uniform intervals of the period grid on which the cycle family tabulates
# psi (psi_inv's seed) and the orbit (the phase read-off's nearest rows)
_FAMILY_GRID = 2048
# Newton steps, and the central-difference step of their derivatives, that
# project a sample's direction onto the cycle from its nearest seed row, one
# of every _SEED_STRIDE rows of the period grid (256 rows, 0.025 apart in s
# on the sphere3d cycle: a sample set's 90 x 256 dot products stay near
# 0.2 MB, taken a radius at a time when radii are stacked)
_SEED_STRIDE = 8
_PROJECTION_STEPS = 3
_TANGENT_STEP = 1e-5
# time step of residual_check's central differences
_RESIDUAL_STEP = 1e-6


# ---------------------------------------------------------------------------
# Fixed-point continuation
# ---------------------------------------------------------------------------

@dataclass
class ContinuationFamily:
    """Post-blowup solution description.

    kind fixed_ray: the unique ray along a defocusing direction.
    kind cycle_family: the periodic-modulation family built on a limit cycle;
    eval(t, zeta) is periodic in zeta with period T * mean_radial.
    kind trivial_rest: identically zero after t_b.
    """

    kind: str
    t_b: float
    alpha: float
    direction: Optional[np.ndarray] = None
    radial_coeff: Optional[float] = None
    cycle: Optional[AttractorInfo] = None
    mean_radial: Optional[float] = None
    period: Optional[float] = None
    dimension: Optional[int] = None
    _tables: Optional[dict] = dc_field(default=None, repr=False)

    @property
    def zeta_period(self) -> float:
        if self.kind != "cycle_family":
            return 0.0
        return self.period * self.mean_radial

    # -- phase-map accessors (cycle_family only) ---------------------------

    def _on_run(self, s):
        """s as a time on the family's one-period run, u - k T for
        u = s + s_a and k = floor(u / T), flattened, with k zeta_period in
        the shape of s: J and psi each gain T <F_r> per period.  s_a is the
        anchor's time on the run, where s = 0."""
        u = np.asarray(s, dtype=float) + self._tables["s_a"]
        k = np.floor(u / self.period)
        return (u - k * self.period).ravel(), k * self.zeta_period

    def radial_integral(self, s):
        """Integral of F_r along the cycle from 0 to s: z on the run, less z_a."""
        tb = self._tables
        rt = tb["run"]
        s_red, shift = self._on_run(s)
        return rt.run.sample(s_red, rt.dimension).reshape(shift.shape) + shift - tb["z_a"]

    def psi(self, s):
        """log(K(s)) / (1 - alpha): log(K0 + t) / (1 - alpha) - z_a, with t
        the run's physical time."""
        tb = self._tables
        s_red, shift = self._on_run(s)
        K = tb["K0"] + physical_time(tb["run"], s_red)
        return (np.log(K) / (1.0 - self.alpha)).reshape(shift.shape) + shift - tb["z_a"]

    def psi_inv(self, xi):
        """Monotone inverse of psi: a linear-interpolation seed, then Newton polish."""
        tb = self._tables
        xi = np.asarray(xi, dtype=float)
        T, span = self.period, self.zeta_period
        k = np.floor((xi - tb["psi0"]) / span)
        xi_red = xi - k * span  # in [psi(-s_a), psi(T - s_a)), the run's span
        s = tb["psi_inv_base"](xi_red)
        for _ in range(3):
            psi_s = self.psi(s)
            s = s - (psi_s - xi_red) / self._psi_prime(s, psi_s)
        return s + k * T

    def _psi_prime(self, s, psi_s):
        """d psi / ds at s, given psi_s = psi(s)."""
        one_minus_a = 1.0 - self.alpha
        return np.exp(one_minus_a * (self.radial_integral(s) - psi_s)) / one_minus_a

    def orbit_point(self, s):
        """The cycle's direction at s.

        The run's end misses its start by the error of the period (1.4e-11
        on spiral2d), so over one table interval next to the seam the orbit
        moves by that closure along a cubic ramp with flat ends: the family
        is continuous across the seam, where a jump would spoil any
        difference quotient that straddles it.  The ramp ends the run when
        the anchor is in the run's first half and starts it otherwise, so
        the orbit is the run's own near s = 0.
        """
        tb = self._tables
        rt = tb["run"]
        s_red, shift = self._on_run(s)
        start, width, level, closure = tb["seam"]
        x = np.clip((s_red - start) / width, 0.0, 1.0)
        y = rt.run.sample(s_red)[:, : rt.dimension]
        y = y + (x * x * (3.0 - 2.0 * x) + level)[:, None] * closure
        y = y.reshape(shift.shape + (-1,))
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    # -- evaluation ---------------------------------------------------------

    def eval(self, t, zeta: float = 0.0):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        dt = self._elapsed(t_arr)
        p = 1.0 / (1.0 - self.alpha)
        if self.kind == "trivial_rest":
            out = np.zeros((len(t_arr), self.dimension))
        elif self.kind == "fixed_ray":
            out = (self.radial_coeff * dt)[:, None] ** p * self.direction[None, :]
        else:
            out = self._cycle_points(dt, zeta)
        if np.ndim(t) == 0:
            return out[0]
        return out

    def _elapsed(self, t):
        """t - t_b, after checking that every t is finite and past the blowup."""
        # written so that a NaN time fails the test too
        if not np.all((t > self.t_b) & (t < math.inf)):
            raise OutOfDomain(
                "continuation families are defined for finite t > t_b only"
            )
        return t - self.t_b

    def _cycle_points(self, dt, zeta):
        """Cycle-family points dt^p G(xi) at xi = p log dt + zeta, with
        G(xi) = exp(J(s) - xi) y_c(s) at s = psi_inv(xi), read off the run.

        dt and zeta broadcast against each other; the points gain a last
        axis of length d.
        """
        p = 1.0 / (1.0 - self.alpha)
        xi = p * np.log(dt) + zeta
        s = self.psi_inv(xi)
        return (dt**p * np.exp(self.radial_integral(s) - xi))[..., None] * self.orbit_point(s)


def fixed_point_solutions(
    y_star,
    f_r: float,
    y_star_prime=None,
    f_r_prime: Optional[float] = None,
    t_b: float = 0.0,
    alpha: float = 1.0 / 3.0,
):
    """Closed-form blowup solution and, optionally, its unique continuation.

    Returns (pre, family): pre(t) is the collapsing solution for t <= t_b
    along y_star, and family is the post-blowup ray along y_star_prime (or
    None when no escape direction is supplied).
    """
    y_star = np.asarray(y_star, dtype=float)
    if f_r >= 0:
        raise SignError("the collapsing direction needs F_r(y*) < 0")
    p = 1.0 / (1.0 - alpha)
    coeff_in = (alpha - 1.0) * f_r  # positive

    def pre(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr > t_b + 1e-15):
            raise OutOfDomain("pre-blowup solution is defined for t <= t_b")
        r = (coeff_in * np.maximum(t_b - t_arr, 0.0)) ** p
        out = r[:, None] * y_star[None, :]
        return out[0] if np.ndim(t) == 0 else out

    family = None
    if y_star_prime is not None:
        if f_r_prime is None or f_r_prime <= 0:
            raise SignError("the escape direction needs F_r(y'*) > 0")
        family = ContinuationFamily(
            "fixed_ray",
            t_b,
            alpha,
            direction=np.asarray(y_star_prime, dtype=float),
            radial_coeff=(1.0 - alpha) * f_r_prime,
            dimension=len(y_star),
        )
    return pre, family


def trivial_rest_family(t_b: float, alpha: float, dimension: int) -> ContinuationFamily:
    """The rest solution x = 0 after t_b (trapping inviscid limit)."""
    return ContinuationFamily("trivial_rest", t_b, alpha, dimension=dimension)


# ---------------------------------------------------------------------------
# Cycle family
# ---------------------------------------------------------------------------

def build_cycle_family(
    field: SingularField,
    cycle: AttractorInfo,
    t_b: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> ContinuationFamily:
    """Tabulate the post-blowup family generated by a defocusing limit cycle.

    One period of the cycle is re-integrated at tight tolerance, as one
    renormalized run from z = 0 whose z is the running integral J of F_r.
    It starts at the orbit-table row where y_k is largest, for the first
    coordinate k whose range over the table exceeds _ANCHOR_RANGE (a fixed
    rule, since coordinates can tie: y_1 and y_2 on a latitude circle).
    The maximum of y_k on the run's dense output (integrators._dense_max),
    at s_a with z_a = z(s_a), is the family's s = 0 and phase origin
    zeta = 0: a point fixed by the cycle itself, whichever search found it
    and wherever its table starts.  The phase map psi and the radial
    profile follow from the cumulative exponential weight K(s) =
    integral_{-inf}^s exp((1-alpha) J(u)) du: on the run it is the physical
    time (renorm.physical_time) plus a tail over past periods that sums
    exactly as a geometric series.  The family is the run:
    radial_integral, psi and orbit_point read its dense output at
    (s + s_a) mod T, and J and psi subtract z_a.  On a uniform grid of the
    run of _FAMILY_GRID intervals it keeps psi, whose increasing table
    seeds psi_inv's Newton polish through np.interp, and the orbit, whose
    nearest row seeds the phase read-off's projection (_read_phase).
    """
    if cycle.kind != "limit_cycle":
        raise ValueError("build_cycle_family needs a limit-cycle attractor")
    alpha = field.alpha
    one_minus_a = 1.0 - alpha
    d = field.dimension

    T = float(cycle.period)
    table = cycle.location
    ranges = np.ptp(table, axis=0)
    k = next((i for i, r in enumerate(ranges) if r > _ANCHOR_RANGE), int(np.argmax(ranges)))
    start = table[int(np.argmax(table[:-1, k]))]  # the last row repeats the first

    run_opts = dataclasses.replace(opts, rtol=min(opts.rtol, 1e-12), atol=min(opts.atol, 1e-14))
    rt = renorm_integrate(field, start, 0.0, T, run_opts)
    s_a, _ = _dense_max(rt.run, k)
    z_a = float(rt.run.sample(s_a, d))
    s_grid = np.linspace(0.0, T, _FAMILY_GRID + 1)
    uu = rt.run.sample(s_grid)
    closure = uu[0, :d] - uu[-1, :d]
    orbit = uu[:, :d]
    orbit /= np.linalg.norm(orbit, axis=1)[:, None]
    J_tab = uu[:, d]

    mean = J_tab[-1] / T
    if mean <= _MEAN_DELTA:
        raise NonPositiveMean(f"cycle mean radial value {mean!r} is not positive")

    K_partial = physical_time(rt, s_grid)
    q = math.exp(-one_minus_a * mean * T)
    K0 = K_partial[-1] * q / (1.0 - q)  # exact geometric tail over s < 0
    xi_tab = np.log(K0 + K_partial) / one_minus_a  # psi(s_grid - s_a) + z_a
    xi_tab[-1] = xi_tab[0] + mean * T  # psi(T) = psi(0) + T <F_r> exactly

    tables = {
        "run": rt,
        "s_a": s_a,
        "z_a": z_a,
        "K0": K0,
        "psi_inv_base": partial(np.interp, xp=xi_tab - z_a, fp=s_grid - s_a),  # increasing
        "psi0": xi_tab[0] - z_a,
        # the closing ramp's start, width, level before it and closure (orbit_point)
        "seam": (T - s_grid[1], s_grid[1], 0.0, closure) if s_a < T / 2
        else (0.0, s_grid[1], -1.0, closure),
        "rows": s_grid[:-1:_SEED_STRIDE] - s_a,  # the last row repeats the first
        "orbit": np.ascontiguousarray(orbit[:-1:_SEED_STRIDE].T),  # a column per row
    }
    return ContinuationFamily(
        "cycle_family",
        t_b,
        alpha,
        cycle=cycle,
        mean_radial=mean,
        period=T,
        _tables=tables,
    )


def residual_check(fam, field: SingularField, t_grid, zeta: float = 0.0) -> float:
    """Sup over the grid of |d/dt x(t) - f(x(t))| relative to |f|.

    d/dt is the central difference of step _RESIDUAL_STEP (1e-6).  fam may
    be a ContinuationFamily or any callable x(t, zeta) that takes an array
    of times and returns one row per time.
    """
    h = _RESIDUAL_STEP
    ev = fam.eval if hasattr(fam, "eval") else fam
    t = np.asarray(t_grid, dtype=float)
    dx = (ev(t + h, zeta) - ev(t - h, zeta)) / (2 * h)
    worst = 0.0
    for x, dx_k in zip(ev(t, zeta), dx):
        f = eval_field(field, x)
        worst = max(worst, float(np.linalg.norm(dx_k - f)) / float(np.linalg.norm(f)))
    return worst


def geometric_sequence(T: float, mean_fr: float, chi: float, n_range: Sequence[int]) -> np.ndarray:
    """The vanishing subsequence nu_n = exp(-T <F_r> n + chi)."""
    if not (T > 0 and mean_fr > 0):
        raise ValueError("geometric subsequences need T > 0 and a positive mean")
    n = np.asarray(list(n_range), dtype=float)
    return np.exp(-T * mean_fr * n + chi)


def estimate_phase(fam: ContinuationFamily, t_grid, samples):
    """The family member that samples at t_grid follow: (zeta, sup_distance,
    uncertainty).

    zeta, in [0, zeta_period), and the lag are _read_phase's, and the
    uncertainty is its spread; sup_distance is the sup over the grid of the
    distance to the lagged member, x(t - lag; zeta).  fam must be a cycle
    family (ValueError otherwise).
    """
    if fam.kind != "cycle_family":
        raise ValueError("estimate_phase needs a cycle_family")
    zeta, lag, spread = _read_phase(fam, t_grid, samples)
    member = fam._cycle_points(fam._elapsed(np.asarray(t_grid, dtype=float) - lag), zeta)
    dist = np.max(np.linalg.norm(np.asarray(samples, dtype=float) - member, axis=1))
    return zeta, float(dist), spread


def _read_phase(fam: ContinuationFamily, t_grid, samples):
    """Phase, lag and spread of samples of a cycle-family member, read off
    each sample in closed form: (zeta, lag, spread).

    On the member (zeta, delta) a sample at t is x = dt^p G(xi) with
    dt = t - t_b - delta and xi = p log dt + zeta, so its direction is the
    cycle's at s = psi_inv(xi) and log|x| = J(s) - zeta.  The direction
    fixes s, as the nearest point of the cycle: the nearest of the seed
    rows, then _PROJECTION_STEPS Newton steps on the squared
    distance along the run's dense output, with central differences for
    y' and y''.  Its second derivative |y'|^2 - y''.(u - y) is kept at
    least |y'|^2 / 4, so that a direction near the cycle's focal set, where
    that vanishes, steps toward its nearest point.  Then zeta = J(s) -
    log|x|, dt = exp((1 - alpha)(psi(s) - zeta)) and delta = t - t_b - dt.
    zeta is the circular mean of the samples' phases, reduced to
    [0, zeta_period), the lag is the mean of their delta, and the spread is
    the largest wrapped deviation of a sample's phase from zeta.  A sample
    with no direction, or with a non-finite lag, raises SingularFlowError
    naming it.

    Samples of R radii stacked as (R, len(t_grid), d) give a list of R
    triples, each bitwise its radius's own read, in one pass over all of
    them but for the seed rows and the reductions; errors name the radius.
    """
    t = np.asarray(t_grid, dtype=float)
    elapsed = fam._elapsed(t)
    x = np.asarray(samples, dtype=float)
    stacked = x.ndim == 3
    x = x.reshape((-1,) + x.shape[-2:])  # (radius, sample, component)
    r = np.linalg.norm(x, axis=-1)

    def check(ok, what):
        if not np.all(ok):
            k, i = np.unravel_index(np.argmin(ok), ok.shape)
            where = f"radius {k}, sample {i}" if stacked else f"sample {i}"
            raise SingularFlowError(f"{where} at t = {float(t[i])!r} has {what}: x = {x[k, i]}")

    check(np.isfinite(r) & (r > 0.0), "no direction")
    u = x / r[..., None]
    tb = fam._tables
    s = tb["rows"][np.concatenate([np.argmax(uk @ tb["orbit"], axis=1) for uk in u])]
    u = u.reshape(-1, u.shape[-1])
    h = _TANGENT_STEP
    for _ in range(_PROJECTION_STEPS):
        y, ahead, behind = fam.orbit_point(s + np.array([[0.0], [h], [-h]]))
        tangent, bend, miss = (ahead - behind) / (2 * h), (ahead - 2 * y + behind) / h**2, u - y
        tt = np.einsum("ij,ij->i", tangent, tangent)
        curvature = np.maximum(tt - np.einsum("ij,ij->i", bend, miss), 0.25 * tt)
        s = s + np.einsum("ij,ij->i", tangent, miss) / curvature
    zetas = fam.radial_integral(s).reshape(r.shape) - np.log(r)
    with np.errstate(over="ignore"):
        delta = elapsed - np.exp((1.0 - fam.alpha) * (fam.psi(s).reshape(r.shape) - zetas))
    check(np.isfinite(delta), "no finite lag")
    span = fam.zeta_period
    angle = (2 * math.pi / span) * zetas
    means = zip(np.mean(np.sin(angle), axis=-1), np.mean(np.cos(angle), axis=-1))
    zeta = np.array([math.atan2(a, b) * span / (2 * math.pi) % span for a, b in means])
    dev = (zetas - zeta[:, None]) % span
    reads = list(zip(zeta.tolist(), np.mean(delta, axis=-1).tolist(),
                     np.max(np.minimum(dev, span - dev), axis=-1).tolist()))
    return reads if stacked else reads[0]


# ---------------------------------------------------------------------------
# Inviscid sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRun:
    """One integration a sweep made: the nu values it served and its cost.

    scale is the radius of the regularization the run integrated: 1 for the
    on-ray passage (the escape probe's run's stats plus its continuation's),
    nu for a run of its own.  status is the trajectory's (the passage's
    continuation's, or completed when the probe's run covers the grid
    alone), or "failed" when the run raised without a partial trajectory;
    stats is then None.
    """

    nu_indices: list
    scale: float
    status: str
    stats: Optional[SolverStats] = None

    def to_dict(self):
        if self.stats is None:
            stats = dict.fromkeys(f.name for f in dataclasses.fields(SolverStats))
        else:
            stats = self.stats.to_dict()
        return {"nu_indices": list(self.nu_indices), "scale": self.scale,
                "status": self.status, **stats}


@dataclass
class SweepReport:
    nu_values: np.ndarray
    t_grid: np.ndarray
    solutions: list  # per-nu arrays (len(t_grid), d) or None on failure
    errors: list  # per-nu error strings or None
    pairwise_sup_distances: np.ndarray
    verdict: str
    t_b: float
    reference: Optional[str] = None
    matched_zeta: Optional[list] = None
    matched_lag: Optional[list] = None
    zeta_uncertainty: Optional[float] = None
    decay_exponent: Optional[float] = None
    decay_r2: Optional[float] = None
    escape: Optional[EscapeResult] = None
    family: Optional[ContinuationFamily] = None
    runs: List[SweepRun] = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "schema_version": "1",
            "nu": np.asarray(self.nu_values, dtype=float).tolist(),
            "t_grid": self.t_grid.tolist(),
            "t_b": self.t_b,
            "verdict": self.verdict,
            "reference": self.reference,
            "matched_zeta": self.matched_zeta,
            "matched_lag": self.matched_lag,
            "zeta_uncertainty": self.zeta_uncertainty,
            "decay_exponent": self.decay_exponent,
            "decay_r2": self.decay_r2,
            "distances": self.pairwise_sup_distances.tolist(),
            "errors": self.errors,
            "escape": None if self.escape is None else self.escape.to_dict(),
            "runs": [r.to_dict() for r in self.runs],
        }


def _power_fit(nu, vals):
    ln_nu = np.log(nu)
    ln_v = np.log(vals)
    q, c = np.polyfit(ln_nu, ln_v, 1)
    resid = ln_v - (q * ln_nu + c)
    denom = np.var(ln_v) if np.var(ln_v) > 0 else 1.0
    return float(q), float(1.0 - np.var(resid) / denom)


def blowup_time_on_ray(r0: float, f_r_star: float, alpha: float, t0: float = 0.0) -> float:
    """Collapse time for an initial point on the attracting ray."""
    return t0 + r0 ** (1.0 - alpha) / ((alpha - 1.0) * f_r_star)


def inviscid_sweep(
    regularization: RegularizedField,
    x0,
    t_grid,
    nu_list,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    t0: float = 0.0,
) -> SweepReport:
    """Run the regularized problem for each nu and classify the limit.

    The ideal field is regularization.base, and only regularization's inner
    map matters besides: the field at a given nu is
    dataclasses.replace(regularization, nu=nu), so it may be built at any
    nu.  The blowup time is anchored on the ideal problem (closed form on
    the collapse ray, renormalized classification otherwise); the rescaled
    escape probe then decides which limit to compare against: the trivial
    rest solution, the unique ray, or the cycle family with the phase and
    lag of every radius read off in one stacked call (_read_phase).
    Per-nu failures are recorded without aborting the sweep.  Every nu must
    be positive and finite, in any order: the verdicts and zeta_uncertainty
    read the radii by decreasing nu.  t_grid must be strictly increasing
    from t0 on (ValueError otherwise).

    A start on a stable collapse ray stays on it at every scale, and the
    patched field scales exactly, f_nu(x) = nu^alpha f_1(x / nu).  So with
    p = 1 - alpha every radius nu reads one solution X(tau) of the nu = 1
    problem in ball units, the passage: x_nu(t) = nu X((t - t_b) / nu^p)
    from X = y* at tau_ent (tau = 0 is the ideal blowup), and before that,
    outside its ball on the ray, the closed form pre(t) of
    fixed_point_solutions.  The passage is the escape probe's run in ball
    units (EscapeResult.run), to the bound cap, a certified sink or the tau
    budget, continued from its end by one integrate_regularized run of the
    nu = 1 field to where the smallest radius it serves reads the end of
    t_grid, so no tau is integrated twice.  It serves the
    radii nu <= |x0| (the start is outside the ball) when the start is on
    the ray and the blowup direction generic, opts.max_step is infinite (a
    cap in ball units would cost (t_end - t_b) / (nu^p max_step) steps) and
    t_grid ends after t_b.  Every other nu is a direct run at radius nu
    from x0 at t0 to the end of t_grid, and the passage serves all its radii
    in one sample call per run.  A failed probe run, continuation or sampling
    fails every nu the passage serves, with an error that names the passage.
    report.runs lists every integration made, the passage at scale 1.

    No attractor catalog is built.  The two attractors the sweep needs are
    looked up where it meets them, each fixed point by one Newton solve on
    the sphere from the direction in question (attractors._fixed_point_near):
    the start is on a collapse ray when that solve from y0 returns a
    focusing fixed point within 1e-9 of it; off the ray, the blowup
    direction is generic when the solve from the end of classify_blowup's
    run returns a stable one within 1e-6.  rescaled_escape looks up the
    attractor the escape lands on in the same way, and searches for a cycle
    only when the landing direction is no fixed point.
    """
    field = regularization.base
    x0 = np.asarray(x0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size and t_grid[0] >= t0 and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be strictly increasing and start at or after t0")
    nu_values = np.asarray(list(nu_list), dtype=float)
    bad = nu_values[~(np.isfinite(nu_values) & (nu_values > 0))]
    if bad.size:
        raise ValueError(f"every nu must be positive and finite, got {float(bad[0])!r}")
    r0 = float(np.linalg.norm(x0))
    if r0 == 0.0:
        raise ValueError("the sweep starts at x0 = 0, the singular point, which has no direction")
    y0 = x0 / r0

    star = _fixed_point_near(field, y0, 1e-9)
    on_ray = star is not None and star.label == "focusing"
    if on_ray:
        t_b = blowup_time_on_ray(r0, star.mean_radial, field.alpha, t0)
        generic = star.stable
    else:
        verdict = classify_blowup(field, y0, math.log(r0), opts, t0=t0)
        if verdict.verdict != "blowup":
            raise ValueError(
                f"initial condition does not blow up (verdict {verdict.verdict}); "
                "a sweep across t_b is meaningless"
            )
        t_b = verdict.t_b
        star = _fixed_point_near(field, verdict.renorm.y[-1], 1e-6)
        generic = star is not None and star.stable

    n = len(nu_values)
    results = [None] * n  # per nu: its samples, or the exception that failed it
    runs: List[SweepRun] = []
    t_end = float(t_grid[-1]) * (1 + 1e-12)
    esc = rescaled_escape(regularization, star.location, opts) if generic else None
    shared = []
    if on_ray and generic and opts.max_step == math.inf and t_grid[-1] > t_b:
        shared = [k for k in range(n) if nu_values[k] <= r0]

    if shared:
        p = 1.0 - field.alpha
        pre, _ = fixed_point_solutions(y0, star.mean_radial, t_b=t_b, alpha=field.alpha)
        tau_stop = (t_end - t_b) / float(np.min(nu_values[shared])) ** p
        rf = dataclasses.replace(regularization, nu=1.0)
        read = _safe(lambda: _read_passage(*_passage(runs, shared, esc, rf, tau_stop, opts),
                                           pre, t_grid, t_b, nu_values[shared], p))()
        for i, k in enumerate(shared):
            results[k] = read if isinstance(read, Exception) else read[i]
    for k in range(n):
        if k not in shared:
            rf = dataclasses.replace(regularization, nu=float(nu_values[k]))
            run = _safe(_recorded)(
                runs, [k], rf.nu, lambda: integrate_regularized(rf, x0, t0, t_end, opts)
            )
            results[k] = run if isinstance(run, Exception) else _safe(run.sample)(t_grid)

    solutions = [None if isinstance(res, Exception) else res for res in results]
    errors = [
        None if not isinstance(res, Exception)
        else f"{type(res).__name__}: {res}" + (" (in the on-ray passage)" if k in shared else "")
        for k, res in enumerate(results)
    ]

    failed = np.full((len(t_grid), len(x0)), math.nan)
    stack = np.array([failed if sol is None else sol for sol in solutions])
    distances = np.zeros((n, n))
    for i in range(n):  # a row at a time: never an (n, n, len(t_grid), d) array
        row = np.max(np.linalg.norm(stack[i + 1:] - stack[i], axis=-1), axis=-1)
        distances[i, i + 1:] = distances[i + 1:, i] = row

    report = SweepReport(
        nu_values, t_grid, solutions, errors, distances, "undetermined", t_b, runs=runs
    )
    if not generic:
        report.verdict = "undetermined"
        report.reference = "non-generic blowup direction"
        return report

    report.escape = esc
    good = [k for k in range(n) if solutions[k] is not None]
    ranked = sorted(good, key=lambda k: -nu_values[k])  # ties keep the list's order
    post = t_grid > t_b + 1e-12
    if len(good) < 2 or not np.any(post):
        return report

    if esc.outcome == "trapped":
        sup_post = np.array(
            [np.max(np.linalg.norm(solutions[k][post], axis=1)) for k in good]
        )
        q, r2 = _power_fit(nu_values[good], sup_post)
        report.decay_exponent, report.decay_r2 = q, r2
        report.verdict = "trivial_zero" if (q > 0 and r2 > 0.99) else "undetermined"
        report.reference = "trivial_rest"
        report.family = trivial_rest_family(t_b, field.alpha, field.dimension)
        return report

    if esc.outcome != "expelled" or esc.attractor is None:
        return report

    if esc.attractor.kind == "fixed_point":
        _, ray = fixed_point_solutions(
            star.location,
            star.mean_radial,
            esc.attractor.location,
            esc.attractor.mean_radial,
            t_b,
            field.alpha,
        )
        report.family = ray
        report.reference = "fixed_ray"
        ray_vals = ray.eval(t_grid[post])
        dists = np.array(
            [np.max(np.linalg.norm(solutions[k][post] - ray_vals, axis=1)) for k in ranked]
        )
        decreasing = bool(np.all(np.diff(dists) < 0))
        report.verdict = (
            "converged_to(fixed_ray)" if decreasing and dists[-1] <= dists[0] / 2 else "undetermined"
        )
        report.matched_zeta = None
        return report

    fam = build_cycle_family(field, esc.attractor, t_b, opts=opts)
    report.family = fam
    report.reference = "cycle_family"
    reads = dict(zip(good, _read_phase(fam, t_grid[post], stack[good][:, post])))
    report.matched_zeta = [reads[k][0] for k in good]
    report.matched_lag = [reads[k][1] for k in good]
    report.zeta_uncertainty = reads[ranked[-1]][2]
    span = fam.zeta_period
    difs = np.abs(np.diff([reads[k][0] for k in ranked]))
    difs = np.minimum(difs, span - difs) / span  # wrapped, as a fraction of the period
    shrinking = bool(np.all(np.diff(difs) <= 0.05)) and difs[-1] <= 0.25
    report.verdict = "converged_to(cycle_family)" if shrinking else "diverging_phases"
    return report


# Errors that mean the code is wrong, not that one nu failed: never recorded.
_PROGRAMMING_ERRORS = (TypeError, KeyError, AttributeError, NameError)


def _safe(fn):
    def wrapped(*args):
        try:
            return fn(*args)
        except _PROGRAMMING_ERRORS:
            raise
        except Exception as exc:  # per-nu isolation by design
            return exc

    return wrapped


def _recorded(runs: List[SweepRun], indices, scale: float, run):
    """run(), a regularized integration, listed in runs whether it returns or raises.

    A failure is listed with the partial trajectory its exception carries,
    if any.
    """
    try:
        traj = run()
    except Exception as exc:
        traj = getattr(exc, "trajectory", None)
        runs.append(SweepRun(list(indices), scale, "failed") if traj is None
                    else SweepRun(list(indices), scale, traj.status, traj.stats))
        raise
    runs.append(SweepRun(list(indices), scale, traj.status, traj.stats))
    return traj


def _passage(runs: List[SweepRun], indices, esc: EscapeResult, rf: RegularizedField,
             tau_stop: float, opts: IntegrationOptions):
    """The on-ray passage in ball units, (probe, continuation), listed in runs
    as one run at scale 1 whether it returns or raises: esc's run, and rf's
    run from its end to tau_stop (None, and the entry completed, when the
    probe's run reaches tau_stop).  A failed probe run raises StepFailure
    with esc's certificate.
    """
    probe = esc.run
    if probe.status == "step_failure" or tau_stop <= probe.t_end:
        status = "completed" if probe.status != "step_failure" else probe.status
        runs.append(SweepRun(list(indices), 1.0, status, probe.stats))
        if probe.status == "step_failure":
            raise StepFailure(esc.certificate)
        return probe, None
    try:
        return probe, _recorded(runs, indices, 1.0, lambda: integrate_regularized(
            rf, probe.final_state, probe.t_end, tau_stop, opts))
    finally:  # the probe run's stats plus the continuation's, h_min and h_max over both
        a, b = probe.stats, runs[-1].stats or SolverStats()
        runs[-1].stats = SolverStats(a.rhs_calls + b.rhs_calls, a.accepted + b.accepted,
                                     a.rejected + b.rejected, min(a.h_min, b.h_min),
                                     max(a.h_max, b.h_max))


def _read_passage(probe, cont, pre, t_grid, t_b, nus, p):
    """Samples nu X((t - t_b) / nu^p) per nu, pre(t) before the entry, in one
    sample call per run; nu^p a float power (an array power rounds differently)."""
    tau = np.concatenate([(t_grid - t_b) / float(nu) ** p for nu in nus])
    scale = np.repeat(nus, len(t_grid))[:, None]
    before, past = tau < probe.t0, tau > probe.t_end  # the entry, the probe run's end
    inside = ~(before | past)
    sol = np.empty((len(tau), probe.states.shape[1]))
    if before.any():
        sol[before] = pre(np.tile(t_grid, len(nus))[before])
    sol[inside] = scale[inside] * probe.sample(tau[inside])
    if past.any():
        sol[past] = scale[past] * cont.sample(tau[past])
    return np.split(sol, len(nus))
