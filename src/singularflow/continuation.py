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
The tables, G among them, are periodic cubic splines (_PeriodicCubic, numpy
only) built from one high-resolution period of the cycle.  The improper
integral defining the phase map psi is reduced exactly through the
periodicity of the radial integral (a geometric series over past periods),
so no truncation of the infinite history is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from .attractors import AttractorInfo, catalog_attractors, rescaled_escape
from .errors import NonPositiveMean, OutOfDomain, SignError
from .fields import SingularField, eval_field
from .integrators import DEFAULT_OPTIONS, IntegrationOptions, integrate
from .regularize import RegularizedField, integrate_regularized
from .renorm import classify_blowup, renormalized_system

_MEAN_DELTA = 1e-6
# phases per broadcast block of the estimate_phase scan: with the 90-point
# time grids of the sweeps, the scan's temporaries peak near 0.5 MB
_SCAN_BLOCK = 90


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

    def radial_integral(self, s):
        """Integral of F_r along the cycle from 0 to s."""
        tb = self._tables
        s = np.asarray(s, dtype=float)
        return tb["mean"] * s + tb["J_per"](s)

    def psi(self, s):
        tb = self._tables
        s = np.asarray(s, dtype=float)
        return tb["mean"] * s + tb["psi_per"](s)

    def psi_inv(self, xi):
        """Monotone inverse of psi: a linear-interpolation seed, then Newton polish."""
        tb = self._tables
        xi = np.asarray(xi, dtype=float)
        T, mean = tb["T"], tb["mean"]
        span = T * mean
        k = np.floor((xi - tb["psi0"]) / span)
        xi_red = xi - k * span  # in [psi(0), psi(T))
        s = tb["psi_inv_base"](xi_red)
        for _ in range(3):
            psi_s = self.psi(s)
            s = s - (psi_s - xi_red) / self._psi_prime(s, psi_s)
        return s + k * T

    def psi_prime(self, s):
        return self._psi_prime(s, self.psi(s))

    def _psi_prime(self, s, psi_s):
        """d psi / ds at s, given psi_s = psi(s)."""
        one_minus_a = 1.0 - self.alpha
        return np.exp(one_minus_a * (self.radial_integral(s) - psi_s)) / one_minus_a

    def phi_diag(self, s):
        """phi(s, s): log of the radial profile of the periodic solution."""
        return self.psi(s) - self.radial_integral(s)

    def orbit_point(self, s):
        y = self._tables["orbit"](s)
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
        """Cycle-family points dt^p G(p log dt + zeta) for the phases zeta.

        One lookup in the periodic cubic spline of the log-profile G, which
        reduces xi into [psi(0), psi(0) + zeta_period) itself.  dt and zeta
        broadcast against each other; the points gain a last axis of length
        d.  Every entry is computed elementwise, so a phase in a broadcast
        block gives the same bits as on its own.
        """
        p = 1.0 / (1.0 - self.alpha)
        return (dt**p)[..., None] * self._tables["profile"](p * np.log(dt) + zeta)


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

class _PeriodicCubic:
    """The C2 periodic cubic spline through (x_k, y_k), k = 0..n, with y_n = y_0.

    This is the interpolant of CubicSpline(x, y, bc_type="periodic"): with
    h_k = x_{k+1} - x_k and delta_k = (y_{k+1} - y_k) / h_k, the node slopes
    m_k solve the cyclic tridiagonal system (indices mod n)

        h_k m_{k-1} + 2 (h_{k-1} + h_k) m_k + h_{k-1} m_{k+1}
            = 3 (h_k delta_{k-1} + h_{k-1} delta_k),

    here by Sherman-Morrison around one Thomas sweep.  y holds scalars, shape
    (n+1,), or rows, shape (n+1, d); a call returns q.shape + y.shape[1:].
    A call reduces q to x_0 + (q - x_0) mod P with P = x_n - x_0, finds each
    piece through a table over 2n equal buckets of the period, and evaluates
    the piece's cubic by Horner.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._shape = y.shape[1:]
        rows = y.reshape(len(x), -1)
        h = np.diff(x)
        n = len(h)
        delta = np.diff(rows, axis=0) / h[:, None]
        h_prev = np.roll(h, 1)
        rhs = 3.0 * (h[:, None] * np.roll(delta, 1, axis=0) + h_prev[:, None] * delta)
        # the cyclic matrix A, with corners a = A[0, n-1] = h_0 and
        # c = A[n-1, 0] = h_{n-2}, is T + u v^T for a tridiagonal T,
        # u = (g, 0, ..., 0, c) and v = (1, 0, ..., 0, a/g); with T m = rhs
        # and T z = u, the slopes are m - z (v.m) / (1 + v.z)
        diag = 2.0 * (h_prev + h)
        g = -diag[0]
        a, c = h[0], h_prev[-1]
        diag[0] -= g
        diag[-1] -= a * c / g
        u = np.zeros((n, 1))
        u[0], u[-1] = g, c
        sol = _thomas(h, diag, h_prev, np.hstack([rhs, u]))
        m, z = sol[:, :-1], sol[:, -1:]
        m -= z * ((m[0] + a / g * m[-1]) / (1.0 + z[0] + a / g * z[-1]))
        # per piece, c3 t^3 + c2 t^2 + m_k t + y_k with t = q - x_k; four
        # contiguous (n, d) gathers cost less than one strided (n, 4, d) one
        hc = h[:, None]
        curv = (m + np.roll(m, -1, axis=0) - 2.0 * delta) / hc
        self._coef = (curv / hc, (delta - m) / hc - curv, np.ascontiguousarray(m), rows[:-1])

        self._x0, self._period = x[0], x[-1] - x[0]
        self._x = x[:-1]
        self._next = np.append(x[1:-1], np.inf)
        # the bucket map is monotone, so the piece holding q starts at or
        # after _first[bucket(q)], the last piece starting in an earlier
        # bucket, and at most _passes pieces start in q's own bucket
        self._scale = 2 * n / self._period
        starts = np.minimum(((self._x - self._x0) * self._scale).astype(np.intp), 2 * n - 1)
        self._first = np.maximum(np.searchsorted(starts, np.arange(2 * n)) - 1, 0)
        self._passes = int(np.bincount(starts).max())

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        q = self._x0 + (q - self._x0) % self._period
        # mode="clip" maps the top end q = x_n, and NaN, to an end bucket
        k = self._first.take(((q - self._x0) * self._scale).astype(np.intp), mode="clip")
        for _ in range(self._passes):
            k += q >= self._next.take(k)
        t = (q - self._x.take(k))[..., None]
        c3, c2, c1, c0 = self._coef
        out = c3.take(k, axis=0) * t
        out += c2.take(k, axis=0)
        out *= t
        out += c1.take(k, axis=0)
        out *= t
        out += c0.take(k, axis=0)
        return out.reshape(q.shape + self._shape)


def _thomas(lower, diag, upper, rhs):
    """Solve lower[k] x[k-1] + diag[k] x[k] + upper[k] x[k+1] = rhs[k], k < n.

    One forward elimination and back substitution (lower[0] and upper[n-1]
    are unused) for the m columns of rhs, shape (n, m).  It runs on Python
    floats: with n in the thousands and m <= 4, a NumPy call per row would
    cost more than the arithmetic.
    """
    up = upper.tolist()
    w, piv = [0.0], [float(diag[0])]
    for lk, dk, uk in zip(lower.tolist()[1:], diag.tolist()[1:], up):
        w.append(lk / piv[-1])
        piv.append(dk - w[-1] * uk)
    cols = []
    for r in rhs.T.tolist():
        acc, fwd = 0.0, []
        for wk, rk in zip(w, r):
            acc = rk - wk * acc
            fwd.append(acc)
        acc, back = 0.0, []
        for rk, uk, pk in zip(reversed(fwd), reversed(up), reversed(piv)):
            acc = (rk - uk * acc) / pk
            back.append(acc)
        cols.append(back[::-1])
    return np.array(cols).T


def _panel_gauss_cumulative(s_grid, f_vals_fn, order=12):
    """Cumulative integral of a smooth function over the grid panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = s_grid[:-1]
    b = s_grid[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * nodes[None, :]
    vals = f_vals_fn(pts.ravel()).reshape(pts.shape)
    panel = (vals * weights[None, :]).sum(axis=1) * half[:, 0]
    return np.concatenate([[0.0], np.cumsum(panel)])


def build_cycle_family(
    field: SingularField,
    cycle: AttractorInfo,
    t_b: float,
    n_grid: int = 2048,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> ContinuationFamily:
    """Tabulate the post-blowup family generated by a defocusing limit cycle.

    One period of the cycle is re-integrated at tight tolerance to sample the
    orbit and the running integral J of F_r on a uniform grid.  The phase map
    psi and the radial profile follow from the cumulative exponential weight
    K(s) = integral_{-inf}^s exp((1-alpha) J(u)) du, whose tail over past
    periods sums exactly as a geometric series.  The log-profile
    G(xi) = exp(-phi(s, s)) y_c(s), with phi(s, s) = psi(s) - J(s), is then
    known with no inversion at the nodes xi_k = psi(s_k); one periodic cubic
    spline through them, of period zeta_period = T <F_r>, is what eval uses.
    The four periodic tables are _PeriodicCubic splines, which reduce their
    argument into the period themselves; psi_inv's Newton seed is np.interp
    over the increasing psi table.
    """
    if cycle.kind != "limit_cycle":
        raise ValueError("build_cycle_family needs a limit-cycle attractor")
    alpha = field.alpha
    one_minus_a = 1.0 - alpha
    d = field.dimension

    anchor = cycle.location[0]
    T = float(cycle.period)

    rhs, project = renormalized_system(field, extras=("z",))
    run_opts = IntegrationOptions(
        rtol=min(opts.rtol, 1e-12), atol=min(opts.atol, 1e-14), r_floor=0.0
    )
    traj = integrate(rhs, np.concatenate([anchor, [0.0]]), 0.0, T, run_opts, postprocess=project)
    s_grid = np.linspace(0.0, T, n_grid + 1)
    uu = traj.sample(s_grid)
    orbit = uu[:, :d]
    orbit /= np.linalg.norm(orbit, axis=1)[:, None]
    J_tab = uu[:, d].copy()

    mean = J_tab[-1] / T
    if mean <= _MEAN_DELTA:
        raise NonPositiveMean(f"cycle mean radial value {mean!r} is not positive")

    # periodic part of J; endpoints agree exactly by construction of mean
    Jp = J_tab - mean * s_grid
    Jp[-1] = Jp[0]
    orbit[-1] = orbit[0]
    J_per = _PeriodicCubic(s_grid, Jp)
    orbit_sp = _PeriodicCubic(s_grid, orbit)

    def weight(s):
        return np.exp(one_minus_a * (mean * s + J_per(s)))

    K_partial = _panel_gauss_cumulative(s_grid, weight)
    W = K_partial[-1]
    q = math.exp(-one_minus_a * mean * T)
    K0 = W * q / (1.0 - q)  # exact geometric tail over s < 0
    K_tab = K0 + K_partial

    psi_tab = np.log(K_tab) / one_minus_a
    psi_per = psi_tab - mean * s_grid
    psi_per[-1] = psi_per[0]  # exact identity K(T) = K(0)/q up to quadrature
    psi_per_sp = _PeriodicCubic(s_grid, psi_per)
    psi_inv_base = partial(np.interp, xp=psi_tab, fp=s_grid)  # psi_tab increases

    xi_nodes = psi_tab.copy()
    xi_nodes[-1] = psi_tab[0] + mean * T  # psi(T) = psi(0) + T <F_r> exactly
    G = np.exp(J_tab - psi_tab)[:, None] * orbit
    G[-1] = G[0]
    profile = _PeriodicCubic(xi_nodes, G)

    tables = {
        "T": T,
        "mean": mean,
        "J_per": J_per,
        "orbit": orbit_sp,
        "psi_per": psi_per_sp,
        "psi_inv_base": psi_inv_base,
        "psi0": psi_tab[0],
        "profile": profile,
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


def residual_check(fam, field: SingularField, t_grid, zeta: float = 0.0, h: float = 1e-6) -> float:
    """Sup over the grid of |d/dt x(t) - f(x(t))| relative to |f|.

    fam may be a ContinuationFamily or any callable x(t, zeta).
    """
    ev = fam.eval if hasattr(fam, "eval") else fam
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        xm = ev(t - h, zeta)
        xp = ev(t + h, zeta)
        dx = (xp - xm) / (2 * h)
        f = eval_field(field, ev(t, zeta))
        denom = float(np.linalg.norm(f))
        worst = max(worst, float(np.linalg.norm(dx - f)) / denom)
    return worst


def geometric_sequence(T: float, mean_fr: float, chi: float, n_range: Sequence[int]) -> np.ndarray:
    """The vanishing subsequence nu_n = exp(-T <F_r> n + chi)."""
    if not (T > 0 and mean_fr > 0):
        raise ValueError("geometric subsequences need T > 0 and a positive mean")
    n = np.asarray(list(n_range), dtype=float)
    return np.exp(-T * mean_fr * n + chi)


def estimate_phase(fam: ContinuationFamily, t_grid, samples, n_grid: int = 720):
    """Best-fit phase: minimize the sup distance to the family over zeta.

    Coarse scan over n_grid phases, then golden-section refinement; returns
    (zeta, sup_distance, uncertainty) with zeta reduced to [0, zeta_period).
    fam must be a cycle family (ValueError otherwise).  The scan evaluates
    blocks of phases at once, each giving the same distances as one fam.eval
    per phase.
    """
    if fam.kind != "cycle_family":
        raise ValueError("estimate_phase needs a cycle_family")
    t_grid = np.asarray(t_grid, dtype=float)
    samples = np.asarray(samples, dtype=float)
    span = fam.zeta_period

    def dist(z):
        return float(np.max(np.linalg.norm(samples - fam.eval(t_grid, z), axis=1)))

    zg = np.linspace(0.0, span, n_grid, endpoint=False)
    dt = fam._elapsed(t_grid)
    vals = np.concatenate([
        np.max(np.linalg.norm(samples - fam._cycle_points(dt, zb[:, None]), axis=-1), axis=1)
        for zb in np.split(zg, range(_SCAN_BLOCK, n_grid, _SCAN_BLOCK))
    ])
    i = int(np.argmin(vals))
    step = span / n_grid
    a, b = zg[i] - step, zg[i] + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, dpt = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = dist(c), dist(dpt)
    for _ in range(60):
        if fc < fd:
            b, dpt, fd = dpt, c, fc
            c = b - invphi * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, dpt, fd
            dpt = a + invphi * (b - a)
            fd = dist(dpt)
    z = 0.5 * (a + b)
    return z % span, dist(z), b - a


# ---------------------------------------------------------------------------
# Inviscid sweep
# ---------------------------------------------------------------------------

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
    zeta_uncertainty: Optional[float] = None
    decay_exponent: Optional[float] = None
    decay_r2: Optional[float] = None
    escape: Optional[object] = None
    family: Optional[ContinuationFamily] = None

    def to_dict(self):
        return {
            "schema_version": "1",
            "nu": np.asarray(self.nu_values, dtype=float).tolist(),
            "t_grid": self.t_grid.tolist(),
            "t_b": self.t_b,
            "verdict": self.verdict,
            "reference": self.reference,
            "matched_zeta": self.matched_zeta,
            "zeta_uncertainty": self.zeta_uncertainty,
            "decay_exponent": self.decay_exponent,
            "decay_r2": self.decay_r2,
            "distances": self.pairwise_sup_distances.tolist(),
            "errors": self.errors,
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
    field: SingularField,
    make_regularization: Callable[[float], RegularizedField],
    x0,
    t_grid,
    nu_list,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
    t0: float = 0.0,
    catalog: Optional[List[AttractorInfo]] = None,
) -> SweepReport:
    """Run the regularized problem for each nu and classify the limit.

    make_regularization(nu) builds the regularized field for one nu value.
    The blowup time is anchored on the ideal problem (closed form on the
    collapse ray, renormalized classification otherwise); the rescaled
    escape probe then decides which limit to compare against: the trivial
    rest solution, the unique ray, or the cycle family with a fitted phase.
    Per-nu failures are recorded without aborting the sweep.
    """
    x0 = np.asarray(x0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    nu_values = np.asarray(list(nu_list), dtype=float)
    r0 = float(np.linalg.norm(x0))
    y0 = x0 / r0

    if catalog is None:
        catalog = catalog_attractors(field, opts=opts)
    fps = [a for a in catalog if a.kind == "fixed_point"]

    star = min(fps, key=lambda a: a.distance_to(y0), default=None)
    generic = True
    if star is not None and star.distance_to(y0) < 1e-9 and star.label == "focusing":
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
        y_end = verdict.renorm.y[-1]
        star = min(fps, key=lambda a: a.distance_to(y_end), default=None)
        generic = star is not None and star.stable and star.distance_to(y_end) < 1e-6

    # per-nu regularized runs
    def run_one(nu):
        rf = make_regularization(nu)
        traj = integrate_regularized(rf, x0, t0, float(t_grid[-1]) * (1 + 1e-12), opts)
        return traj.sample(t_grid)

    solutions = []
    errors = []
    for res in map(_safe(run_one), nu_values):
        if isinstance(res, Exception):
            solutions.append(None)
            errors.append(f"{type(res).__name__}: {res}")
        else:
            solutions.append(res)
            errors.append(None)

    n = len(nu_values)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if solutions[i] is None or solutions[j] is None:
                distances[i, j] = distances[j, i] = math.nan
            else:
                dd = float(np.max(np.linalg.norm(solutions[i] - solutions[j], axis=1)))
                distances[i, j] = distances[j, i] = dd

    report = SweepReport(
        nu_values, t_grid, solutions, errors, distances, "undetermined", t_b
    )
    if not generic:
        report.verdict = "undetermined"
        report.reference = "non-generic blowup direction"
        return report

    esc = rescaled_escape(
        field, make_regularization(1.0), star.location, opts, catalog=catalog
    )
    report.escape = esc
    good = [k for k in range(n) if solutions[k] is not None]
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
            [np.max(np.linalg.norm(solutions[k][post] - ray_vals, axis=1)) for k in good]
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
    zs = []
    unc = None
    for k in good:
        z, _, u = estimate_phase(fam, t_grid[post], solutions[k][post])
        zs.append(z)
        unc = u
    report.matched_zeta = zs
    report.zeta_uncertainty = unc
    span = fam.zeta_period
    difs = np.abs(np.diff(zs))
    difs = np.minimum(difs, span - difs) / span  # wrapped, as a fraction of the period
    if len(difs) == 0:
        return report
    shrinking = bool(np.all(np.diff(difs) <= 0.05)) and difs[-1] <= 0.25
    report.verdict = "converged_to(cycle_family)" if shrinking else "diverging_phases"
    return report


# Errors that mean the code is wrong, not that one nu failed: never recorded.
_PROGRAMMING_ERRORS = (TypeError, KeyError, AttributeError, NameError)


def _safe(fn):
    def wrapped(arg):
        try:
            return fn(arg)
        except _PROGRAMMING_ERRORS:
            raise
        except Exception as exc:  # per-nu isolation by design
            return exc

    return wrapped
