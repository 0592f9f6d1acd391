"""Smoothed fields: the singular core replaced inside a ball of radius nu.

The regularized field equals r^alpha F(x/r) outside the ball and
nu^alpha G(x/nu) inside, with G chosen so the patched field is C^1.  The
built-in construction blends the ideal field with a constant vector through
the cubic weight xi(rho) = 3 rho^2 - 2 rho^3; two one-dimensional presets
reproduce the expelling (sigma = +-1) and trapping inner maps used for the
sgn(x)|x|^alpha prototype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularBlend, TooManyCrossings
from .fields import SingularField, eval_field
from .integrators import (
    DEFAULT_OPTIONS,
    IntegrationOptions,
    NoEvent,
    Trajectory,
    _integrate_to_crossing,
    _Sphere,
)

_SMOOTH_DIRECTIONS = 200
_JAC_STEP_FRAC = 1e-6
_MAX_CROSSINGS = 100000


def blend_weight(rho):
    """Cubic interpolation weight: 0 at the center, 1 at the patch boundary."""
    return 3.0 * rho**2 - 2.0 * rho**3


@dataclass(frozen=True)
class RegularizedField:
    """A singular field patched with inner map G on the unit ball, scaled by nu."""

    base: SingularField
    nu: float
    inner_map: Callable[[np.ndarray], np.ndarray]
    blend_kind: str = "custom"

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("nu must be positive")

    def with_nu(self, nu: float) -> "RegularizedField":
        return RegularizedField(self.base, nu, self.inner_map, self.blend_kind)


def _blend_inner_map(base: SingularField, g0: np.ndarray):
    def inner(X, _base=base, _g0=g0):
        X = np.asarray(X, dtype=float)
        rho = math.sqrt(float(X.dot(X)))
        if rho == 0.0:
            return _g0.copy()
        w = blend_weight(rho)
        return w * (rho**_base.alpha) * np.asarray(_base.sphere_map(X / rho), dtype=float) + (
            1.0 - w
        ) * _g0

    return inner


def make_polynomial_blend(base: SingularField, g0, nu: float) -> RegularizedField:
    """Inner map xi(rho) f(X) + (1 - xi(rho)) g0 on the unit ball.

    The cubic weight kills the r^alpha singularity only for alpha > -2;
    below that the blend is not even continuous at the center, so it is
    rejected and a custom inner map must be supplied instead.
    """
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (base.dimension,) or not np.all(np.isfinite(g0)):
        raise ValueError("g0 must be a finite vector matching the field dimension")
    if base.alpha <= -2.0:
        raise SingularBlend(
            f"polynomial blend needs alpha > -2 (got {base.alpha}); "
            "supply a custom inner_map"
        )
    return RegularizedField(base, nu, _blend_inner_map(base, g0), blend_kind="polynomial_blend")


def make_preset_1d(base: SingularField, sigma: int, nu: float) -> RegularizedField:
    """One-dimensional presets: sigma = +-1 expel right/left, sigma = 0 trap."""
    if base.dimension != 1:
        raise ValueError("1-d presets require a one-dimensional base field")
    if base.alpha <= -2.0:
        raise SingularBlend(f"polynomial blend needs alpha > -2 (got {base.alpha})")
    if sigma in (1, -1):
        core = (lambda x, s=float(sigma): np.array([0.5 * (s + x[0])]))
        kind = "expel_right" if sigma == 1 else "expel_left"
    elif sigma == 0:
        core = (lambda x: np.array([(1.0 - 8.0 * x[0]) / 6.0]))
        kind = "trap"
    else:
        raise ValueError("sigma must be +1, -1 or 0 (trap)")

    def inner(X, _base=base, _core=core):
        X = np.asarray(X, dtype=float)
        rho = abs(float(X[0]))
        if rho == 0.0:
            return _core(X)
        w = blend_weight(rho)
        f = rho**_base.alpha * np.asarray(_base.sphere_map(X / rho), dtype=float)
        return w * f + (1.0 - w) * _core(X)

    return RegularizedField(base, nu, inner, blend_kind=kind)


def eval_regularized(rf: RegularizedField, x) -> np.ndarray:
    """Evaluate the patched field; defined everywhere including the origin."""
    return regularized_rhs(rf)(0.0, x)


def regularized_rhs(rf: RegularizedField):
    """The right-hand side (t, x) -> patched field at x, built once per rf.

    Outside the ball it is eval_field, which raises OriginEvaluation for an
    infinite state; a NaN state takes the inner branch.
    """
    nu = float(rf.nu)
    base = rf.base
    inner_map = rf.inner_map
    inner_scale = rf.nu**base.alpha

    def rhs(_t, x):
        x = np.asarray(x, dtype=float)
        # x.dot(x) is x @ x bit for bit (the same BLAS dot), with less overhead
        if math.sqrt(float(x.dot(x))) > nu:
            return eval_field(base, x)
        return inner_scale * np.asarray(inner_map(x / nu), dtype=float)

    return rhs


@dataclass(frozen=True)
class SmoothnessReport:
    max_value_jump: float
    max_jacobian_jump: float
    value_tol: float
    jacobian_tol: float
    n_directions: int
    passed: bool


def _directions(d, n):
    if d == 1:
        return [np.array([1.0]), np.array([-1.0])]
    # deterministic quasi-uniform directions
    rng = np.random.default_rng(12345)
    pts = rng.standard_normal((n, d))
    return [p / np.sqrt(p @ p) for p in pts]


def _one_sided_jacobians(rf, y, h):
    """One-sided difference Jacobians of the two branches at r = nu.

    Each coordinate probe steps away from the boundary on its own side
    (outward for the ideal branch, inward for the inner map), so custom
    inner maps are never evaluated outside the closed unit ball by more
    than O(h^2/nu).
    """
    d = rf.base.dimension
    p = rf.nu * y
    scale = rf.nu**rf.base.alpha
    J_out = np.empty((d, d))
    J_in = np.empty((d, d))
    f_out = eval_field(rf.base, p)
    f_in = scale * np.asarray(rf.inner_map(y), dtype=float)
    for j in range(d):
        e = np.zeros(d)
        sj = 1.0 if y[j] >= 0 else -1.0
        e[j] = sj * h
        J_out[:, j] = sj * (eval_field(rf.base, p + e) - f_out) / h
        Xm = (p - e) / rf.nu
        J_in[:, j] = sj * (f_in - scale * np.asarray(rf.inner_map(Xm), dtype=float)) / h
    return f_out, f_in, J_out, J_in


def check_smoothness(
    rf: RegularizedField,
    n_directions: int = _SMOOTH_DIRECTIONS,
    jacobian_tol: float = 1e-3,
) -> SmoothnessReport:
    """Probe the C^1 patching contract across the sphere r = nu.

    Reports the worst value mismatch of the two branches and the worst
    relative disagreement of one-sided finite-difference Jacobians (step
    1e-6 * nu, so the O(h) difference error motivates the 1e-3 default).
    """
    h = _JAC_STEP_FRAC * rf.nu
    value_tol = 1e-9 * rf.nu**rf.base.alpha
    vmax = 0.0
    jmax = 0.0
    dirs = _directions(rf.base.dimension, n_directions)
    for y in dirs:
        f_out, f_in, J_out, J_in = _one_sided_jacobians(rf, y, h)
        vmax = max(vmax, float(np.max(np.abs(f_out - f_in))))
        denom = 1.0 + float(np.max(np.abs(J_out)))
        jmax = max(jmax, float(np.max(np.abs(J_out - J_in))) / denom)
    return SmoothnessReport(
        max_value_jump=vmax,
        max_jacobian_jump=jmax,
        value_tol=value_tol,
        jacobian_tol=jacobian_tol,
        n_directions=len(dirs),
        passed=(vmax <= value_tol and jmax <= jacobian_tol),
    )


def integrate_regularized(
    rf: RegularizedField,
    x0,
    t0: float,
    t1: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> Trajectory:
    """Integrate the regularized problem, restarting at r = nu crossings.

    The patched field is only C^1 at the ball boundary, so the run is split
    into smooth segments separated by located crossings; the stitched
    trajectory keeps dense output across all segments.
    """
    rhs = regularized_rhs(rf)
    x = np.asarray(x0, dtype=float)
    t = t0
    seg_opts = IntegrationOptions(
        rtol=opts.rtol, atol=opts.atol, max_step=opts.max_step, r_floor=0.0, horizon=opts.horizon
    )
    nu = float(rf.nu)
    boundary = _Sphere(nu)
    times = [t0]
    states = [x.copy()]
    derivs = [np.asarray(rhs(t0, x), dtype=float)]
    inside = math.sqrt(float(x @ x)) <= nu
    crossings = 0
    while t < t1:
        direction = +1 if inside else -1
        try:
            t_e, x_e, seg = _integrate_to_crossing(rhs, x, t, boundary, direction, seg_opts, t1)
        except NoEvent as exc:
            # no crossing before t1: the search already ran the last segment
            t_e, seg = None, exc.trajectory
        times.extend(seg.times[1:].tolist())
        states.extend(list(seg.states[1:]))
        derivs.extend(list(seg.derivs[1:]))
        if t_e is None:
            break
        crossings += 1
        if crossings > _MAX_CROSSINGS:
            raise TooManyCrossings(
                f"more than {_MAX_CROSSINGS} crossings of |x| = {nu!r} by t = {t_e!r}; "
                "check the configuration"
            )
        t, x = t_e, x_e
        inside = not inside
    return Trajectory(np.array(times), np.array(states), np.array(derivs), "completed")
