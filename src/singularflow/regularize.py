"""Smoothed fields: the singular core replaced inside a ball of radius nu.

The regularized field equals r^alpha F(x/r) outside the ball and
nu^alpha G(x/nu) inside, with G chosen so the patched field is C^1.  The
built-in construction blends the ideal field with a constant vector through
the cubic weight xi(rho) = 3 rho^2 - 2 rho^3; two one-dimensional presets
reproduce the expelling (sigma = +-1) and trapping inner maps used for the
sgn(x)|x|^alpha prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SingularBlend
from .fields import _IDEAL_LINES, SingularField, _checked_radius, eval_field
from .integrators import (
    DEFAULT_OPTIONS, IntegrationOptions, Trajectory, _float_form, _inlined, _rendered,
    _with_floats, integrate,
)

# check_smoothness's probe directions, difference step as a fraction of nu,
# and bound on the relative Jacobian jump (far above the step's O(h) error)
_SMOOTH_DIRECTIONS = 200
_JAC_STEP_FRAC = 1e-6
_JACOBIAN_TOL = 1e-3


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

    @cached_property
    def _rhs(self):  # regularized_rhs, built once per field
        return regularized_rhs(self)

    def __getstate__(self):  # the cached right-hand side is rebuilt, not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_rhs"}


# A blend's inner map, from X as x_ to g_: the ideal field at X weighted by
# the cubic blend_weight(r), r = |X|, plus the core c_; at r = 0 the core
_BLEND_LINES = '''\
r = math.hypot({x_})
{c_}, = core([{x_}])
{g_}, = {c_},
if r != 0.0:
    w = 3.0 * r**2 - 2.0 * r**3  # blend_weight, inline
    rest = 1.0 - w
    {h_}, = ideal([{x_}])
    {g_}, = {w * h_ + rest * c_},
'''

_INNER_TEMPLATE = '''\
def blend_inner_map(alpha, smap, core):
    def inner(X):
        {x_}, = X
        {g_}, = inner([{x_}])
        return [{g_}]
    return inner
'''


def _blend_inner_map(base: SingularField, core, core_source=None):
    """The inner map xi(rho) f(X) + (1 - xi(rho)) core(X) of a blend, with f
    the ideal field (fields._IDEAL_LINES) at rho = math.hypot(*X) > 0.

    core_source, lines c_0 = ... from X's components x_0, ..., is rendered
    in place of the core's call (the polynomial blend's unpacks core, its
    g0); with none, core maps X, a list of Python floats, to a list of the
    same length.  The map carries .blend, (base, core, core_source), from
    which regularized_rhs renders the same lines.  The cubic weight kills
    the r^alpha singularity only for alpha > -2; below that the blend is not
    even continuous at the center, so it is rejected and a custom inner map
    must be supplied instead.
    """
    alpha = base.alpha
    if alpha <= -2.0:
        raise SingularBlend(
            f"polynomial blend needs alpha > -2 (got {alpha}); supply a custom inner_map"
        )
    source, smap = _inlined(base.sphere_map)
    inner = _with_floats(_rendered(_INNER_TEMPLATE, base.dimension, inner=_BLEND_LINES,
                                   ideal=_IDEAL_LINES, smap=source, core=core_source)(
        alpha, smap, core))
    inner.blend = base, core, core_source
    return inner


def make_polynomial_blend(base: SingularField, g0, nu: float) -> RegularizedField:
    """Inner map xi(rho) f(X) + (1 - xi(rho)) g0 on the unit ball (alpha > -2)."""
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (base.dimension,) or not np.all(np.isfinite(g0)):
        raise ValueError("g0 must be a finite vector matching the field dimension")
    inner = _blend_inner_map(base, g0.tolist(), "{c_}, = core\n")
    return RegularizedField(base, nu, inner, blend_kind="polynomial_blend")


def make_preset_1d(base: SingularField, sigma: int, nu: float) -> RegularizedField:
    """One-dimensional presets: sigma = +-1 expel right/left, sigma = 0 trap.

    Each is the blend of _blend_inner_map with an affine core: (sigma + X)/2
    to expel, (1 - 8 X)/6 to trap.
    """
    if base.dimension != 1:
        raise ValueError("1-d presets require a one-dimensional base field")
    if sigma in (1, -1):
        core = f"c_0 = 0.5 * ({float(sigma)!r} + x_0)\n"
        kind = "expel_right" if sigma == 1 else "expel_left"
    elif sigma == 0:
        core = "c_0 = (1.0 - 8.0 * x_0) / 6.0\n"
        kind = "trap"
    else:
        raise ValueError("sigma must be +1, -1 or 0 (trap)")
    return RegularizedField(base, nu, _blend_inner_map(base, None, core), blend_kind=kind)


def eval_regularized(rf: RegularizedField, x) -> np.ndarray:
    """Evaluate the patched field; defined everywhere including the origin."""
    return rf._rhs(0.0, x)


_RHS_TEMPLATE = '''\
def regularized_rhs(nu, alpha, inner_scale, checked_radius, smap, inner, core):
    def rhs(_t, x):
        {x_}, = x
        r = math.hypot({x_})
        if r > nu:
            r = checked_radius(r)
            {h_}, = ideal([{x_}])
            return [{h_}]
        {x_}, = {x_ / nu},
        {g_}, = inner([{x_}])
        return [{inner_scale * g_}]
    return rhs
'''


def regularized_rhs(rf: RegularizedField):
    """The right-hand side (t, x) -> patched field at x, built once per rf.

    With r = math.hypot(*x), it is the ideal field (fields._IDEAL_LINES)
    for r > nu, eval_field bit for bit, which raises OriginEvaluation for an
    infinite state; a NaN state takes the inner branch.  It is written once,
    on Python floats, as _RHS_TEMPLATE, and exposed as its .floats attribute
    (see integrate).  A blend of rf.base (_blend_inner_map) is rendered in
    it, core and sphere map included, so one call evaluates the field; any
    other inner map is called, through its float form when it has one.
    """
    base, blend = rf.base, getattr(rf.inner_map, "blend", None)
    inner_source, inner, core, core_source = None, _float_form(rf.inner_map), None, None
    if blend is not None and blend[0] == base:
        inner_source, inner, (core, core_source) = _BLEND_LINES, None, blend[1:]
    source, smap = _inlined(base.sphere_map)
    rhs = _rendered(_RHS_TEMPLATE, base.dimension, inner=inner_source, ideal=_IDEAL_LINES,
                    smap=source, core=core_source)(
        float(rf.nu), base.alpha, float(rf.nu**base.alpha), _checked_radius, smap, inner, core)
    return _with_floats(rhs)


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


def check_smoothness(rf: RegularizedField) -> SmoothnessReport:
    """Probe the C^1 patching contract across the sphere r = nu.

    Reports the worst value mismatch of the two branches and the worst
    relative disagreement of one-sided finite-difference Jacobians over
    _SMOOTH_DIRECTIONS (200) directions (two in one dimension), with step
    _JAC_STEP_FRAC * nu = 1e-6 nu; it passes when the Jacobian jump is at
    most _JACOBIAN_TOL (1e-3), well above the O(h) difference error.
    """
    h = _JAC_STEP_FRAC * rf.nu
    value_tol = 1e-9 * rf.nu**rf.base.alpha
    vmax = 0.0
    jmax = 0.0
    dirs = _directions(rf.base.dimension, _SMOOTH_DIRECTIONS)
    for y in dirs:
        f_out, f_in, J_out, J_in = _one_sided_jacobians(rf, y, h)
        vmax = max(vmax, float(np.max(np.abs(f_out - f_in))))
        denom = 1.0 + float(np.max(np.abs(J_out)))
        jmax = max(jmax, float(np.max(np.abs(J_out - J_in))) / denom)
    return SmoothnessReport(
        max_value_jump=vmax,
        max_jacobian_jump=jmax,
        value_tol=value_tol,
        jacobian_tol=_JACOBIAN_TOL,
        n_directions=len(dirs),
        passed=(vmax <= value_tol and jmax <= _JACOBIAN_TOL),
    )


def integrate_regularized(
    rf: RegularizedField,
    x0,
    t0: float,
    t1: float,
    opts: IntegrationOptions = DEFAULT_OPTIONS,
) -> Trajectory:
    """Integrate the regularized problem as one adaptive run from t0 to t1.

    The patched field is C^1, so it is an ordinary right-hand side for the
    error-controlled stepper: the jump of its second derivative at |x| = nu
    is left to step-size control, as is any discontinuity in a higher
    derivative (Hairer, Norsett and Wanner, Solving ODEs I, section II.6),
    and no crossing is located.  At rtol 1e-13 and atol 1e-20 the one run
    agrees to within 1.4e-10 relative with runs restarted at every located
    crossing, at 27 sphere3d and 11 saddle2d blend radii from 0.76 down to
    8e-7.  A custom inner map that is not C^1 at the boundary costs
    rejected steps at the seam each time the run crosses it;
    check_smoothness reports such a map.

    Raises ValueError unless t1 > t0, and StepFailure, carrying the partial
    trajectory, as integrate does.
    """
    return integrate(regularized_rhs(rf), x0, t0, t1, opts)
