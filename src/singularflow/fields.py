"""Self-similar vector fields with one non-Lipschitz point at the origin.

A field has the form f(x) = r^alpha * F(y) with r = |x|, y = x/r, alpha < 1,
and F a continuously differentiable map on the unit sphere.  The radial part
F_r = F.y decides whether trajectories collapse into the origin or escape;
the tangential part F_s = F - F_r*y drives the direction dynamics on the
sphere.  Sphere maps are stored as functions of the unit vector itself (not
of an angle) so that d = 1, d = 2 and d = 3 share one interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NotUnitVector, OriginEvaluation, UnknownField
from .integrators import (
    DEFAULT_OPTIONS, IntegrationOptions, Trajectory, _float_form, _Sphere, _with_floats,
    integrate,
)

# The smallest |x| at which the ideal field is evaluated: below it r**alpha
# may overflow at negative alpha, and at 0 the field is singular regardless.
OVERFLOW_GUARD = 1e-300

UNIT_TOL = 1e-9

# step of the central-difference Jacobians
_JACOBIAN_STEP = 1e-6

BUILTIN_NAMES = ("power1d", "saddle2d", "spiral2d", "sphere3d")


@dataclass(frozen=True)
class SingularField:
    """Ideal singular field r^alpha * F(x/r).

    sphere_map must accept unit vectors (|y| = 1 within 1e-12); evaluation
    helpers project defensively and reject |y| off by more than 1e-9.  A
    sphere_map may carry a float form as its .floats attribute: a function
    from a list of Python floats to a list of Python floats, bitwise the
    array map on the same components, as integrators._with_floats builds
    it.  The kernels built on the field (the ideal field's _ideal_kernel,
    renormalized_system) call it directly; a map without one is called on
    arrays.  The built-in maps have one.
    jacobian_on_sphere, when given, is the ambient Jacobian dF_i/dy_j of the
    same formula; a central finite-difference fallback is used otherwise.
    """

    dimension: int
    alpha: float
    sphere_map: Callable[[np.ndarray], np.ndarray]
    jacobian_on_sphere: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.alpha < 1.0:
            raise ValueError(f"alpha must be < 1, got {self.alpha}")


@dataclass(frozen=True)
class SphericalDecomposition:
    """Radial scalar and tangential vector of F at a point on the sphere."""

    radial: float
    tangential: np.ndarray


def _checked_unit(y, d):
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise ValueError(f"expected a vector of length {d}, got shape {y.shape}")
    n = np.sqrt(y @ y)
    if abs(n - 1.0) > UNIT_TOL:
        raise NotUnitVector(f"|y| = {n!r} deviates from 1 beyond {UNIT_TOL}")
    return y / n


def _ideal_kernel(field: SingularField):
    """The ideal field's float kernel (x, r) -> r^alpha F(x/r).

    x is a list of Python floats and r = |x| > 0 as the caller took it,
    math.hypot(*x); F runs through its float form.  This is the package's
    one evaluation of the formula: eval_field, integrate_ideal, the outer
    branch of the regularized field and the ideal term of the polynomial
    blend all call it.  It checks nothing, so the blend evaluates it at any
    rho > 0; r^alpha past the float range is inf, as in NumPy.
    """
    alpha = field.alpha
    smap = _float_form(field.sphere_map)

    def ideal(x, r):
        try:
            scale = r**alpha
        except OverflowError:
            scale = math.inf
        return [scale * f for f in smap([v / r for v in x])]

    return ideal


def _checked_radius(r: float) -> float:
    """r = |x| where the ideal field is defined, else OriginEvaluation: below
    OVERFLOW_GUARD, or non-finite (an overflowed or NaN state)."""
    if not OVERFLOW_GUARD <= r < math.inf:  # NaN fails both comparisons
        if not math.isfinite(r):
            raise OriginEvaluation(
                f"|x| = {r!r} is non-finite: the state overflowed or holds a NaN"
            )
        raise OriginEvaluation(
            f"|x| = {r!r} is at the origin, where the field is singular; switch "
            "to a regularized or renormalized representation"
        )
    return r


def _ideal_rhs(field: SingularField):
    """The ideal field as a right-hand side (t, x), carrying its float form."""
    ideal = _ideal_kernel(field)

    def rhs(_t, x):
        return ideal(x, _checked_radius(math.hypot(*x)))

    return _with_floats(rhs)


def eval_field(field: SingularField, x) -> np.ndarray:
    """Evaluate the ideal field r^alpha * F(x/r); the origin is out of domain.

    It is the array form of the float kernel (_ideal_kernel) at r =
    math.hypot(*x).  Raises OriginEvaluation below OVERFLOW_GUARD, and for
    a non-finite |x| (an overflowed or NaN state), with a message that
    tells the two apart.
    """
    return _ideal_rhs(field)(0.0, np.asarray(x, dtype=float))


def integrate_ideal(field: SingularField, x0, t0: float, t1: float,
                    opts: IntegrationOptions = DEFAULT_OPTIONS,
                    r_floor: float = 1e-10) -> Trajectory:
    """Integrate the ideal field from t0 to t1, as integrate does, down to |x| = r_floor.

    The right-hand side is eval_field's, whose float form the stepper calls
    directly.  The field cannot be followed into the origin: crossing that
    sphere downward ends the run with status hit_radius_floor.  A start
    inside the sphere is not stopped by it, an r_floor of 0 watches no
    sphere, and a negative one raises ValueError.
    """
    if not r_floor >= 0:  # NaN fails too
        raise ValueError(f"r_floor must be nonnegative, got {r_floor!r}")
    traj = integrate(_ideal_rhs(field), x0, t0, t1, opts,
                     event=_Sphere(r_floor) if r_floor > 0 else None, direction=-1)
    return replace(traj, status="hit_radius_floor") if traj.status == "hit_event" else traj


def decompose(field: SingularField, y) -> SphericalDecomposition:
    """Split F(y) into radial and tangential parts at a unit vector y."""
    yu = _checked_unit(y, field.dimension)
    F = np.asarray(field.sphere_map(yu), dtype=float)
    fr = float(F @ yu)
    if field.dimension == 1:
        # S^0 is two points; there is no tangential direction.
        return SphericalDecomposition(fr, np.zeros(1))
    return SphericalDecomposition(fr, F - fr * yu)


def sphere_jacobian(field: SingularField, y) -> np.ndarray:
    """Ambient Jacobian of the sphere-map formula at y.

    Uses the analytic Jacobian when available, otherwise central differences
    of the raw formula (no projection, so it stays consistent with the
    analytic ambient derivative).
    """
    y = np.asarray(y, dtype=float)
    if field.jacobian_on_sphere is not None:
        return np.asarray(field.jacobian_on_sphere(y), dtype=float)
    return _central_jacobian(field.sphere_map, y)


def _central_jacobian(fn, y) -> np.ndarray:
    """Central-difference Jacobian of the map fn at the point y, of step
    _JACOBIAN_STEP (1e-6)."""
    h = _JACOBIAN_STEP
    d = len(y)
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (
            np.asarray(fn(y + e), dtype=float) - np.asarray(fn(y - e), dtype=float)
        ) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# Built-in example fields
# ---------------------------------------------------------------------------

def _power1d_floats(y):
    return [y[0]]


def _power1d_jac(y):
    return np.array([[1.0]])


def _saddle2d_floats(y):
    y1, y2 = y
    return [
        y1 * y1 + y1 * y2 + y1 * y2 * y2,
        y1 * y2 + y2 * y2 - y1 * y1 * y2,
    ]


def _saddle2d_jac(y):
    y1, y2 = y
    return np.array([
        [2 * y1 + y2 + y2 * y2, y1 + 2 * y1 * y2],
        [y2 - 2 * y1 * y2, y1 + 2 * y2 - y1 * y1],
    ])


def _spiral2d_floats(y):
    y1, y2 = y
    return [y1 - y2, y1 + y2]


def _spiral2d_jac(y):
    return np.array([[1.0, -1.0], [1.0, 1.0]])


def _sphere3d_floats(y):
    y1, y2, y3 = y
    w = y3 * y3 - 0.25
    # rotation part + radial part y3/2 * y + w * (rot x y)
    return [
        -y2 + 0.5 * y3 * y1 + w * y1 * y3,
        y1 + 0.5 * y3 * y2 + w * y2 * y3,
        0.5 * y3 * y3 - w * (y1 * y1 + y2 * y2),
    ]


def _sphere3d_jac(y):
    y1, y2, y3 = y
    w = y3 * y3 - 0.25
    return np.array([
        [0.5 * y3 + w * y3, -1.0, y1 * (3 * y3 * y3 + 0.25)],
        [1.0, 0.5 * y3 + w * y3, y2 * (3 * y3 * y3 + 0.25)],
        [-2 * y1 * w, -2 * y2 * w, y3 - 2 * y3 * (y1 * y1 + y2 * y2)],
    ])


_power1d_map = _with_floats(_power1d_floats)
_saddle2d_map = _with_floats(_saddle2d_floats)
_spiral2d_map = _with_floats(_spiral2d_floats)
_sphere3d_map = _with_floats(_sphere3d_floats)


def builtin_field(name: str, alpha: Optional[float] = None) -> SingularField:
    """Construct one of the four example fields.

    power1d   : d=1, sgn(x)|x|^alpha.
    saddle2d  : d=2, two attracting directions (one collapsing, one escaping).
    spiral2d  : d=2, uniform rotation with uniform radial escape.
    sphere3d  : d=3, polar fixed points plus latitude limit cycles; the
                exponent is pinned to 1/3 for this one.
    """
    if name == "power1d":
        if alpha is None:
            raise UnknownField("power1d requires an exponent alpha < 1")
        return SingularField(1, alpha, _power1d_map, _power1d_jac, name="power1d")
    if name == "saddle2d":
        if alpha is None:
            raise UnknownField("saddle2d requires an exponent alpha < 1")
        return SingularField(2, alpha, _saddle2d_map, _saddle2d_jac, name="saddle2d")
    if name == "spiral2d":
        if alpha is None:
            raise UnknownField("spiral2d requires an exponent alpha < 1")
        return SingularField(2, alpha, _spiral2d_map, _spiral2d_jac, name="spiral2d")
    if name == "sphere3d":
        if alpha is not None and abs(alpha - 1.0 / 3.0) > 1e-12:
            raise UnknownField("sphere3d pins alpha = 1/3")
        return SingularField(3, 1.0 / 3.0, _sphere3d_map, _sphere3d_jac, name="sphere3d")
    raise UnknownField(f"unknown built-in field {name!r}; choose from {BUILTIN_NAMES}")
