import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import singularflow as sf

ALPHA = 1.0 / 3.0


def unit_vector(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def all_builtins():
    return [
        sf.builtin_field("power1d", ALPHA),
        sf.builtin_field("saddle2d", ALPHA),
        sf.builtin_field("spiral2d", ALPHA),
        sf.builtin_field("sphere3d"),
    ]


def test_power1d_eval_cube_root():
    f = sf.builtin_field("power1d", ALPHA)
    assert sf.eval_field(f, [8.0])[0] == pytest.approx(2.0, rel=1e-14)


def test_saddle2d_eval_at_minus_x_axis():
    # componentwise: F1(-1,0) = 1, F2(-1,0) = 0
    f = sf.builtin_field("saddle2d", ALPHA)
    assert sf.eval_field(f, [-1.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-14)


def test_spiral2d_eval():
    f = sf.builtin_field("spiral2d", ALPHA)
    assert sf.eval_field(f, [1.0, 0.0]) == pytest.approx([1.0, 1.0], abs=1e-14)


def test_decompose_saddle_axes():
    f = sf.builtin_field("saddle2d", ALPHA)
    dec = sf.decompose(f, [1.0, 0.0])
    assert dec.radial == pytest.approx(1.0, abs=1e-14)
    assert dec.tangential == pytest.approx([0.0, 0.0], abs=1e-14)
    dec = sf.decompose(f, [-1.0, 0.0])
    assert dec.radial == pytest.approx(-1.0, abs=1e-14)
    assert np.linalg.norm(dec.tangential) < 1e-14


def test_decompose_sphere3d_on_cycle():
    f = sf.builtin_field("sphere3d")
    y = np.array([math.sqrt(3) / 2, 0.0, 0.5])
    assert sf.decompose(f, y).radial == pytest.approx(0.25, abs=1e-12)
    # F_r = y3/2 anywhere on the sphere
    y = unit_vector(3, 7)
    assert sf.decompose(f, y).radial == pytest.approx(y[2] / 2, abs=1e-12)


def test_decompose_rejects_non_unit():
    f = sf.builtin_field("saddle2d", ALPHA)
    with pytest.raises(sf.NotUnitVector):
        sf.decompose(f, [1.1, 0.0])


def test_eval_field_origin_guard():
    f = sf.builtin_field("saddle2d", ALPHA)
    with pytest.raises(sf.OriginEvaluation):
        sf.eval_field(f, [0.0, 0.0])
    for bad in ([np.inf, 0.0], [np.nan, 0.0]):
        with pytest.raises(sf.OriginEvaluation):
            sf.eval_field(f, bad)


def _bits(traj):
    return traj.times.tobytes(), traj.states.tobytes(), traj.derivs.tobytes()


def test_integrate_ideal_stops_at_its_floor_sphere():
    # the ideal run is integrate on the field with the floor sphere as its
    # one event, the crossing reported as hit_radius_floor
    from singularflow.integrators import _Sphere

    f = sf.builtin_field("saddle2d", ALPHA)
    rhs = lambda t, x: sf.eval_field(f, x)
    for r_floor in (1e-10, 1e-4):
        run = sf.integrate_ideal(f, [-1.0, 0.0], 0.0, 3.0, r_floor=r_floor)
        ref = sf.integrate(rhs, [-1.0, 0.0], 0.0, 3.0, event=_Sphere(r_floor), direction=-1)
        assert run.status == "hit_radius_floor" and ref.status == "hit_event"
        assert _bits(run) == _bits(ref) and run.stats == ref.stats
        assert np.linalg.norm(run.final_state) == pytest.approx(r_floor, rel=1e-9)
    # an r_floor of 0 watches no sphere: before t_b = 1.5 it is the plain run
    run = sf.integrate_ideal(f, [-1.0, 0.0], 0.0, 1.4, r_floor=0.0)
    assert run.status == "completed"
    assert _bits(run) == _bits(sf.integrate(rhs, [-1.0, 0.0], 0.0, 1.4))
    # a start inside the sphere is not stopped by it: the expanding ray
    # leaves the origin, r(t) = ((2/3) t)^(3/2) to within the start's 1e-12
    out = sf.integrate_ideal(f, [1e-12, 0.0], 0.0, 1.0)
    assert out.status == "completed"
    assert out.final_state[0] == pytest.approx((2.0 / 3.0) ** 1.5, rel=1e-6)
    for bad in (-1e-10, math.nan):
        with pytest.raises(ValueError, match="r_floor must be nonnegative"):
            sf.integrate_ideal(f, [-1.0, 0.0], 0.0, 3.0, r_floor=bad)


@pytest.mark.parametrize("bad, shown", [([np.inf, 0.0], "inf"), ([np.nan, 0.0], "nan")])
def test_eval_field_names_a_non_finite_state(bad, shown):
    # an overflowed or NaN state is not a state at the origin
    f = sf.builtin_field("saddle2d", ALPHA)
    with pytest.raises(sf.OriginEvaluation) as exc:
        sf.eval_field(f, bad)
    assert f"|x| = {shown} is non-finite" in str(exc.value)
    assert "at the origin" not in str(exc.value)


def test_eval_field_is_the_formula_bitwise():
    f = sf.builtin_field("saddle2d", ALPHA)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(2) * 10.0 ** rng.uniform(-6, 6)
        r = math.hypot(*x)  # the kernel's norm
        want = r**f.alpha * np.asarray(f.sphere_map(x / r), dtype=float)
        assert np.array_equal(sf.eval_field(f, x), want)
    steep = sf.builtin_field("saddle2d", -2.0)
    with np.errstate(invalid="ignore"):  # r^alpha overflows to inf, no raise
        assert np.isinf(sf.eval_field(steep, [1e-155, 0.0])).any()


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_eval_field_is_the_float_kernel_bitwise(field, monkeypatch):
    # the ideal field is one float kernel: eval_field is its array form, and
    # integrate_ideal hands the stepper a right-hand side carrying it
    from singularflow import fields

    kernel = fields._ideal_kernel(field)
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = rng.standard_normal(field.dimension) * 10.0 ** rng.uniform(-8, 8)
        got = sf.eval_field(field, x)
        want = kernel(x.tolist(), math.hypot(*x))
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).tobytes()
    seen = []

    def recording(rhs, *args, **kwargs):
        seen.append(rhs)
        return sf.integrate(rhs, *args, **kwargs)

    monkeypatch.setattr(fields, "integrate", recording)
    x0 = np.ones(field.dimension)
    sf.integrate_ideal(field, x0, 0.0, 0.1)
    (rhs,) = seen
    assert rhs.floats(0.0, x0.tolist()) == kernel(x0.tolist(), math.hypot(*x0))


# the reference: the built-in sphere-map formulas evaluated on NumPy scalars
NUMPY_SCALAR_MAPS = {
    "saddle2d": lambda y1, y2: (
        y1 * y1 + y1 * y2 + y1 * y2 * y2,
        y1 * y2 + y2 * y2 - y1 * y1 * y2,
    ),
    "spiral2d": lambda y1, y2: (y1 - y2, y1 + y2),
    "sphere3d": lambda y1, y2, y3: (
        -y2 + 0.5 * y3 * y1 + (y3 * y3 - 0.25) * y1 * y3,
        y1 + 0.5 * y3 * y2 + (y3 * y3 - 0.25) * y2 * y3,
        0.5 * y3 * y3 - (y3 * y3 - 0.25) * (y1 * y1 + y2 * y2),
    ),
}


@pytest.mark.parametrize("name", sorted(NUMPY_SCALAR_MAPS))
def test_builtin_sphere_maps_are_the_numpy_scalar_formula_bitwise(name):
    f = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    rng = np.random.default_rng(17)
    Y = rng.standard_normal((10_000, f.dimension))
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    got = np.array([f.sphere_map(y) for y in Y])
    want = np.array([NUMPY_SCALAR_MAPS[name](*y) for y in Y])  # rows iterate as np.float64
    assert isinstance(Y[0][0], np.float64)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    # a plain list, of Python floats or of NumPy scalars, is still accepted
    assert np.array_equal(f.sphere_map(Y[0].tolist()), got[0])
    assert np.array_equal(f.sphere_map(list(Y[0])), got[0])


def test_alpha_validation():
    with pytest.raises(ValueError):
        sf.SingularField(2, 1.0, lambda y: y)
    with pytest.raises(sf.UnknownField):
        sf.builtin_field("nonsense", ALPHA)
    with pytest.raises(sf.UnknownField):
        sf.builtin_field("sphere3d", 0.5)


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_orthogonality_and_reconstruction(field):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        y = rng.standard_normal(field.dimension)
        y /= np.linalg.norm(y)
        dec = sf.decompose(field, y)
        assert abs(float(dec.tangential @ y)) <= 1e-10 * (1 + np.linalg.norm(dec.tangential))
        rebuilt = dec.radial * y + dec.tangential
        F = np.asarray(field.sphere_map(y), dtype=float)
        assert np.linalg.norm(rebuilt - F) <= 1e-12 * (1 + np.linalg.norm(F))


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_scaling_law(field, lam):
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(field.dimension)
        f1 = sf.eval_field(field, lam * x)
        f2 = lam**field.alpha * sf.eval_field(field, x)
        assert np.linalg.norm(f1 - f2) <= 1e-10 * (1 + np.linalg.norm(f2))


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_jacobian_matches_finite_differences(field):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        y = rng.standard_normal(field.dimension)
        y /= np.linalg.norm(y)
        J = sf.sphere_jacobian(field, y)
        d = field.dimension
        J_fd = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            J_fd[:, j] = (np.asarray(field.sphere_map(y + e)) - np.asarray(field.sphere_map(y - e))) / (2 * h)
        assert np.max(np.abs(J - J_fd)) < 1e-5


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3]))
def test_decompose_orthogonality_property(seed, which):
    field = all_builtins()[which]
    y = unit_vector(field.dimension, seed)
    dec = sf.decompose(field, y)
    assert abs(float(dec.tangential @ y)) <= 1e-10 * (1 + np.linalg.norm(dec.tangential))


def test_d1_tangential_always_zero():
    f = sf.builtin_field("power1d", -0.5)
    for y in ([1.0], [-1.0]):
        assert sf.decompose(f, y).tangential == pytest.approx([0.0], abs=0.0)
