import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import singularflow as sf
from singularflow.regularize import blend_weight, regularized_rhs

ALPHA = 1.0 / 3.0


def saddle():
    return sf.builtin_field("saddle2d", ALPHA)


def test_center_value_is_g0():
    nu = 0.2
    rf = sf.make_polynomial_blend(saddle(), [1.0, 1.3], nu)
    val = sf.eval_regularized(rf, [0.0, 0.0])
    assert val == pytest.approx(nu**ALPHA * np.array([1.0, 1.3]), rel=1e-14)


def test_boundary_branches_agree():
    nu = 0.3
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], nu)
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.standard_normal(2)
        y /= np.linalg.norm(y)
        outer = sf.eval_field(field, nu * y)
        inner = nu**ALPHA * np.asarray(rf.inner_map(y), float)
        assert np.linalg.norm(outer - inner) <= 1e-9 * (1 + np.linalg.norm(outer))
        # G on the unit sphere equals F there
        assert np.linalg.norm(
            np.asarray(rf.inner_map(y), float) - field.sphere_map(y)
        ) <= 1e-9


def test_outside_is_exactly_the_ideal_field():
    nu = 0.1
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], nu)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(2)
        x *= (nu * 1.0001 + rng.random()) / np.linalg.norm(x)
        a = sf.eval_regularized(rf, x)
        b = sf.eval_field(field, x)
        assert np.array_equal(a, b)  # same arithmetic, bitwise


def _patched_field_formula(rf, x):
    # the patched field as eval_regularized computes it, with the ideal
    # kernel's norm math.hypot deciding the branch
    x = np.asarray(x, dtype=float)
    r = math.hypot(*x)
    if r > rf.nu:
        return sf.eval_field(rf.base, x)
    return rf.nu**rf.base.alpha * np.asarray(rf.inner_map(x / rf.nu), dtype=float)


def test_regularized_rhs_is_the_patched_field_formula():
    field = saddle()
    rng = np.random.default_rng(3)
    cases = []
    for nu in (0.1, np.float64(0.03), 1.0):
        rf = sf.make_polynomial_blend(field, [1.0, 1.3], nu)
        for scale in (0.5, 1.0, 2.0, 50.0):  # inside, on |x| = nu, outside
            for _ in range(50):
                y = rng.standard_normal(2)
                cases.append((rf, nu * scale * y / np.linalg.norm(y)))
    cases.append((rf, np.array([0.0, 0.0])))
    for rf, x in cases:
        want = _patched_field_formula(rf, x)
        assert np.array_equal(regularized_rhs(rf)(0.0, x), want)
        assert np.array_equal(sf.eval_regularized(rf, x), want)
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], 0.1)
    with pytest.raises(sf.OriginEvaluation):
        regularized_rhs(rf)(0.0, np.array([np.inf, 0.0]))
    with pytest.raises(sf.OriginEvaluation):
        _patched_field_formula(rf, np.array([np.inf, 0.0]))
    # NaN compares false against nu and takes the inner branch in both
    with np.errstate(invalid="ignore"):
        got = regularized_rhs(rf)(0.0, np.array([np.nan, 0.0]))
        ref = _patched_field_formula(rf, np.array([np.nan, 0.0]))
    assert np.isnan(got).all() and np.isnan(ref).all()


def test_preset_1d_values():
    field = sf.builtin_field("power1d", ALPHA)
    nu = 0.25
    rf = sf.make_preset_1d(field, +1, nu)
    # G(0) = sigma/2 scaled by nu^alpha
    assert sf.eval_regularized(rf, [0.0])[0] == pytest.approx(nu**ALPHA / 2, rel=1e-14)
    rf_left = sf.make_preset_1d(field, -1, nu)
    assert sf.eval_regularized(rf_left, [0.0])[0] == pytest.approx(-(nu**ALPHA) / 2, rel=1e-14)
    rf_trap = sf.make_preset_1d(field, 0, nu)
    assert sf.eval_regularized(rf_trap, [0.0])[0] == pytest.approx(nu**ALPHA / 6, rel=1e-14)
    with pytest.raises(ValueError):
        sf.make_preset_1d(field, 2, nu)
    with pytest.raises(ValueError):
        sf.make_preset_1d(saddle(), 1, nu)


def test_singular_blend_rejected():
    field = sf.builtin_field("power1d", -2.5)
    with pytest.raises(sf.SingularBlend):
        sf.make_polynomial_blend(field, [1.0], 0.1)
    with pytest.raises(sf.SingularBlend):
        sf.make_preset_1d(field, 1, 0.1)


def test_blend_weight_identities():
    assert blend_weight(0.0) == 0.0
    assert blend_weight(1.0) == 1.0
    h = 1e-7
    assert abs(blend_weight(h) - blend_weight(0.0)) / h < 1e-6
    assert abs(blend_weight(1.0) - blend_weight(1.0 - h)) / h < 1e-6


@settings(deadline=None, derandomize=True, max_examples=50)
@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(0, 10_000))
def test_nu_scaling_self_similarity(nu, seed):
    # f^nu(x) = nu^alpha f^1(x/nu) inside the ball
    field = saddle()
    rf_nu = sf.make_polynomial_blend(field, [0.4, -0.7], nu)
    rf_1 = sf.make_polynomial_blend(field, [0.4, -0.7], 1.0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2)
    x *= rng.random() * nu / np.linalg.norm(x)
    a = sf.eval_regularized(rf_nu, x)
    b = nu**ALPHA * sf.eval_regularized(rf_1, x / nu)
    assert np.linalg.norm(a - b) <= 1e-12 * (1 + np.linalg.norm(b))


@pytest.mark.parametrize(
    "make",
    [
        lambda: sf.make_polynomial_blend(saddle(), [1.0, 1.3], 0.1),
        lambda: sf.make_polynomial_blend(saddle(), [1.0, -2.0], 0.1),
        lambda: sf.make_preset_1d(sf.builtin_field("power1d", ALPHA), +1, 0.4),
        lambda: sf.make_preset_1d(sf.builtin_field("power1d", ALPHA), -1, 0.4),
        lambda: sf.make_preset_1d(sf.builtin_field("power1d", ALPHA), 0, 0.4),
        lambda: sf.make_polynomial_blend(sf.builtin_field("sphere3d"), [0.0, 0.1, 1.0], 0.05),
    ],
)
def test_smoothness_passes_for_builtin_blends(make):
    report = sf.check_smoothness(make())
    assert report.passed, report
    assert report.max_value_jump <= report.value_tol
    assert report.max_jacobian_jump <= 1e-3


def test_smoothness_flags_broken_inner_map():
    field = saddle()
    nu = 0.2
    rf = sf.RegularizedField(field, nu, lambda X: np.zeros(2), blend_kind="broken")
    report = sf.check_smoothness(rf)
    assert not report.passed
    # value jump is the full field magnitude at the patch sphere
    assert report.max_value_jump > 0.1 * nu**ALPHA


def test_integrate_regularized_crosses_the_ball():
    field = saddle()
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 0.1)
    traj = sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, 2.5)
    assert traj.status == "completed"
    r = traj.radii()
    assert r.min() < 0.1  # entered the ball
    assert r[-1] > 0.1  # and left it
    # the entry time, bisected on the dense output for |x| = nu, matches the
    # collapse formula t_b - 1.5 nu^{2/3}
    k = np.argmax(r < 0.1)
    lo, hi = traj.times[k - 1], traj.times[k]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(traj.sample(mid)[0]) > 0.1:
            lo = mid
        else:
            hi = mid
    assert hi == pytest.approx(1.5 - 1.5 * 0.1 ** (2 / 3), abs=1e-7)


def test_integrate_regularized_is_one_run():
    # the patched field is C^1, so the run is one integrate call on it,
    # with no restart at the ball boundary
    rf = sf.make_polynomial_blend(saddle(), [1.0, -2.0], 0.1)
    traj = sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, 2.5)
    ref = sf.integrate(regularized_rhs(rf), [-1.0, 0.0], 0.0, 2.5)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.derivs, ref.derivs)
    assert traj.stats == ref.stats


def test_integrate_regularized_needs_t1_above_t0():
    rf = sf.make_polynomial_blend(saddle(), [1.0, -2.0], 0.1)
    for t1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="t1 must exceed t0"):
            sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, t1)


def test_integrate_regularized_propagates_step_failure():
    rf = sf.RegularizedField(saddle(), 0.1, lambda X: np.full(2, np.nan), blend_kind="broken")
    with pytest.raises(sf.StepFailure) as exc:
        sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, 2.5)
    assert exc.value.trajectory.status == "step_failure"


def test_regularized_field_validation():
    with pytest.raises(ValueError):
        sf.make_polynomial_blend(saddle(), [1.0], 0.1)  # wrong dimension
    with pytest.raises(ValueError):
        sf.RegularizedField(saddle(), 0.0, lambda X: X)
