import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import singularflow as sf

ALPHA = 1.0 / 3.0


def spiral_family(t_b=0.0):
    field = sf.builtin_field("spiral2d", ALPHA)
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0]))
    return field, sf.build_cycle_family(field, cyc, t_b)


def sphere_family(t_b=3.0):
    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.05, 0.3]))
    return field, sf.build_cycle_family(field, cyc, t_b)


# ---------------------------------------------------------------------------
# fixed-point continuation
# ---------------------------------------------------------------------------

def test_fixed_point_solutions_saddle():
    pre, fam = sf.fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, t_b=1.5, alpha=ALPHA
    )
    # post-blowup magnitude at t - t_b = 1 is (2/3)^{3/2}
    x = fam.eval(2.5)
    assert np.linalg.norm(x) == pytest.approx((2.0 / 3.0) ** 1.5, rel=1e-12)
    assert x[1] == 0.0
    # continuity across the blowup time
    eps = 1e-9
    assert np.linalg.norm(pre(1.5 - eps)) < 1e-12
    assert np.linalg.norm(fam.eval(1.5 + eps)) < 1e-12
    # pre side follows the collapse closed form
    assert np.linalg.norm(pre(0.0)) == pytest.approx(1.0, rel=1e-12)


def test_fixed_point_solutions_power1d_matches_extremal():
    # the post-blowup ray is x(t) = +[(2/3)(t - t_b)]^{3/2}
    _, fam = sf.fixed_point_solutions(
        np.array([-1.0]), -1.0, np.array([1.0]), 1.0, t_b=0.0, alpha=ALPHA
    )
    for dt in (0.1, 0.5, 2.0):
        assert fam.eval(dt)[0] == pytest.approx(((2.0 / 3.0) * dt) ** 1.5, rel=1e-12)


def test_fixed_point_solutions_sign_errors():
    with pytest.raises(sf.SignError):
        sf.fixed_point_solutions(np.array([1.0, 0.0]), 0.5, t_b=0.0, alpha=ALPHA)
    with pytest.raises(sf.SignError):
        sf.fixed_point_solutions(
            np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), -1.0, t_b=0.0, alpha=ALPHA
        )
    _, fam = sf.fixed_point_solutions(np.array([-1.0, 0.0]), -1.0, t_b=0.0, alpha=ALPHA)
    assert fam is None


def test_eval_family_out_of_domain():
    _, fam = sf.fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, t_b=1.5, alpha=ALPHA
    )
    with pytest.raises(sf.OutOfDomain):
        fam.eval(1.5)
    with pytest.raises(sf.OutOfDomain):
        fam.eval(1.0)


def test_eval_family_rejects_non_finite_times():
    _, ray = sf.fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, t_b=1.5, alpha=ALPHA
    )
    _, cycle = spiral_family()
    for fam in (ray, cycle):
        for bad in (math.nan, math.inf, [2.0, math.nan]):
            with pytest.raises(sf.OutOfDomain):
                fam.eval(bad)
    samples = np.ones((3, 2))
    with pytest.raises(sf.OutOfDomain):
        sf.estimate_phase(cycle, np.array([0.5, math.nan, 1.0]), samples)


# ---------------------------------------------------------------------------
# cycle family
# ---------------------------------------------------------------------------

def test_spiral_phase_map_closed_forms():
    # on the circle: I(s1, s2) = s2 - s1, phi(s, s) = -ln(1-a)/(1-a),
    # psi(s) = s - ln(1-a)/(1-a), psi_inv(xi) = xi + ln(1-a)/(1-a)
    _, fam = spiral_family()
    const = -math.log(1 - ALPHA) / (1 - ALPHA)  # = 1.5 ln(3/2) = 0.60819766...
    s = np.linspace(-3.0, 9.0, 25)
    assert np.abs(fam.phi_diag(s) - const).max() < 1e-10
    assert np.abs(fam.psi(s) - (s + const)).max() < 1e-10
    xi = np.linspace(-5.0, 11.0, 33)
    assert np.abs(fam.psi_inv(xi) - (xi - const)).max() < 1e-8
    assert const == pytest.approx(0.6081976621622465, abs=1e-12)


def test_spiral_family_matches_explicit_solution():
    # x(t) = [(2/3) t]^{3/2} (cos xi, sin xi), xi = 1.5 ln t + const
    _, fam = spiral_family()
    ts = np.geomspace(0.01, 2.0, 60)
    xs = fam.eval(ts, 0.35)
    r = np.linalg.norm(xs, axis=1)
    assert np.abs(r - ((2.0 / 3.0) * ts) ** 1.5).max() < 1e-10
    ang = np.unwrap(np.arctan2(xs[:, 1], xs[:, 0]))
    defect = ang - 1.5 * np.log(ts)
    assert np.abs(defect - defect[0]).max() < 1e-8


def test_sphere_family_matches_explicit_solution():
    # radial factor [(t-t_b)/6]^{3/2}, vertical unit component 1/2,
    # azimuth advancing as 6 ln(t-t_b)
    _, fam = sphere_family()
    assert fam.zeta_period == pytest.approx(math.pi / 2, abs=1e-8)
    # geometric spacing keeps the azimuth increment below pi per sample
    ts = 3.0 + np.geomspace(0.01, 1.0, 120)
    xs = fam.eval(ts, 1.2)
    r = np.linalg.norm(xs, axis=1)
    assert np.abs(r - ((ts - 3.0) / 6.0) ** 1.5).max() < 1e-9
    assert np.abs(xs[:, 2] / r - 0.5).max() < 1e-8
    ang = np.unwrap(np.arctan2(xs[:, 1], xs[:, 0]))
    defect = ang - 6.0 * np.log(ts - 3.0)
    assert np.abs(defect - defect[0]).max() < 1e-7


def test_family_zeta_periodicity():
    _, fam = sphere_family()
    ts = np.linspace(3.05, 4.0, 17)
    a = fam.eval(ts, 0.3)
    b = fam.eval(ts, 0.3 + fam.zeta_period)
    assert np.abs(a - b).max() < 1e-10


def test_psi_periodicity_defect():
    for _, fam in (spiral_family(), sphere_family()):
        s = np.linspace(0.0, fam.period, 41)
        defect = fam.psi(s + fam.period) - fam.psi(s) - fam.period * fam.mean_radial
        assert np.abs(defect).max() < 1e-8


def test_psi_inv_evaluates_psi_once_per_newton_step(monkeypatch):
    _, fam = sphere_family()
    xi = np.linspace(-3.0, 5.0, 101)
    tb = fam._tables
    span = tb["T"] * tb["mean"]
    k = np.floor((xi - tb["psi0"]) / span)
    xi_red = xi - k * span
    s = tb["psi_inv_base"](xi_red)
    for _ in range(3):  # the Newton polish with psi evaluated twice per step
        s = s - (fam.psi(s) - xi_red) / fam.psi_prime(s)
    want = s + k * tb["T"]
    calls = []
    psi = sf.ContinuationFamily.psi
    monkeypatch.setattr(sf.ContinuationFamily, "psi", lambda f, s: calls.append(s) or psi(f, s))
    got = fam.psi_inv(xi)
    assert np.array_equal(got, want)
    assert len(calls) == 3


def test_radial_integral_periodic_in_both_arguments():
    # I(s1, s2) - <F_r>(s2 - s1) is T-periodic in each argument
    _, fam = sphere_family()
    T = fam.period
    rng = np.random.default_rng(5)
    for _ in range(50):
        s1, s2 = rng.uniform(-2 * T, 2 * T, size=2)
        base = fam.radial_integral(s2) - fam.radial_integral(s1) - fam.mean_radial * (s2 - s1)
        shift1 = (
            fam.radial_integral(s2) - fam.radial_integral(s1 + T)
            - fam.mean_radial * (s2 - s1 - T)
        )
        shift2 = (
            fam.radial_integral(s2 + T) - fam.radial_integral(s1)
            - fam.mean_radial * (s2 + T - s1)
        )
        assert abs(shift1 - base) < 1e-8
        assert abs(shift2 - base) < 1e-8


def test_periodic_cubic_matches_scipy_periodic_spline():
    # independent reference, a test-only dependency
    from scipy.interpolate import CubicSpline

    from singularflow.continuation import _PeriodicCubic

    rng = np.random.default_rng(8)
    x = -1.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, 2048))]) / 512
    period = x[-1] - x[0]
    q = np.concatenate(
        [rng.uniform(x[0] - 3 * period, x[-1] + 3 * period, 5000)]
        + [x + j * period for j in range(-3, 4)]  # every knot and period end
    )
    for y in (rng.standard_normal(2049), rng.standard_normal((2049, 3))):
        y[-1] = y[0]
        want = CubicSpline(x, y, bc_type="periodic")(q)
        got = _PeriodicCubic(x, y)(q)
        assert got.shape == want.shape
        # both solve the same diagonally dominant system (condition <= 3) and
        # sum four cubic terms: a few tens of float64 ulps of the value scale
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cycle_family_imports_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the package and its CLI and builds and evaluates a family loads no scipy
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import singularflow as sf, singularflow.cli\n"
        "field = sf.builtin_field('spiral2d', 1 / 3)\n"
        "cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0]))\n"
        "sf.build_cycle_family(field, cyc, 0.0).eval(np.linspace(0.1, 1.0, 5), 0.3)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(sf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_build_cycle_family_rejects_nonpositive_mean():
    # reversed latitude cycle has mean -1/4
    field = sf.builtin_field("sphere3d")
    cat = sf.catalog_attractors(field)
    unstable = [a for a in cat if a.kind == "limit_cycle" and not a.stable][0]
    with pytest.raises(sf.NonPositiveMean):
        sf.build_cycle_family(field, unstable, t_b=0.0)


def test_residual_check_families_are_solutions():
    field_sp, fam_sp = spiral_family()
    ts = np.linspace(0.01, 1.0, 40)
    assert sf.residual_check(fam_sp, field_sp, ts, 0.0) < 1e-6
    assert sf.residual_check(fam_sp, field_sp, ts, 2.2) < 1e-6
    field_s3, fam_s3 = sphere_family()
    ts = np.linspace(3.01, 4.0, 40)
    assert sf.residual_check(fam_s3, field_s3, ts, 0.7) < 1e-6


def test_residual_check_detects_corruption():
    # a 1% radial perturbation must push the residual above 1e-3
    field, fam = spiral_family()
    corrupted = lambda t, zeta: 1.01 * fam.eval(t, zeta)
    ts = np.linspace(0.05, 1.0, 30)
    assert sf.residual_check(corrupted, field, ts, 0.0) >= 1e-3


def test_fixed_ray_residual():
    field = sf.builtin_field("saddle2d", ALPHA)
    _, fam = sf.fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, t_b=1.5, alpha=ALPHA
    )
    ts = np.linspace(1.6, 2.5, 30)
    assert sf.residual_check(fam, field, ts) < 1e-6


# ---------------------------------------------------------------------------
# geometric subsequence and phase fitting
# ---------------------------------------------------------------------------

def test_geometric_sequence_values():
    nus = sf.geometric_sequence(2 * math.pi, 0.25, 0.0, range(1, 4))
    assert nus == pytest.approx(
        [math.exp(-math.pi / 2), math.exp(-math.pi), math.exp(-3 * math.pi / 2)], rel=1e-14
    )
    assert nus[0] == pytest.approx(0.207880, abs=1e-6)
    assert nus[1] == pytest.approx(0.043214, abs=1e-6)
    assert nus[2] == pytest.approx(0.008983, abs=1e-6)
    # ratio and chi shift laws
    assert nus[1] / nus[0] == pytest.approx(math.exp(-math.pi / 2), rel=1e-14)
    shifted = sf.geometric_sequence(2 * math.pi, 0.25, 0.3, range(1, 4))
    assert shifted == pytest.approx(math.exp(0.3) * nus, rel=1e-13)
    with pytest.raises(ValueError):
        sf.geometric_sequence(2 * math.pi, 0.0, 0.0, range(1, 3))


def test_estimate_phase_recovers_known_zeta():
    _, fam = sphere_family()
    ts = np.linspace(3.1, 4.0, 80)
    for z_true in (0.2, 0.9, 1.4):
        samples = fam.eval(ts, z_true)
        z_fit, dist, unc = sf.estimate_phase(fam, ts, samples)
        assert abs(z_fit - z_true) < 1e-6
        assert dist < 1e-10


def _estimate_phase_by_scalar_scan(fam, t_grid, samples, n_grid):
    # one fam.eval per phase of the coarse scan, then the golden section
    def dist(z):
        return float(np.max(np.linalg.norm(samples - fam.eval(t_grid, z), axis=1)))

    span = fam.zeta_period
    zg = np.linspace(0.0, span, n_grid, endpoint=False)
    i = int(np.argmin([dist(z) for z in zg]))
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


@pytest.mark.parametrize("n_grid", [720, 211])  # 211 is prime: no whole blocks
def test_estimate_phase_scan_matches_scalar_evaluation(n_grid):
    _, fam = sphere_family()
    ts = np.linspace(3.1, 4.0, 90)
    for z_true in (0.2, 1.4):
        samples = fam.eval(ts, z_true) * (1.0 + 1e-3 * np.sin(7.0 * ts))[:, None]
        got = sf.estimate_phase(fam, ts, samples, n_grid=n_grid)
        want = _estimate_phase_by_scalar_scan(fam, ts, samples, n_grid)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@pytest.mark.parametrize("make_family", [sphere_family, spiral_family], ids=["sphere3d", "spiral2d"])
def test_profile_spline_is_the_phase_map_formula(make_family):
    # eval is one lookup in the periodic spline of G; it must agree with the
    # composite formula dt^p exp(-phi(s, s)) y_c(s) at s = psi_inv(xi)
    _, fam = make_family()
    p = 1.0 / (1.0 - fam.alpha)
    span = fam.zeta_period
    ts = fam.t_b + np.geomspace(1e-6, 10.0, 61)
    dt = ts - fam.t_b  # the elapsed times eval itself computes

    def rel(a, b):
        return np.max(np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1))

    for zeta in np.linspace(0.0, 3.0 * span, 13):
        s = fam.psi_inv(p * np.log(dt) + zeta)
        want = (dt**p * np.exp(-fam.phi_diag(s)))[:, None] * fam.orbit_point(s)
        got = fam.eval(ts, zeta)
        assert rel(got, want) < 1e-12
        assert rel(fam.eval(ts, zeta + span), got) < 1e-13
    # the block scan of estimate_phase gives the bits of one eval per phase
    ts = fam.t_b + np.linspace(0.1, 1.0, 90)
    samples = fam.eval(ts, 0.3 * span) * (1.0 + 1e-3 * np.sin(7.0 * ts))[:, None]
    got = sf.estimate_phase(fam, ts, samples)
    want = _estimate_phase_by_scalar_scan(fam, ts, samples, 720)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_estimate_phase_rejects_non_cycle_families():
    _, ray = sf.fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, t_b=1.5, alpha=ALPHA
    )
    rest = sf.trivial_rest_family(t_b=1.5, alpha=ALPHA, dimension=2)
    ts = np.linspace(1.6, 2.5, 10)
    for fam in (ray, rest):
        with pytest.raises(ValueError, match="estimate_phase needs a cycle_family"):
            sf.estimate_phase(fam, ts, np.ones((10, 2)))


def test_estimate_phase_rejects_times_up_to_blowup():
    _, fam = sphere_family(t_b=3.0)
    ts = np.linspace(3.0, 4.0, 20)
    samples = np.ones((20, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sf.OutOfDomain):
            sf.estimate_phase(fam, ts, samples)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def saddle_sweep_grid():
    pre = np.linspace(0.0, 1.45, 8)
    post = np.linspace(1.55, 2.5, 48)
    return np.concatenate([pre, post])


def test_sweep_trapping_verdict(saddle_sweep_grid):
    field = sf.builtin_field("saddle2d", ALPHA)
    mk = lambda nu: sf.make_polynomial_blend(field, [1.0, 1.3], nu)
    nus = [0.1 * 0.5**k for k in range(6)]
    rep = sf.inviscid_sweep(field, mk, [-1.0, 0.0], saddle_sweep_grid, nus)
    assert rep.verdict == "trivial_zero"
    assert rep.t_b == pytest.approx(1.5, abs=1e-9)
    assert rep.decay_exponent > 0
    assert rep.decay_r2 > 0.99
    assert rep.escape.outcome == "trapped"
    d = rep.to_dict()
    assert d["verdict"] == "trivial_zero"
    assert len(d["nu"]) == len(nus)


def test_sweep_expelling_verdict(saddle_sweep_grid):
    field = sf.builtin_field("saddle2d", ALPHA)
    mk = lambda nu: sf.make_polynomial_blend(field, [1.0, -2.0], nu)
    rep = sf.inviscid_sweep(field, mk, [-1.0, 0.0], saddle_sweep_grid, [0.1, 0.05, 0.025])
    assert rep.verdict == "converged_to(fixed_ray)"
    assert rep.reference == "fixed_ray"
    assert rep.escape.outcome == "expelled"
    # pairwise distance matrix is symmetric with zero diagonal
    D = rep.pairwise_sup_distances
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0)


def test_sweep_records_per_nu_failures(saddle_sweep_grid):
    field = sf.builtin_field("saddle2d", ALPHA)

    def mk(nu):
        if nu < 0.05:
            raise RuntimeError("synthetic failure")
        return sf.make_polynomial_blend(field, [1.0, -2.0], nu)

    rep = sf.inviscid_sweep(field, mk, [-1.0, 0.0], saddle_sweep_grid, [0.1, 0.05, 0.02])
    assert rep.solutions[2] is None
    assert "synthetic failure" in rep.errors[2]
    assert rep.solutions[0] is not None


def test_sweep_propagates_programming_errors(saddle_sweep_grid):
    # a TypeError is a bug in the caller's code, not a failure of one nu
    field = sf.builtin_field("saddle2d", ALPHA)

    def mk(nu):
        if nu < 0.05:
            raise TypeError("synthetic bug")
        return sf.make_polynomial_blend(field, [1.0, -2.0], nu)

    with pytest.raises(TypeError, match="synthetic bug"):
        sf.inviscid_sweep(field, mk, [-1.0, 0.0], saddle_sweep_grid, [0.1, 0.02])


def test_sweep_nongeneric_direction_is_undetermined(saddle_sweep_grid):
    # the downward axis collapses onto the unstable direction (zero measure)
    field = sf.builtin_field("saddle2d", ALPHA)
    mk = lambda nu: sf.make_polynomial_blend(field, [1.0, -2.0], nu)
    rep = sf.inviscid_sweep(field, mk, [0.0, -1.0], saddle_sweep_grid, [0.1, 0.05])
    assert rep.verdict == "undetermined"
    assert rep.reference == "non-generic blowup direction"


def test_sweep_rejects_non_blowup_start(saddle_sweep_grid):
    field = sf.builtin_field("saddle2d", ALPHA)
    mk = lambda nu: sf.make_polynomial_blend(field, [1.0, -2.0], nu)
    with pytest.raises(ValueError):
        sf.inviscid_sweep(field, mk, [1.0, 0.0], saddle_sweep_grid, [0.1, 0.05])


def test_scaling_collapse_of_rescaled_trajectories():
    # nu^{-1} x^nu(t_b + nu^{2/3} tau) is the same function of tau for all nu
    field = sf.builtin_field("saddle2d", ALPHA)
    t_b = 1.5
    taus = np.linspace(-1.5, 12.0, 150)
    curves = []
    opts = sf.IntegrationOptions(rtol=1e-12, atol=1e-14)
    for nu in (0.1, 0.03):
        rf = sf.make_polynomial_blend(field, [1.0, -2.0], nu)
        scale = nu ** (2.0 / 3.0)
        traj = sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, t_b + scale * 12.5, opts)
        curves.append(traj.sample(t_b + scale * taus) / nu)
    assert np.abs(curves[0] - curves[1]).max() < 1e-6


def test_pre_blowup_distances_vanish_with_nu():
    # continuous dependence before t_b: runs are identical before the
    # earliest ball entry (same code path) and successive differences on
    # (0, t_b) shrink as nu does
    field = sf.builtin_field("saddle2d", ALPHA)
    t_ent_coarse = 1.5 - 1.5 * 0.1 ** (2.0 / 3.0)  # ~1.177
    ts_outer = np.linspace(0.0, t_ent_coarse - 0.01, 25)
    ts_full = np.linspace(0.0, 1.45, 40)
    sols_outer, sols_full = [], []
    for nu in (0.1, 0.05, 0.025):
        rf = sf.make_polynomial_blend(field, [1.0, -2.0], nu)
        traj = sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, 1.46)
        sols_outer.append(traj.sample(ts_outer))
        sols_full.append(traj.sample(ts_full))
    assert np.abs(sols_outer[1] - sols_outer[0]).max() < 1e-9
    assert np.abs(sols_outer[2] - sols_outer[1]).max() < 1e-9
    d10 = np.abs(sols_full[1] - sols_full[0]).max()
    d21 = np.abs(sols_full[2] - sols_full[1]).max()
    assert d21 < d10


def test_trivial_rest_family():
    fam = sf.trivial_rest_family(t_b=1.5, alpha=ALPHA, dimension=2)
    assert fam.kind == "trivial_rest"
    out = fam.eval(np.array([1.6, 2.0]))
    assert out.shape == (2, 2)
    assert np.all(out == 0.0)
    with pytest.raises(sf.OutOfDomain):
        fam.eval(1.4)
