import dataclasses
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
    assert np.abs(fam.psi(s) - fam.radial_integral(s) - const).max() < 1e-10  # phi(s, s)
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
    span = fam.zeta_period
    k = np.floor((xi - tb["psi0"]) / span)
    xi_red = xi - k * span
    s = tb["psi_inv_base"](xi_red)
    for _ in range(3):  # the Newton polish with psi evaluated twice per step
        s = s - (fam.psi(s) - xi_red) / fam._psi_prime(s, fam.psi(s))
    want = s + k * fam.period
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


def test_family_on_a_cycle_with_a_nonlinear_radial_integral():
    # F(y) = (1/4 + y1/2) y + (-y2, y1): the unit circle is a cycle of period
    # 2 pi, and from its anchor (1, 0) it is y(s) = (cos s, sin s), along
    # which F_r = 1/4 + cos(s)/2 and J(s) = s/4 + sin(s)/2
    from scipy.integrate import quad

    field = sf.SingularField(2, ALPHA, lambda y: (0.25 + 0.5 * y[0]) * y + np.array([-y[1], y[0]]))
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.0]))
    fam = sf.build_cycle_family(field, cyc, 0.0)
    s = np.linspace(-7.0, 13.0, 41)
    assert np.abs(fam.radial_integral(s) - (s / 4 + np.sin(s) / 2)).max() < 1e-9
    circle = np.stack([np.cos(s), np.sin(s)], axis=1)
    assert np.abs(fam.orbit_point(s) - circle).max() < 1e-9
    # psi(s) = log K(s) / (1-a), K(s) the integral of e^((1-a) J) over
    # (-inf, s]; the integrand decays like e^(u/6), so [s - 400, s] holds it
    a = 1.0 - ALPHA
    weight = lambda u: math.exp(a * (u / 4 + math.sin(u) / 2))
    K = [quad(weight, v - 400.0, v, limit=1000, epsabs=0.0, epsrel=1e-13)[0] for v in s]
    assert np.abs(fam.psi(s) - np.log(K) / a).max() < 1e-9
    assert np.abs(fam.psi_inv(fam.psi(s)) - s).max() < 1e-9
    assert sf.residual_check(fam, field, np.linspace(0.01, 1.0, 40), 0.7) <= 1e-6


def test_cycle_family_is_one_renormalized_run(monkeypatch):
    # the anchor is read off the one-period run the family keeps (the cycle
    # search runs through attractors' own name, which this leaves alone)
    import singularflow.continuation as cont

    calls = []
    run = cont.renorm_integrate
    monkeypatch.setattr(cont, "renorm_integrate", lambda *a, **k: calls.append(a) or run(*a, **k))
    sphere_family()
    assert len(calls) == 1


def test_sphere_family_phase_origin_is_the_closed_form_maximum():
    # s = 0 is the maximum of y_1 on the y_3 = 1/2 latitude cycle
    _, fam = sphere_family()
    want = np.array([math.sqrt(3.0) / 2.0, 0.0, 0.5])
    assert np.abs(fam.orbit_point(0.0) - want).max() <= 1e-12
    assert fam.radial_integral(0.0) == 0.0


@pytest.mark.parametrize("make_family", [sphere_family, spiral_family], ids=["sphere3d", "spiral2d"])
def test_family_is_continuous_across_the_seam_of_its_run(make_family):
    # the run's end misses its start by the period's error (1.4e-11 on
    # spiral2d); a jump there would read as a residual of 2.9e-4 on a
    # central difference of step 1e-6 that straddles it
    field, fam = make_family()
    seam = fam.period - fam._tables["s_a"]  # s where the run wraps
    p = 1.0 / (1.0 - fam.alpha)
    zeta = 0.4
    t = fam.t_b + math.exp((fam.psi(seam) - zeta) / p)
    assert sf.residual_check(fam, field, [t], zeta) <= 1e-6
    side = fam.orbit_point(np.array([seam - 1e-12, seam + 1e-12]))
    assert np.linalg.norm(side[0] - side[1]) <= 1e-11


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


def test_estimate_phase_reads_the_lag_of_a_lagged_member():
    # samples of the member x(t - delta; zeta) give back zeta and delta,
    # each sample on its own: the spread of their phases and the distance
    # to the lagged member vanish to rounding
    from singularflow.continuation import _read_phase

    _, fam = sphere_family()
    span = fam.zeta_period
    ts = np.linspace(3.1, 4.0, 90)
    for z_true, delta in ((0.2, -0.05), (1.4, 0.03), (span - 1e-9, -0.08)):
        samples = fam.eval(ts - delta, z_true)
        zeta, lag, spread = _read_phase(fam, ts, samples)
        assert min(abs(zeta - z_true), span - abs(zeta - z_true)) <= 1e-11
        assert abs(lag - delta) <= 1e-11
        assert spread <= 1e-11
        z_fit, dist, unc = sf.estimate_phase(fam, ts, samples)
        assert (z_fit, unc) == (zeta, spread)
        assert dist <= 1e-12


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_estimate_phase_names_a_sample_with_no_phase(bad):
    _, fam = sphere_family()
    ts = np.linspace(3.1, 4.0, 12)
    samples = fam.eval(ts, 0.4)
    samples[5] = bad
    with pytest.raises(sf.SingularFlowError, match=r"sample 5 at t = 3\.509\d* has no direction"):
        sf.estimate_phase(fam, ts, samples)


@pytest.mark.parametrize("make_family", [sphere_family, spiral_family], ids=["sphere3d", "spiral2d"])
def test_eval_is_the_phase_map_formula(make_family):
    # eval reads G off the run at s = psi_inv(xi); it must agree with the
    # composite formula dt^p exp(-phi(s, s)) y_c(s), phi(s, s) = psi(s) - J(s)
    _, fam = make_family()
    p = 1.0 / (1.0 - fam.alpha)
    span = fam.zeta_period
    ts = fam.t_b + np.geomspace(1e-6, 10.0, 61)
    dt = ts - fam.t_b  # the elapsed times eval itself computes

    def rel(a, b):
        return np.max(np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1))

    for zeta in np.linspace(0.0, 3.0 * span, 13):
        s = fam.psi_inv(p * np.log(dt) + zeta)
        phi = fam.psi(s) - fam.radial_integral(s)  # phi(s, s)
        want = (dt**p * np.exp(-phi))[:, None] * fam.orbit_point(s)
        got = fam.eval(ts, zeta)
        assert rel(got, want) < 1e-12
        assert rel(fam.eval(ts, zeta + span), got) < 1e-13


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
    rf = sf.make_polynomial_blend(field, [1.0, 1.3], 1.0)
    nus = [0.1 * 0.5**k for k in range(6)]
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], saddle_sweep_grid, nus)
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
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], saddle_sweep_grid, [0.1, 0.05, 0.025])
    assert rep.verdict == "converged_to(fixed_ray)"
    assert rep.reference == "fixed_ray"
    assert rep.escape.outcome == "expelled"
    # pairwise distance matrix is symmetric with zero diagonal
    D = rep.pairwise_sup_distances
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0)


OFF_RAY_X0 = [math.cos(math.radians(160.0)), math.sin(math.radians(160.0))]
OFF_RAY_GRID = np.concatenate([np.linspace(0.0, 1.7, 8), np.linspace(1.8, 2.8, 48)])


def _failing_below(monkeypatch, exc_type, message):
    """Make every regularized run of the sweep at nu < 0.05 raise exc_type(message)."""
    import singularflow.continuation as cont

    real = cont.integrate_regularized

    def failing(rf, x0, t0, t1, opts):
        if rf.nu < 0.05:
            raise exc_type(message)
        return real(rf, x0, t0, t1, opts)

    monkeypatch.setattr(cont, "integrate_regularized", failing)


def test_sweep_records_per_nu_failures(monkeypatch):
    # off the ray every nu is its own run, and a failed run fails its nu only
    field = sf.builtin_field("saddle2d", ALPHA)
    _failing_below(monkeypatch, sf.StepFailure, "synthetic failure")
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    rep = sf.inviscid_sweep(rf, OFF_RAY_X0, OFF_RAY_GRID, [0.1, 0.05, 0.02])
    assert rep.solutions[2] is None
    assert "synthetic failure" in rep.errors[2]
    assert rep.solutions[0] is not None and rep.solutions[1] is not None
    assert [(r.nu_indices, r.status) for r in rep.runs] == [
        ([0], "completed"), ([1], "completed"), ([2], "failed")
    ]


def _pair_loop_distances(solutions):
    """The sup distance of every pair of radii, one pair at a time; NaN
    off the diagonal for a failed radius."""
    n = len(solutions)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if solutions[i] is None or solutions[j] is None:
                distances[i, j] = distances[j, i] = math.nan
            else:
                dd = float(np.max(np.linalg.norm(solutions[i] - solutions[j], axis=1)))
                distances[i, j] = distances[j, i] = dd
    return distances


def test_sweep_distances_are_those_of_the_pair_loop(cycle_sweep, monkeypatch):
    # the matrix built a row at a time is the pair loop's bit for bit, on
    # the nine radii of the cycle sweep and off the ray with two failed radii
    _, _, rep = cycle_sweep
    assert rep.pairwise_sup_distances.tobytes() == _pair_loop_distances(rep.solutions).tobytes()
    field = sf.builtin_field("saddle2d", ALPHA)
    _failing_below(monkeypatch, sf.StepFailure, "synthetic failure")
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    off = sf.inviscid_sweep(rf, OFF_RAY_X0, OFF_RAY_GRID, [0.1, 0.02, 0.05, 0.01])
    assert [sol is None for sol in off.solutions] == [False, True, False, True]
    D = off.pairwise_sup_distances
    assert D.tobytes() == _pair_loop_distances(off.solutions).tobytes()
    assert np.array_equal(np.isnan(D), np.array([[0, 1, 0, 1], [1, 0, 1, 1],
                                                 [0, 1, 0, 1], [1, 1, 1, 0]], dtype=bool))
    assert np.all(np.diag(D) == 0.0)


def test_sweep_propagates_programming_errors(monkeypatch):
    # a TypeError is a bug in the code, not a failure of one nu
    field = sf.builtin_field("saddle2d", ALPHA)
    _failing_below(monkeypatch, TypeError, "synthetic bug")
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    with pytest.raises(TypeError, match="synthetic bug"):
        sf.inviscid_sweep(rf, OFF_RAY_X0, OFF_RAY_GRID, [0.1, 0.02])


def test_sweep_nongeneric_direction_is_undetermined(saddle_sweep_grid):
    # the downward axis collapses onto the unstable direction (zero measure)
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    rep = sf.inviscid_sweep(rf, [0.0, -1.0], saddle_sweep_grid, [0.1, 0.05])
    assert rep.verdict == "undetermined"
    assert rep.reference == "non-generic blowup direction"


def test_sweep_with_an_undetermined_escape_names_no_reference(saddle_sweep_grid, monkeypatch):
    # the escape probe decides nothing, so nothing selects a limit: the runs
    # are kept and no reference is named
    import singularflow.continuation as cont

    field = sf.builtin_field("saddle2d", ALPHA)
    probe = cont.rescaled_escape
    monkeypatch.setattr(cont, "rescaled_escape", lambda *args: dataclasses.replace(
        probe(*args), outcome="undetermined", certificate="synthetic: no decision"))
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], saddle_sweep_grid, [0.1, 0.05])
    assert rep.escape.outcome == "undetermined"
    assert rep.verdict == "undetermined"
    assert rep.reference is None and rep.family is None
    assert all(sol is not None for sol in rep.solutions)


def test_sweep_rejects_non_blowup_start(saddle_sweep_grid):
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        sf.inviscid_sweep(rf, [1.0, 0.0], saddle_sweep_grid, [0.1, 0.05])


@pytest.mark.parametrize(
    "g0, nus, verdict",
    [
        ([1.0, -2.0], [0.1, 0.03, 0.01], "converged_to(fixed_ray)"),
        ([1.0, 1.3], [0.1, 0.05, 0.025], "trivial_zero"),
    ],
)
def test_sweep_generic_blowup_start(g0, nus, verdict):
    # off the collapse ray, t_b comes from classify_blowup and the collapse
    # direction from the fixed point its renormalized run ends on
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, g0, 1.0)
    rep = sf.inviscid_sweep(rf, OFF_RAY_X0, OFF_RAY_GRID, nus)
    assert rep.t_b == pytest.approx(1.76047, abs=1e-5)
    assert rep.verdict == verdict


def test_sweep_rejects_a_grid_that_is_not_increasing_or_starts_before_t0(saddle_sweep_grid):
    # the passage maps t_grid to its own time monotonically, and a direct
    # run samples it from t0 on: either grid would have failed every nu
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    for t_grid in (saddle_sweep_grid[::-1], saddle_sweep_grid - 0.5, [0.0, 1.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, [0.1, 0.05])


@pytest.mark.parametrize("bad", [0.0, -0.05, math.nan, math.inf])
def test_sweep_rejects_a_nu_that_is_not_positive_and_finite(saddle_sweep_grid, bad):
    # every nu's field is the given one at that nu, which must be a radius
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        sf.inviscid_sweep(rf, [-1.0, 0.0], saddle_sweep_grid, [0.1, bad, 0.025])


@pytest.fixture(scope="module")
def cycle_sweep():
    # the perfbench cycle config at chi = 0.7 (n = 1..9)
    field = sf.builtin_field("sphere3d")
    nus = sf.geometric_sequence(2 * math.pi, 0.25, 0.7, range(1, 10))
    t_grid = np.linspace(3.1, 4.0, 90)
    rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
    return rf, t_grid, sf.inviscid_sweep(rf, [0.0, 0.0, -1.0], t_grid, nus)


def test_on_ray_sweep_is_one_regularized_run(cycle_sweep):
    _, _, rep = cycle_sweep
    assert rep.reference == "cycle_family" and not any(rep.errors)
    assert len(rep.runs) == 1
    run = rep.runs[0]
    assert run.nu_indices == list(range(9)) and run.scale == 1.0
    assert run.status == "completed" and run.stats.accepted > 0
    entry = rep.to_dict()["runs"][0]
    assert entry["nu_indices"] == list(range(9)) and entry["h_min"] > 0


def test_cycle_sweep_phases_are_those_of_one_fit_per_radius(cycle_sweep):
    # the sweep reads each radius's phase bit for bit as estimate_phase does
    _, t_grid, rep = cycle_sweep
    post = t_grid > rep.t_b + 1e-12
    fits = [sf.estimate_phase(rep.family, t_grid[post], sol[post]) for sol in rep.solutions]
    assert [float(z).hex() for z in rep.matched_zeta] == [z.hex() for z, _, _ in fits]
    assert float(rep.zeta_uncertainty).hex() == fits[-1][2].hex()


def test_one_stacked_phase_read_is_each_radius_read_alone(cycle_sweep):
    # the nine radii stacked as (9, P, 3) read in one call give each
    # radius's own read bit for bit; a bad sample is named with its radius,
    # and a read of one radius names the sample alone, as before
    from singularflow.continuation import _read_phase

    _, t_grid, rep = cycle_sweep
    post = t_grid > rep.t_b + 1e-12
    ts, stack = t_grid[post], np.array([sol[post] for sol in rep.solutions])
    reads = _read_phase(rep.family, ts, stack)
    alone = [_read_phase(rep.family, ts, samples) for samples in stack]
    assert len(reads) == 9
    assert [[v.hex() for v in read] for read in reads] == [[v.hex() for v in a] for a in alone]
    stack[4, 5] = 0.0
    with pytest.raises(sf.SingularFlowError, match=r"^radius 4, sample 5 at t = \S+ has no direction"):
        _read_phase(rep.family, ts, stack)
    with pytest.raises(sf.SingularFlowError, match=r"^sample 5 at t = \S+ has no direction"):
        _read_phase(rep.family, ts, stack[4])


def test_cycle_sweep_phases_are_resolved_to_rounding(cycle_sweep):
    # each sample is read off in closed form, so samples scaled by 1 + 1e-15
    # move each matched phase by rounding only (a minimum of the sup
    # distance over zeta alone moved by 2.7e-9 at the smallest radius)
    _, t_grid, rep = cycle_sweep
    post = t_grid > rep.t_b + 1e-12
    for sol, z in zip(rep.solutions, rep.matched_zeta):
        moved = sf.estimate_phase(rep.family, t_grid[post], (1.0 + 1e-15) * sol[post])[0]
        assert abs(moved - z) < 1e-12


@pytest.mark.parametrize("chi", np.linspace(0.0, math.pi / 2, 9).tolist())
def test_cycle_sweep_converges_at_every_chi(chi):
    # the perfbench cycle config across its chi range: the phase increments
    # shrink to a member, the lag settles at delta = Lambda nu^(2/3) with
    # Lambda = -8.796, and zeta_9 + chi is one constant mod pi/2
    field = sf.builtin_field("sphere3d")
    nus = sf.geometric_sequence(2 * math.pi, 0.25, chi, range(1, 10))
    rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
    rep = sf.inviscid_sweep(rf, [0.0, 0.0, -1.0], np.linspace(3.1, 4.0, 90), nus)
    assert rep.verdict == "converged_to(cycle_family)"
    lags = rep.to_dict()["matched_lag"]
    assert len(lags) == 9 and all(math.isfinite(v) for v in lags)
    assert abs(lags[-1] / nus[-1] ** (2 / 3) + 8.796) <= 1e-3
    assert abs((rep.matched_zeta[-1] + chi) % (math.pi / 2) - 0.2490) <= 1e-3
    assert rep.zeta_uncertainty <= 1e-7


def test_sweep_verdicts_read_the_radii_by_decreasing_nu(cycle_sweep):
    # nu_list may come in any order: the fixed_ray rule, the phase
    # increments of the cycle_family rule and zeta_uncertainty (the smallest
    # radius's spread) rank the radii by decreasing nu, while the matched
    # phases, lags and distances keep the list's order
    rf = sf.make_polynomial_blend(sf.builtin_field("saddle2d", ALPHA), [1.0, -2.0], 1.0)
    nus = [0.1, 0.03, 0.01, 0.003, 0.001]
    for order in (nus, nus[::-1], [0.01, 0.1, 0.001, 0.03, 0.003]):
        rep = sf.inviscid_sweep(rf, [-1.0, 0.0], np.linspace(0.0, 2.5, 61), order)
        assert rep.verdict == "converged_to(fixed_ray)", order
    rf, t_grid, rep = cycle_sweep
    back = sf.inviscid_sweep(rf, [0.0, 0.0, -1.0], t_grid, rep.nu_values[::-1].tolist())
    assert back.verdict == rep.verdict == "converged_to(cycle_family)"
    assert back.zeta_uncertainty == rep.zeta_uncertainty <= 1e-7
    assert back.matched_zeta == rep.matched_zeta[::-1]
    assert back.matched_lag == rep.matched_lag[::-1]
    assert np.array_equal(back.pairwise_sup_distances, rep.pairwise_sup_distances[::-1, ::-1])


@pytest.mark.parametrize("n", [1, 9])
def test_on_ray_sweep_matches_a_tight_reference(cycle_sweep, n):
    # every nu of the shared run is within 1e-6 relative of a direct run in
    # physical units at rtol 1e-13, atol 1e-20 (a direct run at the default
    # tolerances is off by 7.6e-5 at n = 9: atol is atol / nu in ball units)
    rf, t_grid, rep = cycle_sweep
    nu = rep.nu_values[n - 1]
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    ref = sf.integrate_regularized(
        dataclasses.replace(rf, nu=nu), [0.0, 0.0, -1.0], 0.0, 4.0 * (1 + 1e-12), tight
    )
    ref = ref.sample(t_grid)
    err = np.linalg.norm(rep.solutions[n - 1] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(err) <= 1e-6


def _sup_errors_against_tight_runs(rf, x0, t_grid, rep):
    # per radius: the sup over the grid of |x - x_ref|, relative to the sup
    # of |x_ref|, with x_ref a direct run at rtol 1e-13, atol 1e-20
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    out = []
    for sol, nu in zip(rep.solutions, rep.nu_values):
        ref = sf.integrate_regularized(
            dataclasses.replace(rf, nu=float(nu)), x0, 0.0, t_grid[-1] * (1 + 1e-12), tight
        ).sample(t_grid)
        out.append(float(np.abs(sol - ref).max() / np.abs(ref).max()))
    return out


def test_saddle_on_ray_sweep_is_as_accurate_as_the_order_4_dense_output():
    # one shared run serves five radii; each is read off its dense output,
    # the stepper's order-4 extension (1.9e-10 to 5.4e-10 here; a cubic
    # Hermite of the same steps reads 1.3e-8 to 2.5e-8)
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [0.5, -0.5], 1.0)
    t_grid = np.linspace(0.0, 2.5, 91)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, [0.1, 0.03, 0.01, 0.003, 0.001])
    assert [r.nu_indices for r in rep.runs] == [[0, 1, 2, 3, 4]]
    assert max(_sup_errors_against_tight_runs(rf, [-1.0, 0.0], t_grid, rep)) <= 5e-9


def test_cycle_on_ray_sweep_is_as_accurate_as_the_order_4_dense_output(cycle_sweep):
    # the sphere3d cycle sweep's nine radii read 8.5e-9 to 4.2e-8 (a cubic
    # Hermite of the same steps reads 4.4e-8 to 2.0e-7)
    rf, t_grid, rep = cycle_sweep
    assert max(_sup_errors_against_tight_runs(rf, [0.0, 0.0, -1.0], t_grid, rep)) <= 5e-8


# ---------------------------------------------------------------------------
# the on-ray passage: the escape probe's first inside visit and its continuation
# ---------------------------------------------------------------------------

# the benchmark's saddle2d blends and radii (perfbench/workloads.py)
TRAP_BLEND = ([1.0, 1.3], [0.1 * 0.5**k for k in range(6)])
EXPEL_BLEND = ([1.0, -2.0], [0.1, 0.03, 0.01, 0.003, 0.001])


def _inside_visits(monkeypatch):
    """The entry tau of every inside visit the escape probe integrates."""
    from singularflow import attractors

    entries = []
    run = attractors.integrate

    def recorded(rhs, x0, t0, *args, **kwargs):
        entries.append(t0)
        return run(rhs, x0, t0, *args, **kwargs)

    monkeypatch.setattr(attractors, "integrate", recorded)
    return entries


def _regularized_runs(monkeypatch):
    """The (nu, t0) of every regularized run the sweep makes."""
    import singularflow.continuation as cont

    starts = []
    real = cont.integrate_regularized

    def recorded(rf, x0, t0, t1, opts):
        starts.append((rf.nu, t0))
        return real(rf, x0, t0, t1, opts)

    monkeypatch.setattr(cont, "integrate_regularized", recorded)
    return starts


@pytest.mark.parametrize("blend", [TRAP_BLEND, EXPEL_BLEND], ids=["trap", "expel"])
def test_on_ray_sweep_is_the_same_passage_from_every_start_on_the_ray(blend):
    # the paper's symmetry as the oracle: x0 = (-1, 0) and (-2, 0) are one
    # solution shifted in time by the difference of their closed-form t_b,
    # so the two sweeps make the same escape decision bit for bit, and read
    # every radius after its entry off the same passage (to the rounding of
    # t - t_b; 1.2e-14 here)
    g0, nus = blend
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, g0, 1.0)
    f_r = sf.decompose(field, [-1.0, 0.0]).radial
    t_grid = np.linspace(0.0, 2.5, 61)
    shift = sf.blowup_time_on_ray(2.0, f_r, ALPHA) - sf.blowup_time_on_ray(1.0, f_r, ALPHA)
    one = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, nus)
    two = sf.inviscid_sweep(rf, [-2.0, 0.0], t_grid + shift, nus)
    a, b = one.escape, two.escape
    assert (a.outcome, a.revisits, a.certificate) == (b.outcome, b.revisits, b.certificate)
    assert a.r_bound == b.r_bound and a.tau_esc == b.tau_esc
    assert one.verdict == two.verdict
    for nu, x1, x2 in zip(nus, one.solutions, two.solutions):
        entered = (t_grid - one.t_b) / nu ** (2.0 / 3.0) >= a.tau_ent
        assert np.count_nonzero(entered) >= 10
        err = np.linalg.norm(x1 - x2, axis=1) / np.linalg.norm(x1, axis=1)
        assert np.max(err[entered]) <= 1e-12


@pytest.mark.parametrize("case", ["trap", "expel", "cycle"])
def test_on_ray_sweep_integrates_the_probe_run_once(case, monkeypatch):
    # below the bound cap the probe is one run in ball units, from the entry
    # to a certified sink or to the cap, whatever the visits; the sweep's one
    # regularized run on the ray continues it from its end, so no tau is
    # integrated twice, and the passage's entry counts both runs.  The
    # escape is the probe's own, made alone from the entry direction
    if case == "cycle":
        field = sf.builtin_field("sphere3d")
        rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
        x0, t_grid = [0.0, 0.0, -1.0], np.linspace(3.1, 4.0, 90)
        nus = sf.geometric_sequence(2 * math.pi, 0.25, 0.7, range(1, 10))
    else:
        g0, nus = TRAP_BLEND if case == "trap" else EXPEL_BLEND
        field = sf.builtin_field("saddle2d", ALPHA)
        rf = sf.make_polynomial_blend(field, g0, 1.0)
        x0, t_grid = [-1.0, 0.0], np.linspace(0.0, 2.5, 61)
    entries = _inside_visits(monkeypatch)
    starts = _regularized_runs(monkeypatch)
    rep = sf.inviscid_sweep(rf, x0, t_grid, nus)
    esc = rep.escape
    assert entries == [esc.tau_ent] and esc.run.t0 == esc.tau_ent
    assert esc.run.status == ("stopped" if case == "trap" else "hit_event")
    assert esc.revisits == (2 if case == "trap" else 1)
    assert starts == [(1.0, esc.run.t_end)]
    (run,) = rep.runs
    assert (run.nu_indices, run.scale, run.status) == (list(range(len(nus))), 1.0, "completed")
    assert esc.run.stats.accepted > 0 and run.stats.accepted > esc.run.stats.accepted
    assert esc.to_dict() == sf.rescaled_escape(rf, x0).to_dict()
    assert esc.to_dict()["run"] == dataclasses.asdict(esc.run.stats)


@pytest.mark.parametrize(
    "g0, certificate, continued",
    [([0.5, 1.3], "settled into the interior sink", True),
     ([0.0, 0.0], "stayed in the unit ball until tau = 1000", False)],
    ids=["sink", "budget"],
)
def test_on_ray_passage_whose_first_visit_stays_in_the_ball(g0, certificate, continued,
                                                            monkeypatch):
    # a first visit that ends on a certified sink is continued from there; one
    # that stays in the ball to the tau budget, past where the smallest radius
    # reads the end of the grid, is the whole passage.  Every sample is
    # within 1e-6 relative of a tight direct run in physical units
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, g0, 1.0)
    t_grid = np.linspace(0.0, 2.5, 61)
    nus = [0.1, 0.01, 0.001]
    starts = _regularized_runs(monkeypatch)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, nus)
    esc = rep.escape
    assert esc.outcome == "trapped" and esc.revisits == 1
    assert esc.certificate.startswith(certificate)
    assert starts == ([(1.0, esc.run.t_end)] if continued else [])
    run = rep.runs[0]
    assert len(rep.runs) == 1 and run.nu_indices == [0, 1, 2]
    if not continued:
        assert run.status == esc.run.status == "completed" and run.stats == esc.run.stats
    assert rep.verdict == "trivial_zero"
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    for sol, nu in zip(rep.solutions, nus):
        ref = sf.integrate_regularized(
            dataclasses.replace(rf, nu=nu), [-1.0, 0.0], 0.0, 2.5 * (1 + 1e-12), tight
        ).sample(t_grid)
        err = np.linalg.norm(sol - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(err) <= 1e-6


def test_escape_probe_integrates_its_first_visit_off_the_ray_and_with_a_step_cap(monkeypatch):
    # neither sweep has a passage: every nu is a direct run, and the probe
    # integrates its visit as on the ray
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    t_grid = np.linspace(0.0, 2.5, 61)
    entries = _inside_visits(monkeypatch)
    off_ray = sf.inviscid_sweep(rf, OFF_RAY_X0, OFF_RAY_GRID, [0.1, 0.03])
    assert entries == [off_ray.escape.tau_ent]
    assert [(r.nu_indices, r.scale) for r in off_ray.runs] == [([0], 0.1), ([1], 0.03)]
    entries.clear()
    capped = sf.IntegrationOptions(max_step=0.5)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, [0.1, 0.03], capped)
    assert [r.nu_indices for r in rep.runs] == [[0], [1]]
    assert entries == [rep.escape.tau_ent] and rep.escape.outcome == "expelled"


def test_sweep_with_a_failed_visit_fails_every_nu_the_passage_serves(monkeypatch):
    # the probe's run fails in its first visit: the escape is undetermined,
    # and the passage, listed with the run's partial stats, fails every nu
    # it serves
    from singularflow import attractors

    real = attractors.integrate
    partial_stats = []

    def underflowing(rhs, x0, t0, t1, *args, **kwargs):
        partial = dataclasses.replace(real(rhs, x0, t0, t0 + 0.1), status="step_failure")
        partial_stats.append(partial.stats)
        raise sf.StepFailure("synthetic underflow", partial)

    monkeypatch.setattr(attractors, "integrate", underflowing)
    starts = _regularized_runs(monkeypatch)
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], np.linspace(0.0, 2.5, 61), [0.1, 0.03])
    assert rep.escape.outcome == "undetermined" and rep.verdict == "undetermined"
    assert rep.escape.certificate.startswith("integration failed in ball units at visit 1: ")
    assert rep.escape.run.status == "step_failure" and starts == []
    assert all(sol is None for sol in rep.solutions)
    for err in rep.errors:
        assert err == f"StepFailure: {rep.escape.certificate} (in the on-ray passage)"
    assert [(r.nu_indices, r.scale, r.status) for r in rep.runs] == [([0, 1], 1.0, "step_failure")]
    assert rep.runs[0].stats == partial_stats[0] and partial_stats[0].accepted > 0


def test_on_ray_sweep_takes_the_closed_form_before_the_ball():
    # samples from before x_nu reaches its ball come from pre(t) on the ray;
    # every sample is checked against a tight direct run in physical units
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    t_grid = np.linspace(0.0, 2.5, 61)
    nus = [0.1, 0.003125]
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, nus)
    assert [r.nu_indices for r in rep.runs] == [[0, 1]]
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    for sol, nu in zip(rep.solutions, nus):
        ref = sf.integrate_regularized(
            dataclasses.replace(rf, nu=nu), [-1.0, 0.0], 0.0, 2.5 * (1 + 1e-12), tight
        )
        ref = ref.sample(t_grid)
        err = np.linalg.norm(sol - ref, axis=1) / np.linalg.norm(ref, axis=1)
        before = 1.5 + (t_grid - 1.5) / nu ** (2.0 / 3.0) < 0.0  # t_b = 1.5, tau0 = 0
        assert np.count_nonzero(before) >= 29
        assert np.max(err[before]) <= 1e-9 and np.max(err) <= 1e-6


def test_on_ray_sweep_from_outside_the_unit_sphere_is_one_passage_in_ball_units():
    # |x0| = 2: every radius, nu = 1 included, is read off the one passage
    # through the unit ball, within 1e-6 relative of a tight run at that
    # radius
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    t_grid = np.linspace(0.0, 4.0, 81)
    nus = [1.0, 0.1, 0.01, 0.001]
    rep = sf.inviscid_sweep(rf, [-2.0, 0.0], t_grid, nus)
    assert [(r.nu_indices, r.scale) for r in rep.runs] == [([0, 1, 2, 3], 1.0)]
    assert rep.verdict == "converged_to(fixed_ray)"
    tight = sf.IntegrationOptions(rtol=1e-13, atol=1e-20)
    for sol, nu in zip(rep.solutions, nus):
        ref = sf.integrate_regularized(
            dataclasses.replace(rf, nu=nu), [-2.0, 0.0], 0.0, 4.0 * (1 + 1e-12), tight
        )
        ref = ref.sample(t_grid)
        err = np.linalg.norm(sol - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(err) <= 1e-6


@pytest.mark.parametrize(
    "case, x0, nus, direct",
    [
        ("grid_before_t_b", [-1.0, 0.0], [0.1, 0.05], [0, 1]),
        ("max_step", [-1.0, 0.0], [0.1, 0.05], [0, 1]),
        ("nu_above_r0", [-1.0, 0.0], [2.0, 0.1], [0]),
        ("off_ray", [math.cos(math.radians(160.0)), math.sin(math.radians(160.0))],
         [0.1, 0.03, 0.01], [0, 1, 2]),
    ],
)
def test_sweep_runs_the_nu_the_shared_run_cannot_serve_directly(case, x0, nus, direct):
    # each is bitwise the direct run from x0 at t0, as before the shared run
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    opts = sf.IntegrationOptions(max_step=0.5) if case == "max_step" else sf.IntegrationOptions()
    t_grid = np.concatenate([np.linspace(0.0, 1.45, 8), np.linspace(1.8, 2.8, 48)])
    if case == "grid_before_t_b":
        t_grid = t_grid[:8]  # t_b = 1.5
    rep = sf.inviscid_sweep(rf, x0, t_grid, nus, opts)
    for k in direct:
        traj = sf.integrate_regularized(
            dataclasses.replace(rf, nu=nus[k]), x0, 0.0, t_grid[-1] * (1 + 1e-12), opts
        )
        assert np.array_equal(rep.solutions[k], traj.sample(t_grid))
    direct_runs = [r for r in rep.runs if r.scale != 1.0]
    assert [r.nu_indices for r in direct_runs] == [[k] for k in direct]
    assert [r.scale for r in direct_runs] == [nus[k] for k in direct]
    shared = [k for k in range(len(nus)) if k not in direct]
    assert [r.nu_indices for r in rep.runs if r.scale == 1.0] == ([shared] if shared else [])


def test_failed_continuation_fails_every_nu_the_passage_serves(saddle_sweep_grid, monkeypatch):
    # the passage's continuation underflows: every nu it serves fails with an
    # error naming the passage, and its one runs entry adds the partial
    # continuation's stats to the probe run's, h_min and h_max over both.
    # The smallest radius reads the grid's end at tau = 54, past the probe
    # run's end at the bound cap; the partial continuation runs 10 units of
    # tau, over which its steps outgrow the probe run's
    import singularflow.continuation as cont

    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, [1.0, -2.0], 1.0)
    real = cont.integrate_regularized
    partial_stats = []

    def underflowing(rf, x0, t0, t1, opts):
        partial = dataclasses.replace(real(rf, x0, t0, t0 + 10.0, opts), status="step_failure")
        partial_stats.append(partial.stats)
        raise sf.StepFailure("synthetic underflow", partial)

    monkeypatch.setattr(cont, "integrate_regularized", underflowing)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], saddle_sweep_grid, [0.01, 0.005, 0.0025])
    assert all(sol is None for sol in rep.solutions)
    for err in rep.errors:
        assert err == "StepFailure: synthetic underflow (in the on-ray passage)"
    assert rep.escape.outcome == "expelled" and rep.verdict == "undetermined"
    assert len(rep.runs) == 1
    run, visit, part = rep.runs[0], rep.escape.run.stats, partial_stats[0]
    assert run.nu_indices == [0, 1, 2] and run.scale == 1.0 and run.status == "step_failure"
    assert run.stats == sf.SolverStats(
        visit.rhs_calls + part.rhs_calls, visit.accepted + part.accepted,
        visit.rejected + part.rejected, min(visit.h_min, part.h_min), max(visit.h_max, part.h_max),
    )
    assert run.stats.h_min < run.stats.h_max and part.h_max > visit.h_max
    # a run that failed before accepting a step has no smallest step
    assert rep.runs[0].to_dict()["h_min"] > 0
    bare = dataclasses.replace(run, stats=sf.SolverStats(rhs_calls=1))
    assert bare.to_dict()["h_min"] is None and bare.to_dict()["h_max"] == 0.0


def _trajectories(monkeypatch):
    """The trajectory of every regularized run the sweep makes, as a list."""
    import singularflow.continuation as cont

    made = []
    real = cont.integrate_regularized

    def recorded(rf, x0, t0, t1, opts):
        made.append(real(rf, x0, t0, t1, opts))
        return made[-1]

    monkeypatch.setattr(cont, "integrate_regularized", recorded)
    return made


@pytest.mark.parametrize("case", ["trap", "cycle"])
def test_on_ray_radii_are_their_passage_samples_bit_for_bit(case, monkeypatch):
    # one sample call per run of the passage serves every radius: each is
    # bitwise nu X((t - t_b) / nu^p) read radius by radius, with nu^p a
    # Python float power (NumPy's array power rounds differently), from the
    # probe's run up to its end, from the continuation past it, and pre(t)
    # before the entry
    from singularflow.attractors import _fixed_point_near

    if case == "cycle":
        field = sf.builtin_field("sphere3d")
        rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
        x0, t_grid = np.array([0.0, 0.0, -1.0]), np.linspace(3.1, 4.0, 90)
        nus = sf.geometric_sequence(2 * math.pi, 0.25, 0.7, range(1, 10))
    else:
        field = sf.builtin_field("saddle2d", ALPHA)
        g0, nus = TRAP_BLEND
        rf = sf.make_polynomial_blend(field, g0, 1.0)
        x0, t_grid = np.array([-1.0, 0.0]), np.linspace(0.0, 2.5, 61)
    made = _trajectories(monkeypatch)
    rep = sf.inviscid_sweep(rf, x0, t_grid, nus)
    (cont,) = made
    probe = rep.escape.run
    y0 = x0 / np.linalg.norm(x0)
    star = _fixed_point_near(field, y0, 1e-9)
    pre, _ = sf.fixed_point_solutions(y0, star.mean_radial, t_b=rep.t_b, alpha=field.alpha)
    p = 1.0 - field.alpha
    pieces = np.zeros(3, dtype=int)
    for nu, sol in zip(nus, rep.solutions):
        tau = (t_grid - rep.t_b) / float(nu) ** p
        before, past = tau < probe.t0, tau > probe.t_end
        inside = ~(before | past)
        want = np.empty_like(sol)
        if before.any():
            want[before] = pre(t_grid[before])
        want[inside] = nu * probe.sample(tau[inside])
        if past.any():
            want[past] = nu * cont.sample(tau[past])
        assert sol.tobytes() == want.tobytes(), nu
        pieces += [np.count_nonzero(before), np.count_nonzero(inside), np.count_nonzero(past)]
    assert np.all(pieces[1:] > 0) and (pieces[0] > 0) == (case == "trap"), pieces


def test_failed_passage_sampling_fails_every_nu_the_passage_serves(monkeypatch):
    # the radii are sampled off the passage in one call, so a sampling
    # failure fails every nu the passage serves, with the passage's suffix
    import singularflow.continuation as cont

    real = cont.fixed_point_solutions

    def failing_pre(*args, **kwargs):
        def pre(t):
            raise sf.OutOfDomain("synthetic")

        return pre, real(*args, **kwargs)[1]

    monkeypatch.setattr(cont, "fixed_point_solutions", failing_pre)
    field = sf.builtin_field("saddle2d", ALPHA)
    g0, nus = TRAP_BLEND
    rf = sf.make_polynomial_blend(field, g0, 1.0)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], np.linspace(0.0, 2.5, 61), nus)
    assert all(sol is None for sol in rep.solutions)
    assert rep.errors == ["OutOfDomain: synthetic (in the on-ray passage)"] * len(nus)
    assert [(r.nu_indices, r.status) for r in rep.runs] == [(list(range(len(nus))), "completed")]
    assert rep.verdict == "undetermined"


def rotated_cycles(catalog, rows):
    """The catalog with each cycle's orbit table started rows samples later."""
    out = []
    for a in catalog:
        if a.kind == "limit_cycle":
            body = np.roll(a.location[:-1], -rows, axis=0)
            a = dataclasses.replace(a, location=np.vstack([body, body[:1]]))
        out.append(a)
    return out


def counted_newton(monkeypatch):
    """The directions each Newton solve on the sphere starts from, as a list."""
    from singularflow import attractors

    starts = []
    newton = attractors._newton_on_sphere
    monkeypatch.setattr(attractors, "_newton_on_sphere",
                        lambda field, y: starts.append(y) or newton(field, y))
    return starts


def test_sweep_phase_origin_is_intrinsic(monkeypatch):
    # the perfbench cycle config at chi = 0.7: the family's zeta = 0 is a
    # point fixed by the cycle itself, so the matched phases do not depend
    # on which search found the cycle or where its orbit table starts.  The
    # sweep looks up its two fixed points on demand, one Newton solve each
    # (the start on the ray, the landing direction, which is on no fixed
    # point).  The families built from the catalog's cycle, with its table
    # as found and started 300 rows later, fit the sweep's samples at the
    # phases the sweep matched.
    field = sf.builtin_field("sphere3d")
    nus = sf.geometric_sequence(2 * math.pi, 0.25, 0.7, range(1, 10))
    t_grid = np.linspace(3.1, 4.0, 90)
    rf = sf.make_polynomial_blend(field, [0.0, 0.1, 1.0], 1.0)
    starts = counted_newton(monkeypatch)
    rep = sf.inviscid_sweep(rf, [0.0, 0.0, -1.0], t_grid, nus)
    assert len(starts) == 2
    assert rep.reference == "cycle_family" and rep.escape.outcome == "expelled"
    catalog = sf.catalog_attractors(field)
    landed = rep.escape.attractor
    post = t_grid > rep.t_b + 1e-12
    span = rep.family.zeta_period
    for cat in (catalog, rotated_cycles(catalog, 300)):
        cycle = min((a for a in cat if a.kind == "limit_cycle"),
                    key=lambda a: a.distance_to(landed.anchor))
        assert cycle.period == pytest.approx(landed.period, abs=1e-8)
        fam = sf.build_cycle_family(field, cycle, rep.t_b)
        zs = np.array([sf.estimate_phase(fam, t_grid[post], sol[post])[0]
                       for sol in rep.solutions])
        d = (zs - np.array(rep.matched_zeta)) % span
        assert np.max(np.minimum(d, span - d)) <= 1e-6


@pytest.mark.parametrize(
    "g0, nus",
    [
        # the perfbench sweep-ray configs: two trapping and two expelling
        # blends, each inside the +-0.05 jitter the benchmark draws from
        ((1.03, 1.27), [0.1 * 0.5**k for k in range(6)]),
        ((0.96, 1.34), [0.1 * 0.5**k for k in range(6)]),
        ((1.04, -1.97), [0.1, 0.03, 0.01, 0.003, 0.001]),
        ((0.97, -2.03), [0.1, 0.03, 0.01, 0.003, 0.001]),
    ],
)
def test_on_ray_sweep_looks_up_what_the_catalog_lists(g0, nus, monkeypatch):
    # the sweep makes one Newton solve from the start and, when expelled,
    # one from the landing direction; the star it finds and the attractor
    # the escape lands on are the catalog's entries there
    field = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(field, g0, 1.0)
    t_grid = np.linspace(0.0, 2.5, 61)
    starts = counted_newton(monkeypatch)
    rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, nus)
    expelled = g0[1] < 0
    assert rep.escape.outcome == ("expelled" if expelled else "trapped")
    assert len(starts) == (2 if expelled else 1)
    assert np.array_equal(starts[0], [-1.0, 0.0])
    assert rep.verdict == ("converged_to(fixed_ray)" if expelled else "trivial_zero")
    catalog = sf.catalog_attractors(field)

    def listed(y):
        return min((a for a in catalog if a.kind == "fixed_point"), key=lambda a: a.distance_to(y))

    star = listed([-1.0, 0.0])
    assert star.distance_to([-1.0, 0.0]) < 1e-9 and star.label == "focusing" and star.stable
    assert rep.t_b == pytest.approx(sf.blowup_time_on_ray(1.0, star.mean_radial, ALPHA),
                                    rel=1e-13)
    assert rep.escape.tau_ent == pytest.approx(sf.tau_entry(star.mean_radial, ALPHA), rel=1e-13)
    if expelled:
        landed = rep.escape.attractor
        entry = listed(landed.location)
        assert landed.kind == entry.kind == "fixed_point"
        assert landed.distance_to(entry.location) < 1e-9
        assert landed.label == entry.label == "defocusing" and landed.stable == entry.stable
        assert landed.mean_radial == pytest.approx(entry.mean_radial, rel=1e-12)
        assert landed.stability_exponents == pytest.approx(entry.stability_exponents, rel=1e-9)


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
