"""The float forms of the kernels, the array forms that wrap them, and the
solver counters of the float-native stepper."""

import math

import numpy as np
import pytest

import singularflow as sf
from singularflow import integrators
from singularflow.regularize import regularized_rhs
from singularflow.renorm import renormalized_system

ALPHA = 1.0 / 3.0


def all_builtins():
    return [sf.builtin_field(n, None if n == "sphere3d" else ALPHA) for n in sf.BUILTIN_NAMES]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_builtin_maps_agree_with_their_float_forms(field):
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((2000, field.dimension))
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    form = field.sphere_map.floats
    for y in Y:
        want = field.sphere_map(y)
        got = form(y.tolist())
        assert all(type(v) is float for v in got)
        assert same_bits(got, want)


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
@pytest.mark.parametrize("reverse", [False, True])
def test_renormalized_float_and_array_forms_agree(field, reverse):
    rhs, project = renormalized_system(field, reverse=reverse)
    d = field.dimension
    rng = np.random.default_rng(11)
    for k in range(500):
        y = rng.standard_normal(d)
        # unit, off the unit sphere, and far off it
        y *= (1.0, 1.0 + 1e-9, 3.7)[k % 3] / np.linalg.norm(y)
        u = np.concatenate([y, rng.uniform(-100.0, 100.0, 1)])
        assert same_bits(rhs.floats(0.3, u.tolist()), rhs(0.3, u))
        assert same_bits(project.floats(0.3, u.tolist()), project(0.3, u))
    # a state already on the sphere keeps its bits, in both forms
    u = [1.0] + [0.0] * (d - 1) + [0.5]
    assert same_bits(project.floats(0.0, u), u)
    assert same_bits(project(0.0, np.array(u)), u)


def test_regularized_float_and_array_forms_agree():
    field = sf.builtin_field("saddle2d", ALPHA)
    rng = np.random.default_rng(4)
    for nu in (0.1, 0.03, 1.0):
        for rf in (sf.make_polynomial_blend(field, [1.0, 1.3], nu),
                   sf.make_polynomial_blend(sf.builtin_field("spiral2d", ALPHA), [0.3, -2.0], nu)):
            rhs = regularized_rhs(rf)
            points = [np.zeros(2)]
            for scale in (0.5, 1.0, 2.0, 50.0):  # inside, on |x| = nu, outside
                for _ in range(100):
                    y = rng.standard_normal(2)
                    points.append(nu * scale * y / np.linalg.norm(y))
            for x in points:
                assert same_bits(rhs.floats(0.0, x.tolist()), rhs(0.0, x))
    rhs = regularized_rhs(sf.make_polynomial_blend(field, [1.0, 1.3], 0.1))
    with np.errstate(invalid="ignore"):
        for x in ([math.nan, 0.0], [0.0, math.nan]):
            got, want = rhs.floats(0.0, x), rhs(0.0, np.array(x))
            assert np.isnan(got).all() and np.isnan(want).all()
    for x in ([math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(sf.OriginEvaluation):
            rhs.floats(0.0, x)
        with pytest.raises(sf.OriginEvaluation):
            rhs(0.0, np.array(x))


def test_preset_inner_maps_agree_with_their_float_forms():
    field = sf.builtin_field("power1d", ALPHA)
    for sigma in (1, -1, 0):
        rf = sf.make_preset_1d(field, sigma, 0.25)
        rhs = regularized_rhs(rf)
        for x in np.linspace(-0.6, 0.6, 241):
            assert same_bits(rf.inner_map.floats([x / 0.25]), rf.inner_map(np.array([x / 0.25])))
            assert same_bits(rhs.floats(0.0, [x]), rhs(0.0, np.array([x])))


def _bits(traj):
    return traj.times.tobytes(), traj.states.tobytes(), traj.derivs.tobytes(), traj.status


def test_a_plain_wrapper_gives_the_same_trajectory_bitwise():
    # a wrapper hides the float form, so the run goes through the array
    # adapter; the steps must not change by a bit
    field = sf.builtin_field("sphere3d")
    rhs, project = renormalized_system(field)
    u0 = np.array([0.6, 0.0, 0.8, 0.0])
    native = sf.integrate(rhs, u0, 0.0, 30.0, postprocess=project)
    wrapped = sf.integrate(lambda t, x: rhs(t, x), u0, 0.0, 30.0,
                           postprocess=lambda t, x: project(t, x))
    assert len(native.times) > 100
    assert _bits(native) == _bits(wrapped)

    rf = sf.make_polynomial_blend(sf.builtin_field("saddle2d", ALPHA), [1.0, -2.0], 0.1)
    reg = regularized_rhs(rf)
    ball = integrators._Sphere(0.1)
    runs = [
        sf.integrate(f, np.array([-1.0, 0.0]), 0.0, 2.5, event=ball, direction=-1)
        for f in (reg, lambda t, x: reg(t, x))
    ]
    assert [run.status for run in runs] == ["hit_event", "hit_event"]
    assert _bits(runs[0]) == _bits(runs[1])


def test_twelve_component_array_rhs_matches_its_closed_form(monkeypatch):
    # six decaying rotations, dx/dt = A x, with no float form: the state has
    # more than 8 components, so the error norm takes its NumPy branch
    rates = np.linspace(0.1, 0.6, 6)
    freqs = np.linspace(0.5, 3.0, 6)
    A = np.zeros((12, 12))
    for k, (a, w) in enumerate(zip(rates, freqs)):
        A[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[-a, w], [-w, -a]]

    def rhs(_t, x):
        return A @ x

    sizes = []
    norm = integrators._error_norm

    def recorded(err, *args):
        sizes.append(len(err))
        return norm(err, *args)

    monkeypatch.setattr(integrators, "_error_norm", recorded)
    x0 = np.linspace(-1.0, 1.0, 12)
    opts = sf.IntegrationOptions(rtol=1e-12, atol=1e-14)
    traj = sf.integrate(rhs, x0, 0.0, 5.0, opts)
    assert not hasattr(rhs, "floats")
    assert set(sizes) == {12}
    for t, x in zip(traj.times[::7], traj.states[::7]):
        want = np.empty(12)
        for k, (a, w) in enumerate(zip(rates, freqs)):
            p, q = x0[2 * k: 2 * k + 2]
            c, s = math.cos(w * t), math.sin(w * t)
            want[2 * k: 2 * k + 2] = math.exp(-a * t) * np.array([c * p + s * q, -s * p + c * q])
        assert np.max(np.abs(x - want)) < 1e-9


def test_solver_stats_count_the_run():
    calls = []

    def rhs(t, x):
        calls.append(t)
        return np.array([x[1], -x[0] - 0.1 * x[1]])

    traj = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0)
    st = traj.stats
    assert st.accepted == len(traj.times) - 1
    assert st.rhs_calls == len(calls) == 6 * (st.accepted + st.rejected) + 2
    # the sample times differ by the accepted h up to the rounding of t + h
    steps = np.diff(traj.times)
    assert st.h_min == pytest.approx(steps.min(), rel=1e-12)
    assert st.h_max == pytest.approx(steps.max(), rel=1e-12)

    # a run that stops early keeps the counts up to its stop
    stopped = sf.integrate(rhs, [1.0, 0.0], 0.0, 20.0, until=lambda t, y, f, p: t > 5.0)
    assert stopped.status == "stopped"
    assert stopped.stats.accepted == len(stopped.times) - 1 < st.accepted

    # an event run counts the derivative at the located crossing too
    calls.clear()
    seg = sf.integrate(rhs, np.array([1.0, 0.0]), 0.0, 20.0,
                       event=lambda t, x: float(x[0]), direction=-1)
    assert seg.status == "hit_event" and 0.0 < seg.t_end < 2.0
    assert seg.stats.rhs_calls == len(calls)
    assert seg.stats.accepted == len(seg.times) - 1

    # a failed run carries what it counted
    def blows(t, x):
        return np.array([math.nan if t > 0.5 else 1.0])

    with pytest.raises(sf.StepFailure) as info:
        sf.integrate(blows, [0.0], 0.0, 1.0)
    partial = info.value.trajectory
    assert partial.stats.accepted == len(partial.times) - 1
    assert partial.stats.rejected == 0 and partial.stats.rhs_calls > 6 * partial.stats.accepted


def test_regularized_run_sums_the_stats_of_its_segments():
    import dataclasses

    field = sf.builtin_field("saddle2d", ALPHA)
    smap = field.sphere_map
    calls = [0]

    def counted(y):
        calls[0] += 1
        return smap(y)

    counting = dataclasses.replace(field, sphere_map=counted)
    rf = sf.make_polynomial_blend(counting, [1.0, -2.0], 0.1)
    traj = sf.integrate_regularized(rf, [-1.0, 0.0], 0.0, 2.5)
    st = traj.stats
    # the run enters and leaves the ball; its stats count every
    # right-hand-side call, each of which evaluates the map once (no state
    # is at the centre)
    assert np.sum(np.diff(traj.radii() < 0.1) != 0) >= 2
    assert st.accepted == len(traj.times) - 1
    assert st.rhs_calls == calls[0]
    assert st.rhs_calls > 6 * (st.accepted + st.rejected)
    assert 0.0 < st.h_min <= st.h_max


def test_located_crossings_lie_on_the_side_crossed_to():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(3000):
        d = 1 + int(rng.integers(3))
        yp, fp, yn, fn = rng.standard_normal((4, d))
        e = rng.standard_normal(d) * rng.choice([0.0, 1e-6, 1e-3])
        tp = float(rng.uniform(-2.0, 2.0))
        step = (tp, yp, fp, tp + float(rng.uniform(1e-3, 2.0)), yn, fn, e)
        sphere = integrators._Sphere(float(rng.uniform(0.3, 2.0)))
        g0 = sphere(tp, yp)
        for direction in (+1, -1):
            bracket, _ = integrators._scan_step(sphere, direction, g0, step)
            if bracket is None:
                continue
            hits += 1
            t_e, x_e = integrators._locate_crossing(sphere, step, bracket)
            g = sphere(t_e, x_e)
            assert bracket[0] < t_e <= bracket[2]
            assert (g >= 0.0) if direction > 0 else (g <= 0.0)
    assert hits > 500


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"a float kernel called np.{name}")


def test_float_kernels_run_on_floats_alone(monkeypatch):
    # every float form runs on Python floats: none builds an array
    from singularflow import fields, regularize, renorm

    saddle = sf.builtin_field("saddle2d", ALPHA)
    rf = sf.make_polynomial_blend(saddle, [1.0, -2.0], 0.1)
    kernels = [
        (fields._ideal_rhs(saddle).floats, (0.0, [0.3, -0.4])),
        (regularized_rhs(rf).floats, (0.0, [0.3, -0.4])),
        (regularized_rhs(rf).floats, (0.0, [0.03, -0.04])),
        (rf.inner_map.floats, ([0.3, -0.4],)),
    ]
    for field in all_builtins():
        d = field.dimension
        rhs, project = renormalized_system(field)
        y = [0.6] + [0.8] + [0.0] * (d - 2) if d > 1 else [1.0]
        kernels += [(field.sphere_map.floats, (y,)), (rhs.floats, (0.0, y + [0.5])),
                    (project.floats, (0.0, [2.0 * v for v in y] + [0.5]))]
    for module in (fields, regularize, renorm, integrators):
        monkeypatch.setattr(module, "np", _NoNumpy())
    for form, args in kernels:
        assert all(type(v) is float for v in form(*args))


def test_blend_evaluates_below_the_ideal_fields_overflow_guard():
    # the regularized field is defined everywhere: the blend's ideal term
    # takes any rho > 0, where the weight has underflowed to 0
    field = sf.builtin_field("saddle2d", ALPHA)
    inner = sf.make_polynomial_blend(field, [1.0, -2.0], 0.1).inner_map
    for X in ([1e-310, 0.0], [-3e-305, 2e-306], [5e-324, 5e-324]):
        assert 0.0 < math.hypot(*X) < sf.fields.OVERFLOW_GUARD
        assert inner.floats(X) == [1.0, -2.0]
        assert np.array_equal(inner(np.array(X)), [1.0, -2.0])
