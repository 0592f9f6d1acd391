"""The float forms of the kernels, the array forms that wrap them, and the
solver counters of the float-native stepper."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

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
    arrays = traj.times, traj.states, traj.derivs, traj.dense
    return *(a.tobytes() for a in arrays), traj.status


def test_a_plain_wrapper_gives_the_same_trajectory_bitwise():
    # a wrapper hides the float form, so the run goes through the array
    # adapter; the steps must not change by a bit
    field = sf.builtin_field("sphere3d")
    rhs, project = renormalized_system(field)
    u0 = np.array([0.6, 0.0, 0.8, 0.0])
    native = sf.integrate(rhs, u0, 0.0, 60.0, postprocess=project)
    wrapped = sf.integrate(lambda t, x: rhs(t, x), u0, 0.0, 60.0,
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


@pytest.mark.parametrize("n", [2, 10, 12, 50])
def test_array_rhs_matches_its_closed_form(n):
    # n / 2 decaying rotations, dx/dt = A x, with no float form: each size
    # runs its own rendered step loop, whose per-component names (k1_0 to
    # k1_49 at n = 50) must not shadow the loop's own
    blocks = n // 2
    rates = np.linspace(0.1, 0.6, blocks)
    freqs = np.linspace(0.5, 3.0, blocks)
    A = np.zeros((n, n))
    for k, (a, w) in enumerate(zip(rates, freqs)):
        A[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[-a, w], [-w, -a]]

    def rhs(_t, x):
        return A @ x

    x0 = np.linspace(-1.0, 1.0, n)
    opts = sf.IntegrationOptions(rtol=1e-12, atol=1e-14)
    traj = sf.integrate(rhs, x0, 0.0, 5.0, opts)
    assert not hasattr(rhs, "floats")
    # the steps are the reference stepper's, whose norm and starting step
    # take all n components
    stats = sf.SolverStats(rhs_calls=1)
    steps = list(ref_stepper(lambda t, y: rhs(t, np.array(y)).tolist(), x0.tolist(),
                             rhs(0.0, x0).tolist(), 0.0, 5.0, opts, stats))
    assert stats == traj.stats
    assert same_bits(traj.times, [0.0] + [step[3] for step in steps])
    assert same_bits(traj.states, [x0] + [step[4] for step in steps])
    for t, x in zip(traj.times[::7], traj.states[::7]):
        want = np.empty(n)
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
    per_try, per_step = integrators._STAGES, integrators._DENSE_STAGES
    attempts = st.accepted + st.rejected
    assert st.rhs_calls == len(calls) == 2 + per_try * attempts + per_step * st.accepted
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
    assert partial.stats.rejected == 0
    assert partial.stats.rhs_calls > (per_try + per_step) * partial.stats.accepted


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
    assert st.rhs_calls > integrators._STAGES * (st.accepted + st.rejected)
    assert 0.0 < st.h_min <= st.h_max


def test_located_crossings_lie_on_the_side_crossed_to():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(3000):
        d = 1 + int(rng.integers(3))
        yp, fp, yn, fn = rng.standard_normal((4, d))
        terms = rng.standard_normal((integrators._TERMS, d)) * rng.choice([0.0, 1e-6, 1e-3])
        tp = float(rng.uniform(-2.0, 2.0))
        step = (tp, yp, fp, tp + float(rng.uniform(1e-3, 2.0)), yn, fn, terms)
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


# ---------------------------------------------------------------------------
# The rendered kernels against the list-comprehension formulas they replaced,
# kept here as the reference: the same float operations in the same order,
# so every output must match bit for bit, and every failure by its type
# ---------------------------------------------------------------------------


def ref_ideal_kernel(field):
    alpha = field.alpha
    smap = integrators._float_form(field.sphere_map)

    def ideal(x, r):
        try:
            scale = r**alpha
        except OverflowError:
            scale = math.inf
        return [scale * f for f in smap([v / r for v in x])]

    return ideal


def ref_renormalized_system(field, reverse):
    d = field.dimension
    smap = integrators._float_form(field.sphere_map)

    def rhs(_s, u):
        y = u[:d]
        r = math.hypot(*y)
        y = [v / r for v in y] if r else [math.nan] * d
        F = smap(y)
        fr = 0.0
        for p, q in zip(F, y):
            fr += p * q
        if reverse:
            dy = [fr * q - p for p, q in zip(F, y)]
        else:
            dy = [p - fr * q for p, q in zip(F, y)]
        dy.append(fr)
        return dy

    def project(_s, u):
        y = u[:d]
        norm = math.hypot(*y)
        out = [v / norm for v in y] if norm else [math.nan] * d
        out.append(u[d])
        return out

    return rhs, project


def ref_blend_inner_map(base, core):
    ideal = ref_ideal_kernel(base)

    def inner(X):
        rho = math.hypot(*X)
        if rho == 0.0:
            return list(core(X))
        w = sf.regularize.blend_weight(rho)
        rest = 1.0 - w
        return [w * f + rest * g for f, g in zip(ideal(X, rho), core(X))]

    return inner


def ref_regularized_rhs(base, nu, inner_map):
    ideal = ref_ideal_kernel(base)
    inner_scale = float(nu**base.alpha)

    def rhs(_t, x):
        r = math.hypot(*x)
        if r > nu:
            return ideal(x, sf.fields._checked_radius(r))
        return [inner_scale * g for g in inner_map([v / nu for v in x])]

    return rhs


def ref_hull(step, k=None):
    """The Bernstein points of the first k components of a step's dense
    output and the 1-norm of the values they are formed from, component
    by component: y0, h f0, y1, h f1 and the terms."""
    tp, yp, fp, tn, yn, fn, terms = step
    h = tn - tp
    ends = [integrators._floats(a)[:k] for a in (yp, fp, yn, fn)]
    rows = [row[:k] for row in integrators._floats(terms)]
    columns = [[a[i] for a in ends + rows] for i in range(len(ends[0]))]
    hull = list(zip(*(ref_bernstein(h, *c) for c in columns)))
    sizes = [abs(x) for p, v, r, w, *c in columns for x in (p, h * v, r, h * w, *c)]
    return hull, _left_to_right(sizes)


def ref_bernstein(h, p, v, r, w, *terms):
    """One column's Bernstein points: each a sum of the Bernstein weights of
    integrators._basis times the values of _dense, y0, y1, F_1, F_2 and the
    terms, left to right."""
    rise = r - p
    g1 = h * v - rise
    values = (p, r, g1, rise - h * w - g1, *terms)
    return [_left_to_right([weight * values[j] for j, weight in weights])
            for weights in integrators._basis(len(terms))[1]]


def ref_sphere_clear_of(r, g_prev, step):
    hull, l1 = ref_hull(step)
    margin = 128 * (len(hull[0]) + 2) * integrators._EPS * (l1 + r)
    if g_prev < 0.0:
        return max(math.hypot(*p) for p in hull) + margin < r
    if g_prev > 0.0:
        c = [0.5 * (a + b) for a, b in zip(hull[0], hull[-1])]
        spread = max(math.hypot(*(a - b for a, b in zip(p, c))) for p in hull)
        return math.hypot(*c) - spread - margin > r
    return False


def ref_error_norm(h, err5, err3, ay0, ay1, atol, rtol):
    """dop853's norm of the estimates err5 and err3 over their scale, with
    ay0 and ay1 the |y| of the step's two ends, the squares summed left to
    right: h |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)), 0 when both are 0."""
    n = len(err5)
    e5 = e3 = 0.0
    for p, q, a, b in zip(err5, err3, ay0, ay1):
        # the larger of a and b, or NaN if either is NaN, as np.maximum
        scale = atol + rtol * (a if a > b or a != a else b)
        p, q = p / scale, q / scale
        e5 += p * p
        e3 += q * q
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 or e3 else 0.0


def ref_mean(squares):
    """np.mean of an array, its sum taken left to right."""
    total = 0.0
    for q in squares.tolist():
        total += q
    return total / len(squares)


def ref_initial_step(f, t0, y0, f0, atol, rtol, max_step, mean=ref_mean):
    # Hairer/Wanner starting-step heuristic, on arrays; f is a float form.  A
    # norm that overflows (atol far below |y0| or |f0|) measures no more than
    # one too small to measure, and both take the fallback steps.
    with np.errstate(over="ignore"):
        scale = atol + rtol * np.abs(y0)
        d0 = math.sqrt(float(mean((y0 / scale) ** 2)))
        d1 = math.sqrt(float(mean((f0 / scale) ** 2)))
        h0 = 0.01 * d0 / d1 if 1e-5 <= min(d0, d1) and max(d0, d1) < math.inf else 1e-6
        f1 = np.array(f(t0 + h0, (y0 + h0 * f0).tolist()))
        d2 = math.sqrt(float(mean(((f1 - f0) / scale) ** 2))) / h0
    d12 = max(d1, d2)
    h1 = (0.01 / d12) ** 0.125 if 1e-15 < d12 < math.inf else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, max_step)


_I = integrators


def _weights(row):
    return tuple((w, j) for j, w in row.items())


# the Dormand-Prince 8(5,3) stages k2 to k12 and k14 to k16 as (c, weights),
# each weight (a, j) on stage k_(j+1); then the weights of the solution, of
# the two error estimates and of the dense output's terms
REF_STAGES = tuple((_I._C[i], _weights(_I._A[i])) for i in range(1, 12))
REF_EXTRA = tuple((_I._C[i], _weights(_I._A[i])) for i in range(13, 16))
REF_SOLUTION = _weights(_I._B)
REF_E5, REF_E3 = _weights(_I._E5), _weights(_I._E3)
REF_DENSE = tuple(_weights(row) for row in _I._D)


def ref_combination(h, weights, ks):
    """h (a_1 k_1 + a_2 k_2 + ...) per component, each sum left to right."""
    out = []
    for i in range(len(ks[0])):
        (a, j), *rest = weights
        total = a * ks[j][i]
        for a, j in rest:
            total += a * ks[j][i]
        out.append(h * total)
    return out


def ref_stage(f, t, y, h, c, weights, ks):
    return f(t + c * h, [v + dv for v, dv in zip(y, ref_combination(h, weights, ks))])


def ref_stepper(f, y, k1, t, t1, opts, stats):
    """The step loop on lists, with ref_initial_step and ref_error_norm:
    yields (t, y, f, t_new, y_new, f_new, terms) per accepted step."""
    atol, rtol, max_step = opts.atol, opts.rtol, opts.max_step
    h = min(ref_initial_step(f, t, np.array(y), np.array(k1), atol, rtol, max_step), t1 - t)
    stats.rhs_calls += 1
    while t < t1:
        h = min(h, max_step, t1 - t)
        if h < 16 * _I._EPS * max(1.0, abs(t)):
            raise sf.StepFailure("step size underflow at t = %r" % t)
        ks = [k1]
        for c, weights in REF_STAGES:
            ks.append(ref_stage(f, t, y, h, c, weights, ks))
        y_new = [v + dv for v, dv in zip(y, ref_combination(h, REF_SOLUTION, ks))]
        t_new = t + h
        ks.append(f(t_new, y_new))
        stats.rhs_calls += 12
        if not all(math.isfinite(v) for v in y_new + ks[12]):
            raise sf.StepFailure("non-finite state or right-hand side in the step from t = %r "
                                 "(h = %r)" % (t, h))
        err5, err3 = (ref_combination(1.0, weights, ks) for weights in (REF_E5, REF_E3))
        enorm = ref_error_norm(h, err5, err3, [abs(v) for v in y], [abs(v) for v in y_new],
                               atol, rtol)
        if enorm <= 1.0:
            for c, weights in REF_EXTRA:
                ks.append(ref_stage(f, t, y, h, c, weights, ks))
            stats.rhs_calls += 3
            if not all(math.isfinite(v) for k in ks[13:] for v in k):
                raise sf.StepFailure("non-finite right-hand side in the dense output of the step "
                                     "from t = %r (h = %r)" % (t, h))
            stats.accepted += 1
            stats.h_min, stats.h_max = min(stats.h_min, h), max(stats.h_max, h)
            yield t, y, k1, t_new, y_new, ks[12], [ref_combination(h, w, ks) for w in REF_DENSE]
            t, y, k1 = t_new, y_new, ks[12]
            factor = _I._MAX_FACTOR if enorm == 0.0 else min(_I._MAX_FACTOR,
                                                            _I._SAFETY * enorm ** -0.125)
            h *= max(_I._MIN_FACTOR, factor)
        else:  # an overflowed norm, inf or NaN, rejects at the smallest factor
            stats.rejected += 1
            h *= (max(_I._MIN_FACTOR, min(1.0, _I._SAFETY * enorm ** -0.125))
                  if math.isfinite(enorm) else _I._MIN_FACTOR)


def _cyclic_floats(y):
    d = len(y)
    return [y[(i + 1) % d] - 0.5 * y[i] * y[i - 1] + 0.25 * y[i] * y[i] for i in range(d)]


def _cyclic_array(y):  # the same map on arrays, with no float form
    return np.roll(y, -1) - 0.5 * y * np.roll(y, 1) + 0.25 * y * y


def oracle_fields():
    """Fields at d = 1 to 5: the built-ins, a map with a float form at
    d = 4 and 5, maps with none at d = 1 to 5, and a null map."""
    out = all_builtins()
    out += [sf.SingularField(d, -0.4, integrators._with_floats(_cyclic_floats), name=f"cyclic{d}")
            for d in (4, 5)]
    out += [sf.SingularField(d, 0.2, _cyclic_array, name=f"arrays{d}") for d in range(1, 6)]
    # F = -0.0 y: every term of F_r is -0.0, and only its 0.0 start makes it 0.0
    zero = integrators._with_floats(lambda y: [-0.0 * v for v in y])
    out.append(sf.SingularField(2, 0.5, zero, name="zero2"))
    return out


def outcome(fn, *args):
    """The output's bytes, or the type of what it raised."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


def special_points(d):
    """r = 0, signed zeros, NaN and +-inf states of d components."""
    one = [1.0] + [0.0] * (d - 1)
    return [
        [0.0] * d, [-0.0] * d, [-0.0] + [0.0] * (d - 1), [-v for v in one], one[::-1],
        [-0.0] + [0.6] * (d - 1) if d > 1 else [-1.0],
        [math.nan] + [0.5] * (d - 1), [0.5] * (d - 1) + [math.nan],
        [math.inf] + [0.5] * (d - 1), [0.5] * (d - 1) + [-math.inf], [math.inf] * d,
        [5e-324] * d, [1e-310] + [0.0] * (d - 1), [-3e-305] + [2e-306] * (d - 1),
    ]


def random_points(rng, d, count, scales):
    return [(s * rng.standard_normal(d)).tolist() for s in scales for _ in range(count)]


@pytest.mark.parametrize("field", oracle_fields(), ids=lambda f: f.name)
@pytest.mark.parametrize("reverse", [False, True])
def test_rendered_renormalized_system_is_the_reference_bitwise(field, reverse):
    d = field.dimension
    rhs, project = (form.floats for form in renormalized_system(field, reverse))
    ref_rhs, ref_project = ref_renormalized_system(field, reverse)
    rng = np.random.default_rng(20 + d)
    points = random_points(rng, d, 60, (1.0, 1e-3, 3.7, 1e3)) + special_points(d)
    with np.errstate(all="ignore"):
        for y in points:
            for z in (0.25, -0.0, math.nan):
                u = y + [z]
                assert outcome(rhs, 0.1, u) == outcome(ref_rhs, 0.1, u), u
                assert outcome(project, 0.1, u) == outcome(ref_project, 0.1, u), u


@pytest.mark.parametrize("field", oracle_fields(), ids=lambda f: f.name)
def test_rendered_ideal_kernel_is_the_reference_bitwise(field):
    d = field.dimension
    rng = np.random.default_rng(30 + d)
    points = random_points(rng, d, 100, (1.0, 1e-3, 1e3)) + special_points(d)
    # alpha = -1.5 overflows r^alpha at the smallest radii
    for f in (field, dataclasses.replace(field, alpha=-1.5)):
        ideal, ref = sf.fields._ideal_kernel(f), ref_ideal_kernel(f)
        with np.errstate(all="ignore"):
            for x in points:
                r = math.hypot(*x)
                assert outcome(ideal, x, r) == outcome(ref, x, r), (x, r)
        assert outcome(ideal, [5e-324] * d, 5e-324) == outcome(ref, [5e-324] * d, 5e-324)


@pytest.mark.parametrize("field", oracle_fields(), ids=lambda f: f.name)
def test_rendered_blend_and_regularized_field_are_the_reference_bitwise(field):
    from singularflow.regularize import _blend_inner_map

    d = field.dimension
    rng = np.random.default_rng(40 + d)
    g0 = rng.standard_normal(d).tolist()
    cores = [lambda _X: g0]
    if d == 1:  # the presets' affine cores
        cores += [lambda X: [0.5 * (1.0 + X[0])], lambda X: [(1.0 - 8.0 * X[0]) / 6.0]]
    for core in cores:
        blend, ref_inner = _blend_inner_map(field, core), ref_blend_inner_map(field, core)
        inner = blend.floats
        points = random_points(rng, d, 100, (0.3, 1.0, 3.0)) + special_points(d)
        with np.errstate(all="ignore"):
            for X in points:
                assert outcome(inner, X) == outcome(ref_inner, X), X
        for nu in (0.1, 1.0):
            ref = ref_regularized_rhs(field, nu, ref_inner)
            # the blend's lines rendered in the field's kernel, and called
            for inner_map in (blend, integrators._with_floats(inner)):
                rhs = regularized_rhs(sf.RegularizedField(field, nu, inner_map)).floats
                with np.errstate(all="ignore"):
                    for x in points:
                        x = [nu * v for v in x]
                        assert outcome(rhs, 0.0, x) == outcome(ref, 0.0, x), (nu, x)


def called(field):
    """The same field with its sphere map behind a plain lambda, which carries
    no source: every kernel built on it calls the map."""
    smap = field.sphere_map
    return dataclasses.replace(field, sphere_map=lambda y: smap(y))


def builtin_blends(field, nu):
    """The polynomial blend of field at nu, and for power1d the three presets."""
    out = [sf.make_polynomial_blend(field, [0.3, -2.0, 1.0][: field.dimension], nu)]
    if field.dimension == 1:
        out += [sf.make_preset_1d(field, sigma, nu) for sigma in (1, -1, 0)]
    return out


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_rendered_maps_are_their_call_path_bitwise(field):
    # a built-in map's source is rendered into the kernels built on it; the
    # same field with the map behind a plain lambda runs the same templates
    # through their call lines, and every outcome must be the same: the
    # output's bits, or the type of what it raised.  sphere3d's map has a
    # temporary w, as the blend has; were one to shadow the other, the
    # blend's cases would differ
    from singularflow import fields

    d = field.dimension
    plain = called(field)
    rng = np.random.default_rng(60 + d)
    points = random_points(rng, d, 60, (1.0, 1e-3, 3.7, 1e3)) + special_points(d)
    with np.errstate(all="ignore"):
        for reverse in (False, True):
            pairs = zip(renormalized_system(field, reverse), renormalized_system(plain, reverse))
            for fused, call in pairs:
                for y in points:
                    for z in (0.25, math.nan):
                        u = y + [z]
                        assert outcome(fused.floats, 0.1, u) == outcome(call.floats, 0.1, u), u
        # alpha = -1.5 overflows r^alpha at the smallest radii
        for alpha in (field.alpha, -1.5):
            fused, call = (fields._ideal_kernel(dataclasses.replace(f, alpha=alpha))
                           for f in (field, plain))
            for x in points:
                r = math.hypot(*x)
                assert outcome(fused, x, r) == outcome(call, x, r), (alpha, x)
        origin = [0.0] * d
        assert outcome(field._ideal.floats, 0.0, origin) is sf.OriginEvaluation
        assert outcome(plain._ideal.floats, 0.0, origin) is sf.OriginEvaluation
        for nu in (0.1, 1.0):
            # inside the ball, outside it, at its centre, NaN and infinite states
            xs = [[nu * v for v in x] for x in random_points(rng, d, 60, (0.3, 1.0, 3.0))]
            xs += [origin, [math.nan] * d, [math.inf] + [0.5] * (d - 1)]
            for rf, rf_call in zip(builtin_blends(field, nu), builtin_blends(plain, nu)):
                fused, call = regularized_rhs(rf).floats, regularized_rhs(rf_call).floats
                for x in xs:
                    assert outcome(fused, 0.0, x) == outcome(call, 0.0, x), (rf.blend_kind, nu, x)
                    X = [v / nu for v in x]
                    assert outcome(rf.inner_map.floats, X) == outcome(rf_call.inner_map.floats, X)
                assert outcome(fused, 0.0, xs[-1]) is sf.OriginEvaluation


@pytest.mark.parametrize("field", all_builtins(), ids=lambda f: f.name)
def test_builtin_kernels_hold_no_map_call(field):
    # the source each rendered kernel shows in tracebacks (linecache): the
    # built-in map's lines stand in place of its call, and a blend's kernel
    # calls neither the map, its ideal term nor its core; the same kernels on
    # a map behind a lambda call it
    import linecache

    from singularflow import fields

    def text(fn):
        return "".join(linecache.getlines(fn.__code__.co_filename))

    for f, calls in ((field, False), (called(field), True)):
        rf = builtin_blends(f, 0.1)[0]
        kernels = [renormalized_system(f)[0].floats, fields._ideal_kernel(f),
                   regularized_rhs(rf).floats, rf.inner_map.floats]
        for kernel in kernels:
            source = text(kernel)
            assert source.startswith("def ") and ("= smap(" in source) == calls, source
            assert not re.search(r"= (ideal|inner|core)\(", source), source


def test_rendered_sphere_prefilter_is_the_reference():
    rng = np.random.default_rng(50)
    answers = set()
    for _ in range(1000):
        d = 1 + int(rng.integers(5))
        yp, fp, yn, fn = rng.standard_normal((4, d))
        terms = rng.standard_normal((integrators._TERMS, d)) * rng.choice([0.0, 1e-6, 1e-2])
        if rng.random() < 0.5:
            terms = terms.tolist()  # as the stepper yields them
        tp = float(rng.uniform(-2.0, 2.0))
        step = (tp, yp, fp, tp + float(rng.uniform(1e-4, 0.5)), yn, fn, terms)
        # radii across the hull, and within a margin of its inner and outer
        # bounds, where only the margin decides
        hull, l1 = ref_hull(step)
        margin = 128 * (d + 2) * integrators._EPS * l1
        c = [0.5 * (a + b) for a, b in zip(hull[0], hull[-1])]
        inner = math.hypot(*c) - max(math.hypot(*(a - b for a, b in zip(p, c))) for p in hull)
        outer = max(math.hypot(*p) for p in hull)
        radii = [float(np.linalg.norm(yp)) * k for k in (0.2, 0.9, 1.0, 1.1, 5.0)]
        radii += [bound + k * margin for bound in (inner, outer) for k in (-1.1, -0.9, 0.9, 1.1)]
        for radius in radii:
            sphere = integrators._Sphere(radius)
            for g_prev in (sphere(tp, yp), -1.0, 0.0, 1.0, math.nan):
                got = sphere.clear_of(g_prev, step)
                assert got is ref_sphere_clear_of(radius, g_prev, step)
                answers.add((g_prev > 0.0, got))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


def test_reference_norm_and_starting_step_are_the_numpy_formulas():
    # the norm is scipy's DOP853._estimate_error_norm, its squares summed
    # by np.sum (np.linalg.norm squared agrees to rounding)
    rng = np.random.default_rng(5)
    for n in range(1, 10):
        for _ in range(2000):
            err5, err3 = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-14.0, 0.0, (2, n))
            ay0, ay1 = np.abs(rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-4.0, 4.0, (2, n)))
            h = float(10.0 ** rng.uniform(-3.0, 1.0))
            scale = 1e-12 + 1e-9 * np.maximum(ay0, ay1)
            q5, q3 = (err5 / scale) ** 2, (err3 / scale) ** 2
            # np.add.reduce sums fewer than 8 terms left to right, and more
            # pairwise, where the sequential sum stands in
            e5, e3 = (float(np.sum(q) if n < 8 else n * ref_mean(q)) for q in (q5, q3))
            want = h * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            got = ref_error_norm(h, err5.tolist(), err3.tolist(), ay0.tolist(), ay1.tolist(),
                                 1e-12, 1e-9)
            assert got == want if n < 8 else got == pytest.approx(want, rel=1e-15)
            denom = np.linalg.norm(err5 / scale) ** 2 + 0.01 * np.linalg.norm(err3 / scale) ** 2
            assert got == pytest.approx(h * np.linalg.norm(err5 / scale) ** 2
                                        / np.sqrt(denom * n), rel=1e-13)
    # a NaN in either |y| poisons the norm, as np.maximum does; an infinite
    # |y| only widens the scale; both estimates 0 read 0
    err = [1e-9, 0.0]
    assert math.isnan(ref_error_norm(1.0, err, err, [math.nan, 1.0], [1.0, 1.0], 1e-12, 1e-9))
    assert math.isnan(ref_error_norm(1.0, err, err, [1.0, 1.0], [1.0, math.nan], 1e-12, 1e-9))
    assert ref_error_norm(1.0, err, err, [math.inf, 1.0], [1.0, 1.0], 1e-12, 1e-9) == 0.0
    assert ref_error_norm(1.0, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1e-12, 1e-9) == 0.0
    # below 8 components the sequential means are np.mean's, bit for bit
    for n in range(1, 8):
        for _ in range(300):
            y0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
            mix = rng.standard_normal((n, n))
            f = lambda _t, y: (mix @ np.array(y)).tolist()
            f0 = np.array(f(0.0, y0))
            atol, rtol = 10.0 ** rng.uniform(-14.0, -3.0, 2)
            assert (ref_initial_step(f, 0.0, y0, f0, atol, rtol, math.inf)
                    == ref_initial_step(f, 0.0, y0, f0, atol, rtol, math.inf, mean=np.mean))


def rendered_stepper(f, y, k1, t, t1, opts, stats):
    return integrators._stepper(integrators._with_floats(f), np.array(y), np.array(k1), t, t1,
                                opts, stats)


def stepper_record(stepper, form, x0, t1, opts):
    """What a stepper does from x0 at t = 0: the bytes of its right-hand-side
    calls and of its accepted steps, its stats, and its failure if any."""
    calls, steps = [], []

    def logged(t, y):
        calls.append([t, *y])
        return form(t, y)

    stats = sf.SolverStats(rhs_calls=1)
    failure = None
    try:
        for t, y, f, t_new, y_new, f_new, terms in stepper(logged, x0, form(0.0, x0), 0.0, t1,
                                                            opts, stats):
            steps.append([t, *y, *f, t_new, *y_new, *f_new, *(v for row in terms for v in row)])
    except sf.StepFailure as exc:
        failure = str(exc)
    return np.array(calls).tobytes(), np.array(steps).tobytes(), dataclasses.astuple(stats), failure


def overflowing(t, y):
    # from 1.79e308, component 0 runs at 1e307 a unit time and overflows to
    # inf at t = 0.077, where the error scale atol + rtol |y_new| would be
    # inf too and count that component's error as 0: the step fails instead
    return [1e307] + [-0.5 * v for v in y[1:]]


def forced(t, y):
    n = len(y)
    return [math.cos(7.0 * t) * y[(i + 1) % n] - 0.2 * y[i] + math.sin(11.0 * t) for i in range(n)]


@pytest.mark.parametrize("n", range(1, 10))
def test_rendered_stepper_takes_the_reference_steps_bitwise(n):
    # the stepper renders its norm and starting step on floats; a stepper
    # calling ref_error_norm and ref_initial_step makes the same
    # right-hand-side calls, accepts and rejects the same steps, with the
    # same dense-output terms, and fails the same way, bit for bit
    rng = np.random.default_rng(60 + n)
    loose = sf.IntegrationOptions(rtol=1e-4, atol=1e-7)
    cases = [
        (lambda t, y: _cyclic_floats(y), (0.5 * rng.standard_normal(n)).tolist(), 4.0, loose),
        (lambda t, y: _cyclic_floats(y), (0.5 * rng.standard_normal(n)).tolist(), 4.0,
         sf.IntegrationOptions()),
        (forced, rng.standard_normal(n).tolist(), 6.0, loose),
        (forced, (1e-150 * rng.standard_normal(n)).tolist(), 1.0, sf.IntegrationOptions(atol=1e-300)),
        (overflowing, [1.79e308] + rng.standard_normal(n - 1).tolist(), 1.0, loose),
        # finite values whose error norm overflows: every step is rejected
        (forced, rng.standard_normal(n).tolist(), 1.0,
         sf.IntegrationOptions(atol=5e-324, rtol=1e-300)),
    ]
    records = []
    for form, x0, t1, opts in cases:
        records.append(stepper_record(ref_stepper, form, x0, t1, opts))
        assert stepper_record(rendered_stepper, form, x0, t1, opts) == records[-1], (form, x0)
    assert sum(stats[2] for _, _, stats, _ in records) > 0
    # the overflowing run fails on the step that would overflow, having
    # accepted finite states only
    _, steps, stats, failure = records[-2]
    assert failure.startswith("non-finite state or right-hand side in the step")
    assert np.all(np.isfinite(np.frombuffer(steps)))
    # the overflowing norm shrinks h, step after rejected step, to underflow
    _, steps, stats, failure = records[-1]
    assert failure.startswith("step size underflow") and stats[2] > 10


@pytest.mark.parametrize("rtol", [1e-300, 1e-9, 1e300])
@pytest.mark.parametrize("atol", [5e-324, 1e-300, 1e-12, 1e300])
def test_starting_step_is_positive_and_finite_for_every_accepted_tolerance(atol, rtol):
    # a zero component of x0 puts atol alone in the scale of the starting-step
    # heuristic; where its norms overflow, it falls back to a fixed step.
    # From t = 0 the first stage after the probe is called at 0.2 h.  The
    # run reaches an accepted step, or fails by step-size underflow, where
    # at the tiniest atol an error norm that overflows rejects every step:
    # never on a starting step that is not positive and finite, nor on a
    # non-finite state
    f = sf.builtin_field("spiral2d", ALPHA)
    opts = sf.IntegrationOptions(rtol=rtol, atol=atol)
    for x0 in ([1.0, 0.0], [1e-150, 0.0], [1e100, 0.0]):
        times = []

        def rhs(t, x):
            times.append(t)
            return sf.eval_field(f, x)

        x0 = np.array(x0)
        steps = integrators._stepper(rhs, x0, rhs(0.0, x0), 0.0, 1.0, opts, sf.SolverStats())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowed norm is expected, and silent
            try:
                next(steps)
            except sf.StepFailure as exc:
                assert str(exc).startswith("step size underflow"), (x0, exc)
                if len(times) == 2:  # the start and the probe: h underflowed
                    continue
        assert 0.0 < times[2] < math.inf, (x0, times)


def test_each_template_is_rendered_once_per_size():
    # in a fresh interpreter: importing the package renders nothing, not
    # even the text of a template, the first classify_blowup run renders the
    # stepper (3 components) and the renormalized system (dimension 2), and
    # the second renders nothing
    code = (
        "import singularflow as sf, singularflow.cli\n"
        "from singularflow import integrators\n"
        "assert integrators._texts.cache_info().currsize == 0\n"
        "print(integrators._rendered.cache_info())\n"
        "field = sf.builtin_field('saddle2d', 1 / 3)\n"
        "for y0 in ([-1.0, 0.0], [0.6, 0.8]):\n"
        "    sf.classify_blowup(field, y0, s_budget=64.0)\n"
        "    print(integrators._rendered.cache_info())\n"
    )
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = proc.stdout.splitlines()
    assert at_import == "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)"
    assert first == "CacheInfo(hits=0, misses=2, maxsize=None, currsize=2)"
    assert second == "CacheInfo(hits=2, misses=2, maxsize=None, currsize=2)"


# ---------------------------------------------------------------------------
# The float step path: lists from the stepper to the trajectory's buffers,
# the section plane's hull prefilter and one-component dense output
# ---------------------------------------------------------------------------


def _left_to_right(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def ref_plane_clear_of(normal, point, g_prev, step):
    """_Plane.clear_of as plain loops: the hull of the first k components,
    the plane's value at each hull point and the margin, each sum left to
    right."""
    k = len(normal)
    hull, l1 = ref_hull(step, k)
    g = [_left_to_right([n * (v - o) for n, v, o in zip(normal, p, point)]) for p in hull]
    margin = 128 * (k + 2) * integrators._EPS * _left_to_right([l1] + [abs(o) for o in point])
    if g_prev < 0.0:
        return max(g) + margin < 0.0
    if g_prev > 0.0:
        return min(g) - margin > 0.0
    return False


def test_rendered_plane_prefilter_is_the_reference_and_the_full_scan():
    rng = np.random.default_rng(60)
    answers = set()
    for _ in range(600):
        k = 1 + int(rng.integers(4))
        n = k + int(rng.integers(2))  # a section of (y, z) reads y alone
        yp, fp, yn, fn = rng.standard_normal((4, n))
        terms = rng.standard_normal((integrators._TERMS, n)) * rng.choice([0.0, 1e-6, 1e-2])
        if rng.random() < 0.5:  # lists, as the stepper yields them
            yp, fp, yn, fn, terms = (a.tolist() for a in (yp, fp, yn, fn, terms))
        tp = float(rng.uniform(-2.0, 2.0))
        step = (tp, yp, fp, tp + float(rng.uniform(1e-4, 0.5)), yn, fn, terms)
        normal = rng.standard_normal(k)
        normal /= np.linalg.norm(normal)
        # planes across the hull, and within a few margins of its lowest and
        # highest value, where only the margin decides
        origin = np.zeros(k)
        hull, l1 = ref_hull(step, k)
        values = [float(normal @ np.array(p)) for p in hull]
        margin = 128 * (k + 2) * integrators._EPS * l1
        shifts = [0.5 * (min(values) + max(values))]
        shifts += [bound + f * margin for bound in (min(values), max(values))
                   for f in (-3.0, -1.1, -0.9, 0.9, 1.1, 3.0)]
        for shift in shifts:
            plane = integrators._Plane(normal, origin + shift * normal)
            plain = lambda t, x, p=plane: float(p.normal @ (x[:k] - p.point))
            for g_prev in (plane(tp, np.asarray(yp)), -1.0, 0.0, 1.0, math.nan):
                got = plane.clear_of(g_prev, step)
                assert got is ref_plane_clear_of(plane._normal, plane._point, g_prev, step)
                answers.add((g_prev > 0.0, got))
                for direction in (+1, -1):
                    # the full scan of the plain closure finds no crossing on
                    # a step the prefilter clears, and the same one otherwise
                    scan = integrators._scan_step(plain, direction, g_prev, step)
                    assert integrators._scan_step(plane, direction, g_prev, step) == scan
                    assert scan[0] is None or not got
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("name, y0", [("sphere3d", [0.8, 0.0, 0.6]), ("spiral2d", [0.6, 0.8])])
def test_cycle_search_is_the_same_with_a_plain_section(name, y0, monkeypatch):
    from singularflow import attractors

    field = sf.builtin_field(name, None if name == "sphere3d" else ALPHA)
    cleared, must_scan = [], []

    class CountedPlane(integrators._Plane):
        __slots__ = ()

        def clear_of(self, g_prev, step):
            cleared.append(super().clear_of(g_prev, step))
            # a step that starts on the plane, or over which the full scan
            # of the plain closure finds a crossing either way
            plain = lambda _t, x: float(self.normal @ (x[: len(self.normal)] - self.point))
            must_scan.append(g_prev == 0.0 or any(
                integrators._scan_step(plain, d, g_prev, step)[0] is not None for d in (+1, -1)))
            return cleared[-1]

    monkeypatch.setattr(attractors, "_Plane", CountedPlane)
    with_prefilter = attractors.find_limit_cycle(field, y0).to_dict()
    # the prefilter clears every step but those, here the search's first
    # step, which starts on the section, and the two crossings: 24 of 27
    # steps (sphere3d) and 17 of 20 (spiral2d).  The same three steps were
    # scanned of the 5(4) pair's 198 and 132, hence its share cleared over
    # 90%; of the 8(5,3) pair's steps no prefilter can clear 90%
    assert len(cleared) > 15 and cleared == [not scan for scan in must_scan]

    def closure(normal, point):
        d = len(normal)
        return lambda _s, u: float(normal @ (u[:d] - point))

    monkeypatch.setattr(attractors, "_Plane", closure)
    assert attractors.find_limit_cycle(field, y0).to_dict() == with_prefilter


def test_one_component_samples_are_the_full_samples_bitwise():
    field = sf.builtin_field("saddle2d", ALPHA)
    traj = sf.integrate_ideal(field, [-1.0, 0.3], 0.0, 3.0, r_floor=1e-3)
    assert traj.status == "hit_radius_floor" and traj.cut is not None
    rng = np.random.default_rng(70)
    ts = np.concatenate([np.sort(rng.uniform(traj.t0, traj.t_end, 200)), traj.times,
                         np.linspace(traj.times[-2], traj.t_end, 9)])
    full = traj.sample(ts)
    for i in range(2):
        got = traj.sample(ts, i)
        assert got.flags.c_contiguous and got.tobytes() == full[:, i].tobytes()
        for t in (traj.t0, float(ts[17]), traj.t_end):
            assert np.asarray(traj.sample(t, i)).tobytes() == traj.sample(t)[i].tobytes()


def test_until_receives_lists_of_floats():
    seen = set()

    def until(t, y, f, _partial):
        seen.add((type(y), type(f), *{type(v) for v in [t, *y, *f]}))
        return False

    field = sf.builtin_field("saddle2d", ALPHA)
    # through an array right-hand side, a float form and a renormalized run
    sf.integrate(lambda t, x: sf.eval_field(field, x), [-1.0, 0.3], 0.0, 1.0, until=until)
    sf.integrate(sf.fields._ideal_rhs(field), [-1.0, 0.3], 0.0, 1.0, until=until)
    sf.renorm_integrate(field, [0.6, 0.8], 0.0, 20.0, until=until)
    assert seen == {(list, list, float)}


def test_a_partial_trajectory_is_the_prefix_of_the_run_bitwise():
    field = sf.builtin_field("sphere3d")
    partials = []

    def until(t, _y, _f, partial):
        if len(partials) < 3 and t > 5.0 * (len(partials) + 1):
            partials.append(partial())
        return False

    rhs, project = renormalized_system(field)
    run = sf.integrate(rhs, [0.6, 0.0, -0.8, 0.0], 0.0, 30.0, postprocess=project, until=until)
    assert len(partials) == 3
    for a in (run.times, run.states, run.derivs, run.dense):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    for part in partials:
        m = len(part.times)
        assert 1 < m < len(run.times) and part.status == "stopped"
        pairs = [(part.times, run.times[:m]), (part.states, run.states[:m]),
                 (part.derivs, run.derivs[:m]), (part.dense, run.dense[: m - 1])]
        for got, want in pairs:
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
