import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import singularflow as sf
from singularflow.config import RunConfig, emit_config, parse_config

GOOD = """
# saddle collapse run
field = saddle2d
alpha = 0.3333333333333333
x0 = -1.0, 0.0
t0 = 0.0
t1 = 3.0
integrator.rtol = 1e-10
regularization.kind = polynomial_blend
regularization.g0 = 1.0, -2.0
nu = 0.1
"""


def test_parse_good_config():
    cfg = RunConfig.from_text(GOOD)
    assert cfg.field_name == "saddle2d"
    assert cfg.alpha == pytest.approx(1 / 3)
    assert np.array_equal(cfg.x0, [-1.0, 0.0])
    assert cfg.options.rtol == 1e-10
    assert cfg.options.atol == 1e-12  # default
    assert cfg.reg_kind == "polynomial_blend"
    assert np.array_equal(cfg.reg_g0, [1.0, -2.0])
    assert cfg.nu == 0.1


def test_radius_floor_is_read_and_emitted():
    assert RunConfig.from_text(GOOD).r_floor == 1e-10  # default
    cfg = RunConfig.from_text(GOOD + "integrator.r_floor = 1e-6\n")
    assert cfg.r_floor == 1e-6
    assert "\nintegrator.r_floor = 1e-06\n" in cfg.emit()
    assert RunConfig.from_text(cfg.emit()).r_floor == 1e-6


def test_round_trip_text():
    m1 = parse_config(GOOD)
    text = emit_config(m1)
    m2 = parse_config(text)
    assert m1 == m2
    # and again, to make emission a fixed point
    assert emit_config(m2) == text


def test_round_trip_runconfig():
    cfg = RunConfig.from_text(GOOD)
    cfg2 = RunConfig.from_text(cfg.emit())
    assert cfg2.emit() == cfg.emit()


def test_single_element_list_round_trip():
    m = parse_config("x0 = 1.0,\nfield = power1d\nalpha = 0.25\n")
    assert m["x0"] == [1.0]
    assert parse_config(emit_config(m)) == m


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("field = nosuch\nalpha = 0.3\nx0 = 1.0,", "field"),
        ("field = saddle2d\nalpha = 1.5\nx0 = 1.0, 0.0", "alpha"),
        ("field = saddle2d\nalpha = 0.3", "x0"),
        ("field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nbogus.key = 1", "unknown"),
        ("field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nregularization.kind = magic", "kind"),
        (
            "field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nregularization.kind = polynomial_blend",
            "g0",
        ),
        ("no equals sign here", "key"),
        ("field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nintegrator.rtol = -1", "positive"),
        ("field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nintegrator.max_step = 0", "max_step"),
        # a radius is positive and finite, and a geometric spec yields at least one
        *(
            (f"field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\n{line}", fragment)
            for line, fragment in [
                ("nu = 0", "nu must be positive and finite"),
                ("nu = -0.1", "nu must be positive and finite"),
                ("nu = nan", "nu must be positive and finite"),
                ("nu = inf", "nu must be positive and finite"),
                ("nu = abc", "nu must be positive and finite"),
                ("nu.list = 0.1, 0.05, -0.025, 0.0", "nu.list entry must be positive"),
                ("nu.list = 0.1, 0.05, inf", "nu.list entry must be positive"),
                ("nu.list = 0.1, nan", "nu.list entry must be positive"),
                ("nu.list = 0.0", "nu.list entry must be positive"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25\n"
                 "nu.geometric.n_first = 5\nnu.geometric.n_last = 4", "n_last (4)"),
                # two radius specs: the sweep would run one and report the other's chi
                ("nu.list = 0.5, 0.25\nnu.geometric.T = 6.283185307179586\n"
                 "nu.geometric.mean_fr = 0.25\nnu.geometric.chi = 0.7",
                 "nu.list and nu.geometric are two radius specs"),
                ("nu.geometric.T = nan\nnu.geometric.mean_fr = 0.25", "positive finite T"),
                ("nu.geometric.T = inf\nnu.geometric.mean_fr = 0.25", "positive finite T"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25\nnu.geometric.chi = nan",
                 "finite chi"),
                # nu_n = exp(-T mean_fr n + chi) underflows to 0 or overflows to inf
                ("nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
                 "nu.geometric.chi = 0.7\nnu.geometric.n_first = 1\nnu.geometric.n_last = 500",
                 "radius at n = 500 must be positive and finite, got 0.0"),
                ("nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
                 "nu.geometric.n_first = -500\nnu.geometric.n_last = 9",
                 "radius at n = -500 must be positive and finite, got inf"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25\nnu.geometric.chi = 1000",
                 "radius at n = 1 must be positive and finite, got inf"),
                # a numeric key holds a number, an integer key a whole one
                ("t1 = abc", "t1 must be a number, got 'abc'"),
                ("integrator.rtol = abc", "integrator.rtol must be a number"),
                ("nu.geometric.T = abc\nnu.geometric.mean_fr = 0.25", "nu.geometric.T must be a number"),
                # the catalog's seed grids are fixed: seed is no key
                ("seed = 7", "unknown config keys: ['seed']"),
                ("regularization.kind = preset1d\nregularization.sigma = 0.5",
                 "regularization.sigma must be an integer"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25\nnu.geometric.n_first = 1.5",
                 "nu.geometric.n_first must be an integer"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25\nnu.geometric.n_last = 9.5",
                 "nu.geometric.n_last must be an integer"),
                ("sweep.t_points = 2.5", "sweep.t_points must be an integer"),
                # outputs names a directory: a number or a list is no name
                ("outputs = 5", "outputs must be a directory name, got 5"),
                ("outputs = 1.0, 2.0", "outputs must be a directory name, got [1.0, 2.0]"),
                ("integrator.r_floor = -1e-10", "integrator.r_floor must be nonnegative"),
                ("integrator.r_floor = nan", "integrator.r_floor must be nonnegative"),
                ("classify.s_budget = -5", "classify.s_budget must be positive and finite"),
                ("classify.s_budget = 0", "classify.s_budget must be positive and finite"),
                ("classify.s_budget = inf", "classify.s_budget must be positive and finite"),
                ("classify.s_budget = nan", "classify.s_budget must be positive and finite"),
                # vectors have the field's dimension, and a preset is one-dimensional
                ("regularization.kind = polynomial_blend\nregularization.g0 = 1.0, -2.0, 0.5",
                 "regularization.g0 must be 2 number(s)"),
                ("regularization.kind = preset1d\nregularization.sigma = 1",
                 "preset1d needs a one-dimensional field, not saddle2d"),
                # a blend's constant core is finite
                ("regularization.kind = polynomial_blend\nregularization.g0 = inf, 0.0",
                 "regularization.g0 must be finite"),
                ("regularization.g0 = nan, 0.0", "regularization.g0 must be finite"),
            ]
        ),
        ("field = saddle2d\nalpha = abc\nx0 = 1.0, 0.0", "alpha must be a number, got 'abc'"),
        # a blend's data or a radius configures a regularization: not without its kind
        *(
            (f"field = power1d\nalpha = 0.3\nx0 = 1.0,\n{lines}", fragment)
            for lines, fragment in [
                ("regularization.g0 = 1.0,\nnu = 0.1",
                 "regularization.g0, nu given without regularization.kind"),
                ("regularization.sigma = 1", "regularization.sigma given without regularization.kind"),
                ("nu = 0.1", "nu given without regularization.kind"),
                ("nu.list = 0.1, 0.05", "nu.list given without regularization.kind"),
                ("nu.geometric.T = 1.0\nnu.geometric.mean_fr = 0.25",
                 "nu.geometric given without regularization.kind"),
            ]
        ),
        ("field = sphere3d\nalpha = 0.3\nx0 = 0.0, 0.0, -1.0", "sphere3d pins alpha = 1/3"),
        ("field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0, 0.0",
         "x0 must be 2 number(s)"),
        ("field = sphere3d\nalpha = 0.3333333333333333\nx0 = 1.0, 0.0",
         "x0 must be 3 number(s)"),
        ("field = saddle2d\nalpha = 0.3\nx0 = abc", "x0 must be 2 number(s), got 'abc'"),
        ("field = power1d\nalpha = 0.3\nx0 = 1.0,\nregularization.sigma = 2",
         "regularization.sigma must be +1, -1 or 0, got 2"),
        # both regularization kinds blend r^alpha into the ball: alpha > -2
        ("field = power1d\nalpha = -3.0\nx0 = 1.0,\nregularization.kind = preset1d\n"
         "regularization.sigma = 1", "regularization.kind preset1d needs alpha > -2, got -3.0"),
        ("field = saddle2d\nalpha = -2.0\nx0 = 1.0, 0.0\nregularization.kind = polynomial_blend\n"
         "regularization.g0 = 1.0, -2.0", "polynomial_blend needs alpha > -2, got -2.0"),
    ],
)
def test_validation_errors(text, fragment):
    with pytest.raises(sf.ConfigError) as exc:
        RunConfig.from_text(text)
    assert fragment.lower() in str(exc.value).lower()


def test_geometric_spec():
    text = GOOD + "\nnu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\nnu.geometric.chi = 0.0\nnu.geometric.n_first = 1\nnu.geometric.n_last = 3\n"
    cfg = RunConfig.from_text(text)
    assert cfg.geo["T"] == pytest.approx(2 * math.pi)
    assert cfg.geo["n_last"] == 3


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b.c", "d.e.f", "tag"]),
        st.one_of(
            st.integers(-1000, 1000),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1,
                max_size=4,
            ),
            st.sampled_from(["saddle2d", "poly_blend", "x1"]),
        ),
        max_size=4,
    )
)
def test_round_trip_property(mapping):
    text = emit_config(mapping)
    parsed = parse_config(text)
    assert parse_config(emit_config(parsed)) == parsed


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_a_config_error(value):
    text = f"field = saddle2d\nalpha = 0.3\nx0 = 1.0, 0.0\nintegrator.atol = {value}"
    with pytest.raises(sf.ConfigError, match="finite"):
        RunConfig.from_text(text)


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(sf.ConfigError, match="cannot read"):
        RunConfig.from_file(tmp_path / "missing.cfg")


def test_round_trip_runconfig_sweep_keys():
    # nu.list, every nu.geometric key and regularization.sigma survive
    # parse -> emit -> parse, none of them at its default; the two radius
    # specs go in two configs, since one config takes only one of them
    head = (
        "field = power1d\nalpha = 0.25\nx0 = 0.5,\n"
        "regularization.kind = preset1d\nregularization.sigma = -1\n"
    )
    specs = {
        ("nu.list",): "nu.list = 0.1, 0.05, 0.025\n",
        ("nu.geometric.T", "nu.geometric.mean_fr", "nu.geometric.chi", "nu.geometric.n_first",
         "nu.geometric.n_last"): (
            "nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
            "nu.geometric.chi = 0.7\nnu.geometric.n_first = 2\nnu.geometric.n_last = 7\n"
        ),
    }
    parsed = []
    for keys, spec in specs.items():
        cfg = RunConfig.from_text(head + spec)
        emitted = cfg.emit()
        for key in ("regularization.sigma",) + keys:
            assert f"\n{key} = " in emitted
        cfg2 = RunConfig.from_text(emitted)
        for f in dataclasses.fields(RunConfig):
            a, b = getattr(cfg, f.name), getattr(cfg2, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        parsed.append(cfg2)
    by_list, by_geo = parsed
    assert by_list.reg_sigma == -1 and by_list.nu_list == [0.1, 0.05, 0.025]
    assert by_list.geo is None and by_geo.nu_list is None
    assert by_geo.geo == {"T": 2 * math.pi, "mean_fr": 0.25, "chi": 0.7, "n_first": 2, "n_last": 7}
