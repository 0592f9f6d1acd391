import json
import math
import os
import warnings

import numpy as np
import pytest

from singularflow.cli import main
from singularflow.errors import StepFailure

POWER_CFG = """
field = power1d
alpha = 0.3333333333333333
x0 = 1.0,
t0 = 0.0
t1 = 1.0
"""

SADDLE_CFG = """
field = saddle2d
alpha = 0.3333333333333333
x0 = -1.0, 0.0
t0 = 0.0
t1 = 3.0
"""

SPIRAL_CFG = """
field = spiral2d
alpha = 0.3333333333333333
x0 = 1.0, 0.0
t0 = 0.0
t1 = 1.0
"""

SWEEP_EXPEL_CFG = """
field = saddle2d
alpha = 0.3333333333333333
x0 = -1.0, 0.0
t0 = 0.0
t1 = 2.5
regularization.kind = polynomial_blend
regularization.g0 = 1.0, -2.0
nu.list = 0.1, 0.05, 0.025
sweep.t_start = 0.0
sweep.t_stop = 2.5
sweep.t_points = 61
"""

SWEEP_TRAP_CFG = SWEEP_EXPEL_CFG.replace("regularization.g0 = 1.0, -2.0",
                                         "regularization.g0 = 1.0, 1.3")

# the benchmark's sweep-cycle config at chi = 0.7: sphere3d regularized by a
# polynomial blend, nu_n = exp(-T <F_r> n + chi) for n = 1..9 on the
# defocusing latitude cycle (period T = 2 pi, radial mean <F_r> = 1/4)
SWEEP_CYCLE_CFG = f"""
field = sphere3d
alpha = 0.3333333333333333
x0 = 0.0, 0.0, -1.0
t0 = 0.0
t1 = 4.01
regularization.kind = polynomial_blend
regularization.g0 = 0.0, 0.1, 1.0
nu.geometric.T = {2.0 * math.pi!r}
nu.geometric.mean_fr = 0.25
nu.geometric.chi = 0.7
nu.geometric.n_first = 1
nu.geometric.n_last = 9
sweep.t_start = 3.1
sweep.t_stop = 4.0
sweep.t_points = 90
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_power1d(tmp_path):
    cfg = write(tmp_path, "run.cfg", POWER_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["final_state"][0] == pytest.approx((5 / 3) ** 1.5, rel=1e-8)
    assert summary["schema_version"] == "1"
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x1"


def test_simulate_saddle_reports_blowup(tmp_path):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "hit_radius_floor"
    assert summary["t_b"] == pytest.approx(1.5, abs=1e-6)


def test_simulate_stops_at_the_configured_radius_floor(tmp_path):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG + "integrator.r_floor = 1e-4\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "hit_radius_floor"
    assert np.linalg.norm(summary["final_state"]) == pytest.approx(1e-4, rel=1e-9)


def test_simulate_invalid_alpha_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", POWER_CFG.replace("0.3333333333333333", "1.5"))
    assert main(["simulate", cfg, "--outdir", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("atol", [1e-300, 5e-324])
def test_simulate_with_a_tolerance_far_below_the_state_ends_cleanly(tmp_path, capsys, atol):
    # the zero component of x0 makes the starting-step heuristic's norms
    # overflow: the run still starts, and either ends or names its StepFailure
    cfg = write(tmp_path, "run.cfg", SPIRAL_CFG + f"integrator.atol = {atol!r}\n")
    out = tmp_path / "out"
    rc = main(["simulate", cfg, "--outdir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 3 and "StepFailure" in err), (rc, err)


def test_numeric_outputs_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    # without --outdir the config's outputs names the directory; a number
    # is a configuration error, not a traceback from making the directory
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "run.cfg", SADDLE_CFG + "outputs = 5\n")
    assert main(["simulate", "run.cfg", "--quiet"]) == 2
    assert "outputs must be a directory name" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_simulate_missing_key_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "field = saddle2d\nalpha = 0.3\n")
    assert main(["simulate", cfg, "--outdir", str(tmp_path), "--quiet"]) == 2


def test_classify_saddle_catalog(tmp_path):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG)
    out = tmp_path / "out"
    assert main(["classify", cfg, "--outdir", str(out), "--quiet"]) == 0
    catalog = json.loads((out / "attractors.json").read_text())
    fps = [a for a in catalog["attractors"] if a["kind"] == "fixed_point"]
    assert len(fps) == 4
    labels = sorted(a["label"] for a in fps)
    assert labels == ["defocusing", "defocusing", "focusing", "focusing"]
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "blowup"
    assert verdict["t_b"] == pytest.approx(1.5, abs=1e-6)
    assert verdict["averages"]["upper"] == pytest.approx(-1.0, abs=1e-6)


def test_classify_spiral_periodic_orbit(tmp_path):
    cfg = write(tmp_path, "run.cfg", SPIRAL_CFG)
    out = tmp_path / "out"
    assert main(["classify", cfg, "--outdir", str(out), "--quiet"]) == 0
    catalog = json.loads((out / "attractors.json").read_text())
    cycles = [a for a in catalog["attractors"] if a["kind"] == "limit_cycle"]
    assert len(cycles) == 1
    assert cycles[0]["mean_radial"] == pytest.approx(1.0, abs=1e-8)
    assert cycles[0]["period"] == pytest.approx(2 * math.pi, abs=1e-8)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "escape_to_infinity"


def test_sweep_expelling(tmp_path):
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["verdict"] == "converged_to(fixed_ray)"
    assert len(report["nu"]) == 3
    for name in report["trajectory_files"]:
        assert (out / name).exists()
    rows = (out / report["trajectory_files"][0]).read_text().strip().split("\n")
    assert rows[0] == "t,x1,x2"
    assert len(rows) == 62


def test_sweep_trapping(tmp_path):
    cfg = write(tmp_path, "run.cfg", SWEEP_TRAP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["verdict"] == "trivial_zero"
    assert report["decay_exponent"] > 0
    assert report["escape"]["outcome"] == "trapped"
    assert "interior sink x* = (" in report["escape"]["certificate"]
    assert report["escape"]["revisits"] >= 1


def test_sweep_requires_regularization(tmp_path):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG)
    assert main(["sweep", cfg, "--outdir", str(tmp_path), "--quiet"]) == 2


def test_reproduce_figtriv(tmp_path):
    out = tmp_path / "fig"
    assert main(["reproduce", "figTriv", "--outdir", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["figure"] == "figTriv"
    names = {f["name"] for f in manifest["files"]}
    assert "figTriv_expel_right.csv" in names
    for f in manifest["files"]:
        assert (out / f["name"]).exists()
        assert (out / f["name"]).read_text().split("\n")[0] == f["columns"]
    # the expelling curve passes through nu^{1/3} sigma / 2 at x = 0
    rows = (out / "figTriv_expel_right.csv").read_text().strip().split("\n")[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    mid = np.argmin(np.abs(data[:, 0]))
    assert data[mid, 1] == pytest.approx(0.4 ** (1 / 3) / 2, abs=1e-9)


def test_reproduce_unknown_figure(tmp_path):
    assert main(["reproduce", "fig99", "--outdir", str(tmp_path), "--quiet"]) == 3


def test_outputs_deterministic(tmp_path):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
        outs.append((out / "trajectory.csv").read_bytes() + (out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_tol_scale_flag(tmp_path):
    cfg = write(tmp_path, "run.cfg", POWER_CFG)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["simulate", cfg, "--outdir", str(out1), "--quiet", "--tol-scale", "1e4"]) == 0
    assert main(["simulate", cfg, "--outdir", str(out2), "--quiet"]) == 0
    n1 = len((out1 / "trajectory.csv").read_text().strip().split("\n"))
    n2 = len((out2 / "trajectory.csv").read_text().strip().split("\n"))
    assert n1 < n2  # looser tolerances take fewer steps


def test_classify_budget_exhaustion_exits_3(tmp_path):
    # a generic start needs a longer run than this budget allows
    cfg = write(
        tmp_path,
        "run.cfg",
        SADDLE_CFG.replace("x0 = -1.0, 0.0", "x0 = -0.6, 0.8") + "classify.s_budget = 20\n",
    )
    out = tmp_path / "out"
    assert main(["classify", cfg, "--outdir", str(out), "--quiet"]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "undetermined"
    assert verdict["reason"] == "budget_exhausted"


@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("t1", ["0.0", "-1.0"])
def test_simulate_t1_not_above_t0_exits_2(tmp_path, capsys, regularized, t1):
    text = SADDLE_CFG.replace("t1 = 3.0", f"t1 = {t1}")
    if regularized:
        text += "regularization.kind = polynomial_blend\nregularization.g0 = 1.0, -2.0\nnu = 0.1\n"
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 2
    assert "t1 must exceed t0" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["sweep", missing, "--outdir", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "missing.cfg" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
def test_outdir_naming_a_file_exits_2(tmp_path, capsys, command):
    cfg = write(tmp_path, "run.cfg", POWER_CFG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    target = "figTriv" if command == "reproduce" else cfg
    assert main([command, target, "--outdir", str(taken), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
def test_bad_tol_scale_exits_2_and_names_the_flag(tmp_path, capsys, scale):
    cfg = write(tmp_path, "run.cfg", POWER_CFG)
    argv = ["simulate", cfg, "--outdir", str(tmp_path / "out"), "--quiet", "--tol-scale", scale]
    assert main(argv) == 2
    assert "--tol-scale" in capsys.readouterr().err


def test_reproduce_rejects_tol_scale(tmp_path, capsys):
    # figures run at their own fixed tolerances, so the flag is a config error
    argv = ["reproduce", "figTriv", "--outdir", str(tmp_path), "--quiet", "--tol-scale", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--tol-scale" in capsys.readouterr().err


def test_main_calls_in_one_process_parse_their_own_arguments(tmp_path, monkeypatch):
    # the parser is built once per process; each call parses into a fresh
    # namespace, so no flag of one call leaks into the next
    from singularflow import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_simulate",
                        lambda cfg, outdir, quiet, scale: seen.append((outdir, quiet, scale)) or 0)
    monkeypatch.setattr(cli, "cmd_reproduce",
                        lambda figure, outdir, quiet: seen.append((figure, outdir, quiet)) or 0)
    cfg = write(tmp_path, "power.cfg", POWER_CFG)
    a, b, c = (str(tmp_path / name) for name in "abc")
    assert main(["simulate", cfg, "--outdir", a, "--quiet", "--tol-scale", "10"]) == 0
    assert main(["reproduce", "fig1", "--outdir", b]) == 0
    assert main(["simulate", cfg, "--outdir", c]) == 0
    assert seen == [(a, True, 10.0), ("fig1", b, False), (c, False, 1.0)]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("figure", ["fig1", "fig3", "fig3b", "fig6", "fig8n"])
def test_reproduce_all_figures(tmp_path, figure):
    out = tmp_path / figure
    assert main(["reproduce", figure, "--outdir", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["figure"] == figure
    assert len(manifest["files"]) >= 2
    for f in manifest["files"]:
        assert (out / f["name"]).exists()
        assert (out / f["name"]).read_text().split("\n")[0] == f["columns"]


def test_sweep_is_deterministic(tmp_path):
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
        files = ["sweep.json"] + json.loads((out / "sweep.json").read_text())["trajectory_files"]
        outputs.append({name: (out / name).read_bytes() for name in files})
    assert len(outputs[0]) == 4  # sweep.json and one CSV per nu
    assert outputs[0] == outputs[1]


def test_sweep_cycle_family_end_to_end(tmp_path):
    # the geometric subsequence on the sphere3d cycle, through the command
    # line: the family is built on the cycle, the matched phases settle (the
    # increment the benchmark's oracle checks), and the sweep says so
    cfg = write(tmp_path, "cycle.cfg", SWEEP_CYCLE_CFG)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
        report = json.loads((out / "sweep.json").read_text())
        files = ["sweep.json"] + report["trajectory_files"]
        outputs.append({name: (out / name).read_bytes() for name in files})
    assert report["reference"] == "cycle_family"
    assert report["verdict"] == "converged_to(cycle_family)"
    assert len(report["nu"]) == 9 and not any(report["errors"])
    span = 2.0 * math.pi * 0.25
    zs = report["matched_zeta"]
    inc = abs(zs[-1] - zs[-2]) % span
    assert min(inc, span - inc) <= 1e-2
    assert len(outputs[0]) == 10  # sweep.json and one CSV per nu
    assert outputs[0] == outputs[1]


PRESET_CFG = """
field = power1d
alpha = 0.3333333333333333
x0 = 0.0,
t0 = 0.0
t1 = 1.0
regularization.kind = preset1d
"""


@pytest.mark.parametrize("sigma", [1, -1, 0])
def test_simulate_preset1d_from_the_origin(tmp_path, sigma):
    # dx/dt = x^(1/3) from x = 0 has the solutions 0 and +-((2/3) t)^(3/2);
    # the expelling presets select a sign, the trapping one the rest state.
    # A run leaves the ball |x| <= nu after a time of order nu^(1 - alpha),
    # so it lags the closed form by that much (0.5454 against 0.5443 here)
    nu, alpha = 1e-3, 1.0 / 3.0
    cfg = write(tmp_path, "run.cfg", PRESET_CFG + f"regularization.sigma = {sigma}\nnu = {nu}\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed" and summary["nu"] == nu
    x1 = summary["final_state"][0]
    if sigma:
        assert x1 == pytest.approx(sigma * (2.0 / 3.0) ** 1.5, abs=nu ** (1.0 - alpha))
    else:
        assert abs(x1) <= nu


def test_sweep_preset1d_does_not_blow_up_exits_3(tmp_path, capsys):
    # power1d points away from the origin everywhere: nothing collapses
    cfg = write(
        tmp_path,
        "run.cfg",
        PRESET_CFG.replace("x0 = 0.0,", "x0 = 0.5,")
        + "regularization.sigma = 1\nnu.list = 0.1, 0.01\n",
    )
    assert main(["sweep", cfg, "--outdir", str(tmp_path / "out"), "--quiet"]) == 3
    assert "does not blow up" in capsys.readouterr().err


def test_sweep_from_the_origin_exits_3(tmp_path, capsys):
    # x0 = 0 has no direction: rejected by name before anything divides by |x0|
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG.replace("x0 = -1.0, 0.0", "x0 = 0.0, 0.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", cfg, "--outdir", str(tmp_path / "out"), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x0 = 0" in err


def test_classify_from_the_origin_exits_3(tmp_path, capsys):
    # rejected by name before the catalog is written or anything divides by |x0|
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG.replace("x0 = -1.0, 0.0", "x0 = 0.0, 0.0"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["classify", cfg, "--outdir", str(out), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x0 = 0" in err
    assert not list(out.iterdir())


def test_simulate_from_the_origin_names_the_radius_as_a_float(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG.replace("x0 = -1.0, 0.0", "x0 = 0.0, 0.0"))
    assert main(["simulate", cfg, "--outdir", str(tmp_path / "out"), "--quiet"]) == 3
    assert "error: |x| = 0.0 is at the origin, where the field is singular;" in capsys.readouterr().err


def test_sweep_with_one_nu_compares_nothing(tmp_path):
    # a single nu is a sweep of one run: it is written, and with no second
    # run to compare it with the verdict stays undetermined
    cfg = write(tmp_path, "run.cfg",
                SWEEP_EXPEL_CFG.replace("nu.list = 0.1, 0.05, 0.025", "nu = 0.1"))
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["nu"] == [0.1] and report["trajectory_files"] == ["nu_0.1.csv"]
    assert report["verdict"] == "undetermined" and report["reference"] is None


@pytest.mark.parametrize("sweep_keys", ["", "sweep.t_stop = 2.0\n"], ids=["none", "t_stop"])
def test_sweep_grid_has_one_default_point_count(tmp_path, sweep_keys):
    # with no sweep.t_points, the grid has 201 points whether or not the
    # config gives another sweep.* key
    text = SWEEP_EXPEL_CFG.replace("nu.list = 0.1, 0.05, 0.025", "nu = 0.1")
    text = text[: text.index("sweep.t_start")] + sweep_keys
    out = tmp_path / "out"
    assert main(["sweep", write(tmp_path, "run.cfg", text), "--outdir", str(out), "--quiet"]) == 0
    t_grid = json.loads((out / "sweep.json").read_text())["t_grid"]
    assert len(t_grid) == 201
    assert t_grid[-1] == (2.0 if sweep_keys else 2.5)


def test_sweep_radii_write_one_file_each(tmp_path, monkeypatch):
    # radii that agree to six digits still get a file each, named by the
    # round-trip digits, and each file holds its own radius's samples
    from singularflow import cli

    reports = []
    sweep = cli.inviscid_sweep

    def recorded(*args, **kwargs):
        reports.append(sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "inviscid_sweep", recorded)
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG.replace(
        "nu.list = 0.1, 0.05, 0.025", "nu.list = 0.1, 0.1000001, 0.01"))
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    names = json.loads((out / "sweep.json").read_text())["trajectory_files"]
    assert names == ["nu_0.1.csv", "nu_0.1000001.csv", "nu_0.01.csv"]
    (report,) = reports
    for name, sol in zip(names, report.solutions):
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], report.t_grid)
        assert np.array_equal(rows[:, 1:], sol)


def test_outdir_overrides_the_config_outputs(tmp_path, monkeypatch):
    # an explicit --outdir wins over outputs, even when it names ., and
    # outputs wins over the default .
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "run.cfg", POWER_CFG + "outputs = fromcfg\n")
    assert main(["simulate", cfg, "--outdir", ".", "--quiet"]) == 0
    assert (tmp_path / "summary.json").exists()
    assert not (tmp_path / "fromcfg").exists()
    assert main(["simulate", cfg, "--quiet"]) == 0
    assert (tmp_path / "fromcfg" / "summary.json").exists()


def test_sweep_without_radii_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG.replace("nu.list = 0.1, 0.05, 0.025\n", ""))
    assert main(["sweep", cfg, "--outdir", str(tmp_path / "out"), "--quiet"]) == 2
    assert "sweep needs nu.list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        "sweep.t_start = 2.5\nsweep.t_stop = 0.0\n",
        "sweep.t_start = -0.5\nsweep.t_stop = 2.5\n",
        "sweep.t_start = 0.0\nsweep.t_stop = 2.5\nsweep.t_points = 1\n",
    ],
)
def test_sweep_grid_outside_the_run_exits_2(tmp_path, capsys, grid):
    # a reversed grid, or one from before t0, used to fail every nu and
    # write a sweep.json of errors
    text = SWEEP_EXPEL_CFG.replace("sweep.t_start = 0.0\nsweep.t_stop = 2.5\nsweep.t_points = 61\n",
                                   grid)
    out = tmp_path / "out"
    assert main(["sweep", write(tmp_path, "run.cfg", text), "--outdir", str(out), "--quiet"]) == 2
    assert "sweep.t_start < sweep.t_stop" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_sweep_json_lists_its_runs(tmp_path):
    # the on-ray expelling sweep makes one shared run serving all three radii
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    runs = json.loads((out / "sweep.json").read_text())["runs"]
    assert len(runs) == 1
    run = runs[0]
    assert run["nu_indices"] == [0, 1, 2] and run["scale"] == 1.0
    assert run["status"] == "completed"
    assert run["accepted"] > 0 and run["rhs_calls"] > run["accepted"]
    assert 0.0 < run["h_min"] <= run["h_max"]


@pytest.mark.parametrize(
    "command, radii, fragment",
    [
        ("sweep", "nu.list = 0.1, 0.05, -0.025, 0.0", "nu.list entry must be positive"),
        ("sweep", "nu.list = 0.1, 0.05, inf", "nu.list entry must be positive"),
        ("sweep", "nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
                  "nu.geometric.n_first = 5\nnu.geometric.n_last = 4", "n_last (4)"),
        ("sweep", "nu.list = 0.5, 0.25\nnu.geometric.T = 6.283185307179586\n"
                  "nu.geometric.mean_fr = 0.25\nnu.geometric.chi = 0.7",
         "nu.list and nu.geometric are two radius specs"),
        ("simulate", "nu = 0", "nu must be positive"),
        ("simulate", "nu = nan", "nu must be positive"),
        # the benchmark's cycle radii run on to n = 500, where they underflow to 0
        ("sweep", "nu.geometric.T = 6.283185307179586\nnu.geometric.mean_fr = 0.25\n"
                  "nu.geometric.chi = 0.7\nnu.geometric.n_first = 1\nnu.geometric.n_last = 500",
         "radius at n = 500"),
    ],
)
def test_unusable_radii_exit_2_and_write_nothing(tmp_path, capsys, command, radii, fragment):
    # a radius that is not positive and finite, or an empty nu.geometric
    # range, is a configuration error: nothing runs and nothing is written
    cfg = write(tmp_path, "run.cfg",
                SWEEP_EXPEL_CFG.replace("nu.list = 0.1, 0.05, 0.025", radii))
    out = tmp_path / "out"
    assert main([command, cfg, "--outdir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and fragment in err
    assert not list(out.iterdir())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_json_is_strict_json(tmp_path, monkeypatch):
    # nu = 2 > |x0| is run directly, and fails: its distances are not
    # numbers, and are written as null, not as a bare NaN token
    import singularflow.continuation as cont

    real = cont.integrate_regularized

    def failing(rf, x0, t0, t1, opts):
        if rf.nu == 2.0:
            raise StepFailure("synthetic failure")
        return real(rf, x0, t0, t1, opts)

    monkeypatch.setattr(cont, "integrate_regularized", failing)
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG.replace("nu.list = 0.1, 0.05, 0.025",
                                                             "nu.list = 2.0, 0.1, 0.05"))
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--outdir", str(out), "--quiet"]) == 0
    report = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    assert report["errors"][0].startswith("StepFailure: synthetic failure")
    d = report["distances"]
    assert d[0] == [0.0, None, None] and d[1][0] is None and d[2][0] is None
    assert d[1][2] == d[2][1] > 0.0


@pytest.mark.parametrize(
    "command, old, new, fragment",
    [
        ("classify", "alpha = 0.3333333333333333", "alpha = abc", "alpha must be a number"),
        ("classify", "t1 = 2.5", "t1 = 2.5\nclassify.s_budget = -5",
         "classify.s_budget must be positive and finite"),
        ("classify", "x0 = -1.0, 0.0", "x0 = -1.0, 0.0, 0.0", "x0 must be 2 number(s)"),
        ("sweep", "x0 = -1.0, 0.0", "x0 = -1.0, 0.0, 0.0", "x0 must be 2 number(s)"),
        ("sweep", "sweep.t_points = 61", "sweep.t_points = 60.5", "sweep.t_points must be an integer"),
        ("classify", "field = saddle2d\nalpha = 0.3333333333333333", "field = sphere3d\nalpha = 0.3",
         "sphere3d pins alpha = 1/3"),
    ],
)
def test_config_errors_exit_2_before_any_output(tmp_path, capsys, command, old, new, fragment):
    # each used to run, write a partial output or both, then exit 3
    cfg = write(tmp_path, "run.cfg", SWEEP_EXPEL_CFG.replace(old, new))
    out = tmp_path / "out"
    assert main([command, cfg, "--outdir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and fragment in err
    assert not list(out.iterdir())


def test_classify_verdict_reports_its_run(tmp_path):
    # the renormalized run's solver stats ride along in verdict.json; on the
    # collapse ray t_b is the closed form 1.5 r0^(2/3) to rounding
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG.replace("x0 = -1.0, 0.0", "x0 = -2.0, 0.0"))
    out = tmp_path / "out"
    assert main(["classify", cfg, "--outdir", str(out), "--quiet"]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["schema_version"] == "1"
    assert verdict["t_b"] == pytest.approx(1.5 * 2 ** (2 / 3), rel=1e-13)
    run = verdict["run"]
    assert set(run) == {"rhs_calls", "accepted", "rejected", "h_min", "h_max", "s_end"}
    assert 0 < run["accepted"] and run["rhs_calls"] >= 6 * run["accepted"]
    assert 0 < run["h_min"] <= run["h_max"]
    assert run["s_end"] >= verdict["s_budget"]


def test_simulate_keeps_its_summary_when_the_tail_fit_fails(tmp_path):
    # a start on the collapse ray at |x0| = 1e-8 reaches the radius floor in
    # 5 samples, too few for the tail fit: the run still has its summary,
    # with the fit's values null and its reason named
    cfg = write(tmp_path, "run.cfg",
                SADDLE_CFG.replace("x0 = -1.0, 0.0", "x0 = -1e-8, 0.0").replace("t1 = 3.0", "t1 = 1.0"))
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    assert (out / "trajectory.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "hit_radius_floor"
    assert summary["t_b"] is None
    assert summary["blowup_exponent"] is None and summary["blowup_fit_residual"] is None
    assert "monotonically decreasing samples" in summary["blowup_fit_error"]
    assert summary["run"]["accepted"] > 0


def test_simulate_summary_reports_its_run(tmp_path, monkeypatch):
    # the run's solver stats ride along in summary.json, as in verdict.json
    cfg = write(tmp_path, "run.cfg", SADDLE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == "1"
    assert "blowup_fit_error" not in summary
    run = summary["run"]
    assert set(run) == {"rhs_calls", "accepted", "rejected", "h_min", "h_max"}
    rows = len((out / "trajectory.csv").read_text().strip().split("\n")) - 1
    assert run["accepted"] == rows - 1 and run["rhs_calls"] >= 6 * run["accepted"]
    assert 0 < run["h_min"] <= run["h_max"]
    # with no accepted step counted, h_min (inf) is written as null
    import dataclasses

    from singularflow import cli
    from singularflow.integrators import SolverStats

    run_it = cli.integrate_ideal
    monkeypatch.setattr(cli, "integrate_ideal", lambda *a, **k: dataclasses.replace(
        run_it(*a, **k), stats=SolverStats()))
    assert main(["simulate", cfg, "--outdir", str(out), "--quiet"]) == 0
    run = json.loads((out / "summary.json").read_text())["run"]
    assert run == {"rhs_calls": 0, "accepted": 0, "rejected": 0, "h_min": None, "h_max": 0.0}
