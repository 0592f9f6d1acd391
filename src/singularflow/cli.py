"""Command-line front end.

Subcommands:

    simulate   integrate one configured run, write trajectory.csv + summary.json
    classify   attractor catalog + blowup verdict for the configured x0
    sweep      vanishing-regularization sweep, write sweep.json + per-nu CSVs
    reproduce  emit plot-ready data bundles for the reference figures

Exit codes: 0 success, 2 configuration error, 3 integration/budget failure.
All commands honor --outdir and --quiet; simulate, classify and sweep also
honor --tol-scale.  reproduce runs each figure at its fixed tolerances and
rejects --tol-scale as a configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import figures
from .attractors import catalog_attractors
from .config import SWEEP_POINTS, ConfigError, RunConfig
from .continuation import geometric_sequence, inviscid_sweep
from .errors import NotBlowingUp, SingularFlowError, StepFailure
from .fields import builtin_field, integrate_ideal
from .integrators import IntegrationOptions, estimate_blowup_time, write_csv
from .regularize import integrate_regularized, make_polynomial_blend, make_preset_1d
from .renorm import classify_blowup

SCHEMA_VERSION = "1"


def _scaled_options(opts: IntegrationOptions, tol_scale: float) -> IntegrationOptions:
    try:
        return dataclasses.replace(opts, rtol=opts.rtol * tol_scale, atol=opts.atol * tol_scale)
    except ValueError as exc:
        raise ConfigError(f"--tol-scale {tol_scale!r} gives unusable tolerances: {exc}") from None


def _make_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}") from None


def _strict(value):
    """value with every non-finite float replaced by None, so it is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path, payload):
    payload = _strict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _field_from_config(cfg: RunConfig):
    return builtin_field(cfg.field_name, cfg.alpha)


def _regularization(cfg: RunConfig, field, nu: float):
    if cfg.reg_kind == "polynomial_blend":
        return make_polynomial_blend(field, cfg.reg_g0, nu)
    if cfg.reg_kind == "preset1d":
        return make_preset_1d(field, cfg.reg_sigma, nu)
    return None


def _nu_values(cfg: RunConfig):
    if cfg.nu_list is not None:
        return [float(v) for v in cfg.nu_list]
    if cfg.geo is not None:
        g = cfg.geo
        n = range(g["n_first"], g["n_last"] + 1)
        return list(geometric_sequence(g["T"], g["mean_fr"], g["chi"], n))
    if cfg.nu is not None:
        return [cfg.nu]
    return []


def cmd_simulate(cfg: RunConfig, outdir: str, quiet: bool, tol_scale: float) -> int:
    field = _field_from_config(cfg)
    opts = _scaled_options(cfg.options, tol_scale)
    summary = {"field": cfg.field_name, "alpha": cfg.alpha, "t0": cfg.t0, "t1": cfg.t1}
    try:
        if cfg.reg_kind is not None:
            if cfg.nu is None:
                raise ConfigError("simulate with a regularization needs a nu value")
            rf = _regularization(cfg, field, cfg.nu)
            traj = integrate_regularized(rf, cfg.x0, cfg.t0, cfg.t1, opts)
            summary["nu"] = cfg.nu
        else:
            traj = integrate_ideal(field, cfg.x0, cfg.t0, cfg.t1, opts, cfg.r_floor)
    except StepFailure as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    traj.to_csv(os.path.join(outdir, "trajectory.csv"))
    summary["status"] = traj.status
    summary["t_end"] = traj.t_end
    summary["final_state"] = traj.final_state.tolist()
    summary["run"] = traj.stats.to_dict()
    if traj.status == "hit_radius_floor":
        # a tail too short to fit leaves the finished run's summary standing
        try:
            fit = estimate_blowup_time(traj, field.alpha)
        except NotBlowingUp as exc:
            fit = (None, None, None)
            summary["blowup_fit_error"] = str(exc)
        summary["t_b"], summary["blowup_exponent"], summary["blowup_fit_residual"] = fit
    _write_json(os.path.join(outdir, "summary.json"), summary)
    if not quiet:
        print(f"simulate: status {traj.status}, wrote {outdir}/trajectory.csv")
    return 0


def cmd_classify(cfg: RunConfig, outdir: str, quiet: bool, tol_scale: float) -> int:
    field = _field_from_config(cfg)
    opts = _scaled_options(cfg.options, tol_scale)
    r0 = float(np.linalg.norm(cfg.x0))
    if r0 == 0.0:
        raise ValueError("classify starts at x0 = 0, the singular point, which has no direction")
    catalog = catalog_attractors(field, opts=opts)
    _write_json(
        os.path.join(outdir, "attractors.json"),
        {
            "field": cfg.field_name,
            "alpha": cfg.alpha,
            "attractors": [a.to_dict() for a in catalog],
        },
    )
    verdict = classify_blowup(
        field, cfg.x0 / r0, math.log(r0), opts, t0=cfg.t0, s_budget=cfg.s_budget
    )
    payload = verdict.to_dict()
    payload["x0"] = cfg.x0.tolist()
    _write_json(os.path.join(outdir, "verdict.json"), payload)
    if not quiet:
        print(f"classify: verdict {verdict.verdict} (reason: {verdict.reason})")
    if verdict.verdict == "undetermined" and verdict.reason == "budget_exhausted":
        print("classification budget exhausted; partial output written", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(cfg: RunConfig, outdir: str, quiet: bool, tol_scale: float) -> int:
    field = _field_from_config(cfg)
    opts = _scaled_options(cfg.options, tol_scale)
    rf = _regularization(cfg, field, 1.0)
    if rf is None:
        raise ConfigError("sweep needs a regularization.kind")
    nus = _nu_values(cfg)
    if not nus:
        raise ConfigError("sweep needs nu.list or a nu.geometric spec")
    if cfg.sweep_t is not None:
        a, b, npts = cfg.sweep_t
        t_grid = np.linspace(a, b, npts)
    else:
        t_grid = np.linspace(cfg.t0, cfg.t1, SWEEP_POINTS)
    report = inviscid_sweep(rf, cfg.x0, t_grid, nus, opts, t0=cfg.t0)
    payload = report.to_dict()
    payload["chi"] = cfg.geo["chi"] if cfg.geo else None
    csv_refs = []
    for nu, sol in zip(report.nu_values, report.solutions):
        if sol is None:
            csv_refs.append(None)
            continue
        name = f"nu_{float(nu)!r}.csv"  # the round-trip digits: one file per radius
        header = ["t"] + [f"x{i+1}" for i in range(sol.shape[1])]
        write_csv(os.path.join(outdir, name), header, np.column_stack([report.t_grid, sol]))
        csv_refs.append(name)
    payload["trajectory_files"] = csv_refs
    _write_json(os.path.join(outdir, "sweep.json"), payload)
    n_ok = sum(1 for s in report.solutions if s is not None)
    if not quiet:
        print(f"sweep: verdict {report.verdict}, {n_ok}/{len(nus)} runs succeeded")
    return 0 if 2 * n_ok >= len(nus) else 3


def cmd_reproduce(figure_id: str, outdir: str, quiet: bool) -> int:
    manifest = figures.reproduce(figure_id, outdir)
    if not quiet:
        print(f"reproduce: wrote {len(manifest['files'])} files to {outdir}")
    return 0


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="singular-flow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--outdir", help="output directory (default: the config's outputs, else .)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")

    for name in ("simulate", "classify", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a run configuration file")
        common(sp)
        sp.add_argument(
            "--tol-scale",
            type=float,
            default=1.0,
            help="multiply integrator tolerances by this factor",
        )
    sp = sub.add_parser("reproduce")
    sp.add_argument("figure", help=f"one of {', '.join(figures.FIGURE_IDS)}")
    common(sp)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        outdir = args.outdir
        if outdir is not None:
            _make_outdir(outdir)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, outdir or ".", args.quiet)
        cfg = RunConfig.from_file(args.config)
        if outdir is None:
            outdir = "." if cfg.outputs is None else cfg.outputs
            _make_outdir(outdir)
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, args.quiet, args.tol_scale)
        if args.command == "classify":
            return cmd_classify(cfg, outdir, args.quiet, args.tol_scale)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.quiet, args.tol_scale)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularFlowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
