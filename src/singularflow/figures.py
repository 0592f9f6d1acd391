"""Plot-ready data bundles for the reference phase portraits and sweeps.

No rendering happens here: each generator writes CSV files plus a manifest
describing them, to be plotted externally.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .attractors import find_limit_cycle, tau_entry
from .continuation import build_cycle_family, fixed_point_solutions, geometric_sequence
from .errors import StepFailure, UnknownFigure
from .fields import builtin_field, eval_field, integrate_ideal
from .integrators import IntegrationOptions, write_csv
from .regularize import (
    eval_regularized,
    integrate_regularized,
    make_polynomial_blend,
    make_preset_1d,
)

FIGURE_IDS = ("fig1", "fig3", "fig3b", "fig6", "fig8n", "figTriv")

_OPTS = IntegrationOptions(rtol=1e-9, atol=1e-12)
_R_FLOOR = 1e-8  # the stop radius of the ideal-field runs


def _quiver_rows(field, extent, n):
    xs = np.linspace(-extent, extent, n)
    rows = []
    for x1 in xs:
        for x2 in xs:
            r = math.hypot(x1, x2)
            if r < 0.05 * extent:
                continue
            f = eval_field(field, np.array([x1, x2]))
            rows.append((x1, x2, f[0], f[1]))
    return rows


def _trajectory_rows(traj, n=400):
    ts = np.linspace(traj.t0, traj.t_end, n)
    return np.column_stack([ts, traj.sample(ts)])


def _emit(files, outdir, name, header, rows, description):
    """Write one CSV of a bundle and list it, with its header, in files."""
    write_csv(os.path.join(outdir, name), header, rows)
    files.append({"name": name, "columns": ",".join(header), "description": description})


def _fig1(outdir):
    field = builtin_field("saddle2d", 1.0 / 3.0)
    files = []
    _emit(files, outdir, "fig1_quiver.csv", ["x1", "x2", "f1", "f2"],
          _quiver_rows(field, 1.25, 25),
          "vector field samples on a grid (origin neighborhood excluded)")
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for k, a in enumerate(angles):
        x0 = 1.2 * np.array([math.cos(a), math.sin(a)])
        try:
            traj = integrate_ideal(field, x0, 0.0, 3.0, _OPTS, _R_FLOOR)
        except StepFailure as exc:
            traj = exc.trajectory
        _emit(files, outdir, f"fig1_traj_{k:02d}.csv", ["t", "x1", "x2"],
              _trajectory_rows(traj),
              "trajectory from angle %.4f; %s"
              % (a, "enters the origin (blowup bundle)" if x0[0] < 0 else "no blowup"))
    return files


def _rescaled_trace(field, g0, tau_end):
    rf = make_polynomial_blend(field, g0, 1.0)
    y_star = np.array([-1.0, 0.0]) if field.dimension == 2 else np.array([0.0, 0.0, -1.0])
    fr = -1.0 if field.dimension == 2 else -0.5
    t_ent = tau_entry(fr, field.alpha)
    opts = IntegrationOptions(rtol=1e-10, atol=1e-12, max_step=0.5)
    return integrate_regularized(rf, y_star, t_ent, tau_end, opts)


def _fig3(outdir):
    field = builtin_field("saddle2d", 1.0 / 3.0)
    files = []
    # (a) non-unique solutions leaving the origin, plus the selected ray
    angles = np.linspace(-0.45 * np.pi, 0.45 * np.pi, 9)
    for k, a in enumerate(angles):
        x0 = 1e-6 * np.array([math.cos(a), math.sin(a)])
        traj = integrate_ideal(field, x0, 0.0, 2.0, _OPTS, _R_FLOOR)
        _emit(files, outdir, f"fig3_origin_traj_{k:02d}.csv", ["t", "x1", "x2"],
              _trajectory_rows(traj), "solution emanating from (almost) the origin")
    _, ray = fixed_point_solutions(
        np.array([-1.0, 0.0]), -1.0, np.array([1.0, 0.0]), 1.0, 0.0, field.alpha
    )
    ts = np.linspace(1e-4, 2.0, 300)
    _emit(files, outdir, "fig3_selected_ray.csv", ["t", "x1", "x2"],
          [(t, *ray.eval(t)) for t in ts],
          "unique continuation selected by a generic expelling regularization")
    # (b) trapped rescaled solution
    traj = _rescaled_trace(field, np.array([1.0, 1.3]), 40.0)
    _emit(files, outdir, "fig3_trapped_X.csv", ["tau", "X1", "X2"],
          _trajectory_rows(traj, 800),
          "rescaled solution confined by the trapping inner field (1, 1.3)")
    return files


def _fig3b(outdir):
    field = builtin_field("saddle2d", 1.0 / 3.0)
    files = []
    traj = _rescaled_trace(field, np.array([1.0, -2.0]), 40.0)
    _emit(files, outdir, "fig3b_expelled_X.csv", ["tau", "X1", "X2"],
          _trajectory_rows(traj, 800), "rescaled solution expelled by the inner field (1, -2)")
    x0 = np.array([-1.0, 0.0])
    for nu in (0.3, 0.15, 0.075):
        rf = make_polynomial_blend(field, np.array([1.0, -2.0]), nu)
        traj = integrate_regularized(rf, x0, 0.0, 2.5, _OPTS)
        _emit(files, outdir, f"fig3b_xnu_{nu:g}.csv", ["t", "x1", "x2"],
              _trajectory_rows(traj, 600), f"regularized solution at nu = {nu:g}")
    for k, a in enumerate(np.linspace(0.55 * np.pi, 1.45 * np.pi, 7)):
        x0k = np.array([math.cos(a), math.sin(a)])
        try:
            traj = integrate_ideal(field, x0k, 0.0, 3.0, _OPTS, _R_FLOOR)
        except StepFailure as exc:
            traj = exc.trajectory
        _emit(files, outdir, f"fig3b_blowup_traj_{k:02d}.csv", ["t", "x1", "x2"],
              _trajectory_rows(traj), "collapsing solution from the left half-plane")
    return files


def _fig6(outdir):
    field = builtin_field("spiral2d", 1.0 / 3.0)
    files = []
    _emit(files, outdir, "fig6_quiver.csv", ["x1", "x2", "f1", "f2"],
          _quiver_rows(field, 1.0, 21), "vector field samples")
    cycle = find_limit_cycle(field, np.array([1.0, 0.0]))
    fam = build_cycle_family(field, cycle, t_b=0.0)
    ts = np.geomspace(1e-4, 1.5, 400)
    for k in range(8):
        zeta = k * fam.zeta_period / 8
        _emit(files, outdir, f"fig6_family_{k}.csv", ["t", "x1", "x2"],
              [(t, *x) for t, x in zip(ts, fam.eval(ts, zeta))],
              f"origin-emanating solution, phase {k}/8 of the family period")
    return files


def _fig8n(outdir):
    field = builtin_field("sphere3d")
    g0 = np.array([0.0, 0.1, 1.0])
    files = []
    traj = _rescaled_trace(field, g0, 60.0)
    _emit(files, outdir, "fig8n_X.csv", ["tau", "X1", "X2", "X3"],
          _trajectory_rows(traj, 800),
          "rescaled solution entering at the south pole and escaping to the cycle")
    cycle = find_limit_cycle(field, np.array([1.0, 0.05, 0.3]))
    t_b = 3.0
    nus = geometric_sequence(cycle.period, cycle.mean_radial, 0.0, range(1, 4))
    x0 = np.array([0.0, 0.0, -1.0])
    for n, nu in enumerate(nus, start=1):
        rf = make_polynomial_blend(field, g0, float(nu))
        t_traj = integrate_regularized(rf, x0, 0.0, 4.0, _OPTS)
        _emit(files, outdir, f"fig8n_xnu_n{n}.csv", ["t", "x1", "x2", "x3"],
              _trajectory_rows(t_traj, 800),
              f"regularized solution for nu_{n} of the geometric subsequence, chi = 0")
    fam = build_cycle_family(field, cycle, t_b)
    ts = np.linspace(t_b + 1e-3, t_b + 1.0, 250)
    for k in range(10):
        zeta = k * fam.zeta_period / 10
        _emit(files, outdir, f"fig8n_family_{k}.csv", ["t", "x1", "x2", "x3"],
              [(t, *x) for t, x in zip(ts, fam.eval(ts, zeta))],
              f"family member {k}/10 across one phase period")
    # cone surface swept by the family
    thetas = np.linspace(0.0, 2 * np.pi, 60)
    rows = []
    for t in np.linspace(t_b + 1e-3, t_b + 1.0, 40):
        rad = ((1 - field.alpha) * cycle.mean_radial * (t - t_b)) ** (1 / (1 - field.alpha))
        for th in thetas:
            rows.append((t, rad * math.sqrt(3) / 2 * math.cos(th),
                         rad * math.sqrt(3) / 2 * math.sin(th), rad * 0.5))
    _emit(files, outdir, "fig8n_cone.csv", ["t", "x1", "x2", "x3"], rows,
          "conical surface spanned by the continuation family")
    return files


def _figtriv(outdir):
    nu = 0.4
    field = builtin_field("power1d", 1.0 / 3.0)
    xs = np.linspace(-1.0, 1.0, 401)
    curves = {
        "ideal": lambda x: math.copysign(abs(x) ** (1 / 3), x) if x != 0 else 0.0,
    }
    rfs = {
        "expel_right": make_preset_1d(field, +1, nu),
        "expel_left": make_preset_1d(field, -1, nu),
        "trap": make_preset_1d(field, 0, nu),
    }
    files = []
    _emit(files, outdir, "figTriv_ideal.csv", ["x", "f"],
          [(x, curves["ideal"](x)) for x in xs], "unregularized sgn(x)|x|^(1/3)")
    for tag, rf in rfs.items():
        _emit(files, outdir, f"figTriv_{tag}.csv", ["x", "f"],
              [(x, float(eval_regularized(rf, np.array([x]))[0])) for x in xs],
              f"{tag} regularization at nu = {nu}")
    return files


_GENERATORS = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig3b": _fig3b,
    "fig6": _fig6,
    "fig8n": _fig8n,
    "figTriv": _figtriv,
}


def reproduce(figure_id: str, outdir: str) -> dict:
    """Write the data bundle for one figure id and return the manifest."""
    if figure_id not in _GENERATORS:
        raise UnknownFigure(f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}")
    os.makedirs(outdir, exist_ok=True)
    files = _GENERATORS[figure_id](outdir)
    manifest = {"schema_version": "1", "figure": figure_id, "files": files}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
