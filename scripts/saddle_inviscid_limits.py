#!/usr/bin/env python3
"""Vanishing-regularization limits for the planar saddle example.

Runs the trapping blend (inner vector (1, 1.3)) and the expelling blend
((1, -2)) through a decade of regularization radii, prints the verdicts and
distance tables, and writes the sampled solutions as CSV.
"""

import argparse
import os

import numpy as np

import singularflow as sf
from singularflow.integrators import write_csv

ALPHA = 1.0 / 3.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/saddle_limits")
    ap.add_argument("--nu-min", type=float, default=1e-3)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    field = sf.builtin_field("saddle2d", ALPHA)
    t_b = 1.5
    window = np.linspace(t_b + 0.1, t_b + 1.0, 90)
    t_grid = np.concatenate([np.linspace(0.0, 1.4, 8), window])

    for tag, g0, nus in (
        ("trapping", [1.0, 1.3], [0.1 * 0.5**k for k in range(6)]),
        ("expelling", [1.0, -2.0], list(np.geomspace(0.1, args.nu_min, 5))),
    ):
        rf = sf.make_polynomial_blend(field, g0, 1.0)
        rep = sf.inviscid_sweep(rf, [-1.0, 0.0], t_grid, nus)
        print(f"[{tag}] verdict: {rep.verdict}")
        print(f"[{tag}] escape probe: {rep.escape.outcome} ({rep.escape.certificate})")
        if rep.decay_exponent is not None:
            print(f"[{tag}] sup|x^nu| ~ C nu^q with q = {rep.decay_exponent:.3f}, "
                  f"R^2 = {rep.decay_r2:.5f}")
        if rep.reference == "fixed_ray":
            ray_vals = rep.family.eval(window)
            post = np.isin(t_grid, window)
            for nu, sol in zip(rep.nu_values, rep.solutions):
                d = np.max(np.linalg.norm(sol[post] - ray_vals, axis=1))
                print(f"[{tag}] nu = {nu:.4g}: sup distance to the selected ray = {d:.3e}")
        for nu, sol in zip(rep.nu_values, rep.solutions):
            path = os.path.join(args.outdir, f"{tag}_nu_{nu:.6g}.csv")
            write_csv(path, ["t", "x1", "x2"], np.column_stack([t_grid, sol]))
    print(f"wrote per-nu samples to {args.outdir}/")


if __name__ == "__main__":
    main()
