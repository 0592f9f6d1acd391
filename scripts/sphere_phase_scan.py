#!/usr/bin/env python3
"""Phase selection by geometric subsequences on the 3-d sphere example.

For each offset chi, integrates the regularized problem along the sequence
nu_n = exp(-T <F_r> n + chi), reads the continuation-family phase zeta and
the lag delta off the samples of every n, and prints the convergence table
together with the zeta + chi invariant (which is the regularization
constant c modulo the family period).  Each row gives zeta, the lag in the
units of its scaling law, delta / nu^(2/3), the spread of the samples'
phases about zeta, the sup distance to the lagged member, and the wrapped
increment of zeta over the previous n.
"""

import argparse
import math

import numpy as np

import singularflow as sf
from singularflow.continuation import _read_phase


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=9)
    ap.add_argument("--chis", type=float, nargs="*", default=[0.0, math.pi / 8, math.pi / 4])
    args = ap.parse_args()

    field = sf.builtin_field("sphere3d")
    cyc = sf.find_limit_cycle(field, np.array([1.0, 0.05, 0.3]))
    fam = sf.build_cycle_family(field, cyc, t_b=3.0)
    span = fam.zeta_period
    t_grid = np.linspace(3.1, 4.0, 90)
    g0 = [0.0, 0.1, 1.0]
    print(f"cycle: T = {cyc.period:.12f}, <F_r> = {cyc.mean_radial:.12f}, "
          f"family period in zeta = {span:.12f}")

    finals = {}
    for chi in args.chis:
        nus = sf.geometric_sequence(cyc.period, cyc.mean_radial, chi, range(1, args.n_max + 1))
        prev = None
        for n, nu in enumerate(nus, start=1):
            rf = sf.make_polynomial_blend(field, g0, float(nu))
            traj = sf.integrate_regularized(rf, [0.0, 0.0, -1.0], 0.0, 4.01)
            samples = traj.sample(t_grid)
            z, dist, spread = sf.estimate_phase(fam, t_grid, samples)
            lag = _read_phase(fam, t_grid, samples)[1] / nu ** (2.0 / 3.0)
            inc = "" if prev is None else f" increment {min(abs(z-prev), span-abs(z-prev)):.4f}"
            print(f"chi = {chi:.4f}  n = {n}  nu = {nu:.3e}  zeta = {z:.6f}  "
                  f"lag/nu^(2/3) = {lag:.4f}  spread = {spread:.1e}  "
                  f"fit dist = {dist:.2e}{inc}")
            prev = z
        finals[chi] = prev
        print(f"chi = {chi:.4f}: zeta + chi = {(prev + chi) % span:.6f} (mod {span:.6f})")
    consts = [(z + chi) % span for chi, z in finals.items()]
    spread = max(consts) - min(consts)
    print(f"regularization constant c mod family period: {consts[0]:.6f} "
          f"(spread over chi values: {spread:.2e})")


if __name__ == "__main__":
    main()
