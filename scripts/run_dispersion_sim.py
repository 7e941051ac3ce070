"""Simulation study for the dispersion test and nu recovery.

Two experiments:
  1. Power/recovery: simulate over-dispersed data (nu < 1) at a chosen
     size, refit, and report the nu estimate and test decision.
  2. Null calibration: simulate Poisson data repeatedly and report the
     empirical rejection rate of the dispersion test at alpha = 0.05.

Usage: python3 scripts/run_dispersion_sim.py [--n 868] [--nu 0.35]
       [--null-reps 200] [--seed 2024]
"""

import argparse
import time

import numpy as np

from comreg.data import simulate
from comreg.fit import fit_com
from comreg.infer import dispersion_test


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=868)
    parser.add_argument("--nu", type=float, default=0.35)
    parser.add_argument("--null-reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    beta = [0.6, 0.5, -0.3]
    print(f"recovery: n={args.n}, true nu={args.nu}, beta={beta}")
    t0 = time.perf_counter()
    ds = simulate(args.n, beta, args.nu, args.seed)
    fr = fit_com(ds)
    res = dispersion_test(ds, fr=fr)
    elapsed = time.perf_counter() - t0
    print(f"  nu-hat = {fr.nu:.4f} (SE {fr.se[-1]:.4f}), "
          f"beta-hat = {np.array2string(fr.beta, precision=3)}")
    print(f"  dispersion test: C = {res.statistic:.2f}, p = {res.p_value:.3g}")
    print(f"  wall time: {elapsed:.1f} s")

    print(f"\nnull calibration: {args.null_reps} Poisson datasets, n=200")
    rejections = 0
    t0 = time.perf_counter()
    for rep in range(args.null_reps):
        ds0 = simulate(200, [0.8, 0.4], 1.0, seed=args.seed * 100 + rep)
        if dispersion_test(ds0).p_value < 0.05:
            rejections += 1
    elapsed = time.perf_counter() - t0
    print(f"  rejection rate at alpha=0.05: {rejections / args.null_reps:.3f} "
          f"({rejections}/{args.null_reps}), wall time {elapsed:.1f} s")


if __name__ == "__main__":
    main()
