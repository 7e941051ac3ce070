"""End-to-end analysis of the bundled airfreight breakage dataset.

Fits Poisson, negative binomial, RGPR, and COM-Poisson regressions,
runs the dispersion test, a parametric bootstrap for the dispersion
parameter, and the leverage/residual diagnostics, printing each stage
as a small table.

Usage: python3 scripts/run_airfreight.py [--n-boot 1000] [--seed 2026]
"""

import argparse
from pathlib import Path

import numpy as np

from comreg.baselines import (
    NonConvergenceError,
    compare_models,
    fit_negbin,
    fit_poisson,
    fit_rgpr,
)
from comreg.data import linear_predictor, load_csv
from comreg.diag import diagnostics_report
from comreg.fit import fit_com, fitted_values
from comreg.infer import dispersion_test, parametric_bootstrap

DATA = Path(__file__).resolve().parents[1] / "data" / "airfreight.csv"


def coef_table(title, names, est, se):
    print(f"\n{title}")
    for name, b, s in zip(names, est, se):
        cell = "-" if not np.isfinite(s) else f"{s:.4f}"
        print(f"  {name:<12} {b:10.4f} ({cell})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-boot", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    ds = load_csv(DATA, response="broken")
    print(f"airfreight data: n={ds.n_obs}, covariates={ds.names[1:]}")

    pois = fit_poisson(ds)
    coef_table("Poisson", ds.names, pois.beta, pois.se)

    nb = fit_negbin(ds)
    coef_table("negative binomial", ds.names, nb.beta, nb.se)
    if nb.boundary:
        print("  [r at boundary: no detectable over-dispersion, "
              "fit collapses to Poisson]")

    try:
        fit_rgpr(ds)
    except NonConvergenceError as exc:
        print(f"\nRGPR: {exc} "
              f"(alpha = {exc.diagnostics['alpha']:.4f}, feasibility bound "
              f"{exc.diagnostics['alpha_feasibility_bound']:.4f})")

    com = fit_com(ds)
    coef_table("COM-Poisson", ds.names, com.beta, com.se[:-1])
    print(f"  {'nu':<12} {com.nu:10.4f} ({com.se[-1]:.4f})")
    print(f"  scaled beta (beta/nu): "
          f"{np.array2string(com.scaled_beta, precision=4)}")

    comp = compare_models(
        ds,
        {"com-poisson": com, "poisson": pois, "negbin": nb},
        {
            "com-poisson": fitted_values(ds, com, kind="median"),
            "poisson": np.exp(linear_predictor(ds, pois.beta)),
            "negbin": np.exp(linear_predictor(ds, nb.beta)),
        },
    )
    print(f"\n{'model':<14} {'loglik':>9} {'AICc':>8} {'MSE':>6}")
    for row in comp.rows:
        print(f"{row.model:<14} {row.loglik:9.3f} {row.aicc:8.2f} {row.mse:6.2f}")

    lrt = dispersion_test(ds, fr=com)
    print(f"\ndispersion test: C = {lrt.statistic:.3f}, p = {lrt.p_value:.4g}")

    boot = parametric_bootstrap(ds, com, n_boot=args.n_boot, seed=args.seed)
    lo, hi = boot.intervals["nu"]
    slope = boot.replicates[:, 1]
    print(f"bootstrap ({boot.n_boot} replicates, seed {boot.seed}, "
          f"{boot.n_failed} failed):")
    print(f"  90% CI for nu: ({lo:.2f}, {hi:.2f})")
    print(f"  fraction of slope replicates <= 0: {np.mean(slope <= 0):.4f}")

    rep = diagnostics_report(ds, com)
    print("\ndiagnostics (1-based observation numbers):")
    print(f"  highest leverage: obs {int(np.argmax(rep.leverage)) + 1} "
          f"(h = {max(rep.leverage):.3f})")
    print(f"  flagged residuals: {[i + 1 for i in rep.flagged_residual]}")


if __name__ == "__main__":
    main()
