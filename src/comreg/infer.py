"""Dispersion hypothesis test and parametric-bootstrap inference."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import dist, fit
from ._special import chi2_sf_1df
from .baselines import BaselineError, fit_poisson, poisson_newton
from .data import DataError, Dataset, linear_predictor

# Failures that drop one bootstrap replicate; any other exception is a
# defect and propagates.
REPLICATE_ERRORS = (
    fit.FitError,
    BaselineError,
    dist.TruncationError,
    dist.DivergentSeriesError,
    DataError,
    np.linalg.LinAlgError,
)


@dataclass
class DispersionTest:
    """Likelihood-ratio test of H0: nu = 1 (Poisson) vs the COM-Poisson fit."""

    statistic: float
    df: int
    p_value: float
    loglik_null: float
    loglik_alt: float
    boundary_warning: bool = False
    bootstrap_p_value: float | None = None


@dataclass
class BootstrapResult:
    replicates: np.ndarray        # converged rows only, columns (beta..., nu)
    n_boot: int
    seed: int
    ci_level: float
    intervals: dict
    n_failed: int
    param_names: tuple
    unreliable: bool = False
    failures: dict = field(default_factory=dict)   # cause -> count, summing to n_failed


def _refit(ds: Dataset, y_star: np.ndarray):
    """fit_com on each replicate response y_star[b] with the design of ds.

    The Poisson warm starts and the COM-Poisson fits (fit.fit_replicates)
    each run as one stacked Newton loop (baselines.newton).
    Returns per replicate its FitResult or the error that ended it, and
    its Poisson loglik.
    """
    beta0, _, null_loglik, fits = poisson_newton(ds.X, y_star)
    started = np.array([f is None for f in fits])
    for b, f in zip(np.flatnonzero(started),
                    fit.fit_replicates(ds.X, y_star[started], beta0[started])):
        fits[b] = f
    return fits, null_loglik


def dispersion_test(
    ds: Dataset,
    bootstrap_calibrate: bool = False,
    n_boot: int = 500,
    seed: int | None = None,
    fr: fit.FitResult | None = None,
) -> DispersionTest:
    """C = -2 [logL(beta0, nu=1) - logL(beta, nu)], chi^2_1 under the null.

    bootstrap_calibrate simulates C under the fitted Poisson null and
    reports the empirical tail fraction as well (small-sample guidance).
    fr, the caller's fit_com(ds), is the alternative instead of a refit.
    Calibrating needs a seed and n_boot >= 1.
    """
    null = fit_poisson(ds)
    alt = fr if fr is not None else fit.fit_com(ds, beta0=null.beta)
    stat = max(0.0, -2.0 * (null.loglik - alt.loglik))
    result = DispersionTest(
        statistic=stat,
        df=1,
        p_value=chi2_sf_1df(stat),
        loglik_null=null.loglik,
        loglik_alt=alt.loglik,
        boundary_warning=alt.boundary,
    )
    if bootstrap_calibrate:
        if seed is None:
            raise ValueError("bootstrap calibration requires a seed")
        if n_boot < 1:
            raise ValueError(f"n_boot must be >= 1, got {n_boot}")
        lam0 = np.exp(linear_predictor(ds, null.beta))
        children = np.random.SeedSequence(seed).spawn(n_boot)
        y_star = np.stack([np.random.default_rng(c).poisson(lam0) for c in children])
        fits, null_loglik = _refit(ds, y_star)
        for f in fits:
            if isinstance(f, Exception):
                raise f
        stats = np.maximum(0.0, -2.0 * (null_loglik - [f.loglik for f in fits]))
        result.bootstrap_p_value = float(np.mean(stats >= stat))
    return result


def parametric_bootstrap(
    ds: Dataset,
    fr: fit.FitResult,
    n_boot: int = 1000,
    ci_level: float = 0.90,
    seed: int = 0,
) -> BootstrapResult:
    """Resample y* ~ COM-Poisson(lambda_hat_i, nu_hat), refit, collect (beta*, nu*).

    Each replicate draws from its own counter-indexed substream of the
    master seed, so results do not depend on execution order; the draws
    share one pmf table, and the replicates are refitted together (one
    stacked Poisson warm start, one stacked COM-Poisson fit).  Percentile
    intervals are computed over converged replicates only; a >20% failure
    rate marks the result unreliable, and fit.FitError is raised when
    every replicate fails.  failures counts the dropped replicates by
    cause: the exception class name, or "nonconverged".
    """
    if n_boot < 100:
        raise ValueError(f"n_boot must be >= 100, got {n_boot}")
    if not (0 < ci_level < 1):
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
    if not fr.converged:
        raise ValueError("parametric_bootstrap requires a converged fit")

    lam_hat = np.exp(linear_predictor(ds, fr.beta))
    _, pmf = dist.pmf_table(lam_hat, fr.nu)
    children = np.random.SeedSequence(seed).spawn(n_boot)
    y_star = np.stack([dist.inverse_cdf(pmf, np.random.default_rng(c).uniform(size=ds.n_obs))
                       for c in children])
    fits, _ = _refit(ds, y_star)
    rows = np.full((n_boot, ds.n_cols + 1), np.nan)
    ok = np.zeros(n_boot, dtype=bool)
    failures: Counter = Counter()
    for b, f in enumerate(fits):
        if isinstance(f, REPLICATE_ERRORS):
            failures[type(f).__name__] += 1
        elif isinstance(f, Exception):
            raise f
        elif f.converged:
            rows[b, :-1] = f.beta
            rows[b, -1] = f.nu
            ok[b] = True
        else:
            failures["nonconverged"] += 1

    n_failed = int(n_boot - ok.sum())
    if n_failed == n_boot:
        raise fit.FitError(f"every bootstrap replicate failed: {dict(sorted(failures.items()))}")
    good = rows[ok]
    lo = 100.0 * (1.0 - ci_level) / 2.0
    hi = 100.0 - lo
    names = tuple([*ds.names, "nu"])
    # order-statistic percentiles (no interpolation): equivariant under
    # monotone reparameterization of the recorded replicates
    intervals = {
        name: (
            float(np.percentile(good[:, j], lo, method="inverted_cdf")),
            float(np.percentile(good[:, j], hi, method="inverted_cdf")),
        )
        for j, name in enumerate(names)
    }
    return BootstrapResult(
        replicates=good,
        n_boot=n_boot,
        seed=seed,
        ci_level=ci_level,
        intervals=intervals,
        n_failed=n_failed,
        param_names=names,
        unreliable=n_failed > 0.2 * n_boot,
        failures=dict(sorted(failures.items())),
    )


def wald_z(fr: fit.FitResult, j: int) -> float:
    """beta_j / SE_j from the fitted covariance matrix."""
    if not fr.converged:
        raise ValueError("wald_z requires a converged fit")
    if fr.boundary and j >= len(fr.beta):
        raise ValueError("SE for nu is unreliable at a boundary fit")
    se2 = fr.cov[j, j]
    if not (se2 > 0):
        raise ValueError(f"covariance diagonal entry {j} is not positive")
    value = fr.beta[j] if j < len(fr.beta) else fr.nu
    return float(value / np.sqrt(se2))
