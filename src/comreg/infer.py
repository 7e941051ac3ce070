"""Dispersion hypothesis test and parametric-bootstrap inference."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import dist, fit
from ._special import chi2_sf_1df
from .baselines import fit_poisson, poisson_newton
from .data import Dataset, linear_predictor


@dataclass
class DispersionTest:
    """Likelihood-ratio test of H0: nu = 1 (Poisson) vs the COM-Poisson fit."""

    statistic: float
    df: int
    p_value: float
    loglik_null: float
    loglik_alt: float
    boundary_warning: bool = False
    bootstrap_p_value: float | None = None     # over the kept replicates
    bootstrap_failures: dict | None = None     # cause -> count dropped, when calibrating


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


def _keep_converged(fits: list):
    """The replicate fits (fit.fit_replicates' entries, or a failure in
    their place) that converged.  A replicate whose fit is an error or
    did not converge is dropped and counted by cause, the exception class
    name or "nonconverged"; fit.FitError is raised when every replicate
    fails.  Returns the kept FitResults, which replicates were kept, and
    the counts by cause.
    """
    kept = np.array([isinstance(f, fit.FitResult) and f.converged for f in fits])
    failures = dict(sorted(Counter(
        "nonconverged" if isinstance(f, fit.FitResult) else type(f).__name__
        for f, ok in zip(fits, kept) if not ok).items()))
    if not kept.any():
        raise fit.FitError(f"every bootstrap replicate failed: {failures}")
    return [f for f, ok in zip(fits, kept) if ok], kept, failures


def _check_fit_of(ds: Dataset, fr: fit.FitResult) -> None:
    # a caller's fit_com(ds) must estimate nu on the rows and columns of ds
    if fr.extra_name != "nu":
        raise ValueError(f"fr must be fit_com(ds) with nu estimated, not a fit with "
                         f"extra_name={fr.extra_name!r}")
    if (fr.n_obs, len(fr.beta), fr.n_params) != (ds.n_obs, ds.n_cols, ds.n_cols + 1):
        raise ValueError(f"fr must be fit_com(ds) with nu estimated, not a fit of {fr.n_obs} rows "
                         f"with {len(fr.beta)} coefficients and {fr.n_params} parameters")


def dispersion_test(
    ds: Dataset,
    bootstrap_calibrate: bool = False,
    n_boot: int = 500,
    seed: int | None = None,
    fr: fit.FitResult | None = None,
) -> DispersionTest:
    """C = -2 [logL(beta0, nu=1) - logL(beta, nu)], chi^2_1 under the null.

    bootstrap_calibrate simulates C under the fitted Poisson null and
    reports the empirical tail fraction as well (small-sample guidance):
    the n_boot responses are the rows of one matrix drawn from
    np.random.default_rng(seed), in row order as in parametric_bootstrap;
    one stacked Poisson fit (poisson_newton) gives their null logliks, and
    one stacked COM-Poisson fit (fit.fit_replicates) starts each replicate
    at the moment estimate on its Poisson fit.  The tail fraction is over
    the replicates _keep_converged keeps; the dropped ones, a failed
    Poisson fit among them, are counted in bootstrap_failures.  fr, the
    caller's fit_com(ds), is the alternative instead of a refit:
    ValueError is raised when it is not a COM-Poisson fit, its nu was
    fixed or its rows or columns are not those of ds, and fit.FitError
    when the alternative is not converged.  Calibrating needs a seed and
    n_boot >= 1, which are checked before anything is fitted.
    """
    if bootstrap_calibrate:
        if seed is None:
            raise ValueError("bootstrap calibration requires a seed")
        if n_boot < 1:
            raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    null = fit_poisson(ds)
    alt = fr if fr is not None else fit.fit_com(ds, beta0=null.beta)
    _check_fit_of(ds, alt)
    if not alt.converged:
        raise fit.FitError("COM-Poisson fit did not converge")
    stat = max(0.0, -2.0 * (null.loglik - alt.loglik))
    result = DispersionTest(statistic=stat, df=1, p_value=chi2_sf_1df(stat),
                            loglik_null=null.loglik, loglik_alt=alt.loglik,
                            boundary_warning=alt.boundary)
    if bootstrap_calibrate:
        lam0 = np.exp(linear_predictor(ds, null.beta))
        y_star = np.random.default_rng(seed).poisson(lam0, size=(n_boot, ds.n_obs))
        beta0, _, null_loglik, _, fits = poisson_newton(ds.X, y_star)
        started = np.flatnonzero([f is None for f in fits])
        for b, f in zip(started, fit.fit_replicates(ds.X, y_star[started], beta0[started])):
            fits[b] = f
        fits, kept, result.bootstrap_failures = _keep_converged(fits)
        stats = np.maximum(0.0, -2.0 * (null_loglik[kept] - [f.loglik for f in fits]))
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

    The draws share one series table, streamed by one inverse_cdf call
    over an (n_boot, n) matrix of uniforms from np.random.default_rng(seed),
    filled in row order: a run is fixed by its seed, does not depend on
    execution order, and its first k replicates are those of any run with
    the same seed and more replicates.  One stacked COM-Poisson fit
    (fit.fit_replicates) fits them all, each replicate started from its own
    response with no Poisson fit, and _keep_converged drops failed
    replicates, counts them by cause in failures and raises fit.FitError
    when every replicate fails.  Percentile intervals are computed over
    the kept replicates; a >20% failure rate marks the result
    unreliable.  fr must be fit_com(ds) with nu estimated:
    ValueError is raised when it is not a COM-Poisson fit, its nu was
    fixed, its rows or columns are not those of ds, or it did not converge.
    """
    if n_boot < 100:
        raise ValueError(f"n_boot must be >= 100, got {n_boot}")
    if not (0 < ci_level < 1):
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
    _check_fit_of(ds, fr)
    if not fr.converged:
        raise ValueError("parametric_bootstrap requires a converged fit")

    lam_hat = np.exp(linear_predictor(ds, fr.beta))
    tab = dist.log_term_table(lam_hat, fr.nu)
    u = np.random.default_rng(seed).uniform(size=(n_boot, ds.n_obs))
    fits, _, failures = _keep_converged(
        fit.fit_replicates(ds.X, dist.inverse_cdf(tab, u), None))
    good = np.column_stack([np.array([f.beta for f in fits]), [f.extra for f in fits]])
    n_failed = n_boot - len(fits)
    lo = 100.0 * (1.0 - ci_level) / 2.0
    names = tuple([*ds.names, "nu"])
    # order-statistic percentiles (no interpolation): equivariant under
    # monotone reparameterization of the recorded replicates
    lows, highs = np.percentile(good, [lo, 100.0 - lo], axis=0, method="inverted_cdf")
    intervals = {name: (float(a), float(b)) for name, a, b in zip(names, lows, highs)}
    return BootstrapResult(replicates=good, n_boot=n_boot, seed=seed, ci_level=ci_level,
                           intervals=intervals, n_failed=n_failed, param_names=names,
                           unreliable=n_failed > 0.2 * n_boot, failures=failures)


def wald_z(fr: fit.FitResult, j: int) -> float:
    """Estimate / SE of beta_j, or at j = len(fr.beta) of the extra parameter (nu, r or alpha)."""
    last = len(fr.beta) - (fr.extra_name is None)
    if not 0 <= j <= last:
        raise ValueError(f"j must lie in 0..{last}, got {j}")
    if not fr.converged:
        raise ValueError("wald_z requires a converged fit")
    if fr.boundary and j >= len(fr.beta):
        raise ValueError(f"SE for {fr.extra_name} is unreliable at a boundary fit")
    se2 = fr.cov[j, j]
    if not (se2 > 0):
        raise ValueError(f"covariance diagonal entry {j} is not positive")
    value = fr.beta[j] if j < len(fr.beta) else fr.extra
    return float(value / np.sqrt(se2))
