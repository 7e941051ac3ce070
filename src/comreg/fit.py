"""Maximum-likelihood COM-Poisson regression with the log-lambda link.

The model: Y_i ~ COM-Poisson(lambda_i, nu) with log lambda_i = x_i' beta
and a shared dispersion nu.  Estimation maximizes the log-likelihood
over (beta, log nu) by quasi-Newton ascent with the analytic score;
standard errors come from the expected (Fisher) information assembled
from the covariance of the sufficient statistics (Y, log Y!).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.special import gammaln

from . import dist
from .data import Dataset, linear_predictor


class FitError(RuntimeError):
    """Estimation failed in a way that leaves no usable result."""


class SingularInformationError(FitError):
    """The information matrix is not invertible to tolerance."""


@dataclass(frozen=True)
class OptimSettings:
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    max_iter: int = 500
    nu_floor: float = 1e-6
    nu_ceiling: float = 1e3

    def __post_init__(self):
        if not (0 < self.grad_tol < 1 and 0 < self.step_tol < 1):
            raise ValueError("grad_tol and step_tol must lie in (0, 1)")
        if not (self.nu_floor < 1 < self.nu_ceiling):
            raise ValueError("need nu_floor < 1 < nu_ceiling")


DEFAULT_SETTINGS = OptimSettings()


@dataclass
class FitResult:
    """Estimated COM-Poisson regression: coefficients, dispersion, covariance."""

    beta: np.ndarray
    nu: float
    cov: np.ndarray          # (p+2) x (p+2), parameter order (beta..., nu)
    loglik: float
    n_obs: int
    n_params: int
    converged: bool
    iterations: int
    boundary: bool = False   # nu pinned at nu_floor/nu_ceiling; nu covariance unreliable

    @property
    def scaled_beta(self) -> np.ndarray:
        """beta / nu, the crude-comparison scale against Poisson-style fits."""
        return self.beta / self.nu

    @property
    def se(self) -> np.ndarray:
        """Standard errors for (beta..., nu)."""
        return np.sqrt(np.diag(self.cov))


def _moment_tables(lam: np.ndarray, nu: float, policy: dist.SeriesPolicy):
    """Per-observation moments of the sufficient statistics (Y, log Y!)."""
    s, pmf = dist.pmf_table(lam, nu, policy)
    lf = gammaln(s + 1.0)
    mean = pmf @ s
    var = pmf @ s**2 - mean**2
    e_lf = pmf @ lf
    var_lf = pmf @ lf**2 - e_lf**2
    cov_y_lf = pmf @ (s * lf) - mean * e_lf
    return mean, var, e_lf, var_lf, cov_y_lf


def loglik(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> float:
    """Sum_i [y_i eta_i - nu log y_i! - log Z(lambda_i, nu)]."""
    eta = linear_predictor(ds, beta)
    lam = np.exp(eta)
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if nu == 0 and np.any(lam >= 1):
        raise dist.DivergentSeriesError("nu=0 requires every lambda_i < 1")
    if nu == 1:
        log_z = lam
    else:
        _, _, log_z = dist.log_term_table(lam, nu, policy)
    y = ds.y.astype(float)
    return float(y @ eta - nu * gammaln(y + 1.0).sum() - log_z.sum())


def score(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """Gradient of loglik in (beta, nu): (X'(y - E Y), sum(E log Y! - log y!))."""
    if nu <= 0:
        raise ValueError(f"score requires nu > 0, got {nu}")
    lam = np.exp(linear_predictor(ds, beta))
    mean, _, e_lf, _, _ = _moment_tables(lam, nu, policy)
    y = ds.y.astype(float)
    g_beta = ds.X.T @ (y - mean)
    g_nu = float((e_lf - gammaln(y + 1.0)).sum())
    return np.concatenate([g_beta, [g_nu]])


def fisher_information(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """Expected information in (beta, nu) from sufficient-statistic covariances.

    Block form: I_bb = X' diag(var Y_i) X, I_bn = -X' cov(Y_i, log Y_i!),
    I_nn = sum var(log Y_i!).
    """
    if nu <= 0:
        raise ValueError(f"fisher_information requires nu > 0, got {nu}")
    lam = np.exp(linear_predictor(ds, beta))
    _, var, _, var_lf, cov_y_lf = _moment_tables(lam, nu, policy)
    p1 = ds.n_cols
    info = np.empty((p1 + 1, p1 + 1))
    info[:p1, :p1] = ds.X.T @ (ds.X * var[:, None])
    info[:p1, p1] = -ds.X.T @ cov_y_lf
    info[p1, :p1] = info[:p1, p1]
    info[p1, p1] = var_lf.sum()
    return info


def _invert_information(info: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInformationError(
            f"information matrix not invertible (condition number {cond:.3g})"
        )
    return np.linalg.inv(info)


def fit_poisson_start(ds: Dataset) -> np.ndarray:
    """Poisson GLM warm start (the nu=1 slice of the likelihood)."""
    from .baselines import fit_poisson

    return fit_poisson(ds).beta.copy()


def fit_com(
    ds: Dataset,
    settings: OptimSettings = DEFAULT_SETTINGS,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
    beta0: np.ndarray | None = None,
    nu0: float = 1.0,
    fix_nu: float | None = None,
) -> FitResult:
    """Maximize the COM-Poisson log-likelihood over (beta, log nu).

    fix_nu pins the dispersion (e.g. fix_nu=1 gives the Poisson slice of
    the likelihood surface) and optimizes over beta only.
    """
    p1 = ds.n_cols
    if beta0 is None:
        beta0 = fit_poisson_start(ds)
    if fix_nu is not None:
        nu0 = fix_nu
    z0 = np.concatenate([beta0, [np.log(nu0)]])

    def neg(z):
        beta, nu = z[:p1], float(np.exp(z[p1]))
        try:
            ll = loglik(ds, beta, nu, policy)
        except (dist.DivergentSeriesError, dist.TruncationError, OverflowError):
            return np.inf, np.zeros_like(z)
        if not np.isfinite(ll):
            return np.inf, np.zeros_like(z)
        g = score(ds, beta, nu, policy)
        g[p1] *= nu  # chain rule onto the log nu scale
        if fix_nu is not None:
            g[p1] = 0.0
        return -ll, -g

    res = scipy.optimize.minimize(
        neg,
        z0,
        jac=True,
        method="BFGS",
        options={"gtol": settings.grad_tol, "maxiter": settings.max_iter},
    )

    beta_hat = res.x[:p1]
    nu_hat = float(np.exp(res.x[p1]))
    grad_norm = float(np.max(np.abs(res.jac)))
    # large-n likelihoods cannot reach an absolute 1e-8 gradient in double
    # precision; also accept a gradient small relative to the loglik scale
    converged = bool(
        res.success
        or grad_norm <= 10 * settings.grad_tol
        or grad_norm <= 1e-6 * max(1.0, abs(float(res.fun)))
    )

    boundary = False
    if nu_hat <= settings.nu_floor:
        nu_hat, boundary = settings.nu_floor, True
    elif nu_hat >= settings.nu_ceiling:
        nu_hat, boundary = settings.nu_ceiling, True

    ll_hat = loglik(ds, beta_hat, nu_hat, policy)
    cov = np.full((p1 + 1, p1 + 1), np.nan)
    try:
        cov = _invert_information(fisher_information(ds, beta_hat, nu_hat, policy))
    except SingularInformationError:
        if not boundary:
            raise

    return FitResult(
        beta=beta_hat,
        nu=nu_hat,
        cov=cov,
        loglik=ll_hat,
        n_obs=ds.n_obs,
        n_params=p1 + 1,
        converged=converged,
        iterations=int(res.nit),
        boundary=boundary,
    )


def fitted_values(
    ds: Dataset,
    fr: FitResult,
    kind: str = "median",
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """Fitted values: 'mean_approx' via the closed-form mean, or 'median'.

    mean_approx is refused when the approximation's validity region
    (nu <= 1 or lambda_i > 10^nu for every i) does not hold.
    """
    lam = np.exp(linear_predictor(ds, fr.beta))
    if kind == "mean_approx":
        if not dist.approx_mean_valid(lam, fr.nu):
            raise ValueError(
                "mean approximation invalid here (requires nu <= 1 or "
                "lambda_i > 10^nu for every observation); use kind='median'"
            )
        return lam ** (1.0 / fr.nu) - (fr.nu - 1.0) / (2.0 * fr.nu)
    if kind == "median":
        _, pmf = dist.pmf_table(lam, fr.nu, policy)
        return dist.inverse_cdf(pmf, 0.5).astype(float)
    raise ValueError(f"unknown fitted-value kind {kind!r}")
