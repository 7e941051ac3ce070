"""Maximum-likelihood COM-Poisson regression with the log-lambda link.

The model: Y_i ~ COM-Poisson(lambda_i, nu) with log lambda_i = x_i' beta
and a shared dispersion nu.  Estimation maximizes the log-likelihood
over (beta, nu) by Fisher scoring from the Poisson fit.  The score
and the expected (Fisher) information are covariances of the sufficient
statistics (Y, log Y!), so one series table per (beta, nu) gives the
loglik, both of them and the per-row moments; the standard errors come
from the information at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import dist
from .data import Dataset, linear_predictor


class FitError(RuntimeError):
    """Estimation failed in a way that leaves no usable result."""


class SingularInformationError(FitError):
    """The information matrix is not invertible to tolerance."""


@dataclass(frozen=True)
class OptimSettings:
    grad_tol: float = 1e-12  # Newton-decrement stop rule, relative to max(1, |loglik|)
    max_iter: int = 500
    nu_floor: float = 1e-6
    nu_ceiling: float = 1e3

    def __post_init__(self):
        if not (0 < self.grad_tol < 1):
            raise ValueError("grad_tol must lie in (0, 1)")
        if not (self.nu_floor < 1 < self.nu_ceiling):
            raise ValueError("need nu_floor < 1 < nu_ceiling")


DEFAULT_SETTINGS = OptimSettings()
MAX_HALVINGS = 30    # step halvings per scoring iteration before the fit gives up


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


@dataclass(frozen=True)
class Evaluation:
    """Likelihood quantities at one (beta, nu), all from one series table."""

    loglik: float
    score: np.ndarray    # gradient in (beta..., nu)
    info: np.ndarray     # expected information in (beta..., nu)
    mean: np.ndarray     # E Y_i
    var: np.ndarray      # var Y_i
    log_z: np.ndarray    # log Z(lambda_i, nu); row i's loglik is y_i eta_i - nu log y_i! - log_z_i


def evaluate(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> Evaluation:
    """Loglik, score, expected information and per-row moments and log Z at (beta, nu).

    The score is (X'(y - E Y), sum(E log Y! - log y!)); the information
    has blocks I_bb = X' diag(var Y_i) X, I_bn = -X' cov(Y_i, log Y_i!),
    I_nn = sum var(log Y_i!).  Moments are centred before squaring, so a
    near-degenerate row gets a small positive variance, not a
    cancellation error.  Raises OverflowError when some lambda_i = exp(eta_i)
    is not a positive finite double.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    eta = linear_predictor(ds, beta)
    with np.errstate(over="ignore"):
        lam = np.exp(eta)
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise OverflowError("linear predictor out of range: lambda overflows or underflows")
    s, log_terms, log_z = dist.log_term_table(lam, nu, policy)
    pmf = np.exp(log_terms - log_z[:, None])
    lf = gammaln(s + 1.0)
    mean = pmf @ s
    e_lf = pmf @ lf
    # centred moments in two n x S buffers (allocating more costs as much
    # as the arithmetic): dev holds s - E Y, then log s! - E log Y!
    dev = s - mean[:, None]
    p_dev = pmf * dev
    var = np.einsum("ij,ij->i", p_dev, dev)
    np.subtract(lf, e_lf[:, None], out=dev)
    cov_y_lf = np.einsum("ij,ij->i", p_dev, dev)
    np.multiply(pmf, dev, out=p_dev)
    var_lf = np.einsum("ij,ij->i", p_dev, dev)

    y = ds.y.astype(float)
    lf_y = gammaln(y + 1.0)
    p1 = ds.n_cols
    info = np.empty((p1 + 1, p1 + 1))
    info[:p1, :p1] = ds.X.T @ (ds.X * var[:, None])
    info[:p1, p1] = -ds.X.T @ cov_y_lf
    info[p1, :p1] = info[:p1, p1]
    info[p1, p1] = var_lf.sum()
    return Evaluation(
        loglik=float(y @ eta - nu * lf_y.sum() - log_z.sum()),
        score=np.concatenate([ds.X.T @ (y - mean), [float((e_lf - lf_y).sum())]]),
        info=info,
        mean=mean,
        var=var,
        log_z=log_z,
    )


def loglik(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> float:
    """Sum_i [y_i eta_i - nu log y_i! - log Z(lambda_i, nu)]."""
    return evaluate(ds, beta, nu, policy).loglik


def score(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """Gradient of loglik in (beta, nu): (X'(y - E Y), sum(E log Y! - log y!))."""
    if nu <= 0:
        raise ValueError(f"score requires nu > 0, got {nu}")
    return evaluate(ds, beta, nu, policy).score


def fisher_information(
    ds: Dataset,
    beta: np.ndarray,
    nu: float,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """Expected information in (beta, nu) from sufficient-statistic covariances."""
    if nu <= 0:
        raise ValueError(f"fisher_information requires nu > 0, got {nu}")
    return evaluate(ds, beta, nu, policy).info


def _invert_information(info: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInformationError(
            f"information matrix not invertible (condition number {cond:.3g})"
        )
    cov = np.linalg.inv(info)
    if not np.all(np.diag(cov) > 0):
        raise SingularInformationError(
            "information matrix not invertible (inverse has a non-positive diagonal)"
        )
    return cov


def fit_poisson_start(ds: Dataset) -> np.ndarray:
    """Poisson GLM warm start (the nu=1 slice of the likelihood)."""
    from .baselines import fit_poisson

    return fit_poisson(ds).beta.copy()


def _try_evaluate(ds, z, policy) -> Evaluation | None:
    """evaluate at z = (beta, nu), or None where the likelihood is unusable."""
    p1 = ds.n_cols
    try:
        ev = evaluate(ds, z[:p1], float(z[p1]), policy)
    except (dist.DivergentSeriesError, dist.TruncationError, OverflowError):
        return None
    return ev if np.isfinite(ev.loglik) else None


def fit_com(
    ds: Dataset,
    settings: OptimSettings = DEFAULT_SETTINGS,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
    beta0: np.ndarray | None = None,
    nu0: float = 1.0,
    fix_nu: float | None = None,
) -> FitResult:
    """Maximize the COM-Poisson log-likelihood over (beta, nu) by Fisher scoring.

    In (beta, nu) the model is a canonical exponential family: the
    loglik is concave and the expected information is its negative
    Hessian, so each scoring step I step = g is a Newton step.  The step
    is halved until the loglik does not fall.  nu is clamped to
    [nu_floor, nu_ceiling]; at a bound whose gradient points outward
    only beta moves, and the result is flagged boundary.  fix_nu pins
    the dispersion (e.g. fix_nu=1 gives the Poisson slice of the
    likelihood surface) and solves the beta block only.  converged means
    the Newton decrement g' I^-1 g fell to grad_tol * max(1, |loglik|)
    within max_iter steps.
    """
    p1 = ds.n_cols
    if beta0 is None:
        beta0 = fit_poisson_start(ds)
    if fix_nu is not None:
        nu0 = fix_nu
    lo, hi = settings.nu_floor, settings.nu_ceiling
    z = np.concatenate([beta0, [nu0 if fix_nu is not None else np.clip(nu0, lo, hi)]])
    ev = evaluate(ds, z[:p1], float(z[p1]), policy)

    converged = False
    iterations = 0
    while True:
        g = ev.score
        pushed_out = (z[p1] <= lo and g[p1] < 0) or (z[p1] >= hi and g[p1] > 0)
        free = np.ones(p1 + 1, dtype=bool)
        free[p1] = fix_nu is None and not pushed_out
        step = np.zeros(p1 + 1)
        try:
            step[free] = np.linalg.solve(ev.info[np.ix_(free, free)], g[free])
        except np.linalg.LinAlgError:
            break
        if g @ step <= settings.grad_tol * max(1.0, abs(ev.loglik)):
            converged = True
            break
        if iterations == settings.max_iter:
            break
        for _ in range(MAX_HALVINGS):
            trial = z + step
            if fix_nu is None:
                trial[p1] = np.clip(trial[p1], lo, hi)
            new = _try_evaluate(ds, trial, policy)
            if new is not None and new.loglik >= ev.loglik:
                break
            step /= 2.0
        else:
            break
        z, ev = trial, new
        iterations += 1

    boundary = fix_nu is None and not (lo < z[p1] < hi)
    cov = np.full((p1 + 1, p1 + 1), np.nan)
    try:
        cov = _invert_information(ev.info)
    except SingularInformationError:
        if not boundary:
            raise

    return FitResult(
        beta=z[:p1].copy(),
        nu=float(z[p1]),
        cov=cov,
        loglik=ev.loglik,
        n_obs=ds.n_obs,
        n_params=p1 + 1,
        converged=converged,
        iterations=iterations,
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
