"""Comparison regressions and model-comparison statistics.

Poisson and logistic GLMs are fit by Newton iterations on their
canonical links; negative binomial by joint quasi-Newton over
(beta, log r); restricted generalized Poisson (RGPR) by constrained
quasi-Newton over (beta, alpha) subject to 1 + alpha*mu_i > 0 and
1 + alpha*y_i > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, expit, gammaln

from .data import Dataset, linear_predictor

NEGBIN_BOUNDARY_R = 1e6
NEGBIN_LIMIT_R = 1e8


class BaselineError(RuntimeError):
    """A baseline fit failed in a way that leaves no usable result."""


class SeparationError(BaselineError):
    """Complete separation in logistic regression."""


class NonConvergenceError(BaselineError):
    """The optimizer did not converge; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class BaselineFit:
    model_kind: str          # poisson | negbin | logistic | rgpr
    beta: np.ndarray
    cov: np.ndarray
    loglik: float
    converged: bool
    extra: float | None = None       # r for negbin, alpha for rgpr
    extra_se: float | None = None
    boundary: bool = False
    n_obs: int = 0

    @property
    def n_params(self) -> int:
        return len(self.beta) + (0 if self.extra is None else 1)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def solve_each(A: np.ndarray, b: np.ndarray):
    """Solve A[k] x[k] = b[k] for a stack of systems.

    Returns (x, singular): a singular system gets a NaN row in x and True
    in singular, and leaves the others as they are.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.zeros(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        singular = np.ones(len(b), dtype=bool)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(A[k], b[k])
                singular[k] = False
            except np.linalg.LinAlgError:
                pass
        return x, singular


def _newton_glm(X: np.ndarray, Y: np.ndarray, mean_fn, var_fn, loglik_fn, beta0,
                max_iter=100, rtol=1e-8):
    """Canonical-link Newton iterations for responses Y (one per row) sharing X.

    Shared by Poisson and logistic fits and by stacked warm starts.  The
    products with X run one row at a time (a stack of matrix products,
    never one across rows), so a row's result does not depend on the
    other rows.  Each row steps from its row of beta0 until
    a step moves no coefficient by more than rtol * max(1, max|beta|).
    The rule is relative, so counts of any size converge; convergence is
    quadratic, so beta after that step is exact to rounding; and a
    separated logistic fit, whose coefficients run off at a steady pace,
    never stops.  Returns (beta, H, loglik, failure), per row: the
    estimate, X'WX and the loglik there, and None or the BaselineError
    that stopped it.
    """
    beta = np.array(beta0, dtype=float)
    failure = [None] * len(Y)
    todo = np.arange(len(Y))
    for it in range(max_iter):
        eta = (beta[todo, None, :] @ X.T)[:, 0]
        mu = mean_fn(eta)
        step, singular = solve_each((X.T * var_fn(mu)[:, None, :]) @ X,
                                    ((Y[todo] - mu)[:, None, :] @ X)[:, 0])
        for k in todo[singular]:
            failure[k] = BaselineError(f"singular Newton system at iteration {it}")
        beta[todo] += step
        small = np.abs(step).max(axis=1) <= rtol * np.maximum(
            1.0, np.abs(beta[todo]).max(axis=1))
        todo = todo[~(small | singular)]
        if not todo.size:
            break
    else:
        for k in todo:
            failure[k] = NonConvergenceError("Newton iterations did not converge")
    eta = (beta[:, None, :] @ X.T)[:, 0]
    mu = mean_fn(eta)
    H = (X.T * var_fn(mu)[:, None, :]) @ X
    with np.errstate(invalid="ignore"):    # a row that ran off has a NaN loglik
        return beta, H, loglik_fn(Y, eta, mu), failure


def poisson_loglik(y: np.ndarray, eta: np.ndarray):
    """Poisson loglik, summed over the last axis (one value per response row)."""
    return np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0), axis=-1)


def poisson_newton(X: np.ndarray, Y: np.ndarray):
    """Poisson GLM fits of responses Y (one per row) sharing X, as one
    stacked Newton iteration: (beta, H, loglik, failure) per row, as in
    _newton_glm, each started from the log of its mean count."""
    beta0 = np.zeros((len(Y), X.shape[1]))
    beta0[:, 0] = np.log(np.maximum(Y.mean(axis=1), 0.1))
    return _newton_glm(X, Y, np.exp, lambda mu: mu,
                       lambda y, eta, mu: poisson_loglik(y, eta), beta0)


def fit_poisson(ds: Dataset) -> BaselineFit:
    """Poisson GLM with log link."""
    beta, H, ll, (failure,) = poisson_newton(ds.X, ds.y[None])
    if failure is not None:
        raise failure
    return BaselineFit("poisson", beta[0], np.linalg.inv(H[0]), float(ll[0]), True,
                       n_obs=ds.n_obs)


def fit_logistic(ds: Dataset) -> BaselineFit:
    """Logistic regression; response must be 0/1."""
    y = ds.y
    if not np.all((y == 0) | (y == 1)):
        raise BaselineError("logistic regression requires a 0/1 response")

    def loglik_fn(y, eta, mu):
        return np.sum(y * eta - np.logaddexp(0.0, eta), axis=-1)

    beta, H, ll, (failure,) = _newton_glm(ds.X, y[None], expit, lambda mu: mu * (1.0 - mu),
                                          loglik_fn, np.zeros((1, ds.n_cols)))
    if failure is not None:
        raise SeparationError(
            "logistic fit failed; data may be completely separated"
        ) from failure
    beta = beta[0]
    if np.max(np.abs(linear_predictor(ds, beta))) > 30:
        raise SeparationError("complete separation: fitted probabilities at 0/1")
    return BaselineFit("logistic", beta, np.linalg.inv(H[0]), float(ll[0]), True,
                       n_obs=ds.n_obs)


def negbin_loglik(y: np.ndarray, mu: np.ndarray, r: float) -> float:
    return float(
        np.sum(
            gammaln(r + y) - gammaln(r) - gammaln(y + 1.0)
            + r * (np.log(r) - np.log(r + mu))
            + y * (np.log(mu) - np.log(r + mu))
        )
    )


def fit_negbin(ds: Dataset, r0: float = 10.0) -> BaselineFit:
    """Negative binomial (gamma-Poisson mixture) MLE over (beta, log r).

    As r -> infinity the model collapses onto Poisson; on equi- or
    under-dispersed data the optimizer drifts to that boundary, which is
    detected and reported as a boundary-flagged Poisson-equivalent fit.
    """
    pois = fit_poisson(ds)
    p1 = ds.n_cols
    y = ds.y.astype(float)

    def neg(z):
        beta, r = z[:p1], float(np.exp(z[p1]))
        mu = np.exp(ds.X @ beta)
        ll = negbin_loglik(y, mu, r)
        if not np.isfinite(ll):
            return np.inf, np.zeros_like(z)
        g_beta = ds.X.T @ (r * (y - mu) / (r + mu))
        g_r = np.sum(
            digamma(r + y) - digamma(r) + np.log(r) - np.log(r + mu)
            + 1.0 - (r + y) / (r + mu)
        )
        return -ll, -np.concatenate([g_beta, [g_r * r]])

    import scipy.optimize   # deferred: only the BFGS baselines need it

    z0 = np.concatenate([pois.beta, [np.log(r0)]])
    res = scipy.optimize.minimize(
        neg, z0, jac=True, method="BFGS", options={"gtol": 1e-8, "maxiter": 500}
    )
    r_hat = float(np.exp(res.x[p1]))

    if r_hat > NEGBIN_BOUNDARY_R:
        # Poisson limit: report the Poisson solution, flagged.
        mu = np.exp(ds.X @ pois.beta)
        cov = np.full((p1 + 1, p1 + 1), np.nan)
        cov[:p1, :p1] = pois.cov
        return BaselineFit(
            "negbin",
            pois.beta.copy(),
            cov,
            negbin_loglik(y, mu, NEGBIN_LIMIT_R),
            converged=True,
            extra=NEGBIN_LIMIT_R,
            boundary=True,
            n_obs=ds.n_obs,
        )

    grad_norm = float(np.max(np.abs(res.jac)))
    # absolute gtol is unreachable when the loglik is thousands in
    # magnitude; accept a gradient small relative to that scale
    if not (res.success or grad_norm < 1e-6 * max(1.0, abs(res.fun))):
        raise NonConvergenceError(
            f"negative binomial fit did not converge (|grad|={grad_norm:.3g})"
        )
    beta_hat = res.x[:p1]
    hess = _numerical_hessian(lambda z: -neg(z)[0], res.x)
    cov_z = np.linalg.inv(-hess)
    # delta method log r -> r
    J = np.eye(p1 + 1)
    J[p1, p1] = r_hat
    cov = J @ cov_z @ J.T
    return BaselineFit(
        "negbin",
        beta_hat,
        cov,
        -float(res.fun),
        converged=True,
        extra=r_hat,
        extra_se=float(np.sqrt(cov[p1, p1])),
        n_obs=ds.n_obs,
    )


def rgpr_loglik(y: np.ndarray, mu: np.ndarray, alpha: float) -> float:
    """Restricted generalized Poisson log-likelihood.

    Only defined where 1 + alpha*mu_i > 0 and 1 + alpha*y_i > 0; -inf is
    returned outside so ascent steps into infeasible territory are
    rejected by the line search.
    """
    if np.any(1.0 + alpha * mu <= 1e-12) or np.any(1.0 + alpha * y <= 1e-12):
        return -np.inf
    return float(
        np.sum(
            y * (np.log(mu) - np.log1p(alpha * mu))
            + (y - 1.0) * np.log1p(alpha * y)
            - gammaln(y + 1.0)
            - mu * (1.0 + alpha * y) / (1.0 + alpha * mu)
        )
    )


def _rgpr_mass_deficiency(mu: np.ndarray, alpha: float, tol: float = 1e-3):
    """Max |1 - total pmf mass| over observations.

    For alpha < 0 the support is truncated at y < -1/alpha and the pmf
    need not sum to one, which is the known RGPR failure mode on
    under-dispersed data.
    """
    worst = 0.0
    for m in (float(mu.min()), float(mu.max())):
        ys = np.arange(0.0, 10 * m + 200.0)
        if alpha < 0:
            ys = ys[1.0 + alpha * ys > 1e-12]
        lp = (
            ys * (np.log(m) - np.log1p(alpha * m))
            + (ys - 1.0) * np.log1p(alpha * ys)
            - gammaln(ys + 1.0)
            - m * (1.0 + alpha * ys) / (1.0 + alpha * m)
        )
        worst = max(worst, abs(1.0 - float(np.exp(lp).sum())))
    return worst


def fit_rgpr(ds: Dataset, max_iter: int = 500) -> BaselineFit:
    """Restricted generalized Poisson MLE over (beta, alpha).

    Raises NonConvergenceError when the likelihood runs into the
    feasibility boundary 1 + alpha*y_max = 0 (where it is unbounded and
    the truncated pmf no longer sums to one) or the optimizer fails.
    """
    pois = fit_poisson(ds)
    p1 = ds.n_cols
    y = ds.y.astype(float)
    y_max = float(y.max())

    def neg(z):
        beta, alpha = z[:p1], float(z[p1])
        mu = np.exp(ds.X @ beta)
        ll = rgpr_loglik(y, mu, alpha)
        if not np.isfinite(ll):
            return np.inf, np.zeros_like(z)
        one_am = 1.0 + alpha * mu
        one_ay = 1.0 + alpha * y
        dl_dmu = y / mu - y * alpha / one_am - one_ay / one_am**2
        g_beta = ds.X.T @ (dl_dmu * mu)
        g_alpha = np.sum(
            -y * mu / one_am + y * (y - 1.0) / one_ay - mu * (y - mu) / one_am**2
        )
        return -ll, -np.concatenate([g_beta, [g_alpha]])

    import scipy.optimize

    z0 = np.concatenate([pois.beta, [0.0]])
    res = scipy.optimize.minimize(
        neg, z0, jac=True, method="BFGS", options={"gtol": 1e-8, "maxiter": max_iter}
    )
    beta_hat, alpha_hat = res.x[:p1], float(res.x[p1])
    mu_hat = np.exp(ds.X @ beta_hat)

    diagnostics = {
        "alpha": alpha_hat,
        "alpha_feasibility_bound": -1.0 / y_max,
        "min_1_plus_alpha_y": float(1.0 + alpha_hat * y_max),
        "min_1_plus_alpha_mu": float(np.min(1.0 + alpha_hat * mu_hat)),
        "optimizer_message": str(res.message),
    }
    if alpha_hat < 0:
        # Near the boundary -1/y_max the likelihood is unbounded and the
        # truncated pmf mass departs from one: no valid MLE.
        deficiency = _rgpr_mass_deficiency(mu_hat, alpha_hat)
        diagnostics["pmf_mass_deficiency"] = deficiency
        if 1.0 + alpha_hat * y_max < 0.05 or deficiency > 1e-3:
            raise NonConvergenceError(
                "RGPR did not converge: alpha driven to the feasibility "
                "boundary 1 + alpha*y > 0 (under-dispersed data)",
                diagnostics,
            )
    grad_norm = float(np.max(np.abs(res.jac)))
    if not (res.success or grad_norm < 1e-6 * max(1.0, abs(res.fun))):
        raise NonConvergenceError(
            f"RGPR optimizer did not converge (|grad|={grad_norm:.3g})", diagnostics
        )

    hess = _numerical_hessian(lambda z: -neg(z)[0], res.x)
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError("RGPR observed information singular", diagnostics) from exc
    return BaselineFit(
        "rgpr",
        beta_hat,
        cov,
        -float(res.fun),
        converged=True,
        extra=alpha_hat,
        extra_se=float(np.sqrt(cov[p1, p1])),
        n_obs=ds.n_obs,
    )


def _numerical_hessian(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    n = len(x)
    H = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            fpp = f(x + ei + ej)
            fpm = f(x + ei - ej)
            fmp = f(x - ei + ej)
            fmm = f(x - ei - ej)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    return H


@dataclass
class ComparisonRow:
    model: str
    status: str              # "ok" or "failed: <reason>"
    loglik: float | None = None
    k: int | None = None
    aic: float | None = None
    aicc: float | None = None
    mse: float | None = None
    note: str | None = None


@dataclass
class ModelComparison:
    rows: list[ComparisonRow] = field(default_factory=list)

    def row(self, model: str) -> ComparisonRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


def information_criteria(loglik: float, k: int, n: int):
    """(AIC, AICc); AICc = AIC + 2k(k+1)/(n-k-1), +inf at n = k+1."""
    aic = -2.0 * loglik + 2.0 * k
    if n - k - 1 <= 0:
        return aic, np.inf
    return aic, aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)


def compare_models(ds: Dataset, fits: dict, fitted: dict) -> ModelComparison:
    """Assemble per-model loglik/AIC/AICc/MSE rows.

    fits maps model name -> fit object (BaselineFit or FitResult) or an
    exception recorded for a failed model; fitted maps model name -> the
    fitted-value vector used for MSE.
    """
    y = ds.y.astype(float)
    comp = ModelComparison()
    for name, f in fits.items():
        if isinstance(f, Exception):
            comp.rows.append(ComparisonRow(model=name, status=f"failed: {f}"))
            continue
        k = f.n_params
        aic, aicc = information_criteria(f.loglik, k, ds.n_obs)
        yhat = fitted.get(name)
        mse = None if yhat is None else float(np.mean((y - np.asarray(yhat)) ** 2))
        note = "AICc infinite: n = k+1" if np.isinf(aicc) else None
        comp.rows.append(
            ComparisonRow(
                model=name, status="ok", loglik=f.loglik, k=k,
                aic=aic, aicc=aicc, mse=mse, note=note,
            )
        )
    return comp
