"""Comparison regressions and model-comparison statistics.

Poisson and logistic GLMs are fit by Newton iterations on their
canonical links.  Negative binomial over (beta, log r) and restricted
generalized Poisson (RGPR) over (beta, alpha) share one damped Newton
loop on their analytic score and observed information, whose inverse
at the optimum is the covariance.  A boundary is read from the score:
negative binomial is the Poisson limit when log r reaches
log NEGBIN_BOUNDARY_R with a non-negative score in log r; RGPR fails
when alpha runs into the feasibility bound 1 + alpha*y_max > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, expit, gammaln, polygamma

from .data import Dataset, linear_predictor

NEGBIN_BOUNDARY_R = 1e6   # log r is capped here; a fit that reaches it is the Poisson limit
NEGBIN_LIMIT_R = 1e8      # the r reported for that limit
NEGBIN_R0 = 10.0          # start of the negative binomial fit
NEWTON_MAX_ITER = 500     # iterations of the negative binomial and RGPR Newton loop
NEWTON_RTOL = 1e-8        # relative step stop rule of _newton_glm and _newton


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
                max_iter=100):
    """Canonical-link Newton iterations for responses Y (one per row) sharing X.

    Shared by Poisson and logistic fits and by stacked warm starts.  The
    products with X run one row at a time (a stack of matrix products,
    never one across rows), so a row's result does not depend on the
    other rows.  Each row steps from its row of beta0 until a step moves
    no coefficient by more than NEWTON_RTOL * max(1, max|beta|).  The
    rule is relative, so counts of any size converge; convergence is
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
        small = np.abs(step).max(axis=1) <= NEWTON_RTOL * np.maximum(
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


def _newton(model, z: np.ndarray, upper=np.inf):
    """Maximize a loglik by damped Newton steps from z.

    model(z) returns (loglik, score, information), the information being
    minus the Hessian, or a loglik of -inf where z is infeasible.  Each
    step solves |I| step = score, where |I| has the absolute values of
    I's eigenvalues: the Newton step where I is positive definite, an
    ascent direction where it is not.  z + step is capped at upper, and
    the step is halved until the loglik does not fall; a trial that is
    infeasible or not finite is rejected.  The loop stops when the step
    would move no coordinate by more than NEWTON_RTOL * max(1, max|z|),
    the relative rule of _newton_glm: a Newton step that small, or one
    halved that small without raising the loglik, which near the
    optimum is the loglik's rounding.  Returns (z, (loglik, score,
    info) at z, stop): stop is "converged" or why the loop gave up.
    """
    at = model(z)
    for _ in range(NEWTON_MAX_ITER):
        w, V = np.linalg.eigh(at[2])
        w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max())    # no division by 0
        step = np.minimum(z + V @ (V.T @ at[1] / w), upper) - z
        tol = NEWTON_RTOL * max(1.0, np.abs(z).max())
        while np.abs(step).max() > tol:
            with np.errstate(all="ignore"):
                trial = model(z + step)
            if trial[0] >= at[0]:
                break
            step = step / 2.0
        else:
            return z, at, "converged"
        z, at = z + step, trial
    return z, at, f"no convergence in {NEWTON_MAX_ITER} iterations"


def negbin_loglik(y: np.ndarray, mu: np.ndarray, r: float) -> float:
    return float(
        np.sum(
            gammaln(r + y) - gammaln(r) - gammaln(y + 1.0)
            + r * (np.log(r) - np.log(r + mu))
            + y * (np.log(mu) - np.log(r + mu))
        )
    )


def _negbin_derivatives(X: np.ndarray, y: np.ndarray, z: np.ndarray):
    """NB loglik, score and observed information at z = (beta..., log r)."""
    p1 = X.shape[1]
    r = float(np.exp(z[p1]))
    mu = np.exp(X @ z[:p1])
    ll = negbin_loglik(y, mu, r)
    if not np.isfinite(ll):
        return -np.inf, None, None
    rm = r + mu
    s_r = digamma(r + y) - digamma(r) + np.log(r) - np.log(rm) + 1.0 - (r + y) / rm
    ds_r = polygamma(1, r + y) - polygamma(1, r) + 1.0 / r - 1.0 / rm - (mu - y) / rm**2
    info = np.empty((p1 + 1, p1 + 1))
    info[:p1, :p1] = (X.T * (r * mu * (r + y) / rm**2)) @ X
    info[:p1, p1] = info[p1, :p1] = X.T @ (r * mu * (mu - y) / rm**2)
    info[p1, p1] = -np.sum(r * s_r + r * r * ds_r)
    return ll, np.append(X.T @ (r * (y - mu) / rm), r * s_r.sum()), info


def fit_negbin(ds: Dataset) -> BaselineFit:
    """Negative binomial (gamma-Poisson mixture) MLE over (beta, log r).

    Newton from the Poisson fit and r = NEGBIN_R0.  As r -> infinity the
    model collapses onto Poisson: on equi- or under-dispersed data the
    score in log r stays non-negative up to r = NEGBIN_BOUNDARY_R, and
    the fit is reported as a boundary-flagged Poisson-equivalent fit.
    """
    pois = fit_poisson(ds)
    p1 = ds.n_cols
    y = ds.y.astype(float)
    upper = np.full(p1 + 1, np.inf)
    upper[p1] = np.log(NEGBIN_BOUNDARY_R)
    z, (ll, g, info), stop = _newton(lambda z: _negbin_derivatives(ds.X, y, z),
                                     np.append(pois.beta, np.log(NEGBIN_R0)), upper)

    if z[p1] >= upper[p1] and g[p1] >= 0:
        # Poisson limit: report the Poisson solution, flagged.
        cov = np.full((p1 + 1, p1 + 1), np.nan)
        cov[:p1, :p1] = pois.cov
        return BaselineFit("negbin", pois.beta.copy(), cov,
                           negbin_loglik(y, np.exp(ds.X @ pois.beta), NEGBIN_LIMIT_R), True,
                           extra=NEGBIN_LIMIT_R, boundary=True, n_obs=ds.n_obs)
    if stop != "converged":
        raise NonConvergenceError(f"negative binomial fit did not converge ({stop})")
    r_hat = float(np.exp(z[p1]))
    J = np.eye(p1 + 1)
    J[p1, p1] = r_hat      # delta method log r -> r
    cov = J @ np.linalg.inv(info) @ J.T
    return BaselineFit("negbin", z[:p1], cov, ll, True, extra=r_hat,
                       extra_se=float(np.sqrt(cov[p1, p1])), n_obs=ds.n_obs)


def rgpr_loglik(y: np.ndarray, mu: np.ndarray, alpha: float) -> float:
    """Restricted generalized Poisson log-likelihood.

    Only defined where 1 + alpha*mu_i > 0 and 1 + alpha*y_i > 0; -inf is
    returned outside so ascent steps into infeasible territory are
    rejected by the step halving.
    """
    if np.any(1.0 + alpha * mu <= 1e-12) or np.any(1.0 + alpha * y <= 1e-12):
        return -np.inf
    return float(np.sum(_rgpr_logpmf(y, mu, alpha)))


def _rgpr_logpmf(y, mu, alpha: float):
    """Elementwise RGPR log pmf, where 1 + alpha*mu > 0 and 1 + alpha*y > 0."""
    return (y * (np.log(mu) - np.log1p(alpha * mu)) + (y - 1.0) * np.log1p(alpha * y)
            - gammaln(y + 1.0) - mu * (1.0 + alpha * y) / (1.0 + alpha * mu))


def _rgpr_derivatives(X: np.ndarray, y: np.ndarray, z: np.ndarray):
    """RGPR loglik, score and observed information at z = (beta..., alpha)."""
    p1 = X.shape[1]
    alpha = float(z[p1])
    mu = np.exp(X @ z[:p1])
    ll = rgpr_loglik(y, mu, alpha)
    if not np.isfinite(ll):
        return -np.inf, None, None
    one_am = 1.0 + alpha * mu
    one_ay = 1.0 + alpha * y
    c = mu * (y - mu) / one_am**3
    g_alpha = np.sum(-y * mu / one_am + y * (y - 1.0) / one_ay - mu * (y - mu) / one_am**2)
    info = np.empty((p1 + 1, p1 + 1))
    info[:p1, :p1] = (X.T * (mu / one_am**2 + 2.0 * alpha * c)) @ X
    info[:p1, p1] = info[p1, :p1] = X.T @ (2.0 * c)
    info[p1, p1] = np.sum(y * y * (y - 1.0) / one_ay**2 - y * mu**2 / one_am**2 - 2.0 * mu * c)
    # d loglik / d eta_i = (y_i - mu_i) / (1 + alpha mu_i)^2
    return ll, np.append(X.T @ ((y - mu) / one_am**2), g_alpha), info


def _rgpr_mass_deficiency(mu: np.ndarray, alpha: float):
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
        worst = max(worst, abs(1.0 - float(np.exp(_rgpr_logpmf(ys, m, alpha)).sum())))
    return worst


def fit_rgpr(ds: Dataset) -> BaselineFit:
    """Restricted generalized Poisson MLE over (beta, alpha).

    Newton from the Poisson fit and alpha = 0.  Raises
    NonConvergenceError when the likelihood runs into the feasibility
    boundary 1 + alpha*y_max = 0 (where it is unbounded and the
    truncated pmf no longer sums to one) or the Newton loop fails.
    """
    pois = fit_poisson(ds)
    p1 = ds.n_cols
    y = ds.y.astype(float)
    y_max = float(y.max())
    z, (ll, _, info), stop = _newton(lambda z: _rgpr_derivatives(ds.X, y, z),
                                     np.append(pois.beta, 0.0))
    beta_hat, alpha_hat = z[:p1], float(z[p1])
    mu_hat = np.exp(ds.X @ beta_hat)

    diagnostics = {
        "alpha": alpha_hat,
        "alpha_feasibility_bound": -1.0 / y_max,
        "min_1_plus_alpha_y": float(1.0 + alpha_hat * y_max),
        "min_1_plus_alpha_mu": float(np.min(1.0 + alpha_hat * mu_hat)),
        "optimizer_message": stop,
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
    if stop != "converged":
        raise NonConvergenceError(f"RGPR fit did not converge ({stop})", diagnostics)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError("RGPR observed information singular", diagnostics) from exc
    return BaselineFit("rgpr", beta_hat, cov, ll, True, extra=alpha_hat,
                       extra_se=float(np.sqrt(cov[p1, p1])), n_obs=ds.n_obs)


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
