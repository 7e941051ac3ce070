"""Comparison regressions, model-comparison statistics and the one Newton loop.

newton maximizes a stack of logliks by damped Newton steps, and every
fit in the package is a model of it: COM-Poisson (comreg.fit) on its
expected information, the Poisson and logistic GLMs on their canonical
links, and negative binomial over (beta, log r) and restricted
generalized Poisson (RGPR) over (beta, alpha) on their analytic score
and observed information, whose inverse at the optimum is the
covariance.  A boundary is read from the score: negative binomial is
the Poisson limit when log r reaches log NEGBIN_BOUNDARY_R with a
non-negative score in log r; RGPR fails when alpha runs into the
feasibility bound 1 + alpha*y_max > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, expit, gammaln, polygamma

from .data import Dataset, linear_predictor

NEGBIN_BOUNDARY_R = 1e6   # log r is capped here; a fit that reaches it is the Poisson limit
NEGBIN_LIMIT_R = 1e8      # the r reported for that limit
NEGBIN_R0 = 10.0          # start of the negative binomial fit
NEWTON_MAX_ITER = 500     # newton steps per baseline fit
NEWTON_DECREMENT = 1e-12  # newton stops when g' step <= this * max(1, |loglik|)
NEWTON_RTOL = 1e-8        # or when a step moves no coordinate by more than this * max(1, max|z|)
RUNOFF_STEP = 0.5         # a GLM fit whose Newton step at the end moves some x'beta this far


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


def newton(model, z, at, lower, upper, max_iter):
    """Maximize the loglik of every replicate in a stack by damped Newton steps.

    model(rows, z) returns, for the replicates rows at the points z (one
    row each), their loglik (m,), score (m, k) and information (m, k, k),
    the information being minus the Hessian or its expectation; a loglik
    that is not finite marks the point unusable.  Row b of z is replicate
    b's start and at is model's output there; a replicate whose start is
    unusable does not move.  Each step solves I step = g, or |I| step = g
    (|I| has the absolute values of I's eigenvalues) where the Newton
    step is not an ascent direction, holds a coordinate at lower or upper
    whose score points outward (lower = upper fixes it), and is halved,
    each trial clipped to [lower, upper], until the loglik does not fall.
    A replicate converges when a step, full or halved, moves no
    coordinate by more than NEWTON_RTOL * max(1, max|z|), or when its
    Newton decrement g' step is at most NEWTON_DECREMENT * max(1,
    |loglik|), which also stops a loglik that flattens out without an
    optimum; a pending step beyond that tolerance is then still taken
    where the loglik does not fall (not counted in iterations).  Both
    rules are relative, so counts of any size converge.  It stops
    unconverged after max_iter steps, when its information is unusable,
    or when every trial of a step is unusable.  Returns (z, (loglik,
    score, info) at z, iterations, stop): stop[b] is "converged" or why
    replicate b stopped.
    """
    z = np.array(z, dtype=float)
    loglik, score, info = (np.array(a, dtype=float) for a in at)
    bounded = np.isfinite(lower).any() or np.isfinite(upper).any()
    iterations = np.zeros(len(z), dtype=int)
    stop = np.full(len(z), "unusable start point", dtype=object)
    parts = []

    def accept(rows, trial, at, small, last):
        z[rows] = trial
        loglik[rows], score[rows], info[rows] = at
        iterations[rows] += ~last
        done = small | last
        if done.any():      # a step that small, or the last one: converged
            stop[rows[done]] = "converged"
            rows = rows[~done]
        parts.append(rows)

    todo = np.flatnonzero(np.isfinite(loglik))
    with np.errstate(all="ignore"):    # unusable points are rejected, not reported
        while todo.size:
            g, system, zi, base = score[todo], info[todo], z[todo], loglik[todo]
            if bounded:
                held = ((zi <= lower) & (g <= 0.0)) | ((zi >= upper) & (g >= 0.0))
                if held.any():
                    g[held] = 0.0
                    system[held[:, :, None] | held[:, None, :]] = 0.0
                    rows, cols = np.nonzero(held)
                    system[rows, cols, cols] = 1.0
            try:
                step = np.linalg.solve(system, g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.full_like(g, np.nan)
            decrement = (g * step).sum(axis=1)
            if not (decrement > 0.0).all():
                uphill = ~(decrement > 0.0)
                w, V = np.linalg.eigh(system[uphill])
                w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(axis=1, keepdims=True))
                step[uphill] = (V @ ((g[uphill, None, :] @ V)[:, 0] / w)[..., None])[..., 0]
                decrement[uphill] = (g[uphill] * step[uphill]).sum(axis=1)
            # a replicate whose decrement fired stops after its pending step
            last = decrement <= NEWTON_DECREMENT * np.maximum(1.0, np.abs(base))
            go = last | ((decrement < np.inf) & (iterations[todo] < max_iter))
            if not go.all():
                stop[todo[~go]] = np.where(decrement[~go] < np.inf,
                                           f"no convergence in {max_iter} iterations",
                                           "information not usable")
                todo, step, zi, base, last = todo[go], step[go], zi[go], base[go], last[go]

            idx, usable, halved = todo, np.zeros(len(todo), dtype=bool), False
            tol = NEWTON_RTOL * np.maximum(1.0, np.abs(zi).max(axis=1))
            while idx.size:
                trial = zi + step
                if bounded:
                    trial = np.clip(trial, lower, upper)
                small = np.abs(trial - zi).max(axis=1) <= tol
                end = small if halved else small & last
                if end.any():
                    # halved that far without a rise (rounding), or a last step that small
                    stop[idx[end]] = np.where((usable | last)[end], "converged",
                                              "no usable trial point")
                    keep = ~end
                    idx, zi, base, step, tol, usable, trial, small, last = (
                        a[keep] for a in (idx, zi, base, step, tol, usable, trial, small, last))
                    if not idx.size:
                        break
                new = model(idx, trial)
                ok = new[0] >= base
                if ok.all():
                    accept(idx, trial, new, small, last)
                    break
                accept(idx[ok], trial[ok], (a[ok] for a in new), small[ok], last[ok])
                stop[idx[last & ~ok]] = "converged"
                keep = ~(ok | last)
                usable = usable[keep] | np.isfinite(new[0][keep])
                idx, zi, base, step, tol, last = (
                    idx[keep], zi[keep], base[keep], step[keep] / 2.0, tol[keep], last[keep])
                halved = True
            todo, parts = (np.concatenate(parts) if parts else todo[:0]), []
    return z, (loglik, score, info), iterations, stop.astype(str).tolist()


def _fit_glm(X: np.ndarray, Y: np.ndarray, beta0, mean_fn, var_fn, cumulant_fn, log_c):
    """Canonical-link GLM fits of responses Y (one per row) sharing X, by
    newton from beta0: row b's loglik is sum(y eta - cumulant_fn(eta, mu))
    + log_c[b], with mu = mean_fn(eta) and var Y = var_fn(mu).  The
    products with X run one row at a time (a stack of matrix products,
    never one across rows), so a row's fit does not depend on the others.
    Returns (beta, H, loglik, failure) per row: H is X'WX, and failure
    None or the NonConvergenceError that ended it (see ran_off).
    """
    def model(rows, z):
        eta = (z[:, None, :] @ X.T)[:, 0]
        mu = mean_fn(eta)
        y = Y[rows]
        return (np.sum(y * eta - cumulant_fn(eta, mu), axis=-1) + log_c[rows],
                ((y - mu)[:, None, :] @ X)[:, 0], (X.T * var_fn(mu)[:, None, :]) @ X)

    beta, (loglik, g, H), _, stop = newton(model, beta0, model(np.arange(len(Y)), beta0),
                                           -np.inf, np.inf, NEWTON_MAX_ITER)
    failure = [None if r == "converged" else NonConvergenceError(
        f"Newton iterations did not converge ({r})") for r in ran_off(X, stop, H, g)]
    return beta, H, loglik, failure


def ran_off(X: np.ndarray, stop, H: np.ndarray, g: np.ndarray):
    """stop, with a converged fit marked as run off (no finite estimate) where its
    next Newton step in beta (H step = g) moves some x'beta by more than RUNOFF_STEP."""
    reasons = np.array(stop, dtype=object)
    done = np.flatnonzero(reasons == "converged")
    try:
        step = np.linalg.solve(H[done], g[done, :, None])[..., 0]
    except np.linalg.LinAlgError:   # weights underflowed: only a fit that ran off gets there
        step = np.full((len(done), X.shape[1]), np.inf)
    reasons[done[np.abs(step @ X.T).max(axis=1) > RUNOFF_STEP]] = (
        "ran off towards an estimate at infinity")
    return reasons


def poisson_newton(X: np.ndarray, Y: np.ndarray):
    """Poisson GLM fits of responses Y (one per row) sharing X, as one
    stacked Newton loop: (beta, H, loglik, failure) per row, as in
    _fit_glm, each started from the log of its mean count."""
    beta0 = np.zeros((len(Y), X.shape[1]))
    beta0[:, 0] = np.log(np.maximum(Y.mean(axis=1), 0.1))
    return _fit_glm(X, Y, beta0, np.exp, lambda mu: mu, lambda eta, mu: mu,
                    -gammaln(Y + 1.0).sum(axis=1))


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
    beta, H, ll, (failure,) = _fit_glm(ds.X, y[None], np.zeros((1, ds.n_cols)), expit,
                                       lambda mu: mu * (1.0 - mu),
                                       lambda eta, mu: np.logaddexp(0.0, eta), np.zeros(1))
    if failure is not None:
        raise SeparationError(f"logistic fit failed: {failure}") from failure
    return BaselineFit("logistic", beta[0], np.linalg.inv(H[0]), float(ll[0]), True,
                       n_obs=ds.n_obs)


def _one_response(derivatives, X: np.ndarray, y: np.ndarray, z0: np.ndarray, lower, upper):
    """newton on one response whose derivatives(X, y, z) give its loglik,
    score and information at z: (z, (loglik, score, info), stop) at the end."""
    def model(rows, z):
        return tuple(np.asarray(a)[None] for a in derivatives(X, y, z[0]))

    (z,), ((ll,), (g,), (info,)), _, (stop,) = newton(
        model, z0[None], model(None, z0[None]), lower, upper, NEWTON_MAX_ITER)
    return z, (float(ll), g, info), stop


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
        return -np.inf, np.full(p1 + 1, np.nan), np.full((p1 + 1, p1 + 1), np.nan)
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
    upper = np.append(np.full(p1, np.inf), np.log(NEGBIN_BOUNDARY_R))
    z, (ll, g, info), stop = _one_response(_negbin_derivatives, ds.X, y,
                                           np.append(pois.beta, np.log(NEGBIN_R0)),
                                           -np.inf, upper)

    if z[p1] >= upper[p1] and g[p1] >= 0:
        # Poisson limit: report the Poisson solution, flagged.
        cov = np.full((p1 + 1, p1 + 1), np.nan)
        cov[:p1, :p1] = pois.cov
        mu = np.exp(linear_predictor(ds, pois.beta))
        return BaselineFit("negbin", pois.beta.copy(), cov, negbin_loglik(y, mu, NEGBIN_LIMIT_R),
                           True, extra=NEGBIN_LIMIT_R, boundary=True, n_obs=ds.n_obs)
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
        return -np.inf, np.full(p1 + 1, np.nan), np.full((p1 + 1, p1 + 1), np.nan)
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
    z, (ll, _, info), stop = _one_response(_rgpr_derivatives, ds.X, y,
                                           np.append(pois.beta, 0.0), -np.inf, np.inf)
    beta_hat, alpha_hat = z[:p1], float(z[p1])
    mu_hat = np.exp(linear_predictor(ds, beta_hat))

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
