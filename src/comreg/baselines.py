"""Comparison regressions, model-comparison statistics, the one Newton loop
and the one fit result.

newton maximizes a stack of logliks by damped Newton steps, and every
fit in the package is a model of it: COM-Poisson (comreg.fit) on its
expected information, the Poisson and logistic GLMs on their canonical
links, and negative binomial over (beta, log r) and restricted
generalized Poisson (RGPR) over (beta, alpha) on their analytic score
and observed information, both from one_step_start's beta (the
bootstrap's start) and refused by ran_off as the GLMs are.  Each returns
a FitResult whose covariance is its information at the optimum inverted
by _invert_information.  A boundary is read from the score: negative
binomial is the Poisson limit when log r reaches log NEGBIN_BOUNDARY_R
with a non-negative score in log r; RGPR fails when alpha runs into the
feasibility bound 1 + alpha*y_max > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._special import expit, log_factorial
from .data import Dataset, linear_predictor

NEGBIN_BOUNDARY_R = 1e6   # log r is capped here; a fit that reaches it is the Poisson limit
NEGBIN_LIMIT_R = 1e8      # the r reported for that limit
NEGBIN_R0 = 10.0          # start of the negative binomial fit
NEGBIN_MAX_COUNT = 1 << 20  # its loglik sums over k < y: larger counts are refused
NEWTON_MAX_ITER = 500     # newton steps per baseline fit
NEWTON_DECREMENT = 1e-12  # newton stops when g' step <= this * max(1, |loglik|)
NEWTON_RTOL = 1e-8        # or when a step moves no coordinate by more than this * max(1, max|z|)
RUNOFF_STEP = 0.5         # a GLM fit whose Newton step at the end moves some x'beta this far


class FitError(RuntimeError):
    """Estimation failed in a way that leaves no usable result."""


class SingularInformationError(FitError):
    """The information matrix is not invertible to tolerance."""


class BaselineError(FitError):
    """A baseline fit failed in a way that leaves no usable result."""


class SeparationError(BaselineError):
    """Complete separation in logistic regression."""


class NonConvergenceError(BaselineError):
    """The optimizer did not converge; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class FitResult:
    """One fitted model: coefficients, the parameter beyond them, covariance."""

    beta: np.ndarray
    cov: np.ndarray          # order (beta..., extra); a fixed nu's row and column are 0
    loglik: float
    n_obs: int
    n_params: int
    converged: bool
    iterations: int          # newton steps
    boundary: bool = False   # extra at a clamp, a limit or unidentified: its SE unreliable
    extra: float | None = None       # nu (COM-Poisson), r (negbin) or alpha (rgpr)
    extra_name: str | None = None    # "nu", "r", "alpha", or None for a GLM

    @property
    def nu(self) -> float:
        """The COM-Poisson dispersion; no other model has one."""
        if self.extra_name != "nu":
            raise AttributeError(f"a fit whose extra parameter is {self.extra_name} has no nu")
        return self.extra

    @property
    def scaled_beta(self) -> np.ndarray:
        """beta / nu, the crude-comparison scale against Poisson-style fits."""
        return self.beta / self.nu

    @property
    def se(self) -> np.ndarray:
        """Standard errors for (beta..., extra)."""
        return np.sqrt(np.diag(self.cov))


def _invert_information(info: np.ndarray):
    """Invert each matrix of the stack info (m, k, k) with one condition-number
    pass and one inversion.  Returns (cov, errors): cov holds NaN where
    errors[b] is the SingularInformationError that refused matrix b (not
    finite, condition number above 1e14, or an inverse with a
    non-positive diagonal), and errors[b] is None elsewhere.  The condition
    number of a symmetric information is max |eigenvalue| / min |eigenvalue|."""
    cond = np.full(len(info), np.nan)
    finite = np.isfinite(info).all(axis=(1, 2))
    w = np.abs(np.linalg.eigvalsh(info[finite]))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond[finite] = np.fmin(w.max(axis=1) / w.min(axis=1), np.inf)    # 0/0 is inf
    ok = cond <= 1e14
    cov = np.full_like(info, np.nan)
    cov[ok] = np.linalg.inv(info[ok])
    errors = [None if usable else SingularInformationError(
        f"information matrix not invertible (condition number {c:.3g})")
        for usable, c in zip(ok.tolist(), cond.tolist())]
    for b in np.flatnonzero(ok & ~(np.diagonal(cov, axis1=1, axis2=2) > 0).all(axis=1)):
        cov[b] = np.nan
        errors[b] = SingularInformationError(
            "information matrix not invertible (inverse has a non-positive diagonal)")
    return cov, errors


def _covariance(info: np.ndarray) -> np.ndarray:
    """The inverse of one information matrix, or the error _invert_information refuses it with."""
    (cov,), (error,) = _invert_information(info[None])
    if error is not None:
        raise error
    return cov


def _solve_each(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A[i] x[i] = b[i] for each matrix of the stack A (m, k, k); x[i]
    is NaN where A[i] is singular, and the others are solved as in a stack
    without it."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def newton(model, z, at, lower, upper, max_iter):
    """Maximize the loglik of every replicate in a stack by damped Newton steps.

    model(rows, z) returns, for the replicates rows at the points z (one row
    each), their loglik (m,), score (m, k) and information (m, k, k), the
    information being minus the Hessian or its expectation, as new arrays that
    newton keeps and writes into; a loglik that is not finite marks the point
    unusable.  Row b of z is replicate b's start and at is model's output
    there; a replicate whose start is unusable does not move.  Each step
    solves I step = g, or |I| step = g (|I| has the absolute values of I's
    eigenvalues) where the Newton step is not an ascent direction or I is
    singular, holds a coordinate at lower or upper whose score points outward
    (lower = upper fixes it), and is halved, each trial clipped to [lower,
    upper], until the loglik does not fall.
    A replicate converges when a step, full or halved, moves no
    coordinate by more than NEWTON_RTOL * max(1, max|z|), or when its
    Newton decrement g' step is at most NEWTON_DECREMENT * max(1,
    |loglik|), which also stops a loglik that flattens out without an
    optimum; a pending step beyond that tolerance is then still taken
    where the loglik does not fall (not counted in iterations).  Both
    rules are relative, so counts of any size converge.  It stops
    unconverged after max_iter steps, when its information is unusable,
    or when every trial of a step is unusable.  Returns (z, (loglik,
    score, info) at z, iterations, stop): stop is an object array whose
    entry b is "converged" or why replicate b stopped.
    """
    z = np.array(z, dtype=float)
    loglik, score, info = (np.array(a, dtype=float) for a in at)
    bounded = (np.isfinite(lower) | np.isfinite(upper)).any()
    iterations = np.zeros(len(z), dtype=int)
    # why each replicate stopped, as an index into reasons: 0 while it is still stepping
    reasons = np.array(["", "converged", "no usable trial point", "information not usable",
                        f"no convergence in {max_iter} iterations", "unusable start point"], object)
    why = np.where(np.isfinite(loglik), 0, 5)
    # the stack of replicates still stepping (rows idx), each after steps steps
    idx = (why == 0).nonzero()[0]
    zs, lls, gs, Is = ((z, loglik, score, info) if len(idx) == len(z) else
                       (z[idx], loglik[idx], score[idx], info[idx]))
    steps = 0

    def settle(mask, reason, taken=0):    # stop the stack's rows pos[mask] this round
        nonlocal pos, gone
        if gone is None:    # the round's first stop or rejection: rows by position from here on
            pos, gone = np.arange(len(idx)), np.zeros(len(idx), dtype=bool)
        gone[pos[mask]] = True
        why[idx[pos[mask]]], iterations[idx[pos[mask]]] = reason, steps + taken

    with np.errstate(all="ignore"):    # unusable points are rejected, not reported
        while idx.size:
            g, system = gs, Is
            if bounded and not ((lower < zs) & (zs < upper)).all():
                held = ((zs <= lower) & (g <= 0.0)) | ((zs >= upper) & (g >= 0.0))
                g = np.where(held, 0.0, g)
                system = np.where(held[:, :, None] | held[:, None, :], 0.0, system)
                rows, cols = np.nonzero(held)
                system[rows, cols, cols] = 1.0
            step = _solve_each(system, g)
            decrement = (g * step).sum(axis=1)
            if not (decrement > 0.0).all():
                uphill = ~(decrement > 0.0)
                w, V = np.linalg.eigh(system[uphill])
                w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(axis=1, keepdims=True))
                step[uphill] = (V @ ((g[uphill, None, :] @ V)[:, 0] / w)[..., None])[..., 0]
                decrement[uphill] = (g[uphill] * step[uphill]).sum(axis=1)
            # a replicate whose decrement fired stops after its pending step
            last = decrement <= NEWTON_DECREMENT * np.maximum(1.0, np.abs(lls))
            # pos: the stack's rows still trying a step, all of them (no copies)
            # until one stops or is rejected; gone: the rows that stop this round
            pos, gone = slice(None), None
            if steps >= max_iter or not (decrement < np.inf).all():
                go = last | ((decrement < np.inf) & (steps < max_iter))
                settle(~go, np.where(decrement[~go] < np.inf, 4, 3))
                pos = pos[go]
            zi, base, step, last = zs[pos], lls[pos], step[pos], last[pos]
            tol = NEWTON_RTOL * np.abs(zi).max(axis=1, initial=1.0)
            usable, halved = False, False
            while len(zi):
                trial = zi + step
                if bounded:
                    trial = trial.clip(lower, upper)
                small = np.abs(trial - zi).max(axis=1) <= tol
                calm = not (small | last).any()    # no replicate stops at this trial
                if not calm and (end := small if halved else small & last).any():
                    # halved that far without a rise (rounding), or a last step that small
                    settle(end, np.where((usable | last)[end], 1, 2))
                    if end.all():
                        break
                    keep = ~end
                    pos, zi, base, step, tol, trial, small, last = (
                        a[keep] for a in (pos, zi, base, step, tol, trial, small, last))
                    usable = usable[keep] if halved else False
                new = model(idx if gone is None else idx[pos], trial)
                ok = new[0] >= base
                if gone is None and calm and ok.all():
                    zs, (lls, gs, Is) = trial, new    # the common round: the model's arrays
                    break
                # the last step, accepted or not, or an accepted step that small: converged
                done = last | (ok & small)
                settle(done, 1, (ok & ~last)[done])
                zs[pos[ok]] = trial[ok]
                lls[pos[ok]], gs[pos[ok]], Is[pos[ok]] = (a[ok] for a in new)
                keep = ~(ok | last)
                if not keep.any():     # every trial accepted, or the last one
                    break
                usable = (usable | np.isfinite(new[0]))[keep]
                pos, zi, base, step, tol, last = (
                    pos[keep], zi[keep], base[keep], step[keep] / 2.0, tol[keep], last[keep])
                halved = True
            steps += 1
            if gone is None:
                continue
            if gone.all():    # the whole stack stops
                z[idx], loglik[idx], score[idx], info[idx] = zs, lls, gs, Is
                break
            out, keep = idx[gone], ~gone
            z[out], loglik[out], score[out], info[out] = (a[gone] for a in (zs, lls, gs, Is))
            idx, zs, lls, gs, Is = (a[keep] for a in (idx, zs, lls, gs, Is))
    return z, (loglik, score, info), iterations, reasons[why]


def _fit_glm(X: np.ndarray, Y: np.ndarray, beta0, mean_fn, var_fn, cumulant_fn, log_c):
    """Canonical-link GLM fits of responses Y (one per row) sharing X, by
    newton from beta0: row b's loglik is sum(y eta - cumulant_fn(eta, mu))
    + log_c[b], with mu = mean_fn(eta) and var Y = var_fn(mu).  The
    products with X run one row at a time (a stack of matrix products,
    never one across rows), so a row's fit does not depend on the others.
    Returns (beta, H, loglik, iterations, failure) per row: H is X'WX,
    and failure None or the NonConvergenceError that ended it (see ran_off).
    """
    def model(rows, z):
        eta = (z[:, None, :] @ X.T)[:, 0]
        mu = mean_fn(eta)
        y = Y[rows]
        return (np.sum(y * eta - cumulant_fn(eta, mu), axis=-1) + log_c[rows],
                ((y - mu)[:, None, :] @ X)[:, 0], (X.T * var_fn(mu)[:, None, :]) @ X)

    beta, (loglik, g, H), iterations, stop = newton(
        model, beta0, model(np.arange(len(Y)), beta0), -np.inf, np.inf, NEWTON_MAX_ITER)
    failure = [None if r == "converged" else NonConvergenceError(
        f"Newton iterations did not converge ({r})") for r in ran_off(X, stop, H, g)]
    return beta, H, loglik, iterations, failure


def ran_off(X: np.ndarray, stop: np.ndarray, H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """newton's stop array, with a converged fit marked in place as run off (no
    finite estimate) where its next Newton step in beta (H step = g) moves
    some x'beta by more than RUNOFF_STEP, or where its H is singular (its
    weights underflowed: only a fit that ran off gets there)."""
    done = np.flatnonzero(stop == "converged")
    step = _solve_each(H[done], g[done])
    stop[done[~(np.abs(step @ X.T).max(axis=1) <= RUNOFF_STEP)]] = (
        "ran off towards an estimate at infinity")
    return stop


def one_step_start(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Poisson-scale start beta of each response Y[b] (one per row) on X: one Poisson
    scoring step from the least-squares fit of log(Y[b] + 1/2), row by row."""
    beta0 = (np.log(Y + 0.5)[:, None, :] @ np.linalg.pinv(X).T)[:, 0]
    with np.errstate(all="ignore"):
        mu = np.exp((beta0[:, None, :] @ X.T)[:, 0])
        return beta0 + _solve_each((X.T * mu[:, None, :]) @ X, ((Y - mu)[:, None, :] @ X)[:, 0])


def poisson_newton(X: np.ndarray, Y: np.ndarray):
    """Poisson GLM fits of responses Y (one per row) sharing X, as one
    stacked Newton loop: (beta, H, loglik, iterations, failure) per row, as in
    _fit_glm, each started from the log of its mean count."""
    beta0 = np.zeros((len(Y), X.shape[1]))
    beta0[:, 0] = np.log(np.maximum(Y.mean(axis=1), 0.1))
    return _fit_glm(X, Y, beta0, np.exp, lambda mu: mu, lambda eta, mu: mu,
                    -log_factorial(Y).sum(axis=1))


def fit_poisson(ds: Dataset) -> FitResult:
    """Poisson GLM with log link."""
    beta, H, ll, iterations, (failure,) = poisson_newton(ds.X, ds.y[None])
    if failure is not None:
        raise failure
    return FitResult(beta[0], _covariance(H[0]), float(ll[0]), ds.n_obs, ds.n_cols, True,
                     int(iterations[0]))


def fit_logistic(ds: Dataset) -> FitResult:
    """Logistic regression; response must be 0/1."""
    y = ds.y
    if not np.all((y == 0) | (y == 1)):
        raise BaselineError("logistic regression requires a 0/1 response")
    beta, H, ll, iterations, (failure,) = _fit_glm(
        ds.X, y[None], np.zeros((1, ds.n_cols)), expit, lambda mu: mu * (1.0 - mu),
        lambda eta, mu: np.logaddexp(0.0, eta), np.zeros(1))
    if failure is not None:
        raise SeparationError(f"logistic fit failed: {failure}") from failure
    return FitResult(beta[0], _covariance(H[0]), float(ll[0]), ds.n_obs, ds.n_cols, True,
                     int(iterations[0]))


def _one_response(derivatives, X: np.ndarray, y: np.ndarray, z0: np.ndarray, lower, upper):
    """newton on one response whose derivatives(X, y, z) give its loglik, score and
    information at z: (z, (loglik, score, info), iterations, stop) at the end, with
    ran_off read on the beta block."""
    def model(rows, z):
        return tuple(np.asarray(a)[None] for a in derivatives(X, y, z[0]))

    (z,), (ll, g, info), (iterations,), stop = newton(
        model, z0[None], model(None, z0[None]), lower, upper, NEWTON_MAX_ITER)
    p1 = X.shape[1]
    (stop,) = ran_off(X, stop, info[:, :p1, :p1], g[:, :p1])
    return z, (float(ll[0]), g[0], info[0]), int(iterations), stop


def _negbin_ladder(y: np.ndarray) -> np.ndarray:
    """k = 0, ..., max(y) - 1 in long double: the terms of the sums over k < y_i."""
    top = int(y.max())
    if top > NEGBIN_MAX_COUNT:
        raise BaselineError(f"negative binomial needs counts of at most {NEGBIN_MAX_COUNT}, "
                            f"got {top}")
    return np.arange(top, dtype=np.longdouble)


def _sum_below(terms: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per count y_i, the sum of terms[k] over k < y_i: a prefix sum, rounded once."""
    return np.concatenate([[0.0], np.cumsum(terms)]).astype(float)[y.astype(np.intp)]


def negbin_loglik(y: np.ndarray, mu: np.ndarray, r: float) -> float:
    """Sum of log Gamma(r+y)/(Gamma(r) y!) + r log(r/(r+mu)) + y log(mu/(r+mu)).

    At integer y, log Gamma(r+y) - log Gamma(r) - y log r is the sum of
    log1p(k/r) over k < y, and log(r+mu) = log r + log1p(mu/r), so no
    term cancels as r grows towards the Poisson limit.
    """
    k = _negbin_ladder(y)
    return float(np.sum(_sum_below(np.log1p(k / r), y) - log_factorial(y)
                        - (r + y) * np.log1p(mu / r) + y * np.log(mu)))


def _negbin_derivatives(X: np.ndarray, y: np.ndarray, z: np.ndarray):
    """NB loglik, score and observed information at z = (beta..., log r)."""
    p1 = X.shape[1]
    r = float(np.exp(z[p1]))
    mu = np.exp(X @ z[:p1])
    ll = negbin_loglik(y, mu, r)
    rm = r + mu
    v = r + _negbin_ladder(y)
    # psi(r+y) - psi(r) and psi_1(r+y) - psi_1(r) at integer y, as sums over k < y
    s_r = _sum_below(1.0 / v, y) - np.log1p(mu / r) + 1.0 - (r + y) / rm
    ds_r = -_sum_below(1.0 / (v * v), y) + 1.0 / r - 1.0 / rm - (mu - y) / rm**2
    info = np.empty((p1 + 1, p1 + 1))
    info[:p1, :p1] = (X.T * (r * mu * (r + y) / rm**2)) @ X
    info[:p1, p1] = info[p1, :p1] = X.T @ (r * mu * (mu - y) / rm**2)
    info[p1, p1] = -np.sum(r * s_r + r * r * ds_r)
    return ll, np.append(X.T @ (r * (y - mu) / rm), r * s_r.sum()), info


def fit_negbin(ds: Dataset) -> FitResult:
    """Negative binomial (gamma-Poisson mixture) MLE over (beta, log r).

    Newton from one_step_start's beta and r = NEGBIN_R0; a beta that runs
    off (ran_off) is refused.  As r -> infinity the model collapses onto
    Poisson: on equi- or under-dispersed data the score in log r stays
    non-negative up to r = NEGBIN_BOUNDARY_R, and the fit_poisson fit is
    reported, flagged boundary.
    """
    p1 = ds.n_cols
    y = ds.y.astype(float)
    upper = np.append(np.full(p1, np.inf), np.log(NEGBIN_BOUNDARY_R))
    z, (ll, g, info), iterations, stop = _one_response(
        _negbin_derivatives, ds.X, y, np.append(one_step_start(ds.X, y[None]), np.log(NEGBIN_R0)),
        -np.inf, upper)

    if z[p1] >= upper[p1] and g[p1] >= 0:
        # Poisson limit: report the Poisson solution, flagged.
        pois = fit_poisson(ds)
        cov = np.full((p1 + 1, p1 + 1), np.nan)
        cov[:p1, :p1] = pois.cov
        mu = np.exp(linear_predictor(ds, pois.beta))
        return FitResult(pois.beta, cov, negbin_loglik(y, mu, NEGBIN_LIMIT_R), ds.n_obs,
                         p1 + 1, True, iterations, boundary=True, extra=NEGBIN_LIMIT_R,
                         extra_name="r")
    if stop != "converged":
        raise NonConvergenceError(f"negative binomial fit did not converge ({stop})")
    r_hat = float(np.exp(z[p1]))
    J = np.eye(p1 + 1)
    J[p1, p1] = r_hat      # delta method log r -> r
    return FitResult(z[:p1], J @ _covariance(info) @ J.T, ll, ds.n_obs, p1 + 1, True,
                     iterations, extra=r_hat, extra_name="r")


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
            - log_factorial(y) - mu * (1.0 + alpha * y) / (1.0 + alpha * mu))


def _rgpr_derivatives(X: np.ndarray, y: np.ndarray, z: np.ndarray):
    """RGPR loglik, score and observed information at z = (beta..., alpha)."""
    p1 = X.shape[1]
    alpha = float(z[p1])
    mu = np.exp(X @ z[:p1])
    ll = rgpr_loglik(y, mu, alpha)
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


def fit_rgpr(ds: Dataset) -> FitResult:
    """Restricted generalized Poisson MLE over (beta, alpha).

    Newton from one_step_start's beta and alpha = 0.  Raises
    NonConvergenceError when the likelihood runs into the feasibility
    boundary 1 + alpha*y_max = 0 (where it is unbounded and the
    truncated pmf no longer sums to one), when beta runs off (ran_off) or
    when the Newton loop fails.
    """
    p1 = ds.n_cols
    y = ds.y.astype(float)
    y_max = float(y.max())
    z, (ll, _, info), iterations, stop = _one_response(
        _rgpr_derivatives, ds.X, y, np.append(one_step_start(ds.X, y[None]), 0.0), -np.inf, np.inf)
    beta_hat, alpha_hat = z[:p1], float(z[p1])
    mu_hat = np.exp(linear_predictor(ds, beta_hat))

    diagnostics = {
        "alpha": alpha_hat,
        "alpha_feasibility_bound": -1.0 / y_max if y_max > 0 else -np.inf,
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
    return FitResult(beta_hat, _covariance(info), ll, ds.n_obs, p1 + 1, True, iterations,
                     extra=alpha_hat, extra_name="alpha")


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
    """(AIC, AICc); AICc = AIC + 2k(k+1)/(n-k-1), +inf at n <= k+1."""
    aic = -2.0 * loglik + 2.0 * k
    if n - k - 1 <= 0:
        return aic, np.inf
    return aic, aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)


def compare_models(ds: Dataset, fits: dict, fitted: dict) -> ModelComparison:
    """Assemble per-model loglik/AIC/AICc/MSE rows.

    fits maps model name -> its FitResult or the exception recorded for a
    failed model; fitted maps model name -> the fitted-value vector used
    for MSE.  A row whose AICc is infinite (n <= k+1) carries a note.
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
        note = "AICc infinite: n <= k+1" if np.isinf(aicc) else None
        comp.rows.append(ComparisonRow(model=name, status="ok", loglik=f.loglik, k=k, aic=aic,
                                       aicc=aicc, mse=mse, note=note))
    return comp
