"""Maximum-likelihood COM-Poisson regression with the log-lambda link.

The model: Y_i ~ COM-Poisson(lambda_i, nu) with log lambda_i = x_i' beta
and a shared dispersion nu.  Estimation maximizes the log-likelihood
over (beta, nu) by Fisher scoring (the model handed to baselines.newton,
the loop behind every fit in the package) from the paper's second-order
moment estimate on the Poisson fit mu: since E Y ~ lambda^(1/nu) - c
and var Y ~ (E Y + c) / nu with c = (nu - 1) / (2 nu), nu starts at the
inverse of the Pearson dispersion about that variance, and beta at the
least-squares projection of nu log(mu + c) on the design.
The score and the expected (Fisher) information are covariances of the
sufficient statistics (Y, log Y!), so the six sums of one series table
per (beta, nu) give the loglik, both of them and the per-row moments,
and every evaluation, evaluate's included, is a replicate of one stacked
path (_evaluate_each).  The standard errors come from the information at
the optimum.  A fit is a baselines.FitResult whose extra parameter is
nu, and fit_replicates looks _invert_information up in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, dist
from ._special import log_factorial
from .baselines import FitError, FitResult, SingularInformationError, _invert_information
from .data import Dataset, linear_predictor

MAX_ITER = 500           # Newton steps before a fit is reported not converged
NU_FLOOR = 1e-6          # nu's clamp: a fit pinned at either end is flagged boundary
NU_CEILING = 1e3
CHUNK_CELLS = 1 << 16    # row x term cells one stacked evaluation computes; streamed in
                         # dist.EXP_BLOCK-column blocks (one small product per replicate
                         # each), so EXP_BLOCK/length of them are held


@dataclass(frozen=True)
class Evaluation:
    """Likelihood quantities at one (beta, nu), all from one series table.

    A stacked evaluation holds the same fields with a leading replicate
    axis (loglik has shape (B,), score (B, p+2), and so on).
    """

    loglik: float
    score: np.ndarray    # gradient in (beta..., nu)
    info: np.ndarray     # expected information in (beta..., nu)
    mean: np.ndarray     # E Y_i
    var: np.ndarray      # var Y_i
    log_z: np.ndarray    # log Z(lambda_i, nu); row i's loglik is y_i eta_i - nu log y_i! - log_z_i


def evaluate(ds: Dataset, beta: np.ndarray, nu: float) -> Evaluation:
    """Loglik, score, expected information and per-row moments and log Z at (beta, nu).

    The score is (X'(y - E Y), sum(E log Y! - log y!)); the information
    has blocks I_bb = X' diag(var Y_i) X, I_bn = -X' cov(Y_i, log Y_i!),
    I_nn = sum var(log Y_i!).  The moments come from raw sums about zero
    (var Y = E Y^2 - (E Y)^2), which costs a row about log10(nu E Y_i)
    digits: they stay within 1e-9 relative for means up to 9000 and nu up
    to 41, but a row whose mass sits almost wholly on one count can lose
    its variance to cancellation.  Raises OverflowError when some
    lambda_i = exp(eta_i) is not a positive finite double.  This is the
    one-replicate case of _evaluate_each, the evaluation of every stacked
    fit, and raises the error its replicate gets there.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    if np.shape(beta) != (ds.n_cols,):
        raise ValueError(f"beta must have length {ds.n_cols}, got shape {np.shape(beta)}")
    y = ds.y[None].astype(float)
    ev, (error,) = _evaluate_each(ds.X, y, log_factorial(y), np.append(beta, float(nu))[None])
    if error is not None:
        raise error
    return Evaluation(float(ev.loglik[0]), ev.score[0], ev.info[0], ev.mean[0],
                      ev.var[0], ev.log_z[0])


def loglik(ds: Dataset, beta: np.ndarray, nu: float) -> float:
    """Sum_i [y_i eta_i - nu log y_i! - log Z(lambda_i, nu)]."""
    return evaluate(ds, beta, nu).loglik


def score(ds: Dataset, beta: np.ndarray, nu: float) -> np.ndarray:
    """Gradient of loglik in (beta, nu): (X'(y - E Y), sum(E log Y! - log y!))."""
    if nu <= 0:
        raise ValueError(f"score requires nu > 0, got {nu}")
    return evaluate(ds, beta, nu).score


def fisher_information(ds: Dataset, beta: np.ndarray, nu: float) -> np.ndarray:
    """Expected information in (beta, nu) from sufficient-statistic covariances."""
    if nu <= 0:
        raise ValueError(f"fisher_information requires nu > 0, got {nu}")
    return evaluate(ds, beta, nu).info


def fit_poisson_start(ds: Dataset) -> np.ndarray:
    """Poisson GLM warm start (the nu=1 slice of the likelihood)."""
    return baselines.fit_poisson(ds).beta.copy()


# Errors that make one replicate's likelihood unusable at a point.
SERIES_ERRORS = (dist.DivergentSeriesError, dist.TruncationError, OverflowError)


def _evaluate_each(X: np.ndarray, y: np.ndarray, lf_y: np.ndarray, z: np.ndarray):
    """The stacked Evaluation (see evaluate) of each response y[b] on X at z[b] = (beta..., nu).

    y holds the responses as floats and lf_y their log y!, both formed
    once per fit.  lambda = exp(eta) and each replicate's support (terms,
    mode) come from one dist.series_terms pass per call: replicates share
    a table only with replicates whose series has the same support length,
    in chunks of at most CHUNK_CELLS table cells (or of one replicate), so
    none widens the others' rows, and each chunk's table (dist._table) is
    built on that support without sizing it again.  Every sum runs within
    one replicate (row-wise einsum, or a stack of per-replicate matrix
    products, never one BLAS product across replicates, whose rounding
    can depend on how many rows it gets): a replicate's numbers do not
    depend on its chunk.  A chunk that raises one of SERIES_ERRORS
    (OverflowError where a lambda is not a positive finite double) is
    split in halves until the replicate that raises it is alone.  Returns
    (Evaluation, errors): replicate b's rows are NaN where errors[b] is
    the error it raised alone, not None; a stack that is one chunk gets
    that chunk's own arrays.
    """
    n_rep, n = y.shape
    p1 = X.shape[1]
    eta = (z[:, None, :p1] @ X.T)[:, 0]
    nu = z[:, p1]
    errors = [None] * n_rep

    with np.errstate(over="ignore"):
        lam = np.exp(eta)
    in_range = ((lam > 0) & np.isfinite(lam)).all(axis=1)
    terms, mode = dist.series_terms(lam.max(axis=1), nu)
    widths = np.unique(terms) if (terms != terms[:1]).any() else terms[:1]
    chunks = []
    for width in widths.tolist():
        idx = np.flatnonzero(terms == width) if len(widths) > 1 else np.arange(n_rep)
        size = max(1, CHUNK_CELLS // (n * width))
        chunks += [idx[i:i + size] for i in range(0, len(idx), size)]
    parts = []
    while chunks:
        idx = chunks.pop()
        rows = idx if len(idx) < n_rep else slice(None)    # the whole stack needs no copies
        try:
            if not in_range[rows].all():
                raise OverflowError("linear predictor out of range: lambda overflows or underflows")
            tab = dist._table(lam[rows], nu[rows], terms[rows], mode[rows])
        except SERIES_ERRORS as exc:
            if len(idx) == 1:
                errors[idx[0]] = exc
            else:
                chunks += [idx[: len(idx) // 2], idx[len(idx) // 2:]]
            continue
        mean, e_lf, var, cov_y_lf, var_lf, log_z = (
            a.reshape(len(idx), n) for a in (*tab.moments(), tab.log_z))
        y_c, lf_c = y[rows], lf_y[rows]
        info = np.empty((len(idx), p1 + 1, p1 + 1))
        info[:, :p1, :p1] = (X.T * var[:, None, :]) @ X
        info[:, :p1, p1] = -(cov_y_lf[:, None, :] @ X)[:, 0]
        info[:, p1, :p1] = info[:, :p1, p1]
        info[:, p1, p1] = var_lf.sum(axis=1)
        score = np.empty((len(idx), p1 + 1))
        score[:, :p1] = ((y_c - mean)[:, None, :] @ X)[:, 0]
        score[:, p1] = (e_lf - lf_c).sum(axis=1)
        loglik = (np.einsum("ij,ij->i", y_c, eta[rows]) - nu[rows] * lf_c.sum(axis=1)
                  - log_z.sum(axis=1))
        parts.append((idx, Evaluation(loglik, score, info, mean, var, log_z)))
    if len(parts) == 1 and len(parts[0][0]) == n_rep:
        return parts[0][1], errors
    ev = Evaluation(np.full(n_rep, np.nan), np.full((n_rep, p1 + 1), np.nan),
                    np.full((n_rep, p1 + 1, p1 + 1), np.nan), *np.full((3, n_rep, n), np.nan))
    for idx, part in parts:
        for whole, rows in zip(vars(ev).values(), vars(part).values()):
            whole[idx] = rows
    return ev, errors


def fit_replicates(
    X: np.ndarray,
    Y: np.ndarray,
    beta0: np.ndarray | None,
    fix_nu: float | None = None,
) -> list:
    """fit_com on every response Y[b] (one per row of Y) with the shared design X.

    beta0[b] is replicate b's Poisson-scale start; beta0=None takes
    baselines.one_step_start (one Poisson scoring step from the least-squares
    fit of log(Y[b] + 1/2)).  With nu free, replicate b starts at the
    paper's second-order moment estimate.  At mu = exp(X beta0[b]), nu0 =
    (n - p) / sum((y - mu)^2 / mu) is the inverse Pearson dispersion;
    since E Y ~ lambda^(1/nu) - c(nu) and var Y ~ (E Y + c(nu)) / nu with
    c(nu) = (nu - 1) / (2 nu), nu1 = (n - p) / sum((y - mu)^2 / (mu +
    c(nu0))), and beta1 is the least-squares projection of nu1 log(mu +
    c(nu1)) on X; both nus are clamped to [NU_FLOOR, NU_CEILING].  Where
    some mu + c is not positive or (beta1, nu1) is not finite, the start
    is the first-order nu0 (beta0[b], 1).  A 0/1 or constant response,
    which has no finite nu-hat, and a replicate whose loglik at its start
    is not finite or raises one of SERIES_ERRORS (evaluated again
    together, in one stack) start from (beta0[b], 1) instead; under fix_nu
    every replicate starts from (beta0[b], fix_nu).  Every product runs
    within one replicate, so a replicate's fit does not depend on the
    stack it is fitted in.  Each replicate has its own step, step halving,
    nu clamp, stop rule, boundary flag and covariance in one
    baselines.newton loop (under fix_nu, cov inverts the beta block alone)
    of at most MAX_ITER steps, with nu clamped to [NU_FLOOR, NU_CEILING],
    all three read at call time.  Only the evaluations are shared: each
    step, and each round of halving, evaluates the replicates still trying
    as one stack (see _evaluate_each).  A replicate whose trial point is
    unusable has that trial rejected, and no other.  Returns one entry per
    replicate: its FitResult, or the error that ended it (one of
    SERIES_ERRORS at the start, or SingularInformationError away from a
    boundary).  X is not validated here: pass the design of a Dataset.
    """
    Y = np.asarray(Y)
    n_rep, n = Y.shape
    p1 = X.shape[1]
    free_nu = fix_nu is None
    lo, hi = (NU_FLOOR, NU_CEILING) if free_nu else (fix_nu, fix_nu)
    lower, upper = np.append(np.full(p1, -np.inf), lo), np.append(np.full(p1, np.inf), hi)
    P = np.linalg.pinv(X)    # (t[:, None, :] @ P.T)[:, 0]: least squares of each row of t on X
    if beta0 is None:
        beta0 = baselines.one_step_start(X, Y)
    # a 0/1 or constant response has no finite nu-hat: the loglik rises
    # towards the Bernoulli limit or a point mass as nu grows, so its
    # nu-hat is wherever the stop fired
    unidentified = np.all(Y <= 1, axis=1) | np.all(Y == Y[:, :1], axis=1)
    z = np.column_stack([beta0, np.full(n_rep, 1.0 if free_nu else fix_nu)])
    moved = free_nu & ~unidentified
    if free_nu:
        # the first-order moment start nu0 (beta0, 1), and the second-order
        # one (beta1, nu1) where it is usable
        with np.errstate(all="ignore"):
            mu = np.exp((beta0[:, None, :] @ X.T)[:, 0])
            nu0 = np.clip((n - p1) / ((Y - mu) ** 2 / mu).sum(axis=1), lo, hi)
            z[moved] *= nu0[moved, None]
            m0 = mu + ((nu0 - 1.0) / (2.0 * nu0))[:, None]
            nu1 = np.clip((n - p1) / ((Y - mu) ** 2 / m0).sum(axis=1), lo, hi)
            m1 = mu + ((nu1 - 1.0) / (2.0 * nu1))[:, None]
            z1 = np.column_stack([((nu1[:, None] * np.log(m1))[:, None, :] @ P.T)[:, 0], nu1])
        second = (moved & (m0 > 0).all(axis=1) & (m1 > 0).all(axis=1)
                  & np.isfinite(z1).all(axis=1))
        z[second] = z1[second]
    y = Y.astype(float)
    lf_y = log_factorial(y)
    def derivatives(rows, z):
        ev, errors = _evaluate_each(X, y[rows], lf_y[rows], z)
        return (ev.loglik, ev.score, ev.info), errors

    (loglik, score, info), errors = derivatives(slice(None), z)
    # an unusable moment start falls back to (beta0[b], 1), all in one stack
    redo = np.flatnonzero(moved & ~np.isfinite(loglik))
    if redo.size:
        z[redo] = np.column_stack([beta0[redo], np.ones(redo.size)])
        (loglik[redo], score[redo], info[redo]), fallback = derivatives(redo, z[redo])
        for b, exc in zip(redo, fallback):
            errors[b] = exc
    z, (loglik, score, info), iterations, stop = baselines.newton(
        lambda rows, z: derivatives(rows, z)[0],
        z, (loglik, score, info), lower, upper, MAX_ITER)
    stop = baselines.ran_off(X, stop, info[:, :p1, :p1], score[:, :p1])

    k = p1 + 1 if free_nu else p1    # a fixed nu is no parameter
    usable = np.flatnonzero([e is None for e in errors])
    cov = np.full((n_rep, p1 + 1, p1 + 1), np.nan if free_nu else 0.0)
    cov[usable, :k, :k], refused = _invert_information(info[usable, :k, :k])
    beta = z[:, :p1].copy()    # one copy for the stack: each fit's beta is a row of it
    boundary = (free_nu & (unidentified | ~((lo < z[:, p1]) & (z[:, p1] < hi)))).tolist()
    nus, logliks, steps = z[:, p1].tolist(), loglik.tolist(), iterations.tolist()
    converged = (stop == "converged").tolist()
    out = list(errors)
    for b, exc in zip(usable.tolist(), refused):
        if exc is not None and not boundary[b]:    # at a boundary its cov is left NaN
            out[b] = exc
            continue
        out[b] = FitResult(beta=beta[b], cov=cov[b], loglik=logliks[b], n_obs=n, n_params=k,
                           converged=converged[b], iterations=steps[b], boundary=boundary[b],
                           extra=nus[b], extra_name="nu")
    return out


def fit_com(
    ds: Dataset,
    beta0: np.ndarray | None = None,
    fix_nu: float | None = None,
) -> FitResult:
    """Maximize the COM-Poisson log-likelihood over (beta, nu) by Fisher scoring.

    In (beta, nu) the model is a canonical exponential family: the loglik is
    concave and the expected information is its negative Hessian, so each
    scoring step I step = g is a Newton step.  The step is halved until the
    loglik does not fall.  The start is fit_replicates' second-order moment
    estimate on the Poisson fit, which refuses a response that runs off
    (baselines.NonConvergenceError) or an ill-conditioned design
    (SingularInformationError) before any COM-Poisson step, and nu is
    clamped to [NU_FLOOR, NU_CEILING]; at a bound whose gradient
    points outward only beta moves, and the result is flagged boundary, as
    is a 0/1 response (the Bernoulli limit, where no finite nu maximizes the
    loglik) or a constant one (a point mass).  fix_nu pins the dispersion
    (e.g. fix_nu=1 gives the Poisson slice of the likelihood surface) and
    solves the beta block only: cov inverts the beta block of the
    information, with 0 in nu's row and column, and n_params counts beta
    alone.  converged means one of baselines.newton's relative stop rules
    fired within MAX_ITER steps and the fit did not run off
    (baselines.ran_off).  beta0 (by default the Poisson fit's beta) is a
    Poisson-scale start, the mean the moment estimate starts from (or
    paired with nu = 1 or fix_nu), so a COM-Poisson beta-hat, scaled for
    its nu-hat, is not a valid start.  At
    fix_nu=0 (geometric) the series needs every lambda < 1, so the default
    start's intercept is lowered until every start lambda is at most 1/2; a
    caller's beta0 is used as given.  This is fit_replicates with one
    replicate.
    """
    if beta0 is None:
        beta0 = fit_poisson_start(ds)
        if fix_nu == 0:
            beta0[0] -= max(0.0, linear_predictor(ds, beta0).max() + np.log(2.0))
    (result,) = fit_replicates(ds.X, ds.y[None], np.asarray(beta0, dtype=float)[None],
                               fix_nu)
    if isinstance(result, Exception):
        raise result
    return result


def fitted_values(ds: Dataset, fr: FitResult, kind: str = "median") -> np.ndarray:
    """Fitted values: 'mean_approx' via the closed-form mean, or 'median'.

    mean_approx (dist.mean_approx) is refused where dist.approx_mean_valid fails.
    The median streams the fit's series table to its block (dist.inverse_cdf).
    """
    lam = np.exp(linear_predictor(ds, fr.beta))
    if kind == "mean_approx":
        if not dist.approx_mean_valid(lam, fr.nu):
            raise ValueError(f"mean approximation invalid (nu = {fr.nu:g}); use kind='median'")
        return dist.mean_approx(lam, fr.nu)
    if kind == "median":
        return dist.inverse_cdf(dist.log_term_table(lam, fr.nu), 0.5).astype(float)
    raise ValueError(f"unknown fitted-value kind {kind!r}")
