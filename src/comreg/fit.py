"""Maximum-likelihood COM-Poisson regression with the log-lambda link.

The model: Y_i ~ COM-Poisson(lambda_i, nu) with log lambda_i = x_i' beta
and a shared dispersion nu.  Estimation maximizes the log-likelihood
over (beta, nu) by Fisher scoring from the Poisson fit: the model
handed to baselines.newton, the loop behind every fit in the package.
The score and the expected (Fisher) information are covariances of the
sufficient statistics (Y, log Y!), so the six sums of one series table
per (beta, nu) (dist.log_term_table) give the loglik, both of them and
the per-row moments; the standard errors come from the information at
the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, dist
from ._special import log_factorial
from .data import Dataset, linear_predictor


class FitError(RuntimeError):
    """Estimation failed in a way that leaves no usable result."""


class SingularInformationError(FitError):
    """The information matrix is not invertible to tolerance."""


MAX_ITER = 500           # Newton steps before a fit is reported not converged
NU_FLOOR = 1e-6          # nu's clamp: a fit pinned at either end is flagged boundary
NU_CEILING = 1e3
CHUNK_CELLS = 1 << 16    # row x term cells one stacked evaluation computes; streamed in
                         # dist.EXP_BLOCK-column blocks, so EXP_BLOCK/length of them are held


@dataclass
class FitResult:
    """Estimated COM-Poisson regression: coefficients, dispersion, covariance."""

    beta: np.ndarray
    nu: float
    cov: np.ndarray          # (p+2) x (p+2), parameter order (beta..., nu); a fixed
                             # nu was not estimated: its row and column are 0
    loglik: float
    n_obs: int
    n_params: int
    converged: bool
    iterations: int
    boundary: bool = False   # nu pinned at NU_FLOOR/NU_CEILING, or a 0/1 or constant
                             # response (no finite nu-hat); nu covariance unreliable

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


def _evaluate_stack(X: np.ndarray, Y: np.ndarray, eta: np.ndarray, nu: np.ndarray) -> Evaluation:
    """Stacked evaluation: replicate b has response Y[b], linear predictor
    eta[b] and dispersion nu[b], all on the design X, and the replicates
    share one series table.  Raises OverflowError when some lambda =
    exp(eta) is not a positive finite double, and the series errors of
    dist.log_term_table, for the whole stack.
    """
    with np.errstate(over="ignore"):
        lam = np.exp(eta)
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise OverflowError("linear predictor out of range: lambda overflows or underflows")
    tab = dist.log_term_table(lam, nu)
    mean, e_lf, var, cov_y_lf, var_lf, log_z = (
        a.reshape(eta.shape) for a in (*tab.moments(), tab.log_z))

    y = Y.astype(float)
    lf_y = log_factorial(y)
    p1 = X.shape[1]
    info = np.empty((len(y), p1 + 1, p1 + 1))
    info[:, :p1, :p1] = (X.T * var[:, None, :]) @ X
    info[:, :p1, p1] = -(cov_y_lf[:, None, :] @ X)[:, 0]
    info[:, p1, :p1] = info[:, :p1, p1]
    info[:, p1, p1] = var_lf.sum(axis=1)
    score = np.empty((len(y), p1 + 1))
    score[:, :p1] = ((y - mean)[:, None, :] @ X)[:, 0]
    score[:, p1] = (e_lf - lf_y).sum(axis=1)
    loglik = np.einsum("ij,ij->i", y, eta) - nu * lf_y.sum(axis=1) - log_z.sum(axis=1)
    return Evaluation(loglik, score, info, mean, var, log_z)


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
    one-replicate view of the stacked evaluation that fit_replicates runs.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    eta = linear_predictor(ds, beta)
    ev = _evaluate_stack(ds.X, ds.y[None], eta[None], np.array([float(nu)]))
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


def _invert_information(info: np.ndarray):
    """Invert each matrix of the stack info (m, k, k) with one condition-number
    pass and one inversion.  Returns (cov, errors): cov holds NaN where
    errors[b] is the SingularInformationError that refused matrix b (not
    finite, condition number above 1e14, or an inverse with a
    non-positive diagonal), and errors[b] is None elsewhere."""
    cond = np.full(len(info), np.nan)
    finite = np.isfinite(info).all(axis=(1, 2))
    cond[finite] = np.linalg.cond(info[finite])
    ok = cond <= 1e14
    cov = np.full_like(info, np.nan)
    cov[ok] = np.linalg.inv(info[ok])
    errors = [None if usable else SingularInformationError(
        f"information matrix not invertible (condition number {c:.3g})")
        for usable, c in zip(ok, cond)]
    for b in np.flatnonzero(ok & ~(np.diagonal(cov, axis1=1, axis2=2) > 0).all(axis=1)):
        cov[b] = np.nan
        errors[b] = SingularInformationError(
            "information matrix not invertible (inverse has a non-positive diagonal)")
    return cov, errors


def fit_poisson_start(ds: Dataset) -> np.ndarray:
    """Poisson GLM warm start (the nu=1 slice of the likelihood)."""
    return baselines.fit_poisson(ds).beta.copy()


# Errors that make one replicate's likelihood unusable at a point.
SERIES_ERRORS = (dist.DivergentSeriesError, dist.TruncationError, OverflowError)


def _evaluate_each(X: np.ndarray, Y: np.ndarray, z: np.ndarray):
    """Loglik, score and information at z[b] = (beta..., nu) for each replicate b.

    Replicates share a table only with replicates whose series has the
    same support length (dist.series_terms), in chunks of at most
    CHUNK_CELLS table cells (or of one replicate), so none widens the
    others' rows.  Every sum runs within one replicate (row-wise einsum,
    or a stack of per-replicate matrix products, never one BLAS product
    across replicates, whose rounding can depend on how many rows it
    gets): a replicate's numbers do not depend on its chunk.  A chunk
    that raises one of
    SERIES_ERRORS is split in halves until the replicate that raises it
    is alone.  Returns (loglik, score, info, errors): NaN for those
    replicates, and per replicate None or the error it raised alone.
    """
    n_rep, n = Y.shape
    p1 = X.shape[1]
    eta = (z[:, None, :p1] @ X.T)[:, 0]
    nu = z[:, p1]
    loglik = np.full(n_rep, np.nan)
    score = np.full((n_rep, p1 + 1), np.nan)
    info = np.full((n_rep, p1 + 1, p1 + 1), np.nan)
    errors = [None] * n_rep

    chunks = [np.arange(n_rep)]
    if n_rep > 1:
        with np.errstate(over="ignore"):
            terms = dist.series_terms(np.exp(eta.max(axis=1)), nu)[0]
        chunks = []
        for width in np.unique(terms):
            idx, size = np.flatnonzero(terms == width), max(1, CHUNK_CELLS // (n * width))
            chunks += [idx[i:i + size] for i in range(0, len(idx), size)]
    while chunks:
        idx = chunks.pop()
        try:
            part = _evaluate_stack(X, Y[idx], eta[idx], nu[idx])
        except SERIES_ERRORS as exc:
            if len(idx) == 1:
                errors[idx[0]] = exc
            else:
                chunks += [idx[: len(idx) // 2], idx[len(idx) // 2:]]
            continue
        loglik[idx], score[idx], info[idx] = part.loglik, part.score, part.info
    return loglik, score, info, errors


def fit_replicates(
    X: np.ndarray,
    Y: np.ndarray,
    beta0: np.ndarray,
    fix_nu: float | None = None,
) -> list:
    """fit_com on every response Y[b] (one per row of Y) with the shared design X.

    Each replicate starts from (beta0[b], nu = 1) and has its own step,
    step halving, nu clamp, stop rule, boundary flag and covariance in
    one baselines.newton loop (under fix_nu, cov inverts the beta block
    alone) of at most MAX_ITER steps, with nu clamped to [NU_FLOOR,
    NU_CEILING], all three read at call time.  Only the evaluations are
    shared: each step, and each round of halving, evaluates the
    replicates still trying as one stack (see _evaluate_each).  A
    replicate whose trial point is unusable has that trial rejected, and
    no other.  Returns one entry per replicate: its FitResult, or the
    error that ended it (one of SERIES_ERRORS at the start, or
    SingularInformationError away from a boundary).  X is not validated
    here: pass the design of a Dataset.
    """
    Y = np.asarray(Y)
    n_rep, n = Y.shape
    p1 = X.shape[1]
    free_nu = fix_nu is None
    lo, hi = (NU_FLOOR, NU_CEILING) if free_nu else (fix_nu, fix_nu)
    lower, upper = np.append(np.full(p1, -np.inf), lo), np.append(np.full(p1, np.inf), hi)
    z = np.column_stack([beta0, np.full(n_rep, 1.0 if free_nu else fix_nu)])
    *at, errors = _evaluate_each(X, Y, z)
    z, (loglik, score, info), iterations, stop = baselines.newton(
        lambda rows, z: _evaluate_each(X, Y[rows], z)[:3],
        z, at, lower, upper, MAX_ITER)
    stop = baselines.ran_off(X, stop, info[:, :p1, :p1], score[:, :p1])

    # a 0/1 or constant response has no finite nu-hat: the loglik rises
    # towards the Bernoulli limit or a point mass as nu grows, so its
    # nu-hat is wherever the stop fired
    unidentified = np.all(Y <= 1, axis=1) | np.all(Y == Y[:, :1], axis=1)
    k = p1 + 1 if free_nu else p1    # a fixed nu is no parameter
    usable = np.flatnonzero([e is None for e in errors])
    cov = np.full((n_rep, p1 + 1, p1 + 1), np.nan if free_nu else 0.0)
    cov[usable, :k, :k], refused = _invert_information(info[usable, :k, :k])
    out = list(errors)
    for b, exc in zip(usable, refused):
        nu = float(z[b, p1])
        boundary = free_nu and (unidentified[b] or not (lo < nu < hi))
        if exc is not None and not boundary:    # at a boundary its cov is left NaN
            out[b] = exc
            continue
        out[b] = FitResult(
            beta=z[b, :p1].copy(),
            nu=nu,
            cov=cov[b],
            loglik=float(loglik[b]),
            n_obs=n,
            n_params=k,
            converged=stop[b] == "converged",
            iterations=int(iterations[b]),
            boundary=bool(boundary),
        )
    return out


def fit_com(
    ds: Dataset,
    beta0: np.ndarray | None = None,
    fix_nu: float | None = None,
) -> FitResult:
    """Maximize the COM-Poisson log-likelihood over (beta, nu) by Fisher scoring.

    In (beta, nu) the model is a canonical exponential family: the loglik
    is concave and the expected information is its negative Hessian, so
    each scoring step I step = g is a Newton step.  The step is halved
    until the loglik does not fall.  nu starts at 1 and is clamped to
    [NU_FLOOR, NU_CEILING]; at a bound whose gradient points outward only
    beta moves, and the result is flagged boundary, as is a 0/1 response
    (the Bernoulli limit, where no finite nu maximizes the loglik) or a
    constant one (a point mass).  fix_nu pins the dispersion (e.g. fix_nu=1
    gives the Poisson slice of the likelihood surface) and solves the beta
    block only: cov inverts the beta block of the information, with 0 in
    nu's row and column, and n_params counts beta alone.  converged means
    one of baselines.newton's relative stop rules fired within MAX_ITER
    steps and the fit did not run off (baselines.ran_off).  beta0 (by
    default the Poisson fit's beta) is a Poisson-scale start paired with
    nu = 1, so a COM-Poisson beta-hat, scaled for its nu-hat, is not a
    valid start.  At fix_nu=0 (geometric) the series needs every
    lambda < 1, so the default start's intercept is lowered until every
    start lambda is at most 1/2; a caller's beta0 is used as given.  This
    is fit_replicates with one replicate.
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
    """
    lam = np.exp(linear_predictor(ds, fr.beta))
    if kind == "mean_approx":
        if not dist.approx_mean_valid(lam, fr.nu):
            raise ValueError(f"mean approximation invalid (nu = {fr.nu:g}); use kind='median'")
        return dist.mean_approx(lam, fr.nu)
    if kind == "median":
        _, pmf = dist.pmf_table(lam, fr.nu)
        return dist.inverse_cdf(pmf, 0.5).astype(float)
    raise ValueError(f"unknown fitted-value kind {kind!r}")
