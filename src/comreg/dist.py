"""COM-Poisson distribution kernel.

The distribution P(Y=y) = lambda^y / ((y!)^nu * Z(lambda, nu)) with
normalizer Z(lambda, nu) = sum_s lambda^s / (s!)^nu.  Special cases:
Poisson (nu=1), geometric (nu=0, lambda<1), Bernoulli limit (nu -> inf
with success probability lambda/(1+lambda)).

The one series kernel, log_term_table, truncates the infinite sum
adaptively (terms rise to a mode near lambda^(1/nu) and then fall faster
than geometrically), exponentiates each term once and gives log Z and the
raw moments of (Y, log Y!); pmf, moments and likelihood are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln


class DivergentSeriesError(ValueError):
    """The normalizing series diverges (nu == 0 with lambda >= 1)."""


class TruncationError(RuntimeError):
    """The series truncation cap was hit before the stopping rule fired."""


@dataclass(frozen=True)
class ComParams:
    """A (lambda, nu) pair parameterizing one COM-Poisson distribution."""

    lam: float
    nu: float

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda must be a positive finite real, got {self.lam}")
        if not (self.nu >= 0 and np.isfinite(self.nu)):
            raise ValueError(f"nu must be a nonnegative finite real, got {self.nu}")
        if self.nu == 0 and self.lam >= 1:
            raise DivergentSeriesError(
                f"nu=0 requires lambda < 1 (geometric branch); got lambda={self.lam}"
            )


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for the infinite normalizing series."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 100:
            raise ValueError(f"max_terms must be >= 100, got {self.max_terms}")


DEFAULT_POLICY = SeriesPolicy()
TERMS_STEP = 32    # granularity of the first support length tried
EXP_BLOCK = 32     # table columns exponentiated per step, so the block stays in cache


def series_terms(lam_max, nu, policy: SeriesPolicy = DEFAULT_POLICY):
    """First support length tried, per replicate, for its largest lambda and its nu.

    Terms peak near the mode lambda^(1/nu) (at s = 0 when nu = 0, where
    lambda < 1) and decay past it roughly on the scale of the series
    standard deviation ~ sqrt(mean/nu); pad generously before checking.
    The length is rounded up to a multiple of TERMS_STEP and depends on
    the replicate alone, so stacked replicates of one length share a
    table without widening each other's rows.  Returns (terms, mode),
    elementwise; a mode that overflows is inf and its terms are max_terms.
    """
    nu = np.asarray(nu, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        mode = lam_max ** (1.0 / nu)    # nu = 0: lambda < 1 and lambda^inf = 0
    terms = mode + 15.0 * np.sqrt((mode + 1.0) / np.maximum(nu, 1e-2)) + 60.0
    # fmin: a NaN lambda (rejected later) gets the cap, not an undefined int
    terms = np.fmin(policy.max_terms, np.ceil(np.maximum(terms, 64.0) / TERMS_STEP) * TERMS_STEP)
    return terms.astype(int), mode


@dataclass(frozen=True)
class SeriesTable:
    """log_terms holds s*log(lam_i) - nu*log(s!) on the support s, one row
    per lambda; log_z is each row's log Z, and raw its moments about zero
    E[Y], E[log Y!], E[Y^2], E[Y log Y!], E[(log Y!)^2].  Unpacks as
    (s, log_terms, log_z)."""

    s: np.ndarray
    log_terms: np.ndarray
    log_z: np.ndarray
    raw: np.ndarray

    def __iter__(self):
        return iter((self.s, self.log_terms, self.log_z))

    def moments(self):
        """Per row: E Y, E log Y!, var Y, cov(Y, log Y!), var(log Y!)."""
        m, m_lf, m2, m_ylf, m2_lf = self.raw.T
        return m, m_lf, m2 - m * m, m_ylf - m * m_lf, m2_lf - m_lf * m_lf


def log_term_table(lam, nu, policy: SeriesPolicy = DEFAULT_POLICY) -> SeriesTable:
    """The series kernel: log terms, log Z and raw moments for an array of lambdas.

    With a B x n lam and nu of length B (one per replicate, i.e. per row
    of lam), the rows run replicate by replicate and nu*log(s!) is formed
    once per replicate.  Each cell is exponentiated once, shifted by its
    row maximum, a column block at a time; the sums of t_s times 1, s,
    log s!, s^2, s log s! and (log s!)^2 come from a stack of per-replicate
    matrix products, never one product across replicates, whose rounding
    can depend on how many rows it gets.

    The truncation rule: the last retained term must be past the mode,
    decreasing, below rel_tol of the accumulated sum, and the geometric
    tail bound implied by the last two terms must also be below rel_tol
    of the sum.  Otherwise the support is doubled, up to max_terms.
    """
    nu = np.asarray(nu, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(nu.size, -1)
    if not ((lam > 0) & (lam < np.inf)).all():
        raise ValueError("all lambda values must be positive finite reals")
    nu = nu.reshape(-1, 1)
    if (nu < 0).any():
        raise ValueError("nu must be nonnegative")
    if ((nu == 0) & (lam >= 1)).any():
        raise DivergentSeriesError("nu=0 requires lambda < 1 for every lambda")

    terms, mode = series_terms(lam.max(axis=1, keepdims=True), nu, policy)
    if not np.isfinite(mode).all():
        raise OverflowError("series mode lambda^(1/nu) overflows")
    n_terms = int(terms.max())
    log_lam = np.log(lam)[:, :, None]
    mode = np.repeat(mode.ravel(), lam.shape[1])

    log_rel = np.log(policy.rel_tol)
    while True:
        s = np.arange(n_terms + 1, dtype=float)
        lf = gammaln(s + 1.0)
        log_terms = log_lam * s
        log_terms -= (nu * lf)[:, None, :]
        top = log_terms.max(axis=2, keepdims=True)
        basis = np.stack([np.ones_like(s), s, lf, s * s, s * lf, lf * lf], axis=1)
        sums, block = np.zeros(lam.shape + (6,)), np.empty(lam.size * EXP_BLOCK)
        for a in range(0, len(s), EXP_BLOCK):
            # contiguous, or matmul would copy the last, narrower block
            t = block[: lam.size * min(EXP_BLOCK, len(s) - a)].reshape(lam.shape + (-1,))
            np.subtract(log_terms[:, :, a:a + EXP_BLOCK], top, out=t)
            sums += np.matmul(np.exp(t, out=t), basis[a:a + EXP_BLOCK])
        log_terms, sums = log_terms.reshape(-1, len(s)), sums.reshape(-1, 6)
        log_z = top.ravel() + np.log(sums[:, 0])

        last, prev = log_terms[:, -1] - log_z, log_terms[:, -2] - log_z
        # geometric tail bound: sum_{k>=1} t_S r^k = t_S r/(1-r), r = t_S/t_{S-1}
        step = np.minimum(last - prev, 0.0)
        with np.errstate(divide="ignore"):
            tail = last + step - np.log1p(-np.exp(step))
        done = (step < 0) & (last < log_rel) & (tail < log_rel) & (s[-1] > mode)
        if done.all():
            return SeriesTable(s, log_terms, log_z, sums[:, 1:] / sums[:, :1])
        if n_terms >= policy.max_terms:
            bad = int(np.flatnonzero(~done)[0]) // lam.shape[1]
            raise TruncationError(
                f"series not converged after {n_terms} terms "
                f"(lambda_max={lam[bad].max():g}, nu={nu[bad, 0]:g}, "
                f"rel_tol={policy.rel_tol:g})"
            )
        n_terms = min(2 * n_terms, policy.max_terms)


def pmf_table(lam, nu: float, policy: SeriesPolicy = DEFAULT_POLICY):
    """Support points and normalized pmf rows for an array of lambdas."""
    s, log_terms, log_z = log_term_table(lam, nu, policy)
    return s, np.exp(np.subtract(log_terms, log_z[:, None], out=log_terms), out=log_terms)


def log_normalizer(p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """log Z(lambda, nu), with closed forms at nu=0 (geometric) and nu=1."""
    if p.nu == 0:
        return float(-np.log1p(-p.lam))
    if p.nu == 1:
        return p.lam
    return float(log_term_table(p.lam, p.nu, policy).log_z[0])


def log_pmf(y: int, p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    if y < 0 or y != int(y):
        raise ValueError(f"y must be a nonnegative integer, got {y}")
    return float(y * np.log(p.lam) - p.nu * gammaln(y + 1.0) - log_normalizer(p, policy))


def consecutive_ratio(y: int, p: ComParams) -> float:
    """P(Y=y-1)/P(Y=y) = y^nu / lambda."""
    if y < 1 or y != int(y):
        raise ValueError(f"y must be a positive integer, got {y}")
    return float(y**p.nu / p.lam)


def expect_fn(
    p: ComParams,
    f: Callable[[np.ndarray], np.ndarray],
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> float:
    """E[f(Y)] = sum_y f(y) pmf(y) over the truncated support."""
    s, pmf = pmf_table(p.lam, p.nu, policy)
    vals = np.asarray(f(s), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite on the truncated support")
    return float(pmf[0] @ vals)


def mean_exact(p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    return float(log_term_table(p.lam, p.nu, policy).moments()[0][0])


def var_exact(p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    return float(log_term_table(p.lam, p.nu, policy).moments()[2][0])


def mean_approx(p: ComParams) -> float:
    """lambda^(1/nu) - (nu-1)/(2 nu); accurate for nu <= 1 or lambda > 10^nu."""
    if p.nu == 0:
        raise ValueError("mean_approx is undefined at nu=0; use mean_exact")
    return float(p.lam ** (1.0 / p.nu) - (p.nu - 1.0) / (2.0 * p.nu))


def approx_mean_valid(lam, nu: float) -> bool:
    """Validity region of the mean approximation: nu <= 1 or lambda > 10^nu
    (for every entry when lam is an array)."""
    return bool(nu <= 1.0 or np.all(np.asarray(lam) > 10.0**nu))


def cdf(y: int, p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    if y < 0 or y != int(y):
        raise ValueError(f"y must be a nonnegative integer, got {y}")
    s, pmf = pmf_table(p.lam, p.nu, policy)
    return float(min(1.0, pmf[0][: int(y) + 1].sum()))


def inverse_cdf(pmf: np.ndarray, u) -> np.ndarray:
    """Smallest support index whose cumulative mass reaches u, per pmf row.

    u broadcasts against the rows of pmf (a single row may be 1-D); the
    result is clipped to the last support point.  Each cumulative row is
    non-decreasing, so counting its entries below u is a left-sided
    binary search, done for all rows at once.
    """
    cum = np.cumsum(pmf, axis=-1)
    idx = (cum < np.asarray(u, dtype=float)[..., None]).sum(axis=-1)
    return np.minimum(idx, pmf.shape[-1] - 1)


def quantile(q: float, p: ComParams, policy: SeriesPolicy = DEFAULT_POLICY) -> int:
    """Smallest y with CDF(y) >= q (left-continuous inverse)."""
    if not (0 < q < 1):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    _, pmf = pmf_table(p.lam, p.nu, policy)
    return int(inverse_cdf(pmf[0], q))


def sample(
    p: ComParams,
    rng: np.random.Generator,
    size: int | None = None,
    policy: SeriesPolicy = DEFAULT_POLICY,
):
    """Inverse-CDF sampling driven by an explicit random source."""
    _, pmf = pmf_table(p.lam, p.nu, policy)
    draws = inverse_cdf(pmf[0], rng.uniform(size=size))
    if size is None:
        return int(draws)
    return draws.astype(np.int64)


def sample_many(
    lam,
    nu: float,
    rng: np.random.Generator,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """One draw per entry of lam (shared nu); used for regression resampling."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    _, pmf = pmf_table(lam, nu, policy)
    return inverse_cdf(pmf, rng.uniform(size=len(lam))).astype(np.int64)
