"""COM-Poisson distribution kernel.

The distribution P(Y=y) = lambda^y / ((y!)^nu * Z(lambda, nu)) with
normalizer Z(lambda, nu) = sum_s lambda^s / (s!)^nu.  Special cases:
Poisson (nu=1), geometric (nu=0, lambda<1), Bernoulli limit (nu -> inf
with success probability lambda/(1+lambda)).

The one series kernel, log_term_table, sums the terms until the largest
lambda's fall 2^-64 below their peak at floor(lambda^(1/nu)), forming each
term once in a cache-sized block, and gives log Z and the raw moments of
(Y, log Y!); pmf, moments and likelihood are views of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import digamma, gammaln


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
EXP_BLOCK = 32     # table columns formed and exponentiated per step, so the block stays in cache
CUT = 64.0 * np.log(2.0)    # a term 2^-64 below the largest cannot change a double sum


def series_terms(lam_max, nu, policy: SeriesPolicy = DEFAULT_POLICY):
    """First support length tried, per replicate, for its largest lambda and its nu.

    The log terms s*log(lambda) - nu*log(s!) are concave in s and peak at
    floor(lambda^(1/nu)) (0 when nu = 0, where lambda < 1), so Newton steps
    from a quadratic estimate right of the peak land on or past the s where
    they fall CUT below it.  That s, rounded up to a multiple of TERMS_STEP
    (at least 64), is per replicate, so replicates of one length share a
    table without widening each other's rows.  Returns (terms, lambda^(1/nu)).
    """
    nu = np.asarray(nu, dtype=float)
    with np.errstate(all="ignore"):
        mode = lam_max ** (1.0 / nu)    # nu = 0: lambda < 1 and lambda^inf = 0
        log_lam, top = np.log(lam_max), np.floor(mode) + 1.0
        level = top * log_lam - nu * gammaln(top) - CUT    # Newton on u = s + 1 to this level
        u = np.fmin(top + 1.0 + np.sqrt(2.0 * CUT * top / nu), policy.max_terms)
        for _ in range(2):
            u -= (u * log_lam - nu * gammaln(u) - level) / (log_lam - nu * digamma(u))
    # fmin: a NaN lambda (rejected later) gets the cap, not an undefined int
    terms = np.fmin(policy.max_terms, np.ceil(np.maximum(u - 1.0, 64.0) / TERMS_STEP) * TERMS_STEP)
    return terms.astype(int), mode


@dataclass(frozen=True)
class SeriesTable:
    """log_z is each row's log Z on the support s (one row per lambda), raw its
    moments E[Y], E[log Y!], E[Y^2], E[Y log Y!], E[(log Y!)^2]; log_terms,
    s*log(lam_i) - nu*log(s!), is built when read.  Unpacks as (s, log_terms, log_z)."""

    s: np.ndarray
    log_z: np.ndarray
    raw: np.ndarray
    log_lam: np.ndarray    # B x n x 1
    nu_lf: np.ndarray      # B x len(s): nu * log(s!) per replicate

    @property
    def log_terms(self) -> np.ndarray:
        t = self.log_lam * self.s
        return np.subtract(t, self.nu_lf[:, None, :], out=t).reshape(-1, len(self.s))

    def __iter__(self):
        return iter((self.s, self.log_terms, self.log_z))

    def moments(self):
        """Per row: E Y, E log Y!, var Y, cov(Y, log Y!), var(log Y!)."""
        m, m_lf, m2, m_ylf, m2_lf = self.raw.T
        return m, m_lf, m2 - m * m, m_ylf - m * m_lf, m2_lf - m_lf * m_lf


@functools.lru_cache(maxsize=8)
def _support(n_terms: int):
    """The support 0..n_terms and its log(s!) (read-only), and the six sum weights."""
    s = np.arange(n_terms + 1, dtype=float)
    lf = gammaln(s + 1.0)
    s.flags.writeable = lf.flags.writeable = False
    return s, lf, np.stack([np.ones_like(s), s, lf, s * s, s * lf, lf * lf], axis=1)


def log_term_table(lam, nu, policy: SeriesPolicy = DEFAULT_POLICY) -> SeriesTable:
    """The series kernel: log Z and raw moments for an array of lambdas.

    With a B x n lam and nu of length B (one per replicate, i.e. per row
    of lam), the rows run replicate by replicate and nu*log(s!) is formed
    once per replicate.  Each EXP_BLOCK-column block of log terms is formed
    in one buffer, shifted by each row's term at its mode (the row maximum)
    and exponentiated; the sums of t_s times 1, s, log s!, s^2, s log s! and
    (log s!)^2 come from a stack of per-replicate matrix products, never one
    across replicates, whose rounding can depend on how many rows it gets.
    The support starts at series_terms' length; the truncation rule guards
    it: the last term must be past the mode, decreasing, below rel_tol of
    the sum, and so must the geometric tail bound implied by the last two
    terms.  Otherwise the support is doubled, up to max_terms.
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
    n_terms, (n_rep, n) = int(terms.max()), lam.shape
    log_lam, log_rel = np.log(lam), np.log(policy.rel_tol)
    with np.errstate(divide="ignore"):    # nu = 0 (a mode of 0), a ratio r of 1 (tail inf)
        row_mode = np.floor(lam ** (1.0 / nu))
        while True:
            s, lf, basis = _support(n_terms)
            nu_lf, peak = nu * lf, np.minimum(row_mode, n_terms)
            top = log_lam * peak - nu * lf[peak.astype(int)]
            sums, block = np.zeros((n_rep, n, 6)), np.empty(lam.size * EXP_BLOCK)
            for a in range(0, len(s), EXP_BLOCK):
                # contiguous B x columns x n: passes run along rows, matmul reads it transposed
                t = block[: lam.size * min(EXP_BLOCK, len(s) - a)].reshape(n_rep, -1, n)
                np.multiply(log_lam[:, None, :], s[a:a + EXP_BLOCK, None], out=t)
                t -= nu_lf[:, a:a + EXP_BLOCK, None]
                t -= top[:, None, :]
                sums += np.matmul(np.exp(t, out=t).transpose(0, 2, 1), basis[a:a + EXP_BLOCK])
            log_z = top + np.log(sums[..., 0])
            # the last two terms over Z; geometric tail t_S r/(1-r), r = t_S/t_{S-1}
            last, prev = (log_lam * s[k] - nu_lf[:, k, None] - log_z for k in (-1, -2))
            step = np.minimum(last - prev, 0.0)
            tail = last + step - np.log1p(-np.exp(step))
            done = (step < 0) & (last < log_rel) & (tail < log_rel) & (s[-1] > mode)
            if done.all():
                raw = (sums[..., 1:] / sums[..., :1]).reshape(-1, 5)
                return SeriesTable(s, log_z.ravel(), raw, log_lam[..., None], nu_lf)
            if n_terms >= policy.max_terms:
                bad = int(np.flatnonzero(~done.all(axis=1))[0])
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
