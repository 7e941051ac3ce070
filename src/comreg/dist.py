"""COM-Poisson distribution kernel.

The distribution P(Y=y) = lambda^y / ((y!)^nu * Z(lambda, nu)) with
normalizer Z(lambda, nu) = sum_s lambda^s / (s!)^nu.  Special cases:
Poisson (nu=1), geometric (nu=0, lambda<1), Bernoulli limit (nu -> inf
with success probability lambda/(1+lambda)).

The one series kernel, log_term_table, sums the terms until the largest
lambda's fall 2^-64 below their peak at floor(lambda^(1/nu)), forming each
cache-sized block of log terms as one k = 3 matrix product per replicate
(_columns), and gives log Z and the raw moments of (Y, log Y!); pmf,
moments and likelihood are views of it, and inverse_cdf streams its pmf
to the first block that answers every draw.  Its cap, MAX_TERMS, is read
where a table is built, so it holds on every path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._special import log_factorial, log_factorials


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


MAX_TERMS = 10_000    # the series cap: a support longer than this raises TruncationError
REL_TOL = 1e-12       # the truncation guard's bound on the last term and the tail, over Z
TERMS_STEP = 32    # granularity of the support length
EXP_BLOCK = 32     # table columns formed and exponentiated per step, so the block stays in cache
CUT = 64.0 * np.log(2.0)    # a term 2^-64 below the largest cannot change a double sum


def series_terms(lam_max, nu):
    """Support length, per replicate, for its largest lambda and its nu.

    The log terms s*log(lambda) - nu*log(s!) are concave in s and peak at
    floor(lambda^(1/nu)) (0 when nu = 0, where lambda < 1).  Two chord
    steps on integer s, from a quadratic estimate right of the peak, find
    where they fall CUT below it: each chord runs through the log terms at
    s - 1 and s (slope log(lambda) - nu*log(s), log s! read from the table)
    and lies above them outside [s - 1, s], so rounding its root up lands
    on or past the cut.  That s, rounded up to a multiple of TERMS_STEP
    (at least 64) and capped at MAX_TERMS, is per replicate, so replicates
    of one length share a table without widening each other's rows.  A
    mode at or past the cap has peak MAX_TERMS - 1, so s and terms are the
    cap.  Returns (terms, lambda^(1/nu)).
    """
    nu = np.asarray(nu, dtype=float)
    lf = log_factorials(MAX_TERMS)
    with np.errstate(all="ignore"):
        mode = lam_max ** (1.0 / nu)    # nu = 0: lambda < 1 and lambda^inf = 0
        log_lam = np.log(lam_max)
        # fmin/fmax pass over NaN, so a NaN lambda (rejected later) stays on the table
        peak = np.fmin(np.floor(mode), MAX_TERMS - 1.0)
        level = peak * log_lam - nu * lf[peak.astype(np.intp)] - CUT
        lo = peak + 1.0
        s = np.ceil(np.fmin(lo + np.sqrt(2.0 * CUT * lo / nu), MAX_TERMS))
        for _ in range(2):
            # the chord's root: s - (s log_lam - nu lf[s] - level) / (log_lam - nu log s)
            w = nu * np.log(s)
            s = np.fmin(np.fmax(np.ceil((nu * lf[s.astype(np.intp)] - s * w + level)
                                        / (log_lam - w)), lo), MAX_TERMS)
    terms = np.ceil(np.maximum(s, 64.0) / TERMS_STEP) * TERMS_STEP
    return np.fmin(terms, MAX_TERMS).astype(int), mode


@dataclass(frozen=True)
class SeriesTable:
    """log_z is each row's log Z on the support s (one row per lambda), raw its
    moments E[Y], E[log Y!], E[Y^2], E[Y log Y!], E[(log Y!)^2]; log_terms,
    s*log(lam_i) - nu*log(s!), is built when read.  Unpacks as (s, log_terms, log_z)."""

    s: np.ndarray
    log_z: np.ndarray
    raw: np.ndarray
    lead: np.ndarray    # B x max(n, 2) x 3: [log lam_i, -1, -log Z_i] per row, see _columns
    nu: np.ndarray      # B x 1

    def _rows(self, lead, cols=slice(None)) -> np.ndarray:
        """lead times each replicate's columns cols, one row per lambda."""
        t = np.matmul(lead, _columns(self.s[cols], _support(len(self.s) - 1)[1][cols], self.nu))
        return t[:, : len(self.log_z) // len(self.nu)].reshape(len(self.log_z), -1)

    @property
    def log_terms(self) -> np.ndarray:
        lead = self.lead.copy()
        lead[..., 2] = 0.0
        return self._rows(lead)

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
    lf = log_factorials(n_terms)[: n_terms + 1]
    s.flags.writeable = lf.flags.writeable = False
    return s, lf, np.stack([np.ones_like(s), s, lf, s * s, s * lf, lf * lf], axis=1)


def _columns(s, lf, nu):
    """The right factor of the log terms: B x 3 x len(s), rows s, nu*log(s!), 1.

    A left factor with rows [log lam_i, -1, -c_i] per replicate (B x rows x 3)
    times it gives (s*log lam_i - nu*log s!) - c_i.  dgemm sums k in order,
    so each cell is round(round(round(s*log lam_i) - nu*log s!) - c_i), the
    bits of three elementwise passes, with 1 or 2 BLAS threads; a one-row
    product goes through gemv, which may sum in another order, so the left
    factor has at least two rows.
    """
    cols = np.empty((len(nu), 3, len(s)))
    cols[:, 0], cols[:, 2] = s, 1.0
    np.multiply(nu, lf, out=cols[:, 1])
    return cols


def log_term_table(lam, nu) -> SeriesTable:
    """The series kernel: log Z and raw moments for an array of lambdas.

    With a B x n lam and nu of length B (one per replicate, i.e. per row
    of lam), the rows run replicate by replicate.  Each EXP_BLOCK-column
    block of log terms, shifted by each row's term at its mode (the row
    maximum), is one B x n x columns product per replicate of the rows
    [log lam_i, -1, -top_i] and the block's _columns (padded to two rows
    when n = 1), exponentiated in place; the sums of t_s times 1, s,
    log s!, s^2, s log s! and (log s!)^2 come from a stack of
    per-replicate matrix products, never one across replicates, whose
    rounding can depend on how many rows it gets.  The support is
    series_terms' length, built once; the truncation rule guards it: the
    last term must be past the mode, decreasing, below REL_TOL of the sum,
    and so must the geometric tail bound implied by the last two terms.
    Otherwise TruncationError is raised.  The table itself is _table's, on
    the support series_terms gives each replicate's largest lambda.
    """
    nu = np.asarray(nu, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(nu.size, -1)
    if not ((lam > 0) & (lam < np.inf)).all():
        raise ValueError("all lambda values must be positive finite reals")
    return _table(lam, nu, *series_terms(lam.max(axis=1), nu))


def _table(lam, nu, terms, mode) -> SeriesTable:
    """log_term_table's table for a B x n lam whose support is sized:
    terms and mode, one per replicate, are series_terms on its largest
    lambda and its nu (of length B).  A stacked evaluation that has sized
    every replicate once, to group them by length, builds each group's
    table here.  The columns are built once, for every block and the
    truncation guard.  Raises as log_term_table does, but for a lambda that
    is not a positive finite real, which the caller has refused.
    """
    nu, mode = nu.reshape(-1, 1), mode.reshape(-1, 1)
    if nu.min() < 0:
        raise ValueError("nu must be nonnegative")
    if not nu.all() and ((nu == 0) & (lam >= 1)).any():
        raise DivergentSeriesError("nu=0 requires lambda < 1 for every lambda")
    if not mode.max() < np.inf:    # NaN or inf
        raise OverflowError("series mode lambda^(1/nu) overflows")
    n_terms, (n_rep, n) = int(terms.max()), lam.shape
    s, lf, basis = _support(n_terms)
    rows = max(n, 2)    # a one-row product sums in another order (_columns); pads go unsummed
    cols, block = _columns(s, lf, nu), np.empty(n_rep * rows * EXP_BLOCK)
    lead = np.zeros((n_rep, rows, 3))
    log_lam, log_rel = np.log(lam, out=lead[:, :n, 0]), np.log(REL_TOL)
    lead[:, :n, 1] = -1.0
    with np.errstate(divide="ignore"):    # nu = 0 (a mode of 0), a ratio r of 1 (tail inf)
        peak = np.minimum(np.floor(lam ** (1.0 / nu)), n_terms)
        top = log_lam * peak - nu * lf[peak.astype(int)]
        np.negative(top, out=lead[:, :n, 2])
        # the last two log terms, elementwise: the bits of their product (_columns)
        before = log_lam * s[-2] - cols[:, 1, -2, None]
        end = log_lam * s[-1] - cols[:, 1, -1, None]
        sums = np.zeros((n_rep, n, 6))
        for a in range(0, len(s), EXP_BLOCK):
            c = cols[:, :, a:a + EXP_BLOCK]
            # contiguous B x rows x columns: exp and the basis product read it in order
            t = block[: n_rep * rows * c.shape[2]].reshape(n_rep, rows, -1)
            np.matmul(lead, c, out=t)
            sums += np.exp(t, out=t)[:, :n] @ basis[a:a + EXP_BLOCK]
        log_z = top + np.log(sums[..., 0])
        np.negative(log_z, out=lead[:, :n, 2])
        # the last two terms over Z; geometric tail t_S r/(1-r), r = t_S/t_{S-1}
        prev, last = before - log_z, end - log_z
        step = np.minimum(last - prev, 0.0)
        tail = last + step - np.log1p(-np.exp(step))
    done = (step < 0) & (last < log_rel) & (tail < log_rel) & (s[-1] > mode)
    if not done.all():
        bad = int(np.flatnonzero(~done.all(axis=1))[0])
        raise TruncationError(
            f"series not converged after {n_terms} terms "
            f"(lambda_max={lam[bad].max():g}, nu={nu[bad, 0]:g}, rel_tol={REL_TOL:g})"
        )
    raw = (sums[..., 1:] / sums[..., :1]).reshape(-1, 5)
    return SeriesTable(s, log_z.ravel(), raw, lead, nu)


def pmf_table(lam, nu: float):
    """Support points and normalized pmf rows for an array of lambdas."""
    tab = log_term_table(lam, nu)
    t = tab._rows(tab.lead)
    return tab.s, np.exp(t, out=t)


def log_normalizer(p: ComParams) -> float:
    """log Z(lambda, nu), with closed forms at nu=0 (geometric) and nu=1."""
    if p.nu == 0:
        return float(-np.log1p(-p.lam))
    if p.nu == 1:
        return p.lam
    return float(log_term_table(p.lam, p.nu).log_z[0])


def log_pmf(y: int, p: ComParams) -> float:
    if y < 0 or y != int(y):
        raise ValueError(f"y must be a nonnegative integer, got {y}")
    return float(y * np.log(p.lam) - p.nu * log_factorial(y) - log_normalizer(p))


def consecutive_ratio(y: int, p: ComParams) -> float:
    """P(Y=y-1)/P(Y=y) = y^nu / lambda."""
    if y < 1 or y != int(y):
        raise ValueError(f"y must be a positive integer, got {y}")
    return float(y**p.nu / p.lam)


def expect_fn(p: ComParams, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(Y)] = sum_y f(y) pmf(y) over the truncated support."""
    s, pmf = pmf_table(p.lam, p.nu)
    vals = np.asarray(f(s), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("f must be finite on the truncated support")
    return float(pmf[0] @ vals)


def mean_exact(p: ComParams) -> float:
    return float(log_term_table(p.lam, p.nu).moments()[0][0])


def var_exact(p: ComParams) -> float:
    return float(log_term_table(p.lam, p.nu).moments()[2][0])


def mean_approx(lam, nu: float):
    """lambda^(1/nu) - (nu-1)/(2 nu), per entry of lam; accurate where
    approx_mean_valid holds, undefined at nu = 0."""
    if nu == 0:
        raise ValueError("mean_approx is undefined at nu=0; use mean_exact")
    return lam ** (1.0 / nu) - (nu - 1.0) / (2.0 * nu)


def approx_mean_valid(lam, nu: float) -> bool:
    """Validity region of the mean approximation: 0 < nu <= 1 or lambda >
    10^nu (for every entry when lam is an array), compared as log10(lambda)
    > nu, which does not overflow where 10^nu would."""
    return bool(0.0 < nu <= 1.0 or np.all(np.log10(lam) > nu))


def cdf(y: int, p: ComParams) -> float:
    if y < 0 or y != int(y):
        raise ValueError(f"y must be a nonnegative integer, got {y}")
    s, pmf = pmf_table(p.lam, p.nu)
    return float(min(1.0, pmf[0][: int(y) + 1].sum()))


def inverse_cdf(tab: SeriesTable, u) -> np.ndarray:
    """Smallest support index whose cumulative mass reaches u, per table row.

    u broadcasts against the rows and may add leading axes, one draw per
    row on each; the result is clipped to the last support point.  The
    pmf is formed EXP_BLOCK columns at a time by the table's product with
    its -log Z lead, each block cumulated after its rows' carried prefix
    (a cumsum over [carry | block]: the bits of one cumsum over the row),
    up to the first block after which every row reaches its largest u.
    The prefix is non-decreasing, so each draw's entries below u lead its
    row, and a binary search counts them for all draws at once: adding
    the powers of two from the largest down, each step moves a draw on
    while the entry it would pass is below u (no draw x support array).
    """
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(u.shape, tab.log_z.shape)
    need = np.broadcast_to(u, shape).reshape(-1, len(tab.log_z)).max(axis=0, initial=0.0)
    blocks, carry = [], 0.0
    for a in range(0, len(tab.s), EXP_BLOCK):
        cum = tab._rows(tab.lead, slice(a, a + EXP_BLOCK))
        np.exp(cum, out=cum)
        cum[:, 0] += carry
        blocks.append(np.cumsum(cum, axis=1, out=cum))
        carry = cum[:, -1]
        if (carry >= need).all():
            break
    cum = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
    width = cum.shape[-1]
    start = np.arange(0, cum.size, width)    # each row in cum.ravel()
    pos = np.broadcast_to(start, shape).copy()
    flat, last = cum.ravel(), start + (width - 1)
    for k in reversed(range(width.bit_length())):
        # a probe past the row reads its last entry: below u, every entry is, and the clip holds
        np.add(pos, 1 << k, out=pos, where=flat[np.minimum(pos + ((1 << k) - 1), last)] < u)
    return np.minimum(pos - start, width - 1)


def quantile(q: float, p: ComParams) -> int:
    """Smallest y with CDF(y) >= q (left-continuous inverse)."""
    if not (0 < q < 1):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return int(inverse_cdf(log_term_table(p.lam, p.nu), q)[0])


def sample(p: ComParams, rng: np.random.Generator, size: int | None = None):
    """Inverse-CDF sampling driven by an explicit random source."""
    draws = inverse_cdf(log_term_table(p.lam, p.nu), rng.uniform(size=size))
    if size is None:
        return int(draws[0])
    return draws.astype(np.int64)


def sample_many(lam, nu: float, rng: np.random.Generator) -> np.ndarray:
    """One draw per entry of lam (shared nu), none for an empty lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if not lam.size:
        return np.empty(0, dtype=np.int64)
    return inverse_cdf(log_term_table(lam, nu), rng.uniform(size=len(lam))).astype(np.int64)
