"""Distribution kernel tests.

Frozen [oracle] constants were computed by brute-force summation of the
series lambda^s/(s!)^nu at 50-digit precision (mpmath), independently of
the truncation machinery under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comreg import dist
from comreg._special import log_factorials
from comreg.dist import (
    ComParams,
    DivergentSeriesError,
    TruncationError,
    cdf,
    consecutive_ratio,
    expect_fn,
    log_normalizer,
    log_pmf,
    mean_approx,
    mean_exact,
    quantile,
    sample,
    var_exact,
)

GRID = [
    (lam, nu)
    for lam in (0.3, 1.0, 2.0, 8.0)
    for nu in (0.25, 0.5, 1.0, 2.0, 5.0)
]



def log_factorials_ld(n):
    """log s! for s < n: the running sum of log k in long double, rounded
    once to double (within an ulp of the exact value)."""
    logs = np.log(np.arange(1, n, dtype=np.longdouble))
    return np.concatenate([[0.0], np.cumsum(logs)]).astype(float)


# 50-digit brute-force series oracle values at (lambda=2, nu=1.5)
ORACLE_LOGZ_2_15 = 1.6336767935803738
ORACLE_LOGPMF_2_2_15 = -1.2871032033004012
ORACLE_MEAN_2_15 = 1.3957791943065876
ORACLE_VAR_2_15 = 1.0738062152865824
ORACLE_ELOGFACT_2_15 = 0.4938439819439394
ORACLE_CDF_2_2_15 = 0.8617008554766865
ORACLE_Q90_2_15 = 3
ORACLE_MEAN_16_2 = 3.7409419741177544


class TestComParams:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            ComParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ComParams(-1.0, 1.0)

    def test_rejects_negative_nu(self):
        with pytest.raises(ValueError):
            ComParams(1.0, -0.5)

    def test_geometric_branch_requires_lambda_below_one(self):
        with pytest.raises(DivergentSeriesError):
            ComParams(1.0, 0.0)
        ComParams(0.99, 0.0)  # valid


class TestLogNormalizer:
    def test_poisson_case(self):
        assert log_normalizer(ComParams(1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_geometric_case(self):
        assert log_normalizer(ComParams(0.5, 0.0)) == pytest.approx(
            math.log(2.0), abs=1e-14
        )

    def test_oracle_value(self):
        assert log_normalizer(ComParams(2.0, 1.5)) == pytest.approx(
            ORACLE_LOGZ_2_15, rel=1e-11
        )

    def test_table_normalizer_matches_logsumexp(self):
        # the max-shifted sum against scipy's logsumexp as the reference
        from scipy.special import logsumexp

        lam = np.geomspace(1e-3, 20.0, 40)
        for nu in (0.5, 1.0, 4.0):
            _, log_terms, log_z = dist.log_term_table(lam, nu)
            assert np.allclose(log_z, logsumexp(log_terms, axis=1), rtol=1e-14, atol=1e-14)

    def test_truncation_failure_raises(self, monkeypatch):
        # nu just above 0 with lambda near 1: the series needs far more
        # terms than a tiny cap allows.
        monkeypatch.setattr(dist, "MAX_TERMS", 100)
        with pytest.raises(TruncationError, match="after 100 terms"):
            dist.log_term_table(np.array([0.999]), 0.01)


class TestStackedTable:
    """log_term_table with one nu per replicate (one row of lam each)."""

    LAM = np.array([[0.5, 2.0, 7.0], [1.5, 3.0, 4.0], [0.2, 9.0, 1.0]])
    NU = np.array([0.6, 2.0, 5.0])

    def test_rows_equal_separate_tables(self):
        s, log_terms, log_z = dist.log_term_table(self.LAM, self.NU)
        assert log_terms.shape == (9, len(s))
        for b in range(3):
            s_b, terms_b, z_b = dist.log_term_table(self.LAM[b], self.NU[b])
            rows = slice(3 * b, 3 * b + 3)
            # the same terms elementwise; only the support length may differ
            assert np.array_equal(log_terms[rows, : len(s_b)], terms_b)
            assert np.allclose(log_z[rows], z_b, rtol=1e-15, atol=0)

    def test_start_length_per_replicate(self):
        terms, mode = dist.series_terms(self.LAM.max(axis=1), self.NU)
        assert np.all(terms % dist.TERMS_STEP == 0) and np.all(terms >= 64)
        for b in range(3):
            alone, _ = dist.series_terms(self.LAM[b].max(), self.NU[b])
            assert terms[b] == alone
        assert mode[0] == pytest.approx(7.0 ** (1 / 0.6))

    def test_divergence_and_truncation_name_the_replicate(self, monkeypatch):
        with pytest.raises(DivergentSeriesError):
            dist.log_term_table([[0.5, 0.9], [0.5, 1.5]], [0.0, 0.0])
        dist.log_term_table([[0.5, 0.9], [0.5, 1.5]], [0.0, 1.0])    # lambda >= 1 only at nu = 1
        monkeypatch.setattr(dist, "MAX_TERMS", 100)
        with pytest.raises(TruncationError, match="nu=0.01"):
            dist.log_term_table([[2.0], [0.999]], [1.0, 0.01])

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError, match="nu must be nonnegative"):
            dist.log_term_table([[1.0, 2.0], [1.0, 2.0]], [1.0, -0.5])

    def test_mode_overflow_is_typed(self):
        with pytest.raises(OverflowError):
            dist.log_term_table([[2.0], [50.0]], [1.0, 1e-3])


class TestLogTermBits:
    """The log terms are one small matrix product per replicate; they must
    equal the elementwise passes (s*log(lam) - nu*log(s!)) - c bit for bit,
    so a BLAS that sums the product in another order fails here."""

    @pytest.mark.parametrize("lam,nu", [
        ([[2220.202747141367]], [1.3949507939624215]),
        ([[2220.202747141367, 35.0]], [1.3949507939624215]),
        (TestStackedTable.LAM, TestStackedTable.NU),
    ], ids=["one row", "two rows", "one nu per replicate"])
    def test_terms_and_pmf_equal_the_elementwise_passes(self, lam, nu):
        lam, nu = np.asarray(lam, dtype=float), np.asarray(nu, dtype=float)
        tab = dist.log_term_table(lam, nu)
        nu_lf = nu[:, None] * log_factorials(len(tab.s) - 1)[: len(tab.s)]
        terms = (tab.s * np.log(lam)[..., None] - nu_lf[:, None, :]).reshape(-1, len(tab.s))
        assert np.array_equal(tab.log_terms, terms)
        _, pmf = dist.pmf_table(lam, nu)
        assert np.array_equal(pmf, np.exp(terms - tab.log_z[:, None]))


class TestSeriesSizing:
    """series_terms starts each table where its largest lambda's terms have
    fallen 2^-64 below their peak, so one table below MAX_TERMS is enough."""

    @staticmethod
    def cut(lam, nu):
        """First s past the mode whose term is 2^-64 below the peak, or None
        when that lies beyond 2 * MAX_TERMS."""
        s = np.arange(2 * dist.MAX_TERMS + 1, dtype=float)
        mode = int(np.floor(lam ** (1.0 / nu))) if nu > 0 else 0
        if mode >= len(s):
            return None
        log_t = s * np.log(lam) - nu * log_factorials_ld(len(s))
        past = (s > mode) & (log_t < log_t[mode] - 64.0 * np.log(2.0))
        return int(np.argmax(past)) if past.any() else None

    @staticmethod
    def reference(lam, nu, n_terms):
        """log Z and the raw moments over s < n_terms, by a max-shifted
        (logsumexp) sum in long double."""
        s = np.arange(n_terms, dtype=float)
        lf = log_factorials_ld(n_terms)
        log_t = (s * np.log(lam) - nu * lf).astype(np.longdouble)
        t = np.exp(log_t - log_t.max())
        raw = [(t * w).sum() / t.sum() for w in (s, lf, s * s, s * lf, lf * lf)]
        return float(log_t.max() + np.log(t.sum())), np.array(raw, dtype=float)

    @pytest.mark.parametrize("nu", np.geomspace(0.05, 20.0, 10))
    def test_support_ends_at_most_a_step_past_the_cut(self, nu):
        for lam in np.geomspace(1e-3, 5e3, 20):
            cut = self.cut(lam, nu)
            if cut is None or cut > dist.MAX_TERMS:
                continue
            terms, _ = dist.series_terms(lam, nu)
            tab = dist.log_term_table(lam, nu)
            assert len(tab.s) == terms + 1, (lam, nu)
            assert cut <= terms <= max(64, cut + dist.TERMS_STEP), (lam, nu, cut, terms)
            # Z to 1e-15 relative, i.e. log Z to 1e-15 absolute (relative past 1)
            log_z, raw = self.reference(lam, nu, 2 * len(tab.s))
            assert abs(tab.log_z[0] - log_z) <= 1e-15 * max(1.0, abs(log_z)), (lam, nu)
            assert np.allclose(tab.raw[0], raw, rtol=1e-15, atol=0), (lam, nu)

    def test_mode_at_or_past_the_cap_gets_the_cap(self, monkeypatch):
        assert dist.series_terms(10_200.0, 1.0)[0] == dist.MAX_TERMS == 10_000
        built, support = [], dist._support
        monkeypatch.setattr(dist, "_support", lambda n: built.append(n) or support(n))
        with pytest.raises(TruncationError, match="after 10000 terms"):
            dist.log_term_table(10_200.0, 1.0)
        assert built == [10_000]    # one table, then the guard raises
        monkeypatch.setattr(dist, "MAX_TERMS", 100)
        assert dist.series_terms(169.5, 1.0)[0] == 100

    def test_geometric_near_one_needs_no_doubling(self):
        # nu = 0, lambda = 0.99: about 4400 terms, sized in one go
        terms, _ = dist.series_terms(0.99, 0.0)
        tab = dist.log_term_table(0.99, 0.0)
        assert 4400 <= terms <= 4400 + 2 * dist.TERMS_STEP
        assert len(tab.s) == terms + 1
        assert tab.log_z[0] == pytest.approx(-math.log1p(-0.99), rel=1e-14)


def centred_reference(lam, nu, n_terms):
    """Per lambda: E Y, var Y, cov(Y, log Y!) and var(log Y!), summed in
    long double over s < n_terms, with moments centred before squaring."""
    s = np.arange(n_terms, dtype=np.longdouble)
    lf = np.concatenate([[0.0], np.cumsum(np.log(s[1:]))]).astype(np.longdouble)
    log_t = np.log(np.asarray(lam, dtype=np.longdouble))[:, None] * s - np.longdouble(nu) * lf
    p = np.exp(log_t - log_t.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    ds = s - (p * s).sum(axis=1, keepdims=True)
    dlf = lf - (p * lf).sum(axis=1, keepdims=True)
    return ((p * s).sum(axis=1), (p * ds * ds).sum(axis=1), (p * ds * dlf).sum(axis=1),
            (p * dlf * dlf).sum(axis=1))


class TestKernelAccuracy:
    """Raw moments from the kernel against a centred long-double reference
    on a wider support, to 1e-9 relative per row."""

    @pytest.fixture(autouse=True)
    def wide_cap(self, monkeypatch):
        # a mean of 9000 at nu = 0.2 needs ~12 000 terms
        monkeypatch.setattr(dist, "MAX_TERMS", 40_000)

    def assert_rows_accurate(self, lam, nu):
        tab = dist.log_term_table(lam, nu)
        mean, _, var, cov_lf, var_lf = tab.moments()
        ref = centred_reference(lam, nu, 2 * len(tab.s) + 64)
        for got, want in zip((mean, var, cov_lf, var_lf), ref):
            want = want.astype(float)
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want)), (got, want)

    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0, 3.0, 10.0, 30.0, 41.0])
    def test_rows_with_means_from_0_01_to_9000(self, nu):
        mu = np.geomspace(0.01, 9000.0, 12)
        # lambda whose mean is near mu: the inverse of the approximation
        # mean ~ lambda^(1/nu) - (nu-1)/(2 nu) where it exceeds 1, else mu
        shifted = mu + (nu - 1.0) / (2.0 * nu)
        lam = np.where(shifted > 1.0, np.maximum(shifted, 1.0) ** nu, mu)
        self.assert_rows_accurate(lam, nu)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 3.0, 10.0])
    def test_one_replicate_with_modes_from_0_05_to_3000(self, nu):
        self.assert_rows_accurate(np.geomspace(0.05, 3000.0, 12) ** nu, nu)


class TestLogPmf:
    def test_poisson_at_zero(self):
        assert log_pmf(0, ComParams(1.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_geometric_pmf(self):
        # (1-lambda) lambda^y at lambda=0.5, y=3
        assert log_pmf(3, ComParams(0.5, 0.0)) == pytest.approx(
            4 * math.log(0.5), abs=1e-12
        )

    def test_oracle_value(self):
        assert log_pmf(2, ComParams(2.0, 1.5)) == pytest.approx(
            ORACLE_LOGPMF_2_2_15, rel=1e-11
        )

    def test_rejects_negative_y(self):
        with pytest.raises(ValueError):
            log_pmf(-1, ComParams(1.0, 1.0))

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_normalization_on_grid(self, lam, nu):
        s, pmf = dist.pmf_table(lam, nu)
        assert pmf[0].sum() == pytest.approx(1.0, abs=10 * dist.REL_TOL)


class TestSpecialCaseCollapse:
    def test_poisson_pointwise(self):
        lam = 2.7
        for y in range(40):
            poisson = y * math.log(lam) - lam - math.lgamma(y + 1)
            assert log_pmf(y, ComParams(lam, 1.0)) == pytest.approx(
                poisson, abs=1e-12
            )

    def test_geometric_pointwise(self):
        lam = 0.6
        for y in range(40):
            geometric = math.log(1 - lam) + y * math.log(lam)
            assert log_pmf(y, ComParams(lam, 0.0)) == pytest.approx(
                geometric, abs=1e-12
            )

    @pytest.mark.parametrize("lam", [0.4, 1.0, 3.0])
    def test_bernoulli_limit(self, lam):
        p = ComParams(lam, 200.0)
        mass01 = math.exp(log_pmf(0, p)) + math.exp(log_pmf(1, p))
        assert mass01 >= 1 - 1e-8
        ratio = math.exp(log_pmf(1, p) - log_pmf(0, p))
        assert ratio == pytest.approx(lam, rel=1e-6)


class TestConsecutiveRatio:
    def test_poisson_ratio(self):
        assert consecutive_ratio(4, ComParams(2.0, 1.0)) == pytest.approx(2.0)

    def test_geometric_ratio(self):
        assert consecutive_ratio(4, ComParams(0.5, 0.0)) == pytest.approx(2.0)
        assert consecutive_ratio(4, ComParams(0.5, 0.0)) == pytest.approx(1 / 0.5)

    def test_direct_formula(self):
        assert consecutive_ratio(3, ComParams(1.7, 2.2)) == pytest.approx(
            3**2.2 / 1.7
        )

    @pytest.mark.parametrize("y", [0, -1, 1.5])
    def test_rejects_y_not_a_positive_integer(self, y):
        with pytest.raises(ValueError, match=f"y must be a positive integer, got {y}"):
            consecutive_ratio(y, ComParams(2.0, 1.0))

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_matches_pmf_ratio_on_grid(self, lam, nu):
        p = ComParams(lam, nu)
        for y in range(1, 51):
            lhs = math.exp(log_pmf(y - 1, p) - log_pmf(y, p))
            assert lhs == pytest.approx(consecutive_ratio(y, p), rel=1e-10)


class TestMoments:
    def test_poisson_mean_var(self):
        p = ComParams(1.0, 1.0)
        assert mean_exact(p) == pytest.approx(1.0, rel=1e-10)
        assert var_exact(p) == pytest.approx(1.0, rel=1e-10)

    def test_geometric_mean_var(self):
        p = ComParams(0.5, 0.0)
        assert mean_exact(p) == pytest.approx(1.0, rel=1e-10)
        assert var_exact(p) == pytest.approx(2.0, rel=1e-10)

    def test_oracle_values(self):
        p = ComParams(2.0, 1.5)
        assert mean_exact(p) == pytest.approx(ORACLE_MEAN_2_15, rel=1e-10)
        assert var_exact(p) == pytest.approx(ORACLE_VAR_2_15, rel=1e-10)

    def test_series_mean_near_approx_at_16_2(self):
        p = ComParams(16.0, 2.0)
        m = mean_exact(p)
        assert m == pytest.approx(ORACLE_MEAN_16_2, rel=1e-10)
        assert abs(m - mean_approx(p.lam, p.nu)) / m < 0.02

    def test_mean_approx_formula(self):
        assert mean_approx(16.0, 2.0) == pytest.approx(3.75)
        assert mean_approx(3.0, 1.0) == pytest.approx(3.0)
        assert mean_approx(2.0, 0.5) == pytest.approx(4.5)

    def test_mean_approx_per_entry(self):
        lam = np.array([16.0, 40.0, 250.0])
        expected = [mean_approx(float(v), 2.0) for v in lam]
        assert np.allclose(mean_approx(lam, 2.0), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("lam,nu,valid", [
        (0.5, 0.0, False), (0.5, 1e-6, True), (0.5, 1.0, True), (50.0, 1.5, True), (5.0, 1.5, False),
        (1e300, 400.0, False)])    # 10^400 overflows a double
    def test_approx_mean_valid(self, lam, nu, valid):
        assert dist.approx_mean_valid(lam, nu) is valid

    def test_mean_approx_rejects_nu_zero(self):
        with pytest.raises(ValueError):
            mean_approx(0.5, 0.0)

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_mean_matches_logz_derivative(self, lam, nu):
        # Eq. identity: E(Y) = d log Z / d log lambda
        h = 1e-6
        up = log_normalizer(ComParams(lam * math.exp(h), nu))
        dn = log_normalizer(ComParams(lam * math.exp(-h), nu))
        fd = (up - dn) / (2 * h)
        assert mean_exact(ComParams(lam, nu)) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_var_matches_mean_derivative(self, lam, nu):
        # var(Y) = d E(Y) / d log lambda
        h = 1e-6
        up = mean_exact(ComParams(lam * math.exp(h), nu))
        dn = mean_exact(ComParams(lam * math.exp(-h), nu))
        fd = (up - dn) / (2 * h)
        assert var_exact(ComParams(lam, nu)) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_moment_recursion_first(self, lam, nu):
        # Shift identity behind the r=0 branch: E(Y) = lambda E[(Y+1)^(1-nu)]
        p = ComParams(lam, nu)
        recursed = lam * expect_fn(p, lambda s: (s + 1.0) ** (1.0 - nu))
        assert mean_exact(p) == pytest.approx(recursed, rel=1e-4)

    @pytest.mark.parametrize("lam,nu", GRID)
    def test_moment_recursion_second(self, lam, nu):
        # E(Y^2) = lambda d/dlambda E(Y) + E(Y)^2, derivative by central
        # finite difference
        p = ComParams(lam, nu)
        direct = expect_fn(p, lambda s: s**2.0)
        h = 1e-6 * max(lam, 1.0)
        up = mean_exact(ComParams(lam + h, nu))
        dn = mean_exact(ComParams(lam - h, nu))
        recursed = lam * (up - dn) / (2 * h) + mean_exact(p) ** 2
        assert direct == pytest.approx(recursed, rel=1e-4)

    @pytest.mark.parametrize("lam,nu", [(l, n) for l, n in GRID if n > 0])
    def test_e_y_to_nu_equals_lambda(self, lam, nu):
        p = ComParams(lam, nu)
        assert expect_fn(p, lambda s: s**nu) == pytest.approx(lam, rel=1e-6)

    @pytest.mark.parametrize(
        "lam,nu",
        [
            (l, n)
            for l, n in GRID
            # the var ~ mean/nu relation drops the (nu-1)/(2 nu) mean
            # correction, so it needs the leading term lambda^(1/nu) to
            # dominate on top of the stated accuracy region
            if (n <= 1 or l > 10**n) and l ** (1.0 / n) >= 2.0
        ],
    )
    def test_dispersion_direction(self, lam, nu):
        ratio = var_exact(ComParams(lam, nu)) / mean_exact(ComParams(lam, nu))
        assert abs(ratio - 1.0 / nu) <= 0.15 / nu


class TestExpectFn:
    def test_identity_is_mean(self):
        p = ComParams(1.0, 1.0)
        assert expect_fn(p, lambda s: s) == pytest.approx(1.0, rel=1e-10)

    def test_y_to_nu(self):
        p = ComParams(2.0, 1.5)
        assert expect_fn(p, lambda s: s**1.5) == pytest.approx(2.0, rel=1e-10)

    def test_log_factorial_oracle(self):
        from scipy.special import gammaln

        p = ComParams(2.0, 1.5)
        assert expect_fn(p, lambda s: gammaln(s + 1.0)) == pytest.approx(
            ORACLE_ELOGFACT_2_15, rel=1e-10
        )

    def test_rejects_nonfinite_f(self):
        with pytest.raises(ValueError):
            expect_fn(ComParams(1.0, 1.0), lambda s: np.where(s == 0, np.inf, 1.0))


class TestCdfQuantile:
    def test_poisson_cdf_at_zero(self):
        assert cdf(0, ComParams(1.0, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_cdf_tends_to_one(self):
        assert cdf(200, ComParams(2.0, 0.5)) == pytest.approx(1.0, abs=1e-10)

    def test_cdf_oracle(self):
        assert cdf(2, ComParams(2.0, 1.5)) == pytest.approx(
            ORACLE_CDF_2_2_15, rel=1e-10
        )

    def test_cdf_nondecreasing(self):
        p = ComParams(2.0, 0.5)
        values = [cdf(y, p) for y in range(30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cdf_rejects_negative_y(self):
        with pytest.raises(ValueError, match="y must be a nonnegative integer, got -1"):
            cdf(-1, ComParams(1.0, 1.0))

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_rejects_q_outside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match=rf"q must lie in \(0, 1\), got {q}"):
            quantile(q, ComParams(1.0, 1.0))

    def test_poisson_median(self):
        assert quantile(0.5, ComParams(1.0, 1.0)) == 1

    def test_small_q_gives_zero(self):
        assert quantile(1e-12, ComParams(2.0, 1.5)) == 0

    def test_quantile_oracle(self):
        assert quantile(0.9, ComParams(2.0, 1.5)) == ORACLE_Q90_2_15

    @given(
        q=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        y=st.integers(min_value=0, max_value=40),
        case=st.sampled_from(GRID),
    )
    @settings(max_examples=120, deadline=None)
    def test_galois_connection(self, q, y, case):
        lam, nu = case
        p = ComParams(lam, nu)
        assert (quantile(q, p) <= y) == (q <= cdf(y, p))


class TestSample:
    def test_reproducible(self):
        p = ComParams(1.0, 1.0)
        a = sample(p, np.random.default_rng(42), size=100)
        b = sample(p, np.random.default_rng(42), size=100)
        assert np.array_equal(a, b)

    def test_scalar_draw_is_an_int(self):
        p = ComParams(2.0, 1.5)
        draw = sample(p, np.random.default_rng(42))
        assert type(draw) is int
        assert draw == sample(p, np.random.default_rng(42), size=1)[0]

    def test_geometric_empirical_mean(self):
        p = ComParams(0.5, 0.0)
        draws = sample(p, np.random.default_rng(7), size=100_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_poisson_distribution_match(self):
        from scipy.stats import chisquare, poisson

        draws = sample(ComParams(1.0, 1.0), np.random.default_rng(3), size=50_000)
        kmax = 8
        observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        probs = poisson.pmf(np.arange(kmax), 1.0)
        probs = np.append(probs, 1 - probs.sum())
        _, pval = chisquare(observed, probs * len(draws))
        assert pval > 1e-4

    def test_com_chi2_goodness_of_fit(self):
        from scipy.stats import chisquare

        p = ComParams(2.0, 1.5)
        draws = sample(p, np.random.default_rng(11), size=50_000)
        s, pmf = dist.pmf_table(p.lam, p.nu)
        kmax = 7
        observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        probs = np.append(pmf[0][:kmax], pmf[0][kmax:].sum())
        _, pval = chisquare(observed, probs * len(draws))
        assert pval > 1e-4

    def test_inverse_cdf_is_left_search(self):
        rng = np.random.default_rng(8)
        # the support is sized for lambda = 400: the other rows' tails
        # underflow to 0, flat stretches in the CDF
        lam = np.append(rng.uniform(0.05, 3.0, size=24), 400.0)
        tab = dist.log_term_table(lam, 1.0)
        _, pmf = dist.pmf_table(lam, 1.0)
        cum = np.cumsum(pmf, axis=1)
        last = cum.shape[1] - 1
        u = np.concatenate([rng.uniform(size=20), cum[20:, 3]])     # ties
        expected = [np.searchsorted(cum[i], u[i], side="left") for i in range(25)]
        assert np.array_equal(dist.inverse_cdf(tab, u), np.minimum(expected, last))
        # u above the retained mass clips to the last support point
        assert np.array_equal(dist.inverse_cdf(tab, np.nextafter(cum[:, -1], 2.0)),
                              np.full(25, last))

    @pytest.mark.parametrize("seed", range(24))
    def test_streamed_inverse_cdf_is_left_search_on_tables(self, seed):
        # bit for bit the left search of each whole cumulated pmf row, on
        # tables of 1 to 300 rows from the geometric branch to nu = 8
        rng = np.random.default_rng(seed)
        nu = 0.0 if seed % 6 == 0 else float(rng.uniform(0.05, 8.0))
        n = int(rng.integers(1, 301)) if seed % 4 else 1 + seed // 4    # one-row tables too
        lam = (rng.uniform(0.01, 0.99, n) if nu == 0
               else np.exp(nu * rng.uniform(-2.0, np.log(200.0), n)))   # modes up to 200
        tab = dist.log_term_table(lam, nu)
        _, pmf = dist.pmf_table(lam, nu)
        cum = np.cumsum(pmf, axis=1)
        width = cum.shape[1]

        def left(u):
            return np.minimum([np.searchsorted(c, v, "left") for c, v in zip(cum, u)], width - 1)

        u = rng.uniform(size=(6, n))
        u[0], u[1] = 0.0, 1.0
        u[2] = cum[np.arange(n), rng.integers(0, width, n)]    # ties with a cumulative entry
        u[3] = np.nextafter(cum[:, -1], 2.0)                   # above the retained mass
        assert np.array_equal(dist.inverse_cdf(tab, u), [left(row) for row in u])
        q = float(rng.uniform())
        assert np.array_equal(dist.inverse_cdf(tab, q), left(np.full(n, q)))

    def test_sample_many_on_no_lambda(self):
        draws = dist.sample_many(np.array([]), 1.5, np.random.default_rng(5))
        assert draws.dtype == np.int64 and draws.shape == (0,)
        assert draws.dtype == sample(ComParams(2.0, 1.5), np.random.default_rng(5), size=0).dtype

    def test_sample_many_matches_scalar_stream_independence(self):
        lam = np.array([0.5, 1.0, 2.0])
        a = dist.sample_many(lam, 1.5, np.random.default_rng(5))
        b = dist.sample_many(lam, 1.5, np.random.default_rng(5))
        assert np.array_equal(a, b)
