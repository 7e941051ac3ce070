"""The numpy special functions against long-double, mpmath and scipy references."""

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.special import expit as scipy_expit

from comreg import _special


def long_double_log_factorials(n):
    """log k! for k < n, summed in long double with k running from 1 upwards."""
    logs = np.log(np.arange(1, n, dtype=np.longdouble))
    return np.concatenate([[0.0], np.cumsum(logs)]).astype(float)


def ulps_from(got, exact):
    return np.abs(got - exact) / np.spacing(np.abs(exact))


class TestLogFactorial:
    def test_table_matches_long_double_reference_as_it_grows(self, monkeypatch):
        monkeypatch.setattr(_special, "_table", np.zeros(1))
        ref = long_double_log_factorials(100_001)
        first = _special.log_factorials(10)
        assert len(first) == 4096
        assert np.array_equal(first, ref[:4096])
        grown = _special.log_factorials(100_000)
        assert len(grown) == 131_072
        assert np.array_equal(grown[:100_001], ref)
        assert np.array_equal(_special.log_factorial(np.arange(100_001.0)), ref)
        assert not grown.flags.writeable

    def test_within_an_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        k = np.unique(np.concatenate([np.arange(2, 300), np.geomspace(300, 100_000, 400)
                                      .astype(int)]))
        exact = np.array([float(mpmath.loggamma(int(v) + 1)) for v in k])
        assert ulps_from(_special.log_factorial(k), exact).max() <= 1.0

    def test_stirling_past_the_table_within_an_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        k = np.array([_special.TABLE_LIMIT - 1, _special.TABLE_LIMIT, _special.TABLE_LIMIT + 1,
                      10**7, 10**9, 10**12, 3, 0])
        got = _special.log_factorial(k)
        exact = np.array([float(mpmath.loggamma(int(v) + 1)) for v in k])
        assert got[-1] == 0.0
        assert ulps_from(got[:-1], exact[:-1]).max() <= 1.0

    def test_scalar_and_integer_input(self):
        assert _special.log_factorial(5) == pytest.approx(np.log(120.0), rel=1e-15)
        assert _special.log_factorial(np.array([0, 1], dtype=np.int64)).tolist() == [0.0, 0.0]


def test_expit_matches_scipy_without_warnings():
    x = np.concatenate([np.linspace(-40.0, 40.0, 2001), [-800.0, 800.0]])
    got = _special.expit(x)
    assert np.allclose(got, scipy_expit(x), rtol=1e-15, atol=0)
    assert got[-2] == 0.0 and got[-1] == 1.0


def test_chi2_survival_matches_scipy():
    x = np.linspace(0.0, 60.0, 6001)
    got = np.array([_special.chi2_sf_1df(v) for v in x])
    assert np.abs(got - chdtrc(1, x)).max() <= 3e-14
