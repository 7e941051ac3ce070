"""The special functions comreg needs, from numpy and math alone.

The COM-Poisson GLM is an exponential family in (Y, log Y!), so the one
special function of the likelihood is log k! at integer k.  It comes
from one read-only table, the long-double running sum of log k rounded
once to double (within an ulp of the exact value), grown on demand; past
TABLE_LIMIT Stirling's series in long double takes over.  The ulp bound
needs numpy's long double to carry a 64-bit mantissa (the x87 type of
x86-64 Linux); where it is plain double the running sum drifts by up
to about 60 ulp over k <= 10^5.  The logistic function and the
chi^2_1 survival function have closed forms.
"""

from __future__ import annotations

import math

import numpy as np

TABLE_LIMIT = 1 << 20    # log k! comes from the table below this k, from Stirling's series above

_HALF_LOG_2PI = np.longdouble("0.918938533204672741780329736405617639861")
_table = np.zeros(1)     # log k! for k = 0..len - 1; replaced, never written, when it grows


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n at least: the shared read-only table.

    The table is the cumulative sum of log 1, ..., log k in long double,
    rounded to double, so entry k does not depend on the table's length;
    it grows to the next power of two (at least 4096 entries) when asked
    past its end.
    """
    global _table
    if n >= len(_table):
        size = max(4096, 1 << int(n).bit_length())
        table = np.zeros(size)
        table[1:] = np.cumsum(np.log(np.arange(1, size, dtype=np.longdouble)))
        table.flags.writeable = False
        _table = table
    return _table


def log_factorial(k) -> np.ndarray:
    """log k! elementwise for nonnegative integers k (ints or integral floats).

    Below TABLE_LIMIT it is read from the table; at and above it comes
    from Stirling's series for log Gamma(k + 1) in long double, whose
    omitted terms there are below 1e-33.
    """
    k = np.asarray(k)
    top = int(k.max(initial=0))
    if top < TABLE_LIMIT:
        return log_factorials(top)[k.astype(np.intp)]
    x = k.astype(np.longdouble) + 1.0
    big = (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + 1.0 / (12.0 * x) - 1.0 / (360.0 * x**3)
    small = np.minimum(k, TABLE_LIMIT - 1).astype(np.intp)
    return np.where(k < TABLE_LIMIT, log_factorials(TABLE_LIMIT - 1)[small], big.astype(float))


def expit(x):
    """The logistic function 1 / (1 + exp(-x)); exp(-x) may overflow to give 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def chi2_sf_1df(x: float) -> float:
    """P(X > x) for X ~ chi^2 with one degree of freedom: erfc(sqrt(x / 2))."""
    return math.erfc(math.sqrt(x / 2.0))
