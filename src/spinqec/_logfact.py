"""Log-domain factorials and binomials for stable large-j prefactors.

Arguments are nonnegative integers, so values come from a cached table.
Above 11! the table holds the Stirling series of the Cephes lgam
routine, the algorithm behind scipy.special.gammaln, and reproduces
those values bit for bit.  The table is kept bit-exact so that the
monopole prefactors, and with them the `harmonics` CLI bytes, and the
coherent amplitudes do not move.
"""

import math
from functools import lru_cache

import numpy as np

_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LN_SQRT_2PI = 0.91893853320467274178


def _ln_fact(n: int) -> float:
    if n < 12:
        return math.log(math.factorial(n))
    x = n + 1.0
    p = 1.0 / (x * x)
    series = 0.0
    for c in _STIRLING:
        series = series * p + c
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI + series / x


@lru_cache(maxsize=None)
def _table(size: int) -> np.ndarray:
    """log(n!) for n < size; sizes are powers of two, so few tables exist."""
    table = np.array([_ln_fact(n) for n in range(size)])
    table.setflags(write=False)
    return table


def ln_factorial(n):
    """log(n!) for nonnegative integer scalars or arrays."""
    if isinstance(n, (int, np.integer)):
        n = int(n)
        return float(_table(1 << n.bit_length())[n])
    n = np.asarray(n)
    top = int(n.max()) if n.size else 0
    return _table(1 << top.bit_length())[n]


def ln_binomial(n, k):
    """log C(n, k) for 0 <= k <= n, elementwise."""
    n = np.asarray(n)
    k = np.asarray(k)
    return ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
