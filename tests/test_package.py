"""Package-level properties: the runtime needs numpy and nothing heavier."""

import subprocess
import sys

import numpy as np
from scipy.special import gammaln

from spinqec._logfact import ln_binomial, ln_factorial


def test_import_loads_no_scipy():
    code = (
        "import sys, spinqec\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_ln_factorial_matches_gammaln_bitwise():
    # the log-factorial prefactors reproduce scipy.special.gammaln exactly,
    # so Wigner-d matrices and harmonic tables keep their values bit for bit
    n = np.arange(20001)
    assert np.array_equal(ln_factorial(n), gammaln(n + 1.0))
    assert ln_factorial(170) == gammaln(171.0)
    k = np.arange(41)
    want = gammaln(41.0) - gammaln(k + 1.0) - gammaln(41.0 - k)
    assert np.array_equal(ln_binomial(40, k), want)
