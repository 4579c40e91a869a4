"""Inputs at the edge of the accepted domain: finite results or a
ValueError that names the offending argument."""

import math

import numpy as np
import pytest

from spinqec.cli import main
from spinqec.coherent import coherent_amplitudes, y_symbol
from spinqec.lll_codes import build_codewords, equatorial_qudit
from spinqec.qec_check import explicit_list, kl_check
from spinqec.recovery import recover, tail_failure
from spinqec.rotations import EulerAngles
from spinqec.spin_core import HalfInt

from contract import contract_tests
from oracles import tail_ratio_quad

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


@pytest.mark.parametrize(
    "entries,index",
    [([(0.0, 0.1, 0.0)], 0), ([EulerAngles.identity(), EulerAngles.about_z(0.2), [0.0, 0.0, 0.0]], 2)],
    ids=["tuple-first", "list-third"],
)
def test_explicit_list_rejects_entries_that_are_not_rotations(entries, index):
    # the scan used to fail deep inside with an AttributeError on .alpha
    code = build_codewords(equatorial_qudit(4, 2))
    with pytest.raises(TypeError, match=rf"^rotations\[{index}\] must be EulerAngles"):
        kl_check(code, explicit_list(entries), 0)


def test_overlap_curve_rejects_infinite_theta_max(tmp_path, capsys):
    # it used to print nan rows and exit 0
    out = tmp_path / "curve.csv"
    assert main(["overlap-curve", "--theta-max", "inf", "--out", str(out)]) == 2
    assert "theta_max must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("j_anc", [None, 20])
def test_recover_finite_at_j_one_million(j_anc):
    # every overlap of a missed correction underflows at this j; the decode
    # divides by the largest before the solve, so the fidelity stays defined
    for seed in range(4):
        run = recover(10**6, 4, 1, 0.1, seed, j_anc=j_anc)
        assert math.isfinite(run.fidelity) and 0.0 <= run.fidelity <= 1.0 + 1e-12
        assert 0.0 <= run.raw_fidelity <= run.fidelity + 1e-12
        assert run.recovered_k in range(4)
        if j_anc is None:  # the peak width 1/sqrt(j) is far inside the cell
            assert run.recovered_k == 1 and abs(run.fidelity - 1.0) < 1e-12


def test_tail_ratio_finite_where_both_tails_underflow():
    est = tail_failure(1e6, 0.1)
    assert est.numeric_tail == 0.0 and est.laplace_tail == 0.0
    assert math.isfinite(est.ratio)
    # the Laplace reference drops the quartic term of log cos, a factor
    # exp(-j eps^4/48) = 0.125 here, so the ratio is far from 1 but exact;
    # the remaining 2e-8 comes from lgamma cancellation at a = 2e6 + 1/2
    assert abs(est.ratio / tail_ratio_quad(1e6, 0.1) - 1.0) < 1e-7
    # where j eps^4 is small the ratio is near 1 even though both tails underflow
    est = tail_failure(2e7, 0.01)
    assert est.numeric_tail == 0.0 and est.laplace_tail == 0.0
    assert abs(est.ratio - 1.0) < 0.05
    assert abs(est.ratio / tail_ratio_quad(2e7, 0.01) - 1.0) < 1e-7


def test_tail_ratio_unchanged_where_tails_are_normal():
    est = tail_failure(100, 0.3)
    assert abs(est.ratio - est.numeric_tail / est.laplace_tail) < 1e-14 * est.ratio
    assert abs(est.ratio / tail_ratio_quad(100, 0.3) - 1.0) < 1e-12
    assert tail_failure(100, math.pi).ratio == 0.0


@pytest.mark.parametrize("twice_j,twice_m", [(2200, 0), (10000, 9980)])
def test_y_symbol_finite_at_large_j(twice_j, twice_m):
    j, m = HalfInt(twice_j), HalfInt(twice_m)
    thetas = np.array([0.05, 0.4, math.pi / 2.0, 2.9, math.pi])
    phis = np.array([0.0, 1.3, 2.0, 4.5, 6.0])
    got = y_symbol(j, m)(thetas, phis)
    assert np.all(np.isfinite(got))
    row = (twice_j - twice_m) // 2  # m_index counts down from m = j
    want = np.conj(coherent_amplitudes(j, thetas, phis)[row])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert np.abs(y_symbol(j, m)(0.4, 1.3) - got[1]) <= 1e-12 * np.abs(got[1])


@pytest.mark.parametrize("theta", [0.3, 1.2, math.pi / 2.0])
def test_monopole_jacobi_route_finite_at_l_2000(theta):
    # the factorial prefactor here is exp(1385): it joins the recurrence's
    # power-of-two exponent instead of overflowing; the value at 0.3 underflows
    # in both routes, near pi/2 it is about 2.  The jacobi route's prefactor is
    # the square root of an exact integer ratio; the routes differ by 3.4e-13
    # at most here, where a difference of log-factorials near 2.9e4 left 3e-12.
    from spinqec.monopole import monopole_Y

    jac = monopole_Y(2000, 2000, 10)(theta, 0.2)
    dual = monopole_Y(2000, 2000, 10, route="wigner-d")(theta, 0.2)
    assert np.isfinite(jac) and np.isfinite(dual)
    assert abs(jac - dual) <= 4e-12 * abs(dual) + 1e-300
