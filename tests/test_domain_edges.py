"""Inputs at the edge of the accepted domain: finite results or a
ValueError that names the offending argument."""

import math

import mpmath as mp
import numpy as np
import pytest

from spinqec.cli import main
from spinqec.coherent import SphPoint, coherent_amplitudes, disentangle_check, overlap_magnitude, y_symbol
from spinqec.lll_codes import (
    build_codewords,
    cyclic_normalization,
    cyclic_overlap_closed_form,
    cyclic_qubit,
    equatorial_qudit,
)
from spinqec.qec_check import (
    ErrorSet,
    conjugated_y,
    conjugated_z_about_x,
    correctable_angle,
    equatorial_offdiag_bound,
    equatorial_z,
    explicit_list,
    kl_check,
)
from spinqec.recovery import finite_ancilla_note, recover, tail_failure
from spinqec.rotations import EulerAngles, canonicalize, compose, haar_random_sequence, inverse
from spinqec.spin_core import HalfInt, axis_operator, matexp_antihermitian


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_halfint_rejects_non_finite(value):
    with pytest.raises(ValueError, match="value must be a finite half-integer"):
        HalfInt.of(value)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: equatorial_z(math.nan, 8), "max_angle"),
        (lambda: equatorial_z(math.inf, 8), "max_angle"),
        (lambda: conjugated_y(math.nan, 0.1), "phi0"),
        (lambda: conjugated_z_about_x(0.1, math.nan), "x_angle"),
        (lambda: ErrorSet("EquatorialZ", max_angle=0.1, phi0=-math.inf), "phi0"),
    ],
)
def test_error_set_rejects_non_finite(make, name):
    with pytest.raises(ValueError, match=name):
        make()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: compose(EulerAngles(math.nan, 0.1, 0.2), EulerAngles(0.0, 0.0, 0.0)), "alpha"),
        (lambda: canonicalize(EulerAngles(math.inf, 0.3, 0.0)), "alpha"),
        (lambda: inverse(EulerAngles(0.1, 0.2, -math.inf)), "gamma"),
        (lambda: explicit_list([EulerAngles.identity(), EulerAngles(0.1, math.nan, 0.0)]), "beta"),
    ],
    ids=["compose-nan", "canonicalize-inf", "inverse-inf", "explicit_list-nan"],
)
def test_rotation_callers_reject_non_finite_angles(call, name):
    # each of these used to return nan angles with sign -1, or keep the inf
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()


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


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: axis_operator(3, (math.nan, 0.0, 0.0)), "axis"),
        (lambda: matexp_antihermitian(axis_operator(3, (0.0, 1.0, 0.0)), math.nan), "t"),
        (lambda: matexp_antihermitian(axis_operator(3, (0.0, 1.0, 0.0)), math.inf), "t"),
        (lambda: matexp_antihermitian(axis_operator(3, (0.0, 1.0, 0.0)), -math.inf), "t"),
    ],
    ids=["axis_operator-nan", "matexp-nan", "matexp-inf", "matexp-minus-inf"],
)
def test_spin_core_rejects_non_finite_input(call, name):
    # these used to return a NaN matrix, or warn and return one
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: correctable_angle(0, 2, 0.1), "j must be positive"),
        (lambda: equatorial_offdiag_bound(4, 0, 0.1), "d must be at least 2"),
        (lambda: disentangle_check(200, SphPoint(2.8, 0.0)), r"^j = 200, theta = 2\.8: .* double range"),
    ],
    ids=["correctable_angle-spin-0", "equatorial_offdiag_bound-d-0", "disentangle_check-scale-overflow"],
)
def test_closed_form_bounds_reject_empty_domain(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: equatorial_offdiag_bound(4, 3, math.nan), "t_max"),
        (lambda: equatorial_offdiag_bound(4, 3, math.inf), "t_max"),
        (lambda: cyclic_normalization(8, 0), "n_cosets"),
        (lambda: cyclic_normalization(8, -2), "n_cosets"),
        (lambda: cyclic_overlap_closed_form(8, 0, 0.3), "n_cosets"),
        (lambda: cyclic_overlap_closed_form(8, 3, math.nan), "big_theta"),
        (lambda: cyclic_overlap_closed_form(8, 3, -math.inf), "big_theta"),
        (lambda: SphPoint(0.3, math.nan), "phi"),
        (lambda: SphPoint(0.3, math.inf), "phi"),
        (lambda: SphPoint(math.nan, 0.3), "theta"),
        (lambda: finite_ancilla_note(8, 4, runs=0), "runs"),
        (lambda: finite_ancilla_note(8, 4, runs=-2), "runs"),
        (lambda: haar_random_sequence(3, -1), "count"),
    ],
    ids=[
        "equatorial_offdiag_bound-nan",
        "equatorial_offdiag_bound-inf",
        "cyclic_normalization-N-0",
        "cyclic_normalization-N-negative",
        "cyclic_overlap_closed_form-N-0",
        "cyclic_overlap_closed_form-nan",
        "cyclic_overlap_closed_form-inf",
        "SphPoint-phi-nan",
        "SphPoint-phi-inf",
        "SphPoint-theta-nan",
        "finite_ancilla_note-runs-0",
        "finite_ancilla_note-runs-negative",
        "haar_random_sequence-count-negative",
    ],
)
def test_overlap_law_callers_reject_bad_input(call, name):
    # each of these used to come back as a silent number (1.0, 0.0, -0.0,
    # means of nan), an empty list, a ZeroDivisionError or a numpy warning
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()


@pytest.mark.parametrize(
    "call,j,n",
    [
        (lambda: cyclic_normalization(100, 190), 100, 190),
        (lambda: build_codewords(cyclic_qubit(100, 190)), 100, 190),
        (lambda: cyclic_normalization(40, 100), 40, 100),
        (lambda: cyclic_normalization(100, 250), 100, 250),
        (lambda: cyclic_normalization(100, 150), 100, 150),
        (lambda: cyclic_normalization(20, 41), 20, 41),
        (lambda: cyclic_overlap_closed_form(40, 100, 0.1), 40, 100),
        (lambda: cyclic_overlap_closed_form(10000, 15000, 0.1), 10000, 15000),
    ],
    ids=[
        "cyclic_normalization-100-190",
        "build_codewords-100-190",
        "cyclic_normalization-40-100",
        "cyclic_normalization-100-250",
        "cyclic_normalization-100-150",
        "cyclic_normalization-20-41",
        "cyclic_overlap_closed_form-40-100",
        "cyclic_overlap_closed_form-10000-15000",
    ],
)
def test_cyclic_closed_forms_reject_n_near_2j(call, j, n):
    # The N-term roots-of-unity sum is good to about N^2 2^-53, absolute, and
    # here the normalization is below that.  These came back as -1.48e-13
    # (exact 5.04e-40; build_codewords then hit a math domain error), as a
    # value 2.3e-6 relative off at (100, 150), and as overlaps of magnitude
    # 0.354 and 1.205 where the exact magnitude is at most 1.
    with pytest.raises(ValueError, match=rf"^j = {j}, n_cosets = {n}: "):
        call()


@pytest.mark.parametrize("j,n", [(7, 16), (8, 16), (1000, 300), (2000, 300), (10**5, 300)])
def test_cyclic_normalization_kept_next_to_the_guard(j, n):
    with mp.workdps(30):
        total = mp.fsum(mp.binomial(2 * j, k) for k in range(0, 2 * j + 1, n))
        exact = float(n * n * total / mp.mpf(2) ** (2 * j))
    assert abs(cyclic_normalization(j, n) / exact - 1.0) < 2.0**-20


@pytest.mark.parametrize(
    "call",
    [
        lambda: equatorial_offdiag_bound(0, 2, 0.0),
        lambda: overlap_magnitude(0, SphPoint.north(), SphPoint.south()),
    ],
    ids=["equatorial_offdiag_bound-spin-0", "overlap_magnitude-spin-0-antipodal"],
)
def test_spin_zero_powers_are_one(call):
    # base^0 = 1 also where base = 0, as overlap(0, north, south) is
    assert call() == 1.0


@pytest.mark.parametrize("delta_phi", [math.nan, math.inf])
def test_recover_rejects_non_finite_delta(delta_phi):
    with pytest.raises(ValueError, match="delta_phi"):
        recover(8, 2, 0, delta_phi, 0)


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


def _mp_tail_ratio(j, eps):
    """Tail mass over the Laplace reference, from a 30-digit quadrature of
    cos^(4j)(x/2) split at multiples of its decay length 1/(j eps)."""
    with mp.workdps(30):
        j, eps = mp.mpf(j), mp.mpf(eps)
        width = 1 / (j * eps)
        cuts = [eps + k * width for k in (0, 1, 4, 16, 64, 256)]
        cuts = [c for c in cuts if c < mp.pi] + [mp.pi]
        tail = 2 * mp.quad(lambda x: mp.exp(4 * j * mp.log(mp.cos(x / 2))), cuts)
        mass = 2 * mp.pi * mp.exp(mp.loggamma(4 * j + 1) - 2 * mp.loggamma(2 * j + 1) - 4 * j * mp.log(2))
        laplace = mp.sqrt(2 / (mp.pi * j)) * mp.exp(-j * eps**2 / 2) / eps
        return float(tail / mass / laplace)


def test_tail_ratio_finite_where_both_tails_underflow():
    est = tail_failure(1e6, 0.1)
    assert est.numeric_tail == 0.0 and est.laplace_tail == 0.0
    assert math.isfinite(est.ratio)
    # the Laplace reference drops the quartic term of log cos, a factor
    # exp(-j eps^4/48) = 0.125 here, so the ratio is far from 1 but exact;
    # the remaining 2e-8 comes from lgamma cancellation at a = 2e6 + 1/2
    assert abs(est.ratio / _mp_tail_ratio(1e6, 0.1) - 1.0) < 1e-7
    # where j eps^4 is small the ratio is near 1 even though both tails underflow
    est = tail_failure(2e7, 0.01)
    assert est.numeric_tail == 0.0 and est.laplace_tail == 0.0
    assert abs(est.ratio - 1.0) < 0.05
    assert abs(est.ratio / _mp_tail_ratio(2e7, 0.01) - 1.0) < 1e-7


def test_tail_ratio_unchanged_where_tails_are_normal():
    est = tail_failure(100, 0.3)
    assert abs(est.ratio - est.numeric_tail / est.laplace_tail) < 1e-14 * est.ratio
    assert abs(est.ratio / _mp_tail_ratio(100, 0.3) - 1.0) < 1e-12
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
    # a difference of log-factorials near 2.9e4, which carries about 3e-12
    # relative; the wigner-d route is the closer of the two.
    from spinqec.monopole import monopole_Y

    jac = monopole_Y(2000, 2000, 10)(theta, 0.2)
    dual = monopole_Y(2000, 2000, 10, route="wigner-d")(theta, 0.2)
    assert np.isfinite(jac) and np.isfinite(dual)
    assert abs(jac - dual) <= 1e-11 * abs(dual) + 1e-300
