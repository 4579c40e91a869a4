"""Azimuth syndrome densities and the measure-correct-decode cycle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from spinqec.recovery import (
    finite_ancilla_note,
    recover,
    single_peak_mass,
    syndrome_density,
    tail_failure,
)
from spinqec.recovery import _correct_and_decode
from spinqec.spin_core import HalfInt


def _dkw_bound(n, alpha=0.01):
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup |F_n - F| > bound) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _ks_statistic(samples, pdf, lo, hi):
    """Kolmogorov-Smirnov distance of the samples from the normalized pdf
    on [lo, hi], its CDF integrated piecewise with quad between sorted samples."""
    xs = np.sort(np.asarray(samples, dtype=float))
    edges = np.concatenate([[lo], xs])
    pieces = [quad(pdf, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])]
    total = sum(pieces) + quad(pdf, xs[-1], hi, limit=200)[0]
    cdf = np.cumsum(pieces) / total
    n = len(xs)
    ranks = np.arange(1, n + 1) / n
    return float(max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n))))


def test_density_validation():
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(5), 2, 0, 0.0)  # half-integer j
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(8), 1, 0, 0.0)
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(8), 2, 0, 0.0, mode="bogus")
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(24), 2, 0, 0.0, mode="validate")  # j over the cap


def test_density_peaks_and_positivity():
    j, d, k, dphi = HalfInt(16), 2, 1, 0.07
    density = syndrome_density(j, d, k, dphi)
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    values = np.asarray(density(phis))
    assert np.all(values >= 0.0)
    # the equal-height peaks sit on the shifted lattice azimuths
    top = phis[int(np.argmax(values))]
    lattice = [dphi % (2.0 * math.pi), (math.pi + dphi) % (2.0 * math.pi)]
    assert min(abs(top - site) for site in lattice) < 0.01
    assert abs(density(0.3) - density(0.3 + math.pi)) / density(0.3) < 1e-10


def test_full_equals_leading_at_d2():
    # at d = 2 the separation factor kills every cross term, so the two
    # modes differ only by evaluation rounding
    j = HalfInt(12)
    leading = syndrome_density(j, 2, 0, 0.11, mode="leading")
    full = syndrome_density(j, 2, 0, 0.11, mode="full")
    phis = np.linspace(0.0, 2.0 * math.pi, 257)
    lead_vals = np.asarray(leading(phis))
    assert np.max(np.abs(np.asarray(full(phis)) - lead_vals)) < 1e-12 * np.max(lead_vals)


def test_full_vs_leading_small_at_d3():
    j = HalfInt(24)
    leading = syndrome_density(j, 3, 0, 0.0, mode="leading")
    full = syndrome_density(j, 3, 0, 0.0, mode="full")
    phis = np.linspace(0.0, 2.0 * math.pi, 257)
    lead_vals = np.asarray(leading(phis))
    diff = np.max(np.abs(np.asarray(full(phis)) - lead_vals))
    assert diff < 1e-3 * np.max(lead_vals)


@pytest.mark.parametrize("twice", [8, 12])
def test_validate_mode_matches_leading_shape(twice):
    # the pre-localization form carries the physical smear, so compare
    # normalized shapes; they agree to about ten percent at these j
    j = HalfInt(twice)
    leading = syndrome_density(j, 2, 0, 0.0, mode="leading")
    validate = syndrome_density(j, 2, 0, 0.0, mode="validate")
    phis = np.linspace(0.0, 2.0 * math.pi, 161)
    lead_vals = np.asarray(leading(phis))
    val_vals = np.asarray(validate(phis))
    assert np.all(val_vals >= -1e-12)
    diff = np.max(np.abs(val_vals / np.max(val_vals) - lead_vals / np.max(lead_vals)))
    assert diff < 0.15
    # the argmax agrees exactly on the shared grid
    assert np.argmax(val_vals) == np.argmax(lead_vals)


def test_single_peak_mass_exact_and_asymptotic():
    # exact binomial mass at j = 3: 2 pi C(12, 6)/2^12
    want = 2.0 * math.pi * math.comb(12, 6) / 4096.0
    assert abs(single_peak_mass(HalfInt(6)) - want) < 1e-13
    ratio = single_peak_mass(HalfInt(200)) / math.sqrt(2.0 * math.pi / 100.0)
    assert abs(ratio - 0.9993751959) < 1e-9


def test_density_mass_counts_peaks():
    # the leading-mode density integrates to d single-peak masses
    j, d = HalfInt(20), 4
    density = syndrome_density(j, d, 0, 0.0)
    mass, _ = quad(lambda p: float(density(p)), 0.0, 2.0 * math.pi, limit=200)
    assert abs(mass - d * single_peak_mass(j)) < 1e-8


def test_tail_failure_frozen_ratios():
    est = tail_failure(HalfInt(200), 0.3)
    assert abs(est.ratio - 0.8914158521) < 1e-9 * est.ratio
    est400 = tail_failure(HalfInt(800), 0.3)
    assert abs(est400.ratio - 0.903412673) < 1e-8 * est400.ratio
    # the laplace reference improves with j at fixed epsilon
    assert abs(est400.ratio - 1.0) < abs(est.ratio - 1.0)
    assert 0.0 < est.numeric_tail < 1.0
    assert est.numeric_tail < tail_failure(HalfInt(100), 0.3).numeric_tail


@pytest.mark.parametrize("j", [0.5, 5, 100, 400, 2000])
def test_tail_failure_matches_quad(j):
    # oracle: the tail integral of cos^(4j)(x/2), scaled by its value at
    # epsilon so quad sees an O(1) integrand, compared in the log domain
    two_j = int(2 * j)
    ln_mass = math.log(single_peak_mass(HalfInt(two_j)))
    for eps in (0.01, 0.2, 0.6, 1.5, 3.0):
        ln_c = math.log(math.cos(0.5 * eps))
        scaled, _ = quad(
            lambda y: math.exp(2 * two_j * (math.log(math.cos(0.5 * y)) - ln_c)),
            eps,
            math.pi,
            epsabs=1e-300,
            epsrel=1e-13,
            limit=400,
        )
        ln_want = math.log(2.0 * scaled) + 2 * two_j * ln_c - ln_mass
        got = tail_failure(HalfInt(two_j), eps).numeric_tail
        if ln_want < -700.0:
            assert got < 1e-300
        else:
            assert abs(got / math.exp(ln_want) - 1.0) < 1e-10, (j, eps, got)


def test_tail_failure_edges():
    est = tail_failure(HalfInt(100), math.pi)
    assert est.numeric_tail == 0.0
    with pytest.raises(ValueError):
        tail_failure(HalfInt(100), 0.0)
    with pytest.raises(ValueError):
        tail_failure(HalfInt(100), 3.5)


def test_correct_and_decode_pinned_peak():
    # landing exactly on the shifted azimuth undoes the drift completely
    for twice, d, k, dphi in ((16, 2, 0, 0.09), (24, 3, 2, -0.21)):
        phi_m = 2.0 * math.pi * k / d + dphi
        recovered_k, fidelity, raw = _correct_and_decode(twice, d, k, dphi, phi_m)
        assert recovered_k == k
        assert abs(fidelity - 1.0) < 1e-12
        assert abs(raw - 1.0) < 1e-12


def test_recover_run_fields_and_determinism():
    run = recover(HalfInt(32), 2, 0, 0.1, seed=5)
    again = recover(HalfInt(32), 2, 0, 0.1, seed=5)
    assert run == again
    assert run.recovered_k in (0, 1)
    assert 0.0 <= run.fidelity <= 1.0 + 1e-12
    assert run.raw_fidelity <= run.fidelity + 1e-12
    assert not run.out_of_cell
    doc = run.to_json_dict()
    assert doc["j"] == 16.0
    assert doc["recovered_k"] == run.recovered_k
    with pytest.raises(ValueError):
        recover(HalfInt(5), 2, 0, 0.0, seed=0)


def test_recover_regression_mean():
    # frozen mean fidelity over one thousand seeded runs
    runs = [recover(HalfInt(128), 2, 0, 0.1, seed=s) for s in range(1000)]
    fidelities = [r.fidelity for r in runs]
    assert all(f > 0.95 for f in fidelities)
    mean = float(np.mean(fidelities))
    assert abs(mean - 0.9999999999999468) < 5e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_recover_fidelity_contract_at_large_j(d):
    for seed in range(3):
        run = recover(2000, d, 1, 0.05, seed=seed)
        assert 0.0 <= run.raw_fidelity <= run.fidelity + 1e-12
        assert run.fidelity <= 1.0 + 1e-12


def test_recover_outcomes_follow_exact_density():
    # the reported azimuths are draws from the normalized leading density
    j, d, k, dphi, n = 16, 2, 1, 0.07, 3000
    density = syndrome_density(j, d, k, dphi)
    phis = [recover(j, d, k, dphi, seed=s).measured_phi for s in range(n)]
    stat = _ks_statistic(phis, lambda p: float(density(p)), 0.0, 2.0 * math.pi)
    assert stat < _dkw_bound(n)


def test_ancilla_blur_follows_its_kernel():
    # the same seed with and without the ancilla shares the true outcome,
    # so the difference is one draw from cos^(4 j_anc)(Delta/2)
    j, j_anc, n = 16, 4, 3000
    blurs = []
    for s in range(n):
        ideal = recover(j, 2, 0, 0.05, seed=s).measured_phi
        noisy = recover(j, 2, 0, 0.05, seed=s, j_anc=j_anc).measured_phi
        blurs.append((noisy - ideal + math.pi) % (2.0 * math.pi) - math.pi)
    kernel = lambda t: math.cos(0.5 * t) ** (4 * j_anc)
    assert _ks_statistic(blurs, kernel, -math.pi, math.pi) < _dkw_bound(n)


def test_recover_boundary_half_cell():
    # on the cell boundary the decoded coset is a coin flip
    wrong = 0
    for seed in range(400):
        run = recover(HalfInt(128), 2, 0, math.pi / 2.0, seed=seed)
        assert run.out_of_cell
        if run.recovered_k != 0:
            wrong += 1
    assert 0.4 < wrong / 400.0 < 0.6


def test_finite_ancilla_gap_small_when_ancilla_large():
    note = finite_ancilla_note(HalfInt(128), HalfInt(1024), runs=200, seed=0)
    assert note.fidelity_gap < 0.01
    assert note.mean_fidelity_ancilla <= note.mean_fidelity_ideal + 1e-12
    note16 = finite_ancilla_note(HalfInt(32), HalfInt(32), runs=100, seed=0)
    assert note16.correct_rate_ancilla > 0.99


def test_finite_ancilla_gap_shrinks_with_ancilla_size():
    small = finite_ancilla_note(HalfInt(16), HalfInt(16), runs=5000, seed=0)
    large = finite_ancilla_note(HalfInt(16), HalfInt(64), runs=5000, seed=0)
    assert small.fidelity_gap > large.fidelity_gap >= 0.0
