"""Azimuth syndrome densities and the measure-correct-decode cycle."""

import fractions
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from spinqec.recovery import (
    AncillaReport,
    finite_ancilla_note,
    recover,
    single_peak_mass,
    syndrome_density,
    tail_failure,
)
from spinqec import recovery, spin_core
from spinqec.coherent import _ln_overlap_magnitude
from spinqec.recovery import _correct_and_decode
from spinqec.lll_codes import build_codewords, equatorial_qudit
from spinqec.spin_core import HalfInt

import oracles
from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


def _dkw_bound(n, alpha=0.01):
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup |F_n - F| > bound) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance of the samples from a CDF, which is
    evaluated once on the sorted samples."""
    xs = np.sort(np.asarray(samples, dtype=float))
    at_samples = cdf(xs)
    n = len(xs)
    ranks = np.arange(1, n + 1) / n
    return float(max(np.max(ranks - at_samples), np.max(at_samples - (ranks - 1.0 / n))))


def test_density_validation():
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(5), 2, 0, 0.0)  # half-integer j
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(8), 1, 0, 0.0)
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(8), 2, 0, 0.0, mode="bogus")
    with pytest.raises(ValueError):
        syndrome_density(HalfInt(24), 2, 0, 0.0, mode="validate")  # j over the cap
    with pytest.raises(ValueError, match="d <= 8192"):
        syndrome_density(HalfInt(16), 8193, 0, 0.0, mode="validate")  # d over the cap


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
    want = 2.0 * math.pi * oracles.binomials(12)[6] / 4096.0
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


def test_half_step_series_coefficients():
    # sum_i c_i a^-(2i+1) against ln Gamma(a + 1/2) - ln Gamma(a) - (ln a)/2 in
    # mpmath: at a = 40 the last kept term is 7e-15, the first dropped 6e-18
    with mpmath.workdps(40):
        for a in (40, 100):
            a = mpmath.mpf(a)
            exact = oracles.ln_gamma_half_step(a) - mpmath.log(a) / 2
            series = sum(
                mpmath.mpf(c) / a ** (2 * i + 1) for i, c in enumerate(recovery._HALF_STEP_SERIES)
            )
            assert abs(series - exact) < 1e-17 / (a / 40) ** 9
        for a in (0.5, 3.0, 39.5, 40.0, 40.5, 1e3, 2e6 + 0.5):
            exact = oracles.ln_gamma_half_step(a)
            got = recovery._ln_gamma_half_step(a)
            assert abs(got - exact) <= (6e-14 if a < 40 else 4e-16 * abs(exact)), a


def test_half_step_below_40_against_mpmath():
    # the upward recurrence to a + m >= 40 keeps the half step at rounding
    # level where lgamma(a + 1/2) - lgamma(a) was up to 1.4e-14 off
    with mpmath.workdps(40):
        for a in [k / 2 for k in range(1, 82)] + [0.01, 0.3, 7.3, 39.99]:
            exact = oracles.ln_gamma_half_step(a)
            assert abs(recovery._ln_gamma_half_step(a) - exact) <= 1e-15, a


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
        recovered_k, fidelity, raw = (c[0] for c in _correct_and_decode(twice, d, k, dphi, [phi_m]))
        assert recovered_k == k
        assert abs(fidelity - 1.0) < 1e-12
        assert abs(raw - 1.0) < 1e-12


@pytest.mark.parametrize(
    "j,d,k,delta_phi,phi_m",
    [
        (200, 2, 0, 0.0, -1.39),  # true raw_fidelity 8.9e-92: the overlaps are near 3e-46
        (1, 2, 1, 0.0, 0.0),  # y = -pi on the other codeword, an exact zero
        (1, 3, 2, 0.0, 2.0),  # d = 2j + 1
        (4, 9, 5, 0.0, 0.61),  # d = 2j + 1
        (10**5, 2, 0, 0.0, 0.5 * math.pi - 1e-9),  # both overlaps underflow
        # s = -1.2 lands nearest codeword 2, not its mirror image 0
        (8, 4, 1, 0.5, 0.5 * math.pi - 0.7),
        (50, 3, 0, -1.0, 0.2),  # fidelity near 1e-8
    ],
)
def test_correct_and_decode_matches_mp_at_edges(j, d, k, delta_phi, phi_m):
    recovered_k, fidelity, raw = (c[0] for c in _correct_and_decode(2 * j, d, k, delta_phi, [phi_m]))
    want_k, want_fidelity, want_raw = oracles.decode(j, d, k, delta_phi, phi_m)
    assert recovered_k == want_k
    assert abs(fidelity - want_fidelity) <= 1e-10 * want_fidelity, (fidelity, want_fidelity)
    if want_raw > 1e-300:
        assert abs(raw - want_raw) <= 1e-10 * want_raw, (raw, want_raw)
    else:
        assert raw < 1e-300


@pytest.mark.parametrize("j,d", [(8, 2), (50, 3), (4, 9), (20, 17)])
def test_spectral_decode_oracle_matches_gram_solve(j, d):
    # the two references of the decode agree: exact class sums of the
    # spectrum against an mpmath solve with the complex gram matrix
    for phi_m in np.random.default_rng(j * d).uniform(0.0, 2.0 * math.pi, 3):
        want = oracles.decode(j, d, 1, 0.1, phi_m)
        got = oracles.decode_spectral(j, d, 1, 0.1, phi_m)
        assert got[0] == want[0] and got[1:] == pytest.approx(want[1:], rel=1e-15, abs=0.0), (phi_m, got, want)


def _block_test_azimuths(d, rng):
    """Reported azimuths for one decode block: uniform ones, blurred ones
    outside [0, 2 pi), the cell midpoints and points 1e-9 off them (where
    at j = 10^5 every overlap underflows), and the lattice azimuths."""
    mids = [math.pi * (2 * a + 1) / d for a in range(d)]
    lattice = [2.0 * math.pi * a / d for a in range(d)]
    near = [m + e for m in mids for e in (-1e-9, 1e-9)]
    return [*rng.uniform(0.0, 2.0 * math.pi, 48), *rng.uniform(-0.5, 0.0, 4),
            *rng.uniform(2.0 * math.pi, 2.0 * math.pi + 0.5, 4), *mids, *near, *lattice]


@pytest.mark.parametrize("j", [1, 8, 200, 2000, 10**5])
def test_block_decode_equals_one_row_decode(j):
    # the stacked matmuls of a block must give every row the bits of a
    # one-row block, or a sweep's rows would depend on its length
    rng = np.random.default_rng(j)
    for d in range(2, min(2 * j + 1, 9) + 1):
        for k, delta_phi in ((0, 0.0), (d - 1, 0.1), (d // 2, -0.37)):
            phis = _block_test_azimuths(d, rng)
            block = _correct_and_decode(2 * j, d, k, delta_phi, phis)
            rows = [_correct_and_decode(2 * j, d, k, delta_phi, [phi]) for phi in phis]
            for col, column in enumerate(block):
                joined = np.concatenate([row[col] for row in rows])
                assert column.dtype == joined.dtype
                assert column.tobytes() == joined.tobytes(), (j, d, k, delta_phi, col)
    # both edge rows are in the blocks above: at j = 10^5 every overlap
    # underflows in the middle of a cell, and at j = 1 on a lattice azimuth
    # the other codeword's overlap is an exact zero
    if j == 10**5:
        _, fidelity, raw = _correct_and_decode(2 * j, 2, 0, 0.0, [0.5 * math.pi - 1e-9])
        assert raw[0] == 0.0 and 0.0 < fidelity[0] <= 1.0
    if j == 1:
        assert _ln_overlap_magnitude(math.pi, 2) == -math.inf
        recovered, fidelity, raw = _correct_and_decode(2, 2, 1, 0.0, [math.pi])
        assert (recovered[0], fidelity[0], raw[0]) == (1, 1.0, 1.0)


def test_decode_of_an_empty_block():
    columns = _correct_and_decode(16, 3, 1, 0.1, [])
    assert [c.shape for c in columns] == [(0,), (0,), (0,)]
    assert [c.dtype for c in columns] == [np.int64, np.float64, np.float64]


def _ancilla_note_by_rounds(j, j_anc, d, k, delta_phi, runs, seed):
    """finite_ancilla_note as a loop of single recover rounds."""
    ideal = [recover(j, d, k, delta_phi, seed + i) for i in range(runs)]
    noisy = [recover(j, d, k, delta_phi, seed + i, j_anc=j_anc) for i in range(runs)]
    mean_ideal = float(np.mean([run.fidelity for run in ideal]))
    mean_anc = float(np.mean([run.fidelity for run in noisy]))
    correct = sum(run.recovered_k == run.input_k for run in noisy)
    return AncillaReport(
        HalfInt.of(j), HalfInt.of(j_anc), runs, mean_ideal, mean_anc, mean_ideal - mean_anc,
        correct / runs,
    )


@pytest.mark.parametrize(
    "j,j_anc,d,k,delta_phi,runs,seed",
    [
        (16, 4, 2, 0, 0.05, 300, 0),
        (50, 20, 3, 2, 0.2, 120, 17),
        (2000, 40, 4, 1, -0.1, 60, 5),
    ],
)
def test_finite_ancilla_note_equals_loop_of_rounds(j, j_anc, d, k, delta_phi, runs, seed):
    note = finite_ancilla_note(j, j_anc, d=d, k=k, delta_phi=delta_phi, runs=runs, seed=seed)
    assert note == _ancilla_note_by_rounds(j, j_anc, d, k, delta_phi, runs, seed)


def test_finite_ancilla_note_reduces_k_like_recover():
    # recover reads k mod d, and so does the correct rate: k = d + 1 used
    # to be compared unreduced and read 0.0
    note = finite_ancilla_note(32, 32, d=3, k=4, runs=50, seed=2)
    assert note == finite_ancilla_note(32, 32, d=3, k=1, runs=50, seed=2)
    assert note.correct_rate_ancilla > 0.9


def test_gram_factor_cached_read_only(monkeypatch):
    reads = []
    stored = recovery._gram_factor
    monkeypatch.setattr(recovery, "_gram_factor", lambda *args: reads.append(args) or stored(*args))
    spin_core._store_clear()
    for seed in range(3):
        recover(HalfInt(8), 5, 1, 0.05, seed=seed)
    # each round's decode reads the spectrum once (_draws checks d <= 2j + 1
    # itself); one build of d doubles, kept in the store within its budget
    assert reads == [(8, 5)] * 3
    assert spin_core._store_counts["spinqec.recovery._gram_factor"] == [1, 5 * 8]
    spectrum = stored(8, 5)
    assert stored(8, 5) is spectrum and spectrum.shape == (5,)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    # C^-1 = W^H W with the whitening W = DFT/sqrt(d lambda), and C is the
    # magnitude of the codeword gram matrix; at j = 4, d = 5 its
    # off-diagonals cos^8(pi/5) and cos^8(2 pi/5) are far from 0
    freqs = np.arange(5)
    whitening = np.exp(-2j * math.pi * np.outer(freqs, freqs) / 5) / np.sqrt(5 * spectrum)[:, None]
    inverse = whitening.conj().T @ whitening
    assert np.max(np.abs(inverse.imag)) < 1e-14
    gram = np.abs(build_codewords(equatorial_qudit(HalfInt(8), 5)).gram)
    assert np.max(np.abs(np.linalg.inv(inverse.real) - gram)) < 1e-14


@pytest.mark.parametrize("j,d", [(4, 5), (8, 3), (50, 101), (200, 7), (600, 1201)])
def test_gram_spectrum_is_exact(j, d):
    # lambda_f = d sum_{t = f mod d} C(2j, j + t)/4^j, in exact integers
    spectrum = recovery._gram_factor(2 * j, d)
    for f in range(d):
        want = d * fractions.Fraction(sum(oracles.binomials(2 * j, d, j + f)), 4**j)
        if want < 1e-300:  # underflowed classes are floored
            assert spectrum[f] <= 1e-300
        else:
            assert abs(spectrum[f] / want - 1) < 1e-13, (f, float(want))


@pytest.mark.parametrize("j", [2, 20, 100, 1000])
def test_full_level_count_decode_is_identity(j):
    # 2j + 1 codewords span the space, so the decode changes nothing and
    # fidelity = raw_fidelity, while C has eigenvalues down to 4^-j
    for seed in range(5):
        run = recover(j, 2 * j + 1, 3, 0.01, seed)
        assert abs(run.fidelity - run.raw_fidelity) <= 1e-13 * run.raw_fidelity


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


def test_wrong_codeword_rate_follows_tail_law():
    # The decode returns k + round((delta_phi + x) d/2 pi) - round(x d/2 pi)
    # for the peak draw x, so it errs when x falls within |delta_phi| of
    # +-pi/d: a rate [T(pi/d - |dphi|) - T(pi/d + |dphi|)]/2 with T the tail
    # mass, up to wraps beyond 3 pi/d.  At delta_phi = 0 it never errs.
    j, d, n = 8, 4, 4000
    half_cell = math.pi / d
    assert sum(recover(j, d, 1, 0.0, seed=s).recovered_k != 1 for s in range(n // 2)) == 0
    for delta_phi in (0.3 * half_cell, -0.3 * half_cell):
        width = abs(delta_phi)
        tail = lambda eps: tail_failure(j, eps).numeric_tail
        assert tail(3.0 * half_cell - width) < 1e-6
        rate = 0.5 * (tail(half_cell - width) - tail(half_cell + width))
        wrong = sum(recover(j, d, 1, delta_phi, seed=s).recovered_k != 1 for s in range(n))
        assert abs(wrong - n * rate) < 4.0 * math.sqrt(n * rate * (1.0 - rate)), (wrong, n * rate)


def test_recover_round_memory_is_o_of_d():
    # a (2j + 1)-wide float array alone would take 16 MB at j = 10^6; the
    # round at small j first loads what numpy sets up on first use
    recover(8, 4, 1, 0.1, 3, j_anc=20)
    spin_core._store_clear()
    tracemalloc.start()
    try:
        run = recover(10**6, 4, 1, 0.1, 3, j_anc=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert math.isfinite(run.fidelity) and 0.0 <= run.fidelity <= 1.0 + 1e-12
    assert math.isfinite(run.raw_fidelity) and run.raw_fidelity <= run.fidelity + 1e-12


def test_recover_ancilla_mean_fidelity_at_large_j():
    # the blurred readout misses by |s| ~ 0.1-0.3, where every overlap is far
    # below 1e-16, yet the nearest codeword is still the input one
    runs = [recover(2000, 4, 1, 0.1, seed, j_anc=20) for seed in range(200)]
    assert all(run.recovered_k == 1 for run in runs)
    assert abs(np.mean([run.fidelity for run in runs]) - 1.0) < 1e-12


def test_recover_outcomes_follow_exact_density():
    # the reported azimuths are draws from the normalized leading density,
    # d 2^(-4j) sum_{t = 0 mod d} C(4j, 2j + t) exp(i t (phi - phi_state))
    j, d, k, dphi, n = 16, 2, 1, 0.07, 3000
    phis = [recover(j, d, k, dphi, seed=s).measured_phi for s in range(n)]
    phi_state = 2.0 * math.pi * k / d + dphi
    stat = _ks_statistic(phis, lambda x: oracles.peak_comb_cdf(x, 4 * j, d, phi_state, 0.0))
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
    kernel_cdf = lambda x: oracles.peak_comb_cdf(x, 4 * j_anc, 1, 0.0, -math.pi)
    assert _ks_statistic(blurs, kernel_cdf) < _dkw_bound(n)


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


def test_tail_failure_rejects_spin_zero():
    with pytest.raises(ValueError, match="j must be positive"):
        tail_failure(0, 0.3)


@pytest.mark.parametrize(
    "j,d",
    [
        (8, 0),  # no codewords: k % d divided by zero
        (0, 2),  # two copies of the same state: singular gram matrix
        (2, 6),  # six codewords in five levels are linearly dependent
    ],
)
def test_recover_rejects_impossible_code_sizes(j, d):
    with pytest.raises(ValueError, match="2 <= d <= 2j"):
        recover(HalfInt(2 * j), d, 0, 0.01, seed=1)


def test_recover_accepts_the_full_level_count():
    # d = 2j + 1 equatorial states still span the space
    run = recover(HalfInt(4), 5, 1, 0.01, seed=1)
    assert 0.0 <= run.fidelity <= 1.0 + 1e-12
