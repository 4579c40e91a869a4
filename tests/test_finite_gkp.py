"""Finite clock-shift comb codes with exact integer phase bookkeeping."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy

from spinqec import finite_gkp, spin_core
from spinqec.finite_gkp import (
    GkpParams,
    PauliWord,
    build_gkp_code,
    clock_shift,
    stabilizer_eigenphases,
    strict_window,
    syndrome_and_recover,
    tiling_window,
)
from spinqec.spin_core import StateVec


def test_clock_shift_matrices():
    n = 6
    x, z = clock_shift(n)
    omega = np.exp(2j * math.pi / n)
    assert np.max(np.abs(np.diag(z.mat) - omega ** np.arange(n))) < 1e-14
    # x sends basis column e_k to e_{k+1}
    e0 = np.zeros(n)
    e0[0] = 1.0
    assert np.array_equal(x.mat @ e0, np.roll(e0, 1))
    zx = z.mat @ x.mat
    xz = x.mat @ z.mat
    assert np.max(np.abs(zx - omega * xz)) < 1e-14
    with pytest.raises(ValueError):
        clock_shift(1)
    with pytest.raises(TypeError):
        clock_shift(2.5)


@pytest.mark.parametrize(
    "build",
    [lambda n: PauliWord(n, 1, 2).to_operator(), clock_shift],
    ids=["to_operator", "clock_shift"],
)
def test_dense_word_matrices_refused_past_max_dense_dim(build):
    # n = 10^6 asks for a 16 TB complex matrix; the guard raises before numpy allocates
    with pytest.raises(ValueError, match="exceeds MAX_DENSE_DIM"):
        build(10**6)


def test_clock_shift_symbolic_oracle():
    # exact-root verification of the commutation rule at n = 6
    n = 6
    omega = sympy.exp(2 * sympy.pi * sympy.I / n)
    z = sympy.diag(*[omega**k for k in range(n)])
    x = sympy.zeros(n, n)
    for k in range(n):
        x[(k + 1) % n, k] = 1
    defect = sympy.simplify(z * x - omega * x * z)
    assert defect == sympy.zeros(n, n)


def test_pauli_word_product_tracks_integer_phase():
    n = 18
    z = PauliWord(n, 0, 1)
    x = PauliWord(n, 1, 0)
    assert z * x == PauliWord(n, 1, 1, 2)
    assert x * z == PauliWord(n, 1, 1, 0)
    # the c offset of 2 is exactly one omega factor
    omega = np.exp(2j * math.pi / n)
    lhs = (z * x).to_operator().mat
    rhs = omega * (x * z).to_operator().mat
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_pauli_word_group_law_matches_operators():
    n = 12
    rng = np.random.default_rng(3)
    for _ in range(12):
        a1, b1, c1, a2, b2, c2 = (int(v) for v in rng.integers(0, 2 * n, size=6))
        w1 = PauliWord(n, a1, b1, c1)
        w2 = PauliWord(n, a2, b2, c2)
        prod_mat = (w1 * w2).to_operator().mat
        mat_prod = w1.to_operator().mat @ w2.to_operator().mat
        assert np.max(np.abs(prod_mat - mat_prod)) < 1e-13


def test_pauli_word_inverse_and_power():
    n = 10
    w = PauliWord(n, 3, 7, 5)
    ident = w * w.inverse()
    assert ident.a == 0 and ident.b == 0 and ident.c == 0
    assert np.array_equal(ident.to_operator().mat, np.eye(n))
    assert np.array_equal((w.inverse() * w).to_operator().mat, np.eye(n))
    # the closed-form power agrees with the iterated product
    acc = PauliWord(n, 0, 0)
    for _ in range(5):
        acc = acc * w
    assert w.power(5) == acc
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        word = PauliWord(m, *(int(v) for v in rng.integers(-3 * m, 3 * m, size=3)))
        for k in range(-7, 8):
            step = word if k >= 0 else word.inverse()
            acc = PauliWord(m, 0, 0)
            for _ in range(abs(k)):
                acc = acc * step
            assert word.power(k) == acc, (word, k)
    with pytest.raises(ValueError):
        PauliWord(n, 0, 0) * PauliWord(n + 2, 0, 0)


def test_pauli_word_apply_matches_matrix():
    rng = np.random.default_rng(5)
    words = [(9, 4, 2, 1), (882, 451, 860, 1763), (900, 0, 899, 3)]
    words += [(n, *(int(v) for v in rng.integers(-3 * n, 3 * n, size=3))) for n in (9, 882)]
    for n, a, b, c in words:
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = StateVec(PauliWord(n, 0, 0).to_operator().j, amps / np.linalg.norm(amps))
        w = PauliWord(n, a, b, c)
        applied = w.apply(state)
        via_apply = applied.amps
        mat = w.to_operator().mat
        via_matrix = mat @ state.amps
        assert np.max(np.abs(via_apply - via_matrix)) < 1e-14
        # column 0 of the matrix carries the bare phase, read from the same roots
        assert w.phase == mat[w.a, 0]
        # a fresh read-only array, never the input's
        assert not via_apply.flags.writeable and not np.shares_memory(via_apply, state.amps)
        undone = w.inverse().apply(applied).amps
        assert np.max(np.abs(undone - state.amps)) < 1e-14


def _old_roots(n):
    return np.exp(1j * math.pi * np.arange(2 * n) / n)


def _old_phases(n, b, c):
    # The phase path before the cached index tables: the exponent
    # (b 2x + c) mod 2n rebuilt on every call.
    return _old_roots(n)[(b * (2 * np.arange(n)) + c) % (2 * n)]


def test_phase_tables_match_the_rebuilt_exponents_byte_for_byte():
    rng = np.random.default_rng(17)
    words = [(1, 0, 0, 0), (1, 0, 0, 1), (1, -3, 5, -1), (2, 1, 1, 3), (2, -1, -1, -1), (2, 0, 1, 2)]
    for n in (1, 2, 3, 9, 18, 882, 900):
        words.append((n, 0, n - 1, 2 * n - 1))
        words.append((n, n - 1, 1, 2 * n - 1))
        words.append((n, 1, n - 1, 0))
        words.append((n, 2, n // 2 + 1, 0))
        words += [(n, *(int(v) for v in rng.integers(-3 * n, 3 * n, size=3))) for _ in range(6)]
    for n, a, b, c in words:
        w = PauliWord(n, a, b, c)
        assert 0 <= w.b < n and 0 <= w.c < 2 * n
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        phased = amps * _old_phases(n, w.b, w.c)
        want = np.concatenate((phased[n - w.a:], phased[:n - w.a]))
        got = finite_gkp._apply_word(amps, n, w.a, w.b, w.c)
        assert got.tobytes() == want.tobytes(), (n, a, b, c)
        state = StateVec(PauliWord(n, 0, 0).to_operator().j, amps)
        assert w.apply(state).amps.tobytes() == want.tobytes()
        x = np.arange(n)
        mat = np.zeros((n, n), dtype=complex)
        mat[(x + w.a) % n, x] = _old_phases(n, w.b, w.c)
        assert w.to_operator().mat.tobytes() == mat.tobytes(), (n, a, b, c)
        # by bytes: == would take -0.0 for 0.0
        assert np.complex128(w.phase).tobytes() == _old_roots(n)[w.c].tobytes(), (n, a, b, c)


def test_phase_tables_are_bounded_and_read_only():
    # the 2N roots are kept once in spin_core's one store, within its byte budget
    spin_core._store_clear()
    roots = finite_gkp._roots(900)
    assert finite_gkp._roots(900) is roots
    assert spin_core._store_counts["spinqec.finite_gkp._roots"] == [1, 1800 * 16]
    assert roots.shape == (1800,)
    assert not roots.flags.writeable
    with pytest.raises(ValueError):
        roots[0] = 0


def test_phase_free_words_keep_every_bit():
    # X^a alone only moves amplitudes: signed zeros, infinities and NaNs keep
    # their bits, and an in-window round on a code state with negative zeros
    # returns its input's bytes
    n = 6
    amps = [complex(-0.0, -0.0), complex(0.0, -0.0), np.inf, complex(-np.inf, 1.0), np.nan, complex(2.5, -0.0)]
    state = StateVec(spin_core.HalfInt(n - 1), amps)
    for a in range(n):
        assert PauliWord(n, a, 0).apply(state).amps.tobytes() == np.roll(state.amps, a).tobytes(), a
    params = GkpParams(2, 3, 3)
    word = StateVec(params.spin_label, -build_gkp_code(params).codewords[0].amps)
    assert np.signbit(word.amps.real).all()
    for a in tiling_window(params.r1):
        for b in tiling_window(params.r2):
            assert syndrome_and_recover(params, a, b, word).recovered.amps.tobytes() == word.amps.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        GkpParams(1, 3, 3)
    with pytest.raises(ValueError):
        GkpParams(2, 0, 3)
    with pytest.raises(TypeError):
        GkpParams(2.0, 3, 3)
    assert GkpParams(2, 3, 3).perfect
    assert not GkpParams(2, 4, 3).perfect
    assert GkpParams(3, 1, 5).n == 15


def test_codeword_combs():
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    n = params.n
    for s, word in enumerate(code.codewords):
        support = np.nonzero(np.abs(word.amps) > 0.0)[0]
        assert list(support) == [(s + 2 * k) * 3 for k in range(3)]
        # every comb tooth carries exactly 1/sqrt(r2)
        assert np.max(np.abs(word.amps[support] - 1.0 / math.sqrt(3.0))) < 1e-15
    gram = np.conj(code.basis_matrix()) @ code.basis_matrix().T
    # disjoint supports: the off-diagonals are exact zeros
    assert gram[0, 1] == 0.0 and gram[1, 0] == 0.0
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-15


def test_logical_action_exact():
    params = GkpParams(3, 2, 5)
    code = build_gkp_code(params)
    k = params.k
    for s in range(k):
        moved = code.xbar.apply(code.codewords[s]).amps
        assert np.array_equal(moved, code.codewords[(s + 1) % k].amps)


def test_logical_commutator_word_level():
    for params in (GkpParams(2, 3, 3), GkpParams(3, 2, 4), GkpParams(5, 1, 1)):
        n = params.n
        zx = build_gkp_code(params)
        left = zx.zbar * zx.xbar
        right = zx.xbar * zx.zbar
        assert left.a == right.a and left.b == right.b
        # phase offset is exactly 2 r1 r2, i.e. e^(2 pi i / k)
        assert (left.c - right.c) % (2 * n) == (2 * params.r1 * params.r2) % (2 * n)
        lhs = left.to_operator().mat
        rhs = np.exp(2j * math.pi / params.k) * right.to_operator().mat
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_stabilizers_commute_and_fix_codewords():
    params = GkpParams(2, 3, 5)
    code = build_gkp_code(params)
    # word-level commutation: conjugating costs c = 2 K r1 r2 = 2n = 0 mod 2n
    assert code.stabilizer_x * code.zbar == code.zbar * code.stabilizer_x
    assert code.stabilizer_z * code.xbar == code.xbar * code.stabilizer_z
    for word in code.codewords:
        for stab in (code.stabilizer_x, code.stabilizer_z):
            fixed = stab.apply(word).amps
            assert np.max(np.abs(fixed - word.amps)) < 1e-14
        assert np.max(np.abs(np.array(stabilizer_eigenphases(params, word)) - 1.0)) < 1e-13


def test_fourier_support_duality():
    # a position comb of spacing K r1 transforms to a frequency comb on
    # multiples of r2; checked against numpy's DFT directly
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    freq = np.fft.fft(code.codewords[0].amps)
    support = np.nonzero(np.abs(freq) > 1e-10)[0]
    assert list(support) == [3 * t for t in range(6)]


def test_windows():
    assert list(strict_window(3)) == [-1, 0, 1]
    assert list(strict_window(4)) == [-1, 0, 1]
    assert list(tiling_window(4)) == [-1, 0, 1, 2]
    assert list(tiling_window(1)) == [0]
    for r in (1, 2, 3, 6, 7):
        assert sorted(v % r for v in tiling_window(r)) == list(range(r))


def test_in_window_errors_fully_corrected():
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    probe = StateVec(
        params.spin_label,
        (code.codewords[0].amps + 1j * code.codewords[1].amps) / math.sqrt(2.0),
    )
    for a in strict_window(params.r1):
        for b in strict_window(params.r2):
            out = syndrome_and_recover(params, a, b, probe)
            assert not out.logical_error
            assert not out.ambiguous
            assert out.a_hat == a and out.b_hat == b
            assert abs(abs(np.vdot(out.recovered.amps, probe.amps)) - 1.0) < 1e-12


def test_error_subspaces_mutually_orthogonal():
    # K = 2, r1 = r2 = 3: the nine in-window displacements move the code
    # into mutually orthogonal subspaces
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    displaced = {}
    for a in strict_window(3):
        for b in strict_window(3):
            displaced[(a, b)] = [
                PauliWord(params.n, a, b).apply(w).amps for w in code.codewords
            ]
    keys = sorted(displaced)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1 :]:
            for v1 in displaced[k1]:
                for v2 in displaced[k2]:
                    assert abs(np.vdot(v1, v2)) < 1e-13


def test_syndrome_values_follow_residues():
    params = GkpParams(2, 5, 3)
    code = build_gkp_code(params)
    out = syndrome_and_recover(params, 7, 2, code.codewords[1])
    # 7 = 5 + 2: residue syndrome 2, decoded shift 2, logical quotient 1
    assert out.syndrome_a == 2
    assert out.a_hat == 2
    assert out.logical_error  # (7 - 2)/5 = 1, odd multiple of r1
    # residue 2 mod 3 centers to -1 inside the strict window
    assert out.syndrome_b == 2 and out.b_hat == -1


def test_stabilizer_shift_is_not_logical():
    # a = K r1 is a stabilizer action: trivial on the code space
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    out = syndrome_and_recover(params, 2 * 3, 0, code.codewords[0])
    assert not out.logical_error
    assert abs(abs(np.vdot(out.recovered.amps, code.codewords[0].amps)) - 1.0) < 1e-12
    # a = r1 flips the logical x label
    flip = syndrome_and_recover(params, 3, 0, code.codewords[0])
    assert flip.logical_error


def test_eigenphase_law_detects_displacements():
    params = GkpParams(2, 3, 5)
    code = build_gkp_code(params)
    for a, b in ((1, 0), (0, 2), (-1, 1)):
        moved = PauliWord(params.n, a, b).apply(code.codewords[0])
        phase_z, phase_x = stabilizer_eigenphases(params, moved)
        assert abs(phase_z - np.exp(2j * math.pi * a / params.r1)) < 1e-12
        assert abs(phase_x - np.exp(-2j * math.pi * b / params.r2)) < 1e-12


def test_even_spacing_boundary_is_ambiguous():
    params = GkpParams(2, 4, 3)
    code = build_gkp_code(params)
    out = syndrome_and_recover(params, 2, 0, code.codewords[0])
    assert out.ambiguous
    assert out.a_hat == 2
    inside = syndrome_and_recover(params, 1, 0, code.codewords[0])
    assert not inside.ambiguous


def test_invalid_states_rejected():
    small = StateVec(GkpParams(2, 3, 2).spin_label, np.ones(12) / math.sqrt(12.0))
    for params in (GkpParams(2, 3, 3), GkpParams(2, 21, 21)):
        n = params.n
        flat = StateVec(params.spin_label, np.ones(n) / math.sqrt(n))
        with pytest.raises(ValueError, match="code space"):
            syndrome_and_recover(params, 0, 0, flat)
        with pytest.raises(ValueError, match="dimension"):
            syndrome_and_recover(params, 0, 0, small)
        # a codeword plus its one-step shift spreads over two residue classes
        word = build_gkp_code(params).codewords[0]
        spread = StateVec(params.spin_label, (word.amps + np.roll(word.amps, 1)) / math.sqrt(2.0))
        with pytest.raises(ValueError, match="code space"):
            syndrome_and_recover(params, 0, 0, spread)
        # on the comb's teeth but not a uniform comb: still off the code space
        skewed = word.amps.copy()
        skewed[0] *= 2.0
        with pytest.raises(ValueError, match="code space"):
            syndrome_and_recover(params, 0, 0, StateVec(params.spin_label, skewed).normalized())


def test_zero_and_nonfinite_states_rejected():
    for params in (GkpParams(2, 3, 3), GkpParams(2, 21, 21)):
        word = build_gkp_code(params).codewords[0].amps
        bad = [np.zeros(params.n, dtype=complex)]
        for value in (np.nan, np.inf, complex(0.0, -np.inf)):
            bad.append(word.copy())
            bad[-1][params.r1] = value
        for amps in bad:
            with pytest.raises(ValueError, match="norm"):
                syndrome_and_recover(params, 1, 1, StateVec(params.spin_label, amps))


def test_round_shift_types_and_fresh_output():
    params = GkpParams(2, 3, 3)
    word = build_gkp_code(params).codewords[0]
    for a, b in ((1.0, 0), (True, 0), (0, 1.0), (0, False), (0, "1")):
        with pytest.raises(TypeError, match="must be an integer"):
            syndrome_and_recover(params, a, b, word)
    assert syndrome_and_recover(params, np.int64(7), np.int32(-1), word).a_hat == 1
    # an in-window round's word is the identity, and a StateVec is frozen
    # with read-only amplitudes: the input itself comes back, as from
    # PauliWord.apply of any word equal to the identity
    for a, b in ((0, 0), (1, -1)):
        assert syndrome_and_recover(params, a, b, word).recovered is word
    n = params.n
    for identity in (PauliWord(n, 0, 0), PauliWord(n, n, -n, 2 * n)):
        assert identity.apply(word) is word
    # the stabilizer shift X^6 is no identity word: a fresh read-only array
    out = syndrome_and_recover(params, 6, 0, word)
    assert not out.recovered.amps.flags.writeable
    assert not np.shares_memory(out.recovered.amps, word.amps)
    assert out.recovered.j == word.j


# The seven codes of the syndrome_rounds benchmark.
BENCHMARK_CODES = ((2, 3, 3), (2, 4, 4), (3, 5, 5), (2, 6, 8), (4, 7, 9), (2, 21, 21), (4, 15, 15))


def test_benchmark_codes_follow_the_benchmark():
    # SyndromeRounds.GKP in perfbench/workloads.py, read as source so that
    # nothing of the benchmark is imported
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())
    rounds = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SyndromeRounds")
    gkp = [n.value for n in rounds.body if isinstance(n, ast.Assign) and ast.unparse(n.targets) == "GKP"]
    assert [ast.literal_eval(v) for v in gkp] == [BENCHMARK_CODES]


def test_round_outputs_pinned():
    # Every codeword under every tiling-window shift of the benchmark codes:
    # the round's one word is the identity there, so it returns the input's
    # bytes, on any host.
    rounds = 0
    for dims in BENCHMARK_CODES:
        params = GkpParams(*dims)
        for word in build_gkp_code(params).codewords:
            for a in tiling_window(params.r1):
                for b in tiling_window(params.r2):
                    out = syndrome_and_recover(params, a, b, word)
                    assert out.recovered.amps.tobytes() == word.amps.tobytes(), (dims, a, b)
                    rounds += 1
    assert rounds == 2255


def test_round_reads_no_store_entry_but_the_roots(monkeypatch):
    # the combs follow from (k, r1, r2): an in-window round reads no store
    # entry, nor does a round whose word is Z-free (Xbar times an in-window
    # shift: its one phase is computed, not read), and a round whose word
    # has Z reads only N's roots
    reads = []

    class Counted(dict):
        def get(self, key, default=None):
            reads.append(key[0])
            return super().get(key, default)

    monkeypatch.setattr(spin_core, "_store", Counted(spin_core._store))
    for dims in BENCHMARK_CODES:
        params = GkpParams(*dims)
        word = build_gkp_code(params).codewords[-1]
        for a in tiling_window(params.r1):
            for b in tiling_window(params.r2):
                reads.clear()
                syndrome_and_recover(params, a, b, word)
                assert reads == [], (dims, a, b, reads)
                syndrome_and_recover(params, a + params.r1, b, word)  # Xbar: Z-free
                assert abs(abs(PauliWord(params.n, 0, 0, 2 * b + 1).phase) - 1.0) < 1e-15
                assert reads == [], (dims, a, b, reads)
                syndrome_and_recover(params, a, b + params.r2, word)  # Zbar: a phase
                assert set(reads) == {"spinqec.finite_gkp._roots"}, (dims, a, b, reads)
        reads.clear()
        stabilizer_eigenphases(params, word)
        assert set(reads) == {"spinqec.finite_gkp._roots"}, (dims, reads)


def test_rounds_past_the_store_budget_miss_nothing(monkeypatch):
    # a code past the store's budget is rebuilt on every read; a round reads
    # no code, so in-window rounds add no miss, and a phased round only N's roots
    params = GkpParams(2, 21, 21)
    monkeypatch.setattr(spin_core, "_STORE_BUDGET", params.k * params.n * 16 - 1)
    spin_core._store_clear()
    word = build_gkp_code(params).codewords[1]
    misses = {kind: count[0] for kind, count in spin_core._store_counts.items()}
    assert misses == {"spinqec.finite_gkp._code": 1} and not spin_core._store
    for a, b in list(zip(strict_window(params.r1), reversed(strict_window(params.r2))))[:20]:
        assert syndrome_and_recover(params, a, b, word).recovered.amps.tobytes() == word.amps.tobytes()
    assert {kind: count[0] for kind, count in spin_core._store_counts.items()} == misses
    syndrome_and_recover(params, 0, params.r2, word)
    misses["spinqec.finite_gkp._roots"] = 1
    assert {kind: count[0] for kind, count in spin_core._store_counts.items()} == misses
    spin_core._store_clear()


def test_window_sweep_keeps_no_copy():
    # a sweep that keeps all its outcomes holds no array beyond its input:
    # each in-window round hands back the input state itself.  Only numpy's
    # allocations are counted; the 441 outcome objects take about 160 bytes each
    params = GkpParams(2, 21, 21)
    word = build_gkp_code(params).codewords[1]
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def held():
        return sum(trace.size for trace in tracemalloc.take_snapshot().filter_traces(arrays).traces)

    tracemalloc.start()
    try:
        before = held()
        kept = [
            syndrome_and_recover(params, a, b, word)
            for a in tiling_window(params.r1)
            for b in tiling_window(params.r2)
        ]
        grown = held() - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 441
    assert grown < 16 * params.n, grown


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_round_on_a_scaled_code_state(scale):
    # A finite code state whose sum of squares overflows or underflows is
    # checked on amps / max|amps|: the round returns the scaled recovery.
    for params in (GkpParams(2, 3, 3), GkpParams(4, 15, 15)):
        word = build_gkp_code(params).codewords[1]
        scaled = StateVec(params.spin_label, word.amps * scale)
        for a, b in ((0, 0), (1, -1), (params.r1 + 1, 2 * params.r2 - 1)):
            plain = syndrome_and_recover(params, a, b, word)
            out = syndrome_and_recover(params, a, b, scaled)
            assert (out.a_hat, out.b_hat, out.logical_error) == (plain.a_hat, plain.b_hat, plain.logical_error)
            assert np.max(np.abs(out.recovered.amps / scale - plain.recovered.amps)) < 1e-15
        skewed = word.amps.copy()
        skewed[params.r1] *= 2.0  # the first tooth of codeword 1
        with pytest.raises(ValueError, match="code space"):
            syndrome_and_recover(params, 0, 0, StateVec(params.spin_label, skewed * scale))


def _residues_from_eigenphases(params, state):
    # <Z^(k r2)> = exp(2 pi i a / r1) and <X^(k r1)> = exp(-2 pi i b / r2)
    phase_z, phase_x = stabilizer_eigenphases(params, state)
    turns_a = np.angle(phase_z) * params.r1 / (2.0 * math.pi)
    turns_b = -np.angle(phase_x) * params.r2 / (2.0 * math.pi)
    return round(turns_a) % params.r1, round(turns_b) % params.r2


@pytest.mark.parametrize("dims", [(2, 21, 21), (4, 15, 15)])
def test_rounds_at_benchmark_size(monkeypatch, dims):
    # The code sizes the syndrome_rounds benchmark runs (n = 882, 900),
    # against dense matrices: a seeded sample of tiling-window shifts, each
    # also moved by a whole number of spacings to exercise logical errors.
    params = GkpParams(*dims)
    k, r1, r2, n = params.k, params.r1, params.r2, params.n
    reads = []
    stored = finite_gkp._code
    monkeypatch.setattr(finite_gkp, "_code", lambda p: reads.append(p) or stored(p))
    spin_core._store_clear()
    code = build_gkp_code(params)
    assert build_gkp_code(GkpParams(*dims)) is code
    for word in code.codewords:
        assert not word.amps.flags.writeable
        with pytest.raises(ValueError):
            word.amps[0] = 1.0
    rng = np.random.default_rng(8)
    window_a, window_b = list(tiling_window(r1)), list(tiling_window(r2))
    rounds = 0
    for _ in range(6):
        a0, b0 = int(rng.choice(window_a)), int(rng.choice(window_b))
        qa, qb = (int(v) for v in rng.integers(0, k + 1, size=2))
        for a, b, quotients in ((a0, b0, (0, 0)), (a0 + qa * r1, b0 + qb * r2, (qa, qb))):
            forward = PauliWord(n, a, b).to_operator().mat
            back = PauliWord(n, a0, b0).inverse().to_operator().mat
            for word in code.codewords:
                out = syndrome_and_recover(params, a, b, word)
                rounds += 1
                assert (out.a_hat, out.b_hat) == (a0, b0)
                assert np.max(np.abs(out.recovered.amps - back @ (forward @ word.amps))) < 1e-13
                errored = PauliWord(n, a, b).apply(word)
                assert (out.syndrome_a, out.syndrome_b) == _residues_from_eigenphases(params, errored)
                # the residual is Xbar^((a - ahat)/r1) Zbar^((b - bhat)/r2)
                assert (a - out.a_hat) % r1 == 0 and (b - out.b_hat) % r2 == 0
                assert out.logical_error == bool(quotients[0] % k or quotients[1] % k)
                assert not out.ambiguous
    # the code is built once and read only by build_gkp_code: no round and
    # no eigenphase read touches it
    assert spin_core._store_counts["spinqec.finite_gkp._code"] == [1, k * n * 16]
    assert reads == [params, params] and rounds == 12 * k
    assert sum(kept for _, kept in spin_core._store_counts.values()) <= spin_core._STORE_BUDGET


def _read_residue(amps, r):
    # The numerical readout the round once used: the residue class mod r
    # that carries all of |amps|^2.
    masses = (np.abs(amps) ** 2).reshape(-1, r).sum(axis=0)
    rho = int(masses.argmax())
    assert masses[rho] >= (1.0 - 1e-10) * masses.sum()
    return rho


@pytest.mark.parametrize("dims", BENCHMARK_CODES)
def test_closed_form_round_matches_fourier_readout(dims):
    # Syndromes against the position and Fourier residue masses of the
    # errored state, and recovered amplitudes against the net word
    # (X^ahat Z^bhat)^-1 X^a Z^b applied once, byte for byte, and against
    # the error and the undo applied as two separate words.
    params = GkpParams(*dims)
    k, r1, r2, n = params.k, params.r1, params.r2, params.n
    basis = build_gkp_code(params).basis_matrix()
    rng = np.random.default_rng(sum(dims))
    shifts = [(0, 0), (-1, 1), (n, -n), (-n - 1, n + 1), (2 * n, -2 * n), (n + r1, -n - r2 // 2)]
    shifts += [tuple(int(v) for v in rng.integers(-2 * n, 2 * n + 1, size=2)) for _ in range(14)]
    for a, b in shifts:
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        state = StateVec(params.spin_label, coeffs @ basis).normalized()
        out = syndrome_and_recover(params, a, b, state)
        errored = finite_gkp._apply_word(state.amps, n, a % n, b % n, 0)
        assert out.syndrome_a == _read_residue(errored, r1), (a, b)
        assert out.syndrome_b == _read_residue(np.fft.fft(errored), r2), (a, b)
        a_hat, b_hat = out.a_hat, out.b_hat
        net = PauliWord(n, a_hat, b_hat).inverse() * PauliWord(n, a, b)
        once = finite_gkp._apply_word(state.amps, n, net.a, net.b, net.c)
        assert out.recovered.amps.tobytes() == once.tobytes(), (a, b)
        undo = finite_gkp._apply_word(errored, n, -a_hat % n, -b_hat % n, 2 * a_hat * b_hat % (2 * n))
        assert np.max(np.abs(out.recovered.amps - undo)) <= 1e-13, (a, b)
