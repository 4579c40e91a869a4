"""Properties searched by hypothesis over the whole accepted domain.

Each property is an identity, or a closed form from oracles.py, that
holds at every input; hypothesis draws the inputs and shrinks a failure
to a minimal one.
derandomize=True and database=None keep the module deterministic: the
same draws on every run and no example database written.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinqec import HalfInt, coherent_amplitudes, recover, theta_rule
from spinqec.finite_gkp import GkpParams, PauliWord, build_gkp_code, syndrome_and_recover, tiling_window
from spinqec.recovery import _rounds
from spinqec.spin_core import StateVec

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@_SETTINGS
@given(
    twice_j=st.integers(min_value=0, max_value=200_000),
    thetas=st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=4),
)
def test_amplitude_columns_are_unit_vectors_at_every_j(twice_j, thetas):
    # at phi = 0 every phase is exactly 1, so the table holds the magnitudes:
    # each column a unit vector, no entry above 1, and the poles basis states
    j = HalfInt(twice_j)
    table = coherent_amplitudes(j, thetas + [0.0, math.pi], [0.0] * (len(thetas) + 2)).real
    assert np.all(np.abs(np.linalg.norm(table, axis=0) - 1.0) <= 1e-14)
    assert np.all((0.0 <= table) & (table <= 1.0))
    north, south = np.zeros(j.dim), np.zeros(j.dim)
    north[0] = south[-1] = 1.0
    assert np.array_equal(table[:, -2], north) and np.array_equal(table[:, -1], south)


@_SETTINGS
@given(degree=st.integers(min_value=0, max_value=1500), data=st.data())
def test_theta_rule_is_a_mirrored_positive_rule_at_every_degree(degree, data):
    # degree + 3 ascending interior nodes, mirror-symmetric about pi/2 with
    # their weights, total mass 2, and one drawn half-angle monomial of
    # degree a + b <= degree integrated exactly, in the contract row's log form
    thetas, weights = theta_rule(degree)
    assert len(thetas) == len(weights) == degree + 3
    assert 0.0 < thetas[0] and thetas[-1] < math.pi and np.all(np.diff(thetas) > 0.0)
    assert np.all(weights > 0.0)
    assert np.max(np.abs(thetas + thetas[::-1] - math.pi)) <= 4e-15
    assert np.max(np.abs(weights / weights[::-1] - 1.0)) <= 1e-13
    assert abs(weights.sum() - 2.0) <= 1e-14
    a = data.draw(st.integers(min_value=0, max_value=degree), label="a")
    b = data.draw(st.integers(min_value=0, max_value=degree - a), label="b")
    got = np.exp(a * np.log(np.cos(0.5 * thetas)) + b * np.log(np.sin(0.5 * thetas))) @ weights
    assert abs(got / oracles.beta_moment(a, b) - 1.0) <= 5e-12


@settings(_SETTINGS, max_examples=200)
@given(j=st.integers(min_value=1, max_value=10**4), data=st.data())
def test_recovery_rounds_at_every_accepted_d(j, data):
    # every d the decode accepts, up to 4096: fidelities in [0, 1], the
    # recovered codeword in range, and each row of a block the bytes of
    # its one-seed round
    d = data.draw(st.integers(min_value=2, max_value=min(2 * j + 1, 4096)), label="d")
    k = data.draw(st.integers(min_value=-d, max_value=2 * d), label="k")
    delta_phi = data.draw(st.floats(min_value=-1e3, max_value=1e3), label="delta_phi")
    seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
    j_anc = data.draw(st.none() | st.integers(min_value=0, max_value=10**4), label="j_anc")
    _, block = _rounds(j, d, k, delta_phi, range(seed, seed + 3), j_anc)
    for row, s in enumerate(range(seed, seed + 3)):
        run = recover(j, d, k, delta_phi, s, j_anc=j_anc)
        for column, value in zip(block, (run.measured_phi, run.recovered_k, run.fidelity, run.raw_fidelity)):
            assert column[row:row + 1].tobytes() == np.array([value], dtype=column.dtype).tobytes()
        assert 0 <= run.recovered_k < d
        assert 0.0 <= run.raw_fidelity <= 1.0 and 0.0 <= run.fidelity <= 1.0


@_SETTINGS
@given(k=st.integers(min_value=2, max_value=150), data=st.data())
def test_gkp_round_is_one_word_on_every_code_state(k, data):
    # N = k r1 r2 <= 300, a random code state and shifts up to 3N either way,
    # or inside the tiling windows: the syndromes are the residues, the
    # recovery is the dense product of the undo and error matrices, the
    # logical error follows the quotients of the net word, and an
    # in-window round returns its input's bytes
    r1 = data.draw(st.integers(min_value=1, max_value=300 // k), label="r1")
    r2 = data.draw(st.integers(min_value=1, max_value=300 // (k * r1)), label="r2")
    params = GkpParams(k, r1, r2)
    n = params.n
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32), label="seed"))
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    state = StateVec(params.spin_label, coeffs @ build_gkp_code(params).basis_matrix()).normalized()
    a = data.draw(st.sampled_from(tiling_window(r1)) | st.integers(min_value=-3 * n, max_value=3 * n), label="a")
    b = data.draw(st.sampled_from(tiling_window(r2)) | st.integers(min_value=-3 * n, max_value=3 * n), label="b")
    out = syndrome_and_recover(params, a, b, state)
    assert (out.syndrome_a, out.syndrome_b) == (a % r1, b % r2)
    undo = PauliWord(n, out.a_hat, out.b_hat).inverse()
    dense = undo.to_operator().mat @ (PauliWord(n, a, b).to_operator().mat @ state.amps)
    assert np.max(np.abs(out.recovered.amps - dense)) <= 1e-13
    net = undo * PauliWord(n, a, b)
    assert net.a % r1 == 0 and net.b % r2 == 0
    assert out.logical_error == bool((net.a // r1) % k or (net.b // r2) % k)
    if not out.logical_error:
        assert abs(abs(np.vdot(state.amps, out.recovered.amps)) - 1.0) <= 1e-13
    if a in tiling_window(r1) and b in tiling_window(r2):
        assert out.recovered.amps.tobytes() == state.amps.tobytes()
