"""Each computation makes one pass over its arrays; the multi-pass code it
replaced is kept here, test-local, as the reference."""

import math

import numpy as np
import pytest

from spinqec import monopole
from spinqec.coherent import coherent_amplitudes, rotation_matrix_elements, theta_rule
from spinqec.lll_codes import hermitian_check_ops
from spinqec.monopole import build_full_landau_code
from spinqec.recovery import syndrome_density
from spinqec.rotations import EulerAngles, haar_random_sequence
from spinqec.spin_core import HalfInt

# ----------------------------------------------------------------------
# monopole._jacobi: every entry up to the largest degree, no degree sort
# ----------------------------------------------------------------------


def _former_jacobi(n, a, b, x):
    # monopole._jacobi as it stood: entries sorted by descending degree, the
    # recurring ones a shrinking prefix
    shape = np.broadcast(n, a, b, x).shape
    size = math.prod(shape)
    if isinstance(n, np.ndarray) and n.ndim:
        n = np.broadcast_to(n, shape).ravel()
        order = np.argsort(-n, kind="stable")
        unsort = np.empty_like(order)
        unsort[order] = np.arange(size)
        counts = np.searchsorted(-n[order], -np.arange(int(n.max()) + 2), side="right").tolist()
    else:
        order = unsort = slice(None)
        counts = [size] * (int(n) + 1) + [0]

    def sorted_or_scalar(v):
        if not (isinstance(v, np.ndarray) and v.ndim):
            return float(v)
        if v.shape != shape:
            v = np.broadcast_to(v, shape)
        return v.astype(float, copy=False).ravel()[order]

    a, b, x = (sorted_or_scalar(v) for v in (a, b, x))
    inputs = (a, b, a + b, a * a - b * b, x)
    top = len(counts) - 2
    out = np.ones(size)
    e = np.zeros(size, dtype=np.int64)

    def active(c):
        return [v[:c] if isinstance(v, np.ndarray) else v for v in inputs]

    c = counts[1]
    a, b, s, a2_b2, x = active(c)
    p_prev = np.ones(c) if shape else 1.0
    p_cur = (0.5 * (a - b) + (1.0 + 0.5 * s) * x) * p_prev
    for k in range(2, top + 1):
        if counts[k] < c:
            out[counts[k] : c] = p_cur[counts[k] :]
            c = counts[k]
            a, b, s, a2_b2, x = active(c)
            p_cur, p_prev = p_cur[:c], p_prev[:c]
        tk = s + 2.0 * k
        c0 = 2.0 * k * (k + s) * (tk - 2.0)
        c1 = (tk - 1.0) * tk * (tk - 2.0)
        c2 = (tk - 1.0) * a2_b2
        c3 = 2.0 * (k - 1.0 + a) * (k - 1.0 + b) * tk
        p_prev, p_cur = p_cur, ((c1 * x + c2) * p_cur - c3 * p_prev) / c0
        if k % 8 == 0:
            big = np.maximum(np.abs(p_cur), np.abs(p_prev)) > 2.0**512
            if np.any(big):
                p_cur = np.where(big, p_cur * 2.0**-512, p_cur)
                p_prev = np.where(big, p_prev * 2.0**-512, p_prev)
                e[:c] += np.where(big, 512, 0)
    out[:c] = p_cur
    return out[unsort].reshape(shape), e[unsort].reshape(shape)


def _jacobi_cases():
    # scalar and array mixes of (n, a, b, x), degrees 0 and 1 among them and
    # degrees up to 700, past the first rescales
    rng = np.random.default_rng(26)
    families = [[(), (7,), (1,)], [(), (6,), (4, 1), (1, 6), (4, 6)], [()]]
    cases = [(0, 0, 0, 0.3), (1, 2, 3, -0.7), (0, 4, 1, np.linspace(-1, 1, 5))]
    cases += [(np.array([0, 1, 0, 1]), 3, np.array([0, 2, 5, 1]), 0.25)]
    cases += [(400, 400, 0, 1.0), (np.array([700, 0, 1, 650]), 300, 10, np.linspace(1.0, 0.97, 4))]
    for i in range(90):
        top = (2, 20, 700)[i % 3]
        shapes = families[i % 4 % 3]
        args = []
        for hi in (top, 400, 200):
            shape = shapes[rng.integers(len(shapes))]
            value = rng.integers(0, hi + 1, size=shape)
            args.append(int(value) if value.ndim == 0 and rng.random() < 0.5 else value)
        shape = shapes[rng.integers(len(shapes))]
        # near x = 1 the high degrees pass 2**512
        x = rng.uniform(0.97 if top == 700 else -1.0, 1.0, size=shape)
        args.append(float(x) if x.ndim == 0 and rng.random() < 0.5 else x)
        cases.append(tuple(args))
    return cases


def test_jacobi_bytes_equal_former_sorted_prefix():
    for n, a, b, x in _jacobi_cases():
        got, want = monopole._jacobi(n, a, b, x), _former_jacobi(n, a, b, x)
        for g, w in zip(got, want):
            assert type(g) is type(w) and g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes(), (n, a, b, x)


@pytest.mark.parametrize("N,j", [(4, 0.5), (8, 1), (16, 2.5), (64, 1), (5, 0), (3, 0.5)])
def test_landau_entries_bytes_equal_former_sorted_prefix(monkeypatch, N, j):
    got = build_full_landau_code(N, j)
    monkeypatch.setattr(monopole, "_jacobi", _former_jacobi)
    want = build_full_landau_code(N, j)
    assert np.array([e.amp for e in got.entries]).tobytes() == np.array(
        [e.amp for e in want.entries]
    ).tobytes()
    assert got == want


# ----------------------------------------------------------------------
# syndrome_density(mode="validate"): one meridian matrix for all azimuths
# ----------------------------------------------------------------------


def _former_validate(j, d, k, delta_phi, phi_m):
    # the per-azimuth collapse state as it stood: one closed-form overlap
    # and one amplitude matrix per lattice meridian and azimuth
    j = HalfInt.of(j)
    tj = j.twice
    phi_state = 2.0 * math.pi * (int(k) % d) / d + float(delta_phi)
    thetas, weights = theta_rule(2 * tj)
    phi_m = np.atleast_1d(np.asarray(phi_m, dtype=float))
    out = np.empty_like(phi_m)
    for i, pm in enumerate(phi_m):
        u = np.zeros(tj + 1, dtype=complex)
        for kk in range(d):
            phi_u = float(pm) - 2.0 * math.pi * kk / d
            inp = (math.pi / 2.0, phi_state)
            ovl = rotation_matrix_elements(j, (thetas, phi_u), (0,) * 3, inp)
            v = coherent_amplitudes(j, thetas, np.full_like(thetas, phi_u))
            u = u + v @ (weights * ovl)
        out[i] = float(np.real(np.vdot(u, u)))
    return out if out.size > 1 else out[0]


@pytest.mark.parametrize("j", [0, 1, 4, 8])
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("delta_phi", [0.0, 0.13])
def test_validate_density_matches_former_loop(j, d, delta_phi):
    density = syndrome_density(j, d, 1, delta_phi, mode="validate")
    phis = np.linspace(0.0, 2.0 * math.pi, 41)
    got, want = density(phis), _former_validate(j, d, 1, delta_phi, phis)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / want) < 1e-13
    for phi in (0.0, 0.7, float(phis[-3])):
        got, want = density(phi), _former_validate(j, d, 1, delta_phi, phi)
        assert np.ndim(got) == 0 and abs(got - want) < 1e-13 * want


# ----------------------------------------------------------------------
# hermitian_check_ops: cos and sin from one realization of exp(i d phi)
# ----------------------------------------------------------------------


def test_check_operators_exactly_hermitian():
    # the two separate realizations left 153 of these 240 operators an ulp
    # or so off Hermitian
    for twice in range(41):
        for d in (1, 2, 3):
            for op in hermitian_check_ops(HalfInt(twice), d):
                assert np.array_equal(op.mat, op.mat.conj().T), (twice, d)


# ----------------------------------------------------------------------
# haar_random_sequence: one draw of count rows
# ----------------------------------------------------------------------


def _former_haar_random_sequence(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = 2.0 * math.pi * rng.random()
        gamma = 2.0 * math.pi * rng.random()
        beta = math.acos(2.0 * rng.random() - 1.0)
        out.append(EulerAngles(alpha, beta, gamma))
    return out


@pytest.mark.parametrize("count", [0, 1, 5, 100])
def test_haar_random_sequence_equals_former_loop(count):
    for seed in range(20):
        got = haar_random_sequence(seed, count)
        assert got == _former_haar_random_sequence(seed, count)
        assert all(type(v) is float for r in got for v in (r.alpha, r.beta, r.gamma))
