"""Coherent states, closed-form matrix elements, and the sphere quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from spinqec.coherent import (
    SphPoint,
    coherent_amplitudes,
    coherent_state,
    diagonal_operator,
    disentangle_check,
    equatorial_matrix_element,
    lower_symbol,
    momentum_kick,
    overlap,
    overlap_magnitude,
    rotate_point,
    rotation_matrix_element,
    sphere_quadrature,
    theta_rule,
    y_symbol,
)
from spinqec.rotations import EulerAngles, haar_random, rotate_vector, wigner_D_matrix
from spinqec.spin_core import MAX_DENSE_DIM, HalfInt, StateVec, l3_operator

import oracles
from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


def _random_points(rng, count):
    thetas = np.arccos(rng.uniform(-1.0, 1.0, size=count))
    phis = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return [SphPoint(t, p) for t, p in zip(thetas, phis)]


def test_sphpoint_validation():
    with pytest.raises(ValueError):
        SphPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        SphPoint(math.pi + 0.1, 0.0)
    p = SphPoint(1.0, 2.0 * math.pi + 0.25)
    assert abs(p.phi - 0.25) < 1e-12
    assert abs(np.linalg.norm(p.n) - 1.0) < 1e-15
    assert SphPoint.north().theta == 0.0
    assert SphPoint.south().theta == math.pi


def test_poles_are_exact_basis_states():
    j = HalfInt(9)
    top = coherent_state(j, SphPoint.north()).amps
    bottom = coherent_state(j, SphPoint(math.pi, 1.3)).amps
    e_top = np.zeros(j.dim, dtype=complex)
    e_top[0] = 1.0
    e_bottom = np.zeros(j.dim, dtype=complex)
    e_bottom[-1] = 1.0
    assert np.array_equal(top, e_top)
    assert np.array_equal(np.abs(bottom), np.abs(e_bottom))


@pytest.mark.parametrize("twice", [1, 2, 7, 40])
def test_normalization(twice):
    j = HalfInt(twice)
    rng = np.random.default_rng(twice)
    for p in _random_points(rng, 8):
        assert abs(coherent_state(j, p).norm - 1.0) < 1e-13


def test_state_is_rotation_matrix_column():
    # dual route: amplitudes equal column m = j of X_R at R = (phi, theta, -phi)
    for twice in (1, 3, 8):
        j = HalfInt(twice)
        p = SphPoint(0.9, 2.2)
        col = wigner_D_matrix(j, EulerAngles(p.phi, p.theta, -p.phi)).mat[:, 0]
        assert np.max(np.abs(coherent_state(j, p).amps - col)) < 1e-13


def test_amplitudes_match_state_columns():
    j = HalfInt(5)
    thetas = [0.3, 1.2, 2.9]
    phis = [0.1, 4.0, 5.5]
    block = coherent_amplitudes(j, thetas, phis)
    assert block.shape == (j.dim, 3)
    for col, (t, p) in enumerate(zip(thetas, phis)):
        assert np.array_equal(block[:, col], coherent_state(j, SphPoint(t, p)).amps)


def test_overlap_against_vdot_and_law():
    rng = np.random.default_rng(42)
    for twice in (1, 4, 13, 40):
        j = HalfInt(twice)
        pts = _random_points(rng, 20)
        for p1, p2 in zip(pts[::2], pts[1::2]):
            v = np.vdot(coherent_state(j, p1).amps, coherent_state(j, p2).amps)
            o = overlap(j, p1, p2)
            assert abs(o - v) < 1e-12
            law = ((1.0 + float(np.dot(p1.n, p2.n))) / 2.0) ** j.value
            assert abs(abs(o) - law) < 1e-12
            assert abs(overlap_magnitude(j, p1, p2) - law) < 1e-12


def test_antipodal_overlap_exactly_zero():
    j = HalfInt(13)
    assert overlap(j, SphPoint.north(), SphPoint.south()) == 0.0
    assert overlap(j, SphPoint(math.pi, 2.2), SphPoint(0.0, 0.7)) == 0.0
    # away from the poles the cancellation is only as exact as e^{i pi}
    generic = overlap(j, SphPoint(0.4, 1.0), SphPoint(math.pi - 0.4, 1.0 + math.pi))
    assert abs(generic) < 1e-200


def test_underflow_clamp():
    # nearly antipodal points at large j underflow to exact zero, flagged
    j = HalfInt(40000)
    out = SphPoint(0.0, 0.0)
    inp = SphPoint(3.0, 0.0)
    value, clamped = rotation_matrix_element(j, out, EulerAngles.identity(), inp, with_underflow=True)
    assert value == 0.0
    assert clamped
    value, clamped = rotation_matrix_element(HalfInt(2), out, EulerAngles.identity(), inp, with_underflow=True)
    assert value != 0.0
    assert not clamped


def test_rotation_matrix_element_vs_dense():
    rng = np.random.default_rng(7)
    for twice in (1, 2, 5, 12):
        j = HalfInt(twice)
        for seed in range(4):
            r = haar_random(100 * twice + seed)
            out, inp = _random_points(rng, 2)
            closed = rotation_matrix_element(j, out, r, inp)
            bra = coherent_state(j, out)
            ket = coherent_state(j, inp)
            dense = wigner_D_matrix(j, r).sandwich(bra, ket)
            scale = max(abs(dense), 1e-12)
            assert abs(closed - dense) / scale < 1e-9


def test_equatorial_matrix_element():
    j = HalfInt(20)
    for phi_out, big_theta, phi_in in [(0.3, 0.9, 1.7), (2.0, -0.4, 2.0), (0.0, 5.0, 4.4)]:
        closed = equatorial_matrix_element(j, phi_out, big_theta, phi_in)
        route = rotation_matrix_element(
            j,
            SphPoint(math.pi / 2.0, phi_out),
            EulerAngles.about_z(big_theta),
            SphPoint(math.pi / 2.0, phi_in),
        )
        assert abs(closed - route) < 1e-12
    # frozen: |<pi/2, pi| about_z(pi/6) |pi/2, 0>| = ((1 - cos(pi/6))/2)^10
    mag = abs(equatorial_matrix_element(HalfInt(20), math.pi, math.pi / 6.0, 0.0))
    assert abs(mag - 1.8193850065240106e-12) / 1.8193850065240106e-12 < 1e-6


def test_rotate_point():
    p = rotate_point(EulerAngles.about_y(0.5), SphPoint.north())
    assert abs(p.theta - 0.5) < 1e-12
    r = haar_random(21)
    q = SphPoint(1.1, 0.7)
    assert np.max(np.abs(rotate_point(r, q).n - rotate_vector(r, q.n))) < 1e-12


def test_theta_rule_frozen_moment():
    thetas, weights = theta_rule(4)
    ch = np.cos(0.5 * thetas)
    sh = np.sin(0.5 * thetas)
    got = float(np.sum(weights * ch**3 * sh)) / 2.0
    assert abs(got - math.pi / 16.0) < 1e-14


def test_theta_rule_validation():
    with pytest.raises(ValueError):
        theta_rule(-1)


def test_theta_rule_positive_interior_nodes():
    for degree in [*range(65), 128, 384, 1024]:
        thetas, weights = theta_rule(degree)
        assert len(thetas) == len(weights) == degree + 3, degree
        assert np.all(thetas > 0.0) and np.all(thetas < math.pi), degree
        assert np.all(weights > 0.0), degree


def test_phi_modes_exact():
    q = sphere_quadrature(degree=4, n_phi=7)
    _, pp, _ = q.grids()
    phis = q.phis
    w = q.phi_weight
    for k in range(-6, 7):
        got = w * np.sum(np.exp(1j * k * phis))
        want = 2.0 * math.pi if k == 0 else 0.0
        assert abs(got - want) < 1e-12


def test_sphere_quadrature_shapes():
    q = sphere_quadrature(HalfInt(4))
    assert q.degree == 8
    assert q.n_phi == 10
    q2 = sphere_quadrature(degree=6, phi_multiple=5)
    assert q2.n_phi % 5 == 0
    full = q.integrate(lambda t, p: np.ones_like(t))
    assert abs(full - 4.0 * math.pi) < 1e-12
    assert len(q.nodes) == q.n_theta * q.n_phi
    assert len(q.weights) == len(q.nodes)


@pytest.mark.parametrize("twice", [1, 6, 15])
def test_resolution_of_identity(twice):
    j = HalfInt(twice)
    d = diagonal_operator(j, lambda t, p: np.ones_like(t), band_limit=(0, 0))
    assert not d.approximate
    assert np.max(np.abs(d.realized.mat - np.eye(j.dim))) < 1e-12


def test_diagonal_operator_n_phi_guard():
    j = HalfInt(4)
    with pytest.raises(ValueError):
        diagonal_operator(j, lambda t, p: np.ones_like(t), band_limit=(0, 0), n_phi=2)
    free = diagonal_operator(j, lambda t, p: np.ones_like(t))
    assert free.approximate


def test_phase_symbol_is_single_stripe():
    # symbol e^{i phi} realizes a single off-diagonal stripe
    j = HalfInt(6)
    d = diagonal_operator(j, lambda t, p: np.exp(1j * p), band_limit=(1, 0))
    mat = d.realized.mat
    for row in range(j.dim):
        for col in range(j.dim):
            if col - row != 1:
                assert abs(mat[row, col]) < 1e-13


def test_lower_symbol_of_l3():
    j = HalfInt(7)
    for theta in (0.0, 0.4, 2.0):
        p = SphPoint(theta, 1.1)
        assert abs(lower_symbol(l3_operator(j), p) - j.value * math.cos(theta)) < 1e-12


def test_momentum_kick_band():
    j = HalfInt(6)
    m = HalfInt(2)
    kick = momentum_kick(j, m)
    assert not kick.approximate
    rows, cols = np.nonzero(np.abs(kick.realized.mat) > 1e-13)
    offset = (j.twice - m.twice) // 2
    assert set(rows - cols) == {offset}
    with pytest.raises(ValueError):
        y_symbol(j, HalfInt(1))  # parity mismatch with 2j
    with pytest.raises(ValueError):
        y_symbol(j, HalfInt(8))


def test_momentum_kick_moves_top_level():
    # acting on |j> the kick lands every amplitude on |m>
    j = HalfInt(8)
    m = HalfInt(4)
    kick = momentum_kick(j, m).realized
    top = StateVec.basis_state(j, j)
    moved = kick.apply(top).amps
    idx = (j.twice - m.twice) // 2
    mask = np.ones(j.dim, dtype=bool)
    mask[idx] = False
    assert np.max(np.abs(moved[mask])) < 1e-13
    assert abs(moved[idx]) > 0.0


def test_disentangle_check():
    assert disentangle_check(HalfInt(5), SphPoint(0.8, 0.3)) < 1e-10
    # tan(theta/2) grows toward the south pole and the residual with it
    assert disentangle_check(HalfInt(12), SphPoint(2.0, 4.0)) < 1e-9
    assert disentangle_check(HalfInt(24), SphPoint(1.5, 0.9)) < 1e-7
    with pytest.raises(ValueError):
        disentangle_check(HalfInt(5), SphPoint(math.pi, 0.0))


@pytest.mark.parametrize("j", [20, 40, 60])
def test_disentangle_check_normwise_at_large_j(j):
    # the residual is relative to the factors' scale, here up to 1.5e26; the
    # former 2j dense products per factor left 1.4e-8, 14.8 and 2.1e10 absolute
    assert disentangle_check(j, SphPoint(1.0, 0.3)) <= 1e-13


def test_disentangle_check_stops_at_max_dense_dim():
    j = HalfInt(MAX_DENSE_DIM)  # 2j + 1 = MAX_DENSE_DIM + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"j = 4096: 2j \+ 1 = 8193 exceeds MAX_DENSE_DIM"):
            disentangle_check(j, SphPoint(0.01, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _dense_diagonal_operator(j, symbol, band_limit=None, n_phi=None, phi_multiple=1):
    """The direct quadrature sum over every node, with the rule sized as
    diagonal_operator sizes it: the reference for the factorized form."""
    j = HalfInt.of(j)
    tj = j.twice
    if band_limit is not None:
        degree = 2 * tj + band_limit[1]
        n_phi = tj + band_limit[0] + 1 if n_phi is None else n_phi
    else:
        degree = 2 * tj
        n_phi = 2 * tj + 2 if n_phi is None else n_phi
    rule = sphere_quadrature(degree=degree, n_phi=n_phi, phi_multiple=phi_multiple)
    tt, pp, ww = rule.grids()
    values = np.asarray(symbol(tt, pp), dtype=complex)
    v = coherent_amplitudes(j, tt, pp)
    return (v * (ww * values * (tj + 1) / (4.0 * math.pi))[None, :]) @ v.conj().T


def _assert_close_to_dense(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("twice", [1, 6, 17, 32])
def test_diagonal_operator_matches_dense_quadrature_sum(twice):
    from spinqec.lll_codes import equatorial_qudit, hermitian_check_ops, logical_operators

    j = HalfInt(twice)
    for tm in range(-twice, twice + 1, 2 if twice < 8 else 8):
        k_max = (twice - tm) // 2
        _assert_close_to_dense(
            momentum_kick(j, HalfInt(tm)).realized.mat,
            _dense_diagonal_operator(j, y_symbol(j, HalfInt(tm)), band_limit=(k_max, twice)),
        )
    for d in (2, 3):
        zbar = _dense_diagonal_operator(j, lambda t, p: np.exp(1j * p), (1, 0), phi_multiple=d)
        zcheck = _dense_diagonal_operator(j, lambda t, p: np.exp(1j * d * p), (d, 0), phi_multiple=d)
        if j.is_integer:  # equatorial qudits need integer j
            logical = logical_operators(equatorial_qudit(j, d))
            _assert_close_to_dense(logical.zbar.mat, zbar)
            _assert_close_to_dense(logical.zcheck.mat, zcheck)
        else:
            got = diagonal_operator(j, lambda t, p: np.exp(1j * d * p), (d, 0), phi_multiple=d)
            _assert_close_to_dense(got.realized.mat, zcheck)
        cos_op, sin_op = hermitian_check_ops(j, d)
        _assert_close_to_dense(cos_op.mat, _dense_diagonal_operator(j, lambda t, p: np.cos(d * p), (d, 0)))
        _assert_close_to_dense(sin_op.mat, _dense_diagonal_operator(j, lambda t, p: np.sin(d * p), (d, 0)))

    def rough(t, p):
        # not band-limited: approximate=True, modes alias on the azimuthal grid
        return np.exp(np.cos(t)) * np.sin(3.0 * p) ** 2 + 1j * np.abs(np.cos(5.0 * p))

    op = diagonal_operator(j, rough)
    assert op.approximate
    _assert_close_to_dense(op.realized.mat, _dense_diagonal_operator(j, rough))
    _assert_close_to_dense(
        diagonal_operator(j, rough, n_phi=2 * twice + 5).realized.mat,
        _dense_diagonal_operator(j, rough, n_phi=2 * twice + 5),
    )


def test_momentum_kick_memory_at_j_64():
    import tracemalloc

    momentum_kick(64, 63)  # fills the cached colatitude rule
    tracemalloc.start()
    try:
        kick = momentum_kick(64, 63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(kick.realized.mat))
    assert peak < 50e6


def test_phase_table_bytes_equal_former_construction_up_to_32_levels():
    # up to 2j + 1 = 32 the table is one exponential per entry, as it was
    from spinqec.coherent import _amplitude_magnitudes

    rng = np.random.default_rng(32)
    thetas, phis = rng.uniform(0.0, math.pi, 9), rng.uniform(0.0, 2.0 * math.pi, 9)
    for twice in range(32):
        former = _amplitude_magnitudes(twice, thetas) * np.exp(1j * np.arange(twice + 1)[:, None] * phis[None, :])
        assert coherent_amplitudes(HalfInt(twice), thetas, phis).tobytes() == former.tobytes(), twice
        assert coherent_state(HalfInt(twice), SphPoint(thetas[0], phis[0])).amps.tobytes() == former[:, 0].tobytes()


def _all_diagonals(j, symbol, band_limit):
    """The factorized quadrature filled on every one of the 4j + 1
    diagonals, the rule sized as diagonal_operator sizes it for a
    declared band: the reference for the band-only fill."""
    from spinqec.coherent import _amplitude_magnitudes

    tj = j.twice
    k_max, theta_degree = band_limit
    rule = sphere_quadrature(degree=2 * tj + theta_degree, n_phi=tj + k_max + 1)
    tt, pp, _ = rule.grids()
    values = np.asarray(symbol(tt, pp), dtype=complex)
    modes = 2.0 * math.pi * np.fft.ifft(values.reshape(rule.n_theta, rule.n_phi), axis=1)
    modes *= (rule.theta_weights * (tj + 1) / (4.0 * math.pi))[:, None]
    mag = _amplitude_magnitudes(tj, rule.thetas)
    mat = np.empty((j.dim, j.dim), dtype=complex)
    rows = np.arange(j.dim)
    for k in range(-tj, tj + 1):
        lo, hi = max(0, k), j.dim + min(0, k)
        diagonal = (mag[lo:hi] * mag[lo - k : hi - k]) @ modes[:, k % rule.n_phi]
        mat[rows[lo:hi], rows[lo - k : hi - k]] = diagonal
    return mat


def _assert_band_only(got, j, symbol, band_limit):
    ref = _all_diagonals(j, symbol, band_limit)
    rows = np.arange(j.dim)
    band = np.abs(rows[:, None] - rows[None, :]) <= min(band_limit[0], j.twice)
    assert np.all(got[~band] == 0.0)
    assert np.max(np.abs(got[band] - ref[band])) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("twice", [1, 4, 7, 12, 21])
def test_declared_band_is_filled_alone(twice):
    # the symbols the one-mode builders realized through diagonal_operator
    # before their bands were written in closed form
    j = HalfInt(twice)

    def realized(symbol, band_limit):
        return diagonal_operator(j, symbol, band_limit=band_limit).realized.mat

    for tm in range(-twice, twice + 1, 2):
        k_max = (twice - tm) // 2
        kick = y_symbol(j, HalfInt(tm))
        _assert_band_only(realized(kick, (k_max, twice)), j, kick, (k_max, twice))
    for d in (2, 3, 4):
        zbar, zcheck = (lambda t, p: np.exp(1j * p)), (lambda t, p: np.exp(1j * d * p))
        _assert_band_only(realized(zbar, (1, 0)), j, zbar, (1, 0))
        _assert_band_only(realized(zcheck, (d, 0)), j, zcheck, (d, 0))
    for d in (1, 2, 3):
        cos, sin = (lambda t, p: np.cos(d * p)), (lambda t, p: np.sin(d * p))
        _assert_band_only(realized(cos, (d, 0)), j, cos, (d, 0))
        _assert_band_only(realized(sin, (d, 0)), j, sin, (d, 0))


def _one_mode_reference(twice, k, *args, weight=1.0):
    # the dense realization of a one-mode symbol from the 40-digit band
    ref = np.zeros((twice + 1, twice + 1), dtype=complex)
    band = [float(v) * weight for v in oracles.mode_band(twice, k, *args)]
    rows = np.arange(max(0, k), max(0, k) + len(band))
    ref[rows, rows - k] = band
    return ref


def _assert_mode_alone(got, ref):
    # every entry off the mode an exact zero, the mode to 1e-15 of its largest entry
    assert np.all(got[ref == 0.0] == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("twice", [1, 4, 7, 12, 21])
def test_one_mode_builders_fill_their_mode_alone(twice):
    # momentum_kick filled all 2(j - m) + 1 diagonals of its declared band,
    # and at m = -j the quadrature noise off the mode exceeded the one true
    # entry (8.2e-16 against 2.3e-26 at 2j = 64)
    from spinqec.lll_codes import equatorial_qudit, hermitian_check_ops, logical_operators

    j = HalfInt(twice)
    for tm in range(-twice, twice + 1, 2):
        k = (twice - tm) // 2
        ref = _one_mode_reference(twice, k, twice - k, k, math.comb(twice, k))
        kick = momentum_kick(j, HalfInt(tm))
        _assert_mode_alone(kick.realized.mat, ref)
        # the exact product rule's size, as diagonal_operator reported it
        assert (kick.approximate, kick.degree, kick.n_phi) == (False, 3 * twice, twice + k + 1)
    if j.is_integer:
        for d in (2, 3, 4):
            logical = logical_operators(equatorial_qudit(j, d))
            _assert_mode_alone(logical.zbar.mat, _one_mode_reference(twice, -1))
            _assert_mode_alone(logical.zcheck.mat, _one_mode_reference(twice, -d))
    for d in (1, 2, 3, -2):
        half = _one_mode_reference(twice, -d, weight=0.5)
        cos_op, sin_op = hermitian_check_ops(j, d)
        _assert_mode_alone(cos_op.mat, half + half.T)
        _assert_mode_alone(sin_op.mat, (half - half.T) / 1j)
