"""Euler-angle charts, the SU(2) double cover, and Wigner rotation matrices."""

import math

import numpy as np
import pytest

from spinqec.rotations import (
    EulerAngles,
    canonicalize,
    compose,
    euler_from_su2,
    haar_random,
    haar_random_sequence,
    inverse,
    rotate_vector,
    rotation_operator,
    su2_from_euler,
    wigner_D_matrix,
    wigner_d,
    wigner_d_matrix,
)
from spinqec.spin_core import HalfInt, axis_operator, matexp_antihermitian

from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


def test_euler_statics():
    assert EulerAngles.identity() == EulerAngles(0.0, 0.0, 0.0)
    assert EulerAngles.about_z(1.2) == EulerAngles(1.2, 0.0, 0.0)
    assert EulerAngles.about_y(0.7) == EulerAngles(0.0, 0.7, 0.0)


def test_su2_group_law_and_inverse():
    u1 = su2_from_euler(EulerAngles(0.3, 1.1, -0.4))
    u2 = su2_from_euler(EulerAngles(-2.0, 0.6, 0.9))
    prod = u1 @ u2
    assert np.max(np.abs(prod.matrix - u1.matrix @ u2.matrix)) < 1e-15
    assert prod.unit_defect() < 1e-15
    ident = (u1 @ u1.inverse()).matrix
    assert np.max(np.abs(ident - np.eye(2))) < 1e-15


@pytest.mark.parametrize("seed", range(12))
def test_canonicalize_roundtrip(seed):
    r = haar_random(seed)
    # push the angles out of the canonical chart
    wild = EulerAngles(r.alpha + 4.0 * math.pi, -r.beta, r.gamma - 6.0 * math.pi)
    canon, sign = canonicalize(wild)
    assert sign in (1, -1)
    assert 0.0 <= canon.beta <= math.pi + 1e-15
    assert 0.0 <= canon.alpha < 2.0 * math.pi
    assert 0.0 <= canon.gamma < 2.0 * math.pi
    lhs = su2_from_euler(canon).matrix
    rhs = sign * su2_from_euler(wild).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_euler_from_su2_tie_break():
    # beta = 0: all the weight goes to alpha, gamma pinned at 0
    r, sign = euler_from_su2(su2_from_euler(EulerAngles(0.4, 0.0, 0.5)))
    assert r.beta == 0.0
    assert r.gamma == 0.0
    assert abs(r.alpha - 0.9) < 1e-12
    r, _ = euler_from_su2(su2_from_euler(EulerAngles(0.4, math.pi, 0.5)))
    assert r.gamma == 0.0
    assert abs(r.beta - math.pi) < 1e-12


def test_compose_spin_half_with_sign():
    r1 = haar_random(3)
    r2 = haar_random(4)
    ret, sign = compose(r1, r2)
    j = HalfInt(1)
    lhs = (wigner_D_matrix(j, r1) @ wigner_D_matrix(j, r2)).mat
    rhs = sign * wigner_D_matrix(j, ret).mat
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_compose_spin_one_sign_squares_away(seed):
    r1 = haar_random(seed)
    r2 = haar_random(seed + 100)
    ret, _ = compose(r1, r2)
    j = HalfInt(2)
    lhs = (wigner_D_matrix(j, r1) @ wigner_D_matrix(j, r2)).mat
    rhs = wigner_D_matrix(j, ret).mat
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inverse_is_group_inverse():
    r = haar_random(7)
    assert inverse(r) == EulerAngles(-r.gamma, -r.beta, -r.alpha)
    for j in (HalfInt(1), HalfInt(4)):
        prod = (wigner_D_matrix(j, r) @ wigner_D_matrix(j, inverse(r))).mat
        assert np.max(np.abs(prod - np.eye(j.dim))) < 1e-12


def test_wigner_d_frozen_value():
    # independent s-sum evaluation, frozen
    assert abs(wigner_d(HalfInt(10), 2, -3, 0.8) - (-0.16811563028359458)) < 1e-15


def test_wigner_d_zero_angle_and_symmetry():
    j = HalfInt(5)
    for m in (2.5, 0.5, -1.5):
        for n in (2.5, -0.5):
            expected = 1.0 if m == n else 0.0
            assert wigner_d(j, m, n, 0.0) == expected
    # d_{mn}(-beta) = d_{nm}(beta)
    for beta in (0.3, 1.9):
        assert abs(wigner_d(j, 1.5, -0.5, -beta) - wigner_d(j, -0.5, 1.5, beta)) < 1e-14


def test_wigner_d_matrix_orthogonal_and_consistent():
    j = HalfInt(7)
    beta = 1.234
    d = wigner_d_matrix(j, beta)
    assert np.max(np.abs(d @ d.T - np.eye(j.dim))) < 1e-12
    ms = [j.value - k for k in range(j.dim)]
    for a, m in enumerate(ms):
        for b, n in enumerate(ms):
            assert abs(d[a, b] - wigner_d(j, m, n, beta)) < 1e-13


def test_wigner_d_matrix_beta_pi_antidiagonal():
    # d(pi) sends m -> -m with sign (-1)^(j-m); everything else is exactly 0
    j = HalfInt(3)
    d = wigner_d_matrix(j, math.pi)
    anti = np.fliplr(np.diag([1.0, -1.0, 1.0, -1.0]))
    assert np.array_equal(d, anti[::-1, ::-1] * 0 + d)  # shape guard
    off_anti = d[~np.eye(4, dtype=bool)[::-1]]
    assert np.max(np.abs(off_anti)) == 0.0
    signs = [d[3 - a, a] for a in range(4)]
    # m = 3/2, 1/2, -1/2, -3/2 -> (-1)^(j-m) = +1, -1, +1, -1 read from row side
    assert signs == [-1.0, 1.0, -1.0, 1.0] or signs == [1.0, -1.0, 1.0, -1.0]


def test_wigner_d_invalid_labels():
    with pytest.raises(ValueError):
        wigner_d(HalfInt(2), 2.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        wigner_d(HalfInt(2), 0.5, 0.0, 0.3)


@pytest.mark.parametrize("twice", [1, 2, 3, 4, 10])
def test_big_d_matches_generator_route(twice):
    # dual route: closed-form D versus the product of three matrix exponentials
    j = HalfInt(twice)
    lz = axis_operator(j, (0.0, 0.0, 1.0))
    ly = axis_operator(j, (0.0, 1.0, 0.0))
    for r in haar_random_sequence(twice, 5):
        closed = wigner_D_matrix(j, r).mat
        brute = (
            matexp_antihermitian(lz, r.alpha)
            @ matexp_antihermitian(ly, r.beta)
            @ matexp_antihermitian(lz, r.gamma)
        ).mat
        assert np.max(np.abs(closed - brute)) < 1e-11


@pytest.mark.parametrize("twice,sign", [(1, -1.0), (2, 1.0), (5, -1.0)])
def test_full_turn(twice, sign):
    j = HalfInt(twice)
    d = wigner_D_matrix(j, EulerAngles.about_y(2.0 * math.pi)).mat
    assert np.max(np.abs(d - sign * np.eye(j.dim))) < 1e-12
    assert rotation_operator(j, EulerAngles.identity()).max_diff(
        wigner_D_matrix(j, EulerAngles.identity())
    ) == 0.0


def test_rotate_vector():
    # rotating z by beta = pi/2 about y gives x
    n = rotate_vector(EulerAngles.about_y(math.pi / 2.0), (0.0, 0.0, 1.0))
    assert np.max(np.abs(n - np.array([1.0, 0.0, 0.0]))) < 1e-15
    r = haar_random(9)
    assert abs(np.linalg.norm(rotate_vector(r, (0.0, 0.0, 1.0))) - 1.0) < 1e-14


def test_haar_determinism():
    assert haar_random(5) == haar_random(5)
    seq = haar_random_sequence(5, 3)
    assert len(seq) == 3
    assert seq == haar_random_sequence(5, 3)
    assert haar_random(5) != haar_random(6)


def _eigh_route(j, beta):
    return matexp_antihermitian(axis_operator(j, (0.0, 1.0, 0.0)), beta).mat


@pytest.mark.parametrize("j", [50, 100, 200, 400])
def test_wigner_d_matrix_large_j_against_eigh(j):
    unitarity = 1e-12 if j <= 200 else 3e-12
    for beta in (0.0, 0.1, math.pi / 2.0, 2.5, math.pi):
        d = wigner_d_matrix(j, beta)
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d - _eigh_route(j, beta))) < 1e-12
        assert np.max(np.abs(d.T @ d - np.eye(2 * j + 1))) < unitarity


@pytest.mark.parametrize("twice", [1, 14, 199, 200])
def test_wigner_d_matrix_exact_at_multiples_of_pi(twice):
    j = HalfInt(twice)
    eye = np.eye(j.dim)
    assert np.array_equal(wigner_d_matrix(j, 0.0), eye)
    for beta in (2.0 * math.pi, -2.0 * math.pi):
        assert np.array_equal(wigner_d_matrix(j, beta), (-1.0) ** twice * eye)
    # d_{m,-m}(pi) = (-1)^(j+m) and d_{m,-m}(-pi) = (-1)^(j-m), zero elsewhere
    j_plus_m = twice - np.arange(j.dim)
    anti = np.fliplr(eye)
    assert np.array_equal(wigner_d_matrix(j, math.pi), anti * np.where(j_plus_m % 2, -1.0, 1.0)[:, None])
    j_minus_m = np.arange(j.dim)
    assert np.array_equal(wigner_d_matrix(j, -math.pi), anti * np.where(j_minus_m % 2, -1.0, 1.0)[:, None])


def test_wigner_d_matrix_memory_is_quadratic():
    import tracemalloc

    tracemalloc.start()
    try:
        for beta in (0.1, 2.5, math.pi):
            wigner_d_matrix(100, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_non_finite_angles_rejected():
    with pytest.raises(ValueError, match="beta"):
        wigner_d_matrix(3, math.nan)
    with pytest.raises(ValueError, match="beta"):
        wigner_d(3, 1, 0, math.inf)
    with pytest.raises(ValueError, match="alpha"):
        wigner_D_matrix(3, EulerAngles(math.nan, 0.3, 0.2))
    with pytest.raises(ValueError, match="gamma"):
        wigner_D_matrix(3, EulerAngles(0.1, 0.3, -math.inf))
    with pytest.raises(ValueError, match="beta"):
        wigner_D_matrix(3, EulerAngles(0.1, math.nan, 0.2))
