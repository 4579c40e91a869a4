"""Exact half-integer labels and the dense spin operator algebra."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from spinqec import coherent, spin_core
from spinqec.coherent import coherent_amplitudes, diagonal_operator, momentum_kick, sphere_quadrature, theta_rule
from spinqec.finite_gkp import PauliWord, clock_shift
from spinqec.lll_codes import (antipodal, antipodal_logical_x, build_codewords, equatorial_qudit, hermitian_check_ops,
                               logical_operators)
from spinqec.recovery import recover, syndrome_density
from spinqec.rotations import EulerAngles, rotation_operator, wigner_D_matrix, wigner_d_matrix
from spinqec.spin_core import (
    HalfInt,
    Operator,
    StateVec,
    axis_operator,
    l3_operator,
    ladder_operators,
    m_index,
    m_values,
    matexp_antihermitian,
)

from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


def test_halfint_coercion():
    assert HalfInt.of(3).twice == 6
    assert HalfInt.of(0.5).twice == 1
    assert HalfInt.of(-1.5).twice == -3
    assert HalfInt.of(HalfInt(7)).twice == 7
    assert HalfInt.of(np.int64(2)).twice == 4
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    with pytest.raises(TypeError):
        HalfInt(1.5)
    with pytest.raises(TypeError):
        HalfInt(True)


def test_halfint_value_dim_parity():
    j = HalfInt(5)
    assert j.value == 2.5
    assert j.dim == 6
    assert not j.is_integer
    assert HalfInt(4).is_integer
    assert HalfInt(0).dim == 1


def test_m_values_descending():
    j = HalfInt(3)
    assert list(m_values(j)) == [1.5, 0.5, -0.5, -1.5]
    assert m_index(j, HalfInt(3)) == 0
    assert m_index(j, HalfInt(-3)) == 3
    assert m_index(j, 0.5) == 1


def test_spin_label_must_be_nonnegative():
    with pytest.raises(ValueError):
        l3_operator(HalfInt(-2))
    with pytest.raises(ValueError):
        StateVec.basis_state(HalfInt(-1), HalfInt(-1))


def test_l3_and_ladder_actions():
    j = HalfInt(3)  # j = 3/2
    l3 = l3_operator(j)
    assert np.array_equal(l3.mat, np.diag([1.5, 0.5, -0.5, -1.5]))
    lp, lm = ladder_operators(j)
    # L+|3/2, 1/2> = sqrt(j(j+1) - m(m+1)) |3/2, 3/2> = sqrt(3) e0
    vec = StateVec.basis_state(j, HalfInt(1))
    raised = lp.apply(vec)
    assert abs(raised.amps[0] - math.sqrt(3.0)) < 1e-15
    assert np.max(np.abs(raised.amps[1:])) == 0.0
    # top of the ladder annihilates
    assert lp.apply(StateVec.basis_state(j, j)).norm == 0.0


@pytest.mark.parametrize("twice", [1, 2, 3, 4, 8])
def test_commutation_relations(twice):
    j = HalfInt(twice)
    l3 = l3_operator(j).mat
    lp, lm = (op.mat for op in ladder_operators(j))
    assert np.max(np.abs(l3 @ lp - lp @ l3 - lp)) < 1e-12
    assert np.max(np.abs(l3 @ lm - lm @ l3 + lm)) < 1e-12
    assert np.max(np.abs(lp @ lm - lm @ lp - 2.0 * l3)) < 1e-12


@pytest.mark.parametrize("twice", [1, 3, 6])
def test_casimir(twice):
    j = HalfInt(twice)
    lx = axis_operator(j, (1.0, 0.0, 0.0)).mat
    ly = axis_operator(j, (0.0, 1.0, 0.0)).mat
    lz = axis_operator(j, (0.0, 0.0, 1.0)).mat
    casimir = lx @ lx + ly @ ly + lz @ lz
    target = j.value * (j.value + 1.0) * np.eye(j.dim)
    assert np.max(np.abs(casimir - target)) < 1e-12


def test_axis_operator_validation():
    j = HalfInt(2)
    assert np.array_equal(axis_operator(j, (0.0, 0.0, 1.0)).mat, l3_operator(j).mat)
    assert axis_operator(j, (0.6, 0.0, 0.8)).is_hermitian()
    with pytest.raises(ValueError):
        axis_operator(j, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        axis_operator(j, (1.0, 0.0))


def test_matexp_diagonal_case():
    j = HalfInt(4)
    t = 0.7310
    u = matexp_antihermitian(l3_operator(j), t)
    target = np.diag(np.exp(-1j * t * m_values(j)))
    assert np.max(np.abs(u.mat - target)) < 1e-13
    assert u.is_unitary()


def test_matexp_matches_dense_expm():
    # scipy expm as the independent oracle on a random Hermitian matrix
    rng = np.random.default_rng(11)
    j = HalfInt(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a + a.conj().T
    op = Operator(j, a)
    for t in (0.2, -1.3):
        mine = matexp_antihermitian(op, t).mat
        ref = expm(-1j * t * a)
        assert np.max(np.abs(mine - ref)) < 1e-12


def test_matexp_rejects_non_hermitian():
    j = HalfInt(1)
    bad = Operator(j, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        matexp_antihermitian(bad, 1.0)


def test_matexp_band_check_agrees_with_the_full_check():
    # a generator whose nonzero entries lie on its three middle diagonals is
    # checked on those bands alone, over the same |A - A^H| entries that
    # is_hermitian reduces: the verdict is the same, and NaN is refused
    j = HalfInt(6)
    base = axis_operator(j, (0.48, -0.6, 0.64)).mat
    for row, col, delta in [(2, 2, 0.4e-10j), (2, 2, 0.6e-10j), (3, 2, 1e-10), (2, 3, 1.5e-10), (4, 5, -0.9e-10j),
                            (0, 0, math.nan), (5, 4, complex(0.0, math.nan)), (6, 6, math.inf)]:
        mat = base.copy()
        mat[row, col] += delta
        op = Operator(j, mat)
        try:
            matexp_antihermitian(op, 0.3)
            refused = False
        except ValueError:
            refused = True
        assert refused == (not op.is_hermitian(1e-10)), (row, col, delta)


@pytest.mark.parametrize("twice,sign", [(1, -1.0), (2, 1.0), (3, -1.0), (4, 1.0)])
def test_full_turn_double_cover(twice, sign):
    u = matexp_antihermitian(l3_operator(HalfInt(twice)), 2.0 * math.pi)
    assert np.max(np.abs(u.mat - sign * np.eye(twice + 1))) < 1e-12


def _complex_route(a):
    # matexp_antihermitian's dense complex eigh route, the reference for its real one
    w, v = np.linalg.eigh(a.mat)
    return lambda t: (v * np.exp(-1j * t * w)) @ v.conj().T


_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)] + [
    tuple(v / np.linalg.norm(v)) for v in np.random.default_rng(0).normal(size=(8, 3))
]
_TIMES = (0.0, 0.7, -0.7, 2.0 * math.pi)


@pytest.mark.parametrize("twice", [1, 2, 17, 100, 400])
def test_real_route_matches_complex_route(twice):
    j = HalfInt(twice)
    for n in _AXES:
        a = axis_operator(j, n)
        ref = _complex_route(a)
        for t in _TIMES:
            u = matexp_antihermitian(a, t).mat
            # each route's eigenphases carry about |t| ||A|| eps, ||A|| = j: at
            # 2j = 400, t = 2 pi the routes differ by 1.7e-13, and each is
            # within 1.6e-13 of the Wigner-D route's rotated exp(-i t L_z)
            tol = max(1e-13, 2.0**-52 * abs(t) * j.value)
            assert np.max(np.abs(u - ref(t))) <= tol, (n, t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(j.dim))) <= 1e-13, (n, t)


def test_real_route_on_a_block_tridiagonal_generator():
    # complex off-diagonals with one zero: the phase carries across the gap
    rng = np.random.default_rng(8)
    off = rng.normal(size=10) + 1j * rng.normal(size=10)
    off[4] = 0.0
    mat = np.diag(rng.normal(size=11)) + np.diag(off, -1) + np.diag(off.conj(), 1)
    a = Operator(HalfInt(10), mat)
    ref = _complex_route(a)
    for t in _TIMES:
        u = matexp_antihermitian(a, t).mat
        assert np.max(np.abs(u - ref(t))) <= 1e-13, t
        assert np.max(np.abs(u.conj().T @ u - np.eye(11))) <= 1e-13, t
        assert np.max(np.abs(u[:5, 5:])) <= 1e-15 and np.max(np.abs(u[5:, :5])) <= 1e-15, t


def test_statevec_basics():
    j = HalfInt(2)
    e1 = StateVec.basis_state(j, HalfInt(2))
    e2 = StateVec.basis_state(j, HalfInt(0))
    assert e1.norm == 1.0
    assert e1.inner(e2) == 0.0
    mixed = StateVec(j, [1.0, 1.0j, 0.0])
    assert abs(mixed.norm - math.sqrt(2.0)) < 1e-15
    unit = mixed.normalized()
    assert abs(unit.norm - 1.0) < 1e-15
    # bra side conjugated
    assert abs(e2.inner(mixed) - 1.0j) < 1e-15
    assert abs(mixed.inner(e2) + 1.0j) < 1e-15
    assert abs(unit.fidelity(e2) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        StateVec(j, [1.0, 0.0])
    with pytest.raises(ValueError):
        StateVec(j, np.zeros(3)).normalized()


def test_statevec_norm_keeps_plain_bits_in_range():
    rng = np.random.default_rng(6)
    for dim in (1, 2, 7, 64, 900):
        for scale in (1.0, 1e-100, 3e120, 1e-140, 1e150):
            amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * scale
            assert StateVec(HalfInt(dim - 1), amps).norm == float(np.linalg.norm(amps))
    j = HalfInt(2)
    assert StateVec(j, np.zeros(3)).norm == 0.0
    assert StateVec(j, [1.0, np.inf, 0.0]).norm == math.inf
    assert math.isnan(StateVec(j, [1.0, np.nan, 0.0]).norm)
    assert StateVec(j, [1e308, 1e308, 1e308]).norm == math.sqrt(3.0) * 1e308
    # a norm past the largest double is inf, without a warning
    assert StateVec(HalfInt(4), np.full(5, 1e308)).norm == math.inf


def test_statevec_amps_read_only():
    vec = StateVec.basis_state(HalfInt(2), HalfInt(2))
    with pytest.raises(ValueError):
        vec.amps[0] = 2.0


def test_statevec_owning_path_takes_the_array():
    j = HalfInt(2)
    fresh = np.array([1.0, 1.0j, 0.0])
    vec = StateVec._owning(j, fresh)
    assert vec.amps is fresh and not fresh.flags.writeable
    assert vec.j == j and np.array_equal(vec.amps, StateVec(j, [1.0, 1.0j, 0.0]).amps)
    # the public constructor still copies
    source = np.array([1.0, 0.0, 0.0], dtype=complex)
    public = StateVec(j, source)
    assert not np.shares_memory(public.amps, source) and source.flags.writeable
    # only a fresh complex array of the right shape is taken over
    for bad in (np.zeros(3), np.zeros(4, dtype=complex), np.zeros(6, dtype=complex)[::2]):
        with pytest.raises(ValueError, match="fresh complex array"):
            StateVec._owning(j, bad)


def test_operator_algebra():
    j = HalfInt(1)
    ident = Operator.identity(j)
    assert np.array_equal(ident.mat, np.eye(2))
    op = Operator(j, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(op.dagger().mat, [[0.0, 0.0], [1.0, 0.0]])
    prod = op @ op.dagger()
    assert np.array_equal(prod.mat, [[1.0, 0.0], [0.0, 0.0]])
    vec = StateVec(j, [0.0, 1.0])
    assert np.array_equal((op @ vec).amps, [1.0, 0.0])
    assert abs(op.sandwich(StateVec(j, [1.0, 0.0]), vec) - 1.0) < 1e-15
    assert not op.is_hermitian()
    assert not op.is_unitary()
    with pytest.raises(ValueError):
        Operator(j, np.eye(3))
    with pytest.raises(ValueError):
        op @ Operator.identity(HalfInt(2))
    assert ident.max_diff(prod) == 1.0


_Y_200 = axis_operator(200, (0.0, 1.0, 0.0))
_NODES = np.random.default_rng(400).uniform(0.0, math.pi, (2, 256))


@pytest.mark.parametrize(
    "setup,call,entries,bound",
    [
        (None, lambda: momentum_kick(200, -200), 401**2, 20),
        (None, lambda: logical_operators(equatorial_qudit(200, 4)), 401**2, 52),
        (None, lambda: hermitian_check_ops(200, 3), 401**2, 52),
        (lambda: spin_core._bases.clear(), lambda: matexp_antihermitian(_Y_200, 0.7), 401**2, 44),
        # the basis of L_y at j = 200 is kept by the first call
        (lambda: matexp_antihermitian(_Y_200, 0.3), lambda: matexp_antihermitian(_Y_200, 0.7), 401**2, 36),
        (None, lambda: coherent_amplitudes(200, *_NODES), 401 * 256, 32),
        # per (D + 3)^2: the full Jacobi matrix, its eigenvectors and an n x D
        # moment table took 40
        (lambda: coherent._theta_rule_cached.cache_clear(), lambda: theta_rule(400), 403**2, 12),
    ],
    ids=["momentum_kick", "logical_operators", "hermitian_check_ops", "matexp-cold", "matexp-warm",
         "coherent_amplitudes", "theta_rule"],
)
def test_dense_builders_within_their_bytes_per_entry(setup, call, entries, bound):
    # the tracemalloc peaks at 2j = 400 that the MAX_DENSE_DIM docstring
    # states; momentum_kick took 481 bytes per entry through the quadrature,
    # and 32 while Operator copied the matrix each builder handed it
    if setup is not None:
        setup()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * entries, peak / entries


def test_every_dense_builder_refuses_past_the_cap(monkeypatch):
    # with the cap at 16, j = 10 (2j + 1 = 21) is past it: every public builder
    # of a (2j+1)-wide dense table raises before allocating; l3_operator,
    # ladder_operators, axis_operator and Operator.identity allocated
    # unguarded.  build_codewords returns: its basis is built on first read.
    monkeypatch.setattr(spin_core, "MAX_DENSE_DIM", 16)
    j = HalfInt(20)
    builders = [
        lambda: Operator.identity(j),
        lambda: l3_operator(j),
        lambda: ladder_operators(j),
        lambda: axis_operator(j, (0.0, 1.0, 0.0)),
        lambda: wigner_d_matrix(j, 0.3),
        lambda: wigner_D_matrix(j, EulerAngles(0.1, 0.3, 0.2)),
        lambda: rotation_operator(j, EulerAngles(0.1, 0.3, 0.2)),
        lambda: diagonal_operator(j, lambda t, p: np.cos(p)),
        lambda: momentum_kick(j, 0),
        lambda: logical_operators(equatorial_qudit(j, 4)),
        lambda: antipodal_logical_x(j),
        lambda: hermitian_check_ops(j),
        lambda: PauliWord(21, 1, 0).to_operator(),
        lambda: clock_shift(21),
        lambda: syndrome_density(j, 21, 0, 0.0),
        lambda: recover(j, 21, 0, 0.1, 0),
    ]
    for build in builders:
        with pytest.raises(ValueError, match=r"2j \+ 1 = 21 exceeds MAX_DENSE_DIM = 16"):
            build()
    code = build_codewords(antipodal(j))
    with pytest.raises(ValueError, match="exceeds MAX_DENSE_DIM = 16"):
        code.basis
    # the colatitude rule's Jacobi block has (degree + 4) // 2 = 22 rows
    for build in (lambda: theta_rule(40), lambda: sphere_quadrature(degree=40)):
        with pytest.raises(ValueError, match=r"degree = 40: .* = 22 exceeds MAX_DENSE_DIM = 16"):
            build()
