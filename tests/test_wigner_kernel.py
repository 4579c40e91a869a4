"""The tridiagonal-eigenvector Wigner-d kernel: accuracy at large j and
near the poles, bounded memory, the exact branch at multiples of pi, and
independence from the Jacobi recurrence of the monopole jacobi route."""

import hashlib
import math

import numpy as np
import pytest

from spinqec import monopole
from spinqec.coherent import diagonal_operator
from spinqec.lll_codes import antipodal, antipodal_logical_x, build_codewords, cyclic_qubit, equatorial_qudit
from spinqec.monopole import monopole_Y
from spinqec.rotations import EulerAngles, wigner_D_matrix, wigner_d, wigner_d_matrix
from spinqec.spin_core import MAX_DENSE_DIM, HalfInt, axis_operator, matexp_antihermitian

from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids

BENCHMARK_BETAS = (0.0, 0.1, math.pi / 2.0, 2.5, math.pi)


@pytest.mark.parametrize("j", [400, 1000])
def test_unitarity_at_large_j(j):
    for beta in BENCHMARK_BETAS:
        d = wigner_d_matrix(j, beta)
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d.T @ d - np.eye(2 * j + 1))) <= 1e-13, beta


def test_matrix_entries_equal_scalar_entries():
    rng = np.random.default_rng(12)
    for twice in (1, 6, 25, 80):
        j = HalfInt(twice)
        for beta in (1e-200, 0.3, 2.0, math.pi - 1e-9, -4.0, 9.0):
            d = wigner_d_matrix(j, beta)
            for a, c in rng.integers(0, twice + 1, (4, 2)):
                m, n = (twice - 2 * a) / 2, (twice - 2 * c) / 2
                assert wigner_d(j, m, n, beta) == d[a, c]


@pytest.mark.parametrize("twice", [0, 1, 2, 9, 40, 121])
def test_awkward_angles_against_eigh(twice):
    # tiny and subnormal angles, angles within an ulp-scale of the exact
    # multiples of pi, negative and beyond 2pi
    j = HalfInt(twice)
    ly = axis_operator(j, (0.0, 1.0, 0.0))
    for beta in (5e-324, 1e-300, 1e-30, 1e-8, -0.6, 4.0, 7.5, -12.0,
                 math.pi - 1e-15, math.pi + 1e-9, 2.0 * math.pi - 1e-12, math.nextafter(math.pi, 4.0)):
        d = wigner_d_matrix(j, beta)
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d - matexp_antihermitian(ly, beta).mat.real)) < 1e-12, beta
        assert np.max(np.abs(d.T @ d - np.eye(j.dim))) < 1e-13, beta


def test_memory_at_j_1000():
    import tracemalloc

    tracemalloc.start()
    try:
        wigner_d_matrix(1000, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result alone is 32 MB; 257 MB is the bound this call has to keep
    assert peak <= 257e6
    assert peak < 64e6


@pytest.mark.parametrize(
    "twice,beta,digest",
    [
        (7, math.pi, "74f936497c62f76d0adf0c53a9cadfd07afb435ae5881f69db3f86cd4379f2c1"),
        (7, -math.pi, "4ea80806b5760eb9519b8c25814c8a638187f6d39314af0ef1ef2c067be84663"),
        (7, 2.0 * math.pi, "7e48f4c1387ac26ce8ce7132009e10cdcd3e901f920722aded8d8a91f9915774"),
        (40, math.pi, "66bae7934aea09a236d53fc11dce91e8bd751900973d736db37a13e87596032e"),
        (40, 0.0, "bc0e89a0e964a51f63bc32adf532c27cb3a736e2842d19e59d19ec6253e052fa"),
    ],
)
def test_exact_angles_byte_for_byte(twice, beta, digest):
    # the signed identity and antidiagonal, zeros' signs included
    got = wigner_d_matrix(HalfInt(twice), beta)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


def test_antipodal_logical_x_byte_for_byte():
    got = antipodal_logical_x(7.5, 0.4).mat
    want = "2b69866e02046c21ee81319f98e21536cd0c0098b5fddce04d5c4a3f5591438b"
    assert hashlib.sha256(got.tobytes()).hexdigest() == want


def test_wigner_routes_do_not_use_the_jacobi_recurrence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Wigner-d kernel reached monopole._jacobi")

    monkeypatch.setattr(monopole, "_jacobi", refuse)
    for beta in (0.3, math.pi, 2.5):
        assert np.all(np.isfinite(wigner_d_matrix(20, beta)))
        assert np.isfinite(wigner_d(20, 3, -2, beta))
        assert wigner_D_matrix(4.5, EulerAngles(0.2, beta, 1.0)).is_unitary()
    vals = monopole_Y(1, 10, 3, route="wigner-d")(np.array([0.0, 0.4, 2.0, math.pi]), 0.7)
    assert np.all(np.isfinite(vals))
    with pytest.raises(AssertionError, match="_jacobi"):
        monopole_Y(1, 10, 3)(0.4, 0.7)


@pytest.mark.parametrize(
    "build",
    [
        lambda j: wigner_d_matrix(j, 0.3),
        lambda j: wigner_D_matrix(j, EulerAngles(0.1, 0.2, 0.3)),
        lambda j: antipodal_logical_x(j, 0.2),
        lambda j: diagonal_operator(j, lambda t, p: np.cos(p)),
        lambda j: build_codewords(equatorial_qudit(j, 3)).basis,
        lambda j: build_codewords(antipodal(j)).basis,
        lambda j: build_codewords(cyclic_qubit(j, 4)).basis,
    ],
    ids=["wigner_d_matrix", "wigner_D_matrix", "antipodal_logical_x", "diagonal_operator",
         "build_codewords-qudit", "build_codewords-antipodal", "build_codewords-cyclic"],
)
def test_dense_builds_stop_at_max_dense_dim(build):
    import tracemalloc

    j = HalfInt(MAX_DENSE_DIM)  # 2j + 1 = MAX_DENSE_DIM + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"j = 4096: 2j \+ 1 = 8193 exceeds MAX_DENSE_DIM = 8192.* bytes"):
            build(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # one below the limit is accepted (checked on the cheapest builder)
    assert len(build_codewords(antipodal(HalfInt(MAX_DENSE_DIM - 1))).basis) == 2
