"""Codeword families on the sphere and their logical clock-shift pairs."""

import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from spinqec import lll_codes
from spinqec.lll_codes import (
    Codewords,
    antipodal,
    antipodal_logical_x,
    build_codewords,
    cyclic_normalization,
    cyclic_overlap_closed_form,
    cyclic_qubit,
    equatorial_qudit,
    hermitian_check_ops,
    logical_operators,
    matrix_element_table,
    matrix_element_tables,
)
from spinqec.coherent import SphPoint, coherent_state
from spinqec.qec_check import equatorial_z, kl_check
from spinqec.rotations import haar_random, haar_random_sequence, wigner_D_matrix
from spinqec.spin_core import HalfInt, m_values

from contract import contract_tests
from oracles import contraction

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids


def test_spec_validation():
    with pytest.raises(ValueError):
        equatorial_qudit(HalfInt(4), 1)  # d < 2
    with pytest.raises(ValueError):
        equatorial_qudit(HalfInt(5), 2)  # half-integer j
    with pytest.raises(ValueError):
        equatorial_qudit(HalfInt(8), 3, "Option2")  # 3 does not divide j = 4
    with pytest.raises(ValueError):
        equatorial_qudit(HalfInt(8), 2, "Option3")
    with pytest.raises(ValueError):
        cyclic_qubit(HalfInt(8), 0)
    assert equatorial_qudit(HalfInt(12), 3, "Option2").dimension == 3
    assert antipodal(HalfInt(5)).dimension == 2


def test_antipodal_gram_exact_identity():
    for twice, phi0 in ((3, 0.0), (8, 1.2), (21, 4.0)):
        code = build_codewords(antipodal(HalfInt(twice), phi0))
        assert np.array_equal(code.gram, np.eye(2))
        # codeword 1 sits at the south pole with azimuth phi0
        (p1, c1), = code.components[1]
        assert p1.theta == math.pi
        assert abs(p1.phi - phi0) < 1e-15
        assert c1 == 1.0


@pytest.mark.parametrize("twice,sign", [(4, 1.0), (5, -1.0), (12, 1.0)])
def test_antipodal_logical_x(twice, sign):
    j = HalfInt(twice)
    phi0 = 0.9
    code = build_codewords(antipodal(j, phi0))
    xbar = antipodal_logical_x(j, phi0)
    flipped = xbar.apply(code.basis[0])
    assert np.max(np.abs(flipped.amps - code.basis[1].amps)) < 1e-13
    square = (xbar @ xbar).mat
    assert np.max(np.abs(square - sign * np.eye(j.dim))) < 1e-12


@pytest.mark.parametrize("twice", [199, 200])
def test_antipodal_logical_x_at_large_j(twice):
    xbar = antipodal_logical_x(HalfInt(twice), 0.9).mat
    assert np.all(np.isfinite(xbar))
    assert np.max(np.abs(xbar @ xbar - (-1.0) ** twice * np.eye(twice + 1))) < 1e-12


def test_equatorial_points_and_phases():
    # codeword k sits at azimuth 2 pi k / d with phase exp(-2 pi i (jk mod d)/d)
    code = build_codewords(equatorial_qudit(HalfInt(8), 3))
    for k, comp in enumerate(code.components):
        (point, coeff), = comp
        assert abs(point.theta - math.pi / 2.0) < 1e-15
        assert abs(point.phi - 2.0 * math.pi * k / 3.0) < 1e-14
        pred = np.exp(-2j * math.pi * ((4 * k) % 3) / 3.0)
        assert coeff == pred
    # Option2 with d | j reduces to trivial phases
    code2 = build_codewords(equatorial_qudit(HalfInt(6), 3, "Option2"))
    for comp in code2.components:
        assert comp[0][1] == 1.0


def test_equatorial_gram_frozen_offdiag():
    code = build_codewords(equatorial_qudit(HalfInt(12), 2))
    off = abs(code.gram[0, 1])
    frozen = 2.2298199772243496e-188
    assert abs(off - frozen) / frozen < 1e-10


def test_xbar_shifts_codewords():
    for d, twice in ((2, 12), (3, 12), (4, 16)):
        spec = equatorial_qudit(HalfInt(twice), d)
        code = build_codewords(spec)
        logical = logical_operators(spec)
        for k in range(d):
            moved = logical.xbar.apply(code.basis[k])
            target = code.basis[(k + 1) % d]
            assert np.max(np.abs(moved.amps - target.amps)) < 1e-12


def test_xbar_power_is_bitwise_identity():
    for d, twice in ((2, 8), (3, 12), (5, 20)):
        logical = logical_operators(equatorial_qudit(HalfInt(twice), d))
        assert np.array_equal(logical.xbar_power(d).mat, np.eye(twice + 1))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("twice", [8, 12, 16])
def test_clock_shift_covariance(d, twice):
    logical = logical_operators(equatorial_qudit(HalfInt(twice), d))
    zx = logical.zbar.mat @ logical.xbar.mat
    xz = logical.xbar.mat @ logical.zbar.mat
    assert np.max(np.abs(zx - np.exp(2j * math.pi / d) * xz)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_clock_shift_covariance_at_j_64(d):
    logical = logical_operators(equatorial_qudit(64, d))
    zx = logical.zbar.mat @ logical.xbar.mat
    xz = logical.xbar.mat @ logical.zbar.mat
    assert np.max(np.abs(zx - np.exp(2j * math.pi / d) * xz)) < 1e-10


def test_zbar_frozen_stripe():
    logical = logical_operators(equatorial_qudit(HalfInt(6), 2))
    stripe = np.diag(logical.zbar.mat, k=1)
    frozen = [
        0.86797561748258967,
        0.91681503038840973,
        0.92992643185836364,
        0.92992643185836364,
        0.91681503038840973,
        0.86797561748258967,
    ]
    assert np.max(np.abs(stripe - np.array(frozen))) < 1e-12
    # everything off the single stripe is numerically zero
    off = logical.zbar.mat - np.diag(stripe, k=1)
    assert np.max(np.abs(off)) < 1e-13


def test_zbar_eigenvalue_residual_improves_with_j():
    residuals = []
    for twice in (8, 16):
        spec = equatorial_qudit(HalfInt(twice), 2)
        code = build_codewords(spec)
        logical = logical_operators(spec)
        vec = code.basis[0]
        moved = logical.zbar.apply(vec)
        residuals.append(float(np.linalg.norm(moved.amps - vec.amps)))
    assert residuals[0] > residuals[1] > 0.0


def test_zcheck_is_d_step_stripe():
    d = 3
    logical = logical_operators(equatorial_qudit(HalfInt(12), d))
    rows, cols = np.nonzero(np.abs(logical.zcheck.mat) > 1e-13)
    assert set(cols - rows) == {d}


def test_hermitian_check_ops():
    j = HalfInt(16)
    cos_op, sin_op = hermitian_check_ops(j, 2)
    assert cos_op.is_hermitian()
    assert sin_op.is_hermitian()
    comm = cos_op.mat @ sin_op.mat - sin_op.mat @ cos_op.mat
    assert 0.0 < np.max(np.abs(comm)) < 0.5


def test_hermitian_check_ops_commute_on_coherent_states():
    # the band-edge clip keeps the commutator's max entry near pi/8
    # at every j, but its action on coherent states does vanish
    point = SphPoint(math.pi / 2, 0.4)
    edge_entries = []
    action_norms = []
    for twice in (4, 16, 64):
        j = HalfInt(twice)
        cos_op, sin_op = hermitian_check_ops(j, 1)
        comm = cos_op.mat @ sin_op.mat - sin_op.mat @ cos_op.mat
        edge_entries.append(float(np.max(np.abs(comm))))
        state = coherent_state(j, point)
        action_norms.append(float(np.linalg.norm(comm @ state.amps)))
    assert all(a < b for a, b in zip(edge_entries, edge_entries[1:]))
    assert all(e < math.pi / 8 for e in edge_entries)
    assert edge_entries[-1] > math.pi / 8 - 0.01
    assert all(a > b for a, b in zip(action_norms, action_norms[1:]))
    assert action_norms[-1] < 1e-4


def test_cyclic_normalization_frozen():
    # N^2 / 2^(2j) * sum_k C(2j, kN) at N = 3, j = 6, exactly
    assert cyclic_normalization(HalfInt(12), 3) == 12294.0 / 4096.0


def test_cyclic_codewords_normalized():
    code = build_codewords(cyclic_qubit(HalfInt(12), 3))
    for vec in code.basis:
        assert abs(vec.norm - 1.0) < 1e-14
    # components sit on the equator at the 2N-th roots, split by parity
    n = 3
    for r, comp in enumerate(code.components):
        assert len(comp) == n
        for s, (point, _) in enumerate(comp):
            assert abs(point.theta - math.pi / 2.0) < 1e-15
            assert abs(point.phi - ((2 * s + r) * math.pi / n) % (2 * math.pi)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cyclic_overlap_closed_form_vs_dense(n):
    j = HalfInt(16)
    code = build_codewords(cyclic_qubit(j, n))
    ms = m_values(j)
    rng = np.random.default_rng(n)
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=6):
        closed = cyclic_overlap_closed_form(j, n, float(theta))
        dense = np.vdot(code.basis[0].amps, np.exp(-1j * theta * ms) * code.basis[1].amps)
        assert abs(closed - dense) < 1e-10


def test_cyclic_overlap_dichotomy():
    # the half-period rotation maps one codeword exactly onto the other,
    # so that branch is pinned at 1; every other angle decays with j
    n = 2
    generic = []
    for twice in (16, 32, 64, 128):
        j = HalfInt(twice)
        for angle in (math.pi / n, 3.0 * math.pi / n):
            assert abs(abs(cyclic_overlap_closed_form(j, n, angle)) - 1.0) < 1e-12
        generic.append(abs(cyclic_overlap_closed_form(j, n, 0.9)))
    assert all(a > b for a, b in zip(generic, generic[1:]))
    assert generic[-1] < 0.01


def test_matrix_element_table_matches_dense():
    r = haar_random(17)
    specs = [
        antipodal(HalfInt(7), 0.6),
        equatorial_qudit(HalfInt(6), 3),
        cyclic_qubit(HalfInt(9), 2),
    ]
    for spec in specs:
        code = build_codewords(spec)
        table = matrix_element_table(code, r)
        dmat = wigner_D_matrix(spec.j, r)
        size = len(code.basis)
        brute = np.array(
            [
                [dmat.sandwich(code.basis[a], code.basis[b]) for b in range(size)]
                for a in range(size)
            ]
        )
        assert np.max(np.abs(table - brute)) < 1e-10


def test_to_json_dict():
    code = build_codewords(equatorial_qudit(HalfInt(8), 2))
    doc = code.to_json_dict()
    assert doc["family"] == "EquatorialQudit"
    assert doc["j"] == 4.0
    assert doc["d"] == 2
    assert len(doc["basis"]) == 2
    assert len(doc["basis"][0]) == 9
    amp = doc["basis"][0][0]
    assert isinstance(amp, list) and len(amp) == 2
    rebuilt = np.array([complex(re, im) for re, im in doc["basis"][0]])
    assert np.max(np.abs(rebuilt - code.basis[0].amps)) < 1e-15


def test_codewords_hold_only_their_decomposition():
    assert [f.name for f in dataclasses.fields(Codewords)] == ["spec", "components"]
    code = build_codewords(equatorial_qudit(HalfInt(12), 3))
    kl_check(code, equatorial_z(0.3, samples=6), seed=1)
    assert "basis" not in code.__dict__ and "gram" not in code.__dict__
    kl_check(code, equatorial_z(0.3, samples=6), seed=1, brute_force=True)
    assert "basis" in code.__dict__ and "gram" not in code.__dict__
    gram = code.gram
    assert code.gram is gram
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0


@pytest.mark.parametrize("twice", [2, 8, 34, 100, 200])
def test_clock_shift_covariance_to_rounding_up_to_j_100(twice):
    # Z-bar X-bar = exp(2 pi i/d) X-bar Z-bar, with Z-bar filled on its band alone
    j = HalfInt(twice)
    for d in (2, 3, 4, 5):
        logical = logical_operators(equatorial_qudit(j, d))
        xbar, zbar = logical.xbar.mat, logical.zbar.mat
        residual = np.max(np.abs(zbar @ xbar - cmath.exp(2j * math.pi / d) * xbar @ zbar))
        assert residual <= 1e-14, (twice, d, residual)


@pytest.mark.parametrize("n_cosets", [16, 8])
def test_matrix_element_tables_within_the_summation_bound(n_cosets):
    # 40-digit evaluation of the same sums from the same double inputs:
    # the error stays within (sqrt(2) gamma_(P_a + P_b + 3) + eta) S_ab of
    # the matrix_element_tables docstring, eta = 8 (2j + 1) u.
    code = build_codewords(cyclic_qubit(8, n_cosets))
    tj = code.spec.j.twice
    rots = haar_random_sequence(3, 6)
    got = matrix_element_tables(code, [[getattr(r, k) for r in rots] for k in ("alpha", "beta", "gamma")])
    owner, thetas, phis, coeffs = lll_codes._point_arrays(code.components)
    u = 2.0**-53
    worst = 0.0
    points = list(zip(thetas.tolist(), phis.tolist()))
    with mp.workdps(40):
        cs = [mp.mpc(c) for c in coeffs.tolist()]
        for r, rot in enumerate(rots):
            angles = (rot.alpha, rot.beta, rot.gamma)
            exact = [[mp.mpc(0)] * 2 for _ in range(2)]
            for o, out in enumerate(points):
                for i, inp in enumerate(points):
                    exact[owner[o]][owner[i]] += mp.conj(cs[o]) * cs[i] * contraction(tj, out, inp, angles)
            for x in range(2):
                for y in range(2):
                    p_x, p_y = int(np.sum(owner == x)), int(np.sum(owner == y))
                    s_xy = float(np.sum(np.abs(coeffs[owner == x])) * np.sum(np.abs(coeffs[owner == y])))
                    m = p_x + p_y + 3
                    bound = (math.sqrt(2.0) * m * u / (1.0 - m * u) + 8 * (tj + 1) * u) * s_xy
                    err = float(abs(mp.mpc(complex(got[r, x, y])) - exact[x][y]))
                    assert err <= bound, (r, x, y, err, bound)
                    worst = max(worst, err / s_xy)
    # the observed error is a small share of the bound, not near it
    assert worst < 10 * u


def _tables_by_weight_cube(code, angles):
    # matrix_element_tables as it stood with a (points x points x codewords)
    # weight table filled by a Python double loop, kept as the reference
    j = code.spec.j
    size = len(code.components)
    owner, thetas, phis, coeffs = lll_codes._point_arrays(code.components)
    points = list(zip(owner.tolist(), coeffs.tolist()))
    weights = np.zeros((len(points), len(points), size), dtype=complex)
    for o, (_, c_out) in enumerate(points):
        for i, (b, c_in) in enumerate(points):
            weights[o, i, b] = c_out.conjugate() * c_in
    angles = tuple(np.asarray(x, dtype=float).reshape(1, -1, 1) for x in angles)
    n_rot = angles[0].shape[1]
    tables = np.zeros((n_rot, size, size), dtype=complex)
    block = max(1, lll_codes._TABLE_BLOCK // max(1, n_rot * len(points)))
    for lo in range(0, len(points), block):
        sl = slice(lo, lo + block)
        out = (thetas[sl].reshape(-1, 1, 1), phis[sl].reshape(-1, 1, 1))
        rows = lll_codes.rotation_matrix_elements(j, out, angles, (thetas, phis))
        for o, row in enumerate(rows, start=lo):
            tables[:, points[o][0], :] += row @ weights[o]
    return tables


@pytest.mark.parametrize(
    "spec",
    [
        antipodal(0.5, 2.1),
        antipodal(2000, 4.4),
        equatorial_qudit(6, 3),
        equatorial_qudit(12, 4, "Option2"),
        equatorial_qudit(2000, 4, "Option2"),
        cyclic_qubit(8, 16),
        cyclic_qubit(7, 16),
        cyclic_qubit(12, 5),
        cyclic_qubit(50, 3),
        cyclic_qubit(2000, 16),
    ],
    ids=lambda s: f"{s.family}-{s.j.value:g}-{s.d or s.n_cosets or s.phi0}-{s.phase_convention}",
)
def test_per_point_weights_match_the_weight_cube(spec):
    # one _cmul row per output point keeps every bit of the Python products
    code = build_codewords(spec)
    rng = np.random.default_rng(spec.j.twice)
    batches = [([0.0], [0.0], [0.0]), tuple(rng.uniform(-7.0, 7.0, (3, 5)))]
    batches += [tuple(rng.uniform(-7.0, 7.0, (3, 1))) for _ in range(8)]
    for angles in batches:
        got = matrix_element_tables(code, angles)
        assert got.tobytes() == _tables_by_weight_cube(code, angles).tobytes(), angles
