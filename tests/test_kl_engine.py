"""The array-pass Knill-Laflamme engine against a scalar reference.

The reference below is the one-pair-at-a-time evaluation the engine
replaced: the scalar closed form <Omega_out| X_T |Omega_in> = base^(2j),
summed over point pairs, with T = R_i^(-1) R_k composed in SU(2) one pair
at a time.  It is kept here, and only here, as the oracle.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from spinqec import coherent, lll_codes, qec_check, rotations, spin_core
from spinqec.coherent import SphPoint, rotation_matrix_element, rotation_matrix_elements
from spinqec.lll_codes import antipodal, build_codewords, cyclic_qubit, equatorial_qudit
from spinqec.qec_check import (
    conjugated_y,
    conjugated_z_about_x,
    diagonal_scan,
    equatorial_z,
    explicit_list,
    kl_check,
    sample_rotations,
)
from spinqec.rotations import (
    EulerAngles,
    compose,
    haar_random_sequence,
    inverse,
    relative_rotations,
)

_PAIR_CAP = 10_000


def _half(beta):
    ch, sh = math.cos(0.5 * beta), math.sin(0.5 * beta)
    if beta in (math.pi, -math.pi):
        ch = 0.0
    if beta in (2.0 * math.pi, -2.0 * math.pi):
        sh = 0.0
    return ch, sh


def _scalar_element(tj, out, r, inp):
    """The scalar closed form, term by term."""
    co, so = _half(out.theta)
    ci, si = _half(inp.theta)
    cb, sb = _half(r.beta)
    half_sum = 0.5 * (r.alpha + r.gamma)
    half_diff = 0.5 * (r.alpha - r.gamma)
    term_diag = (
        cmath.exp(-1j * half_sum) * co * ci
        + cmath.exp(1j * half_sum) * cmath.exp(1j * (inp.phi - out.phi)) * so * si
    )
    term_flip = cmath.exp(-1j * half_diff) * cmath.exp(1j * inp.phi) * co * si - cmath.exp(
        1j * half_diff
    ) * cmath.exp(-1j * out.phi) * so * ci
    base = term_diag * cb - term_flip * sb
    if base == 0.0 or tj * math.log(abs(base)) < -700.0:
        return 0.0j
    return cmath.exp(tj * cmath.log(base))


def _reference_pairs(n, seed):
    if n * n <= _PAIR_CAP:
        return [(i, k) for i in range(n) for k in range(n)]
    quota = max(1, _PAIR_CAP // n)
    rng = np.random.default_rng(seed + 1)
    out = []
    for i in range(n):
        out.extend((i, int(k)) for k in rng.choice(n, size=min(quota, n), replace=False))
    return out


def _reference_scan(code, errs, seed):
    """(pairs, T angles, tables, deltas, epsilons), one pair at a time."""
    tj = code.spec.j.twice
    rots = sample_rotations(errs, seed)
    pairs = _reference_pairs(len(rots), seed)
    size = len(code.components)
    angles, tables, deltas, epss = [], [], [], []
    for i, k in pairs:
        t, _ = compose(inverse(rots[i]), rots[k])
        table = np.array(
            [
                [
                    sum(
                        ca.conjugate() * cb * _scalar_element(tj, pa, t, pb)
                        for pa, ca in code.components[a]
                        for pb, cb in code.components[b]
                    )
                    for b in range(size)
                ]
                for a in range(size)
            ]
        )
        diag = np.diag(table)
        deltas.append(max(abs(diag[a] - diag[b]) for a in range(size) for b in range(a + 1, size)))
        epss.append(float(np.max(np.abs(table - np.diag(diag)))))
        angles.append(t)
        tables.append(table)
    return pairs, angles, np.array(tables), np.array(deltas), np.array(epss)


def _tolerance(code):
    """1e-13, scaled by what rounding the closed form cannot avoid.

    An entry's phase moves 2j times as much as the float Euler angles of
    T, so one ulp of alpha near 2pi (8.9e-16) moves it by 2j * 4.4e-16;
    above j = 50 the floor is 2e-15 j.  Measured against 40-digit mpmath,
    the reference itself is off by up to 2.1e-13 at j = 100.  A table
    entry sums |c_o c_i| over point pairs: 1 for single-point codewords,
    large for cyclic codes with more points than levels, whose entries
    cancel.
    """
    scale = max(sum(abs(c) for _, c in comp) for comp in code.components) ** 2
    return max(1e-13, 2e-15 * code.spec.j.value) * scale


def _assert_matches_reference(code, errs, seed):
    pairs, angles, ref_tables, ref_delta, ref_eps = _reference_scan(code, errs, seed)
    tol = _tolerance(code)
    report = kl_check(code, errs, seed)
    _, _, _, _, tables = qec_check._scan_tables(code, errs, seed, brute_force=False)
    assert len(report.pairs) == len(pairs)
    assert np.max(np.abs(tables - ref_tables)) < tol
    got_delta = np.array([p.delta for p in report.pairs])
    got_eps = np.array([p.eps for p in report.pairs])
    assert np.max(np.abs(got_delta - ref_delta)) < tol
    assert np.max(np.abs(got_eps - ref_eps)) < tol
    assert abs(report.delta_star - ref_delta.max()) < tol
    assert abs(report.eps_star - ref_eps.max()) < tol
    # diagonal_scan reads the same tables
    for (t, diag), rec, ref_table in zip(diagonal_scan(code, errs, seed), report.pairs, ref_tables):
        assert t == rec.t
        assert np.max(np.abs(diag - np.diag(ref_table))) < tol
    return report, pairs, angles, np.maximum(ref_delta, ref_eps)


def _error_sets(samples):
    return [
        equatorial_z(0.25, samples),
        conjugated_y(0.9, 0.3, samples),
        conjugated_z_about_x(0.3, 0.9, samples),
        explicit_list(haar_random_sequence(5, samples)),
    ]


_KIND_IDS = ["EquatorialZ", "ConjugatedY", "ConjugatedZaboutX", "ExplicitList"]


@pytest.mark.parametrize("kind", range(4), ids=_KIND_IDS)
@pytest.mark.parametrize("j", [8, 40, 100])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_equatorial_matches_scalar_reference(d, j, kind):
    code = build_codewords(equatorial_qudit(j, d))
    _assert_matches_reference(code, _error_sets(8)[kind], seed=3)


@pytest.mark.parametrize("kind", range(4), ids=_KIND_IDS)
@pytest.mark.parametrize("j", [7.5, 8, 39.5, 40, 99.5, 100])
def test_antipodal_matches_scalar_reference(j, kind):
    code = build_codewords(antipodal(j, 0.7))
    _assert_matches_reference(code, _error_sets(8)[kind], seed=4)


@pytest.mark.parametrize("kind", range(4), ids=_KIND_IDS)
@pytest.mark.parametrize("j", [8, 40, 100])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_cyclic_matches_scalar_reference(n, j, kind):
    code = build_codewords(cyclic_qubit(j, n))
    _assert_matches_reference(code, _error_sets(4)[kind], seed=5)


def _eager_pairs(code, errs, seed, brute_force):
    """Reference for KLReport.pairs: the records built eagerly from
    _scan_tables.  The classes are read from qec_check at call time, so a
    patched class compares equal under dataclass equality."""
    rotations, left, right, t_angles, tables = qec_check._scan_tables(code, errs, seed, brute_force)
    diag = np.diagonal(tables, axis1=1, axis2=2)
    delta = np.max(np.abs(diag[:, :, None] - diag[:, None, :]), axis=(1, 2))
    off = np.abs(tables)
    size = off.shape[1]
    off[:, np.arange(size), np.arange(size)] = 0.0
    eps = np.max(off, axis=(1, 2))
    columns = (left, right, *t_angles, delta, eps)
    return [
        qec_check.PairRecord(rotations[i], rotations[k], qec_check.EulerAngles(a, b, g), d, e)
        for i, k, a, b, g, d, e in zip(*(x.tolist() for x in columns))
    ]


def test_stratified_cap_matches_scalar_reference(monkeypatch):
    # 128 samples give 16384 > 10^4 pairs, so the stratified cap applies
    code = build_codewords(equatorial_qudit(8, 2))
    errs = conjugated_y(0.4, 0.3, 128)
    report, pairs, _, _ = _assert_matches_reference(code, errs, seed=9)
    assert len(pairs) == 128 * (_PAIR_CAP // 128)
    rots = sample_rotations(errs, 9)
    assert [(p.r1, p.r2) for p in report.pairs] == [(rots[i], rots[k]) for i, k in pairs]
    # kl_check keeps arrays, and the first read of pairs builds one record
    # and one T angle per pair.  The explicit list hands back the sampled
    # objects, so sampling constructs nothing either.
    counts = dict.fromkeys(("PairRecord", "EulerAngles"), 0)
    for name in counts:
        base = getattr(qec_check, name)

        def counted_init(self, *args, _base=base, _name=name):
            counts[_name] += 1
            _base.__init__(self, *args)

        monkeypatch.setattr(qec_check, name, type(name, (base,), {"__init__": counted_init}))
    same_rots = explicit_list(rots)
    for brute_force in (False, True):
        lazy = kl_check(code, same_rots, seed=9, brute_force=brute_force)
        assert counts == {"PairRecord": 0, "EulerAngles": 0}
        records = lazy.pairs
        assert counts == {"PairRecord": len(pairs), "EulerAngles": len(pairs)}
        assert lazy.pairs is records
        assert records == _eager_pairs(code, same_rots, 9, brute_force)
        assert all(rec.r1 is rots[i] and rec.r2 is rots[k] for rec, (i, k) in zip(records, pairs))
        counts.update(PairRecord=0, EulerAngles=0)
    # equality and hashing read delta_star, eps_star and worst_pair only
    lazy = kl_check(code, same_rots, seed=9)
    assert lazy == report and hash(lazy) == hash(report)


@pytest.mark.parametrize("kind", range(4), ids=_KIND_IDS)
def test_pair_angles_and_worst_pair_match_scalar_compose(kind):
    code = build_codewords(equatorial_qudit(40, 3))
    errs = _error_sets(12)[kind]
    report, pairs, angles, ref_score = _assert_matches_reference(code, errs, seed=6)
    rots = sample_rotations(errs, 6)
    for rec, (i, k), t in zip(report.pairs, pairs, angles):
        assert (rec.r1, rec.r2) == (rots[i], rots[k])
        for got, want in ((rec.t.alpha, t.alpha), (rec.t.beta, t.beta), (rec.t.gamma, t.gamma)):
            diff = abs(got - want) % (2.0 * math.pi)
            assert min(diff, 2.0 * math.pi - diff) < 1e-14
    # the same worst pair; mirror pairs (i, k) and (k, i) can tie exactly,
    # and then rounding may pick either of them
    top = int(np.argmax(ref_score))
    i, k = pairs[top]
    if (rots[i], rots[k]) != report.worst_pair:
        picked = [(rots[a], rots[b]) for a, b in pairs].index(report.worst_pair)
        assert ref_score[top] - ref_score[picked] < 1e-13


def test_relative_rotation_signs_match_compose():
    rots = haar_random_sequence(11, 9)
    left, right = np.divmod(np.arange(81), 9)
    alpha, beta, gamma, sign = relative_rotations(rots, left, right)
    for p, (i, k) in enumerate(zip(left, right)):
        want, want_sign = compose(inverse(rots[i]), rots[k])
        assert sign[p] == want_sign
        assert abs(beta[p] - want.beta) < 1e-14
    # R^(-1) R is exactly the identity chart, with no wrap to 2pi
    same = left == right
    assert np.all(alpha[same] == 0.0) and np.all(beta[same] == 0.0) and np.all(gamma[same] == 0.0)


def test_sign_free_angles_match_relative_rotations_bytes():
    # The scan's sign-free path against the public one, for every error-set
    # kind; the explicit list holds pairs whose T sits on the beta = 0 and
    # beta = pi ties.
    ties = [EulerAngles(0.3, 0.0, 0.0), EulerAngles(1.1, math.pi, 0.2), EulerAngles(4.0, math.pi, 5.9)]
    sets = [
        equatorial_z(0.4, 12),
        conjugated_y(1.3, 0.25, 12),
        conjugated_z_about_x(0.5, 0.9, 12),
        explicit_list(ties + haar_random_sequence(5, 5)),
    ]
    at_pole = at_flip = 0
    for errs in sets:
        rots = sample_rotations(errs, 7)
        left, right = np.divmod(np.arange(len(rots) ** 2), len(rots))
        want = relative_rotations(rots, left, right)[:3]
        got = rotations._relative_angles(rots, left, right)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), errs.kind
        at_pole += int(np.sum(got[1] == 0.0))
        at_flip += int(np.sum(got[1] == math.pi))
    assert at_pole > 0 and at_flip > 0


def _family_parameters(errs, seed):
    """The t of each sample_rotations entry: the grid half, then the seeded half."""
    n_grid = min(max(2, errs.samples // 2), errs.samples)
    ts = np.linspace(-errs.max_angle, errs.max_angle, n_grid).tolist()
    draws = np.random.default_rng(seed).uniform(-errs.max_angle, errs.max_angle, errs.samples - n_grid)
    return ts + draws.tolist()


def _angle_bytes(r):
    return np.array([r.alpha, r.beta, r.gamma]).tobytes()


def test_scalar_chart_equals_array_chart_bytes():
    # compose and member are the 0-d case of the array chart the scan uses,
    # so they agree with it bit for bit, ties and wraps included
    ties = [EulerAngles(0.3, 0.0, 0.0), EulerAngles(1.1, math.pi, 0.2), EulerAngles(4.0, math.pi, 5.9)]
    sets = [
        equatorial_z(0.4, 12),
        conjugated_y(1.3, 0.25, 12),
        conjugated_z_about_x(0.5, 0.9, 12),
        conjugated_z_about_x(2.9, -2.2, 9),
        explicit_list(ties + haar_random_sequence(5, 5)),
        explicit_list(haar_random_sequence(3, 18)),
    ]
    for errs in sets:
        rots = sample_rotations(errs, 7)
        left, right = np.divmod(np.arange(len(rots) ** 2), len(rots))
        alpha, beta, gamma, sign = relative_rotations(rots, left, right)
        for p, (i, k) in enumerate(zip(left.tolist(), right.tolist())):
            t, s = compose(inverse(rots[i]), rots[k])
            assert _angle_bytes(t) == np.array([alpha[p], beta[p], gamma[p]]).tobytes(), (errs.kind, i, k)
            assert s == sign[p]
        if errs.closed_under_composition:
            for t, r in zip(_family_parameters(errs, 7), rots):
                assert _angle_bytes(errs.member(t)) == _angle_bytes(r), (errs.kind, t)


@pytest.mark.parametrize("j", [24, 60, 100])
def test_brute_force_matches_closed_form_at_large_j(j):
    code = build_codewords(equatorial_qudit(j, 3))
    errs = conjugated_y(1.3, 0.25, 6)
    fast = kl_check(code, errs, seed=2)
    slow = kl_check(code, errs, seed=2, brute_force=True)
    assert abs(fast.delta_star - slow.delta_star) < 1e-10
    assert abs(fast.eps_star - slow.eps_star) < 1e-10
    for a, b in zip(fast.pairs, slow.pairs):
        assert a.t == b.t
        assert abs(a.delta - b.delta) < 1e-10
        assert abs(a.eps - b.eps) < 1e-10


def test_brute_force_tables_match_closed_form_for_every_kind():
    # one eigh route for every error kind, half-integer j included
    code = build_codewords(antipodal(6.5, 0.4))
    for errs in _error_sets(4):
        _, _, _, t, dense = qec_check._scan_tables(code, errs, 1, brute_force=True)
        _, _, _, _, closed = qec_check._scan_tables(code, errs, 1, brute_force=False)
        assert dense.shape == closed.shape == (len(t[0]), 2, 2)
        assert np.max(np.abs(dense - closed)) < 1e-12


def test_brute_force_never_touches_the_wigner_d_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force oracle called the Wigner-d kernel")

    for module in (rotations, coherent, lll_codes, qec_check):
        for name in ("wigner_d_matrix", "wigner_D_matrix"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    code = build_codewords(equatorial_qudit(30, 3))
    for errs in _error_sets(4):
        report = kl_check(code, errs, seed=1, brute_force=True)
        assert np.isfinite(report.delta_star) and np.isfinite(report.eps_star)


def test_large_j_clamps_to_exact_zeros_and_reports_them():
    j = 2000
    thetas = np.full(3, math.pi / 2.0)
    phis = 2.0 * math.pi * np.arange(3) / 3.0
    values, clamped = rotation_matrix_elements(
        j, (thetas[:, None], phis[:, None]), (0.1, 0.0, 0.0), (thetas, phis), with_underflow=True
    )
    off = ~np.eye(3, dtype=bool)
    # neighbours 2pi/3 apart overlap as ((1 + cos(2pi/3 +- 0.1))/2)^2000
    assert np.all(clamped[off]) and not np.any(clamped[~off])
    assert np.all(values[off] == 0.0)
    assert np.all(np.abs(np.abs(values[~off]) - math.cos(0.05) ** (2 * j)) < 1e-12)
    value, flag = rotation_matrix_element(j, SphPoint(math.pi / 2, 0.0), EulerAngles(0.1, 0.0, 0.0),
                                          SphPoint(math.pi / 2, phis[1]), with_underflow=True)
    assert value == 0.0 and flag
    report = kl_check(build_codewords(equatorial_qudit(j, 3)), equatorial_z(0.1, 4), seed=0)
    assert report.eps_star == 0.0
    assert all(p.eps == 0.0 for p in report.pairs)


def test_cyclic_kl_check_finite_at_large_j():
    code = build_codewords(cyclic_qubit(512, 4))
    report = kl_check(code, equatorial_z(0.2, 8), seed=3)
    assert np.isfinite(report.delta_star) and np.isfinite(report.eps_star)
    assert all(np.isfinite(p.delta) and np.isfinite(p.eps) for p in report.pairs)


def _per_point_tables(code, angles):
    """matrix_element_tables as it was: one kernel call per output point."""
    j = code.spec.j
    size = len(code.components)
    owner, thetas, phis, coeffs = lll_codes._point_arrays(code.components)
    points = list(zip(owner.tolist(), coeffs.tolist()))
    angles = tuple(np.asarray(x, dtype=float).reshape(-1, 1) for x in angles)
    tables = np.zeros((len(angles[0]), size, size), dtype=complex)
    for o, (k, c_out) in enumerate(points):
        weights = np.zeros((len(points), size), dtype=complex)
        for i, (b, c_in) in enumerate(points):
            weights[i, b] = c_out.conjugate() * c_in
        row = rotation_matrix_elements(j, (thetas[o], phis[o]), angles, (thetas, phis))
        tables[:, k, :] += row @ weights
    return tables


@pytest.mark.parametrize(
    "spec, rotations, kernel_calls",
    [
        (equatorial_qudit(40, 3), 256, 1),
        (cyclic_qubit(40, 8), 256, 8),  # 16 points: 2 output points per block
        (antipodal(40, 0.7), 256, 1),
        (antipodal(40, 0.7), 1, 1),
        (equatorial_qudit(40, 3), 2000, 3),  # one output point per block
    ],
    ids=["qudit-40-3", "cyclic-40-8", "antipodal-40", "antipodal-40-one", "qudit-40-3-split"],
)
def test_batched_tables_match_per_point_loop_bitwise(monkeypatch, spec, rotations, kernel_calls):
    code = build_codewords(spec)
    rng = np.random.default_rng(7)
    angles = (rng.uniform(-math.pi, math.pi, rotations), rng.uniform(0.0, math.pi, rotations),
              rng.uniform(-math.pi, math.pi, rotations))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rotation_matrix_elements(*args, **kwargs)

    monkeypatch.setattr(lll_codes, "rotation_matrix_elements", counted)
    got = lll_codes.matrix_element_tables(code, angles)
    assert len(calls) == kernel_calls
    assert got.tobytes() == _per_point_tables(code, angles).tobytes()


def test_oracle_eigenbasis_cache_is_read_only_and_bitwise_stable(monkeypatch):
    code = build_codewords(equatorial_qudit(24, 3))
    errs = conjugated_y(0.7, 0.2, 6)
    solves, reads = [], []
    solver, cache = spin_core._tridiagonal_eigh, spin_core._tridiagonal_basis

    def solve(*args):
        solves.append(args)
        return solver(*args)

    def read(*args):
        reads.append(args)
        return cache(*args)

    monkeypatch.setattr(spin_core, "_tridiagonal_eigh", solve)
    monkeypatch.setattr(qec_check, "_tridiagonal_basis", read)
    spin_core._store_clear()
    cold = kl_check(code, errs, seed=3, brute_force=True)
    warm = kl_check(code, errs, seed=3, brute_force=True)
    misses, hits = len(solves), len(reads) - len(solves)
    assert (misses, hits) == (1, 1)
    assert np.float64(cold.delta_star).tobytes() == np.float64(warm.delta_star).tobytes()
    assert np.float64(cold.eps_star).tobytes() == np.float64(warm.eps_star).tobytes()
    for a, b in zip(cold._pair_columns(), warm._pair_columns()):
        assert a.tobytes() == b.tobytes()
    lam, vecs, phase = spin_core._tridiagonal_basis(*spin_core._axis_bands(code.spec.j, np.array([0.0, 1.0, 0.0])))
    for arr in (lam, vecs, phase):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        vecs[0, 0] = 0.0


@pytest.mark.parametrize("j", [20_000, 10**6])
def test_closed_form_kl_check_runs_beyond_max_dense_dim(monkeypatch, j):
    errs = equatorial_z(0.05, 8)
    reference = kl_check(build_codewords(cyclic_qubit(2000, 4)), errs, 1)
    assert 0.0 < reference.eps_star < 1e-100  # 8.5e-105
    tracemalloc.start()
    try:
        code = build_codewords(cyclic_qubit(j, 4))
        report = kl_check(code, errs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # nothing (2j+1)-wide was built
    assert math.isfinite(report.delta_star) and math.isfinite(report.eps_star)
    assert report.eps_star <= reference.eps_star
    with pytest.raises(ValueError, match="exceeds MAX_DENSE_DIM"):
        code.basis

    # the brute-force oracle is refused by the basis guard before it builds
    # the dense (2j+1)^2 generator
    def refuse(*args):
        raise AssertionError("dense L_y built beyond MAX_DENSE_DIM")

    monkeypatch.setattr(qec_check, "_tridiagonal_basis", refuse)
    with pytest.raises(ValueError, match="exceeds MAX_DENSE_DIM"):
        kl_check(code, errs, 1, brute_force=True)
