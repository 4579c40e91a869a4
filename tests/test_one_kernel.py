"""Each closed form has one kernel; its callers agree with the
per-point evaluations it replaced and with 40- and 50-digit references."""

import importlib
import math
import pkgutil
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import spinqec
from spinqec import coherent, monopole, qec_check, recovery, rotations, spin_core
from spinqec.coherent import (
    SphPoint,
    _ln_overlap_magnitude,
    _pow_two_j_arrays,
    coherent_state,
    equatorial_matrix_element,
    overlap,
    overlap_magnitude,
    theta_rule,
)
from spinqec.lll_codes import (
    antipodal,
    build_codewords,
    cyclic_normalization,
    cyclic_overlap_closed_form,
    cyclic_qubit,
    equatorial_qudit,
)
from spinqec.monopole import build_full_landau_code, harmonic_table, monopole_Y
from spinqec.qec_check import (
    conjugated_y,
    conjugated_z_about_x,
    equatorial_offdiag_bound,
    equatorial_z,
    explicit_list,
    kl_check,
    sample_rotations,
)
from spinqec.recovery import recover, tail_failure
from spinqec.rotations import (
    EulerAngles,
    _half_angles,
    canonicalize,
    compose,
    euler_from_su2,
    haar_random_sequence,
    su2_from_euler,
)
from spinqec.spin_core import HalfInt

from contract import contract_tests

globals().update(contract_tests(__name__))  # this module's rows of contract.TABLE, under their test ids

_SPECS = [
    antipodal(HalfInt(7), 0.0),
    antipodal(HalfInt(40), 1.3),
    antipodal(HalfInt(4001), 4.0),
    equatorial_qudit(HalfInt(16), 3),
    equatorial_qudit(HalfInt(80), 3),
    equatorial_qudit(HalfInt(24), 4, "Option2"),
    equatorial_qudit(HalfInt(600), 7),
    cyclic_qubit(HalfInt(16), 4),
    cyclic_qubit(HalfInt(80), 16),
    cyclic_qubit(HalfInt(401), 3),
]


def _spec_id(spec):
    return f"{spec.family}-{spec.j.twice}-{spec.d or spec.n_cosets}"


@pytest.mark.parametrize("spec", _SPECS, ids=_spec_id)
def test_basis_equals_coherent_state_sum(spec):
    code = build_codewords(spec)
    for vec, comp in zip(code.basis, code.components):
        want = np.zeros(spec.j.dim, dtype=complex)
        for point, coeff in comp:
            want = want + coeff * coherent_state(spec.j, point).amps
        assert np.array_equal(vec.amps, want)


@pytest.mark.parametrize("spec", _SPECS, ids=_spec_id)
def test_gram_matches_pairwise_overlaps(spec):
    code = build_codewords(spec)
    size = len(code.components)
    want = np.array(
        [
            [
                sum(
                    ca.conjugate() * cb * overlap(spec.j, pa, pb)
                    for pa, ca in code.components[a]
                    for pb, cb in code.components[b]
                )
                for b in range(size)
            ]
            for a in range(size)
        ]
    )
    scale = max(sum(abs(c) for _, c in comp) for comp in code.components) ** 2
    assert np.max(np.abs(code.gram - want)) < 1e-15 * scale


@pytest.mark.parametrize("twice", [1, 2, 15, 400, 4001])
@pytest.mark.parametrize("phi0", [0.0, 0.7, 2.0 * math.pi - 1e-9])
def test_antipodal_gram_offdiagonals_exactly_zero(twice, phi0):
    gram = build_codewords(antipodal(HalfInt(twice), phi0)).gram
    assert gram[0, 1] == 0.0 and gram[1, 0] == 0.0
    assert gram[0, 0] == 1.0 and gram[1, 1] == 1.0


def test_power_kernel_against_mpmath():
    # base**(2j) on identical bases, 2j < 4000, |value| >= exp(-40); the
    # former scalar kernel (principal log times 2j) missed 1e-12 on 2 of
    # these draws, with errors up to 1.2e-12
    rng = np.random.default_rng(0)
    n = 1500
    tj = rng.integers(1, 4000, n)
    base = np.exp(-rng.uniform(0.0, 40.0, n) / tj) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    worst = 0.0
    with mp.workdps(40):
        for b, t in zip(base.tolist(), tj.tolist()):
            got = complex(_pow_two_j_arrays(np.asarray(b), t)[0])
            ref = mp.mpc(b) ** t
            worst = max(worst, float(abs(mp.mpc(got) - ref) / abs(ref)))
    assert worst < 1e-12


def test_power_kernel_zero_and_clamp():
    values, clamped = _pow_two_j_arrays(np.array([0.0, 1e-3, 0.5j, -1.0]), 400)
    assert values[0] == 0.0 and not clamped[0]
    assert values[1] == 0.0 and clamped[1]
    assert values[3] == 1.0 and not clamped[3]
    assert abs(values[2] / 0.5**400 - 1.0) < 1e-13


def test_overlap_exact_cases():
    north, south = SphPoint.north(), SphPoint.south(0.4)
    for twice in (1, 2, 3, 4000):
        j = HalfInt(twice)
        assert overlap(j, north, south) == 0.0
        assert overlap(j, north, north) == 1.0
        assert overlap(j, south, south) == 1.0
    # spin 0 has a single state, so every overlap is 1, poles included
    assert overlap(HalfInt(0), north, south) == 1.0
    assert equatorial_matrix_element(HalfInt(0), 0.0, math.pi, 0.0) == 1.0
    assert np.array_equal(build_codewords(antipodal(HalfInt(0))).gram, np.ones((2, 2)))


def test_half_angles_snap_scalars_and_arrays():
    # (beta, (cos, sin) of beta/2) with the signs of any zeros: the snaps
    # give +0.0, and sin(-0.0 / 2) keeps its sign
    snaps = (
        (math.pi, (0.0, 1.0)),
        (-math.pi, (0.0, -1.0)),
        (2.0 * math.pi, (-1.0, 0.0)),
        (-2.0 * math.pi, (-1.0, 0.0)),
        (-0.0, (1.0, -0.0)),
    )
    for beta, want in snaps:
        signs = tuple(math.copysign(1.0, v) for v in want)
        for ch, sh in (_half_angles(beta), (v[0] for v in _half_angles(np.array([beta, 0.3])))):
            assert (float(ch), float(sh)) == want
            assert (math.copysign(1.0, ch), math.copysign(1.0, sh)) == signs, beta
    assert SphPoint.south().half_angles() == (0.0, 1.0)
    assert all(type(v) is float for v in SphPoint(0.3, 0.0).half_angles())
    u = su2_from_euler(EulerAngles(0.4, math.pi, -0.4))
    assert u.a == 0.0 and abs(abs(u.b) - 1.0) < 1e-16
    # scalar and array evaluations agree bit for bit
    rng = np.random.default_rng(2)
    betas = np.concatenate([rng.uniform(-7.0, 7.0, 500), [beta for beta, _ in snaps]])
    ch, sh = _half_angles(betas)
    for i, beta in enumerate(betas.tolist()):
        for c, s in (_half_angles(beta), _half_angles(np.asarray(beta))):
            assert np.float64(c).tobytes() == ch[i].tobytes()
            assert np.float64(s).tobytes() == sh[i].tobytes()


@pytest.mark.parametrize("n,j", [(4, 0.5), (8, 1), (16, 2.5), (5, 0), (32, 1)])
def test_landau_amplitudes_match_single_harmonics(n, j):
    code = build_full_landau_code(n, j)
    for e in code.entries:
        want = monopole_Y(j, e.l, e.m)(math.pi / 2.0, 0.0).real
        assert abs(e.amp - want) <= 2e-15 * abs(want)
        assert e.c0 == math.sqrt(n) * e.amp
        assert e.c1 == (e.c0 if e.p % 2 == 0 else -e.c0)
    assert code.norm_sq == sum(e.c0 * e.c0 for e in code.entries)


@pytest.mark.parametrize(
    "j,l_max,thetas,phis",
    [
        (0.5, 8.5, np.linspace(0.0, math.pi, 5).tolist(), [0.0, 1.3]),
        (-1.5, 5.5, [0.0, 0.2, 1.7, math.pi], [0.0, 4.0, 6.1]),
        (2, 6, [0.9], [0.3]),
    ],
)
def test_harmonic_table_rows_match_single_harmonics(j, l_max, thetas, phis):
    rows = iter(harmonic_table(j, l_max, thetas, phis))
    jj = HalfInt.of(j)
    for tl in range(abs(jj.twice), HalfInt.of(l_max).twice + 1, 2):
        for tm in range(-tl, tl + 1, 2):
            harm = monopole_Y(jj, HalfInt(tl), HalfInt(tm))
            for th in thetas:
                vals = np.atleast_1d(harm(np.full(len(phis), th), np.array(phis)))
                for ph, v in zip(phis, vals):
                    assert next(rows) == (tl / 2.0, tm / 2.0, th, ph, v.real, v.imag)
    assert next(rows, None) is None


def _count_calls(monkeypatch, module, name):
    """Patch a counting wrapper over module.name into every spinqec module
    that holds that same function, found by walking the package.

    Returns the list that records each call's arguments and the names of
    the patched modules.  A caller that grows its own copy of the kernel
    stops calling it, and the count drops.
    """
    kernel = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    patched = set()
    for info in pkgutil.iter_modules(spinqec.__path__):
        holder = importlib.import_module(f"spinqec.{info.name}")
        if getattr(holder, name, None) is kernel:
            monkeypatch.setattr(holder, name, counting)
            patched.add(holder.__name__)
    return calls, patched


def test_one_jacobi_route_call_per_harmonic_and_per_code(monkeypatch):
    calls, _ = _count_calls(monkeypatch, monopole, "_jacobi_route")
    harmonic_table(0.5, 2.5, [0.1, 0.2, 0.3], [0.0, 1.0])
    assert len(calls) == 2 + 4 + 6
    calls.clear()
    code = build_full_landau_code(8, 1)
    assert len(calls) == 1 and len(code.entries) > 100
    calls.clear()
    monopole_Y(0.5, 2.5, 0.5)(0.3, 0.2)
    assert [args[:3] for args in calls] == [(1, 5, 1)]


# ----------------------------------------------------------------------
# The real overlap law |cos(y/2)|^(2j): one kernel, _ln_overlap_magnitude
# ----------------------------------------------------------------------


def test_overlap_magnitude_exact_cases():
    rng = np.random.default_rng(4)
    points = [SphPoint(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 7.0)) for _ in range(20)]
    points += [SphPoint.north(), SphPoint.south(0.4), SphPoint(math.pi / 2.0, 0.0)]
    for twice in (0, 1, 2, 7, 4000):
        for p in points:
            assert overlap_magnitude(HalfInt(twice), p, p) == 1.0
    for twice in (1, 2, 3, 4000):
        for phi in (0.0, 0.4, 3.0):
            assert overlap_magnitude(HalfInt(twice), SphPoint.north(), SphPoint.south(phi)) == 0.0
    # spin 0 has one state: every overlap is exactly 1
    for p, q in zip(points, points[1:]):
        assert overlap_magnitude(HalfInt(0), p, q) == 1.0


def test_equatorial_offdiag_bound_exact_ends():
    assert equatorial_offdiag_bound(5, 2, 0.0) == 0.0
    assert equatorial_offdiag_bound(10**6, 3, 0.1) == 0.0
    assert equatorial_offdiag_bound(12, 3, 2.0 * math.pi / 3.0) == 1.0


def _former_ln_overlap_magnitude(y, tj):
    # the kernel as it stood in recovery, verbatim
    y = abs(math.remainder(y, 2.0 * math.pi))
    if y <= 0.5 * math.pi:
        return tj * math.log1p(-2.0 * math.sin(0.25 * y) ** 2)
    mag = math.sin(0.5 * (math.pi - y))
    return tj * math.log(mag) if mag > 0.0 else -math.inf


def test_kernel_bytes_equal_former_recovery_kernel():
    rng = np.random.default_rng(9)
    ys = np.concatenate(
        [
            rng.uniform(-20.0, 20.0, 2000),
            math.pi * np.array([0.5, -0.5, 1.0, -1.0, 2.0, 3.0]),
            [math.nextafter(0.5 * math.pi, 0.0), math.nextafter(0.5 * math.pi, 4.0), 0.0, -0.0],
        ]
    ).tolist()
    for tj in (1, 2, 5, 16, 101, 4000, 2 * 10**6, 4.0 * 7 + 1.0):
        for y in ys:
            got, want = _ln_overlap_magnitude(y, tj), _former_ln_overlap_magnitude(y, tj)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (y, tj)
    # the one change: spin 0 is ln 1 = 0 also at |y| = pi, where it was -inf
    assert _ln_overlap_magnitude(math.pi, 0) == 0.0
    assert _ln_overlap_magnitude(-3.0 * math.pi, 0) == 0.0


def _former_tail_failure(j, epsilon):
    # tail_failure's arithmetic before the kernel moved, with its kernel inlined
    j = HalfInt.of(j)
    jv = j.value
    laplace = math.sqrt(2.0 / (math.pi * jv)) * math.exp(-jv * epsilon * epsilon / 2.0) / epsilon
    if epsilon == math.pi:
        return 0.0, laplace, 0.0
    a = j.twice + 0.5
    rest = (math.pi - epsilon) + recovery._PI_LO
    s = math.sin(0.25 * rest)
    if epsilon <= 0.5 * math.pi:
        ln_cos = _former_ln_overlap_magnitude(epsilon, 2.0 * a)
    else:
        ln_cos = 2.0 * a * math.log(math.sin(0.5 * rest))
    ln_front = (
        ln_cos
        - math.log(2.0)
        - 0.5 * math.log(math.pi)
        - math.log(a)
        + recovery._ln_gamma_half_step(a)
    )
    cf = recovery._beta_cf(a, s * s)
    numeric = min(1.0, 2.0 * math.exp(ln_front) * cf)
    ln_numeric = min(0.0, math.log(2.0) + ln_front + math.log(cf))
    ln_laplace = 0.5 * math.log(2.0 / (math.pi * jv)) - jv * epsilon**2 / 2.0 - math.log(epsilon)
    return numeric, laplace, math.exp(ln_numeric - ln_laplace)


def test_tail_failure_bytes_equal_former_arithmetic():
    half = 0.5 * math.pi
    grid = np.concatenate(
        [
            np.linspace(1e-3, math.pi - 1e-6, 90),
            [half, math.nextafter(half, 0.0), math.nextafter(half, 4.0), math.pi - 1e-6, math.pi],
        ]
    ).tolist()
    for j in (0.5, 1, 3, 20, 400, 10**4):
        for eps in grid:
            est = tail_failure(j, eps)
            got = (est.numeric_tail, est.laplace_tail, est.ratio)
            assert np.array(got).tobytes() == np.array(_former_tail_failure(j, eps)).tobytes(), (j, eps)


def _former_power_parts(base, n):
    # the far branch of monopole._power_parts before it called _exp_parts
    value = base**n
    far = (np.abs(value) < 2.0**-200) & (base != 0.0)
    if not far.any():
        return value, 0
    with np.errstate(divide="ignore"):
        ln = n * np.log(np.abs(np.where(far, base, 1.0)))
    k = np.rint(ln / math.log(2.0))
    r = (ln - k * monopole._LN2_HI) - k * monopole._LN2_LO
    sign = np.where((base < 0.0) & (n % 2 == 1), -1.0, 1.0)
    return np.where(far, sign * np.exp(r), value), k.astype(np.int64)


def test_power_parts_bytes_equal_former_far_branch():
    rng = np.random.default_rng(6)
    edge = 2.0**-200
    ulps = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    base = np.concatenate(
        [rng.uniform(-1.0, 1.0, 4000), ulps, [-u for u in ulps], [0.0, 1.0, -1.0]]
    )
    n = np.concatenate([rng.integers(0, 4000, 4000), np.ones(6, dtype=np.int64), [3, 7, 5]])
    # bases whose n-th power lands within a few ulp of 2^-200
    for m in range(1, 300):
        near = 2.0 ** (-200.0 / m) * (1.0 + np.arange(-3, 4) * 2.0**-52)
        base = np.concatenate([base, near])
        n = np.concatenate([n, np.full(len(near), m)])
    got, want = monopole._power_parts(base, n), _former_power_parts(base, n)
    assert np.sum(np.abs(base**n) < edge) > 1000
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    for b, m in zip(base[::11].tolist(), n[::11].tolist()):  # 0-d inputs, as one harmonic passes
        for g, w in zip(monopole._power_parts(np.asarray(b), m), _former_power_parts(np.asarray(b), m)):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (b, m)


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda: recover(8, 3, 1, 0.1, 0, j_anc=4), 3),
        (lambda: tail_failure(8, 0.5), 1),
        (lambda: tail_failure(8, 0.5 * math.pi), 1),
        (lambda: cyclic_normalization(8, 5), 5),
        (lambda: cyclic_overlap_closed_form(8, 5, 0.4), 10),
        (lambda: equatorial_offdiag_bound(8, 3, 0.2), 1),
        (lambda: overlap_magnitude(8, SphPoint(0.3, 0.1), SphPoint(2.5, 4.0)), 1),
    ],
    ids=[
        "recover",
        "tail_failure",
        "tail_failure-half-pi",
        "cyclic_normalization",
        "cyclic_overlap_closed_form",
        "equatorial_offdiag_bound",
        "overlap_magnitude",
    ],
)
def test_one_overlap_law_kernel_call_per_term(monkeypatch, call, count):
    # every real |cos(y/2)|^(2j) goes through the one kernel: a caller that
    # grows its own copy of the law stops calling it and fails here
    calls, patched = _count_calls(monkeypatch, coherent, "_ln_overlap_magnitude")
    assert patched >= {"spinqec.coherent", "spinqec.lll_codes", "spinqec.qec_check", "spinqec.recovery"}
    call()
    assert len(calls) == count


# ----------------------------------------------------------------------
# The SU(2) chart: one array kernel, _euler_angles_arrays
# ----------------------------------------------------------------------

_CHART_CODE = build_codewords(equatorial_qudit(HalfInt(8), 3))


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda: euler_from_su2(su2_from_euler(EulerAngles(0.3, 1.2, -0.4))), 1),
        (lambda: canonicalize(EulerAngles(9.0, -0.7, -5.0)), 1),
        (lambda: compose(EulerAngles(0.3, 1.2, -0.4), EulerAngles(-2.0, 0.6, 0.9)), 1),
        (lambda: conjugated_z_about_x(0.2, 0.9, 4).member(0.1), 1),
        (lambda: sample_rotations(conjugated_z_about_x(0.2, 0.9, 32), 3), 1),
        (lambda: kl_check(_CHART_CODE, equatorial_z(0.2, 6), 1), 1),
        (lambda: kl_check(_CHART_CODE, conjugated_y(0.4, 0.2, 6), 1, brute_force=True), 1),
        (lambda: kl_check(_CHART_CODE, explicit_list(haar_random_sequence(2, 5)), 1), 1),
        # the members' chart, then the scan's
        (lambda: kl_check(_CHART_CODE, conjugated_z_about_x(0.2, 0.9, 6), 1), 2),
    ],
    ids=[
        "euler_from_su2",
        "canonicalize",
        "compose",
        "member",
        "sample_rotations",
        "kl_check-equatorial_z",
        "kl_check-brute-conjugated_y",
        "kl_check-explicit_list",
        "kl_check-conjugated_z_about_x",
    ],
)
def test_one_su2_chart_call_per_pass(monkeypatch, call, count):
    # scalar and array paths read angles from the one chart: a caller that
    # grows its own copy of it stops calling the kernel and fails here
    calls, patched = _count_calls(monkeypatch, rotations, "_euler_angles_arrays")
    assert patched == {"spinqec.rotations", "spinqec.qec_check"}
    call()
    assert len(calls) == count


# ----------------------------------------------------------------------
# Hermitian tridiagonal generators: one eigensolver, _tridiagonal_eigh
# ----------------------------------------------------------------------


def _ladder_sum_axis_operator(j, n):
    # axis_operator as it stood: n . L summed from dense L+, L- and L3
    lp, lm = spin_core.ladder_operators(j)
    l1 = (lp.mat + lm.mat) / 2.0
    l2 = (lp.mat - lm.mat) / 2.0j
    return n[0] * l1 + n[1] * l2 + n[2] * spin_core.l3_operator(j).mat


def test_axis_operator_equals_ladder_sum():
    rng = np.random.default_rng(12)
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, -0.8), (0.0, -0.6, 0.8)]
    axes += [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(7, 3))]
    for twice in (0, 1, 2, 3, 8, 17, 40, 101, 400):
        for n in axes:
            got = spin_core.axis_operator(HalfInt(twice), n).mat
            assert np.array_equal(got, _ladder_sum_axis_operator(HalfInt(twice), n)), (twice, n)


def _former_theta_rule(degree):
    # the former construction: a Stieltjes recurrence on a Gauss-Legendre
    # grid and a dense eigh of the full n x n Jacobi matrix
    n = degree + 3
    s = math.sin(math.pi / 8.0)
    x, w = np.polynomial.legendre.leggauss(n + 40)
    w = w / np.sqrt(1.0 - (s * x) ** 2)
    beta = np.empty(n)
    beta[0] = w.sum()
    q_prev, q = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(beta[0]))
    for k in range(1, n):
        r = x * q - math.sqrt(beta[k - 1]) * q_prev
        beta[k] = np.dot(w, r * r)
        q_prev, q = q, r / math.sqrt(beta[k])
    off = np.sqrt(beta[1:])
    xi, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    psi = math.pi / 4.0 + 2.0 * np.arcsin(s * xi)
    w_psi = 2.0 * s * beta[0] * vec[0] ** 2
    return 2.0 * psi, 2.0 * np.sin(2.0 * psi) * w_psi


@pytest.mark.parametrize("degree", [8, 64, 384, 1024])
def test_theta_rule_nodes_match_former_construction(degree):
    # the weights are held to the 40-digit oracle instead (test_coherent::
    # test_theta_rule_against_mpmath): the former ones are up to 8e-12 off it
    got, want = theta_rule(degree)[0], _former_theta_rule(degree)[0]
    assert np.max(np.abs(got - want)) <= 1e-14


_Y_AXIS = (0.0, 1.0, 0.0)


def _ly_oracle(j):
    # the brute-force KL oracle, which reads L_y's eigenbasis for its X_T
    return kl_check(build_codewords(equatorial_qudit(j, 2)), equatorial_z(0.1, 2), 0, brute_force=True)


def _dense_hermitian(twice):
    rng = np.random.default_rng(twice)
    a = rng.normal(size=(twice + 1, twice + 1)) + 1j * rng.normal(size=(twice + 1, twice + 1))
    return spin_core.Operator(HalfInt(twice), a + a.conj().T)


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda: spin_core.matexp_antihermitian(spin_core.axis_operator(5, _Y_AXIS), 0.3), 1),
        (lambda: spin_core.matexp_antihermitian(spin_core.axis_operator(5, (0.6, 0.0, 0.8)), -1.1), 1),
        (lambda: spin_core.matexp_antihermitian(spin_core.l3_operator(2.5), 0.7), 1),
        (lambda: _ly_oracle(11), 1),
        (lambda: theta_rule(21), 1),
        (lambda: spin_core.matexp_antihermitian(_dense_hermitian(4), 0.3), 0),
    ],
    ids=["matexp-L_y", "matexp-axis", "matexp-L_z", "ly_eigenbasis", "theta_rule", "matexp-dense"],
)
def test_one_tridiagonal_eigensolver_call_per_generator(monkeypatch, call, count):
    # every tridiagonal generator is diagonalized in real arithmetic through
    # the one kernel; a dense Hermitian generator keeps the complex eigh
    calls, patched = _count_calls(monkeypatch, spin_core, "_tridiagonal_eigh")
    assert patched == {"spinqec.spin_core", "spinqec.coherent"}
    spin_core._bases.clear()
    coherent._theta_rule_cached.cache_clear()
    call()
    assert len(calls) == count


def test_basis_cache_runs_the_solver_once_per_generator(monkeypatch):
    # matexp's tridiagonal route and the L_y oracle read one cache keyed on
    # the bands' bytes, so a repeat, or the oracle after a matexp on
    # axis_operator(j, y), runs no second solve
    calls, _ = _count_calls(monkeypatch, spin_core, "_tridiagonal_eigh")
    spin_core._bases.clear()
    y_5 = spin_core.axis_operator(5, _Y_AXIS)
    spin_core.matexp_antihermitian(y_5, 0.3)
    assert len(calls) == 1
    spin_core.matexp_antihermitian(y_5, -1.2)
    _ly_oracle(5)
    assert len(calls) == 1
    spin_core.matexp_antihermitian(spin_core.axis_operator(5, (0.6, 0.0, 0.8)), 0.3)
    assert len(calls) == 2
    spin_core.matexp_antihermitian(spin_core.axis_operator(6, _Y_AXIS), 0.3)
    assert len(calls) == 3


def _basis_size(twice):
    bands = spin_core._axis_bands(HalfInt(twice), np.array(_Y_AXIS))
    return sum(arr.nbytes for arr in spin_core._tridiagonal_eigh(*bands))


def test_basis_cache_keeps_the_newest_bases_within_its_budget(monkeypatch):
    small, large = spin_core.axis_operator(2, _Y_AXIS), spin_core.axis_operator(20, _Y_AXIS)
    large_size = _basis_size(40)
    calls, _ = _count_calls(monkeypatch, spin_core, "_tridiagonal_eigh")
    # one byte short of the j = 20 basis: it is returned, never kept
    monkeypatch.setattr(spin_core, "_BASIS_BUDGET", large_size - 1)
    spin_core._bases.clear()
    for gen in (small, large, large, small):
        spin_core.matexp_antihermitian(gen, 0.3)
    assert len(calls) == 3 and len(spin_core._bases) == 1
    # room for the j = 20 basis alone: the older j = 1 basis is dropped
    monkeypatch.setattr(spin_core, "_BASIS_BUDGET", large_size)
    for gen in (large, small):
        spin_core.matexp_antihermitian(gen, 0.3)
    assert len(calls) == 5 and len(spin_core._bases) == 1
    assert sum(map(spin_core._basis_bytes, spin_core._bases.values())) <= spin_core._BASIS_BUDGET
    spin_core._bases.clear()


def test_basis_cache_under_threads(monkeypatch):
    # six threads on two cores read and evict the one cache in turn, with
    # the switch interval shortened: every result keeps a lone thread's bits
    gens = [spin_core.axis_operator(HalfInt(twice), _Y_AXIS) for twice in (3, 8, 13, 20)]
    want = [spin_core.matexp_antihermitian(gen, 0.4).mat.tobytes() for gen in gens]
    monkeypatch.setattr(spin_core, "_BASIS_BUDGET", _basis_size(20) + _basis_size(13))
    errors = []

    def work(first):
        try:
            for step in range(40):
                index = (first + step) % len(gens)
                assert spin_core.matexp_antihermitian(gens[index], 0.4).mat.tobytes() == want[index]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(first,)) for first in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        spin_core._bases.clear()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def test_basis_cache_results_bitwise_equal_cold_and_warm():
    for twice in (0, 1, 7, 40, 101):
        for axis in (_Y_AXIS, (0.6, 0.0, -0.8), (0.48, -0.6, 0.64)):
            gen = spin_core.axis_operator(HalfInt(twice), axis)
            spin_core._bases.clear()
            cold = spin_core.matexp_antihermitian(gen, 0.7).mat.tobytes()
            assert spin_core.matexp_antihermitian(gen, 0.7).mat.tobytes() == cold, (twice, axis)


# ----------------------------------------------------------------------
# Spin generators on their bands: one writer of L . n, _axis_bands
# ----------------------------------------------------------------------

_BAND_TWICE = (*range(31), 99, 400)


def _band_axes():
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    axes += [(0.0, 0.0, -1.0), (0.6, 0.0, -0.8), (0.0, -0.6, 0.8), (0.6, 0.8, 0.0), (-0.8, 0.0, 0.6)]
    rng = np.random.default_rng(21)
    return axes + [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(14, 3))]


def _former_bands(j, n):
    # the diagonal and lower band axis_operator wrote before _axis_bands
    jv, m = j.value, spin_core.m_values(j)
    half = np.sqrt(jv * (jv + 1.0) - m[1:] * (m[1:] + 1.0)) / 2.0
    return n[2] * m, half * complex(n[0], n[1])


def test_axis_bands_are_axis_operator_diagonals():
    axes = _band_axes()
    assert len(axes) >= 20
    for twice in _BAND_TWICE:
        j = HalfInt(twice)
        for n in axes:
            diag, sub = spin_core._axis_bands(j, np.asarray(n))
            mat = spin_core.axis_operator(j, n).mat
            assert diag.tobytes() == np.diagonal(mat).real.tobytes(), (twice, n)
            assert sub.tobytes() == np.diagonal(mat, -1).tobytes(), (twice, n)
            assert np.array_equal(np.diagonal(mat, 1), sub.conj())
            for got, want in zip((diag, sub), _former_bands(j, np.asarray(n))):
                assert got.tobytes() == want.tobytes(), (twice, n)


def test_ladder_operators_bytes_equal_former_construction():
    for twice in _BAND_TWICE:
        j = HalfInt(twice)
        jv, m = j.value, spin_core.m_values(j)[1:]
        lp = np.diag(np.sqrt(jv * (jv + 1.0) - m * (m + 1.0)), k=1).astype(complex)
        got = spin_core.ladder_operators(j)
        assert got[0].mat.tobytes() == lp.tobytes(), twice
        assert got[1].mat.tobytes() == np.ascontiguousarray(lp.conj().T).tobytes(), twice


def test_ly_eigenbasis_bytes_equal_former_construction():
    # the L_y oracle's basis as it stood: the bands read back from a dense L_y
    y_axis = np.array([0.0, 1.0, 0.0])
    for twice in range(121):
        j = HalfInt(twice)
        diag, sub = _former_bands(j, y_axis)
        ly = np.zeros((j.dim, j.dim), dtype=complex)
        ly.flat[:: j.dim + 1] = diag
        ly.flat[j.dim :: j.dim + 1] = sub
        lam, vecs, phase = spin_core._tridiagonal_eigh(np.diagonal(ly).real, np.diagonal(ly, -1))
        got_lam, got_vecs, got_phase = spin_core._tridiagonal_basis(*spin_core._axis_bands(j, y_axis))
        got_vecs_h = (got_phase.conj()[:, None] * got_vecs).T  # as qec_check._dense_tables forms it
        assert got_lam.tobytes() == lam.tobytes(), twice
        assert got_vecs_h.tobytes() == (phase.conj()[:, None] * vecs).T.tobytes(), twice


def test_ly_eigenbasis_builds_no_dense_generator():
    # a dense complex L_y took 16 bytes per entry on top of the real
    # eigensolver's 24: the cold peak was 40 (2j+1)^2 bytes
    j = HalfInt(1000)
    spin_core._bases.clear()
    tracemalloc.start()
    try:
        spin_core._tridiagonal_basis(*spin_core._axis_bands(j, np.array(_Y_AXIS)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spin_core._bases.clear()
    assert peak <= 32 * j.dim**2


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda: spin_core.axis_operator(6, (0.6, 0.0, 0.8)), 1),
        (lambda: spin_core.ladder_operators(6), 1),
        (lambda: rotations.wigner_d_matrix(6, 0.7), 1),
        (lambda: rotations.wigner_d(6, 1, -2, 0.7), 1),
        (lambda: _ly_oracle(13), 1),
        (lambda: coherent.disentangle_check(6, SphPoint(1.0, 0.3)), 2),
    ],
    ids=["axis_operator", "ladder_operators", "wigner_d_matrix", "wigner_d", "ly_eigenbasis", "disentangle"],
)
def test_one_generator_band_writer(monkeypatch, call, count):
    # every generator's entries come from _axis_bands; the disentangling
    # check reads L1's band once and its Wigner-D reference once more
    calls, patched = _count_calls(monkeypatch, spin_core, "_axis_bands")
    assert patched == {"spinqec.spin_core", "spinqec.rotations", "spinqec.coherent", "spinqec.qec_check"}
    spin_core._bases.clear()
    call()
    assert len(calls) == count
