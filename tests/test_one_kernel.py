"""Each closed form has one array kernel; its callers agree with the
per-point evaluations it replaced and with 40-digit references."""

import math

import mpmath as mp
import numpy as np
import pytest

from spinqec import monopole
from spinqec.coherent import (
    SphPoint,
    _pow_two_j_arrays,
    coherent_state,
    equatorial_matrix_element,
    overlap,
)
from spinqec.lll_codes import antipodal, build_codewords, cyclic_qubit, equatorial_qudit
from spinqec.monopole import build_full_landau_code, harmonic_table, monopole_Y
from spinqec.rotations import EulerAngles, _half_angles, su2_from_euler
from spinqec.spin_core import HalfInt

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


def _mp_half(theta):
    return mp.cos(mp.mpf(theta) / 2), mp.sin(mp.mpf(theta) / 2)


def test_overlap_and_equatorial_element_against_mpmath():
    # exact inputs: rounding the base costs a few ulp, which the 2j-th
    # power multiplies by 2j, so the bound is 4 * 2j * eps (3.6e-12 at
    # 2j = 4000); both functions stay near 1.5-2.7 * 2j * eps
    with mp.workdps(40):
        _check_closed_forms_against_mpmath(np.random.default_rng(5), 300)


def _check_closed_forms_against_mpmath(rng, draws):
    eps = 2.0**-52
    for _ in range(draws):
        tj = int(rng.integers(1, 4001))
        spread = 3.0 / math.sqrt(tj)  # nearby points keep the value far from the clamp
        t1, f1 = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        t2 = min(math.pi, max(0.0, t1 + spread * rng.normal()))
        f2 = f1 + spread * rng.normal() / max(0.1, math.sin(t1))
        p1, p2 = SphPoint(t1, f1), SphPoint(t2, f2)
        (c1, s1), (c2, s2) = _mp_half(p1.theta), _mp_half(p2.theta)
        ref = (c1 * c2 + mp.expj(mp.mpf(p2.phi) - mp.mpf(p1.phi)) * s1 * s2) ** tj
        got = overlap(HalfInt(tj), p1, p2)
        assert abs(mp.mpc(got) - ref) <= 4 * tj * eps * abs(ref), (tj, t1, f1, t2, f2)

        big_theta = rng.uniform(-math.pi, math.pi)
        phi_out = rng.uniform(0.0, 2.0 * math.pi)
        phi_in = phi_out - big_theta + spread * rng.normal()
        half = mp.mpf(big_theta) / 2
        ref = ((mp.expj(-half) + mp.expj(half) * mp.expj(mp.mpf(phi_in) - mp.mpf(phi_out))) / 2) ** tj
        got = equatorial_matrix_element(HalfInt(tj), phi_out, big_theta, phi_in)
        assert abs(mp.mpc(got) - ref) <= 4 * tj * eps * abs(ref), (tj, phi_out, big_theta, phi_in)


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


@pytest.mark.parametrize("n,j", [(4, 0.5), (8, 1), (16, 2.5), (5, 0)])
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


def test_one_jacobi_route_call_per_harmonic_and_per_code(monkeypatch):
    calls = []
    route = monopole._jacobi_route

    def counting(*args):
        calls.append(args[:3])
        return route(*args)

    monkeypatch.setattr(monopole, "_jacobi_route", counting)
    harmonic_table(0.5, 2.5, [0.1, 0.2, 0.3], [0.0, 1.0])
    assert len(calls) == 2 + 4 + 6
    calls.clear()
    code = build_full_landau_code(8, 1)
    assert len(calls) == 1 and len(code.entries) > 100
    calls.clear()
    monopole_Y(0.5, 2.5, 0.5)(0.3, 0.2)
    assert calls == [(1, 5, 1)]
