"""Monopole harmonics, the lowest-level bridge, and full Landau codes."""

import math

import numpy as np
import pytest

from spinqec.coherent import SphPoint, coherent_state, theta_rule
from spinqec.monopole import (
    _jacobi,
    build_full_landau_code,
    correctable_shift_count,
    harmonic_table,
    lowest_level_bridge,
    momentum_shift_analysis,
    monopole_Y,
)
from spinqec.spin_core import HalfInt


def test_frozen_value_both_routes():
    # j = 2, l = 5, m = 3 at (0.8, 0.6)
    frozen = 0.15571534298998107 - 0.022196683846847279j
    jac = monopole_Y(HalfInt(4), HalfInt(10), HalfInt(6))(0.8, 0.6)
    dual = monopole_Y(HalfInt(4), HalfInt(10), HalfInt(6), route="wigner-d")(0.8, 0.6)
    assert abs(jac - frozen) < 1e-13
    assert abs(dual - frozen) < 1e-13


def test_zero_charge_reduces_to_spherical_harmonics():
    # frozen spherical-harmonic values at (pi/2, 0)
    theta = math.pi / 2.0
    cases = {
        (0, 0): 0.28209479177387814,
        (1, 1): -0.34549414947133548,
        (2, 0): -0.31539156525252001,
        (2, 2): 0.38627420202318958,
    }
    for (l, m), want in cases.items():
        got = monopole_Y(HalfInt(0), HalfInt(2 * l), HalfInt(2 * m))(theta, 0.0)
        assert abs(got - want) < 1e-13


@pytest.mark.parametrize(
    "tj,tl,tm",
    [(2, 6, 4), (1, 5, -3), (-4, 8, 0), (3, 9, 9), (0, 4, -2)],
)
def test_dual_route_agreement(tj, tl, tm):
    jac = monopole_Y(HalfInt(tj), HalfInt(tl), HalfInt(tm))
    dual = monopole_Y(HalfInt(tj), HalfInt(tl), HalfInt(tm), route="wigner-d")
    rng = np.random.default_rng(abs(tj) + tl)
    for theta, phi in zip(rng.uniform(0.01, math.pi - 0.01, 8), rng.uniform(0.0, 2.0 * math.pi, 8)):
        a, b = jac(float(theta), float(phi)), dual(float(theta), float(phi))
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("tl", [41, 81, 201])
def test_routes_agree_at_large_l_over_arrays(tl):
    rng = np.random.default_rng(tl)
    thetas = rng.uniform(0.05, math.pi - 0.05, 16)
    phis = rng.uniform(0.0, 2.0 * math.pi, 16)
    jac = monopole_Y(HalfInt(1), HalfInt(tl), HalfInt(1))(thetas, phis)
    dual = monopole_Y(HalfInt(1), HalfInt(tl), HalfInt(1), route="wigner-d")(thetas, phis)
    assert dual.shape == thetas.shape
    assert np.max(np.abs(jac - dual)) < 1e-10


def test_jacobi_rescales_past_two_to_the_512():
    # P_400^(400,0)(1) = C(800, 400), about 1.1e239: the recurrence carries it
    # as p * 2**512, and the scaling by the exact power of two is lossless
    p, e = _jacobi(400, 400, 0, 1.0)
    assert e == 512
    want = math.comb(800, 400)
    assert abs(math.ldexp(float(p), int(e)) - want) <= 1e-14 * want


@pytest.mark.parametrize("theta", [0.2, 0.6, 1.5, 2.5])
def test_routes_agree_at_l_600_half_integer(theta):
    # the jacobi route rescales its recurrence past 2**512 and splits a
    # prefactor far beyond 2**+-200 (_exp_parts); the wigner-d route does neither
    want = monopole_Y(0.5, 600.5, 299.5, route="wigner-d")(theta, 0.3)
    got = monopole_Y(0.5, 600.5, 299.5)(theta, 0.3)
    assert abs(got - want) <= 1e-11 * abs(want)


def test_pole_values_exact():
    # the north pole only supports m = -j (half-angle sine exponent
    # |m + j| vanishes), the south pole only m = +j; off-support values
    # are exact zeros, not rounding-level residue
    tj = 2  # j = 1
    survives_north = monopole_Y(HalfInt(tj), HalfInt(6), HalfInt(-tj))
    assert abs(survives_north(0.0, 0.4)) > 0.0
    dies_north = monopole_Y(HalfInt(tj), HalfInt(6), HalfInt(2))
    assert dies_north(0.0, 0.4) == 0.0
    survives_south = monopole_Y(HalfInt(tj), HalfInt(6), HalfInt(tj))
    assert abs(survives_south(math.pi, 1.1)) > 0.0
    dies_south = monopole_Y(HalfInt(tj), HalfInt(6), HalfInt(6))
    assert dies_south(math.pi, 1.1) == 0.0


def test_gauge_parity():
    # the antipodal map combines with charge flip: value at (pi - theta, phi)
    # of the opposite-charge harmonic matches up to (-1)^(l+m) e^(-2 i j phi)
    tj, tl, tm = 2, 8, 4  # j = 1, l = 4, m = 2
    plus = monopole_Y(HalfInt(tj), HalfInt(tl), HalfInt(tm))
    minus = monopole_Y(HalfInt(-tj), HalfInt(tl), HalfInt(tm))
    for theta, phi in ((0.7, 0.3), (1.9, 4.1)):
        lhs = minus(math.pi - theta, phi)
        sign = (-1.0) ** ((tl + tm) // 2)
        rhs = sign * np.exp(-1j * tj * phi) * plus(theta, phi)
        assert abs(lhs - rhs) < 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        monopole_Y(HalfInt(4), HalfInt(2), HalfInt(0))  # l < |j|
    with pytest.raises(ValueError):
        monopole_Y(HalfInt(2), HalfInt(6), HalfInt(8))  # |m| > l
    with pytest.raises(ValueError):
        monopole_Y(HalfInt(1), HalfInt(4), HalfInt(4))  # parity: l, m integer but j half
    with pytest.raises(ValueError):
        monopole_Y(HalfInt(2), HalfInt(6), HalfInt(2), route="series")


def test_orthonormality():
    # quadrature strong enough for products up to l = 3 checks the
    # overlap integrals of a fixed-charge family
    tj = 1  # j = 1/2
    levels = [(1, 1), (1, -1), (3, 1), (3, 3), (5, -3)]
    thetas, weights = theta_rule(24)
    n_phi = 16
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    fns = [monopole_Y(HalfInt(tj), HalfInt(tl), HalfInt(tm)) for tl, tm in levels]
    for a, fa in enumerate(fns):
        for b, fb in enumerate(fns):
            acc = 0.0 + 0.0j
            for theta, w in zip(thetas, weights):
                row = np.array([fa(float(theta), float(p)) for p in phis])
                col = np.array([fb(float(theta), float(p)) for p in phis])
                acc += w * (2.0 * math.pi / n_phi) * np.sum(np.conj(row) * col)
            want = 1.0 if a == b else 0.0
            assert abs(acc - want) < 1e-10, (levels[a], levels[b])


def test_lowest_level_bridge():
    # at l = j the harmonic collapses onto the coherent amplitude profile
    j = HalfInt(6)
    for tm in range(-6, 7, 2):
        assert lowest_level_bridge(j, HalfInt(tm)) < 1e-10
    assert lowest_level_bridge(HalfInt(1), HalfInt(1)) == 0.0
    assert lowest_level_bridge(HalfInt(5), HalfInt(-3)) < 1e-10


def test_landau_support_lattice():
    for n_flux, tj in ((3, 2), (5, 1), (4, 4)):
        code = build_full_landau_code(n_flux, HalfInt(tj))
        assert code.norm_sq > 0.0
        for m in code.support_m:
            assert (m.twice + tj) % (2 * n_flux) == 0
        for entry in code.entries:
            assert (entry.m.twice + tj) % (2 * n_flux) == 0


def test_landau_deficit_decreases_with_l_max():
    deficits = [
        build_full_landau_code(3, HalfInt(2), HalfInt(2 * lm)).deficit for lm in (6, 10, 16)
    ]
    assert deficits[0] > deficits[1] > deficits[2]
    assert all(d < 0.0 for d in deficits)


def test_landau_single_flux_block_is_coherent():
    # with one flux quantum the lowest level reduces to equatorial
    # coherent states, logical words at azimuths pi and 0
    j = HalfInt(12)
    code = build_full_landau_code(1, j)
    ms, c0, c1 = code.level_block(j)
    assert [m.value for m in ms] == [float(v) for v in range(-6, 7)]
    for vec, azimuth in ((np.asarray(c0), math.pi), (np.asarray(c1), 0.0)):
        coh = coherent_state(j, SphPoint(math.pi / 2.0, azimuth)).amps
        lam = np.vdot(coh, vec) / np.vdot(coh, coh)
        assert np.linalg.norm(vec - lam * coh) < 1e-12 * np.linalg.norm(vec)


def test_momentum_shift_verdicts():
    # N = 10, j = 1: levels 1 and 2 fit inside the half-flux window
    code = build_full_landau_code(10, HalfInt(2))
    v = momentum_shift_analysis(code, HalfInt(4), HalfInt(2))
    assert v.correctable
    assert v.kick_reach == 3.0
    assert v.window == 5.0
    assert "level-2" in v.trace
    assert correctable_shift_count(code) == 3
    # N = 4, j = 1: even the lowest level reaches the window edge
    tight = build_full_landau_code(4, HalfInt(2))
    assert correctable_shift_count(tight) == 0
    low = momentum_shift_analysis(tight, HalfInt(2), HalfInt(2))
    assert not low.correctable


def test_harmonic_table_shape_and_order():
    rows = harmonic_table(HalfInt(0), HalfInt(4), [math.pi / 2.0], [0.0])
    assert len(rows) == 9  # (l, m) pairs for l = 0, 1, 2
    assert rows[0][:2] == (0.0, 0.0)
    assert rows[1][:2] == (1.0, -1.0)
    assert all(len(row) == 6 for row in rows)
    re_by_lm = {(row[0], row[1]): row[4] for row in rows}
    assert abs(re_by_lm[(0.0, 0.0)] - 0.28209479177387814) < 1e-13
    assert abs(re_by_lm[(2.0, 2.0)] - 0.38627420202318958) < 1e-13
