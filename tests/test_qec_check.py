"""Sampled Knill-Laflamme checks over rotation error families."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinqec.lll_codes import antipodal, build_codewords, equatorial_qudit
from spinqec.qec_check import (
    KLReport,
    conjugated_y,
    conjugated_z_about_x,
    correctable_angle,
    diagonal_scan,
    equatorial_offdiag_bound,
    equatorial_z,
    explicit_list,
    kl_check,
    sample_rotations,
)
from spinqec.rotations import EulerAngles, canonicalize, compose, su2_from_euler
from spinqec.spin_core import HalfInt


def test_error_set_validation():
    with pytest.raises(ValueError):
        equatorial_z(-0.1)
    with pytest.raises(ValueError):
        equatorial_z(0.1, samples=0)
    with pytest.raises(ValueError):
        explicit_list([])
    assert equatorial_z(0.3).closed_under_composition
    assert conjugated_y(0.4, 0.3).closed_under_composition
    assert conjugated_z_about_x(0.3).closed_under_composition
    assert not explicit_list([EulerAngles.identity()]).closed_under_composition


def test_member_forms():
    t = 0.27
    assert equatorial_z(0.5).member(t) == EulerAngles(t, 0.0, 0.0)
    phi0 = 1.1
    assert conjugated_y(phi0, 0.5).member(t) == EulerAngles(phi0, t, -phi0)
    # conjugated z about x: member(t) equals X Z(t) X^-1 with X the
    # x-axis rotation, checked against the Pauli exponential
    chi = 0.9
    errs = conjugated_z_about_x(0.5, x_angle=chi)
    got = su2_from_euler(errs.member(t)).matrix
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x_rot = expm(-0.5j * chi * sigma_x)
    z_rot = su2_from_euler(EulerAngles(t, 0.0, 0.0)).matrix
    want = x_rot @ z_rot @ x_rot.conj().T
    agree = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
    assert agree < 1e-12


def test_member_forms_conjugation_axis():
    # the conjugated-y family is the z-family rotated to the tilted axis
    errs = conjugated_y(0.7, 0.5)
    t = 0.31
    member = errs.member(t)
    direct, _ = compose(EulerAngles(0.7, t, 0.0), EulerAngles(0.0, 0.0, -0.7))
    lhs, _ = canonicalize(member)
    assert np.max(np.abs(su2_from_euler(lhs).matrix - su2_from_euler(direct).matrix)) < 1e-12


def test_sample_rotations_deterministic_with_endpoints():
    errs = equatorial_z(0.4, samples=9)
    rots = sample_rotations(errs, seed=3)
    assert rots == sample_rotations(errs, seed=3)
    assert len(rots) == 9
    alphas = [r.alpha for r in rots]
    assert min(alphas) == -0.4
    assert max(alphas) == 0.4
    assert all(abs(a) <= 0.4 for a in alphas)
    listed = explicit_list([EulerAngles(0.1, 0.0, 0.0)])
    assert sample_rotations(listed, seed=0) == [EulerAngles(0.1, 0.0, 0.0)]


def test_kl_check_antipodal_small_angles():
    # theta_0 = 0.2 about the tilted axis: diagonals match to rounding,
    # off-diagonals obey the antipodal envelope
    j = HalfInt(16)
    code = build_codewords(antipodal(j))
    theta0 = 0.2
    report = kl_check(code, conjugated_y(0.0, theta0, samples=12), seed=0)
    assert report.delta_star < 1e-12
    envelope = ((1.0 - math.cos(2.0 * theta0)) / 2.0) ** j.value
    assert report.eps_star <= envelope + 1e-12
    assert len(report.pairs) == 144
    worst = max(max(p.delta, p.eps) for p in report.pairs)
    r1, r2 = report.worst_pair
    match = [p for p in report.pairs if p.r1 == r1 and p.r2 == r2]
    assert match and abs(max(match[0].delta, match[0].eps) - worst) < 1e-15


def test_worst_pair_is_first_of_a_mirror_tie():
    # T = R(-0.2)^(-1) R(0.2) and its mirror score equally in exact
    # arithmetic; the earlier pair in scan order is reported
    report = kl_check(build_codewords(equatorial_qudit(40, 3)), equatorial_z(0.2, 32), seed=0)
    scores = np.array([max(p.delta, p.eps) for p in report.pairs])
    tied = [(p.r1, p.r2) for p, s in zip(report.pairs, scores) if s >= (1.0 - 1e-12) * scores.max()]
    low, high = EulerAngles.about_z(-0.2), EulerAngles.about_z(0.2)
    assert (low, high) in tied and (high, low) in tied
    assert report.worst_pair == tied[0] == (low, high)


def test_kl_check_brute_force_agrees():
    j = HalfInt(10)
    code = build_codewords(antipodal(j, 0.3))
    errs = conjugated_y(0.3, 0.25, samples=6)
    fast = kl_check(code, errs, seed=1)
    slow = kl_check(code, errs, seed=1, brute_force=True)
    assert abs(fast.delta_star - slow.delta_star) < 1e-10
    assert abs(fast.eps_star - slow.eps_star) < 1e-10
    for a, b in zip(fast.pairs, slow.pairs):
        assert abs(a.delta - b.delta) < 1e-10
        assert abs(a.eps - b.eps) < 1e-10


def test_kl_check_equatorial_bound():
    j = HalfInt(12)
    d = 3
    code = build_codewords(equatorial_qudit(j, d))
    t_max = 0.3
    report = kl_check(code, equatorial_z(t_max, samples=10), seed=2)
    assert report.delta_star < 1e-12
    assert report.eps_star <= equatorial_offdiag_bound(j, d, 2.0 * t_max) + 1e-12


def test_equatorial_offdiag_bound_formula():
    j = HalfInt(12)
    want = ((1.0 + math.cos(2.0 * math.pi / 3.0 - 0.6)) / 2.0) ** 6
    assert abs(equatorial_offdiag_bound(j, 3, 0.6) - want) < 1e-15


def test_explicit_identity_returns_gram_offdiag():
    # with only the identity error, eps_star is exactly the gram off-diagonal
    j = HalfInt(12)
    code = build_codewords(equatorial_qudit(j, 2))
    report = kl_check(code, explicit_list([EulerAngles.identity()]), seed=0)
    assert report.eps_star == abs(code.gram[0, 1])
    assert report.delta_star == 0.0


def test_correctable_angle_frozen_and_identity():
    budget = correctable_angle(HalfInt(20), 2, 1e-6)
    assert abs(budget.t_budget - 1.0499404365856200) < 1e-12
    assert abs(budget.single_rotation_budget - budget.t_budget / 2.0) < 1e-15
    assert not budget.no_budget
    # d = 2 closed form: pi - arccos(2 eps^(1/j) - 1) = arccos(1 - 2 eps^(1/j))
    j, eps = HalfInt(14), 1e-4
    direct = math.acos(1.0 - 2.0 * eps ** (1.0 / 7.0))
    assert abs(correctable_angle(j, 2, eps).t_budget - direct) < 1e-12


def test_correctable_angle_no_budget():
    # large d leaves no slack for any eps this small at tiny j
    result = correctable_angle(HalfInt(2), 7, 1e-12)
    assert result.no_budget
    assert result.t_budget == 0.0
    with pytest.raises(ValueError):
        correctable_angle(HalfInt(4), 2, 0.0)
    with pytest.raises(ValueError):
        correctable_angle(HalfInt(4), 2, 1.0)
    with pytest.raises(ValueError):
        correctable_angle(HalfInt(4), 1, 0.5)


def test_diagonal_scan_z_rotations():
    # the scan walks every sampled pair T = R1^-1 R2; a z-rotation by t
    # on an equatorial codeword has |<k|X_T|k>| = |cos(t/2)|^(2j)
    j = HalfInt(10)
    code = build_codewords(equatorial_qudit(j, 2))
    scans = diagonal_scan(code, equatorial_z(0.4, samples=5), seed=0)
    assert len(scans) == 25
    for rotation, diag in scans:
        assert diag.shape == (2,)
        want = abs(math.cos(0.5 * rotation.alpha)) ** j.twice
        for value in diag:
            assert abs(abs(value) - want) < 1e-12


def test_kl_report_validation():
    with pytest.raises(ValueError):
        KLReport(-1.0, 0.0, (EulerAngles.identity(), EulerAngles.identity()), [])
