"""Acceptance suite: the ten headline guarantees, one test each.

Each test prints one ACCEPTANCE line on success; a failing guarantee
shows up as an ordinary pytest failure for that criterion.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np

from spinqec.coherent import (
    SphPoint,
    coherent_state,
    diagonal_operator,
    overlap,
    rotation_matrix_element,
    theta_rule,
)
from spinqec.finite_gkp import (
    GkpParams,
    PauliWord,
    build_gkp_code,
    strict_window,
    syndrome_and_recover,
)
from spinqec.lll_codes import (
    antipodal,
    build_codewords,
    cyclic_overlap_closed_form,
    cyclic_qubit,
    equatorial_qudit,
    logical_operators,
)
from spinqec.monopole import build_full_landau_code, momentum_shift_analysis, monopole_Y
from spinqec.qec_check import conjugated_y, kl_check
from spinqec.recovery import tail_failure
from spinqec.rotations import haar_random_sequence
from spinqec.spin_core import HalfInt, axis_operator, matexp_antihermitian, m_values


def test_criterion_01_closed_form_matrix_elements():
    # closed-form <out|X_R|in> against a brute-force rotation sandwich,
    # fifty random triples per j up to j = 20, within 30 s; the rotation
    # matrix is built from the generator exponentials, which keeps the
    # reference accurate to ~1e-14 absolute at every j in range
    start = time.time()
    worst_abs = 0.0
    worst_rel = 0.0
    for twice in range(1, 41):
        j = HalfInt(twice)
        lz = axis_operator(j, (0.0, 0.0, 1.0))
        ly = axis_operator(j, (0.0, 1.0, 0.0))
        rng = np.random.default_rng(twice)
        for r in haar_random_sequence(1000 + twice, 50):
            brute = (
                matexp_antihermitian(lz, r.alpha)
                @ matexp_antihermitian(ly, r.beta)
                @ matexp_antihermitian(lz, r.gamma)
            )
            theta_a, theta_b = np.arccos(rng.uniform(-1.0, 1.0, 2))
            phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi, 2)
            out_p, in_p = SphPoint(theta_a, phi_a), SphPoint(theta_b, phi_b)
            dense = brute.sandwich(coherent_state(j, out_p), coherent_state(j, in_p))
            closed = rotation_matrix_element(j, out_p, r, in_p)
            err = abs(closed - dense)
            assert err <= max(1e-9 * abs(dense), 1e-12), (twice, r, abs(dense), err)
            worst_abs = max(worst_abs, err)
            if abs(dense) >= 1e-3:
                worst_rel = max(worst_rel, err / abs(dense))
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 1: PASS - 2000 closed-form elements vs rotation sandwich, "
        f"worst abs {worst_abs:.2e}, worst rel {worst_rel:.2e} on O(1) elements, "
        f"{elapsed:.1f}s"
    )


def test_criterion_02_overlap_law():
    # | |<n1|n2>| - ((1 + n1.n2)/2)^j | < 1e-12 over one thousand pairs
    rng = np.random.default_rng(2024)
    worst = 0.0
    for twice in range(1, 41):
        j = HalfInt(twice)
        for _ in range(25):
            thetas = np.arccos(rng.uniform(-1.0, 1.0, 2))
            phis = rng.uniform(0.0, 2.0 * math.pi, 2)
            p1, p2 = SphPoint(thetas[0], phis[0]), SphPoint(thetas[1], phis[1])
            law = ((1.0 + float(np.dot(p1.n, p2.n))) / 2.0) ** j.value
            err = abs(abs(overlap(j, p1, p2)) - law)
            worst = max(worst, err)
            assert err < 1e-12
    print(f"ACCEPTANCE 2: PASS - overlap law on 1000 pairs, worst {worst:.2e}")


def test_criterion_03_resolution_of_identity():
    worst = 0.0
    for twice in range(1, 31):
        j = HalfInt(twice)
        resolved = diagonal_operator(j, lambda t, p: np.ones_like(t), band_limit=(0, 0))
        err = float(np.max(np.abs(resolved.realized.mat - np.eye(j.dim))))
        worst = max(worst, err)
        assert err < 1e-10, twice
    print(f"ACCEPTANCE 3: PASS - identity resolution j up to 15, worst {worst:.2e}")


def test_criterion_04_antipodal_kl_envelope():
    for twice in (8, 16, 32):
        j = HalfInt(twice)
        code = build_codewords(antipodal(j))
        for theta0 in (0.1, 0.2, 0.4):
            report = kl_check(code, conjugated_y(0.0, theta0), seed=0)
            envelope = ((1.0 - math.cos(2.0 * theta0)) / 2.0) ** j.value
            assert report.delta_star <= 1e-12, (twice, theta0)
            assert report.eps_star <= envelope + 1e-12, (twice, theta0)
    print("ACCEPTANCE 4: PASS - antipodal KL residuals inside the tilt envelope")


def test_criterion_05_logical_algebra():
    worst_cov = 0.0
    for d in (2, 3, 4, 5):
        for j_int in range(2, 13):
            spec = equatorial_qudit(HalfInt(2 * j_int), d)
            logical = logical_operators(spec)
            assert np.array_equal(logical.xbar_power(d).mat, np.eye(2 * j_int + 1))
            zx = logical.zbar.mat @ logical.xbar.mat
            xz = logical.xbar.mat @ logical.zbar.mat
            cov = float(np.max(np.abs(zx - np.exp(2j * math.pi / d) * xz)))
            worst_cov = max(worst_cov, cov)
            assert cov < 1e-10, (d, j_int)
    residuals = []
    for twice in (8, 16, 32, 64):
        spec = equatorial_qudit(HalfInt(twice), 2)
        code = build_codewords(spec)
        logical = logical_operators(spec)
        moved = logical.zbar.apply(code.basis[0])
        residuals.append(float(np.linalg.norm(moved.amps - code.basis[0].amps)))
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    print(
        f"ACCEPTANCE 5: PASS - exact clock powers, covariance worst {worst_cov:.2e}, "
        f"eigen-residuals {['%.3f' % r for r in residuals]} strictly decreasing"
    )


def test_criterion_06_gkp_exhaustive():
    start = time.time()
    runs = 0
    codes = 0
    for k in range(2, 61):
        for r1 in range(1, 61):
            if k * r1 > 60:
                break
            for r2 in range(1, 61):
                n = k * r1 * r2
                if n > 60:
                    break
                params = GkpParams(k, r1, r2)
                code = build_gkp_code(params)
                codes += 1
                for word in code.codewords:
                    for a in strict_window(r1):
                        for b in strict_window(r2):
                            out = syndrome_and_recover(params, a, b, word)
                            runs += 1
                            assert not out.logical_error, (k, r1, r2, a, b)
                            fid = abs(np.vdot(out.recovered.amps, word.amps)) ** 2
                            assert fid > 1.0 - 1e-12, (k, r1, r2, a, b)
    # the nine strict-window displacements of the K=2, r1=r2=3 code land
    # in mutually orthogonal subspaces
    params = GkpParams(2, 3, 3)
    code = build_gkp_code(params)
    shifts = list(itertools.product(strict_window(3), strict_window(3)))
    for i1, (a1, b1) in enumerate(shifts):
        for a2, b2 in shifts[i1 + 1 :]:
            for w1 in code.codewords:
                for w2 in code.codewords:
                    v1 = PauliWord(params.n, a1, b1).apply(w1).amps
                    v2 = PauliWord(params.n, a2, b2).apply(w2).amps
                    assert abs(np.vdot(v1, v2)) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 6: PASS - {codes} comb codes, {runs} in-window recoveries exact, "
        f"9 error subspaces orthogonal, {elapsed:.1f}s"
    )


def test_criterion_07_tail_asymptotics():
    est100 = tail_failure(HalfInt(200), 0.3)
    est400 = tail_failure(HalfInt(800), 0.3)
    assert 0.75 <= est100.ratio <= 1.25
    assert abs(est400.ratio - 1.0) < abs(est100.ratio - 1.0)
    print(
        f"ACCEPTANCE 7: PASS - tail ratio {est100.ratio:.4f} at j=100, "
        f"{est400.ratio:.4f} at j=400 moves toward 1"
    )


def test_criterion_08_cyclic_overlaps():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in range(2, 6):
        for twice in (8, 16, 26, 40):
            j = HalfInt(twice)
            code = build_codewords(cyclic_qubit(j, n))
            ms = m_values(j)
            for theta in rng.uniform(0.0, 2.0 * math.pi, 20):
                closed = cyclic_overlap_closed_form(j, n, float(theta))
                dense = np.vdot(
                    code.basis[0].amps, np.exp(-1j * theta * ms) * code.basis[1].amps
                )
                err = abs(closed - dense)
                worst = max(worst, err)
                assert err < 1e-10, (n, twice)
    # dichotomy: angles with Theta + pi/N on the lattice give unit
    # overlap at every j (the rotation maps word 0 onto word 1 exactly);
    # all other angles decay monotonically toward zero
    n = 3
    generic = []
    for twice in (16, 32, 64, 128):
        j = HalfInt(twice)
        for angle in (math.pi / n, math.pi / n + 2.0 * math.pi / n):
            assert abs(abs(cyclic_overlap_closed_form(j, n, angle)) - 1.0) < 1e-12
        generic.append(abs(cyclic_overlap_closed_form(j, n, 2.0)))
    assert all(a > b for a, b in zip(generic, generic[1:]))
    assert generic[-1] < 1e-3
    print(
        f"ACCEPTANCE 8: PASS - cyclic closed form vs dense worst {worst:.2e}, "
        f"dichotomy pinned at 1 on the lattice and decaying {['%.2e' % g for g in generic]} off it"
    )


def test_criterion_09_monopole_family():
    # dual-route agreement
    rng = np.random.default_rng(9)
    for twice_j in range(-6, 7):
        for twice_l in range(abs(twice_j), 17, 2):
            for twice_m in range(-twice_l, twice_l + 1, 2):
                if rng.uniform() > 0.2:
                    continue  # sampled subset keeps the sweep quick
                jac = monopole_Y(HalfInt(twice_j), HalfInt(twice_l), HalfInt(twice_m))
                dual = monopole_Y(
                    HalfInt(twice_j), HalfInt(twice_l), HalfInt(twice_m), route="wigner-d"
                )
                theta = float(rng.uniform(0.05, math.pi - 0.05))
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                assert abs(jac(theta, phi) - dual(theta, phi)) < 1e-10
    # orthonormality of each fixed-charge family up to l = 8
    thetas, weights = theta_rule(36)
    n_phi = 48
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(thetas, n_phi)
    pp = np.tile(phis, len(thetas))
    ww = np.repeat(weights, n_phi) * (2.0 * math.pi / n_phi)
    worst = 0.0
    for twice_j in range(0, 7):
        fns = []
        for twice_l in range(twice_j, 17, 2):
            for twice_m in range(-twice_l, twice_l + 1, 2):
                fns.append(monopole_Y(HalfInt(twice_j), HalfInt(twice_l), HalfInt(twice_m)))
        grid = np.array([fn(tt, pp) for fn in fns])
        gram = (grid * ww) @ np.conj(grid).T
        err = float(np.max(np.abs(gram - np.eye(len(fns)))))
        worst = max(worst, err)
        assert err < 1e-10, twice_j
    # exact support lattice and the half-flux verdicts
    for n_flux, twice_j in ((10, 2), (4, 2), (7, 3)):
        code = build_full_landau_code(n_flux, HalfInt(twice_j))
        for entry in code.entries:
            assert (entry.m.twice + twice_j) % (2 * n_flux) == 0
        seen_levels = sorted({entry.l.twice for entry in code.entries})
        for twice_l in seen_levels:
            ms = [e.m for e in code.entries if e.l.twice == twice_l]
            verdict = momentum_shift_analysis(code, HalfInt(twice_l), ms[0])
            expected = (twice_l + twice_j) / 2.0 < n_flux / 2.0
            assert verdict.correctable == expected, (n_flux, twice_j, twice_l)
    print(
        f"ACCEPTANCE 9: PASS - monopole dual routes, gram worst {worst:.2e}, "
        f"support lattice and shift verdicts exact"
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    base = [sys.executable, "-m", "spinqec.cli"]
    cases = [
        ["kl-scan", "--j", "6", "--samples", "8", "--seed", "3"],
        ["overlap-curve", "--j", "4", "--samples", "9"],
        ["recovery-sweep", "--samples", "10", "--seed", "2", "--delta", "0.05"],
        ["gkp-table", "--K", "2", "--r1", "3", "--r2", "3"],
        ["harmonics", "--j", "0.5", "--lmax", "2.5", "--samples", "4"],
        ["tail-check", "--j", "50", "--epsilon", "0.4"],
    ]
    for idx, case in enumerate(cases):
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"case{idx}_run{attempt}.txt"
            proc = subprocess.run(base + case + ["--out", str(out)], capture_output=True, text=True)
            assert proc.returncode == 0, (case, proc.stderr)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], case
    # and the scan config echo never contains the output path
    doc = json.loads((tmp_path / "case0_run0.txt").read_text())
    assert "out" not in doc["config"]
    print("ACCEPTANCE 10: PASS - six subcommands byte-identical across repeated runs")
