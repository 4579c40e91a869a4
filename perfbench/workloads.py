"""The three benchmark workloads, as fixed lists of operations.

Every workload is a closed loop with one client: the child process runs
one operation, waits for it, then runs the next.  One pass is the fixed
list returned by ``ops(pass_index)``; the timed job repeats it a fixed
number of times, --seconds over the nominal pass time PASS_S.  All
inputs come from the workload seed; per-pass draws (fresh syndrome
offsets, scan seeds, sample points) come from (seed, pass_index), so a
pass never reuses another pass's fresh values.

A workload with SHUFFLE runs each pass in a seeded random order, so the
samples of one operation are spread over the run rather than falling at
the same offset of every pass, where a slow spell of a shared host would
hit all of them.

Calls go through module attributes (``rotations.wigner_d_matrix``, not a
name bound at import), so the traced run can wrap them from outside.

Inputs that hit a defect recorded in ROADMAP item 1 are kept on purpose
and carry that defect in ``Op.defect``; their failures are counted and
listed like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

from spinqec import (
    cli,
    coherent,
    finite_gkp,
    lll_codes,
    monopole,
    qec_check,
    recovery,
    rotations,
    spin_core,
)

import checks

WIGNER_D_DEFECT = (
    "ROADMAP item 1: the alternating-sum Wigner-d kernel cancels above j = 20 "
    "and overflows to nan at beta = 0, pi"
)
CYCLIC_DEFECT = "ROADMAP item 1: cyclic_normalization overflows for j >= 512"
FIDELITY_DEFECT = "ROADMAP item 1: recover(2000, ...) reports fidelity above 1 + 1e-12"
# The tests sample j <= 20; above it the alternating sum loses accuracy.
EXACT_J_MAX = 20


@dataclass
class Op:
    """One operation: a call into the library and the checks on its result.

    kind names the layer and function; label records the input for the
    failure ledger; key lets another operation's check find this result
    within the same pass; category groups operations for per-layer
    percentiles; defect is the ROADMAP defect this input is known to hit.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, "PassResults"], list[str]]
    key: Hashable = None
    category: str = ""
    defect: str | None = None


@dataclass
class PassResults:
    """What checks may consult: this pass's results by key, reference
    bytes kept across passes, and a tally of physics outcomes."""

    results: dict
    reference: dict
    tally: dict

    def count(self, name: str, amount: float = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + amount


def _rng(seed: int, workload: int, pass_index: int | None = None) -> np.random.Generator:
    parts = [seed, workload] if pass_index is None else [seed, workload, pass_index]
    return np.random.default_rng(parts)


def _cli_op(kind_args: list[str], out: Path, label: str, defect: str | None = None) -> Op:
    """Run ``spinqec <args> --out <file>`` in-process and check its bytes."""
    argv = kind_args + ["--out", str(out)]

    def call() -> int:
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return int(exc.code or 0)

    def check(rc: int, ctx: PassResults) -> list[str]:
        data = out.read_bytes() if out.exists() else b""
        ctx.count("cli.bytes_written", len(data))
        ref_key = tuple(argv)
        reference = ctx.reference.get(ref_key)
        bad = checks.cli_output(rc, data, reference)
        if reference is None:
            ctx.reference[ref_key] = data
        if "cli_bytes" in bad:
            ctx.count("cli.byte_mismatch")
        return bad

    return Op("cli." + kind_args[0], label, call, check, defect=defect)


# ---------------------------------------------------------------------------
# kl_scan


class KlScan:
    """Closed-form Knill-Laflamme scans: the Python-bound pair loop
    (qec_check -> lll_codes -> scalar coherent elements and SU(2)
    composition), plus a few dense brute-force oracle scans."""

    name = "kl_scan"
    SHUFFLE = True
    PASS_S = 2.5  # nominal seconds per pass, on a 2-vCPU Xeon VM in a slow spell
    LADDER_J = (8, 40, 100)
    LADDER_D = (2, 3, 4)
    # Scan time grows with d, not j.  Four scans per code put the median
    # operation inside the d = 3 group instead of between two groups.
    LADDER_SAMPLES = 16
    SCANS_PER_CODE = 4
    CYCLIC = ((40, 4), (40, 8), (512, 4))
    CYCLIC_SAMPLES = 16
    ANTIPODAL_J = 40
    ANTIPODAL_SAMPLES = 32
    # (j, samples) for equatorial_qudit(j, 3).  Two j = 60 oracles per pass
    # keep the tail percentile (ten samples beyond it) inside their group.
    BRUTE = ((8, 4), (24, 4), (60, 2), (60, 2))

    def __init__(self, seed: int, tmp: Path):
        rng = _rng(seed, 1)
        self.seed = seed
        self.cli_theta = float(rng.uniform(0.1, 0.3))
        self.cli_out = tmp / "kl-scan.json"

    def warm_up(self) -> None:
        code = lll_codes.build_codewords(lll_codes.equatorial_qudit(8, 2))
        qec_check.kl_check(code, qec_check.equatorial_z(0.1, 2), 0)
        qec_check.kl_check(code, qec_check.equatorial_z(0.1, 2), 0, brute_force=True)

    def ops(self, pass_index: int) -> list[Op]:
        rng = _rng(self.seed, 1, pass_index)
        out = []

        def scan(spec_fn, errs, scan_seed, brute=False):
            def call():
                code = lll_codes.build_codewords(spec_fn())
                return qec_check.kl_check(code, errs, scan_seed, brute_force=brute)

            return call

        def finite_report(report, ctx):
            return checks.finite(report.delta_star, report.eps_star)

        for j in self.LADDER_J:
            for d in self.LADDER_D:
                for _ in range(self.SCANS_PER_CODE):
                    theta = float(rng.uniform(0.1, 0.3))
                    s = int(rng.integers(1 << 30))
                    errs = qec_check.equatorial_z(theta, self.LADDER_SAMPLES)
                    out.append(Op(
                        "qec_check.kl_check",
                        f"equatorial_qudit({j}, {d}) equatorial_z({theta:.4f}, {self.LADDER_SAMPLES}) seed={s}",
                        scan(lambda j=j, d=d: lll_codes.equatorial_qudit(j, d), errs, s),
                        finite_report,
                        category="ladder",
                    ))
        for j, n in self.CYCLIC:
            theta = float(rng.uniform(0.1, 0.3))
            s = int(rng.integers(1 << 30))
            errs = qec_check.equatorial_z(theta, self.CYCLIC_SAMPLES)
            out.append(Op(
                "qec_check.kl_check",
                f"cyclic_qubit({j}, {n}) equatorial_z({theta:.4f}, {self.CYCLIC_SAMPLES}) seed={s}",
                scan(lambda j=j, n=n: lll_codes.cyclic_qubit(j, n), errs, s),
                finite_report,
                defect=CYCLIC_DEFECT if j >= 512 else None,
            ))
        phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
        theta = float(rng.uniform(0.1, 0.3))
        s = int(rng.integers(1 << 30))
        for errs in (
            qec_check.conjugated_y(phi0, theta, self.ANTIPODAL_SAMPLES),
            qec_check.conjugated_z_about_x(theta, 0.9, self.ANTIPODAL_SAMPLES),
        ):
            out.append(Op(
                "qec_check.kl_check",
                f"antipodal({self.ANTIPODAL_J}, {phi0:.4f}) {errs.kind}({theta:.4f}, {self.ANTIPODAL_SAMPLES}) seed={s}",
                scan(lambda phi0=phi0: lll_codes.antipodal(self.ANTIPODAL_J, phi0), errs, s),
                finite_report,
            ))
        for index, (j, samples) in enumerate(self.BRUTE):
            phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
            theta = float(rng.uniform(0.1, 0.3))
            s = int(rng.integers(1 << 30))
            errs = qec_check.conjugated_y(phi0, theta, samples)
            label = f"equatorial_qudit({j}, 3) conjugated_y({phi0:.4f}, {theta:.4f}, {samples}) seed={s}"
            spec_fn = lambda j=j: lll_codes.equatorial_qudit(j, 3)  # noqa: E731
            key = ("closed", index)
            out.append(Op("qec_check.kl_check", label, scan(spec_fn, errs, s),
                          finite_report, key=key))

            def oracle_check(report, ctx, key=key):
                closed = ctx.results.get(key)
                if closed is None:
                    return ["kl_oracle_twin"]
                bad = checks.oracle((closed.delta_star, closed.eps_star),
                                    (report.delta_star, report.eps_star))
                if bad:
                    ctx.count("qec_check.oracle_mismatch")
                return bad

            out.append(Op("qec_check.kl_check_brute", label, scan(spec_fn, errs, s, brute=True),
                          oracle_check, defect=WIGNER_D_DEFECT if j > EXACT_J_MAX else None))
        out.append(_cli_op(
            ["kl-scan", "--j", "40", "--d", "3", "--theta-max", repr(self.cli_theta),
             "--samples", "32", "--seed", str(self.seed), "--format", "json"],
            self.cli_out, f"spinqec kl-scan --j 40 --d 3 --theta-max {self.cli_theta:.4f}",
        ))
        return out


# ---------------------------------------------------------------------------
# syndrome_rounds


class SyndromeRounds:
    """Many sub-millisecond rounds: recover (half on a repeated
    delta_phi, so its cached density grid is hit, half on a fresh one,
    so it is rebuilt), ancilla-blurred rounds, scipy-quad tail masses,
    GKP shift rounds over whole tiling windows, and three CLI sweeps."""

    name = "syndrome_rounds"
    # The round order is what keeps repeated density grids cached.
    SHUFFLE = False
    PASS_S = 0.62
    RECOVER_J = (8, 50, 200, 2000)
    RECOVER_D = (2, 3, 4)
    # Rounds per (j, d) per pass, each on the repeated and on a fresh offset.
    # Interleaving over the 12 (j, d) keys keeps 24 distinct density grids
    # live between two uses of a repeated key, inside the 32-entry cache.
    ROUNDS = 12
    ANCILLA = ((50, 20), (200, 40))  # (j, j_anc)
    TAIL_J = tuple(range(25, 401, 25))
    TAIL_EPS_PER_J = 3
    # Two codes near n = 900 make their rounds the largest group, so the
    # median operation sits inside it rather than between the cheap repeat
    # rounds and the costlier fresh ones.
    GKP = ((2, 3, 3), (2, 4, 4), (3, 5, 5), (2, 6, 8), (4, 7, 9), (2, 21, 21), (4, 15, 15))

    def __init__(self, seed: int, tmp: Path):
        rng = _rng(seed, 2)
        self.seed = seed
        self.repeat = {}
        for j in self.RECOVER_J:
            for d in self.RECOVER_D:
                self.repeat[j, d] = (int(rng.integers(d)), float(rng.uniform(-0.4, 0.4)) * math.pi / d)
        self.gkp = []
        for k, r1, r2 in self.GKP:
            params = finite_gkp.GkpParams(k, r1, r2)
            code = finite_gkp.build_gkp_code(params)
            s = int(rng.integers(k))
            self.gkp.append((params, s, code.codewords[s]))
        self.sweep_delta = float(rng.uniform(-0.3, 0.3))
        self.tail_eps = float(rng.uniform(0.2, 0.5))
        self.tmp = tmp

    def warm_up(self) -> None:
        for (j, d), (k, delta) in self.repeat.items():
            recovery.recover(j, d, k, delta, 0)
        for j, j_anc in self.ANCILLA:
            k, delta = self.repeat[j, 2]
            recovery.recover(j, 2, k, delta, 0, j_anc=j_anc)
        recovery.tail_failure(25, 0.3)
        params, _, state = self.gkp[0]
        finite_gkp.syndrome_and_recover(params, 0, 0, state)

    def _recover_op(self, j, d, k, delta, seed, category, j_anc=None) -> Op:
        def check(run, ctx):
            ctx.count("recovery.rounds")
            if run.recovered_k != run.input_k:
                ctx.count("recovery.wrong_codeword")
            return checks.fidelity(run.fidelity, run.raw_fidelity)

        anc = "" if j_anc is None else f", j_anc={j_anc}"
        return Op(
            "recovery.recover",
            f"recover({j}, {d}, {k}, {delta!r}, seed={seed}{anc})",
            lambda: recovery.recover(j, d, k, delta, seed, j_anc=j_anc),
            check,
            category=category,
            defect=FIDELITY_DEFECT if j >= 2000 else None,
        )

    def ops(self, pass_index: int) -> list[Op]:
        rng = _rng(self.seed, 2, pass_index)
        out = []
        for _ in range(self.ROUNDS):
            for (j, d), (k, delta) in self.repeat.items():
                out.append(self._recover_op(j, d, k, delta, int(rng.integers(1 << 30)), "repeat"))
                fresh = float(rng.uniform(-0.4, 0.4)) * math.pi / d
                out.append(self._recover_op(j, d, int(rng.integers(d)), fresh,
                                            int(rng.integers(1 << 30)), "fresh"))
        for j, j_anc in self.ANCILLA:
            for d in self.RECOVER_D:
                k, delta = self.repeat[j, d]
                for _ in range(2):
                    out.append(self._recover_op(j, d, k, delta, int(rng.integers(1 << 30)),
                                                "ancilla", j_anc=j_anc))

        def tail_check(est, ctx):
            return checks.tail_mass(est.numeric_tail)

        for j in self.TAIL_J:
            for eps in rng.uniform(0.2, 0.6, self.TAIL_EPS_PER_J):
                eps = float(eps)
                out.append(Op("recovery.tail_failure", f"tail_failure({j}, {eps!r})",
                              lambda j=j, eps=eps: recovery.tail_failure(j, eps), tail_check))

        for params, s, state in self.gkp:
            strict_a = finite_gkp.strict_window(params.r1)
            strict_b = finite_gkp.strict_window(params.r2)
            for a in finite_gkp.tiling_window(params.r1):
                for b in finite_gkp.tiling_window(params.r2):
                    strict = a in strict_a and b in strict_b

                    def gkp_check(res, ctx, strict=strict):
                        ctx.count("finite_gkp.rounds")
                        if res.logical_error:
                            ctx.count("finite_gkp.logical_error")
                        bad = checks.finite(res.recovered.amps)
                        if strict:
                            bad += checks.strict_window(not res.logical_error)
                        return bad

                    out.append(Op(
                        "finite_gkp.syndrome_and_recover",
                        f"syndrome_and_recover(GkpParams{(params.k, params.r1, params.r2)}, {a}, {b}, codeword {s})",
                        lambda params=params, a=a, b=b, state=state:
                            finite_gkp.syndrome_and_recover(params, a, b, state),
                        gkp_check,
                    ))

        # 300 rounds make the sweep the longest operation by a margin that a
        # host stall of a few tens of ms inside a short round does not close,
        # so the tail percentile stays inside the sweep's samples.
        out.append(_cli_op(
            ["recovery-sweep", "--j", "50", "--d", "3", "--delta", repr(self.sweep_delta),
             "--samples", "300", "--seed", str(self.seed), "--format", "csv"],
            self.tmp / "recovery-sweep.csv", f"spinqec recovery-sweep --j 50 --d 3 --delta {self.sweep_delta!r}",
        ))
        out.append(_cli_op(
            ["gkp-table", "--K", "2", "--r1", "4", "--r2", "6", "--seed", str(self.seed)],
            self.tmp / "gkp-table.csv", "spinqec gkp-table --K 2 --r1 4 --r2 6",
        ))
        out.append(_cli_op(
            ["tail-check", "--j", "200", "--epsilon", repr(self.tail_eps), "--format", "json"],
            self.tmp / "tail-check.json", f"spinqec tail-check --j 200 --epsilon {self.tail_eps!r}",
        ))
        return out


# ---------------------------------------------------------------------------
# dense_tables


class DenseTables:
    """Dense builds over the j ladder: Wigner d and D matrices against
    the eigh route, coherent amplitude tables, quadrature-realized
    diagonal operators, antipodal logicals, monopole harmonics by both
    routes, Landau codes, and two table-writing CLI commands."""

    name = "dense_tables"
    SHUFFLE = True
    PASS_S = 12.5
    DENSE_J = (8, 32, 64, 100)
    BETAS = (0.0, 0.1, math.pi / 2.0, 2.5, math.pi)
    # wigner_D_matrix costs 0.6 s at j = 100 today, so that rung gets one beta.
    D_ALL_BETAS_J_MAX = 64
    LARGE_D_BETA = 2.5
    AMPLITUDE_J = (8, 64, 128, 512)
    AMPLITUDE_NODES = 256
    QUADRATURE_J = (8, 16, 32, 64)
    ANTIPODAL_J = (8, 32, 100)
    MONOPOLE_WEIGHT = 0.5
    MONOPOLE_L = (2.5, 10.5, 20.5, 40.5)
    MONOPOLE_M = 0.5
    MONOPOLE_POINTS = 16
    LANDAU = ((4, 0.5), (8, 1))

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def degrees(self) -> list[int]:
        """Colatitude-rule degrees the quadrature operations need: 3 * 2j
        for momentum_kick (symbol degree 2j), 2 * 2j for logical_operators."""
        return sorted({m * 2 * j for j in self.QUADRATURE_J for m in (2, 3)})

    def warm_up(self) -> None:
        # One-time cache fills users pay once per process.
        for degree in self.degrees():
            coherent.theta_rule(degree)
        rotations.wigner_d_matrix(8, 0.1)
        spin_core.matexp_antihermitian(spin_core.axis_operator(8, (0.0, 1.0, 0.0)), 0.1)
        coherent.coherent_amplitudes(8, [0.3], [0.2])
        monopole.monopole_Y(0.5, 2.5, 0.5, route="wigner-d")(0.3, 0.2)
        monopole.monopole_Y(0.5, 2.5, 0.5)(0.3, 0.2)

    def ops(self, pass_index: int) -> list[Op]:
        rng = _rng(self.seed, 3, pass_index)
        out = []
        y_axis = (0.0, 1.0, 0.0)

        def eigh_check(op, ctx):
            return checks.rotation(op.mat)

        for j in self.DENSE_J:
            for beta in self.BETAS:
                out.append(Op(
                    "spin_core.matexp_antihermitian",
                    f"matexp_antihermitian(axis_operator({j}, y), {beta!r})",
                    lambda j=j, beta=beta: spin_core.matexp_antihermitian(
                        spin_core.axis_operator(j, y_axis), beta),
                    eigh_check,
                    key=("eigh", j, beta),
                ))
        def rotation_check(mat, ctx, j, r):
            """Compare with exp(-i alpha m) d(beta) exp(-i gamma n), d from the eigh route."""
            ref = ctx.results.get(("eigh", j, r.beta))
            if ref is None:
                return checks.rotation(mat)
            mv = j - np.arange(2 * j + 1)
            full = np.exp(-1j * r.alpha * mv)[:, None] * ref.mat * np.exp(-1j * r.gamma * mv)[None, :]
            return checks.rotation(mat, full)

        for j in self.DENSE_J:
            for beta in self.BETAS:
                r = rotations.EulerAngles(0.0, beta, 0.0)
                out.append(Op("rotations.wigner_d_matrix", f"wigner_d_matrix({j}, {beta!r})",
                              lambda j=j, beta=beta: rotations.wigner_d_matrix(j, beta),
                              lambda mat, ctx, j=j, r=r: rotation_check(mat, ctx, j, r),
                              defect=WIGNER_D_DEFECT if j > EXACT_J_MAX else None))
        for j in self.DENSE_J:
            betas = self.BETAS if j <= self.D_ALL_BETAS_J_MAX else (self.LARGE_D_BETA,)
            for beta in betas:
                r = rotations.EulerAngles(float(rng.uniform(0.0, 2.0 * math.pi)), beta,
                                          float(rng.uniform(0.0, 2.0 * math.pi)))
                out.append(Op("rotations.wigner_D_matrix", f"wigner_D_matrix({j}, {r})",
                              lambda j=j, r=r: rotations.wigner_D_matrix(j, r),
                              lambda op, ctx, j=j, r=r: rotation_check(op.mat, ctx, j, r),
                              defect=WIGNER_D_DEFECT if j > EXACT_J_MAX else None))
        phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
        for j in self.ANTIPODAL_J:
            r = rotations.EulerAngles(phi0, math.pi, -phi0)
            out.append(Op("lll_codes.antipodal_logical_x", f"antipodal_logical_x({j}, {phi0!r})",
                          lambda j=j, phi0=phi0: lll_codes.antipodal_logical_x(j, phi0),
                          lambda op, ctx, j=j, r=r: rotation_check(op.mat, ctx, j, r),
                          defect=WIGNER_D_DEFECT if j > EXACT_J_MAX else None))

        for j in self.AMPLITUDE_J:
            thetas = rng.uniform(0.0, math.pi, self.AMPLITUDE_NODES)
            phis = rng.uniform(0.0, 2.0 * math.pi, self.AMPLITUDE_NODES)
            out.append(Op("coherent.coherent_amplitudes",
                          f"coherent_amplitudes({j}, {self.AMPLITUDE_NODES} random nodes)",
                          lambda j=j, t=thetas, p=phis: coherent.coherent_amplitudes(j, t, p),
                          lambda amps, ctx: checks.unit_columns(amps)))
        for j in self.QUADRATURE_J:
            out.append(Op("coherent.momentum_kick", f"momentum_kick({j}, {j - 1})",
                          lambda j=j: coherent.momentum_kick(j, j - 1),
                          lambda op, ctx: checks.finite(op.realized.mat)))
            out.append(Op("lll_codes.logical_operators", f"logical_operators(equatorial_qudit({j}, 4))",
                          lambda j=j: lll_codes.logical_operators(lll_codes.equatorial_qudit(j, 4)),
                          lambda ls, ctx: checks.finite(ls.xbar.mat, ls.zbar.mat, ls.zcheck.mat)))

        thetas = rng.uniform(0.05, math.pi - 0.05, self.MONOPOLE_POINTS)
        phis = rng.uniform(0.0, 2.0 * math.pi, self.MONOPOLE_POINTS)
        for l in self.MONOPOLE_L:
            label = f"monopole_Y({self.MONOPOLE_WEIGHT}, {l}, {self.MONOPOLE_M}, route='wigner-d') at {self.MONOPOLE_POINTS} points"

            def evaluate(route, l=l, thetas=thetas, phis=phis):
                harm = monopole.monopole_Y(self.MONOPOLE_WEIGHT, l, self.MONOPOLE_M, route=route)
                return harm(thetas, phis)

            def route_check(vals, ctx, evaluate=evaluate):
                # The production jacobi route is the reference; it is cheap and
                # exercised on the timed path by harmonic_table and the Landau codes.
                bad = checks.routes(evaluate("jacobi"), vals)
                if "monopole_routes" in bad:
                    ctx.count("monopole.route_mismatch")
                return bad

            out.append(Op("monopole.wigner_d_route", label, lambda e=evaluate: e("wigner-d"),
                          route_check, defect=WIGNER_D_DEFECT if l > EXACT_J_MAX else None))

        table_thetas = rng.uniform(0.0, math.pi, 5)
        out.append(Op("monopole.harmonic_table", "harmonic_table(0.5, 8.5, 5 thetas, 2 phis)",
                      lambda: monopole.harmonic_table(0.5, 8.5, table_thetas, [0.0, 1.3]),
                      lambda rows, ctx: checks.finite(np.array(rows, dtype=float))))
        for n, j in self.LANDAU:
            out.append(Op("monopole.build_full_landau_code", f"build_full_landau_code({n}, {j})",
                          lambda n=n, j=j: monopole.build_full_landau_code(n, j),
                          lambda code, ctx: checks.finite(
                              code.norm_sq, code.inner_product, [e.amp for e in code.entries])))

        out.append(_cli_op(
            ["overlap-curve", "--j", "100", "--theta-max", repr(math.pi), "--samples", "2"],
            self.tmp / "overlap-curve.csv", "spinqec overlap-curve --j 100 --theta-max pi --samples 2",
            defect=WIGNER_D_DEFECT,
        ))
        out.append(_cli_op(
            ["harmonics", "--j", "0.5", "--lmax", "6.5", "--samples", "5", "--format", "json"],
            self.tmp / "harmonics.json", "spinqec harmonics --j 0.5 --lmax 6.5 --samples 5",
        ))
        return out


WORKLOADS = {w.name: w for w in (KlScan, SyndromeRounds, DenseTables)}
