"""Pinned CLI output bytes.

Each case runs one subcommand in-process and compares the sha256 digest
of its output file with a digest recorded before the closed forms were
routed through their array kernels.  A refactor that moves a single last
bit of any printed number changes the digest.

The digests are tied to the installed numpy build (recorded with
numpy 2.4.6 on x86-64): a different numpy or libm may round transcendental
functions differently and move last bits without any change here.  If
that happens, re-record them on the parent commit of the change under
test, never on the change itself.
"""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from spinqec.cli import main

import oracles

# name -> (argv, --config overrides or None, sha256 of the output file)
CASES = {
    "gkp-table-defaults": (
        ["gkp-table"],
        None,
        "3afcb847d561ff9b60b85bff219cfb74160e09147271d5d64b5ce0e09abbd0ec",
    ),
    "gkp-table-2-4-6": (
        ["gkp-table", "--K", "2", "--r1", "4", "--r2", "6"],
        None,
        "794bc8ac30a96270de2492b3003af650ca269ada26c4398a0377acdef545e98b",
    ),
    "gkp-table-2-21-21": (
        ["gkp-table", "--K", "2", "--r1", "21", "--r2", "21"],
        None,
        "a2df3e6f70888a5766f2ba6d3f86182d4e083520b8ce2c5061b464cbc964a930",
    ),
    "harmonics-defaults": (
        ["harmonics"],
        None,
        "a280b0c94ddb6dab886f22bf2c39e7dec52893ae4562e8ee291bc6afcb9abc56",
    ),
    "harmonics-half-lmax-6.5-json": (
        ["harmonics", "--j", "0.5", "--lmax", "6.5", "--samples", "5", "--format", "json"],
        None,
        "3fbc39ce37f9d9554f948563dc4b2de01dfd98001bebeac25cefb78a01e7b21c",
    ),
    "harmonics-negative-weight-phis": (
        ["harmonics", "--lmax", "4.5", "--samples", "7"],
        {"j": -1.5, "phis": [0.0, 1.3, 4.0]},
        "c3580742b78495304d56441f1d502c14c172777cfdf5011a116a1e9740a07a1d",
    ),
    "kl-scan-defaults": (
        ["kl-scan"],
        None,
        "767afdbedbc0a26260270c271e6537dfd0fccab27306ec8946f6c56d65aa817f",
    ),
    "kl-scan-equatorial-40-3": (
        ["kl-scan", "--j", "40", "--d", "3", "--theta-max", "0.2", "--samples", "32"],
        None,
        "8bb83e65e95e9229cfd12fb75e0c2e8ee69003ec2b2c846dd70a0c31f2bc13c9",
    ),
    "kl-scan-defaults-csv": (
        ["kl-scan", "--format", "csv"],
        None,
        "1cbf91c4f074a486a38f8fe6afafa47be832d04d1f9339625b295580087d548d",
    ),
    "kl-scan-equatorial-40-3-csv": (
        ["kl-scan", "--j", "40", "--d", "3", "--theta-max", "0.2", "--samples", "32"]
        + ["--format", "csv"],
        None,
        "e0913bdf5190b3ca18968bcc09e60005f51d042b6cf680d5a2fa92e4b274dbc7",
    ),
    "kl-scan-equatorial-100-4-64": (
        ["kl-scan", "--j", "100", "--d", "4", "--samples", "64"],
        None,
        "96568696ad39b1161a8edb473f00bfd3156f6c29ea8977f043e4bb324196046f",
    ),
    "kl-scan-equatorial-100-4-64-csv": (
        ["kl-scan", "--j", "100", "--d", "4", "--samples", "64", "--format", "csv"],
        None,
        "3ebe02e402dc252ac6c43e216917b77281831a4ed7db18ad806f289c92fb5f15",
    ),
    "recovery-sweep-defaults": (
        ["recovery-sweep"],
        None,
        "e3b99110e849fe229eedcf5fd8e6fcff5ccf5c9fe072c0429e8850385ce3ee0a",
    ),
    "recovery-sweep-d3": (
        ["recovery-sweep", "--j", "20", "--d", "3", "--delta", "0.05", "--samples", "20"],
        None,
        "eefb9490fa45f3fafe28429f29ae9ddca0b2b28b2e9adf1438764093b7fcd7c3",
    ),
    "recovery-sweep-j2000-d4": (
        ["recovery-sweep", "--j", "2000", "--d", "4", "--delta", "0.1", "--samples", "20"],
        None,
        "dae0545200ff5f36b7ff4b8fe212d15562d8862b098e70d00878879b80e2d67f",
    ),
    "recovery-sweep-j50-d3-ancilla": (
        ["recovery-sweep", "--j", "50", "--d", "3", "--delta", "0.2", "--samples", "20"],
        {"j_anc": 20, "input_k": 2},
        "aa559548026f09331e30ef46371fb534b06eaa329a897d7dae94b348b6110610",
    ),
    "recovery-sweep-j50-d3-300-csv": (
        ["recovery-sweep", "--j", "50", "--d", "3", "--delta", "-0.2297", "--samples", "300"]
        + ["--seed", "7", "--format", "csv"],
        None,
        "3f6fd6537472058308d5d4cb29d90f70b95aa123e601e246df9349d9bea20eaa",
    ),
    "recovery-sweep-j200-d4-ancilla-0": (
        ["recovery-sweep", "--j", "200", "--d", "4", "--delta", "0.3", "--samples", "40"]
        + ["--seed", "3"],
        {"j_anc": 0, "input_k": 5},
        "b025a42f8d3d9840e4d309eb24a151bb844d8f5bf78286363a54462e179112f3",
    ),
    "overlap-curve-defaults": (
        ["overlap-curve"],
        None,
        "c3679215f767ad10e3d3c3989c1f0454255a3fffb741d00a62813107eee12abc",
    ),
    "overlap-curve-phi0-1.3": (
        ["overlap-curve"],
        {"phi0": 1.3},
        "2de179d4c96e960367a1e1bdcff1f8c10de3b4e594731d693d2f3ea3f3c8f417",
    ),
    "overlap-curve-j100-to-pi-json": (
        ["overlap-curve", "--j", "100", "--theta-max", "3.141592653589793", "--samples", "2"]
        + ["--format", "json"],
        None,
        "f97c423e89f1ec149bab10c67c2ee3a60e2e95390bcd5d8c07ce70f3d65606e8",
    ),
    "gkp-table-defaults-json": (
        ["gkp-table", "--format", "json"],
        None,
        "47bf04998a6fce7eff5561204d912db1d90fc393f53d098039ef4c0cd55882e8",
    ),
    "tail-check-defaults": (
        ["tail-check"],
        None,
        "dfca017ff15b05acc33231d169af52d08f2e41b8e96fd9712594c5ece0111e9a",
    ),
    "tail-check-j200-json": (
        ["tail-check", "--j", "200", "--epsilon", "0.3", "--format", "json"],
        None,
        "1e992abe344378d1896ce03619a8af6d5daf5a948e971b5ca9b17662a86c2912",
    ),
    "tail-check-past-half-pi": (
        ["tail-check", "--j", "25", "--epsilon", "2.5"],
        None,
        "9f491a30a7d5428975ae05fc4219928166af3fc4f1108fa86caf4aeec8a2292e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_pinned(tmp_path, name):
    assert hashlib.sha256(_output(tmp_path, name)).hexdigest() == CASES[name][2], name


def _output(tmp_path, name):
    """The bytes that case name writes, run in-process."""
    argv, overrides, _ = CASES[name]
    argv = list(argv)
    if overrides is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


# Cases whose bytes follow numpy's SIMD dispatch: arctan2, log1p, arctan,
# exp and float power round their last bits differently under the AVX2 and
# AVX-512 kernels, and those functions lie on every kl-scan path and on the
# phi0 = 1.3 overlap curve.  They are listed here and not checked below.
DISPATCH_DEPENDENT = (
    "kl-scan-defaults",
    "kl-scan-defaults-csv",
    "kl-scan-equatorial-100-4-64",
    "kl-scan-equatorial-100-4-64-csv",
    "kl-scan-equatorial-40-3",
    "kl-scan-equatorial-40-3-csv",
    "overlap-curve-phi0-1.3",
)

_AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"

_CHILD = """
import json, os, pathlib, sys, tempfile
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, sys.argv[1])
import test_cli_bytes, test_finite_gkp, test_spin_core
if "NPY_DISABLE_CPU_FEATURES" in os.environ:
    assert not __cpu_features__["X86_V4"], "the AVX-512 kernels were not disabled"
failed = []
for name in json.loads(sys.argv[2]):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            test_cli_bytes.test_cli_bytes_pinned(pathlib.Path(tmp), name)
        except AssertionError:
            failed.append(name)
if sys.argv[3] == "rounds":
    for label, test in (("round-outputs", test_finite_gkp.test_round_outputs_pinned),
                        ("statevec-norm", test_spin_core.test_statevec_norm_keeps_plain_bits_in_range)):
        try:
            test()
        except AssertionError:
            failed.append(label)
print(json.dumps(failed))
"""


def _failed_in_child(settings, names, rounds):
    """The pinned cases among names (and, if rounds, the GKP rounds and the
    StateVec.norm bits) that a fresh interpreter under the environment
    settings misses."""
    tests_dir = str(pathlib.Path(__file__).resolve().parent)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, tests_dir, json.dumps(names), "rounds" if rounds else "cases"],
        env=dict(os.environ, **settings), capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _dispatches_x86_v4():
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


def _runs_haswell_kernels():
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX2")) and bool(__cpu_features__.get("FMA3"))


@pytest.mark.skipif(not _dispatches_x86_v4(), reason="numpy does not dispatch X86_V4 here")
def test_digests_hold_without_avx512_kernels():
    # The pinned bytes other than DISPATCH_DEPENDENT, the GKP rounds and
    # the StateVec.norm bits must not move when numpy runs its AVX2
    # kernels in place of its AVX-512 ones.  This fails on the day another
    # output starts to depend on numpy's SIMD kernels.
    stable = sorted(set(CASES) - set(DISPATCH_DEPENDENT))
    assert len(stable) == 18
    assert _failed_in_child({"NPY_DISABLE_CPU_FEATURES": _AVX2_ONLY}, stable, rounds=True) == []


# The recovery decode takes no BLAS product and no numpy transcendental:
# scalar math calls, pocketfft, elementwise IEEE arithmetic and a
# left-to-right sum.  So its bytes must not move with OpenBLAS's core type,
# nor with numpy's SIMD dispatch.  The same child runs the GKP rounds, whose
# in-window outputs are their inputs' bytes, and the StateVec.norm test,
# whose scaled branch once moved by an ulp with the core type.
RECOVERY_CASES = sorted(name for name in CASES if name.startswith("recovery-sweep"))
_KERNEL_SETTINGS = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, _runs_haswell_kernels,
                         "no AVX2 and FMA here for OpenBLAS's Haswell kernels"),
    "numpy-avx2": ({"NPY_DISABLE_CPU_FEATURES": _AVX2_ONLY}, _dispatches_x86_v4,
                   "numpy does not dispatch X86_V4 here"),
}


# The largest fidelity error of each case against oracles.decode_spectral,
# in ulps of the oracle's value, as measured when its digest was recorded:
# a change that moves these digests may not raise it.
RECOVERY_FIDELITY_ULPS = {
    "recovery-sweep-d3": 1.0,
    "recovery-sweep-defaults": 1.0,
    "recovery-sweep-j200-d4-ancilla-0": 609.0,  # the double rounding of s, far from the peak
    "recovery-sweep-j2000-d4": 0.0,
    "recovery-sweep-j50-d3-300-csv": 1.5,
    "recovery-sweep-j50-d3-ancilla": 0.5,
}


@pytest.mark.parametrize("name", RECOVERY_CASES)
def test_recovery_sweep_fidelity_against_spectral_oracle(tmp_path, name):
    # every printed row recomputed from its printed measured_phi
    lines = _output(tmp_path, name).decode().splitlines()[1:]  # after the config line
    rows = [json.loads(line) for line in lines] if lines[0].startswith("{") else list(csv.DictReader(lines))
    assert rows
    worst = 0.0
    for row in rows:
        args = int(float(row["j"])), int(row["d"]), int(row["input_k"]), float(row["delta_phi"])
        want_k, want, _ = oracles.decode_spectral(*args, float(row["measured_phi"]))
        assert int(row["recovered_k"]) == want_k
        worst = max(worst, abs(float(row["fidelity"]) - want) / math.ulp(want))
    assert worst <= RECOVERY_FIDELITY_ULPS[name], (name, worst)


@pytest.mark.parametrize("setting", sorted(_KERNEL_SETTINGS))
def test_recovery_digests_hold_under_other_kernels(setting):
    env, available, reason = _KERNEL_SETTINGS[setting]
    if not available():
        pytest.skip(reason)
    assert len(RECOVERY_CASES) == 6
    assert _failed_in_child(env, RECOVERY_CASES, rounds=True) == []
