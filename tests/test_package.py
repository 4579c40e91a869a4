"""Package-level properties: the runtime needs numpy and nothing heavier."""

import copy
import dataclasses
import subprocess
import sys

import pytest

import spinqec


def test_import_loads_no_scipy():
    code = (
        "import sys, spinqec\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_gkp_table_loads_no_fft(tmp_path):
    # a GKP round reads its syndromes from the shift, not from a transform
    code = (
        "import sys\n"
        "from spinqec.cli import main\n"
        f"assert main(['gkp-table', '--K', '2', '--r1', '21', '--r2', '21', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "print('numpy.fft' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# Public dataclasses that hold arrays: the two value types compare their
# arrays and are unhashable; the result bundles compare by identity.
UNHASHABLE = {"StateVec", "Operator"}
BY_IDENTITY = {
    "SphereQuadrature",
    "DiagonalOp",
    "Codewords",
    "LogicalSet",
    "GkpCode",
    "SyndromeOutcome",
}


def _public_dataclass_instances():
    """One instance of every public dataclass, by class name."""
    j = spinqec.HalfInt(4)
    code = spinqec.build_codewords(spinqec.equatorial_qudit(j, 2))
    errs = spinqec.equatorial_z(0.1, 4)
    landau = spinqec.build_full_landau_code(2, 1, l_max=3)
    gkp_params = spinqec.GkpParams(2, 3, 3)
    gkp = spinqec.build_gkp_code(gkp_params)
    report = spinqec.kl_check(code, errs, seed=0)
    rot = spinqec.EulerAngles(0.1, 0.2, 0.3)
    return {
        "HalfInt": j,
        "StateVec": spinqec.coherent_state(j, spinqec.SphPoint(0.3, 0.4)),
        "Operator": spinqec.l3_operator(j),
        "EulerAngles": rot,
        "Su2": spinqec.su2_from_euler(rot),
        "SphPoint": spinqec.SphPoint(0.3, 0.4),
        "SphereQuadrature": spinqec.sphere_quadrature(j),
        "DiagonalOp": spinqec.momentum_kick(j, spinqec.HalfInt(2)),
        "CodeSpec": code.spec,
        "Codewords": code,
        "LogicalSet": spinqec.logical_operators(spinqec.equatorial_qudit(j, 2)),
        "ErrorSet": errs,
        "KLReport": report,
        "PairRecord": report.pairs[0],
        "CorrectableAngle": spinqec.correctable_angle(j, 2, 0.01),
        "SyndromeRun": spinqec.recover(j, 2, 0, 0.05, 1),
        "TailEstimate": spinqec.tail_failure(j, 0.3),
        "AncillaReport": spinqec.finite_ancilla_note(j, 8, runs=3),
        "MonopoleHarmonic": spinqec.monopole_Y(1, 2, 1),
        "FullLandauCode": landau,
        "LandauEntry": landau.entries[0],
        "MomentumShiftVerdict": spinqec.momentum_shift_analysis(landau, 2, 1),
        "GkpParams": gkp_params,
        "PauliWord": gkp.xbar,
        "GkpCode": gkp,
        "SyndromeOutcome": spinqec.syndrome_and_recover(gkp_params, 1, 0, gkp.codewords[0]),
    }


def test_public_dataclasses_compare_and_hash_by_design():
    instances = _public_dataclass_instances()
    dataclass_names = {
        name
        for name, obj in vars(spinqec).items()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert dataclass_names == set(instances)
    for name, x in instances.items():
        assert type(x).__name__ == name
        same = x == copy.deepcopy(x)
        assert isinstance(same, bool), name
        if name in BY_IDENTITY:
            assert same is False and x == x, name
        else:
            assert same, name
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
        else:
            hash(x)
    vec = instances["StateVec"]
    assert vec != spinqec.StateVec(vec.j, vec.amps * 1j)
    assert vec != spinqec.StateVec(spinqec.HalfInt(2), [1.0, 0.0, 0.0])
    assert vec != vec.amps.tolist()
