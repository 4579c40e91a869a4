"""Named contract checks for benchmark operations.

Each checker returns the names of the checks a result fails; an empty
list means the result meets every contract checked.  An operation counts
as failed when it raised or when any checker returns a name.  Decode
outcomes (a wrong codeword, a GKP shift on the tiling-window boundary)
are physics, not failures, and are tallied separately by the workloads.
"""

from __future__ import annotations

import re

import numpy as np

FIDELITY_MAX = 1.0 + 1e-12
UNITARITY_TOL = 1e-10
EIGH_TOL = 1e-10
ORACLE_REL = 1e-9
ORACLE_ABS = 1e-12
ROUTE_TOL = 1e-10
NORM_TOL = 1e-10
CLI_INVALID_CONFIG = 2
_NONFINITE_TOKEN = re.compile(rb"(?<![A-Za-z_])-?(nan|inf)(?![A-Za-z_])", re.IGNORECASE)


def finite(*values) -> list[str]:
    """'nonfinite' if any value (scalar or array) holds nan or inf."""
    for v in values:
        if not np.all(np.isfinite(np.asarray(v))):
            return ["nonfinite"]
    return []


def fidelity(*values: float) -> list[str]:
    """Fidelities must lie in [0, 1 + 1e-12]."""
    bad = finite(*values)
    if not bad and not all(0.0 <= v <= FIDELITY_MAX for v in values):
        bad.append("fidelity_range")
    return bad


def tail_mass(value: float) -> list[str]:
    """A tail probability mass must lie in [0, 1]."""
    bad = finite(value)
    if not bad and not 0.0 <= value <= 1.0:
        bad.append("tail_mass_range")
    return bad


def unitarity_defect(mat: np.ndarray) -> float:
    """max |M^H M - 1|, the defect of a rotation matrix."""
    mat = np.asarray(mat)
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))


def rotation(mat: np.ndarray, reference: np.ndarray | None = None) -> list[str]:
    """A rotation matrix is finite, unitary to 1e-10 and, when an
    independent eigh-route reference is given, agrees with it to 1e-10."""
    bad = finite(mat)
    if bad:
        return bad
    if unitarity_defect(mat) > UNITARITY_TOL:
        bad.append("d_unitarity")
    if reference is not None and float(np.max(np.abs(mat - reference))) > EIGH_TOL:
        bad.append("d_vs_eigh")
    return bad


def unit_columns(mat: np.ndarray) -> list[str]:
    """Every column is a normalized state."""
    bad = finite(mat)
    if not bad and float(np.max(np.abs(np.linalg.norm(mat, axis=0) - 1.0))) > NORM_TOL:
        bad.append("state_norm")
    return bad


def oracle(closed: tuple[float, ...], brute: tuple[float, ...]) -> list[str]:
    """The brute-force KL scan must match the closed form within
    max(1e-9 relative, 1e-12 absolute) on every reported discrepancy."""
    bad = finite(*brute)
    if bad:
        return bad
    for a, b in zip(closed, brute):
        if abs(a - b) > max(ORACLE_REL * max(abs(a), abs(b)), ORACLE_ABS):
            return ["kl_oracle"]
    return []


def routes(jacobi: np.ndarray, wigner: np.ndarray) -> list[str]:
    """The two monopole-harmonic routes agree to 1e-10."""
    bad = finite(wigner)
    if not bad and float(np.max(np.abs(np.asarray(jacobi) - np.asarray(wigner)))) > ROUTE_TOL:
        bad.append("monopole_routes")
    return bad


def strict_window(corrected: bool) -> list[str]:
    """A GKP shift inside the strict window must be corrected."""
    return [] if corrected else ["gkp_strict_window"]


def cli_output(rc: int, data: bytes, reference: bytes | None) -> list[str]:
    """CLI exit code 2 (invalid configuration), non-finite numbers in the
    output, or bytes differing from an earlier identical call."""
    bad = []
    if rc == CLI_INVALID_CONFIG:
        bad.append("cli_exit")
    if _NONFINITE_TOKEN.search(data):
        bad.append("nonfinite")
    if reference is not None and data != reference:
        bad.append("cli_bytes")
    return bad

