"""Knill-Laflamme checks for coherent-state codes under rotation errors.

Error families are one-parameter rotation sets closed under composition:
z-rotations (equatorial clock errors), rotations about a fixed
equatorial axis, and z-rotations conjugated by a fixed x-rotation.  The
relative error T = R^(-1) R' between two family members stays in the
family, so scanning pairs probes exactly the operators the recovery
argument needs.

Members and relative errors run on the one SU(2) chart of rotations
(su2_arrays, _su2_product, _euler_angles_arrays): sample_rotations builds
a family's members in one array pass, member(t) is its one-element case,
and the scan composes every pair product T in one more.  Matrix elements
between codewords are evaluated in closed form through the coherent
decomposition, for all sampled pairs in one array pass: each codeword
table is a sum of spinor contractions (xi_out^H U_T xi_in)^(2j).  The optional brute-force
path is independent of that closed form and of the Wigner-d kernel: it
diagonalizes L_y once per j (spin_core's store of tables), from its two bands
in real arithmetic through spin_core's tridiagonal eigensolver (L_y = V Lambda V^H
with V = D W, W real and D a diagonal of phases), and sandwiches the
codeword vectors with
X_T = exp(-i alpha L_z) V exp(-i beta Lambda) V^H exp(-i gamma L_z), for
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coherent import _ln_overlap_magnitude
from .lll_codes import Codewords, matrix_element_tables
from . import rotations as _rotations
from .rotations import EulerAngles, _euler_angles_arrays, _relative_angles, _su2_product, su2_arrays
from .spin_core import _axis_bands, _finite, _integer, _spin, _tridiagonal_basis, m_values

__all__ = [
    "ErrorSet",
    "KLReport",
    "PairRecord",
    "CorrectableAngle",
    "equatorial_z",
    "conjugated_y",
    "conjugated_z_about_x",
    "explicit_list",
    "sample_rotations",
    "kl_check",
    "correctable_angle",
    "diagonal_scan",
    "equatorial_offdiag_bound",
]

_KINDS = ("EquatorialZ", "ConjugatedY", "ConjugatedZaboutX", "ExplicitList")
_PAIR_CAP = 10_000
# Complex entries per brute-force temporary (pairs x dim x codewords).
_BRUTE_BLOCK = 1 << 18
# Relative score gap within which pairs tie for worst_pair.
_WORST_TIE = 1e-12


@dataclass(frozen=True)
class ErrorSet:
    """A parametrized family of unitary rotation errors.

    max_angle is the half-range of the family parameter: members are
    R(t) for t in [-max_angle, max_angle].  Sampling mixes a uniform
    grid with seeded uniform draws, so endpoints are always present.
    """

    kind: str
    max_angle: float = 0.0
    phi0: float = 0.0
    x_angle: float = 0.9
    samples: int = 32
    rotations: tuple[EulerAngles, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown error-set kind {self.kind!r}")
        for name in ("max_angle", "phi0", "x_angle"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.kind == "ExplicitList":
            if not self.rotations:
                raise ValueError("ExplicitList needs at least one rotation")
            # the class read from rotations: rebinding this module's name
            # does not change what an error set accepts
            for index, r in enumerate(self.rotations):
                if not isinstance(r, _rotations.EulerAngles):
                    raise TypeError(f"rotations[{index}] must be EulerAngles, got {type(r).__name__}")
        elif self.max_angle < 0.0:
            raise ValueError("max_angle must be nonnegative")
        if _integer("samples", self.samples) < 1:
            raise ValueError("samples must be positive")

    @property
    def closed_under_composition(self) -> bool:
        """Whether T = R^(-1) R' stays in the family (true for all
        one-parameter kinds; conjugation does not break closure)."""
        return self.kind != "ExplicitList"

    def member(self, t: float) -> EulerAngles:
        """The rotation at family parameter t."""
        return _members(self, np.array([t], dtype=float))[0]


def _members(errs: ErrorSet, ts: np.ndarray) -> list[EulerAngles]:
    """The rotations at the family parameters ts, in one array pass.

    ConjugatedZaboutX members are u_x u_z(t) u_x^(-1), with u_x the
    spin-1/2 rotation by x_angle about x, read back in the canonical chart.
    """
    if errs.kind == "EquatorialZ":
        return [EulerAngles(t, 0.0, 0.0) for t in ts.tolist()]
    if errs.kind == "ConjugatedY":
        return [EulerAngles(errs.phi0, t, -errs.phi0) for t in ts.tolist()]
    if errs.kind == "ConjugatedZaboutX":
        x_half = 0.5 * errs.x_angle
        a_x, b_x = np.complex128(math.cos(x_half)), np.complex128(-1j * math.sin(x_half))
        a, b = _su2_product(a_x, b_x, *su2_arrays(ts, 0.0, 0.0))
        angles = _euler_angles_arrays(*_su2_product(a, b, a_x.conj(), -b_x))
        return [EulerAngles(*r) for r in zip(*(x.tolist() for x in angles))]
    raise ValueError("ExplicitList has no parametric members")


def equatorial_z(theta_max: float, samples: int = 32) -> ErrorSet:
    return ErrorSet("EquatorialZ", max_angle=theta_max, samples=samples)


def conjugated_y(phi0: float, theta_max: float, samples: int = 32) -> ErrorSet:
    return ErrorSet("ConjugatedY", max_angle=theta_max, phi0=phi0, samples=samples)


def conjugated_z_about_x(alpha_max: float, x_angle: float = 0.9, samples: int = 32) -> ErrorSet:
    return ErrorSet("ConjugatedZaboutX", max_angle=alpha_max, x_angle=x_angle, samples=samples)


def explicit_list(rotations) -> ErrorSet:
    rotations = tuple(rotations)
    return ErrorSet("ExplicitList", samples=len(rotations), rotations=rotations)


def sample_rotations(errs: ErrorSet, seed: int) -> list[EulerAngles]:
    """Deterministic sample of the error set: grid half, seeded half."""
    if errs.kind == "ExplicitList":
        return list(errs.rotations)
    n_grid = max(2, errs.samples // 2) if errs.samples >= 2 else 1
    n_grid = min(n_grid, errs.samples)
    ts = np.linspace(-errs.max_angle, errs.max_angle, n_grid)
    if errs.samples > n_grid:
        rng = np.random.default_rng(seed)
        ts = np.concatenate([ts, rng.uniform(-errs.max_angle, errs.max_angle, errs.samples - n_grid)])
    return _members(errs, ts)


@dataclass(frozen=True)
class PairRecord:
    """One evaluated relative error T = R1^(-1) R2."""

    r1: EulerAngles
    r2: EulerAngles
    t: EulerAngles
    delta: float
    eps: float


@dataclass(frozen=True)
class KLReport:
    """Worst-case Knill-Laflamme discrepancies over the sampled pairs.

    delta_star is the largest spread among diagonal entries <k|X_T|k>
    (global-phase invariant); eps_star the largest off-diagonal
    magnitude; worst_pair is the first pair in scan order whose
    max(delta, eps) is within a relative 1e-12 of the largest; equality
    and hashing use these three.  pairs is built on its first read from
    the scan arrays kl_check keeps in _scan.
    """

    delta_star: float
    eps_star: float
    worst_pair: tuple[EulerAngles, EulerAngles]
    _scan: tuple = field(default=((),), repr=False, compare=False)  # no rotations: no pairs

    def __post_init__(self):
        if self.delta_star < 0.0 or self.eps_star < 0.0:
            raise ValueError("discrepancies must be nonnegative")

    @cached_property
    def pairs(self) -> list[PairRecord]:
        """One PairRecord per scanned pair, in scan order."""
        rotations, *columns = self._scan
        return [
            PairRecord(rotations[i], rotations[k], EulerAngles(a, b, g), d, e)
            for i, k, a, b, g, d, e in zip(*(x.tolist() for x in columns))
        ]

    def _pair_columns(self) -> tuple[np.ndarray, ...]:
        """(t.alpha, t.beta, t.gamma, delta, eps) of a kl_check report's
        pairs as float arrays, in scan order, without building the records."""
        return self._scan[3:]


def _pair_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right sample indices of the scanned pairs, in scan order."""
    if n * n <= _PAIR_CAP:
        return np.divmod(np.arange(n * n), n)
    # Stratified cap: every left index keeps an equal quota of partners.
    quota = max(1, _PAIR_CAP // n)
    rng = np.random.default_rng(seed + 1)
    right = np.concatenate([rng.choice(n, size=quota, replace=False) for _ in range(n)])
    return np.repeat(np.arange(n), quota), right


def _dense_tables(code: Codewords, alpha, beta, gamma) -> np.ndarray:
    """<a| X_T |b> from the eigendecomposition L_y = V Lambda V^H.

    X_T = D_z(alpha) V exp(-i beta Lambda) V^H D_z(gamma) with
    D_z(t) = exp(-i t L_z) diagonal, applied to the codeword vectors in
    blocks of pairs so temporaries stay bounded.  V = D W comes from
    spin_core._tridiagonal_basis, fed L_y's two bands (_axis_bands) with no
    dense L_y, so it is taken once per j; D is the diagonal of phases.
    """
    j = code.spec.j
    m = m_values(j)
    # basis first: its guard refuses a j whose dense eigenbasis would not fit
    words = np.array([vec.amps for vec in code.basis]).T  # (dim, codewords)
    lam, vecs, phase = _tridiagonal_basis(*_axis_bands(j, (0.0, 1.0, 0.0)))
    vecs_h = (phase.conj()[:, None] * vecs).T
    size = words.shape[1]
    tables = np.empty((len(alpha), size, size), dtype=complex)
    block = max(1, _BRUTE_BLOCK // (j.dim * size))
    for lo in range(0, len(alpha), block):
        sl = slice(lo, lo + block)
        bras = vecs_h @ (np.exp(1j * np.outer(alpha[sl], m))[:, :, None] * words)
        kets = vecs_h @ (np.exp(-1j * np.outer(gamma[sl], m))[:, :, None] * words)
        kets *= np.exp(-1j * np.outer(beta[sl], lam))[:, :, None]
        tables[sl] = bras.conj().transpose(0, 2, 1) @ kets
    return tables


def _scan_tables(code: Codewords, errs: ErrorSet, seed: int, brute_force: bool):
    """Sampled rotations, pair indices, canonical T angles and codeword tables.

    Every pair T = R_left^(-1) R_right is evaluated in one array pass;
    tables has shape (pairs, codewords, codewords).
    """
    rotations = sample_rotations(errs, seed)
    left, right = _pair_indices(len(rotations), seed)
    alpha, beta, gamma = _relative_angles(rotations, left, right)
    if brute_force:
        tables = _dense_tables(code, alpha, beta, gamma)
    else:
        tables = matrix_element_tables(code, (alpha, beta, gamma))
    return rotations, left, right, (alpha, beta, gamma), tables


def kl_check(code: Codewords, errs: ErrorSet, seed: int, brute_force: bool = False) -> KLReport:
    """Evaluate the approximate Knill-Laflamme conditions over T = R^(-1) R'.

    Closed-form matrix elements by default; brute_force=True sandwiches
    codewords with X_T built from one eigendecomposition of L_y, as an
    independent check.
    """
    if len(code.components) < 2:
        raise ValueError("need at least two codewords")
    rotations, left, right, t_angles, tables = _scan_tables(code, errs, seed, brute_force)
    diag = np.diagonal(tables, axis1=1, axis2=2)
    delta = np.max(np.abs(diag[:, :, None] - diag[:, None, :]), axis=(1, 2))
    off = np.abs(tables)
    size = off.shape[1]
    off[:, np.arange(size), np.arange(size)] = 0.0
    eps = np.max(off, axis=(1, 2))
    # Mirror pairs (i, k) and (k, i) score equally in exact arithmetic, so
    # the first pair within a relative 1e-12 of the maximum is reported
    # rather than whichever member last-bit rounding favours.
    score = np.maximum(delta, eps)
    worst = int(np.argmax(score >= (1.0 - _WORST_TIE) * score.max()))
    worst_pair = (rotations[left[worst]], rotations[right[worst]])
    scan = (rotations, left, right, *t_angles, delta, eps)
    return KLReport(float(delta.max()), float(eps.max()), worst_pair, scan)


def diagonal_scan(code: Codewords, errs: ErrorSet, seed: int) -> list[tuple[EulerAngles, np.ndarray]]:
    """Diagonal codeword amplitudes <k|X_T|k> over the sampled pairs."""
    _, _, _, t_angles, tables = _scan_tables(code, errs, seed, brute_force=False)
    diag = np.diagonal(tables, axis1=1, axis2=2).copy()
    angles = zip(*(x.tolist() for x in t_angles))
    return [(EulerAngles(a, b, g), row) for (a, b, g), row in zip(angles, diag)]


@dataclass(frozen=True)
class CorrectableAngle:
    """T-rotation budget for eps-approximate correction.

    t_budget bounds the relative rotation T = R^(-1) R'; a single
    correctable rotation gets half of it.  no_budget marks parameter
    choices whose bound is empty.
    """

    t_budget: float
    single_rotation_budget: float
    no_budget: bool


def correctable_angle(j, d: int, eps: float) -> CorrectableAngle:
    """|Theta| < 2pi/d - arccos(2 eps^(1/j) - 1), the qudit budget.

    At d = 2 this reproduces the antipodal bound arccos(1 - 2 eps^(1/j))
    exactly (arccos(-x) = pi - arccos(x)).
    """
    j = _spin(j)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if _integer("d", d) < 2:
        raise ValueError("d must be at least 2")
    if j.twice == 0:
        raise ValueError("j must be positive: spin 0 has no correctable angle")
    arg = 2.0 * eps ** (1.0 / j.value) - 1.0
    arg = max(-1.0, min(1.0, arg))
    budget = 2.0 * math.pi / d - math.acos(arg)
    if budget <= 0.0:
        return CorrectableAngle(0.0, 0.0, True)
    return CorrectableAngle(budget, budget / 2.0, False)


def equatorial_offdiag_bound(j, d: int, t_max: float) -> float:
    """((1 + cos(2pi/d - t_max))/2)^j = |cos(pi/d - t_max/2)|^(2j): the
    nearest-neighbor overlap bound for relative rotations up to t_max.

    The overlap law's kernel (coherent._ln_overlap_magnitude) at
    2pi/d - t_max, exponentiated: exact 1 at spin 0, 0.0 where it
    underflows, and full relative accuracy where 1 + cos would cancel.
    """
    j = _spin(j)
    if _integer("d", d) < 2:
        raise ValueError("d must be at least 2")
    t_max = _finite("t_max", t_max)
    return math.exp(_ln_overlap_magnitude(2.0 * math.pi / d - t_max, j.twice))
