"""Codeword families built from spin coherent states.

Three constructions on the spin-j sphere:

* Antipodal: the two poles, {|j,j>, exp(2ij phi0)|j,-j>}; exactly
  orthogonal.
* EquatorialQudit(d): d coherent states equally spaced around the
  equator, with a phase convention making the clock rotation
  exp(-i(2pi/d) L3) a strict cyclic shift of the codewords.
* CyclicQubit(N): the two coset superpositions of 2N equatorial points,
  normalized by the binomial sum N^2/2^(2j) * sum_k C(2j, kN).

Codewords carry their coherent-point decomposition so downstream checks
can evaluate matrix elements in closed form instead of building dense
rotation matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .coherent import (
    SphPoint,
    _ln_overlap_magnitude,
    _mode_matrix,
    coherent_amplitudes,
    rotation_matrix_elements,
)
from .rotations import EulerAngles, _cmul, wigner_D_matrix
from .spin_core import HalfInt, Operator, StateVec, _finite, _integer, _require_dense, _spin

__all__ = [
    "CodeSpec",
    "Codewords",
    "LogicalSet",
    "antipodal",
    "equatorial_qudit",
    "cyclic_qubit",
    "build_codewords",
    "logical_operators",
    "antipodal_logical_x",
    "hermitian_check_ops",
    "cyclic_normalization",
    "cyclic_overlap_closed_form",
    "matrix_element_table",
]

_FAMILIES = ("Antipodal", "EquatorialQudit", "CyclicQubit")
# Complex entries per rotation_matrix_elements call in matrix_element_tables
# (output points x rotations x input points).
_TABLE_BLOCK = 8192


@dataclass(frozen=True)
class CodeSpec:
    """Parameters selecting one codeword family on the spin-j sphere.

    j is read as a spin label and phi0 as a finite real; d (EquatorialQudit)
    and n_cosets (CyclicQubit) are read as counts where the family needs
    them, so a fractional count raises TypeError here.
    """

    j: HalfInt
    family: str
    d: int | None = None
    n_cosets: int | None = None
    phase_convention: str = "Option1"
    phi0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", _spin(self.j))
        object.__setattr__(self, "phi0", _finite("phi0", self.phi0))
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.phase_convention not in ("Option1", "Option2"):
            raise ValueError(f"unknown phase convention {self.phase_convention!r}")
        if self.family == "EquatorialQudit":
            if self.d is None or _integer("d", self.d) < 2:
                raise ValueError("EquatorialQudit needs d >= 2")
            object.__setattr__(self, "d", int(self.d))
            if not self.j.is_integer:
                raise ValueError("EquatorialQudit requires integer j")
            if self.phase_convention == "Option2" and (self.j.twice // 2) % self.d:
                raise ValueError("Option2 requires d to divide j")
        if self.family == "CyclicQubit":
            if self.n_cosets is None or _integer("n_cosets", self.n_cosets) < 1:
                raise ValueError("CyclicQubit needs N >= 1")
            object.__setattr__(self, "n_cosets", int(self.n_cosets))

    @property
    def dimension(self) -> int:
        """Number of codewords."""
        if self.family == "EquatorialQudit":
            return self.d
        return 2


def antipodal(j, phi0: float = 0.0) -> CodeSpec:
    return CodeSpec(j, "Antipodal", phi0=phi0)


def equatorial_qudit(j, d: int, phase_convention: str = "Option1") -> CodeSpec:
    return CodeSpec(j, "EquatorialQudit", d=d, phase_convention=phase_convention)


def cyclic_qubit(j, n_cosets: int) -> CodeSpec:
    return CodeSpec(j, "CyclicQubit", n_cosets=n_cosets)


@dataclass(frozen=True, eq=False)
class Codewords:
    """Codewords as their coherent decomposition; basis and gram on first read.

    components[k] lists (point, coefficient) pairs such that the k-th
    codeword equals sum_i coefficient_i |Omega_i>.  basis adds the
    columns of one coherent_amplitudes table in component order, as a sum
    of coherent_state vectors would; it is the one dense read, so it
    raises ValueError when 2j + 1 exceeds MAX_DENSE_DIM.  gram[a, b] =
    <a|b> is matrix_element_table at R = 1, read-only like every cached
    table; antipodal off-diagonals are exact zeros.  A closed-form KL scan
    reads neither, so it runs at any j.
    """

    spec: CodeSpec
    components: list[list[tuple[SphPoint, complex]]] = field(repr=False)

    @cached_property
    def basis(self) -> list[StateVec]:
        j = self.spec.j
        owner, thetas, phis, coeffs = _point_arrays(self.components)
        # the one dense read: a points x (2j+1) amplitude table
        _require_dense(j, len(thetas), 16)
        # One product amps @ C would round differently from these running sums.
        amps = np.zeros((len(self.components), j.dim), dtype=complex)
        columns = coherent_amplitudes(j, thetas, phis).T
        for k, coeff, column in zip(owner.tolist(), coeffs.tolist(), columns):
            amps[k] = amps[k] + coeff * column
        return [StateVec(j, row) for row in amps]

    @cached_property
    def gram(self) -> np.ndarray:
        gram = matrix_element_table(self, EulerAngles(0.0, 0.0, 0.0))
        gram.setflags(write=False)
        return gram

    def to_json_dict(self) -> dict:
        return {
            **asdict(self.spec),
            "j": self.spec.j.value,
            "basis": [[[float(a.real), float(a.imag)] for a in vec.amps] for vec in self.basis],
        }


def _coset_filter(tj: int, n: int, big_theta: float, odd: int) -> complex:
    """sum_r cos^(2j)(x_r) exp(i pi 2j q_r / (2N)), x_r = Theta/2 + pi q_r/(2N).

    Here q_r = 2r + odd for r = 0..N-1.  By the roots-of-unity filter of
    the binomial row, 2^(2j) exp(ij Theta)/N times this sum equals
    sum_k (-1)^(k odd) exp(ik N Theta) C(2j, kN).  Every term is a
    product of magnitudes, not a difference, so large j neither
    overflows nor cancels: shifts by pi are reduced in integers, and
    each |cos(y)|^(2j) is the overlap law's kernel at 2y
    (coherent._ln_overlap_magnitude).
    """
    if n < 1:
        raise ValueError(f"n_cosets must be at least 1, got {n}")
    big_theta = _finite("big_theta", big_theta)
    q = 2 * np.arange(n) + odd
    f = q % (2 * n)
    f = np.where(f > n, f - 2 * n, f)  # q/(2N) = f/(2N) + (q - f)/(2N), f in (-N, N]
    y = 0.5 * big_theta + math.pi * f / (2 * n)
    turns = np.rint(y / math.pi)
    y = y - math.pi * turns
    # cos(x_r) = (-1)^shifts cos(y); fold that sign into the integer phase.
    shifts = (q - f) // (2 * n) + turns.astype(np.int64)
    phase = (tj * q + 2 * n * tj * shifts) % (4 * n)
    mag = np.array([math.exp(_ln_overlap_magnitude(2.0 * v, tj)) for v in y.tolist()])
    return complex(np.sum(mag * np.exp(1j * math.pi * phase / (2 * n))))


def cyclic_normalization(j, n_cosets: int) -> float:
    """The binomial normalization N^2/2^(2j) sum_k C(2j, kN).

    Evaluated as N sum_r cos^(2j)(pi r/N) exp(i pi 2j r/N), the
    roots-of-unity filter of the binomial row, so it stays finite at
    every j.  Its N terms are at most 1 each, so the result carries an
    absolute error of about N^2 2^-53, which is small against the value
    while N is well below 2j.  As N approaches 2j the value falls
    towards N^2/2^(2j) and that error swamps it, so a result not above
    N^2 2^-33 (relative error near 2^-20 or worse) raises ValueError
    naming j and n_cosets.
    """
    j = _spin(j)
    n = _integer("n_cosets", n_cosets)
    value = n * _coset_filter(j.twice, n, 0.0, 0).real
    if not value > n * n * 2.0**-33:
        raise ValueError(
            f"j = {j.value:g}, n_cosets = {n}: the normalization {value:.3g} is not above "
            f"N^2 2^-33, so the rounding of its N-term sum swamps it"
        )
    return value


def _point_arrays(components) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(owner, thetas, phis, coefficients) over every coherent point of a
    code, in component order; owner[i] is the codeword point i belongs to."""
    points = [(k, p.theta, p.phi, c) for k, comp in enumerate(components) for p, c in comp]
    return tuple(np.array(v) for v in zip(*points))


def build_codewords(spec: CodeSpec) -> Codewords:
    """The coherent decomposition of the family's codewords; basis and
    gram are built on first read (see Codewords).

    Nothing here is (2j+1)-wide, so every j is accepted; only reading
    basis is refused beyond MAX_DENSE_DIM.
    """
    j = spec.j
    components: list[list[tuple[SphPoint, complex]]] = []
    if spec.family == "Antipodal":
        components.append([(SphPoint.north(), 1.0 + 0.0j)])
        components.append([(SphPoint(math.pi, spec.phi0), 1.0 + 0.0j)])
    elif spec.family == "EquatorialQudit":
        d = spec.d
        jv = j.twice // 2
        for k in range(d):
            if spec.phase_convention == "Option1":
                phase = cmath.exp(-2j * math.pi * ((jv * k) % d) / d)
            else:
                phase = 1.0 + 0.0j
            components.append([(SphPoint(math.pi / 2.0, 2.0 * math.pi * k / d), phase)])
    else:
        n = spec.n_cosets
        coeff = complex(1.0 / math.sqrt(cyclic_normalization(j, n)))
        for r in range(2):
            components.append(
                [
                    (SphPoint(math.pi / 2.0, (2 * s + r) * math.pi / n), coeff)
                    for s in range(n)
                ]
            )
    return Codewords(spec, components)


def _clock_diagonal(j: HalfInt, d: int, power: int = 1) -> np.ndarray:
    """Diagonal of exp(-i (2pi/d) L3)^power via exact residue arithmetic.

    Computing exp(-2i pi (power * m mod d)/d) from the reduced residue
    makes the d-th power the exact identity matrix, not just to
    rounding.
    """
    ms = [(j.twice - 2 * i) // 2 for i in range(j.dim)]
    residues = [(power * m) % d for m in ms]
    return np.array([cmath.exp(-2j * math.pi * r / d) for r in residues])


@dataclass(frozen=True, eq=False)
class LogicalSet:
    """Clock-shift logical pair and the Z-type check for an equatorial qudit."""

    spec: CodeSpec
    xbar: Operator
    zbar: Operator
    zcheck: Operator

    def xbar_power(self, power: int) -> Operator:
        """Exact X-bar^power; power = d gives the exact identity."""
        return Operator._owning(self.spec.j, np.diag(_clock_diagonal(self.spec.j, self.spec.d, power)))


def logical_operators(spec: CodeSpec) -> LogicalSet:
    """X-bar = exp(-i(2pi/d) L3); Z-bar and the Z-check in closed form.

    Z-bar and the Z-check are the realized symbols exp(i phi) and
    exp(i d phi): each is one band, a - b = -1 and -d, written by
    coherent._mode_band, with exact zeros elsewhere, so
    Z-bar X-bar = exp(2pi i/d) X-bar Z-bar holds to rounding.
    """
    if spec.family != "EquatorialQudit":
        raise ValueError("logical_operators applies to EquatorialQudit specs")
    j, d = spec.j, spec.d
    zbar = Operator._owning(j, _mode_matrix(j, -1))
    zcheck = Operator._owning(j, _mode_matrix(j, -d))
    xbar = Operator._owning(j, np.diag(_clock_diagonal(j, d)))
    return LogicalSet(spec, xbar, zbar, zcheck)


def antipodal_logical_x(j, phi0: float = 0.0) -> Operator:
    """The pi-rotation about the equatorial axis at azimuth phi0.

    Swaps the antipodal codewords with the stated phases; its square is
    (-1)^(2j) times the identity.
    """
    j = _spin(j)
    return wigner_D_matrix(j, EulerAngles(phi0, math.pi, -phi0))


def hermitian_check_ops(j, d: int = 1) -> tuple[Operator, Operator]:
    """Realized cos(d phi) and sin(d phi) diagonal operators.

    Realizing a symbol is linear and takes conj(P) to the adjoint, so with
    Z the realization of exp(i d phi), the one band a - b = -d in closed
    form (coherent._mode_band), the two are (Z + Z^H)/2 and (Z - Z^H)/2i:
    one realization, and both exactly Hermitian.  They
    commute only approximately.  The commutator is diagonal with bulk
    entries that shrink as j grows, but the d levels clipped at each band
    edge leave a d-dependent constant there (pi/8 in the limit for d = 1),
    so the max entry never vanishes.  On coherent states the action of the
    commutator does go to zero.  A negative d gives cos(|d| phi) and
    -sin(|d| phi), as Z is then realized on the band |d|.
    """
    j = _spin(j)
    d = _integer("d", d)
    z = _mode_matrix(j, -d)
    z_h = z.conj().T
    cos = z + z_h
    cos /= 2.0
    z -= z_h
    z /= 2j
    return Operator._owning(j, cos), Operator._owning(j, z)


def cyclic_overlap_closed_form(j, n_cosets: int, big_theta: float) -> complex:
    """<0bar| exp(-i Theta L3) |1bar> for the cyclic qubit, in closed form.

    Equals exp(-ij Theta) sum_k (-1)^k exp(ik N Theta) C(2j, kN) divided
    by sum_k C(2j, kN); invariant under Theta -> Theta + 2pi/N up to the
    alternating sign pattern absorbed in the sum.  Both sums are taken
    through the roots-of-unity filter (_coset_filter), N terms each; the
    denominator is cyclic_normalization over N, so the ValueError it
    raises where N approaches 2j applies here too.
    """
    j = _spin(j)
    n = _integer("n_cosets", n_cosets)
    return _coset_filter(j.twice, n, big_theta, 1) / (cyclic_normalization(j, n) / n)


def matrix_element_tables(code: Codewords, angles) -> np.ndarray:
    """<a| X_R |b> over all codeword pairs for a batch of rotations.

    angles = (alphas, betas, gammas) holds equal-length arrays of Euler
    angles; the result has shape (rotations, codewords, codewords).
    Closed-form point elements come from one rotation_matrix_elements
    call per block of output points, broadcast as (output point,
    rotation, input point); a block holds as many output points as fit
    in _TABLE_BLOCK entries, and at least one, so temporaries stay
    O(max(_TABLE_BLOCK, rotations * points)).  Each output point o's row
    is then weighted by a (points x codewords) matrix, built per point
    from one _cmul row conj(c_o) c_i scattered to the column of the
    codeword owning point i, zeros elsewhere, and accumulated into o's
    codeword in point order, so every sum rounds as it would one point at
    a time.  _cmul keeps Python's complex-product bits: conj(c) c is
    exactly real, so the diagonal of a single-point codeword carries no
    phase rounding.

    Error bound.  Entry (a, b) is the sum over the P_a points o of
    codeword a and the P_b points i of codeword b of the terms
    conj(c_o) c_i <Omega_o|X_R|Omega_i>.  Each element has modulus at
    most 1, so the terms total at most S_ab = (sum_a |c|)(sum_b |c|),
    and the sum cancels to an entry far smaller than S_ab when codewords
    have more points than levels: on cyclic_qubit(8, 16), 16 points per
    codeword in 17 levels, S_ab is about 3.3e4 for entries of order 0.1.
    A term passes one complex product and at most P_a + P_b - 2 additions
    (the row product, then the accumulation; zero weights add exactly), so
    by the summation bound of Higham, Accuracy and Stability of Numerical
    Algorithms (2nd ed., ch. 4, with Lemma 3.5 for complex products)

        |computed - exact| <= (sqrt(2) gamma_(P_a + P_b + 3) + eta) S_ab,
        gamma_n = n u / (1 - n u),  u = 2^-53,

    where eta bounds the absolute error of one closed-form element: the
    base, a sum of products of unit-modulus factors, is good to about 16 u,
    and its 2j-th power scales that by 2j, so eta = 8 (2j + 1) u covers the
    measured errors (at most 5 (2j) u).  The bound is about 180 u S_ab, or
    7e-10, on cyclic_qubit(8, 16); the error a 40-digit evaluation finds
    there is about 1e-12, and it is 1e-15 on cyclic_qubit(8, 8).
    """
    j = code.spec.j
    size = len(code.components)
    owner, thetas, phis, coeffs = _point_arrays(code.components)
    count = len(owner)
    weights = np.zeros((count, size), dtype=complex)
    scatter = (np.arange(count), owner)  # point i's weight sits in its codeword's column
    angles = tuple(np.asarray(x, dtype=float).reshape(1, -1, 1) for x in angles)
    n_rot = angles[0].shape[1]
    tables = np.zeros((n_rot, size, size), dtype=complex)
    block = max(1, _TABLE_BLOCK // max(1, n_rot * count))
    for lo in range(0, count, block):
        sl = slice(lo, lo + block)
        out = (thetas[sl].reshape(-1, 1, 1), phis[sl].reshape(-1, 1, 1))
        rows = rotation_matrix_elements(j, out, angles, (thetas, phis))
        for o, row in enumerate(rows, start=lo):
            weights[scatter] = _cmul(coeffs[o].conjugate(), coeffs)
            tables[:, owner[o], :] += row @ weights
    return tables


def matrix_element_table(code: Codewords, r: EulerAngles) -> np.ndarray:
    """<a| X_R |b> over all codeword pairs, via closed-form elements."""
    return matrix_element_tables(code, ([r.alpha], [r.beta], [r.gamma]))[0]
