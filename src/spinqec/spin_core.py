"""Exact half-integer labels and the dense spin-j operator algebra.

Every (2j+1)-dimensional array in this package uses the descending magnetic
number convention: index 0 holds m = j, index 2j holds m = -j.  Spin and
magnetic labels are stored exactly as the integer 2x value, so integer and
half-integer cases never rely on float equality.

The package's input readers live here: _integer, for every count (a
float or a bool raises TypeError, never truncated); _real, for every real
number a caller passes (a str, bytes or bool raises TypeError, "NAME must
be a real number, got 'TEXT'", where float() would parse it or read 0 or
1); and _finite, for every real input that must be finite (NaN or infinity
raises ValueError, "NAME must be finite, got VALUE").  _real_array and
_finite_array read arrays through them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HalfInt",
    "StateVec",
    "Operator",
    "m_values",
    "m_index",
    "l3_operator",
    "ladder_operators",
    "axis_operator",
    "matexp_antihermitian",
    "MAX_DENSE_DIM",
]

MAX_DENSE_DIM = 8192
"""Largest dimension 2j + 1 for which the package builds a dense table
(2j+1)-wide in m: Wigner d and D matrices, realized diagonal operators,
codeword tables.  At this size a dense complex (2j+1)^2 operator takes
1 GiB; above it those builders raise ValueError before allocating.  The
colatitude rule of degree D (theta_rule, sphere_quadrature) is refused
in the same way when its real Jacobi block of (D + 4) // 2 rows would be
wider than MAX_DENSE_DIM, from D = 16382 on.

Peak bytes per (2j+1)^2 entry, by tracemalloc at 2j = 400 and held there
by the tests: momentum_kick 20, one dense operator, which the package's
builders hand to Operator without a copy; logical_operators 52 (three
dense operators); hermitian_check_ops 52, measured 48.8 (two, and the one
conjugate Z^H while the first is formed); matexp_antihermitian on a
tridiagonal generator 44 cold and 36 with its basis cached (the kept basis
holds 8); coherent_amplitudes 32 per (2j+1) x nodes entry; theta_rule 12
per (D + 3)^2 at D = 400, measured 7.5 to 8.6 (the half-size block and its
eigenvectors)."""

# A plain sum of squares in [_SQ_MIN, _SQ_MAX] is used as it stands: at
# 2^-969, the smallest normal double times 2^53, squares that fall into the
# subnormal range cost it less than an ulp, and at half the largest double
# no partial sum can overflow.  Outside it (or NaN) amplitudes are first
# divided by their largest magnitude, as LAPACK's dnrm2 scales.
_SQ_MIN = 2.0**-969
_SQ_MAX = 2.0**1023


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer stored exactly as twice its value.

    Spin labels j are nonnegative; magnetic labels m may be negative.
    Functions that take a spin label validate nonnegativity themselves.
    """

    twice: int

    def __post_init__(self):
        if isinstance(self.twice, (bool, float)) or not isinstance(
            self.twice, (int, np.integer)
        ):
            raise TypeError(f"twice must be an integer, got {self.twice!r}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, an exact multiple of 1/2, or a HalfInt.

        Any other value is read by _real, so a string or a bool raises
        TypeError rather than being parsed or read as 0 or 1; a non-finite
        value or one off the half-integers raises ValueError.
        """
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return HalfInt(2 * int(value))
        doubled = 2.0 * _real("value", value)
        if not math.isfinite(doubled):
            raise ValueError(f"value must be a finite half-integer, got {value!r}")
        rounded = round(doubled)
        if abs(doubled - rounded) > 1e-9:
            raise ValueError(f"{value!r} is not a half-integer")
        return HalfInt(int(rounded))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j space (spin labels only)."""
        if self.twice < 0:
            raise ValueError("dimension is defined for nonnegative labels only")
        return self.twice + 1

    def __float__(self) -> float:
        return self.twice / 2.0

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return f"HalfInt({self.twice // 2})"
        return f"HalfInt({self.twice}/2)"


def _integer(name: str, v) -> int:
    """v as a Python int; a bool, a float or any other non-integer raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(name: str, value) -> float:
    """value as a float, NaN and infinity included.

    float() parses strings and reads a bool as 0 or 1, so a str, bytes,
    bool or numpy.bool_ raises TypeError here instead, as _integer refuses
    a bool for a count; anything else float() refuses raises its own
    TypeError.  A float is returned unchanged.
    """
    if type(value) is float:
        return value
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _finite(name: str, value) -> float:
    """value as a float, read by _real; NaN or infinity raises ValueError."""
    value = value if type(value) is float else _real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _real_array(name: str, values) -> np.ndarray:
    """values as a float array.  An array that is not integer or float
    (strings, bools, objects, complex) is read entry by entry by _real, so
    a string or bool entry raises its TypeError where numpy would parse it
    or read it as 0 or 1.  Any other input (a list, a tuple, a scalar) is
    first held as Python objects, since numpy would read [0.2, True] as the
    floats [0.2, 1.0]; an array or numpy scalar takes the dtype test alone."""
    if not isinstance(values, (np.ndarray, np.generic)):
        values = np.asarray(values, dtype=object)
    if values.dtype.kind not in "iuf":
        values = np.reshape([_real(name, v) for v in values.ravel().tolist()], values.shape)
    return np.asarray(values, dtype=float)


def _finite_array(name: str, values) -> np.ndarray:
    """values as a float array, read by _real_array; _finite raises at the
    first NaN or infinite entry."""
    values = _real_array(name, values)
    bad = values[~np.isfinite(values)]
    if bad.size:
        _finite(name, bad[0])
    return values


def _spin(j) -> HalfInt:
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError(f"spin label must be nonnegative, got {j.value}")
    return j


def _require_dense(j: HalfInt, rows: int, itemsize: int) -> None:
    """Raise ValueError, naming j and the bytes needed, if a dense
    rows x (2j+1) table of itemsize-byte entries is beyond MAX_DENSE_DIM."""
    if j.dim > MAX_DENSE_DIM:  # the label is formatted only to raise
        _require_width(f"j = {j.value:g}: 2j + 1", j.dim, rows, itemsize)


def _require_width(label: str, width: int, rows: int, itemsize: int) -> None:
    """Raise ValueError, naming the width by label and the bytes needed, if
    a dense rows x width table of itemsize-byte entries is beyond MAX_DENSE_DIM."""
    if width > MAX_DENSE_DIM:
        raise ValueError(
            f"{label} = {width} exceeds MAX_DENSE_DIM = {MAX_DENSE_DIM}; "
            f"the dense {rows} x {width} table would need {rows * width * itemsize:,} bytes"
        )


def m_values(j) -> np.ndarray:
    """Magnetic numbers j, j-1, ..., -j as floats, in storage order."""
    j = _spin(j)
    return (j.twice - 2 * np.arange(j.dim)) / 2.0


def m_index(j, m) -> int:
    """Storage index of magnetic number m in the spin-j basis."""
    j = _spin(j)
    m = HalfInt.of(m)
    if (j.twice - m.twice) % 2 != 0 or abs(m.twice) > j.twice:
        raise ValueError(f"m = {m.value} is not a level of spin {j.value}")
    return (j.twice - m.twice) // 2


def _unit_scaled(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """(amps / s, s) with s = max|amps|, for a sum of squares out of range.

    A zero, infinite or NaN s is the norm itself (0, inf or NaN); amps is
    then returned undivided.
    """
    scale = float(np.abs(amps).max())
    return (amps / scale if 0.0 < scale < math.inf else amps), scale


def _owned(cls, j: HalfInt, name: str, arr: np.ndarray, shape: tuple[int, ...]):
    """A cls with spin label j and array field name set to arr, not copied.

    The package's own builders hand over arrays they have just made, which
    the public constructors would copy once more.  arr must own its data,
    be complex with the given shape for a validated spin label j, and have
    no other writer; it is marked read-only, as the public constructors'
    copies are.
    """
    if arr.dtype != np.complex128 or arr.shape != shape or arr.base is not None:
        raise ValueError(f"expected a fresh complex array of shape {shape}")
    arr.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, "j", j)
    object.__setattr__(obj, name, arr)
    return obj


@dataclass(frozen=True, eq=False)
class StateVec:
    """A vector in the spin-j space, basis descending in m.

    Equal when the spin labels and every amplitude are equal; unhashable,
    as the amplitudes are an array.
    """

    j: HalfInt
    amps: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, StateVec):
            return NotImplemented
        return self.j == other.j and np.array_equal(self.amps, other.amps)

    __hash__ = None

    def __post_init__(self):
        j = _spin(self.j)
        object.__setattr__(self, "j", j)
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (j.dim,):
            raise ValueError(f"expected shape ({j.dim},), got {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _owning(cls, j: HalfInt, amps: np.ndarray) -> "StateVec":
        """Wrap a fresh complex array of shape (2j+1,) without copying it (_owned)."""
        return _owned(cls, j, "amps", amps, (j.dim,))

    @staticmethod
    def basis_state(j, m) -> "StateVec":
        j = _spin(j)
        amps = np.zeros(j.dim, dtype=complex)
        amps[m_index(j, m)] = 1.0
        return StateVec(j, amps)

    @property
    def norm(self) -> float:
        """The 2-norm, without overflow or underflow in its sum of squares.

        np.vdot's sum of squares, which overflows to inf or NaN without a
        warning, decides the range: inside it the result is np.linalg.norm's;
        outside it the sum is taken over amps / max|amps|.
        """
        amps = self.amps
        if _SQ_MIN <= np.vdot(amps, amps).real <= _SQ_MAX:
            return float(np.linalg.norm(amps))
        unit, scale = _unit_scaled(amps)
        if not 0.0 < scale < math.inf:
            return scale
        return scale * math.sqrt(np.vdot(unit, unit).real)

    def normalized(self) -> "StateVec":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVec(self.j, self.amps / n)

    def inner(self, other: "StateVec") -> complex:
        """<self|other> with the bra conjugated."""
        if self.j != other.j:
            raise ValueError("mismatched spin labels")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "StateVec") -> float:
        return abs(self.inner(other)) ** 2


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator on the spin-j space.

    Equal when the spin labels and every entry are equal; unhashable, as
    the entries are an array.
    """

    j: HalfInt
    mat: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.j == other.j and np.array_equal(self.mat, other.mat)

    __hash__ = None

    def __post_init__(self):
        j = _spin(self.j)
        object.__setattr__(self, "j", j)
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (j.dim, j.dim):
            raise ValueError(f"expected shape ({j.dim}, {j.dim}), got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _owning(cls, j: HalfInt, mat: np.ndarray) -> "Operator":
        """Wrap a fresh complex (2j+1) x (2j+1) array without copying it (_owned)."""
        return _owned(cls, j, "mat", mat, (j.dim, j.dim))

    @staticmethod
    def identity(j) -> "Operator":
        j = _spin(j)
        _require_dense(j, j.dim, 16)
        return Operator._owning(j, np.eye(j.dim, dtype=complex))

    def dagger(self) -> "Operator":
        return Operator(self.j, self.mat.conj().T)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if self.j != other.j:
                raise ValueError("mismatched spin labels")
            return Operator._owning(self.j, self.mat @ other.mat)
        if isinstance(other, StateVec):
            return self.apply(other)
        return NotImplemented

    def apply(self, vec: StateVec) -> StateVec:
        if self.j != vec.j:
            raise ValueError("mismatched spin labels")
        return StateVec(self.j, self.mat @ vec.amps)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
            return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def is_unitary(self, tol: float = 1e-10) -> bool:
        probe = self.mat.conj().T @ self.mat - np.eye(self.j.dim)
        return bool(np.max(np.abs(probe)) <= tol)

    def max_diff(self, other: "Operator") -> float:
        if self.j != other.j:
            raise ValueError("mismatched spin labels")
        return float(np.max(np.abs(self.mat - other.mat)))

    def sandwich(self, bra: StateVec, ket: StateVec) -> complex:
        """<bra| self |ket> with the bra conjugated."""
        if not (self.j == bra.j == ket.j):
            raise ValueError("mismatched spin labels")
        return complex(np.vdot(bra.amps, self.mat @ ket.amps))


def l3_operator(j) -> Operator:
    """L3 = diag(j, j-1, ..., -j)."""
    j = _spin(j)
    _require_dense(j, j.dim, 16)
    return Operator._owning(j, np.diag(m_values(j).astype(complex)))


def _axis_bands(j: HalfInt, n) -> tuple[np.ndarray, np.ndarray]:
    """(n_z m, 1/2 sqrt((k+1)(2j-k)) (n_x + i n_y)): the diagonal and the
    sub-diagonal of L . n in the descending basis, entry k of the latter
    coupling rows k and k+1 (m = j-k and j-k-1).

    The one writer of a spin generator's entries: axis_operator,
    ladder_operators, the Wigner-d sweep (rotations._d_columns), the L_y
    oracle (qec_check._dense_tables) and coherent.disentangle_check read
    their bands from it.  The upper band of the Hermitian L . n is the
    conjugate of the lower.  j must be a validated spin label; n is read
    as given, unchecked.
    """
    k = np.arange(j.twice, dtype=float)
    return n[2] * m_values(j), 0.5 * np.sqrt((k + 1.0) * (j.twice - k)) * complex(n[0], n[1])


def ladder_operators(j) -> tuple[Operator, Operator]:
    """(L+, L-) with L+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>.

    In descending storage order L+ is superdiagonal and L- subdiagonal;
    either band is twice L_x's (_axis_bands).
    """
    j = _spin(j)
    _require_dense(j, j.dim, 16)
    lp = np.diag(2.0 * _axis_bands(j, (1.0, 0.0, 0.0))[1], k=1)
    return Operator._owning(j, lp), Operator(j, lp.conj().T)


def axis_operator(j, n) -> Operator:
    """L . n for a unit 3-vector n = (nx, ny, nz).

    Written straight onto its three diagonals from _axis_bands: n_z m on
    the diagonal, sqrt(j(j+1) - m(m+1)) (n_x + i n_y) / 2 below it and the
    conjugate above it, the same entries as n_x L_x + n_y L_y + n_z L_z
    summed from the ladder operators (a zero imaginary part above the
    diagonal may carry either sign).  Raises ValueError unless n is a unit
    vector to 1e-12 (NaN included).
    """
    j = _spin(j)
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    length = float(np.linalg.norm(n))
    if not abs(length - 1.0) <= 1e-12:
        raise ValueError(f"axis must be a unit vector, |n| = {length}")
    _require_dense(j, j.dim, 16)
    diag, sub = _axis_bands(j, n)
    mat = np.zeros((j.dim, j.dim), dtype=complex)
    flat = mat.reshape(-1)
    flat[:: j.dim + 1] = diag
    flat[1 :: j.dim + 1] = sub.conj()
    flat[j.dim :: j.dim + 1] = sub
    return Operator._owning(j, mat)


def _tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Lambda, V, phi) with A = (D V) Lambda (D V)^H and D = diag(phi), for
    the Hermitian tridiagonal A of real diagonal diag and A[k+1, k] = off[k].

    The phases phi_0 = 1, phi_(k+1) = phi_k off_k / |off_k| (phi_k where
    off_k = 0) make T = D^H A D real symmetric, with diagonal diag and
    off-diagonals |off_k|, so np.linalg.eigh diagonalizes T = V Lambda V^T
    in real arithmetic, about half the work of the complex A.  Real
    positive off-diagonals give phi = 1 and T with exactly A's entries.
    """
    mag = np.abs(off)
    steps = np.divide(off, mag, out=np.ones_like(off), where=mag > 0.0)
    phase = np.cumprod(np.concatenate(([1.0], steps)))
    # the running product drifts from |phi_k| = 1 by up to k ulp (1e-13 at
    # 2j = 400); its angle errors only perturb each off_k by an ulp
    phase /= np.abs(phase)
    dim = len(diag)
    sym = np.zeros((dim, dim))
    sym.flat[:: dim + 1] = diag
    sym.flat[1 :: dim + 1] = mag
    sym.flat[dim :: dim + 1] = mag
    lam, vecs = np.linalg.eigh(sym)
    return lam, vecs, phase


# _tridiagonal_basis keeps the most recent bases while their arrays total at
# most this many bytes (64 MiB: about 2900 levels of a real basis).
_BASIS_BUDGET = 1 << 26
_bases: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_bases_lock = threading.Lock()  # held for each read or update of _bases, not for a solve


def _basis_bytes(basis) -> int:
    return sum(arr.nbytes for arr in basis)


def _tridiagonal_basis(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_tridiagonal_eigh(diag, off) as read-only arrays, from a cache keyed
    on the bytes of the two bands.

    The one reader of the eigensolver for spin generators: the tridiagonal
    route of matexp_antihermitian and the L_y oracle (qec_check._dense_tables)
    diagonalize each generator once, and a repeat returns the same arrays,
    so its results keep their bits.  The most recent bases are kept while
    their arrays total at most _BASIS_BUDGET = 64 MiB, the oldest dropped
    first; a basis larger than that (2j + 1 above about 2900) is returned
    without being kept.  diag is real and off complex, as _axis_bands and
    an Operator's diagonals give them.
    """
    key = (diag.tobytes(), off.tobytes())
    with _bases_lock:
        basis = _bases.pop(key, None)
    if basis is None:
        basis = _tridiagonal_eigh(diag, off)
        for arr in basis:
            arr.setflags(write=False)
    if _basis_bytes(basis) <= _BASIS_BUDGET:
        with _bases_lock:
            _bases[key] = basis  # most recent last
            while sum(map(_basis_bytes, _bases.values())) > _BASIS_BUDGET:
                del _bases[next(iter(_bases))]
    return basis


def matexp_antihermitian(a: Operator, t: float) -> Operator:
    """exp(-i t A) for Hermitian A, by eigendecomposition.

    Rejects non-Hermitian input (to 1e-10) rather than silently
    symmetrizing, and a non-finite t.  Where every nonzero entry of A lies
    on its three middle diagonals, as for every axis_operator, A is checked
    on those bands alone: the largest |A - A^H| is then the largest of
    |d - conj(d)| on the diagonal and |sub - conj(sup)| off it, the same
    values Operator.is_hermitian reduces over, and NaN fails either check.
    Like np.linalg.eigh, it reads A's diagonal and lower triangle.  Where
    that lower triangle is exactly zero below the sub-diagonal, A is
    Hermitian tridiagonal: _tridiagonal_basis diagonalizes it in real
    arithmetic, once per generator, and the result is
    D (V cos(t Lambda) V^T - i V sin(t Lambda) V^T) D^H, two real matrix
    products.  Any other Hermitian A takes the complex eigh route.  At
    2j = 400 both are unitary to 1e-14 and agree to 1e-13 for |t| <= 1;
    beyond that to |t| j 2^-52, the rounding either route leaves in its
    eigenphases.
    """
    t = _finite("t", t)
    mat = a.mat
    diag, sub, sup = np.diagonal(mat), np.diagonal(mat, -1), np.diagonal(mat, 1)
    banded = np.count_nonzero(mat) == sum(np.count_nonzero(band) for band in (diag, sub, sup))
    if banded:
        with np.errstate(invalid="ignore"):  # as in is_hermitian
            hermitian = np.max(np.abs(np.concatenate((diag - diag.conj(), sub - sup.conj())))) <= 1e-10
    else:
        hermitian = a.is_hermitian(1e-10)
    if not hermitian:
        raise ValueError("generator must be Hermitian to 1e-10")
    if not banded and np.any(np.tril(mat, -2)):
        w, v = np.linalg.eigh(mat)
        return Operator._owning(a.j, (v * np.exp(-1j * t * w)) @ v.conj().T)
    lam, vecs, phase = _tridiagonal_basis(diag.real, sub)
    out = np.empty_like(mat)
    out.real = (vecs * np.cos(t * lam)) @ vecs.T
    out.imag = (vecs * -np.sin(t * lam)) @ vecs.T
    out *= phase[:, None]
    out *= phase.conj()
    return Operator._owning(a.j, out)
