"""Shift-resistant qudit codes on the cyclic space C^N with N = K r1 r2.

The position basis |x>, x = 0..N-1, carries the clock and shift pair
X|x> = |x+1 mod N> and Z|x> = w^x |x>, w = exp(2 pi i / N), obeying
Z X = w X Z.  Words X^a Z^b with an overall phase are tracked exactly:
the phase is an integer exponent of exp(i pi / N), so group products,
inverses, and commutators never touch floating point.

A code with K logical states stores |xbar = s> as a comb of r2 position
spikes spaced K r1 apart, starting at s r1.  The logical operators are
Xbar = X^r1 and Zbar = Z^r2; the stabilizers X^(K r1) and Z^(K r2)
commute exactly and their eigenphases on an errored state reveal the
shift residues a mod r1 and b mod r2.  Syndrome extraction here is a
projective residue decomposition, not a sampled measurement: position
residues are read from the support of the state directly, momentum
residues from the support of its discrete Fourier transform.  Shifts
with |a| < r1/2 and |b| < r2/2 are undone exactly; larger shifts alias
into the window and leave a logical error, which is reported.  When r1
and r2 are both odd the in-window error set has exactly r1 r2 elements
and the errored code spaces tile C^N orthogonally.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .spin_core import HalfInt, Operator, StateVec

__all__ = [
    "GkpParams",
    "PauliWord",
    "clock_shift",
    "GkpCode",
    "build_gkp_code",
    "SyndromeOutcome",
    "syndrome_and_recover",
    "stabilizer_eigenphases",
    "strict_window",
    "tiling_window",
]


@dataclass(frozen=True)
class GkpParams:
    """Dimensions of a shift code: N = k * r1 * r2.

    k is the logical dimension, r1 the position spacing, r2 the momentum
    spacing.  The code is perfect (in-window errors tile C^N) exactly
    when r1 and r2 are both odd.
    """

    k: int
    r1: int
    r2: int

    def __post_init__(self):
        for name in ("k", "r1", "r2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.k < 2:
            raise ValueError(f"logical dimension k must be >= 2, got {self.k}")
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("spacings r1, r2 must be >= 1")

    @property
    def n(self) -> int:
        return self.k * self.r1 * self.r2

    @property
    def perfect(self) -> bool:
        return self.r1 % 2 == 1 and self.r2 % 2 == 1

    @property
    def spin_label(self) -> HalfInt:
        """Spin label j with 2j + 1 = N, for Operator / StateVec reuse."""
        return HalfInt(self.n - 1)


@dataclass(frozen=True)
class PauliWord:
    """exp(i pi c / n) X^a Z^b on C^n, with a, b mod n and c mod 2n.

    All group arithmetic is exact integer arithmetic; floats appear only
    when the word is materialized as a matrix.
    """

    n: int
    a: int
    b: int
    c: int = 0

    def __post_init__(self):
        for name in ("n", "a", "b", "c"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        if self.n < 1:
            raise ValueError(f"modulus n must be >= 1, got {self.n}")
        object.__setattr__(self, "a", int(self.a) % self.n)
        object.__setattr__(self, "b", int(self.b) % self.n)
        object.__setattr__(self, "c", int(self.c) % (2 * self.n))

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        if not isinstance(other, PauliWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("mismatched moduli")
        # Z^b X^a' = w^(a' b) X^a' Z^b, and w = exp(i pi / n)^2.
        return PauliWord(
            self.n,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c + 2 * other.a * self.b,
        )

    def inverse(self) -> "PauliWord":
        return PauliWord(self.n, -self.a, -self.b, -self.c + 2 * self.a * self.b)

    def power(self, k: int) -> "PauliWord":
        # (e^(i pi c/n) X^a Z^b)^k = e^(i pi (kc + ab k(k-1))/n) X^(ka) Z^(kb):
        # each of the k(k-1)/2 moves of Z^b past X^a gives w^(ab), w = e^(2 pi i/n).
        k = operator.index(k)
        if k < 0:
            return self.inverse().power(-k)
        return PauliWord(self.n, k * self.a, k * self.b, k * self.c + self.a * self.b * k * (k - 1))

    @property
    def phase(self) -> complex:
        return complex(np.exp(1j * math.pi * self.c / self.n))

    def to_operator(self) -> Operator:
        n = self.n
        x = np.arange(n)
        # Total phase on column x is exp(i pi e / n) with the exponent
        # e = 2 (b x mod n) + c reduced mod 2n, kept integer throughout.
        e = (2 * ((self.b * x) % n) + self.c) % (2 * n)
        mat = np.zeros((n, n), dtype=complex)
        mat[(x + self.a) % n, x] = np.exp(1j * math.pi * e / n)
        return Operator(HalfInt(n - 1), mat)

    def apply(self, vec: StateVec) -> StateVec:
        """Shift and phase the amplitudes directly, without the matrix."""
        n = self.n
        if vec.j.dim != n:
            raise ValueError("state dimension does not match modulus")
        x = np.arange(n)
        e = (2 * ((self.b * x) % n) + self.c) % (2 * n)
        amps = np.roll(vec.amps * np.exp(1j * math.pi * e / n), self.a)
        return StateVec(vec.j, amps)


def clock_shift(n: int) -> tuple[Operator, Operator]:
    """The shift X and clock Z on C^n; for n = 2 these are Pauli X, Z."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return PauliWord(n, 1, 0).to_operator(), PauliWord(n, 0, 1).to_operator()


@dataclass(frozen=True)
class GkpCode:
    """K orthonormal comb codewords with their logical and stabilizer words."""

    params: GkpParams
    codewords: tuple[StateVec, ...]
    xbar: PauliWord
    zbar: PauliWord
    stabilizer_x: PauliWord
    stabilizer_z: PauliWord

    def basis_matrix(self) -> np.ndarray:
        """Rows are the K codeword amplitude vectors."""
        return np.stack([w.amps for w in self.codewords])

    def support(self, s: int) -> list[int]:
        p = self.params
        return [((p.k * i + s) * p.r1) % p.n for i in range(p.r2)]


def build_gkp_code(params: GkpParams) -> GkpCode:
    """Codewords |xbar = s> = r2^(-1/2) sum_i |(k i + s) r1>, s = 0..k-1."""
    n = params.n
    j = params.spin_label
    amp = 1.0 / math.sqrt(params.r2)
    words = []
    for s in range(params.k):
        amps = np.zeros(n, dtype=complex)
        for i in range(params.r2):
            amps[(params.k * i + s) * params.r1] = amp
        words.append(StateVec(j, amps))
    return GkpCode(
        params=params,
        codewords=tuple(words),
        xbar=PauliWord(n, params.r1, 0),
        zbar=PauliWord(n, 0, params.r2),
        stabilizer_x=PauliWord(n, params.k * params.r1, 0),
        stabilizer_z=PauliWord(n, 0, params.k * params.r2),
    )


def strict_window(r: int) -> range:
    """Integers with |a| < r/2: the shifts recovery is guaranteed to undo."""
    half = (r - 1) // 2
    return range(-half, half + 1)


def tiling_window(r: int) -> range:
    """One representative per residue class mod r, centered.

    Equals strict_window for odd r; for even r it adds the boundary
    shift +r/2, whose syndrome is shared with -r/2.
    """
    return range(-((r - 1) // 2), r // 2 + 1)


def _residue_masses(amps: np.ndarray, r: int) -> np.ndarray:
    return np.array([float(np.sum(np.abs(amps[rho::r]) ** 2)) for rho in range(r)])


def _read_residue(amps: np.ndarray, r: int) -> int:
    """The single residue class mod r carrying the state's mass."""
    masses = _residue_masses(amps, r)
    rho = int(np.argmax(masses))
    total = float(np.sum(masses))
    if masses[rho] < (1.0 - 1e-10) * total:
        raise ValueError(
            f"support spreads over several residue classes mod {r}; "
            "state is not an errored codeword"
        )
    return rho


def _center(residue: int, r: int) -> tuple[int, bool]:
    """Map a residue to its in-window shift; flag the even-r boundary.

    For even r the residue r/2 could be the shift +r/2 or -r/2; the
    positive one is returned and the ambiguity flagged.
    """
    half = (r - 1) // 2
    shifted = ((residue + half) % r) - half
    return shifted, (r % 2 == 0) and (shifted == r // 2)


@dataclass(frozen=True)
class SyndromeOutcome:
    """Result of one error / measure / recover round."""

    syndrome_a: int
    syndrome_b: int
    a_hat: int
    b_hat: int
    recovered: StateVec
    logical_error: bool
    ambiguous: bool


def syndrome_and_recover(
    params: GkpParams, a: int, b: int, state: StateVec
) -> SyndromeOutcome:
    """Apply X^a Z^b to a code state, measure residues, undo the shift.

    The syndromes are read projectively: a mod r1 from the position
    support, b mod r2 from the Fourier support.  Recovery applies the
    inverse of X^ahat Z^bhat for the in-window representatives.  The
    residual on the code space is Xbar^((a-ahat)/r1) Zbar^((b-bhat)/r2)
    up to stabilizers, so the round is logically clean exactly when both
    quotients vanish mod k.
    """
    code = build_gkp_code(params)
    n = params.n
    if state.j.dim != n:
        raise ValueError("state dimension does not match the code")
    basis = code.basis_matrix()
    coeffs = basis.conj() @ state.amps
    if np.linalg.norm(basis.T @ coeffs - state.amps) > 1e-10 * state.norm:
        raise ValueError("input state is not in the code space")

    errored = PauliWord(n, a, b).apply(state)
    syndrome_a = _read_residue(errored.amps, params.r1)
    syndrome_b = _read_residue(np.fft.fft(errored.amps), params.r2)
    a_hat, amb_a = _center(syndrome_a, params.r1)
    b_hat, amb_b = _center(syndrome_b, params.r2)

    recovered = PauliWord(n, a_hat, b_hat).inverse().apply(errored)
    logical_x = ((int(a) - a_hat) // params.r1) % params.k
    logical_z = ((int(b) - b_hat) // params.r2) % params.k
    return SyndromeOutcome(
        syndrome_a=syndrome_a,
        syndrome_b=syndrome_b,
        a_hat=a_hat,
        b_hat=b_hat,
        recovered=recovered,
        logical_error=bool(logical_x or logical_z),
        ambiguous=amb_a or amb_b,
    )


def stabilizer_eigenphases(params: GkpParams, state: StateVec) -> tuple[complex, complex]:
    """(<Z^(k r2)>, <X^(k r1)>) on a (possibly errored) code state.

    An errored codeword is an exact eigenstate, so the expectations have
    unit modulus and equal exp(2 pi i a / r1) and exp(-2 pi i b / r2).
    """
    code = build_gkp_code(params)
    za = code.stabilizer_z.apply(state)
    xa = code.stabilizer_x.apply(state)
    return (
        complex(np.vdot(state.amps, za.amps)),
        complex(np.vdot(state.amps, xa.amps)),
    )
