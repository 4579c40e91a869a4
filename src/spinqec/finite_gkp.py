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
shift residues a mod r1 and b mod r2.  Syndrome extraction here is
projective, not a sampled measurement: a shifted code state is an exact
eigenstate of both stabilizers, so once the input is checked to lie in
the code space the syndromes are the residues a mod r1 and b mod r2
themselves, integer arithmetic with no transform of the state.  Shifts
with |a| < r1/2 and |b| < r2/2 are undone exactly; larger shifts alias
into the window and leave a logical error, which is reported.  When r1
and r2 are both odd the in-window error set has exactly r1 r2 elements
and the errored code spaces tile C^N orthogonally.

A round does a few array passes and no per-call set-up, and reads only
its input: the combs follow from (K, r1, r2) by arithmetic, position
x = (K i + s) r1 + t being entry [i, s, t] of the amplitudes viewed as an
(r2, K, r1) array, so no table of comb positions or codewords is built
or read.  The code of each GkpParams (its codewords and words) is built
by build_gkp_code alone, once, and kept in spin_core's one store of
tables, whose byte budget (64 MiB) bounds every table the package keeps
and counts an entry's K N complex amplitudes.  build_gkp_code returns the
stored code, so its codewords are shared between callers and their
amplitude arrays are read-only.  A code whose (K x N) codewords would
pass the 1 GiB of one dense table is refused with ValueError before
allocating.  Every Pauli phase exp(i pi e / N) has the integer exponent
e = (2 b x + c) mod 2N, computed in integers on each call.  A word with
Z reads its phases from the 2N roots, kept once per N in the same store;
a word without Z needs no exponents and no roots: its one phase
exp(i pi c / N) is the roots' own expression on the entry c, with the
same bits.  PauliWord.to_operator, the helper that applies a word to an
amplitude array and the round share this one phase path, and
PauliWord.apply and the round share one helper that applies a word to a
StateVec.  A round recovers with one word: the error X^a Z^b and the
inverse of the decoded shift X^ahat Z^bhat multiply, as PauliWord
multiplies, to
exp(2 pi i bhat (ahat - a) / N) X^(a - ahat) Z^(b - bhat), which the
round applies to the input's amplitudes.  An error in the window has
a = ahat and b = bhat, so that word is the identity, and the input
StateVec itself comes back, as PauliWord.apply returns its argument for
the identity word: a StateVec is frozen and its amplitudes read-only, so
nothing is multiplied or copied and no store entry is read.  Only a word
with Z reads the store, once, for N's roots.  A round builds no
PauliWord: it takes the norm and the code-space residual as direct sums
of squares, rescaled as StateVec.norm rescales when they leave the
double range, and hands the recovered array of any other word, uncopied
and read-only, to a new StateVec.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .spin_core import _SQ_MAX, _SQ_MIN, HalfInt, Operator, StateVec, _integer, _require_bytes, _require_dense, _stored
from .spin_core import _unit_scaled

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
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
        n, a, b, c = (_integer(name, getattr(self, name)) for name in ("n", "a", "b", "c"))
        if n < 1:
            raise ValueError(f"modulus n must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a % n)
        object.__setattr__(self, "b", b % n)
        object.__setattr__(self, "c", c % (2 * n))

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
        return complex(_word_phases(self.n, 0, self.c))

    def to_operator(self) -> Operator:
        n = self.n
        _require_dense(HalfInt(n - 1), n, 16)
        x = np.arange(n)
        mat = np.zeros((n, n), dtype=complex)
        mat[(x + self.a) % n, x] = _word_phases(n, self.b, self.c)
        return Operator._owning(HalfInt(n - 1), mat)

    def apply(self, vec: StateVec) -> StateVec:
        """Shift and phase the amplitudes directly, without the matrix; the
        identity word returns vec itself (_applied)."""
        if vec.j.dim != self.n:
            raise ValueError("state dimension does not match modulus")
        return _applied(vec, self.n, self.a, self.b, self.c)


@_stored
def _roots(n: int) -> np.ndarray:
    """exp(i pi e / n) for e = 0 .. 2n - 1: every phase of a word on C^n.

    Its 32 n bytes are refused with ValueError past the 1 GiB of one dense
    table, before allocating.
    """
    _require_bytes("N", n, 2, 16)
    return np.exp(1j * math.pi * np.arange(2 * n) / n)


def _word_phases(n: int, b: int, c: int) -> np.ndarray | np.complex128:
    """exp(i pi c / n) Z^b as its diagonal, 0 <= b < n, 0 <= c < 2n: the
    roots at the exponents (2 b x + c) mod 2n, x = 0 .. n - 1, taken in
    integers (the gather wraps them mod 2n).  For b = 0 it is the one root
    exp(i pi c / n), which broadcasts over the amplitudes: _roots' own
    expression on the one entry c, so it has the bits of _roots(n)[c] and
    reads no store entry."""
    if b == 0:
        return np.exp(1j * math.pi * np.arange(c, c + 1) / n)[0]
    return np.take(_roots(n), np.arange(c, c + 2 * b * n, 2 * b), mode="wrap")


def _roll(amps: np.ndarray, a: int) -> np.ndarray:
    """X^a, 0 <= a < n: entry x moves to x + a mod n, a cyclic roll by a."""
    cut = len(amps) - a
    return np.concatenate((amps[cut:], amps[:cut]))


def _apply_word(amps: np.ndarray, n: int, a: int, b: int, c: int) -> np.ndarray:
    """exp(i pi c / n) X^a Z^b on an amplitude array, 0 <= a, b < n, 0 <= c < 2n.

    Returns a fresh array: the phases of _word_phases, then the roll of X^a.
    A word without phases (b = c = 0) multiplies nothing, so every bit of
    the amplitudes is kept: a product by 1 + 0i would turn -0.0 into 0.0
    and inf into inf + nan i.
    """
    return _roll(amps * _word_phases(n, b, c) if b or c else amps, a)


def _applied(vec: StateVec, n: int, a: int, b: int, c: int) -> StateVec:
    """exp(i pi c / n) X^a Z^b applied to vec, 0 <= a, b < n, 0 <= c < 2n.

    The identity word (a = b = c = 0) returns vec itself: a StateVec is
    frozen and its amplitudes are read-only, so a copy would only repeat
    its bytes.  Any other word wraps the fresh array of _apply_word
    without a copy.
    """
    if not (a or b or c):
        return vec
    return StateVec._owning(vec.j, _apply_word(vec.amps, n, a, b, c))


def clock_shift(n: int) -> tuple[Operator, Operator]:
    """The shift X and clock Z on C^n; for n = 2 these are Pauli X, Z."""
    n = _integer("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return PauliWord(n, 1, 0).to_operator(), PauliWord(n, 0, 1).to_operator()


@dataclass(frozen=True, eq=False)
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
        """Positions of codeword s's comb: (k i + s) r1, i = 0 .. r2 - 1."""
        p = self.params
        return list(range(s * p.r1, p.n, p.k * p.r1))


@_stored
def _code(params: GkpParams) -> GkpCode:
    """The code of params, its codewords written through the (k, r2, k, r1)
    view of the (k x N) amplitude table, whose entry [s, i, s, 0] is
    position (k i + s) r1.

    A (k x N) codeword table past the 1 GiB of one dense table raises
    ValueError, naming N and the bytes, before allocating.
    """
    k, r1, r2, n = params.k, params.r1, params.r2, params.n
    _require_bytes("N", n, k, 16)
    amps = np.zeros((k, n), dtype=complex)
    s = np.arange(k)
    amps.reshape(k, r2, k, r1)[s, :, s, 0] = 1.0 / math.sqrt(r2)
    return GkpCode(
        params=params,
        codewords=tuple(StateVec(params.spin_label, row) for row in amps),
        xbar=PauliWord(n, r1, 0),
        zbar=PauliWord(n, 0, r2),
        stabilizer_x=PauliWord(n, k * r1, 0),
        stabilizer_z=PauliWord(n, 0, k * r2),
    )


def build_gkp_code(params: GkpParams) -> GkpCode:
    """Codewords |xbar = s> = r2^(-1/2) sum_i |(k i + s) r1>, s = 0..k-1.

    The code is built once per GkpParams and kept in spin_core's store of
    tables, within its byte budget: every call with equal params returns
    the same GkpCode while it is kept, and its codewords are shared and
    read-only.  A (k x N) codeword table past the 1 GiB of one dense table
    raises ValueError before allocating.  Neither syndrome_and_recover nor
    stabilizer_eigenphases reads it.
    """
    return _code(params)


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


def _center(residue: int, r: int) -> tuple[int, bool]:
    """Map a residue to its in-window shift; flag the even-r boundary.

    For even r the residue r/2 could be the shift +r/2 or -r/2; the
    positive one is returned and the ambiguity flagged.
    """
    half = (r - 1) // 2
    shifted = ((residue + half) % r) - half
    return shifted, (r % 2 == 0) and (shifted == r // 2)


@dataclass(frozen=True, eq=False)
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
    """Apply X^a Z^b to a code state, read the syndromes, undo the shift.

    A code state shifted by X^a Z^b is an exact eigenstate of both
    stabilizers, so the projective readout is decided by the shift alone:
    its position support lies in the class a mod r1 and its Fourier
    support in the class b mod r2.  Once the state passes the code-space
    check the syndromes are these residues, with no array pass.  Recovery
    applies the inverse of X^ahat Z^bhat for the in-window representatives.
    The residual on the code space is Xbar^((a-ahat)/r1) Zbar^((b-bhat)/r2)
    up to stabilizers, so the round is logically clean exactly when both
    quotients vanish mod k.

    A zero, infinite or NaN state raises ValueError naming its norm; a
    finite state whose sum of squares overflows or underflows is checked
    on amps / max|amps| and recovered as given.  The round neither builds
    nor reads the (k x N) code: position x = (k i + s) r1 + t is entry
    [i, s, t] of the amplitudes as an (r2, k, r1) array, whose teeth
    [:, :, 0] are the combs, so the code-space check projects onto them
    by arithmetic and compares the residual's sum of squares with 1e-20
    times the state's.  It takes any N the state holds.  The error and
    the undo are one word, (X^ahat Z^bhat)^-1 X^a Z^b, multiplied in
    integers and applied once: its phases times the input's amplitudes,
    then one roll by the net shift a - ahat.  In the window it is the
    identity, and the recovered state is the input StateVec itself; any
    other word's recovered array is wrapped, without a copy, in a new
    StateVec.  Only a word with Z reads the store, for N's roots.
    """
    n = params.n
    if state.j.dim != n:
        raise ValueError("state dimension does not match the code")
    # Sums of squares as StateVec.norm takes its range: out of range, the
    # check runs on amps / max|amps|, and a zero, infinite or NaN state
    # has that maximum as its norm.
    amps = state.amps
    norm_sq = np.vdot(amps, amps).real
    if not _SQ_MIN <= norm_sq <= _SQ_MAX:
        amps, scale = _unit_scaled(amps)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"state norm must be finite and nonzero, got {scale}")
        norm_sq = np.vdot(amps, amps).real
    # Distance to the code: every amplitude off the combs (t > 0), and each
    # tooth's deviation from its comb's mean (the projection onto the codeword).
    residual = amps.reshape(params.r2, params.k, params.r1).copy()
    teeth = residual[:, :, 0]
    teeth -= teeth.sum(axis=0) / params.r2
    if np.vdot(residual, residual).real > 1e-20 * norm_sq:
        raise ValueError("input state is not in the code space")

    a, b = _integer("a", a), _integer("b", b)
    syndrome_a, syndrome_b = a % params.r1, b % params.r2
    a_hat, amb_a = _center(syndrome_a, params.r1)
    b_hat, amb_b = _center(syndrome_b, params.r2)

    # (X^ahat Z^bhat)^-1 X^a Z^b = exp(2 pi i bhat (ahat - a) / n) X^(a - ahat) Z^(b - bhat),
    # as PauliWord.inverse and PauliWord.__mul__ give it.
    c = 2 * b_hat * (a_hat - a) % (2 * n)
    logical_x = ((a - a_hat) // params.r1) % params.k
    logical_z = ((b - b_hat) // params.r2) % params.k
    return SyndromeOutcome(
        syndrome_a=syndrome_a,
        syndrome_b=syndrome_b,
        a_hat=a_hat,
        b_hat=b_hat,
        recovered=_applied(state, n, (a - a_hat) % n, (b - b_hat) % n, c),
        logical_error=bool(logical_x or logical_z),
        ambiguous=amb_a or amb_b,
    )


def stabilizer_eigenphases(params: GkpParams, state: StateVec) -> tuple[complex, complex]:
    """(<Z^(k r2)>, <X^(k r1)>) on a (possibly errored) code state.

    An errored codeword is an exact eigenstate, so the expectations have
    unit modulus and equal exp(2 pi i a / r1) and exp(-2 pi i b / r2).
    The two words are applied directly, without the (k x N) code, so any
    N the state holds is taken; Z^(k r2) reads N's roots from the store.
    """
    n = params.n
    za = PauliWord(n, 0, params.k * params.r2).apply(state)
    xa = PauliWord(n, params.k * params.r1, 0).apply(state)
    return (
        complex(np.vdot(state.amps, za.amps)),
        complex(np.vdot(state.amps, xa.amps)),
    )
