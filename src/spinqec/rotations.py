"""Euler-angle rotations and their spin-j matrix representations.

Conventions, fixed once here and relied on everywhere else:

* z-y-z Euler factorization X_R = exp(-i alpha L3) exp(-i beta L2)
  exp(-i gamma L3).
* EulerAngles stores the three angles exactly as given.  They are NOT
  reduced to a canonical chart on construction: for half-integer j the
  matrix X_R is 4pi-periodic in each angle, and several constructions
  (coherent states, conjugated error families) need literal angle values
  such as gamma = -phi.  Use canonicalize() to land in the canonical
  chart alpha, gamma in [0, 2pi), beta in [0, pi], together with the
  double-cover sign that relates the two charts.
* One SU(2) chart, on arrays: su2_arrays maps Euler angles to the
  spin-1/2 element (a, b), _su2_product multiplies elements, and
  _euler_angles_arrays reads canonical angles back.  relative_rotations,
  compose, canonicalize and the error families of qec_check all run on
  these three kernels, where the group law is exact and the double-cover
  sign is visible.  The scalar functions (su2_from_euler, Su2 @,
  euler_from_su2) are their 0-d case: they pay numpy's per-call overhead
  (tens of microseconds) so that a scalar and an array evaluation agree
  bit for bit.  A libm twin would not: numpy's SIMD arctan2 and complex
  abs differ from libm's in the last bit.
* One Wigner-d kernel (_d_columns) serves wigner_d, wigner_d_matrix,
  wigner_D_matrix and the monopole wigner-d route: column n of d^j(beta)
  is the eigenvector, with eigenvalue n, of the tridiagonal
  cos(beta) L3 + sin(beta) L1, found by one vectorized three-term sweep
  toward each column's peak.  O(j^2) work for a matrix, O(j) for an
  entry, no overflow or cancellation at any j or angle.  Where a half
  angle is exactly zero (beta a multiple of pi) the matrix is the signed
  identity or antidiagonal, written directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import HalfInt, Operator, _axis_bands, _finite, _require_dense, _spin, m_index

__all__ = [
    "EulerAngles",
    "Su2",
    "su2_from_euler",
    "euler_from_su2",
    "canonicalize",
    "compose",
    "inverse",
    "wigner_d",
    "wigner_d_matrix",
    "wigner_D_matrix",
    "rotation_operator",
    "rotate_vector",
    "haar_random",
    "haar_random_sequence",
]

_TIE = 1e-14
# The snapped half-angle value for float inputs, typed like np.cos's result.
_ZERO = np.float64(0.0)


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles, stored exactly as given (no reduction); a
    non-finite angle raises ValueError."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @staticmethod
    def identity() -> "EulerAngles":
        return EulerAngles(0.0, 0.0, 0.0)

    @staticmethod
    def about_z(angle: float) -> "EulerAngles":
        return EulerAngles(angle, 0.0, 0.0)

    @staticmethod
    def about_y(angle: float) -> "EulerAngles":
        return EulerAngles(0.0, angle, 0.0)


@dataclass(frozen=True)
class Su2:
    """Element [[a, -conj(b)], [b, conj(a)]] of SU(2)."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, -self.b.conjugate()], [self.b, self.a.conjugate()]],
            dtype=complex,
        )

    def __matmul__(self, other: "Su2") -> "Su2":
        return Su2(*_su2_product(*map(np.complex128, (self.a, self.b, other.a, other.b))))

    def inverse(self) -> "Su2":
        return Su2(self.a.conjugate(), -self.b)

    def unit_defect(self) -> float:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)


def su2_from_euler(r: EulerAngles) -> Su2:
    """Spin-1/2 matrix of X_R: su2_arrays on one rotation."""
    return Su2(*su2_arrays(r.alpha, r.beta, r.gamma))


def _half_angles(beta) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta/2), sin(beta/2) elementwise, with exact zeros at beta = pi
    and 2pi (either sign).

    Exact multiples of pi mean the exact rotation, so the vanishing
    half-angle function is snapped to 0.0 rather than left at ~1e-16.
    The one half-angle helper of the package.  A float gives numpy float
    scalars, taken by the same ufuncs as arrays (so bit for bit equal to
    the array entries) but without 0-d array overhead; anything else
    gives arrays, 0-d for other scalars.
    """
    scalar = isinstance(beta, float)
    if not scalar:
        beta = np.asarray(beta, dtype=float)
    ch, sh = np.cos(0.5 * beta), np.sin(0.5 * beta)
    at_pi, at_two_pi = abs(beta) == math.pi, abs(beta) == 2.0 * math.pi
    if scalar:
        return (_ZERO if at_pi else ch), (_ZERO if at_two_pi else sh)
    return np.where(at_pi, 0.0, ch), np.where(at_two_pi, 0.0, sh)


def euler_from_su2(u: Su2) -> tuple[EulerAngles, int]:
    """Canonical Euler angles of +/-u, and the sign that was absorbed.

    Returns (r, s) with su2_from_euler(r) = s * u, s in {+1, -1}, and r
    in the canonical chart alpha, gamma in [0, 2pi), beta in [0, pi]:
    euler_from_su2_arrays on one element.
    """
    alpha, beta, gamma, sign = euler_from_su2_arrays(u.a, u.b)
    return EulerAngles(alpha, beta, gamma), int(sign)


def su2_arrays(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise su2_from_euler: the (a, b) arrays over arrays of angles."""
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    ch, sh = _half_angles(beta)
    a = np.exp(-0.5j * (alpha + gamma)) * ch
    b = np.exp(0.5j * (alpha - gamma)) * sh
    return a, b


def euler_from_su2_arrays(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise euler_from_su2: canonical (alpha, beta, gamma) and signs.

    Ties put all z-rotation into alpha (gamma = 0): |b| <= _TIE gives
    beta = 0, and |a| <= _TIE gives beta = pi.  The sign is that of the
    overlap of +/-(a, b) with the element the angles map back to.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    alpha, beta, gamma = _euler_angles_arrays(a, b)
    probe_a, probe_b = su2_arrays(alpha, beta, gamma)
    overlap = (probe_a * a.conj() + probe_b * b.conj()).real
    sign = np.where(overlap > 0.0, 1, -1)
    return alpha, beta, gamma, sign


def _euler_angles_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angles of euler_from_su2_arrays on complex arrays, without the
    sign, which costs a second su2_arrays pass: the package's one chart."""
    mag_a, mag_b = np.abs(a), np.abs(b)
    arg_a, arg_b = np.angle(a), np.angle(b)
    pole = mag_b <= _TIE
    flip = ~pole & (mag_a <= _TIE)
    tie = pole | flip
    beta = np.where(pole, 0.0, np.where(flip, math.pi, 2.0 * np.arctan2(mag_b, mag_a)))
    alpha = np.where(pole, -2.0 * arg_a, np.where(flip, 2.0 * arg_b, arg_b - arg_a))
    alpha = alpha % (2.0 * math.pi)
    gamma = np.where(tie, 0.0, (-arg_b - arg_a) % (2.0 * math.pi))
    return alpha, beta, gamma


def relative_rotations(rotations, left, right):
    """Canonical angles and signs of R_left^(-1) R_right, elementwise.

    left and right index into rotations; each rotation's SU(2) element is
    computed once.  Returns (alpha, beta, gamma, sign) arrays equal to
    compose(inverse(rotations[i]), rotations[k]) for every index pair.
    """
    return euler_from_su2_arrays(*_relative_su2(rotations, left, right))


def _relative_angles(rotations, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """relative_rotations without the double-cover sign."""
    return _euler_angles_arrays(*_relative_su2(rotations, left, right))


def _relative_su2(rotations, left, right) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) elements (a, b) of R_left^(-1) R_right over index pairs."""
    angles = np.array([(r.alpha, r.beta, r.gamma) for r in rotations], dtype=float)
    a, b = su2_arrays(angles[:, 0], angles[:, 1], angles[:, 2])
    # the inverse of (a, b) is (conj(a), -b)
    return _su2_product(a[left].conj(), -b[left], a[right], b[right])


def _su2_product(a1, b1, a2, b2) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the product u1 u2, elementwise: the package's one SU(2)
    product, for Su2 @ as for arrays."""
    return _cmul(a1, a2) - _cmul(b1.conj(), b2), _cmul(b1, a2) + _cmul(a1.conj(), b2)


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y as Python's complex product computes it, without a fused
    multiply-add: conj(z) * z is exactly real, so R^(-1) R is exactly
    the identity and its angles do not wrap to 2pi."""
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def canonicalize(r: EulerAngles) -> tuple[EulerAngles, int]:
    """Canonical-chart representative of r and the double-cover sign."""
    return euler_from_su2(su2_from_euler(r))


def compose(r1: EulerAngles, r2: EulerAngles) -> tuple[EulerAngles, int]:
    """Euler angles of the product rotation R1 R2, with the SU(2) sign.

    The sign s satisfies X_R1 X_R2 = s^(2j) X_(returned angles) in
    every spin-j representation.
    """
    return euler_from_su2(su2_from_euler(r1) @ su2_from_euler(r2))


def inverse(r: EulerAngles) -> EulerAngles:
    """Euler angles (exact, unreduced) of the inverse rotation."""
    return EulerAngles(-r.gamma, -r.beta, -r.alpha)


# Error-free transformations (Dekker 1971, Knuth TAOCP 2): a * b = p + e and
# a + b = s + e exactly, elementwise, while nothing overflows.
_SPLIT = 134217729.0  # 2**27 + 1


def _two_prod(a, b):
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# A sweep step multiplies a column by at most 4 sqrt(2j) + 2; the pair it
# carries is rescaled to [1/2, 1) often enough that it neither grows past
# 2**_GROWTH_BITS nor, in the sin-scaled variable, shrinks below
# 2**-_SHRINK_BITS in between.
_GROWTH_BITS = 200
_SHRINK_BITS = 800
# Rows beyond the two shared ones on either side of a column's split that
# the least-squares match may use.
_MATCH = 8
# Entries per temporary in the passes over the whole array.
_CHUNK = 1 << 18
# A power-of-two exponent that takes any finite double to zero.
_DROP = -3000


def _d_columns(tj: int, tn: np.ndarray, beta) -> np.ndarray:
    """Columns n_k of d^j(beta_k): a (2j+1, K) array, rows in descending m.

    tn is a 1-D integer array of twice n_k; beta is one float for all
    columns or a 1-D array, one angle per column.  Column K-1-k must be
    (-n_k, beta_k): each column's lower part is read from that mirror.
    Neither half angle may be zero (see wigner_d_matrix for those).

    Column n of d^j(beta) is the eigenvector, with eigenvalue n, of the
    real symmetric tridiagonal T = cos(beta) L3 + sin(beta) L1, since
    exp(-i beta L2) L3 exp(i beta L2) = T.  With e_i = sin(beta) times
    L1's band 1/2 sqrt((i+1)(2j-i)) (spin_core._axis_bands) coupling rows
    i and i+1,

        e_(i-1) v_(i-1) + (m_i cos(beta) - n) v_i + e_i v_(i+1) = 0,

    and the column peaks near row m = n cos(beta).  From either end the
    column grows toward that row, the direction in which the recurrence
    for it is stable (Gautschi, SIAM Rev. 9, 24 (1967)).  One sweep runs
    it from v_0 = 1 down to one row past the peak, for every column at
    once; the active columns shrink to a prefix as they reach their stop
    row, so the work is about (2j+1)^2/2 multiply-adds.  The rest of
    column n is column -n upside down, d_mn = (-1)^(m-n) d_(-m,-n).  The
    two pieces share two rows at the split, and up to _MATCH more on
    either side where the column oscillates (there the recurrence is
    stable both ways); they are matched by least squares on those rows,
    then normalized to 1.  The sign comes from the top entry,
    sign d^j_(j,n) = (-1)^(j-n) sgn(sin(beta/2))^(j-n) sgn(cos(beta/2))^(j+n),
    known even where that entry underflows.

    Nothing overflows or underflows on the way: the sweep carries
    v_i = 2^(q i) x_i with 2^q |sin(beta)| in [1/2, 1], which keeps its
    coefficients below 4 sqrt(2j) + 2 for every beta, and rescales the
    pair it carries by powers of two, recorded per block of rows.  The
    coefficients (n rho - m cos(beta))/(2^q e_i) are rounded once, with
    rho = |(cos(beta), sin(beta))| as rounded to doubles: n is then an
    exact eigenvalue of the T those doubles define, the rotation by an
    angle within an ulp of beta.

    Accuracy: at j = 1000, max|d^T d - 1| is 2.2e-15, 1.7e-14 and 7.9e-15
    at beta = 0.1, pi/2, 2.5 and at most 1.7e-14 over 21 random angles.
    A match on the two shared rows alone gave up to 2.5e-13 (they sit on
    a node of the columns next to n = +/-j); coefficients rounded term by
    term, without rho, give up to 3.6e-14 (7.2e-14 at j = 2000).
    """
    dim = tj + 1
    size = tn.size
    if tj == 0:
        return np.ones((1, size))
    beta = np.asarray(beta, dtype=float)
    ch, sh = _half_angles(beta)
    # cos(beta) = x0 + dx, with 1 -/+ cos(beta) = 2 sin^2 or 2 cos^2 of beta/2
    x = np.cos(beta)
    x0 = np.where(x > 0.5, 1.0, np.where(x < -0.5, -1.0, 0.0))
    dx = np.where(x0 == 1.0, -2.0 * sh * sh, np.where(x0 == -1.0, 2.0 * ch * ch, x))
    s = np.sin(beta)
    q = np.maximum(-np.frexp(s)[1], 0)
    sigma = np.ldexp(s, q)
    # rho - 1 = (cos^2 + sin^2 - 1)/2 to first order, summed from exact parts
    acc, err = x0 * x0 - 1.0, 0.0
    for part in (2.0 * x0 * dx, *_two_prod(dx, dx), *_two_prod(s, s)):
        acc, e = _two_sum(acc, part)
        err = err + e
    rho_1 = 0.5 * (acc + err)

    n = 0.5 * tn
    peak = (0.5 * tj - n * x0) - n * dx  # the row of m = n cos(beta)
    stop = np.clip(np.floor(peak).astype(np.int64) + 1, 1, tj)
    stop = np.maximum(stop, dim - stop[::-1])  # the two pieces share two rows
    # Inside the classically allowed rows, |m - n cos(beta)| below about
    # |sin(beta)| sqrt((j + 1/2)^2 - n^2), the recurrence is stable both ways:
    # the match uses up to _MATCH rows on either side of the shared two.
    allowed = np.abs(s) * np.sqrt(np.maximum(0.0, (0.5 * tj + 0.5) ** 2 - n * n))
    width = np.minimum(np.minimum(allowed // 2, _MATCH).astype(np.int64), np.minimum(stop - 1, tj - stop))
    reach = np.minimum(stop + _MATCH, tj)
    # Work order: reach nonincreasing, so the active columns are a prefix.
    steps = np.diff(reach)
    if np.all(steps <= 0):
        order = slice(None)
    elif np.all(steps >= 0):
        order = slice(None, None, -1)
    else:
        order = np.argsort(-reach, kind="stable")
    work_reach = reach[order]
    per_column = beta.ndim > 0
    x0_w, dx_w, sigma_w, rho_w = (
        (v[order] for v in (x0, dx, sigma, rho_1)) if per_column else (x0, dx, sigma, rho_1)
    )
    n_w = n[order]

    # Row i + 1 starts as the coefficient A_i = (n rho - m_i cos(beta))/(2^q e_i).
    # m_i cos(beta) = hi + lo exactly, hi on a grid that makes n - hi exact.
    m = 0.5 * (tj - 2 * np.arange(tj))[:, None]
    prod, prod_err = _two_prod(m, dx_w)
    total, total_err = _two_sum(m * x0_w, prod)
    grid = 3.0 * 2.0 ** (tj + 2).bit_length()
    hi = (total + grid) - grid
    lo = (total - hi) + (total_err + prod_err)
    e_hat = _axis_bands(HalfInt(tj), (1.0, 0.0, 0.0))[1].real  # L1's band
    scale_rows = sigma_w * e_hat[:, None]
    block = max(1, _CHUNK // size)
    work = np.empty((dim, size))
    work[0] = 1.0
    for r0 in range(0, tj, block):
        part = slice(r0, r0 + block)
        coef = work[1 + r0 : 1 + r0 + block]
        np.subtract(n_w, hi[part], out=coef)  # exact
        coef += n_w * rho_w - lo[part]
        coef /= scale_rows[part]
    # B_i = e_(i-1)/(2^(2q) e_i): per column, or one float per row
    e_ratio = np.zeros(tj)
    e_ratio[1:] = e_hat[:-1] / e_hat[1:]
    if per_column:
        damp = np.ldexp(1.0, -2 * q[order])
        back_coef = e_ratio[:, None] * damp
    else:
        back_coef = (e_ratio * np.ldexp(1.0, -2 * q)).tolist()

    every = max(1, min(
        int(_GROWTH_BITS / math.log2(4.0 * math.sqrt(tj) + 2.0)),
        _SHRINK_BITS // max(1, int(np.max(q))),
    ))
    top = int(work_reach[0])
    counts = np.searchsorted(-work_reach, -np.arange(top + 1), side="right").tolist()
    shifts = np.zeros((dim // every + 2, size), dtype=np.int64)
    shift = np.zeros(size, dtype=np.int64)
    prev = cur = work[0]
    for i in range(top):
        c = counts[i + 1]
        row = work[i + 1, :c]
        row *= cur[:c]
        if i:
            row -= (back_coef[i][:c] if per_column else back_coef[i]) * prev[:c]
        prev, cur = cur[:c], row
        if (i + 1) % every == 0:
            step = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
            np.ldexp(prev, -step, out=prev)
            np.ldexp(cur, -step, out=cur)
            shift[:c] += step
            shifts[(i + 1) // every] = shift
    shifts[top // every + 1 :] = shift

    if isinstance(order, slice):
        cols, shifts = work[:, order], shifts[:, order]
    else:
        back = np.empty_like(order)
        back[order] = np.arange(size)
        cols, shifts = work[:, back], shifts[:, back]
    # Row i of column k holds v / 2^(shifts[(i + 1) // every, k] + q_k i).
    # Each column's frame puts the larger of its rows stop-1, stop in [1/2, 1).
    k = np.arange(size)
    q_col = np.broadcast_to(q, (size,))

    def exponent(i, col):
        return shifts[(i + 1) // every, col] + q_col[col] * i

    def frame_exponent(i):
        v = cols[i, k]
        return np.where(v != 0.0, exponent(i, k) + np.frexp(v)[1], np.iinfo(np.int64).min // 2)

    base = np.maximum(frame_exponent(stop - 1), frame_exponent(stop))

    def in_frame(i, col):
        return np.ldexp(cols[i, col], exponent(i, col) - base[col])

    # The two pieces on the rows they share, for the least-squares match;
    # the lower piece is the mirror upside down, times (-1)^(m - n).
    mirror = k[::-1]
    offsets = np.arange(-1 - _MATCH, _MATCH + 1)[:, None]
    used = (offsets >= -1 - width) & (offsets <= width)
    shared = np.where(used, stop + offsets, stop - 1)
    upper = np.where(used, in_frame(shared, k), 0.0)
    flip = np.where(((tj - 2 * shared - tn) // 2) % 2 == 1, -1.0, 1.0)
    lower = np.where(used, flip * in_frame(tj - shared, mirror), 0.0)

    # Into the frame; rows from stop on go to 0.
    sums = np.zeros(size)
    for r0 in range(0, dim, block):
        i = np.arange(r0, min(dim, r0 + block))[:, None]
        exps = shifts[(i[:, 0] + 1) // every] - base + q_col * i
        exps[i >= stop] = _DROP
        chunk = cols[r0 : r0 + block]
        np.ldexp(chunk, exps, out=chunk)
        sums += np.einsum("ij,ij->j", chunk, chunk)
    alpha = np.einsum("ij,ij->j", upper, lower) / np.einsum("ij,ij->j", lower, lower)
    # Column k's lower part is rows 0 .. dim-1-stop_k of its mirror: all its
    # kept rows, less the last one where the two stop rows add to dim + 1.
    overlap = np.where(stop + stop[::-1] == dim + 1, cols[stop[::-1] - 1, mirror] ** 2, 0.0)
    norm = np.sqrt(sums + alpha * alpha * (sums[::-1] - overlap))
    j_minus_n, j_plus_n = (tj - tn) // 2, (tj + tn) // 2
    flips = j_minus_n * (1 + (sh < 0.0)) + j_plus_n * (ch < 0.0)
    scale = np.where(flips % 2 == 1, -1.0, 1.0) / norm
    cols *= scale
    # lower entries: (-1)^(m - n) alpha_k scale_k / scale_k' times the mirror's
    factor = np.where(j_minus_n % 2 == 1, -alpha, alpha) * scale / scale[::-1]
    turned = cols[::-1, ::-1]
    for r0 in range(0, dim, block):
        i = np.arange(r0, min(dim, r0 + block))[:, None]
        parity = np.where(i % 2 == 1, -1.0, 1.0)
        np.copyto(cols[r0 : r0 + block], turned[r0 : r0 + block] * (parity * factor), where=i >= stop)
    return cols


def _exact_d(tj: int, tm, tn, ch, sh):
    """d^j_mn where a half angle is exactly zero (beta a multiple of pi),
    elementwise over broadcast doubled labels and half angles.

    sin(beta/2) = 0 gives cos(beta/2)^(2|m|) on the diagonal, cos(beta/2) = 0
    gives (-1)^(j+m) sin(beta/2)^(2|m|) on the antidiagonal; both are +/-1.
    """
    tm, tn = np.asarray(tm), np.asarray(tn)
    diagonal = np.where(tm == tn, ch ** np.abs(tm), 0.0)
    anti = np.where((tj + tm) // 2 % 2 == 1, -1.0, 1.0) * sh ** np.abs(tm)
    return np.where(sh == 0.0, diagonal, np.where(tm == -tn, anti, 0.0))


def _wigner_d_entries(tj: int, tm: int, tn: int, beta) -> np.ndarray:
    """d^j_mn(beta) for one pair of doubled labels over an array of angles
    (any shape): one column n and its mirror -n per angle."""
    beta = np.asarray(beta, dtype=float)
    flat = beta.ravel()
    ch, sh = _half_angles(flat)
    out = _exact_d(tj, tm, tn, ch, sh)
    general = (ch != 0.0) & (sh != 0.0)
    if np.any(general):
        angles = flat[general]
        cols = _d_columns(
            tj, np.repeat(np.array([tn, -tn]), angles.size), np.concatenate([angles, angles[::-1]])
        )
        out[general] = cols[(tj - tm) // 2, : angles.size]
    return out.reshape(beta.shape)


def wigner_d(j, m, n, beta: float) -> float:
    """Little-d matrix element d^j_{m,n}(beta); real by construction.

    The same kernel as wigner_d_matrix: column n (and its mirror -n),
    O(j) work.
    """
    j = _spin(j)
    tm, tn = (j.twice - 2 * m_index(j, label) for label in (m, n))
    beta = _finite("beta", beta)
    return float(_wigner_d_entries(j.twice, tm, tn, beta))


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full real little-d matrix, rows/cols in descending m and n.

    Column n is the eigenvector, with eigenvalue n, of the tridiagonal
    T = cos(beta) L3 + sin(beta) L1, found by one vectorized three-term
    sweep from the top row toward each column's peak near m = n cos(beta);
    each column's lower part is its mirror -n upside down (see
    _d_columns).  Work is O(j^2), memory one (2j+1)^2 array plus bounded
    temporaries (37 MB at j = 1000), and nothing overflows at any j.
    max|d^T d - 1| is below 2e-14 at j = 1000 at every angle tried.

    Where a half angle is exactly zero, T is diagonal and the matrix is
    written directly: beta = 0 and +/-2pi give exactly +/-1 times the
    identity, beta = +/-pi exactly the signed antidiagonal.  Their zero
    entries carry the sign the fold d_mn = (-1)^(m-n) d_nm = d_{-n,-m}
    gives +0.0: these matrices are pinned byte for byte, zeros included.
    """
    j = _spin(j)
    tj = j.twice
    beta = _finite("beta", beta)
    _require_dense(j, j.dim, 8)
    two = tj - 2 * np.arange(j.dim)  # twice m, descending
    ch, sh = _half_angles(beta)
    if ch != 0.0 and sh != 0.0:
        return _d_columns(tj, two, beta)
    tm, tn = two[:, None], two[None, :]
    negative = ((tm - tn) // 2 % 2 == 1) & np.where(np.abs(tn) > np.abs(tm), tn > 0, tm < 0)
    out = np.where(negative, -0.0, 0.0)
    diagonal = np.arange(j.dim) if sh == 0.0 else np.arange(j.dim)[::-1]
    out[np.arange(j.dim), diagonal] = _exact_d(tj, two, two[diagonal], ch, sh)
    return out


def wigner_D_matrix(j, r: EulerAngles) -> Operator:
    """X_R on the spin-j space: e^{-i alpha m} d^j_{mn}(beta) e^{-i gamma n}."""
    j = _spin(j)
    _require_dense(j, j.dim, 16)
    mv = (j.twice - 2 * np.arange(j.dim)) / 2.0
    d = wigner_d_matrix(j, r.beta)
    left = np.exp(-1j * r.alpha * mv)
    right = np.exp(-1j * r.gamma * mv)
    return Operator._owning(j, left[:, None] * d * right[None, :])


def rotation_operator(j, r: EulerAngles) -> Operator:
    """Alias for wigner_D_matrix, reading as 'the rotation X_R on spin j'."""
    return wigner_D_matrix(j, r)


def rotate_vector(r: EulerAngles, n) -> np.ndarray:
    """Apply the classical rotation Rz(alpha) Ry(beta) Rz(gamma) to a 3-vector."""
    n = np.asarray(n, dtype=float)

    def rz(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(r.alpha) @ ry(r.beta) @ rz(r.gamma) @ n


def haar_random(seed: int) -> EulerAngles:
    """One Haar-distributed rotation: alpha, gamma uniform, cos(beta) uniform."""
    return haar_random_sequence(seed, 1)[0]


def haar_random_sequence(seed: int, count: int) -> list[EulerAngles]:
    """Deterministic Haar sample of the requested length.

    One draw of count rows of three uniforms from the seed's generator;
    each row holds (alpha, gamma, beta) in that stream order, with
    alpha, gamma = 2 pi u and beta = acos(2u - 1).  A negative count
    raises ValueError.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    draws = np.random.default_rng(seed).random((count, 3)).tolist()
    return [
        EulerAngles(2.0 * math.pi * a, math.acos(2.0 * b - 1.0), 2.0 * math.pi * g)
        for a, g, b in draws
    ]
