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
* Composition runs through the spin-1/2 representation, where the group
  law is exact and the double-cover sign is visible.
* One Wigner-d kernel serves wigner_d, wigner_d_matrix and the monopole
  harmonics: the Jacobi form d^j_mn ~ sin^a(beta/2) cos^b(beta/2)
  P_k^(a,b)(cos beta) with nonnegative a, b, its polynomials from one
  three-term recurrence (_jacobi) and its prefactor in the log domain.
  It is stable and finite at every j, in O(dim^2) memory for a matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spin_core import HalfInt, Operator, _spin, m_index

__all__ = [
    "EulerAngles",
    "Su2",
    "su2_from_euler",
    "euler_from_su2",
    "su2_arrays",
    "euler_from_su2_arrays",
    "relative_rotations",
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
    """z-y-z Euler angles, stored exactly as given (no reduction)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", float(self.gamma))

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
        a = self.a * other.a - self.b.conjugate() * other.b
        b = self.b * other.a + self.a.conjugate() * other.b
        return Su2(a, b)

    def inverse(self) -> "Su2":
        return Su2(self.a.conjugate(), -self.b)

    def unit_defect(self) -> float:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)


def su2_from_euler(r: EulerAngles) -> Su2:
    """Spin-1/2 matrix of X_R; the group law downstairs is exact."""
    half_sum = 0.5 * (r.alpha + r.gamma)
    half_diff = 0.5 * (r.alpha - r.gamma)
    ch, sh = _half_angles(r.beta)
    a = cmath.exp(-1j * half_sum) * float(ch)
    b = cmath.exp(1j * half_diff) * float(sh)
    return Su2(a, b)


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
    in the canonical chart alpha, gamma in [0, 2pi), beta in [0, pi].
    Ties beta = 0 or pi put all z-rotation into alpha (gamma = 0).
    """
    mag_a, mag_b = abs(u.a), abs(u.b)
    beta = 2.0 * math.atan2(mag_b, mag_a)
    if mag_b <= _TIE:
        alpha = (-2.0 * cmath.phase(u.a)) % (2.0 * math.pi)
        gamma = 0.0
        beta = 0.0
    elif mag_a <= _TIE:
        alpha = (2.0 * cmath.phase(u.b)) % (2.0 * math.pi)
        gamma = 0.0
        beta = math.pi
    else:
        arg_a = cmath.phase(u.a)
        arg_b = cmath.phase(u.b)
        alpha = (arg_b - arg_a) % (2.0 * math.pi)
        gamma = (-arg_b - arg_a) % (2.0 * math.pi)
    r = EulerAngles(alpha, beta, gamma)
    probe = su2_from_euler(r)
    # probe equals +/-u exactly up to rounding; recover the sign by overlap.
    overlap = probe.a * u.a.conjugate() + probe.b * u.b.conjugate()
    sign = 1 if overlap.real > 0.0 else -1
    return r, sign


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

    The same _TIE rules apply: |b| <= _TIE puts all z-rotation into alpha
    with beta = 0, and |a| <= _TIE does so with beta = pi.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mag_a, mag_b = np.abs(a), np.abs(b)
    arg_a, arg_b = np.angle(a), np.angle(b)
    pole = mag_b <= _TIE
    flip = ~pole & (mag_a <= _TIE)
    tie = pole | flip
    beta = np.where(pole, 0.0, np.where(flip, math.pi, 2.0 * np.arctan2(mag_b, mag_a)))
    alpha = np.where(pole, -2.0 * arg_a, np.where(flip, 2.0 * arg_b, arg_b - arg_a))
    alpha = alpha % (2.0 * math.pi)
    gamma = np.where(tie, 0.0, (-arg_b - arg_a) % (2.0 * math.pi))
    probe_a, probe_b = su2_arrays(alpha, beta, gamma)
    overlap = (probe_a * a.conj() + probe_b * b.conj()).real
    sign = np.where(overlap > 0.0, 1, -1)
    return alpha, beta, gamma, sign


def relative_rotations(rotations, left, right):
    """Canonical angles and signs of R_left^(-1) R_right, elementwise.

    left and right index into rotations; each rotation's SU(2) element is
    computed once.  Returns (alpha, beta, gamma, sign) arrays equal to
    compose(inverse(rotations[i]), rotations[k]) for every index pair.
    """
    angles = np.array([(r.alpha, r.beta, r.gamma) for r in rotations], dtype=float)
    a, b = su2_arrays(angles[:, 0], angles[:, 1], angles[:, 2])
    a_l, b_l, a_r, b_r = a[left], b[left], a[right], b[right]
    # Su2.__matmul__ with the inverse (conj(a_l), -b_l) on the left.
    return euler_from_su2_arrays(
        _cmul(a_l.conj(), a_r) + _cmul(b_l.conj(), b_r), _cmul(a_l, b_r) - _cmul(b_l, a_r)
    )


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


_HUGE_EXP = 512
_RESCALE_EVERY = 8
_HUGE = 2.0**_HUGE_EXP
_UNHUGE = 2.0**-_HUGE_EXP
# Cody-Waite split of log(2): q * _LN2_HI is exact for |q| < 2**20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _jacobi(n, a, b, x0, dx) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(a,b)(x0 + dx) = p * 2**e elementwise, by the three-term
    recurrence in the degree.

    n, a, b are nonnegative integers (not checked), x0 integers in
    {-1, 0, 1} and dx floats; all five broadcast.  Nonnegative parameters
    keep every recurrence coefficient positive (no 0/0 cases); the
    coefficients are integers, exact in floating point while
    2n + a + b < 2**17.

    The argument is split so that x near +/-1 keeps the relative
    precision of 1 -/+ x: each step forms c1 * dx + (c2 + c1 * x0) with
    the integer part exact, which for x0 = 0 is c1 * x + c2 bit for bit.

    One pass runs the degree up to max(n), updating at degree k only the
    entries with n >= k.  Scalar inputs stay Python scalars, so a single
    polynomial at many points computes its coefficients once per degree,
    and a single entry recurs on scalars alone.  Every _RESCALE_EVERY
    degrees an entry past 2**512 is scaled by the exact power 2**-512,
    counted in e; one step grows the larger of the last two values by a
    factor below 2(a + b) + 4, so nothing overflows in between, and
    p * 2**e is the unscaled recurrence bit for bit.
    """
    shape = np.broadcast(n, a, b, x0, dx).shape
    size = math.prod(shape)
    # Descending degree: the entries still recurring at degree k are a prefix,
    # counts[k] long.
    if isinstance(n, np.ndarray) and n.ndim:
        n = np.broadcast_to(n, shape).ravel()
        order = np.argsort(-n, kind="stable")
        unsort = np.empty_like(order)
        unsort[order] = np.arange(size)
        counts = np.searchsorted(-n[order], -np.arange(int(n.max()) + 2), side="right").tolist()
    else:
        order = unsort = slice(None)
        counts = [size] * (int(n) + 1) + [0]

    def sorted_or_scalar(v):
        if not (isinstance(v, np.ndarray) and v.ndim):
            return float(v)
        if v.shape != shape:
            v = np.broadcast_to(v, shape)
        return v.astype(float, copy=False).ravel()[order]

    a, b, x0, dx = (sorted_or_scalar(v) for v in (a, b, x0, dx))
    inputs = (a, b, a + b, a * a - b * b, x0, dx)
    top = len(counts) - 2
    out = np.ones(size)
    e = np.zeros(size, dtype=np.int64)

    def active(c):
        return [v[:c] if isinstance(v, np.ndarray) else v for v in inputs]

    c = counts[1]
    a, b, s, a2_b2, x0, dx = active(c)
    half_s = 1.0 + 0.5 * s
    # A single entry recurs on scalars, many on arrays of the active prefix.
    p_prev = np.ones(c) if shape else 1.0
    p_cur = ((0.5 * (a - b) + half_s * x0) + half_s * dx) * p_prev
    for k in range(2, top + 1):
        if counts[k] < c:
            out[counts[k] : c] = p_cur[counts[k] :]
            c = counts[k]
            a, b, s, a2_b2, x0, dx = active(c)
            p_cur, p_prev = p_cur[:c], p_prev[:c]
        tk = s + 2.0 * k
        c0 = 2.0 * k * (k + s) * (tk - 2.0)
        c1 = (tk - 1.0) * tk * (tk - 2.0)
        c2 = (tk - 1.0) * a2_b2 + c1 * x0
        c3 = 2.0 * (k - 1.0 + a) * (k - 1.0 + b) * tk
        p_prev, p_cur = p_cur, ((c1 * dx + c2) * p_cur - c3 * p_prev) / c0
        if k % _RESCALE_EVERY == 0:
            big = np.maximum(np.abs(p_cur), np.abs(p_prev)) > _HUGE
            if np.any(big):
                p_cur = np.where(big, p_cur * _UNHUGE, p_cur)
                p_prev = np.where(big, p_prev * _UNHUGE, p_prev)
                e[:c] += np.where(big, _HUGE_EXP, 0)
    out[:c] = p_cur
    return out[unsort].reshape(shape), e[unsort].reshape(shape)


def _ln_binomials(n: int, ks: np.ndarray) -> np.ndarray:
    """log C(n, k) elementwise, from the exact integers: rounding error
    about eps * log C(n, k), where a log-factorial difference carries
    eps * log n!."""
    uniq, inv = np.unique(ks, return_inverse=True)
    vals = np.array([math.log(math.comb(n, int(k))) for k in uniq])
    return vals[inv].reshape(np.shape(ks))


def _fold(tm, tn):
    """Map labels (twice m, twice n) into the domain m >= |n|.

    Returns (tm', tn', sign) with d_mn = sign * d_m'n', by the symmetries
    d_mn = (-1)^(m-n) d_nm = d_{-n,-m}.
    """
    tm, tn = np.broadcast_arrays(np.asarray(tm), np.asarray(tn))
    flip = np.abs(tn) > np.abs(tm)
    tm, tn = np.where(flip, tn, tm), np.where(flip, tm, tn)
    neg = tm < 0
    sign = np.where((flip ^ neg) & ((tm - tn) // 2 % 2 == 1), -1.0, 1.0)
    return np.where(neg, -tm, tm), np.where(neg, -tn, tn), sign


def _wigner_d_values(tj: int, tm, tn, beta) -> np.ndarray:
    """d^j_{mn}(beta) elementwise over broadcast arrays of doubled labels
    tm, tn and angles beta, by the Jacobi form (see wigner_d_matrix)."""
    tm, tn, sign = _fold(tm, tn)
    beta = np.asarray(beta, dtype=float)
    ch, sh = _half_angles(beta)
    a = (tm - tn) // 2
    b = (tm + tn) // 2
    # cos(beta) = x0 + dx, with 1 -/+ cos(beta) = 2 sin^2 or 2 cos^2 of beta/2
    x = np.cos(beta)
    x0 = np.where(x > 0.5, 1, np.where(x < -0.5, -1, 0))
    dx = np.where(x0 == 1, -2.0 * sh * sh, np.where(x0 == -1, 2.0 * ch * ch, x))
    p, e = _jacobi((tj - tm) // 2, a, b, x0, dx)
    ln_pref = 0.5 * (_ln_binomials(tj, (tj + tn) // 2) - _ln_binomials(tj, (tj + tm) // 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (
            ln_pref
            + np.where(a == 0, 0.0, a * np.log(np.abs(sh)))
            + np.where(b == 0, 0.0, b * np.log(np.abs(ch)))
        )
    # (-1)^(m-n) * sign(sh)^a * sign(ch)^b * sign(p), with a = m - n
    flips = a + a * (sh < 0.0) + b * (ch < 0.0) + (p < 0.0)
    sign = np.where(flips % 2 == 1, -sign, sign)
    # |p| 2^e exp(t) = frac * 2^(e + ex + q) * exp(t - q log 2), with
    # frac in [1/2, 1) and |t - q log 2| <= log(2)/2: nothing overflows.
    zero = t == -np.inf
    t = np.where(zero, 0.0, t)
    frac, ex = np.frexp(np.abs(p))
    q = np.rint(t / math.log(2.0))
    r = (t - q * _LN2_HI) - q * _LN2_LO
    mag = np.ldexp(frac * np.exp(r), e + ex + q.astype(np.int64))
    return np.where(zero, 0.0, sign * mag)


def _finite_angle(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def wigner_d(j, m, n, beta: float) -> float:
    """Little-d matrix element d^j_{m,n}(beta); real by construction.

    The same Jacobi-form kernel as wigner_d_matrix, for one entry.
    """
    j = _spin(j)
    tm, tn = (j.twice - 2 * m_index(j, label) for label in (m, n))
    beta = _finite_angle("beta", beta)
    return float(_wigner_d_values(j.twice, tm, tn, beta))


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full real little-d matrix, rows/cols in descending m and n.

    Entries with m >= |n| come from the Jacobi form

        d^j_mn(beta) = (-1)^(m-n) sqrt((j+m)!(j-m)!/((j+n)!(j-n)!))
                       * sin^(m-n)(beta/2) cos^(m+n)(beta/2)
                       * P_(j-m)^(m-n, m+n)(cos beta),

    with the polynomials from one three-term recurrence over all entries
    (_jacobi) and the prefactor in the log domain; the symmetries
    d_mn = (-1)^(m-n) d_nm = d_{-n,-m} fill the rest.  Memory is O(dim^2)
    and no intermediate overflows at any j.  beta = 0 and +/-2pi give
    exactly +/-1 times the identity, beta = +/-pi exactly the signed
    antidiagonal.
    """
    j = _spin(j)
    tj = j.twice
    beta = _finite_angle("beta", beta)
    two = tj - 2 * np.arange(j.dim)  # twice m, descending
    rows, cols = np.nonzero(np.abs(two)[None, :] <= two[:, None])
    fund = np.zeros((j.dim, j.dim))
    fund[rows, cols] = _wigner_d_values(tj, two[rows], two[cols], beta)
    tm, tn, sign = _fold(two[:, None], two[None, :])
    return sign * fund[(tj - tm) // 2, (tj - tn) // 2]


def wigner_D_matrix(j, r: EulerAngles) -> Operator:
    """X_R on the spin-j space: e^{-i alpha m} d^j_{mn}(beta) e^{-i gamma n}."""
    j = _spin(j)
    for name in ("alpha", "gamma"):
        _finite_angle(name, getattr(r, name))
    mv = (j.twice - 2 * np.arange(j.dim)) / 2.0
    d = wigner_d_matrix(j, r.beta)
    left = np.exp(-1j * r.alpha * mv)
    right = np.exp(-1j * r.gamma * mv)
    return Operator(j, left[:, None] * d * right[None, :])


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
    """Deterministic Haar sample of the requested length."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        alpha = 2.0 * math.pi * rng.random()
        gamma = 2.0 * math.pi * rng.random()
        beta = math.acos(2.0 * rng.random() - 1.0)
        out.append(EulerAngles(alpha, beta, gamma))
    return out
