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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._logfact import ln_factorial
from .spin_core import HalfInt, Operator, _spin

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
    ch, sh = _half_angle(r.beta)
    a = cmath.exp(-1j * half_sum) * ch
    b = cmath.exp(1j * half_diff) * sh
    return Su2(a, b)


def _half_angle(beta: float) -> tuple[float, float]:
    """cos(beta/2), sin(beta/2) with exact zeros at beta = 0, pi, 2pi.

    Exact multiples of pi mean the exact rotation, so the vanishing
    half-angle function is snapped to 0.0 rather than left at ~1e-16.
    """
    ch = math.cos(0.5 * beta)
    sh = math.sin(0.5 * beta)
    if beta == math.pi or beta == -math.pi:
        ch = 0.0
    if beta == 2.0 * math.pi or beta == -2.0 * math.pi:
        sh = 0.0
    return ch, sh


def _half_angles(beta) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise _half_angle over an array of angles, with the same snaps."""
    beta = np.asarray(beta, dtype=float)
    ch = np.where(np.abs(beta) == math.pi, 0.0, np.cos(0.5 * beta))
    sh = np.where(np.abs(beta) == 2.0 * math.pi, 0.0, np.sin(0.5 * beta))
    return ch, sh


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


def _d_entry(two_j: int, two_m: int, two_n: int, ch: float, sh: float) -> float:
    """One little-d entry via the alternating half-angle monomial sum."""
    jm = (two_j + two_m) // 2
    jmm = (two_j - two_m) // 2
    jn = (two_j + two_n) // 2
    jnn = (two_j - two_n) // 2
    mn = (two_m - two_n) // 2
    s_lo = max(0, -mn)
    s_hi = min(jn, jmm)
    if s_hi < s_lo:
        return 0.0
    ln_pref = 0.5 * (
        ln_factorial(jm) + ln_factorial(jmm) + ln_factorial(jn) + ln_factorial(jnn)
    )
    sign_pref = -1.0 if mn % 2 else 1.0
    ln_ch = math.log(abs(ch)) if ch != 0.0 else -math.inf
    ln_sh = math.log(abs(sh)) if sh != 0.0 else -math.inf
    logs = []
    signs = []
    for s in range(s_lo, s_hi + 1):
        p = jn + jmm - 2 * s  # 2j + n - m - 2s
        q = mn + 2 * s
        ln_t = -(
            ln_factorial(s)
            + ln_factorial(jn - s)
            + ln_factorial(mn + s)
            + ln_factorial(jmm - s)
        )
        ln_t += 0.0 if p == 0 else p * ln_ch
        ln_t += 0.0 if q == 0 else q * ln_sh
        if ln_t == -math.inf:
            continue
        sign = -1.0 if s % 2 else 1.0
        if ch < 0.0 and p % 2:
            sign = -sign
        if sh < 0.0 and q % 2:
            sign = -sign
        logs.append(float(ln_t))
        signs.append(sign)
    if not logs:
        return 0.0
    shift = max(logs)
    acc = sum(s * math.exp(t - shift) for t, s in zip(logs, signs))
    return sign_pref * math.exp(ln_pref + shift) * acc


def wigner_d(j, m, n, beta: float) -> float:
    """Little-d matrix element d^j_{m,n}(beta); real by construction."""
    j = _spin(j)
    m = HalfInt.of(m)
    n = HalfInt.of(n)
    for label in (m, n):
        if (j.twice - label.twice) % 2 != 0 or abs(label.twice) > j.twice:
            raise ValueError(f"label {label.value} invalid for spin {j.value}")
    ch, sh = _half_angle(float(beta))
    return _d_entry(j.twice, m.twice, n.twice, ch, sh)


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full real little-d matrix, rows/cols in descending m and n.

    Vectorized over the (m, n, s) grid in the log domain; the summation
    shift is taken per (m, n) entry so large-j prefactors never overflow.
    """
    j = _spin(j)
    tj = j.twice
    dim = j.dim
    ch, sh = _half_angle(float(beta))
    lf = ln_factorial(np.arange(tj + 1))
    two_m = tj - 2 * np.arange(dim)
    jm = (tj + two_m) // 2  # j + m, descending from 2j to 0

    m_ax = jm[:, None, None]  # j+m for the row
    n_ax = jm[None, :, None]  # j+n for the column
    s_ax = np.arange(tj + 1)[None, None, :]

    p = n_ax - m_ax + tj - 2 * s_ax  # 2j + n - m - 2s
    q = m_ax - n_ax + 2 * s_ax  # m - n + 2s
    # All four factorial arguments nonnegative: s, j+n-s, m-n+s, j-m-s.
    valid = (m_ax - n_ax + s_ax >= 0) & (s_ax <= n_ax) & (s_ax <= tj - m_ax)

    ln_ch = math.log(abs(ch)) if ch != 0.0 else -math.inf
    ln_sh = math.log(abs(sh)) if sh != 0.0 else -math.inf

    with np.errstate(invalid="ignore"):
        ln_t = np.where(p == 0, 0.0, p * ln_ch) + np.where(q == 0, 0.0, q * ln_sh)
    denom = (
        lf[s_ax]
        + lf[np.clip(n_ax - s_ax, 0, tj)]
        + lf[np.clip(m_ax - n_ax + s_ax, 0, tj)]
        + lf[np.clip(tj - m_ax - s_ax, 0, tj)]
    )
    ln_t = np.where(valid, ln_t - denom, -np.inf)

    sign = np.where(s_ax % 2 == 0, 1.0, -1.0)
    if ch < 0.0:
        sign = sign * np.where(p % 2 == 0, 1.0, -1.0)
    if sh < 0.0:
        sign = sign * np.where(q % 2 == 0, 1.0, -1.0)

    shift = np.max(ln_t, axis=2, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    acc = np.sum(np.where(valid, sign * np.exp(ln_t - shift), 0.0), axis=2)

    ln_pref = 0.5 * (lf[jm][:, None] + lf[tj - jm][:, None] + lf[jm][None, :] + lf[tj - jm][None, :])
    sign_pref = np.where(((jm[:, None] - jm[None, :]) % 2) == 0, 1.0, -1.0)
    return sign_pref * np.exp(ln_pref + shift[:, :, 0]) * acc


def wigner_D_matrix(j, r: EulerAngles) -> Operator:
    """X_R on the spin-j space: e^{-i alpha m} d^j_{mn}(beta) e^{-i gamma n}."""
    j = _spin(j)
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
