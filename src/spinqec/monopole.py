"""Monopole (spin-weighted) spherical harmonics and full-sphere Landau codes.

A particle on the sphere threaded by 2j flux quanta has wavefunctions
jY^l_m(theta, phi) labeled by l >= |j|, |m| <= l, with l, m running over
the integer lattice offset by j.  Two independent evaluation routes are
provided:

  jacobi    -- the closed normalized form.  The raw expression carries a
               Jacobi polynomial with negative parameters -(m+j), -(m-j)
               of degree l+m; parameter-shift identities fold it, in
               every sign region, into

                 sign * sqrt((2l+1)/4pi) * exp(ln_fact)
                      * sin(theta/2)^|m+j| cos(theta/2)^|m-j|
                      * P_deg^(|m+j|, |m-j|)(cos theta) * e^{i(m+j)phi},

               deg = l - max(|m|, |j|), sign = (-1)^{m+j} when m+j > 0
               else +1, and ln_fact = +/- (1/2) log of
               (l-m)!(l+m)!/((l-j)!(l+j)!) with the minus branch when
               |m| < |j|.  All shifted parameters are nonnegative, so
               the polynomial is evaluated by the stable three-term
               recurrence in the degree.
  wigner-d  -- sqrt((2l+1)/4pi) e^{i(m+j)phi} d^l_{j,-m}(theta).

The z-axis gauge is the one regular at the north pole: jY^l_m(0, phi) =
sqrt((2l+1)/4pi) delta_{m,-j}, with the antipodal-gauge counterpart
reachable through the parity identity
-jY^l_m(pi - theta, phi) = (-1)^{l+m} e^{-2ij phi} jY^l_m(theta, phi).

Full-sphere Landau qubit codes place N-point rings on the equator using
all levels l >= |j|.  In the angular momentum basis the codewords are

  |r> = sqrt(N) sum_{l >= |j|} sum_{|pN-j| <= l}
        (-1)^{pr} jY^l_{pN-j}(pi/2, 0)* |l, pN-j>,

supported only on m + j = 0 (mod N).  The codewords are delta-function
normalized, so any truncation at l_max carries a reported norm deficit.
A momentum kick multiplying by a weight-j harmonic of level l shifts
m + j by at most l + j; the support lattice pins m + j only modulo N,
so the kick is diagnosable exactly when l + j < N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._logfact import ln_factorial
from .rotations import _half_angles, wigner_d
from .spin_core import HalfInt

__all__ = [
    "MonopoleHarmonic",
    "FullLandauCode",
    "LandauEntry",
    "MomentumShiftVerdict",
    "monopole_Y",
    "lowest_level_bridge",
    "build_full_landau_code",
    "momentum_shift_analysis",
    "correctable_shift_count",
    "harmonic_table",
]

_FOUR_PI = 4.0 * math.pi


def _jacobi(n: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """P_n^(a,b)(x) by the three-term recurrence in the degree.

    Parameters must be nonnegative, which keeps every recurrence
    coefficient positive-definite (no 0/0 cases).
    """
    if n < 0 or a < 0 or b < 0:
        raise ValueError("degree and parameters must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p_cur = 0.5 * (a - b) + (1.0 + 0.5 * (a + b)) * x
    for k in range(2, n + 1):
        c0 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c1 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p_prev, p_cur = p_cur, ((c1 * x + c2) * p_cur - c3 * p_prev) / c0
    return p_cur


@dataclass(frozen=True)
class MonopoleHarmonic:
    """One harmonic jY^l_m with a vectorized (theta, phi) evaluator."""

    j: HalfInt
    l: HalfInt
    m: HalfInt
    evaluator: Callable[..., np.ndarray]

    def __call__(self, theta, phi):
        return self.evaluator(theta, phi)


def monopole_Y(j, l, m, route: str = "jacobi") -> MonopoleHarmonic:
    """Harmonic of spin weight j (negative weights allowed), level l.

    route selects the evaluation formula: "jacobi" (folded closed form,
    the production route) or "wigner-d" (independent cross-check built
    on the rotation matrix elements).
    """
    j = HalfInt.of(j)
    l = HalfInt.of(l)
    m = HalfInt.of(m)
    if l.twice < abs(j.twice):
        raise ValueError(f"level l={l} must be at least |j|={abs(j.value)}")
    if abs(m.twice) > l.twice:
        raise ValueError(f"|m|={abs(m.value)} exceeds l={l}")
    if (l.twice - j.twice) % 2 or (l.twice - m.twice) % 2:
        raise ValueError("l, m, j must share integer offsets (parity)")

    aa = (m.twice + j.twice) // 2  # m + j, integer of either sign
    bb = (m.twice - j.twice) // 2  # m - j
    norm = math.sqrt((l.twice + 1) / _FOUR_PI)

    if route == "wigner-d":

        def evaluator(theta, phi):
            th = np.atleast_1d(np.asarray(theta, dtype=float))
            ph = np.asarray(phi, dtype=float)
            d_vals = np.array([wigner_d(l, j, -m, t) for t in th])
            out = norm * d_vals.reshape(np.shape(theta)) * np.exp(1j * aa * ph)
            return out if out.ndim else complex(out)

        return MonopoleHarmonic(j, l, m, evaluator)
    if route != "jacobi":
        raise ValueError(f"unknown route {route!r}")

    lm = (l.twice - m.twice) // 2
    lpm = (l.twice + m.twice) // 2
    lj = (l.twice - j.twice) // 2
    lpj = (l.twice + j.twice) // 2
    ln_half = 0.5 * float(
        ln_factorial(lm) + ln_factorial(lpm) - ln_factorial(lj) - ln_factorial(lpj)
    )
    ln_fact = ln_half if abs(m.twice) >= abs(j.twice) else -ln_half
    sign = -1.0 if (aa > 0 and aa % 2) else 1.0
    pref = sign * norm * math.exp(ln_fact)
    deg = (l.twice - max(abs(m.twice), abs(j.twice))) // 2
    pa, pb = abs(aa), abs(bb)

    def evaluator(theta, phi):
        th = np.asarray(theta, dtype=float)
        ch, sh = _half_angles(th)
        x = np.where(th == math.pi, -1.0, np.cos(th))
        ph = np.asarray(phi, dtype=float)
        out = pref * sh**pa * ch**pb * _jacobi(deg, pa, pb, x) * np.exp(1j * aa * ph)
        return out if out.ndim else complex(out)

    return MonopoleHarmonic(j, l, m, evaluator)


def lowest_level_bridge(j, m, n_theta: int = 8, n_phi: int = 8) -> float:
    """Max grid residual of the l = j harmonic against the LLL amplitude.

    Checks jY^j_{-m}(theta, phi) = (-1)^{j-m} sqrt((2j+1)/4pi)
    <j, m | theta, phi> pointwise; the right side is the coherent-state
    amplitude, so this ties the full-sphere tower to the projected LLL.
    """
    from .coherent import coherent_amplitudes
    from .spin_core import m_index

    j = HalfInt.of(j)
    m = HalfInt.of(m)
    if abs(m.twice) > j.twice:
        raise ValueError("|m| must not exceed j")
    harm = monopole_Y(j, j, -m)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    lhs = harm(tt.ravel(), pp.ravel())
    amps = coherent_amplitudes(j, tt.ravel(), pp.ravel())
    parity = -1.0 if ((j.twice - m.twice) // 2) % 2 else 1.0
    rhs = parity * math.sqrt((j.twice + 1) / _FOUR_PI) * amps[m_index(j, m)]
    return float(np.max(np.abs(lhs - rhs)))


# ----------------------------------------------------------------------
# Full-sphere Landau codes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LandauEntry:
    """One (l, p) support point: m = pN - j, amp = jY^l_m(pi/2, 0)."""

    l: HalfInt
    p: int
    m: HalfInt
    amp: float
    c0: float
    c1: float


@dataclass(frozen=True)
class FullLandauCode:
    """Equatorial N-ring qubit codewords truncated at l_max.

    The untruncated codewords are delta-function normalized, so norm_sq
    grows without bound as l_max increases and the reported deficit
    1 - norm_sq decreases monotonically through zero.
    """

    N: int
    j: HalfInt
    l_max: HalfInt
    entries: tuple[LandauEntry, ...]
    norm_sq: float
    deficit: float
    inner_product: float

    @property
    def support_m(self) -> tuple[HalfInt, ...]:
        return tuple(e.m for e in self.entries)

    def level_block(self, l) -> tuple[tuple[HalfInt, ...], np.ndarray, np.ndarray]:
        """(m labels, codeword-0 coeffs, codeword-1 coeffs) at level l."""
        l = HalfInt.of(l)
        picked = [e for e in self.entries if e.l == l]
        ms = tuple(e.m for e in picked)
        return ms, np.array([e.c0 for e in picked]), np.array([e.c1 for e in picked])


def build_full_landau_code(N: int, j, l_max=None) -> FullLandauCode:
    """Tabulate both codewords over l in [|j|, l_max].

    l_max defaults to j + 8N.  Entries enumerate exactly the support
    lattice m = pN - j, so the m + j = 0 (mod N) pattern holds by
    construction; callers can still verify it in integer arithmetic.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be at least 1")
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("codes are built for nonnegative spin weight")
    l_max = HalfInt(j.twice + 16 * N) if l_max is None else HalfInt.of(l_max)
    if l_max.twice < j.twice or (l_max.twice - j.twice) % 2:
        raise ValueError("l_max must be j plus a nonnegative integer")

    sqrt_n = math.sqrt(N)
    entries = []
    for tl in range(j.twice, l_max.twice + 1, 2):
        l = HalfInt(tl)
        p_lo = math.ceil((j.twice - tl) / (2 * N))
        p_hi = math.floor((j.twice + tl) / (2 * N))
        for p in range(p_lo, p_hi + 1):
            m = HalfInt(2 * p * N - j.twice)
            amp = float(np.real(monopole_Y(j, l, m)(math.pi / 2.0, 0.0)))
            c0 = sqrt_n * amp
            c1 = c0 if p % 2 == 0 else -c0
            entries.append(LandauEntry(l, p, m, amp, c0, c1))

    norm_sq = sum(e.c0 * e.c0 for e in entries)
    inner = sum(e.c0 * e.c1 for e in entries)
    return FullLandauCode(N, j, l_max, tuple(entries), norm_sq, 1.0 - norm_sq, inner)


@dataclass(frozen=True)
class MomentumShiftVerdict:
    """Diagnosability of a weight-j momentum kick of level l."""

    l: HalfInt
    m: HalfInt
    kick_reach: float
    window: float
    correctable: bool
    trace: str


def momentum_shift_analysis(code: FullLandauCode, l, m) -> MomentumShiftVerdict:
    """Decide whether the kick multiplying by jY^l_m is correctable.

    The codeword support fixes m + j modulo N; the kick changes m + j by
    at most l + j, and a residue determines the shift uniquely only
    inside the half-open window of radius N/2.
    """
    l = HalfInt.of(l)
    m = HalfInt.of(m)
    if abs(m.twice) > l.twice:
        raise ValueError("|m| must not exceed l")
    j = code.j
    reach = l.value + j.value
    window = code.N / 2.0
    correctable = reach < window
    trace = (
        f"support lattice fixes m + j mod {code.N}; level-{l.value:g} kick moves "
        f"m + j by at most l + j = {reach:g}, window radius N/2 = {window:g}: "
        f"{'unique' if correctable else 'ambiguous'}"
    )
    return MomentumShiftVerdict(l, m, reach, window, correctable, trace)


def correctable_shift_count(code: FullLandauCode) -> int:
    """Number of integer kick levels l >= 1 with l + j < N/2.

    The identity-like l = 0 kick is excluded from the count.
    """
    top = math.ceil(code.N / 2.0 - code.j.value) - 1
    return max(0, top)


def harmonic_table(j, l_max, thetas, phis) -> list[tuple[float, ...]]:
    """Rows (l, m, theta, phi, re, im) for every harmonic up to l_max."""
    j = HalfInt.of(j)
    l_max = HalfInt.of(l_max)
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    rows = []
    for tl in range(abs(j.twice), l_max.twice + 1, 2):
        l = HalfInt(tl)
        for tm in range(-tl, tl + 1, 2):
            m = HalfInt(tm)
            harm = monopole_Y(j, l, m)
            for th in thetas:
                vals = harm(np.full_like(phis, th), phis)
                vals = np.atleast_1d(vals)
                for ph, v in zip(phis, vals):
                    rows.append((l.value, m.value, float(th), float(ph), v.real, v.imag))
    return rows
