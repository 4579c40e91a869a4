"""Monopole (spin-weighted) spherical harmonics and full-sphere Landau codes.

A particle on the sphere threaded by 2j flux quanta has wavefunctions
jY^l_m(theta, phi) labeled by l >= |j|, |m| <= l, with l, m running over
the integer lattice offset by j.  Two independent evaluation routes are
provided:

  jacobi    -- the closed normalized form.  The raw expression carries a
               Jacobi polynomial with negative parameters -(m+j), -(m-j)
               of degree l+m; parameter-shift identities fold it, in
               every sign region, into

                 sign * sqrt((2l+1)/4pi) * fact
                      * sin(theta/2)^|m+j| cos(theta/2)^|m-j|
                      * P_deg^(|m+j|, |m-j|)(cos theta) * e^{i(m+j)phi},

               deg = l - max(|m|, |j|), sign = (-1)^{m+j} when m+j > 0
               else +1, and fact the square root of
               (l-m)!(l+m)!/((l-j)!(l+j)!), or of its inverse when
               |m| < |j|: sqrt(C(2l, l + near)/C(2l, l + far)), a ratio
               of two entries of one binomial row, with near and far the
               smaller and the larger of |m| and |j| (_factorial_part).
               All shifted parameters are nonnegative, so the polynomial
               is evaluated by the stable three-term recurrence in the
               degree (_jacobi, used by this route alone).  The factor
               and the half-angle powers join the recurrence's
               power-of-two exponent, so no l overflows.
               One function evaluates it for label arrays:
               harmonic_table makes one call per (l, m) over its grid,
               a Landau code one call in all.
  wigner-d  -- sqrt((2l+1)/4pi) e^{i(m+j)phi} d^l_{j,-m}(theta), from the
               Wigner-d kernel (rotations._d_columns: tridiagonal
               eigenvectors, no Jacobi polynomials), so the two routes
               are independent computations.

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

from .coherent import _binomial_row, _sqrt_ratio, coherent_amplitudes
from .rotations import _half_angles, _wigner_d_entries
from .spin_core import HalfInt, _finite_array, _integer, m_index

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
    on the rotation matrix elements).  The evaluator raises ValueError on
    a non-finite theta or phi; theta is not confined to [0, pi], where
    both routes agree.
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

    if route not in ("jacobi", "wigner-d"):
        raise ValueError(f"unknown route {route!r}")

    def evaluator(theta, phi):
        theta, phi = _finite_array("theta", theta), _finite_array("phi", phi)
        if route == "jacobi":
            out = _jacobi_route(j.twice, l.twice, m.twice, theta, phi)
        else:
            d_vals = _wigner_d_entries(l.twice, j.twice, -m.twice, theta)
            phase = np.exp(1j * ((m.twice + j.twice) // 2) * np.asarray(phi, dtype=float))
            out = math.sqrt((l.twice + 1) / _FOUR_PI) * d_vals * phase
        return out if out.ndim else complex(out)

    return MonopoleHarmonic(j, l, m, evaluator)


def _jacobi_route(tj: int, tl, tm, theta, phi) -> np.ndarray:
    """jY^l_m(theta, phi) by the folded Jacobi form (module docstring).

    tj, tl, tm are twice j, l, m; tl and tm may be integer arrays that
    broadcast with theta and phi, many harmonics in one recurrence pass.
    The factorial prefactor (_factorial_part) is a mantissa and a
    power-of-two exponent, and the half-angle powers are split the same
    way where they fall below 2**-200 (_power_parts): all three exponents
    join the recurrence's, so nothing overflows at any l.
    """
    aa = (tm + tj) // 2  # m + j, integer of either sign
    bb = (tm - tj) // 2  # m - j
    sign = np.where((aa > 0) & (aa % 2 == 1), -1.0, 1.0)
    scale, k_fact = _factorial_part(tl, tj, tm)
    pref = sign * np.sqrt((tl + 1) / _FOUR_PI) * scale
    deg = (tl - np.maximum(abs(tm), abs(tj))) // 2
    th = np.asarray(theta, dtype=float)
    ch, sh = _half_angles(th)
    x = np.where(th == math.pi, -1.0, np.cos(th))
    ph = np.asarray(phi, dtype=float)
    p, e = _jacobi(deg, abs(aa), abs(bb), x)
    sh_pow, k_sh = _power_parts(sh, abs(aa))
    ch_pow, k_ch = _power_parts(ch, abs(bb))
    mag = np.ldexp(pref * sh_pow * ch_pow * p, e + (k_fact + k_sh + k_ch))
    return mag * np.exp(1j * aa * ph)


_HUGE_EXP = 512
_RESCALE_EVERY = 8
_HUGE = 2.0**_HUGE_EXP
_UNHUGE = 2.0**-_HUGE_EXP
# Cody-Waite split of log(2): q * _LN2_HI is exact for |q| < 2**20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _jacobi(n, a, b, x) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(a,b)(x) = p * 2**e elementwise, by the three-term recurrence
    in the degree.

    n, a, b are nonnegative integers (not checked) and x floats; all four
    broadcast.  Nonnegative parameters keep every recurrence coefficient
    positive (no 0/0 cases); the coefficients are integers, exact in
    floating point while 2n + a + b < 2**17.

    One pass runs every entry up to the largest degree.  An array of
    degrees is read entry by entry as the pass reaches each degree; a
    scalar degree is read at the end.  Scalar a, b and x stay Python
    floats, so a single polynomial at many points computes its
    coefficients once per degree, and a single entry recurs on scalars
    alone.  Every _RESCALE_EVERY degrees an entry past 2**512 is scaled by
    the exact power 2**-512, counted in e up to the entry's own degree;
    one step grows the larger of the last two values by a factor below
    2(a + b) + 4, so nothing overflows in between, and p * 2**e is the
    unscaled recurrence bit for bit.
    """
    shape = np.broadcast(n, a, b, x).shape
    size = math.prod(shape)
    by_entry = isinstance(n, np.ndarray) and n.ndim > 0
    degrees = np.broadcast_to(n, shape).ravel() if by_entry else int(n)
    top = int(degrees.max()) if by_entry else degrees
    a, b, x = (
        (v if v.shape == shape else np.broadcast_to(v, shape)).astype(float, copy=False).ravel()
        if isinstance(v, np.ndarray) and v.ndim
        else float(v)
        for v in (a, b, x)
    )
    s, a2_b2 = a + b, a * a - b * b
    p, e = np.ones(size), np.zeros(size, dtype=np.int64)
    # A single entry recurs on scalars, many on arrays.
    p_prev = np.ones(size) if shape else 1.0
    p_cur = (0.5 * (a - b) + (1.0 + 0.5 * s) * x) * p_prev
    for k in range(1, top + 1):
        if k > 1:
            tk = s + 2.0 * k
            tk1, tk2 = tk - 1.0, tk - 2.0
            c0 = 2.0 * k * (k + s) * tk2
            c1 = tk1 * tk * tk2
            c2 = tk1 * a2_b2
            c3 = 2.0 * (k - 1.0 + a) * (k - 1.0 + b) * tk
            p_prev, p_cur = p_cur, ((c1 * x + c2) * p_cur - c3 * p_prev) / c0
        if k % _RESCALE_EVERY == 0:
            big = np.maximum(np.abs(p_cur), np.abs(p_prev)) > _HUGE
            if np.any(big):
                p_cur = np.where(big, p_cur * _UNHUGE, p_cur)
                p_prev = np.where(big, p_prev * _UNHUGE, p_prev)
                e += np.where(big & (degrees >= k), _HUGE_EXP, 0)
        if by_entry:
            np.copyto(p, p_cur, where=degrees == k)
    if not by_entry:
        p = p_cur if top else p_prev
    return np.asarray(p).reshape(shape), e.reshape(shape)


def _factorial_part(tl, tj, tm):
    """sqrt(C(2l, l + near)/C(2l, l + far)) = value * 2**k, near and far
    the smaller and the larger of |j| and |m|: the jacobi route's
    sqrt((l-m)!(l+m)!/((l-j)!(l+j)!)), or its inverse where |m| < |j|.

    A Python-int label (one harmonic, the `harmonics` CLI) takes the square
    root of the exact integer ratio (_sqrt_ratio), to half an ulp: 6e-17
    at l = 2000 and l = 30000.5 against 50-digit mpmath, where a
    difference of log-factorials lost 1.7e-12 and up to 9e-11.  Label
    arrays (the Landau codes) read the ratio off the binomial row of 2l
    from its centre outward (_binomial_row), 64 distinct levels to one
    call, and take its square root last, which halves the chain's
    rounding: 4.3e-15 at most on the same labels.
    """
    near, far = np.minimum(abs(tm), abs(tj)), np.maximum(abs(tm), abs(tj))
    if isinstance(tl, int):
        return _sqrt_ratio(math.comb(tl, (tl + int(near)) // 2), math.comb(tl, (tl + int(far)) // 2))
    tl, near, far = np.broadcast_arrays(tl, near, far)
    levels, col = np.unique(tl, return_inverse=True)
    col = col.reshape(tl.shape)
    starts = (levels + 1) // 2
    value, k = np.empty(tl.shape), np.empty(tl.shape, dtype=np.int64)
    for lo in range(0, len(levels), 64):  # 64 levels to a call keep its table small
        mant, exps = _binomial_row(levels[lo : lo + 64], starts[lo : lo + 64])
        at = (lo <= col) & (col < lo + 64)
        c, start = col[at] - lo, starts[col[at]]
        a, b = (tl[at] + near[at]) // 2 - start, (tl[at] + far[at]) // 2 - start
        e = exps[c, a].astype(np.int64) - exps[c, b]
        value[at], k[at] = np.sqrt(np.ldexp(mant[c, a] / mant[c, b], e % 2)), e // 2
    return value, k


# A half-angle power below 2**-200 is taken as m * 2**k with m near 1, so
# that it multiplies the other factors without underflow.
_SAFE_MIN = 2.0**-200


def _power_parts(base, n):
    """base**n = value * 2**k for |base| <= 1 and integers n >= 0, with
    k = 0 and value = base**n itself down to 2**-200; below, n ln|base| is
    split as k ln 2 + r with k = round(n ln|base| / ln 2) and k ln 2 in two
    parts (a Cody-Waite split), and value = exp(r).  The mask is the
    value's, so a value an ulp below 2**-200 is split even where the
    logarithm rounds onto the threshold."""
    value = base**n
    far = (np.abs(value) < _SAFE_MIN) & (base != 0.0)
    if not far.any():
        return value, 0
    ln_value = n * np.log(np.abs(np.where(far, base, 1.0)))
    k = np.where(far, np.rint(ln_value / math.log(2.0)), 0.0)
    scaled = np.exp(np.where(far, (ln_value - k * _LN2_HI) - k * _LN2_LO, ln_value))
    sign = np.where((base < 0.0) & (n % 2 == 1), -1.0, 1.0)
    return np.where(far, sign * scaled, value), k.astype(np.int64)


def lowest_level_bridge(j, m, n_theta: int = 8, n_phi: int = 8) -> float:
    """Max grid residual of the l = j harmonic against the LLL amplitude.

    Checks jY^j_{-m}(theta, phi) = (-1)^{j-m} sqrt((2j+1)/4pi)
    <j, m | theta, phi> pointwise; the right side is the coherent-state
    amplitude, so this ties the full-sphere tower to the projected LLL.
    """
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
    N = _integer("N", N)
    if N < 1:
        raise ValueError("N must be at least 1")
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("codes are built for nonnegative spin weight")
    l_max = HalfInt(j.twice + 16 * N) if l_max is None else HalfInt.of(l_max)
    if l_max.twice < j.twice or (l_max.twice - j.twice) % 2:
        raise ValueError("l_max must be j plus a nonnegative integer")

    labels = [
        (tl, p)
        for tl in range(j.twice, l_max.twice + 1, 2)
        for p in range(math.ceil((j.twice - tl) / (2 * N)), (j.twice + tl) // (2 * N) + 1)
    ]
    tl, p = np.array(labels).T
    amps = _jacobi_route(j.twice, tl, 2 * p * N - j.twice, math.pi / 2.0, 0.0).real
    sqrt_n = math.sqrt(N)
    entries = []
    for (tl, p), amp in zip(labels, amps.tolist()):
        c0 = sqrt_n * amp
        c1 = c0 if p % 2 == 0 else -c0
        entries.append(LandauEntry(HalfInt(tl), p, HalfInt(2 * p * N - j.twice), amp, c0, c1))

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
    """Rows (l, m, theta, phi, re, im) for every harmonic up to l_max;
    a non-finite theta or phi raises ValueError."""
    j = HalfInt.of(j)
    l_max = HalfInt.of(l_max)
    tt, pp = np.meshgrid(_finite_array("theta", thetas), _finite_array("phi", phis), indexing="ij")
    grid = list(zip(tt.ravel().tolist(), pp.ravel().tolist()))
    rows = []
    for tl in range(abs(j.twice), l_max.twice + 1, 2):
        for tm in range(-tl, tl + 1, 2):
            vals = _jacobi_route(j.twice, tl, tm, tt, pp).ravel()
            rows.extend(
                (tl / 2.0, tm / 2.0, th, ph, re, im)
                for (th, ph), re, im in zip(grid, vals.real.tolist(), vals.imag.tolist())
            )
    return rows
