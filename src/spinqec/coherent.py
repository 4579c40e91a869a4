"""Spin coherent states, their closed-form matrix elements, and the
sphere quadrature that realizes diagonal operators exactly.

A coherent state at (theta, phi) has amplitudes

    c_m = sqrt(C(2j, j+m)) cos^{j+m}(theta/2) sin^{j-m}(theta/2)
          * exp(i (j-m) phi),

i.e. the m = j column of X_R with R = (phi, theta, -phi).  Their
magnitudes are the square roots of the binomial law b(j - m; 2j,
sin^2(theta/2)), which the package writes in one place: _binomial_row
takes running products of the ratios C(n, a+1)/C(n, a) = (n - a)/(a + 1),
rescaled by exact powers of two, with no log-factorials (Loader, "Fast
and Accurate Computation of Binomial Probabilities", 2000).  Each column
of magnitudes is that chain brought to unit length, as the law sums to 1
(_amplitude_magnitudes).  Exact pole inputs (theta = 0 or pi) produce exact basis states: the
vanishing half-angle factor is snapped to zero, so antipodal
constructions are orthogonal analytically, not just to rounding.

Equivalently |Omega> is the 2j-fold symmetric power of the spinor
xi = (cos(theta/2), exp(i phi) sin(theta/2)), and a rotation acts on it
through its SU(2) element U.  Every closed-form matrix element is
therefore one spinor contraction raised to the 2j-th power,

    <Omega_out| X_U |Omega_in> = (xi_out^H U xi_in)^(2j),

which rotation_matrix_elements evaluates elementwise over arrays of
points and rotations.

The quadrature: coherent-state integrands are half-angle monomials
cos^a(theta/2) sin^b(theta/2) times sin(theta), in all four parity
families of (a, b).  In psi = theta/2 each is a trigonometric polynomial
of degree a + b + 2 on the quarter period [0, pi/2], so the colatitude
rule is a subperiodic trigonometric Gaussian rule: degree + 3 nodes
psi = pi/4 + 2 asin(sin(pi/8) xi), with xi and the positive weights from
a Stieltjes recurrence on a Fejer grid and one Golub-Welsch eigenproblem
of half the size, as the nodes come in pairs +-xi.  Azimuthal integrals
use a uniform rule that is exact for every mode |k| < n_phi.  A symbol with one Fourier
mode and one half-angle monomial needs no rule: its realization is one
band in closed form (_mode_band).  The azimuthal phases of an amplitude
table come from two short tables of exponentials (_azimuthal_phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rotations import EulerAngles, rotate_vector, wigner_D_matrix, _half_angles
from .spin_core import HalfInt, Operator, StateVec, _axis_bands, _require_dense, _require_width, _spin, _tridiagonal_eigh
from .spin_core import _finite, _integer, _real, _real_array, m_index, m_values

__all__ = [
    "SphPoint",
    "coherent_state",
    "coherent_amplitudes",
    "overlap",
    "overlap_magnitude",
    "rotation_matrix_element",
    "equatorial_matrix_element",
    "rotate_point",
    "theta_rule",
    "sphere_quadrature",
    "SphereQuadrature",
    "DiagonalOp",
    "diagonal_operator",
    "lower_symbol",
    "y_symbol",
    "momentum_kick",
    "disentangle_check",
]

_TWO_PI = 2.0 * math.pi
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])
# Magnitudes below exp(_LN_FLOOR) are returned as exact zeros.
_LN_FLOOR = -700.0
# Rows of the short table of azimuthal phases (_azimuthal_phases).
_PHASE_BLOCK = 32
# No block of a binomial chain moves its products by more than 2^_CHAIN_BITS.
_CHAIN_BITS = 900


@dataclass(frozen=True)
class SphPoint:
    """A point on the unit sphere; phi is reduced modulo 2pi.

    Reduction is safe here (unlike for Euler angles) because coherent
    amplitudes depend on phi only through exp(i k phi) with integer k.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = _real("theta", self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", _finite("phi", self.phi) % _TWO_PI)

    @staticmethod
    def north() -> "SphPoint":
        return SphPoint(0.0, 0.0)

    @staticmethod
    def south(phi: float = 0.0) -> "SphPoint":
        return SphPoint(math.pi, phi)

    @property
    def n(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    def half_angles(self) -> tuple[float, float]:
        return tuple(float(v) for v in _half_angles(self.theta))


def coherent_amplitudes(j, thetas, phis) -> np.ndarray:
    """Amplitude matrix c[m_index, node] over arrays of sphere points.

    The magnitudes come from the binomial ratio chain (_amplitude_magnitudes),
    so no j overflows and each column is a unit vector to rounding; exact-pole
    columns contain exact zeros.  A theta outside [0, pi] or a non-finite
    phi raises ValueError, as SphPoint raises it; a string raises
    spin_core._real's TypeError.
    """
    j = _spin(j)
    thetas = np.atleast_1d(_real_array("theta", thetas))
    phis = np.atleast_1d(_real_array("phi", phis))
    thetas, phis = np.broadcast_arrays(thetas, phis)
    off = ~((0.0 <= thetas) & (thetas <= math.pi) & np.isfinite(phis))
    if off.any():  # SphPoint raises its own message at the first such point
        SphPoint(thetas[off][0], phis[off][0])
    mags = _amplitude_magnitudes(j.twice, thetas)  # first: its work tables are gone before the phases
    amps = _azimuthal_phases(j.twice, phis)
    amps *= mags
    return amps


def _azimuthal_phases(tj: int, phis: np.ndarray) -> np.ndarray:
    """exp(i (j - m) phi), shape (2j + 1, nodes), rows j - m = 0..2j.

    Up to 2j + 1 = 32 rows, one exponential per entry.  Beyond, with
    j - m = B h + l and 0 <= l < B = max(32, floor(sqrt(2j + 1))), each
    entry is exp(i B h phi) exp(i l phi): two short tables (_cis) and one
    complex product per entry, where one exponential per entry took most
    of a large table's time.  A single exponential carries the rounding of
    its argument, up to half an ulp of 2j phi (4.5e-13 at 2j = 1024); _cis
    keeps each table to about an ulp of 1, and the product adds about one
    more.
    """
    block = max(_PHASE_BLOCK, math.isqrt(tj + 1))
    if tj < block:
        return np.exp(1j * np.arange(tj + 1)[:, None] * phis[None, :])
    low, high = _cis(np.arange(block), phis), _cis(block * np.arange(tj // block + 1), phis)
    return (high[:, None, :] * low[None, :, :]).reshape(-1, len(phis))[: tj + 1]


def _cis(ks: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """exp(i k phi), shape (len(ks), nodes), for integers ks, to about an ulp
    of 1 at any size of k phi: the product is split exactly as p + e
    (Dekker's product, Veltkamp's splits), and exp(i (p + e)) is
    exp(i p) (1 + i e) to |e|^2 / 2."""
    k, phi = ks[:, None].astype(float), phis[None, :]
    p = k * phi
    (k_hi, k_lo), (phi_hi, phi_lo) = _split(k), _split(phi)
    e = ((k_hi * phi_hi - p) + k_hi * phi_lo + k_lo * phi_hi) + k_lo * phi_lo
    return np.exp(1j * p) * (1.0 + 1j * e)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with x = hi + lo exactly and each half of 26 bits or fewer."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _binomial_row(n, start=0, length=None, odds=None, root: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Entries a = start, start + 1, ... of the binomial row C(n, a) over
    its entry at start, square-rooted where root and times odds^(a - start):
    (mantissa, exponent), entry = mantissa * 2^exponent, each of shape
    (chains, length), one chain per row.

    The package's one writer of a binomial row.  It takes running products
    of the ratios C(n, a+1)/C(n, a) = (n - a)/(a + 1), each rounded once,
    so no entry carries the rounding of ln C(n, a), near n ln 2, that a
    difference of log-factorials leaves in it.  From any start the products
    stay within C(n, n/2) < 2^n of 1 (2^(n/2) where root), and odds lie in
    [0, 1]: a row with n (n/2 where root) up to _CHAIN_BITS runs as one
    block.  A longer one is brought back to [1/2, 1) by an exact power of
    two, counted in the exponent, every floor(_CHAIN_BITS / log2 n) steps
    (log2 sqrt(n) where root), as one ratio lies in [1/n, n].  Where they
    are normal doubles, the mantissas are the unscaled running products bit
    for bit.

    n and start are integers, or integer arrays with one entry per chain;
    length defaults to the longest, 1 + max(n - start), and past its own n
    a chain holds zeros.  odds, if given, holds one factor per chain.
    """
    n, start = np.atleast_1d(n)[:, None], np.atleast_1d(start)[:, None]
    length = int(np.max(n - start)) + 1 if length is None else length
    a = start + np.arange(length - 1.0)
    ratios = np.maximum(n - a, 0.0) / (a + 1.0)
    ratios = np.sqrt(ratios) if root else ratios
    top = int(np.max(n)) / (2 if root else 1)
    block = length if top <= _CHAIN_BITS else int(_CHAIN_BITS / math.log2(top))
    mant = np.empty((len(ratios) if odds is None else len(odds), length))
    mant[:, 0] = 1.0
    np.multiply(ratios, 1.0 if odds is None else odds[:, None], out=mant[:, 1:])
    # one block leaves every exponent at 0, held once per chain
    exps = np.zeros(mant.shape if block < length - 1 else (len(mant), 1), dtype=np.int32)
    for lo in range(0, length - 1, block):
        if lo:
            mant[:, lo], shift = np.frexp(mant[:, lo])
            exps[:, lo : lo + block + 1] = exps[:, lo : lo + 1] + shift[:, None]
        mant[:, lo + 1] *= mant[:, lo]
        np.cumprod(mant[:, lo + 1 : lo + block + 1], axis=1, out=mant[:, lo + 1 : lo + block + 1])
    return mant, np.broadcast_to(exps, mant.shape)


def _sqrt_ratio(num: int, den: int) -> tuple[float, int]:
    """sqrt(num / den) = mantissa * 2^exponent for positive integers, the
    mantissa in [1/2, 1) to about an ulp: the quotient is taken to 128 bits
    after an even power-of-two shift, which math.isqrt halves exactly."""
    shift = 128 - num.bit_length() + den.bit_length()
    shift += shift % 2
    quotient = (num << shift) // den if shift >= 0 else num // (den << -shift)
    mantissa, exponent = math.frexp(math.isqrt(quotient))
    return mantissa, exponent - shift // 2


def _amplitude_magnitudes(tj: int, thetas: np.ndarray) -> np.ndarray:
    """|c_m(theta)| = sqrt(C(2j, a)) cos^(2j-a)(theta/2) sin^a(theta/2) with
    a = j - m, shape (2j + 1, nodes), rows in descending m.

    A column is the square root of the binomial law b(a; 2j, sin^2(theta/2)),
    so it is the chain of _binomial_row with root and odds tan(theta/2),
    brought to unit length.  A node past pi/2 is read as pi - theta with
    its rows reversed, so the odds, tan(theta/2) or its inverse, are at most
    1.  They are taken in long double, where numpy has one wider than a
    double, and rounded once: row a carries a times their rounding, and
    sin/cos(theta/2) in doubles left 1.4e-13 at 2j = 1024.

    The column is first anchored at its m = j entry, cos^(2j)(theta/2) from
    _half_angles: divided by that entry and multiplied by the power.  Where
    the anchored column is a unit vector to 2^-48 it is kept, so small
    tables hold _half_angles' own powers (at j = 1/2 exactly its cosine);
    elsewhere, where the power has underflowed or its rounding, 2j times
    that of the cosine, shows, the column is divided by its 2-norm
    instead.  Both poles give exact basis vectors, and an entry that
    rounding carries past 1 next to a pole is set to 1.
    """
    odds = np.tan(np.asarray(thetas, dtype=np.longdouble) / 2)
    flip = odds > 1.0
    # theta = pi is the pole, as _half_angles snaps it
    odds = np.where(thetas == math.pi, 0.0, np.where(flip, 1.0 / np.maximum(odds, 1.0), odds)).astype(float)
    mant, exps = _binomial_row(tj, odds=odds, root=True)
    # each node's largest entry to [1/2, 1): by one power of two where the chain is one block
    if exps.any():
        mag = np.ldexp(mant, exps - np.max(exps + np.frexp(mant)[1], axis=1)[:, None], out=mant)
    else:
        mag = np.multiply(mant, np.ldexp(1.0, -np.frexp(np.max(mant, axis=1))[1])[:, None], out=mant)
    mag[flip] = mag[flip, ::-1]
    norm = np.sqrt(np.einsum("ij,ij->i", mag, mag))  # a node's sum is the same alone as in a table
    anchor = _half_angles(thetas)[0] ** tj
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        anchored = (mag[:, 0] >= 2.0**-1022) & (abs(anchor / mag[:, 0] * norm - 1.0) <= 2.0**-48)
    mag /= np.where(anchored, mag[:, 0], norm)[:, None]
    mag *= np.where(anchored, anchor, 1.0)[:, None]
    return np.minimum(mag, 1.0, out=mag).T


def coherent_state(j, p: SphPoint) -> StateVec:
    """The normalized coherent state |Omega> at p."""
    j = _spin(j)
    # p's angles are already read: arrays skip the object read of a list
    amps = coherent_amplitudes(j, np.array([p.theta]), np.array([p.phi]))[:, 0]
    return StateVec(j, amps)


def rotation_matrix_elements(j, out, r, inp, with_underflow: bool = False):
    """(xi_out^H U_R xi_in)^(2j), elementwise over points and rotations.

    out and inp are (thetas, phis) of sphere points and r is the Euler
    angles (alphas, betas, gammas) of R; all seven arrays broadcast
    together.  With U_R = [[a, -conj(b)], [b, conj(a)]],
    a = exp(-i(alpha + gamma)/2) cos(beta/2) and
    b = exp(i(alpha - gamma)/2) sin(beta/2), the contraction is written
    out term by term: the relative azimuth phi_in - phi_out is taken
    before exponentiating, so a point paired with itself under R = 1
    gives an exactly real base.  Entries whose magnitude falls below
    exp(-700) are clamped to exact zero; with_underflow=True returns
    (values, clamped) with a boolean mask of those entries.
    """
    tj = _spin(j).twice
    (theta_out, phi_out), (alpha, beta, gamma), (theta_in, phi_in) = out, r, inp
    c_out, s_out = _half_angles(theta_out)
    c_in, s_in = _half_angles(theta_in)
    c_r, s_r = _half_angles(beta)
    phi_out = np.asarray(phi_out, dtype=float)
    phi_in = np.asarray(phi_in, dtype=float)
    half_sum = 0.5 * (np.asarray(alpha, dtype=float) + gamma)
    half_diff = 0.5 * (np.asarray(alpha, dtype=float) - gamma)
    term_diag = (
        np.exp(-1j * half_sum) * c_out * c_in
        + np.exp(1j * half_sum) * np.exp(1j * (phi_in - phi_out)) * s_out * s_in
    )
    term_flip = np.exp(-1j * half_diff) * np.exp(1j * phi_in) * c_out * s_in - np.exp(
        1j * half_diff
    ) * np.exp(-1j * phi_out) * s_out * c_in
    values, clamped = _pow_two_j_arrays(term_diag * c_r - term_flip * s_r, tj)
    if with_underflow:
        return values, clamped
    return values


def _pow_two_j_arrays(base: np.ndarray, tj: int) -> tuple[np.ndarray, np.ndarray]:
    """base**(2j) elementwise in polar form: (values, clamped mask).

    The one 2j-th-power kernel of the package, with one caller,
    rotation_matrix_elements: zero gives exact zero, and
    magnitudes below exp(-700) are clamped to zero and flagged in the mask.
    The 2j-th power multiplies every rounding of arg(base) by 2j, so the
    phase is split exactly: base = i^q |base| exp(i a) with |a| <= pi/4,
    found by swapping and negating parts, and i^(2j q) is exact.  Only
    a, an arctangent of a ratio of magnitude at most 1, is scaled by 2j.
    log|base| is taken as cmath.log takes it, through log1p near
    |base| = 1.
    """
    if tj == 0:  # spin 0 has one state: every contraction to the 0th power is 1
        return np.ones_like(base, dtype=complex), np.zeros(np.shape(base), dtype=bool)
    x, y = base.real, base.imag
    abs_x, abs_y = np.abs(x), np.abs(y)
    big, small = np.maximum(abs_x, abs_y), np.minimum(abs_x, abs_y)
    swap = abs_y > abs_x
    mag = np.abs(base)
    zero = mag == 0.0
    with np.errstate(divide="ignore"):
        ln_mag = tj * np.where(
            (0.71 <= mag) & (mag <= 1.73),
            0.5 * np.log1p((big - 1.0) * (big + 1.0) + small * small),
            np.log(mag),
        )
    clamped = ~zero & (ln_mag < _LN_FLOOR)
    keep = ~(zero | clamped)
    # base = i^q |base| exp(i a): q = 0, 2 when |x| >= |y|, q = 1, 3 otherwise
    quarter = np.where(swap, 3 - 2 * (y > 0.0), 2 * (x < 0.0))
    # a = arctan(-x/y) or arctan(y/x), the ratio taken as small/big with the
    # sign bit of that quotient; IEEE division is correctly rounded and
    # symmetric in sign, so the bits agree.  Only kept entries divide, so
    # no quotient overflows or divides by zero; the rest read +0.
    ratio = np.divide(small, big, out=np.zeros(np.shape(big)), where=keep)
    negative = keep & (np.signbit(x) ^ np.signbit(y) ^ swap)
    angle = tj * np.arctan(np.where(negative, -ratio, ratio))
    turn = (_I_POWERS ** (tj % 4))[quarter]
    scale = np.exp(np.where(keep, ln_mag, -np.inf))
    values = scale * ((np.cos(angle) + 1j * np.sin(angle)) * turn)
    return values, clamped


def overlap(j, p1: SphPoint, p2: SphPoint) -> complex:
    """<Omega1|Omega2> in closed form: rotation_matrix_elements at R = 1.

    base = cos(t1/2)cos(t2/2) + exp(i(phi2 - phi1)) sin(t1/2)sin(t2/2),
    overlap = base^(2j); the phase convention has the ket azimuth with
    the + sign.
    """
    return complex(rotation_matrix_elements(j, (p1.theta, p1.phi), (0,) * 3, (p2.theta, p2.phi)))


def overlap_magnitude(j, p1: SphPoint, p2: SphPoint) -> float:
    """|<Omega1|Omega2>| = |cos(gamma/2)|^(2j) = ((1 + n1.n2)/2)^j.

    gamma, the angle between the two points, is 2 atan2(|n1 - n2|,
    |n1 + n2|), accurate at every separation (Kahan, "Miscalculating Area
    and Angles of a Needle-like Triangle", 2014), where 1 + n1.n2 loses
    all relative accuracy near the antipode and 1 - n1.n2 near
    coincidence.  The power is _ln_overlap_magnitude's; values below
    exp(-700) are exact zeros.
    """
    j = _spin(j)
    n1, n2 = p1.n, p2.n
    gamma = 2.0 * math.atan2(math.dist(n1, n2), math.dist(n1, -n2))
    ln_mag = _ln_overlap_magnitude(gamma, j.twice)
    return math.exp(ln_mag) if ln_mag > _LN_FLOOR else 0.0


def _ln_overlap_magnitude(y: float, tj) -> float:
    """ln |((1 + exp(i y))/2)^(2j)| = 2j ln|cos(y/2)|, any finite real y.

    The one real kernel of the overlap law |<Omega1|Omega2>| =
    |cos(gamma/2)|^(2j): recovery's block decode (_correct_and_decode,
    behind recover, finite_ancilla_note and the CLI's recovery-sweep) and
    tail_failure, lll_codes._coset_filter (cyclic_normalization,
    cyclic_overlap_closed_form), qec_check.equatorial_offdiag_bound and
    overlap_magnitude all take it from here.  y is first reduced into
    [-pi, pi].  Up to |y| = pi/2, where |cos(y/2)| >= cos(pi/4), about
    where _pow_two_j_arrays switches to log1p, |cos(y/2)| =
    1 - 2 sin^2(y/4) goes through log1p, whose argument stays above -0.3;
    beyond, it is sin((pi - |y|)/2), exactly 0 at |y| = pi, where the
    result is -inf, or 0.0 at spin 0 (tj = 0).

    pi - |y| is taken with math.pi, which is right for angles built from
    math.pi (lattice azimuths, 2 pi/d) or by atan2.  tail_failure's
    epsilon is a user angle meant exactly, so past pi/2 it keeps its own
    branch with the missing pi - math.pi; adding that here would move the
    bits of recover's decode.
    """
    y = abs(math.remainder(y, _TWO_PI))
    if y <= 0.5 * math.pi:
        return tj * math.log1p(-2.0 * math.sin(0.25 * y) ** 2)
    mag = math.sin(0.5 * (math.pi - y))
    return tj * math.log(mag) if mag > 0.0 else (-math.inf if tj else 0.0)


def rotation_matrix_element(
    j, out: SphPoint, r: EulerAngles, inp: SphPoint, with_underflow: bool = False
):
    """<Omega_out| X_R |Omega_in> in closed form: rotation_matrix_elements
    at one pair of points and one rotation.

    Magnitudes below about 1e-300 are clamped to exact zero; pass
    with_underflow=True to receive (value, clamped) instead of the bare
    value.
    """
    value, clamped = rotation_matrix_elements(
        j,
        (out.theta, out.phi),
        (r.alpha, r.beta, r.gamma),
        (inp.theta, inp.phi),
        with_underflow=True,
    )
    if with_underflow:
        return complex(value), bool(clamped)
    return complex(value)


def equatorial_matrix_element(j, phi_out: float, big_theta: float, phi_in: float) -> complex:
    """<pi/2, phi_out| exp(-i Theta L3) |pi/2, phi_in> in closed form.

    Equals ((exp(-i Theta/2) + exp(i Theta/2) exp(i(phi_in - phi_out)))/2)^(2j);
    the magnitude is ((1 + cos(Theta + phi_in - phi_out))/2)^j, peaked where
    the rotated azimuth phi_in + Theta meets phi_out: rotation_matrix_elements
    at theta = pi/2 and R = (Theta, 0, 0).
    """
    equator, r = math.pi / 2.0, (big_theta, 0.0, 0.0)
    return complex(rotation_matrix_elements(j, (equator, phi_out), r, (equator, phi_in)))


def rotate_point(r: EulerAngles, p: SphPoint) -> SphPoint:
    """Image of p under the classical rotation of R."""
    n = rotate_vector(r, p.n)
    theta = math.acos(max(-1.0, min(1.0, float(n[2]))))
    phi = math.atan2(float(n[1]), float(n[0]))
    return SphPoint(theta, phi)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------


@lru_cache(maxsize=16)
def _theta_recurrence(size: int) -> np.ndarray:
    """b[0] = beta_0 and b[k] = sqrt(beta_k), k < size: the recurrence of
    the weight 1/sqrt(1 - s^2 xi^2) on [-1, 1], s = sin(pi/8), whose
    Jacobi matrix has zero diagonal and off-diagonals b[1:]."""
    s = math.sin(math.pi / 8.0)
    # Discretized Stieltjes procedure on Fejer's first rule of m = 2 size + 48
    # Chebyshev points t_k = (k + 1/2) pi/m, exact to polynomial degree
    # m - 1; the weight, analytic inside the Bernstein ellipse of rho ~ 5,
    # is resolved far below rounding.  Its weights (2/m)(1 - 2 sum_l
    # cos(2 l t_k)/(4 l^2 - 1)) are one inverse FFT (Waldvogel, BIT 46, 195
    # (2006)).  The weight and the grid are even, so every alpha_k is zero
    # and the m/2 positive points, at twice their weight, carry every sum.
    m = 2 * size + 48
    k = np.arange(m // 2)
    x = np.cos((k + 0.5) * (math.pi / m))
    modes = np.zeros(m, dtype=complex)
    modes[: m // 2] = np.exp((1j * math.pi / m) * k) * (-4.0 / (4.0 * k * k - 1.0))
    modes[0] = 2.0
    w = np.fft.ifft(modes)[: m // 2].real * 2.0 / np.sqrt(1.0 - (s * x) ** 2)
    # the vectors hold sqrt(w) q_k, so each beta_k is one dot product
    b = np.empty(size)
    b[0] = w.sum()
    q_prev, q = np.zeros_like(x), np.sqrt(w / b[0])
    b_k = 0.0
    for k in range(1, size):
        q_prev *= -b_k
        q_prev += x * q
        b_k = math.sqrt(np.dot(q_prev, q_prev))
        q_prev /= b_k
        b[k] = b_k
        q_prev, q = q, q_prev
    b.setflags(write=False)
    return b


@lru_cache(maxsize=64)
def _theta_rule_cached(degree: int) -> tuple[np.ndarray, np.ndarray]:
    # psi = theta/2 on [0, pi/2] is the arc pi/4 + [-pi/4, pi/4]; the
    # subperiodic map psi = pi/4 + 2 asin(s xi), s = sin(pi/8), turns a
    # trigonometric polynomial of degree D + 2 in psi into an integrand that
    # a Gauss rule of n = D + 3 nodes for the weight 2s/sqrt(1 - s^2 xi^2) on
    # [-1, 1] integrates exactly.
    n = degree + 3
    s, c = math.sin(math.pi / 8.0), math.cos(math.pi / 8.0)
    # One recurrence of a power-of-two size, at least 512, serves every rule
    # up to that size, so a rule's bits depend on its degree alone.
    b = _theta_recurrence(max(512, 1 << (n - 1).bit_length()))[:n]
    # The nodes come in pairs +-xi (and 0 for odd n).  xi^2 are the
    # eigenvalues of the even rows of J^2, a tridiagonal block of ceil(n/2)
    # rows, diagonal b_2i^2 + b_2i+1^2 and off-diagonal b_2i+1 b_2i+2 (b_0 =
    # b_n = 0).  Its positive off-diagonals make every phase of the kernel 1.
    half = (n + 1) // 2
    off = np.zeros(n + 2)
    off[1:n] = b[1:]
    lo, hi = off[0 : 2 * half : 2], off[1 : 2 * half : 2]
    lam, vec, _ = _tridiagonal_eigh(lo * lo + hi * hi, hi[:-1] * lo[1:])
    # xi = |J_oe v|, J_oe the bidiagonal odd-from-even block: sqrt(lam) would
    # lose about n ulp near xi = 0.  For odd n the lowest vector is the null
    # vector, the zero node.
    jv = hi[:, None] * vec
    jv[:-1] += lo[1:, None] * vec[1:]
    xi = np.sqrt(np.einsum("ij,ij->j", jv, jv))
    # Golub-Welsch: the node pair shares beta_0 v_0^2, the zero node takes it whole
    g = 0.5 * b[0] * vec[0] ** 2
    odd = n % 2
    if odd:
        xi[0], g[0] = 0.0, 2.0 * g[0]
    # t = pi/2 - 4 asin(s xi), the node of -xi, free of cancellation as xi -> 1:
    # sin(pi/8 - asin(s xi)) = s (1 - xi^2)/(sqrt(1 - s^2 xi^2) + c xi), with
    # 1 - xi^2 taken from the eigenvalue, good to an ulp where xi^2 is near 1
    t = 4.0 * np.arcsin(s * (1.0 - lam) / (np.sqrt(1.0 - (s * xi) ** 2) + c * xi))
    lower = t[odd:][::-1]
    theta = np.concatenate((lower, math.pi - t))
    w_psi = 2.0 * s * np.concatenate((g[odd:][::-1], g))
    # self-check against every exact moment of exp(i k psi) on [0, pi/2],
    # k = B h + l <= D + 2, from the short tables exp(i l psi), l < B, and
    # exp(i B h psi), B = floor(sqrt(n))
    psi = 0.5 * theta
    step = math.isqrt(n)
    ks = np.arange(1, n)
    exact = np.concatenate(([math.pi / 2.0], (np.exp(0.5j * math.pi * ks) - 1.0) / (1j * ks)))
    low = np.exp(1j * np.outer(np.arange(step), psi))
    high = np.exp(1j * np.outer(step * np.arange(-(-n // step)), psi))
    got = ((high * w_psi) @ low.T).ravel()[:n]
    residual = float(np.max(np.abs(got - exact)))
    if residual > 1e-12:
        raise RuntimeError(f"theta rule construction failed, residual {residual:g}")
    # sin(theta) dtheta = 2 sin(2 psi) dpsi, and sin(theta) = sin(t) on both halves
    weights = 2.0 * np.sin(np.concatenate((lower, t))) * w_psi
    for arr in (theta, weights):
        arr.setflags(write=False)
    return theta, weights


def theta_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Colatitude rule (thetas, weights) for the measure sin(theta) dtheta.

    Exact for every half-angle monomial cos^a(theta/2) sin^b(theta/2)
    with a + b <= degree, in all four parity classes of (a, b): with
    psi = theta/2 each such integrand is a trigonometric polynomial of
    degree degree + 2 on [0, pi/2], which the trigonometric Gaussian rule
    of Da Fies & Vianello (ETNA 39, 102 (2012)) integrates with
    n = degree + 3 nodes.  The weights are positive and the nodes lie
    strictly inside (0, pi), in ascending order and mirror-symmetric
    about pi/2; construction checks the rule against every exact moment
    of exp(i k psi), k <= degree + 2, to 1e-12.

    Cost: a Stieltjes recurrence on a Fejer grid, computed once for a
    power-of-two size of at least 512 and shared by every rule up to it,
    then one real eigenproblem of ceil(n/2) rows, which dominates past a
    few hundred nodes (about 0.12 s at degree 2000); memory is the dense
    ceil(n/2)-row block, about 8 bytes per n^2 at its peak.  A degree
    whose block would exceed MAX_DENSE_DIM rows raises ValueError before
    allocating.
    """
    degree = _integer("degree", degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rows = (degree + 4) // 2
    _require_width(f"degree = {degree}: the Jacobi block's (degree + 4) // 2", rows, rows, 8)
    return _theta_rule_cached(degree)


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Product rule on the sphere for the measure sin(theta) dtheta dphi."""

    degree: int
    thetas: np.ndarray = field(repr=False)
    theta_weights: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    @property
    def n_phi(self) -> int:
        return len(self.phis)

    @property
    def phi_weight(self) -> float:
        return _TWO_PI / len(self.phis)

    def grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (theta, phi, weight) arrays over the product grid."""
        tt, pp = np.meshgrid(self.thetas, self.phis, indexing="ij")
        ww = np.repeat(self.theta_weights * self.phi_weight, len(self.phis))
        return tt.ravel(), pp.ravel(), ww

    @property
    def nodes(self) -> list[SphPoint]:
        tt, pp, _ = self.grids()
        return [SphPoint(t, p) for t, p in zip(tt, pp)]

    @property
    def weights(self) -> np.ndarray:
        return self.grids()[2]

    def integrate(self, fn) -> complex:
        """Integral of fn(theta, phi) dOmega; fn must accept arrays."""
        tt, pp, ww = self.grids()
        return complex(np.sum(ww * np.asarray(fn(tt, pp))))


def sphere_quadrature(
    j=None,
    *,
    degree: int | None = None,
    n_phi: int | None = None,
    phi_multiple: int = 1,
) -> SphereQuadrature:
    """Product quadrature exact on coherent-state integrands of spin j.

    With defaults, degree = 4j covers every |Omega><Omega| matrix
    element and n_phi = 4j + 2 resolves every azimuthal mode |k| <= 4j.
    n_phi is rounded up to a multiple of phi_multiple, which must be at
    least 1.
    """
    if degree is None:
        if j is None:
            raise ValueError("provide j or an explicit degree")
        degree = 2 * _spin(j).twice
    degree = _integer("degree", degree)
    n_phi = _integer("n_phi", degree + 2 if n_phi is None else n_phi)
    if n_phi < 1:
        raise ValueError("n_phi must be positive")
    phi_multiple = _integer("phi_multiple", phi_multiple)
    if phi_multiple < 1:
        raise ValueError(f"phi_multiple must be at least 1, got {phi_multiple}")
    n_phi = -(-n_phi // phi_multiple) * phi_multiple
    thetas, weights = theta_rule(degree)
    phis = _TWO_PI * np.arange(n_phi) / n_phi
    phis.setflags(write=False)
    return SphereQuadrature(degree, thetas, weights, phis)


# ----------------------------------------------------------------------
# Diagonal operators
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalOp:
    """A symbol P(Omega) together with its realized matrix.

    realized = (2j+1)/(4pi) * integral P(Omega) |Omega><Omega| dOmega,
    evaluated on the product quadrature (see diagonal_operator for how
    the sum is factorized), or in closed form for momentum_kick's one
    mode (_mode_band).  approximate is False when the declared band
    limit puts the whole integrand inside the rule's exactness class,
    True for a plain callable with no declared limit.  Off a declared
    band |a - b| <= min(k_max, 2j), realized is exactly zero.
    """

    j: HalfInt
    realized: Operator
    approximate: bool
    degree: int
    n_phi: int


def diagonal_operator(
    j,
    symbol,
    band_limit: tuple[int, int] | None = None,
    *,
    n_phi: int | None = None,
    phi_multiple: int = 1,
) -> DiagonalOp:
    """Realize the diagonal operator with the given symbol.

    symbol(theta, phi) must accept equal-shape arrays and return values.
    band_limit = (k_max, theta_degree) declares that the symbol is a
    combination of exp(i k phi) modes with |k| <= k_max and half-angle
    monomials of degree <= theta_degree, two nonnegative integers; the
    rule is then sized so the realization is exact.

    Since c_a(theta, phi) = |c_a(theta)| exp(i a phi) with a = j - m, the
    quadrature sum factorizes as

        realized[a, b] = (2j+1)/(4pi) sum_theta w_theta |c_a| |c_b| F_theta(a - b),
        F_theta(k) = w_phi sum_phi P(theta, phi) exp(i k phi),

    and F comes from one inverse FFT along the equally spaced azimuths,
    equal to the direct sum, aliasing included.  Each diagonal k = a - b
    is then one (dim x n_theta) by (n_theta) product, for |k| <= min(k_max, 2j)
    with a declared band (the rest are exact zeros, not quadrature noise)
    and all 4j + 1 without; memory stays O(dim * n_theta + n_theta * n_phi).
    """
    j = _spin(j)
    tj = j.twice
    _require_dense(j, j.dim, 16)
    if band_limit is not None:
        k_max, theta_degree = _integer("k_max", band_limit[0]), _integer("theta_degree", band_limit[1])
        if k_max < 0 or theta_degree < 0:
            raise ValueError(f"band_limit = {band_limit}: k_max and theta_degree must be nonnegative")
        degree = 2 * tj + theta_degree
        min_phi = tj + k_max + 1
        approximate = False
    else:
        degree = 2 * tj
        min_phi = 2 * tj + 2
        approximate = True
    if n_phi is None:
        n_phi = min_phi
    elif n_phi < min_phi:
        raise ValueError(f"n_phi = {n_phi} below the required {min_phi}")
    rule = sphere_quadrature(degree=degree, n_phi=n_phi, phi_multiple=phi_multiple)
    tt, pp, _ = rule.grids()
    values = np.asarray(symbol(tt, pp), dtype=complex)
    if values.shape != tt.shape:
        raise ValueError("symbol must return one value per node")
    # ifft carries 1/n_phi, so 2pi * ifft is w_phi * sum_phi P exp(i k phi).
    modes = _TWO_PI * np.fft.ifft(values.reshape(rule.n_theta, rule.n_phi), axis=1)
    modes *= (rule.theta_weights * (tj + 1) / (4.0 * math.pi))[:, None]
    mag = _amplitude_magnitudes(tj, rule.thetas)
    mat = np.zeros((j.dim, j.dim), dtype=complex)
    rows = np.arange(j.dim)
    k_top = tj if approximate else min(k_max, tj)
    for k in range(-k_top, k_top + 1):
        lo, hi = max(0, k), j.dim + min(0, k)
        diagonal = (mag[lo:hi] * mag[lo - k : hi - k]) @ modes[:, k % rule.n_phi]
        mat[rows[lo:hi], rows[lo - k : hi - k]] = diagonal
    return DiagonalOp(j, Operator._owning(j, mat), approximate, rule.degree, rule.n_phi)


def _half_gamma(x: int) -> tuple[int, int]:
    """(num, den) with Gamma(x/2) = num / den * sqrt(pi)^(x mod 2), for an
    integer x >= 1: (x/2 - 1)! for even x, and (2n)! / (4^n n!) for
    x = 2n + 1."""
    if x % 2 == 0:
        return math.factorial(x // 2 - 1), 1
    n = x // 2
    return math.factorial(2 * n), 4**n * math.factorial(n)


def _band_entry(tj: int, a: int, b: int, p: int, q: int, scale_sq: int) -> float:
    """(2j+1) sqrt(C(2j, a) C(2j, b) scale_sq) B((p+2)/2, (q+2)/2) from
    exact integers, to about an ulp: the Beta function's factorials and the
    binomials are Python ints, the square root of their quotient is
    _sqrt_ratio's, and a factor pi enters where both Beta arguments are
    half-integers."""
    (x_num, x_den), (y_num, y_den), (s_num, s_den) = _half_gamma(p + 2), _half_gamma(q + 2), _half_gamma(p + q + 4)
    num = (tj + 1) ** 2 * math.comb(tj, a) * math.comb(tj, b) * scale_sq * (x_num * y_num * s_den) ** 2
    value = math.ldexp(*_sqrt_ratio(num, (x_den * y_den * s_num) ** 2))
    return value * math.pi if p % 2 and q % 2 else value


def _mode_band(tj: int, k: int, alpha: int = 0, beta: int = 0, scale_sq: int = 1) -> np.ndarray:
    """Diagonal a - b = k of the realization of the one-mode symbol
    sqrt(scale_sq) cos^alpha(theta/2) sin^beta(theta/2) exp(-i k phi), in
    closed form: rows a = max(0, k)..2j + min(0, k), columns b = a - k.

    With |c_a| = sqrt(C(2j, a)) cos^(2j-a)(theta/2) sin^a(theta/2), the
    azimuthal integral leaves only this diagonal, and the colatitude
    integral of cos^p sin^q (theta/2) sin(theta) is 2B((p+2)/2, (q+2)/2), so

        E(a) = (2j+1)/2 sqrt(C(2j, a) C(2j, b) scale_sq) 2B((p+2)/2, (q+2)/2),
        p = 4j - a - b + alpha,  q = a + b + beta.

    The band is E at its largest entry, from exact integers (_band_entry),
    times running products of E(a+1)/E(a) = sqrt((2j-a)(2j-b) / ((a+1)(b+1)))
    (q+2)/p outward, so no entry overflows, the small ones underflow to
    zero, and each carries a relative error of a few ulp per step from the
    largest: at most (3 (2j) + 2) 2^-53, 1.3e-12 at 2j = 4000, where 6e-15
    is measured.  A log-domain sum of log-factorials would carry about
    ulp(ln (3j)!) instead (2e-12 at j = 256, 3e-11 at j = 2000).
    diagonal_operator's quadrature is the test oracle.
    """
    a = np.arange(max(0, k), tj + 1 + min(0, k))
    b = a - k
    p, q = 2 * tj - a - b + alpha, a + b + beta
    band = np.empty(len(a))
    if not len(a):
        return band
    step = np.sqrt((tj - a[:-1]) * (tj - b[:-1]) / ((a[:-1] + 1.0) * (b[:-1] + 1.0))) * ((q[:-1] + 2.0) / p[:-1])
    top = int(np.argmax(np.concatenate(([0.0], np.cumsum(np.log(step))))))
    band[top] = _band_entry(tj, int(a[top]), int(b[top]), int(p[top]), int(q[top]), scale_sq)
    band[top + 1 :] = band[top] * np.cumprod(step[top:])
    band[:top] = band[top] * np.cumprod(1.0 / step[:top][::-1])[::-1]
    return band


def _mode_matrix(j: HalfInt, k: int, alpha: int = 0, beta: int = 0, scale_sq: int = 1) -> np.ndarray:
    """The dense realization of a one-mode symbol (_mode_band): diagonal k
    filled, every other entry an exact zero; ValueError above MAX_DENSE_DIM."""
    _require_dense(j, j.dim, 16)
    mat = np.zeros((j.dim, j.dim), dtype=complex)
    band = _mode_band(j.twice, k, alpha, beta, scale_sq)
    rows = np.arange(max(0, k), max(0, k) + len(band))
    mat[rows, rows - k] = band
    return mat


def lower_symbol(op: Operator, p: SphPoint) -> complex:
    """<Omega| op |Omega> at the point p."""
    vec = coherent_state(op.j, p)
    return op.sandwich(vec, vec)


def y_symbol(j, m):
    """The conjugate-amplitude symbol y^j_m(theta, phi) = conj(c_m).

    Realizing it as a diagonal operator produces the momentum kick that
    moves population toward the m-th level.
    """
    j = _spin(j)
    jmm = m_index(j, m)

    def symbol(thetas, phis):
        thetas = np.asarray(thetas, dtype=float)
        # one chain per distinct colatitude: a product grid repeats each n_phi times
        nodes, at = np.unique(thetas, return_inverse=True)
        mag = _amplitude_magnitudes(j.twice, nodes)[jmm][at].reshape(thetas.shape)
        return mag * np.exp(-1j * jmm * np.asarray(phis, dtype=float))

    return symbol


def momentum_kick(j, m) -> DiagonalOp:
    """Diagonal operator with symbol y^j_m; shifts levels by j - m.

    y^j_m = sqrt(C(2j, j+m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2)
    exp(-i (j-m) phi) is one mode, so realized holds its one band
    a - b = j - m in closed form (_mode_band) and exact zeros elsewhere.
    degree and n_phi are those of the product rule that realizes it
    exactly, as diagonal_operator sizes it for band_limit (j - m, 2j).
    """
    j = _spin(j)
    tj, jmm = j.twice, m_index(j, m)
    mat = _mode_matrix(j, jmm, tj - jmm, jmm, math.comb(tj, jmm))
    return DiagonalOp(j, Operator._owning(j, mat), False, 3 * tj, tj + jmm + 1)


def disentangle_check(j, p: SphPoint) -> float:
    """Normwise residual of the normal-ordered factorization of X_R at R = (phi, theta, -phi).

    Compares X_R against F = exp(z L-) cos^(2 L3)(theta/2) exp(-conj(z) L+)
    with z = tan(theta/2) exp(i phi) (Arecchi, Courtens, Gilmore & Thomas,
    PRA 6, 2211 (1972)), and returns max|X_R - F| over the largest entry of
    |exp(z L-)| cos^(2 L3)(theta/2) |exp(-conj(z) L+)|, a scale >= 1 (its
    m = -j term is cos^(-2j)(theta/2)).  The factors are written in closed
    form: exp(w L-) holds w^p / p! times the product of the L- band over
    rows k .. k+p-1 at row k+p, column k, from one cumulative sum of the
    band's logarithms (spin_core._axis_bands) and ln p! from another, of
    ln 1 .. ln 2j, and exp(w L+) is its
    transpose.  theta = pi is rejected, as the factorization needs
    cos(theta/2) > 0, and so is any (j, theta) whose scale exceeds the
    double range.
    """
    j = _spin(j)
    if p.theta == math.pi:
        raise ValueError("factorization undefined at theta = pi")
    # first: its dense guard refuses a j whose (2j+1)^2 factors would not fit
    x_r = wigner_D_matrix(j, EulerAngles(p.phi, p.theta, -p.phi)).mat
    tan_half = math.tan(0.5 * p.theta)
    ln_band = np.log(2.0 * _axis_bands(j, (1.0, 0.0, 0.0))[1].real)  # L-'s band is twice L1's
    ln_prod = np.concatenate(([0.0], np.cumsum(ln_band)))
    ln_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, j.dim)))))  # ln p!
    power = np.subtract.outer(np.arange(j.dim), np.arange(j.dim))  # row - column
    # ln |z|^p, with z^0 = 1 also at theta = 0
    ln_zp = np.multiply(power, math.log(tan_half) if tan_half else -math.inf,
                        out=np.zeros(power.shape), where=power > 0)
    # ln of |exp(z L-)| cos^(L3)(theta/2), half the middle factor on either
    # side: F = A B^T, A and B these magnitudes under the phases of z^p and
    # (-conj(z))^p
    ln_mag = (ln_zp - ln_fact[np.maximum(power, 0)] + np.subtract.outer(ln_prod, ln_prod)
              + m_values(j) * math.log(math.cos(0.5 * p.theta)))
    with np.errstate(over="ignore"):
        mag = np.where(power >= 0, np.exp(ln_mag), 0.0)
        scale = float(np.max(np.sum(mag * mag, axis=1)))
    if not math.isfinite(scale):
        raise ValueError(f"j = {j.value:g}, theta = {p.theta}: the factors' scale exceeds the double range")
    left = mag * np.exp(1j * p.phi * power)
    return float(np.max(np.abs(x_r - left @ (left.conj() * (-1.0) ** power).T))) / scale
