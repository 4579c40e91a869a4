"""Ancilla syndrome extraction and recovery for equatorial qudit codes.

The measurement pipeline follows the reduced description of the
controlled-rotation readout: an input codeword hit by a z-rotation error
exp(-i delta_phi L3) produces an azimuth-measurement outcome phi_m with
density

    P(phi_m) ~ sum_k ((1 + cos(phi_m - 2 pi k/d - phi_state))/2)^(2j),

phi_state = 2 pi k_in/d + delta_phi (leading form; a cross-term form and
a pre-localization validation form are also provided).  The validation
form evaluates the norm of the meridian smear

    |u> = sum_k' integral dtheta' sin(theta')
          <theta', phi_m - 2 pi k'/d | psi_err> |theta', phi_m - 2 pi k'/d>

exactly: the theta' integrand is a half-angle polynomial of degree 4j,
inside the exactness class of the degree-4j colatitude rule.  With
|theta, phi> = D(phi) |c(theta)|, D(phi) = diag(exp(i (j - m) phi)), one
pass takes every azimuth at once: the closed-form overlaps at each node,
meridian and azimuth, weighted and summed against |c(theta')|, then
phased by D.

The recovery cycle never materializes the system-ancilla coupling; the
leading density is used only to draw the outcome phi_m.  Every peak
cos^(4j)(x/2) of it has the same mass and an exact law: x = 2 asin(2B - 1)
with B ~ Beta(2j + 1/2, 2j + 1/2).  A draw picks the peak uniformly and
then x from that law; the finite-ancilla readout blur is the same law with
j -> j_anc, and the tail mass is the regularized incomplete beta function
of the same B.  The correction exp(+i offset L3), offset = phi_m minus the
nearest lattice azimuth, acts on the errored codeword and leaves the
residual rotation exp(i s L3), s = offset - delta_phi.  A final decode
projects onto the code span, so the recorded fidelity is degraded only by
weight the residual pushes onto other codewords; the pre-decode overlap is
kept alongside as raw_fidelity.

The decode needs no state vector.  Codeword a is p_a |pi/2, phi_a>, with
phi_a = 2 pi a/d and p_a its Option1 phase, and exp(i s L3) maps
|pi/2, phi> to exp(i s j) |pi/2, phi - s>.  So every overlap is the
closed form ((1 + exp(i y))/2)^(2j) = exp(i j y) cos^(2j)(y/2) of
equatorial coherent states: ov_a = <abar|exp(i s L3)|kbar> has magnitude
v_a = |cos(y_a/2)|^(2j), y_a = phi_k - phi_a - s, and the gram matrix has
magnitudes C_ab = |cos(pi (b - a)/d)|^(2j), a real symmetric circulant
with C_aa = 1.  The phases p_a, exp(i j s) and exp(i j (phi_k - phi_a))
enter ov and the gram matrix only as diagonal unitaries, so they cancel
exactly from ov^H G^-1 ov = v^T C^-1 v, and the round reads d real
numbers, each ln v_a from coherent._ln_overlap_magnitude, the package's
one kernel of the real overlap law (the tail mass takes it too, up to
epsilon = pi/2).  C is circulant, so the DFT diagonalizes it and its
eigenvalues are exact class sums of the binomial law: v^T C^-1 v is a sum
over the modes of the FFT of v, each divided by its eigenvalue.  Each
(j, d) keeps its d eigenvalues, read-only in spin_core's one store of
tables, within its byte budget (64 MiB for every table the package
keeps); no d x d table is built, so d is bounded by 2j + 1 and by the
1 GiB of one dense table for a round's O(d) working set, not by
MAX_DENSE_DIM.

Rounds run in blocks of seeds, through one sampler (_draws, one generator
per seed) and one decode (_correct_and_decode): the d logs and exps of a
row are scalar math calls, the block's FFT is numpy's pocketfft along each
row, and each row's modes are summed left to right, so a row reads the
same in a block of any size and on any BLAS or SIMD kernels.  _rounds
assembles a block, from the checked arguments to its four columns:
recover is its one-seed call and the CLI's recovery-sweep its many-seed
call.  finite_ancilla_note decodes both the true and the reported draws
of its block, so it reads _draws itself.

Only numpy and the standard library are used at run time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add

import numpy as np

from .coherent import (_amplitude_magnitudes, _binomial_row, _ln_overlap_magnitude, rotation_matrix_elements,
                       theta_rule)
from .spin_core import MAX_DENSE_DIM, HalfInt, _finite, _integer, _real, _require_bytes, _spin, _stored

__all__ = [
    "SyndromeRun",
    "TailEstimate",
    "AncillaReport",
    "syndrome_density",
    "tail_failure",
    "single_peak_mass",
    "recover",
    "finite_ancilla_note",
]

_TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# Measurement density
# ----------------------------------------------------------------------


def syndrome_density(j, d: int, k: int, delta_phi: float, mode: str = "leading"):
    """Density of the azimuth measurement outcome, as a callable.

    The leading and full modes are one quadratic form in the peak factors
    F_a = ((1 + exp(i x_a))/2)^(2j), x_a = phi_m - 2 pi a/d - phi_state,
    whose |F_a|^2 = ((1 + cos x_a)/2)^(2j) is the a-th single peak:

      leading   -- sum_a |F_a|^2, the single peaks at the shifted lattice
                   azimuths (cross terms dropped; S = 1 below).
      full      -- sum_ab conj(F_a) S_ab F_b, the cross terms carrying the
                   lattice-separation factors
                   S_ab = ((1 + exp(2 pi i (b - a)/d))/2)^(2j).
      validate  -- pre-localization form <u|u> with the colatitude
                   integrals evaluated exactly, all azimuths in one
                   pass (module docstring); a cross-check of the other
                   two forms at small j and d, capped at j <= 8 and
                   d <= MAX_DENSE_DIM, as its (d x nodes) tables take
                   about 6.4 kB a site at j = 8.

    F_a are equatorial elements <pi/2, out|pi/2, in> from
    rotation_matrix_elements.  S_ab = exp(i j (s_b - s_a)) C_ab, s_a =
    2 pi a/d, with C the real circulant of the module docstring: so
    S = D^H C D for the diagonal D of phases exp(i j s_a), and C =
    Phi^H diag(lambda) Phi/d for the DFT matrix Phi.  In the same way
    F_a = exp(i j (phi_in - s_a)) |F_a|, so D F = exp(i j phi_in) |F|, and
    the full form is sum_f lambda_f |(Phi |F|)_f|^2/d: one FFT of the d
    magnitudes, weighted by the spectrum of _gram_factor.  The leading form
    is sum_a |F_a|^2.  Neither builds a d x d table.  All modes are
    unnormalized; positivity holds pointwise.  The arguments are recover's, checked by
    _round_args, except that d may exceed 2j + 1 here: the density has no
    gram matrix, and a class of t mod d that holds no t has lambda_f at
    the floor of _gram_factor, 2.2e-308.
    """
    j, d, k, delta_phi, _ = _round_args(j, d, k, delta_phi)
    tj = j.twice
    phi_state = _TWO_PI * k / d + delta_phi
    shifts = _TWO_PI * np.arange(d) / d
    equator = math.pi / 2.0

    if mode in ("leading", "full"):
        spectrum = _gram_factor(tj, d) / d if mode == "full" else None

        def density(phi_m):  # the d sites on the last axis
            phi_in = np.asarray(phi_m, dtype=float)[..., None] - phi_state
            f = rotation_matrix_elements(j, (equator, shifts), (0,) * 3, (equator, phi_in))
            power = f.real**2 + f.imag**2
            if mode == "full":  # D F = exp(i j phi_in) |F|
                modes = np.fft.fft(np.sqrt(power), axis=-1)
                power = spectrum * (modes.real**2 + modes.imag**2)
            return np.sum(power, axis=-1)

        return density

    if mode == "validate":
        if tj > 16 or d > MAX_DENSE_DIM:  # about 6.4 kB a site at j = 8
            raise ValueError(f"validation mode is limited to j <= 8 and d <= {MAX_DENSE_DIM}")
        thetas, weights = theta_rule(2 * tj)
        mags = _amplitude_magnitudes(tj, thetas)
        levels = np.arange(tj + 1)  # j - m: |theta, phi> = diag(exp(i (j - m) phi)) |c(theta)|

        def density(phi_m):
            phi_m = np.atleast_1d(np.asarray(phi_m, dtype=float))
            phi_u = (phi_m[..., None] - shifts)[..., None]
            # <theta', phi_u | pi/2, phi_state> in closed form at every node, meridian and azimuth
            ovl = rotation_matrix_elements(j, (thetas, phi_u), (0,) * 3, (equator, phi_state))
            u = np.sum(np.exp(1j * phi_u * levels) * np.einsum("...n,mn->...m", weights * ovl, mags), axis=-2)
            out = np.sum(u.real**2 + u.imag**2, axis=-1)
            return out if out.size > 1 else out[0]

        return density

    raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------
# Tail estimates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Single-peak failure mass outside the window, numeric vs asymptotic."""

    j: HalfInt
    epsilon: float
    numeric_tail: float
    laplace_tail: float
    ratio: float

    def __post_init__(self):
        if not 0.0 <= self.numeric_tail <= 1.0:
            raise ValueError("numeric_tail must lie in [0, 1]")


def single_peak_mass(j) -> float:
    """Exact total mass of one peak: 2 pi C(4j, 2j)/2^(4j), about sqrt(2 pi/j).

    With n = 2j, C(2n, n)/4^n = Gamma(n + 1/2)/(sqrt(pi) Gamma(n + 1)): one
    half-step series, which does not cancel as lgamma(2n + 1) - 2 lgamma(n + 1)
    does.  Below n = 40 the integer ratio is divided exactly instead, as
    Python rounds int / int correctly.
    """
    tj = _spin(j).twice
    if tj < 40:
        return _TWO_PI * (math.comb(2 * tj, tj) / 4**tj)
    return 2.0 * math.sqrt(math.pi) * math.exp(_ln_gamma_half_step(tj) - math.log(tj))


def _beta_cf(a: float, x: float) -> float:
    """Continued fraction of I_x(a, a), by the modified Lentz method.

    Converges quickly for x < 1/2, in O(sqrt(a)) terms at worst, so the
    terms are capped at 10 000 + isqrt(a): 12 867 terms reach the 1e-12
    window at a = 2e10 + 1/2, where a fixed 10 000 raised ValueError.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 / max(tiny, 1.0 - 2.0 * a * x / (a + 1.0))
    h = d
    for m in range(1, 10_000 + math.isqrt(int(a))):
        for num in (
            m * (a - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (2.0 * a + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 4e-16:
            return h
    raise ValueError("incomplete beta continued fraction did not converge")


# ln Gamma(a + 1/2) - ln Gamma(a) - (ln a)/2 = sum_i c_i a^-(2i+1) as a -> oo
_HALF_STEP_SERIES = (-1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0)


def _ln_gamma_half_step(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a) for a > 0.

    The asymptotic series at a >= 40, whose first omitted term is below
    1e-17 there, so the difference never cancels two large logarithms.
    Below, Gamma(x + 1) = x Gamma(x) steps up to a + m >= 40: the series
    there minus sum_{i < m} log1p(1/(2(a + i))), terms below 1 that do not
    cancel either.
    """
    steps = math.ceil(40.0 - a) if a < 40.0 else 0
    climb = math.fsum(math.log1p(0.5 / (a + i)) for i in range(steps))
    a += steps
    inv_sq = 1.0 / (a * a)
    tail = 0.0
    for coeff in reversed(_HALF_STEP_SERIES):
        tail = tail * inv_sq + coeff
    return 0.5 * math.log(a) + tail / a - climb


_PI_LO = 1.2246467991473532e-16  # pi - math.pi


def tail_failure(j, epsilon: float) -> TailEstimate:
    """Mass of the single-peak density outside [-epsilon, epsilon].

    With x = 2 asin(2B - 1), B ~ Beta(a, a), a = 2j + 1/2, the tail is
    2 I_z(a, a) at z = (1 - sin(epsilon/2))/2 = sin^2((pi - epsilon)/4),
    evaluated directly (not as 1 minus the window) so the j = 400 tails
    near 1e-8 keep full relative accuracy.  The asymptotic reference is
    sqrt(2/(pi j)) exp(-j eps^2/2)/eps.  The ratio is taken from the two
    log tails, so it stays finite where both tails underflow to 0.  An
    epsilon so small that the reference overflows (below about
    sqrt(2/(pi j)) over the largest double) raises ValueError; a string
    raises spin_core._real's TypeError.
    """
    j = _spin(j)
    if j.twice == 0:
        raise ValueError("j must be positive: a spin-0 peak has no tail")
    epsilon = _real("epsilon", epsilon)
    if not 0.0 < epsilon <= math.pi:
        raise ValueError("epsilon must lie in (0, pi]")

    jv = j.value
    laplace = math.sqrt(2.0 / (math.pi * jv)) * math.exp(-jv * epsilon * epsilon / 2.0) / epsilon
    if laplace == math.inf:
        raise ValueError(f"epsilon = {epsilon!r}: the Laplace reference exceeds the double range")
    if epsilon == math.pi:
        return TailEstimate(j, epsilon, 0.0, laplace, 0.0)
    a = j.twice + 0.5
    # pi - epsilon to full relative precision: math.pi alone is off by 1.2e-16,
    # 5e-11 relative to pi - epsilon at epsilon = 3.14159
    rest = (math.pi - epsilon) + _PI_LO
    s = math.sin(0.25 * rest)
    # z^a (1 - z)^a / (a B(a, a)) with z = s^2: z (1 - z) = cos^2(eps/2)/4, and
    # 1/B(a, a) = 2^(2a-1) Gamma(a + 1/2) / (sqrt(pi) Gamma(a)) by duplication;
    # ln cos(eps/2) is ln sin(rest/2) past pi/2, where log1p would cancel.
    # That branch stays here: the shared kernel takes pi - |y| with math.pi,
    # right for its callers' math.pi-built angles, while epsilon is meant
    # exactly and needs the extra pi - math.pi of rest.
    if epsilon <= 0.5 * math.pi:
        ln_cos = _ln_overlap_magnitude(epsilon, 2.0 * a)
    else:
        ln_cos = 2.0 * a * math.log(math.sin(0.5 * rest))
    ln_front = (
        ln_cos
        - math.log(2.0)
        - 0.5 * math.log(math.pi)
        - math.log(a)
        + _ln_gamma_half_step(a)
    )
    cf = _beta_cf(a, s * s)
    numeric = min(1.0, 2.0 * math.exp(ln_front) * cf)
    ln_numeric = min(0.0, math.log(2.0) + ln_front + math.log(cf))
    ln_laplace = 0.5 * math.log(2.0 / (math.pi * jv)) - jv * epsilon**2 / 2.0 - math.log(epsilon)
    ratio = math.exp(ln_numeric - ln_laplace)
    return TailEstimate(j, epsilon, numeric, laplace, ratio)


# ----------------------------------------------------------------------
# Recovery pipeline
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SyndromeRun:
    """One measurement-and-correct cycle on a pure codeword.

    fidelity is taken after the decode projection; raw_fidelity is the
    overlap with the input codeword before decoding, which carries the
    full cost of the residual rotation.
    """

    j: HalfInt
    d: int
    input_k: int
    delta_phi: float
    measured_phi: float
    recovered_k: int
    fidelity: float
    raw_fidelity: float
    out_of_cell: bool

    def to_json_dict(self) -> dict:
        return {**asdict(self), "j": self.j.value}


def _peak_offset(tj: int, rng) -> float:
    """One exact draw x from the peak density cos^(2 tj)(x/2) on [-pi, pi]."""
    b = rng.beta(tj + 0.5, tj + 0.5)
    return 2.0 * math.asin(2.0 * b - 1.0)


@_stored
def _gram_factor(tj: int, d: int) -> np.ndarray:
    """The spectrum lambda of C for one (j, d), read-only: 8d bytes.

    C is circulant, so the DFT diagonalizes it: with v-hat = FFT(v),
    v^T C^-1 v = sum_f |v-hat_f|^2/(d lambda_f).  cos^(2j)(x) =
    sum_t C(2j, j + t) exp(2 i t x)/4^j gives lambda_f = d P(t = f mod d)
    under the binomial law of t: sums of positive terms, with full
    relative accuracy however small (d = 2j + 1 at j = 100 has lambda
    down to 1e-58, where C itself has lost them).  The weights
    C(2j, j + t)/C(2j, j) are the binomial row from its centre
    (_binomial_row), up to where t^2 > 710 (j + t) puts every weight
    below the smallest normal double (|t| near 27 sqrt(j)), and they are
    kept while they are normal.  np.add.at adds each weight to the class
    t mod d and then to -t mod d, in the order t = 1, 2, ..., a few
    thousand t at a time: the bits of the running ratio product and of
    the sums that a loop over t gives.  lambda_f is floored at the
    smallest normal double for a class whose every weight lies beyond
    that point, or that holds no t at all (d > 2j + 1, which the density
    accepts and the decode does not).

    The factor is O(d) at every d, so it is kept in spin_core's store
    (_stored) within its 64 MiB budget up to d of about 8 million.
    """
    j = tj // 2
    mant, exps = _binomial_row(tj, j, min(j, int(355.0 + math.sqrt(355.0**2 + 710.0 * j))) + 1)
    weights = np.ldexp(mant[0], exps[0])
    count = np.count_nonzero(weights >= sys.float_info.min)
    classes = np.pad([1.0], (0, d - 1))  # t = 0, once, in class 0
    for lo in range(1, count, 4096):  # a few thousand t to a call keep its tables small
        t = np.arange(lo, min(lo + 4096, count))
        np.add.at(classes, np.stack((t % d, -t % d), axis=1), weights[t, None])
    return np.maximum(classes * (d / math.fsum(classes)), sys.float_info.min)


def _round_args(j, d: int, k: int, delta_phi: float):
    """The checked arguments of a round and of syndrome_density:
    (j, d, k mod d, delta_phi, out_of_cell).

    The one check behind recover, finite_ancilla_note, recovery-sweep and
    syndrome_density: j a nonnegative integer, d and k integers, d at least
    2, delta_phi finite, and d within one dense table's 1 GiB at about 210
    bytes a codeword or site: the working set of a round or of one azimuth
    of the density is O(d), measured at 129 and 207 bytes an entry at
    d = 2^17 and 2^18 (tracemalloc).  The bound d <= 2j + 1 belongs to the
    decode and is checked where every round starts (_draws), with the same
    message.
    """
    j = _spin(j)
    if not j.is_integer:
        raise ValueError("recovery assumes integer j")
    d = _integer("d", d)
    if d < 2:
        raise ValueError(f"d = {d} codewords need 2 <= d <= 2j + 1 = {j.twice + 1} levels")
    delta_phi = _finite("delta_phi", delta_phi)
    _require_bytes("d", d, 1, 210)
    return j, d, _integer("k", k) % d, delta_phi, not abs(delta_phi) < math.pi / d


def _draws(tj: int, d: int, k: int, delta_phi: float, seeds, tj_anc=None):
    """The true and the reported azimuth of one round per seed, as two lists.

    Each seed starts its own generator: a uniformly chosen peak, then the
    peak's Beta law give the true azimuth, reduced mod 2 pi.  With tj_anc
    set, a readout blur from the ancilla kernel cos^(2 tj_anc)(Delta/2),
    drawn next from the same generator, is added to report it, not reduced
    again; without it the report is the true azimuth.  Every round decodes
    its draws, and the d codewords are independent only in 2j + 1 >= d
    levels, so a larger d raises ValueError before any draw is made.
    """
    if d > tj + 1:
        raise ValueError(f"d = {d} codewords need 2 <= d <= 2j + 1 = {tj + 1} levels")
    true, reported = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        peak = int(rng.integers(d))
        phi = (_TWO_PI * (k + peak) / d + delta_phi + _peak_offset(tj, rng)) % _TWO_PI
        true.append(phi)
        reported.append(phi if tj_anc is None else phi + _peak_offset(tj_anc, rng))
    return true, reported


def _correct_and_decode(tj: int, d: int, k: int, delta_phi: float, phis):
    """Correction rotation at each reported azimuth, then decode.

    Returns the columns (recovered_k, fidelity, raw_fidelity), one row
    per azimuth.  The corrected state is exp(i s L3)|kbar>, s = offset -
    delta_phi; decoding projects it onto the code span and renormalizes.
    With the overlap magnitudes v and the gram magnitudes C of the module
    docstring,

        fidelity = v_k^2 / (v^T C^-1 v),  raw_fidelity = v_k^2,
        recovered_k = argmax_a v_a.

    v is taken in the log domain and divided by its largest entry before
    the quadratic form, which the ratio does not see, so the fidelity
    stays defined where every overlap underflows, and capped at 1, which
    rounding in the eigenvalues of C can pass by an ulp; raw_fidelity is
    exp(2 ln v_k), 0.0 below the double range.  v^T C^-1 v is
    sum_f |v-hat_f|^2/(d lambda_f), v-hat = FFT(v), over the spectrum of
    _gram_factor.  The exact modes obey |v-hat_f| <= lambda_f/max(v), by
    the triangle inequality on the class sums, and capping the computed
    |v-hat_f|^2/lambda_f at lambda_f/max(v)^2 keeps rounding in v from
    being divided by a small lambda_f.  Where max(v) < exp(-300), d is far
    below sqrt(j), every lambda_f is near 1 and the cap, taken at
    exp(600), is idle.

    The logs and exps are scalar math calls, whose bits do not follow
    numpy's SIMD dispatch; the FFT is numpy's pocketfft, not BLAS, and
    transforms each row on its own; the squares, quotients and minima are
    correctly rounded elementwise; and each row is summed left to right in
    Python floats (not with sum, whose float algorithm changed in Python
    3.12, nor math.fsum, whose cost grows with the spread of the terms,
    which spans hundreds of decades where d is near 2j + 1).  So a row
    keeps the bits a one-row block gives it, on any BLAS and SIMD kernels.
    """
    recovered, rows, caps, ratios, raws = [], [], [], [], []
    for phi_m in phis:
        # the offset to the nearest lattice azimuth, less the error
        s = phi_m - _TWO_PI * round(phi_m * d / _TWO_PI) / d - delta_phi
        ln_v = [_ln_overlap_magnitude(_TWO_PI * ((k - a) % d) / d - s, tj) for a in range(d)]
        top = max(ln_v)
        recovered.append(ln_v.index(top))
        rows.append([math.exp(x - top) for x in ln_v])
        caps.append(math.exp(min(-2.0 * top, 600.0)))
        ratios.append(math.exp(2.0 * (ln_v[k] - top)))
        raws.append(math.exp(2.0 * ln_v[k]))
    lam = _gram_factor(tj, d)
    modes = np.fft.fft(np.array(rows).reshape(-1, d), axis=-1)
    power = np.minimum((modes.real**2 + modes.imag**2) / lam, np.multiply.outer(caps, lam))
    fidelity = [min(1.0, d * r / reduce(add, row)) for r, row in zip(ratios, power.tolist())]
    return np.array(recovered, dtype=np.int64), np.array(fidelity), np.array(raws)


def _rounds(j, d: int, k: int, delta_phi: float, seeds, j_anc=None):
    """One block of recovery rounds, one per seed: (args, columns).

    The one assembly of a block, behind recover (one seed) and the CLI's
    recovery-sweep (many).  args is _round_args' (j, d, k mod d,
    delta_phi, out_of_cell), j_anc is read as a spin label after them,
    and columns holds four arrays: the reported azimuth mod 2 pi
    (measured_phi), then _correct_and_decode's recovered_k, fidelity and
    raw_fidelity.  _draws makes the draws, the system's first; each row
    keeps the bits a one-seed block gives it.
    """
    args = j, d, k, delta_phi, _ = _round_args(j, d, k, delta_phi)
    tj_anc = None if j_anc is None else _spin(j_anc).twice
    _, phis = _draws(j.twice, d, k, delta_phi, seeds, tj_anc)
    measured = np.array([phi % _TWO_PI for phi in phis])
    return args, (measured, *_correct_and_decode(j.twice, d, k, delta_phi, phis))


def recover(
    j,
    d: int,
    k: int,
    delta_phi: float,
    seed: int,
    *,
    j_anc=None,
) -> SyndromeRun:
    """Sample one syndrome measurement and correct the codeword.

    The outcome phi_m is drawn exactly from the leading measurement
    density (a uniformly chosen peak, then the peak's Beta law), the
    correction exp(+i offset L3) undoes the azimuth offset to the
    nearest lattice meridian, and the result is decoded back into the
    code span.  With j_anc set, the reported azimuth acquires a readout
    blur drawn from the ancilla resolution kernel cos^(4 j_anc)(Delta/2)
    before the offset is computed.  The system is drawn first, so runs
    with and without j_anc on one seed share the true outcome.  This is
    the one-seed call of _rounds, the block that recovery-sweep runs
    over many seeds.
    """
    (j, d, k, delta_phi, out_of_cell), columns = _rounds(j, d, k, delta_phi, (seed,), j_anc)
    phi, recovered_k, fidelity, raw_fidelity = (column.item() for column in columns)
    return SyndromeRun(j, d, k, delta_phi, phi, recovered_k, fidelity, raw_fidelity, out_of_cell)


@dataclass(frozen=True)
class AncillaReport:
    """Idealized vs finite-resolution readout over a seeded run batch."""

    j: HalfInt
    j_anc: HalfInt
    runs: int
    mean_fidelity_ideal: float
    mean_fidelity_ancilla: float
    fidelity_gap: float
    correct_rate_ancilla: float


def finite_ancilla_note(
    j,
    j_anc,
    *,
    d: int = 2,
    k: int = 0,
    delta_phi: float = 0.0,
    runs: int = 200,
    seed: int = 0,
) -> AncillaReport:
    """Fidelity cost of reading the syndrome with a finite ancilla.

    Draws one block of runs seeded seed, seed + 1, ..., each once, and
    decodes its true azimuths and its blurred reports in one block (a row
    keeps its bits in any block), so each pair shares its true outcome;
    reports the mean-fidelity gap, which shrinks as j_anc grows.  Each run
    equals recover on its seed, with and without j_anc.  runs must be at
    least 1.
    """
    runs = _integer("runs", runs)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    j, d, k, delta_phi, _ = _round_args(j, d, k, delta_phi)
    j_anc = _spin(j_anc)
    ideal, noisy = _draws(j.twice, d, k, delta_phi, range(seed, seed + runs), j_anc.twice)
    recovered, fidelity, _ = _correct_and_decode(j.twice, d, k, delta_phi, ideal + noisy)
    mean_ideal, mean_anc = float(np.mean(fidelity[:runs])), float(np.mean(fidelity[runs:]))
    correct_rate = int(np.count_nonzero(recovered[runs:] == k)) / runs
    return AncillaReport(j, j_anc, runs, mean_ideal, mean_anc, mean_ideal - mean_anc, correct_rate)
