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
inside the exactness class of the degree-4j colatitude rule.

The recovery cycle never materializes the system-ancilla coupling; the
leading density is used only to draw the outcome phi_m.  Every peak
cos^(4j)(x/2) of it has the same mass and an exact law: x = 2 asin(2B - 1)
with B ~ Beta(2j + 1/2, 2j + 1/2).  A draw picks the peak uniformly and
then x from that law; the finite-ancilla readout blur is the same law with
j -> j_anc, and the tail mass is the regularized incomplete beta function
of the same B.  The correction exp(+i offset L3), offset = phi_m minus the
nearest lattice azimuth, acts on the errored codeword and leaves the
residual rotation exp(i (offset - delta_phi) L3).  A final decode projects
onto the code span, so the recorded fidelity is degraded only by weight
the residual pushes onto other codewords; the pre-decode overlap is kept
alongside as raw_fidelity.

Only numpy and the standard library are used at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coherent import coherent_amplitudes, theta_rule
from .lll_codes import build_codewords, equatorial_qudit
from .spin_core import HalfInt, StateVec, _spin

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


def _peak_term(x: np.ndarray, tj: int) -> np.ndarray:
    """((1 + cos x)/2)^(2j), clamped against negative-zero rounding."""
    base = np.maximum(0.0, (1.0 + np.cos(x)) / 2.0)
    return base**tj


def _collapse_state(tj: int, d: int, phi_state: float, phi_m: float) -> np.ndarray:
    """Unnormalized post-measurement amplitudes, exact in theta'.

    The input is the single coherent state |pi/2, phi_state> (codeword
    phases drop out of every magnitude downstream).
    """
    j = HalfInt(tj)
    thetas, weights = theta_rule(2 * tj)
    ch = np.cos(0.5 * thetas)
    sh = np.sin(0.5 * thetas)
    eq = math.sqrt(0.5)
    u = np.zeros(tj + 1, dtype=complex)
    for k in range(d):
        phi_u = phi_m - _TWO_PI * k / d
        # <theta', phi_u | pi/2, phi_state> = base^(2j)
        base = ch * eq + np.exp(1j * (phi_state - phi_u)) * sh * eq
        ovl = base**tj
        v = coherent_amplitudes(j, thetas, np.full_like(thetas, phi_u))
        u = u + v @ (weights * ovl)
    return u


def syndrome_density(j, d: int, k: int, delta_phi: float, mode: str = "leading"):
    """Density of the azimuth measurement outcome, as a callable.

    Modes:
      leading   -- sum of single-peak terms at the shifted lattice
                   azimuths (cross terms dropped).
      full      -- localized double sum including cross terms, each
                   carrying the lattice-separation suppression factor.
      validate  -- pre-localization form <u|u> with the colatitude
                   integrals evaluated exactly; intended for small j
                   (quadratic cost in the rule size), capped at j <= 8.

    All modes are unnormalized; positivity holds pointwise.
    """
    j = _spin(j)
    tj = j.twice
    if not j.is_integer:
        raise ValueError("syndrome extraction assumes integer j")
    if d < 2:
        raise ValueError("d must be at least 2")
    k = int(k) % d
    phi_state = _TWO_PI * k / d + float(delta_phi)

    if mode == "leading":

        def density(phi_m):
            phi_m = np.asarray(phi_m, dtype=float)
            total = np.zeros_like(phi_m)
            for kp in range(d):
                total = total + _peak_term(phi_m - _TWO_PI * kp / d - phi_state, tj)
            return total

        return density

    if mode == "full":

        def density(phi_m):
            phi_m = np.asarray(phi_m, dtype=float)
            total = np.zeros_like(phi_m, dtype=complex)
            for ka in range(d):
                xa = phi_m - _TWO_PI * ka / d - phi_state
                fa = ((1.0 + np.exp(-1j * xa)) / 2.0) ** tj
                for kb in range(d):
                    xb = phi_m - _TWO_PI * kb / d - phi_state
                    fb = ((1.0 + np.exp(1j * xb)) / 2.0) ** tj
                    sep = ((1.0 + np.exp(-2j * math.pi * (ka - kb) / d)) / 2.0) ** tj
                    total = total + fa * fb * sep
            return np.maximum(total.real, 0.0)

        return density

    if mode == "validate":
        if tj > 16:
            raise ValueError("validation mode is limited to j <= 8")

        def density(phi_m):
            phi_m = np.atleast_1d(np.asarray(phi_m, dtype=float))
            out = np.empty_like(phi_m)
            for i, pm in enumerate(phi_m):
                u = _collapse_state(tj, d, phi_state, float(pm))
                out[i] = float(np.real(np.vdot(u, u)))
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
    """Exact total mass of one peak: 2 pi C(4j, 2j)/2^(4j), about sqrt(2 pi/j)."""
    j = _spin(j)
    tj = j.twice
    # C(4j, 2j)/2^(4j) in the log domain via lgamma; exact comb overflows float
    ln = math.lgamma(2 * tj + 1) - 2.0 * math.lgamma(tj + 1) - 2 * tj * math.log(2.0)
    return _TWO_PI * math.exp(ln)


def _beta_cf(a: float, x: float) -> float:
    """Continued fraction of I_x(a, a), by the modified Lentz method.

    Converges quickly for x < 1/2, in O(sqrt(a)) terms at worst.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 / max(tiny, 1.0 - 2.0 * a * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
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


def tail_failure(j, epsilon: float) -> TailEstimate:
    """Mass of the single-peak density outside [-epsilon, epsilon].

    With x = 2 asin(2B - 1), B ~ Beta(a, a), a = 2j + 1/2, the tail is
    2 I_z(a, a) at z = (1 - sin(epsilon/2))/2 = sin^2((pi - epsilon)/4),
    evaluated directly (not as 1 minus the window) so the j = 400 tails
    near 1e-8 keep full relative accuracy.  The asymptotic reference is
    sqrt(2/(pi j)) exp(-j eps^2/2)/eps.
    """
    j = _spin(j)
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= math.pi:
        raise ValueError("epsilon must lie in (0, pi]")

    if epsilon == math.pi:
        numeric = 0.0
    else:
        a = j.twice + 0.5
        s = math.sin(0.25 * (math.pi - epsilon))
        c = math.cos(0.25 * (math.pi - epsilon))
        # z^a (1 - z)^a / (a B(a, a)), with z = s^2 and 1 - z = c^2
        ln_beta = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
        ln_front = 2.0 * a * math.log(s * c) - math.log(a) - ln_beta
        numeric = min(1.0, 2.0 * math.exp(ln_front) * _beta_cf(a, s * s))
    jv = j.value
    laplace = math.sqrt(2.0 / (math.pi * jv)) * math.exp(-jv * epsilon * epsilon / 2.0) / epsilon
    ratio = numeric / laplace if laplace > 0.0 else math.inf
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
        return {
            "j": self.j.value,
            "d": self.d,
            "input_k": self.input_k,
            "delta_phi": self.delta_phi,
            "measured_phi": self.measured_phi,
            "recovered_k": self.recovered_k,
            "fidelity": self.fidelity,
            "raw_fidelity": self.raw_fidelity,
            "out_of_cell": self.out_of_cell,
        }


def _peak_offset(tj: int, rng) -> float:
    """One exact draw x from the peak density cos^(2 tj)(x/2) on [-pi, pi]."""
    b = rng.beta(tj + 0.5, tj + 0.5)
    return 2.0 * math.asin(2.0 * b - 1.0)


@lru_cache(maxsize=32)
def _codeword_amps(tj: int, d: int) -> np.ndarray:
    """Codeword amplitude rows, renormalized: the log-domain amplitudes
    leave row norms off 1 by up to about 1e-12 at j = 2000."""
    code = build_codewords(equatorial_qudit(HalfInt(tj), d))
    basis = np.stack([vec.amps for vec in code.basis])
    return basis / np.linalg.norm(basis, axis=1)[:, None]


def _correct_and_decode(tj: int, d: int, k: int, delta_phi: float, phi_m: float):
    """Correction rotation at the reported azimuth, then decode.

    Returns (recovered_k, fidelity, raw_fidelity).  The corrected state
    is exp(i (offset - delta_phi) L3)|kbar>; decoding projects it onto
    the code span (gram-corrected, the basis is only numerically
    orthogonal for d > 2) and renormalizes.
    """
    basis = _codeword_amps(tj, d)
    lattice_index = round(phi_m * d / _TWO_PI)
    offset = phi_m - _TWO_PI * lattice_index / d
    mv = (tj - 2 * np.arange(tj + 1)) / 2.0
    corrected = np.exp(1j * (offset - delta_phi) * mv) * basis[k]

    overlaps = basis.conj() @ corrected
    gram = basis.conj() @ basis.T
    coeff = np.linalg.solve(gram, overlaps)
    decoded = basis.T @ coeff
    decoded = decoded / np.linalg.norm(decoded)
    recovered_k = int(np.argmax(np.abs(overlaps)))
    fidelity = float(np.abs(basis[k].conj() @ decoded) ** 2)
    raw_fidelity = float(np.abs(overlaps[k]) ** 2)
    return recovered_k, fidelity, raw_fidelity


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
    with and without j_anc on one seed share the true outcome.
    """
    j = _spin(j)
    tj = j.twice
    if not j.is_integer:
        raise ValueError("recovery assumes integer j")
    d = int(d)
    k = int(k) % d
    delta_phi = float(delta_phi)
    out_of_cell = not abs(delta_phi) < math.pi / d
    rng = np.random.default_rng(seed)
    peak = int(rng.integers(d))
    phi_true = (_TWO_PI * (k + peak) / d + delta_phi + _peak_offset(tj, rng)) % _TWO_PI
    phi_report = phi_true
    if j_anc is not None:
        phi_report = phi_true + _peak_offset(_spin(j_anc).twice, rng)

    recovered_k, fidelity, raw_fidelity = _correct_and_decode(tj, d, k, delta_phi, phi_report)
    return SyndromeRun(
        j,
        d,
        k,
        delta_phi,
        float(phi_report % _TWO_PI),
        recovered_k,
        fidelity,
        raw_fidelity,
        out_of_cell,
    )


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

    Runs the same seeded measurement batch with and without the readout
    blur and reports the mean-fidelity gap, which shrinks as j_anc
    grows.
    """
    j = _spin(j)
    j_anc = _spin(j_anc)
    fid_ideal = []
    fid_anc = []
    correct = 0
    for i in range(runs):
        ideal = recover(j, d, k, delta_phi, seed=seed + i)
        noisy = recover(j, d, k, delta_phi, seed=seed + i, j_anc=j_anc)
        fid_ideal.append(ideal.fidelity)
        fid_anc.append(noisy.fidelity)
        if noisy.recovered_k == k:
            correct += 1
    mean_ideal = float(np.mean(fid_ideal))
    mean_anc = float(np.mean(fid_anc))
    return AncillaReport(
        j, j_anc, runs, mean_ideal, mean_anc, mean_ideal - mean_anc, correct / runs
    )
