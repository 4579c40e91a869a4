"""Spin coherent states, their closed-form matrix elements, and the
sphere quadrature that realizes diagonal operators exactly.

A coherent state at (theta, phi) has amplitudes

    c_m = sqrt(C(2j, j+m)) cos^{j+m}(theta/2) sin^{j-m}(theta/2)
          * exp(i (j-m) phi),

i.e. the m = j column of X_R with R = (phi, theta, -phi).  Exact pole
inputs (theta = 0 or pi) produce exact basis states: the vanishing
half-angle factor is snapped to zero, so antipodal constructions are
orthogonal analytically, not just to rounding.

The quadrature: Gauss-Legendre nodes in x = cos(theta) are exact for
polynomials in x, but coherent-state integrands are half-angle monomials
cos^a(theta/2) sin^b(theta/2) whose odd-parity families fall outside
that class.  A minimum-norm least-squares correction adjusts the weights
to integrate all four parity families exactly up to the requested
degree; azimuthal integrals use a uniform rule that is exact for every
mode |k| < n_phi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._logfact import ln_binomial
from .rotations import EulerAngles, rotate_vector, _half_angle, _half_angles
from .spin_core import HalfInt, Operator, StateVec, _spin

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


@dataclass(frozen=True)
class SphPoint:
    """A point on the unit sphere; phi is reduced modulo 2pi.

    Reduction is safe here (unlike for Euler angles) because coherent
    amplitudes depend on phi only through exp(i k phi) with integer k.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)

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
        return _half_angle(self.theta)


def coherent_amplitudes(j, thetas, phis) -> np.ndarray:
    """Amplitude matrix c[m_index, node] over arrays of sphere points.

    Built in the log domain so large j never overflows; exact-pole
    columns contain exact zeros.
    """
    j = _spin(j)
    tj = j.twice
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    thetas, phis = np.broadcast_arrays(thetas, phis)
    ch, sh = _half_angles(thetas)

    jm = tj - np.arange(tj + 1)  # j + m, descending 2j..0
    jmm = tj - jm  # j - m

    with np.errstate(divide="ignore", invalid="ignore"):
        ln_ch = np.where(ch > 0.0, np.log(np.where(ch > 0.0, ch, 1.0)), -np.inf)
        ln_sh = np.where(sh > 0.0, np.log(np.where(sh > 0.0, sh, 1.0)), -np.inf)
        ln_mag = 0.5 * ln_binomial(tj, jm)[:, None]
        ln_mag = ln_mag + np.where(jm[:, None] == 0, 0.0, jm[:, None] * ln_ch[None, :])
        ln_mag = ln_mag + np.where(
            jmm[:, None] == 0, 0.0, jmm[:, None] * ln_sh[None, :]
        )
    mag = np.exp(ln_mag)
    phase = np.exp(1j * jmm[:, None] * phis[None, :])
    return mag * phase


def coherent_state(j, p: SphPoint) -> StateVec:
    """The normalized coherent state |Omega> at p."""
    j = _spin(j)
    amps = coherent_amplitudes(j, [p.theta], [p.phi])[:, 0]
    return StateVec(j, amps)


def _pow_two_j(base: complex, tj: int) -> complex:
    """base**(2j) via the principal log, clamped to exact 0 on underflow."""
    if base == 0.0:
        return 0.0 + 0.0j
    ln_mag = tj * math.log(abs(base))
    if ln_mag < -700.0:
        return 0.0 + 0.0j
    return cmath.exp(tj * cmath.log(base))


def overlap(j, p1: SphPoint, p2: SphPoint) -> complex:
    """<Omega1|Omega2> in closed form.

    base = cos(t1/2)cos(t2/2) + exp(i(phi2 - phi1)) sin(t1/2)sin(t2/2),
    overlap = base^(2j); the phase convention has the ket azimuth with
    the + sign.
    """
    j = _spin(j)
    c1, s1 = p1.half_angles()
    c2, s2 = p2.half_angles()
    base = c1 * c2 + cmath.exp(1j * (p2.phi - p1.phi)) * s1 * s2
    return _pow_two_j(base, j.twice)


def overlap_magnitude(j, p1: SphPoint, p2: SphPoint) -> float:
    """|<Omega1|Omega2>| = ((1 + n1.n2)/2)^j."""
    j = _spin(j)
    dot = float(np.dot(p1.n, p2.n))
    base = max(0.0, (1.0 + dot) / 2.0)
    if base == 0.0:
        return 0.0
    ln_mag = j.value * math.log(base) if base < 1.0 else 0.0
    return math.exp(ln_mag) if ln_mag > -700.0 else 0.0


def rotation_matrix_element(
    j, out: SphPoint, r: EulerAngles, inp: SphPoint, with_underflow: bool = False
):
    """<Omega_out| X_R |Omega_in> in closed form, evaluated as base^(2j).

    Magnitudes below about 1e-300 are clamped to exact zero; pass
    with_underflow=True to receive (value, clamped) instead of the bare
    value.
    """
    j = _spin(j)
    co, so = out.half_angles()
    ci, si = inp.half_angles()
    cb, sb = _half_angle(r.beta)
    half_sum = 0.5 * (r.alpha + r.gamma)
    half_diff = 0.5 * (r.alpha - r.gamma)
    term_diag = (
        cmath.exp(-1j * half_sum) * co * ci
        + cmath.exp(1j * half_sum) * cmath.exp(1j * (inp.phi - out.phi)) * so * si
    )
    term_flip = cmath.exp(-1j * half_diff) * cmath.exp(1j * inp.phi) * co * si - cmath.exp(
        1j * half_diff
    ) * cmath.exp(-1j * out.phi) * so * ci
    base = term_diag * cb - term_flip * sb
    value = _pow_two_j(base, j.twice)
    if with_underflow:
        clamped = value == 0.0 and base != 0.0
        return value, clamped
    return value


def equatorial_matrix_element(j, phi_out: float, big_theta: float, phi_in: float) -> complex:
    """<pi/2, phi_out| exp(-i Theta L3) |pi/2, phi_in> in closed form.

    Equals ((exp(-i Theta/2) + exp(i Theta/2) exp(i(phi_in - phi_out)))/2)^(2j);
    the magnitude is ((1 + cos(Theta + phi_in - phi_out))/2)^j, peaked where
    the rotated azimuth phi_in + Theta meets phi_out.
    """
    j = _spin(j)
    base = (
        cmath.exp(-0.5j * big_theta)
        + cmath.exp(0.5j * big_theta) * cmath.exp(1j * (phi_in - phi_out))
    ) / 2.0
    return _pow_two_j(base, j.twice)


def rotate_point(r: EulerAngles, p: SphPoint) -> SphPoint:
    """Image of p under the classical rotation of R."""
    n = rotate_vector(r, p.n)
    theta = math.acos(max(-1.0, min(1.0, float(n[2]))))
    phi = math.atan2(float(n[1]), float(n[0]))
    return SphPoint(theta, phi)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------


def _chebyshev_rows(x: np.ndarray, r_max: int) -> np.ndarray:
    """T_r(x) for r = 0..r_max, shape (r_max+1, len(x))."""
    psi = np.arccos(np.clip(x, -1.0, 1.0))
    return np.cos(np.arange(r_max + 1)[:, None] * psi[None, :])


def _even_even_moments(r_max: int) -> np.ndarray:
    r = np.arange(r_max + 1)
    with np.errstate(divide="ignore"):
        mu = np.where(r % 2 == 0, 2.0 / (1.0 - r.astype(float) ** 2), 0.0)
    return mu


def _odd_odd_moments(r_max: int) -> np.ndarray:
    mu = np.zeros(r_max + 1)
    mu[0] = math.pi / 2.0
    if r_max >= 2:
        mu[2] = -math.pi / 4.0
    return mu


def _cos_half_moments(r_max: int) -> np.ndarray:
    def jj(r: int) -> float:
        return 2.0 / (1.0 - 4.0 * r * r)

    return np.array([jj(r) + (jj(r + 1) + jj(r - 1)) / 2.0 for r in range(r_max + 1)])


def _sin_half_moments(r_max: int) -> np.ndarray:
    def ii(r: int) -> float:
        return 2.0 * (-1.0) ** (r + 1) / (4.0 * r * r - 1.0)

    return np.array([ii(r) - (ii(r + 1) + ii(r - 1)) / 2.0 for r in range(r_max + 1)])


@lru_cache(maxsize=64)
def _theta_rule_cached(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = 2 * degree + 4
    x, w = np.polynomial.legendre.leggauss(n)
    rows = []
    moments = []

    r_max = degree // 2
    rows.append(_chebyshev_rows(x, r_max))
    moments.append(_even_even_moments(r_max))

    if degree >= 2:
        r_max = (degree - 2) // 2
        rows.append(np.sqrt(1.0 - x * x)[None, :] * _chebyshev_rows(x, r_max))
        moments.append(_odd_odd_moments(r_max))

    if degree >= 1:
        r_max = (degree - 1) // 2
        rows.append(np.sqrt((1.0 + x) / 2.0)[None, :] * _chebyshev_rows(x, r_max))
        moments.append(_cos_half_moments(r_max))
        rows.append(np.sqrt((1.0 - x) / 2.0)[None, :] * _chebyshev_rows(x, r_max))
        moments.append(_sin_half_moments(r_max))

    a = np.vstack(rows)
    b = np.concatenate(moments)
    correction, *_ = np.linalg.lstsq(a, b - a @ w, rcond=None)
    w = w + correction
    residual = float(np.max(np.abs(a @ w - b)))
    if residual > 1e-12:
        raise RuntimeError(f"theta rule construction failed, residual {residual:g}")
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    for arr in (theta, x, w):
        arr.setflags(write=False)
    return theta, x, w


def theta_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Colatitude rule (thetas, weights) for the measure sin(theta) dtheta.

    Exact (residual < 1e-12) for every half-angle monomial
    cos^a(theta/2) sin^b(theta/2) with a + b <= degree, covering all
    four parity classes of (a, b).  Corrected weights may be slightly
    negative; nodes are Gauss-Legendre interior points, never poles.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    theta, _, w = _theta_rule_cached(int(degree))
    return theta, w


@dataclass(frozen=True)
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
    n_phi is rounded up to a multiple of phi_multiple.
    """
    if degree is None:
        if j is None:
            raise ValueError("provide j or an explicit degree")
        degree = 2 * _spin(j).twice
    degree = int(degree)
    if n_phi is None:
        n_phi = degree + 2
    n_phi = int(n_phi)
    if n_phi < 1:
        raise ValueError("n_phi must be positive")
    if phi_multiple > 1:
        n_phi = ((n_phi + phi_multiple - 1) // phi_multiple) * phi_multiple
    thetas, weights = theta_rule(degree)
    phis = _TWO_PI * np.arange(n_phi) / n_phi
    phis.setflags(write=False)
    return SphereQuadrature(degree, thetas, weights, phis)


# ----------------------------------------------------------------------
# Diagonal operators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalOp:
    """A symbol P(Omega) together with its realized matrix.

    realized = (2j+1)/(4pi) * integral P(Omega) |Omega><Omega| dOmega,
    evaluated on the product quadrature.  approximate is False when the
    declared band limit puts the whole integrand inside the rule's
    exactness class, True for a plain callable with no declared limit.
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
    monomials of degree <= theta_degree; the rule is then sized so the
    realization is exact.
    """
    j = _spin(j)
    tj = j.twice
    if band_limit is not None:
        k_max, theta_degree = band_limit
        degree = 2 * tj + int(theta_degree)
        min_phi = tj + int(k_max) + 1
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
    tt, pp, ww = rule.grids()
    values = np.asarray(symbol(tt, pp), dtype=complex)
    if values.shape != tt.shape:
        raise ValueError("symbol must return one value per node")
    v = coherent_amplitudes(j, tt, pp)
    scaled = v * (ww * values * (tj + 1) / (4.0 * math.pi))[None, :]
    mat = scaled @ v.conj().T
    return DiagonalOp(j, Operator(j, mat), approximate, rule.degree, rule.n_phi)


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
    idx_m = HalfInt.of(m)
    if (j.twice - idx_m.twice) % 2 != 0 or abs(idx_m.twice) > j.twice:
        raise ValueError(f"m = {idx_m.value} is not a level of spin {j.value}")
    jm = (j.twice + idx_m.twice) // 2
    jmm = (j.twice - idx_m.twice) // 2
    ln_c = 0.5 * float(ln_binomial(j.twice, jm))

    def symbol(thetas, phis):
        ch, sh = _half_angles(thetas)
        phis = np.asarray(phis, dtype=float)
        mag = math.exp(ln_c) * ch**jm * sh**jmm
        return mag * np.exp(-1j * jmm * phis)

    return symbol


def momentum_kick(j, m) -> DiagonalOp:
    """Diagonal operator with symbol y^j_m; shifts levels by j - m."""
    j = _spin(j)
    idx_m = HalfInt.of(m)
    k_max = (j.twice - idx_m.twice) // 2
    return diagonal_operator(j, y_symbol(j, idx_m), band_limit=(k_max, j.twice))


def disentangle_check(j, p: SphPoint) -> float:
    """Residual of the normal-ordered factorization of X_R at R = (phi, theta, -phi).

    Compares X_R against exp(z L-) cos^(2 L3)(theta/2) exp(-conj(z) L+)
    with z = tan(theta/2) exp(i phi).  theta = pi is rejected: the
    factorization needs cos(theta/2) > 0.
    """
    from .rotations import wigner_D_matrix
    from .spin_core import l3_operator, ladder_operators

    j = _spin(j)
    if p.theta == math.pi:
        raise ValueError("factorization undefined at theta = pi")
    z = math.tan(0.5 * p.theta) * cmath.exp(1j * p.phi)
    lp, lm = ladder_operators(j)
    dim = j.dim

    def nilpotent_exp(mat: np.ndarray, coeff: complex) -> np.ndarray:
        out = np.eye(dim, dtype=complex)
        term = np.eye(dim, dtype=complex)
        for k in range(1, j.twice + 1):
            term = (coeff / k) * (term @ mat)
            out = out + term
        return out

    mv = l3_operator(j).mat.diagonal().real
    middle = np.diag(np.cos(0.5 * p.theta) ** (2.0 * mv)).astype(complex)
    right = nilpotent_exp(lm.mat, z) @ middle @ nilpotent_exp(lp.mat, -z.conjugate())
    left = wigner_D_matrix(j, EulerAngles(p.phi, p.theta, -p.phi)).mat
    return float(np.max(np.abs(left - right)))
