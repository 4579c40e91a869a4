"""Independent references for the package's closed forms, each written once.

Every reference here takes a route the package does not: mpmath at 30
to 50 digits (or more, where a sum cancels), exact integers and
fractions, or scipy.  Tests import them from here; the table in
contract.py holds the checks of public callables against them.  Where
two independent forms of one quantity are kept (the tail ratio), both
are named cross-checks.

The spinor contraction and its cases compute at the working mpmath
precision, which the caller sets; every other reference sets its own.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import gammaln

# ----------------------------------------------------------------------
# Coherent-state brackets
# ----------------------------------------------------------------------


def contraction(tj, out, inp, angles=None):
    """<out| R |inp> = (xi_out^H U xi_in)^(2j) at the working precision.

    out and inp are (theta, phi) pairs with spinors xi = (cos(theta/2),
    exp(i phi) sin(theta/2)); U = [[a, -conj(b)], [b, conj(a)]] is the SU(2)
    matrix of the Euler angles (alpha, beta, gamma), the identity when
    angles is None.  Inputs are taken as given, doubles or mpmath numbers.
    """
    (c_o, s_o, e_o), (c_i, s_i, e_i) = (_spinor(*p) for p in (out, inp))
    if angles is None:
        a, b = mp.mpf(1), mp.mpf(0)
    else:
        alpha, beta, gamma = (mp.mpf(x) for x in angles)
        a = mp.expj(-(alpha + gamma) / 2) * mp.cos(beta / 2)
        b = mp.expj((alpha - gamma) / 2) * mp.sin(beta / 2)
    base = c_o * (a * c_i - mp.conj(b) * e_i * s_i) + mp.conj(e_o) * s_o * (b * c_i + mp.conj(a) * e_i * s_i)
    return base**tj


def _spinor(theta, phi):
    theta = mp.mpf(theta)
    return mp.cos(theta / 2), mp.sin(theta / 2), mp.expj(mp.mpf(phi))


def overlap(tj, p1, p2):
    """<Omega_1|Omega_2>: the contraction at R = 1."""
    return contraction(tj, (p1.theta, p1.phi), (p2.theta, p2.phi))


def equatorial_element(tj, phi_out, big_theta, phi_in):
    """<pi/2, phi_out| exp(-i Theta L3) |pi/2, phi_in>, pi/2 taken exactly."""
    return contraction(tj, (mp.pi / 2, phi_out), (mp.pi / 2, phi_in), (big_theta, 0, 0))


def amplitude_magnitudes(tj, theta, rows):
    """|c_m(theta)| = sqrt(C(2j, a)) cos^(2j-a)(theta/2) sin^a(theta/2) at the
    rows a = j - m, at 40 digits, from mpmath's binomial and half-angles."""
    with mp.workdps(40):
        c, s = mp.cos(mp.mpf(theta) / 2), mp.sin(mp.mpf(theta) / 2)
        return [mp.sqrt(mp.binomial(tj, a)) * c ** (tj - a) * s**a for a in rows]


@functools.lru_cache(maxsize=None)
def azimuthal_phases(tj, phis):
    """exp(i k phi) for k = 0..2j (rows) and the doubles phis (columns,
    a tuple), at 50 digits: running products of exp(i phi), each good to
    10^-50, so the k-th row to about k 10^-50."""
    with mp.workdps(50):
        rows, terms = [], [mp.mpc(1)] * len(phis)
        steps = [mp.expj(mp.mpf(phi)) for phi in phis]
        for _ in range(tj + 1):
            rows.append(terms)
            terms = [t * w for t, w in zip(terms, steps)]
        return rows


def syndrome_density(tj, d, k, delta_phi, mode, phis):
    """The leading (S = 1) or full density sum_ab conj(F_a) S_ab F_b at each
    azimuth phi, from contractions at 30 digits with the lattice 2 pi a/d
    taken exactly: F_a = <pi/2, 2 pi (k + a)/d + delta_phi|pi/2, phi> and
    S_ab = <pi/2, 2 pi a/d|pi/2, 2 pi b/d>."""
    with mp.workdps(30):
        half, lattice = mp.pi / 2, [2 * mp.pi * a / d for a in range(d)]
        sep = [[contraction(tj, (half, x), (half, y)) if mode == "full" else int(a == b)
                for b, y in enumerate(lattice)] for a, x in enumerate(lattice)]
        sites = [2 * mp.pi * k / d + mp.mpf(delta_phi) + x for x in lattice]
        out = []
        for phi in phis:
            f = [contraction(tj, (half, site), (half, phi)) for site in sites]
            out.append(float(mp.re(mp.fsum(mp.conj(f[a]) * sep[a][b] * f[b] for a in range(d) for b in range(d)))))
        return np.array(out)


def overlap_law(j, p1, p2):
    """|<Omega1|Omega2>| = (|n1 + n2|^2/4)^j at 50 digits, from the stored doubles:
    an independent form of the magnitude, through the unit vectors."""
    with mp.workdps(50):
        ns = []
        for p in (p1, p2):
            t, f = mp.mpf(p.theta), mp.mpf(p.phi)
            ns.append((mp.sin(t) * mp.cos(f), mp.sin(t) * mp.sin(f), mp.cos(t)))
        return (sum((a + b) ** 2 for a, b in zip(*ns)) / 4) ** mp.mpf(j)


def exact_norm(amps):
    """The 2-norm of a complex vector at 40 digits."""
    with mp.workdps(40):
        return mp.sqrt(mp.fsum(mp.mpf(float(v.real)) ** 2 + mp.mpf(float(v.imag)) ** 2 for v in amps))


# ----------------------------------------------------------------------
# Rotation matrices and monopole harmonics
# ----------------------------------------------------------------------


def wigner_d(j, m, n, beta):
    """d^j_{mn}(beta) from the explicit alternating sum, as a double: every
    term is carried to more digits than the largest of them has."""
    jm, jmm, jn, jnn, mn = (int(v) for v in (j + m, j - m, j + n, j - n, m - n))
    with mp.workdps(int(2 * j * 0.31) + 40):
        b = mp.mpf(beta)
        ch, sh = mp.cos(b / 2), mp.sin(b / 2)
        ratio = -(sh * sh) / (ch * ch)
        lo = max(0, -mn)
        term = (-1) ** (mn + lo) * ch ** (jn + jmm - 2 * lo) * sh ** (mn + 2 * lo) / (
            mp.factorial(lo) * mp.factorial(jn - lo) * mp.factorial(mn + lo) * mp.factorial(jmm - lo)
        )
        total = mp.mpf(0)
        for s in range(lo, min(jn, jmm) + 1):
            total += term
            term *= ratio * (jn - s) * (jmm - s) / ((s + 1) * (mn + s + 1))
        pref = mp.sqrt(mp.factorial(jm) * mp.factorial(jmm) * mp.factorial(jn) * mp.factorial(jnn))
        return float(pref * total)


def monopole_Y(j, l, m, thetas, phi):
    """jY^l_m(theta, phi) = sqrt((2l + 1)/4pi) exp(i (m + j) phi) d^l_{j,-m}(theta)
    at each of the thetas, as a complex array."""
    with mp.workdps(30):
        front = mp.sqrt((2 * mp.mpf(l) + 1) / (4 * mp.pi)) * mp.expj((mp.mpf(m) + mp.mpf(j)) * mp.mpf(phi))
        return np.array([complex(front * wigner_d(l, j, -m, theta)) for theta in thetas])


# ----------------------------------------------------------------------
# Binomials, Gamma ratios and Beta moments
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def binomials(n, step=1, residue=0):
    """(C(n, k) for k = residue, residue + step, ... <= n), exactly: one
    ratio of step-long products between neighbours, so a sparse class of
    a large row costs its own entries only.  binomials(n) is the row."""
    k = residue % step
    term, out = math.comb(n, k), []
    while k <= n:
        out.append(term)
        term = term * math.prod(range(n - k - step + 1, n - k + 1)) // math.prod(range(k + 1, k + step + 1))
        k += step
    return tuple(out)


def mode_band(tj, k, alpha=0, beta=0, scale_sq=1):
    """Diagonal a - b = k of the realized symbol sqrt(scale_sq)
    cos^alpha(t/2) sin^beta(t/2) exp(-i k phi), rows a = max(0, k)..2j +
    min(0, k), at 40 digits: (2j+1) sqrt(C(2j, a) C(2j, b) scale_sq)
    B((p+2)/2, (q+2)/2) with p = 4j - a - b + alpha and q = a + b + beta,
    from mpmath's binomial and Beta functions."""
    with mp.workdps(40):
        band = []
        for a in range(max(0, k), tj + 1 + min(0, k)):
            b = a - k
            p, q = 2 * tj - a - b + alpha, a + b + beta
            root = mp.sqrt(mp.binomial(tj, a) * mp.binomial(tj, b) * scale_sq)
            band.append((tj + 1) * root * mp.beta(mp.mpf(p + 2) / 2, mp.mpf(q + 2) / 2))
        return band


def cyclic_normalization(tj, n):
    """N^2 sum_k C(2j, kN) / 2^(2j) as an exact fraction."""
    return Fraction(n * n * sum(binomials(tj, n)), 2**tj)


def cyclic_overlap_quarter_turn(tj, n):
    """The cyclic qubit's <0bar| exp(-i Theta L3) |1bar> at Theta = pi/(2N), times
    exp(i j Theta), exactly: there exp(ikN Theta) = i^k, so the numerator
    sum_k (-1)^k i^k C(2j, kN) is a Gaussian integer."""
    coeffs = binomials(tj, n)
    signs = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k = (-1)^k i^k
    num_re = sum(c * signs[k % 4][0] for k, c in enumerate(coeffs))
    num_im = sum(c * signs[k % 4][1] for k, c in enumerate(coeffs))
    total = sum(coeffs)
    return complex(Fraction(num_re, total), Fraction(num_im, total))


def peak_comb_cdf(x, n, step, center, lo):
    """CDF on [lo, lo + 2 pi] of the comb sum_a cos^n((x - center - 2 pi a/step)/2),
    a = 0 .. step - 1, n even, from its Fourier series over the exact row
    binomials(n): the comb is step 2^-n sum_{t = 0 mod step} C(n, n/2 + t)
    exp(i t (x - center)), so with c_t = C(n, n/2 + t)/C(n, n/2) the CDF is
    [x - lo + sum_{t > 0} 2 c_t (sin(t (x - center)) - sin(t (lo - center)))/t]/(2 pi).
    The leading syndrome density is the comb at n = 4j, step = d; the
    ancilla kernel cos^(4 j_anc)(x/2) is the comb at step = 1."""
    row = binomials(n)
    c = np.array([c_t / row[n // 2] for c_t in row[n // 2 + step :: step]])
    t = step * np.arange(1, len(c) + 1)
    x = np.asarray(x, dtype=float)
    waves = np.sin(t * (x[:, None] - center)) - np.sin(t * (lo - center))
    return (x - lo + waves @ (2.0 * c / t)) / (2.0 * math.pi)


def cos_sin_realizations(tj, d):
    """The exact realizations of cos(d phi) and sin(d phi), stacked.

    With |c_a|^2 = C(2j, a) cos^(4j - 2a)(t/2) sin^(2a)(t/2), a = j - m, the
    realization of exp(i d phi) is (2j + 1)/2 sqrt(C(2j, a) C(2j, a + d))
    times the Beta moment of degrees (4j - 2a - d, 2a + d) at [a, a + d],
    zero elsewhere; cos and sin are its Hermitian and anti-Hermitian parts.
    """
    row = binomials(tj)
    z = np.zeros((tj + 1, tj + 1))
    for a in range(max(0, -d), min(tj, tj - d) + 1):
        b = a + d
        z[a, b] = (tj + 1) / 2 * math.sqrt(row[a] * row[b]) * beta_moment(2 * tj - a - b, a + b)
    return np.array([(z + z.T) / 2, (z - z.T) / 2j])


def peak_mass(j):
    """2 pi C(4j, 2j)/4^(2j), the mass of one syndrome peak, at 50 digits."""
    n = int(2 * j)
    with mp.workdps(50):
        return 2 * mp.pi * mp.binomial(2 * n, n) / mp.mpf(4) ** n


def ln_gamma_half_step(a):
    """ln Gamma(a + 1/2) - ln Gamma(a) at 40 digits."""
    with mp.workdps(40):
        return mp.loggamma(mp.mpf(a) + 0.5) - mp.loggamma(a)


def beta_moment(a, b):
    """The colatitude integral of cos^a(t/2) sin^b(t/2) sin(t) on [0, pi],
    2 B(a/2 + 1, b/2 + 1), from scipy's gammaln; a and b may be arrays."""
    ln_beta = gammaln(0.5 * a + 1.0) + gammaln(0.5 * b + 1.0) - gammaln(0.5 * (a + b) + 2.0)
    return 2.0 * np.exp(ln_beta)


# ----------------------------------------------------------------------
# The colatitude rule
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _theta_recurrence(n):
    """beta_0 .. beta_(n-1) of the weight (1 - s^2 xi^2)^(-1/2) on [-1, 1],
    s = sin(pi/8), by the Chebyshev algorithm (Gautschi, Orthogonal
    Polynomials, 2004, sec. 2.1.7) from the closed-form moments
    mu_l = 2/(l + 1) 2F1(1/2, (l + 1)/2; (l + 3)/2; s^2), l even; the odd
    moments, and so every alpha_k, vanish.  The map from moments loses
    about 0.7 digit per coefficient, so it runs at 40 + n digits, which
    leaves more than 70 at n = 131."""
    with mp.workdps(40 + n):
        s_sq = mp.sin(mp.pi / 8) ** 2
        mom = [mp.mpf(2) / (l + 1) * mp.hyp2f1(0.5, mp.mpf(l + 1) / 2, mp.mpf(l + 3) / 2, s_sq)
               if l % 2 == 0 else mp.mpf(0) for l in range(2 * n)]
        # sigma_k(l) = sigma_(k-1)(l + 1) - beta_(k-1) sigma_(k-2)(l); beta_k = sigma_k(k)/sigma_(k-1)(k-1)
        beta, prev, cur = [mom[0]], [mp.mpf(0)] * (2 * n), mom
        for k in range(1, n):
            prev, cur = cur, [cur[l + 1] - beta[k - 1] * prev[l] for l in range(2 * n - 1)] + [mp.mpf(0)]
            beta.append(cur[k] / prev[k - 1])
        return tuple(beta)


@functools.lru_cache(maxsize=None)
def theta_rule(degree):
    """The colatitude rule (thetas, weights) of degree + 3 nodes at 40
    digits, rounded to doubles: the Gauss rule for that weight, each node
    xi Newton-refined on the orthonormal recurrence from a double eigenvalue
    of the Jacobi matrix and weighted by its Christoffel number
    1/sum_k p_k(xi)^2; then theta = pi/2 + 4 asin(s xi), with weight
    4 s sin(theta) times the Christoffel number."""
    n = degree + 3
    beta = _theta_recurrence(n)
    with mp.workdps(40):
        b = [mp.sqrt(x) for x in beta]  # b[k], k >= 1, the Jacobi off-diagonals; p_0 = 1/b[0]
        off = np.array([float(x) for x in b[1:]])
        s = mp.sin(mp.pi / 8)
        thetas, weights = [], []
        for start in np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1)):
            xi = mp.mpf(start)
            for _ in range(6):  # from a double: 1e-16, 1e-32, then 1e-40
                # p_k, p_k' and sum p_k^2 up to k = n - 1, then b_n p_n and its derivative
                p_prev, p, dp_prev, dp = mp.mpf(0), 1 / b[0], mp.mpf(0), mp.mpf(0)
                total = p * p
                for k in range(1, n):
                    b_prev = b[k - 1] if k > 1 else 0
                    p_prev, p, dp_prev, dp = (p, (xi * p - b_prev * p_prev) / b[k],
                                              dp, (p + xi * dp - b_prev * dp_prev) / b[k])
                    total += p * p
                step = (xi * p - b[n - 1] * p_prev) / (p + xi * dp - b[n - 1] * dp_prev)
                xi -= step
                if abs(step) < mp.mpf(10) ** -30:
                    break
            else:
                raise ArithmeticError(f"Newton did not converge from {start}")
            theta = mp.pi / 2 + 4 * mp.asin(s * xi)
            thetas.append(float(theta))
            weights.append(float(4 * s * mp.sin(theta) / total))
        return np.array(thetas), np.array(weights)


# ----------------------------------------------------------------------
# The syndrome tail
# ----------------------------------------------------------------------


def tail_ratio_hyp2f1(j, eps):
    """Tail mass over its Laplace reference at 40 digits, the tail from
    ln 2 I_z(a, a), a = 2j + 1/2, z = sin^2((pi - eps)/4), through
    I_z(a, a) = z^a (1 - z)^a 2F1(2a, 1; a + 1; z) / (a B(a, a))."""
    with mp.workdps(40):
        a = mp.mpf(2 * j) + mp.mpf(1) / 2
        z = mp.sin((mp.pi - mp.mpf(eps)) / 4) ** 2
        ln_beta = 2 * mp.loggamma(a) - mp.loggamma(2 * a)
        series = mp.hyp2f1(2 * a, 1, a + 1, z, maxterms=10**6)
        ln_tail = mp.log(2) + a * mp.log(z * (1 - z)) - mp.log(a) - ln_beta + mp.log(series)
        jv, e = mp.mpf(j), mp.mpf(eps)
        ln_laplace = mp.log(mp.sqrt(2 / (mp.pi * jv))) - jv * e**2 / 2 - mp.log(e)
        return mp.exp(ln_tail - ln_laplace)


def tail_mass_window(j, eps):
    """The single-peak tail mass 1 - 2 int_z^(1/2) of the Beta(a, a) density,
    a = 2j + 1/2, z = sin^2((pi - eps)/4), by mpmath.quad at 40 digits: the
    form for a window so narrow that mpmath.betainc does not converge on it
    (2.5e-13 wide at j = 10^10, eps = 1e-12)."""
    with mp.workdps(40):
        a = mp.mpf(2 * j) + mp.mpf(1) / 2
        z = mp.sin((mp.pi - mp.mpf(eps)) / 4) ** 2
        ln_beta = 2 * mp.loggamma(a) - mp.loggamma(2 * a)
        window = mp.quad(lambda x: mp.exp((a - 1) * mp.log(x * (1 - x)) - ln_beta), [z, mp.mpf(1) / 2])
        return 1 - 2 * window


def tail_ratio_quad(j, eps):
    """Tail mass over the Laplace reference, from a 30-digit quadrature of
    cos^(4j)(x/2) split at multiples of its decay length 1/(j eps)."""
    with mp.workdps(30):
        j, eps = mp.mpf(j), mp.mpf(eps)
        width = 1 / (j * eps)
        cuts = [eps + k * width for k in (0, 1, 4, 16, 64, 256)]
        cuts = [c for c in cuts if c < mp.pi] + [mp.pi]
        tail = 2 * mp.quad(lambda x: mp.exp(4 * j * mp.log(mp.cos(x / 2))), cuts)
        mass = 2 * mp.pi * mp.exp(mp.loggamma(4 * j + 1) - 2 * mp.loggamma(2 * j + 1) - 4 * j * mp.log(2))
        laplace = mp.sqrt(2 / (mp.pi * j)) * mp.exp(-j * eps**2 / 2) / eps
        return float(tail / mass / laplace)


# ----------------------------------------------------------------------
# The equatorial decode
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def level_weights(j, dps):
    """C(2j, n)/4^j for n = 2j, ..., 0 at dps digits, highest power first."""
    with mp.workdps(dps):
        return [mp.mpf(c) / mp.mpf(4) ** j for c in reversed(binomials(2 * j))]


def bracket(j, phi_a, phi_b, shift):
    """<pi/2, phi_a| exp(i shift L3) |pi/2, phi_b> at the working precision.

    Up to j = 200 a dense sum over the levels: <m|pi/2, phi> = |c_m| exp(i n phi)
    with n = j - m and |c_m|^2 = C(2j, n)/4^j, so the bracket is
    exp(i j shift) sum_n C(2j, n)/4^j z^n, z = exp(i (phi_b - phi_a - shift)).
    Beyond, the closed form exp(i j shift) ((1 + z)/2)^(2j).
    """
    z = mp.expj(phi_b - phi_a - shift)
    if j <= 200:
        total = mp.polyval(level_weights(j, mp.mp.dps), z)
    else:
        total = ((1 + z) / 2) ** (2 * j)
    return mp.expj(j * shift) * total


def decode_at(j, d, k, delta_phi, phi_m):
    """(|<a|corrected>| for each codeword a, fidelity) at the working precision."""
    index = round(phi_m * d / (2.0 * math.pi))
    s = mp.mpf(phi_m) - 2 * mp.pi * index / d - mp.mpf(delta_phi)
    phis = [2 * mp.pi * a / d for a in range(d)]
    # Option1 codeword phases exp(-2 pi i (j a mod d)/d)
    phases = [mp.expjpi(mp.mpf(-2 * ((j * a) % d)) / d) for a in range(d)]

    def phased(a, b, shift):
        return mp.conj(phases[a]) * phases[b] * bracket(j, phis[a], phis[b], shift)

    ov = [phased(a, k, s) for a in range(d)]
    gram = mp.matrix([[phased(a, b, 0) for b in range(d)] for a in range(d)])
    coeff = mp.lu_solve(gram, mp.matrix(ov))
    norm_sq = mp.re(sum(mp.conj(ov[a]) * coeff[a] for a in range(d)))
    mags = [abs(x) for x in ov]
    return mags, abs(ov[k]) ** 2 / norm_sq


def decode(j, d, k, delta_phi, phi_m):
    """(recovered_k, fidelity, raw_fidelity) of the decode, from the complex
    overlaps of the phased codewords and a complex gram solve in mpmath.

    The dense sums of terms below 1 cancel down to the overlaps (near 1e-46
    from terms near 0.04 at j = 200), so their precision doubles until every
    overlap that is checked keeps 20 digits; the closed form cancels nothing.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            mags, fidelity = decode_at(j, d, k, delta_phi, phi_m)
            raw = mags[k] ** 2
            checked = [max(mags)] + ([mags[k]] if raw > mp.mpf(10) ** -300 else [])
            if j > 200 or min(checked) > mp.mpf(10) ** (20 - dps):
                return mags.index(max(mags)), float(fidelity), float(raw)
        dps *= 2


def decode_spectral(j, d, k, delta_phi, phi_m):
    """(recovered_k, fidelity, raw_fidelity) of the decode, from the reported
    azimuth phi_m through the spectrum of the gram magnitudes, in O(j) terms
    at any d: no DFT sum and no solve.

    The overlaps are v_a = cos^(2j)(y_a/2), y_a = 2 pi (k - a)/d - s, taken at
    40 digits for the recovered codeword and the raw fidelity v_k^2.  With
    cos^(2j)(x/2) = sum_t p_t exp(i t x), p_t = C(2j, j + t)/4^j, the DFT of v
    is v-hat_f = d sum_{t = -f mod d} p_t exp(i t theta), theta = 2 pi k/d - s,
    and C_ab = cos^(2j)(pi (b - a)/d) has the eigenvalues lambda_f =
    d sum_{t = f mod d} p_t, exact integer class sums.  p_t = p_-t, so
    v^T C^-1 v = sum_f |v-hat_f|^2/(d lambda_f) = sum_g |U_g|^2/(4^j L_g)
    with U_g = sum_{t = g mod d} C(2j, j + t) exp(i t theta) and L_g the
    class's integer sum.  U_g cancels down to about d max(v) from terms
    near 1, so the precision grows by the digits max(v) lies below 1.
    """
    index = round(phi_m * d / (2.0 * math.pi))
    shift = phi_m - 2.0 * math.pi * index / d - delta_phi  # only to size the precision
    ln_top = max(2 * j * math.log(abs(math.cos(math.pi * (k - a) / d - shift / 2)) or 1e-300) for a in range(d))
    with mp.workdps(40 + math.ceil(max(0.0, -ln_top) / math.log(10.0))):
        s = mp.mpf(phi_m) - 2 * mp.pi * index / d - mp.mpf(delta_phi)
        mags = [mp.cos(mp.pi * (k - a) / d - s / 2) ** (2 * j) for a in range(d)]
        theta = 2 * mp.pi * k / d - s
        sums, classes = [0] * d, [mp.mpc(0)] * d
        for t, c in enumerate(binomials(2 * j), start=-j):
            sums[t % d] += c
            classes[t % d] += c * mp.expj(t * theta)
        quad = mp.fsum(abs(u) ** 2 / total for u, total in zip(classes, sums)) / mp.mpf(4) ** j
        return mags.index(max(mags)), float(mags[k] ** 2 / quad), float(mags[k] ** 2)


def flat_density(tj, d, mode):
    """The leading or full density where d exceeds 4j or 2j: a constant.

    With cos^(2j)(x/2) = sum_t p_t exp(i t x), p_t = C(2j, j + t)/4^j, the
    sum over d equally spaced sites keeps only t = 0 mod d, and the phases
    of the full form cancel to the real c^T C c, c_a = cos^(2j)(x_a/2).  So
    for d > 4j the leading form sum_a c_a^2 is d C(4j, 2j)/16^j, and for
    d > 2j the full form is d^2 sum_t p_t^3, exactly."""
    if mode == "leading":
        return Fraction(d * math.comb(2 * tj, tj), 4**tj)
    return Fraction(d * d * sum(c**3 for c in binomials(tj)), 8**tj)


# ----------------------------------------------------------------------
# Shift codes
# ----------------------------------------------------------------------


def gkp_code_residual(params, amps):
    """||psi - C^H C psi||^2 over the dense (K x N) codeword matrix C, row s
    r2^(-1/2) at positions (K i + s) r1, i = 0 .. r2 - 1, each set one by
    one: the squared distance of psi to the code space, by projection."""
    k, r1, r2 = params.k, params.r1, params.r2
    basis = np.zeros((k, k * r1 * r2))
    for s in range(k):
        for i in range(r2):
            basis[s, (k * i + s) * r1] = 1.0 / math.sqrt(r2)
    amps = np.asarray(amps, dtype=complex)
    rest = amps - basis.T @ (basis @ amps)
    return float(np.vdot(rest, rest).real)
