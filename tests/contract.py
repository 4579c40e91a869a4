"""The accuracy contract of the public API, as one table with one runner.

A Row names a public callable, its label, the input cases (drawn from
their seeds), an oracle from oracles.py that is evaluated on the same
arguments, and a bound on the error of each case: `below` (strict) or
`within`, a number or a function of the case.  check(row) asserts the
bound case by case and returns the worst case.  A Raises row names a
callable, its arguments, the exception and a message pattern.

A label is a test id, "module::test_name" or "module::test_name[id]".
Each module named in a label runs its rows under those ids through
`globals().update(contract_tests(__name__))`, so a check that moved here
keeps the id and the module it has always had.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest

import oracles
from spinqec import (
    CodeSpec, Codewords, CorrectableAngle, ErrorSet, EulerAngles, GkpParams, HalfInt, Operator, PauliWord, SphPoint,
    StateVec, TailEstimate, antipodal, axis_operator, build_codewords, build_full_landau_code, build_gkp_code,
    canonicalize,
    coherent_amplitudes, compose, conjugated_y, conjugated_z_about_x, correctable_angle, cyclic_normalization,
    cyclic_overlap_closed_form, cyclic_qubit, diagonal_operator, disentangle_check, equatorial_matrix_element,
    equatorial_offdiag_bound, equatorial_qudit, equatorial_z, explicit_list, finite_ancilla_note,
    haar_random_sequence, harmonic_table, hermitian_check_ops, inverse, kl_check, l3_operator, ladder_operators,
    logical_operators,
    lowest_level_bridge, matexp_antihermitian, momentum_kick, momentum_shift_analysis, monopole_Y, overlap,
    overlap_magnitude, recover, rotation_matrix_element, single_peak_mass, sphere_quadrature, stabilizer_eigenphases,
    syndrome_and_recover, syndrome_density, tail_failure, theta_rule, wigner_d, y_symbol,
)
from spinqec.coherent import _azimuthal_phases, _mode_band

EPS = 2.0**-52


def rel(got, ref):
    diff = abs(got - ref)
    return diff / abs(ref) if diff else diff  # an exact match is 0, also at ref = 0


def ratio(got, ref):
    return abs(got / ref - 1)


def absolute(got, ref):
    return abs(got - ref)


def normwise(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def exact(got, ref):
    return 0.0 if type(got) is type(ref) and got == ref else math.inf


@dataclass(frozen=True)
class Row:
    label: str
    func: Callable
    cases: Any  # argument tuples, or a function that draws them
    oracle: Callable
    measure: Callable = rel
    below: Any = None
    within: Any = None
    dps: int = 15  # mpmath precision of the error arithmetic
    covers: str = ""  # the public name checked, where func is not it


class Raises(NamedTuple):
    label: str
    func: Callable
    args: tuple
    kwargs: dict
    exception: type
    match: str | None
    covers: str = ""  # the public name checked, where func is not it


def public_name(row):
    return row.covers or row.func.__qualname__.split(".")[0]  # HalfInt.of covers HalfInt


def check(row):
    """Run one row; returns the case with the largest error as (error, its bound, its arguments)."""
    if isinstance(row, Raises):
        with pytest.raises(row.exception, match=row.match):
            row.func(*row.args, **row.kwargs)
        return None
    strict = row.below is not None
    limit = row.below if strict else row.within
    worst = None
    with mp.workdps(row.dps):
        for args in row.cases() if callable(row.cases) else row.cases:
            err = row.measure(row.func(*args), row.oracle(*args))
            bound = limit(*args) if callable(limit) else limit
            assert err < bound if strict else err <= bound, (row.label, args, err, bound)
            if worst is None or err > worst[0]:
                worst = (err, bound, args)
    return worst


def contract_tests(module):
    """The test functions of the rows labeled module::name[id]: one per name,
    parametrized by the ids where the labels carry them."""
    groups = {}
    for row in TABLE:
        home, _, test = row.label.partition("::")
        if home == module.rpartition(".")[2]:
            name, _, case = test.partition("[")
            groups.setdefault(name, {}).setdefault(case[:-1], []).append(row)
    return {name: _runner(cases) for name, cases in groups.items()}


def _runner(cases):
    def run(case):
        for row in cases[case]:
            check(row)

    return (lambda: run("")) if list(cases) == [""] else pytest.mark.parametrize("case", list(cases))(run)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _closed_form_draws():
    # overlap pairs and equatorial elements drawn in turn from one seed;
    # nearby points keep the value far from the clamp
    rng = np.random.default_rng(5)
    pairs, elements = [], []
    for _ in range(300):
        tj = int(rng.integers(1, 4001))
        spread = 3.0 / math.sqrt(tj)
        t1, f1 = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        t2 = min(math.pi, max(0.0, t1 + spread * rng.normal()))
        f2 = f1 + spread * rng.normal() / max(0.1, math.sin(t1))
        pairs.append((tj, SphPoint(t1, f1), SphPoint(t2, f2)))
        big_theta, phi_out = rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        elements.append((tj, phi_out, big_theta, phi_out - big_theta + spread * rng.normal()))
    return pairs, elements


def _nearby_pairs(j):
    # separation about 1/sqrt(j) keeps the value O(1)
    rng = np.random.default_rng(j)
    cases = []
    for _ in range(60):
        t1, f1 = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
        sep, psi = rng.uniform(0.2, 2.0) / math.sqrt(j), rng.uniform(0.0, 2.0 * math.pi)
        t2 = min(math.pi, max(0.0, t1 + sep * math.cos(psi)))
        cases.append((j, SphPoint(t1, f1), SphPoint(t2, f1 + sep * math.sin(psi) / max(0.05, math.sin(t1)))))
    return cases


def _antipodal_pairs(j):
    # 1e-7 to 1e-3 from the antipode
    rng = np.random.default_rng(int(2 * j))
    cases = []
    for _ in range(60):
        t1, f1 = math.acos(rng.uniform(-0.9, 0.9)), rng.uniform(0.0, 2.0 * math.pi)
        sep, psi = 10 ** rng.uniform(-7.0, -3.0), rng.uniform(0.0, 2.0 * math.pi)
        t2, f2 = math.pi - t1 + sep * math.cos(psi), f1 + math.pi + sep * math.sin(psi) / math.sin(t1)
        cases.append((j, SphPoint(t1, f1), SphPoint(t2, f2)))
    return cases


def _scaled_vectors(scale):
    rng = np.random.default_rng(4)
    vectors = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for dim in (1, 6, 900)]
    return [(amps / np.linalg.norm(amps) * scale,) for amps in vectors]


def _norms(amps):
    vec = StateVec(HalfInt(len(amps) - 1), amps)
    return vec.norm, vec.normalized().norm


def _theta_moment(degree, a, b):
    thetas, weights = theta_rule(degree)
    return float(np.sum(weights * np.cos(0.5 * thetas) ** a * np.sin(0.5 * thetas) ** b))


def _theta_moments_in_logs(degree, a, b):
    thetas, weights = theta_rule(degree)
    ln_ch, ln_sh = np.log(np.cos(0.5 * thetas)), np.log(np.sin(0.5 * thetas))
    return np.exp(a * ln_ch[None, :] + b[:, None] * ln_sh[None, :]) @ weights


def _round(j, d, k, seed, j_anc):
    run = recover(j, d, k, 0.1, seed, j_anc=j_anc)
    return run.recovered_k, run.fidelity, run.raw_fidelity


def _decode_of_round(j, d, k, seed, j_anc):
    return oracles.decode(j, d, k, 0.1, recover(j, d, k, 0.1, seed, j_anc=j_anc).measured_phi)


def _spectral_decode_of_round(j, d, k, seed, j_anc):
    return oracles.decode_spectral(j, d, k, 0.1, recover(j, d, k, 0.1, seed, j_anc=j_anc).measured_phi)


def _ancilla_note(j, j_anc, d, runs):
    note = finite_ancilla_note(j, j_anc, d=d, runs=runs)
    return note.mean_fidelity_ideal, note.mean_fidelity_ancilla


def _ancilla_note_by_oracle(j, j_anc, d, runs):
    # the mean fidelities of the same rounds, each decoded by the spectral oracle
    return tuple(sum(oracles.decode_spectral(j, d, 0, 0.0, recover(j, d, 0, 0.0, seed, j_anc=anc).measured_phi)[1]
                     for seed in range(runs)) / runs for anc in (None, j_anc))


def _pairwise_rel(got, want):
    return max(rel(a, b) for a, b in zip(got, want))


def _decode_error(got, want):
    # the codeword must agree; raw fidelities below 1e-300 are not compared
    if got[0] != want[0]:
        return math.inf
    return max(rel(got[1], want[1]), rel(got[2], want[2]) if want[2] > 1e-300 else 0.0)


def _quarter_turn_overlap(j, n):
    # times exp(i j Theta), the phase the exact form leaves out
    phase = cmath.exp(1j * math.pi * ((2 * j % (8 * n)) / (4 * n)))
    return cyclic_overlap_closed_form(j, n, math.pi / (2 * n)) * phase


def _harmonic(route):
    return lambda j, l, m, thetas, phi: monopole_Y(j, l, m, route=route)(np.array(thetas), phi)


def _density(tj, d, k, delta_phi, mode, phis):
    return syndrome_density(HalfInt(tj), d, k, delta_phi, mode)(phis)


def _check_ops(tj, d):
    return np.array([op.mat for op in hermitian_check_ops(HalfInt(tj), d)])


def _phase_draws(tj, count):
    return [(tj, tuple(np.random.default_rng(tj).uniform(0.0, 2.0 * math.pi, count).tolist()))]


def _table_error(got, ref):
    return max(abs(complex(v) - r) for got_row, ref_row in zip(got, ref) for v, r in zip(got_row, ref_row))


def _one_exponential_error(tj, phis):
    # the table as it was built before: one exponential of the rounded
    # product k phi per entry
    table = np.exp(1j * np.arange(tj + 1)[:, None] * np.array(phis)[None, :])
    return _table_error(table, oracles.azimuthal_phases(tj, phis))


def _magnitude_cases(tj):
    """(2j, theta, rows): at four colatitudes, 40 rows spread evenly over the
    rows whose magnitude, by lgamma, is at least 1e-299, both ends included."""
    cases = []
    for theta in (0.3, 1.0, 1.9, 2.8):
        half = 0.5 * theta
        log10 = [(0.5 * (math.lgamma(tj + 1) - math.lgamma(a + 1) - math.lgamma(tj - a + 1))
                  + (tj - a) * math.log(math.cos(half)) + a * math.log(math.sin(half))) / math.log(10.0)
                 for a in range(tj + 1)]
        span = [a for a, v in enumerate(log10) if v >= -299.0]
        cases.append((tj, theta, tuple(sorted({round(x) for x in np.linspace(span[0], span[-1], 40)}))))
    return cases


def _magnitudes(tj, theta, rows):
    # at phi = 0 every phase is exactly 1, so the amplitudes are the magnitudes
    return coherent_amplitudes(HalfInt(tj), [theta], [0.0])[list(rows), 0].real


def _largest_ratio_error(got, ref):
    return max(abs(mp.mpf(float(g)) / r - 1) for g, r in zip(got, ref))


def _built_band(tj, name, x):
    # the nonzero band of a one-mode builder: the kick to twice-m = x, Z-bar
    # (x = 1) or the Z-check (x = d) of an equatorial qudit, the cos(x phi)
    # check operator
    j = HalfInt(tj)
    if name == "momentum_kick":
        return np.diagonal(momentum_kick(j, HalfInt(x)).realized.mat, (x - tj) // 2)
    if name == "logical_operators":
        logical = logical_operators(equatorial_qudit(j, max(x, 2)))
        return np.diagonal((logical.zbar if x == 1 else logical.zcheck).mat, x)
    return np.diagonal(hermitian_check_ops(j, x)[0].mat, abs(x))


def _quadrature_band(tj, name, x):
    j = HalfInt(tj)
    if name == "momentum_kick":
        k = (tj - x) // 2
        return np.diagonal(diagonal_operator(j, y_symbol(j, HalfInt(x)), band_limit=(k, tj)).realized.mat, -k)
    symbol = (lambda t, p: np.exp(1j * x * p)) if name == "logical_operators" else (lambda t, p: np.cos(x * p))
    return np.diagonal(diagonal_operator(j, symbol, band_limit=(abs(x), 0)).realized.mat, abs(x))


def _kernel_args(tj, name, x):
    # (k, alpha, beta, scale_sq) of the builder's one mode; cos(x phi) holds
    # half of exp(i |x| phi)'s band
    if name == "momentum_kick":
        k = (tj - x) // 2
        return k, tj - k, k, math.comb(tj, k)
    return -abs(x), 0, 0, 1


def _kernel_band(tj, name, x):
    return _mode_band(tj, *_kernel_args(tj, name, x))


def _exact_band(tj, name, x):
    band = oracles.mode_band(tj, *_kernel_args(tj, name, x))
    return [v / 2 for v in band] if name == "hermitian_check_ops" else band


def _entrywise(got, ref):
    # relative to each entry, or to the smallest normal double where the
    # entry underflows
    return max(abs(g - r) / max(r, 2.0**-1022) for g, r in zip(got, ref))


def _band_cases(tj, name):
    if name == "momentum_kick":
        return [(tj, name, x) for x in sorted({tj, tj - 2, tj % 2, 2 - tj, -tj}) if -tj <= x <= tj]
    if name == "logical_operators":
        return [(tj, name, d) for d in (1, 2, 3, 4) if tj % 2 == 0 and d <= tj]
    return [(tj, name, d) for d in (-3, -1, 1, 2, 3) if abs(d) <= tj]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_Y_AXIS_3 = axis_operator(3, (0.0, 1.0, 0.0))
_SPIN_1 = StateVec.basis_state(1, 0)
_DENSITY_PHIS = np.linspace(0.0, 2.0 * math.pi, 61)
_NON_FINITE = (math.inf, -math.inf, math.nan)

# (test, exception, [(id, callable, args, kwargs, message pattern or None[, covers])]);
# an id "<lambda>-..." is the one pytest gave the former test's lambda
_RAISE_TABLES = [
    ("test_domain_edges::test_halfint_rejects_non_finite", ValueError,
     [(str(v), HalfInt.of, (v,), {}, "value must be a finite half-integer") for v in _NON_FINITE]),
    ("test_domain_edges::test_error_set_rejects_non_finite", ValueError, [
        ("<lambda>-max_angle0", equatorial_z, (math.nan, 8), {}, "max_angle"),
        ("<lambda>-max_angle1", equatorial_z, (math.inf, 8), {}, "max_angle"),
        ("<lambda>-phi0_0", conjugated_y, (math.nan, 0.1), {}, "phi0"),
        ("<lambda>-x_angle", conjugated_z_about_x, (0.1, math.nan), {}, "x_angle"),
        ("<lambda>-phi0_1", ErrorSet, ("EquatorialZ",), {"max_angle": 0.1, "phi0": -math.inf}, "phi0"),
    ]),
    # each of these used to return nan angles with sign -1, or keep the inf
    ("test_domain_edges::test_rotation_callers_reject_non_finite_angles", ValueError, [
        ("compose-nan", lambda *a: compose(EulerAngles(*a), EulerAngles(0.0, 0.0, 0.0)), (math.nan, 0.1, 0.2),
         {}, "^alpha must be finite", "compose"),
        ("canonicalize-inf", lambda *a: canonicalize(EulerAngles(*a)), (math.inf, 0.3, 0.0), {},
         "^alpha must be finite", "canonicalize"),
        ("inverse-inf", lambda *a: inverse(EulerAngles(*a)), (0.1, 0.2, -math.inf), {}, "^gamma must be finite",
         "inverse"),
        ("explicit_list-nan", lambda *a: explicit_list([EulerAngles.identity(), EulerAngles(*a)]),
         (0.1, math.nan, 0.0), {}, "^beta must be finite", "explicit_list"),
    ]),
    ("test_domain_edges::test_spin_core_rejects_non_finite_input", ValueError, [
        ("axis_operator-nan", axis_operator, (3, (math.nan, 0.0, 0.0)), {}, "^axis "),
        ("matexp-nan", matexp_antihermitian, (_Y_AXIS_3, math.nan), {}, "^t "),
        ("matexp-inf", matexp_antihermitian, (_Y_AXIS_3, math.inf), {}, "^t "),
        ("matexp-minus-inf", matexp_antihermitian, (_Y_AXIS_3, -math.inf), {}, "^t "),
    ]),
    ("test_domain_edges::test_closed_form_bounds_reject_empty_domain", ValueError, [
        ("correctable_angle-spin-0", correctable_angle, (0, 2, 0.1), {}, "j must be positive"),
        ("equatorial_offdiag_bound-d-0", equatorial_offdiag_bound, (4, 0, 0.1), {}, "d must be at least 2"),
        ("disentangle_check-scale-overflow", disentangle_check, (200, SphPoint(2.8, 0.0)), {},
         r"^j = 200, theta = 2\.8: .* double range"),
    ]),
    # each of these used to come back as a silent number (1.0, 0.0, -0.0,
    # means of nan), an empty list, a ZeroDivisionError or a numpy warning
    ("test_domain_edges::test_overlap_law_callers_reject_bad_input", ValueError, [
        ("equatorial_offdiag_bound-nan", equatorial_offdiag_bound, (4, 3, math.nan), {}, "^t_max "),
        ("equatorial_offdiag_bound-inf", equatorial_offdiag_bound, (4, 3, math.inf), {}, "^t_max "),
        ("cyclic_normalization-N-0", cyclic_normalization, (8, 0), {}, "^n_cosets "),
        ("cyclic_normalization-N-negative", cyclic_normalization, (8, -2), {}, "^n_cosets "),
        ("cyclic_overlap_closed_form-N-0", cyclic_overlap_closed_form, (8, 0, 0.3), {}, "^n_cosets "),
        ("cyclic_overlap_closed_form-nan", cyclic_overlap_closed_form, (8, 3, math.nan), {}, "^big_theta "),
        ("cyclic_overlap_closed_form-inf", cyclic_overlap_closed_form, (8, 3, -math.inf), {}, "^big_theta "),
        ("SphPoint-phi-nan", SphPoint, (0.3, math.nan), {}, "^phi "),
        ("SphPoint-phi-inf", SphPoint, (0.3, math.inf), {}, "^phi "),
        ("SphPoint-theta-nan", SphPoint, (math.nan, 0.3), {}, "^theta "),
        ("finite_ancilla_note-runs-0", finite_ancilla_note, (8, 4), {"runs": 0}, "^runs "),
        ("finite_ancilla_note-runs-negative", finite_ancilla_note, (8, 4), {"runs": -2}, "^runs "),
        ("haar_random_sequence-count-negative", haar_random_sequence, (3, -1), {}, "^count "),
    ]),
    # The N-term roots-of-unity sum is good to about N^2 2^-53, absolute, and
    # here the normalization is below that.  These came back as -1.48e-13
    # (exact 5.04e-40; build_codewords then hit a math domain error), as a
    # value 2.3e-6 relative off at (100, 150), and as overlaps of magnitude
    # 0.354 and 1.205 where the exact magnitude is at most 1.
    ("test_domain_edges::test_cyclic_closed_forms_reject_n_near_2j", ValueError, [
        (f"{func.__name__}-{j}-{n}", func, (cyclic_qubit(j, n),) if func is build_codewords
         else (j, n, *rest), {}, rf"^j = {j}, n_cosets = {n}: ")
        for func, j, n, *rest in [
            (cyclic_normalization, 100, 190), (build_codewords, 100, 190), (cyclic_normalization, 40, 100),
            (cyclic_normalization, 100, 250), (cyclic_normalization, 100, 150),
            (cyclic_normalization, 20, 41), (cyclic_overlap_closed_form, 40, 100, 0.1),
            (cyclic_overlap_closed_form, 10000, 15000, 0.1),
        ]
    ]),
    # the dense builders that allocated unguarded: 1 GiB each at 2j + 1 = 8193
    ("test_domain_edges::test_dense_builders_refused_past_max_dense_dim", ValueError, [
        (func.__qualname__, func, args, {}, r"^j = 4096: 2j \+ 1 = 8193 exceeds MAX_DENSE_DIM")
        for func, args in [(l3_operator, (4096,)), (ladder_operators, (4096,)),
                           (axis_operator, (4096, (0.0, 1.0, 0.0))), (Operator.identity, (4096,))]
    ]),
    # the colatitude rule's Jacobi block of (degree + 4) // 2 rows past
    # MAX_DENSE_DIM: 537 MB at degree 16382, the first degree refused
    ("test_domain_edges::test_theta_rule_refused_past_max_dense_dim", ValueError, [
        (name, func, args, kwargs,
         r"^degree = 16382: .* = 8193 exceeds MAX_DENSE_DIM = 8192; .* would need 537,001,992 bytes$")
        for name, func, args, kwargs in [("theta_rule", theta_rule, (16382,), {}),
                                         ("sphere_quadrature", sphere_quadrature, (), {"degree": 16382})]
    ]),
    # more codewords than levels are linearly dependent: the decode's bound,
    # checked before any draw, also past MAX_DENSE_DIM
    ("test_domain_edges::test_recovery_refuses_more_codewords_than_levels", ValueError, [
        (name, func, args, kwargs, r"^d = 8194 codewords need 2 <= d <= 2j \+ 1 = 8193 levels$")
        for name, func, args, kwargs in [
            ("recover", recover, (4096, 8194, 0, 0.1, 0), {}),
            ("finite_ancilla_note", finite_ancilla_note, (4096, 20), {"d": 8194}),
        ]
    ]),
    # a round's or a density point's d-wide working set, about 210 bytes a
    # codeword or site, past the 1 GiB of one dense table: the first d refused
    ("test_domain_edges::test_recovery_refused_past_one_dense_table", ValueError, [
        (name, func, args, kwargs, r"^d = 5113057: 1 x 5113057 entries of 210 bytes would need 1,073,741,970 bytes")
        for name, func, args, kwargs in [
            ("recover", recover, (2**22, 5113057, 0, 0.1, 0), {}),
            ("finite_ancilla_note", finite_ancilla_note, (2**22, 20), {"d": 5113057}),
            ("syndrome_density-leading", syndrome_density, (4, 5113057, 0, 0.0), {}),
            ("syndrome_density-full", syndrome_density, (4, 5113057, 0, 0.0, "full"), {}),
        ]
    ]),
    # a shift code whose (k x N) codewords pass the 1 GiB of one dense table:
    # GkpParams(2, 10^13, 3) asked numpy for 1.71 PiB.  The round and the
    # eigenphases build no (k x N) table, so they take any N the state holds
    # and refuse this 3-level state for its dimension alone
    ("test_domain_edges::test_gkp_tables_refused_past_one_dense_table", ValueError, [
        (func.__name__, func, (GkpParams(2, 10**13, 3), *rest), {}, match)
        for func, match, *rest in [
            (build_gkp_code,
             r"^N = 60000000000000: 2 x 60000000000000 entries of 16 bytes would need 1,920,000,000,000,000 bytes"),
            (syndrome_and_recover, r"^state dimension does not match the code$", 0, 0, StateVec(1, [1.0, 0.0, 0.0])),
            (stabilizer_eigenphases, r"^state dimension does not match modulus$", StateVec(1, [1.0, 0.0, 0.0]))]
    ]),
    # about 96 bytes per (2j+1)^2 entry: refused from 2j + 1 = 3345, where that passes 1 GiB
    ("test_domain_edges::test_disentangle_check_refused_past_one_dense_table", ValueError, [
        ("disentangle_check", disentangle_check, (1672, SphPoint(1.0, 0.3)), {},
         r"^j = 1672: 2j \+ 1 = 3345: 3345 x 3345 entries of 96 bytes would need 1,074,146,400 bytes"),
    ]),
    ("test_domain_edges::test_recover_rejects_non_finite_delta", ValueError,
     [(str(v), recover, (8, 2, 0, v, 0), {}, "delta_phi") for v in (math.nan, math.inf)]),
    # counts that were truncated, or failed deep inside numpy
    ("test_contract::test_fractional_counts_rejected", TypeError, [
        (f"{func.__name__}-{name}", func, args, kwargs, rf"^{name} must be an integer")
        for func, args, kwargs, name in [
            (equatorial_qudit, (8, 2.5), {}, "d"),
            (cyclic_qubit, (8, 2.5), {}, "n_cosets"),
            (cyclic_normalization, (8, 2.5), {}, "n_cosets"),
            (cyclic_overlap_closed_form, (8, 2.5, 0.3), {}, "n_cosets"),
            (recover, (8, 2.5, 0, 0.1, 0), {}, "d"),
            (finite_ancilla_note, (8, 4), {"d": 2.5}, "d"),
            (finite_ancilla_note, (8, 4), {"runs": 2.5}, "runs"),
            (syndrome_density, (8, 2.5, 0, 0.0), {}, "d"),
            # d and k that were truncated: d = 2.5 read as 2 budgets, k = 1.5 as 1
            (correctable_angle, (4, 2.5, 0.1), {}, "d"),
            (equatorial_offdiag_bound, (4, 2.5, 0.1), {}, "d"),
            (recover, (8, 2, 1.5, 0.1, 0), {}, "k"),
            (finite_ancilla_note, (8, 4), {"k": 1.5}, "k"),
            (syndrome_density, (8, 2, 1.5, 0.1), {}, "k"),
            # a fractional count of samples built, then failed inside numpy at
            # scan time; True scanned one sample
            (equatorial_z, (0.2, 2.5), {}, "samples"),
            (conjugated_y, (0.0, 0.2, True), {}, "samples"),
            (build_full_landau_code, (2.5, 1), {}, "N"),
            (theta_rule, (2.5,), {}, "degree"),
            (sphere_quadrature, (), {"degree": 2.5}, "degree"),
            (sphere_quadrature, (), {"degree": 4, "phi_multiple": 2.5}, "phi_multiple"),
            (hermitian_check_ops, (4, 1.5), {}, "d"),
            (diagonal_operator, (3, np.cos), {"band_limit": (1.5, 0)}, "k_max"),
            (diagonal_operator, (3, np.cos), {"band_limit": (1, 0.5)}, "theta_degree"),
        ]
    ]),
    # an unnormalized column (norm 0.565 at theta = 4, 0.827 at -0.5, 0 at
    # nan), a nan density, and nan harmonics with RuntimeWarnings
    ("test_contract::test_non_finite_or_off_sphere_inputs_rejected", ValueError, [
        *((f"coherent_amplitudes-theta-{i}", coherent_amplitudes, (3, theta, 0.0), {},
           rf"^theta must lie in \[0, pi\], got {got}")
          for i, theta, got in [("4", [0.2, 4.0], "4.0"), ("negative", -0.5, "-0.5"), ("nan", math.nan, "nan")]),
        ("coherent_amplitudes-phi-inf", coherent_amplitudes, (3, 0.3, [0.0, math.inf]), {},
         "^phi must be finite, got inf"),
        ("syndrome_density-delta-nan", syndrome_density, (8, 2, 0, math.nan), {}, "^delta_phi must be finite"),
        # the spec kept a NaN phi0, and only build_codewords failed, naming phi
        ("antipodal-phi0-nan", antipodal, (4, math.nan), {}, "^phi0 must be finite, got nan"),
        *((f"monopole_Y-{route}-{name}", _harmonic(route), (0.5, 2.5, 0.5, *args), {}, f"^{name} must be finite",
           "monopole_Y")
          for route in ("jacobi", "wigner-d")
          for name, args in [("theta", ([math.nan], 0.3)), ("phi", ([0.1], math.inf))]),
        ("harmonic_table-theta-nan", harmonic_table, (0.5, 2.5, [0.3, math.nan], [0.0]), {},
         "^theta must be finite, got nan"),
        ("harmonic_table-phi-inf", harmonic_table, (0.5, 2.5, [0.3], [-math.inf]), {},
         "^phi must be finite, got -inf"),
    ]),
    # a string reached float(), which parsed it: each of these ran as a number
    ("test_contract::test_strings_are_not_real_numbers", TypeError, [
        (f"{i}-{name}", func, args, {}, rf"^{name} must be a real number, got (b?)'", *covers)
        for i, func, args, name, *covers in [
            ("HalfInt.of", HalfInt.of, ("2.5",), "value"),
            ("EulerAngles", EulerAngles, ("0.1", 0.0, 0.0), "alpha"),
            ("EulerAngles-bytes", EulerAngles, (0.1, b"0.2", 0.0), "beta"),
            ("SphPoint-theta", SphPoint, ("0.3", "1"), "theta"),
            ("SphPoint-phi", SphPoint, (0.3, "1"), "phi"),
            ("coherent_amplitudes-theta", coherent_amplitudes, (3, [0.2, "0.3"], 0.0), "theta"),
            ("coherent_amplitudes-phi", coherent_amplitudes, (3, 0.3, ["0.1"]), "phi"),
            ("antipodal", antipodal, (4, "0.3"), "phi0"),
            ("CodeSpec", lambda phi0: CodeSpec(HalfInt(4), "Antipodal", phi0=phi0), ("0.3",), "phi0", "CodeSpec"),
            ("cyclic_overlap_closed_form", cyclic_overlap_closed_form, (8, 3, "0.3"), "big_theta"),
            ("equatorial_z", equatorial_z, ("0.2", 4), "max_angle"),
            ("conjugated_y", conjugated_y, ("0.1", 0.2), "phi0"),
            ("conjugated_z_about_x", conjugated_z_about_x, (0.1, "0.9"), "x_angle"),
            ("tail_failure", tail_failure, (4, "0.3"), "epsilon"),
            ("recover", recover, (4, 2, 0, "0.1", 0), "delta_phi"),
            ("harmonic_table", harmonic_table, (0, 1, ["0.3"], ["0.1"]), "theta"),
        ]
    ]),
    # float() read a bool as 0 or 1: each of these ran as a number
    ("test_contract::test_bools_are_not_real_numbers", TypeError, [
        (f"{i}-{name}", func, args, {}, rf"^{name} must be a real number, got (np\.)?True", *covers)
        for i, func, args, name, *covers in [
            ("EulerAngles", EulerAngles, (True, 0.0, 0.0), "alpha"),
            ("tail_failure", tail_failure, (4, True), "epsilon"),
            ("recover", recover, (True, 2, 0, 0.1, 0), "value"),
            ("HalfInt.of", HalfInt.of, (np.True_,), "value"),
            ("coherent_amplitudes", coherent_amplitudes, (3, [True, False], 0.0), "theta"),
            # numpy read a list that mixes floats and bools as floats: these
            # ran at theta = 1
            ("coherent_amplitudes-mixed", coherent_amplitudes, (3, [0.2, True], 0.0), "theta"),
            ("harmonic_table-mixed", harmonic_table, (0.5, 2.5, [0.3, True], [0.0]), "theta"),
        ]
    ]),
    # each constructed, and build_codewords then failed with "'float' object
    # cannot be interpreted as an integer"
    ("test_contract::test_code_spec_counts_rejected", TypeError, [
        (i, CodeSpec, (HalfInt(8), family), {name: value}, rf"^{name} must be an integer")
        for i, family, name, value in [
            ("d-fraction", "EquatorialQudit", "d", 2.5),
            ("d-float64", "EquatorialQudit", "d", np.float64(3.0)),
            ("n_cosets-fraction", "CyclicQubit", "n_cosets", 2.5),
        ]
    ]),
    # reachable raises that no test ran
    ("test_contract::test_invalid_arguments_rejected", ValueError, [
        ("sphere_quadrature-no-j-or-degree", sphere_quadrature, (), {}, "^provide j or an explicit degree"),
        ("sphere_quadrature-n_phi-0", sphere_quadrature, (), {"degree": 4, "n_phi": 0}, "^n_phi must be positive"),
        ("diagonal_operator-symbol-shape", diagonal_operator, (2, lambda t, p: np.ones(3)), {},
         "^symbol must return one value per node"),
        ("PauliWord-n-0", PauliWord, (0, 0, 0), {}, "^modulus n must be >= 1, got 0"),
        ("PauliWord.apply-dimension", lambda: PauliWord(4, 1, 0).apply(_SPIN_1), (), {},
         "^state dimension does not match modulus", "PauliWord"),
        ("CodeSpec-family", CodeSpec, (HalfInt(4), "Bogus"), {}, "^unknown family 'Bogus'"),
        ("logical_operators-antipodal", lambda: logical_operators(antipodal(4)), (), {},
         "^logical_operators applies to EquatorialQudit specs", "logical_operators"),
        ("lowest_level_bridge-m-over-j", lowest_level_bridge, (1, 2), {}, r"^\|m\| must not exceed j"),
        ("build_full_landau_code-N-0", build_full_landau_code, (0, 1), {}, "^N must be at least 1"),
        ("build_full_landau_code-j-negative", build_full_landau_code, (2, -1), {},
         "^codes are built for nonnegative spin weight"),
        ("build_full_landau_code-l_max-below-j", build_full_landau_code, (2, 1), {"l_max": 0.5},
         "^l_max must be j plus a nonnegative integer"),
        ("momentum_shift_analysis-m-over-l", lambda: momentum_shift_analysis(build_full_landau_code(2, 1), 1, 2),
         (), {}, r"^\|m\| must not exceed l", "momentum_shift_analysis"),
        ("ErrorSet-kind", ErrorSet, ("Bogus",), {}, "^unknown error-set kind 'Bogus'"),
        ("explicit_list-member", lambda: explicit_list([EulerAngles.identity()]).member(0.1), (), {},
         "^ExplicitList has no parametric members", "explicit_list"),
        ("kl_check-one-codeword",
         lambda: kl_check(Codewords(antipodal(4), [[(SphPoint.north(), 1.0)]]), equatorial_z(0.1, 4), 0), (), {},
         "^need at least two codewords", "kl_check"),
        # laplace_tail came back inf
        ("tail_failure-laplace-overflow", tail_failure, (1, 2.2e-313), {},
         r"^epsilon = 2\.2e-313: the Laplace reference exceeds the double range"),
        ("TailEstimate-numeric_tail", TailEstimate, (HalfInt(2), 0.3, 1.5, 0.1, 1.0), {},
         r"^numeric_tail must lie in \[0, 1\]"),
        ("HalfInt.dim-negative", lambda: HalfInt(-2).dim, (), {}, "^dimension is defined for nonnegative labels",
         "HalfInt"),
        ("StateVec.inner-spin", lambda: _SPIN_1.inner(StateVec.basis_state(2, 0)), (), {},
         "^mismatched spin labels", "StateVec"),
        *((f"Operator.{name}-spin", lambda name=name, args=args: getattr(_Y_AXIS_3, name)(*args), (), {},
           "^mismatched spin labels", "Operator")
          for name, args in [("apply", (_SPIN_1,)), ("max_diff", (Operator.identity(1),)),
                             ("sandwich", (_SPIN_1, _SPIN_1))]),
    ]),
    ("test_contract::test_unsupported_operands_rejected", TypeError, [
        ("PauliWord-times-int", lambda: PauliWord(4, 1, 0) * 3, (), {}, "unsupported operand", "PauliWord"),
        ("Operator-matmul-int", lambda: _Y_AXIS_3 @ 3, (), {}, "unsupported operand", "Operator"),
    ]),
    # a negative k_max returned an exactly zero operator, and a negative
    # theta_degree a rule too small for the symbol, marked exact
    ("test_contract::test_counts_out_of_range_rejected", ValueError, [
        ("sphere_quadrature-phi_multiple-0", sphere_quadrature, (), {"degree": 4, "phi_multiple": 0},
         "^phi_multiple must be at least 1"),
        ("sphere_quadrature-phi_multiple--3", sphere_quadrature, (), {"degree": 4, "phi_multiple": -3},
         "^phi_multiple must be at least 1"),
        ("diagonal_operator-k_max-negative", diagonal_operator, (3, np.cos), {"band_limit": (-1, 0)},
         "^band_limit = .* nonnegative"),
        ("diagonal_operator-theta_degree-negative", diagonal_operator, (3, np.cos), {"band_limit": (0, -5)},
         "^band_limit = .* nonnegative"),
    ]),
]

_SMALL_L = [(0.5, 40.5, 0.5), (2, 40, -3), (-1.5, 20.5, 4.5)]
_HARMONICS = [  # (route, regime, (j, l, m) labels, thetas, bound)
    ("jacobi", "l-to-41", _SMALL_L, (0.0, 0.4, 1.3, 2.2, math.pi), 1e-13),
    ("wigner-d", "l-to-41", _SMALL_L, (0.0, 0.4, 1.3, 2.2, math.pi), 1e-13),
    # the jacobi route's factorial prefactor is the square root of an exact
    # integer ratio; 1.0e-13 measured, where a difference of log-factorials
    # near 2.9e4 read 1.6e-12
    ("jacobi", "l-2000", [(2000, 2000, 10), (10, 2000, 100)], (1.5, 1.55, 1.6), 1e-12),
    ("wigner-d", "l-2000", [(2000, 2000, 10), (10, 2000, 100)], (1.5, 1.55, 1.6), 5e-13),
]

_POLE_ENTRIES = [
    (1e-3, [(400, 400), (399, 400), (1, 0), (10, -5), (200, 190), (-300, -280), (400, 380), (3, -3)]),
    (math.pi - 1e-3,
     [(400, -400), (399, -400), (1, 0), (10, 5), (200, -190), (-300, 280), (400, -380), (3, -3)]),
]

TABLE = [
    # -- coherent states ---------------------------------------------------
    # exact inputs: rounding the base costs a few ulp, which the 2j-th power
    # multiplies by 2j, so the bound is 4 * 2j * eps (3.6e-12 at 2j = 4000)
    Row("test_one_kernel::test_overlap_and_equatorial_element_against_mpmath",
        lambda tj, p, q: overlap(HalfInt(tj), p, q), lambda: _closed_form_draws()[0], oracles.overlap,
        within=lambda tj, *_: 4 * tj * EPS, dps=40, covers="overlap"),
    Row("test_one_kernel::test_overlap_and_equatorial_element_against_mpmath",
        lambda tj, *angles: equatorial_matrix_element(HalfInt(tj), *angles), lambda: _closed_form_draws()[1],
        oracles.equatorial_element, within=lambda tj, *_: 4 * tj * EPS, dps=40,
        covers="equatorial_matrix_element"),
    # (1 + n1.n2)/2 rounded the information 1 - |base| at absolute 2^-53,
    # 1.5e-10 off at j = 10^6; near the antipode 1 + n1.n2 was up to 13 % off
    *(Row(f"test_one_kernel::test_overlap_magnitude_nearby_pairs_against_mpmath[{j}]", overlap_magnitude,
          functools.partial(_nearby_pairs, j), oracles.overlap_law, ratio, below=1e-12)
      for j in (2, 50, 1000, 10**6)),
    *(Row(f"test_one_kernel::test_overlap_magnitude_near_antipode_against_mpmath[{j}]", overlap_magnitude,
          functools.partial(_antipodal_pairs, j), oracles.overlap_law, ratio, below=1e-7)
      for j in (0.5, 1, 2, 5)),
    # (1 + cos(pi - t))/2 = sin^2(t/2) cancels in 1 + cos: 8.9e-5 off at
    # j = 1, t = 1e-6; the reference takes pi exactly, so the 1.2e-16 of
    # math.pi is in the error, about 1.2e-10 relative at t = 1e-6
    *(Row(f"test_one_kernel::test_equatorial_offdiag_bound_near_antipode_against_mpmath[{t}-{j}]",
          equatorial_offdiag_bound, [(j, 2, t)],
          lambda j, d, t: abs(oracles.equatorial_element(2 * j, 0, mp.pi - t, 0)), ratio, below=1e-9, dps=50)
      for j in (0.5, 1) for t in (1e-3, 1e-5, 1e-6)),
    # base^0 = 1 also where base = 0, as overlap(0, north, south) is
    *(Row(f"test_domain_edges::test_spin_zero_powers_are_one[{i}]", func, [args], lambda *_: 1.0, absolute,
          within=0.0)
      for i, func, args in [
          ("equatorial_offdiag_bound-spin-0", equatorial_offdiag_bound, (0, 2, 0.0)),
          ("overlap_magnitude-spin-0-antipodal", overlap_magnitude, (0, SphPoint.north(), SphPoint.south())),
      ]),
    *(Row(f"test_spin_core::test_statevec_norm_outside_the_plain_range[{scale}]", _norms,
          functools.partial(_scaled_vectors, scale), lambda amps: (oracles.exact_norm(amps), 1.0),
          lambda got, ref: max(abs(got[0] - ref[0]) / ref[0], abs(got[1] - ref[1])), within=1e-15,
          covers="StateVec")
      for scale in (1e160, 1e-170, 1e300, 1e-300)),
    Row("test_coherent::test_theta_rule_exact_on_all_parities", _theta_moment,
        [(10, a, b) for a in range(11) for b in range(11 - a)],
        lambda degree, a, b: oracles.beta_moment(a, b), absolute, below=1e-12, covers="theta_rule"),
    # nodes absolute and weights relative against the 40-digit rule; the
    # former construction read 3.3e-15 to 5.2e-15 and 3.1e-12 at degree 64
    *(Row(f"test_coherent::test_theta_rule_against_mpmath[{part}-{degree}]", lambda d, i=i: theta_rule(d)[i],
          [(degree,)], lambda d, i=i: oracles.theta_rule(d)[i], measure, within=bound, covers="theta_rule")
      for degree in (0, 1, 2, 3, 8, 21, 64, 128)
      for part, i, measure, bound in [("nodes", 0, lambda got, ref: np.max(absolute(got, ref)), 2e-15),
                                      ("weights", 1, lambda got, ref: np.max(ratio(got, ref)), 1e-12)]),
    # both parities of a and b, and a + b = degree
    Row("test_coherent::test_theta_rule_moments_at_high_degree", _theta_moments_in_logs,
        [(1024, a, np.append(np.arange(0, 1024 - a, 17), 1024 - a)) for a in range(0, 1025, 17)],
        lambda degree, a, b: oracles.beta_moment(a, b), lambda got, ref: np.max(ratio(got, ref)),
        below=5e-12, covers="theta_rule"),
    # -- cyclic codes and check operators ----------------------------------
    # N times a sum of N unit-bounded terms: the error is absolute, near
    # N^2 2^-53, so where the binomial sum is small next to N^2 (N near 2j)
    # the relative error grows, as it always has
    *(Row(f"test_one_kernel::test_cyclic_normalization_against_binomial_sums[{tj}]",
          lambda tj, n: Fraction(cyclic_normalization(HalfInt(tj), n)), [(tj, n) for n in range(1, 17)],
          oracles.cyclic_normalization, absolute, below=1e-13, covers="cyclic_normalization")
      for tj in [*range(41), 255, 256, 511, 1000, 1023, 1024]),
    *(Row(f"test_domain_edges::test_cyclic_normalization_kept_next_to_the_guard[{j}-{n}]", cyclic_normalization,
          [(j, n)], lambda j, n: float(oracles.cyclic_normalization(2 * j, n)), ratio, below=2.0**-20)
      for j, n in [(7, 16), (8, 16), (1000, 300), (2000, 300), (10**5, 300)]),
    # float(2**(2j)) and float sums of math.comb overflow from j = 512 on
    *(Row(f"test_lll_codes::test_cyclic_closed_forms_at_large_j_match_exact_fractions[{n}-{j}]", func, [(j, n)],
          oracle, within=1e-12, covers=covers)
      for j in (512, 1000, 4096) for n in (1, 3, 4, 8)
      for func, oracle, covers in [
          (cyclic_normalization, lambda j, n: float(oracles.cyclic_normalization(2 * j, n)), ""),
          (_quarter_turn_overlap, lambda j, n: oracles.cyclic_overlap_quarter_turn(2 * j, n),
           "cyclic_overlap_closed_form"),
      ]),
    # the phase table from two short tables against exp(i k phi) at 50
    # digits, no worse than the one exponential per entry it replaced: that
    # route carries half an ulp of k phi, 4.5e-13 at 2j = 1024 and 7.3e-12
    # at 2j = 20000 here, where the two tables stay near 3e-16
    *(Row(f"test_coherent::test_azimuthal_phases_against_mpmath[{tj}]",
          lambda tj, phis: _azimuthal_phases(tj, np.array(phis)), functools.partial(_phase_draws, tj, count),
          oracles.azimuthal_phases, _table_error, within=_one_exponential_error, dps=50,
          covers="coherent_amplitudes")
      for tj, count in ((1024, 8), (20000, 2))),
    # the magnitudes from the binomial ratio chain against 40-digit mpmath,
    # on entries down to 1e-299: 6.0e-15, 2.0e-14, 4.9e-14, 1.6e-13 and
    # 2.5e-13 at 2j = 64, 256, 1024, 8192 and 20000, where the log-factorial
    # form they replaced read 2.1e-14, 1.7e-13, 7.5e-13, 1.3e-11 and 2.3e-11
    *(Row(f"test_coherent::test_amplitude_magnitudes_against_mpmath[{tj}]", _magnitudes, _magnitude_cases(tj),
          oracles.amplitude_magnitudes, _largest_ratio_error, within=bound, dps=40, covers="coherent_amplitudes")
      for tj, bound in ((16, 1e-13), (64, 1e-13), (256, 1e-13), (1024, 1e-13), (8192, 1e-12), (20000, 1e-12))),
    # the one-mode builders' bands in closed form against diagonal_operator's
    # exact quadrature, band by band (2.4e-13 at most over every 2j <= 128)
    *(Row(f"test_coherent::test_one_mode_bands_against_quadrature[{name}-{tj}]", _built_band,
          _band_cases(tj, name), _quadrature_band, normwise, within=1e-12, covers=name)
      for tj in (0, 1, 2, 3, 8, 17, 32, 64, 101, 128)
      for name in ("momentum_kick", "logical_operators", "hermitian_check_ops") if _band_cases(tj, name)),
    # and against 40-digit mpmath entry by entry: the exact largest entry
    # and running ratios leave a few ulp per step, (3 (2j) + 2) 2^-53 at
    # most; 4.3e-15 measured at 2j = 512 and 6.0e-15 at 2j = 4000
    *(Row(f"test_coherent::test_one_mode_bands_against_mpmath[{name}-256]", _built_band, _band_cases(512, name),
          _exact_band, _entrywise, within=1e-12, dps=40, covers=name)
      for name in ("momentum_kick", "logical_operators", "hermitian_check_ops")),
    # (the check operators halve the Z-check's band, so the kernel's two
    # uses at 2j = 4000 are the kick's and exp(i d phi)'s)
    *(Row(f"test_coherent::test_one_mode_bands_against_mpmath[{name}-2000]", _kernel_band,
          _band_cases(4000, name)[::3], _exact_band, _entrywise, within=(3 * 4000 + 2) * EPS / 2, dps=40,
          covers=name)
      for name in ("momentum_kick", "logical_operators")),
    # cos(-d phi) = cos(d phi) and sin(-d phi) = -sin(d phi), from Z on the band |d|
    Row("test_contract::test_check_ops_realize_negative_d", _check_ops,
        [(tj, d) for tj in (4, 8, 15) for d in (-1, -2, -3)], oracles.cos_sin_realizations, normwise, within=1e-13,
        covers="hermitian_check_ops"),
    # -- rotations and harmonics ---------------------------------------------
    # at (600, 600, 2.5) and (700, -600, 0.7) the raw Jacobi polynomial
    # is about 1e600 and 1e591, past the float range
    *(Row(f"test_rotations::test_wigner_d_scalar_at_j_2000_against_mpmath[{j}-{m}-{n}-{beta}]", wigner_d,
          [(j, m, n, beta)], oracles.wigner_d, absolute, below=1e-12)
      for j, m, n, beta in [(2000, 0, 0, 0.3), (2000, 600, 600, 2.5), (2000, 700, -600, 0.7),
                            (2000, 2000, 1999, 0.01), (1999.5, 0.5, -0.5, 2.9)]),
    # magnitudes from 1 down to 1e-47: the sweep keeps relative precision
    # where the entries are tiny, with no cancellation near the poles; a
    # reference that underflows to zero fails the row
    *(Row(f"test_wigner_kernel::test_entries_near_the_poles_against_mpmath[{beta}-entries{i}]", wigner_d,
          [(400, m, n, beta) for m, n in entries], oracles.wigner_d,
          lambda got, ref: rel(got, ref) if ref != 0 else math.inf, within=1e-14)
      for i, (beta, entries) in enumerate(_POLE_ENTRIES)),
    *(Row(f"test_contract::test_monopole_Y_against_mpmath[{route}-{regime}]", _harmonic(route),
          [(*jlm, thetas, 0.7) for jlm in labels], oracles.monopole_Y, normwise, within=bound, covers="monopole_Y")
      for route, regime, labels, thetas, bound in _HARMONICS),
    # -- syndrome recovery -----------------------------------------------------
    # lgamma(4j + 1) - 2 lgamma(2j + 1) lost 2.2e-8 relative at j = 1e7; the
    # half-step series alone, below 2j = 40 an lgamma difference, 1.1e-14 at j = 13
    *(Row(f"test_recovery::test_single_peak_mass_against_mpmath[{j}]", single_peak_mass, [(j,)], oracles.peak_mass,
          ratio, within=2e-15, dps=50)
      for j in (0.5, 1.5, 10, 13, 19.5, 40.5, 100, 1e3, 1e6, 1e7)),
    # the ratio to the Laplace reference, where the tails themselves
    # underflow (at (1e6, 0.1) ln B(a, a) from two lgammas was off by
    # 1.7e-8), and near eps = pi, where the prefactor is
    # 2a ln sin((pi - eps)/2) with pi - eps taken past math.pi's own rounding
    *(Row(f"test_recovery::test_tail_failure_{regime}_against_mpmath[{j}-{eps}]",
          lambda j, eps: tail_failure(j, eps).ratio, [(j, eps)], oracles.tail_ratio_hyp2f1, ratio, within=bound,
          covers="tail_failure")
      for regime, bound, cases in [("large_j", 1e-11, [(1e6, 0.1), (1e5, 0.05), (400, 0.3), (2.5, 0.7)]),
                                   ("near_pi", 1e-13, [(5, 3.14159), (20, 3.1)])]
      for j, eps in cases),
    # at j = 10^10 the continued fraction needs 12 867 terms; the window is
    # 2.5e-13 wide, and rounding z = sin^2((pi - eps)/4) moves the tail by 3.5e-11
    Row("test_recovery::test_tail_failure_at_huge_j_against_mpmath[1e10-1e-12]",
        lambda j, eps: tail_failure(j, eps).numeric_tail, [(10**10, 1e-12)], oracles.tail_mass_window, rel,
        within=1e-10, dps=40, covers="tail_failure"),
    # with j_anc = 20 the correction misses by |s| ~ 0.1-0.3, and at large j
    # every overlap sits far below 1e-16
    *(Row(f"test_recovery::test_recover_matches_mp_decode[{j}-{d}-{j_anc}]", _round,
          [(j, d, s % d, s, j_anc) for s in range(3)], _decode_of_round, _decode_error, within=1e-10,
          covers="recover")
      for j in (8, 50, 200, 2000, 10**5) for d in (2, 3, 4) for j_anc in (None, 20)),
    # the decode's fidelity from the spectrum of the codeword gram matrix, by
    # exact class sums, at d up to 2048 and d = 2j + 1 past MAX_DENSE_DIM
    *(Row(f"test_recovery::test_recover_matches_spectral_decode[{j}-{d}-{j_anc}]", _round,
          [(j, d, s % d, s, j_anc) for s in range(3)], _spectral_decode_of_round, _decode_error, within=1e-13,
          covers="recover")
      for j, d in ((50, 2), (50, 3), (20, 41), (600, 1024), (1100, 2048)) for j_anc in (None, 20)),
    # at d = 2j + 1 = 8193 a round misses its codeword by s ~ 0.05, and the
    # double rounding of s moves v_k^2, and the fidelity with it, by
    # 2j tan(s/2) ulp(phi_m) relative: 8.8e-14 here, 3.5e-13 at k = 2, seed 2
    Row("test_domain_edges::test_recovery_past_max_dense_dim[recover]", _round,
        [(4096, 8193, 1, seed, None) for seed in range(3)], _spectral_decode_of_round, _decode_error, within=1e-12,
        covers="recover"),
    Row("test_domain_edges::test_recovery_past_max_dense_dim[finite_ancilla_note]", _ancilla_note,
        [(4096, 20, 8193, 2)], _ancilla_note_by_oracle, _pairwise_rel, within=1e-13, covers="finite_ancilla_note"),
    # past 4j (leading) and 2j (full) sites the density is flat: an exact constant
    *(Row(f"test_domain_edges::test_recovery_past_max_dense_dim[syndrome_density-{mode}]", _density,
          [(8, 8193, 0, 0.0, mode, (0.0, 0.3, 2.0, -1e-3))], lambda tj, d, k, delta_phi, mode, phis:
          np.full(len(phis), float(oracles.flat_density(tj, d, mode))), normwise, within=1e-13,
          covers="syndrome_density")
      for mode in ("leading", "full")),
    # both forms of the density against mpmath contractions over a phi grid:
    # |F_a|^2 is a 4j-th power of the base, whose rounding the power scales
    *(Row(f"test_contract::test_syndrome_density_against_mpmath[{mode}-{j}]", _density,
          [(2 * j, d, 1, delta_phi, mode, _DENSITY_PHIS) for d in (2, 3, 5) for delta_phi in (0.0, 0.13)],
          oracles.syndrome_density, normwise, within=lambda tj, *_: 4 * tj * EPS, covers="syndrome_density")
      for mode in ("leading", "full") for j in (1, 8, 40, 200)),
    # a part of the base below about 1e-154 sent the quotient the kernel then
    # discarded past the double range: "overflow encountered in divide", an
    # error under the suite's warning filter, though the value kept was right
    Row("test_contract::test_subnormal_base_parts_raise_no_warning[overlap]",
        lambda tj, p, q: overlap(HalfInt(tj), p, q), [(1, SphPoint(1.0, 1.09e-157), SphPoint(1.09e-157, 0.0))],
        oracles.overlap, within=lambda tj, *_: 4 * tj * EPS, dps=40, covers="overlap"),
    Row("test_contract::test_subnormal_base_parts_raise_no_warning[rotation_matrix_element]",
        lambda tj, angles: rotation_matrix_element(HalfInt(tj), SphPoint.north(), EulerAngles(*angles),
                                                   SphPoint.north()),
        [(1, (1.1e-308, 0.0, 0.0)), (3, (0.0, 0.0, 2e-310))],
        lambda tj, angles: oracles.contraction(tj, (0.0, 0.0), (0.0, 0.0), angles),
        within=lambda tj, *_: 4 * tj * EPS, dps=40, covers="rotation_matrix_element"),
    Row("test_contract::test_subnormal_base_parts_raise_no_warning[syndrome_density]", _density,
        [(2, 2, 0, 2.2e-311, mode, _DENSITY_PHIS) for mode in ("leading", "full")], oracles.syndrome_density,
        normwise, within=lambda tj, *_: 4 * tj * EPS, covers="syndrome_density"),
    # -- small returns that no test read -----------------------------------------
    *(Row(f"test_contract::test_small_returns_exact[{i}]", func, [()], lambda want=want: want, exact, within=0.0,
          covers=covers)
      for i, func, want, covers in [
          ("HalfInt-float", lambda: float(HalfInt(3)), 1.5, "HalfInt"),
          ("HalfInt-abs", lambda: abs(HalfInt(-3)), HalfInt(3), "HalfInt"),
          ("HalfInt-add", lambda: HalfInt(3) + 1, HalfInt(5), "HalfInt"),
          ("HalfInt-sub", lambda: HalfInt(3) - 0.5, HalfInt(2), "HalfInt"),
          ("HalfInt-repr", lambda: repr(HalfInt(-3)), "HalfInt(-3/2)", "HalfInt"),
          ("GkpCode.support", lambda: build_gkp_code(GkpParams(2, 3, 3)).support(1), [3, 9, 15], "GkpCode"),
          ("Operator-eq-int", lambda: _Y_AXIS_3 == 3, False, "Operator"),
          # 2pi/d - arccos(2 eps^(1/j) - 1) is exactly 0.0 at both: no budget
          ("correctable_angle-zero-budget-d4", lambda: correctable_angle(1, 4, 0.5),
           CorrectableAngle(0.0, 0.0, True), "correctable_angle"),
          ("correctable_angle-zero-budget-tiny-eps", lambda: correctable_angle(0.5, 2, 1e-300),
           CorrectableAngle(0.0, 0.0, True), "correctable_angle"),
      ]),
    # -- domain edges ----------------------------------------------------------
    *(Raises(f"{test}[{i}]", func, args, kwargs, exception, match, *covers)
      for test, exception, rows in _RAISE_TABLES for i, func, args, kwargs, match, *covers in rows),
]
