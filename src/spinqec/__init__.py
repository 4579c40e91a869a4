"""Spin coherent-state quantum error-correcting codes.

Dense spin-j linear algebra, SU(2) rotations and Wigner matrices, spin
coherent states with exact sphere quadrature, coherent-state code
families with closed-form matrix elements, approximate Knill-Laflamme
checks, syndrome-measurement recovery, monopole harmonics and Landau
codes, and exact finite GKP shift codes, behind one small CLI.
"""

from .spin_core import (
    HalfInt,
    StateVec,
    Operator,
    m_values,
    m_index,
    l3_operator,
    ladder_operators,
    axis_operator,
    matexp_antihermitian,
    MAX_DENSE_DIM,
)
from .rotations import (
    EulerAngles,
    Su2,
    su2_from_euler,
    euler_from_su2,
    canonicalize,
    compose,
    inverse,
    wigner_d,
    wigner_d_matrix,
    wigner_D_matrix,
    rotation_operator,
    rotate_vector,
    haar_random,
    haar_random_sequence,
)
from .coherent import (
    SphPoint,
    coherent_state,
    coherent_amplitudes,
    overlap,
    overlap_magnitude,
    rotation_matrix_element,
    equatorial_matrix_element,
    rotate_point,
    theta_rule,
    sphere_quadrature,
    SphereQuadrature,
    DiagonalOp,
    diagonal_operator,
    lower_symbol,
    y_symbol,
    momentum_kick,
    disentangle_check,
)
from .lll_codes import (
    CodeSpec,
    Codewords,
    LogicalSet,
    antipodal,
    equatorial_qudit,
    cyclic_qubit,
    build_codewords,
    logical_operators,
    antipodal_logical_x,
    hermitian_check_ops,
    cyclic_normalization,
    cyclic_overlap_closed_form,
    matrix_element_table,
)
from .qec_check import (
    ErrorSet,
    KLReport,
    PairRecord,
    CorrectableAngle,
    equatorial_z,
    conjugated_y,
    conjugated_z_about_x,
    explicit_list,
    sample_rotations,
    kl_check,
    correctable_angle,
    diagonal_scan,
    equatorial_offdiag_bound,
)
from .recovery import (
    SyndromeRun,
    TailEstimate,
    AncillaReport,
    syndrome_density,
    tail_failure,
    single_peak_mass,
    recover,
    finite_ancilla_note,
)
from .monopole import (
    MonopoleHarmonic,
    FullLandauCode,
    LandauEntry,
    MomentumShiftVerdict,
    monopole_Y,
    lowest_level_bridge,
    build_full_landau_code,
    momentum_shift_analysis,
    correctable_shift_count,
    harmonic_table,
)
from .finite_gkp import (
    GkpParams,
    PauliWord,
    clock_shift,
    GkpCode,
    build_gkp_code,
    SyndromeOutcome,
    syndrome_and_recover,
    stabilizer_eigenphases,
    strict_window,
    tiling_window,
)

__version__ = "0.1.0"
