"""Symmetry-constrained VQE/VQD toolkit.

Simulates penalty-constrained variational eigensolvers on dense
statevectors, derives rigorous and practical penalty coefficients, and
predicts analytically (via the lower convex envelope of the simultaneous
eigenvalue cloud) when the squared-expectation penalty form fails, all
validated against an exact-diagonalization oracle at desk scale.
"""

from .costs import (
    CostBreakdown,
    CostSpec,
    PenaltyForm,
    depolarized_offset,
    evaluate_cost,
    pauli_ops_per_eval,
)
from .envelope import (
    Classification,
    EnvelopePoint,
    TangentCase,
    TangentResult,
    classify_target,
    lower_hull,
    minimize_expectation_penalty,
    minimize_operator_penalty,
    noisy_expectation_penalty_minimum,
    noisy_tangent_first_order,
    tangent_closed_form,
)
from .exactdiag import (
    SectorTarget,
    Spectrum,
    dense_matrix,
    min_distinct_gap,
    sector_ground_multi,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
)
from .models import (
    build_heisenberg_chain,
    build_number_operator,
    build_s_squared,
    build_total_sz,
    build_transverse_field_ising,
    build_z_parity,
    diagonal_hamiltonian,
    parse_pauli_sum,
    serialize_pauli_sum,
)
from .optimize import (
    CostEvaluator,
    OptimizationRecord,
    OptimizerConfig,
    TrialSummary,
    minimize,
    run_trials,
)
from .paulis import (
    PauliSum,
    PauliTerm,
    coefficient_norm,
    commutes,
    square_shifted,
)
from .penalties import (
    PenaltyConstraint,
    exact_coefficient,
    rough_coefficient,
    simple_coefficient,
    vqd_beta_estimates,
)
from .simulator import (
    AnsatzConfig,
    NoiseModel,
    StateVector,
    basis_state,
    depolarize,
    expectation,
    overlap_sq,
    prepare,
)

__version__ = "0.1.0"
