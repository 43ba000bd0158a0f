"""witnesskit: bipartite entanglement witnesses in shifted canonical form.

A witness here is a Hermitian operator that stays nonnegative on all
product vectors while having at least one negative eigenvalue; the
shifted form sigma - c I makes the admissible window for c explicit,
with the product-expectation floor of sigma at its weakly optimal
edge.  The package provides the dense operator layer, the see-saw and
projection searches, classification and perturbation tools, the named
reference constructions, and matrix-free four-copy lifts.
"""

from .operators import (
    DENSE_SIDE_CAP,
    DimensionError,
    HermitianOperator,
    NonFiniteError,
    NonHermitianError,
    ProductVector,
    Spectrum,
    conditioned_matrix,
    eig_hermitian,
    inf_norm,
    load_operator,
    operator_from_json,
    operator_to_json,
    partial_transpose,
    product_expectation,
    save_operator,
    tensor,
)
from .optimize import (
    DecompositionResult,
    MinProdResult,
    OptimizerConfig,
    PPTSearchResult,
    PPTViolation,
    collect_zero_products,
    decomposition_search,
    grid_oracle_minprod,
    max_product_expectation,
    min_product_expectation,
    ppt_violation_search,
    spanning_rank,
)
from .witness import (
    CanonicalWitness,
    ClassificationReport,
    NotAWitnessError,
    SeparabilityError,
    check_pt_invariance,
    check_pt_threshold_match,
    classify,
    dual_witness_from_separable,
    from_hyperplane_form,
    is_finer,
    perturb_add_positive,
    perturb_subtract_positive,
    quantify_over_set,
    to_hyperplane_form,
    witness_from_separable,
)
from .structured import (
    DenseFactor,
    IdentityFactor,
    StructuredOperator,
    SwapFactor,
)
from .lift import (
    LiftedWitness,
    lift_state,
    lift_witness,
    negative_direction,
    operator_norm,
    state_expectation_components,
    symmetric_expectation_gap,
)
from .families import (
    choi_sigma,
    get_case,
    isotropic_sigma,
    isotropic_witness,
    qutrit_pair_example,
    reference_registry,
    run_case,
    sigma1,
    sigma2,
    two_block_witness,
    two_block_witness_optimal,
    w_xyz,
    werner_state,
)

__version__ = "0.1.0"
