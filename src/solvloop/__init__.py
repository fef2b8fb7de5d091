"""A 4-dimensional solvable matrix group, its coset loops, and verifiers."""

from .group import (
    E1,
    E2,
    E3,
    E4,
    IDENTITY,
    AlgebraVector,
    AutomorphismParams,
    GroupElement,
    GroupParam,
    VariantMismatchError,
    algebra_matrix,
    apply_automorphism,
    as_matrix,
    automorphism_matrix,
    bracket,
    central_defect,
    commutator_oracle,
    conjugate,
    coordinate_distance,
    exp_alg,
    inv,
    mul,
    standard_center_probes,
)
from .subgroups import (
    DecompResult,
    InadmissibleSubgroupError,
    LoopPoint,
    SubalgebraClass,
    SubgroupId,
    admissible_subgroups,
    classify_subalgebra,
    classify_suite,
    decompose,
    embed,
    fixed_point_residual,
    fixed_point_suite,
    fixed_point_witness,
    membership_residual,
    subgroup_element,
    subgroup_generator,
)
from .sections import (
    PRESETS,
    FunctionSpec,
    RightTranslationLine,
    SectionSpec,
    degeneracy_report,
    generation_suite,
    lemma1_suite,
    right_translation_system,
    section_lift,
    section_value,
    sharp_transitivity_check,
)
from .loops import (
    MultipleRootsError,
    NoRootInBoxError,
    RightDivisionError,
    SolverDivergenceError,
    associativity_defect,
    axiom_suite,
    coset_cross_check,
    loop_ldiv,
    loop_mul,
    loop_suite,
)
from .multgroup import (
    CENTER_TEST_DIRECTIONS,
    group_suite,
    normalizes,
    theorem2_suite,
)
from .numerics import (
    FitResult,
    fit_saturating_exponential,
    twisted_additivity_residual,
)
from .report import Check, VerificationReport, emit_report
from .cli import main

__version__ = "0.1.0"
