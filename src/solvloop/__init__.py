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
    from_matrix,
    inv,
    mul,
    standard_center_probes,
    structure_constants,
)
from .subgroups import (
    DecompResult,
    InadmissibleSubgroupError,
    LoopPoint,
    SubalgebraClass,
    SubalgebraKind,
    SubgroupId,
    admissible_subgroups,
    canonical_span_generator,
    classify_direction,
    classify_subalgebra,
    decompose,
    embed,
    fixed_point_residual,
    fixed_point_witness,
    in_subgroup,
    membership_residual,
    subgroup_element,
    subgroup_generator,
)
from .sections import (
    PRESETS,
    FunctionSpec,
    GenerationVerdict,
    RightTranslationLine,
    SectionSpec,
    degeneracy_report,
    right_translation_system,
    section_lift,
    section_value,
    sharp_transitivity_check,
)
from .loops import (
    LoopCase,
    MultipleRootsError,
    NoRootInBoxError,
    RightDivisionError,
    SolverDivergenceError,
    associativity_defect,
    axiom_suite,
    coset_cross_check,
    loop_ldiv,
    loop_mul,
    loop_rdiv,
    normal_subloop_check,
)
from .multgroup import (
    CENTER_TEST_DIRECTIONS,
    NormalizerRecord,
    Theorem2Certificate,
    normalizes,
    theorem2_certificate,
)
from .numerics import (
    FitResult,
    fit_saturating_exponential,
    newton1d,
    root1d,
    twisted_additivity_residual,
)
from .report import Check, VerificationReport, emit_report
from .cli import main

__version__ = "0.1.0"
