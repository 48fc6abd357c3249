"""Certified construction of a volume-preserving, partially hyperbolic
diffeomorphism on a three-factor Heisenberg nilmanifold.

The package starts from an integer matrix with a certified eigenvalue
chain, builds the associated lattice and hyperbolic automorphism in
exponential coordinates, plans an in-plane rotation that collapses two
center directions onto a prescribed modulus, deforms the automorphism by
a compactly supported rotation realizing that plan near a fixed point,
and certifies the result: uniform cone-field domination with an explicit
robustness radius, measured contraction/expansion rates with center
bunching, and convergence of the perturbed invariant splitting back to
the linear one as the deformation support shrinks.
"""

from .algebraic_core import (
    ChainReport,
    EigenData,
    IntegerMatrixSpec,
    Interval,
    RootIsolationError,
    char_poly,
    check_irreducible,
    isolate_real_roots,
    verify_eigenvalue_condition,
)
from .nilmanifold import (
    DIM,
    AutomorphismSpec,
    LatticeSpec,
    bch_multiply,
    bracket,
)
from .deformation import (
    BumpProfile,
    DeformationError,
    DeformedMap,
    LocalRotationMap,
    ProfileError,
    RotationPlane,
    make_profile,
    psi_eval,
    psi_slope,
)
from .spectral_planner import (
    AnnulusSpec,
    AvoidanceResult,
    LabeledSpectrum,
    PlanningError,
    PlanStep,
    RedistributionPlan,
    annulus_avoidance,
    apply_plan,
    plan_center_collapse,
)
from .cone_certifier import (
    CertificationError,
    CocycleProduct,
    DominationWitness,
    RateReport,
    RobustnessReport,
    SplittingEstimate,
    bunching_report,
    cocycle_product,
    extract_splitting,
    find_domination_exponent,
    principal_angle,
    robustness_radius,
    splitting_deviation_sweep,
    splitting_distance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebraic core
    "ChainReport",
    "EigenData",
    "IntegerMatrixSpec",
    "Interval",
    "RootIsolationError",
    "char_poly",
    "check_irreducible",
    "isolate_real_roots",
    "verify_eigenvalue_condition",
    # nilmanifold
    "DIM",
    "AutomorphismSpec",
    "LatticeSpec",
    "bch_multiply",
    "bracket",
    # deformation
    "BumpProfile",
    "DeformationError",
    "DeformedMap",
    "LocalRotationMap",
    "ProfileError",
    "RotationPlane",
    "make_profile",
    "psi_eval",
    "psi_slope",
    # planner
    "AnnulusSpec",
    "AvoidanceResult",
    "LabeledSpectrum",
    "PlanningError",
    "PlanStep",
    "RedistributionPlan",
    "annulus_avoidance",
    "apply_plan",
    "plan_center_collapse",
    # certifier
    "CertificationError",
    "CocycleProduct",
    "DominationWitness",
    "RateReport",
    "RobustnessReport",
    "SplittingEstimate",
    "bunching_report",
    "cocycle_product",
    "extract_splitting",
    "find_domination_exponent",
    "principal_angle",
    "robustness_radius",
    "splitting_deviation_sweep",
    "splitting_distance",
]
