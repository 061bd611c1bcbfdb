"""Discrete toolkit for monotone rearrangements, polar factorisations and
polar inclusions via exact quadratic-cost optimal transport."""

from .convex import (
    ConvexPotential,
    DualPair,
    fenchel_conjugate,
    fenchel_gap,
)
from .measures import (
    DiscreteMeasure,
    SampledMap,
    ValueLaw,
    equimeasurable,
    validate,
    value_law,
)
from .polar import (
    FACTORISATION,
    INCLUSION_ONLY,
    DegeneracyReport,
    PolarResult,
    degeneracy_report,
    gallery_instance,
    plan_from_map,
    polar_factorize,
    verify_optimality_of_inclusion,
    verify_polar_inclusion,
)
from .rearrangement import (
    HeavyAtoms,
    MultiplicityReport,
    RefinedDomain,
    construct_m_to_1,
    monotone_rearrangement,
    multiplicity_report,
)
from .transport import (
    CostMatrix,
    TransportPlan,
    brute_force_mk,
    build_cost,
    duality_certificate,
    objective,
    random_plan,
    shifted_objective,
    solve_mk,
    worst_cycle_violation,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexPotential",
    "DualPair",
    "fenchel_conjugate",
    "fenchel_gap",
    "DiscreteMeasure",
    "SampledMap",
    "ValueLaw",
    "equimeasurable",
    "validate",
    "value_law",
    "CostMatrix",
    "TransportPlan",
    "brute_force_mk",
    "build_cost",
    "duality_certificate",
    "objective",
    "random_plan",
    "shifted_objective",
    "solve_mk",
    "worst_cycle_violation",
    "FACTORISATION",
    "INCLUSION_ONLY",
    "DegeneracyReport",
    "PolarResult",
    "degeneracy_report",
    "gallery_instance",
    "plan_from_map",
    "polar_factorize",
    "verify_optimality_of_inclusion",
    "verify_polar_inclusion",
    "HeavyAtoms",
    "MultiplicityReport",
    "RefinedDomain",
    "construct_m_to_1",
    "monotone_rearrangement",
    "multiplicity_report",
    "__version__",
]
