"""Numerical toolkit for sections of fibered subsets of R^k: fiber distances,
intrinsic Lipschitz constants, Hopf-Lax style evolution under convex
penalties, constrained Fenchel-Legendre transforms, the associated curve
problem, and verification of the inequalities tying them together."""

from .errors import (
    FiberflowError,
    GeometryError,
    PreconditionError,
    ScenarioFormatError,
    ScenarioValidationError,
)
from .geometry import (
    FiberedSpace,
    PointSet,
    SegmentUnion,
    fiber_min_distance,
    validate_space,
)
from .lagrangian import (
    Lagrangian,
    TransformTable,
    biconjugate,
    check_axioms,
    legendre_transform,
    model_quadratic,
    power_lagrangian,
    zero_lagrangian,
)
from .scenario import (
    Scenario,
    load_scenario,
    paper_counterexample,
    random_scenario,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
    write_scenario,
)
from .section import (
    Section,
    asymmetry_probe,
    bound_K,
    g_field,
    global_ILS,
    local_slopes,
    validate_section,
)
from .semigroup import (
    EvolutionTable,
    evolution_table,
    evolve_all,
    hj_residual,
    proposition_suite,
    quasi_minimizer_trace,
    slope_estimate_check,
)
from .variational import CurveProblem, action, make_curve_problem, solve_variational

__version__ = "0.1.0"

__all__ = [
    "FiberflowError",
    "GeometryError",
    "PreconditionError",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "FiberedSpace",
    "PointSet",
    "SegmentUnion",
    "fiber_min_distance",
    "validate_space",
    "Lagrangian",
    "TransformTable",
    "biconjugate",
    "check_axioms",
    "legendre_transform",
    "model_quadratic",
    "power_lagrangian",
    "zero_lagrangian",
    "Scenario",
    "load_scenario",
    "paper_counterexample",
    "random_scenario",
    "singleton_constant_scenario",
    "tie_scenario",
    "two_point_scenario",
    "write_scenario",
    "Section",
    "asymmetry_probe",
    "bound_K",
    "g_field",
    "global_ILS",
    "local_slopes",
    "validate_section",
    "EvolutionTable",
    "evolution_table",
    "evolve_all",
    "hj_residual",
    "proposition_suite",
    "quasi_minimizer_trace",
    "slope_estimate_check",
    "CurveProblem",
    "action",
    "make_curve_problem",
    "solve_variational",
]
