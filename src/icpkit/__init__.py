"""Residual formulations, projection solver, oracle and generators for ICPs."""

from .core import (
    AffineMap,
    IcpInstance,
    ImplicitMap,
    SolutionCheck,
    ToleranceConfig,
    ZeroMap,
    check_solution,
    evaluate_F,
    evaluate_H,
    is_solution,
)
from .generator import GeneratorSpec, generate_matrix, generate_planted
from .linalg import DiagonalScaling, inf_norm, positive_part
from .oracle import OracleResult, certify, enumerate_solutions
from .residuals import (
    DELTA_CATALOG,
    DeltaFunction,
    ResidualNorms,
    delta_residual,
    natural_residual,
    residual_norms,
    s_map,
    scaled_residual,
)
from .solver import (
    SolveReport,
    SolveStatus,
    SolverConfig,
    default_scaling,
    projection_iterate,
    solve_with_restarts,
)

__all__ = [
    "AffineMap",
    "DELTA_CATALOG",
    "DeltaFunction",
    "DiagonalScaling",
    "GeneratorSpec",
    "IcpInstance",
    "ImplicitMap",
    "OracleResult",
    "ResidualNorms",
    "SolutionCheck",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "ToleranceConfig",
    "ZeroMap",
    "certify",
    "check_solution",
    "default_scaling",
    "delta_residual",
    "enumerate_solutions",
    "evaluate_F",
    "evaluate_H",
    "generate_matrix",
    "generate_planted",
    "inf_norm",
    "is_solution",
    "natural_residual",
    "positive_part",
    "projection_iterate",
    "residual_norms",
    "s_map",
    "scaled_residual",
    "solve_with_restarts",
]
__version__ = "0.1.0"
