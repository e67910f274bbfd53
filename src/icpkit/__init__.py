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
from .generator import GeneratorSpec, generate_planted
from .linalg import DiagonalScaling
from .oracle import OracleResult, certify, enumerate_solutions
from .residuals import (
    DELTA_CATALOG,
    DeltaFunction,
    delta_residual,
    natural_residual,
    scaled_residual,
)
from .solver import (
    SolveReport,
    SolveStatus,
    SolverConfig,
    default_scaling,
    projection_iterate,
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
    "generate_planted",
    "is_solution",
    "natural_residual",
    "projection_iterate",
    "scaled_residual",
]
__version__ = "0.1.0"
