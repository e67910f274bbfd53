"""Projection fixed-point solver.

At a solution the pair (H, F) satisfies H = (H - w O F)_+ for any positive
diagonal O and relaxation w > 0, so the solver iterates the Picard step

    r_next = f(r) + (r - f(r) - w * O * (A r + b))_+

whose exact fixed points are precisely the points with zero natural residual.
For strictly diagonally dominant A with positive diagonal, O = diag(1/A_ii),
w = 1 and an implicit term with row sums below one, the step is a contraction
in the infinity norm (each row of the piecewise-affine update is a convex
combination of a row of C and a row of I - O A), which is the basis of the
seeded convergence family exercised by the test suite.  No convergence claim
is made outside that family; the guard below converts blow-ups into a
reportable status instead of an exception.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import IcpInstance
from .linalg import DiagonalScaling
from .residuals import natural_residual

DIVERGENCE_LIMIT = 1e12


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS_REACHED = "max_iters_reached"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Step scaling, relaxation in (0, 2], iteration cap and stopping tolerance."""

    omega: DiagonalScaling
    relaxation: float = 1.0
    max_iters: int = 10_000
    resid_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < float(self.relaxation) <= 2.0):
            raise ValueError(f"relaxation must lie in (0, 2], got {self.relaxation}")
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 < float(self.resid_tol) < np.inf):
            raise ValueError(f"resid_tol must be finite and > 0, got {self.resid_tol}")
        object.__setattr__(self, "relaxation", float(self.relaxation))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "resid_tol", float(self.resid_tol))


@dataclass
class SolveReport:
    """Iteration trace: status, update count, residual norms and final point.

    residual_history holds the natural-residual infinity norm of every visited
    iterate (length iterations + 1); a non-finite iterate is recorded as inf.
    """

    status: SolveStatus
    iterations: int
    residual_history: list[float]
    final_point: np.ndarray

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def default_scaling(a: np.ndarray) -> DiagonalScaling:
    """diag(1/A_ii) when every 1/A_ii is finite and positive, else the identity.

    A positive A_ii below about 5.6e-309 has no finite 1/A_ii.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.diagonal(a)
    if np.all(np.isfinite(inv) & (inv > 0.0)):
        return DiagonalScaling(inv)
    return DiagonalScaling.identity(a.shape[0])


def projection_iterate(inst: IcpInstance, r0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Run the projection iteration from r0 until convergence, cap or blow-up.

    The stopping test precedes every update, so a starting point that already
    solves the instance converges with zero iterations.
    """
    r = np.array(r0, dtype=float, copy=True)
    if r.shape != (inst.n,):
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, start shape {r.shape}")
    if cfg.omega.n != inst.n:
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, omega dim {cfg.omega.n}")

    step = cfg.relaxation * cfg.omega.diag
    history: list[float] = []
    # Overflow during a blow-up is expected and handled by the guard below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.max_iters + 1):
            if not np.all(np.isfinite(r)):
                history.append(float("inf"))
                return SolveReport(SolveStatus.DIVERGED, k, history, r)
            res = float(np.max(np.abs(natural_residual(inst, r))))
            history.append(res)
            if res <= cfg.resid_tol:
                return SolveReport(SolveStatus.CONVERGED, k, history, r)
            if np.max(np.abs(r)) > DIVERGENCE_LIMIT:
                return SolveReport(SolveStatus.DIVERGED, k, history, r)
            if k == cfg.max_iters:
                return SolveReport(SolveStatus.MAX_ITERS_REACHED, k, history, r)
            fr = inst.f.evaluate(r)
            r = fr + np.maximum(r - fr - step * (inst.A @ r + inst.b), 0.0)
    raise AssertionError("unreachable")
