"""Projection fixed-point solver.

At a solution the pair (H, F) satisfies H = (H - D F)_+ for every positive
diagonal D, so the solver iterates the Picard step

    r_next = f(r) + (r - f(r) - D (A r + b))_+

whose exact fixed points are precisely the points with zero natural residual,
whichever D it takes.  For strictly diagonally dominant A with positive
diagonal, D = diag(1/A_ii) and an implicit term with row sums below one, the
step is a contraction in the infinity norm (each row of the piecewise-affine
update is a convex combination of a row of C and a row of I - D A), which is
the basis of the seeded convergence family exercised by the test suite.  No
convergence claim is made outside that family; the guard below converts
blow-ups into a reportable status instead of an exception.

Each iterate costs one evaluation of f and one of A r + b, which the stopping
test min(H, F) and the step share.  The start point's stopping test also calls
natural_residual, one more of each per solve, because perfbench traces the
solver's residual at that call site.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import IcpInstance
from .linalg import DiagonalScaling, as_count, as_real
from .residuals import natural_residual

DIVERGENCE_LIMIT = 1e12


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS_REACHED = "max_iters_reached"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """The step's positive diagonal D, iteration cap and stopping tolerance."""

    omega: DiagonalScaling
    max_iters: int = 10_000
    resid_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters", 1))
        resid_tol = as_real(self.resid_tol, "resid_tol", "be finite and > 0", lambda v: 0.0 < v < np.inf)
        object.__setattr__(self, "resid_tol", resid_tol)


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


def default_scaling(a: np.ndarray) -> DiagonalScaling:
    """diag(1/A_ii) when every 1/A_ii is finite and positive, else the identity.

    A positive A_ii below about 5.6e-309 has no finite 1/A_ii.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.diagonal(a)
    if np.all(np.isfinite(inv) & (inv > 0.0)):
        return DiagonalScaling(inv)
    return DiagonalScaling(np.ones(a.shape[0]))


def projection_iterate(inst: IcpInstance, r0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Run the projection iteration from r0 until convergence, cap or blow-up.

    The stopping test precedes every update, so a starting point that already
    solves the instance converges with zero iterations.  Each iterate evaluates
    f and A r + b once for both the test and the step; the start point's test
    goes through natural_residual as well, so f runs iterations + 2 times.
    """
    r = np.array(r0, dtype=float, copy=True)
    if r.shape != (inst.n,):
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, start shape {r.shape}")
    step = cfg.omega.diag
    if len(step) != inst.n:
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, omega dim {len(step)}")

    history: list[float] = []
    # Overflow during a blow-up is expected and handled by the guard below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.max_iters + 1):
            if not np.all(np.isfinite(r)):
                history.append(float("inf"))
                return SolveReport(SolveStatus.DIVERGED, k, history, r)
            fr = inst.f.evaluate(r)
            h, fv = r - fr, inst.A @ r + inst.b
            # min(h, fv) has natural_residual's bits; the start point calls it
            # anyway, once per solve, because perfbench traces it here.
            res = float(np.max(np.abs(natural_residual(inst, r) if k == 0 else np.minimum(h, fv))))
            history.append(res)
            if res <= cfg.resid_tol:
                return SolveReport(SolveStatus.CONVERGED, k, history, r)
            if np.max(np.abs(r)) > DIVERGENCE_LIMIT:
                return SolveReport(SolveStatus.DIVERGED, k, history, r)
            if k == cfg.max_iters:
                return SolveReport(SolveStatus.MAX_ITERS_REACHED, k, history, r)
            r = fr + np.maximum(h - step * fv, 0.0)
    raise AssertionError("unreachable")
