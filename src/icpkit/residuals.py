"""Residual maps whose zero sets coincide exactly with the solution set.

Three equivalent reformulations of the complementarity system are provided:

* the natural residual  R(r) = H(r) - (H(r) - F(r))_+ , computed here through
  the algebraically identical componentwise form min(H_i, F_i);
* a diagonally scaled variant  min(O1_ii H_i, O2_ii F_i)  for any pair of
  positive diagonal scalings, which has the same zero set;
* a one-parameter family  G_i = delta(|F_i - H_i|) - delta(F_i) - delta(H_i)
  built from any strictly increasing delta with delta(0) = 0.  Componentwise,
  G_i > 0 when H_i or F_i is negative, G_i < 0 when both are positive, and
  G_i = 0 exactly on the complementary sign pattern (H_i, F_i >= 0 with
  H_i F_i = 0), so the zero set again equals the solution set.

Every map takes a point (n,) or a stack (p, n); each row of a stacked result
is bit-identical to the single-point call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import IcpInstance, evaluate_F, evaluate_H
from .linalg import DiagonalScaling

# Strict monotonicity on the reals is not machine-checkable; sampling this
# fixed grid at construction is the testable surrogate.
MONOTONICITY_GRID = np.linspace(-10.0, 10.0, 1000)


@dataclass(frozen=True)
class DeltaFunction:
    """Strictly increasing scalar function with forward(0) = 0.

    ``forward`` must accept a float or ndarray (numpy ufunc semantics) and be
    reentrant.  Construction verifies forward(0) == 0 exactly and strict
    increase across MONOTONICITY_GRID.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        zero = float(self.forward(np.float64(0.0)))
        if zero != 0.0:
            raise ValueError(f"delta function {self.name!r}: forward(0) = {zero!r}, expected 0")
        values = np.asarray(self.forward(MONOTONICITY_GRID), dtype=float)
        if values.shape != MONOTONICITY_GRID.shape or not np.all(np.isfinite(values)):
            raise ValueError(f"delta function {self.name!r} must map the test grid to finite reals")
        if not np.all(np.diff(values) > 0.0):
            raise ValueError(f"delta function {self.name!r} is not strictly increasing on the test grid")


DELTA_CATALOG: dict[str, DeltaFunction] = {
    delta.name: delta
    for delta in (
        DeltaFunction("identity", lambda t: t),
        DeltaFunction("cubic", lambda t: t * t * t),
        DeltaFunction("tanh", np.tanh),
        DeltaFunction("asinh", np.arcsinh),
    )
}


def natural_residual(inst: IcpInstance, r: np.ndarray) -> np.ndarray:
    """min(H_i(r), F_i(r)) per component; zero exactly at solutions."""
    return np.minimum(evaluate_H(inst, r), evaluate_F(inst, r))


def scaled_residual(
    inst: IcpInstance,
    r: np.ndarray,
    omega1: DiagonalScaling,
    omega2: DiagonalScaling,
) -> np.ndarray:
    """min(O1_ii H_i, O2_ii F_i) per component; same zero set as natural_residual."""
    n1, n2 = len(omega1.diag), len(omega2.diag)
    if n1 != inst.n or n2 != inst.n:
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, scaling dims {n1} and {n2}")
    return np.minimum(omega1.diag * evaluate_H(inst, r), omega2.diag * evaluate_F(inst, r))


def delta_residual(inst: IcpInstance, r: np.ndarray, delta: DeltaFunction) -> np.ndarray:
    """G_i = delta(|F_i - H_i|) - delta(F_i) - delta(H_i) per component.

    H and F are evaluated once and reused so all three delta calls per
    component see bit-identical arguments; the componentwise sign tests would
    otherwise flake at region boundaries.
    """
    h = evaluate_H(inst, r)
    f = evaluate_F(inst, r)
    return delta.forward(np.abs(f - h)) - delta.forward(f) - delta.forward(h)
