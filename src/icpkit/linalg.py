"""Dense linear algebra kernel shared by every other module.

Vectors and square matrices are plain float64 numpy arrays, validated at the
boundary (finite entries, length >= 1, squareness) and marked read-only so
instances can be shared freely between threads; the numeric fields of config
objects are checked here too.  The linear solver is Gauss elimination with
partial pivoting over a batch of systems.  Every enumeration-oracle call
solves one batch for the P = (I - C)^-1 of its reduction; the subsystems of
index sets are solved here only on the oracle's full path, for the sets that
the pivot tree finds unstable, or for all of them when the reduction fails.
The batch is stored batch-last, each matrix augmented with its right-hand side
as one more column, so that one elimination step is one contiguous update
across it, and back-substitution reads that layout in place.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

# A pivot below this fraction of the matrix scale is treated as singular.
PIVOT_REL_TOL = 1e-12
# Shown in place of an integer beyond the float range, which may be too long to print.
_HUGE = "an integer too large for a float"


def as_real(value, name: str, rule: str, ok) -> float:
    """value as a float if it is a real number, not a bool, for which ok holds, else a "<name> must <rule>" error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must {rule}, got {_HUGE}") from None
    if not ok(number):
        raise ValueError(f"{name} must {rule}, got {value}")
    return number


def as_count(value, name: str, low: int) -> int:
    """value as an int if it is an integer, not a bool, of at least low, else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        shown = value if abs(value) <= sys.float_info.max else _HUGE
        raise ValueError(f"{name} must be >= {low}, got {shown}")
    return int(value)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a read-only float64 vector (1-D, finite, len >= 1)."""
    v = np.array(x, dtype=float, copy=True)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    v.setflags(write=False)
    return v


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a read-only float64 square matrix with finite entries."""
    a = np.array(x, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    a.setflags(write=False)
    return a


def solve_linear_batch(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of square systems by partial-pivoting elimination.

    ``mats`` has shape (m, n, n) and ``rhs`` shape (m, n); neither is modified.
    Returns ``(solutions, singular)`` where ``singular`` marks systems whose
    pivot fell below PIVOT_REL_TOL times the system's max-magnitude entry;
    their solution rows are meaningless and must be ignored by the caller.
    """
    a = np.asarray(mats, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (m, n, n) matrix batch, got shape {a.shape}")
    if b.shape != a.shape[:2]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix batch {a.shape}")
    m, n, _ = a.shape

    scale = np.abs(a).reshape(m, -1).max(axis=1, initial=0.0)
    thresh = PIVOT_REL_TOL * np.where(scale > 0.0, scale, 1.0)
    # w[r, c, s] is entry (r, c) of system s's augmented matrix [A | b].
    w = np.empty((n, n + 1, m))
    w[:, :n], w[:, n] = a.transpose(1, 2, 0), b.T
    singular = np.zeros(m, dtype=bool)

    for k in range(n):
        mag = np.abs(w[k:, k])
        p = mag.argmax(axis=0)  # relative to row k
        small = mag.max(axis=0) <= thresh

        moved = p.nonzero()[0]
        if moved.size:
            pm = p[moved] + k
            # Columns left of k are never read again, in either row.
            w[k, k:, moved], w[pm, k:, moved] = w[pm, k:, moved], w[k, k:, moved]

        # The pivot, or 1.0 where it is small, stays on the diagonal for back-substitution.
        if small.any():
            singular |= small
            w[k, k, small] = 1.0
        factor = w[k + 1 :, k] / w[k, k]
        # Column k below the pivot is not updated: nothing reads it again.
        w[k + 1 :, k + 1 :] -= factor[:, None] * w[k, k + 1 :]

    # Each back-substitution product is written batch-first (order="C"), so
    # numpy sums its contiguous rows pairwise; a sum over the batch-last
    # layout would add the terms sequentially and change the last bits.
    x = np.zeros((m, n))
    for k in range(n - 1, -1, -1):
        tail = np.multiply(w[k, k + 1 : n].T, x[:, k + 1 :], order="C").sum(axis=1)
        x[:, k] = (w[k, n] - tail) / w[k, k]
    return x, singular


@dataclass(frozen=True)
class DiagonalScaling:
    """Positive diagonal matrix, stored as its diagonal."""

    diag: np.ndarray

    def __post_init__(self):
        d = as_vector(self.diag, name="diagonal scaling")
        if not np.all(d > 0.0):
            raise ValueError("diagonal scaling entries must be strictly positive")
        object.__setattr__(self, "diag", d)
