"""Dense linear algebra kernel shared by every other module.

Vectors and square matrices are plain float64 numpy arrays, validated at the
boundary (finite entries, length >= 1, squareness) and marked read-only so
instances can be shared freely between threads.  The linear solver is Gauss
elimination with partial pivoting, written with a leading batch axis because
the enumeration oracle needs to solve thousands of small systems at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A pivot below this fraction of the matrix scale is treated as singular.
PIVOT_REL_TOL = 1e-12


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


def positive_part(v: np.ndarray) -> np.ndarray:
    """Componentwise max(0, v_i)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def inf_norm(v: np.ndarray) -> float:
    """Max-magnitude entry of a vector."""
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


def solve_linear_batch(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of square systems by partial-pivoting elimination.

    ``mats`` has shape (m, n, n) and ``rhs`` shape (m, n).  Returns
    ``(solutions, singular)`` where ``singular`` marks systems whose pivot fell
    below PIVOT_REL_TOL times the system's max-magnitude entry; their solution
    rows are meaningless and must be ignored by the caller.  Elimination is
    vectorized over the batch axis, so one call costs n numpy passes no matter
    how many systems are stacked.
    """
    a = np.array(mats, dtype=float, copy=True)
    b = np.array(rhs, dtype=float, copy=True)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (m, n, n) matrix batch, got shape {a.shape}")
    if b.shape != a.shape[:2]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix batch {a.shape}")
    m, n, _ = a.shape

    scale = np.abs(a).reshape(m, -1).max(axis=1)
    thresh = PIVOT_REL_TOL * np.where(scale > 0.0, scale, 1.0)
    singular = np.zeros(m, dtype=bool)
    batch = np.arange(m)

    for k in range(n):
        p = k + np.abs(a[:, k:, k]).argmax(axis=1)
        singular |= np.abs(a[batch, p, k]) <= thresh

        rows_k = a[batch, k, :].copy()
        a[batch, k, :] = a[batch, p, :]
        a[batch, p, :] = rows_k
        rhs_k = b[batch, k].copy()
        b[batch, k] = b[batch, p]
        b[batch, p] = rhs_k

        pivot = a[:, k, k]
        pivot = np.where(np.abs(pivot) <= thresh, 1.0, pivot)
        factor = a[:, k + 1 :, k] / pivot[:, None]
        a[:, k + 1 :, k:] -= factor[:, :, None] * a[:, None, k, k:]
        b[:, k + 1 :] -= factor * b[:, k, None]

    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        tail = (a[:, k, k + 1 :] * x[:, k + 1 :]).sum(axis=1)
        pivot = a[:, k, k]
        pivot = np.where(np.abs(pivot) <= thresh, 1.0, pivot)
        x[:, k] = (b[:, k] - tail) / pivot
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

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.diag.shape:
            raise ValueError(f"dimension mismatch: scaling {self.diag.shape} applied to {v.shape}")
        return self.diag * v

    @classmethod
    def identity(cls, n: int) -> "DiagonalScaling":
        return cls(np.ones(n))

    @classmethod
    def uniform(cls, value: float, n: int) -> "DiagonalScaling":
        return cls(np.full(n, float(value)))
