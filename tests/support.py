"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from icpkit.core import AffineMap, IcpInstance, ZeroMap, evaluate_F, evaluate_H
from icpkit.linalg import PIVOT_REL_TOL, DiagonalScaling


def pair_instance(h: np.ndarray, f: np.ndarray) -> tuple[IcpInstance, np.ndarray]:
    """Instance and point realizing H(r) = h exactly and F(r) ~ f (to rounding).

    Uses A = I and the zero map, so H(r) = r and F(r) = r + (f - h); evaluating
    at r = h gives H = h bit-exactly and F within one rounding of f.  Lets a
    test target arbitrary sign regions of the (H, F) plane through the real
    evaluation path instead of synthetic values.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    inst = IcpInstance(A=np.eye(h.size), b=f - h, f=ZeroMap())
    return inst, h


def random_instance(rng: np.random.Generator, n: int) -> IcpInstance:
    """Unstructured random instance (dense A, zero or affine f) for sweeps."""
    a = rng.uniform(-2.0, 2.0, (n, n))
    b = rng.uniform(-2.0, 2.0, n)
    if rng.integers(0, 2) == 0:
        return IcpInstance(A=a, b=b, f=ZeroMap())
    c = rng.uniform(-1.0, 1.0, (n, n))
    d = rng.uniform(-1.0, 1.0, n)
    return IcpInstance(A=a, b=b, f=AffineMap(c, d))


def diag_dominant(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly diagonally dominant matrix with positive diagonal."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.sum(np.abs(a), axis=1) + rng.uniform(0.1, 1.0, n))
    return a


def natural_residual_projection_form(inst: IcpInstance, r: np.ndarray) -> np.ndarray:
    """Literal form H - (H - F)_+; differential-testing mirror of natural_residual."""
    h = evaluate_H(inst, r)
    return h - np.maximum(h - evaluate_F(inst, r), 0.0)


def scaled_residual_projection_form(
    inst: IcpInstance,
    r: np.ndarray,
    omega1: DiagonalScaling,
    omega2: DiagonalScaling,
) -> np.ndarray:
    """Literal form O1 H - (O1 H - O2 F)_+; mirror of scaled_residual."""
    sh = omega1.apply(evaluate_H(inst, r))
    return sh - np.maximum(sh - omega2.apply(evaluate_F(inst, r)), 0.0)


def reference_solve_linear_batch(mats, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Unblocked batch-first elimination: the reference for solve_linear_batch.

    This is the kernel solve_linear_batch replaced, kept verbatim: n numpy
    passes over the whole batch, full-row swaps for every system, and the
    column below each pivot updated too.  The blocked kernel must return the
    same bits for solutions and singular mask.
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
