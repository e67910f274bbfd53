"""Shared construction helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from icpkit.core import AffineMap, IcpInstance, ZeroMap, evaluate_F, evaluate_H
from icpkit.linalg import PIVOT_REL_TOL, DiagonalScaling
from icpkit.residuals import natural_residual
from icpkit.solver import DIVERGENCE_LIMIT, SolveReport, SolverConfig, SolveStatus


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
    sh = omega1.diag * evaluate_H(inst, r)
    return sh - np.maximum(sh - omega2.diag * evaluate_F(inst, r), 0.0)


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


def reference_update(inst: IcpInstance, r: np.ndarray, step: np.ndarray) -> np.ndarray:
    """One projection step f(r) + (r - f(r) - step * (A r + b))_+, as the solver spelled it."""
    fr = inst.f.evaluate(r)
    return fr + np.maximum(r - fr - step * (inst.A @ r + inst.b), 0.0)


def reference_projection_iterate(inst: IcpInstance, r0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Two-evaluation projection loop: the reference for projection_iterate.

    This is the loop projection_iterate replaced, kept verbatim but for its
    step, which is reference_update: every iterate evaluates f and A r + b
    once inside natural_residual for the stopping test and again for the
    step.  The solver must return the same status, iteration count,
    residual_history bits and final point.
    """
    r = np.array(r0, dtype=float, copy=True)
    step = cfg.omega.diag
    history: list[float] = []
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
            r = reference_update(inst, r, step)
    raise AssertionError("unreachable")


def solve_exact(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Solution of the augmented rows [M | v] by Gaussian elimination, or None when M is singular."""
    n = len(rows)
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for r in range(k + 1, n):
            factor = rows[r][k] / rows[k][k]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def exact_enumeration(inst: IcpInstance) -> tuple[list[list[Fraction]], int, list[bool]]:
    """(distinct solutions in index-set order, exactly singular subsystems, tightness) of an affine instance.

    The stdlib reference for oracle.enumerate_solutions, in exact rational
    arithmetic on the floats' exact values: index set s takes row i from
    I - C with right side d_i when bit i of s is set, else from A with -b_i.
    A subsystem's solution solves the instance when H and F are both
    nonnegative, since one of H_i and F_i is 0 by construction.  A solution
    is tight when some i has H_i = F_i = 0 exactly; a solution reached from
    two index sets is tight at an index where they differ.
    """
    n = inst.n
    c, d = inst.f.affine_parts(n)
    ic = [[(i == j) - Fraction(c[i, j]) for j in range(n)] for i in range(n)]
    a = [[Fraction(x) for x in row] for row in inst.A]
    d, b = [Fraction(x) for x in d], [Fraction(x) for x in inst.b]
    solutions, singular, tight = [], 0, []
    for s in range(1 << n):
        x = solve_exact([ic[i] + [d[i]] if s >> i & 1 else a[i] + [-b[i]] for i in range(n)])
        if x is None:
            singular += 1
            continue
        h = [sum(ic[i][j] * x[j] for j in range(n)) - d[i] for i in range(n)]
        f = [sum(a[i][j] * x[j] for j in range(n)) + b[i] for i in range(n)]
        if min(h + f) >= 0 and x not in solutions:
            solutions.append(x)
            tight.append(any(hi == fi == 0 for hi, fi in zip(h, f)))
    return solutions, singular, tight


def small_integer_instances(n):
    """60 instances with A, b in {-1, 0, 1}, half affine, then 120 affine ones with identity rows in C."""
    # Half the first 60 are affine, with C in {-1, 0, 1} / 4 and d in
    # {-2, ..., 2}.  In the other 120, each row of C is the identity row
    # e_i with probability 0.4, and at least one is, so I - C is singular.
    rng = np.random.default_rng([n, 2024])
    for k in range(60):
        a = rng.integers(-1, 2, (n, n)).astype(float)
        b = rng.integers(-1, 2, n).astype(float)
        f = AffineMap(rng.integers(-1, 2, (n, n)) / 4, rng.integers(-2, 3, n).astype(float)) if k % 2 else ZeroMap()
        yield IcpInstance(A=a, b=b, f=f)
    for _ in range(120):
        a = rng.integers(-1, 2, (n, n)).astype(float)
        b = rng.integers(-1, 2, n).astype(float)
        c = rng.integers(-1, 2, (n, n)) / 4
        identity = rng.random(n) < 0.4
        identity[rng.integers(n)] = True
        c[identity] = np.eye(n)[identity]
        yield IcpInstance(A=a, b=b, f=AffineMap(c, rng.integers(-2, 3, n).astype(float)))
