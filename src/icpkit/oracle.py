"""Brute-force ground truth for affine instances at small dimension.

Any solution assigns each index to one of two complementary cases, H_i = 0 or
F_i = 0, so for affine f every solution is the solution of one of the 2^n
linear systems built by picking, per row, either ((I - C) r)_i = d_i or
(A r)_i = -b_i.  Enumerating all index sets, solving each subsystem, and
keeping the candidates that pass the solution test yields every solution; the
exponential cost is the price of independence from the residual machinery
this oracle is used to check.

When 2^n spans more than one chunk of _CHUNK subsystems and I - C is well
conditioned, the subsystems are solved in reduced form.  With P = (I - C)^-1,
substituting z = H(r) turns the ICP into LCP(M, q) with M = A P and
q = A P d + b (Pang 1981), so index set S (z_S = 0) leaves one
|Sbar| x |Sbar| system M_SbarSbar z_Sbar = -q_Sbar, whose matrix is singular
exactly when the full subsystem's is, and r = P (z + d).  Index sets are
grouped by |Sbar| = k, and each chunk solves k x k systems only, as many as
fill the bytes of _CHUNK systems of 16 x 16.  Since H(r) = z, a system whose
z has a component clearly below -feas_tol is dropped before r is rebuilt:
the filter would reject it (see _Z_MARGIN).  The full
n x n path runs otherwise: for n <= 9, where its one batched call beats the
n + 1 calls of the grouped sizes, and when I - C fails the pivot test or is
too ill-conditioned for the rebuilt r to meet the oracle tolerances (see
_ROUNDING_SHARE).  Both paths feed the same feasibility filter, re-test and
dedup, in index-set order.  They agree within DEDUP_RADIUS, not bit for
bit: the same solutions in the same order with the same degenerate flags,
and the same singular_skipped unless a near-singular subsystem's pivot falls
on different sides of the threshold in the two forms.

The dedup (_merge) sorts the candidates' scalar keys w.x once.  A candidate
alone in its key window is settled at once; the others are compared in the
inf-norm only with the solutions among them whose keys lie in their windows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import IcpInstance, ToleranceConfig, check_solution
from .linalg import solve_linear_batch

ORACLE_N_CAP = 16
ORACLE_TOL = ToleranceConfig(feas_tol=1e-9, comp_tol=1e-9)
DEDUP_RADIUS = 1e-8
TIGHT_TOL = 1e-8
# Subsystems per solve_linear_batch call: 512 systems of 16 x 16 are 1 MiB in
# float64, small enough to stay in L2 cache across the elimination steps.
# The full path's n x n chunks hold _CHUNK systems; the reduced path sizes
# its chunks by bytes, _CHUNK (ORACLE_N_CAP / k)^2 systems of k x k.
_CHUNK = 512
# The full path's elimination leaves H_S and F_Sbar near n eps |r| whatever the
# conditioning.  The reduced path rebuilds r = P (z + d), so the H and F that
# its filter sees carry rounding of about n eps max(||I - C||, ||A||) ||P|| |z + d|
# (inf-norms).  It runs only while that estimate, with s = max(|d|, |q|, 1)
# standing in for |z + d|, times s again for the other factor of H_i F_i,
# stays below this share of the oracle tolerances.  For O(1) data at n = 16
# that admits ||P|| up to about 3e4.
_ROUNDING_SHARE = 0.1
# The reduced path drops a system whose z has a component below
# -(feas_tol + margin) before it rebuilds r, since the filter would reject
# it anyway: H(r) = z in exact arithmetic.  The rebuilt H differs from z by
# the error of the computed P, ((I - C) P - I)(z + d), plus the rounding of
# r = P (z + d) and of (I - C) r - d, each within a small multiple of
# beta (|z| + |d|), beta = n eps max(||I - C||, ||A||) ||P|| (inf-norms).
# _reduction admits only beta s^2 <= _ROUNDING_SHARE min(tolerances) with
# s >= 1, so beta <= 1e-10; the margin is a hundred times that bound times
# 1 + |z| + |d|, per system.
_Z_MARGIN = 100 * _ROUNDING_SHARE * min(ORACLE_TOL.feas_tol, ORACLE_TOL.comp_tol)


@dataclass
class OracleResult:
    """All distinct solutions found, in index-set order.

    degenerate_flags[k] is True when solution k sits on a complementarity
    boundary (some component has both |H_i| and |F_i| below TIGHT_TOL) or was
    reached from more than one index set.  singular_skipped counts subsystems
    abandoned because elimination hit a near-zero pivot.
    """

    solutions: list[np.ndarray]
    degenerate_flags: list[bool]
    singular_skipped: int
    subsets_tested: int


# Keys, half-widths and distances of candidates near the largest float
# overflow to inf or nan, which the windows below are built to absorb.
@np.errstate(over="ignore", invalid="ignore")
def _merge(points: np.ndarray, tight: list[bool], passed: list[bool]) -> tuple[list[np.ndarray], list[bool]]:
    """First-match dedup of the candidate rows of points, in order.

    A candidate within DEDUP_RADIUS (inf-norm) of a solution taken before it
    merges into the lowest-indexed such solution, which is then reached from
    more than one index set and flagged degenerate.  Any other candidate that
    passed the re-test becomes a new solution, flagged when tight.  Only
    candidates that share a window of the key w.x, w > 0 fixed, are compared.
    """
    n = points.shape[1]
    # Random weights in [1, 2] keep the points of integer grids, such as
    # {0, 1}^n, from sharing keys.
    w = np.random.default_rng(0).uniform(1.0, 2.0, n)
    width = float(w.sum()) * DEDUP_RADIUS
    t = points @ w
    # Points within DEDUP_RADIUS of x have exact keys at most width from w.x.
    # Rounding in the two computed keys and in t -/+ half adds at most about
    # (n + 1) u (2 w.|x| + width), u = eps / 2, and half is more than twice
    # that total, so their keys lie in x's window.  Summing over 2 w makes
    # half inf once w.|x| passes half the largest float; that also holds for
    # any x near a point whose own key overflowed or is nan, so a nan key
    # can stand in the order as inf.
    half = 2.0 * width + (n + 2) * np.finfo(float).eps * (np.abs(points) @ (2.0 * w) + 2.0 * width)
    t[np.isnan(t)] = np.inf
    keys = np.sort(t)
    inside = np.searchsorted(keys, t + half, side="right") - np.searchsorted(keys, t - half)
    # A candidate alone in its finite window has no other candidate within
    # DEDUP_RADIUS: it is a solution iff it passed, and no other looks at it.
    # The loop compares each of the others with the looped solutions in its
    # window, or with all of them when half is inf.
    taken, flags = passed.copy(), tight.copy()  # by candidate
    shared: list[tuple[float, int]] = []  # (key, candidate) of the looped solutions, sorted
    for j in np.flatnonzero((inside > 1) | ~np.isfinite(half)).tolist():
        tj, hj = float(t[j]), float(half[j])
        if hj < np.inf:
            # (tj - hj,) and (tj + hj, j) bracket every entry keyed in the window.
            cand = [i for _, i in shared[bisect_left(shared, (tj - hj,)) : bisect_right(shared, (tj + hj, j))]]
        else:
            cand = [i for _, i in shared]
        if cand:
            near = np.max(np.abs(points[cand] - points[j]), axis=1) <= DEDUP_RADIUS
            if near.any():
                flags[min(compress(cand, near))] = True
                taken[j] = False
                continue
        if passed[j]:
            insort(shared, (tj, j))
    kept = list(compress(range(len(points)), taken))
    return [points[j].copy() for j in kept], [flags[j] for j in kept]


def _affine_parts(inst: IcpInstance) -> tuple[np.ndarray, np.ndarray]:
    parts = inst.f.affine_parts(inst.n)
    if parts is None:
        raise ValueError("oracle enumeration requires a zero or affine implicit map")
    return parts


def _reduction(inst: IcpInstance, ic: np.ndarray, d: np.ndarray):
    """(P, M, q) with P = (I - C)^-1, M = A P and q = A P d + b, or None.

    None sends the enumeration down the full path: I - C failed the pivot
    test, the rounding estimate of _ROUNDING_SHARE exceeds its share of the
    tolerances, or M or q is not finite.
    """
    n = inst.n
    x, singular = solve_linear_batch(np.broadcast_to(ic, (n, n, n)), np.eye(n))
    if singular.any():
        return None
    p = x.T
    m = inst.A @ p
    q = m @ d + inst.b
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(q))):
        return None
    norms = [np.abs(a).sum(axis=1).max() for a in (ic, inst.A, p)]
    s = max(np.abs(d).max(), np.abs(q).max(), 1.0)
    rounding = n * np.finfo(float).eps * max(norms[0], norms[1]) * norms[2] * s
    if rounding * s > _ROUNDING_SHARE * min(ORACLE_TOL.feas_tol, ORACLE_TOL.comp_tol):
        return None
    return p, m, q


def _full_batches(inst: IcpInstance, ic: np.ndarray, d: np.ndarray):
    """(ids, points, singular count) per chunk of index sets, each solved as its n x n subsystem.

    points holds the non-singular systems' solutions, in the order of ids.
    """
    n = inst.n
    total = 1 << n
    bit = 1 << np.arange(n)
    for lo in range(0, total, _CHUNK):
        ids = np.arange(lo, min(lo + _CHUNK, total))
        # active[s, i]: index set s forces H_i = 0 (row from I - C), else F_i = 0.
        active = (ids[:, None] & bit) != 0
        mats = np.where(active[:, :, None], ic[None, :, :], inst.A[None, :, :])
        rhs = np.where(active, d[None, :], -inst.b[None, :])
        points, singular = solve_linear_batch(mats, rhs)
        yield ids[~singular], points[~singular], int(singular.sum())


def _by_free_count(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index sets sorted stably by |Sbar|, their count of clear bits among n, and their |Sbar|."""
    ids = np.arange(1 << n)
    free = np.full(1 << n, n, dtype=np.int8)
    for i in range(n):
        free -= ((ids >> i) & 1).astype(np.int8)
    order = np.argsort(free, kind="stable")
    return order, free[order]


def _reduced_batches(n: int, p: np.ndarray, m: np.ndarray, q: np.ndarray, d: np.ndarray):
    """(ids, points, singular count) per chunk, from M_SbarSbar z_Sbar = -q_Sbar and r = P (z + d).

    Index sets are visited by increasing |Sbar| = k (their clear bits), and
    each chunk holds sets of a single k, so its systems are all k x k.  Only
    non-singular systems whose z passes the _Z_MARGIN test are rebuilt into
    points.
    """
    order, free = _by_free_count(n)
    bounds = np.searchsorted(free, np.arange(n + 2))
    bit = 1 << np.arange(n)
    dmax = np.abs(d).max()
    for k in range(n + 1):
        group = order[bounds[k] : bounds[k + 1]]
        # Each set's free indices, in increasing order; the fixed ones have z_S = 0.
        cols = np.nonzero((group[:, None] & bit) == 0)[1].reshape(len(group), k)
        step = _CHUNK * ORACLE_N_CAP**2 // max(k, 1) ** 2
        for lo in range(0, len(group), step):
            ids, part = group[lo : lo + step], cols[lo : lo + step]
            mats = m.take(part[:, :, None] * n + part[:, None, :])
            z, singular = solve_linear_batch(mats, -q[part])
            margin = _Z_MARGIN * (1.0 + np.abs(z).max(axis=1, initial=0.0) + dmax)
            keep = ~singular & ~np.any(z < -(ORACLE_TOL.feas_tol + margin)[:, None], axis=1)
            zfull = np.zeros((int(keep.sum()), n))
            np.put_along_axis(zfull, part[keep], z[keep], axis=1)
            x = zfull + d
            # BLAS rounds a lone row (gemv) unlike a block of rows (gemm), so
            # a lone survivor of a larger group is rebuilt as a block of two:
            # no point's bits depend on which other systems survive.
            block = np.repeat(x, 2, axis=0) if len(x) == 1 < len(group) else x
            yield ids[keep], (block @ p.T)[: len(x)], int(singular.sum())


def enumerate_solutions(inst: IcpInstance) -> OracleResult:
    """Enumerate every solution of an affine instance with n <= ORACLE_N_CAP."""
    c, d = _affine_parts(inst)
    n = inst.n
    if n > ORACLE_N_CAP:
        raise ValueError(f"oracle handles n <= {ORACLE_N_CAP}, got n = {n}")

    ic = np.eye(n) - c
    total = 1 << n
    # Within one chunk the full path's single batched call is faster than the
    # reduced path's n + 1 calls, one per system size.
    reduction = _reduction(inst, ic, d) if total > _CHUNK else None
    if reduction is None:
        batches = _full_batches(inst, ic, d)
    else:
        batches = _reduced_batches(n, *reduction, d)

    singular_skipped = 0
    found_ids, found_points, found_tight = [], [], []
    for ids, points, skipped in batches:
        singular_skipped += skipped
        good = np.all(np.isfinite(points), axis=1)
        pts = points[good]
        h = pts - (pts @ c.T + d[None, :])
        f = pts @ inst.A.T + inst.b[None, :]
        feasible = (
            np.all(h >= -ORACLE_TOL.feas_tol, axis=1)
            & np.all(f >= -ORACLE_TOL.feas_tol, axis=1)
            & np.all(np.abs(h * f) <= ORACLE_TOL.comp_tol, axis=1)
        )
        found_ids.append(ids[good][feasible])
        found_points.append(pts[feasible])
        found_tight.append(np.any((np.abs(h[feasible]) <= TIGHT_TOL) & (np.abs(f[feasible]) <= TIGHT_TOL), axis=1))

    # Candidates in index-set order, whichever order the chunks visited.
    order = np.argsort(np.concatenate(found_ids), kind="stable")
    points = np.concatenate(found_points)[order]
    tight = np.concatenate(found_tight)[order].tolist()

    # Re-test through check_solution, whose rows match its single-point
    # calls bit for bit, so every reported solution passes it verbatim.
    passed = check_solution(inst, points, ORACLE_TOL).ok.tolist()

    solutions, flags = _merge(points, tight, passed)

    return OracleResult(
        solutions=solutions,
        degenerate_flags=flags,
        singular_skipped=singular_skipped,
        subsets_tested=total,
    )


def certify(inst: IcpInstance, r: np.ndarray) -> bool:
    """True iff r lies within DEDUP_RADIUS (inf-norm) of an enumerated solution.

    A solution whose subsystems are all singular is never enumerated, so a
    miss refutes r only when no subsystem was skipped; otherwise the answer
    is undecided and certify raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (inst.n,):
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, point shape {r.shape}")
    result = enumerate_solutions(inst)
    # A non-finite r is never within DEDUP_RADIUS: its distances are nan or inf.
    sols = np.reshape(result.solutions, (-1, inst.n))
    if np.any(np.max(np.abs(sols - r), axis=1) <= DEDUP_RADIUS):
        return True
    if result.singular_skipped:
        raise ValueError(
            f"undecided: r matches no enumerated solution, but {result.singular_skipped} "
            "singular subsystems were skipped"
        )
    return False
