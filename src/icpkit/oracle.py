"""Brute-force ground truth for affine instances at small dimension.

Any solution assigns each index to one of two complementary cases, H_i = 0 or
F_i = 0, so for affine f every solution is the solution of one of the 2^n
linear systems built by picking, per row, either ((I - C) r)_i = d_i or
(A r)_i = -b_i.  Enumerating all index sets, solving each subsystem, and
keeping the candidates that pass the solution test yields every solution; the
exponential cost is the price of independence from the residual machinery
this oracle is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IcpInstance, ToleranceConfig, check_solution
from .linalg import solve_linear_batch

ORACLE_N_CAP = 16
ORACLE_TOL = ToleranceConfig(feas_tol=1e-9, comp_tol=1e-9)
DEDUP_RADIUS = 1e-8
TIGHT_TOL = 1e-8
# Subsystems per solve_linear_batch call: 512 systems of 16 x 16 are 1 MiB in
# float64, small enough to stay in L2 cache across the n elimination steps.
_CHUNK = 512


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


class _SolutionIndex:
    """Stored points bucketed by one scalar key, for the DEDUP_RADIUS lookup.

    The key of x is floor(w.x / width), with fixed positive weights w and
    width = ||w||_1 * DEDUP_RADIUS.  Two points within DEDUP_RADIUS of each
    other in the inf-norm have w.x at most one width apart, so their exact
    keys differ by at most one.  The computed w.x carries a rounding error
    that grows with |x|; a lookup widens its bucket window by a bound on that
    error, and scans every stored point instead when that bound exceeds the
    number of buckets (far from the origin, or for a non-finite x).
    """

    def __init__(self, n: int):
        # Random weights in [1, 2] keep the points of integer grids, such as
        # {0, 1}^n, from sharing buckets.
        self._w = np.random.default_rng(0).uniform(1.0, 2.0, n)
        self._width = float(self._w.sum()) * DEDUP_RADIUS
        # For y within DEDUP_RADIUS of x, rounding in w.x, w.y and the division
        # moves t(x) - t(y) by at most about (n + 1) u (2 w.|x| / width + 3),
        # u = eps / 2; reach is twice that, in buckets.
        self._err = 2.0 * (n + 2) * np.finfo(float).eps
        self._points = np.empty((16, n))
        self._buckets: dict[int, list[int]] = {}
        self._size = 0

    def _key(self, x: np.ndarray) -> tuple[float, float]:
        """w.x / width, and the bound on its rounding error, in buckets."""
        t = float(self._w @ x) / self._width
        reach = self._err * (float(self._w @ np.abs(x)) / self._width + 1.0)
        return t, reach

    def find(self, x: np.ndarray) -> int | None:
        """Lowest index of a stored point within DEDUP_RADIUS of x (inf-norm)."""
        t, reach = self._key(x)
        if math.isfinite(t) and reach < len(self._buckets):
            k = math.floor(t)
            # |t(x) - t(y)| <= 1 + reach, so the keys differ by at most
            # 1 + ceil(reach) <= 2 + int(reach).
            m = 2 + int(reach)
            cand = [i for j in range(k - m, k + m + 1) for i in self._buckets.get(j, ())]
            if not cand:
                return None
            cand = np.array(cand)
        else:
            cand = np.arange(self._size)
        near = np.max(np.abs(self._points[cand] - x), axis=1) <= DEDUP_RADIUS
        return int(cand[near].min()) if near.any() else None

    def add(self, x: np.ndarray) -> int:
        """Store x and return its index."""
        i = self._size
        if i == len(self._points):
            self._points = np.concatenate([self._points, np.empty_like(self._points)])
        self._points[i] = x
        self._size += 1
        t, _ = self._key(x)
        # A non-finite key means |x| near overflow; any query within
        # DEDUP_RADIUS of x then has an infinite reach and scans every point.
        if math.isfinite(t):
            self._buckets.setdefault(math.floor(t), []).append(i)
        return i


def _affine_parts(inst: IcpInstance) -> tuple[np.ndarray, np.ndarray]:
    parts = inst.f.affine_parts(inst.n)
    if parts is None:
        raise ValueError("oracle enumeration requires a zero or affine implicit map")
    return parts


def enumerate_solutions(inst: IcpInstance, n_max: int = ORACLE_N_CAP) -> OracleResult:
    """Enumerate every solution of an affine instance with n <= n_max (<= 16)."""
    c, d = _affine_parts(inst)
    n = inst.n
    cap = min(int(n_max), ORACLE_N_CAP)
    if n > cap:
        raise ValueError(f"oracle handles n <= {cap}, got n = {n}")

    ic = np.eye(n) - c
    a = inst.A
    total = 1 << n
    bit = 1 << np.arange(n)

    solutions: list[np.ndarray] = []
    flags: list[bool] = []
    hits: list[int] = []
    singular_skipped = 0
    index = _SolutionIndex(n)

    for lo in range(0, total, _CHUNK):
        ids = np.arange(lo, min(lo + _CHUNK, total))
        # active[s, i]: index set s forces H_i = 0 (row from I - C), else F_i = 0.
        active = (ids[:, None] & bit) != 0
        mats = np.where(active[:, :, None], ic[None, :, :], a[None, :, :])
        rhs = np.where(active, d[None, :], -inst.b[None, :])
        points, singular = solve_linear_batch(mats, rhs)
        singular_skipped += int(singular.sum())

        good = ~singular & np.all(np.isfinite(points), axis=1)
        if not np.any(good):
            continue
        pts = points[good]
        h = pts - (pts @ c.T + d[None, :])
        f = pts @ a.T + inst.b[None, :]
        feasible = (
            np.all(h >= -ORACLE_TOL.feas_tol, axis=1)
            & np.all(f >= -ORACLE_TOL.feas_tol, axis=1)
            & np.all(np.abs(h * f) <= ORACLE_TOL.comp_tol, axis=1)
        )
        keep = np.flatnonzero(feasible)
        tight = np.any((np.abs(h[keep]) <= TIGHT_TOL) & (np.abs(f[keep]) <= TIGHT_TOL), axis=1)
        for idx, is_tight in zip(keep, tight.tolist()):
            point = pts[idx].copy()
            k = index.find(point)
            if k is not None:
                hits[k] += 1
                flags[k] = flags[k] or is_tight or hits[k] > 1
                continue
            # Re-test through the scalar path so every reported solution
            # passes check_solution verbatim, not just the batched filter.
            if not check_solution(inst, point, ORACLE_TOL).ok:
                continue
            index.add(point)
            solutions.append(point)
            flags.append(is_tight)
            hits.append(1)

    return OracleResult(
        solutions=solutions,
        degenerate_flags=flags,
        singular_skipped=singular_skipped,
        subsets_tested=total,
    )


def certify(inst: IcpInstance, r: np.ndarray, n_max: int = ORACLE_N_CAP) -> bool:
    """True iff r lies within DEDUP_RADIUS (inf-norm) of an enumerated solution.

    A solution whose subsystems are all singular is never enumerated, so a
    miss refutes r only when no subsystem was skipped; otherwise the answer
    is undecided and certify raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (inst.n,):
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, point shape {r.shape}")
    result = enumerate_solutions(inst, n_max=n_max)
    index = _SolutionIndex(inst.n)
    for sol in result.solutions:
        index.add(sol)
    if index.find(r) is not None:
        return True
    if result.singular_skipped:
        raise ValueError(
            f"undecided: r matches no enumerated solution, but {result.singular_skipped} "
            "singular subsystems were skipped"
        )
    return False
