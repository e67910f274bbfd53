"""Brute-force ground truth for affine instances at small dimension.

Any solution assigns each index to one of two complementary cases, H_i = 0 or
F_i = 0, so for affine f every solution is the solution of one of the 2^n
linear systems built by picking, per row, either ((I - C) r)_i = d_i or
(A r)_i = -b_i.  Enumerating all index sets, solving each subsystem, and
keeping the candidates that pass the solution test yields every solution; the
exponential cost is the price of independence from the residual machinery
this oracle is used to check.

When I - C is well conditioned, the index sets are the leaves of one tree of
principal pivots.  With P = (I - C)^-1, z = H(r) turns the ICP into
LCP(M, q), M = A P and q = A P d + b (Pang 1981).  Index set S (z_S = 0) is
the basis that pivots the tableau w = M z + q on Sbar, whose last column then
holds z on Sbar and w on S (Tucker 1963; Cottle, Pang and Stone 1992, ch. 2).
Level i splits each node into "z_i = 0" (bit i set) and "pivot on (i, i)".
One pivot step, _pivot, serves every level, the last included: a growth
test and a rank-one update over a batch of column-major (columns, n, nodes)
tableaux, halved before any level that would outgrow _LEVEL_BYTES; levels
alternate between two sets of buffers allocated once.  A leaf whose last
column has a clearly negative entry is dropped (see _Z_MARGIN); r = P (z + d)
is rebuilt for the others, which reach check_solution as one batch.  A pivot
that grows the tableau past what the tolerances allow sends its subtree to
the full n x n path (see _ROUNDING_SHARE), which runs whole when I - C is
singular or ill-conditioned.  It first scales each row of I - C and of A,
with its right-hand side, to one magnitude by a power of two, which keeps
every solution, so its pivot test calls a subsystem singular only when it
is so after that scaling.  Both paths' candidates go through check_solution,
the one solution test, and the two agree within DEDUP_RADIUS: the same
solutions in order, with the same flags.  singular_skipped counts the
subsystems left undecided: the singular ones, and those whose candidate
fails check_solution only in the entries its index set makes zero, by
rounding that on rows of large magnitude exceeds the absolute tolerances.

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
# Subsystems per full-path solve_linear_batch call: 512 systems of 16 x 16
# are 1 MiB, small enough to stay in L2 cache across the elimination steps.
_CHUNK = 512
# The full path's elimination leaves H_S and F_Sbar near n eps |r| whatever the
# conditioning.  The tree rebuilds r = P (z + d), so the H and F that its
# filter sees carry rounding of about n eps max(||I - C||, ||A||) ||P|| |z + d|
# (inf-norms).  It runs only while that estimate, with s = max(|d|, |q|, 1)
# standing in for |z + d|, times s again for the other factor of H_i F_i,
# stays below this share of the oracle tolerances, _ROUNDING_BOUND (||P|| up to
# about 3e4 for O(1) data at n = 16).  Its pivots round too, about n eps g per
# entry, g the largest entry on the path, so no node may pass
# g_max = _ROUNDING_BOUND / (n eps s).
# Pivoting on p, with |c| and |r| the largest entries of its column and row,
# bounds the child by g + |c| |r| / |p|, and the dropped pivot row and column
# by |r| / |p|, |c| / |p| and 1 / |p|; g + max(|c|, 1) max(|r|, 1) / |p| bounds
# all four.  So the floor under |p| rises with g, and a singular block fails
# it even when its pivot row is 0.
_ROUNDING_SHARE = 0.1
_ROUNDING_BOUND = _ROUNDING_SHARE * min(ORACLE_TOL.feas_tol, ORACLE_TOL.comp_tol)
# The tree drops a leaf whose last column, z on Sbar and w on S, has an entry
# below -(feas_tol + margin): check_solution would reject it anyway, since
# H(r) = z and F(r) = w in exact arithmetic.  The rebuilt H differs from z by
# the error of the computed P, ((I - C) P - I)(z + d), plus the rounding of
# r = P (z + d) and of (I - C) r - d, each within a small multiple of
# beta (|z| + |d|), beta = n eps max(||I - C||, ||A||) ||P||; the rebuilt F
# differs from w = A P (z + d) + b by the same kind of term.  The tableau's own
# rounding stays under _ROUNDING_BOUND / s (see _ROUNDING_SHARE).  _reduction
# admits only beta s^2 <= _ROUNDING_BOUND with s >= 1, so beta <= 1e-10; the
# margin is a hundred times that bound times 1 + |last column| + |d|, per leaf
# (inf-norms), which is at least 1 + |z| + |d|.
_Z_MARGIN = 100 * _ROUNDING_BOUND
# A tree batch halves before a level whose tableaux would pass this many
# bytes, so levels stay in cache (at n = 16, 128 KiB ran slower, 512 KiB
# peaked higher), and it sizes the tree's two level buffers and its scratch.
_LEVEL_BYTES = 1 << 18
# _merge's key weights at dimension n are the first n: random weights in
# [1, 2] keep the points of integer grids, such as {0, 1}^n, from sharing keys.
# They are np.random.default_rng(0).uniform(1.0, 2.0, ORACLE_N_CAP), written
# out so that importing the oracle does not import numpy.random (about 15 ms
# of every CLI start).  A stream's first n draws do not depend on how many
# follow, so the first n are what that generator draws for n weights.
_KEY_WEIGHTS = np.array([float.fromhex(x) for x in (
    "0x1.a30febcfd9c28p+0", "0x1.4510bdf882d9dp+0", "0x1.0a7d3da94ecdep+0", "0x1.043b27b61342fp+0",
    "0x1.d0327a782cde5p+0", "0x1.e9aa5979a6402p+0", "0x1.9b4c7b7180edbp+0", "0x1.bac0495ff882ap+0",
    "0x1.8b2b01e7a1dc8p+0", "0x1.ef60e8078f56cp+0", "0x1.d0dbc74d47003p+0", "0x1.00b37868abbe9p+0",
    "0x1.db7ed8bf64e6fp+0", "0x1.089910738de79p+0", "0x1.bacab307c3cfdp+0", "0x1.2cf7c449d8b92p+0",
)])
_KEY_WEIGHTS.setflags(write=False)


@dataclass
class OracleResult:
    """All distinct solutions found, in index-set order.

    degenerate_flags[k] is True when solution k sits on a complementarity
    boundary (some component has both |H_i| and |F_i| below TIGHT_TOL) or was
    reached from more than one index set.  singular_skipped counts the
    subsystems left undecided: those abandoned because elimination hit a
    near-zero pivot after each row was scaled to one magnitude, and those
    whose candidate fails the solution test only by the rounding of the
    entries its index set makes zero.
    """

    solutions: list[np.ndarray]
    degenerate_flags: list[bool]
    singular_skipped: int
    subsets_tested: int


def _merge(points: np.ndarray, tight: list[bool]) -> tuple[list[np.ndarray], list[bool]]:
    """First-match dedup of the candidate rows of points, in order.

    A candidate within DEDUP_RADIUS (inf-norm) of a solution taken before it
    merges into the lowest-indexed such solution, which is then reached from
    more than one index set and flagged degenerate.  Any other candidate
    becomes a new solution, flagged when tight.  Only candidates that share a
    window of the key w.x, w > 0 fixed, are compared.
    """
    n = points.shape[1]
    w = _KEY_WEIGHTS[:n]
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
    # DEDUP_RADIUS: it is a new solution, and no other looks at it.  The loop
    # compares each of the others with the looped solutions in its window, or
    # with all of them when half is inf.
    taken, flags = [True] * len(points), tight.copy()  # by candidate
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
        insort(shared, (tj, j))
    if all(taken):
        return list(points), flags
    return list(points[np.array(taken)]), list(compress(flags, taken))


def _reduction(inst: IcpInstance, ic: np.ndarray, d: np.ndarray):
    """(P, M, q, g_max) with P = (I - C)^-1, M = A P, q = A P d + b and the tree's entry bound, or None.

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
    # In Python floats, huge |d| or |q| takes the estimate to inf without a warning.
    norms = [float(np.abs(a).sum(axis=1).max()) for a in (ic, inst.A, p)]
    s = float(max(np.abs(d).max(), np.abs(q).max(), 1.0))
    unit = n * float(np.finfo(float).eps) * s
    if unit * max(norms[0], norms[1]) * norms[2] * s > _ROUNDING_BOUND:
        return None
    return p, m, q, _ROUNDING_BOUND / unit


def _scale_rows(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of m, with its entry of v, times the power of two that puts the row's largest |entry| in [0.5, 1).

    A row whose v entry would overflow takes the largest power of two that
    keeps it finite instead.  A positive row scaling keeps the solutions of
    every system built from these rows, and a power of two changes no bit
    unless an entry underflows.
    """
    e = np.frexp(np.abs(m).max(axis=1))[1]
    e = np.maximum(e, np.where(v == 0.0, e, np.frexp(v)[1] - 1024))
    return np.ldexp(m, -e[:, None]), np.ldexp(v, -e)


def _full_batches(inst: IcpInstance, ic: np.ndarray, d: np.ndarray, ids: np.ndarray):
    """(ids, points, singular count) per chunk of the index sets ids, each solved as its n x n subsystem.

    points holds the non-singular systems' solutions, in the order of ids.
    The rows of I - C and of A are first scaled by _scale_rows, so that the
    pivot test, which compares each pivot with the largest entry of its
    system, judges the subsystem and not the spread of its rows' magnitudes.
    """
    if not len(ids):
        return
    ic, d = _scale_rows(ic, d)
    a, neg_b = _scale_rows(inst.A, -inst.b)
    bit = 1 << np.arange(inst.n)
    for lo in range(0, len(ids), _CHUNK):
        chunk = ids[lo : lo + _CHUNK]
        # active[s, i]: index set s forces H_i = 0 (row from I - C), else F_i = 0.
        active = (chunk[:, None] & bit) != 0
        mats = np.where(active[:, :, None], ic[None, :, :], a[None, :, :])
        rhs = np.where(active, d[None, :], neg_b[None, :])
        points, singular = solve_linear_batch(mats, rhs)
        yield chunk[~singular], points[~singular], int(singular.sum())


def _pivot(t: np.ndarray, ids: np.ndarray, g: np.ndarray, i: int, g_max: float, scratch: np.ndarray):
    """Level i of the tree: (tableaux, ids, bounds) of the children that pivot on (i, i), and the nodes that fail to.

    t[c, :, k] is column c of node k's tableau (columns i..n-1 of its M, then
    q), ids[k] its index set and g[k] a bound on its entries.  Both children
    of a node drop column i, t[0], whose variable is 0 at the leaves; the one
    that keeps z_i = 0 (bit i set) is t[1:] unchanged.  The flat buffer
    scratch, which may not hold t, ids or g, takes the test's |entries|; then
    the pivot children of the nodes that pass the test fill its front as one
    block.
    """
    col, rest = t[0], t[1:]
    row, piv = rest[:, i], col[i]
    grow = np.abs(col, out=scratch[: col.size].reshape(col.shape)).max(axis=0, initial=1.0)
    grow *= np.abs(row, out=scratch[: row.size].reshape(row.shape)).max(axis=0, initial=1.0)
    mag = np.abs(piv)
    ok = grow <= (g_max - g) * mag  # g + grow / |piv| <= g_max, false for a zero pivot
    sel, bad = (slice(None), ids[:0]) if ok.all() else (ok, ids[~ok])
    piv = piv[sel]
    rp = row[:, sel] / piv
    child = scratch[: rest[:, :, 0].size * len(piv)].reshape(rest.shape[:2] + (len(piv),))
    np.multiply(col[:, sel], rp[:, None], out=child)
    np.subtract(rest[:, :, sel], child, out=child)
    np.negative(rp, out=child[:, i])
    return child, ids[sel], g[sel] + grow[sel] / mag[sel], bad


def _tree_batches(inst: IcpInstance, ic: np.ndarray, d: np.ndarray, p, m, q, g_max):
    """(ids, points, 0) of all leaves that pass _Z_MARGIN as one batch, then the full path's batches of unstable ones.

    A batch runs each level whole until the next would pass _LEVEL_BYTES,
    then halves; a copy of one half, not a view that pins the batch, waits on
    a stack.  Level i builds its pivot children in the flat buffer scratch,
    over contiguous blocks (at n = 16 numpy runs the update about twice as
    fast that way), then writes them, followed by the children that keep
    z_i = 0, into buffers i % 2, free of its parents.
    """
    n = inst.n
    # Levels n - 2 and n - 1 write the most, n << n floats; only a one-node
    # batch, whose children take 2 n^2 floats at most, passes _LEVEL_BYTES.
    # A child takes at least n floats, exactly n at the last level, so a level
    # writes at most size // n ids.
    size = min(max(_LEVEL_BYTES // 8, 2 * n * n), n << n)
    bufs = [(np.empty(size), np.empty(size // n, dtype=np.int64), np.empty(size // n)) for _ in range(2)]
    scratch = np.empty(size)
    unstable = [np.zeros(0, dtype=np.int64)]
    found = []  # (ids, points) of each batch's leaves that pass _Z_MARGIN
    d_max = np.abs(d).max()
    root = np.vstack([m.T, q])[:, :, None]
    stack = [(root, np.zeros(1, dtype=np.int64), np.abs(root).max(axis=(0, 1)), 0)]
    while stack:
        t, ids, g, start = stack.pop()
        for i in range(start, n):
            while len(ids) > 1 and 2 * t[1:].nbytes > _LEVEL_BYTES:
                h = len(ids) // 2
                stack.append((t[:, :, h:].copy(), ids[h:].copy(), g[h:].copy(), i))
                t, ids, g = t[:, :, :h], ids[:h], g[:h]
            tab, child_ids, child_g = bufs[i % 2]
            child, pivot_ids, pivot_g, bad = _pivot(t, ids, g, i, g_max, scratch)
            if len(bad):
                # The subtree under node s of level i holds s + (j << (i + 1)) for every j.
                unstable.append((bad[:, None] + (np.arange(1 << (n - i - 1)) << (i + 1))).ravel())
            k, width = len(pivot_g), len(pivot_g) + len(ids)
            tab = tab[: (len(t) - 1) * n * width].reshape(len(t) - 1, n, width)
            tab[:, :, :k], tab[:, :, k:] = child, t[1:]
            child_ids[:k], child_ids[k:width] = pivot_ids, ids | 1 << i
            child_g[:k], child_g[k:width] = pivot_g, g
            t, ids, g = tab, child_ids[:width], child_g[:width]
        # A leaf's last column holds w_i where bit i is set and z_i elsewhere.
        low = t[0].min(axis=0)
        margin = _Z_MARGIN * (1.0 + np.maximum(t[0].max(axis=0), -low) + d_max)
        keep = low >= -(ORACLE_TOL.feas_tol + margin)
        leaf_ids, leaves = ids[keep], t[0][:, keep]
        z = np.where((leaf_ids[:, None] >> np.arange(n)) & 1, 0.0, leaves.T)
        found.append((leaf_ids, (z + d) @ p.T))
    yield *map(np.concatenate, zip(*found)), 0
    yield from _full_batches(inst, ic, d, np.concatenate(unstable))


# Near the largest float, M, q, candidates, H, F and _merge's keys overflow harmlessly.
@np.errstate(over="ignore", invalid="ignore")
def enumerate_solutions(inst: IcpInstance) -> OracleResult:
    """Enumerate every solution of an affine instance with n <= ORACLE_N_CAP."""
    n = inst.n
    parts = inst.f.affine_parts(n)
    if parts is None:
        raise ValueError("oracle enumeration requires a zero or affine implicit map")
    c, d = parts
    if n > ORACLE_N_CAP:
        raise ValueError(f"oracle handles n <= {ORACLE_N_CAP}, got n = {n}")

    ic = np.eye(n) - c
    total = 1 << n
    reduction = _reduction(inst, ic, d)
    if reduction is None:
        batches = _full_batches(inst, ic, d, np.arange(total))
    else:
        batches = _tree_batches(inst, ic, d, *reduction)

    singular_skipped = 0
    bit = 1 << np.arange(n)
    found_ids, found_points, found_tight = [], [], []
    for ids, points, skipped in batches:
        # check_solution's rows match its single-point calls bit for bit, so
        # every reported solution passes it verbatim.  It rejects every row
        # that is not finite, since such a row's H is not finite either.
        check = check_solution(inst, points, ORACLE_TOL)
        ok, h, f = check.ok, check.h, check.f
        singular_skipped += skipped
        # Index set s makes H_i = 0 where bit i is set and F_i = 0 elsewhere,
        # so in exact arithmetic those entries pass every test.  A finite
        # candidate whose other entries pass fails only by the rounding of
        # its zeroed entries, which on rows of large magnitude can exceed the
        # absolute tolerances: its subsystem is undecided, not refuted.
        if not ok.all():
            fail = ~ok
            h_fail, f_fail = h[fail], f[fail]
            free = np.where((ids[fail, None] & bit) != 0, f_fail, h_fail)
            undecided = np.isfinite(h_fail) & np.isfinite(f_fail) & (free >= -ORACLE_TOL.feas_tol)
            singular_skipped += int(np.count_nonzero(np.all(undecided, axis=1)))
            ids, points, h, f = ids[ok], points[ok], h[ok], f[ok]
        found_ids.append(ids)
        found_points.append(points)
        found_tight.append(np.any((np.abs(h) <= TIGHT_TOL) & (np.abs(f) <= TIGHT_TOL), axis=1))

    # Candidates in index-set order, whichever order the chunks visited.
    order = np.argsort(np.concatenate(found_ids), kind="stable")
    solutions, flags = _merge(np.concatenate(found_points)[order], np.concatenate(found_tight)[order].tolist())

    return OracleResult(
        solutions=solutions,
        degenerate_flags=flags,
        singular_skipped=singular_skipped,
        subsets_tested=total,
    )


def match(result: OracleResult, r: np.ndarray) -> bool | None:
    """True if r lies within DEDUP_RADIUS (inf-norm) of one of result's solutions, else False, or None if undecided.

    A solution whose subsystems were all skipped is never enumerated, so a
    miss refutes r only when result skipped no subsystem; otherwise it is
    undecided.
    """
    # A non-finite r is never within DEDUP_RADIUS: its distances are nan or inf.
    sols = np.reshape(result.solutions, (-1, len(r)))
    if np.any(np.max(np.abs(sols - r), axis=1) <= DEDUP_RADIUS):
        return True
    return None if result.singular_skipped else False


def certify(inst: IcpInstance, r: np.ndarray) -> bool:
    """match(enumerate_solutions(inst), r), raising ValueError when the answer is undecided."""
    r = np.asarray(r, dtype=float)
    if r.shape != (inst.n,):
        raise ValueError(f"dimension mismatch: instance dim {inst.n}, point shape {r.shape}")
    result = enumerate_solutions(inst)
    found = match(result, r)
    if found is None:
        raise ValueError(
            f"undecided: r matches no enumerated solution, but {result.singular_skipped} "
            "subsystems were skipped"
        )
    return found
