import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icpkit.oracle as oracle
from icpkit.core import AffineMap, IcpInstance, ZeroMap, is_solution
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.linalg import DiagonalScaling
from icpkit.oracle import DEDUP_RADIUS, ORACLE_TOL, _merge, certify, enumerate_solutions
from icpkit.residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual
from support import diag_dominant, exact_enumeration


def test_unique_solution_of_two_dimensional_lcp():
    # Hand enumeration of the four index sets: only forcing H_2 = 0, F_1 = 0
    # yields a feasible point, r = (1, 0) with H = (1, 0) and F = (0, 1).
    inst = IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap())
    result = enumerate_solutions(inst)
    assert [s.tolist() for s in result.solutions] == [[1.0, 0.0]]
    assert result.singular_skipped == 0
    assert result.subsets_tested == 4


def test_unique_solution_of_one_dimensional_icp():
    # Forcing F = 0 gives r = 2 with H = 1 >= 0; forcing H = 0 gives r = 0
    # with F = -4 < 0, rejected.
    inst = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
    result = enumerate_solutions(inst)
    assert [s.tolist() for s in result.solutions] == [[2.0]]


def test_zero_instance_collapses_to_origin():
    inst = IcpInstance(A=np.eye(3), b=np.zeros(3), f=ZeroMap())
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], np.zeros(3))
    # Every index set produces the origin, which is boundary-tight everywhere.
    assert result.degenerate_flags == [True]


def test_empty_solution_set():
    # Forcing F = 0 gives r = -1 with H = -1 < 0; forcing H = 0 gives r = 0
    # with F = -1 < 0: no index set survives.
    inst = IcpInstance(A=[[-1.0]], b=[-1.0], f=ZeroMap())
    result = enumerate_solutions(inst)
    assert result.solutions == []
    for r in ([0.0], [1.0], [-1.0], [0.37]):
        assert not certify(inst, np.array(r))


def test_certify_round_trip_and_perturbation():
    inst = IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap())
    result = enumerate_solutions(inst)
    for sol in result.solutions:
        assert certify(inst, sol)
    assert not certify(inst, result.solutions[0] + np.array([0.1, 0.0]))
    for bad in (np.nan, np.inf):
        assert not certify(inst, np.array([1.0, bad]))


def test_certify_is_undecided_when_singular_subsystems_were_skipped():
    # r = 1 solves the ICP (H = 1, F = 0), but the only subsystem through it,
    # F = 0 x + 0 = 0, is singular, so the enumeration finds just r = 0.
    inst = IcpInstance(A=[[0.0]], b=[0.0], f=ZeroMap())
    assert is_solution(inst, np.array([1.0]), ORACLE_TOL)
    result = enumerate_solutions(inst)
    assert result.singular_skipped == 1
    assert [s.tolist() for s in result.solutions] == [[0.0]]
    assert certify(inst, np.array([0.0]))
    with pytest.raises(ValueError, match="undecided"):
        certify(inst, np.array([1.0]))


def test_size_cap_and_preconditions():
    big = IcpInstance(A=np.eye(20), b=np.ones(20), f=ZeroMap())
    with pytest.raises(ValueError):
        enumerate_solutions(big)

    class OpaqueMap(ZeroMap):
        def affine_parts(self, n):
            return None

    nonaffine = IcpInstance(A=np.eye(2), b=np.ones(2), f=OpaqueMap())
    with pytest.raises(ValueError):
        enumerate_solutions(nonaffine)


def test_singular_subsystems_are_counted_not_fatal():
    # A is the zero matrix, so every index set choosing an F-row is singular;
    # only the all-H set survives and gives the origin (feasible: F = b >= 0).
    inst = IcpInstance(A=np.zeros((2, 2)), b=np.array([1.0, 2.0]), f=ZeroMap())
    result = enumerate_solutions(inst)
    assert result.singular_skipped == 3
    assert [s.tolist() for s in result.solutions] == [[0.0, 0.0]]


@pytest.mark.parametrize("seed", range(12))
def test_outputs_pass_solution_test_and_residual_agreement(seed):
    rng = np.random.default_rng(1000 + seed)
    spec = GeneratorSpec(
        n=int(rng.integers(1, 9)),
        seed=seed,
        matrix_family=("diag_dominant", "symmetric_pd", "dense")[seed % 3],
        f_family=("zero", "contractive_affine")[seed % 2],
        gamma=0.5,
        active_fraction=(0.0, 0.5, 1.0)[seed % 3],
    )
    inst, planted, _ = generate_planted(spec)
    result = enumerate_solutions(inst)
    assert any(np.max(np.abs(planted - s)) <= 1e-8 for s in result.solutions)
    assert len(result.degenerate_flags) == len(result.solutions)

    omega1 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    omega2 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    for sol in result.solutions:
        assert is_solution(inst, sol, ORACLE_TOL)
        assert np.max(np.abs(natural_residual(inst, sol))) <= 1e-8
        assert np.max(np.abs(scaled_residual(inst, sol, omega1, omega2))) <= 1e-8
        for delta in DELTA_CATALOG.values():
            assert np.max(np.abs(delta_residual(inst, sol, delta))) <= 1e-7


def test_degenerate_flag_marks_boundary_tight_solutions():
    # b = 0 makes the unique solution r = 0 tight in every component.
    tight = IcpInstance(A=np.eye(1), b=np.zeros(1), f=ZeroMap())
    result = enumerate_solutions(tight)
    assert result.degenerate_flags == [True]

    clean = IcpInstance(A=np.eye(1), b=np.array([-1.0]), f=ZeroMap())
    result = enumerate_solutions(clean)
    assert result.degenerate_flags == [False]


def first_match(stored, x):
    """Reference dedup rule: the first row of stored within DEDUP_RADIUS of x (inf-norm)."""
    near = np.flatnonzero(np.max(np.abs(stored - x), axis=1) <= DEDUP_RADIUS)
    return int(near[0]) if near.size else None


R = DEDUP_RADIUS
# Per-coordinate offsets from a center: exactly R, one ulp either side of R,
# fractions of R (so several stored points can match one query) and outside.
OFFSETS = [0.0, R, -R, np.nextafter(R, 0.0), np.nextafter(R, 1.0), -np.nextafter(R, 1.0),
           0.3 * R, -0.6 * R, 1.5 * R, 3.0 * R]
# Far-away solutions fed first, so that each drawn point's window is counted
# in a sorted array of thousands of keys rather than among the drawn points.
FILLERS = 2000


@st.composite
def index_case(draw):
    n = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 1e6, 1e8, 1e9, 1e10, 1e12]))
    # Each coordinate of the center is of the drawn scale or of order 1.
    coords = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    big = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    center = np.array([c * scale if b else c for c, b in zip(coords, big)])
    # A line of points a fraction of R apart along one coordinate.  Far from
    # the origin the computed w.x rises in steps of one ulp, wider than the
    # exact key gap of two points R apart, so neighbours' keys lie far apart.
    axis = draw(st.integers(0, n - 1))
    step = draw(st.sampled_from([0.25 * R, 0.5 * R, np.nextafter(R, 0.0), R]))
    line = [center + k * step * np.eye(n)[axis] for k in range(draw(st.integers(0, 120)))]
    offsets = st.lists(st.sampled_from(OFFSETS), min_size=n, max_size=n)
    jitter = [center + np.array(off) for off in draw(st.lists(offsets, max_size=10))]
    return n, draw(st.permutations(line + jitter))


def greedy_merge(solutions, points, tight):
    """Reference dedup after the given unflagged solutions: each point merges
    into the first solution within DEDUP_RADIUS and flags it, or else becomes
    a solution."""
    flags = [False] * len(solutions)
    for x, is_tight in zip(points, tight):
        k = first_match(solutions, x)
        if k is not None:
            flags[k] = True
        else:
            solutions = np.vstack([solutions, x])
            flags.append(is_tight)
    return solutions, flags


# Pinned cases: a point exactly R from a solution; a point between two
# solutions, which must merge into the lower one; a line far from the
# origin, whose computed keys rise in steps of one ulp, wider than the window
# would be without its rounding term; and repeated points whose keys w.x
# overflow to inf and -inf, which only an unbounded window finds.
LINE = [np.array([5e8, k * R]) for k in range(120)]
HUGE = [np.array([1.79e308, -1.79e308]), np.array([-1.79e308, 1.0])] * 2


@settings(max_examples=200, deadline=None)
@given(index_case(), st.lists(st.booleans(), min_size=130, max_size=130))
@example((1, [np.zeros(1), np.full(1, R)]), [False] * 130)
@example((1, [np.zeros(1), np.full(1, 2 * R), np.full(1, R)]), [False] * 130)
@example((2, LINE), [False] * 130)
@example((2, HUGE), [False] * 130)
def test_merge_matches_greedy_first_match(case, tight):
    # A point can lie within DEDUP_RADIUS of several solutions and must merge
    # into the lowest-indexed one.  The fillers lie far from each other and
    # from the drawn points, so the merge takes each of them as an unflagged
    # solution.  One tight flag is drawn for each of the at most 130 points.
    n, points = case
    tight = tight[: len(points)]
    rng = np.random.default_rng(n)
    fillers = rng.uniform(1.0, 2.0, (FILLERS, n)) * 1e14
    # The HUGE example overflows on purpose.
    with np.errstate(over="ignore", invalid="ignore"):
        solutions, flags = _merge(np.vstack([fillers, np.reshape(points, (-1, n))]), [False] * FILLERS + tight)
        expected, expected_flags = greedy_merge(fillers, points, tight)
    assert np.array(solutions).tobytes() == expected.tobytes()
    assert flags == expected_flags


def count_oracle_lines(budget):
    """A sys.settrace hook that counts the lines run in icpkit.oracle and
    raises once more than budget have run."""
    left = [budget]

    def local(frame, event, arg):
        if event == "line":
            left[0] -= 1
            if left[0] < 0:
                raise RuntimeError(f"icpkit.oracle ran more than {budget} lines")
        return local

    return lambda frame, event, arg: local if frame.f_code.co_filename == oracle.__file__ else None


@pytest.mark.parametrize("b_scale", [0.0, 1e-12])
def test_coinciding_candidates_cost_linear_work(b_scale):
    # A = I, f = 0 and |b| <= 1e-12: the 2^14 index sets give candidates
    # r_i in {0, -b_i}, all within DEDUP_RADIUS of each other, so they merge
    # into the first one.  Each candidate has one solution near it, and the
    # dedup must not walk the whole pile for each one: the lines the oracle
    # runs must stay within a fixed number per index set.
    n = 14
    b = b_scale * np.random.default_rng(3).uniform(-1.0, 1.0, n)
    inst = IcpInstance(A=np.eye(n), b=b, f=ZeroMap())
    old = sys.gettrace()
    sys.settrace(count_oracle_lines(64 << n))
    try:
        result = enumerate_solutions(inst)
    finally:
        sys.settrace(old)
    assert len(result.solutions) == 1
    assert np.max(np.abs(result.solutions[0] - np.maximum(-b, 0.0))) <= DEDUP_RADIUS
    assert result.degenerate_flags == [True]


def test_many_isolated_solutions_match_closed_form():
    # A = -diag(u), b = v, f = 0 with u, v > 0: index set s forces r_i = 0 when
    # bit i is set (H_i = 0) and r_i = v_i / u_i otherwise (F_i = 0), so every
    # one of the 2^n index sets gives its own isolated, non-degenerate solution.
    n = 10
    rng = np.random.default_rng(7)
    u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    inst = IcpInstance(A=-np.diag(u), b=v, f=ZeroMap())
    assert takes_tree(inst)
    result = enumerate_solutions(inst)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    expected = np.where(bits == 1, 0.0, v / u)
    assert len(result.solutions) == 1 << n
    assert np.array_equal(np.array(result.solutions), expected)
    assert result.degenerate_flags == [False] * (1 << n)
    assert result.singular_skipped == 0
    assert_tree_matches_full_path(inst)


def test_tree_matches_full_path_when_every_set_is_a_solution():
    # A = -diag(u) and a small dense C make every index set a solution whose
    # rebuilt r = P (z + d) rounds in its last bits, so the tree's 2^n leaves
    # all reach the dedup, which must keep them apart and in index-set order.
    n = 10
    rng = np.random.default_rng(3)
    u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    inst = IcpInstance(A=-np.diag(u), b=v, f=AffineMap(rng.uniform(-0.01, 0.01, (n, n)), rng.uniform(-0.1, 0.1, n)))
    assert takes_tree(inst)
    assert_tree_matches_full_path(inst)
    assert len(enumerate_solutions(inst).solutions) == 1 << n


def test_solution_inside_the_tolerance_band_is_kept():
    # f(r) = C r + d with C = 0, so H(r) = r - d and, with P = I, z = H(r).
    # A = 3 I except that rows 1 and 2 are both 3 (e_1 + e_2), so the
    # 2^(n - 2) index sets that leave 1 and 2 free are singular.  q = A d + b
    # has q_i > 0 for i >= 1, so z_i = 0 there, and q_0 is about 3e-9: the
    # set that leaves only index 0 free gives z_0 = -q_0 / 3 just below
    # -feas_tol, yet rebuilding r_0 = d_0 + z_0 rounds H_0 back inside the
    # band.  That point is a solution; the set that fixes z_0 = 0 comes after
    # it in index-set order and merges into it.
    n = 10
    d = np.ones(n)
    d[0] = 0.625
    b = -np.ones(n)
    b[0] = -1.874999997
    a = 3.0 * np.eye(n)
    a[1, 2] = a[2, 1] = 3.0
    inst = IcpInstance(A=a, b=b, f=AffineMap(np.zeros((n, n)), d))
    z0 = -(3.0 * d[0] + b[0]) / 3.0
    assert z0 < -ORACLE_TOL.feas_tol < (d[0] + z0) - d[0] < 0.0
    assert takes_tree(inst)
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], np.concatenate([[d[0] + z0], d[1:]]))
    assert result.degenerate_flags == [True]
    assert result.singular_skipped == 1 << (n - 2)


def test_leaf_test_covers_w_on_s(monkeypatch):
    # A = I and f(r) = C r + d with C = 0, so P = I, M = I, q = d + b, H = r - d
    # and F = r + b.  q_0 is about -5e-10: the leaf that fixes z_0 = 0 has
    # H_0 = 0 and F_0 = w_0 = q_0, inside feas_tol, so it must be kept, and
    # the earlier leaf that pivots on 0 (r_0 = d_0 - q_0) is the solution it
    # merges into.  q_1 = -1: the leaf that fixes z_1 = 0 has w_1 = -1, so
    # the tree drops it, and only those two leaves reach check_solution.
    n = 8
    d = np.ones(n)
    d[0] = 0.5
    b = np.ones(n)
    b[0] = -0.5 - 5e-10
    b[1] = -2.0
    inst = IcpInstance(A=np.eye(n), b=b, f=AffineMap(np.zeros((n, n)), d))
    q0 = d[0] + b[0]
    assert -ORACLE_TOL.feas_tol < q0 < -4e-10
    assert takes_tree(inst)
    seen, check = [], oracle.check_solution
    monkeypatch.setattr(oracle, "check_solution", lambda *args: seen.append(args[1]) or check(*args))
    result = enumerate_solutions(inst)
    x = np.concatenate([[d[0] - q0, 2.0], d[2:]])
    assert np.array_equal(np.concatenate(seen), [x, np.concatenate([d[:1], x[1:]])])
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], x)
    assert result.degenerate_flags == [True]
    monkeypatch.undo()
    assert_tree_matches_full_path(inst)


def on_full_path(fn, *args):
    """fn(*args) with the enumeration forced onto the full n x n path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_reduction", lambda *_: None)
        return fn(*args)


def takes_tree(inst):
    c, d = inst.f.affine_parts(inst.n)
    return oracle._reduction(inst, np.eye(inst.n) - c, d) is not None


def certify_answer(inst, r):
    try:
        return certify(inst, r)
    except ValueError:
        return "undecided"


def assert_results_agree(tree, full):
    """The same solutions within DEDUP_RADIUS, in order, with the same flags and counts."""
    assert len(tree.solutions) == len(full.solutions)
    for x, y in zip(tree.solutions, full.solutions):
        assert np.max(np.abs(x - y)) <= DEDUP_RADIUS
    assert tree.degenerate_flags == full.degenerate_flags
    assert tree.singular_skipped == full.singular_skipped
    assert tree.subsets_tested == full.subsets_tested


def assert_tree_matches_full_path(inst):
    tree, full = enumerate_solutions(inst), on_full_path(enumerate_solutions, inst)
    if not takes_tree(inst):
        # Both sides ran the full path.
        assert pickle.dumps(tree) == pickle.dumps(full)
        return
    assert_results_agree(tree, full)
    assert tree.subsets_tested == 1 << inst.n
    probes = [np.zeros(inst.n)] + full.solutions[:1] + [s + 1e-3 for s in full.solutions[:1]]
    for r in probes:
        assert certify_answer(inst, r) == on_full_path(certify_answer, inst, r)


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


@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_matches_exact_enumeration_on_small_integer_instances(n):
    # Entries in {-1, 0, 1} make many subsystems exactly singular, and many
    # solutions tight.  Exact arithmetic decides singularity, the solution
    # test and tightness, so the float oracle must find the same isolated
    # solutions, in the same order, skip the same subsystems, and flag
    # exactly the tight solutions.  With identity rows in C only the full
    # path runs.
    for k, inst in enumerate(small_integer_instances(n)):
        if k >= 60:
            assert not takes_tree(inst), (k, inst)
        result = enumerate_solutions(inst)
        exact, singular, tight = exact_enumeration(inst)
        assert result.singular_skipped == singular, (k, inst)
        assert len(result.solutions) == len(exact), (k, inst)
        for x, y in zip(result.solutions, exact):
            assert np.max(np.abs(x - np.array(y, dtype=float))) <= DEDUP_RADIUS, (k, inst)
        assert result.degenerate_flags == tight, (k, inst)


# At n = 1 the root batch is the last level.  At n = 13 the tree halves its
# batch before level 8 (see _LEVEL_BYTES).
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 0), (3, 0)] + [(n, seed) for n in (8, 9, 10, 11) for seed in range(3)] + [(13, 0)])
@pytest.mark.parametrize("f_family", F_FAMILIES)
@pytest.mark.parametrize("matrix_family", MATRIX_FAMILIES)
def test_tree_matches_full_path_on_generated_families(matrix_family, f_family, n, seed):
    spec = GeneratorSpec(n=n, seed=seed, matrix_family=matrix_family, f_family=f_family, gamma=0.5)
    inst = generate_planted(spec)[0]
    assert takes_tree(inst)
    assert_tree_matches_full_path(inst)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("c_entry", [0.0, 0.25, -0.25])
@pytest.mark.parametrize("shape", ["plain", "zero_row", "duplicate_rows", "b_zero"])
def test_tree_matches_full_path_on_degenerate_instances(shape, c_entry, n, seed):
    # Entries in {-1, 0, 1} make many subsystems exactly singular, many
    # solutions tight and many tree pivots zero, so whole subtrees fall back;
    # C has entries in {0, c_entry} times {-1, 1}.  Large |q| can send an
    # instance down the full path (b_zero, -0.25, 11, 0 has max |q| = 21),
    # where the result must then match byte for byte.
    rng = np.random.default_rng([seed, n, len(shape), int(4 * c_entry) + 1])
    a = rng.integers(-1, 2, (n, n)).astype(float)
    b = rng.integers(-1, 2, n).astype(float)
    if shape == "zero_row":
        a[rng.integers(n)] = 0.0
    elif shape == "duplicate_rows":
        i, j = rng.choice(n, 2, replace=False)
        a[j] = a[i]
    elif shape == "b_zero":
        b[:] = 0.0
    c = c_entry * rng.integers(-1, 2, (n, n))
    f = AffineMap(c, rng.integers(-1, 2, n).astype(float)) if c_entry else ZeroMap()
    assert_tree_matches_full_path(IcpInstance(A=a, b=b, f=f))


@pytest.mark.parametrize("case", ["identity_row", "ill_conditioned"])
def test_fallback_returns_the_full_path_result_exactly(case):
    n = 10
    rng = np.random.default_rng(5)
    c = rng.uniform(-0.05, 0.05, (n, n))
    c[3] = np.eye(n)[3]  # I - C is singular: its row 3 is zero
    if case == "ill_conditioned":
        c[3, 3] -= 1e-9  # ||I - C|| ||(I - C)^-1|| is about 1e9
    d = rng.uniform(-1.0, 1.0, n)
    d[3] = -0.5  # H_3 is then (about) 0.5 > 0, so F_3 = 0 at every solution
    inst = IcpInstance(A=diag_dominant(rng, n), b=rng.uniform(-1.0, 1.0, n), f=AffineMap(c, d))
    assert not takes_tree(inst)
    result = enumerate_solutions(inst)
    assert result.solutions
    assert pickle.dumps(result) == pickle.dumps(on_full_path(enumerate_solutions, inst))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-6, 5e-8])
def test_near_singular_block_in_i_minus_c_keeps_the_solution(delta, seed):
    # I - C holds the block [[1, 1], [1, 1 + delta]], condition number about
    # 4 / delta.  The one solution x has H(x) = 0 and F(x) = x + 1 >= 1, so an
    # error of 1e-9 in a rebuilt H_i already breaks |H_i F_i| <= comp_tol.
    # The tree must keep x at the edge of its range or fall back.
    n = 10
    ic = np.eye(n)
    ic[0, 1] = ic[1, 0] = 1.0
    ic[1, 1] += delta
    x = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    inst = IcpInstance(A=np.eye(n), b=np.ones(n), f=AffineMap(np.eye(n) - ic, ic @ x))
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.max(np.abs(result.solutions[0] - x)) <= DEDUP_RADIUS
    assert takes_tree(inst) == (delta >= 1e-3)
    assert_tree_matches_full_path(inst)


def planted_lcp(a, rng):
    """(instance, x): f = 0, so M = A, and b plants x, with x_0 = 1, F_0 = 0 and x = 0 on A's zero columns."""
    n = len(a)
    x = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(0.5, 1.0, n))
    x[~a.any(axis=0)] = 0.0
    x[0] = 1.0
    return IcpInstance(A=a, b=np.where(x > 0.0, 0.0, rng.uniform(0.5, 1.0, n)) - a @ x, f=ZeroMap()), x


def enumerate_with_fallback_ids(inst):
    """(result, sorted index sets sent to the full path) of one enumeration."""
    sent, full_batches = [], oracle._full_batches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_full_batches", lambda *args: sent.append(args[-1]) or full_batches(*args))
        result = enumerate_solutions(inst)
    return result, np.sort(np.concatenate(sent))


def test_zero_root_pivot_sends_its_subtree_to_the_full_path():
    # f = 0 makes M = A, and A_00 = 0 is the tree's first pivot, so every
    # index set that leaves index 0 free (bit 0 clear) is solved by the full
    # path, and so is the planted solution x, which has x_0 = 1 and F_0 = 0.
    n = 10
    rng = np.random.default_rng(11)
    a = diag_dominant(rng, n)
    a[0, 0] = 0.0
    inst, x = planted_lcp(a, rng)
    assert takes_tree(inst)
    result, sent = enumerate_with_fallback_ids(inst)
    assert np.array_equal(sent, np.arange(0, 1 << n, 2))
    assert any(np.max(np.abs(s - x)) <= DEDUP_RADIUS for s in result.solutions)
    assert_tree_matches_full_path(inst)


def test_pivot_failures_before_and_after_a_batch_split_fall_back(monkeypatch):
    # At n = 13 the root runs as one node, but the level-10 tableaux of all
    # 2^10 nodes take 2^10 x 4 x 13 floats (416 KiB), past _LEVEL_BYTES, so
    # level 10 runs in several batches.  With f = 0, M = A, and A_00 = 0: the
    # root pivot fails, so every set with bit 0 clear goes to the full path.
    # Column 10 of A is 0, so it stays 0 under every pivot, and each node's
    # pivot on (10, 10) fails, in every batch, which sends the sets with
    # bit 10 clear.  The planted x has x_0 = 1, so only the full path finds it.
    n = 13
    rng = np.random.default_rng(11)
    a = diag_dominant(rng, n)
    a[0, 0] = 0.0
    a[:, 10] = 0.0
    inst, x = planted_lcp(a, rng)
    assert takes_tree(inst)
    calls, pivot = [], oracle._pivot

    def recording_pivot(t, ids, g, i, *rest):
        calls.append((i, len(ids)))
        return pivot(t, ids, g, i, *rest)

    monkeypatch.setattr(oracle, "_pivot", recording_pivot)
    result, sent = enumerate_with_fallback_ids(inst)
    assert calls[0] == (0, 1)
    assert sum(i == 10 for i, _ in calls) > 1
    ids = np.arange(1 << n)
    expected = ids[((ids & 1) == 0) | ((ids & 1 << 10) == 0)]
    assert len(expected) == 6144
    assert np.array_equal(sent, expected)
    assert any(np.max(np.abs(s - x)) <= DEDUP_RADIUS for s in result.solutions)
    monkeypatch.undo()
    assert_tree_matches_full_path(inst)


def test_zero_last_column_sends_every_last_level_pivot_to_the_full_path():
    # f = 0 makes M = A, and column n - 1 of A is 0, so it stays 0 under every
    # pivot: each last-level node's pivot on (n - 1, n - 1) is 0 and fails,
    # which sends exactly the sets with bit n - 1 clear.  Their subsystems all
    # have a zero column, so the full path skips each of them as singular.
    n = 8
    rng = np.random.default_rng(11)
    a = diag_dominant(rng, n)
    a[:, n - 1] = 0.0
    inst, x = planted_lcp(a, rng)
    assert takes_tree(inst)
    result, sent = enumerate_with_fallback_ids(inst)
    assert np.array_equal(sent, np.arange(1 << (n - 1)))
    assert len(result.solutions) == 1
    assert np.max(np.abs(result.solutions[0] - x)) <= DEDUP_RADIUS
    assert result.singular_skipped == 1 << (n - 1)
    assert_tree_matches_full_path(inst)


def test_mixed_pivot_failures_at_the_last_level_fall_back():
    # f = 0 makes M = A.  The root pivot A_00 = 1 passes; at the last level
    # the child that keeps z_0 = 0 pivots on A_11 = 0, which fails and sends
    # set 1 to the full path, where it is singular, while the pivot child's
    # Schur complement, -1, passes.
    inst = IcpInstance(A=[[1.0, 1.0], [1.0, 0.0]], b=[-1.0, -0.5], f=ZeroMap())
    assert takes_tree(inst)
    result, sent = enumerate_with_fallback_ids(inst)
    assert sent.tolist() == [1]
    assert result.singular_skipped == 1
    assert [s.tolist() for s in result.solutions] == [[0.5, 0.5], [1.0, 0.0]]
    assert_tree_matches_full_path(inst)


def test_pivot_writes_only_into_scratch():
    # The pivot children fill the front of scratch, whatever it held before;
    # t, ids and g are left as they were.
    n = 6
    rng = np.random.default_rng(4)
    inst = IcpInstance(A=diag_dominant(rng, n), b=rng.uniform(-1.0, 1.0, n), f=ZeroMap())
    m, q, g_max = oracle._reduction(inst, np.eye(n), np.zeros(n))[1:]
    t = np.vstack([m.T, q])[:, :, None].repeat(3, axis=2)
    t[:, 0, 1] = 0.0  # node 1's pivot is 0 and fails
    ids, g = np.array([4, 6, 2]), np.abs(t).max(axis=(0, 1))
    parents = [t.copy(), ids.copy(), g.copy()]
    results = []
    for fill in (np.nan, 7.0):
        scratch = np.full(4 * n * n, fill)
        child, child_ids, child_g, bad = oracle._pivot(t, ids, g, 0, g_max, scratch)
        assert all(np.array_equal(a, b) for a, b in zip((t, ids, g), parents))
        assert child.shape == (n, n, 2) and np.shares_memory(child, scratch[: 2 * n * n])
        assert not np.shares_memory(child, scratch[2 * n * n :]) and not np.shares_memory(child, t)
        assert np.array_equal(scratch[2 * n * n :], np.full(2 * n * n, fill), equal_nan=True)
        assert child_ids.tolist() == [4, 2] and bad.tolist() == [6]
        assert np.all(child_g > g[[0, 2]])
        results.append(child.copy())
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0][:, 0, 0], -t[1:, 0, 0] / t[0, 0, 0])


# f = 0 makes M = A.  The root pivot passes; at level 1, node 0's pivot,
# A_11 - A_10 A_01 / A_00 = -0.5, passes and node 1's, A_11 = 0, fails, which
# sends the sets 1 + 4 j.  Column 3 of A is A_33 e_3, which no pivot changes:
# with A_33 = 0 every pivot of the last level fails and sends the last level's
# parents, in batch order; with A_33 = 1 every one passes.
@pytest.mark.parametrize(
    "a33, expected_sent", [(0.0, [[1, 5, 9, 13, 0, 2, 3, 4, 6, 7]]), (1.0, [[1, 5, 9, 13]])]
)
def test_levels_write_pivot_children_then_kept_children_into_fresh_buffers(a33, expected_sent, monkeypatch):
    a = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 1.0, a33]])
    n = len(a)
    inst = IcpInstance(A=a, b=np.array([-1.0, -1.0, -1.0, 1.0]), f=ZeroMap())
    assert takes_tree(inst)
    calls, pivot = [], oracle._pivot

    def recording_pivot(t, ids, g, i, g_max, scratch):
        children = pivot(t, ids, g, i, g_max, scratch)
        copies = [t.copy(), ids.copy(), g.copy()]
        assert children[0].base is scratch
        calls.append(dict(i=i, level=(t, ids, g), copies=copies, scratch=scratch, pivot_ids=children[1].copy()))
        return children

    sent, full_batches = [], oracle._full_batches
    monkeypatch.setattr(oracle, "_pivot", recording_pivot)
    monkeypatch.setattr(oracle, "_full_batches", lambda *args: sent.append(args[-1].tolist()) or full_batches(*args))
    enumerate_solutions(inst)
    assert [call["copies"][1].tolist() for call in calls] == [[0], [0, 1], [0, 2, 3], [0, 2, 3, 4, 6, 7]]
    assert sent == expected_sent
    # The last level's leaves are the front of the buffers that held level
    # n - 2's parents; nothing writes them after the last level.
    last = calls[-1]
    width = len(last["pivot_ids"]) + len(last["copies"][1])
    tab, leaf_ids, leaf_g = (buffer.base for buffer in calls[-2]["level"])
    level = (tab[: n * width].reshape(1, n, width), leaf_ids[:width], leaf_g[:width])
    leaves = dict(level=level, copies=level)
    for parent, child in zip(calls, calls[1:] + [leaves]):
        # Every level builds in the one scratch buffer, and its children land
        # in buffers that hold neither their parents nor scratch.
        assert parent["scratch"] is calls[0]["scratch"]
        assert not any(np.shares_memory(a, b) for a in child["level"] for b in (*parent["level"], parent["scratch"]))
        (t, ids, g), (child_t, child_ids, child_g) = parent["copies"], child["copies"]
        assert child_ids.tolist() == parent["pivot_ids"].tolist() + (ids | 1 << parent["i"]).tolist()
        assert np.array_equal(child_t[:, :, -len(ids) :], t[1:]) and np.array_equal(child_g[-len(ids) :], g)


@pytest.mark.parametrize("case", ["generated", "A00_zero"])
def test_tree_leaves_reach_check_solution_in_one_batch(case, monkeypatch):
    # At n = 13 the tree splits its nodes into several batches (see
    # _LEVEL_BYTES), so levels 11 and 12, the last, each run more than once.
    # Yet all the surviving leaves reach check_solution in one call.  With
    # A_00 = 0 the 4096 sets with bit 0 clear fall back, and each 512-set
    # chunk of the full path takes one more call.
    rng = np.random.default_rng(11)
    if case == "generated":
        spec = GeneratorSpec(n=13, seed=0, matrix_family="diag_dominant", f_family="contractive_affine", gamma=0.5)
        inst = generate_planted(spec)[0]
    else:
        a = diag_dominant(rng, 13)
        a[0, 0] = 0.0
        inst = planted_lcp(a, rng)[0]
    assert takes_tree(inst)
    levels, pivot = [], oracle._pivot
    monkeypatch.setattr(oracle, "_pivot", lambda t, ids, g, i, *rest: levels.append(i) or pivot(t, ids, g, i, *rest))
    calls, check = [], oracle.check_solution
    monkeypatch.setattr(oracle, "check_solution", lambda *args: calls.append(args[1]) or check(*args))
    sent = enumerate_with_fallback_ids(inst)[1]
    assert levels.count(11) > 1 and levels.count(12) > 1
    assert len(sent) == (0 if case == "generated" else 4096)
    assert len(calls) == 1 + len(sent) // oracle._CHUNK


@pytest.mark.parametrize("family", [f"{m}-{f}" for m in MATRIX_FAMILIES for f in F_FAMILIES] + ["A00_A11_zero"])
def test_one_node_batches_match_the_default_budget_and_the_full_path(family, monkeypatch):
    # A budget of one byte halves every batch down to one node before each
    # level.  The order of the nodes changes, but not their pivots, so the
    # same sets fall back; rebuilding r one leaf at a time may round
    # differently, so the results agree within DEDUP_RADIUS.
    if family == "A00_A11_zero":
        rng = np.random.default_rng(11)
        a = diag_dominant(rng, 13)
        a[0, 0] = a[1, 1] = 0.0
        inst = planted_lcp(a, rng)[0]
    else:
        matrix_family, f_family = family.split("-")
        spec = GeneratorSpec(n=13, seed=0, matrix_family=matrix_family, f_family=f_family, gamma=0.5)
        inst = generate_planted(spec)[0]
    assert takes_tree(inst)
    default, default_sent = enumerate_with_fallback_ids(inst)
    monkeypatch.setattr(oracle, "_LEVEL_BYTES", 1)
    single, single_sent = enumerate_with_fallback_ids(inst)
    assert np.array_equal(single_sent, default_sent)
    assert_results_agree(single, default)
    assert_results_agree(single, on_full_path(enumerate_solutions, inst))


@pytest.mark.parametrize("matrix_family", ["diag_dominant", "dense"])
def test_tree_memory_stays_within_two_mib_at_n16(matrix_family):
    # Every level's tableaux stay near _LEVEL_BYTES, and the halves left on
    # the stack are copies, not views that keep their whole batch alive.
    spec = GeneratorSpec(n=16, seed=1, matrix_family=matrix_family, f_family="contractive_affine", gamma=0.5)
    inst = generate_planted(spec)[0]
    assert takes_tree(inst)
    tracemalloc.start()
    try:
        enumerate_solutions(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_reduction_overflow_sends_huge_data_to_the_full_path_silently():
    # With s = |d| = 1e200 the rounding estimate of _ROUNDING_SHARE, which
    # holds s^2, overflows; that inf must send the instance down the full
    # path without a warning.
    inst = IcpInstance(A=np.eye(1), b=np.zeros(1), f=AffineMap(np.zeros((1, 1)), np.array([-1e200])))
    assert not takes_tree(inst)
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], [0.0])
