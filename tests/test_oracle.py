import pickle
import sys

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
from support import diag_dominant


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
    points = draw(st.permutations(line + jitter))
    store = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    return n, points, store


def greedy_merge(solutions, points, tight, passed):
    """Reference dedup after the given unflagged solutions: each point merges
    into the first solution within DEDUP_RADIUS and flags it, or else becomes
    a solution if it passed."""
    flags = [False] * len(solutions)
    for x, is_tight, ok in zip(points, tight, passed):
        k = first_match(solutions, x)
        if k is not None:
            flags[k] = True
        elif ok:
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
@example((1, [np.zeros(1), np.full(1, R)], [True, True]), [False] * 130)
@example((1, [np.zeros(1), np.full(1, 2 * R), np.full(1, R)], [True, True, True]), [False] * 130)
@example((2, LINE, [True] * len(LINE)), [False] * 130)
@example((2, HUGE, [True] * len(HUGE)), [False] * 130)
def test_merge_matches_greedy_first_match(case, tight):
    # A point can lie within DEDUP_RADIUS of several solutions and must merge
    # into the lowest-indexed one; points that fail the re-test still merge.
    # The fillers lie far from each other and from the drawn points, so the
    # merge takes each of them as an unflagged solution.  One tight flag is
    # drawn for each of the at most 130 points.
    n, points, store = case
    tight = tight[: len(store)]
    rng = np.random.default_rng(n)
    fillers = rng.uniform(1.0, 2.0, (FILLERS, n)) * 1e14
    # The HUGE example overflows on purpose.
    with np.errstate(over="ignore", invalid="ignore"):
        solutions, flags = _merge(
            np.vstack([fillers, np.reshape(points, (-1, n))]), [False] * FILLERS + tight, [True] * FILLERS + store
        )
        expected, expected_flags = greedy_merge(fillers, points, tight, store)
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


@pytest.mark.parametrize("chunk", [512, 7])
def test_many_isolated_solutions_match_closed_form(chunk, monkeypatch):
    # A = -diag(u), b = v, f = 0 with u, v > 0: index set s forces r_i = 0 when
    # bit i is set (H_i = 0) and r_i = v_i / u_i otherwise (F_i = 0), so every
    # one of the 2^n index sets gives its own isolated, non-degenerate solution.
    # Every |Sbar| = k group must be visited; with _CHUNK = 7 a chunk holds
    # 7 (16 / k)^2 sets, so the groups with 4 <= k <= 8 span several chunks.
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    n = 10
    rng = np.random.default_rng(7)
    u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    inst = IcpInstance(A=-np.diag(u), b=v, f=ZeroMap())
    assert reduces(inst)
    result = enumerate_solutions(inst)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    expected = np.where(bits == 1, 0.0, v / u)
    assert len(result.solutions) == 1 << n
    assert np.array_equal(np.array(result.solutions), expected)
    assert result.degenerate_flags == [False] * (1 << n)
    assert result.singular_skipped == 0


@pytest.mark.parametrize("chunk", [7, 11])
def test_reduced_results_do_not_depend_on_the_chunk_size(chunk, monkeypatch):
    # A = -diag(u) and a small dense C make every index set a solution whose
    # rebuilt r = P (z + d) rounds in its last bits.  With _CHUNK = 11 the
    # k = 8 group of 45 sets splits into chunks of 44 and 1, so one point is
    # rebuilt alone; it must keep the bits it gets among the others.
    n = 10
    rng = np.random.default_rng(3)
    u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    inst = IcpInstance(A=-np.diag(u), b=v, f=AffineMap(rng.uniform(-0.01, 0.01, (n, n)), rng.uniform(-0.1, 0.1, n)))
    assert reduces(inst)
    expected = pickle.dumps(enumerate_solutions(inst))
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    assert pickle.dumps(enumerate_solutions(inst)) == expected


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
    assert reduces(inst)
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], np.concatenate([[d[0] + z0], d[1:]]))
    assert result.degenerate_flags == [True]
    assert result.singular_skipped == 1 << (n - 2)


def on_full_path(fn, *args):
    """fn(*args) with the enumeration forced onto the full n x n path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_reduction", lambda *_: None)
        return fn(*args)


def reduces(inst):
    c, d = inst.f.affine_parts(inst.n)
    return oracle._reduction(inst, np.eye(inst.n) - c, d) is not None


def certify_answer(inst, r):
    try:
        return certify(inst, r)
    except ValueError:
        return "undecided"


def assert_paths_agree(inst):
    reduced, full = enumerate_solutions(inst), on_full_path(enumerate_solutions, inst)
    if not reduces(inst):
        # Both sides ran the full path.
        assert pickle.dumps(reduced) == pickle.dumps(full)
        return
    assert len(reduced.solutions) == len(full.solutions)
    for x, y in zip(reduced.solutions, full.solutions):
        assert np.max(np.abs(x - y)) <= DEDUP_RADIUS
    assert reduced.degenerate_flags == full.degenerate_flags
    assert reduced.singular_skipped == full.singular_skipped
    assert reduced.subsets_tested == full.subsets_tested == 1 << inst.n
    probes = [np.zeros(inst.n)] + full.solutions[:1] + [s + 1e-3 for s in full.solutions[:1]]
    for r in probes:
        assert certify_answer(inst, r) == on_full_path(certify_answer, inst, r)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("f_family", F_FAMILIES)
@pytest.mark.parametrize("matrix_family", MATRIX_FAMILIES)
def test_reduced_path_matches_full_path_on_generated_families(matrix_family, f_family, n, seed):
    spec = GeneratorSpec(n=n, seed=seed, matrix_family=matrix_family, f_family=f_family, gamma=0.5)
    inst = generate_planted(spec)[0]
    assert reduces(inst)
    assert_paths_agree(inst)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("c_entry", [0.0, 0.25, -0.25])
@pytest.mark.parametrize("shape", ["plain", "zero_row", "duplicate_rows", "b_zero"])
def test_reduced_path_matches_full_path_on_degenerate_instances(shape, c_entry, n, seed):
    # Entries in {-1, 0, 1} make many subsystems exactly singular and many
    # solutions tight; C has entries in {0, c_entry} times {-1, 1}.  Large
    # |q| can send an instance down the full path (b_zero, -0.25, 11, 0 has
    # max |q| = 21), where the result must then match byte for byte.
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
    assert_paths_agree(IcpInstance(A=a, b=b, f=f))


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
    assert not reduces(inst)
    result = enumerate_solutions(inst)
    assert result.solutions
    assert pickle.dumps(result) == pickle.dumps(on_full_path(enumerate_solutions, inst))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-6, 5e-8])
def test_near_singular_block_in_i_minus_c_keeps_the_solution(delta, seed):
    # I - C holds the block [[1, 1], [1, 1 + delta]], condition number about
    # 4 / delta.  The one solution x has H(x) = 0 and F(x) = x + 1 >= 1, so an
    # error of 1e-9 in a rebuilt H_i already breaks |H_i F_i| <= comp_tol.
    # The reduced path must keep x at the edge of its range or fall back.
    n = 10
    ic = np.eye(n)
    ic[0, 1] = ic[1, 0] = 1.0
    ic[1, 1] += delta
    x = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    inst = IcpInstance(A=np.eye(n), b=np.ones(n), f=AffineMap(np.eye(n) - ic, ic @ x))
    result = enumerate_solutions(inst)
    assert len(result.solutions) == 1
    assert np.max(np.abs(result.solutions[0] - x)) <= DEDUP_RADIUS
    assert reduces(inst) == (delta >= 1e-3)
    assert_paths_agree(inst)
