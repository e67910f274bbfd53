import numpy as np
import pytest

from icpkit.cli import SCALING_RANGE
from icpkit.core import AffineMap, IcpInstance, ImplicitMap, ToleranceConfig, ZeroMap, is_solution
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.linalg import DiagonalScaling
from icpkit.oracle import certify
from icpkit.residuals import natural_residual
from icpkit.solver import (
    SolveStatus,
    SolverConfig,
    default_scaling,
    projection_iterate,
)
from support import diag_dominant, reference_projection_iterate, reference_update


def test_one_step_lcp_example():
    # r1 = (0 - (0 - 1))_+ = 1, where H = 1 and F = 0: done after one update.
    inst = IcpInstance(A=[[1.0]], b=[-1.0], f=ZeroMap())
    cfg = SolverConfig(omega=DiagonalScaling(np.ones(1)))
    report = projection_iterate(inst, np.zeros(1), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.residual_history == [1.0, 0.0]
    assert np.array_equal(report.final_point, [1.0])


def test_one_dimensional_icp_converges_to_oracle_solution():
    inst = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
    cfg = SolverConfig(omega=DiagonalScaling(np.array([0.25])), resid_tol=1e-10)
    report = projection_iterate(inst, np.zeros(1), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert np.max(np.abs(natural_residual(inst, report.final_point))) <= 1e-10
    assert abs(report.final_point[0] - 2.0) < 1e-9
    assert certify(inst, report.final_point)


def test_start_at_solution_converges_immediately():
    inst = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
    cfg = SolverConfig(omega=DiagonalScaling(np.array([0.25])))
    report = projection_iterate(inst, np.array([2.0]), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert len(report.residual_history) == 1


def test_divergence_guard_reports_status():
    # A = [-2], b = [1]: the update is r -> (3r - 1)_+, which blows up from
    # r = 10 toward infinity and must be reported, not raised.
    inst = IcpInstance(A=[[-2.0]], b=[1.0], f=ZeroMap())
    cfg = SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=1000)
    report = projection_iterate(inst, np.array([10.0]), cfg)
    assert report.status is SolveStatus.DIVERGED
    assert len(report.residual_history) == report.iterations + 1


def test_non_finite_iterate_reports_diverged():
    inst = IcpInstance(A=[[-1e300]], b=[0.0], f=ZeroMap())
    cfg = SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=10)
    report = projection_iterate(inst, np.array([1e10]), cfg)
    assert report.status is SolveStatus.DIVERGED
    assert report.residual_history[-1] == float("inf")
    assert len(report.residual_history) == report.iterations + 1


def test_max_iters_reached():
    # A step of 2.5 is far too aggressive for this instance: oscillates without converging.
    inst = IcpInstance(A=[[1.0]], b=[-1.0], f=ZeroMap())
    cfg = SolverConfig(omega=DiagonalScaling(np.array([2.5])), max_iters=25, resid_tol=1e-14)
    report = projection_iterate(inst, np.array([0.2]), cfg)
    assert report.status is SolveStatus.MAX_ITERS_REACHED
    assert report.iterations == 25
    assert len(report.residual_history) == report.iterations + 1


def test_converged_point_passes_solution_test():
    for seed in range(8):
        spec = GeneratorSpec(
            n=8,
            seed=seed,
            matrix_family="diag_dominant",
            f_family="contractive_affine",
            gamma=0.5,
            active_fraction=0.5,
        )
        inst, _, _ = generate_planted(spec)
        cfg = SolverConfig(omega=default_scaling(inst.A), resid_tol=1e-8)
        report = projection_iterate(inst, np.zeros(inst.n), cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.residual_history[-1] <= cfg.resid_tol
        tol = ToleranceConfig(feas_tol=10 * cfg.resid_tol, comp_tol=10 * cfg.resid_tol)
        assert is_solution(inst, report.final_point, tol)


STEP_DIAGONALS = {
    "jacobi": lambda inst, rng: default_scaling(inst.A).diag,
    "ones": lambda inst, rng: np.ones(inst.n),
    "drawn": lambda inst, rng: rng.uniform(*SCALING_RANGE, inst.n),
}


@pytest.mark.parametrize("diagonal", STEP_DIAGONALS)
def test_planted_solutions_are_update_fixed_points(diagonal):
    # min(H, D F) = 0 exactly on the solution set for every positive diagonal
    # D, so a solution is a fixed point of the step whichever D it takes.
    rng = np.random.default_rng(28)
    for seed in range(8):
        spec = GeneratorSpec(
            n=6,
            seed=100 + seed,
            matrix_family="diag_dominant",
            f_family="contractive_affine",
            gamma=0.4,
            active_fraction=0.5,
        )
        inst, planted, _ = generate_planted(spec)
        cfg = SolverConfig(omega=DiagonalScaling(STEP_DIAGONALS[diagonal](inst, rng)))
        report = projection_iterate(inst, planted, cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 0
        # One manual update must leave the solution fixed to rounding.
        updated = reference_update(inst, planted, cfg.omega.diag)
        assert np.max(np.abs(updated - planted)) <= 1e-12


def assert_same_report(got, want):
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert np.array(got.residual_history).tobytes() == np.array(want.residual_history).tobytes()
    assert got.final_point.tobytes() == want.final_point.tobytes()


def planted_instance(matrix_family, f_family, n, seed):
    spec = GeneratorSpec(n=n, seed=seed, matrix_family=matrix_family, f_family=f_family, gamma=0.5)
    return generate_planted(spec)[0]


PLANTED_SIZES = (1, 2, 5, 8, 20, 100)


@pytest.mark.parametrize("n", PLANTED_SIZES)
@pytest.mark.parametrize("f_family", F_FAMILIES)
@pytest.mark.parametrize("matrix_family", MATRIX_FAMILIES)
def test_solver_matches_the_two_evaluation_reference(matrix_family, f_family, n):
    for seed in range(10):
        inst = planted_instance(matrix_family, f_family, n, seed)
        cfg = SolverConfig(omega=default_scaling(inst.A), max_iters=2000)
        got = projection_iterate(inst, np.zeros(n), cfg)
        assert_same_report(got, reference_projection_iterate(inst, np.zeros(n), cfg))


def test_reference_cases_reach_every_status():
    # The sweep above is only a check of every path if its cases end in all
    # three statuses.
    statuses = set()
    for matrix_family in MATRIX_FAMILIES:
        for f_family in F_FAMILIES:
            for n in PLANTED_SIZES:
                for seed in range(10):
                    inst = planted_instance(matrix_family, f_family, n, seed)
                    cfg = SolverConfig(omega=default_scaling(inst.A), max_iters=2000)
                    statuses.add(reference_projection_iterate(inst, np.zeros(n), cfg).status)
    assert statuses == set(SolveStatus)


def test_solver_matches_the_reference_at_n1000():
    inst = planted_instance("diag_dominant", "contractive_affine", 1000, 3)
    cfg = SolverConfig(omega=default_scaling(inst.A))
    got = projection_iterate(inst, np.zeros(inst.n), cfg)
    assert got.status is SolveStatus.CONVERGED
    assert_same_report(got, reference_projection_iterate(inst, np.zeros(inst.n), cfg))


AFFINE_1D = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
LCP_1D = IcpInstance(A=[[1.0]], b=[-1.0], f=ZeroMap())
HAND_BUILT = {
    "zero_iterations": (AFFINE_1D, [2.0], SolverConfig(omega=DiagonalScaling(np.array([0.25])))),
    "one_step": (LCP_1D, [0.0], SolverConfig(omega=DiagonalScaling(np.ones(1)))),
    "cap_reached": (
        LCP_1D,
        [0.2],
        SolverConfig(omega=DiagonalScaling(np.array([2.5])), max_iters=25, resid_tol=1e-14),
    ),
    "divergence_limit": (
        IcpInstance(A=[[-2.0]], b=[1.0], f=ZeroMap()),
        [10.0],
        SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=1000),
    ),
    "non_finite_iterate": (
        IcpInstance(A=[[-1e300]], b=[0.0], f=ZeroMap()),
        [1e10],
        SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=10),
    ),
    "affine_1d": (AFFINE_1D, [0.0], SolverConfig(omega=DiagonalScaling(np.array([0.25])), resid_tol=1e-10)),
}


@pytest.mark.parametrize("case", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_hand_built_cases_match_the_reference(case):
    inst, r0, cfg = case
    assert_same_report(projection_iterate(inst, r0, cfg), reference_projection_iterate(inst, r0, cfg))


class CountingTanhMap(ImplicitMap):
    """f(r) = 0.25 tanh(r) + d, counting its evaluations."""

    def __init__(self, d):
        self.d = d
        self.calls = 0

    def evaluate(self, r):
        self.calls += 1
        return 0.25 * np.tanh(r) + self.d


def test_solver_on_a_non_affine_map_evaluates_it_once_per_iterate():
    # f's Jacobian is diagonal with entries in (0, 0.25], so with a diagonally
    # dominant A the Jacobi-scaled step is a contraction.
    rng = np.random.default_rng(11)
    n = 12
    f = CountingTanhMap(rng.uniform(-1.0, 1.0, n))
    inst = IcpInstance(A=diag_dominant(rng, n), b=rng.uniform(-2.0, 2.0, n), f=f)
    cfg = SolverConfig(omega=default_scaling(inst.A))
    report = projection_iterate(inst, np.zeros(n), cfg)
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations > 1
    # One evaluation per visited iterate, and one more for the start point's
    # natural_residual.
    assert f.calls == report.iterations + 2
    tol = ToleranceConfig(feas_tol=10 * cfg.resid_tol, comp_tol=10 * cfg.resid_tol)
    assert is_solution(inst, report.final_point, tol)
    assert_same_report(report, reference_projection_iterate(inst, np.zeros(n), cfg))


def test_default_scaling_follows_diagonal():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(default_scaling(a).diag, [0.5, 0.25])
    assert np.array_equal(default_scaling(np.diag([1e-308, 4.0])).diag, [1e308, 0.25])
    # 1 / 1e-320 overflows to inf, 1 / 0 is inf, 1 / -0 is -inf, 1 / inf is
    # 0 and 1 / nan is nan: none is a positive scaling, so the identity
    # stands in, without a warning.
    for first in (-1.0, 1e-320, 0.0, -0.0, np.inf, np.nan):
        assert np.array_equal(default_scaling(np.diag([first, 4.0])).diag, [1.0, 1.0])


def test_solver_config_validation():
    omega = DiagonalScaling(np.ones(2))
    with pytest.raises(ValueError):
        SolverConfig(omega=omega, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(omega=omega, resid_tol=0.0)


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3"])
def test_solver_config_rejects_an_iteration_cap_that_is_not_an_integer(value):
    # int() would truncate 2.5 to 2 and quietly stop one iteration early.
    with pytest.raises(ValueError, match="^max_iters must be an integer, got "):
        SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=value)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3)])
def test_solver_config_takes_python_and_numpy_integers(value):
    cfg = SolverConfig(omega=DiagonalScaling(np.ones(1)), max_iters=value)
    assert cfg.max_iters == 3 and type(cfg.max_iters) is int


def test_dimension_checks():
    inst = IcpInstance(A=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        projection_iterate(inst, np.zeros(3), SolverConfig(omega=DiagonalScaling(np.ones(2))))
    with pytest.raises(ValueError):
        projection_iterate(inst, np.zeros(2), SolverConfig(omega=DiagonalScaling(np.ones(3))))
