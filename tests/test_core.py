import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import icpkit
from icpkit.core import (
    AffineMap,
    IcpInstance,
    ToleranceConfig,
    ZeroMap,
    check_solution,
    evaluate_F,
    evaluate_H,
    is_solution,
)
from icpkit.oracle import enumerate_solutions
from support import random_instance


def test_evaluate_H_examples():
    lcp = IcpInstance(A=np.eye(2), b=np.zeros(2), f=ZeroMap())
    assert np.array_equal(evaluate_H(lcp, np.array([3.0, -1.0])), [3.0, -1.0])

    halved = IcpInstance(A=np.eye(1), b=np.zeros(1), f=AffineMap([[0.5]], [0.0]))
    assert np.array_equal(evaluate_H(halved, np.array([2.0])), [1.0])

    shifted = IcpInstance(A=np.eye(2), b=np.zeros(2), f=AffineMap(np.zeros((2, 2)), [1.0, 1.0]))
    assert np.array_equal(evaluate_H(shifted, np.zeros(2)), [-1.0, -1.0])


def test_evaluate_F_examples():
    ident = IcpInstance(A=np.eye(1), b=np.zeros(1))
    assert np.array_equal(evaluate_F(ident, np.array([5.0])), [5.0])

    # 1-D instance with f(r) = 0.5 r: forcing F = 0 gives r = 2 with H = 1 >= 0,
    # forcing H = 0 gives r = 0 with F = -4 < 0, so r* = 2 is the unique solution.
    inst = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
    assert np.array_equal(evaluate_F(inst, np.array([2.0])), [0.0])
    assert [s.tolist() for s in enumerate_solutions(inst).solutions] == [[2.0]]

    const = IcpInstance(A=np.zeros((1, 1)), b=np.array([7.0]))
    assert np.array_equal(evaluate_F(const, np.array([123.0])), [7.0])


def test_is_solution_examples():
    origin = IcpInstance(A=np.eye(2), b=np.zeros(2), f=ZeroMap())
    assert is_solution(origin, np.zeros(2))

    # 1-D LCP with b = -1: both complementary cases give r = 1 (H=1, F=0) as
    # the only solution; r = 0.5 leaves F = -0.5 infeasible.
    lcp = IcpInstance(A=[[1.0]], b=[-1.0], f=ZeroMap())
    assert is_solution(lcp, np.array([1.0]))
    assert not is_solution(lcp, np.array([0.5]))
    report = check_solution(lcp, np.array([0.5]))
    assert report.h.tolist() == [0.5] and report.f.tolist() == [-0.5]
    assert not report.ok


def test_check_solution_reports_worst_violation():
    inst = IcpInstance(A=np.eye(3), b=np.array([0.0, -2.0, 1.0]), f=AffineMap(np.zeros((3, 3)), [0.0, 0.0, -1.0]))
    report = check_solution(inst, np.array([1.0, 0.0, 3.0]))
    # F_1 = -2 is infeasible and H_2 F_2 = 16 breaks complementarity.
    assert report.h.tolist() == [1.0, 0.0, 4.0]
    assert report.f.tolist() == [1.0, -2.0, 4.0]
    assert not report.ok
    stacked = check_solution(inst, np.array([[1.0, 0.0, 3.0], [0.0, 2.0, -1.0]]))
    assert stacked.ok.tolist() == [False, True]
    assert stacked.h.tolist() == [[1.0, 0.0, 4.0], [0.0, 2.0, 0.0]]
    assert stacked.f.tolist() == [[1.0, -2.0, 4.0], [0.0, 0.0, 0.0]]


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_zero_map_reduces_to_lcp(seed, n):
    rng = np.random.default_rng(seed)
    inst = IcpInstance(A=rng.uniform(-2, 2, (n, n)), b=rng.uniform(-2, 2, n), f=ZeroMap())
    r = rng.uniform(-5.0, 5.0, n)
    assert np.array_equal(evaluate_H(inst, r), r)


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0, 1e-3),
    st.floats(0, 1e-3),
    st.floats(0, 1.0),
    st.floats(0, 1.0),
)
def test_is_solution_monotone_in_tolerances(seed, feas, comp, feas_extra, comp_extra):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 6)))
    r = rng.uniform(-1.0, 1.0, inst.n)
    tight = ToleranceConfig(feas_tol=feas, comp_tol=comp)
    loose = ToleranceConfig(feas_tol=feas + feas_extra, comp_tol=comp + comp_extra)
    if is_solution(inst, r, tight):
        assert is_solution(inst, r, loose)


@pytest.mark.parametrize("seed", range(20))
def test_exact_tolerance_agrees_with_oracle_on_rational_fixtures(seed):
    # Diagonal A with power-of-two entries and integer b: every subsystem
    # solves exactly in binary floating point, so the oracle's solutions must
    # pass is_solution at zero tolerance and any other grid point must fail.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    diag = 2.0 ** rng.integers(0, 3, n)
    b = rng.integers(-4, 5, n).astype(float)
    inst = IcpInstance(A=np.diag(diag), b=b, f=ZeroMap())
    exact = ToleranceConfig(feas_tol=0.0, comp_tol=0.0)

    result = enumerate_solutions(inst)
    expected = np.where(b < 0, -b / diag, 0.0)
    assert len(result.solutions) == 1
    assert np.array_equal(result.solutions[0], expected)
    assert is_solution(inst, result.solutions[0], exact)

    off = expected + 0.5
    assert not is_solution(inst, off, exact)
    assert not any(np.array_equal(off, s) for s in result.solutions)


def test_every_exported_name_resolves():
    assert [name for name in icpkit.__all__ if not hasattr(icpkit, name)] == []
    namespace = {}
    exec("from icpkit import *", namespace)
    assert set(icpkit.__all__) <= namespace.keys()


def test_dimension_checks():
    with pytest.raises(ValueError):
        IcpInstance(A=np.eye(2), b=np.zeros(3))
    with pytest.raises(ValueError):
        IcpInstance(A=np.eye(2), b=np.zeros(2), f=AffineMap(np.eye(3), np.zeros(3)))
    with pytest.raises(ValueError):
        AffineMap(np.eye(2), np.zeros(3))
    inst = IcpInstance(A=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        evaluate_H(inst, np.zeros(3))
    with pytest.raises(ValueError):
        evaluate_F(inst, np.zeros(3))


def test_instance_rejects_non_finite_data():
    with pytest.raises(ValueError):
        IcpInstance(A=np.array([[np.inf]]), b=np.zeros(1))
    with pytest.raises(ValueError):
        IcpInstance(A=np.eye(1), b=np.array([np.nan]))


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(feas_tol=-1e-12)
    cfg = ToleranceConfig()
    assert cfg.feas_tol == cfg.comp_tol == 1e-10
