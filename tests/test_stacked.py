"""Stacked (p, n) evaluation matches the single-point calls bit for bit.

The oracle and the verify campaign evaluate H, F, the residual maps and the
solution test over a stack of points, and rely on every row of the result
being the single-point result.  That rests on numpy running the same
matrix-vector kernel for each row of ``np.matmul(M, r[..., None])`` as for one
point, so the comparisons here are on raw bytes and must stay exact.
"""

import numpy as np
import pytest

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
from icpkit.linalg import DiagonalScaling
from icpkit.residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual

FIELDS = ("ok", "h", "f")
FIELD_TYPES = (bool, np.ndarray, np.ndarray)
# The default tolerances, and loose ones under which many random rows pass.
TOLERANCES = (ToleranceConfig(), ToleranceConfig(feas_tol=3.0, comp_tol=6.0))


def _instance(rng: np.random.Generator, n: int, affine: bool) -> IcpInstance:
    a = rng.uniform(-2.0, 2.0, (n, n))
    b = rng.uniform(-2.0, 2.0, n)
    f = AffineMap(rng.uniform(-0.5, 0.5, (n, n)), rng.uniform(-1.0, 1.0, n)) if affine else ZeroMap()
    return IcpInstance(A=a, b=b, f=f)


def _stack(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random rows, every third one integer-valued (ties, exact and signed zeros),
    with +inf, -inf and nan planted in a few rows."""
    r = rng.uniform(-3.0, 3.0, (p, n))
    r[::3] = rng.integers(-2, 3, (len(r[::3]), n))
    r[1::5] *= -0.0 if n % 2 else 1.0
    for k, value in enumerate((np.inf, -np.inf, np.nan, np.inf, np.nan)):
        if k < p:
            r[(7 * k + 1) % p, (3 * k) % n] = value
    return r


def _maps(rng: np.random.Generator, n: int):
    """name -> map(inst, r) for H, F and the three residual maps."""
    omega1 = DiagonalScaling(rng.uniform(1e-3, 1e3, n))
    omega2 = DiagonalScaling(rng.uniform(1e-3, 1e3, n))
    maps = {
        "H": evaluate_H,
        "F": evaluate_F,
        "natural": natural_residual,
        "scaled": lambda inst, r: scaled_residual(inst, r, omega1, omega2),
    }
    for name, delta in DELTA_CATALOG.items():
        maps[f"delta:{name}"] = lambda inst, r, delta=delta: delta_residual(inst, r, delta)
    return maps


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("p", [1, 2, 513])
@pytest.mark.parametrize("n", range(1, 17))
def test_stacked_rows_are_bit_identical_to_single_points(n, p, affine):
    rng = np.random.default_rng([n, p, int(affine)])
    inst = _instance(rng, n, affine)
    stack = _stack(rng, n, p)
    rows = [np.ascontiguousarray(row) for row in stack]
    with np.errstate(all="ignore"):
        for name, fn in _maps(rng, n).items():
            stacked = fn(inst, stack)
            single = np.array([fn(inst, row) for row in rows])
            assert stacked.dtype == single.dtype and stacked.shape == (p, n), name
            assert stacked.tobytes() == single.tobytes(), name

        for tol in TOLERANCES:
            stacked = check_solution(inst, stack, tol)
            singles = [check_solution(inst, row, tol) for row in rows]
            for field, kind in zip(FIELDS, FIELD_TYPES):
                column = getattr(stacked, field)
                values = [getattr(check, field) for check in singles]
                assert all(type(v) is kind for v in values), field
                assert column.shape == (p, *np.shape(values[0])), field
                assert column.tobytes() == np.array(values, dtype=column.dtype).tobytes(), field
            flags = is_solution(inst, stack, tol)
            single_flags = [is_solution(inst, row, tol) for row in rows]
            assert flags.dtype == bool and all(type(v) is bool for v in single_flags)
            assert flags.tolist() == single_flags


def test_stacks_see_the_same_kernel_whatever_their_layout():
    rng = np.random.default_rng(5)
    inst = _instance(rng, 7, affine=True)
    wide = rng.uniform(-3.0, 3.0, (40, 14))
    for stack in (wide[:, ::2], np.asfortranarray(wide[:, :7]), wide[::-3, 3:10]):
        rows = [np.ascontiguousarray(row) for row in stack]
        for fn in (evaluate_H, evaluate_F):
            assert fn(inst, stack).tobytes() == np.array([fn(inst, row) for row in rows]).tobytes()


@pytest.mark.parametrize("affine", [False, True])
def test_wrong_shapes_raise_and_empty_stacks_work(affine):
    rng = np.random.default_rng(11)
    n = 4
    inst = _instance(rng, n, affine)
    maps = _maps(rng, n)
    for shape in [(n + 1,), (3, n + 1), (2, 3, n), (), (0,)]:
        r = np.zeros(shape)
        for name, fn in maps.items():
            with pytest.raises(ValueError):
                fn(inst, r)
        with pytest.raises(ValueError):
            check_solution(inst, r)

    empty = np.zeros((0, n))
    for name, fn in maps.items():
        assert fn(inst, empty).shape == (0, n), name
    check = check_solution(inst, empty)
    assert [getattr(check, field).shape for field in FIELDS] == [(0,), (0, n), (0, n)]
    assert is_solution(inst, empty).shape == (0,)

