import numpy as np
import pytest

from icpkit.core import AffineMap, IcpInstance, ToleranceConfig
from icpkit.generator import GeneratorSpec
from icpkit.linalg import PIVOT_REL_TOL, DiagonalScaling, as_matrix, as_vector, solve_linear_batch
from icpkit.oracle import certify
from icpkit.residuals import scaled_residual
from icpkit.solver import SolverConfig
from support import diag_dominant, reference_solve_linear_batch


def solve_one(a, b):
    """Solve one system through the batch solver: (solution, singular flag)."""
    x, singular = solve_linear_batch(np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float)[None])
    return x[0], bool(singular[0])


def test_solve_linear_examples():
    x, singular = solve_one(np.eye(2), [4.0, -1.0])
    assert not singular and np.array_equal(x, [4.0, -1.0])
    x, singular = solve_one([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert not singular and np.array_equal(x, [1.0, 2.0])
    assert solve_one(np.zeros((2, 2)), [1.0, 0.0])[1]


def test_solve_linear_rejects_near_singular():
    # Second pivot after elimination is 1e-13, below 1e-12 of the matrix scale.
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert solve_one(a, [1.0, 1.0])[1]


@pytest.mark.parametrize("seed", range(10))
def test_solve_linear_residual_on_diag_dominant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 65))
    a = diag_dominant(rng, n)
    b = rng.uniform(-10.0, 10.0, n)
    x, singular = solve_one(a, b)
    assert not singular
    assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))


@pytest.mark.parametrize("seed", range(5))
def test_solve_linear_batch_matches_numpy(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 9))
    m = 64
    mats = rng.uniform(-1.0, 1.0, (m, n, n)) + 2.0 * np.eye(n)
    rhs = rng.uniform(-1.0, 1.0, (m, n))
    got, singular = solve_linear_batch(mats, rhs)
    assert not singular.any()
    expected = np.linalg.solve(mats, rhs[..., None])[..., 0]
    assert np.allclose(got, expected, atol=1e-12, rtol=1e-12)


def test_solve_linear_batch_accepts_empty_systems():
    x, singular = solve_linear_batch(np.zeros((3, 0, 0)), np.zeros((3, 0)))
    assert x.shape == (3, 0)
    assert singular.tolist() == [False, False, False]


def test_solve_linear_batch_flags_singular_rows_only():
    good = np.array([[2.0, 0.0], [0.0, 2.0]])
    bad = np.array([[1.0, 2.0], [2.0, 4.0]])
    mats = np.stack([good, bad, good])
    rhs = np.array([[2.0, 4.0], [1.0, 1.0], [6.0, 8.0]])
    x, singular = solve_linear_batch(mats, rhs)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(x[0], [1.0, 2.0])
    assert np.array_equal(x[2], [3.0, 4.0])


# Around the oracle's 512-system chunk, the batch size solve_linear_batch sees.
BATCH_SIZES = (1, 511, 512, 513, 1027)
BATCH_KINDS = ("uniform", "ties", "singular", "near_singular", "oracle", "broadcast", "wide")


def make_batch(kind: str, n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """m systems of size n of one kind, with uniform right-hand sides."""
    if kind == "uniform":
        mats = rng.uniform(-1.0, 1.0, (m, n, n))
    elif kind == "ties":
        # Entries in {-1, 0, 1}: tied pivot candidates, many exactly singular.
        mats = rng.integers(-1, 2, (m, n, n)).astype(float)
    elif kind == "singular":
        # Zero matrices alternate with matrices whose last row repeats the first.
        mats = rng.uniform(-1.0, 1.0, (m, n, n))
        mats[::2] = 0.0
        mats[1::2, -1] = mats[1::2, 0]
    elif kind == "near_singular":
        # The last row misses the first by 1e-14..1e-10, around PIVOT_REL_TOL;
        # system 0 has the 1e-13 second pivot and system 1 a last pivot of
        # exactly PIVOT_REL_TOL, which counts as singular.
        mats = rng.uniform(-1.0, 1.0, (m, n, n))
        gap = 10.0 ** rng.uniform(-14.0, -10.0, (m, 1))
        mats[:, -1] = mats[:, 0] + gap * rng.uniform(-1.0, 1.0, (m, n))
        if n >= 2:
            mats[:2] = np.eye(n)
            mats[0, :2, :2] = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
            mats[1, -1, -1] = PIVOT_REL_TOL
    elif kind == "oracle":
        # Rows of I - C or of A, as enumerate_solutions builds them; A has a
        # zero row, so some subsystems are exactly singular.
        a = rng.uniform(-1.0, 1.0, (n, n))
        a[rng.integers(n)] = 0.0
        ic = np.eye(n) - rng.uniform(-0.5, 0.5, (n, n))
        active = rng.integers(0, 2, (m, n)).astype(bool)
        mats = np.where(active[:, :, None], ic[None], a[None])
    elif kind == "broadcast":
        # One I - C read-only with stride 0 for every system, as the oracle
        # passes it to solve for P = (I - C)^-1.
        mats = np.broadcast_to(np.eye(n) - rng.uniform(-0.5, 0.5, (n, n)), (m, n, n))
    else:
        # Magnitudes from 1e-300 to 1e300: elimination overflows to inf and nan.
        mats = rng.choice([-1.0, 1.0], (m, n, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (m, n, n))
    return mats, rng.uniform(-1.0, 1.0, (m, n))


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Bit-for-bit equality, so signed zeros and nan payloads count too."""
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint8), y.view(np.uint8))


@pytest.mark.parametrize("kind", BATCH_KINDS)
@pytest.mark.parametrize("n", [*range(1, 17), 24, 40, 64])
def test_solve_linear_batch_is_bit_identical_to_reference(n, kind):
    # The oracle stops at n = 16, so the larger systems take two sizes.
    sizes = BATCH_SIZES if n <= 16 else (1, 513)
    rng = np.random.default_rng([n, BATCH_KINDS.index(kind)])
    mats, rhs = make_batch(kind, n, sizes[-1], rng)
    for m in sizes:
        with np.errstate(all="ignore"):
            got_x, got_singular = solve_linear_batch(mats[:m], rhs[:m])
            want_x, want_singular = reference_solve_linear_batch(mats[:m], rhs[:m])
        assert same_bits(got_x, want_x), (m, kind)
        assert same_bits(got_singular, want_singular), (m, kind)


@pytest.mark.parametrize("writeable", [True, False])
@pytest.mark.parametrize("m", [1, 513])
def test_solve_linear_batch_leaves_inputs_intact(m, writeable):
    rng = np.random.default_rng(m)
    mats, rhs = make_batch("uniform", 5, m, rng)
    before = mats.tobytes(), rhs.tobytes()
    mats.setflags(write=writeable)
    rhs.setflags(write=writeable)
    x, singular = solve_linear_batch(mats, rhs)
    assert (mats.tobytes(), rhs.tobytes()) == before
    want_x, want_singular = reference_solve_linear_batch(mats, rhs)
    assert same_bits(x, want_x) and same_bits(singular, want_singular)


def test_diagonal_scaling_requires_positive_entries():
    DiagonalScaling(np.array([0.5, 2.0]))
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, np.nan]))


SQUARE_MAP = AffineMap(np.eye(2), np.zeros(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_vector(np.ones((2, 2))), "vector must be one-dimensional, got shape (2, 2)"),
        (lambda: as_vector([]), "vector must have at least one entry"),
        (lambda: as_matrix(np.ones((2, 3))), "matrix must be square, got shape (2, 3)"),
        (lambda: as_matrix(np.ones((0, 0))), "matrix must have at least one row"),
        (lambda: solve_linear_batch(np.ones((1, 2, 3)), np.ones((1, 2))),
         "expected a (m, n, n) matrix batch, got shape (1, 2, 3)"),
        (lambda: solve_linear_batch(np.ones((1, 2, 2)), np.ones((1, 3))),
         "rhs shape (1, 3) does not match matrix batch (1, 2, 2)"),
        (lambda: SQUARE_MAP.evaluate(np.zeros(3)), "dimension mismatch: map dim 2, point (3,)"),
        (lambda: SQUARE_MAP.affine_parts(3), "dimension mismatch: map dim 2, requested 3"),
        (lambda: certify(IcpInstance(A=np.eye(2), b=np.zeros(2)), np.zeros((1, 2))),
         "dimension mismatch: instance dim 2, point shape (1, 2)"),
        (lambda: IcpInstance(A=np.eye(2), b=np.zeros(2), f=AffineMap(np.eye(3), np.zeros(3))),
         "dimension mismatch: f dim 3, instance dim 2"),
        (lambda: scaled_residual(IcpInstance(A=np.eye(1), b=np.zeros(1)), np.zeros(1), DiagonalScaling(np.ones(1)),
                                 DiagonalScaling(np.ones(2))),
         "dimension mismatch: instance dim 1, scaling dims 1 and 2"),
    ],
)
def test_shape_rejections_name_the_shape(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


CONFIG_BASE = {
    GeneratorSpec: {"n": 3, "seed": 1},
    SolverConfig: {"omega": DiagonalScaling([1.0])},
    ToleranceConfig: {},
}


@pytest.mark.parametrize(
    "config, field, value, message",
    [
        (GeneratorSpec, "n", True, "n must be an integer, got True"),
        (GeneratorSpec, "seed", False, "seed must be an integer, got False"),
        (GeneratorSpec, "gamma", "0.3", "gamma must be a real number, got '0.3'"),
        (GeneratorSpec, "active_fraction", True, "active_fraction must be a real number, got True"),
        (SolverConfig, "max_iters", True, "max_iters must be an integer, got True"),
        (SolverConfig, "resid_tol", None, "resid_tol must be a real number, got None"),
        (ToleranceConfig, "feas_tol", "1e-3", "feas_tol must be a real number, got '1e-3'"),
        (ToleranceConfig, "comp_tol", True, "comp_tol must be a real number, got True"),
    ],
)
def test_config_fields_reject_bools_and_strings(config, field, value, message):
    with pytest.raises(ValueError) as exc:
        config(**{**CONFIG_BASE[config], field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "config, field, value, message",
    [
        (GeneratorSpec, "gamma", 10**400, "gamma must lie in [0, 1), got an integer too large for a float"),
        (ToleranceConfig, "feas_tol", 10**400, "feas_tol must be finite and >= 0, got an integer too large for a float"),
        (SolverConfig, "resid_tol", 10**400, "resid_tol must be finite and > 0, got an integer too large for a float"),
        (SolverConfig, "max_iters", -(10**5000), "max_iters must be >= 1, got an integer too large for a float"),
    ],
    ids=["gamma", "feas_tol", "resid_tol", "max_iters"],  # the default ids would print the integers
)
def test_config_fields_name_an_integer_beyond_the_float_range(config, field, value, message):
    with pytest.raises(ValueError) as exc:
        config(**{**CONFIG_BASE[config], field: value})
    assert str(exc.value) == message


def test_config_reals_take_python_and_numpy_numbers():
    spec = GeneratorSpec(n=3, seed=1, gamma=np.float32(0.5), active_fraction=1)
    cfg = SolverConfig(omega=DiagonalScaling([1.0]), resid_tol=np.float32(0.25))
    tol = ToleranceConfig(feas_tol=np.int64(0), comp_tol=np.float64(1e-3))
    values = [spec.gamma, spec.active_fraction, cfg.resid_tol, tol.feas_tol, tol.comp_tol]
    assert values == [0.5, 1.0, 0.25, 0.0, 1e-3]
    assert all(type(value) is float for value in values)
