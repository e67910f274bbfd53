import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icpkit.core import AffineMap, IcpInstance, ZeroMap, evaluate_F, evaluate_H
from icpkit.generator import GeneratorSpec, generate_planted
from icpkit.linalg import DiagonalScaling
from icpkit.residuals import (
    DELTA_CATALOG,
    DeltaFunction,
    delta_residual,
    natural_residual,
    scaled_residual,
)
from support import (
    natural_residual_projection_form,
    pair_instance,
    random_instance,
    scaled_residual_projection_form,
)

ONE_D_ICP = IcpInstance(A=[[2.0]], b=[-4.0], f=AffineMap([[0.5]], [0.0]))
ONE_D_SOLUTION = np.array([2.0])  # unique solution, by complementary-case enumeration
# The catalog's deltas are all odd; the paper's claim holds for any strictly
# increasing delta with delta(0) = 0, so the sign and zero-set tests also take
# caller-built ones that are not.
DELTAS = {
    delta.name: delta
    for delta in (
        *DELTA_CATALOG.values(),
        DeltaFunction("expm1", np.expm1),
        DeltaFunction("kinked", lambda t: np.where(t < 0, 0.25 * t, 4.0 * t)),
        DeltaFunction("cbrt", np.cbrt),
    )
}


def test_natural_residual_examples():
    # At the 1-D solution: H = 1, F = 0, so the residual vanishes.
    assert np.array_equal(natural_residual(ONE_D_ICP, ONE_D_SOLUTION), [0.0])

    origin = IcpInstance(A=np.eye(1), b=np.zeros(1), f=ZeroMap())
    assert np.array_equal(natural_residual(origin, np.zeros(1)), [0.0])

    # Point realizing H = 3, F = -1: the residual picks the F side.
    inst, point = pair_instance(np.array([3.0]), np.array([-1.0]))
    assert np.array_equal(natural_residual(inst, point), [-1.0])


def test_scaled_residual_examples():
    two = DiagonalScaling(np.array([2.0]))
    three = DiagonalScaling(np.array([3.0]))
    assert np.array_equal(scaled_residual(ONE_D_ICP, ONE_D_SOLUTION, two, three), [0.0])

    inst, point = pair_instance(np.array([1.0]), np.array([1.0]))
    five = DiagonalScaling(np.array([5.0]))
    one = DiagonalScaling(np.array([1.0]))
    assert np.array_equal(scaled_residual(inst, point, five, one), [1.0])


@given(st.integers(0, 2**32 - 1))
def test_identity_scaling_reduces_to_natural(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 8)))
    r = rng.uniform(-3.0, 3.0, inst.n)
    ident = DiagonalScaling(np.ones(inst.n))
    assert np.array_equal(scaled_residual(inst, r, ident, ident), natural_residual(inst, r))


@given(st.integers(0, 2**32 - 1))
def test_min_identity_is_exact(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 8)))
    r = rng.uniform(-3.0, 3.0, inst.n)
    h = evaluate_H(inst, r)
    f = evaluate_F(inst, r)
    assert np.array_equal(natural_residual(inst, r), np.minimum(h, f))


@given(st.integers(0, 2**32 - 1))
def test_scaled_min_identity_is_exact(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 8)))
    r = rng.uniform(-3.0, 3.0, inst.n)
    omega1 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    omega2 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    h = evaluate_H(inst, r)
    f = evaluate_F(inst, r)
    expected = np.minimum(omega1.diag * h, omega2.diag * f)
    assert np.array_equal(scaled_residual(inst, r, omega1, omega2), expected)


@given(st.integers(0, 2**32 - 1))
def test_projection_form_mirrors_min_form(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 8)))
    r = rng.uniform(-3.0, 3.0, inst.n)
    h = evaluate_H(inst, r)
    f = evaluate_F(inst, r)
    min_form = natural_residual(inst, r)
    proj_form = natural_residual_projection_form(inst, r)
    # Where H <= F the projection subtracts nothing, so the forms agree exactly;
    # elsewhere they agree to rounding of the single subtraction.
    assert np.array_equal(proj_form[h <= f], min_form[h <= f])
    scale = 1.0 + np.abs(h) + np.abs(f)
    assert np.all(np.abs(proj_form - min_form) <= 1e-15 * scale)
    assert np.array_equal(proj_form == 0.0, min_form == 0.0)

    omega1 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    omega2 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
    scaled_min = scaled_residual(inst, r, omega1, omega2)
    scaled_proj = scaled_residual_projection_form(inst, r, omega1, omega2)
    sscale = 1.0 + np.abs(omega1.diag * h) + np.abs(omega2.diag * f)
    assert np.all(np.abs(scaled_proj - scaled_min) <= 1e-15 * sscale)


@given(st.integers(0, 2**32 - 1))
def test_scaled_zero_set_matches_natural_zero_set(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 8)))
    r = rng.uniform(-3.0, 3.0, inst.n)
    # Ill-conditioned scalings included: entries span [1e-3, 1e3].
    omega1 = DiagonalScaling(10.0 ** rng.uniform(-3, 3, inst.n))
    omega2 = DiagonalScaling(10.0 ** rng.uniform(-3, 3, inst.n))
    natural = natural_residual(inst, r)
    scaled = scaled_residual(inst, r, omega1, omega2)
    assert np.array_equal(natural == 0.0, scaled == 0.0)

    # |Rbar_i| always sits between the smaller and larger scaling entry times |R_i|.
    lo = np.minimum(omega1.diag, omega2.diag)
    hi = np.maximum(omega1.diag, omega2.diag)
    assert np.all(np.abs(scaled) >= lo * np.abs(natural) * (1.0 - 1e-12))
    assert np.all(np.abs(scaled) <= hi * np.abs(natural) * (1.0 + 1e-12))


def test_delta_residual_identity_examples():
    ident = DELTA_CATALOG["identity"]
    inst, point = pair_instance(np.array([1.0]), np.array([0.0]))
    assert np.array_equal(delta_residual(inst, point, ident), [0.0])

    inst, point = pair_instance(np.array([1.0]), np.array([1.0]))
    assert np.array_equal(delta_residual(inst, point, ident), [-2.0])

    inst, point = pair_instance(np.array([-1.0]), np.array([1.0]))
    assert np.array_equal(delta_residual(inst, point, ident), [2.0])


def test_delta_catalog_contract():
    assert list(DELTA_CATALOG) == ["identity", "cubic", "tanh", "asinh"]
    for delta in DELTA_CATALOG.values():
        assert float(delta.forward(np.float64(0.0))) == 0.0
        grid = np.linspace(-10, 10, 1000)
        assert np.all(np.diff(delta.forward(grid)) > 0)


def test_delta_function_rejects_bad_functions():
    with pytest.raises(ValueError):
        DeltaFunction("square", lambda t: t * t)  # not increasing
    with pytest.raises(ValueError):
        DeltaFunction("shifted", lambda t: t + 1.0)  # nonzero at 0
    with pytest.raises(ValueError):
        DeltaFunction("decreasing", lambda t: -t)
    with pytest.raises(ValueError):
        DeltaFunction("flat", lambda t: t * 0.0)
    with pytest.raises(ValueError, match="must map the test grid to finite reals"):
        DeltaFunction("overflowing", lambda t: np.where(t > 5.0, np.inf, t))
    with pytest.raises(ValueError, match="must map the test grid to finite reals"):
        DeltaFunction("scalar", lambda t: np.sum(t) * 0.0)


@pytest.mark.parametrize("name", list(DELTAS))
@given(h=st.floats(-20, 20, allow_nan=False), f=st.floats(-20, 20, allow_nan=False))
def test_delta_sign_trichotomy(name, h, f):
    delta = DELTAS[name]
    inst, point = pair_instance(np.array([h]), np.array([f]))
    actual_h = evaluate_H(inst, point)[0]
    actual_f = evaluate_F(inst, point)[0]
    g = delta_residual(inst, point, delta)[0]
    if actual_h < -1e-9 or actual_f < -1e-9:
        assert g > 0.0
    elif actual_h > 1e-9 and actual_f > 1e-9:
        assert g < 0.0


@pytest.mark.parametrize("name", list(DELTAS))
def test_delta_zero_exactly_on_complementary_pattern(name):
    delta = DELTAS[name]
    values = np.array([0.0, 1e-9, 0.5, 3.0, 17.5])
    # H_i = 0 with F_i >= 0, then F_i = 0 with H_i >= 0: both give G_i == 0.
    inst, point = pair_instance(np.zeros(values.size), values)
    assert np.all(delta_residual(inst, point, delta) == 0.0)
    inst, point = pair_instance(values, np.zeros(values.size))
    assert np.all(delta_residual(inst, point, delta) == 0.0)

    # Off the pattern G_i is nonzero, even for barely-violating components.
    offsets = np.array([1e-7, 0.3, -1e-7, 2.0])
    targets = np.array([0.4, 1e-7, 0.4, 3.0])
    inst, point = pair_instance(offsets, targets)
    assert np.all(delta_residual(inst, point, delta) != 0.0)


@pytest.mark.parametrize("name", list(DELTAS))
@pytest.mark.parametrize("seed", range(4))
def test_cross_formulation_zero_agreement(name, seed):
    delta = DELTAS[name]
    spec = GeneratorSpec(n=7, seed=seed, matrix_family="dense", f_family="zero", active_fraction=0.5)
    inst, planted, _ = generate_planted(spec)
    for point in (planted, planted + 1e-6, planted + 1.0):
        natural_zero = np.max(np.abs(natural_residual(inst, point))) == 0.0
        delta_zero = np.max(np.abs(delta_residual(inst, point, delta))) == 0.0
        assert natural_zero == delta_zero


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        natural_residual(ONE_D_ICP, np.zeros(2))
    with pytest.raises(ValueError):
        scaled_residual(
            ONE_D_ICP,
            ONE_D_SOLUTION,
            DiagonalScaling(np.ones(2)),
            DiagonalScaling(np.ones(2)),
        )
