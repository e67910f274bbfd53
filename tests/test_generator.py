from dataclasses import replace

import numpy as np
import pytest

from icpkit.core import AffineMap, ToleranceConfig, ZeroMap, evaluate_F, evaluate_H, is_solution
from icpkit.generator import GeneratorSpec, generate_planted
from icpkit.residuals import natural_residual


def planted_matrix(family: str, n: int, seed: int) -> np.ndarray:
    """The family's matrix: generate_planted draws it first from the seeded stream."""
    return generate_planted(GeneratorSpec(n, seed, matrix_family=family))[0].A


def test_diag_dominant_family_is_strictly_dominant():
    for seed in range(10):
        a = planted_matrix("diag_dominant", 8, seed)
        off = np.sum(np.abs(a), axis=1) - np.abs(np.diagonal(a))
        assert np.all(np.abs(np.diagonal(a)) > off)
        assert np.all(np.diagonal(a) > 0)


def test_symmetric_pd_family_shape():
    for seed in range(10):
        a = planted_matrix("symmetric_pd", 6, seed)
        assert np.array_equal(a, a.T)
        assert np.all(np.diagonal(a) > 0)
        assert np.allclose(np.diagonal(a), 1.0)
        assert np.all(np.linalg.eigvalsh(a) > 0)


def test_dense_family_range():
    a = planted_matrix("dense", 16, 3)
    assert np.all(np.abs(a) <= 1.0)


def test_matrix_determinism():
    for family in ("diag_dominant", "symmetric_pd", "dense"):
        assert np.array_equal(planted_matrix(family, 7, 42), planted_matrix(family, 7, 42))
    assert not np.array_equal(planted_matrix("dense", 7, 1), planted_matrix("dense", 7, 2))


def test_generate_planted_determinism():
    spec = GeneratorSpec(
        n=6, seed=9, matrix_family="dense", f_family="contractive_affine", gamma=0.7, active_fraction=0.5
    )
    a1, r1, s1 = generate_planted(spec)
    a2, r2, s2 = generate_planted(spec)
    assert np.array_equal(a1.A, a2.A)
    assert np.array_equal(a1.b, a2.b)
    assert np.array_equal(a1.f.C, a2.f.C)
    assert np.array_equal(a1.f.d, a2.f.d)
    assert np.array_equal(r1, r2)
    assert s1 == s2


@pytest.mark.parametrize("matrix_family", ("diag_dominant", "symmetric_pd", "dense"))
@pytest.mark.parametrize("f_family", ("zero", "contractive_affine"))
@pytest.mark.parametrize("active_fraction", (0.0, 0.5, 1.0))
def test_plant_correctness(matrix_family, f_family, active_fraction):
    for seed in range(4):
        spec = GeneratorSpec(
            n=7,
            seed=seed,
            matrix_family=matrix_family,
            f_family=f_family,
            gamma=0.5,
            active_fraction=active_fraction,
        )
        inst, planted, active = generate_planted(spec)
        h = evaluate_H(inst, planted)
        f = evaluate_F(inst, planted)
        assert len(active) == round(active_fraction * 7)

        mask = np.zeros(7, dtype=bool)
        mask[list(active)] = True
        # Active components: H pinned to zero, F pushed above the 0.1 margin.
        assert np.all(np.abs(h[mask]) <= 1e-13)
        assert np.all(f[mask] >= 0.1 - 1e-13)
        # Inactive components: the roles swap.
        assert np.all(np.abs(f[~mask]) <= 1e-13)
        assert np.all(h[~mask] >= 0.1 - 1e-13)

        assert np.max(np.abs(natural_residual(inst, planted))) <= 1e-13
        assert is_solution(inst, planted, ToleranceConfig(feas_tol=1e-13, comp_tol=1e-13))


def test_zero_family_plants_are_exact():
    spec = GeneratorSpec(n=9, seed=4, matrix_family="diag_dominant", f_family="zero", active_fraction=0.5)
    inst, planted, active = generate_planted(spec)
    assert isinstance(inst.f, ZeroMap)
    exact = ToleranceConfig(feas_tol=0.0, comp_tol=0.0)
    assert is_solution(inst, planted, exact)
    assert np.all(natural_residual(inst, planted) == 0.0)
    assert all(planted[i] == 0.0 for i in active)



def test_contractive_affine_with_gamma_zero_draws_as_any_gamma():
    # The raw C entries are drawn whatever gamma is, so every later draw is the same.
    spec = GeneratorSpec(n=5, seed=3, f_family="contractive_affine", gamma=0.0)
    inst, planted, active = generate_planted(spec)
    ref_inst, ref_planted, ref_active = generate_planted(replace(spec, gamma=0.5))
    assert np.all(inst.f.C == 0.0) and not np.any(np.signbit(inst.f.C))
    assert is_solution(inst, planted)
    assert np.array_equal(inst.A, ref_inst.A) and np.array_equal(inst.b, ref_inst.b)
    assert np.array_equal(planted, ref_planted) and active == ref_active

def test_active_fraction_zero_solves_linear_system():
    # Empty active set: H(r*) > 0 everywhere and F(r*) = 0, i.e. A r* = -b.
    spec = GeneratorSpec(n=5, seed=2, matrix_family="dense", f_family="contractive_affine",
                         gamma=0.3, active_fraction=0.0)
    inst, planted, active = generate_planted(spec)
    assert active == ()
    assert np.all(evaluate_F(inst, planted) == 0.0)
    assert np.all(evaluate_H(inst, planted) > 0.0)


def test_active_fraction_one_pins_h_to_zero():
    spec = GeneratorSpec(n=5, seed=2, matrix_family="dense", f_family="contractive_affine",
                         gamma=0.3, active_fraction=1.0)
    inst, planted, active = generate_planted(spec)
    assert active == (0, 1, 2, 3, 4)
    # r* = f(r*): the plant is a fixed point of the implicit map.
    assert np.max(np.abs(evaluate_H(inst, planted))) <= 1e-13
    assert np.max(np.abs(planted - inst.f.evaluate(planted))) <= 1e-13


def test_active_set_size_rounds_half_to_even():
    # k = round(active_fraction * n), and Python rounds a tie to the even integer.
    sizes = [len(generate_planted(GeneratorSpec(n=n, seed=0, active_fraction=0.5))[2]) for n in range(1, 8)]
    assert sizes == [0, 1, 2, 2, 2, 3, 4]


def test_contractive_norm_bound():
    for seed in range(6):
        spec = GeneratorSpec(n=8, seed=seed, matrix_family="dense", f_family="contractive_affine",
                             gamma=0.5, active_fraction=0.5)
        inst, _, _ = generate_planted(spec)
        assert isinstance(inst.f, AffineMap)
        assert np.max(np.sum(np.abs(inst.f.C), axis=1)) <= 0.5 + 1e-15


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=0, seed=1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, seed=1, matrix_family="hilbert")
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, seed=1, f_family="quadratic")
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, seed=1, gamma=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=4, seed=1, active_fraction=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(n=0, seed=1, matrix_family="dense")


@pytest.mark.parametrize(
    "field, value", [("n", 2.9), ("n", 3.0), ("n", np.float64(3.0)), ("n", "3"), ("seed", 1.5), ("seed", np.float32(1.0))]
)
def test_spec_rejects_a_count_that_is_not_an_integer(field, value):
    # int() would truncate 2.9 to 2 and quietly build another instance.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        GeneratorSpec(**{"n": 3, "seed": 1, field: value})


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_spec_takes_python_and_numpy_integers(value):
    spec = GeneratorSpec(n=value, seed=value)
    assert (spec.n, spec.seed) == (3, 3) and type(spec.n) is int and type(spec.seed) is int
