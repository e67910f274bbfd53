"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  The brute-force oracle is the independent ground truth throughout.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from icpkit.cli import PERTURB_EPSILONS, main
from icpkit.core import DEFAULT_TOL, evaluate_F, evaluate_H, is_solution
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.linalg import DiagonalScaling
from icpkit.oracle import ORACLE_TOL, enumerate_solutions
from icpkit.residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual
from icpkit.solver import SolveStatus, SolverConfig, default_scaling, projection_iterate
from support import pair_instance, random_instance

CORPUS_SEEDS = range(6)
CORPUS_SIZES = range(1, 11)
ACTIVE_FRACTIONS = (0.0, 0.5, 1.0)


def _report(name: str, failures: list, detail: str):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {name}: {detail}" + (f" ({len(failures)} failures)" if failures else ""))
    assert not failures, f"{name}: first failures: {failures[:5]}"


def _perturbed_points(planted: np.ndarray):
    n = planted.size
    for k, eps in enumerate(PERTURB_EPSILONS):
        direction = np.zeros(n)
        direction[k % n] = 1.0
        yield planted + eps * direction


@pytest.fixture(scope="module")
def corpus():
    units = []
    for n in CORPUS_SIZES:
        for matrix_family in MATRIX_FAMILIES:
            for f_family in F_FAMILIES:
                for active_fraction in ACTIVE_FRACTIONS:
                    for seed in CORPUS_SEEDS:
                        spec = GeneratorSpec(
                            n=n,
                            seed=seed,
                            matrix_family=matrix_family,
                            f_family=f_family,
                            gamma=0.5,
                            active_fraction=active_fraction,
                        )
                        inst, planted, active = generate_planted(spec)
                        units.append((spec, inst, planted, active))
    assert len(units) >= 1000
    return units


@pytest.fixture(scope="module")
def oracle_cache(corpus):
    return [enumerate_solutions(inst) for _, inst, _, _ in corpus]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, corpus):
    where = tmp_path_factory.mktemp("corpus")
    paths = []
    for k, (spec, _, _, _) in enumerate(corpus):
        path = where / f"inst{k:04d}.json"
        rc = main(
            [
                "gen",
                "--n", str(spec.n),
                "--seed", str(spec.seed),
                "--matrix-family", spec.matrix_family,
                "--f-family", spec.f_family,
                "--gamma", str(spec.gamma),
                "--active-fraction", str(spec.active_fraction),
                "--out", str(path),
            ]
        )
        assert rc == 0
        paths.append(path)
    return paths


def test_criterion_1_natural_residual_equivalence(corpus, oracle_cache):
    failures = []
    points = 0
    for (spec, inst, planted, _), oracle in zip(corpus, oracle_cache):
        for label, point in [("planted", planted)] + [
            (f"oracle{j}", s) for j, s in enumerate(oracle.solutions)
        ]:
            points += 1
            if np.max(np.abs(natural_residual(inst, point))) > 1e-10:
                failures.append(f"{spec}: |R| > 1e-10 at {label}")
        for point in _perturbed_points(planted):
            points += 1
            if not is_solution(inst, point, DEFAULT_TOL):
                if np.max(np.abs(natural_residual(inst, point))) <= DEFAULT_TOL.comp_tol:
                    failures.append(f"{spec}: non-solution with |R| <= comp_tol")
    _report(
        "criterion 1 (residual zero exactly at solutions)",
        failures,
        f"{len(corpus)} instances, {points} points",
    )


def test_criterion_2_min_identities():
    rng = np.random.default_rng(20240)
    pairs = 0
    failures = []
    for _ in range(100):
        inst = random_instance(rng, int(rng.integers(1, 9)))
        for _ in range(100):
            pairs += 1
            r = rng.uniform(-3.0, 3.0, inst.n)
            h = evaluate_H(inst, r)
            f = evaluate_F(inst, r)
            if not np.array_equal(natural_residual(inst, r), np.minimum(h, f)):
                failures.append(f"min identity broken at pair {pairs}")
            omega1 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
            omega2 = DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n))
            expected = np.minimum(omega1.diag * h, omega2.diag * f)
            if not np.array_equal(scaled_residual(inst, r, omega1, omega2), expected):
                failures.append(f"scaled min identity broken at pair {pairs}")
    assert pairs >= 10_000
    _report("criterion 2 (exact min identities)", failures, f"{pairs} (instance, point) pairs")


def test_criterion_3_scaled_zero_set_equality(corpus, oracle_cache):
    failures = []
    checked = 0
    for index, ((spec, inst, planted, _), oracle) in enumerate(zip(corpus, oracle_cache)):
        rng = np.random.default_rng([909, index])
        scalings = [
            (DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n)), DiagonalScaling(rng.uniform(1e-3, 1e3, inst.n)))
            for _ in range(3)
        ]
        points = [planted, *oracle.solutions, *list(_perturbed_points(planted))]
        for point in points:
            natural_zero = np.abs(natural_residual(inst, point)) <= 1e-12
            for omega1, omega2 in scalings:
                checked += 1
                scaled = scaled_residual(inst, point, omega1, omega2)
                scaled_zero = np.abs(scaled) <= 1e-12 * np.maximum(omega1.diag, omega2.diag)
                if not np.array_equal(natural_zero, scaled_zero):
                    failures.append(f"{spec}: componentwise zero sets differ")
    _report(
        "criterion 3 (scaled residual zero-set equality)",
        failures,
        f"{checked} point/scaling pairs",
    )


def test_criterion_4_delta_sign_structure(corpus, oracle_cache):
    grid = np.linspace(-15.0, 15.0, 101)
    mesh_h, mesh_f = np.meshgrid(grid, grid)
    h_flat, f_flat = mesh_h.ravel(), mesh_f.ravel()
    failures = []
    for name, delta in DELTA_CATALOG.items():
        sampled = negatives = positives = 0
        for lo in range(0, h_flat.size, 500):
            inst, point = pair_instance(h_flat[lo : lo + 500], f_flat[lo : lo + 500])
            h = evaluate_H(inst, point)
            f = evaluate_F(inst, point)
            g = delta_residual(inst, point, delta)
            sampled += g.size
            region_a = (h < -1e-9) | (f < -1e-9)
            region_b = (h > 1e-9) & (f > 1e-9)
            negatives += int(region_a.sum())
            positives += int(region_b.sum())
            if not np.all(g[region_a] > 0.0):
                failures.append(f"{name}: G <= 0 in a negative-coordinate region")
            if not np.all(g[region_b] < 0.0):
                failures.append(f"{name}: G >= 0 in the both-positive region")
        assert sampled >= 10_000 and negatives > 1000 and positives > 1000
        for (_, inst, _, _), oracle in zip(corpus, oracle_cache):
            for sol in oracle.solutions:
                if np.max(np.abs(delta_residual(inst, sol, delta))) > 1e-7:
                    failures.append(f"{name}: |G| > 1e-7 at an oracle solution")
    _report(
        "criterion 4 (delta residual sign trichotomy)",
        failures,
        f"4 deltas x {101 * 101} sampled components + oracle solutions",
    )


def test_criterion_5_oracle_cross_check(corpus, oracle_cache):
    failures = []
    found = 0
    for (spec, inst, planted, _), oracle in zip(corpus, oracle_cache):
        if any(np.max(np.abs(planted - s)) <= 1e-8 for s in oracle.solutions):
            found += 1
        else:
            failures.append(f"{spec}: planted solution not enumerated")
        for sol in oracle.solutions:
            if not is_solution(inst, sol, ORACLE_TOL):
                failures.append(f"{spec}: oracle output fails the solution test")
    _report(
        "criterion 5 (oracle completeness and soundness)",
        failures,
        f"planted found on {found}/{len(corpus)} instances",
    )


def test_criterion_6_solver_family():
    # The run stops at 1e-10 so the converged point sits well inside the
    # oracle's 1e-8 certification radius; the 1e-8 residual requirement is
    # checked on the iterate that first crosses it (same trajectory).
    failures = []
    runs = 0
    for n in (2, 4, 8, 16):
        for seed in range(100):
            runs += 1
            spec = GeneratorSpec(
                n=n,
                seed=seed,
                matrix_family="diag_dominant",
                f_family="contractive_affine",
                gamma=0.5,
                active_fraction=0.5,
            )
            inst, _, _ = generate_planted(spec)
            cfg = SolverConfig(omega=default_scaling(inst.A), max_iters=10_000, resid_tol=1e-10)
            report = projection_iterate(inst, np.zeros(n), cfg)
            if report.status is not SolveStatus.CONVERGED:
                failures.append(f"{spec}: {report.status}")
                continue
            crossing = next(k for k, res in enumerate(report.residual_history) if res <= 1e-8)
            if crossing > 10_000:
                failures.append(f"{spec}: needed {crossing} iterations to reach 1e-8")
            if n <= 12:
                oracle = enumerate_solutions(inst)
                if not any(np.max(np.abs(report.final_point - s)) <= 1e-8 for s in oracle.solutions):
                    failures.append(f"{spec}: converged point not oracle-certified")
    assert runs == 400
    _report("criterion 6 (solver convergence family)", failures, "400 seeded runs")


def test_criterion_7_cli_round_trip(corpus_dir, tmp_path):
    failures = []
    rc = main(["verify", *map(str, corpus_dir), "--out", "csv", "--out-path", str(tmp_path / "rows.csv")])
    if rc != 0:
        failures.append(f"verify on the clean corpus exited {rc}")

    flipped = 0
    for k, path in enumerate(corpus_dir):
        doc = json.loads(path.read_text())
        doc["planted"] = [x + 0.5 for x in doc["planted"]]
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(doc))
        # The failing-row report on stderr is the expected outcome here.
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main(
                ["verify", str(corrupted), "--out", "csv", "--out-path", str(tmp_path / "ignored.csv")]
            )
        if rc == 1:
            flipped += 1
        else:
            failures.append(f"corrupting instance {k} gave exit {rc}, expected 1")
    _report(
        "criterion 7 (CLI round-trip and corruption detection)",
        failures,
        f"clean corpus exit 0; {flipped}/{len(corpus_dir)} corrupted files flagged",
    )
