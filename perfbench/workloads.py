"""The benchmark's four workloads: inputs from a seed, one item, one check.

Every workload keeps its items homogeneous, so that the item latency has one
mode and its median and tail move only when the code does:

* ``verify_corpus`` -- the paper's end-to-end campaign through the CLI
  contract: ``icpkit.cli.main(["verify", path, "--solver", ...])`` on one
  planted n = 8 instance file per item.  One matrix family only: with f = 0,
  some ``dense`` instances hit the solver's iteration cap and take ~75x
  longer, which makes item times bimodal.
* ``oracle_n16`` -- ``enumerate_solutions`` at n = 16 (65,536 subsystems);
  the batched linear solve dominates.
* ``oracle_many`` -- ``enumerate_solutions`` on an n = 9 instance with
  exactly 2^9 isolated solutions; the oracle's own dedup loop dominates and
  the linear solve is under 1%.
* ``solve_n1000`` -- ``projection_iterate`` at n = 1000, where A + C (16 MB)
  exceeds the L2 cache and each iteration is bound by the matrix-vector
  products, unlike the interpreter-bound solver at n = 8.

``prepare`` returns the timed inputs and the warm-up inputs.  Warm-up items
go through the same code as timed ones and are checked, but are counted in
set-up time; the oracle workloads warm up on a smaller instance of the same
construction, so that set-up stays short next to the timed run.  ``reference``
names the kernel in reference.py that shares the workload's bottleneck.

Library functions are looked up on their modules at call time, so the traced
run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import icpkit.cli as cli
import icpkit.core as core
import icpkit.generator as generator
import icpkit.oracle as oracle
import icpkit.solver as solver

# verify_corpus: the family whose every subsystem matrix is strictly
# diagonally dominant with a positive diagonal (rows of A, or of I - C with
# ||C||_inf <= gamma < 1), so each instance has exactly one solution.
PLANTED_FAMILY = dict(matrix_family="diag_dominant", f_family="contractive_affine", gamma=0.5)
DELTAS = "identity,cubic,tanh,asinh"
# Points per instance: planted, the one oracle solution, three perturbations
# and the solver end point.  Rows per point: R, Rbar and one G per delta.
ROWS_PER_INSTANCE = 6 * (2 + len(DELTAS.split(",")))
SOLVE_TOL = 1e-8
GENERATOR_SITE = "icpkit.generator.generate_planted"
ORACLE_SITES = (
    "icpkit.oracle.enumerate_solutions",
    "icpkit.oracle.solve_linear_batch",
    "icpkit.oracle.check_solution",
    "icpkit.core.evaluate_H",
    "icpkit.core.evaluate_F",
)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _planted(n: int, seed: int):
    spec = generator.GeneratorSpec(n=n, seed=seed, **PLANTED_FAMILY)
    return generator.generate_planted(spec)


class VerifyCorpus:
    name = "verify_corpus"
    reference = "campaign"
    required_sites = (
        "icpkit.cli.main",
        "icpkit.cli.load_instance",
        "icpkit.cli.run_verification",
        "icpkit.cli.write_rows",
        "icpkit.cli.enumerate_solutions",
        "icpkit.cli.projection_iterate",
        "icpkit.cli.natural_residual",
        "icpkit.cli.scaled_residual",
        "icpkit.cli.delta_residual",
        "icpkit.cli.is_solution",
        "icpkit.cli.evaluate_H",
        "icpkit.cli.evaluate_F",
        "icpkit.residuals.evaluate_H",
        "icpkit.residuals.evaluate_F",
        "icpkit.solver.natural_residual",
        "icpkit.oracle.solve_linear_batch",
        "icpkit.oracle.check_solution",
        "icpkit.core.check_solution",
        GENERATOR_SITE,
    )

    def __init__(self, tiny: bool):
        self.files = 3 if tiny else 64

    def prepare(self, seed: int, workdir: Path) -> list[tuple[str, str]]:
        inputs = []
        for k, s in enumerate(_seeds(seed, 0, self.files)):
            inst, planted, _ = _planted(8, s)
            path = workdir / f"inst-{k:03d}.json"
            cli.save_instance(str(path), inst, planted=planted, seed=s)
            inputs.append((str(path), str(workdir / "rows.csv")))
        return inputs, inputs[:4]

    def run(self, inp):
        path, rows = inp
        return cli.main(["verify", path, "--solver", "--deltas", DELTAS, "--out-path", rows])

    def check(self, inp, code) -> str | None:
        if code != 0:
            return f"{inp[0]}: verify exited {code}"
        with open(inp[1], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != ROWS_PER_INSTANCE:
            return f"{inp[0]}: {rows} rows, expected {ROWS_PER_INSTANCE}"
        return None


class OracleN16:
    name = "oracle_n16"
    reference = "batch"
    required_sites = ORACLE_SITES + (GENERATOR_SITE,)

    def __init__(self, tiny: bool):
        self.n = 8 if tiny else 16

    def prepare(self, seed: int, workdir: Path):
        seed = _seeds(seed, 1, 1)[0]
        return [_planted(self.n, seed)[:2]], [_planted(self.n - 4, seed)[:2]]

    def run(self, inp):
        return oracle.enumerate_solutions(inp[0])

    def check(self, inp, result) -> str | None:
        planted = inp[1]
        if not any(np.max(np.abs(sol - planted)) <= oracle.DEDUP_RADIUS for sol in result.solutions):
            return f"planted point not among the {len(result.solutions)} oracle solutions"
        return None


class OracleMany:
    """A = -diag(u), b = v, f = 0 with u, v > 0: each r_i is 0 or v_i / u_i."""

    name = "oracle_many"
    reference = "interpreter"
    required_sites = ORACLE_SITES

    def __init__(self, tiny: bool):
        self.n = 4 if tiny else 9

    @staticmethod
    def _instance(n: int, rng):
        u = rng.uniform(0.5, 2.0, n)
        v = rng.uniform(0.5, 2.0, n)
        return core.IcpInstance(A=-np.diag(u), b=v), v / u

    def prepare(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        return [self._instance(self.n, rng)], [self._instance(self.n - 2, rng)]

    def run(self, inp):
        return oracle.enumerate_solutions(inp[0])

    def check(self, inp, result) -> str | None:
        want = 1 << inp[0].n
        if len(result.solutions) != want:
            return f"{len(result.solutions)} solutions, expected {want}"
        sols = np.array(result.solutions)
        nonzero = sols > 0.5 * inp[1].min()
        expected = np.where(nonzero, inp[1], 0.0)
        if np.max(np.abs(sols - expected)) > oracle.DEDUP_RADIUS:
            return "a solution is off the closed form r_i in {0, v_i / u_i}"
        if len(np.unique(nonzero, axis=0)) != want:
            return "solutions are not distinct"
        return None


class SolveN1000:
    name = "solve_n1000"
    reference = "matvec"
    required_sites = (
        "icpkit.solver.projection_iterate",
        "icpkit.solver.natural_residual",
        "icpkit.residuals.evaluate_H",
        "icpkit.residuals.evaluate_F",
        GENERATOR_SITE,
    )

    def __init__(self, tiny: bool):
        self.n = 50 if tiny else 1000

    def prepare(self, seed: int, workdir: Path):
        inputs = []
        for s in _seeds(seed, 3, 4):
            inst, _, _ = _planted(self.n, s)
            cfg = solver.SolverConfig(omega=solver.default_scaling(inst.A), resid_tol=SOLVE_TOL)
            inputs.append((inst, cfg))
        return inputs, inputs

    def run(self, inp):
        inst, cfg = inp
        return solver.projection_iterate(inst, np.zeros(inst.n), cfg)

    def check(self, inp, report) -> str | None:
        if report.status is not solver.SolveStatus.CONVERGED:
            return f"solver ended {report.status.value} after {report.iterations} iterations"
        tol = core.ToleranceConfig(feas_tol=SOLVE_TOL, comp_tol=SOLVE_TOL)
        if not core.is_solution(inp[0], report.final_point, tol):
            return "solver end point fails is_solution"
        return None


WORKLOADS = {w.name: w for w in (VerifyCorpus, OracleN16, OracleMany, SolveN1000)}
