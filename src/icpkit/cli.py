"""Command-line harness: subcommands, the verification campaign and exit codes.

``main(argv)`` may be called repeatedly in one process; it builds its parser on
the first call.  Subcommands and exit codes:

* ``gen``     write a seeded planted instance          (0 ok)
* ``solve``   run the projection solver on a file      (0 converged, 1 not)
* ``oracle``  enumerate all solutions of a file        (0 found, 3 empty)
* ``verify``  residual-equivalence campaign over files (0 pass, 1 failures)

Every subcommand exits 2 with one ``error:`` line on bad input (a malformed
file or spec, a flag value out of range, and for ``oracle`` n beyond its cap),
an I/O error such as a full disk, or lack of memory; ``main`` alone makes that
exit, for any ValueError, so a defect raising one exits 2 without a traceback.
Text argparse cannot convert or match (``--n abc``) exits 2 with argparse's
usage.
Instance files and result rows are read and written by ``icpkit.formats``.

``verify`` writes one ResultRow per (instance, formulation, point) as CSV or
JSON; the Rbar row reports the worst scaled-residual norm over the drawn
scaling pairs.  A residual that is not finite fails, and so does a planted
point that the oracle refutes (see oracle.match).  An instance with
n > 16 is beyond the oracle: its rows are written, but it fails with an
"oracle unavailable" line (exit 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from .core import IcpInstance, ToleranceConfig, evaluate_F, evaluate_H, is_solution
from .formats import LoadedInstance, ResultRow, json_float, load_instance, save_instance, write_rows
from .generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, RNG_STREAM_ID, generate_planted
from .linalg import DiagonalScaling, as_count, as_real
from .oracle import enumerate_solutions, match
from .residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual
from .solver import SolveStatus, SolverConfig, default_scaling, projection_iterate

PERTURB_EPSILONS = (1e-6, 1e-2, 0.5)
SCALING_RANGE = (1e-3, 1e3)
SCALING_SEED_BASE = 0xC0FFEE
# Componentwise zero classification: R_i counts as zero below this, Rbar_i
# below this times the relevant scaling entry.
COMPONENT_ZERO_TOL = 1e-12
DELTA_SOLUTION_TOL = 1e-7


# ---------------------------------------------------------------------------
# verification campaign


def _draw_scalings(n: int, count: int, index: int) -> list[tuple[DiagonalScaling, DiagonalScaling]]:
    rng = np.random.default_rng([SCALING_SEED_BASE, index])
    lo, hi = SCALING_RANGE
    return [
        (DiagonalScaling(rng.uniform(lo, hi, n)), DiagonalScaling(rng.uniform(lo, hi, n)))
        for _ in range(count)
    ]


def _collect_points(
    unit: LoadedInstance, with_solver: bool
) -> tuple[list[tuple[str, np.ndarray, int | None]], list[str]]:
    """Points to verify: planted, oracle solutions, perturbations, solver end point."""
    inst = unit.instance
    points: list[tuple[str, np.ndarray, int | None]] = []
    failures: list[str] = []
    if unit.planted is not None:
        points.append(("planted", unit.planted, None))
    try:
        result = enumerate_solutions(inst)
    except ValueError as exc:
        failures.append(f"{unit.instance_id}: oracle unavailable ({exc})")
    else:
        points += [("oracle", sol, None) for sol in result.solutions]
        # A plant that the oracle refutes fails; an undecided miss does not.
        if unit.planted is not None and match(result, unit.planted) is False:
            failures.append(f"{unit.instance_id}/planted: not among the {len(result.solutions)} oracle solutions")
    if points:
        # The planted point, else the first oracle solution, is perturbed.
        base = points[0][1]
        for k, eps in enumerate(PERTURB_EPSILONS):
            points.append(("perturbed", base + eps * (np.arange(inst.n) == k % inst.n), None))
    if with_solver:
        report = projection_iterate(inst, np.zeros(inst.n), SolverConfig(omega=default_scaling(inst.A)))
        if np.all(np.isfinite(report.final_point)):
            points.append(("solver", report.final_point, report.iterations))
    return points, failures


# Extreme data overflows; the residuals that are not finite fail below.
@np.errstate(all="ignore")
def run_verification(
    units: list[LoadedInstance],
    tol: float,
    delta_names: list[str],
    scaling_count: int,
    with_solver: bool = False,
) -> tuple[list[ResultRow], list[str]]:
    """Evaluate every formulation on every unit; rows come back in input order."""
    rows: list[ResultRow] = []
    failures: list[str] = []
    tolerances = ToleranceConfig(feas_tol=tol, comp_tol=tol)
    for index, unit in enumerate(units):
        inst = unit.instance
        points, unit_failures = _collect_points(unit, with_solver)
        failures += unit_failures
        if not points:
            continue
        sources = np.array([source for source, _, _ in points])
        at_solution = (sources == "planted") | (sources == "oracle")
        # Each formulation is evaluated once over the stack of all points, row by
        # row, and its time is split evenly among the points' rows.
        stack = np.array([point for _, point, _ in points])
        ms_per_point = 1e3 / len(points)

        # Each formulation is (name, norm per point, wall_ms), in row order.
        start = time.perf_counter()
        natural = natural_residual(inst, stack)
        norm = np.max(np.abs(natural), axis=1)
        forms = [("R", norm, (time.perf_counter() - start) * ms_per_point)]
        solution = is_solution(inst, stack, tolerances)
        # One evaluation roundoff of the delta formulation bounds how large |R|
        # can be where G is exactly zero; like max(), fmax skips a nan scale.
        h_scale = np.max(np.abs(evaluate_H(inst, stack)), axis=1)
        f_scale = np.max(np.abs(evaluate_F(inst, stack)), axis=1)
        above_roundoff = norm > 4.0 * np.finfo(float).eps * np.fmax(np.fmax(1.0, h_scale), f_scale)
        natural_zero = norm == 0.0
        natural_zero_comp = np.abs(natural) <= COMPONENT_ZERO_TOL
        # Each check is (fails per point, message, value per point); a point
        # reports its failures in the order of this list.
        checks = [
            (at_solution & ~solution, "expected a solution, is_solution is false", norm),
            (at_solution & (norm > tol), f"|R| = {{:.3e}} exceeds {tol:.1e}", norm),
            ((sources == "perturbed") & ~solution & (norm <= tol),
             f"non-solution with |R| = {{:.3e}} <= {tol:.1e}", norm),
        ]

        start = time.perf_counter()
        scaled_worst = np.zeros(len(points))
        for omega1, omega2 in _draw_scalings(inst.n, scaling_count, index):
            scaled = np.abs(scaled_residual(inst, stack, omega1, omega2))
            scaled_norm = np.max(scaled, axis=1)
            scaled_worst = np.maximum(scaled_worst, scaled_norm)
            entry_max = np.maximum(omega1.diag, omega2.diag)
            entry_min = np.minimum(omega1.diag, omega2.diag)
            # Componentwise zero-set equality, rendered as the two one-sided
            # implications that hold for every positive scaling pair: a zero
            # R_i forces |Rbar_i| under the larger entry's threshold, and an
            # |Rbar_i| under the smaller entry's threshold forces R_i zero.
            # In between the scaling ratio alone decides, so nothing is claimed.
            forward_bad = natural_zero_comp & (scaled > COMPONENT_ZERO_TOL * entry_max * (1.0 + 1e-12))
            reverse_bad = ~natural_zero_comp & (scaled <= COMPONENT_ZERO_TOL * entry_min * (1.0 - 1e-12))
            checks += [
                (at_solution & (scaled_norm > tol * float(entry_max.max())),
                 "scaled residual {:.3e} too large", scaled_norm),
                ((scaled_norm == 0.0) != natural_zero, "exact-zero disagreement between R and Rbar", norm),
                (np.any(forward_bad | reverse_bad, axis=1), "componentwise zero sets of R and Rbar differ", norm),
            ]
        forms.append(("Rbar", scaled_worst, (time.perf_counter() - start) * ms_per_point))

        for name in delta_names:
            start = time.perf_counter()
            g_norm = np.max(np.abs(delta_residual(inst, stack, DELTA_CATALOG[name])), axis=1)
            forms.append((f"G:{name}", g_norm, (time.perf_counter() - start) * ms_per_point))
            # Zero-set agreement: an exact zero of R forces an exact zero of G;
            # the converse holds up to the evaluation roundoff of G (its three
            # delta calls can absorb a sub-ulp complementarity violation).
            checks += [
                (at_solution & (g_norm > DELTA_SOLUTION_TOL), f"delta residual ({name}) {{:.3e}} too large", g_norm),
                (natural_zero & (0.0 < g_norm) & (g_norm < math.inf),
                 f"R is exactly zero but G:{name} is not", g_norm),
                ((g_norm == 0.0) & above_roundoff, f"G:{name} is exactly zero but |R| = {{:.3e}}", norm),
            ]
        # nan fails none of the comparisons above, and inf not all of them.
        checks += [(~np.isfinite(norms), f"{formulation} residual is not finite", norms)
                   for formulation, norms, _ in forms]

        for k, (source, _, iters) in enumerate(points):
            label = f"{unit.instance_id}/{source}"
            failures += [f"{label}: {text.format(value[k])}" for fails, text, value in checks if fails[k]]
            rows += [
                ResultRow(unit.instance_id, inst.n, formulation, source, float(norms[k]), bool(solution[k]), iters, ms)
                for formulation, norms, ms in forms
            ]
    return rows, failures


# ---------------------------------------------------------------------------
# subcommands


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(**{field.name: getattr(args, field.name) for field in fields(GeneratorSpec)})


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    inst, planted, active_set = generate_planted(spec)
    spec_echo = {**asdict(spec), "rng": RNG_STREAM_ID, "active_set": list(active_set)}
    save_instance(args.out, inst, planted=planted, seed=spec.seed, spec_echo=spec_echo)
    return 0


def _parse_start(raw: str, n: int) -> np.ndarray:
    if raw == "zero":
        return np.zeros(n)
    try:
        values = [float(tok) for tok in raw.split(",")]
    except ValueError:
        values = []
    if len(values) != n or not all(map(math.isfinite, values)):
        raise ValueError(f"--start must be 'zero' or {n} comma-separated finite numbers, got {raw!r}")
    return np.array(values)


def _parse_omega(raw: str, inst: IcpInstance) -> DiagonalScaling:
    if raw == "jacobi":
        return default_scaling(inst.A)
    if raw == "identity":
        return DiagonalScaling(np.ones(inst.n))
    try:
        return DiagonalScaling(np.full(inst.n, float(raw)))
    except ValueError:
        raise ValueError(f"--omega must be 'jacobi', 'identity' or a positive number, got {raw!r}") from None


def cmd_solve(args) -> int:
    inst = load_instance(args.path).instance
    cfg = SolverConfig(omega=_parse_omega(args.omega, inst), max_iters=args.max_iters, resid_tol=args.tol)
    start = _parse_start(args.start, inst.n)
    report = projection_iterate(inst, start, cfg)
    doc = {
        "status": report.status.value,
        "iterations": report.iterations,
        "final_residual": json_float(report.residual_history[-1]),
        "final_point": [json_float(x) for x in report.final_point],
        "residual_history": [json_float(x) for x in report.residual_history],
    }
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if report.status is SolveStatus.CONVERGED else 1


def cmd_oracle(args) -> int:
    result = enumerate_solutions(load_instance(args.path).instance)
    doc = {
        "solutions": [sol.tolist() for sol in result.solutions],
        "degenerate_flags": result.degenerate_flags,
        "singular_skipped": result.singular_skipped,
        "subsets_tested": result.subsets_tested,
    }
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if result.solutions else 3


def cmd_verify(args) -> int:
    as_count(args.gen, "--gen", 0)
    as_count(args.scalings, "--scalings", 1)
    delta_names = [name.strip() for name in args.deltas.split(",") if name.strip()]
    unknown = [name for name in delta_names if name not in DELTA_CATALOG]
    repeated = [name for name in dict.fromkeys(delta_names) if delta_names.count(name) > 1]
    if unknown or repeated or not delta_names:
        problem = (f"unknown delta functions {unknown}" if unknown
                   else f"repeated delta functions {repeated}" if repeated else "no delta function given")
        raise ValueError(f"--deltas: {problem}; choose from {', '.join(DELTA_CATALOG)}")
    as_real(args.tol, "--tol", "be finite and >= 0", lambda v: 0.0 <= v < math.inf)

    units = [load_instance(path) for path in args.paths]
    if args.gen:
        base = _spec_from_args(args)
        for offset in range(args.gen):
            spec = replace(base, seed=base.seed + offset)
            inst, planted, _ = generate_planted(spec)
            units.append(LoadedInstance(f"gen-{spec.seed}", inst, planted=planted))
    if not units:
        raise ValueError("no instances given (pass paths or --gen)")

    rows, failures = run_verification(
        units,
        tol=args.tol,
        delta_names=delta_names,
        scaling_count=args.scalings,
        with_solver=args.solver,
    )
    write_rows(rows, args.out, args.out_path)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"{len(failures)} equivalence check(s) failed", file=sys.stderr)
        return 1
    return 0


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4, help="instance dimension")
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument("--matrix-family", default=GeneratorSpec.matrix_family, choices=MATRIX_FAMILIES)
    parser.add_argument("--f-family", default=GeneratorSpec.f_family, choices=F_FAMILIES)
    parser.add_argument("--gamma", type=float, default=GeneratorSpec.gamma, help="inf-norm bound for the affine part")
    parser.add_argument("--active-fraction", type=float, default=GeneratorSpec.active_fraction)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icpkit",
        description="Residual verification harness for implicit complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a seeded planted instance file")
    _add_spec_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the projection solver on an instance file")
    p_solve.add_argument("path")
    p_solve.add_argument("--omega", default="jacobi", help="the step's positive diagonal: 'jacobi', 'identity' or a scalar")
    p_solve.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p_solve.add_argument("--tol", type=float, default=SolverConfig.resid_tol)
    p_solve.add_argument("--start", default="zero", help="'zero' or comma-separated entries")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="enumerate all solutions of an instance file")
    p_oracle.add_argument("path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the residual-equivalence campaign")
    p_verify.add_argument("paths", nargs="*", help="instance files")
    p_verify.add_argument("--gen", type=int, default=0, metavar="COUNT", help="also verify COUNT generated instances")
    _add_spec_flags(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-10, help="solution-point residual tolerance")
    p_verify.add_argument("--deltas", default=",".join(DELTA_CATALOG))
    p_verify.add_argument("--scalings", type=int, default=3, help="random scaling pairs per instance")
    p_verify.add_argument("--solver", action="store_true", help="also report the solver end point")
    p_verify.add_argument("--out", default="csv", choices=("csv", "json"))
    p_verify.add_argument("--out-path", default="-", help="output file, '-' for stdout")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; may be called repeatedly, the parser is built on the first call."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        # Flush here so that a closed reader or a full disk raises below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it is caught first
        code = 1  # the reader of stdout left early; Python exits 1 on EPIPE too
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        code = 2
        try:
            if isinstance(exc, OSError):  # stdout may be what failed: try it again
                sys.stdout.flush()
            return code
        except OSError:
            pass
    # stdout failed.  Its flush kept the bytes, and Python flushes it again at
    # exit, so point it at devnull.
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code
