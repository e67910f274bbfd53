"""Command-line harness and instance-file I/O.

Instance files are strict JSON (non-finite number tokens rejected) with keys
``n``, ``A`` (row-major n*n numbers), ``b``, ``f`` ({"type": "zero"} or
{"type": "affine", "C": ..., "d": ...}) plus optional ``planted``, ``seed``
and a free-form ``spec`` echo.  Floats are serialized as Python's shortest
round-trip decimals, so save/load reproduces residual evaluations bit for bit.

Subcommands and exit codes:

* ``gen``     write a seeded planted instance          (0 ok, 2 bad spec or out of memory)
* ``solve``   run the projection solver on a file      (0 converged, 1 not, 2 parse)
* ``oracle``  enumerate all solutions of a file        (0 found, 3 empty, 2 parse/cap)
* ``verify``  residual-equivalence campaign over files (0 pass, 1 failures, 2 parse or out of memory)

``verify`` writes one ResultRow per (instance, formulation, point) as CSV or
JSON; the Rbar row reports the worst scaled-residual norm over the drawn
scaling pairs.  A residual that is not finite fails.  An instance with
n > 16 is beyond the oracle: its rows are written, but it fails with an
"oracle unavailable" line (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import (
    AffineMap,
    IcpInstance,
    ToleranceConfig,
    ZeroMap,
    evaluate_F,
    evaluate_H,
    is_solution,
)
from .generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, RNG_STREAM_ID, generate_planted
from .linalg import DiagonalScaling
from .oracle import enumerate_solutions
from .residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual
from .solver import SolveStatus, SolverConfig, default_scaling, projection_iterate

RESULT_COLUMNS = (
    "instance_id",
    "n",
    "formulation",
    "point_source",
    "residual_inf",
    "is_solution",
    "iterations",
    "wall_ms",
)
PERTURB_EPSILONS = (1e-6, 1e-2, 0.5)
SCALING_RANGE = (1e-3, 1e3)
SCALING_SEED_BASE = 0xC0FFEE
# Componentwise zero classification: R_i counts as zero below this, Rbar_i
# below this times the relevant scaling entry.
COMPONENT_ZERO_TOL = 1e-12
DELTA_SOLUTION_TOL = 1e-7


# ---------------------------------------------------------------------------
# instance files


def _reject_constant(token: str):
    raise ValueError(f"non-finite number token {token!r} is not allowed in instance files")


def _number_list(doc, key: str, length: int) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"field {key!r} is missing")
    values = doc[key]
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"field {key!r} must be a list of {length} numbers")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"field {key!r} must contain numbers only")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"field {key!r} has an integer too large for a float") from None


@dataclass
class LoadedInstance:
    instance_id: str
    instance: IcpInstance
    planted: np.ndarray | None = None
    seed: int | None = None


def instance_to_dict(
    inst: IcpInstance,
    planted: np.ndarray | None = None,
    seed: int | None = None,
    spec_echo: dict | None = None,
) -> dict:
    doc: dict = {
        "n": inst.n,
        "A": inst.A.flatten().tolist(),
        "b": inst.b.tolist(),
    }
    if isinstance(inst.f, AffineMap):
        doc["f"] = {"type": "affine", "C": inst.f.C.flatten().tolist(), "d": inst.f.d.tolist()}
    elif isinstance(inst.f, ZeroMap):
        doc["f"] = {"type": "zero"}
    else:
        raise ValueError(f"implicit map {inst.f.tag!r} has no file representation")
    if planted is not None:
        doc["planted"] = np.asarray(planted, dtype=float).tolist()
    if seed is not None:
        doc["seed"] = int(seed)
    if spec_echo is not None:
        doc["spec"] = spec_echo
    return doc


def instance_from_dict(doc: dict, instance_id: str = "instance") -> LoadedInstance:
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    a = _number_list(doc, "A", n * n).reshape(n, n)
    b = _number_list(doc, "b", n)
    f_doc = doc.get("f")
    if not isinstance(f_doc, dict) or "type" not in f_doc:
        raise ValueError("field 'f' must be an object with a 'type' key")
    if f_doc["type"] == "zero":
        f = ZeroMap()
    elif f_doc["type"] == "affine":
        f = AffineMap(_number_list(f_doc, "C", n * n).reshape(n, n), _number_list(f_doc, "d", n))
    else:
        raise ValueError(f"unknown implicit map type {f_doc['type']!r}")
    planted = _number_list(doc, "planted", n) if "planted" in doc else None
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ValueError(f"field 'seed' must be an integer, got {seed!r}")
    spec = doc.get("spec")
    if spec is not None and not isinstance(spec, dict):
        raise ValueError("field 'spec' must be an object")
    return LoadedInstance(instance_id=instance_id, instance=IcpInstance(A=a, b=b, f=f), planted=planted, seed=seed)


def load_instance(path: str) -> LoadedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("instance file nests too deeply") from None
    stem = os.path.splitext(os.path.basename(path))[0]
    return instance_from_dict(doc, instance_id=stem)


def save_instance(
    path: str,
    inst: IcpInstance,
    planted: np.ndarray | None = None,
    seed: int | None = None,
    spec_echo: dict | None = None,
) -> None:
    doc = instance_to_dict(inst, planted=planted, seed=seed, spec_echo=spec_echo)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# result rows


@dataclass
class ResultRow:
    instance_id: str
    n: int
    formulation: str
    point_source: str
    residual_inf: float
    is_solution: bool
    iterations: int | None
    wall_ms: float

    def as_record(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "n": self.n,
            "formulation": self.formulation,
            "point_source": self.point_source,
            "residual_inf": _json_float(self.residual_inf),
            "is_solution": self.is_solution,
            "iterations": self.iterations,
            "wall_ms": self.wall_ms,
        }

    def as_csv_fields(self) -> tuple[str, ...]:
        iters = "" if self.iterations is None else str(self.iterations)
        return (
            self.instance_id,
            str(self.n),
            self.formulation,
            self.point_source,
            repr(self.residual_inf),
            "true" if self.is_solution else "false",
            iters,
            f"{self.wall_ms:.3f}",
        )


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def write_rows(rows: list[ResultRow], fmt: str, out_path: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(row.as_csv_fields() for row in rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([row.as_record() for row in rows], indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
        oracle_result = enumerate_solutions(inst)
    except ValueError as exc:
        failures.append(f"{unit.instance_id}: oracle unavailable ({exc})")
        oracle_result = None
    if oracle_result is not None:
        for sol in oracle_result.solutions:
            points.append(("oracle", sol, None))
    base = unit.planted
    if base is None and oracle_result is not None and oracle_result.solutions:
        base = oracle_result.solutions[0]
    if base is not None:
        for k, eps in enumerate(PERTURB_EPSILONS):
            direction = np.zeros(inst.n)
            direction[k % inst.n] = 1.0
            points.append(("perturbed", base + eps * direction, None))
    if with_solver:
        cfg = SolverConfig(omega=default_scaling(inst.A))
        report = projection_iterate(inst, np.zeros(inst.n), cfg)
        if np.all(np.isfinite(report.final_point)):
            points.append(("solver", report.final_point, report.iterations))
    return points, failures


# Extreme data overflows; the residuals that are not finite fail below.
@np.errstate(all="ignore")
def _verify_unit(
    index: int,
    unit: LoadedInstance,
    tol: float,
    delta_names: list[str],
    scaling_count: int,
    with_solver: bool,
) -> tuple[list[ResultRow], list[str]]:
    inst = unit.instance
    points, failures = _collect_points(unit, with_solver)
    if not points:
        return [], failures
    scalings = _draw_scalings(inst.n, scaling_count, index)
    tol_cfg = ToleranceConfig(feas_tol=tol, comp_tol=tol)
    # Each formulation is evaluated once over the stack of all points, row by
    # row, and its time is split evenly among the points' rows.
    stack = np.array([point for _, point, _ in points])
    ms_per_point = 1e3 / len(points)

    start = time.perf_counter()
    natural = natural_residual(inst, stack)
    natural_ms = (time.perf_counter() - start) * ms_per_point
    natural_norm = np.max(np.abs(natural), axis=1)
    solution = is_solution(inst, stack, tol_cfg)
    h_scale = np.max(np.abs(evaluate_H(inst, stack)), axis=1)
    f_scale = np.max(np.abs(evaluate_F(inst, stack)), axis=1)
    natural_zero_comp = np.abs(natural) <= COMPONENT_ZERO_TOL

    start = time.perf_counter()
    scaled_worst = np.zeros(len(points))
    scaled_checks = []
    for omega1, omega2 in scalings:
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
        too_large = scaled_norm > tol * float(entry_max.max())
        zero_differs = (scaled_norm == 0.0) != (natural_norm == 0.0)
        scaled_checks.append((scaled_norm, too_large, zero_differs, np.any(forward_bad | reverse_bad, axis=1)))
    scaled_ms = (time.perf_counter() - start) * ms_per_point

    delta_norms = []
    for name in delta_names:
        start = time.perf_counter()
        g = delta_residual(inst, stack, DELTA_CATALOG[name])
        delta_ms = (time.perf_counter() - start) * ms_per_point
        delta_norms.append((name, np.max(np.abs(g), axis=1), delta_ms))

    rows: list[ResultRow] = []
    for k, (source, _, iters) in enumerate(points):
        norm, is_sol = float(natural_norm[k]), bool(solution[k])
        label = f"{unit.instance_id}/{source}"
        # One evaluation roundoff of the delta formulation; it bounds how large
        # |R| can be at a point where G still evaluates to exactly zero.
        roundoff = 4.0 * np.finfo(float).eps * max(1.0, float(h_scale[k]), float(f_scale[k]))

        rows.append(ResultRow(unit.instance_id, inst.n, "R", source, norm, is_sol, iters, natural_ms))
        if source in ("planted", "oracle"):
            if not is_sol:
                failures.append(f"{label}: expected a solution, is_solution is false")
            if norm > tol:
                failures.append(f"{label}: |R| = {norm:.3e} exceeds {tol:.1e}")
        elif source == "perturbed" and not is_sol and norm <= tol:
            failures.append(f"{label}: non-solution with |R| = {norm:.3e} <= {tol:.1e}")

        for scaled_norm, too_large, zero_differs, comp_differs in scaled_checks:
            if source in ("planted", "oracle") and too_large[k]:
                failures.append(f"{label}: scaled residual {float(scaled_norm[k]):.3e} too large")
            if zero_differs[k]:
                failures.append(f"{label}: exact-zero disagreement between R and Rbar")
            if comp_differs[k]:
                failures.append(f"{label}: componentwise zero sets of R and Rbar differ")
        rows.append(
            ResultRow(unit.instance_id, inst.n, "Rbar", source, float(scaled_worst[k]), is_sol, iters, scaled_ms)
        )

        for name, g_norms, delta_ms in delta_norms:
            g_norm = float(g_norms[k])
            if source in ("planted", "oracle") and g_norm > DELTA_SOLUTION_TOL:
                failures.append(f"{label}: delta residual ({name}) {g_norm:.3e} too large")
            # Zero-set agreement: an exact zero of R forces an exact zero of G;
            # the converse holds up to the evaluation roundoff of G (its three
            # delta calls can absorb a sub-ulp complementarity violation).
            if norm == 0.0 and 0.0 < g_norm < math.inf:
                failures.append(f"{label}: R is exactly zero but G:{name} is not")
            if g_norm == 0.0 and norm > roundoff:
                failures.append(f"{label}: G:{name} is exactly zero but |R| = {norm:.3e}")
            rows.append(
                ResultRow(unit.instance_id, inst.n, f"G:{name}", source, g_norm, is_sol, iters, delta_ms)
            )
    # nan fails none of the comparisons above, and inf not all of them.
    for row in rows:
        if not math.isfinite(row.residual_inf):
            failures.append(f"{row.instance_id}/{row.point_source}: {row.formulation} residual is not finite")
    return rows, failures


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
    for index, unit in enumerate(units):
        unit_rows, unit_failures = _verify_unit(index, unit, tol, delta_names, scaling_count, with_solver)
        rows.extend(unit_rows)
        failures.extend(unit_failures)
    return rows, failures


# ---------------------------------------------------------------------------
# subcommands


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(
        n=args.n,
        seed=args.seed,
        matrix_family=args.matrix_family,
        f_family=args.f_family,
        gamma=args.gamma,
        active_fraction=args.active_fraction,
    )


def _spec_echo(spec: GeneratorSpec, active_set: tuple[int, ...]) -> dict:
    return {**asdict(spec), "rng": RNG_STREAM_ID, "active_set": list(active_set)}


def cmd_gen(args) -> int:
    try:
        spec = _spec_from_args(args)
        inst, planted, active_set = generate_planted(spec)
        save_instance(args.out, inst, planted=planted, seed=spec.seed, spec_echo=_spec_echo(spec, active_set))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
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
        return DiagonalScaling.identity(inst.n)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"--omega must be 'jacobi', 'identity' or a positive number, got {raw!r}")
    return DiagonalScaling.uniform(value, inst.n)


def cmd_solve(args) -> int:
    try:
        unit = load_instance(args.path)
        inst = unit.instance
        cfg = SolverConfig(
            omega=_parse_omega(args.omega, inst),
            relaxation=args.relaxation,
            max_iters=args.max_iters,
            resid_tol=args.tol,
        )
        start = _parse_start(args.start, inst.n)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = projection_iterate(inst, start, cfg)
    doc = {
        "status": report.status.value,
        "iterations": report.iterations,
        "final_residual": _json_float(report.final_residual),
        "final_point": [_json_float(x) for x in report.final_point],
        "residual_history": [_json_float(x) for x in report.residual_history],
    }
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if report.status is SolveStatus.CONVERGED else 1


def cmd_oracle(args) -> int:
    try:
        unit = load_instance(args.path)
        result = enumerate_solutions(unit.instance)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "solutions": [sol.tolist() for sol in result.solutions],
        "degenerate_flags": result.degenerate_flags,
        "singular_skipped": result.singular_skipped,
        "subsets_tested": result.subsets_tested,
    }
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0 if result.solutions else 3


def cmd_verify(args) -> int:
    delta_names = [name.strip() for name in args.deltas.split(",") if name.strip()]
    unknown = [name for name in delta_names if name not in DELTA_CATALOG]
    if unknown or not delta_names:
        problem = f"unknown delta functions {unknown}" if unknown else "no delta function given"
        print(f"error: --deltas: {problem}; choose from {', '.join(DELTA_CATALOG)}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"error: --tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 2

    units: list[LoadedInstance] = []
    try:
        for path in args.paths:
            units.append(load_instance(path))
        if args.gen:
            base = _spec_from_args(args)
            for offset in range(args.gen):
                spec = replace(base, seed=base.seed + offset)
                inst, planted, _ = generate_planted(spec)
                units.append(LoadedInstance(f"gen-{spec.seed}", inst, planted=planted, seed=spec.seed))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if not units:
        print("error: no instances given (pass paths or --gen)", file=sys.stderr)
        return 2

    rows, failures = run_verification(
        units,
        tol=args.tol,
        delta_names=delta_names,
        scaling_count=args.scalings,
        with_solver=args.solver,
    )
    try:
        write_rows(rows, args.out, args.out_path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"{len(failures)} equivalence check(s) failed", file=sys.stderr)
        return 1
    return 0


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4, help="instance dimension")
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument(
        "--matrix-family",
        default="diag_dominant",
        choices=MATRIX_FAMILIES,
    )
    parser.add_argument("--f-family", default="zero", choices=F_FAMILIES)
    parser.add_argument("--gamma", type=float, default=0.5, help="inf-norm bound for the affine part")
    parser.add_argument("--active-fraction", type=float, default=0.5)


def _int_at_least(low: int):
    def count(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


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
    p_solve.add_argument("--omega", default="jacobi", help="'jacobi', 'identity' or a scalar")
    p_solve.add_argument("--relaxation", type=float, default=1.0)
    p_solve.add_argument("--max-iters", type=int, default=10_000)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--start", default="zero", help="'zero' or comma-separated entries")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="enumerate all solutions of an instance file")
    p_oracle.add_argument("path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the residual-equivalence campaign")
    p_verify.add_argument("paths", nargs="*", help="instance files")
    p_verify.add_argument("--gen", type=_int_at_least(0), default=0, metavar="COUNT", help="also verify COUNT generated instances")
    _add_spec_flags(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-10, help="solution-point residual tolerance")
    p_verify.add_argument("--deltas", default="identity,cubic,tanh,asinh")
    p_verify.add_argument("--scalings", type=_int_at_least(1), default=3, help="random scaling pairs per instance")
    p_verify.add_argument("--solver", action="store_true", help="also report the solver end point")
    p_verify.add_argument("--out", default="csv", choices=("csv", "json"))
    p_verify.add_argument("--out-path", default="-", help="output file, '-' for stdout")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        # Flush here so that a closed reader raises below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout left early.  Python flushes stdout again at
        # exit, so point it at devnull, and exit 1 as Python does on EPIPE.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
