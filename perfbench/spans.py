"""Per-layer tracing for the benchmark, done from outside the library.

Each traced function is replaced, for the length of a traced block, by a
wrapper installed in the namespace where its caller looks it up (for example
``icpkit.oracle.solve_linear_batch``, which ``enumerate_solutions`` reads from
its module globals).  Nothing under ``src/`` is edited.  Wrappers keep spans
on a stack, so each span knows how much of its duration its child spans
covered; that gives self time.  Counters read from return values (oracle
counts, solver iterations and status) are taken at the same boundaries.

A missing patch target raises ``TraceError`` at install time, and a site that
a workload declares it must reach but never does raises after the run: a
moved function fails the traced run instead of reporting zeros.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> the (module, attribute) sites where callers look the function up.
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("icpkit.cli", "main"),),
    "cli.load_instance": (("icpkit.cli", "load_instance"),),
    "cli.run_verification": (("icpkit.cli", "run_verification"),),
    "cli.write_rows": (("icpkit.cli", "write_rows"),),
    "oracle.enumerate_solutions": (
        ("icpkit.cli", "enumerate_solutions"),
        ("icpkit.oracle", "enumerate_solutions"),
    ),
    "linalg.solve_linear_batch": (("icpkit.oracle", "solve_linear_batch"),),
    "core.check_solution": (("icpkit.oracle", "check_solution"), ("icpkit.core", "check_solution")),
    "core.is_solution": (("icpkit.cli", "is_solution"),),
    "core.evaluate_H": (
        ("icpkit.cli", "evaluate_H"),
        ("icpkit.residuals", "evaluate_H"),
        ("icpkit.core", "evaluate_H"),
    ),
    "core.evaluate_F": (
        ("icpkit.cli", "evaluate_F"),
        ("icpkit.residuals", "evaluate_F"),
        ("icpkit.core", "evaluate_F"),
    ),
    "residuals.natural_residual": (("icpkit.cli", "natural_residual"), ("icpkit.solver", "natural_residual")),
    "residuals.scaled_residual": (("icpkit.cli", "scaled_residual"),),
    "residuals.delta_residual": (("icpkit.cli", "delta_residual"),),
    "solver.projection_iterate": (("icpkit.cli", "projection_iterate"), ("icpkit.solver", "projection_iterate")),
    "generator.generate_planted": (("icpkit.generator", "generate_planted"),),
}


class TraceError(RuntimeError):
    """A patch target is missing, or a required call site was never reached."""


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


def _count_solve_batch(counters, args, result):
    mats = args[0]
    m, n = mats.shape[0], mats.shape[1]
    counters["linalg.systems"] += m
    # Textbook cost of one elimination plus the two triangular solves.
    counters["linalg.flop"] += m * (2 * n**3 / 3 + 2 * n**2)


def _count_oracle(counters, args, result):
    counters["oracle.subsets_tested"] += result.subsets_tested
    counters["oracle.solutions"] += len(result.solutions)
    counters["oracle.singular_skipped"] += result.singular_skipped


def _count_solve(counters, args, result):
    counters["solver.iterations"] += result.iterations
    counters[f"solver.{result.status.value}"] += 1


_RESULT_COUNTERS = {
    "linalg.solve_linear_batch": _count_solve_batch,
    "oracle.enumerate_solutions": _count_oracle,
    "solver.projection_iterate": _count_solve,
}


class Tracer:
    """Spans and counters for the calls made while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.site_hits: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self):
        """Clear spans and counters; the record of which sites were reached is kept."""
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, span: str, site: str, fn):
        on_result = _RESULT_COUNTERS.get(span)
        stats, counters, hits, stack = self.stats, self.counters, self.site_hits, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                child_ns = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = stats[span]
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - child_ns
                hits[site] += 1
            if on_result is not None:
                on_result(counters, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original functions on exit."""
        originals = []
        try:
            for span, sites in SITES.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    if not hasattr(module, attr):
                        raise TraceError(f"patch target {module_name}.{attr} is missing")
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(span, f"{module_name}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def require(self, sites):
        """Raise TraceError naming every site in ``sites`` that recorded no call."""
        missing = [site for site in sites if self.site_hits.get(site, 0) == 0]
        if missing:
            raise TraceError(f"traced run never reached {', '.join(missing)}; update perfbench/spans.py")

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-item layer metrics, as name -> (value, unit)."""
        s, c = self.stats, self.counters

        def ms(span):
            return s[span].total_ns / 1e6 / items

        def self_ms(span):
            return s[span].self_ns / 1e6 / items

        def us_per_call(span):
            return s[span].total_ns / 1e3 / s[span].calls if s[span].calls else 0.0

        iterations = c["solver.iterations"]
        out = {
            "cli.main.self_ms": (self_ms("cli.main"), "ms/item"),
            "cli.load_instance.ms": (ms("cli.load_instance"), "ms/item"),
            "cli.run_verification.self_ms": (self_ms("cli.run_verification"), "ms/item"),
            "cli.write_rows.ms": (ms("cli.write_rows"), "ms/item"),
            "oracle.enumerate_solutions.ms": (ms("oracle.enumerate_solutions"), "ms/item"),
            "oracle.enumerate_solutions.self_ms": (self_ms("oracle.enumerate_solutions"), "ms/item"),
            "oracle.subsets_tested": (c["oracle.subsets_tested"] / items, "count/item"),
            "oracle.solutions": (c["oracle.solutions"] / items, "count/item"),
            "oracle.singular_skipped": (c["oracle.singular_skipped"] / items, "count/item"),
            "linalg.solve_linear_batch.ms": (ms("linalg.solve_linear_batch"), "ms/item"),
            "linalg.solve_linear_batch.systems": (c["linalg.systems"] / items, "count/item"),
            "linalg.solve_linear_batch.gflop_computed": (c["linalg.flop"] / 1e9 / items, "GFLOP/item"),
            "core.check_solution.calls": (s["core.check_solution"].calls / items, "count/item"),
            "core.check_solution.ms": (ms("core.check_solution"), "ms/item"),
            "solver.projection_iterate.ms": (ms("solver.projection_iterate"), "ms/item"),
            "solver.iterations": (iterations / items, "count/item"),
            "solver.us_per_iter": (
                s["solver.projection_iterate"].total_ns / 1e3 / iterations if iterations else 0.0,
                "us",
            ),
            "solver.converged": (c["solver.converged"] / items, "count/item"),
            "solver.max_iters_reached": (c["solver.max_iters_reached"] / items, "count/item"),
            "solver.diverged": (c["solver.diverged"] / items, "count/item"),
        }
        for span in (
            "residuals.natural_residual",
            "residuals.scaled_residual",
            "residuals.delta_residual",
            "core.is_solution",
            "core.evaluate_H",
            "core.evaluate_F",
        ):
            out[f"{span}.calls"] = (s[span].calls / items, "count/item")
            out[f"{span}.us_per_call"] = (us_per_call(span), "us")
        return out
