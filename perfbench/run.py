"""icpkit benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout the script sits in and
driven in this one process through its public functions, with BLAS and OpenMP
pinned to one thread before numpy is imported.  A run is a closed loop with
one client: the next item starts when the previous one has returned and been
checked.  Items cycle over the workload's inputs.

* ``--trace 0`` reports the end-to-end metrics.  Items run in blocks of at
  least BLOCK_S seconds, and each block is followed by a block of the
  workload's reference kernel (reference.py); every item latency is
  calibrated by the mean of the reference blocks on either side of it.
  Set-up (generating and writing the inputs, then the warm-up items) runs
  SETUP_ROUNDS times between reference blocks, and cold start (a fresh
  ``python -m icpkit --help``) COLD_RUNS times between fresh numpy imports;
  each reports its calibrated median.
* ``--trace 1`` alternates untraced and traced passes over the inputs and
  reports per-item layer metrics from the traced passes (see spans.py): the
  mean traced item time, trace.item_ms, is the base of every share, and
  trace.overhead_ms is the traced minus the untraced median item latency.

Stdout holds a readable report -- environment, every metric with its unit,
the raw times behind the calibrated ones, fail_ratio, the latency tail, and
the run-to-run quartiles recorded in spread.json -- and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.  Every
item is checked; a run with a failed check prints the failures to stderr and
exits 1.  A checkout without ``src/icpkit`` exits 2.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "ICPKIT_THREADS",
    )
}
SETUP_ROUNDS = 11
COLD_RUNS = 7
# Items run in blocks of at least BLOCK_S seconds, each followed by a block of
# the reference kernel as long as the item block, but at most REF_MAX_S: a
# short reference block tracks the host speed nearly as well as a long one,
# and leaves more of the run to long items.
BLOCK_S = 0.2
REF_MAX_S = 0.4
# The tail is the highest percentile with this many samples beyond it; it is
# reported only when that percentile is at least p90.
TAIL_BEYOND = 10
SHOWN_FAILURES = 20


class Items:
    """Runs items, checks each one, and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inp, tracer=None) -> int:
        """Run and check one item; return its latency in ns (check excluded)."""
        self.attempted += 1
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter_ns()
        try:
            out = self.workload.run(inp)
            message = None
        except Exception as exc:  # a raising item is a failed item; keep measuring
            message = f"item raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.recording = False
        message = message or self.workload.check(inp, out)
        if message:
            self.failures.append(message)
        return elapsed


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "git_sha": git_sha(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ref_block(ref, seconds: float) -> float:
    """Call ``ref`` for at least ``seconds`` (and at least once); return its mean ns per call."""
    calls = 0
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        ref()
        calls += 1
        now = time.perf_counter_ns()
        if now >= deadline:
            return (now - start) / calls


def calibrated(ref, blocks) -> tuple[list[int], list[float], list[float]]:
    """Run ``blocks`` between blocks of the reference kernel ``ref``.

    A block is a callable that returns the latencies, in ns, of what it timed.
    Each is followed by a reference block as long as it, within BLOCK_S and
    REF_MAX_S, and its latencies are calibrated by the mean reference ns per
    call of the reference blocks on either side.  Returns the raw and the
    calibrated latencies and the reference ns per call of every reference
    block.
    """
    raw, cal, refs = [], [], [ref_block(ref, BLOCK_S)]
    for block in blocks:
        start = time.perf_counter_ns()
        latencies = block()
        elapsed = (time.perf_counter_ns() - start) / 1e9
        refs.append(ref_block(ref, min(max(elapsed, BLOCK_S), REF_MAX_S)))
        factor = ref.NOMINAL_NS / ((refs[-2] + refs[-1]) / 2)
        raw.extend(latencies)
        cal.extend(ns * factor for ns in latencies)
    return raw, cal, refs


class Setup:
    """Set-up rounds: generate and write the inputs, then run the warm-up items."""

    def __init__(self, workload, items: Items, seed: int, workdir: Path, tracer=None):
        self.workload, self.items, self.seed, self.workdir, self.tracer = workload, items, seed, workdir, tracer
        self.rounds = 0
        self.inputs = []

    def __call__(self) -> list[int]:
        """One round into a fresh directory; keeps its timed inputs and returns its ns."""
        start = time.perf_counter_ns()
        round_dir = self.workdir / f"round{self.rounds}"
        round_dir.mkdir()
        self.rounds += 1
        # Release the previous round's inputs first, so that set-up never
        # holds two rounds at once and does not inflate peak_rss_mb.
        self.inputs = []
        if self.tracer is not None:
            self.tracer.recording = True
        self.inputs, warmup = self.workload.prepare(self.seed, round_dir)
        if self.tracer is not None:
            self.tracer.recording = False
        for inp in warmup:
            self.items.run(inp)
        return [time.perf_counter_ns() - start]


def cold_start(items: Items) -> list[int]:
    """One fresh ``python -m icpkit --help``, checked; returns its ns."""
    items.attempted += 1
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "icpkit", "--help"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter_ns() - start
    if proc.returncode != 0 or "usage:" not in proc.stdout:
        items.failures.append(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return [elapsed]


def item_blocks(items: Items, inputs, seconds: float):
    """Blocks of at least BLOCK_S seconds of items, cycling over ``inputs``, until ``seconds`` have passed."""
    cycle = itertools.cycle(inputs)

    def block() -> list[int]:
        latencies = []
        start = time.perf_counter_ns()
        while not latencies or time.perf_counter_ns() - start < BLOCK_S * 1e9:
            latencies.append(items.run(next(cycle)))
        return latencies

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        yield block


def traced_loop(items: Items, inputs, seconds: float, tracer) -> tuple[list[int], list[int]]:
    """Alternate one untraced and one traced pass over the inputs until time is up.

    Ending on whole passes makes every per-item count a function of the seed
    alone, not of how many items fitted in the time.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.extend(items.run(inp) for inp in inputs)
        with tracer.patched():
            traced.extend(items.run(inp, tracer) for inp in inputs)
    return plain, traced


def tail(latencies_ms: list[float]):
    """(percentile, value) of the latency tail, or None if the items are too few for p90."""
    n = len(latencies_ms)
    percentile = 100.0 * (n - TAIL_BEYOND) / n if n else 0.0
    if percentile < 90.0:
        return None
    return percentile, sorted(latencies_ms)[n - TAIL_BEYOND - 1]


def quartiles(values) -> str:
    values = list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f}"


def recorded_spread(workload: str, trace: int) -> dict:
    """Run-to-run quartiles of each metric, as spread.py last recorded them, or {}."""
    try:
        doc = json.loads((HERE / "spread.json").read_text())
    except (OSError, ValueError):
        return {}
    return doc.get(f"trace{trace}", {}).get(workload, {})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one set-up round (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is imported, so that BLAS starts with one thread.
    os.environ.update(PINNED_ENV)
    if not (SRC / "icpkit" / "__init__.py").is_file():
        print(f"error: no icpkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import icpkit
    from reference import KERNELS, NumpyImport
    from spans import TraceError, Tracer
    from workloads import WORKLOADS

    if not Path(icpkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: icpkit was imported from {icpkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.tiny)
    items = Items(workload)
    rounds = 1 if args.tiny else SETUP_ROUNDS
    tracer = Tracer() if args.trace else None
    env = environment(np, args.seed)
    extra: list[str] = []

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup = Setup(workload, items, args.seed, Path(tmp), tracer)
        try:
            if tracer is None:
                ref = KERNELS[workload.reference]()
                importer = NumpyImport()
                ref()
                importer()
                setup_raw, setup_cal, _ = calibrated(ref, [setup] * rounds)
                setup_peak_mb = peak_rss_mb()
                cold_runs = 2 if args.tiny else COLD_RUNS
                cold_raw, cold_cal, _ = calibrated(importer, [functools.partial(cold_start, items)] * cold_runs)
                gc.collect()
                raw, cal, refs = calibrated(ref, item_blocks(items, setup.inputs, args.seconds))
            else:
                with tracer.patched():
                    for _ in range(rounds):
                        setup()
                generate_ms = tracer.stats["generator.generate_planted"].total_ns / 1e6 / rounds
                tracer.reset()
                gc.collect()
                plain, traced = traced_loop(items, setup.inputs, args.seconds, tracer)
                tracer.require(workload.required_sites)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if tracer is None:
        cal_ms = [ns / 1e6 for ns in cal]
        raw_ms = [ns / 1e6 for ns in raw]
        metrics = {
            "items_per_s": (1e3 * len(cal_ms) / sum(cal_ms), "1/s"),
            "item_ms_p50": (statistics.median(cal_ms), "ms"),
            "setup_s": (statistics.median(setup_cal) / 1e9, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "cold_start_s": (statistics.median(cold_cal) / 1e9, "s"),
        }
        extra.append(f"times calibrated to the {workload.reference} reference; raw times follow")
        extra.append(f"items {len(raw_ms)}, raw items_per_s {1e3 * len(raw_ms) / sum(raw_ms):.4f}")
        extra.append(f"item_ms quartiles calibrated {quartiles(cal_ms)}, raw {quartiles(raw_ms)}")
        extra.append(f"reference us/call quartiles {quartiles(ns / 1e3 for ns in refs)}")
        t = tail(cal_ms)
        if t is None:
            extra.append(f"item_ms_tail omitted: {len(cal_ms)} items are too few for a p90 or higher tail")
        else:
            extra.append(f"item_ms_tail p{t[0]:.2f} = {t[1]:.4f} ms calibrated ({TAIL_BEYOND} of {len(cal_ms)} beyond)")
        extra.append(f"peak_rss_mb after set-up {setup_peak_mb:.4f}, after the items {metrics['peak_rss_mb'][0]:.4f}")
        extra.append(f"setup_s rounds raw {', '.join(f'{ns / 1e9:.4f}' for ns in setup_raw)}")
        extra.append(f"cold_start_s runs raw {', '.join(f'{ns / 1e9:.4f}' for ns in cold_raw)}")
    else:
        plain_p50 = statistics.median(ns / 1e6 for ns in plain)
        traced_p50 = statistics.median(ns / 1e6 for ns in traced)
        traced_mean = statistics.fmean(ns / 1e6 for ns in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics["generator.generate_planted.ms"] = (generate_ms, "ms/setup")
        metrics["trace.item_ms"] = (traced_mean, "ms")
        metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
        extra.append(f"items {len(plain)} untraced (p50 {plain_p50:.4f} ms), {len(traced)} traced (p50 {traced_p50:.4f} ms)")
        for span in ("linalg.solve_linear_batch.ms", "oracle.enumerate_solutions.self_ms", "solver.projection_iterate.ms"):
            extra.append(f"{span} / trace.item_ms = {metrics[span][0] / traced_mean:.4f}")

    failed = len(items.failures)
    spread = recorded_spread(args.workload, args.trace)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        s = spread.get(name)
        recorded = f"  recorded q1/median/q3 {s['q1']:.6g} / {s['median']:.6g} / {s['q3']:.6g}" if s else ""
        print(f"  {name:44s} {value:16.6f} {unit:10s}{recorded}")
    print(f"  {'fail_ratio':44s} {failed / items.attempted:16.6f} ({failed} of {items.attempted})")
    for line in extra:
        print("  " + line)
    if failed:
        for failure in items.failures[:SHOWN_FAILURES]:
            print(f"FAIL {failure}", file=sys.stderr)
        print(f"{failed} of {items.attempted} checks failed", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": items.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
