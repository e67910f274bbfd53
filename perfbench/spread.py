"""Run the benchmark over several seeds and report each metric's run-to-run spread.

Run from the repository root:

    python3 perfbench/spread.py --out perfbench/spread.json
    python3 perfbench/spread.py --trace 1 --out perfbench/spread.json
    python3 perfbench/spread.py --first-seed 11 --against perfbench/spread.json

Seeds first-seed .. first-seed + RUNS - 1 each run every workload of
BENCHMARK.json in turn, for its run_seconds, so that slow drift of the host
falls on all workloads alike.  For every workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; ``!``
marks a spread above a third of the bound, ``!!`` one above the bound.
``--against`` compares each median with a previous output file and marks a
metric whose median is worse by more than its bound.  Exits 1 if a run fails
or a gate above is broken.

``--out`` stores the environment and the per-metric quartiles under the key
``trace0`` or ``trace1`` of the file, keeping the other key; run.py prints
these recorded quartiles next to each metric, so that a later change can see
the spread its bounds rest on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "wall_s": wall, "env": env, "metrics": metrics}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--against", help="a previous --out file to compare medians with")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for workload in workloads:
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s", file=sys.stderr, flush=True)

    key = f"trace{args.trace}"
    previous = json.loads(Path(args.against).read_text())[key] if args.against else {}
    summary: dict[str, dict] = {}
    broken = False
    for workload, wruns in runs.items():
        summary[workload] = {}
        print(f"{workload}  (runs {len(wruns)}, mean wall {statistics.fmean(r['wall_s'] for r in wruns):.1f} s)")
        for name in wruns[0]["metrics"]:
            s = summarize([r["metrics"][name] for r in wruns])
            summary[workload][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "!!" if s["spread"] > bound else "!" if s["spread"] > bound / 3 else ""
                broken |= flag == "!!"
            drift = ""
            before = previous.get(workload, {}).get(name)
            if before and bound is not None:
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                change = s["median"] / before["median"] - 1.0
                worse = change > bound if better == "lower" else change < -bound
                broken |= worse
                drift = f"  vs previous {change:+.2%}{'  WORSE' if worse else ''}"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(
                f"  {name:44s} median {s['median']:14.6f}  q1 {s['q1']:14.6f}  q3 {s['q3']:14.6f}"
                f"  spread {spread}{'' if bound is None else f' (bound {bound})'} {flag}{drift}"
            )

    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.is_file() else {}
        first = next(iter(runs.values()))[0]
        doc["env"] = {k: v for k, v in first["env"].items() if k != "seed"}
        doc[key] = summary
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
