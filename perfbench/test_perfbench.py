"""Smoke tests for the benchmark harness: every workload at tiny sizes, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import icpkit.cli
from spans import SITES, TraceError, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("oracle.subsets_tested", "oracle.solutions", "oracle.singular_skipped", "solver.iterations")


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)


def tiny_result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_listed_metric(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["oracle_many", "solve_n1000"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (tiny_result(workload, 1, seed=3)["metrics"] for _ in range(2))
    counted = [name for name in first if name in COUNTS or name.endswith(".calls")]
    assert any(first[name]["value"] > 0 for name in counted)
    assert {name: first[name] for name in counted} == {name: second[name] for name in counted}


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "oracle_many", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_patch_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(SITES, "cli.gone", (("icpkit.cli", "no_such_function"),))
    original = icpkit.cli.main
    with pytest.raises(TraceError, match="icpkit.cli.no_such_function"):
        with Tracer().patched():
            pass
    assert icpkit.cli.main is original


def test_unreached_site_fails_loudly():
    tracer = Tracer()
    with tracer.patched():
        tracer.recording = True
        icpkit.cli.main(["--help"])
    tracer.require(["icpkit.cli.main"])
    with pytest.raises(TraceError, match="icpkit.cli.write_rows"):
        tracer.require(["icpkit.cli.main", "icpkit.cli.write_rows"])
