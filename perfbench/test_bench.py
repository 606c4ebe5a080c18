"""Self-test of the benchmark: reduced-size passes of every workload.

    python3 -m pytest -q perfbench/test_bench.py

Checks that BENCHMARK.json matches spec.py, that a run prints exactly
the metric names BENCHMARK.json declares, that a deliberately corrupted
output is counted as failed, and that a directory without the program
yields no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKLOADS = [name for name, _ in spec.WORKLOADS]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_pass_prints_declared_metrics(workload):
    result = _result(_run("--workload", workload, "--trace", "0", "--scale", "small"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec.benchmark_json()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_declared_per_layer_metrics():
    result = _result(_run("--workload", "verify", "--trace", "1", "--scale", "small"))
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in spec.benchmark_json()["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["trace.absent_entry_points"] == 0
    assert metrics["bijections.reports"] > 0
    assert metrics["noncrossing.family_nc.scanned"] >= metrics["noncrossing.family_nc.kept"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    args = ("--workload", workload, "--trace", "0", "--scale", "small", "--inject-fault")
    result = _result(_run(*args))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "moments", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
