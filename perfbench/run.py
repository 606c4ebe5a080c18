"""Benchmark of the annular package: four workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload moments --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: the median of several
fresh-process set-ups, then passes over the workload's task list, each in
a fresh worker process, for ``--seconds`` (at least one pass).  ``--trace
1`` reports the per-layer metrics: the microbenchmarks, one untraced pass
and one traced pass of the same inputs.  Every task output is checked
against ``reference.json``; the last line of stdout is the JSON result.
A record with provenance, per-task latencies and (traced) spans is
written under ``perfbench/out/``.

Maintenance modes: ``--write-spec`` regenerates BENCHMARK.json from
spec.py; ``--record-reference`` records reference.json from the current
program.  ``--scale small`` and ``--inject-fault`` exist for the
self-test (test_bench.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "annular"
OUT = HERE / "out"

SETUP_RUNS = 5
BLAS_THREADS = "1"
# Per-run limit, kept under the 180 s a run may take.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, a worker died)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("ANNULAR_MAX_ELEMENTS", None)
    return env


class Runner:
    """Starts worker processes, waiting for each, within the run budget."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _worker_env()

    def __call__(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("run budget exhausted")
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise BenchError(f"worker {args[:2]} exceeded the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*.py")):
        h.update(path.relative_to(PROGRAM).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _pass_args(args, index: int, *extra: str) -> list[str]:
    out = ["pass", args.workload, str(args.seed), str(index), "--scale", args.scale]
    if args.inject_fault:
        out.append("--inject-fault")
    return out + list(extra)


def end_to_end(args, run: Runner, record: dict) -> dict:
    setups = [run("setup", args.workload)["setup_s"] for _ in range(SETUP_RUNS)]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run(*_pass_args(args, len(passes))))
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds:
            break
    record["setup_s"] = setups
    record["passes"] = passes
    record["provenance"]["numpy"] = passes[0]["numpy"]
    record["provenance"]["samples"] = {
        "setup_runs": SETUP_RUNS,
        "passes": len(passes),
        "tasks_per_pass": passes[0]["tasks"],
        "task_p50": f"p50 of {passes[0]['tasks']} tasks per pass, median over passes",
        "task_tail": f"p{passes[0]['tail_percentile']:.1f} of {passes[0]['tasks']} "
        "tasks per pass, median over passes",
    }

    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "task_p50_ms": med("task_p50_ms"),
        "task_tail_ms": med("task_tail_ms"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(args, run: Runner, record: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    micro = run("micro", str(args.seed))
    plain = run(*_pass_args(args, 0))
    traced = run(*_pass_args(args, 0, "--traced", "--spans", str(spans_path)))
    record["micro"] = micro
    record["passes"] = [plain, traced]
    record["provenance"]["numpy"] = plain["numpy"]
    record["provenance"]["samples"] = {
        "passes": "one untraced and one traced pass on the same inputs",
        "tasks_per_pass": plain["tasks"],
        "micro": "median of timed batches after one warm-up call",
    }
    record["provenance"]["spans_file"] = str(spans_path.relative_to(ROOT))

    trace = traced["trace"]
    metrics = dict(micro["metrics"])
    for name in spec.STREAMS:
        metrics[f"streams.{name}.yielded"] = trace["yielded"].get(f"streams.{name}", 0)
    for name, (kept, scanned) in _kept_scanned(trace).items():
        metrics[f"{name}.kept"] = kept
        metrics[f"{name}.scanned"] = scanned
        metrics[f"{name}.kept_per_scanned"] = kept / scanned if scanned else 0.0
    metrics["bijections.reports"] = trace["bijection_reports"]
    elapsed = trace["elapsed_s"]  # raw, like the spans, probes included
    for layer in spec.TRACED_LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * trace["self_s"].get(layer, 0.0) / elapsed
    metrics["trace.unattributed_pct"] = 100.0 * (elapsed - trace["top_level_s"]) / elapsed
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.spans"] = trace["spans"]
    metrics["trace.absent_entry_points"] = len(trace["absent"])
    record["trace"] = trace
    return metrics


def _kept_scanned(trace: dict) -> dict[str, tuple[int, int]]:
    names = [f"maps.{fam}" for fam in spec.FILTERED_FAMILIES] + ["noncrossing.family_nc"]
    return {name: tuple(trace["kept_scanned"].get(name, (0, 0))) for name in names}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _units(trace: int) -> dict[str, str]:
    rows = spec.PER_LAYER if trace else spec.END_TO_END
    return {row[0]: row[1] for row in rows}


def _print_table(metrics: dict, units: dict, failed: int, attempted: int, record) -> None:
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<55} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<55} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for where, reason in record["failures"][:20]:
        print(f"# FAILED {where}: {reason}")


def run_benchmark(args) -> int:
    if not (PROGRAM / "__init__.py").is_file():
        print(f"error: no program at {PROGRAM.relative_to(ROOT)}", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2
    run = Runner(time.monotonic() + RUN_BUDGET_S)
    record = {"provenance": provenance(args)}
    try:
        metrics = per_layer(args, run, record) if args.trace else end_to_end(args, run, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in record["passes"] for f in p["failures"]]
    attempted = sum(p["tasks"] for p in record["passes"])
    if args.trace:
        failures += [["micro", reason] for reason in record["micro"]["failures"]]
        attempted += record["micro"]["attempted"]
    record["failures"] = failures
    units = _units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    _print_table(metrics, units, len(failures), attempted, record)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.record_reference:
        Runner(time.monotonic() + 3600)("reference", str(HERE / "reference.json"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
