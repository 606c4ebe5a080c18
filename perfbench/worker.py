"""One measurement in a fresh process; prints one JSON object on stdout.

Modes (run.py starts each in its own process):

* ``setup WORKLOAD``  — time ``import annular`` plus one trivial call;
* ``pass WORKLOAD SEED INDEX [--traced] [--spans PATH]`` — run one pass
  over the workload's task list, then check every output;
* ``micro SEED`` — the per-layer microbenchmarks;
* ``reference PATH`` — record reference.json from the current program.

Nothing here imports the program before ``setup`` starts its clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _trivial_call(workload: str) -> None:
    import annular

    if workload == "moments":
        annular.wick_moment("GUE", 2)
    elif workload == "verify":
        annular.verify_phi1(2)
    elif workload == "monte-carlo":
        annular.mc_moment("GUE", 2, 2, samples=100, seed=0)
    else:
        from workloads import call_cli

        call_cli(["moment", "--ensemble", "gue", "--order", "2", "--symbolic"])


# Speed probe.  The host's speed drifts by tens of percent within seconds,
# so a SIGALRM handler times a fixed pure-Python loop every
# PROBE_INTERVAL_S while tasks run, interleaved even with a call that takes
# many seconds.  Each task's time, less the probes inside it, is scaled by
# PROBE_REFERENCE_S / (median probe time within PROBE_WINDOW_S of it): it
# reads as seconds on a host where the probe takes PROBE_REFERENCE_S.
PROBE_ITERATIONS = 30_000
PROBE_REFERENCE_S = 0.002
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.1


def probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the probe on a wall-clock timer while the block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(seconds less the probes inside, the same scaled to the reference)."""
        busy = end - start - sum(d for t, d in self.samples if start <= t <= end)
        near = [
            d
            for t, d in self.samples
            if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S
        ]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return busy, busy * PROBE_REFERENCE_S / statistics.median(near)


def setup(workload: str) -> dict:
    with SpeedProbe() as speed:
        start = time.perf_counter()
        import annular  # noqa: F401

        _trivial_call(workload)
        end = time.perf_counter()
    raw, scaled = speed.scaled(start, end)
    return {"setup_s": scaled, "raw_setup_s": raw}


def _timed(tasks) -> tuple[list, list, list, float, dict]:
    """Run every task once under the speed probe.

    Returns the outputs, raw and scaled latencies in ms (probes excluded),
    the elapsed seconds with probes included, and the errors raised.
    """
    outputs, spans, errors = [], [], {}
    with SpeedProbe() as speed:
        for task in tasks:
            start = time.perf_counter()
            try:
                out = task.call()
            except Exception as exc:  # a failing task is counted, not fatal
                out = None
                errors[task.key] = f"raised {type(exc).__name__}: {exc}"
            spans.append((start, time.perf_counter()))
            outputs.append(out)
    raw, scaled = [], []
    for start, end in spans:
        busy, busy_scaled = speed.scaled(start, end)
        raw.append(busy * 1e3)
        scaled.append(busy_scaled * 1e3)
    elapsed = sum(end - start for start, end in spans)
    return outputs, raw, scaled, elapsed, errors


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten tasks beyond it, and its value.

    A pass of ten tasks or fewer has no such percentile; its slowest task
    is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_pass(
    workload: str,
    seed: int,
    index: int,
    scale: str,
    traced: bool,
    spans_path: str | None,
    inject_fault: bool,
) -> dict:
    import numpy

    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference.get(workloads.reference_section(workload), {})
    tasks = workloads.build_tasks(workload, seed, index, scale)

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, raw, latencies, elapsed, errors = _timed(tasks)
    wall = sum(latencies) / 1e3
    if tracer is not None:
        tracer.uninstall()

    if inject_fault:
        outputs[0] = workloads.corrupt(outputs[0])
    failures = []
    for task, out in zip(tasks, outputs):
        reason = errors.get(task.key)
        if reason is None:
            try:
                reason = workloads.check(task, out, reference)
                if reason is None and task.meta.get("repro"):
                    again = task.call()  # untimed: same (seed, samples)
                    if again.mean != out.mean:
                        reason = f"same (seed, samples) gave mean {again.mean} != {out.mean}"
            except Exception as exc:  # an output of an unexpected shape
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append([task.key, reason])

    percentile, tail = _tail(latencies)
    result = {
        "wall_s": wall,
        "raw_wall_s": sum(raw) / 1e3,
        "task_p50_ms": statistics.median(latencies),
        "task_tail_ms": tail,
        "tail_percentile": percentile,
        "tasks": len(tasks),
        "latencies_ms": [[t.key, ms] for t, ms in zip(tasks, latencies)],
        "failures": failures,
        "peak_rss_mb": _rss_mb(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = {
            "elapsed_s": elapsed,
            "self_s": tracer.self_times(),
            "top_level_s": tracer.top_level_time(),
            "yielded": tracer.yielded_by_stream(),
            "kept_scanned": tracer.kept_scanned(),
            "spans": len(tracer.spans),
            "bijection_reports": tracer.reports(),
            "absent": tracer.absent,
        }
        if spans_path:
            Path(spans_path).write_text(json.dumps(tracer.dump()))
    return result


def micro(seed: int) -> dict:
    from micro import Micro

    bench = Micro(seed)
    try:
        metrics = bench.run()
    except Exception as exc:  # reported as a failure by run.py
        bench.failures.append(f"microbenchmarks raised {type(exc).__name__}: {exc}")
        metrics = bench.metrics
    return {
        "metrics": metrics,
        "failures": bench.failures,
        "attempted": max(bench.attempted, 1),
    }


def record_reference(path: str) -> dict:
    import workloads

    out: dict[str, dict] = {}
    for scale in ("full", "small"):
        for section, tasks in workloads.reference_tasks(scale).items():
            entries = out.setdefault(section, {})
            for task in tasks:
                output = task.call()
                reason = task.extra_check(output)
                if reason is not None:
                    raise SystemExit(f"refusing to record {task.key}: {reason}")
                entries[task.key] = task.summarize(output)
    for key, entry in out["moments"].items():
        if entry != out["moments"][key.replace("/wick", "/genus")]:
            raise SystemExit(f"refusing to record: wick and genus differ at {key}")
    for key, entry in out["cli"].items():
        if entry["code"] != 0:
            raise SystemExit(f"refusing to record: {key} exits {entry['code']}")
    Path(path).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return {"recorded": {k: len(v) for k, v in out.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p = sub.add_parser("pass")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("index", type=int)
    p.add_argument("--scale", choices=("full", "small"), default="full")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--inject-fault", action="store_true")
    p = sub.add_parser("micro")
    p.add_argument("seed", type=int)
    p = sub.add_parser("reference")
    p.add_argument("path")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    if args.mode == "setup":
        result = setup(args.workload)
    elif args.mode == "pass":
        result = run_pass(
            args.workload,
            args.seed,
            args.index,
            args.scale,
            args.traced,
            args.spans,
            args.inject_fault,
        )
    elif args.mode == "micro":
        result = micro(args.seed)
    else:
        result = record_reference(args.path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
