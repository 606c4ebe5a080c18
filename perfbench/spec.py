"""The benchmark's workloads and metrics: the single source of BENCHMARK.json.

``python3 perfbench/run.py --write-spec`` regenerates BENCHMARK.json from
the tables below; the self-test checks that the committed file matches and
that a run prints exactly these metric names.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    (
        "moments",
        "wick and genus routes for all four ensembles up to the order caps; "
        "streams/maps/perms/frames/polynomial do the work, LUE 8 genus filters "
        "2,027,025 pairings to keep 40,320",
    ),
    (
        "verify",
        "every bijection driver at its largest capped size; noncrossing, "
        "bijections and the brute-force signed_symmetric_permutations stream "
        "work, polynomial and montecarlo do none",
    ),
    (
        "monte-carlo",
        "mc_moment at the four criterion-11 configurations, 100k samples each; "
        "numpy sampling only, so combinatorics changes should leave it unchanged",
    ),
    (
        "cli-queries",
        "seeded stream of small CLI requests via annular.cli.main; per-call setup "
        "and the cli layer; classify capped at [8] and signed [4], since larger "
        "inputs exit 1 by contract",
    ),
]

# name, unit, better, bound (share of the parent's median).  The host's
# speed drifts by tens of percent; times are scaled by the speed probe
# (worker.py), and each bound is at least three times the largest spread
# (quartile distance over median) seen in ten runs of any workload.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("task_p50_ms", "ms", "lower", 0.25),
    ("task_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Traced layers: spans are recorded around these public entry points.
TRACED_LAYERS = (
    "streams",
    "maps",
    "noncrossing",
    "bijections",
    "polynomial",
    "moments",
    "montecarlo",
    "cli",
)

STREAMS = (
    "pairings",
    "pairings_of",
    "signed_pairings",
    "signed_symmetric_pairings",
    "permutations",
    "permutations_of",
    "signed_symmetric_permutations",
)

# maps family builders whose kept/scanned ratio is reported.
FILTERED_FAMILIES = (
    "family_a_tilde_counts",
    "family_b_tilde_counts",
    "family_b_counts",
    "family_a_tilde",
    "family_b_tilde",
    "family_b_hat",
)

NC_TAGS = (
    "NC",
    "NC2",
    "NCdelta",
    "NC2delta",
    "NC2T",
    "NC2K",
    "NC2delta_bip",
    "NC2T_bip",
    "NC2K_bip",
    "NCdelta_p",
    "NCT_p",
    "NCK_p",
)

ENSEMBLES = ("GUE", "GOE", "LUE", "LOE")


def _per_layer() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    add = rows.append
    # streams
    for name in ("pairings", "signed_symmetric_pairings", "permutations"):
        add((f"streams.{name}.elems_per_s", "1/s", "higher"))
    add(("streams.signed_symmetric_permutations.s", "s", "lower"))
    for name in STREAMS:
        add((f"streams.{name}.yielded", "count", "lower"))
    # perms
    for op in (
        "compose",
        "inverse",
        "num_cycles",
        "restricted_cycle_count",
        "from_cycles",
        "parse_cycles",
    ):
        add((f"perms.{op}.ops_per_s", "1/s", "higher"))
    # frames
    for op in ("tau2", "full_cycle", "annulus_cycle", "torus_frame", "klein_frame"):
        add((f"frames.{op}.us_per_call", "us", "lower"))
    # maps
    for fam in ("a", "b", "a_tilde", "b_tilde"):
        add((f"maps.family_{fam}_counts.s", "s", "lower"))
    for op in (
        "orientable_genus",
        "nonorientable_euler_genus",
        "orientable_white_grade",
        "nonorientable_white_grade",
    ):
        add((f"maps.{op}.ops_per_s", "1/s", "higher"))
    for fam in FILTERED_FAMILIES:
        add((f"maps.{fam}.kept_per_scanned", "ratio", "higher"))
        add((f"maps.{fam}.kept", "count", "higher"))
        add((f"maps.{fam}.scanned", "count", "lower"))
    # noncrossing
    for tag in NC_TAGS:
        add((f"noncrossing.family_nc.s.{tag}", "s", "lower"))
    for op in ("is_noncrossing", "is_delta_symmetric"):
        add((f"noncrossing.{op}.ops_per_s", "1/s", "higher"))
    add(("noncrossing.family_nc.kept_per_scanned", "ratio", "higher"))
    add(("noncrossing.family_nc.kept", "count", "higher"))
    add(("noncrossing.family_nc.scanned", "count", "lower"))
    # bijections
    add(("bijections.reports", "count", "higher"))
    # polynomial (control)
    for op in ("construct", "evaluate", "to_json_dict"):
        add((f"polynomial.{op}.ops_per_s", "1/s", "higher"))
    # moments
    for ens in ENSEMBLES:
        add((f"moments.wick_s.{ens}", "s", "lower"))
    for ens in ENSEMBLES:
        add((f"moments.genus_s.{ens}", "s", "lower"))
    add(("moments.oracle_s", "s", "lower"))
    # montecarlo
    for ens in ENSEMBLES:
        add((f"montecarlo.samples_per_s.{ens}", "1/s", "higher"))
    # cli
    add(("cli.classify_permutation.ms_p50", "ms", "lower"))
    add(("cli.main.overhead_ms_p50", "ms", "lower"))
    add(("cli.output_bytes", "count", "lower"))
    # traced run
    for layer in TRACED_LAYERS:
        add((f"{layer}.self_pct", "%", "lower"))
    add(("trace.unattributed_pct", "%", "lower"))
    add(("trace.wall_s", "s", "lower"))
    add(("trace.untraced_wall_s", "s", "lower"))
    add(("trace.overhead_s", "s", "lower"))
    add(("trace.spans", "count", "lower"))
    add(("trace.absent_entry_points", "count", "lower"))
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
