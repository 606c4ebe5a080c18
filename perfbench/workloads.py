"""Task lists of the four workloads, run through the public API and checked.

A task is one call into the program (a moment route, a verification
driver, one Monte Carlo estimate, one CLI request).  Every input is built
here from the workload seed, outside the timed region; the program only
receives the generated inputs.  Calls look names up on the ``annular``
modules at call time, so the tracer's wrappers see them.

Each task's output is reduced to a ``summary`` (digests of the payloads,
sizes, exit codes) that is compared with ``reference.json``, recorded from
the seed commit by ``run.py --record-reference``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable

import annular
import annular.cli

# Fixed here, not read from the program, so a later cap lift does not
# silently grow the workload.
ORDER_CAPS = {"GUE": 12, "GOE": 10, "LUE": 8, "LOE": 5}
SMALL_ORDER_CAPS = {"GUE": 6, "GOE": 4, "LUE": 4, "LOE": 3}

# Criterion-11 configurations: (ensemble, order, N, M).
MC_CONFIGS = (
    ("GUE", 4, 10, None),
    ("GOE", 4, 10, None),
    ("LUE", 2, 10, 20),
    ("LOE", 2, 10, 20),
)
MC_SAMPLES = {"full": 100_000, "small": 10_000}
MC_Z_LIMIT = 4.0

GRADED_DRIVERS = (
    "verify_phi1_tilde",
    "verify_phi2_tilde",
    "verify_a_tilde_equality",
    "verify_phi1_hat",
    "verify_phi2_hat",
    "verify_a_hat_equality",
)


@dataclasses.dataclass
class Task:
    """One call into the program and how to judge its output.

    ``summarize`` reduces the output to what ``reference.json`` stores;
    ``extra_check`` adds invariants that need no reference (verified
    reports, |z| bounds) and returns a failure reason or None.
    """

    key: str
    call: Callable[[], Any]
    summarize: Callable[[Any], dict]
    extra_check: Callable[[Any], str | None] = lambda out: None
    referenced: bool = True
    meta: dict = dataclasses.field(default_factory=dict)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def derived_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:15], 16)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _polys_summary(polys) -> dict:
    return {"digests": [digest(poly.to_json_dict()) for poly in polys]}


ROUTES = {"wick": "wick_moment", "genus": "genus_expansion_moment"}


def moments_tasks(seed: int, pass_index: int, scale: str) -> list[Task]:
    """One task per (ensemble, route): every order from 1 to the cap.

    A task's latency is the route's total for that ensemble.  The inputs
    are the same for every seed, in a fixed order.
    """
    caps = ORDER_CAPS if scale == "full" else SMALL_ORDER_CAPS
    tasks = []
    for ens, cap in caps.items():
        for route, fn_name in ROUTES.items():

            def call(fn_name=fn_name, ens=ens, cap=cap):
                fn = getattr(annular, fn_name)
                return [fn(ens, order) for order in range(1, cap + 1)]

            tasks.append(Task(f"{ens}/{cap}/{route}", call, _polys_summary))
    return tasks


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _reports_of(out) -> list:
    return list(out) if isinstance(out, tuple) else [out]


def _report_summary(out) -> dict:
    reports = _reports_of(out)
    return {
        "digest": digest([r.to_payload() for r in reports]),
        "sizes": [[r.domain_size, r.codomain_size] for r in reports],
    }


def _report_check(out) -> str | None:
    for r in _reports_of(out):
        if not r.verified:
            return f"{r.name} n={r.n} not verified"
        if r.domain_size != r.codomain_size:
            return f"{r.name} n={r.n}: {r.domain_size} != {r.codomain_size}"
    return None


def _conjecture_summary(rows) -> dict:
    return {"digest": digest([row.to_payload() for row in rows])}


def verify_tasks(seed: int, pass_index: int, scale: str) -> list[Task]:
    if scale == "full":
        pairing_n, torus_n, graded_n, lemma_n, conj_n = 8, 10, 4, 4, 3
    else:
        pairing_n, torus_n, graded_n, lemma_n, conj_n = 4, 6, 2, 2, 2
    specs = [
        (f"verify_phi1({pairing_n})", "verify_phi1", (pairing_n,)),
        (f"verify_phi2({pairing_n})", "verify_phi2", (pairing_n,)),
        (f"verify_torus_equality({torus_n})", "verify_torus_equality", (torus_n,)),
    ]
    for name in GRADED_DRIVERS:
        for p in range(1, graded_n + 1):
            specs.append((f"{name}({graded_n},{p})", name, (graded_n, p)))
    specs.append((f"verify_lemma3({lemma_n})", "verify_lemma3", (lemma_n,)))
    tasks = []
    for key, fn_name, args in specs:

        def call(fn_name=fn_name, args=args):
            return getattr(annular, fn_name)(*args)

        tasks.append(Task(key, call, _report_summary, _report_check))

    def conj(n=conj_n):
        return annular.conjecture_table(n)

    tasks.append(Task(f"conjecture_table({conj_n})", conj, _conjecture_summary))
    rng_for("verify", seed, pass_index).shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def _mc_summary(est) -> dict:
    return {"mean": est.mean, "std_error": est.std_error}


def monte_carlo_tasks(seed: int, pass_index: int, scale: str) -> list[Task]:
    """The four configurations; exact values are computed here, untimed.

    One configuration per pass (rotating with the pass index) is marked
    for the reproducibility check: the worker recomputes it untimed with
    the same (seed, samples) and requires the identical mean.
    """
    samples = MC_SAMPLES[scale]
    tasks = []
    for i, (ens, order, n_dim, m_dim) in enumerate(MC_CONFIGS):
        c = Fraction(m_dim, n_dim) if m_dim else Fraction(1)
        exact = float(annular.wick_moment(ens, order).evaluate(n_dim, c))
        mc_seed = derived_seed("monte-carlo", seed, pass_index, i)

        def call(ens=ens, order=order, n_dim=n_dim, m_dim=m_dim, mc_seed=mc_seed):
            return annular.mc_moment(
                ens, order, n_dim, m_dim, samples=samples, seed=mc_seed
            )

        def check(est, exact=exact):
            if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
                return "non-finite estimate"
            if est.std_error <= 0:
                return "non-positive standard error"
            z = (est.mean - exact) / est.std_error
            if abs(z) > MC_Z_LIMIT:
                return f"|z| = {abs(z):.2f} > {MC_Z_LIMIT}"
            return None

        tasks.append(
            Task(
                f"mc_moment({ens},{order},N={n_dim},M={m_dim})",
                call,
                _mc_summary,
                check,
                referenced=False,
                meta={"repro": i == pass_index % len(MC_CONFIGS)},
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# cli queries
# ---------------------------------------------------------------------------

def _cycle_string(labels, image_of) -> str:
    """Cycle notation of a permutation given as a label -> label dict."""
    seen = set()
    parts = []
    for x in labels:
        if x in seen or image_of[x] == x:
            continue
        cyc = [x]
        seen.add(x)
        y = image_of[x]
        while y != x:
            cyc.append(y)
            seen.add(y)
            y = image_of[y]
        parts.append("(" + ",".join(str(v) for v in cyc) + ")")
    return "".join(parts) or f"({labels[0]})"


def _all_pairings(labels):
    if not labels:
        yield {}
        return
    first, rest = labels[0], labels[1:]
    for i, partner in enumerate(rest):
        for tail in _all_pairings(rest[:i] + rest[i + 1 :]):
            out = dict(tail)
            out[first], out[partner] = partner, first
            yield out


def _mirror_symmetric_permutations(n: int) -> list[dict]:
    """τ on ±[n] with τ₀ττ₀ = τ⁻¹ and τ₀τ fixed-point free.

    Built as τ = τ₀σ for σ ranging over the pairings of ±[n]; this is
    the benchmark's own construction, independent of the program's
    streams, so the query pool never depends on the code under test.
    """
    labels = list(range(-n, 0)) + list(range(1, n + 1))
    return [{x: -sigma[x] for x in labels} for sigma in _all_pairings(labels)]


def _cycle_count(perm: dict) -> int:
    seen, count = set(), 0
    for x in perm:
        if x not in seen:
            count += 1
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def _is_bipartite(pairing: dict) -> bool:
    return all((a - b) % 2 for a, b in pairing.items())


def _random_permutation(rng: random.Random, n: int) -> dict:
    labels = list(range(1, n + 1))
    image = labels[:]
    rng.shuffle(image)
    return dict(zip(labels, image))


def _classify_argv(perm: dict, n: int, signed: bool) -> tuple[str, ...]:
    labels = sorted(perm, key=lambda x: (abs(x), x)) if signed else sorted(perm)
    argv = ("classify", "--perm", _cycle_string(labels, perm), "--n", str(n))
    return argv + ("--signed",) if signed else argv


def _enumerate_pool() -> list[tuple[str, ...]]:
    specs = []
    for n in (4, 6, 8):
        for g in (0, 1):
            specs.append(("a", n, ("--genus", g)))
    for n in (2, 4, 6):
        for k in (1, 2):
            specs.append(("b", n, ("--k", k)))
    for n in (2, 3):
        for p in range(1, n + 1):
            specs.append(("a-tilde", n, ("--genus", 0, "--p", p)))
    for p in (1, 2):
        specs.append(("b-tilde", 2, ("--k", 1, "--p", p)))
    for n in (3, 4, 5):
        for g in (0, 1):
            specs.append(("a-hat", n, ("--genus", g, "--p", 2)))
    for n in (2, 3):
        specs.append(("b-hat", n, ("--k", 1, "--p", 1)))
    for fam, ns in (
        ("nc", (4, 5, 6)),
        ("nc2", (6, 8)),
        ("nc-delta", (2, 3)),
        ("nc2-delta", (4, 6)),
        ("nc2-t", (4, 6)),
        ("nc2-k", (4, 6)),
    ):
        for n in ns:
            specs.append((fam, n, ()))
    for fam, n, ps in (
        ("nc2-delta-bip", 4, (1, 2)),
        ("nc2-t-bip", 6, (1, 2, 3)),
        ("nc2-k-bip", 4, (1, 2)),
        ("nc-delta-p", 3, (1,)),
        ("nc-t-p", 4, (1, 2)),
        ("nc-k-p", 3, (1,)),
    ):
        for p in ps:
            specs.append((fam, n, ("--p", p)))
    return [
        ("enumerate", "--family", fam, "--n", str(n)) + tuple(str(x) for x in extra)
        for fam, n, extra in specs
    ]


def _moment_pool() -> list[tuple[str, ...]]:
    return [
        ("moment", "--ensemble", ens.lower(), "--order", str(order), "--symbolic")
        for ens, cap in ORDER_CAPS.items()
        for order in range(1, cap)
    ]


def _verify_pool() -> list[tuple[str, ...]]:
    pool = []
    for tag in ("phi1", "phi2", "torus-eq"):
        for n in (2, 4, 6):
            pool.append(("verify", "--bijection", tag, "--n", str(n)))
    for tag in (
        "phi1-tilde",
        "phi2-tilde",
        "a-tilde-eq",
        "phi1-hat",
        "phi2-hat",
        "a-hat-eq",
        "lemma3",
    ):
        for n in (1, 2, 3):
            pool.append(("verify", "--bijection", tag, "--n", str(n)))
    return pool


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    """Every request the cli-queries workload can draw, by stratum.

    Fixed by a pool seed of its own, so ``reference.json`` covers it
    whole; the workload seed only chooses which requests a pass sends.
    """
    rng = rng_for("cli-pool", 0)
    pool: dict[str, list[tuple[str, ...]]] = {}
    pool["classify-perm-4"] = sorted(
        _classify_argv(dict(zip(range(1, 5), image)), 4, False)
        for image in itertools.permutations(range(1, 5))
    )
    for n in (5, 6, 7):
        perms = [_random_permutation(rng, n) for _ in range(60)]
        pool[f"classify-perm-{n}"] = sorted({_classify_argv(p, n, False) for p in perms})
    # On [8] a request's cost depends on its cycle count (0.2-1 s), so the
    # pool is split by cycle count and every pass draws the same mix.
    by_cycles: dict[int, set] = {c: set() for c in range(1, 6)}
    while any(len(argvs) < 8 for argvs in by_cycles.values()):
        perm = _random_permutation(rng, 8)
        argvs = by_cycles.get(_cycle_count(perm))
        if argvs is not None and len(argvs) < 8:
            argvs.add(_classify_argv(perm, 8, False))
    for c, argvs in by_cycles.items():
        pool[f"classify-perm-8-c{c}"] = sorted(argvs)
    for n in (4, 6):
        pool[f"classify-pairing-{n}"] = sorted(
            _classify_argv(p, n, False) for p in _all_pairings(list(range(1, n + 1)))
        )
    # Bipartite pairings of [8] also build the bipartite torus family.
    pairings8 = list(_all_pairings(list(range(1, 9))))
    pool["classify-pairing-8-bip"] = sorted(
        _classify_argv(p, 8, False) for p in pairings8 if _is_bipartite(p)
    )
    pool["classify-pairing-8-other"] = sorted(
        _classify_argv(p, 8, False) for p in pairings8 if not _is_bipartite(p)
    )
    for n in (2, 3):
        pool[f"classify-signed-{n}"] = sorted(
            _classify_argv(p, n, True) for p in _mirror_symmetric_permutations(n)
        )
    # On ±[4] the grade (half the cycle count) picks the families built.
    for perm in _mirror_symmetric_permutations(4):
        stratum = f"classify-signed-4-c{_cycle_count(perm)}"
        pool.setdefault(stratum, []).append(_classify_argv(perm, 4, True))
    pool["enumerate"] = _enumerate_pool()
    pool["moment"] = _moment_pool()
    pool["verify"] = _verify_pool()
    return pool


# Requests per pass from each stratum: ALL sends the whole stratum (the
# light requests of a few milliseconds, so that the median request is the
# same kind in every pass); a count draws that many without replacement.
# The [8] and ±[4] strata take most of a pass.
ALL = None
CLI_MIX = {
    "full": {
        "classify-perm-4": ALL,
        "classify-perm-5": ALL,
        "classify-perm-6": ALL,
        "classify-perm-7": 8,
        "classify-perm-8-c1": 1,
        "classify-perm-8-c2": 3,
        "classify-perm-8-c3": 3,
        "classify-perm-8-c4": 1,
        "classify-perm-8-c5": 1,
        "classify-pairing-4": ALL,
        "classify-pairing-6": ALL,
        "classify-pairing-8-bip": 2,
        "classify-pairing-8-other": 6,
        "classify-signed-2": ALL,
        "classify-signed-3": ALL,
        "classify-signed-4-c2": 3,
        "classify-signed-4-c4": 3,
        "classify-signed-4-c6": 2,
        "enumerate": ALL,
        "moment": ALL,
        "verify": ALL,
    },
    "small": {
        "classify-perm-4": 2,
        "classify-perm-5": 2,
        "classify-pairing-4": 2,
        "classify-signed-2": 2,
        "classify-signed-3": 2,
        "enumerate": 4,
        "moment": 4,
        "verify": 3,
    },
}


def cli_key(argv) -> str:
    return " ".join(argv)


def call_cli(argv) -> tuple[int, str]:
    """One request through ``annular.cli.main`` with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = annular.cli.main(list(argv))
    return code, out.getvalue()


def _cli_summary(out) -> dict:
    code, text = out
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return {"code": code, "digest": None}
    return {"code": code, "digest": digest(result)}


def cli_task(argv) -> Task:
    return Task(cli_key(argv), lambda: call_cli(argv), _cli_summary)


def cli_tasks(seed: int, pass_index: int, scale: str) -> list[Task]:
    pool = cli_pool()
    rng = rng_for("cli-queries", seed, pass_index)
    chosen = []
    for stratum, count in CLI_MIX[scale].items():
        argvs = pool[stratum]
        chosen += argvs if count is ALL else rng.sample(argvs, count)
    rng.shuffle(chosen)
    return [cli_task(argv) for argv in chosen]


BUILDERS = {
    "moments": moments_tasks,
    "verify": verify_tasks,
    "monte-carlo": monte_carlo_tasks,
    "cli-queries": cli_tasks,
}


def build_tasks(workload: str, seed: int, pass_index: int, scale: str) -> list[Task]:
    return BUILDERS[workload](seed, pass_index, scale)


def corrupt(output):
    """A deliberately wrong copy of one task output, for the self-test."""
    if isinstance(output, list):  # moment polynomials, one per order
        return [output[0] + annular.MomentPolynomial.monomial(1, 1)] + output[1:]
    if isinstance(output, annular.BijectionReport):
        return dataclasses.replace(output, injective=False)
    if isinstance(output, annular.McEstimate):
        return dataclasses.replace(output, mean=float("nan"))
    if isinstance(output[0], int):  # a CLI (exit code, stdout) pair
        code, text = output
        record = json.loads(text)
        record["result"]["injected"] = True
        return code, json.dumps(record)
    return output[1:]  # lemma3 reports or conjecture rows


def check(task: Task, output, reference: dict) -> str | None:
    """Failure reason for one task's output, or None when it is correct."""
    reason = task.extra_check(output)
    if reason is not None:
        return reason
    if not task.referenced:
        return None
    want = reference.get(task.key)
    if want is None:
        return "no reference output recorded"
    got = task.summarize(output)
    if got != want:
        return f"output differs from reference: {got} != {want}"
    return None


def reference_section(workload: str) -> str:
    return "cli" if workload == "cli-queries" else workload


def reference_tasks(scale: str) -> dict[str, list[Task]]:
    """Every referenced task of every workload, for --record-reference."""
    out = {
        "moments": moments_tasks(0, 0, scale),
        "verify": verify_tasks(0, 0, scale),
    }
    if scale == "full":
        out["cli"] = [cli_task(a) for argvs in cli_pool().values() for a in argvs]
    return out
