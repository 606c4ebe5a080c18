"""Per-layer microbenchmarks: timed public calls on pre-generated inputs.

Inputs are built from the workload seed before any timing starts.  Every
measurement first makes one untimed warm-up call (at the same size, or a
smaller one for the calls that take about a second), then times repeated
batches until ``MIN_TIME`` has passed and reports the median batch.
Sizes are fixed here; README.md lists them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import annular
import annular.cli
import annular.frames
import annular.maps
import annular.noncrossing
import annular.perms
import annular.streams

from workloads import call_cli, derived_seed, rng_for

MIN_TIME = 0.15
MIN_REPS = 3

PERM_SIZE = 8  # permutations of ±[8]
BATCH = 200


def _rate(fn, items) -> float:
    """Median calls per second of ``fn`` over the batch ``items``."""
    for x in items:  # warm-up
        fn(x)
    rates = []
    spent = 0.0
    while spent < MIN_TIME or len(rates) < MIN_REPS:
        start = time.perf_counter()
        for x in items:
            fn(x)
        elapsed = time.perf_counter() - start
        spent += elapsed
        rates.append(len(items) / elapsed)
    return statistics.median(rates)


def _seconds(fn, warm=None, reps: int = 1) -> float:
    """Median seconds of ``fn()`` after one warm-up call of ``warm or fn``."""
    (warm or fn)()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _sample(rng, items, k):
    items = list(items)
    return [items[rng.randrange(len(items))] for _ in range(k)]


def _drain(stream) -> int:
    count = 0
    for _ in stream:
        count += 1
    return count


class Micro:
    """Runs every microbenchmark; ``failures`` collects wrong results."""

    def __init__(self, seed: int):
        self.seed = seed
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def _expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got}, expected {want}")

    def run(self) -> dict[str, float]:
        for section in (
            self.streams,
            self.perms,
            self.frames,
            self.maps,
            self.noncrossing,
            self.polynomial,
            self.moments,
            self.montecarlo,
            self.cli,
        ):
            section()
        return self.metrics

    # -- streams -------------------------------------------------------

    def streams(self) -> None:
        m = self.metrics
        s = annular.streams
        for name, call, warm, want in (
            ("pairings", lambda: s.pairings(14), lambda: s.pairings(10), 135135),
            (
                "signed_symmetric_pairings",
                lambda: s.signed_symmetric_pairings(10, cap=20),
                lambda: s.signed_symmetric_pairings(6),
                30240,
            ),
            ("permutations", lambda: s.permutations(8), lambda: s.permutations(6), 40320),
        ):
            _drain(warm())
            start = time.perf_counter()
            count = _drain(call())
            m[f"streams.{name}.elems_per_s"] = count / (time.perf_counter() - start)
            self._expect(f"streams.{name} size", count, want)
        counts = []
        m["streams.signed_symmetric_permutations.s"] = _seconds(
            lambda: counts.append(_drain(s.signed_symmetric_permutations(4))), reps=3
        )
        self._expect("signed_symmetric_permutations(4) size", counts[-1], 105)

    # -- perms ---------------------------------------------------------

    def perms(self) -> None:
        p = annular.perms
        rng = rng_for("micro-perms", self.seed)
        ground = p.signed_ground(PERM_SIZE)
        size = 2 * PERM_SIZE
        perms = []
        for _ in range(BATCH):
            image = list(range(size))
            rng.shuffle(image)
            perms.append(p.Permutation(ground, image))
        pairs = list(zip(perms, perms[1:] + perms[:1]))
        # restricted_cycle_count needs an invariant subset: these keep the
        # negatives (indices below PERM_SIZE) and the positives apart
        split = []
        for _ in range(BATCH):
            low, high = list(range(PERM_SIZE)), list(range(PERM_SIZE, size))
            rng.shuffle(low)
            rng.shuffle(high)
            split.append(p.Permutation(ground, low + high))
        positives = tuple(range(1, PERM_SIZE + 1))
        cycles = [(ground, x.cycles()) for x in perms]
        texts = [x.cycle_string() for x in perms]
        m = self.metrics
        m["perms.compose.ops_per_s"] = _rate(lambda q: p.compose(*q), pairs)
        m["perms.inverse.ops_per_s"] = _rate(p.inverse, perms)
        m["perms.num_cycles.ops_per_s"] = _rate(p.num_cycles, perms)
        m["perms.restricted_cycle_count.ops_per_s"] = _rate(
            lambda x: p.restricted_cycle_count(x, positives), split
        )
        m["perms.from_cycles.ops_per_s"] = _rate(
            lambda c: p.Permutation.from_cycles(*c), cycles
        )
        m["perms.parse_cycles.ops_per_s"] = _rate(
            lambda t: p.parse_cycles(t, ground), texts
        )
        self._expect(
            "parse_cycles round trip", [p.parse_cycles(t, ground) for t in texts], perms
        )

    # -- frames --------------------------------------------------------

    def frames(self) -> None:
        f = annular.frames
        n = 8
        rng = rng_for("micro-frames", self.seed)
        torus_uv = _sample(rng, [(u, v) for u in range(1, n) for v in range(u + 1, n)], 50)
        klein_uv = _sample(
            rng, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], 50
        )
        sizes = [n] * 50
        m = self.metrics
        for name, fn, items in (
            ("tau2", f.tau2, sizes),
            ("full_cycle", f.full_cycle, sizes),
            ("annulus_cycle", f.annulus_cycle, sizes),
            ("torus_frame", lambda uv: f.torus_frame(n, *uv), torus_uv),
            ("klein_frame", lambda uv: f.klein_frame(n, *uv), klein_uv),
        ):
            m[f"frames.{name}.us_per_call"] = 1e6 / _rate(fn, items)

    # -- maps ----------------------------------------------------------

    def maps(self) -> None:
        mp = annular.maps
        s = annular.streams
        m = self.metrics
        # family histograms at the sizes the genus route uses; a_tilde at
        # LUE order 7 because order 8 alone takes ~16 s (its cost is in the
        # moments workload's wall_s)
        for name, call, warm, total in (
            ("a", lambda: mp.family_a_counts(12), lambda: mp.family_a_counts(8), 10395),
            (
                "b",
                lambda: mp.family_b_counts(10, cap=20),
                lambda: mp.family_b_counts(6),
                30240 - 945,
            ),
            (
                "a_tilde",
                lambda: mp.family_a_tilde_counts(7, cap=14),
                lambda: mp.family_a_tilde_counts(5, cap=10),
                5040,
            ),
            (
                "b_tilde",
                lambda: mp.family_b_tilde_counts(5, cap=20),
                lambda: mp.family_b_tilde_counts(3, cap=12),
                None,
            ),
        ):
            result = []
            m[f"maps.family_{name}_counts.s"] = _seconds(
                lambda: result.append(call()), warm=warm
            )
            if total is not None:
                self._expect(f"family_{name}_counts total", sum(result[-1].values()), total)
        rng = rng_for("micro-maps", self.seed)
        pairings12 = list(s.pairings(12))
        twisted10 = [t for t in s.signed_symmetric_pairings(10, cap=20) if mp.has_twist(t)]
        bipartite12 = [q for q in pairings12 if mp.is_bipartite_pairing(q)]
        bipartite_signed8 = [
            t for t in s.signed_symmetric_pairings(8) if mp.is_bipartite_signed_pairing(t)
        ]
        for name, fn, pool in (
            ("orientable_genus", mp.orientable_genus, pairings12),
            ("nonorientable_euler_genus", mp.nonorientable_euler_genus, twisted10),
            ("orientable_white_grade", mp.orientable_white_grade, bipartite12),
            ("nonorientable_white_grade", mp.nonorientable_white_grade, bipartite_signed8),
        ):
            m[f"maps.{name}.ops_per_s"] = _rate(fn, _sample(rng, pool, BATCH))

    # -- noncrossing ---------------------------------------------------

    def noncrossing(self) -> None:
        nc = annular.noncrossing
        m = self.metrics
        # sizes of the verify workload; NC/NC2/NCdelta are only reached by
        # `enumerate`, so they use sizes near a second or less
        sizes = {
            "NC": (7, None, 429),
            "NC2": (10, None, 42),
            "NCdelta": (4, None, 29),
            "NC2delta": (8, None, 93),
            "NC2T": (10, None, 420),
            "NC2K": (8, None, 304),
            "NC2delta_bip": (8, 4, 29),
            "NC2T_bip": (8, 4, 10),
            "NC2K_bip": (8, 4, 32),
            "NCdelta_p": (4, 4, 29),
            "NCT_p": (4, 4, 10),
            "NCK_p": (4, 4, 32),
        }
        for tag, (n, max_p, want) in sizes.items():
            if max_p is None:
                ids = [nc.NCFamilyId(tag, n)]
                warm_ids = [nc.NCFamilyId(tag, n - 2)]
            else:
                ids = [nc.NCFamilyId(tag, n, p) for p in range(1, max_p + 1)]
                warm_ids = [nc.NCFamilyId(tag, n - 2, 1)]
            sizes_seen = []
            m[f"noncrossing.family_nc.s.{tag}"] = _seconds(
                lambda: sizes_seen.append(sum(len(nc.family_nc(i)) for i in ids)),
                warm=lambda: [nc.family_nc(i) for i in warm_ids],
            )
            self._expect(f"family_nc {tag}({n}) size", sizes_seen[-1], want)
        rng = rng_for("micro-noncrossing", self.seed)
        gamma = annular.frames.full_cycle(10)
        pairings10 = _sample(rng, annular.streams.pairings(10), BATCH)
        m["noncrossing.is_noncrossing.ops_per_s"] = _rate(
            lambda q: nc.is_noncrossing(q, gamma), pairings10
        )
        ground = annular.perms.signed_ground(4)
        mixed = _sample(rng, annular.streams.signed_symmetric_permutations(4), BATCH // 2)
        for _ in range(BATCH // 2):
            image = list(range(8))
            rng.shuffle(image)
            mixed.append(annular.perms.Permutation(ground, image))
        m["noncrossing.is_delta_symmetric.ops_per_s"] = _rate(nc.is_delta_symmetric, mixed)

    # -- polynomial ----------------------------------------------------

    def polynomial(self) -> None:
        poly = annular.wick_moment("LOE", 4)
        terms = poly.terms
        cls = type(poly)
        rng = rng_for("micro-polynomial", self.seed)
        points = [(rng.randint(2, 50), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for _ in range(BATCH)]
        polys = [poly] * BATCH
        m = self.metrics
        m["polynomial.construct.ops_per_s"] = _rate(cls, [terms] * BATCH)
        m["polynomial.evaluate.ops_per_s"] = _rate(lambda nc: poly.evaluate(*nc), points)
        m["polynomial.to_json_dict.ops_per_s"] = _rate(lambda q: q.to_json_dict(), polys)
        self._expect("polynomial round trip", cls.from_json_dict(poly.to_json_dict()), poly)

    # -- moments -------------------------------------------------------

    def moments(self) -> None:
        m = self.metrics
        # caps of the moments workload; the genus route at LUE order 7 (see maps)
        wick_orders = {"GUE": 12, "GOE": 10, "LUE": 8, "LOE": 5}
        genus_orders = {"GUE": 12, "GOE": 10, "LUE": 7, "LOE": 5}
        results = {}
        for ens, order in wick_orders.items():
            m[f"moments.wick_s.{ens}"] = _seconds(
                lambda: results.__setitem__(("wick", ens), annular.wick_moment(ens, order)),
                warm=lambda: annular.wick_moment(ens, order - 2),
            )
        for ens, order in genus_orders.items():
            m[f"moments.genus_s.{ens}"] = _seconds(
                lambda: results.__setitem__(
                    ("genus", ens), annular.genus_expansion_moment(ens, order)
                ),
                warm=lambda: annular.genus_expansion_moment(ens, order - 2),
            )
            if order == wick_orders[ens]:
                self._expect(
                    f"{ens} {order} wick == genus",
                    results[("genus", ens)],
                    results[("wick", ens)],
                )
        oracle = []
        m["moments.oracle_s"] = _seconds(
            lambda: oracle.append(annular.wick_oracle_smallN("GOE", 6, 5)),
            warm=lambda: annular.wick_oracle_smallN("GOE", 4, 5),
        )
        self._expect(
            "GOE 6 oracle at N=5", oracle[-1], annular.wick_moment("GOE", 6).evaluate(5)
        )

    # -- montecarlo ----------------------------------------------------

    def montecarlo(self) -> None:
        samples = 16384
        for i, (ens, order, n_dim, m_dim) in enumerate(
            (("GUE", 4, 10, None), ("GOE", 4, 10, None), ("LUE", 2, 10, 20), ("LOE", 2, 10, 20))
        ):
            seed = derived_seed("micro-montecarlo", self.seed, i)
            elapsed = _seconds(
                lambda: annular.mc_moment(ens, order, n_dim, m_dim, samples=samples, seed=seed),
                warm=lambda: annular.mc_moment(ens, order, n_dim, m_dim, samples=200, seed=seed),
                reps=3,
            )
            self.metrics[f"montecarlo.samples_per_s.{ens}"] = samples / elapsed

    # -- cli -----------------------------------------------------------

    def cli(self) -> None:
        rng = rng_for("micro-cli", self.seed)
        requests = []
        for _ in range(24):
            signed = rng.random() < 0.25
            n = rng.randint(2, 3) if signed else rng.randint(4, 7)
            labels = list(range(-n, 0)) + list(range(1, n + 1)) if signed else list(range(1, n + 1))
            ground = annular.perms.signed_ground(n) if signed else annular.perms.unsigned_ground(n)
            image = list(range(len(labels)))
            rng.shuffle(image)
            text = annular.perms.Permutation(ground, image).cycle_string() or "(1)"
            requests.append((text, n, signed))
        classify = annular.cli.classify_permutation
        for text, n, signed in requests[:4]:  # warm-up
            classify(text, n, signed=signed)
        lib_ms, overhead_ms, output_bytes = [], [], 0
        for text, n, signed in requests:
            argv = ["classify", "--perm", text, "--n", str(n)] + (["--signed"] if signed else [])
            start = time.perf_counter()
            classify(text, n, signed=signed)
            lib = time.perf_counter() - start
            start = time.perf_counter()
            code, out = call_cli(argv)
            whole = time.perf_counter() - start
            self._expect(f"classify {text} exit code", code, 0)
            lib_ms.append(lib * 1e3)
            overhead_ms.append((whole - lib) * 1e3)
            output_bytes += len(out.encode())
        m = self.metrics
        m["cli.classify_permutation.ms_p50"] = statistics.median(lib_ms)
        m["cli.main.overhead_ms_p50"] = statistics.median(overhead_ms)
        m["cli.output_bytes"] = output_bytes
