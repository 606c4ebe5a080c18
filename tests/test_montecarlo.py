"""Monte Carlo sampling: reproducibility and statistical agreement."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import annular
from annular import montecarlo as mc
from annular.moments import Ensemble, wick_moment
from annular.montecarlo import BLOCK_SIZE, MC_ENTRY_CAP, McEstimate, mc_moment
from annular.streams import CapExceeded

import oracles

#: Dense-route estimates recorded while it was ``mc_moment``'s sampler,
#: as (ensemble, n, N, M, samples, seed, mean, std_error).
DENSE_PINS = (
    ("GUE", 3, 3, None, 8193, 5, 0.06687310561161774, 0.07073971071734698),
    ("GOE", 4, 4, None, 8193, 2026, 14.371007917263936, 0.15104762214101206),
    ("LUE", 3, 3, 5, 8193, 11, 1188.3879796549973, 11.742742625534419),
    ("LOE", 2, 4, 2, 8193, 7, 13.819833292636266, 0.16223463949448316),
    ("GUE", 2, 1, None, 300, 0, 0.47264763840308605, 0.0391008291681587),
    ("LOE", 5, 2, 3, 16401, 1099511627779, 1282.70173832187, 67.1558842617479),
)

#: ``mc_moment`` estimates recorded from the sequential block loop, as
#: (ensemble, n, N, M, samples, seed, mean, std_error): criterion 11's
#: four configurations, then three blocks (the last one ragged) per ensemble.
TRIDIAGONAL_PINS = (
    ("GUE", 4, 10, None, 100_000, 2026, 502.15323375820503, 0.4789037211428047),
    ("GOE", 4, 10, None, 100_000, 2026, 159.04775758808873, 0.20666292362510433),
    ("LUE", 2, 10, 20, 100_000, 2026, 5998.740936717835, 2.81890002342348),
    ("LOE", 2, 10, 20, 100_000, 2026, 1548.848047516463, 1.0385437909162998),
    ("GUE", 3, 3, None, 2 * BLOCK_SIZE + 1, 17, -0.048858341776991776, 0.04998850471941595),
    ("GOE", 5, 4, None, 2 * BLOCK_SIZE + 1, 17, -0.4710078321794157, 0.31076417361004494),
    ("LUE", 3, 3, 5, 2 * BLOCK_SIZE + 1, 17, 1198.0654461388851, 8.50447762794944),
    ("LOE", 3, 4, 2, 2 * BLOCK_SIZE + 1, 17, 65.82659721073662, 1.0663045774774305),
)


def _exact(ensemble, n, N, M=None) -> float:
    c = Fraction(M, N) if M is not None else Fraction(1)
    return float(wick_moment(ensemble, n).evaluate(N, c))


def _dense(ensemble, n, N, M=None, *, samples, seed):
    """The literal route's estimate: Ginibre matrices through the same block loop."""
    return mc._estimate(oracles.ref_dense_traces, ensemble, n, N, M, samples=samples, seed=seed)


def _tridiagonal(diagonal, off):
    """The dense symmetric tridiagonal matrices of a batch."""
    batch, N = diagonal.shape
    t = np.zeros((batch, N, N))
    i = np.arange(N)
    t[:, i, i] = diagonal
    t[:, i[:-1], i[1:]] = off
    t[:, i[1:], i[:-1]] = off
    return t


def test_deterministic_for_fixed_seed():
    a = mc_moment("GUE", 2, 4, samples=4000, seed=99)
    b = mc_moment("GUE", 2, 4, samples=4000, seed=99)
    assert a == b
    c = mc_moment("GUE", 2, 4, samples=4000, seed=100)
    assert c.mean != a.mean


def test_seeds_at_and_above_2_63_give_their_own_streams():
    # the Philox key is built as uint64, not through float64, so seeds
    # 2**63 and 2**63 + 1 differ and 2**64 - 1 is not read as seed 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = {
            seed: mc_moment("GUE", 2, 2, samples=200, seed=seed).mean
            for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)
        }
    assert mean[2**63] != mean[2**63 + 1]
    assert mean[2**64 - 1] != mean[0]


def test_estimate_fields():
    est = mc_moment("LOE", 1, 3, 6, samples=500, seed=1)
    assert est.samples == 500
    assert est.seed == 1
    assert est.dim == 3
    assert est.rect_dim == 6
    assert est.std_error > 0
    payload = est.to_payload()
    assert set(payload) == {"mean", "std_error", "samples", "seed", "dim", "rect_dim"}


def test_gaussian_estimates_near_exact():
    for ens in ("GUE", "GOE"):
        for n, N in ((2, 5), (3, 5), (4, 5), (5, 4), (2, 1), (3, 1), (4, 1)):
            est = mc_moment(ens, n, N, samples=20_000, seed=42)
            assert abs(est.mean - _exact(ens, n, N)) <= 5 * est.std_error, (ens, n, N)


def test_laguerre_estimates_near_exact():
    # M > N, M = N, M < N and N = 1 all reduce to the min(N, M) model.
    shapes = ((4, 8), (4, 4), (5, 3), (1, 1), (1, 3), (3, 1))
    for ens in ("LUE", "LOE"):
        for N, M in shapes:
            for n in (1, 2, 3, 4):
                est = mc_moment(ens, n, N, M, samples=20_000, seed=7)
                exact = _exact(ens, n, N, M)
                assert abs(est.mean - exact) <= 5 * est.std_error, (ens, n, N, M)


def test_block_partition_contract():
    # The estimate is a deterministic function of (seed, samples) with a
    # fixed block layout: extending a run appends block 1 without
    # altering block 0's contribution.
    seed, N, extra_n = 11, 3, 500
    small = _dense("GOE", 2, N, samples=BLOCK_SIZE, seed=seed)
    big = _dense("GOE", 2, N, samples=BLOCK_SIZE + extra_n, seed=seed)
    rng = mc._block_rng(seed, 1)
    g = oracles.ref_draw_real(rng, (extra_n, N, N))
    h = 0.5 * (g + np.transpose(g, (0, 2, 1)))
    extra = oracles.ref_trace_power(h, 2)
    reconstructed = (small.mean * BLOCK_SIZE + extra.sum()) / (BLOCK_SIZE + extra_n)
    assert math.isclose(reconstructed, big.mean, rel_tol=1e-12)


@pytest.mark.parametrize(
    "ensemble, N, M", [("GOE", 3, None), ("GUE", 4, None), ("LOE", 3, 5), ("LUE", 4, 2)]
)
def test_block_partition_contract_tridiagonal(ensemble, N, M):
    # The tridiagonal sampler's documented draw order, rebuilt by hand:
    # block 1 of the longer run is the appended block.
    seed, n, extra_n = 11, 3, 500
    small = mc_moment(ensemble, n, N, M, samples=BLOCK_SIZE, seed=seed)
    big = mc_moment(ensemble, n, N, M, samples=BLOCK_SIZE + extra_n, seed=seed)
    rng = mc._block_rng(seed, 1)
    half_beta = 1.0 if ensemble in ("GUE", "LUE") else 0.5

    def chi(start, stop):  # χ_{βk} for k = start, start − 1, ..., stop + 1
        k = np.arange(start, stop, -1.0)
        return np.sqrt(2 * rng.standard_gamma(half_beta * k, (extra_n, k.size)))

    if M is None:
        diagonal = rng.standard_normal((extra_n, N)) * math.sqrt(0.5)
        t = _tridiagonal(diagonal, 0.5 * chi(N - 1, 0))
    else:
        k, m = min(N, M), max(N, M)
        chi_diagonal, chi_sub = chi(m, m - k), chi(k - 1, 0)
        b = np.zeros((extra_n, k, k))
        i = np.arange(k)
        b[:, i, i] = math.sqrt(0.5) * chi_diagonal
        b[:, i[1:], i[:-1]] = math.sqrt(0.5) * chi_sub
        t = b @ np.transpose(b, (0, 2, 1))
    extra = oracles.ref_trace_power(t, n)
    reconstructed = (small.mean * BLOCK_SIZE + extra.sum()) / (BLOCK_SIZE + extra_n)
    assert math.isclose(reconstructed, big.mean, rel_tol=1e-12)


@pytest.mark.parametrize("pin", DENSE_PINS)
def test_dense_route_reproduces_recorded_estimates(pin):
    ensemble, n, N, M, samples, seed, mean, std_error = pin
    est = _dense(ensemble, n, N, M, samples=samples, seed=seed)
    assert (est.mean, est.std_error) == (mean, std_error)


@pytest.mark.parametrize("pin", TRIDIAGONAL_PINS)
def test_mc_moment_reproduces_recorded_estimates(pin):
    # the blocks may run concurrently; their merge in block order keeps every bit
    ensemble, n, N, M, samples, seed, mean, std_error = pin
    est = mc_moment(ensemble, n, N, M, samples=samples, seed=seed)
    assert (est.mean, est.std_error) == (mean, std_error)


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_estimate_has_the_same_bits_on_any_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for ensemble, n, N, M, samples, seed, mean, std_error in TRIDIAGONAL_PINS[4:]:
        est = mc_moment(ensemble, n, N, M, samples=samples, seed=seed)
        assert (est.mean, est.std_error) == (mean, std_error)


# chunk + 1 and 2·chunk + 1 would end in a lone row with fixed-size chunks,
# and a batch of one row sums its trace in another order
CHUNK_SIZES = [
    1, 2, mc._CHUNK - 1, mc._CHUNK, mc._CHUNK + 1, 2 * mc._CHUNK + 1, 3 * mc._CHUNK + 5, BLOCK_SIZE
]


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["GUE", "GOE", "LUE", "LOE"]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**64 - 1),
)
def test_chunked_traces_equal_one_band_call(size, parity, ensemble, half, N, M, seed):
    # the chunks of a block, ragged last one included, hold the same bits
    ensemble, n = Ensemble.parse(ensemble), 2 * half - parity
    M = M if ensemble.is_laguerre else None
    chunked = mc._tridiagonal_traces(mc._block_rng(seed, 0), ensemble, n, N, M, size)
    draws = mc._draw_tridiagonal(mc._block_rng(seed, 0), ensemble, N, M, size)
    assert np.array_equal(chunked, mc._band_trace_power(*draws, n))


def test_mc_moment_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    mc_moment("GOE", 3, 4, samples=5 * BLOCK_SIZE + 3, seed=8)
    assert threading.active_count() == before


def test_one_block_runs_inline(monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = []

    def sampler(rng, ensemble, n, N, M, size):
        threads.append(threading.current_thread())
        return mc._tridiagonal_traces(rng, ensemble, n, N, M, size)

    mc._estimate(sampler, "GUE", 2, 2, None, samples=100, seed=0)
    assert threads == [threading.main_thread()]


def test_blocks_reuse_one_thread_per_cpu(monkeypatch):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    threads = set()

    def sampler(rng, ensemble, n, N, M, size):
        threads.add(threading.current_thread())
        return np.ones(size)

    mc._estimate(sampler, "GUE", 2, 2, None, samples=20 * BLOCK_SIZE, seed=0)
    assert 1 <= len(threads) <= 2


@pytest.mark.parametrize("N, window", [(MC_ENTRY_CAP // 4 - 2, 1), (MC_ENTRY_CAP // 8 - 2, 2)])
def test_blocks_in_flight_hold_at_most_one_block_at_the_cap(monkeypatch, N, window):
    # GUE order 2 has 4·(N + 2) band entries a sample: the cap, then half of it
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    pools, threads = [], set()

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)

    def sampler(rng, ensemble, n, N, M, size):
        threads.add(threading.current_thread())
        return np.ones(size)

    mc._estimate(sampler, "GUE", 2, N, None, samples=8 * BLOCK_SIZE, seed=0)
    assert pools == ([] if window == 1 else [window])
    assert len(threads) <= window
    if window == 1:
        assert threads == {threading.main_thread()}


def test_importing_annular_loads_no_thread_pool():
    script = "import sys, annular; print('concurrent.futures' in sys.modules)"
    src = str(Path(annular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failing_block_stops_the_run(monkeypatch, cpus):
    started, failure = [], RuntimeError("block 3 failed")
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(mc, "_block_rng", lambda seed, index: index)

    def sampler(index, ensemble, n, N, M, size):
        started.append(index)
        time.sleep(0.01)
        if index == 3:
            raise failure
        return np.ones(size)

    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        mc._estimate(sampler, "GUE", 2, 2, None, samples=20 * BLOCK_SIZE, seed=0)
    assert raised.value is failure
    assert threading.active_count() == before
    assert sorted(started) == list(range(len(started)))
    assert 4 <= len(started) <= 3 + cpus


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("GUE", 2, 4), {"samples": 200, "seed": 1.5}),
        (("GUE", 2, 4), {"samples": 200, "seed": True}),
        (("GUE", 2, 4), {"samples": 10_000.0, "seed": 1}),
        (("GUE", 2, 4), {"samples": True, "seed": 1}),
        (("GUE", 2.0, 4), {"samples": 200, "seed": 1}),
        (("GUE", 2, 4.0), {"samples": 200, "seed": 1}),
        (("LUE", 2, 4, 5.0), {"samples": 200, "seed": 1}),
        (("GUE", 2, np.float64(4)), {"samples": 200, "seed": 1}),
    ],
)
def test_non_integers_are_refused_before_any_draw(args, kwargs):
    calls = []

    def sampler(*block):
        calls.append(block)
        return np.zeros(block[-1])

    ensemble, n, N, *M = args
    with pytest.raises(ValueError, match="must be an integer"):
        mc._estimate(sampler, ensemble, n, N, *(M or [None]), **kwargs)
    assert calls == []


@pytest.mark.parametrize(
    "args, cap",
    [
        (("GUE", 2, 10**9), MC_ENTRY_CAP),
        (("LOE", 10**9, 4, 5), MC_ENTRY_CAP),
        (("LOE", 2, 3, 10**30), 2**53),  # one model of size 3, its χ shapes past float64's
        (("LUE", 2, 10**30, 3), 2**53),
        (("LUE", 1, 2**53 + 1, 1), 2**53),
    ],
    ids=["huge N", "huge n", "huge M", "huge Laguerre N", "Laguerre N past 2**53"],
)
def test_huge_sizes_are_refused_before_any_draw(args, cap):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="above the cap") as raised:
            mc_moment(*args, samples=10**6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert raised.value.requested >= 10**9 and raised.value.cap == cap


def test_a_larger_dimension_of_2_to_the_53_is_drawn():
    # the largest max(N, M) whose χ shapes float64 holds exactly; one more is refused above
    assert mc_moment("LUE", 1, 2**53, 1, samples=100, seed=0).mean > 2**52


@pytest.mark.parametrize(
    "ensemble, n, N, M, entries",
    [
        ("GUE", 2, MC_ENTRY_CAP // 4 - 2, None, MC_ENTRY_CAP),
        ("GUE", 2, MC_ENTRY_CAP // 4 - 1, None, MC_ENTRY_CAP + 4),
        ("GOE", 3, MC_ENTRY_CAP // 5 - 1, None, (MC_ENTRY_CAP // 5 + 1) * 5),  # ⌈n/2⌉
        ("LUE", 4, 10**9, 3, 25),  # the model's size is min(N, M)
        ("LOE", 4, 3, 10**9, 25),
    ],
)
def test_the_entry_cap_counts_one_samples_bands(ensemble, n, N, M, entries):
    calls = []

    def sampler(*block):
        calls.append(block)
        return np.zeros(block[-1])

    if entries > MC_ENTRY_CAP:
        with pytest.raises(CapExceeded, match=f"{entries} band entries a sample, above the cap"):
            mc._estimate(sampler, ensemble, n, N, M, samples=200, seed=1)
        assert calls == []
    else:
        mc._estimate(sampler, ensemble, n, N, M, samples=200, seed=1)
        assert len(calls) == 1


def test_numpy_integers_pass():
    est = mc_moment("GUE", np.int64(2), np.int32(4), samples=np.int64(200), seed=np.uint64(1))
    assert est == mc_moment("GUE", 2, 4, samples=200, seed=1)
    assert type(est.seed) is int and type(est.samples) is int


def _underflow_floor(t, n):
    """The most absolute error gradual underflow adds to Tr Tⁿ, both routes together.

    A sum whose result is subnormal is exact; a product is off by at most
    half the subnormal spacing s on top of its relative error, which the
    relative term bounds.  An error in an entry of T^j reaches the trace
    weighted by at most w_{n−j}, where w_k = 1ᵀ|T|ᵏ1.  The dense route
    forms each entry of T^j (j = 2..n) from N products.  The band route
    forms each band entry of T^j (j = 2..⌈n/2⌉) from 3, which the final
    inner product reads twice, and that product adds (⌊n/2⌋ + 1)·N more,
    doubled off the diagonal.
    """
    batch, N, _ = t.shape
    half = n // 2
    weights = [np.full(batch, float(N))]  # w_0 = 1ᵀI1
    power = np.abs(t)
    for _ in range(n - 2):
        weights.append(power.sum(axis=(1, 2)))
        power = power @ np.abs(t)
    dense = N * sum(weights[: n - 1])
    band = 6 * sum(weights[half : n - 1]) + 2 * (half + 1) * N
    # halve the count, not s: s/2 rounds to 0
    return np.finfo(float).smallest_subnormal * ((dense + band) / 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda N: st.tuples(
            arrays(np.float64, (3, N), elements=st.floats(-4, 4)),
            arrays(np.float64, (3, N - 1), elements=st.floats(-4, 4)),
        )
    ),
    st.integers(1, 9),
)
# a subnormal diagonal: the routes differ by 2 subnormal ulps, 1e-12 * scale is 1 ulp
@example((np.full((3, 2), 2.2e-311), np.full((3, 1), 0.5)), 7)
def test_band_trace_power_matches_dense_power(matrices, n):
    diagonal, off = matrices
    t = _tridiagonal(diagonal, off)
    band = mc._band_trace_power(diagonal, off, n)
    dense = oracles.ref_trace_power(t, n)
    # Both sum the same closed walks in different orders; bound the
    # rounding by the sum of their absolute weights, and the underflow
    # by its own floor.
    scale = oracles.ref_trace_power(np.abs(t), n)
    assert np.all(np.abs(band - dense) <= 1e-12 * scale + _underflow_floor(t, n))


@pytest.mark.parametrize(
    "ensemble, n, N, M",
    [("GUE", 3, 3, None), ("GOE", 4, 3, None), ("LUE", 3, 3, 5), ("LOE", 2, 4, 2)],
)
def test_dense_route_and_mc_moment_agree(ensemble, n, N, M):
    # Two independent samples of one law: the difference of the means
    # has standard error √(se₁² + se₂²).
    dense = _dense(ensemble, n, N, M, samples=20_000, seed=3)
    tri = mc_moment(ensemble, n, N, M, samples=20_000, seed=4)
    assert abs(dense.mean - tri.mean) <= 5 * math.hypot(dense.std_error, tri.std_error)


@pytest.mark.parametrize(
    "ensemble, n, N, M",
    [("GUE", 4, 10, None), ("GOE", 4, 10, None), ("LUE", 2, 10, 20), ("LOE", 2, 10, 20)],
)
def test_dense_route_at_acceptance_scale(ensemble, n, N, M):
    # The literal route at criterion 11's configurations, seed and size.
    est = _dense(ensemble, n, N, M, samples=100_000, seed=2026)
    assert abs(est.mean - _exact(ensemble, n, N, M)) <= 4 * est.std_error


def test_variance_merge_survives_a_large_mean():
    # Σx² − n·mean² cancels catastrophically at a mean of 10⁹; the
    # per-block merge matches numpy's two-pass variance.
    rng = np.random.default_rng(0)
    for shift in (1e8, 1e9):
        values = shift + rng.standard_normal(100_000)
        moments = (0, 0.0, 0.0)
        for start in range(0, values.size, BLOCK_SIZE):
            block = values[start:start + BLOCK_SIZE]
            deviations = block - block.mean()
            block_moments = (block.size, float(block.mean()), float(deviations @ deviations))
            moments = mc._merge_moments(moments, block_moments)
        count, mean, m2 = moments
        assert count == values.size
        assert math.isclose(mean, values.mean(), rel_tol=1e-15)
        assert math.isclose(m2 / (count - 1), np.var(values, ddof=1), rel_tol=1e-9)


def test_odd_sample_counts_supported():
    est = mc_moment("GUE", 2, 3, samples=BLOCK_SIZE + 1, seed=5)
    assert est.samples == BLOCK_SIZE + 1


def test_complex_traces_are_real():
    # Hermitian/Wishart powers have real traces; the estimate is finite.
    for ens, M in (("GUE", None), ("LUE", 4)):
        est = mc_moment(ens, 3, 3, M, samples=300, seed=2)
        assert math.isfinite(est.mean)
        assert math.isfinite(est.std_error)


def test_standard_error_shrinks_with_samples():
    small = mc_moment("GOE", 2, 4, samples=2_000, seed=3)
    large = mc_moment("GOE", 2, 4, samples=32_000, seed=3)
    assert large.std_error < small.std_error


def test_validation():
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, samples=50, seed=1)  # too few samples
    with pytest.raises(ValueError, match="LUE requires the rectangular dimension M"):
        mc_moment("LUE", 2, 4, samples=500, seed=1)
    with pytest.raises(ValueError, match="M applies to the Laguerre ensembles only"):
        mc_moment("GUE", 2, 4, 8, samples=500, seed=1)
    with pytest.raises(ValueError, match="dimension N must be a positive integer"):
        mc_moment("GUE", 2, 0, samples=500, seed=1)
    with pytest.raises(ValueError, match="moment order must be a positive integer"):
        mc_moment("GUE", 0, 4, samples=500, seed=1)
    with pytest.raises(ValueError, match="dimension M must be a positive integer"):
        mc_moment("LOE", 2, 4, 0, samples=500, seed=1)
    # the dimension rules come before the samples and seed rules
    with pytest.raises(ValueError, match="dimension M must be a positive integer"):
        mc_moment("LUE", 2, 4, 0, samples=50, seed=-1)
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, samples=500, seed=-1)
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, samples=500, seed=2**64)
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=0.0, samples=1, seed=0, dim=1)
