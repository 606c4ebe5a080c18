"""Monte Carlo estimation of 𝔼 Tr Mⁿ by matrix sampling.

This is the third, fully independent computation of the moments.
``mc_moment`` draws the Dumitriu–Edelman models (I. Dumitriu and
A. Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43,
2002): a symmetric tridiagonal T with the Hermite law, or W = BBᵀ with
B lower bidiagonal for the Laguerre law.  Their eigenvalues have exactly
the law of the dense matrices, and Tr Mⁿ depends on the eigenvalues
alone, so every sample's trace has the distribution of the literal
route: draw Ginibre matrices, symmetrize (Gaussian cases) or square up
(Laguerre cases), and take the trace of the n-th matrix power.  The
models need about 2N variates per sample instead of 2N² or 2MN, and
Tr Tⁿ comes from a banded power of T (``_band_trace_power``).  The
literal route lives in the tests as the reference, which they run
through the same block loop (``_estimate`` takes the sampler).

Entry variances follow the ensemble definitions: every real Gaussian
component of the dense matrices has variance 1/2, so complex entries
have total variance 1, and β = 2 (complex) or 1 (real).  The
tridiagonal models carry the same scale:

* Hermite, N×N: diagonal √½·z, off-diagonal ½·χ_{β(N−k)} for
  k = 1..N−1 (the norm of the N−k entries that one Householder step of
  the dense matrix folds into one, each component of variance ¼).
* Laguerre: with n = min(N, M) and m = max(N, M), B is n×n with
  diagonal √½·χ_{β(m−k)} for k = 0..n−1 and sub-diagonal √½·χ_{βk} for
  k = n−1..1.  For M < N the N×N matrix G†G has rank M and the nonzero
  spectrum of GG†, so Tr (G†G)ⁿ = Tr (GG†)ⁿ for n ≥ 1 and both orders of
  N and M reduce to the n×n model.

Reproducibility contract: samples are partitioned into fixed blocks of
``BLOCK_SIZE``; block ``b`` of a run with seed ``s`` uses the
counter-based Philox generator keyed by the pair (s, b); blocks start in
order on a pool of at most one reused thread per usable CPU, at most that
many in flight, and merge in block order, so the estimate depends only
on (seed, samples) — never on scheduling or worker count — and peak
memory grows with the blocks in flight.  A block peaks near 64 kB per
band entry of one sample, (⌈n/2⌉ + 3)·(size + 2) for a model of that
size; above ``MC_ENTRY_CAP`` entries, ``CapExceeded`` is raised before
any draw, and below it at most ``MC_ENTRY_CAP`` // entries blocks are
in flight, so a run peaks near one block at the cap.
Normal variates come from numpy's ziggurat implementation
(``Generator.standard_normal``); a χ_k variate is √(2·Gamma(k/2)), with
the gamma variate from ``Generator.standard_gamma``.  Within a block of
``size`` samples the draw order is:

* Hermite: the (size, N) diagonal normals, then the (size, N−1) gamma
  variates of the off-diagonal, row-major;
* Laguerre: the (size, n) gamma variates of B's diagonal, then the
  (size, n−1) ones of its sub-diagonal, each row-major.

The variance merges per-block (count, mean, M2) summaries, so a large
mean cannot cancel it.

The module imports numpy, :mod:`annular.perms` (the integer checks) and
:mod:`annular.ensembles` (the ensemble tags and dimension checks), and
nothing of the streams, families or exact moment routes it is meant to
check; the thread pool and the refusal's ``CapExceeded`` are imported
where they are used.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .ensembles import Ensemble
from .perms import _check_integer

__all__ = ["BLOCK_SIZE", "GENERATOR_NAME", "MC_ENTRY_CAP", "McEstimate", "mc_moment"]

BLOCK_SIZE = 8192

#: Most band entries one sample may need: at the cap a block peaks near 0.5 GB.
MC_ENTRY_CAP = 2**13

GENERATOR_NAME = (
    "tridiagonal Dumitriu-Edelman models, banded trace; "
    "philox-counter(key=[seed,block]) + ziggurat normals + gamma"
)

_ROOT_HALF = math.sqrt(0.5)

_CHUNK = 1024  # samples per ``_band_trace_power`` call: its bands stay in cache


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of Tr Mⁿ with its standard error.

    ``std_error`` is the sample standard deviation divided by
    √samples; ``rect_dim`` is the Laguerre M (None for Gaussian runs).
    """

    mean: float
    std_error: float
    samples: int
    seed: int
    dim: int
    rect_dim: int | None = None

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("an estimate needs at least two samples")

    def to_payload(self) -> dict:
        return asdict(self)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block_index], np.uint64)))


def _draw_tridiagonal(rng, ensemble: Ensemble, N: int, M, size: int):
    """The (diagonal, off-diagonal) of ``size`` tridiagonal models, in draw order.

    χ_k is drawn as √(2·Gamma(k/2)), so ½·χ_k = √(Gamma(k/2)/2) and
    √½·χ_k = √Gamma(k/2).
    """
    half_beta = 1.0 if ensemble.is_complex else 0.5
    if ensemble.is_gaussian:
        diagonal = rng.standard_normal((size, N)) * _ROOT_HALF
        gamma = rng.standard_gamma(half_beta * np.arange(N - 1, 0, -1.0), (size, N - 1))
        return diagonal, np.sqrt(0.5 * gamma)
    n, m = min(N, M), max(N, M)
    d = np.sqrt(rng.standard_gamma(half_beta * np.arange(m, m - n, -1.0), (size, n)))
    e = np.sqrt(rng.standard_gamma(half_beta * np.arange(n - 1, 0, -1.0), (size, n - 1)))
    # BBᵀ for B with diagonal d and sub-diagonal e (B[k+1, k] = e[k]).
    diagonal = d * d
    diagonal[:, 1:] += e * e
    return diagonal, d[:, :-1] * e


def _band_trace_power(diagonal: np.ndarray, off: np.ndarray, n: int) -> np.ndarray:
    """Tr Tⁿ for each symmetric tridiagonal T of a batch: O(N·n) memory, O(N·n²) work.

    ``diagonal`` is (batch, N) and ``off`` (batch, N−1) holds T[k, k+1].
    T^k is kept as its diagonals d = 0..k, band[d, j] = T^k[j − d, j];
    the lower ones are their mirror images, since T^k is symmetric.
    Multiplying by T on the right gives T^{k+1}[j − d, j] = T^k[j − d, j]·T[j, j]
    + T^k[j − d, j − 1]·T[j − 1, j] + T^k[j − d, j + 1]·T[j + 1, j].  With
    h = ⌊n/2⌋, Tr T^{2h} = ‖T^h‖²_F and Tr T^{2h+1} = ⟨T^h, T^{h+1}⟩.
    """
    batch, N = diagonal.shape
    half, top = n // 2, n // 2 + n % 2
    # Row r holds diagonal d = r − 1, so row 0 is the mirror of d = 1;
    # column j + 1 holds column j, and the padding row and columns stay 0.
    # The batch is the last axis so that every slice is contiguous in it.
    bands = np.zeros((2, top + 3, N + 2, batch))
    bands[0, 1, 1:N + 1] = 1.0
    pad = np.zeros((N + 1, batch))
    pad[1:N] = off.T
    diagonal, left, right = diagonal.T, pad[:N], pad[1:]
    scratch = np.empty((top + 1, N, batch))
    for k in range(1, top + 1):  # T^{k−1} → T^k, which has k + 1 diagonals
        src, dst = bands[(k - 1) % 2], bands[k % 2]
        inner, term = dst[1:k + 2, 1:N + 1], scratch[:k + 1]
        np.multiply(src[1:k + 2, 1:N + 1], diagonal, out=inner)
        np.multiply(src[:k + 1, :N], left, out=term)
        inner += term
        np.multiply(src[2:k + 3, 2:], right, out=term)
        inner += term
        dst[0, 1:N + 1] = dst[2, 2:]
    a, b = bands[half % 2], bands[top % 2]
    return 2 * np.einsum("djb,djb->b", a[2:], b[2:]) + np.einsum("jb,jb->b", a[1], b[1])


def _tridiagonal_traces(rng, ensemble: Ensemble, n: int, N: int, M, size: int) -> np.ndarray:
    diagonal, off = _draw_tridiagonal(rng, ensemble, N, M, size)
    parts = -(-size // _CHUNK)  # near-equal chunks: one row alone sums its trace in another order
    chunks = zip(np.array_split(diagonal, parts), np.array_split(off, parts))
    return np.concatenate([_band_trace_power(d, e, n) for d, e in chunks])


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]):
    """Chan's merge of two (count, mean, M2 = Σ squared deviations) summaries."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n, delta = na + nb, mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def _in_order(call, count: int, most: int):
    """Yield call(0), …, call(count − 1), running up to ``most`` calls, one per usable CPU.

    Past one worker the calls run on a thread pool in a window: call
    i + workers is submitted only after result i is taken.  A failing
    call raises its own exception; a failure or an early close starts
    no further call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(count, cpus or 1, most)
    if workers == 1:
        yield from map(call, range(count))
        return
    from concurrent.futures import ThreadPoolExecutor  # here: at the top it costs ~5 ms per import
    with ThreadPoolExecutor(workers) as pool:  # leaving it joins the running calls
        running = deque(pool.submit(call, index) for index in range(workers))
        try:
            for index in range(workers, count + workers):
                value = running.popleft().result()
                if index < count:
                    running.append(pool.submit(call, index))
                yield value
        finally:
            for future in running:
                future.cancel()


def mc_moment(
    ensemble: Ensemble | str,
    n: int,
    N: int,
    M: int | None = None,
    *,
    samples: int,
    seed: int,
) -> McEstimate:
    """Estimate 𝔼 Tr Mⁿ from ``samples`` independent matrix draws.

    Each sample is a Dumitriu–Edelman model with the eigenvalue law of
    H = (G + G*)/2 for an N×N Ginibre matrix G (Gaussian cases) or of
    W = G*G for an M×N one (Laguerre cases).  Deterministic for a given
    (seed, samples) regardless of execution order.  Raises ``CapExceeded``
    before any draw when a sample needs more than ``MC_ENTRY_CAP`` band entries.
    """
    return _estimate(_tridiagonal_traces, ensemble, n, N, M, samples=samples, seed=seed)


def _estimate(block_traces, ensemble, n, N, M, *, samples, seed) -> McEstimate:
    """``mc_moment`` with the per-block trace sampler as a parameter.

    ``block_traces(rng, ensemble, n, N, M, size)`` returns one block's
    traces; the tests pass the literal route's sampler.
    """
    ensemble = Ensemble.parse(ensemble)
    ensemble.check_dimensions(n, N, M)
    samples, seed = _check_integer("samples", samples), _check_integer("seed", seed)
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    entries = (n // 2 + n % 2 + 3) * (min(N, M or N) + 2)
    if entries > MC_ENTRY_CAP:
        from .streams import CapExceeded  # here: a run that draws loads no streams

        raise CapExceeded(
            f"Monte Carlo requested {entries} band entries a sample, above the cap {MC_ENTRY_CAP}",
            requested=entries,
            cap=MC_ENTRY_CAP,
        )

    def block(index):
        size = min(BLOCK_SIZE, samples - index * BLOCK_SIZE)
        traces = block_traces(_block_rng(seed, index), ensemble, n, N, M, size)
        block_mean = float(traces.mean())
        deviations = traces - block_mean
        return float(traces.sum()), (size, block_mean, float(deviations @ deviations))

    total = 0.0
    moments = (0, 0.0, 0.0)
    in_flight = max(1, MC_ENTRY_CAP // entries)  # together, at most one block at the cap
    for block_sum, block_moments in _in_order(block, -(-samples // BLOCK_SIZE), in_flight):
        total += block_sum
        moments = _merge_moments(moments, block_moments)

    mean = total / samples
    variance = moments[2] / (samples - 1)
    std_error = math.sqrt(variance / samples)
    return McEstimate(
        mean=mean,
        std_error=std_error,
        samples=samples,
        seed=seed,
        dim=N,
        rect_dim=M,
    )
