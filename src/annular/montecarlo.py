"""Monte Carlo estimation of 𝔼 Tr Mⁿ by direct matrix sampling.

This is the third, fully independent computation of the moments: draw
Ginibre matrices, symmetrize (Gaussian cases) or square up (Laguerre
cases), and average the trace of the n-th power.

Reproducibility contract: samples are partitioned into fixed blocks of
``BLOCK_SIZE``; block ``b`` of a run with seed ``s`` uses the
counter-based Philox generator keyed by the pair (s, b), so the estimate
depends only on (seed, samples) — never on scheduling or worker count.
Normal variates come from numpy's ziggurat implementation
(``Generator.standard_normal``); for complex matrices the real parts of
a block are drawn before the imaginary parts.  The variance merges
per-block (count, mean, M2) summaries, so a large mean cannot cancel it.

Entry variances follow the ensemble definitions: every real Gaussian
component has variance 1/2, so complex entries have total variance 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import Ensemble

__all__ = ["BLOCK_SIZE", "GENERATOR_NAME", "McEstimate", "mc_moment"]

BLOCK_SIZE = 8192

GENERATOR_NAME = "philox-counter(key=[seed,block]) + ziggurat normals"

_ROOT_HALF = math.sqrt(0.5)


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
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "dim": self.dim,
            "rect_dim": self.rect_dim,
        }


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block_index]))


def _draw_real(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) * _ROOT_HALF


def _draw_complex(rng: np.random.Generator, shape) -> np.ndarray:
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    return (real + 1j * imag) * _ROOT_HALF


def _trace_power(matrices: np.ndarray, n: int) -> np.ndarray:
    power = matrices
    for _ in range(n - 1):
        power = power @ matrices
    traces = np.einsum("bii->b", power)
    return traces.real if np.iscomplexobj(traces) else traces


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]):
    """Chan's merge of two (count, mean, M2 = Σ squared deviations) summaries."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n, delta = na + nb, mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


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

    Gaussian cases build H = (G + G*)/2 from an N×N Ginibre matrix;
    Laguerre cases build W = G*G from an M×N one.  Deterministic for a
    given (seed, samples) pair regardless of execution order.
    """
    ensemble = Ensemble.parse(ensemble)
    if n < 1:
        raise ValueError("moment order must be a positive integer")
    if N < 1:
        raise ValueError("dimension N must be a positive integer")
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if ensemble.is_laguerre:
        if M is None:
            raise ValueError(f"{ensemble.kind} requires the rectangular dimension M")
        if M < 1:
            raise ValueError("dimension M must be a positive integer")
    elif M is not None:
        raise ValueError("M applies to the Laguerre ensembles only")

    total = 0.0
    moments = (0, 0.0, 0.0)
    done = 0
    block_index = 0
    while done < samples:
        size = min(BLOCK_SIZE, samples - done)
        rng = _block_rng(seed, block_index)
        if ensemble.is_gaussian:
            draw = _draw_complex if ensemble.is_complex else _draw_real
            g = draw(rng, (size, N, N))
            matrices = 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1))))
        else:
            draw = _draw_complex if ensemble.is_complex else _draw_real
            g = draw(rng, (size, M, N))
            matrices = np.conj(np.transpose(g, (0, 2, 1))) @ g
        traces = _trace_power(matrices, n)
        total += float(traces.sum())
        block_mean = float(traces.mean())
        deviations = traces - block_mean
        moments = _merge_moments(moments, (size, block_mean, float(deviations @ deviations)))
        done += size
        block_index += 1

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
