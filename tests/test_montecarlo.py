"""Monte Carlo sampling: reproducibility and statistical agreement."""

import math

import numpy as np
import pytest

from annular import montecarlo as mc
from annular.moments import wick_moment
from annular.montecarlo import BLOCK_SIZE, McEstimate, mc_moment


def test_deterministic_for_fixed_seed():
    a = mc_moment("GUE", 2, 4, samples=4000, seed=99)
    b = mc_moment("GUE", 2, 4, samples=4000, seed=99)
    assert a == b
    c = mc_moment("GUE", 2, 4, samples=4000, seed=100)
    assert c.mean != a.mean


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
    for ens, n in (("GUE", 2), ("GUE", 4), ("GOE", 2), ("GOE", 4)):
        exact = float(wick_moment(ens, n).evaluate(5))
        est = mc_moment(ens, n, 5, samples=20_000, seed=42)
        assert abs(est.mean - exact) <= 5 * est.std_error


def test_laguerre_estimates_near_exact():
    from fractions import Fraction

    for ens, n, N, M in (("LUE", 1, 4, 8), ("LUE", 2, 4, 8), ("LOE", 2, 4, 8)):
        exact = float(wick_moment(ens, n).evaluate(N, Fraction(M, N)))
        est = mc_moment(ens, n, N, M, samples=20_000, seed=7)
        assert abs(est.mean - exact) <= 5 * est.std_error


def test_block_partition_contract():
    # The estimate is a deterministic function of (seed, samples) with a
    # fixed block layout: extending a run appends block 1 without
    # altering block 0's contribution.
    seed, N, extra_n = 11, 3, 500
    small = mc_moment("GOE", 2, N, samples=BLOCK_SIZE, seed=seed)
    big = mc_moment("GOE", 2, N, samples=BLOCK_SIZE + extra_n, seed=seed)
    rng = mc._block_rng(seed, 1)
    g = mc._draw_real(rng, (extra_n, N, N))
    h = 0.5 * (g + np.transpose(g, (0, 2, 1)))
    extra = mc._trace_power(h, 2)
    reconstructed = (small.mean * BLOCK_SIZE + extra.sum()) / (BLOCK_SIZE + extra_n)
    assert math.isclose(reconstructed, big.mean, rel_tol=1e-12)


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
    with pytest.raises(ValueError):
        mc_moment("LUE", 2, 4, samples=500, seed=1)  # missing M
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, 8, samples=500, seed=1)  # M for Gaussian
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 0, samples=500, seed=1)
    with pytest.raises(ValueError):
        mc_moment("GUE", 0, 4, samples=500, seed=1)
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, samples=500, seed=-1)
    with pytest.raises(ValueError):
        mc_moment("GUE", 2, 4, samples=500, seed=2**64)
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=0.0, samples=1, seed=0, dim=1)
