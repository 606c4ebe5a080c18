"""Exact moments: Wick sums, genus expansions, and the index-sum oracle."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import annular.moments
import annular.perms
import annular.streams
from annular.frames import full_cycle, gamma_walk, tau2
from annular.moments import (
    Ensemble,
    correction_coefficient,
    genus_expansion_moment,
    wick_moment,
    wick_oracle_smallN,
)
from annular.perms import _cycle_counts, _key_counts, unsigned_ground
from annular.polynomial import MomentPolynomial
from annular.streams import (
    CapExceeded,
    EnumerationBudget,
    _bipartite_pairing_blocks,
    _pairings_of_blocks,
    _permutations_of_blocks,
    _signed_symmetric_pairings_blocks,
)

from oracles import (
    ref_catalan,
    ref_compose,
    ref_harer_zagier,
    ref_lagrange_coefficients,
    ref_loe_signed_pairing_terms,
    ref_narayana,
    ref_num_cycles,
    ref_signed_symmetric_pairings,
    ref_tau2,
)
from test_maps import _odd_boundary_walk
from test_streams import block_boundary_budgets


def poly(coeffs):
    return MomentPolynomial.from_coefficients(coeffs)


# ---------------------------------------------------------------------------
# ensemble tag
# ---------------------------------------------------------------------------

def test_ensemble_parse_and_properties():
    ens = Ensemble.parse("gue")
    assert ens.kind == "GUE"
    assert ens.is_gaussian and ens.is_complex and not ens.is_laguerre
    loe = Ensemble("LOE")
    assert loe.is_laguerre and not loe.is_complex
    assert Ensemble.parse(loe) is loe
    with pytest.raises(ValueError):
        Ensemble("WISHART")


def test_an_ensemble_tag_that_is_not_a_string_raises_value_error():
    for kind in (3, None, b"GUE"):
        with pytest.raises(ValueError, match="unknown ensemble"):
            Ensemble(kind)


# ---------------------------------------------------------------------------
# pinned exact polynomials
# ---------------------------------------------------------------------------

def test_gue_small_moments():
    assert wick_moment("GUE", 2) == poly({(2, 0): Fraction(1, 2)})
    assert wick_moment("GUE", 4) == poly(
        {(3, 0): Fraction(1, 2), (1, 0): Fraction(1, 4)}
    )


def test_goe_small_moments():
    assert wick_moment("GOE", 2) == poly(
        {(2, 0): Fraction(1, 4), (1, 0): Fraction(1, 4)}
    )
    assert wick_moment("GOE", 4) == poly(
        {(3, 0): Fraction(2, 16), (2, 0): Fraction(5, 16), (1, 0): Fraction(5, 16)}
    )


def test_lue_small_moments():
    assert wick_moment("LUE", 1) == poly({(2, 1): 1})
    assert wick_moment("LUE", 2) == poly({(3, 2): 1, (3, 1): 1})


def test_loe_small_moments():
    assert wick_moment("LOE", 1) == poly({(2, 1): Fraction(1, 2)})
    assert wick_moment("LOE", 2) == poly(
        {(3, 2): Fraction(1, 4), (3, 1): Fraction(1, 4), (2, 1): Fraction(1, 4)}
    )


@pytest.mark.parametrize("ensemble", ["GUE", "GOE"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_odd_gaussian_moments_are_zero(ensemble, n):
    assert wick_moment(ensemble, n).is_zero()
    assert genus_expansion_moment(ensemble, n).is_zero()
    assert wick_oracle_smallN(ensemble, n, 3) == 0


# ---------------------------------------------------------------------------
# cross-method identity (moderate sizes; the full sweep is in acceptance)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "ensemble,orders",
    [
        ("GUE", (2, 4, 6, 8)),
        ("GOE", (2, 4, 6)),
        ("LUE", (1, 2, 3, 4)),
        ("LOE", (1, 2, 3)),
    ],
)
def test_wick_equals_genus_expansion(ensemble, orders):
    for n in orders:
        assert wick_moment(ensemble, n) == genus_expansion_moment(ensemble, n)


# ---------------------------------------------------------------------------
# oracle agreement (spot checks; the full sweep is in acceptance)
# ---------------------------------------------------------------------------

def test_gaussian_oracle_spot_checks():
    assert wick_oracle_smallN("GOE", 2, 3) == Fraction(12, 4)
    for N in (1, 2, 3):
        assert wick_moment("GUE", 4).evaluate(N) == wick_oracle_smallN("GUE", 4, N)
        assert wick_moment("GOE", 4).evaluate(N) == wick_oracle_smallN("GOE", 4, N)


def test_laguerre_oracle_spot_checks():
    for N, M in ((2, 2), (2, 4), (3, 2)):
        c = Fraction(M, N)
        assert wick_moment("LUE", 2).evaluate(N, c) == wick_oracle_smallN(
            "LUE", 2, N, M
        )
        assert wick_moment("LOE", 2).evaluate(N, c) == wick_oracle_smallN(
            "LOE", 2, N, M
        )


def test_oracle_interpolation_recovers_polynomial():
    points = [(N, wick_oracle_smallN("GUE", 4, N)) for N in range(1, 6)]
    coeffs = ref_lagrange_coefficients(points)
    assert coeffs[3] == Fraction(1, 2)
    assert coeffs[1] == Fraction(1, 4)
    assert coeffs[0] == coeffs[2] == coeffs[4] == 0


def test_oracle_validation():
    with pytest.raises(ValueError, match="LUE requires the rectangular dimension M"):
        wick_oracle_smallN("LUE", 2, 3)
    with pytest.raises(ValueError, match="M applies to the Laguerre ensembles only"):
        wick_oracle_smallN("GUE", 2, 3, 4)
    with pytest.raises(ValueError, match="moment order must be a positive integer"):
        wick_oracle_smallN("GUE", 0, 3)
    with pytest.raises(ValueError, match="dimension N must be a positive integer"):
        wick_oracle_smallN("GOE", 2, 0)
    with pytest.raises(ValueError, match="dimension M must be a positive integer"):
        wick_oracle_smallN("LOE", 2, 3, 0)
    with pytest.raises(CapExceeded):
        wick_oracle_smallN("GUE", 12, 5)  # 5^12 index tuples is over the cap


# ---------------------------------------------------------------------------
# structural invariants of the expansions
# ---------------------------------------------------------------------------

def test_gue_powers_alternate():
    m8 = wick_moment("GUE", 8)
    assert set(m8.n_powers()) <= {5, 3, 1}
    m6 = wick_moment("GUE", 6)
    assert m6.n_powers() == (4, 2)


def test_goe_has_full_power_ladder():
    m6 = wick_moment("GOE", 6)
    assert m6.n_powers() == (4, 3, 2, 1)


@pytest.mark.parametrize("ensemble,n", [("GUE", 6), ("GOE", 6), ("GUE", 8)])
def test_leading_coefficient_is_catalan(ensemble, n):
    lead = n // 2 + 1
    prefactor = 2 ** (n // 2) if ensemble == "GUE" else 2**n
    coeff = wick_moment(ensemble, n).coefficient(lead, 0)
    assert coeff * prefactor == ref_catalan(n // 2)


def test_gaussian_denominators_are_powers_of_two():
    for ensemble, n in (("GUE", 6), ("GOE", 6)):
        for _, coeff in wick_moment(ensemble, n).terms:
            den = coeff.denominator
            assert den & (den - 1) == 0  # power of two


def test_lue_leading_coefficients_are_narayana():
    for n in (2, 3, 4):
        lead = wick_moment("LUE", n).coefficient(n + 1)
        expected = {(0, p): Fraction(ref_narayana(n, p)) for p in range(1, n + 1)}
        assert lead.coefficients == expected


def test_gue_order_20_is_the_harer_zagier_sum():
    # the top admitted GUE order, read off the recursion with no stream:
    # E tr X^20 = 2^-10 · Σ_g ε_g(10) · N^(11 − 2g)
    want = poly({(11 - 2 * g, 0): Fraction(eps, 2**10) for g, eps in ref_harer_zagier(10).items()})
    assert wick_moment("GUE", 20) == want


def test_lue_moments_follow_the_haagerup_thorbjornsen_recursion():
    # Haagerup–Thorbjørnsen (Expo. Math. 21, 2003), with M = cN and D_0 = N:
    # (p+2)·D_{p+1} = (2p+1)(M+N)·D_p + (p−1)(p² − (M−N)²)·D_{p−1}, to the top order 12
    n, m = poly({(1, 0): 1}), poly({(1, 1): 1})
    moments = [n, *(wick_moment("LUE", p) for p in range(1, 13))]
    for p in range(1, 12):
        step = (2 * p + 1) * (m + n) * moments[p]
        step += (p - 1) * (poly({(0, 0): p * p}) - (m - n) * (m - n)) * moments[p - 1]
        assert (p + 2) * moments[p + 1] == step, p


def test_loe_subleading_matches_twisted_counts():
    # coefficient of N^n: (1/2^n) * sum_p c^p |twisted genus-1 gluings|
    from annular.maps import family_b_tilde_counts

    for n in (2, 3):
        sub = wick_moment("LOE", n).coefficient(n)
        hist = family_b_tilde_counts(n)
        expected = {
            (0, p): Fraction(cnt, 2**n)
            for (k, p), cnt in hist.items()
            if k == 1
        }
        assert sub.coefficients == expected


# ---------------------------------------------------------------------------
# correction coefficients
# ---------------------------------------------------------------------------

def test_correction_coefficient_goe_n4():
    at_n2 = correction_coefficient("GOE", 4, 2)
    assert at_n2.coefficients == {(0, 0): Fraction(5, 16)}
    assert at_n2.coefficient(0, 0) * 2**4 == 5  # twisted genus-1 gluings of ±[4]
    at_n1 = correction_coefficient("GOE", 4, 1)
    assert at_n1.coefficient(0, 0) * 2**4 == 5  # |a1(4)| + |b2(4)| = 1 + 4


def test_correction_coefficient_gue_even_powers_vanish():
    assert correction_coefficient("GUE", 4, 2).is_zero()
    assert correction_coefficient("GUE", 4, 0).is_zero()


def test_correction_coefficient_lue():
    assert correction_coefficient("LUE", 2, 3).coefficients == {
        (0, 2): Fraction(1),
        (0, 1): Fraction(1),
    }


# ---------------------------------------------------------------------------
# caps and budgets
# ---------------------------------------------------------------------------

#: Per ensemble and route, the first refused order and the source whose
#: cap refuses it: (order, noun, size, default cap).  The GUE, GOE and
#: LUE routes count by prefix, so their caps measure the prefixes run.  The
#: GOE and LOE genus routes read b and b̃ first, whose caps bind before
#: those of a and ã.
FIRST_REFUSED = {
    ("GUE", "wick"): (22, "pairing", 22, 20),
    ("GUE", "genus"): (22, "pairing", 22, 20),
    ("GOE", "wick"): (16, "signed symmetric pairing", 32, 28),
    ("GOE", "genus"): (16, "signed symmetric pairing", 32, 28),
    ("LUE", "wick"): (13, "permutation", 13, 12),
    ("LUE", "genus"): (13, "bipartite pairing", 26, 24),
    ("LOE", "wick"): (9, "pairing", 18, 16),
    ("LOE", "genus"): (9, "bipartite signed symmetric pairing", 36, 32),
}
ROUTES = {"wick": wick_moment, "genus": genus_expansion_moment}


@pytest.mark.parametrize("ensemble, route", FIRST_REFUSED)
def test_order_caps_enforced(ensemble, route):
    # before any row is read: an empty budget would raise its own
    # CapExceeded at the first element
    order, noun, size, cap = FIRST_REFUSED[ensemble, route]
    message = f"^{noun} enumeration requested for size {size}, above the cap {cap}$"
    with pytest.raises(CapExceeded, match=message) as info:
        ROUTES[route](ensemble, order, budget=EnumerationBudget(0))
    assert (info.value.requested, info.value.cap) == (size, cap)


@pytest.mark.parametrize("ensemble, order", [("GUE", 18), ("GOE", 14), ("LUE", 10)])
def test_counted_routes_agree_where_the_row_streams_refuse(ensemble, order):
    # the first orders whose pairing, signed symmetric pairing and
    # permutation streams are over their row caps: both routes count them
    # by prefix
    assert wick_moment(ensemble, order) == genus_expansion_moment(ensemble, order)


@pytest.mark.parametrize("ensemble", ["GUE", "GOE", "LUE", "LOE"])
def test_huge_orders_are_refused_at_once(ensemble):
    # one compare of sizes, before any walk or frame of the order is built;
    # an odd Gaussian order reads no stream and is zero
    for route in ROUTES.values():
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="above the cap"):
            route(ensemble, 10**9)
        assert time.perf_counter() - start < 0.1
        if ensemble in ("GUE", "GOE"):
            assert route(ensemble, 10**9 + 1).is_zero()


def test_invalid_order():
    with pytest.raises(ValueError):
        wick_moment("GUE", 0)


@pytest.mark.parametrize("route", ROUTES.values())
@pytest.mark.parametrize("order", [2.0, True, "2"])
def test_non_integer_order_is_refused(route, order):
    with pytest.raises(ValueError, match="moment order must be an integer"):
        route("GUE", order)


def test_budget_propagates():
    tight = EnumerationBudget(max_elements=2)
    with pytest.raises(CapExceeded):
        wick_moment("GUE", 6, budget=tight)
    with pytest.raises(CapExceeded):
        genus_expansion_moment("GOE", 4, budget=tight)
    # the bipartite families count the gluings they build: 4! = 24 at LUE 4
    with pytest.raises(CapExceeded):
        genus_expansion_moment("LUE", 4, budget=tight)
    with pytest.raises(CapExceeded):
        genus_expansion_moment("LOE", 3, budget=tight)


@pytest.mark.parametrize(
    "ensemble, n, blocks",
    [
        ("GUE", 10, lambda: _pairings_of_blocks(unsigned_ground(10))),
        ("GOE", 8, lambda: _signed_symmetric_pairings_blocks(8)),
        ("LUE", 7, lambda: _permutations_of_blocks(unsigned_ground(7))),
        ("LOE", 5, lambda: _pairings_of_blocks(unsigned_ground(10))),
    ],
)
def test_wick_budget_contract_at_block_boundaries(ensemble, n, blocks):
    # the budget counts the stream's elements, whichever block holds element K + 1
    length, budgets = block_boundary_budgets(blocks())
    for k in budgets:
        with pytest.raises(CapExceeded, match=rf"exceeded the element budget \({k}\)$") as info:
            wick_moment(ensemble, n, budget=EnumerationBudget(k))
        assert (info.value.requested, info.value.cap) == (k + 1, k)
    assert wick_moment(ensemble, n, budget=EnumerationBudget(length)) == wick_moment(ensemble, n)


def _monochromatic_involutions(n):
    # the identity twice: each cycle count is #(π) = n, odd for odd n
    return (tuple(range(2 * n)),) * 2


def test_loe_wick_raises_on_an_odd_cycle_count(monkeypatch):
    monkeypatch.setattr(annular.moments, "_wishart_involutions", _monochromatic_involutions)
    with pytest.raises(AssertionError, match="even number of cycles"):
        wick_moment("LOE", 1)
    # at even n every count is even: the three pairings of 4 factors give r = c = 1
    assert wick_moment("LOE", 2).coefficients == {(2, 1): Fraction(3, 4)}


def test_loe_wick_odd_count_raise_survives_python_O():
    script = (
        "import annular.moments as m\n"
        "m._wishart_involutions = lambda n: (tuple(range(2 * n)),) * 2\n"
        "try:\n"
        "    m.wick_moment('LOE', 3)\n"
        "except AssertionError as error:\n"
        "    print(error)\n"
    )
    src = str(Path(annular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "a pairing of the Wishart factors must close an even number of cycles\n"


@pytest.mark.parametrize("n", range(1, 6))
def test_loe_wishart_sum_equals_the_signed_pairing_sum(n):
    # term by term against the route it replaced: the signed symmetric
    # pairings of ±[2n] that keep the black set, keyed by their boundary walks
    want = {key: Fraction(count, 2**n) for key, count in ref_loe_signed_pairing_terms(n).items()}
    assert wick_moment("LOE", n).coefficients == want


# ---------------------------------------------------------------------------
# the GUE and LUE routes, counted by stream prefix
# ---------------------------------------------------------------------------

def _row_pass_wick(ensemble, n):
    """The GUE / LUE Wick sum keyed row by row over the block stream, as before
    the prefix pass: faces per pairing, (#π + faces, #π) per permutation."""
    walk = gamma_walk(full_cycle(n))[0]
    if ensemble == "GUE":
        blocks, prefactor = _pairings_of_blocks(unsigned_ground(n)), Fraction(1, 2 ** (n // 2))

        def keys(block):
            faces = _cycle_counts(walk, block)
            return np.column_stack((faces, np.zeros_like(faces)))

    else:
        blocks, prefactor = _permutations_of_blocks(unsigned_ground(n)), Fraction(1)

        def keys(block):
            parts = _cycle_counts(range(n), block)
            return np.column_stack((parts + _cycle_counts(walk, block), parts))

    counts = _key_counts(map(keys, blocks))
    return MomentPolynomial(tuple((key, prefactor * cnt) for key, cnt in counts.items()))


@pytest.mark.parametrize(
    "ensemble, n", [("GUE", n) for n in range(2, 17, 2)] + [("LUE", n) for n in range(1, 10)]
)
def test_prefix_pass_equals_the_row_pass(ensemble, n):
    # over the whole range of the row streams' caps, with and without prefixes
    assert wick_moment(ensemble, n) == _row_pass_wick(ensemble, n)


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_goe_prefix_pass_equals_the_row_pass(n):
    # the boundary walks of every signed symmetric pairing, keyed row by row,
    # up to the stream's cap (±[12]); the prefix pass builds no row
    def keys(block):
        return _cycle_counts(tau2(n).image, block)[:, None] // 2

    counts = _key_counts(map(keys, _signed_symmetric_pairings_blocks(n)))
    want = {(doubled, 0): Fraction(cnt, 2**n) for (doubled,), cnt in counts.items()}
    assert wick_moment("GOE", n).coefficients == want


@pytest.mark.parametrize("n", [2, 4, 6])
def test_goe_wick_equals_the_dict_oracle(n):
    counts = {}
    for pairing in ref_signed_symmetric_pairings(n):
        boundary = ref_num_cycles(ref_compose(ref_tau2(n), pairing))
        counts[boundary // 2, 0] = counts.get((boundary // 2, 0), 0) + Fraction(1, 2**n)
    assert wick_moment("GOE", n).coefficients == counts


@pytest.mark.parametrize("n", [4, 12])
def test_goe_wick_raises_on_an_odd_boundary_count(monkeypatch, n):
    monkeypatch.setattr(annular.moments, "tau2", _odd_boundary_walk)
    with pytest.raises(AssertionError, match="^boundary count of a gluing must be even$"):
        wick_moment("GOE", n)


#: The streams the counted routes read, as block streams: (ensemble, route) ->
#: (order, the block stream under a budget).
COUNTED_STREAMS = {
    ("GUE", "wick"): (12, lambda n, b: _pairings_of_blocks(unsigned_ground(n), budget=b)),
    ("GUE", "genus"): (12, lambda n, b: _pairings_of_blocks(unsigned_ground(n), budget=b)),
    ("LUE", "wick"): (7, lambda n, b: _permutations_of_blocks(unsigned_ground(n), budget=b)),
    ("LUE", "genus"): (5, lambda n, b: _bipartite_pairing_blocks(2 * n, budget=b)),
    ("GOE", "wick"): (8, lambda n, b: _signed_symmetric_pairings_blocks(n, budget=b)),
    ("GOE", "genus"): (8, lambda n, b: _signed_symmetric_pairings_blocks(n, budget=b)),
}


@pytest.mark.parametrize("ensemble, route", COUNTED_STREAMS)
def test_counted_routes_keep_the_budget_contract(ensemble, route):
    # a budget below the stream's length raises the block stream's error
    # (message, requested, cap); one equal to it changes nothing
    n, stream = COUNTED_STREAMS[ensemble, route]
    length = sum(map(len, stream(n, None)))
    for k in (0, 1, length - 1):
        with pytest.raises(CapExceeded) as rows:
            list(stream(n, EnumerationBudget(k)))
        with pytest.raises(CapExceeded) as counted:
            ROUTES[route](ensemble, n, budget=EnumerationBudget(k))
        assert str(counted.value) == str(rows.value)
        assert (counted.value.requested, counted.value.cap) == (k + 1, k)
    budgeted = ROUTES[route](ensemble, n, budget=EnumerationBudget(length))
    assert budgeted == ROUTES[route](ensemble, n)


@pytest.mark.parametrize("ensemble, route", COUNTED_STREAMS)
def test_counted_routes_refuse_an_order_above_the_cap_before_any_table(ensemble, route):
    order = FIRST_REFUSED[ensemble, route][0]
    annular.streams._table.cache_clear()
    annular.perms._CLASS_TABLES.clear()
    with pytest.raises(CapExceeded, match="above the cap"):
        ROUTES[route](ensemble, order)
    assert annular.streams._table.cache_info().currsize == 0
    assert not annular.perms._CLASS_TABLES

