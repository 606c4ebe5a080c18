"""Gluing families: genus counts, bipartite refinements, hypermap reductions."""

import time
from math import comb, factorial
from types import SimpleNamespace

import pytest

import annular.maps
from annular.moments import genus_expansion_moment
from annular.frames import annulus_cycle, black_labels, full_cycle, tau2, white_labels
from annular.maps import (
    GLUINGS,
    MonochromaticityError,
    _has_hat_twist,
    family_a,
    family_a_counts,
    family_a_hat,
    family_a_tilde,
    family_a_tilde_counts,
    family_b,
    family_b_counts,
    family_b_hat,
    family_b_tilde,
    family_b_tilde_counts,
    gluing_counts,
    gluing_family,
    gluing_groups,
    gluing_key,
    has_twist,
    hypermap_from_bipartite_nonorientable,
    hypermap_from_bipartite_orientable,
    is_bipartite_pairing,
    is_bipartite_signed_pairing,
    nonorientable_euler_genus,
    nonorientable_white_grade,
    orientable_genus,
    orientable_white_grade,
)
from annular.perms import (
    Pairing,
    Permutation,
    _cycle_counts,
    _key_counts,
    compose,
    inverse,
    num_cycles,
    parse_cycles,
    signed_ground,
    unsigned_ground,
)
from annular.streams import (
    CapExceeded,
    EnumerationBudget,
    _bipartite_pairing_blocks,
    _bipartite_signed_symmetric_pairing_blocks,
    _mirror_pair_blocks,
    _pairing_blocks,
    _pairings_of_blocks,
    _permutations_of_blocks,
    _rows,
    _signed_symmetric_pairings_blocks,
    _signed_symmetric_permutations_blocks,
    pairings,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)

from oracles import (
    ref_catalan,
    ref_double_factorial,
    ref_family_a_counts,
    ref_family_a_hat_counts,
    ref_family_a_tilde_counts,
    ref_family_b_counts,
    ref_family_b_hat_counts,
    ref_family_b_tilde_counts,
    ref_harer_zagier,
    ref_hypermap_nonorientable,
    ref_hypermap_orientable,
    ref_narayana,
)
from test_golden import GLUING_SIZES
from test_streams import block_boundary_budgets, one_block_sizes


# ---------------------------------------------------------------------------
# orientable families a(n, g)
# ---------------------------------------------------------------------------

def test_family_a_known_counts():
    assert family_a_counts(2) == {0: 1}
    assert family_a_counts(4) == {0: 2, 1: 1}
    assert family_a_counts(6) == {0: 5, 1: 10}
    assert family_a_counts(8) == {0: 14, 1: 70, 2: 21}


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_family_a_counts_match_reference(n):
    assert family_a_counts(n) == ref_family_a_counts(n)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_planar_family_is_catalan(m):
    assert len(family_a(2 * m, 0)) == ref_catalan(m)


def test_family_a_partitions_all_pairings():
    for n in (2, 4, 6):
        assert sum(family_a_counts(n).values()) == ref_double_factorial(n - 1)


def test_family_a_odd_is_empty():
    assert family_a(3, 0) == ()


def test_genus_of_specific_pairings():
    g = unsigned_ground(4)
    assert orientable_genus(Pairing.from_pairs(g, [(1, 2), (3, 4)])) == 0
    assert orientable_genus(Pairing.from_pairs(g, [(1, 3), (2, 4)])) == 1
    assert orientable_genus(Pairing.from_pairs(g, [(1, 4), (2, 3)])) == 0


# ---------------------------------------------------------------------------
# non-orientable families b(n, k)
# ---------------------------------------------------------------------------

def test_family_b_known_counts():
    assert family_b_counts(2) == {1: 1}
    assert family_b_counts(4) == {1: 5, 2: 4}


@pytest.mark.parametrize("n", [2, 4, 6])
def test_family_b_counts_match_reference(n):
    assert family_b_counts(n) == ref_family_b_counts(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_b_counted_by_prefix_equals_the_row_pass(n):
    # the twisted rows of the block stream, keyed by their Euler genus one by
    # one, up to the stream's cap (±[12]); the prefix pass builds none of them
    def keys(block):
        twisted = (block[:, n:] >= n).any(axis=1)
        boundary = _cycle_counts(tau2(n).image, block[twisted])
        return ((n + 2 - boundary) // 2)[:, None]

    assert gluing_counts("b", n) == _key_counts(map(keys, _signed_symmetric_pairings_blocks(n)))


def test_b_is_counted_past_the_row_stream_cap():
    # ±[14]: the row stream is refused, the prefix pass runs 144,144
    # prefixes.  Every twisted gluing is counted once, and the one-face ones
    # number (4⁷ − C(14, 7))/2
    with pytest.raises(CapExceeded, match="above the cap 24"):
        _signed_symmetric_pairings_blocks(14)
    counts = gluing_counts("b", 14)
    assert counts[1,] == (4**7 - comb(14, 7)) // 2 == 6476
    assert sum(counts.values()) == ref_double_factorial(13) * (2**7 - 1)


def test_family_b2_of_4_exact_elements():
    got = {t.cycle_string() for t in family_b(4, 2)}
    assert got == {
        "(-4,-3)(-2,-1)(1,2)(3,4)",
        "(-4,-2)(-3,1)(-1,3)(2,4)",
        "(-4,2)(-3,-1)(-2,4)(1,3)",
        "(-4,-1)(-3,-2)(1,4)(2,3)",
    }


def test_family_b_requires_positive_k():
    with pytest.raises(ValueError):
        family_b(4, 0)


def test_untwisted_gluings_are_excluded_from_b():
    n = 4
    twisted = sum(family_b_counts(n).values())
    total = len(tuple(signed_symmetric_pairings(n)))
    untwisted = sum(
        1 for t in signed_symmetric_pairings(n) if not has_twist(t)
    )
    assert untwisted == ref_double_factorial(n - 1)
    assert twisted + untwisted == total


def test_projective_plane_example():
    g = signed_ground(2)
    t = Pairing.from_pairs(g, [(1, 2), (-1, -2)])
    assert has_twist(t)
    assert nonorientable_euler_genus(t) == 1


# ---------------------------------------------------------------------------
# bipartite label sets and predicates
# ---------------------------------------------------------------------------

def test_black_and_white_labels():
    assert black_labels(2) == (-4, -2, 1, 3)
    assert white_labels(2) == (-3, -1, 2, 4)
    for m in range(1, 5):
        b, w = set(black_labels(m)), set(white_labels(m))
        assert b | w == set(signed_ground(2 * m).labels())
        assert not (b & w)
        assert {-x for x in b} == w


def test_bipartite_pairing_predicate():
    g = unsigned_ground(4)
    assert is_bipartite_pairing(Pairing.from_pairs(g, [(1, 2), (3, 4)]))
    assert not is_bipartite_pairing(Pairing.from_pairs(g, [(1, 3), (2, 4)]))


def test_white_grade_rejects_non_bipartite():
    g = unsigned_ground(4)
    with pytest.raises((MonochromaticityError, ValueError)):
        orientable_white_grade(Pairing.from_pairs(g, [(1, 3), (2, 4)]))


def test_nonorientable_white_grade_rejects_non_bipartite():
    mixed = Pairing.from_pairs(signed_ground(4), [(1, 2), (-1, -2), (3, 4), (-3, -4)])
    with pytest.raises(MonochromaticityError, match="mixes colour classes"):
        nonorientable_white_grade(mixed)


def test_statistics_reject_mismatched_ground_sets():
    signed = next(signed_symmetric_pairings(4))
    unsigned = next(pairings(4))
    odd_signed = Pairing.from_pairs(signed_ground(3), [(1, -2), (-1, 2), (3, -3)])
    for stat, arg in (
        (orientable_genus, signed),
        (orientable_white_grade, signed),
        (nonorientable_euler_genus, unsigned),
        (nonorientable_white_grade, unsigned),
        (nonorientable_white_grade, odd_signed),
    ):
        with pytest.raises(ValueError, match="equal ground sets"):
            stat(arg)


# ---------------------------------------------------------------------------
# bipartite families ã(n, g, p), b̃(n, k, p)
# ---------------------------------------------------------------------------

def test_family_a_tilde_small_counts():
    assert family_a_tilde_counts(1) == {(0, 1): 1}
    assert family_a_tilde_counts(2) == {(0, 1): 1, (0, 2): 1}
    assert family_a_tilde_counts(3) == {(0, 1): 1, (0, 2): 3, (0, 3): 1, (1, 1): 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_family_a_tilde_counts_match_reference(n):
    assert family_a_tilde_counts(n) == ref_family_a_tilde_counts(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_a_tilde_total_is_factorial(n):
    assert sum(family_a_tilde_counts(n).values()) == factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_planar_bipartite_grades_are_narayana(n):
    counts = family_a_tilde_counts(n)
    for p in range(1, n + 1):
        assert counts.get((0, p), 0) == ref_narayana(n, p)


def test_family_b_tilde_smallest_case():
    assert family_b_tilde_counts(1) == {}
    assert family_b_tilde_counts(2) == {(1, 1): 1}
    only = family_b_tilde(2, 1, 1)[0]
    assert only.cycle_string() == "(-4,-2)(-3,-1)(1,3)(2,4)"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_b_tilde_counts_match_reference(n):
    assert family_b_tilde_counts(n) == ref_family_b_tilde_counts(n)


def test_tilde_family_caps_apply_to_the_ground_size():
    # the first refused n: ã is counted by prefix on [2n] (cap 24) and
    # built by rows on [2n] (cap 18), b̃ reads ±[2n] (cap 32)
    for build, sizes in (
        (lambda: family_a_tilde_counts(13), (26, 24)),
        (lambda: family_b_tilde_counts(9), (36, 32)),
        (lambda: family_a_tilde(10, 0, 1), (20, 18)),
        (lambda: family_b_tilde(9, 1, 1), (36, 32)),
    ):
        with pytest.raises(CapExceeded) as info:
            build()
        assert (info.value.requested, info.value.cap) == sizes


@pytest.mark.parametrize("tag", GLUINGS)
def test_huge_sizes_are_refused_at_once(tag):
    # one compare of sizes, before any frame of size n is built
    for count in (gluing_counts, gluing_groups):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="above the cap"):
            count(tag, 10**9)
        assert time.perf_counter() - start < 0.1


def test_tilde_family_budget_counts_built_gluings():
    # ã(3, ·, ·) builds 3! = 6 bipartite pairings, b̃(2, ·, ·) builds 3!! = 3
    assert sum(family_a_tilde_counts(3, budget=EnumerationBudget(6)).values()) == 6
    with pytest.raises(CapExceeded):
        family_a_tilde_counts(3, budget=EnumerationBudget(5))
    assert family_b_tilde_counts(2, budget=EnumerationBudget(3)) == {(1, 1): 1}
    with pytest.raises(CapExceeded):
        family_b_tilde(2, 1, 1, budget=EnumerationBudget(2))


def test_tilde_families_match_filtered_pairing_streams_in_order():
    for n in (1, 2, 3, 4):
        for g in range(0, 3):
            for p in range(1, n + 1):
                want = tuple(
                    pi
                    for pi in pairings(2 * n)
                    if is_bipartite_pairing(pi)
                    and orientable_genus(pi) == g
                    and orientable_white_grade(pi) == p
                )
                assert family_a_tilde(n, g, p) == want
    for n in (1, 2, 3):
        for k in range(1, 4):
            for p in range(1, n + 1):
                want = tuple(
                    t
                    for t in signed_symmetric_pairings(2 * n)
                    if is_bipartite_signed_pairing(t)
                    and has_twist(t)
                    and nonorientable_euler_genus(t) == k
                    and nonorientable_white_grade(t) == p
                )
                assert family_b_tilde(n, k, p) == want


def test_bipartite_signed_predicate():
    g = signed_ground(4)
    twisted_pair = Pairing.from_pairs(g, [(1, 3), (-1, -3), (2, 4), (-2, -4)])
    assert is_bipartite_signed_pairing(twisted_pair)
    mixed = Pairing.from_pairs(g, [(1, 2), (-1, -2), (3, 4), (-3, -4)])
    assert not is_bipartite_signed_pairing(mixed)


# ---------------------------------------------------------------------------
# hypermap families â(n, g, p), b̂(n, k, p)
# ---------------------------------------------------------------------------

def test_family_a_hat_small_counts():
    counts = {
        (g, p): len(family_a_hat(3, g, p))
        for g, p in [(0, 1), (0, 2), (0, 3), (1, 1)]
    }
    assert counts == {(0, 1): 1, (0, 2): 3, (0, 3): 1, (1, 1): 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family_a_hat_counts_match_reference(n):
    ref = ref_family_a_hat_counts(n)
    got = {}
    for (g, p), size in ref.items():
        got[(g, p)] = len(family_a_hat(n, g, p))
    assert got == ref
    assert sum(ref.values()) == factorial(n)


def test_family_a_hat_distinguished_members():
    for n in range(1, 6):
        full = full_cycle(n)
        ident = Permutation.identity(unsigned_ground(n))
        assert family_a_hat(n, 0, 1) == (full,)
        assert ident in family_a_hat(n, 0, n)
    assert [p.cycle_string() for p in family_a_hat(3, 1, 1)] == ["(1,3,2)"]
    assert parse_cycles("(1,2)", unsigned_ground(3)) in family_a_hat(3, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_b_hat_counts_match_reference(n):
    ref = ref_family_b_hat_counts(n)
    got = {}
    for (k, p), size in ref.items():
        got[(k, p)] = len(family_b_hat(n, k, p))
    assert got == ref


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_b_hat_total(n):
    ref = ref_family_b_hat_counts(n)
    stream_total = len(tuple(signed_symmetric_permutations(n)))
    assert sum(ref.values()) == stream_total - factorial(n)


def test_family_b_hat_smallest_case():
    assert [t.cycle_string() for t in family_b_hat(2, 1, 1)] == ["(-2,1)(-1,2)"]
    assert family_b_hat(1, 1, 1) == ()


#: The three gluing-table entry points; ``gluing_family`` reads the grade.
GLUING_CALLS = {
    "gluing_groups": lambda tag, n, grade, budget: gluing_groups(tag, n, budget=budget),
    "gluing_counts": lambda tag, n, grade, budget: gluing_counts(tag, n, budget=budget),
    "gluing_family": lambda tag, n, grade, budget: gluing_family(tag, n, grade, budget=budget),
}


@pytest.mark.parametrize("budget", [None, EnumerationBudget(0)])
@pytest.mark.parametrize("call", GLUING_CALLS)
@pytest.mark.parametrize(
    "tag, n, grade, message",
    [
        (tag, n, (1,) * len(entry.grades), "n must be a positive integer")
        for tag, entry in GLUINGS.items()
        for n in (0, -1)
    ]
    + [("zz", 4, (1,), r"unknown gluing family 'zz'; known: \('a', 'b', ")],
)
def test_gluing_side_rejects_a_bad_size_or_tag_before_the_stream(
    tag, n, grade, message, call, budget
):
    # a ValueError every time (grade 1 is one each family takes), never a
    # value and never the budget's CapExceeded: b, b-tilde and a-tilde once
    # returned an empty family at some n <= 0
    with pytest.raises(ValueError, match=message):
        GLUING_CALLS[call](tag, n, grade, budget)


@pytest.mark.parametrize("budget", [None, EnumerationBudget(0)])
@pytest.mark.parametrize(
    "tag, grade, message",
    [
        ("a", (0, 1), r"family a takes the grades \('genus',\), got \(0, 1\)"),
        ("a-tilde", (0,), r"family a-tilde takes the grades \('genus', 'p'\), got \(0,\)"),
        ("b", (1.0,), "k must be an integer, got 1.0"),
        ("b-hat", (1, True), "p must be an integer, got True"),
    ],
)
def test_gluing_family_refuses_a_grade_of_the_wrong_length_or_type(tag, grade, message, budget):
    # a ValueError naming the family's grades, before any stream starts: a
    # budget of 0 would raise CapExceeded at the first element
    with pytest.raises(ValueError, match=message):
        gluing_family(tag, 4, grade, budget=budget)


def test_hat_twist_predicate():
    g = signed_ground(2)
    assert _has_hat_twist(parse_cycles("(-2,1)(-1,2)", g).image)
    assert not _has_hat_twist(parse_cycles("(1,2)(-2,-1)", g).image)


# ---------------------------------------------------------------------------
# hypermap reductions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orientable_reduction_is_a_grade_preserving_bijection(n):
    gamma = full_cycle(n)
    images = set()
    for pi in pairings(2 * n):
        if not is_bipartite_pairing(pi):
            continue
        red = hypermap_from_bipartite_orientable(pi)
        images.add(red)
        p = num_cycles(red)
        faces = num_cycles(compose(inverse(red), gamma))
        g = (n - p + 1 - faces) // 2
        assert (orientable_genus(pi), orientable_white_grade(pi)) == (g, p)
    assert len(images) == factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonorientable_reduction_preserves_grades(n):
    gamma = annulus_cycle(n)
    tau0_map = {x: -x for x in signed_ground(n).labels()}
    images = set()
    count = 0
    for t in signed_symmetric_pairings(2 * n):
        if not is_bipartite_signed_pairing(t) or not has_twist(t):
            continue
        count += 1
        red = hypermap_from_bipartite_nonorientable(t)
        images.add(red)
        # image satisfies the mirror and fixed-point-free conditions
        for x in red.domain.labels():
            assert red(-red(x)) == -x
            assert red(x) != -x
        assert _has_hat_twist(red.image)
        # grades agree with the invariants recomputed on the image
        p = num_cycles(red) // 2
        boundary = num_cycles(compose(gamma, red)) // 2
        k = n - p + 1 - boundary
        assert (nonorientable_euler_genus(t), nonorientable_white_grade(t)) == (k, p)
    assert len(images) == count  # injective


def _as_map(perm: Permutation) -> dict:
    return {x: perm(x) for x in perm.domain.labels()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orientable_reduction_equals_the_label_space_reference(n):
    for pi in pairings(2 * n):
        if is_bipartite_pairing(pi):
            got = hypermap_from_bipartite_orientable(pi)
            assert _as_map(got) == ref_hypermap_orientable(_as_map(pi), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonorientable_reduction_equals_the_label_space_reference(n):
    # every bipartite gluing, twisted or not
    for t in signed_symmetric_pairings(2 * n):
        if is_bipartite_signed_pairing(t):
            got = hypermap_from_bipartite_nonorientable(t)
            assert _as_map(got) == ref_hypermap_nonorientable(_as_map(t), n)


def test_orientable_reduction_rejects_non_bipartite():
    g = unsigned_ground(4)
    with pytest.raises(ValueError):
        hypermap_from_bipartite_orientable(Pairing.from_pairs(g, [(1, 3), (2, 4)]))


def test_nonorientable_reduction_rejects_non_bipartite():
    g = signed_ground(4)
    t = Pairing.from_pairs(g, [(1, 2), (-1, -2), (3, 4), (-3, -4)])
    with pytest.raises(ValueError):
        hypermap_from_bipartite_nonorientable(t)


def test_nonorientable_reduction_rejects_a_ground_other_than_an_even_signed_one():
    # the index kernel reads its relabelling of ±[2m]; another ground is refused
    for t in (
        Pairing.from_pairs(unsigned_ground(4), [(1, 2), (3, 4)]),
        Pairing.from_pairs(signed_ground(3), [(1, -2), (-1, 2), (3, -3)]),
    ):
        with pytest.raises(ValueError):
            hypermap_from_bipartite_nonorientable(t)


def test_reduction_anchor_values():
    g4 = unsigned_ground(4)
    assert (
        hypermap_from_bipartite_orientable(Pairing.from_pairs(g4, [(1, 4), (2, 3)])).cycle_string()
        == "(1,2)"
    )
    s4 = signed_ground(4)
    t = Pairing.from_pairs(s4, [(1, 3), (-1, -3), (2, 4), (-2, -4)])
    assert hypermap_from_bipartite_nonorientable(t).cycle_string() == "(-2,1)(-1,2)"


# ---------------------------------------------------------------------------
# the batched keys against the per-image keys
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag", GLUINGS)
def test_gluing_counts_equal_the_histogram_of_gluing_groups(tag):
    # the tally and the grouping of one batched pass: same grades, sizes and order
    for n in range(1, GLUING_SIZES[tag] + 1):
        groups = gluing_groups(tag, n)
        assert list(gluing_counts(tag, n).items()) == [(k, len(v)) for k, v in groups.items()]


@pytest.mark.parametrize("tag", GLUINGS)
def test_per_image_key_equals_the_batched_key_on_every_row(tag):
    # gluing_key reads one permutation through the per-image kernel,
    # gluing_groups the source blocks through the batched one
    entry = GLUINGS[tag]
    member = Pairing if entry.pairs else Permutation
    for n in range(1, GLUING_SIZES[tag] + 1):
        size = 2 * n if entry.doubled else n
        ground = signed_ground(size) if entry.signed else unsigned_ground(size)
        group_of = {
            pi.image: key for key, members in gluing_groups(tag, n).items() for pi in members
        }
        rows = list(_rows(entry.source(n, None, None)))
        assert group_of.keys() <= set(rows)
        for img in rows:
            assert gluing_key(tag, member(ground, img)) == group_of.get(img)


@pytest.mark.parametrize(
    "tag, source, n, stream",
    [
        ("a-tilde", "_bipartite_pairing_blocks", 3, lambda size: _pairing_blocks(size)),
        (
            "b-tilde",
            "_bipartite_signed_symmetric_pairing_blocks",
            2,
            lambda size: _mirror_pair_blocks(size, "every"),
        ),
    ],
)
def test_batched_key_raises_the_per_image_error_on_a_mixed_row(monkeypatch, tag, source, n, stream):
    # fed every pairing, not only the bipartite ones, a pass meets a walk
    # that mixes the colour classes; the batched passes raise what the
    # per-image key raises on the first row that it rejects.  The counts
    # of a-tilde are read by prefix, not from this source: the prefix
    # pass's error is tested below with a walk that mixes the classes
    monkeypatch.setattr(annular.maps, source, lambda size, cap, budget: stream(size))
    with pytest.raises(MonochromaticityError) as per_image:
        for row in _rows(stream(2 * n)):
            GLUINGS[tag].key(row)
    for call in (gluing_groups, gluing_counts) if GLUINGS[tag].signed else (gluing_groups,):
        with pytest.raises(MonochromaticityError) as batched:
            call(tag, n)
        assert str(batched.value) == str(per_image.value)


@pytest.mark.parametrize(
    "tag, n, blocks",
    [
        ("a", 10, lambda: _pairings_of_blocks(unsigned_ground(10))),
        ("b", 8, lambda: _signed_symmetric_pairings_blocks(8)),
        ("a-tilde", 6, lambda: _bipartite_pairing_blocks(12)),
        ("b-tilde", 5, lambda: _bipartite_signed_symmetric_pairing_blocks(10, cap=20)),
        ("a-hat", 7, lambda: _permutations_of_blocks(unsigned_ground(7))),
        ("b-hat", 5, lambda: _signed_symmetric_permutations_blocks(5, cap=10)),
    ],
)
def test_gluing_counts_budget_contract_at_block_boundaries(tag, n, blocks):
    length, budgets = block_boundary_budgets(blocks())
    cap = {"b-tilde": 20, "b-hat": 10}.get(tag)
    for k in budgets:
        with pytest.raises(CapExceeded, match=rf"exceeded the element budget \({k}\)$") as info:
            gluing_counts(tag, n, cap=cap, budget=EnumerationBudget(k))
        assert (info.value.requested, info.value.cap) == (k + 1, k)
    full = gluing_counts(tag, n, cap=cap, budget=EnumerationBudget(length))
    assert full == gluing_counts(tag, n, cap=cap)


# ---------------------------------------------------------------------------
# one-block passes kept per process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag", GLUINGS)
def test_a_kept_gluing_pass_equals_a_fresh_one(tag):
    # at every size whose source ends within one block, the second call is
    # served from the kept pass and equals a pass with nothing kept: the
    # same grades in the same order, the same members in stream order
    sizes = one_block_sizes(lambda n: GLUINGS[tag].source(n, None, None))
    assert sizes
    for n in sizes:
        gluing_groups(tag, n)
        assert (tag, n) in annular.maps._GROUPS
        kept = gluing_groups(tag, n)
        annular.maps._GROUPS.clear()
        fresh = gluing_groups(tag, n)
        assert list(kept.items()) == list(fresh.items())
        assert all(type(pi) is type(fresh_pi)
                   for key in fresh for pi, fresh_pi in zip(kept[key], fresh[key]))


def test_a_kept_gluing_pass_is_not_changed_through_a_returned_dict():
    want = gluing_groups("a", 6)
    got = gluing_groups("a", 6)
    got.clear()
    got[(7,)] = ()
    assert gluing_groups("a", 6) == want
    assert family_a(6, 1) == want[(1,)]


def test_a_budget_or_a_cap_bypasses_the_kept_gluing_pass():
    # the pass at ±[4] is kept; a budget still counts its rows and raises on
    # every repeat, and a cap is checked before anything kept is read
    assert gluing_groups("b", 4)
    for _ in range(2):
        with pytest.raises(CapExceeded, match=r"element budget \(3\)"):
            gluing_groups("b", 4, budget=EnumerationBudget(3))
        with pytest.raises(CapExceeded, match="above the cap 7"):
            gluing_groups("b", 4, cap=7)
        with pytest.raises(CapExceeded, match=r"element budget \(3\)"):
            family_b(4, 1, budget=EnumerationBudget(3))
    annular.maps._GROUPS.clear()
    gluing_groups("b", 4, budget=EnumerationBudget(12))
    gluing_groups("b", 4, cap=8)
    assert not annular.maps._GROUPS


@pytest.mark.parametrize("n, kept", [(4, True), (8, False)])
def test_a_gluing_source_of_two_blocks_is_read_on_every_call(monkeypatch, n, kept):
    # ±[4] holds 12 gluings, one block: read once; ±[8] holds 1680: read each time
    calls = []
    original = annular.maps._signed_symmetric_pairings_blocks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(annular.maps, "_signed_symmetric_pairings_blocks", counted)
    first = gluing_groups("b", n)
    assert gluing_groups("b", n) == first
    assert len(calls) == (1 if kept else 2)
    assert (("b", n) in annular.maps._GROUPS) == kept


def test_a_failed_gluing_pass_is_not_kept(monkeypatch):
    def broken(size, cap, budget):
        yield next(_pairing_blocks(size))
        raise RuntimeError("source failed")

    monkeypatch.setattr(annular.maps, "_bipartite_pairing_blocks", broken)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="source failed"):
            gluing_groups("a-tilde", 2)
    assert not annular.maps._GROUPS


# ---------------------------------------------------------------- counted by prefix
#: The reference histograms of the families gluing_counts reads by prefix.
PREFIX_REFERENCES = {
    "a": (ref_family_a_counts, range(2, 9, 2)),
    "a-tilde": (ref_family_a_tilde_counts, range(1, 5)),
    "a-hat": (ref_family_a_hat_counts, range(1, 7)),
}


@pytest.mark.parametrize(
    "tag, n",
    [("a", n) for n in range(2, 17, 2)]
    + [(tag, n) for tag in ("a-tilde", "a-hat") for n in range(1, 10)],
)
def test_gluing_counts_by_prefix_equal_a_row_pass(tag, n):
    # a, a-tilde and a-hat are counted by prefix; the batched row kernels,
    # run here over the whole source, count the same histogram
    entry = GLUINGS[tag]
    rows = _key_counts(entry.keys(block)[1] for block in entry.source(n, None, None))
    assert list(gluing_counts(tag, n).items()) == list(rows.items())
    reference, sizes = PREFIX_REFERENCES[tag]
    if n in sizes:
        want = reference(n)
        assert gluing_counts(tag, n) == {
            key if isinstance(key, tuple) else (key,): count for key, count in want.items()
        }


def test_gluing_counts_by_prefix_read_no_block_source(monkeypatch):
    def refused(*args):
        raise AssertionError("a block source was read")

    for source in ("_pairings_of_blocks", "_bipartite_pairing_blocks", "_permutations_of_blocks"):
        monkeypatch.setattr(annular.maps, source, refused)
    for tag, n, length in (("a", 12, 10_395), ("a-tilde", 6, 720), ("a-hat", 8, 40_320)):
        assert sum(gluing_counts(tag, n).values()) == length


def _refusal(call) -> tuple[str, int, int]:
    with pytest.raises(CapExceeded) as info:
        call()
    return str(info.value), info.value.requested, info.value.cap


def test_a_hat_counts_honour_an_explicit_cap():
    # the budget contract is held by the block-boundary test above; the cap
    # of the counted stream is replaced by an explicit one as the block
    # stream's is, and by default measures the prefixes run
    want = _refusal(lambda: _permutations_of_blocks(unsigned_ground(9), cap=8))
    assert _refusal(lambda: gluing_counts("a-hat", 9, cap=8)) == want
    assert want[1:] == (9, 8)
    assert _refusal(lambda: gluing_counts("a-hat", 13))[1:] == (13, 12)


@pytest.mark.parametrize("tag", ["a-tilde", "a-hat"])
def test_counted_families_at_ten_hold_every_permutation(tag):
    # n = 10 is refused by both row streams (bipartite pairings of [20],
    # permutations of [10]) and admitted by both counting passes
    counts = gluing_counts(tag, 10)
    assert sum(counts.values()) == factorial(10)
    assert {p: c for (g, p), c in counts.items() if g == 0} == {
        p: ref_narayana(10, p) for p in range(1, 11)
    }


def test_genus_counts_follow_the_harer_zagier_recursion():
    # past [16], where the pairing stream's row cap stops the row pass
    for m in range(2, 19, 2):
        want = {(g,): count for g, count in ref_harer_zagier(m // 2).items()}
        assert gluing_counts("a", m) == want


@pytest.mark.parametrize("tag", GLUINGS)
def test_grades_come_in_ascending_order(tag):
    for n in range(1, GLUING_SIZES[tag] + 1):
        counts = gluing_counts(tag, n)
        assert list(counts) == sorted(counts)
        assert list(gluing_groups(tag, n)) == sorted(counts)


def _identity_walk(gamma):
    """A face walk that is no walk: every label stays, so a pairing's faces are its pairs."""
    return tuple(range(len(gamma.image))), len(gamma.image)


# the tail table alone; one prefix pair before it; past the pairing stream's row cap
@pytest.mark.parametrize("n", [4, 12, 18])
def test_prefix_pass_raises_the_per_image_genus_error(monkeypatch, n):
    # n/2 faces leave an odd twice-genus on every pairing, the first one included;
    # only the completions of the first prefix are keyed, so no size is refused
    monkeypatch.setattr(annular.maps, "gamma_walk", _identity_walk)
    with pytest.raises(ValueError, match="impossible face count") as per_image:
        GLUINGS["a"].key(next(_rows(_pairing_blocks(n))))
    for call in (lambda: gluing_counts("a", n), lambda: genus_expansion_moment("GUE", n)):
        with pytest.raises(ValueError) as counted:
            call()
        assert str(counted.value) == str(per_image.value)


def _odd_boundary_walk(n):
    """A walk that is no boundary walk: one transposition, so every count #(walk∘τ₁) is odd."""
    return SimpleNamespace(image=(1, 0, *range(2, 2 * n)))


@pytest.mark.parametrize("n", [4, 12])  # the tail table alone; three prefix pairs before it
def test_prefix_pass_raises_the_per_image_euler_genus_error(monkeypatch, n):
    # the first twisted row of the stream is the first the error path keys
    monkeypatch.setattr(annular.maps, "tau2", _odd_boundary_walk)
    first = next(row for row in _rows(_mirror_pair_blocks(n, "every")) if max(row[n:]) >= n)
    with pytest.raises(ValueError, match="impossible boundary count") as per_image:
        GLUINGS["b"].key(first)
    for call in (lambda: gluing_counts("b", n), lambda: genus_expansion_moment("GOE", n)):
        with pytest.raises(ValueError) as counted:
            call()
        assert str(counted.value) == str(per_image.value)


@pytest.mark.parametrize("n", [3, 7])  # no prefix: only the contraction keeps the colour
def test_prefix_pass_raises_monochromaticity_error(monkeypatch, n):
    monkeypatch.setattr(annular.maps, "gamma_walk", _identity_walk)
    with pytest.raises(MonochromaticityError) as per_image:
        GLUINGS["a-tilde"].key(next(_rows(_bipartite_pairing_blocks(2 * n))))
    for call in (lambda: genus_expansion_moment("LUE", n), lambda: gluing_counts("a-tilde", n)):
        with pytest.raises(MonochromaticityError) as counted:
            call()
        assert str(counted.value) == str(per_image.value)
