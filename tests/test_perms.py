"""Kernel tests: ground sets, permutations, pairings, parsing, printing.

Expected values are either hand-checked tiny cases or come from the
naive dict-based oracles in ``oracles.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from annular.perms import (
    GroundSet,
    _coloured_cycle_count,
    Pairing,
    Permutation,
    compose,
    conjugate,
    inverse,
    is_jointly_transitive,
    join_block_count,
    num_cycles,
    parse_cycles,
    restricted_cycle_count,
    signed_ground,
    unsigned_ground,
)

import oracles


# ---------------------------------------------------------------- ground sets
def test_unsigned_ground_labels_and_indices():
    g = unsigned_ground(4)
    assert g.labels() == (1, 2, 3, 4)
    assert g.size == 4
    assert [g.index(x) for x in g.labels()] == [0, 1, 2, 3]
    assert [g.label(i) for i in range(4)] == [1, 2, 3, 4]
    assert 4 in g and 5 not in g and 0 not in g and -1 not in g


def test_signed_ground_labels_and_indices():
    g = signed_ground(3)
    assert g.labels() == (-3, -2, -1, 1, 2, 3)
    assert g.size == 6
    for i, x in enumerate(g.labels()):
        assert g.index(x) == i
        assert g.label(i) == x
    assert 0 not in g and 4 not in g and -4 not in g
    # negation is the index mirror i -> size-1-i
    for i in range(6):
        assert g.index(-g.label(i)) == 5 - i


def test_ground_equality_and_errors():
    assert unsigned_ground(4) == unsigned_ground(4)
    assert unsigned_ground(4) != signed_ground(4)
    assert unsigned_ground(4) != unsigned_ground(5)
    with pytest.raises(ValueError):
        unsigned_ground(4).index(0)
    with pytest.raises(ValueError):
        GroundSet("weird", 3)


# ---------------------------------------------------------------- composition
def test_compose_convention_right_factor_first():
    g = unsigned_ground(3)
    p = parse_cycles("(1,2)", g)
    q = parse_cycles("(2,3)", g)
    assert compose(p, q).cycle_string() == "(1,2,3)"
    assert compose(q, p).cycle_string() == "(1,3,2)"


def test_compose_matches_oracle_exhaustively_n4():
    g = unsigned_ground(4)
    perms = [Permutation(g, img) for img in _all_images(4)]
    for p in perms[:8]:
        for q in perms:
            got = compose(p, q).mapping()
            want = oracles.ref_compose(p.mapping(), q.mapping())
            assert got == want


def _all_images(size):
    from itertools import permutations as ip

    return list(ip(range(size)))


def test_inverse_and_identity():
    g = unsigned_ground(5)
    p = parse_cycles("(1,2,3)(4,5)", g)
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()
    assert inverse(p).cycle_string() == "(1,3,2)(4,5)"
    assert Permutation.identity(g).cycle_string() == ""


def test_conjugate_is_relabelling():
    g = unsigned_ground(3)
    p = parse_cycles("(1,2)", g)
    q = parse_cycles("(1,3)", g)
    assert conjugate(p, q).cycle_string() == "(2,3)"
    # q·p·q⁻¹ explicitly
    explicit = compose(compose(q, p), inverse(q))
    assert conjugate(p, q) == explicit


def test_cycle_counts_of_products_commute():
    g = unsigned_ground(6)
    p = parse_cycles("(1,4,2)(3,6)", g)
    q = parse_cycles("(2,5)(3,4,6,1)", g)
    assert num_cycles(compose(p, q)) == num_cycles(compose(q, p))


# -------------------------------------------------------------------- cycles
def test_cycles_canonical_form():
    g = unsigned_ground(6)
    p = parse_cycles("(3,6)(2,1)(4)", g)
    assert p.cycles() == ((1, 2), (3, 6), (4,), (5,))
    assert p.cycle_string() == "(1,2)(3,6)"


def test_cycles_on_signed_ground_sorted_by_integer_order():
    g = signed_ground(4)
    p = parse_cycles("(1,-4)(4,-1)(2,3)(-2,-3)", g)
    assert p.cycle_string() == "(-4,1)(-3,-2)(-1,4)(2,3)"


def test_num_cycles_example_pairing_against_full_cycle():
    # pi = (1,2)(3,6)(4,5), gamma = 1_6: #(pi^-1 gamma) = 4
    g = unsigned_ground(6)
    pi = parse_cycles("(1,2)(3,6)(4,5)", g)
    gamma = Permutation.from_cycles(g, [tuple(range(1, 7))])
    prod = compose(inverse(pi), gamma)
    assert prod.cycle_string() == "(2,6)(3,5)"
    assert prod.cycles() == ((1,), (2, 6), (3, 5), (4,))
    assert num_cycles(prod) == 4


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(7))), st.permutations(list(range(7))))
def test_compose_and_cycles_match_oracle_random(img_p, img_q):
    g = unsigned_ground(7)
    p = Permutation(g, img_p)
    q = Permutation(g, img_q)
    assert compose(p, q).mapping() == oracles.ref_compose(p.mapping(), q.mapping())
    assert p.cycles() == tuple(oracles.ref_cycles(p.mapping()))
    assert num_cycles(p) == oracles.ref_num_cycles(p.mapping())
    assert inverse(p).mapping() == oracles.ref_inverse(p.mapping())


# ------------------------------------------------------------------ restrict
def test_restrict_invariant_subset():
    g = unsigned_ground(6)
    p = parse_cycles("(2,6)(3,5)", g)
    assert restricted_cycle_count(p, {1, 4}) == 2
    assert restricted_cycle_count(p, {2, 6, 4}) == 2


def test_coloured_cycle_count_walks_once_for_both_counts():
    # (all cycles, colour-1 cycles) of x -> outer[inner[x]]; None on a mixed cycle
    img = parse_cycles("(2,6)(3,5)", unsigned_ground(6)).image
    identity = range(6)
    assert _coloured_cycle_count(img, identity, bytes([1, 0, 0, 1, 0, 0])) == (4, 2)
    assert _coloured_cycle_count(img, identity, bytes([0, 1, 0, 0, 0, 0])) is None


def test_restrict_rejects_non_invariant_subset():
    g = unsigned_ground(6)
    p = parse_cycles("(1,2,3)", g)
    with pytest.raises(ValueError):
        restricted_cycle_count(p, {1, 2})


# ------------------------------------------------------- join / transitivity
def test_join_block_count_and_transitivity():
    g = unsigned_ground(6)
    p = parse_cycles("(1,2)(3,4)", g)
    q = parse_cycles("(2,3)", g)
    # orbits of p: {1,2},{3,4},{5},{6}; q merges {1,2,3,4}
    assert join_block_count(p, q) == 3
    assert not is_jointly_transitive(p, q)
    full = Permutation.from_cycles(g, [tuple(range(1, 7))])
    assert join_block_count(p, full) == 1
    assert is_jointly_transitive(p, full)
    assert join_block_count(p, q) == oracles.ref_join_blocks(p.mapping(), q.mapping())


# ------------------------------------------------------------ parse / print
def test_parse_cycles_grammar():
    g = unsigned_ground(5)
    p = parse_cycles(" ( 1 ,2 ) (3,5 ,4)", g)
    assert p.mapping() == {1: 2, 2: 1, 3: 5, 5: 4, 4: 3}
    assert parse_cycles("", g).is_identity()
    assert parse_cycles("(3)", g).is_identity()


def test_parse_cycles_errors():
    g = unsigned_ground(4)
    with pytest.raises(ValueError):
        parse_cycles("(1,2", g)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", g)  # repeated label
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", g)  # label outside ground set
    with pytest.raises(ValueError):
        parse_cycles("()", g)  # grammar requires at least one int
    with pytest.raises(ValueError):
        parse_cycles("(0)", signed_ground(2))  # no zero on signed sets


def test_print_parse_round_trip_signed():
    g = signed_ground(3)
    p = parse_cycles("(-1,2)(-2,3)(-3,1)", g)
    s = p.cycle_string()
    assert s == "(-3,1)(-2,3)(-1,2)"
    assert parse_cycles(s, g) == p


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(8))))
def test_round_trip_random(img):
    g = unsigned_ground(8)
    p = Permutation(g, img)
    assert parse_cycles(p.cycle_string(), g) == p


# ------------------------------------------------------------------ pairings
def test_pairing_validation():
    g = unsigned_ground(4)
    with pytest.raises(ValueError):
        Pairing(g, (0, 1, 3, 2))  # fixed points 1,2
    p = Pairing.from_pairs(g, [(1, 3), (2, 4)])
    assert p.pairs() == ((1, 3), (2, 4))
    assert p.is_involution() and p.is_fixed_point_free()
    with pytest.raises(ValueError):
        Pairing.from_pairs(g, [(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        Pairing.from_pairs(g, [(1, 3)])


def test_permutation_validation():
    g = unsigned_ground(3)
    with pytest.raises(ValueError):
        Permutation(g, (0, 0, 1))
    with pytest.raises(ValueError):
        Permutation(g, (0, 1))
    with pytest.raises(ValueError):
        compose(Permutation.identity(g), Permutation.identity(unsigned_ground(4)))


def test_hash_and_equality():
    g = unsigned_ground(4)
    p1 = parse_cycles("(1,2)", g)
    p2 = Permutation.from_mapping(g, {1: 2, 2: 1})
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != parse_cycles("(1,3)", g)
    assert len({p1, p2}) == 1
