"""Kernel tests: ground sets, permutations, pairings, parsing, printing.

Expected values are either hand-checked tiny cases or come from the
naive dict-based oracles in ``oracles.py``.
"""

import random
from collections import Counter
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annular.frames import odd_mask
from annular.perms import (
    GroundSet,
    _class_table,
    _coloured_cycle_count,
    _cycle_count,
    _cycle_counts,
    _cycle_types,
    _key_counts,
    _prefix_cycle_counts,
    Pairing,
    Permutation,
    compose,
    conjugate,
    inverse,
    join_block_count,
    num_cycles,
    parse_cycles,
    restricted_cycle_count,
    signed_ground,
    unsigned_ground,
)

from annular.bijections import verify, verify_grades
from annular.noncrossing import NCFamilyId, family_nc
from annular.streams import EnumerationBudget, _prefixes, _table, pairings

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EnumerationBudget(True), "max_elements must be an integer, got True"),
        (lambda: verify("phi1", 4.0), "n must be an integer, got 4.0"),
        (lambda: verify_grades("phi1-tilde", 2.0), "n must be an integer, got 2.0"),
        (lambda: NCFamilyId("NC", 2.5), "n must be an integer, got 2.5"),
        (lambda: NCFamilyId("NCT_p", 4, 1.5), "p must be an integer, got 1.5"),
        (lambda: pairings(4.0), "ground-set parameter n must be an integer, got 4.0"),
        (lambda: unsigned_ground(True), "ground-set parameter n must be an integer, got True"),
    ],
    ids=["budget", "verify", "verify_grades", "NCFamilyId-n", "NCFamilyId-p", "pairings", "ground"],
)
def test_sizes_grades_and_budgets_must_be_integers(call, message):
    # one rule where each value enters: bools and floats are refused, even
    # after the equal int's ground, gluing pass and family are kept
    unsigned_ground(1)
    unsigned_ground(4)
    verify("phi1", 4)
    verify_grades("phi1-tilde", 2)
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integers_are_sizes_and_budgets():
    assert len(list(pairings(np.int64(6), budget=EnumerationBudget(np.int64(15))))) == 15
    assert unsigned_ground(np.int64(4)) == unsigned_ground(4)
    assert len(family_nc(NCFamilyId("NCT_p", np.int64(4), np.int64(1)))) == 5


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


@st.composite
def _ground_and_image(draw):
    ground = draw(st.sampled_from([unsigned_ground, signed_ground]))(draw(st.integers(0, 6)))
    return ground, draw(st.permutations(list(range(ground.size))))


@settings(max_examples=150, deadline=None)
@given(_ground_and_image())
def test_cycles_and_cycle_string_match_oracle_on_both_grounds(inputs):
    ground, image = inputs
    p = Permutation(ground, image)
    want = tuple(oracles.ref_cycles(p.mapping()))
    assert p.cycles() == want
    assert p.cycle_string() == "".join(
        "(" + ",".join(map(str, cyc)) + ")" for cyc in want if len(cyc) > 1
    )
    assert parse_cycles(p.cycle_string(), ground) == p


@st.composite
def _printed_permutations(draw):
    """A permutation of a ground of size up to 12 on either kind: the
    identity, a pairing, or a permutation of a random part of the ground
    with the rest fixed."""
    signed = draw(st.booleans())
    ground = signed_ground(draw(st.integers(0, 6))) if signed else unsigned_ground(draw(st.integers(0, 12)))
    image = list(range(ground.size))
    kind = draw(st.sampled_from(("identity", "pairing", "part")))
    if kind == "pairing" and ground.size % 2 == 0:
        order = draw(st.permutations(image))
        for x, y in zip(order[::2], order[1::2]):
            image[x], image[y] = y, x
    elif kind == "part":
        moved = draw(st.lists(st.sampled_from(image), unique=True)) if image else []
        for x, y in zip(moved, draw(st.permutations(moved))):
            image[x] = y
    return Permutation(ground, image)


@settings(max_examples=300, deadline=None)
@given(_printed_permutations())
def test_cycle_string_equals_the_generic_form(p):
    assert p.cycle_string() == oracles.ref_cycle_string(p)
    if p.is_identity():
        assert p.cycle_string() == ""


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
    full = Permutation.from_cycles(g, [tuple(range(1, 7))])
    assert join_block_count(p, full) == 1
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
    with pytest.raises(ValueError, match="compose requires equal ground sets"):
        compose(Permutation.identity(g), Permutation.identity(unsigned_ground(4)))
    with pytest.raises(ValueError, match="conjugate requires equal ground sets"):
        conjugate(Permutation.identity(g), Permutation.identity(unsigned_ground(4)))


def test_hash_and_equality():
    g = unsigned_ground(4)
    p1 = parse_cycles("(1,2)", g)
    p2 = Permutation.from_mapping(g, {1: 2, 2: 1})
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != parse_cycles("(1,3)", g)
    assert len({p1, p2}) == 1


@st.composite
def _kernel_inputs(draw):
    size = draw(st.integers(1, 24))
    image = st.permutations(list(range(size)))
    outer = draw(image)
    rows = draw(st.lists(image, max_size=50))
    colour = bytes(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    return outer, np.array(rows, dtype=np.intp).reshape(len(rows), size), colour


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs())
def test_batched_cycle_counts_equal_the_per_image_kernels(inputs):
    outer, block, colour = inputs
    rows = [tuple(row) for row in block.tolist()]
    assert _cycle_counts(outer, block).tolist() == [_cycle_count(outer, row) for row in rows]
    cycles, inside, mixed = _cycle_counts(outer, block, colour)
    for k, row in enumerate(rows):
        want = _coloured_cycle_count(outer, row, colour)
        assert bool(mixed[k]) == (want is None)
        if want is not None:
            assert (cycles[k], inside[k]) == want


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33])
def test_batched_cycle_counts_at_the_round_count_edges(size):
    # one cycle through every point needs all ⌈log₂ size⌉ doubling rounds;
    # each row's walk x -> outer[row[x]] is a full cycle, or the identity
    rng = np.random.default_rng(size)
    shift = [(x + 1) % size for x in range(size)]
    order = rng.permutation(size).tolist()
    scrambled = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        scrambled[a] = b
    identity = list(range(size))
    outer_rows = [
        (identity, [shift, scrambled, identity]),
        (shift, [identity]),  # the walk is outer itself
        (scrambled, [identity, shift]),
    ]
    colours = [bytes(size), bytes([1]) * size, bytes(x % 2 for x in range(size))]
    for outer, rows in outer_rows:
        for block in (np.array(rows, dtype=np.intp).reshape(len(rows), size),
                      np.empty((0, size), dtype=np.intp)):
            images = [tuple(row) for row in block.tolist()]
            got = _cycle_counts(outer, block)
            assert got.tolist() == [_cycle_count(outer, row) for row in images]
            for colour in colours:
                cycles, inside, mixed = _cycle_counts(outer, block, colour)
                for k, row in enumerate(images):
                    want = _coloured_cycle_count(outer, row, colour)
                    assert bool(mixed[k]) == (want is None)
                    if want is not None:
                        assert (cycles[k], inside[k]) == want
    # the premise: the shift is one cycle through every point
    assert _cycle_counts(identity, np.array([shift], dtype=np.intp)).tolist() == [min(size, 1)]


@st.composite
def _key_streams(draw):
    width = draw(st.integers(1, 2))
    sizes = draw(st.lists(st.integers(0, 6), max_size=6))
    late = draw(st.lists(st.integers(0, 40), min_size=width, max_size=width))
    blocks = []
    for b, rows in enumerate(sizes):
        values = draw(st.lists(st.integers(0, 4), min_size=rows * width, max_size=rows * width))
        block = np.array(values, dtype=np.intp).reshape(rows, width)
        if b == len(sizes) - 1 and rows:  # a key first seen in the last block
            block[-1] = late
        blocks.append(block)
    return blocks


@settings(max_examples=200, deadline=None)
@given(_key_streams())
def test_key_counts_equal_a_counter_of_row_tuples_in_ascending_order(blocks):
    want = Counter(tuple(row) for block in blocks for row in block.tolist())
    got = _key_counts(iter(blocks))
    assert got == dict(want)
    assert list(got) == sorted(want)


def test_key_counts_edge_streams():
    assert _key_counts(iter(())) == {}
    assert _key_counts([np.empty((0, 2), dtype=np.intp)] * 3) == {}
    one = np.array([[3, 0]], dtype=np.intp)
    assert _key_counts([one]) == {(3, 0): 1}
    blocks = [np.array([[1], [1]]), np.empty((0, 1), dtype=np.intp), np.array([[7], [1], [0]])]
    assert list(_key_counts(blocks).items()) == [((0,), 1), ((1,), 3), ((7,), 1)]


@pytest.mark.parametrize(
    "block, message",
    [
        (np.array([[0, 1], [2, -1]]), "non-negative"),
        (np.array([1, 2, 3]), "2-D"),
        (np.zeros((2, 2, 2), dtype=np.intp), "2-D"),
        (np.zeros((3, 0), dtype=np.intp), "2-D"),
    ],
)
def test_key_counts_refuse_bad_blocks_with_value_error(block, message):
    with pytest.raises(ValueError, match=message):
        _key_counts([np.array([[0, 0]]), block])


# ------------------------------------------------- counting by cycle type
def _table_counts(table: np.ndarray) -> dict:
    """A class table's nonzero entries, keyed as ``oracles.ref_completion_counts`` keys them."""
    return {
        (tuple(map(int, at)) if len(at) > 1 else int(at[0])): int(table[at])
        for at in zip(*np.nonzero(table))
    }


@pytest.mark.parametrize(
    "pairs, k", [(True, k) for k in (2, 4, 6, 8)] + [(False, k) for k in range(1, 9)]
)
def test_class_counts_depend_only_on_the_cycle_type(pairs, k):
    # over every matching (permutation) t of k points, the cycles of c∘t
    # (with #t) have the histogram of those of g·c·g⁻¹, and the table kept
    # for the class holds it whichever member built it
    rng = random.Random(k)
    points = list(range(k))
    c = dict(zip(points, rng.sample(points, k)))
    g = dict(zip(points, rng.sample(points, k)))
    conj = oracles.ref_compose(oracles.ref_compose(g, c), oracles.ref_inverse(g))
    if pairs:
        completions = [oracles.pairing_to_map(m) for m in oracles.ref_all_pairings(points)]
    else:
        completions = oracles.ref_permutations(points)
    want = oracles.ref_completion_counts(c, completions, joint=not pairs)
    assert oracles.ref_completion_counts(conj, completions, joint=not pairs) == want
    images = np.array([[c[x] for x in points], [conj[x] for x in points]])
    code, other = _cycle_types(images).tolist()
    assert code == other
    # S_8 is more than a stream table holds; every table is read as a set
    tails = _table(1, bytes(k)) if pairs else np.array(list(iter_permutations(points)))
    assert _table_counts(_class_table(tails, int(pairs), code, images[1])) == want


def test_cycle_type_codes_split_exactly_the_conjugacy_classes():
    rows = _table(0, bytes(6))
    types = [tuple(sorted(map(len, oracles.ref_cycles(dict(enumerate(r)))))) for r in rows.tolist()]
    codes = _cycle_types(rows).tolist()
    assert len(set(types)) == len(set(codes)) == 11  # the partitions of 6
    assert len(set(zip(types, codes))) == 11


@pytest.mark.parametrize("m", range(1, 5))
def test_bipartite_counts_are_read_at_the_class_of_a_after_c(m):
    # c sends the black points to the white ones (A) and back (C); over the
    # matchings t that join the colours, the white and the other cycles of
    # c∘t are #u and #(w∘u) over the u of S_m, at the class of w = A∘C
    rng = random.Random(m)
    points = list(range(2 * m))
    shade = [1] * m + [0] * m
    rng.shuffle(shade)
    white = [x for x in points if shade[x]]
    black = [x for x in points if not shade[x]]
    c = {**dict(zip(black, rng.sample(white, m))), **dict(zip(white, rng.sample(black, m)))}
    completions = [
        oracles.pairing_to_map(pairs)
        for pairs in oracles.ref_all_pairings(points)
        if all(shade[a] != shade[b] for a, b in pairs)
    ]
    want = oracles.ref_completion_counts(c, completions, white=set(white))
    rank = {x: i for i, x in enumerate(white)}
    w = np.array([[rank[c[c[x]]] for x in white]])
    table = _class_table(_table(0, bytes(m)), 2, int(_cycle_types(w)[0]), w[0])
    assert _table_counts(table) == want


@pytest.mark.parametrize("size", [6, 14])
def test_a_walk_that_keeps_the_colour_counts_nothing(size):
    # the identity keeps every point's class: with no prefix (6 points) the
    # contraction does not reverse colour, with one (14) a closed pair mixes too
    step, tails, prefixes = _prefixes(2, unsigned_ground(size))
    assert _prefix_cycle_counts(range(size), step, tails, prefixes, odd_mask(size)) is None


def _involutions(points: list) -> list[dict]:
    """Every involution of ``points`` (fixed points allowed), as dicts."""
    if not points:
        return [{}]
    first, rest = points[0], points[1:]
    out = [{first: first, **inv} for inv in _involutions(rest)]
    for k, other in enumerate(rest):
        out += [{first: other, other: first, **inv} for inv in _involutions(rest[:k] + rest[k + 1:])]
    return out


def _mirror_class_histograms(t: int, involutions: list[dict]) -> dict[int, set]:
    """Mirrored class code -> the histograms of #(c∘u) over the signed symmetric
    pairings u of ±[t], from the dict oracles, of the ``involutions`` c of its
    2t points (index i of ±[t] is its label there; the mirror is i ↦ 2t−1−i)."""
    ground = signed_ground(t)
    completions = [
        {ground.index(x): ground.index(y) for x, y in u.items()}
        for u in oracles.ref_signed_symmetric_pairings(t)
    ]
    images = np.array([[c[i] for i in range(2 * t)] for c in involutions])
    found: dict[int, set] = {}
    for code, c, image in zip(_cycle_types(images, mirrored=True).tolist(), involutions, images):
        want = oracles.ref_completion_counts(c, completions)
        found.setdefault(code, set()).add(tuple(sorted(want.items())))
        assert _table_counts(_class_table(_table(3, bytes(2 * t)), 3, code, image)) == want
    return found


@pytest.mark.parametrize("t, classes", [(2, 5), (4, 20)])  # the bipartitions of t
def test_mirrored_codes_split_the_classes_of_an_involution_and_the_mirror(t, classes):
    # over every involution c of 2t points (764 at t = 4), the histogram of
    # #(c∘u) over the signed symmetric pairings u of ±[t] is one per code,
    # and the codes are as many as the classes of the pair (c, δ)
    found = _mirror_class_histograms(t, _involutions(list(range(2 * t))))
    assert len(found) == classes
    assert all(len(histograms) == 1 for histograms in found.values())


def test_mirrored_codes_of_a_sample_at_six():
    # a seeded sample of involutions of 12 points, each with a conjugate by a
    # signed permutation (one that commutes with the mirror), which keeps its class
    rng, t = random.Random(6), 6
    sample = []
    for _ in range(60):
        points = rng.sample(range(2 * t), 2 * rng.randrange(t + 1))
        c = {i: i for i in range(2 * t)}
        for a, b in zip(points[::2], points[1::2]):
            c[a], c[b] = b, a
        g = {}
        for i, j in enumerate(rng.sample(range(t), t)):
            flip = rng.random() < 0.5
            g[i], g[2 * t - 1 - i] = (2 * t - 1 - j, j) if flip else (j, 2 * t - 1 - j)
        sample += [c, oracles.ref_compose(oracles.ref_compose(g, c), oracles.ref_inverse(g))]
    found = _mirror_class_histograms(t, sample)
    assert all(len(histograms) == 1 for histograms in found.values())
    codes = _cycle_types(np.array([[c[i] for i in range(2 * t)] for c in sample]), mirrored=True)
    assert (codes[::2] == codes[1::2]).all()
