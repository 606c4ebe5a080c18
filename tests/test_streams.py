"""Stream tests: deterministic orders, counts, caps, budgets."""

import time
import tracemalloc
from functools import partial
from inspect import isgenerator
from itertools import islice, product
from itertools import permutations as iter_permutations
from math import factorial

import numpy as np
import pytest

import annular.streams
from annular import noncrossing
from annular.frames import black_labels, white_labels
from annular.maps import (
    gluing_counts,
    gluing_groups,
    is_bipartite_pairing,
    is_bipartite_signed_pairing,
)
from annular.moments import wick_moment
from annular.noncrossing import NONCROSSING, nc_groups
from annular.perms import Pairing, signed_ground, unsigned_ground
from annular.streams import (
    _ROWS,
    CapExceeded,
    EnumerationBudget,
    _bipartite_pairing_blocks,
    _bipartite_signed_symmetric_pairing_blocks,
    _completions,
    _mirror_pair_blocks,
    _mirrored_pairings,
    _pairing_blocks,
    _pairings_of_blocks,
    _permutation_blocks,
    _permutations_of_blocks,
    _prefixes,
    _rows,
    _signed_symmetric_pairings_blocks,
    _signed_symmetric_permutations_blocks,
    _tail_blocks,
    _white_to_black_pairing_blocks,
    pairings,
    pairings_of,
    permutations,
    permutations_of,
    signed_pairings,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)

import oracles


# ---------------------------------------------------------------- pairings
def test_pairings_of_4_exact_order():
    got = [p.pairs() for p in pairings(4)]
    assert got == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_pairings_match_oracle_order():
    for n in (2, 4, 6):
        got = [p.pairs() for p in pairings(n)]
        want = [
            tuple(sorted(tuple(sorted(pr)) for pr in pairing))
            for pairing in oracles.ref_all_pairings(list(range(1, n + 1)))
        ]
        assert got == want


def test_pairing_counts_are_double_factorials():
    for n in (2, 4, 6, 8, 10):
        assert sum(1 for _ in pairings(n)) == oracles.ref_double_factorial(n - 1)
    assert oracles.ref_double_factorial(5) == 15
    assert oracles.ref_double_factorial(7) == 105


def test_pairings_odd_empty_and_types():
    assert list(pairings(5)) == []
    for p in pairings(4):
        assert isinstance(p, Pairing)
        assert p.domain == unsigned_ground(4)


def test_signed_pairings_count():
    assert sum(1 for _ in signed_pairings(3)) == oracles.ref_double_factorial(5)


# ------------------------------------------------- signed symmetric pairings
def test_signed_symmetric_pairings_n2_order():
    got = [p.cycle_string() for p in signed_symmetric_pairings(2)]
    # untwisted assignment first, then twisted
    assert got == ["(-2,1)(-1,2)", "(-2,-1)(1,2)"]


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_signed_symmetric_pairings_documented_order(n):
    # unsigned pairings in `pairings` order; within one, twist tuples in
    # lexicographic order, untwisted first, one bit per pair by smaller label
    ground = signed_ground(n)
    want = []
    for base in pairings(n):
        pairs = base.pairs()
        for twists in product((False, True), repeat=len(pairs)):
            cycles = []
            for (a, b), twisted in zip(pairs, twists):
                cycles += [(a, b), (-a, -b)] if twisted else [(a, -b), (-a, b)]
            want.append(Pairing.from_pairs(ground, cycles))
    assert list(signed_symmetric_pairings(n, cap=20)) == want


def test_signed_symmetric_pairings_counts():
    # (n-1)!! * 2^(n/2)
    assert sum(1 for _ in signed_symmetric_pairings(2)) == 2
    assert sum(1 for _ in signed_symmetric_pairings(4)) == 3 * 4
    assert sum(1 for _ in signed_symmetric_pairings(6)) == 15 * 8


def test_signed_symmetric_pairings_equal_brute_force_filter():
    for n in (2, 4):
        constructed = {p.cycle_string() for p in signed_symmetric_pairings(n)}
        filtered = {
            p.cycle_string()
            for p in signed_pairings(n)
            if oracles.ref_is_delta_symmetric(p.mapping())
        }
        assert constructed == filtered


def test_signed_symmetric_pairings_all_delta_symmetric():
    for p in signed_symmetric_pairings(4):
        assert oracles.ref_is_delta_symmetric(p.mapping())


# ------------------------------------------------------- bipartite streams
@pytest.mark.parametrize("n", range(0, 8))
def test_bipartite_pairing_blocks_equal_filtered_stream_in_order(n):
    filtered = [p.image for p in pairings(2 * n) if is_bipartite_pairing(p)]
    built = list(_rows(_bipartite_pairing_blocks(2 * n)))
    assert built == filtered
    assert len(built) == factorial(n)


@pytest.mark.parametrize("m", range(0, 6))
def test_forced_twist_stream_equals_filtered_stream_in_order(m):
    # one element per unsigned pairing in `pairings` order, each pair
    # twisted exactly when its labels agree in parity (B -> B, for b-tilde)
    # or differ in parity (W -> B, for the bipartite annular families),
    # built in label space apart from the expansion the streams share
    # with signed_symmetric_pairings
    ground = signed_ground(2 * m)
    streams = {
        True: (_bipartite_signed_symmetric_pairing_blocks, is_bipartite_signed_pairing),
        False: (
            _white_to_black_pairing_blocks,
            lambda t: {t(w) for w in white_labels(m)} <= set(black_labels(m)),
        ),
    }
    for agree, (stream, keeps) in streams.items():
        want = []
        for base in pairings(2 * m):
            cycles = []
            for a, b in base.pairs():
                twisted = (a % 2 == b % 2) == agree
                cycles += [(a, b), (-a, -b)] if twisted else [(a, -b), (-a, b)]
            want.append(Pairing.from_pairs(ground, cycles))
        filtered = [t for t in signed_symmetric_pairings(2 * m, cap=20) if keeps(t)]
        assert filtered == want
        built = list(_rows(stream(2 * m, cap=20)))
        assert built == [t.image for t in want]
        assert len(built) == oracles.ref_double_factorial(2 * m - 1)


def test_bipartite_streams_odd_sizes_are_empty():
    assert list(_rows(_bipartite_pairing_blocks(5))) == []
    assert list(_rows(_bipartite_signed_symmetric_pairing_blocks(3))) == []
    assert list(_rows(_white_to_black_pairing_blocks(3))) == []


def test_bipartite_streams_caps_apply_to_ground_size():
    # the first refused sizes: [19] and ±[17], whose streams would be empty
    with pytest.raises(CapExceeded) as info:
        _bipartite_pairing_blocks(19)
    assert (info.value.requested, info.value.cap) == (19, 18)
    for stream in (_bipartite_signed_symmetric_pairing_blocks, _white_to_black_pairing_blocks):
        with pytest.raises(CapExceeded) as info:
            stream(17)
        assert (info.value.requested, info.value.cap) == (34, 32)
        stream(17, cap=34)
    _bipartite_pairing_blocks(19, cap=19)


def test_bipartite_stream_budget_counts_built_elements():
    # 24 bipartite pairings of [8] are built; none of the other 81 is visited
    assert len(list(_rows(_bipartite_pairing_blocks(8, budget=EnumerationBudget(24))))) == 24
    with pytest.raises(CapExceeded):
        list(_rows(_bipartite_pairing_blocks(8, budget=EnumerationBudget(23))))


# ------------------------------------------------------------ block builders
def _block_rows(blocks) -> list[tuple[int, ...]]:
    """The rows of ``blocks``; each block is non-empty, intp and within the row bound."""
    rows = []
    for block in blocks:
        assert block.dtype == np.intp and 0 < len(block) <= _ROWS
        rows += map(tuple, block.tolist())
    return rows


@pytest.mark.parametrize("step, top", [(1, 14), (2, 16)])
def test_pairing_blocks_equal_the_recursion_in_order(step, top):
    for size in range(-2, top + 1):
        want = list(oracles.ref_pairing_images(size, step))
        assert _block_rows(_pairing_blocks(size, step)) == want


@pytest.mark.parametrize("rule, top", [("every", 10), ("agree", 12), ("differ", 12)])
def test_mirror_pair_blocks_equal_the_expansion_in_order(rule, top):
    for n in range(-2, top + 1):
        want = list(oracles.ref_mirror_pair_images(n, rule))
        assert _block_rows(_mirror_pair_blocks(n, rule)) == want


def test_one_table_streams_are_their_read_only_tables():
    # a stream that needs no prefix is its cached tail table, yielded as it is
    for block, table in (
        (next(_pairing_blocks(8)), annular.streams._table(1, bytes(8))),  # 105 matchings
        (next(_permutation_blocks(5)), annular.streams._table(0, bytes(5))),  # 120 permutations
    ):
        assert block is table and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0
    # the reversed table, mirrored: 105 signed symmetric permutations, on every call
    ground = signed_ground(4)
    want = oracles.ref_signed_symmetric_permutations(4)
    for _ in range(2):
        got = [
            {ground.label(i): ground.label(j) for i, j in enumerate(row)}
            for row in _block_rows(_mirrored_pairings(4))
        ]
        assert got == want
    # 945 / 1,680 / 720 / 945 elements span two blocks and are built anew
    several_blocks = {
        _pairing_blocks: (10,),
        _mirror_pair_blocks: (8, "every"),
        _permutation_blocks: (6,),
        _mirrored_pairings: (5,),
    }
    for build, args in several_blocks.items():
        assert isgenerator(build(*args))
        assert next(build(*args)) is not next(build(*args))


def test_tables_hold_the_whole_stream_or_refuse_its_size():
    # a table longer than one block is the whole stream, not its first block
    table = annular.streams._table
    for size in (6, 7):
        want = np.array(list(iter_permutations(range(size))), dtype=np.intp)
        assert np.array_equal(table(0, bytes(size)), want)
    assert table(1, bytes(10)).tolist() == list(map(list, oracles.ref_pairing_images(10)))
    assert not table(0, bytes(7)).flags.writeable
    # 10,395 matchings of 12 points and 8! permutations are past the limit
    for step, size, what in [(1, 12, "matchings of 12 points"), (0, 8, "permutations of 8 points")]:
        with pytest.raises(ValueError, match=what):
            table(step, bytes(size))


@pytest.mark.parametrize("step, top", [(0, 7), (1, 12), (2, 12)])
def test_reversed_tail_blocks_are_the_stream_last_to_first(step, top):
    # the reversed stream (read by the signed symmetric permutations) is built
    # from run numbers counted down, not by reversing a built stream
    for size in range(0, top + 1, 2 if step else 1):
        colours = bytes(i % 2 if step == 2 else 0 for i in range(size))
        forward = _block_rows(_tail_blocks(step, colours))
        assert _block_rows(_tail_blocks(step, colours, reverse=True)) == forward[::-1]


def test_streams_past_2_to_the_63_runs_build_their_first_blocks():
    # 37!!/7!! prefixes of [38] and 22!/5! of 22 points are run numbers past
    # 2**63: the first blocks still come out, in order, both ways
    got = _block_rows(islice(_tail_blocks(1, bytes(40)), 2))
    assert got == list(islice(oracles.ref_pairing_images(40), len(got)))
    got = _block_rows(islice(_tail_blocks(0, bytes(24)), 2))
    assert got == list(islice(iter_permutations(range(24)), len(got)))
    last = _block_rows(islice(_tail_blocks(1, bytes(40), reverse=True), 2))
    assert last[0] == tuple(range(39, -1, -1)) and last == sorted(last, reverse=True)


def test_twist_tuples_of_one_pairing_split_across_blocks():
    # 2^10 twist tuples per unsigned pairing of [20], more than one block holds
    got = _block_rows(islice(_mirror_pair_blocks(20, "every"), 2 * 1024 // _ROWS + 1))
    assert len(got) > 2**10
    assert got == list(islice(oracles.ref_mirror_pair_images(20, "every"), len(got)))


@pytest.mark.parametrize("size", range(10))
def test_permutation_blocks_equal_itertools_in_order(size):
    want = iter_permutations(range(size))
    for block in _permutation_blocks(size):
        assert block.dtype == np.intp and 0 < len(block) <= _ROWS
        expected = np.array(list(islice(want, len(block))), dtype=np.intp).reshape(len(block), size)
        assert np.array_equal(block, expected)
    assert next(want, None) is None


@pytest.mark.parametrize(
    "blocks", [lambda: _permutation_blocks(9), lambda: _pairing_blocks(16, 2)], ids=["9!", "8!"]
)
def test_first_block_builds_no_table_of_the_whole_stream(blocks):
    # the first block of 362,880 permutations / 40,320 bipartite matchings
    # costs under 1 MB, its tail tables built from nothing included
    annular.streams._table.cache_clear()
    tracemalloc.start()
    try:
        next(blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ------------------------------------------------------------- permutations
def test_permutations_lexicographic_identity_first():
    stream = permutations(3)
    first = next(stream)
    assert first.is_identity()
    rest = [p.cycle_string() for p in stream]
    assert rest == ["(2,3)", "(1,2)", "(1,2,3)", "(1,3,2)", "(1,3)"]


def test_permutation_count():
    assert sum(1 for _ in permutations(5)) == 120


# ------------------------------------------- signed symmetric permutations
def test_signed_symmetric_permutations_n1_is_identity_only():
    got = list(signed_symmetric_permutations(1))
    assert len(got) == 1
    assert got[0].is_identity()


def test_signed_symmetric_permutations_match_reference():
    # The whole capped range, element by element and in order: b-hat and
    # the delta-symmetric non-crossing families both read this stream.
    for n in (1, 2, 3, 4):
        got = [p.mapping() for p in signed_symmetric_permutations(n)]
        want = oracles.ref_signed_symmetric_permutations(n)
        assert len(got) == oracles.ref_double_factorial(2 * n - 1)
        assert got == want


def test_pruned_delta_search_equals_the_filter_over_all_permutations():
    for n in (1, 2, 3, 4):
        want = oracles.ref_signed_symmetric_permutations(n)
        assert list(oracles.ref_delta_symmetric_permutations(n)) == want


@pytest.mark.parametrize("n", [5, 6])
def test_signed_symmetric_permutations_equal_the_pruned_search_in_order(n):
    # 945 and 10,395 elements, against a search over δ-symmetric
    # permutations that builds nothing from pairings
    got = [p.mapping() for p in signed_symmetric_permutations(n)]
    assert got == list(oracles.ref_delta_symmetric_permutations(n))


@pytest.mark.parametrize("n", [5, 6])
def test_signed_symmetric_permutations_order_across_block_seams(n):
    # 945 and 10,395 elements, several blocks each: the pairings of ±[n]
    # mirrored, in lexicographic image order
    got = [p.image for p in signed_symmetric_permutations(n, cap=2 * n)]
    mirrored = (tuple(2 * n - 1 - i for i in img) for img in oracles.ref_pairing_images(2 * n))
    assert got == sorted(mirrored)


def test_signed_symmetric_permutations_first_element_is_not_built_whole():
    # the first of 135,135 elements costs one block, not the whole stream
    tracemalloc.start()
    try:
        next(signed_symmetric_permutations(7, cap=14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_signed_symmetric_permutations_contains_pairing_stream():
    ssp = {p.cycle_string() for p in signed_symmetric_permutations(2)}
    for p in signed_symmetric_pairings(2):
        assert p.cycle_string() in ssp


# ------------------------------------------------------------ caps, budgets
def test_caps_raise_eagerly():
    # each at its first refused size, with the size and the default cap
    refused = [
        (lambda: pairings(17), (17, 16)),
        (lambda: permutations(10), (10, 9)),
        (lambda: signed_symmetric_permutations(9), (18, 16)),
        (lambda: signed_symmetric_pairings(13), (26, 24)),
    ]
    for stream, sizes in refused:
        with pytest.raises(CapExceeded) as info:
            stream()
        assert (info.value.requested, info.value.cap) == sizes
    assert str(info.value) == (
        "signed symmetric pairing enumeration requested for size 26, above the cap 24; "
        "pass an explicit cap to override"
    )
    # explicit override allows construction without consuming
    pairings(18, cap=18)
    permutations(10, cap=10)
    signed_symmetric_permutations(9, cap=18)


def test_a_budget_must_be_an_enumeration_budget():
    # refused where the cap is checked, by the block streams and the
    # counting passes alike, before any element is read
    for call in (
        lambda: pairings(4, budget=5),
        lambda: gluing_counts("a", 4, budget=5),
        lambda: wick_moment("GUE", 4, budget=3),
        lambda: nc_groups("NC", 4, budget=3),
    ):
        with pytest.raises(TypeError, match="^budget must be an EnumerationBudget or None, got "):
            call()


@pytest.mark.parametrize("cap", [True, 4.5])
def test_an_explicit_cap_must_be_an_integer(cap):
    with pytest.raises(ValueError, match=f"^cap must be an integer, got {cap!r}$"):
        pairings(4, cap=cap)


def _counting(step: int, cap: int, top: int):
    def source(n):
        return _prefixes(step, unsigned_ground(n))[2]

    def work(n):
        return sum(len(values) for _, values, _, _ in source(n))

    return annular.streams._PREFIX_COUNTS[step], cap, False, top, source, work


def _built(tag: str, entries, cap: int, build):
    signed = NONCROSSING[tag].signed

    def work(n):
        return len(build(n)) * (2 * n if signed else n)

    return entries, cap, signed, 8, partial(NONCROSSING[tag].source, budget=None), work


def _block_stream(length, cap: int, signed: bool, source):
    def work(n):
        return sum(map(len, source(n)))

    return length, cap, signed, 6 if signed else 8, source, work


#: Every capped source: (its length function, its default cap as a ground
#: size, whether its ground is ±[n], the largest n checked against its
#: work, the source at n, the work it does at n).  A block stream's work
#: is the rows it yields, a counting pass's the prefixes it runs, and a
#: built source's the entries of the table it holds whole.
SOURCES = {
    "pairing": _block_stream(
        annular.streams._pairing_rows, 16, False,
        lambda n: _pairings_of_blocks(unsigned_ground(n))),
    "signed symmetric pairing": _block_stream(
        annular.streams._mirror_rows, 24, True, _signed_symmetric_pairings_blocks),
    "bipartite pairing": _block_stream(
        annular.streams._bipartite_rows, 18, False, _bipartite_pairing_blocks),
    "bipartite signed symmetric pairing": _block_stream(
        annular.streams._colour_class_rows, 32, True, _bipartite_signed_symmetric_pairing_blocks),
    "white-to-black pairing": _block_stream(
        annular.streams._colour_class_rows, 32, True, _white_to_black_pairing_blocks),
    "permutation": _block_stream(
        factorial, 9, False, lambda n: _permutations_of_blocks(unsigned_ground(n))),
    "signed symmetric permutation": _block_stream(
        annular.streams._pairing_rows, 16, True, _signed_symmetric_permutations_blocks),
    "counted permutations": _counting(0, 12, 9),
    "counted pairings": _counting(1, 20, 16),
    "counted bipartite pairings": _counting(2, 24, 16),
    "NC": _built("NC", noncrossing._disk_entries, 11, noncrossing._disk_partitions),
    "NC2": _built(
        "NC2", noncrossing._chord_entries, 22, partial(noncrossing._chords, through=False)),
    "NC2delta": _built(
        "NC2delta", noncrossing._annulus_entries, 32, noncrossing._annulus_pairings),
    "NC2delta_bip": _built(
        "NC2delta_bip", noncrossing._annulus_entries, 32, noncrossing._annulus_pairings),
}


@pytest.mark.parametrize("name", SOURCES)
def test_default_caps_follow_from_the_work_limit(name):
    length, cap, signed, top, source, work = SOURCES[name]
    limit, width = annular.streams.STREAM_ROW_CAP, 2 if signed else 1
    assert limit == oracles.ref_double_factorial(15) == 2_027_025
    # the length at each ground size is the work the source does there,
    # and 0 at a size no ground of the source has
    for n in range(1, top + 1):
        assert length(width * n) == work(n)
        assert not signed or length(2 * n + 1) == 0
    # the cap is the largest size whose work is within the limit; the
    # next nonempty size (an empty one may sit between) is over it
    assert annular.streams._default_cap(length) == cap
    assert 0 < length(cap) <= limit
    after = next(size for size in range(cap + 1, cap + 5) if length(size))
    assert length(after) > limit
    # the source admits the cap (building nothing yet) and refuses one more
    source(cap // width)
    with pytest.raises(CapExceeded, match="above the cap") as info:
        source(cap // width + 1)
    assert (info.value.requested, info.value.cap) == (cap + width, cap)


#: Each counting form's block stream, by step.
COUNTED_BLOCKS = (
    lambda n: _permutations_of_blocks(unsigned_ground(n)),
    lambda n: _pairings_of_blocks(unsigned_ground(n)),
    _bipartite_pairing_blocks,
    _signed_symmetric_pairings_blocks,
)


@pytest.mark.parametrize(
    "step, n", [(0, 5), (0, 8), (1, 8), (1, 12), (2, 10), (2, 16), (3, 4), (3, 10)]
)
def test_the_completions_of_the_prefixes_are_the_stream(step, n):
    # a tail table of rows per prefix, with no prefix and with some: in
    # stream order, but as a set for the signed symmetric pairings, whose
    # stream takes the twist bits of every pair after the pairs
    ground = signed_ground(n) if step == 3 else unsigned_ground(n)
    rows = np.concatenate([
        _completions(step, *(part[i] for part in batch))
        for batch in _prefixes(step, ground)[2]
        for i in range(len(batch[0]))
    ])
    stream = np.concatenate(tuple(COUNTED_BLOCKS[step](n)))
    assert rows.shape == stream.shape
    if step == 3:
        rows, stream = (np.unique(r, axis=0) for r in (rows, stream))
    assert rows.shape == stream.shape and (rows == stream).all()


def test_signed_symmetric_permutations_reach_the_row_limit():
    # the default cap admits ±[8]: 15!! rows, read here only to the first block
    first = next(signed_symmetric_permutations(8))
    assert first.is_identity()


#: Every public stream and colour-class block function at n = 10⁹.
HUGE = 10**9
HUGE_STREAMS = {
    "pairings": lambda: pairings(HUGE),
    "pairings_of": lambda: pairings_of(unsigned_ground(HUGE)),
    "signed_pairings": lambda: signed_pairings(HUGE),
    "signed_symmetric_pairings": lambda: signed_symmetric_pairings(HUGE),
    "permutations": lambda: permutations(HUGE),
    "permutations_of": lambda: permutations_of(signed_ground(HUGE)),
    "signed_symmetric_permutations": lambda: signed_symmetric_permutations(HUGE),
    "_bipartite_pairing_blocks": lambda: _bipartite_pairing_blocks(HUGE),
    "_bipartite_signed_symmetric_pairing_blocks": (
        lambda: _bipartite_signed_symmetric_pairing_blocks(HUGE)
    ),
    "_white_to_black_pairing_blocks": lambda: _white_to_black_pairing_blocks(HUGE),
}


@pytest.mark.parametrize("name", HUGE_STREAMS)
def test_huge_sizes_are_refused_at_once(name):
    # one compare of sizes: no length of the refused stream, no row
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="above the cap"):
        HUGE_STREAMS[name]()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: permutations(HUGE),
        lambda: gluing_groups("a-hat", HUGE),
        lambda: nc_groups("NCT_p", HUGE),
    ],
    ids=["permutations", "gluing_groups a-hat", "nc_groups NCT_p"],
)
def test_huge_refusals_allocate_nothing_of_their_size(refuse):
    # a refused permutation stream builds no buffer of the size it refuses
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="above the cap"):
            refuse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_budget_overflow_raises():
    budget = EnumerationBudget(2)
    stream = pairings(6, budget=budget)
    next(stream), next(stream)
    with pytest.raises(CapExceeded):
        next(stream)

    # a budget equal to the stream length is not an overflow
    budget = EnumerationBudget(3)
    stream = pairings(4, budget=budget)
    assert len(list(stream)) == 3


@pytest.mark.parametrize(
    "stream, size, what",
    [
        (lambda budget: pairings(6, budget=budget), 15, "pairings of [6]"),
        (
            lambda budget: _rows(_bipartite_pairing_blocks(6, budget=budget)),
            6,
            "bipartite pairings of [6]",
        ),
        (
            lambda budget: _rows(_white_to_black_pairing_blocks(6, budget=budget)),
            15,
            "white-to-black pairings of ±[6]",
        ),
    ],
    ids=["pairings", "_bipartite_pairing_blocks", "_white_to_black_pairing_blocks"],
)
def test_budget_overflow_contract(stream, size, what):
    # every budget K below the stream length: requested K + 1, cap K
    for k in range(size):
        with pytest.raises(CapExceeded) as info:
            list(stream(EnumerationBudget(k)))
        assert (info.value.requested, info.value.cap) == (k + 1, k)
        assert str(info.value) == f"{what} exceeded the element budget ({k})"
    assert len(list(stream(EnumerationBudget(size)))) == size


#: Each public stream, and the rows of each colour-class block function,
#: at a size its blocks split: (stream under a budget, its blocks without
#: one, budget message).
BLOCK_BUDGET_STREAMS = {
    "pairings": (
        lambda budget: pairings(10, budget=budget),
        lambda: _pairings_of_blocks(unsigned_ground(10)),
        "pairings of [10]",
    ),
    "pairings_of": (
        lambda budget: pairings_of(unsigned_ground(10), budget=budget),
        lambda: _pairings_of_blocks(unsigned_ground(10)),
        "pairings of [10]",
    ),
    "signed_pairings": (
        lambda budget: signed_pairings(5, budget=budget),
        lambda: _pairings_of_blocks(signed_ground(5)),
        "pairings of ±[5]",
    ),
    "signed_symmetric_pairings": (
        lambda budget: signed_symmetric_pairings(8, budget=budget),
        lambda: _signed_symmetric_pairings_blocks(8),
        "signed symmetric pairings of ±[8]",
    ),
    "_bipartite_pairing_blocks": (
        lambda budget: _rows(_bipartite_pairing_blocks(12, budget=budget)),
        lambda: _bipartite_pairing_blocks(12),
        "bipartite pairings of [12]",
    ),
    "_bipartite_signed_symmetric_pairing_blocks": (
        lambda budget: _rows(_bipartite_signed_symmetric_pairing_blocks(10, 20, budget)),
        lambda: _bipartite_signed_symmetric_pairing_blocks(10, cap=20),
        "bipartite signed symmetric pairings of ±[10]",
    ),
    "_white_to_black_pairing_blocks": (
        lambda budget: _rows(_white_to_black_pairing_blocks(10, 20, budget)),
        lambda: _white_to_black_pairing_blocks(10, cap=20),
        "white-to-black pairings of ±[10]",
    ),
    "permutations": (
        lambda budget: permutations(7, budget=budget),
        lambda: _permutations_of_blocks(unsigned_ground(7)),
        "permutations of [7]",
    ),
    "permutations_of": (
        lambda budget: permutations_of(unsigned_ground(7), budget=budget),
        lambda: _permutations_of_blocks(unsigned_ground(7)),
        "permutations of [7]",
    ),
    "signed_symmetric_permutations": (
        lambda budget: signed_symmetric_permutations(5, cap=10, budget=budget),
        lambda: _signed_symmetric_permutations_blocks(5, cap=10),
        "signed symmetric permutations of ±[5]",
    ),
}


def block_boundary_budgets(blocks) -> tuple[int, list[int]]:
    """The stream length, and budgets 0, the first block boundary ±1 and length − 1."""
    first = len(next(blocks))
    length = first + sum(map(len, blocks))
    assert first < length  # the stream spans at least two blocks
    return length, sorted({0, first - 1, first, first + 1, length - 1})


def one_block_sizes(source) -> list[int]:
    """The sizes n ≤ 11 at which ``source(n)`` ends within one block (under its cap)."""
    sizes = []
    for n in range(1, 12):
        try:
            blocks = source(n)
        except CapExceeded:
            continue
        if len(list(islice(blocks, 2))) < 2:
            sizes.append(n)
    return sizes


@pytest.mark.parametrize("name", BLOCK_BUDGET_STREAMS)
def test_budget_overflow_contract_at_block_boundaries(name):
    stream, blocks, what = BLOCK_BUDGET_STREAMS[name]
    length, budgets = block_boundary_budgets(blocks())
    unbudgeted = list(stream(None))
    for k in budgets:
        # a consumer that takes K elements under budget K never raises
        assert list(islice(stream(EnumerationBudget(k)), k)) == unbudgeted[:k]
        with pytest.raises(CapExceeded) as info:
            list(stream(EnumerationBudget(k)))
        assert (info.value.requested, info.value.cap) == (k + 1, k)
        assert str(info.value) == f"{what} exceeded the element budget ({k})"
    assert list(stream(EnumerationBudget(length))) == unbudgeted


def test_budget_validation():
    for bad in (-1, 1.5, "3"):
        with pytest.raises(ValueError):
            EnumerationBudget(bad)
