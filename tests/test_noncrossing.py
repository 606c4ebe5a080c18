"""Non-crossing predicates and annular families."""

import math
import time

import numpy as np
import pytest

from annular import noncrossing
from annular.frames import annulus_cycle, full_cycle, klein_frame, torus_frame
from annular.maps import (
    family_a,
    family_a_hat,
    family_a_tilde,
    family_b_tilde_counts,
)
from annular.noncrossing import (
    NONCROSSING,
    NCFamilyId,
    _block_cycles,
    _cycle_total,
    _noncrossing,
    _noncrossing_rows,
    _open_frames,
    _scan,
    euler_defect,
    family_nc,
    is_delta_symmetric,
    is_noncrossing,
    member_witnesses,
    nc_groups,
)
from annular.perms import (
    Pairing,
    Permutation,
    _join_block_count_images,
    num_cycles,
    parse_cycles,
    signed_ground,
    unsigned_ground,
)
from annular.streams import (
    CapExceeded,
    EnumerationBudget,
    _images,
    pairings,
    permutations,
    permutations_of,
    signed_pairings,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)

from oracles import (
    pairing_to_map,
    ref_all_pairings,
    ref_annulus_cycle,
    ref_black_white,
    ref_catalan,
    ref_compose,
    ref_cycle_count_on,
    ref_full_cycle,
    ref_inverse,
    ref_is_delta_symmetric,
    ref_is_noncrossing,
    ref_join_blocks,
    ref_num_cycles,
    ref_permutations,
    ref_signed_symmetric_pairings,
    ref_signed_symmetric_permutations,
    ref_union_witnesses,
)
from test_streams import one_block_sizes


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_noncrossing_disk_examples():
    g6 = unsigned_ground(6)
    assert is_noncrossing(parse_cycles("(1,2)(3,6)(4,5)", g6), full_cycle(6))
    g8 = unsigned_ground(8)
    gamma = parse_cycles("(1,2,3,4)(5,6,7,8)", g8)
    assert is_noncrossing(parse_cycles("(1,8)(2,3)(4,5)(6,7)", g8), gamma)
    g4 = unsigned_ground(4)
    assert not is_noncrossing(parse_cycles("(1,3)(2,4)", g4), full_cycle(4))


def test_noncrossing_requires_matching_domains():
    with pytest.raises(ValueError):
        is_noncrossing(Permutation.identity(unsigned_ground(3)), full_cycle(4))
    with pytest.raises(ValueError):
        euler_defect(Permutation.identity(unsigned_ground(3)), full_cycle(4))


def test_euler_defect_examples():
    g4 = unsigned_ground(4)
    assert euler_defect(parse_cycles("(1,3)(2,4)", g4), full_cycle(4)) == 2
    assert euler_defect(parse_cycles("(1,2)(3,4)", g4), full_cycle(4)) == 0
    g2 = unsigned_ground(2)
    ident = Permutation.identity(g2)
    assert euler_defect(ident, ident) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_euler_defect_nonnegative_and_even_exhaustively(n):
    gammas = [full_cycle(n)] + [
        torus_frame(n, u, v).gamma for u in range(1, n) for v in range(u + 1, n)
    ]
    for pi in permutations(n):
        for gamma in gammas:
            d = euler_defect(pi, gamma)
            assert d >= 0 and d % 2 == 0
            assert is_noncrossing(pi, gamma) == (
                d == 0 and ref_join_blocks(dict(pi.mapping()), dict(gamma.mapping())) == 1
            )


def test_noncrossing_matches_reference_on_disk():
    gamma = ref_full_cycle(4)
    for pi in permutations(4):
        d = dict(pi.mapping())
        assert is_noncrossing(pi, full_cycle(4)) == ref_is_noncrossing(d, gamma)


def test_noncrossing_matches_reference_on_annulus():
    gamma_perm = annulus_cycle(3)
    gamma = dict(gamma_perm.mapping())
    for pi in signed_pairings(3):
        d = dict(pi.mapping())
        assert is_noncrossing(pi, gamma_perm) == ref_is_noncrossing(d, gamma)


@pytest.mark.parametrize("cycles", ["(1,2,3)(4,5)", "(1,4)(2,5)(3,6)", "(1,3,5,6)(2)(4)"])
def test_noncrossing_matches_reference_on_three_cycle_frames(cycles):
    # a γ of three cycles takes the union-find join, not the sides of two
    gamma_perm = parse_cycles(cycles, unsigned_ground(6))
    assert num_cycles(gamma_perm) == 3
    gamma = dict(gamma_perm.mapping())
    for pi in permutations(6):
        assert is_noncrossing(pi, gamma_perm) == ref_is_noncrossing(dict(pi.mapping()), gamma)


def test_delta_symmetric_examples():
    s4 = signed_ground(4)
    assert is_delta_symmetric(parse_cycles("(1,-4)(-1,4)(2,3)(-2,-3)", s4))
    s2 = signed_ground(2)
    assert not is_delta_symmetric(parse_cycles("(1,-1)(2,-2)", s2))
    assert is_delta_symmetric(parse_cycles("(1,2)(-1,-2)", s2))


def test_delta_symmetric_rejects_self_mirror_cycles():
    # Negation can act as a reflection of a single cycle; such cycles
    # contain a label mapped to its own negative and are excluded even
    # though their cycle set is mirror-closed.
    s2 = signed_ground(2)
    assert not is_delta_symmetric(parse_cycles("(-2,-1,1,2)", s2))
    s4 = signed_ground(4)
    pi = parse_cycles("(-2,-1,1,2)(-4,-3,3,4)", s4)
    assert all(pi(-pi(x)) == -x for x in s4.labels())  # mirror-closed
    assert not is_delta_symmetric(pi)
    assert num_cycles(pi) == 2  # would otherwise carry grade p = 1


def test_delta_symmetric_agrees_with_reference_on_pairings():
    for pairs in ref_all_pairings([x for x in range(-3, 4) if x]):
        d = pairing_to_map(pairs)
        pi = Pairing.from_pairs(signed_ground(3), pairs)
        assert is_delta_symmetric(pi) == ref_is_delta_symmetric(d)


def test_delta_symmetric_members_have_even_cycle_count():
    count = 0
    for pi in permutations_of(signed_ground(2)):
        if is_delta_symmetric(pi):
            count += 1
            assert num_cycles(pi) % 2 == 0
    assert count > 0


# ---------------------------------------------------------------------------
# family identifiers
# ---------------------------------------------------------------------------

def test_family_id_validation():
    with pytest.raises(ValueError):
        NCFamilyId("NC3", 4)
    with pytest.raises(ValueError):
        NCFamilyId("NC2T_bip", 4)  # graded tag without p
    with pytest.raises(ValueError):
        NCFamilyId("NC2", 4, 1)  # ungraded tag with p
    with pytest.raises(ValueError):
        NCFamilyId("NC2delta_bip", 5, 1)  # odd n
    with pytest.raises(ValueError):
        NCFamilyId("NC2", 0)
    assert NCFamilyId("NC2T_bip", 6, 1).describe() == "NC2T_bip(n=6,p=1)"
    assert NCFamilyId("NC2", 6).describe() == "NC2(n=6)"


def test_family_nc_rejects_unknown_tag_via_id():
    # family_nc reads NONCROSSING by the id's tag; the id is where an
    # unknown tag is refused, before any family is built
    with pytest.raises(ValueError, match="unknown family tag 'bogus'"):
        family_nc(NCFamilyId("bogus", 4))


def test_family_respects_budget():
    budget = EnumerationBudget(max_elements=2)
    with pytest.raises(CapExceeded):
        family_nc(NCFamilyId("NC", 4), budget=budget)


def test_delta_family_budget_counts_delta_symmetric_elements():
    # The source is the 105 delta-symmetric permutations of ±[4], not
    # the 40,320 permutations a filter would scan.
    assert len(family_nc(NCFamilyId("NCdelta", 4), budget=EnumerationBudget(105))) > 0
    with pytest.raises(CapExceeded):
        family_nc(NCFamilyId("NCdelta", 4), budget=EnumerationBudget(104))
    with pytest.raises(CapExceeded) as info:
        family_nc(NCFamilyId("NCK_p", 9, 1))
    assert (info.value.requested, info.value.cap) == (18, 16)


@pytest.mark.parametrize("tag", NONCROSSING)
def test_huge_sizes_are_refused_at_once(tag):
    # one compare of sizes, before the frame of size n is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="above the cap"):
        nc_groups(tag, 10**9)
    assert time.perf_counter() - start < 0.1


#: The sizes at which the family tests of this file build each family.
GROUPED_SIZES = {
    "NC": range(1, 6),
    "NC2": range(1, 9),
    "NC2T": range(1, 9),
    "NC2T_bip": range(2, 9, 2),
    "NCT_p": range(1, 6),
    "NCdelta": range(1, 5),
    "NC2delta": range(1, 7),
    "NCdelta_p": range(1, 5),
    "NC2K": range(1, 7),
    "NC2K_bip": range(2, 7, 2),
    "NCK_p": range(1, 4),
    "NC2delta_bip": range(2, 9, 2),
}


def _raised(build):
    with pytest.raises(CapExceeded) as info:
        build()
    return str(info.value), info.value.requested, info.value.cap


@pytest.mark.parametrize("tag", GROUPED_SIZES)
def test_nc_groups_equal_family_nc_grade_by_grade(tag):
    assert set(GROUPED_SIZES) == set(NONCROSSING)
    graded = NONCROSSING[tag].grade is not None
    for n in GROUPED_SIZES[tag]:
        groups = nc_groups(tag, n)
        grades = range(1, n + 2) if graded else [None]
        assert set(groups) <= set(grades)
        for p in grades:
            fid = NCFamilyId(tag, n, p)
            want, got = family_nc(fid), groups.get(p)
            if not want.members:
                assert got is None
                continue
            assert got.family_id == fid
            assert got.members == want.members
            assert got.witness_table == want.witness_table
    # a budget one below the source size fails both alike; the size itself passes
    n = GROUPED_SIZES[tag][1]
    size = sum(len(block) for block in NONCROSSING[tag].source(n, None))
    fid = NCFamilyId(tag, n, 1 if graded else None)
    below = EnumerationBudget(size - 1)
    assert _raised(lambda: nc_groups(tag, n, budget=below)) == _raised(
        lambda: family_nc(fid, budget=below)
    )
    assert nc_groups(tag, n, budget=EnumerationBudget(size)).keys() == nc_groups(tag, n).keys()


@pytest.mark.parametrize("tag", GROUPED_SIZES)
def test_per_image_test_equals_the_batched_scan_on_every_row(tag):
    # member_witnesses reads one permutation through the per-image kernels,
    # nc_groups the source blocks through the batched ones: a kept row has
    # the same witnesses at its grade and is refused at every other grade,
    # a dropped row is refused at every grade
    entry = NONCROSSING[tag]
    member = Pairing if entry.pairs else Permutation
    for n in GROUPED_SIZES[tag]:
        ground = signed_ground(n) if entry.signed else unsigned_ground(n)
        kept = {
            pi.image: (p, ws)
            for p, family in nc_groups(tag, n).items()
            for pi, ws in zip(family.members, family.witness_table or [()] * len(family))
        }
        rows = [tuple(row) for block in entry.source(n, None) for row in block.tolist()]
        assert kept.keys() <= set(rows)
        for img in rows:
            pi = member(ground, img)
            p, ws = kept.get(img, (None, None))
            for q in range(1, n + 2) if entry.grade else [None]:
                assert member_witnesses(NCFamilyId(tag, n, q), pi) == (ws if q == p else None)


@pytest.mark.parametrize("tag, n", [("NC2T", 10), ("NC2T_bip", 12)])
def test_budget_cuts_at_the_block_seams(tag, n):
    # 945 and 720 rows: two blocks of at most 512; the budget counts rows
    # across the seam, and a budget of the whole stream changes nothing
    length = sum(len(block) for block in NONCROSSING[tag].source(n, None))
    assert length > 512
    fid = NCFamilyId(tag, n, 1 if NONCROSSING[tag].grade else None)
    for k in (0, 511, 512, 513, length - 1):
        budget = EnumerationBudget(k)
        with pytest.raises(CapExceeded) as grouped:
            nc_groups(tag, n, budget=budget)
        with pytest.raises(CapExceeded) as single:
            family_nc(fid, budget=budget)
        for info in (grouped, single):
            assert (info.value.requested, info.value.cap) == (k + 1, k)

    def contents(family):
        return family.members, family.witness_table

    budget = EnumerationBudget(length)
    assert contents(family_nc(fid, budget=budget)) == contents(family_nc(fid))
    groups, budgeted = nc_groups(tag, n), nc_groups(tag, n, budget=budget)
    assert groups.keys() == budgeted.keys()
    assert all(contents(budgeted[p]) == contents(family) for p, family in groups.items())


def _contents(family):
    return family.family_id, family.members, family.witness_table


@pytest.mark.parametrize("tag", GROUPED_SIZES)
def test_a_kept_noncrossing_pass_equals_a_fresh_one(tag):
    # at every size whose source ends within one block, a repeat of
    # nc_groups or family_nc is served from the kept pass and equals a pass
    # with nothing kept: members, their order and witness tables
    entry = NONCROSSING[tag]
    sizes = [n for n in one_block_sizes(lambda n: entry.source(n, None))
             if not (entry.even_n and n % 2)]
    assert sizes
    for n in sizes:
        grades = [None] if entry.grade is None else range(1, n + 2)
        first = {p: _contents(family_nc(NCFamilyId(tag, n, p))) for p in grades}
        assert (tag, n) in noncrossing._GROUPS
        kept = {p: _contents(family) for p, family in nc_groups(tag, n).items()}
        noncrossing._GROUPS.clear()
        fresh = {p: _contents(family) for p, family in nc_groups(tag, n).items()}
        assert list(kept.items()) == list(fresh.items())
        for p in grades:
            empty = (NCFamilyId(tag, n, p), (), () if entry.cut else None)
            assert first[p] == fresh.get(p, empty)
            assert _contents(family_nc(NCFamilyId(tag, n, p))) == first[p]


def test_a_kept_noncrossing_pass_is_not_changed_through_a_returned_dict():
    want = nc_groups("NCdelta_p", 3)
    got = nc_groups("NCdelta_p", 3)
    assert got == want and got is not want
    got.clear()
    assert nc_groups("NCdelta_p", 3) == want
    assert family_nc(NCFamilyId("NCdelta_p", 3, 1)) is want[1]


def test_a_budget_bypasses_the_kept_noncrossing_pass():
    # NC2K on ±[4]: 12 rows, one block, kept; a budget still counts them
    # and raises on every repeat
    assert nc_groups("NC2K", 4)
    for _ in range(2):
        with pytest.raises(CapExceeded, match=r"element budget \(11\)"):
            nc_groups("NC2K", 4, budget=EnumerationBudget(11))
        with pytest.raises(CapExceeded, match=r"element budget \(11\)"):
            family_nc(NCFamilyId("NC2K", 4), budget=EnumerationBudget(11))
    noncrossing._GROUPS.clear()
    family_nc(NCFamilyId("NC2K", 4), budget=EnumerationBudget(12))
    assert not noncrossing._GROUPS


@pytest.mark.parametrize("n", range(1, 11))
def test_nc2k_block_source_equals_the_pairing_object_route(n):
    # NC2K reads the δ-symmetric pairing blocks; the Pairing objects of the
    # public stream, stacked back into blocks, give the same rows, grades
    # and witness tables
    objects = _scan("NC2K", n, _images(signed_symmetric_pairings(n), 2 * n))
    groups = nc_groups("NC2K", n)
    assert groups.keys() == objects.keys()
    for p, (rows, witnesses) in objects.items():
        assert np.array_equal(groups[p].rows, rows)
        assert groups[p].witness_table == witnesses


def test_nc2k_builds_no_pairing_object(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Pairing was built")

    monkeypatch.setattr(Pairing, "_make", refuse)
    assert len(nc_groups("NC2K", 8)[None]) > 0


def test_nc2k_is_refused_above_the_stream_cap():
    # the block source keeps the cap and message of the public stream
    message = "signed symmetric pairing enumeration requested for size 26, above the cap 24"
    for call in (lambda: nc_groups("NC2K", 13), lambda: signed_symmetric_pairings(13)):
        with pytest.raises(CapExceeded) as info:
            call()
        assert (str(info.value), info.value.requested, info.value.cap) == (message, 26, 24)


@pytest.mark.parametrize("n, kept", [(8, True), (10, False)])
def test_a_noncrossing_source_of_two_blocks_is_read_on_every_call(monkeypatch, n, kept):
    # NC2T on [8] reads 105 pairings, one block: read once for every grade
    # asked; on [10], 945 pairings: read on each call
    calls = []
    original = noncrossing.pairings

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(noncrossing, "pairings", counted)
    first = family_nc(NCFamilyId("NC2T", n))
    assert family_nc(NCFamilyId("NC2T", n)).members == first.members
    assert nc_groups("NC2T", n)[None].members == first.members
    assert len(calls) == (1 if kept else 3)
    assert (("NC2T", n) in noncrossing._GROUPS) == kept


def test_one_grade_of_a_long_source_equals_the_grouped_pass():
    # NCT_p on [7]: 5040 permutations, ten blocks; one grade is looked up in
    # an every-grade pass that is not kept, and equals the grouped pass's
    assert not noncrossing._GROUPS
    family = family_nc(NCFamilyId("NCT_p", 7, 3))
    assert not noncrossing._GROUPS
    grouped = nc_groups("NCT_p", 7)[3]
    assert _contents(family) == _contents(grouped)


#: The union tags, whose members carry their (u, v) witnesses.
UNION_TAGS = [tag for tag, entry in NONCROSSING.items() if entry.cut]


def _admitted_cuts(entry, n, block):
    """Row -> the cuts whose frame admits it: the block's open frames through the batched kernel.

    Each (row, frame) pair's answer is also held to the per-image kernel.
    """
    at, gammas, cuts, which = _open_frames(entry, n, block)
    admitted = _noncrossing_rows(block[at], _block_cycles(block)[at], gammas, which)
    found = {}
    for i, j, fits in zip(at.tolist(), which.tolist(), admitted.tolist()):
        assert fits == _noncrossing(tuple(block[i].tolist()), gammas[j])
        if fits:
            found.setdefault(i, []).append(cuts[j])
    return found


@pytest.mark.parametrize("tag", UNION_TAGS)
def test_batched_union_scan_equals_the_witness_oracle_on_every_row(tag):
    # every row of the source, of any grade, against the dict oracle: the
    # cuts whose frame admits it, in (u, v) order, and no entry when none
    # does; no frame admits a row at n = 1 or 2 (where [1], [2] and ±[1]
    # open no cut at all), and the torus unions hold rows that several
    # cuts admit
    entry = NONCROSSING[tag]
    kind = {"klein": entry.cut == "klein", "hypermap": entry.hypermap}
    ground = signed_ground if entry.signed else unsigned_ground
    several = 0
    for n in GROUPED_SIZES[tag]:
        for block in entry.source(n, None):
            found = _admitted_cuts(entry, n, block)
            for i, row in enumerate(block.tolist()):
                want = ref_union_witnesses(Permutation(ground(n), row).mapping(), n, **kind)
                assert found.get(i, []) == want
                several += len(want) > 1
            if n <= 2:
                assert found == {}
    assert several or entry.cut == "klein"


def test_batched_union_scan_of_an_empty_block():
    for tag in UNION_TAGS:
        entry = NONCROSSING[tag]
        size = 12 if entry.signed else 6
        empty = np.empty((0, size), dtype=np.intp)
        at, gammas, cuts, which = _open_frames(entry, 6, empty)
        assert (at.size, gammas, cuts, which.size) == (0, [], [], 0)
        assert _admitted_cuts(entry, 6, empty) == {}


#: Frames of the batched kernel, each row of a call against one of them:
#: the disk, the annulus, a torus cut, a Klein cut, and the disk among two
#: torus cuts.
KERNEL_FRAMES = {
    "disk": lambda: [full_cycle(5)],
    "annulus": lambda: [annulus_cycle(3)],
    "torus": lambda: [torus_frame(5, 2, 4).gamma],
    "klein": lambda: [klein_frame(3, 1, 2).gamma],
    "disk-and-torus": lambda: [
        full_cycle(5), *(torus_frame(5, *cut).gamma for cut in ((1, 2), (2, 4)))
    ],
}


@pytest.mark.parametrize("frames", KERNEL_FRAMES)
def test_batched_noncrossing_rows_equal_the_per_image_kernel(frames):
    # every permutation of the frames' ground, each against its own frame;
    # on the two-cycle frames some rows meet the count but not the join
    gammas = KERNEL_FRAMES[frames]()
    ground = gammas[0].domain
    block = np.array([pi.image for pi in permutations_of(ground)], dtype=np.intp)
    which = np.arange(len(block)) % len(gammas)
    got = _noncrossing_rows(block, _block_cycles(block), gammas, which)
    rows = [tuple(row) for row in block.tolist()]
    assert got.tolist() == [_noncrossing(row, gammas[j]) for row, j in zip(rows, which.tolist())]
    unjoined = sum(
        _cycle_total(row, gammas[j]) == ground.size + 2
        and _join_block_count_images(row, gammas[j].image) > 1
        for row, j in zip(rows, which.tolist())
    )
    assert got.any() and (unjoined > 0) == (frames != "disk")


def test_batched_noncrossing_rows_read_frames_of_one_or_two_cycles():
    block = np.array([[1, 0, 2]])
    identity = Permutation.identity(unsigned_ground(3))
    with pytest.raises(ValueError, match="one or two cycles, not 3"):
        _noncrossing_rows(block, _block_cycles(block), [full_cycle(3), identity], np.array([1]))


#: The sizes of the completeness gate below: the built sources further.
UNFILTERED_SIZES = {**GROUPED_SIZES, "NC": range(1, 7), "NC2delta": range(1, 9)}


@pytest.mark.parametrize("tag", UNFILTERED_SIZES)
def test_families_miss_no_element_of_the_unfiltered_stream(tag):
    # each entry's source must hold every element the membership test
    # accepts: filter the whole stream that its signed/pairs fields name
    # with member_witnesses alone
    entry = NONCROSSING[tag]
    if entry.pairs:
        unfiltered = signed_symmetric_pairings if entry.signed else pairings
    else:
        unfiltered = signed_symmetric_permutations if entry.signed else permutations
    for n in UNFILTERED_SIZES[tag]:
        for p in range(1, n + 2) if entry.grade else [None]:
            fid = NCFamilyId(tag, n, p)
            accepted = {}
            for pi in unfiltered(n):
                witnesses = member_witnesses(fid, pi)
                if witnesses is not None:
                    accepted[pi] = witnesses
            fam = family_nc(fid)
            assert fam.members == tuple(sorted(accepted, key=lambda q: q.sort_key()))
            assert all(type(pi) is type(q) for pi in fam.members for q in accepted)
            assert fam.witness_table == (
                tuple(accepted[pi] for pi in fam.members) if entry.cut else None
            )


def test_nc_groups_check_the_tag_and_n_before_the_stream():
    with pytest.raises(ValueError, match="unknown family tag 'bogus'; known: "):
        nc_groups("bogus", 4)
    with pytest.raises(ValueError, match="even n"):
        nc_groups("NC2T_bip", 3)
    with pytest.raises(ValueError, match="positive"):
        nc_groups("NC", 0)


def test_member_witnesses_checks_the_source_conditions():
    g4, s2 = unsigned_ground(4), signed_ground(2)
    # wrong ground set
    assert member_witnesses(NCFamilyId("NC2", 4), parse_cycles("(1,2)", s2)) is None
    assert member_witnesses(NCFamilyId("NC", 3), Permutation.identity(g4)) is None
    # not a pairing
    assert member_witnesses(NCFamilyId("NC2", 4), parse_cycles("(1,2)", g4)) is None
    assert member_witnesses(NCFamilyId("NC", 4), parse_cycles("(1,2)", g4)) == ()
    # not delta-symmetric
    annular = NCFamilyId("NC2delta", 2)
    assert member_witnesses(annular, parse_cycles("(1,-1)(2,-2)", s2)) is None
    assert member_witnesses(annular, parse_cycles("(1,-2)(-1,2)", s2)) == ()
    torus = NCFamilyId("NC2T", 4)
    assert member_witnesses(torus, parse_cycles("(1,3)(2,4)", g4)) == ((1, 3),)


# ---------------------------------------------------------------------------
# disk families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_disk_pairings_are_catalan(m):
    assert len(family_nc(NCFamilyId("NC2", 2 * m))) == ref_catalan(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_disk_permutations_are_catalan(n):
    assert len(family_nc(NCFamilyId("NC", n))) == ref_catalan(n)


def test_disk_pairings_odd_empty():
    assert len(family_nc(NCFamilyId("NC2", 5))) == 0


def test_built_families_have_their_closed_sizes_at_the_caps():
    # Catalan(11) twice, (4⁸ − C(16, 8))/2 and 4⁷ − C(15, 7); one size
    # more is refused: each cap measures the entries of the table built
    assert len(family_nc(NCFamilyId("NC2", 22))) == ref_catalan(11) == 58_786
    assert len(family_nc(NCFamilyId("NC", 11))) == ref_catalan(11)
    assert len(family_nc(NCFamilyId("NC2delta", 16))) == (4**8 - math.comb(16, 8)) // 2 == 26_333
    graded = nc_groups("NC2delta_bip", 16)
    assert sum(map(len, graded.values())) == 4**7 - math.comb(15, 7) == 9949
    for tag, n, sizes in (("NC2", 23, (23, 22)), ("NC", 12, (12, 11)),
                          ("NC2delta", 17, (34, 32)), ("NC2delta_bip", 18, (36, 32))):
        with pytest.raises(CapExceeded) as info:
            nc_groups(tag, n)
        assert (info.value.requested, info.value.cap) == sizes


@pytest.mark.parametrize(
    "tag, n, build",
    [("NC", 12, noncrossing._disk_partitions), ("NC2", 23, noncrossing._chords),
     ("NC2", 24, noncrossing._chords), ("NC2delta", 17, noncrossing._annulus_pairings),
     ("NC2delta", 18, noncrossing._annulus_pairings)],
)
def test_built_sources_refuse_a_size_above_the_cap_before_any_table(tag, n, build):
    build.cache_clear()
    with pytest.raises(CapExceeded, match="above the cap"):
        nc_groups(tag, n)
    assert build.cache_info().currsize == 0


def test_each_chord_table_is_cached_once():
    # the NC2 source, the recursion and ``_arches`` read one entry per (m, through)
    noncrossing._chords.cache_clear()
    nc_groups("NC2", 12)
    misses = noncrossing._chords.cache_info().misses
    for m in (12, 10):
        noncrossing._chords(m, through=False)
    assert noncrossing._chords.cache_info().misses == misses


def test_planar_pairings_equal_genus_zero_gluings():
    for n in (2, 4, 6):
        assert family_nc(NCFamilyId("NC2", n)).member_set == set(family_a(n, 0))


# ---------------------------------------------------------------------------
# annular (mirror-symmetric) families
# ---------------------------------------------------------------------------

def test_annular_pairing_family_smallest():
    fam = family_nc(NCFamilyId("NC2delta", 2))
    assert [p.cycle_string() for p in fam] == ["(-2,1)(-1,2)"]


def test_annular_pairing_family_size_four():
    fam = family_nc(NCFamilyId("NC2delta", 4))
    assert len(fam) == 5
    member = parse_cycles("(1,-4)(-1,4)(2,3)(-2,-3)", signed_ground(4))
    assert member in fam


def test_annular_members_satisfy_both_conditions():
    for n in (2, 4):
        gamma = annulus_cycle(n)
        for pi in family_nc(NCFamilyId("NC2delta", n)):
            assert is_delta_symmetric(pi)
            assert is_noncrossing(pi, gamma)
            assert euler_defect(pi, gamma) == 0


def test_annular_permutation_grading_partitions_family():
    for n in (2, 3):
        total = len(family_nc(NCFamilyId("NCdelta", n)))
        graded = sum(
            len(family_nc(NCFamilyId("NCdelta_p", n, p))) for p in range(1, n + 1)
        )
        assert graded == total


def test_annular_permutation_family_strong_reading_size():
    assert len(family_nc(NCFamilyId("NCdelta", 3))) == 6


# ---------------------------------------------------------------------------
# torus families
# ---------------------------------------------------------------------------

def test_torus_family_sizes_and_equality():
    for n, size in ((4, 1), (6, 10), (8, 70)):
        fam = family_nc(NCFamilyId("NC2T", n))
        assert len(fam) == size
        assert fam.member_set == set(family_a(n, 1))


def test_torus_family_smallest_member():
    fam = family_nc(NCFamilyId("NC2T", 4))
    assert [p.cycle_string() for p in fam] == ["(1,3)(2,4)"]
    assert fam.witnesses_for(fam.members[0]) == ((1, 3),)
    assert fam.union_collisions == ()


def test_torus_union_overlaps_are_reported_not_hidden():
    fam = family_nc(NCFamilyId("NC2T", 6))
    assert len(fam) == 10
    overlapping = parse_cycles("(1,5)(2,4)(3,6)", unsigned_ground(6))
    assert fam.witnesses_for(overlapping) == ((1, 5), (2, 4))
    assert dict(fam.union_collisions) == {overlapping: ((1, 5), (2, 4))}
    triple = parse_cycles("(1,7)(2,6)(3,5)(4,8)", unsigned_ground(8))
    fam8 = family_nc(NCFamilyId("NC2T", 8))
    assert fam8.witnesses_for(triple) == ((1, 7), (2, 6), (3, 5))


def test_torus_members_are_noncrossing_at_their_witnesses():
    fam = family_nc(NCFamilyId("NC2T", 6))
    for pi in fam:
        for u, v in fam.witnesses_for(pi):
            gamma = torus_frame(6, u, v).gamma
            assert pi(u) == v
            assert is_noncrossing(pi, gamma)
            assert all(pi(a) not in range(u, v + 1) for a in range(1, u))


def _key(d: dict) -> tuple:
    return tuple(sorted(d.items()))


def _assert_union_matches_oracle(fid, source, **kind):
    fam = family_nc(fid)
    got = {_key(pi.mapping()): list(fam.witnesses_for(pi)) for pi in fam}
    want = {}
    for p in source:
        ws = ref_union_witnesses(p, fid.n, **kind)
        if ws:
            want[_key(p)] = ws
    assert got == want


def _bipartite_grade(p: dict, n: int, *, signed: bool) -> int | None:
    """The colour-1 cycles of p⁻¹γ, or None when a pair stays in one class.

    Colour 1 is B(n/2) on ±[n], against γ = 1̃ₙ, and the odd labels on
    [n], against γ = 1ₙ.
    """
    colour = ref_black_white(n // 2)[0] if signed else set(range(1, n + 1, 2))
    if any((x in colour) == (y in colour) for x, y in p.items()):
        return None
    gamma = ref_annulus_cycle(n) if signed else ref_full_cycle(n)
    return ref_cycle_count_on(ref_compose(ref_inverse(p), gamma), colour)


def test_union_families_match_dict_oracle():
    for n in range(1, 9):
        pairs = [pairing_to_map(ps) for ps in ref_all_pairings(list(range(1, n + 1)))]
        _assert_union_matches_oracle(
            NCFamilyId("NC2T", n), pairs, klein=False, hypermap=False
        )
    for n in range(1, 7):
        _assert_union_matches_oracle(
            NCFamilyId("NC2K", n),
            ref_signed_symmetric_pairings(n),
            klein=True,
            hypermap=False,
        )
    for n in range(1, 6):
        perms = ref_permutations(range(1, n + 1))
        for p in range(1, n + 1):
            _assert_union_matches_oracle(
                NCFamilyId("NCT_p", n, p),
                [d for d in perms if ref_num_cycles(d) == p],
                klein=False,
                hypermap=True,
            )
    for n in range(1, 4):
        perms = ref_signed_symmetric_permutations(n)
        for p in range(1, n + 1):
            _assert_union_matches_oracle(
                NCFamilyId("NCK_p", n, p),
                [d for d in perms if ref_num_cycles(d) == 2 * p],
                klein=True,
                hypermap=True,
            )
    for n in range(2, 9, 2):
        pairs = [pairing_to_map(ps) for ps in ref_all_pairings(list(range(1, n + 1)))]
        for p in range(1, n // 2 + 2):
            _assert_union_matches_oracle(
                NCFamilyId("NC2T_bip", n, p),
                [d for d in pairs if _bipartite_grade(d, n, signed=False) == p],
                klein=False,
                hypermap=False,
                parity=1,
            )
    for n in range(2, 9, 2):
        pairs = ref_signed_symmetric_pairings(n)
        for p in range(1, n // 2 + 2):
            graded = [d for d in pairs if _bipartite_grade(d, n, signed=True) == 2 * p]
            if n <= 6:
                _assert_union_matches_oracle(
                    NCFamilyId("NC2K_bip", n, p),
                    graded,
                    klein=True,
                    hypermap=False,
                    parity=0,
                )
            gamma = ref_annulus_cycle(n)
            got = {_key(pi.mapping()) for pi in family_nc(NCFamilyId("NC2delta_bip", n, p))}
            assert got == {_key(d) for d in graded if ref_is_noncrossing(d, gamma)}


def test_witnesses_unavailable_for_plain_families():
    fam = family_nc(NCFamilyId("NC2", 4))
    with pytest.raises(ValueError):
        fam.witnesses_for(fam.members[0])


# ---------------------------------------------------------------------------
# Klein families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "tag, n, collided",
    [
        ("NC2T", 8, 12),
        ("NC2T", 10, 95),
        ("NCT_p", 6, 14),
        ("NC2T_bip", 8, 1),
        ("NC2K", 8, 0),
        ("NCK_p", 4, 0),
        ("NC2K_bip", 8, 0),
    ],
)
def test_torus_unions_overlap_and_klein_unions_do_not(tag, n, collided):
    # members with two or more witnesses, over every grade
    families = nc_groups(tag, n).values()
    assert sum(len(family.union_collisions) for family in families) == collided


def test_klein_family_sizes():
    sizes = {n: len(family_nc(NCFamilyId("NC2K", n))) for n in (2, 3, 4, 5, 6)}
    assert sizes == {2: 0, 3: 0, 4: 4, 5: 0, 6: 42}


def test_klein_family_members_checked_at_witnesses():
    fam = family_nc(NCFamilyId("NC2K", 4))
    assert len(fam) == 4
    assert fam.union_collisions == ()
    for pi in fam:
        assert is_delta_symmetric(pi)
        for u, v in fam.witnesses_for(pi):
            gamma = klein_frame(4, u, v).gamma
            assert pi(u) == -v
            assert is_noncrossing(pi, gamma)
            assert all(pi(a) > 0 for a in range(1, u))


def test_klein_family_needs_frames_with_v_equal_n():
    fam = family_nc(NCFamilyId("NC2K", 4))
    vs = {v for pi in fam for (u, v) in fam.witnesses_for(pi)}
    assert 4 in vs  # dropping v = n would lose members


# ---------------------------------------------------------------------------
# graded bipartite families
# ---------------------------------------------------------------------------

def test_bipartite_torus_equals_bipartite_genus_one_gluings():
    for n in (1, 2, 3, 4):
        for p in range(1, n + 1):
            fam = family_nc(NCFamilyId("NC2T_bip", 2 * n, p))
            assert fam.member_set == set(family_a_tilde(n, 1, p))


def test_bipartite_torus_example_member():
    fam = family_nc(NCFamilyId("NC2T_bip", 6, 1))
    assert [p.cycle_string() for p in fam] == ["(1,4)(2,5)(3,6)"]


def test_bipartite_annulus_smallest_member():
    fam = family_nc(NCFamilyId("NC2delta_bip", 4, 1))
    assert [p.cycle_string() for p in fam] == ["(-4,2)(-3,1)(-2,4)(-1,3)"]
    assert len(family_nc(NCFamilyId("NC2delta_bip", 4, 2))) == 0


def test_bipartite_klein_sizes_match_twisted_gluing_counts():
    for n in (1, 2, 3):
        counts = family_b_tilde_counts(n)
        for p in range(1, n + 1):
            fam = family_nc(NCFamilyId("NC2K_bip", 2 * n, p))
            assert len(fam) == counts.get((2, p), 0)


def test_bipartite_parity_restrictions_on_witnesses():
    fam = family_nc(NCFamilyId("NC2T_bip", 6, 1))
    for pi in fam:
        assert all((v - u) % 2 == 1 for u, v in fam.witnesses_for(pi))
    fam = family_nc(NCFamilyId("NC2K_bip", 6, 1))
    for pi in fam:
        assert all((v - u) % 2 == 0 for u, v in fam.witnesses_for(pi))


# ---------------------------------------------------------------------------
# graded permutation-level families
# ---------------------------------------------------------------------------

def test_torus_permutation_family_equals_hypermap_family():
    for n in (2, 3, 4, 5):
        for p in range(1, n + 1):
            fam = family_nc(NCFamilyId("NCT_p", n, p))
            assert fam.member_set == set(family_a_hat(n, 1, p))


def test_torus_permutation_family_smallest():
    fam = family_nc(NCFamilyId("NCT_p", 3, 1))
    assert [p.cycle_string() for p in fam] == ["(1,3,2)"]


def test_klein_permutation_family_sizes():
    assert len(family_nc(NCFamilyId("NCK_p", 3, 1))) == 3
    assert len(family_nc(NCFamilyId("NCK_p", 2, 1))) == 0


def test_graded_members_have_expected_cycle_counts():
    for p in (1, 2):
        for pi in family_nc(NCFamilyId("NCdelta_p", 3, p)):
            assert num_cycles(pi) == 2 * p
        for pi in family_nc(NCFamilyId("NCT_p", 4, p)):
            assert num_cycles(pi) == p


# ---------------------------------------------------------------------------
# cross-checks with independent cycle arithmetic
# ---------------------------------------------------------------------------

def test_noncrossing_identity_against_dict_arithmetic():
    gamma_perm = annulus_cycle(2)
    gamma = dict(gamma_perm.mapping())
    for pairs in ref_all_pairings([x for x in range(-2, 3) if x]):
        d = pairing_to_map(pairs)
        total = (
            ref_num_cycles(d)
            + ref_num_cycles(ref_compose(ref_inverse(d), gamma))
            + ref_num_cycles(gamma)
        )
        pi = Pairing.from_pairs(signed_ground(2), pairs)
        assert (total == 6 and ref_join_blocks(d, gamma) == 1) == is_noncrossing(
            pi, gamma_perm
        )
