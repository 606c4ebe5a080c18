"""Bijection maps and their exhaustive verification drivers."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import annular.maps
import annular.noncrossing
from annular import bijections
from annular.bijections import (
    BIJECTIONS,
    WITNESS_CAP,
    BijectionReport,
    conjecture_table,
    grades,
    phi1,
    phi1_inverse,
    phi2,
    verify,
    verify_grades,
    verify_lemma3,
    verify_phi1,
    verify_phi1_hat,
    verify_phi2,
    verify_phi2_hat,
    verify_torus_equality,
    _verify,
)
from annular.cli import main as cli_main
from annular.maps import (
    GLUINGS,
    family_b,
    family_b_tilde_counts,
    gluing_family,
    gluing_groups,
    hypermap_from_bipartite_nonorientable,
    hypermap_from_bipartite_orientable,
)
from annular.noncrossing import NONCROSSING, NCFamily, NCFamilyId, family_nc
from annular.perms import (
    Pairing,
    Permutation,
    inverse,
    parse_cycles,
    signed_ground,
    unsigned_ground,
)
from annular.streams import CapExceeded, EnumerationBudget, permutations

from oracles import ref_family_b_hat_counts, ref_narayana, ref_verify
from test_golden import gluing_members


# ---------------------------------------------------------------------------
# the maps themselves
# ---------------------------------------------------------------------------

def test_phi1_smallest_case():
    t = family_b(2, 1)[0]
    assert t.cycle_string() == "(-2,-1)(1,2)"
    image = phi1(t)
    assert image.cycle_string() == "(-2,1)(-1,2)"
    assert phi1_inverse(image) == t


def test_phi1_round_trip_on_whole_domain():
    for t in family_b(4, 1):
        assert phi1_inverse(phi1(t)) == t
    for t in family_b(4, 2):
        assert phi1_inverse(phi2(t)) == t


def test_phi1_rejects_non_members():
    s2 = signed_ground(2)
    with pytest.raises(ValueError):
        phi1(parse_cycles("(1,-1)(2,-2)", s2))  # pairs labels with negations
    with pytest.raises(ValueError):
        phi1(parse_cycles("(1,-2)(-1,2)", s2))  # untwisted
    with pytest.raises(ValueError):
        phi1(Pairing.from_pairs(unsigned_ground(2), [(1, 2)]))  # unsigned domain
    with pytest.raises(ValueError):
        phi2(parse_cycles("(-2,-1)(1,2)", s2))  # Euler genus 1, not 2


def test_phi2_anchored_image():
    # Twisted double edge on ±[4]: both unsigned pairs {1,4},{2,3} twisted.
    t = parse_cycles("(1,4)(-1,-4)(2,3)(-2,-3)", signed_ground(4))
    assert t in family_b(4, 2)
    image = phi2(t)
    assert image.cycle_string() == "(-4,1)(-3,2)(-2,3)(-1,4)"


# ---------------------------------------------------------------------------
# ungraded drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,size", [(2, 1), (4, 5), (6, 22), (8, 93)]
)
def test_verify_phi1(n, size):
    report = verify_phi1(n)
    assert report.verified
    assert report.domain_size == report.codomain_size == size


@pytest.mark.parametrize("n,size", [(4, 4), (6, 42)])
def test_verify_phi2(n, size):
    report = verify_phi2(n)
    assert report.verified
    assert report.domain_size == report.codomain_size == size


@pytest.mark.parametrize("n,size", [(4, 1), (6, 10), (8, 70)])
def test_verify_torus_equality(n, size):
    report = verify_torus_equality(n)
    assert report.verified
    assert report.domain_size == report.codomain_size == size


UNGRADED = [tag for tag, entry in BIJECTIONS.items() if not entry.graded]
GRADED = [tag for tag, entry in BIJECTIONS.items() if entry.graded]


@pytest.mark.parametrize("tag", UNGRADED)
def test_ungraded_drivers_reject_odd_n(tag):
    with pytest.raises(ValueError, match="positive even integer"):
        verify(tag, 3)


def test_registry_order_and_grades():
    assert UNGRADED == ["phi1", "phi2", "torus-eq"]
    assert GRADED == [
        "phi1-tilde", "phi2-tilde", "a-tilde-eq", "phi1-hat", "phi2-hat", "a-hat-eq"
    ]
    for tag, entry in BIJECTIONS.items():
        assert entry.gluing in GLUINGS and entry.nc in NONCROSSING, tag
        gluing = GLUINGS[entry.gluing]
        nc = NONCROSSING[entry.nc]
        assert gluing.signed == nc.signed, tag
        assert gluing.pairs == nc.pairs, tag
        assert entry.graded == (len(gluing.grades) == 2), tag
        assert entry.first >= 1, tag
    with pytest.raises(ValueError, match="takes no grade"):
        verify("phi1", 4, 1)
    with pytest.raises(ValueError, match="needs a grade"):
        verify("phi1-hat", 3)


@pytest.mark.parametrize("call", [lambda: verify("zz", 4), lambda: verify_grades("zz", 4)])
def test_an_unknown_bijection_tag_raises_value_error(call):
    with pytest.raises(ValueError, match=r"unknown bijection 'zz'; known: \('phi1', 'phi2', "):
        call()


# ---------------------------------------------------------------------------
# graded drivers
# ---------------------------------------------------------------------------

GRADED_SIZES = {
    # (tag, n, p) -> common size of both sides
    ("phi1-tilde", 2, 1): 1,
    ("phi1-tilde", 3, 1): 3,
    ("phi1-tilde", 3, 2): 3,
    ("phi2-tilde", 3, 1): 3,
    ("a-tilde-eq", 3, 1): 1,
    ("phi1-hat", 2, 1): 1,
    ("phi1-hat", 3, 1): 3,
    ("phi1-hat", 3, 2): 3,
    ("phi2-hat", 3, 1): 3,
    ("a-hat-eq", 3, 1): 1,
}


def test_graded_drivers_all_small_sizes():
    for n in (1, 2, 3):
        for p in range(1, n + 1):
            for tag in GRADED:
                report = verify(tag, n, p)
                assert report.verified, report.failures
                assert report.name == f"{tag}(p={p})"
                expected = GRADED_SIZES.get((tag, n, p), 0)
                assert report.domain_size == expected
                assert report.codomain_size == expected


def _payloads_or_error(build):
    try:
        return [report.to_payload() for report in build()]
    except (CapExceeded, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "requested", None), getattr(exc, "cap", None)


@pytest.mark.parametrize("budget", [None, 0, 3, 50])
@pytest.mark.parametrize("tag", GRADED)
def test_verify_grades_equals_verify_at_each_grade(tag, budget):
    budget = None if budget is None else EnumerationBudget(budget)
    for n in range(1, 5):
        per_grade = _payloads_or_error(
            lambda: [verify(tag, n, p, budget=budget) for p in range(1, n + 1)]
        )
        assert _payloads_or_error(lambda: verify_grades(tag, n, budget=budget)) == per_grade
    for bad in (0, -1):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            verify_grades(tag, bad)


@pytest.mark.parametrize("n", [0, -1])
def test_lemma3_and_conjecture_table_reject_n_below_1(n):
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        verify_lemma3(n)
    with pytest.raises(ValueError, match="^max_n must be a positive integer$"):
        conjecture_table(n)


def test_grades_and_conjecture_table_check_n_where_it_enters():
    # the value the caller passed is named, not one derived from it
    with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
        grades(3.0)
    with pytest.raises(ValueError, match=r"^max_n must be an integer, got 2\.0$"):
        conjecture_table(2.0)
    assert grades(np.int64(3)) == range(1, 4)


def test_verify_grades_rejects_ungraded_entries():
    with pytest.raises(ValueError, match="takes no grade p"):
        verify_grades("phi1", 4)


def test_graded_driver_at_larger_size():
    report = verify_phi1_hat(4, 2)
    assert report.verified
    assert report.domain_size == report.codomain_size == 17


def test_hat_counts_match_reference():
    for n in (2, 3):
        counts = ref_family_b_hat_counts(n)
        for (k, p), size in counts.items():
            fn = verify_phi1_hat if k == 1 else verify_phi2_hat
            report = fn(n, p)
            assert report.verified
            assert report.domain_size == size


# ---------------------------------------------------------------------------
# reduction drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma3_all_grades_verified(n):
    reports = verify_lemma3(n)
    assert reports, "expected at least one nonempty grade"
    for report in reports:
        assert report.verified, (report.name, report.failures)


def test_lemma3_planar_grades_are_narayana():
    by_name = {r.name: r for r in verify_lemma3(3)}
    for p in (1, 2, 3):
        assert by_name[f"lemma3-orientable(g=0,p={p})"].domain_size == ref_narayana(3, p)


def test_lemma3_skips_empty_grades():
    names = {r.name for r in verify_lemma3(2)}
    assert "lemma3-nonorientable(k=2,p=2)" not in names
    assert "lemma3-nonorientable(k=1,p=1)" in names
    for n in range(1, 5):
        expected = []
        for bipartite, hypermap, side, grade in (
            ("a-tilde", "a-hat", "orientable", "g"),
            ("b-tilde", "b-hat", "nonorientable", "k"),
        ):
            keys = gluing_groups(bipartite, n).keys() | gluing_groups(hypermap, n).keys()
            expected += [f"lemma3-{side}({grade}={a},p={b})" for a, b in sorted(keys)]
        assert [r.name for r in verify_lemma3(n)] == expected


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def _rows(*perms):
    """The images of ``perms``, one row each."""
    return np.array([p.image for p in perms], dtype=np.intp)


def test_report_failure_paths_are_recorded():
    a = parse_cycles("(1,2)", unsigned_ground(2))
    b = parse_cycles("", unsigned_ground(2))
    collapse = _verify(
        "collapse", 2, _rows(a, b), _rows(a), lambda rows: np.repeat(_rows(a), len(rows), 0), False
    )
    assert not collapse.injective
    assert collapse.surjective
    assert not collapse.verified
    assert any("not injective" in f for f in collapse.failures)

    off_target = _verify("off-target", 2, _rows(a), _rows(b), lambda rows: rows, False)
    assert off_target.injective
    assert not off_target.surjective
    assert any("outside the target family" in f for f in off_target.failures)
    assert any("never hit" in f for f in off_target.failures)


def test_report_witness_cap():
    # the cap binds once a family outgrows it: 420 torus pairings of [10]
    report = verify("torus-eq", 10)
    assert WITNESS_CAP == 100
    assert (report.domain_size, len(report.witnesses)) == (420, WITNESS_CAP)
    assert report.verified
    # below the cap every domain element is a witness
    assert len(verify_phi1(6).witnesses) == 22
    # failures are capped alike: 120 images outside an empty target
    none = np.empty((0, 5), dtype=np.intp)
    off_target = _verify("x", 5, _rows(*permutations(5)), none, lambda t: t, False)
    assert len(off_target.failures) == WITNESS_CAP


def test_report_determinism_and_payload():
    r1 = verify_phi2(4)
    r2 = verify_phi2(4)
    assert r1 == r2
    payload = r1.to_payload()
    assert payload["verified"] is True
    assert payload["domain_size"] == 4
    assert all(len(w) == 2 for w in payload["witnesses"])


def test_budget_propagates():
    budget = EnumerationBudget(max_elements=3)
    with pytest.raises(CapExceeded):
        verify_phi1(6, budget=budget)


# ---------------------------------------------------------------------------
# surmised count identity
# ---------------------------------------------------------------------------

def test_conjecture_table_rows():
    rows = conjecture_table(3)
    assert [(r.n, r.p) for r in rows] == [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
    ]
    assert all(row.equal for row in rows)
    counts = {(r.n, r.p): (r.twisted_count, r.annular_count) for r in rows}
    assert counts[(2, 1)] == (1, 1)
    assert counts[(3, 1)] == (3, 3)
    assert counts[(3, 2)] == (3, 3)
    # twisted side independently pinned by the gluing histogram
    for n in (2, 3):
        hist = family_b_tilde_counts(n)
        for p in range(1, n + 1):
            assert counts[(n, p)][0] == hist.get((1, p), 0)


def test_conjecture_table_reaches_n_5_on_both_sides():
    # ±[10] and ±[20] are within the caps of both sides now
    rows = [row for row in conjecture_table(5) if row.n == 5]
    assert [(r.p, r.twisted_count, r.annular_count) for r in rows] == [
        (1, 10, 10), (2, 55, 55), (3, 55, 55), (4, 10, 10), (5, 0, 0)
    ]
    reports = verify_grades("phi1-tilde", 5)
    assert [(r.domain_size, r.codomain_size) for r in reports] == [
        (r.twisted_count, r.annular_count) for r in rows
    ]


def test_conjecture_table_builds_each_twisted_side_once(monkeypatch):
    calls = []
    stream = annular.maps._bipartite_signed_symmetric_pairing_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return stream(*args, **kwargs)

    monkeypatch.setattr(annular.maps, "_bipartite_signed_symmetric_pairing_blocks", counted)
    conjecture_table(3)
    # the cap check at max_n (it reads no row), then one b̃ histogram per n,
    # not one family per (n, p); b̃ at n reads ±[2n]
    assert [args[0] for args in calls] == [6, 2, 4, 6]


def test_conjecture_row_payload():
    row = conjecture_table(2)[1]
    assert row.to_payload() == {
        "n": 2,
        "p": 1,
        "twisted_count": 1,
        "annular_count": 1,
        "equal": True,
    }


# ---------------------------------------------------------------------------
# the row path against the object reference
# ---------------------------------------------------------------------------

#: Tag -> the public object function its row map stands for.
OBJECT_MAPS = {
    "phi1": phi1,
    "phi2": phi2,
    "torus-eq": lambda x: x,
    "phi1-tilde": phi1,
    "phi2-tilde": phi2,
    "a-tilde-eq": lambda x: x,
    "phi1-hat": inverse,
    "phi2-hat": inverse,
    "a-hat-eq": lambda x: x,
}

#: (bipartite, hypermap, object reduction, report side, grade name) of lemma 3.
LEMMA3 = (
    ("a-tilde", "a-hat", hypermap_from_bipartite_orientable, "orientable", "g"),
    ("b-tilde", "b-hat", hypermap_from_bipartite_nonorientable, "nonorientable", "k"),
)

#: Every size at which the suite verifies an ungraded entry.
UNGRADED_SIZES = {"phi1": (2, 4, 6, 8), "phi2": (2, 4, 6, 8), "torus-eq": (2, 4, 6, 8, 10)}


def _graded_sizes(tag):
    return range(1, 6 if tag == "phi1-tilde" else 5)


def _reference(tag, n, p=None):
    entry = BIJECTIONS[tag]
    name = f"{tag}(p={p})" if entry.graded else tag
    grade = (entry.first, p) if entry.graded else (entry.first,)
    codomain = family_nc(NCFamilyId(entry.nc, entry.annular_n(n), p)).members
    domain = gluing_family(entry.gluing, n, grade)
    return ref_verify(name, n, domain, codomain, OBJECT_MAPS[tag])


def _lemma3_reference(n):
    reports = []
    for bipartite, hypermap, reduction, side, grade in LEMMA3:
        domains, codomains = gluing_groups(bipartite, n), gluing_groups(hypermap, n)
        for key in sorted(domains.keys() | codomains.keys()):
            name = f"lemma3-{side}({grade}={key[0]},p={key[1]})"
            domain = gluing_members(bipartite, n, domains[key]) if key in domains else ()
            codomain = gluing_members(hypermap, n, codomains[key]) if key in codomains else ()
            reports.append(ref_verify(name, n, domain, codomain, reduction))
    return [report.to_payload() for report in reports]


@pytest.mark.parametrize("tag", BIJECTIONS)
def test_every_report_equals_the_object_reference(tag):
    entry = BIJECTIONS[tag]
    if not entry.graded:
        for n in UNGRADED_SIZES[tag]:
            assert verify(tag, n).to_payload() == _reference(tag, n).to_payload()
        return
    for n in _graded_sizes(tag):
        want = [_reference(tag, n, p).to_payload() for p in grades(n)]
        assert [r.to_payload() for r in verify_grades(tag, n)] == want
        assert [verify(tag, n, p).to_payload() for p in grades(n)] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma3_reports_equal_the_object_reference(n):
    assert [r.to_payload() for r in verify_lemma3(n)] == _lemma3_reference(n)


def _objects(rows, signed):
    ground = signed_ground(rows.shape[1] // 2) if signed else unsigned_ground(rows.shape[1])
    return [Permutation(ground, row) for row in rows.tolist()]


def _one_row_at_a_time(row_map, signed):
    """The object map a row map gives, one object at a time."""
    def fn(pi):
        return _objects(row_map(np.array([pi.image], dtype=np.intp)), signed)[0]
    return fn


def _both(name, n, domain, codomain, row_map, signed):
    """The row report and the object reference on the same inputs, as payloads."""
    got = _verify(name, n, domain, codomain, row_map, signed)
    want = ref_verify(
        name, n, _objects(domain, signed), _objects(codomain, signed),
        _one_row_at_a_time(row_map, signed),
    )
    return got.to_payload(), want.to_payload()


def test_failure_reports_equal_the_object_reference():
    a = _rows(parse_cycles("(1,2)", unsigned_ground(2)))
    b = _rows(Permutation.identity(unsigned_ground(2)))
    cases = [
        ("collapse", 2, np.concatenate((a, b)), a, lambda rows: np.repeat(a, len(rows), 0), False),
        ("off-target", 2, a, b, lambda rows: rows, False),
        ("cap", 5, _rows(*permutations(5)), np.empty((0, 5), dtype=np.intp), lambda rows: rows, False),
    ]
    entry = BIJECTIONS["phi1"]
    domain = _rows(*gluing_family(entry.gluing, 8, (entry.first,)))
    codomain = family_nc(NCFamilyId(entry.nc, 8)).rows
    swap = np.arange(16)
    swap[[3, 12]] = swap[[12, 3]]
    cases += [
        ("swapped", 8, domain, codomain, lambda rows: entry.map(rows)[:, swap], True),
        ("dropped", 8, domain, np.delete(codomain, 40, axis=0), entry.map, True),
    ]
    for case in cases:
        got, want = _both(*case)
        assert got == want, case[0]
        assert not got["verified"], case[0]


@pytest.mark.parametrize("tag", BIJECTIONS)
def test_each_row_map_equals_its_object_function(tag):
    entry = BIJECTIONS[tag]
    for n in UNGRADED_SIZES.get(tag, _graded_sizes(tag)):
        for key, rows in gluing_groups(entry.gluing, n).items():
            if key[0] != entry.first:
                continue
            members = gluing_members(entry.gluing, n, rows)
            assert _rows(*members).tolist() == rows.tolist()
            images = entry.map(rows).tolist()
            assert images == [list(OBJECT_MAPS[tag](pi).image) for pi in members], (tag, n, key)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_lemma3_row_map_equals_its_reduction(n):
    for (bipartite, _, reduction, _, _), row_map in zip(
        LEMMA3, (bijections._orientable_rows, bijections._nonorientable_rows)
    ):
        for rows in gluing_groups(bipartite, n).values():
            members = gluing_members(bipartite, n, rows)
            images = row_map(rows).tolist()
            assert images == [list(reduction(pi).image) for pi in members]


def _enumerated(capsys, *argv) -> dict:
    """The result of one ``annular enumerate`` request."""
    assert cli_main(["enumerate", *argv]) == 0
    return json.loads(capsys.readouterr().out)["result"]


#: One ``enumerate`` of a gluing family and one of a non-crossing union family.
ENUMERATE_REQUESTS = (
    ("--family", "b", "--n", "6", "--k", "1", "--limit", "7"),
    ("--family", "nc2-k", "--n", "4"),
)


def _enumerate_reference(argv) -> dict:
    """The listing of an ``enumerate`` request built from member objects, sorted by their keys."""
    args = dict(zip(argv[::2], argv[1::2]))
    if args["--family"] == "b":
        members = sorted(family_b(int(args["--n"]), int(args["--k"])), key=Permutation.sort_key)
    else:
        members = family_nc(NCFamilyId("NC2K", int(args["--n"]))).members
    return [pi.cycle_string() for pi in members[: int(args.get("--limit", len(members)))]]


def test_the_row_path_builds_no_members(monkeypatch, capsys):
    # with building gluing members and NCFamily.members refused, every driver
    # and every enumerate listing still reports what the object reference reports
    def refuse(*args):
        raise AssertionError("a member object was built")

    refusing = SimpleNamespace(_make=refuse)  # the classes the gluing side builds members of
    monkeypatch.setattr(annular.maps, "Pairing", refusing)
    monkeypatch.setattr(annular.maps, "Permutation", refusing)
    monkeypatch.setattr(NCFamily, "members", property(refuse))
    got = (
        verify("phi1", 4).to_payload(),
        [r.to_payload() for r in verify_grades("phi1-hat", 4)],
        [r.to_payload() for r in verify_lemma3(3)],
        [row.to_payload() for row in conjecture_table(3)],
        [_enumerated(capsys, *argv)["elements"] for argv in ENUMERATE_REQUESTS],
    )
    monkeypatch.undo()
    annular.maps._GROUPS.clear()
    annular.noncrossing._GROUPS.clear()
    want = (
        _reference("phi1", 4).to_payload(),
        [_reference("phi1-hat", 4, p).to_payload() for p in grades(4)],
        _lemma3_reference(3),
        [row.to_payload() for row in conjecture_table(3)],
        [_enumerate_reference(argv) for argv in ENUMERATE_REQUESTS],
    )
    assert got == want
