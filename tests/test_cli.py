"""Command-line surface: exit codes, payload schema, reproducibility."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import annular.maps
from annular.bijections import BIJECTIONS, conjecture_table
from annular.cli import (
    BIJECTION_TAGS,
    CLASSIFY_MAX_N,
    FAMILY_TAGS,
    SCHEMA_VERSION,
    build_parser,
    classify_permutation,
    main,
)
from annular.frames import tau0
from annular.maps import (
    GLUINGS,
    family_a,
    family_a_hat,
    family_a_tilde,
    family_b,
    family_b_hat,
    family_b_tilde,
)
from annular.montecarlo import GENERATOR_NAME, mc_moment
from annular.noncrossing import NONCROSSING, NCFamilyId, family_nc
from annular.perms import Permutation, conjugate, inverse, signed_ground
from annular.streams import permutations, signed_symmetric_permutations

RECORD_KEYS = {"schema_version", "command", "parameters", "result", "timing_ms"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    record = None
    if captured.out.startswith("{"):
        record = json.loads(captured.out)
    return code, record, captured.out, captured.err


# -- enumerate --------------------------------------------------------------

def test_enumerate_genus_one_gluing(capsys):
    code, rec, _, _ = run(
        capsys, "enumerate", "--family", "a", "--n", "4", "--genus", "1"
    )
    assert code == 0
    assert set(rec) == RECORD_KEYS
    assert rec["schema_version"] == SCHEMA_VERSION
    assert rec["command"] == "enumerate"
    assert rec["result"]["count"] == 1
    assert rec["result"]["elements"] == ["(1,3)(2,4)"]


def test_enumerate_annular_pairings_smallest(capsys):
    code, rec, _, _ = run(capsys, "enumerate", "--family", "nc2-delta", "--n", "2")
    assert code == 0
    assert rec["result"]["count"] == 1
    assert rec["result"]["elements"] == ["(-2,1)(-1,2)"]


def test_enumerate_impossible_genus_is_empty(capsys):
    code, rec, _, _ = run(
        capsys, "enumerate", "--family", "a", "--n", "4", "--genus", "9"
    )
    assert code == 0
    assert rec["result"]["count"] == 0
    assert rec["result"]["elements"] == []


def test_enumerate_limit_keeps_exact_count(capsys):
    code, rec, _, _ = run(
        capsys, "enumerate", "--family", "nc2", "--n", "8", "--limit", "3"
    )
    assert code == 0
    assert rec["result"]["count"] == 14
    assert rec["result"]["listed"] == 3
    assert len(rec["result"]["elements"]) == 3
    assert rec["result"]["truncated_listing"] is True


def test_enumerate_union_family_lists_witnesses(capsys):
    code, rec, _, _ = run(capsys, "enumerate", "--family", "nc2-t", "--n", "6")
    assert code == 0
    result = rec["result"]
    assert result["count"] == 10
    assert len(result["witnesses"]) == len(result["elements"])
    assert all(len(ws) >= 1 for ws in result["witnesses"])
    assert all(len(w) == 2 for ws in result["witnesses"] for w in ws)


def test_enumerate_graded_family(capsys):
    code, rec, _, _ = run(
        capsys, "enumerate", "--family", "b-tilde", "--n", "3", "--k", "1", "--p", "2"
    )
    assert code == 0
    assert rec["result"]["count"] == 3


def test_enumerate_csv_is_count_only(capsys):
    code, rec, out, _ = run(
        capsys,
        "enumerate", "--family", "b", "--n", "4", "--k", "1", "--format", "csv",
    )
    assert code == 0
    assert rec is None
    lines = out.splitlines()
    assert lines[0] == "family,n,genus,k,p,count"
    assert lines[1] == "b,4,,1,,5"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "a", "--n", "4"),  # missing --genus
        ("enumerate", "--family", "a", "--n", "4", "--k", "1"),
        ("enumerate", "--family", "b", "--n", "4", "--k", "1", "--p", "1"),
        ("enumerate", "--family", "nc2-delta", "--n", "2", "--p", "1"),
        ("enumerate", "--family", "nc-t-p", "--n", "4"),  # missing --p
        ("enumerate", "--family", "a", "--n", "0", "--genus", "0"),
        ("enumerate", "--family", "nc2-delta-bip", "--n", "3", "--p", "1"),  # odd n
        ("enumerate", "--family", "a", "--n", "4", "--genus", "0", "--limit", "-1"),
        ("enumerate", "--family", "a-tilde", "--n", "2", "--genus", "0", "--p", "0"),
        ("enumerate", "--family", "b-hat", "--n", "2", "--k", "1", "--p", "-1"),
        ("enumerate", "--family", "a", "--n", "4", "--genus", "0", "--max-elements", "-1"),
        ("enumerate", "--family", "a", "--n", "4", "--genus", "-1"),
        ("enumerate", "--family", "b", "--n", "0", "--k", "1"),
        ("enumerate", "--family", "b", "--n", "-1", "--k", "1"),
        ("enumerate", "--family", "b-tilde", "--n", "0", "--k", "1", "--p", "1"),
        ("enumerate", "--family", "b-tilde", "--n", "-1", "--k", "1", "--p", "1"),
        ("enumerate", "--family", "nc2", "--n", "0"),
        ("enumerate", "--family", "nc2", "--n", "-1"),
    ],
)
def test_enumerate_usage_errors(capsys, argv):
    code, rec, out, err = run(capsys, *argv)
    assert code == 2
    assert rec is None


def test_enumerate_unknown_family_rejected_by_parser(capsys):
    code, _, _, _ = run(capsys, "enumerate", "--family", "zz", "--n", "4")
    assert code == 2


def test_enumerate_cap_exit_and_payload(capsys):
    code, rec, _, _ = run(
        capsys,
        "enumerate", "--family", "a", "--n", "8", "--genus", "0",
        "--max-elements", "10",
    )
    assert code == 1
    error = rec["result"]["error"]
    assert error["type"] == "cap-exceeded"
    assert error["cap"] == 10


# -- verify -----------------------------------------------------------------

def test_verify_torus_equality(capsys):
    code, rec, _, _ = run(capsys, "verify", "--bijection", "torus-eq", "--n", "6")
    assert code == 0
    report = rec["result"]["reports"][0]
    assert rec["result"]["all_verified"] is True
    assert (report["domain_size"], report["codomain_size"]) == (10, 10)
    assert report["verified"] is True


def test_verify_gluing_to_annular(capsys):
    code, rec, _, _ = run(capsys, "verify", "--bijection", "phi1", "--n", "4")
    assert code == 0
    report = rec["result"]["reports"][0]
    assert (report["domain_size"], report["codomain_size"]) == (5, 5)


def test_verify_odd_n_is_usage_error(capsys):
    code, rec, out, err = run(capsys, "verify", "--bijection", "phi1", "--n", "3")
    assert code == 2
    assert rec is None
    assert "even" in err


def test_verify_graded_defaults_to_all_grades(capsys):
    code, rec, _, _ = run(capsys, "verify", "--bijection", "a-hat-eq", "--n", "3")
    assert code == 0
    names = [r["name"] for r in rec["result"]["reports"]]
    assert names == ["a-hat-eq(p=1)", "a-hat-eq(p=2)", "a-hat-eq(p=3)"]


def test_verify_single_grade(capsys):
    code, rec, _, _ = run(
        capsys, "verify", "--bijection", "phi1-hat", "--n", "4", "--p", "2"
    )
    assert code == 0
    report = rec["result"]["reports"][0]
    assert (report["domain_size"], report["codomain_size"]) == (17, 17)


def test_verify_lemma3(capsys):
    code, rec, _, _ = run(capsys, "verify", "--bijection", "lemma3", "--n", "3")
    assert code == 0
    assert rec["result"]["all_verified"] is True
    assert len(rec["result"]["reports"]) == 7


#: The source streams the gluing side binds: block streams.
SOURCE_STREAMS = (
    "_pairings_of_blocks",
    "_permutations_of_blocks",
    "_signed_symmetric_pairings_blocks",
    "_signed_symmetric_permutations_blocks",
    "_bipartite_pairing_blocks",
    "_bipartite_signed_symmetric_pairing_blocks",
)


@pytest.fixture
def stream_calls(monkeypatch):
    """Source calls by side: the gluing side's streams, the non-crossing entries' sources.

    A non-crossing source either calls one stream or builds its family's
    rows, so its calls count the passes of either kind.
    """
    calls = {"maps": 0, "noncrossing": 0}

    def counting(source, side):
        def counted(*args, **kwargs):
            calls[side] += 1
            return source(*args, **kwargs)

        return counted

    for name in SOURCE_STREAMS:
        monkeypatch.setattr(annular.maps, name, counting(getattr(annular.maps, name), "maps"))
    for tag, entry in NONCROSSING.items():
        counted = replace(entry, source=counting(entry.source, "noncrossing"))
        monkeypatch.setitem(NONCROSSING, tag, counted)
    return calls


@pytest.mark.parametrize("tag", [tag for tag, e in BIJECTIONS.items() if e.graded])
def test_graded_verify_runs_each_side_once(capsys, stream_calls, tag):
    # one grouped pass per side serves every grade (three passes each at n = 3 before)
    code, rec, _, _ = run(capsys, "verify", "--bijection", tag, "--n", "3")
    assert code == 0 and len(rec["result"]["reports"]) == 3
    assert stream_calls == {"maps": 1, "noncrossing": 1}


def test_conjecture_table_runs_the_annular_source_once_per_n(stream_calls):
    conjecture_table(3)
    # not one per (n, p); the fourth call of each side is the cap check at
    # max_n, which reads no row
    assert stream_calls == {"maps": 4, "noncrossing": 4}


def test_parser_is_built_once_and_reused_across_calls(capsys):
    assert build_parser() is build_parser()
    calls = [
        ("moment", "--ensemble", "gue", "--order", "4", "--symbolic"),
        ("enumerate", "--family", "bogus", "--n", "2"),  # usage error, exit 2
        ("enumerate", "--family", "nc2-t-bip", "--n", "4", "--p", "1"),
        ("verify", "--bijection", "phi1-tilde", "--n", "18"),  # cap, exit 1
        ("moment", "--ensemble", "gue", "--order", "4", "--symbolic"),
    ]

    def outcomes():
        out = []
        for argv in calls:
            code, rec, _, err = run(capsys, *argv)
            if rec is not None:
                rec.pop("timing_ms")
            out.append((code, rec, err))
        return out

    first = outcomes()
    assert [code for code, _, _ in first] == [0, 2, 0, 1, 0]
    assert first[0] == first[-1]
    assert outcomes() == first


def test_enumerate_choices_follow_the_family_tables():
    enum_parser = build_parser()._subparsers._group_actions[0].choices["enumerate"]
    (choices,) = [a.choices for a in enum_parser._actions if a.dest == "family"]
    assert tuple(choices) == (*GLUINGS, *(e.cli for e in NONCROSSING.values()))


def test_verify_choices_and_report_names_follow_the_registry(capsys):
    verify_parser = build_parser()._subparsers._group_actions[0].choices["verify"]
    (choices,) = [a.choices for a in verify_parser._actions if a.dest == "bijection"]
    assert tuple(choices) == (*BIJECTIONS, "lemma3")
    for tag, entry in BIJECTIONS.items():
        code, rec, _, _ = run(capsys, "verify", "--bijection", tag, "--n", "2")
        assert code == 0
        names = [r["name"] for r in rec["result"]["reports"]]
        assert names == ([f"{tag}(p=1)", f"{tag}(p=2)"] if entry.graded else [tag])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--bijection", "phi1", "--n", "4", "--p", "1"),
        ("verify", "--bijection", "lemma3", "--n", "3", "--p", "1"),
        ("verify", "--bijection", "phi1-hat", "--n", "3", "--p", "7"),
        ("verify", "--bijection", "phi1", "--n", "0"),
        ("verify", "--bijection", "torus-eq", "--n", "4", "--max-elements", "-1"),
    ],
)
def test_verify_usage_errors(capsys, argv):
    code, rec, _, _ = run(capsys, *argv)
    assert code == 2
    assert rec is None


# -- moment -----------------------------------------------------------------

def test_moment_symbolic_quartic(capsys):
    code, rec, _, _ = run(
        capsys, "moment", "--ensemble", "gue", "--order", "4", "--symbolic"
    )
    assert code == 0
    result = rec["result"]
    assert result["mode"] == "symbolic"
    assert result["text"] == "1/2*N^3 + 1/4*N"
    assert result["polynomial"]["terms"] == [
        {"N": 3, "c": 0, "num": "1", "den": "2"},
        {"N": 1, "c": 0, "num": "1", "den": "4"},
    ]


def test_moment_symbolic_covariance_order(capsys):
    code, rec, _, _ = run(
        capsys, "moment", "--ensemble", "lue", "--order", "2", "--symbolic"
    )
    assert code == 0
    assert rec["result"]["polynomial"]["terms"] == [
        {"N": 3, "c": 2, "num": "1", "den": "1"},
        {"N": 3, "c": 1, "num": "1", "den": "1"},
    ]


def test_moment_symbolic_odd_is_zero(capsys):
    code, rec, _, _ = run(
        capsys, "moment", "--ensemble", "goe", "--order", "3", "--symbolic"
    )
    assert code == 0
    assert rec["result"]["polynomial"]["terms"] == []
    assert rec["result"]["text"] == "0"


def test_moment_numeric_exact(capsys):
    code, rec, _, _ = run(
        capsys, "moment", "--ensemble", "goe", "--order", "2", "--dim", "3"
    )
    assert code == 0
    result = rec["result"]
    assert result["mode"] == "numeric"
    assert result["value"] == {"num": "3", "den": "1"}  # (9 + 3) / 4
    assert result["value_float"] == 3.0


def test_moment_numeric_laguerre(capsys):
    code, rec, _, _ = run(
        capsys,
        "moment", "--ensemble", "loe", "--order", "2", "--dim", "10",
        "--rect-dim", "20",
    )
    assert code == 0
    assert rec["result"]["value"] == {"num": "1550", "den": "1"}


def test_moment_mc_payload_and_reproducibility(capsys):
    argv = (
        "moment", "--ensemble", "loe", "--order", "2", "--dim", "4",
        "--rect-dim", "8", "--mc", "--samples", "2000", "--seed", "7",
    )
    code, first, _, _ = run(capsys, *argv)
    assert code == 0
    mc = first["result"]["mc"]
    assert mc["samples"] == 2000
    assert mc["seed"] == 7
    assert mc["generator"] == GENERATOR_NAME
    assert mc["mean"] == mc_moment("LOE", 2, 4, 8, samples=2000, seed=7).mean
    assert math.isfinite(mc["z_score"])
    code, second, _, _ = run(capsys, *argv)
    assert code == 0
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_moment_order_above_cap_exits_1(capsys):
    # 22 is the first GUE order whose counting pass over the pairings of
    # [22] runs more prefixes than the cap 20 admits
    code, rec, _, _ = run(
        capsys, "moment", "--ensemble", "gue", "--order", "22", "--symbolic"
    )
    assert code == 1
    assert rec["result"]["error"]["type"] == "cap-exceeded"
    assert (rec["result"]["error"]["requested"], rec["result"]["error"]["cap"]) == (22, 20)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--family", "a", "--n", "1000000000", "--genus", "0"),
        ("enumerate", "--family", "nc-k-p", "--n", "1000000000", "--p", "1"),
        ("moment", "--ensemble", "gue", "--order", "1000000000", "--symbolic"),
        ("moment", "--ensemble", "loe", "--order", "1000000000", "--symbolic"),
        ("moment", "--ensemble", "gue", "--order", "2", "--dim", "1000000000", "--mc"),
    ],
)
def test_huge_sizes_exit_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, rec, _, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert rec["result"]["error"]["requested"] >= 10**9


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--ensemble", "gue", "--order", "4"),  # no mode
        ("moment", "--ensemble", "gue", "--order", "4", "--symbolic", "--dim", "3"),
        ("moment", "--ensemble", "lue", "--order", "2", "--dim", "4"),  # missing M
        ("moment", "--ensemble", "gue", "--order", "2", "--dim", "4", "--rect-dim", "8"),
        ("moment", "--ensemble", "gue", "--order", "2", "--symbolic", "--mc"),
        ("moment", "--ensemble", "gue", "--order", "0", "--symbolic"),
        ("moment", "--ensemble", "gue", "--order", "2", "--dim", "0"),
        (
            "moment", "--ensemble", "gue", "--order", "2", "--dim", "3",
            "--mc", "--samples", "50", "--seed", "1",
        ),
        ("moment", "--ensemble", "gue", "--order", "4", "--symbolic", "--max-elements", "-1"),
        ("moment", "--ensemble", "lue", "--order", "2", "--dim", "3", "--rect-dim", "0"),
        ("moment", "--ensemble", "loe", "--order", "2", "--dim", "3"),  # missing M
    ],
)
def test_moment_usage_errors(capsys, argv):
    code, rec, _, _ = run(capsys, *argv)
    assert code == 2
    assert rec is None


# -- classify ---------------------------------------------------------------

def test_classify_signed_annular_pairing(capsys):
    code, rec, _, _ = run(
        capsys,
        "classify", "--perm", "(1,-4)(4,-1)(2,3)(-2,-3)", "--n", "4", "--signed",
    )
    assert code == 0
    result = rec["result"]
    assert result["is_pairing"] is True
    assert result["delta_symmetric"] is True
    families = {m["family"] for m in result["memberships"]}
    assert "NC2delta" in families
    assert "b" in families
    b_entry = next(m for m in result["memberships"] if m["family"] == "b")
    assert b_entry["k"] == 1


def test_classify_torus_pairing_with_witness(capsys):
    code, rec, _, _ = run(capsys, "classify", "--perm", "(1,3)(2,4)", "--n", "4")
    assert code == 0
    members = rec["result"]["memberships"]
    a_entry = next(m for m in members if m["family"] == "a")
    assert a_entry["genus"] == 1
    t_entry = next(m for m in members if m["family"] == "NC2T")
    assert t_entry["witnesses"] == [[1, 3]]


def test_classify_torus_witness_matches_drawn_edge(capsys):
    code, rec, _, _ = run(capsys, "classify", "--perm", "(1,6)(2,4)(3,5)", "--n", "6")
    assert code == 0
    t_entry = next(
        m for m in rec["result"]["memberships"] if m["family"] == "NC2T"
    )
    assert [2, 4] in t_entry["witnesses"]


def test_classify_planar_pairing(capsys):
    code, rec, _, _ = run(capsys, "classify", "--perm", "(1,2)(3,4)", "--n", "4")
    assert code == 0
    families = {m["family"] for m in rec["result"]["memberships"]}
    assert {"a", "NC", "NC2"} <= families
    a_entry = next(m for m in rec["result"]["memberships"] if m["family"] == "a")
    assert a_entry["genus"] == 0


def test_classify_enumerates_nothing(capsys):
    # Membership is tested directly, so sizes past every stream cap work.
    code, rec, _, _ = run(
        capsys, "classify", "--perm", "(1,3)(2,4)(5,6)(7,8)(9,10)", "--n", "10"
    )
    assert code == 0
    assert rec["parameters"] == {
        "perm": "(1,3)(2,4)(5,6)(7,8)(9,10)", "n": 10, "signed": False,
    }
    t_entry = next(m for m in rec["result"]["memberships"] if m["family"] == "NC2T")
    assert t_entry["witnesses"] == [[1, 3]]
    code, rec, _, _ = run(
        capsys, "classify", "--perm", "(1,-5)(-1,5)", "--n", "5", "--signed"
    )
    assert code == 0
    assert rec["result"]["delta_symmetric"] is True
    # an odd signed ground has no bipartite gluing to grade, and half of
    # one cycle is grade 0: no family is tested at a grade below 1
    code, rec, _, _ = run(capsys, "classify", "--perm", "(1,-1)", "--n", "1", "--signed")
    assert code == 0
    assert rec["result"]["memberships"] == []
    # an odd n skips the even-n bipartite family instead of failing on it
    code, rec, _, _ = run(capsys, "classify", "--n", "3", "--perm", "(1,2,3)")
    assert code == 0
    assert [m["family"] for m in rec["result"]["memberships"]] == ["a-hat", "NC"]


def _nc_entries(pi, fids, families):
    """Classify-style entries for every family of ``fids`` holding pi."""
    out = []
    for fid in fids:
        if fid not in families:
            families[fid] = family_nc(fid)
        fam = families[fid]
        if pi in fam:
            entry = {"family": fid.tag, "n": fid.n}
            if fid.p is not None:
                entry["p"] = fid.p
            if fam.witness_table is not None:
                entry["witnesses"] = [list(w) for w in fam.witnesses_for(pi)]
            out.append(entry)
    return out


# classify skips these two (cli._UNREPORTED), although they have members.
KNOWN_CLASSIFY_DEFECT_TAGS = {"NC2delta_bip", "NC2K_bip"}


def _split_entries(memberships):
    """(gluing entries, NC entries) of a classify report, known defects dropped."""
    nc = [
        m for m in memberships
        if m["family"].startswith("NC") and m["family"] not in KNOWN_CLASSIFY_DEFECT_TAGS
    ]
    return [m for m in memberships if not m["family"].startswith("NC")], nc


def _classify_entries(pi, n, signed):
    report = classify_permutation(pi.cycle_string(), n, signed=signed)
    return _split_entries(report["memberships"])


def _gluing_entries_by_member(n, signed):
    """Member -> classify-style entries, from the built gluing families on
    ±[n] (b, b̃, b̂) or [n] (a, ã, â), in that order."""
    half = n // 2
    even = n % 2 == 0
    if signed:
        builders = [
            ("b", family_b, n, ("k",), [(k,) for k in range(1, n + 2)]),
            ("b-tilde", family_b_tilde, half, ("k", "p"),
             [(k, p) for k in range(1, n + 1) for p in range(1, half + 1)] if even else []),
            ("b-hat", family_b_hat, n, ("k", "p"),
             [(k, p) for k in range(1, n + 1) for p in range(1, n + 1)]),
        ]
    else:
        builders = [
            ("a", family_a, n, ("genus",), [(g,) for g in range(0, half + 1)]),
            ("a-tilde", family_a_tilde, half, ("genus", "p"),
             [(g, p) for g in range(0, half + 1) for p in range(1, half + 1)] if even else []),
            ("a-hat", family_a_hat, n, ("genus", "p"),
             [(g, p) for g in range(0, half + 1) for p in range(1, n + 1)]),
        ]
    by_member = {}
    for tag, builder, size, names, grade_tuples in builders:
        for grades in grade_tuples:
            entry = {"family": tag, "n": size, **dict(zip(names, grades))}
            for member in builder(size, *grades):
                by_member.setdefault(member, []).append(entry)
    return by_member


def test_classify_agrees_with_family_membership(capsys):
    families = {}
    for n in range(1, 7):
        fids = [NCFamilyId("NC", n), NCFamilyId("NC2", n), NCFamilyId("NC2T", n)]
        if n % 2 == 0:
            fids += [NCFamilyId("NC2T_bip", n, p) for p in range(1, n // 2 + 1)]
        fids += [NCFamilyId("NCT_p", n, p) for p in range(1, n + 1)]
        gluings = _gluing_entries_by_member(n, signed=False)
        for pi in permutations(n):
            got_gluings, got_nc = _classify_entries(pi, n, False)
            assert got_gluings == gluings.get(pi, [])
            assert got_nc == _nc_entries(pi, fids, families)
    # every delta-symmetric permutation of ±[n], n <= 4, which includes
    # every signed symmetric pairing of ±[4]
    signed_fids = {}
    for n in range(1, 5):
        fids = [NCFamilyId("NCdelta", n), NCFamilyId("NC2delta", n)]
        fids += [NCFamilyId("NCdelta_p", n, p) for p in range(1, n + 1)]
        fids.append(NCFamilyId("NC2K", n))
        fids += [NCFamilyId("NCK_p", n, p) for p in range(1, n + 1)]
        signed_fids[n] = fids
        gluings = _gluing_entries_by_member(n, signed=True)
        for pi in signed_symmetric_permutations(n):
            got_gluings, got_nc = _classify_entries(pi, n, True)
            assert got_gluings == gluings.get(pi, [])
            want = _nc_entries(pi, fids, families)
            assert sorted(map(str, got_nc)) == sorted(map(str, want))
    # mirror-symmetric permutations of ±[n] that are not delta-symmetric
    # (a label sent to its negative) belong to no family, and exit 0
    mirror_only = 0
    for n in range(1, 4):
        ground = signed_ground(n)
        delta = set(signed_symmetric_permutations(n))
        for pi in permutations(2 * n):
            pi = Permutation(ground, pi.image)
            if pi in delta or conjugate(pi, tau0(n)) != inverse(pi):
                continue
            mirror_only += 1
            code, rec, _, _ = run(
                capsys, "classify", "--perm", pi.cycle_string(), "--n", str(n), "--signed"
            )
            assert code == 0
            got_gluings, got_nc = _split_entries(rec["result"]["memberships"])
            assert got_gluings == []
            assert got_nc == _nc_entries(pi, signed_fids[n], families) == []
    assert mirror_only == 69


def test_classify_rejects_removed_options(capsys):
    argv = ("classify", "--perm", "(1,2)", "--n", "2")
    assert run(capsys, *argv, "--max-elements", "5")[0] == 2
    assert run(capsys, *argv, "--threads", "1")[0] == 2
    assert run(capsys, "moment", "--ensemble", "gue", "--order", "2",
               "--symbolic", "--threads", "1")[0] == 2


@pytest.mark.parametrize("signed", [(), ("--signed",)])
def test_classify_caps_n_before_it_parses(capsys, signed):
    # above the cap the request exits 1 with the cap record, even when the
    # text would not parse; at the cap it runs
    for perm in ("(1,2)", "(1,2"):
        code, rec, _, _ = run(capsys, "classify", "--perm", perm, "--n", str(CLASSIFY_MAX_N + 1), *signed)
        assert code == 1
        assert rec["result"]["error"] == {
            "type": "cap-exceeded",
            "message": f"classify requested for n = {CLASSIFY_MAX_N + 1}, above the cap {CLASSIFY_MAX_N}",
            "requested": CLASSIFY_MAX_N + 1,
            "cap": CLASSIFY_MAX_N,
        }
    code, rec, _, _ = run(capsys, "classify", "--perm", "(1,2)", "--n", str(CLASSIFY_MAX_N), *signed)
    assert code == 0
    assert rec["result"]["n"] == CLASSIFY_MAX_N


def test_classify_reads_a_numpy_integer_n_as_an_int():
    # the report is JSON, so n enters it as an int whatever integer type it came as
    report = classify_permutation("(1,2)", np.int64(2))
    assert json.loads(json.dumps(report)) == report == classify_permutation("(1,2)", 2)
    assert type(report["n"]) is int
    with pytest.raises(ValueError, match="n must be an integer"):
        classify_permutation("(1,2)", 2.0)


@pytest.mark.xfail(strict=True, reason="classify does not report NC2delta_bip")
def test_classify_reports_bipartite_annular_membership(capsys):
    perm = "(-1,3)(1,-3)(-2,4)(2,-4)"
    pi = family_nc(NCFamilyId("NC2delta_bip", 4, 1)).members[0]
    assert pi.cycle_string() == "(-4,2)(-3,1)(-2,4)(-1,3)"
    code, rec, _, _ = run(capsys, "classify", "--perm", perm, "--n", "4", "--signed")
    assert code == 0
    families = {m["family"] for m in rec["result"]["memberships"]}
    assert "NC2delta_bip" in families


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--perm", "(1,2", "--n", "4"),
        ("classify", "--perm", "(1,5)", "--n", "4"),
        ("classify", "--perm", "(1,-1)", "--n", "4"),  # unsigned domain
        ("classify", "--perm", "(1,2)", "--n", "0"),
    ],
)
def test_classify_usage_errors(capsys, argv):
    code, rec, _, _ = run(capsys, *argv)
    assert code == 2
    assert rec is None


# -- conjecture table -------------------------------------------------------

def test_conjecture_table_json(capsys):
    code, rec, _, _ = run(capsys, "conjecture", "--max-n", "3")
    assert code == 0
    rows = rec["result"]["rows"]
    assert [(r["n"], r["p"]) for r in rows] == [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
    ]
    assert rec["result"]["all_equal"] is True


def test_conjecture_above_the_caps_exits_1_at_once(capsys):
    # both sides' caps are checked at max_n before n = 1 is computed
    start = time.perf_counter()
    code, rec, _, _ = run(capsys, "conjecture", "--max-n", "1000000000")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert rec["result"]["error"]["type"] == "cap-exceeded"
    assert rec["result"]["error"]["requested"] == 4 * 10**9


def test_conjecture_table_csv(capsys):
    code, rec, out, _ = run(capsys, "conjecture", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert rec is None
    lines = out.splitlines()
    assert lines[0] == "n,p,twisted_count,annular_count,equal"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("conjecture", "--max-n", "0"),
        ("conjecture", "--max-n", "2", "--max-elements", "-1"),
    ],
)
def test_conjecture_usage_errors(capsys, argv):
    code, rec, _, _ = run(capsys, *argv)
    assert code == 2
    assert rec is None


# -- wiring -----------------------------------------------------------------

def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "annular.cli",
         "moment", "--ensemble", "gue", "--order", "2", "--symbolic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["result"]["text"] == "1/2*N^2"


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0


# -- fuzz -------------------------------------------------------------------

#: Values no numeric flag accepts, or that a handler refuses as a usage error.
JUNK = ("", "x", "1.5", "--", "(1,2", "-")
HUGE = "1000000000"


def _values(*good):
    """Mostly good values, now and then junk."""
    return st.sampled_from(tuple(map(str, good)) * 4 + JUNK)


#: Subcommand -> flag -> its value strategy (None: a flag without a value).
#: Sizes stay below 6 and moment orders below 7, so every request is
#: cheap; 10⁹ is drawn only where the caps refuse it at once (``classify
#: --n`` among them) or where it costs nothing (``--dim`` with ``--mc``
#: draws matrices of that size, so it does not draw it).
FUZZ_FLAGS = {
    "enumerate": {
        "--family": _values(*FAMILY_TAGS, "zz"),
        "--n": _values(*range(-1, 6), HUGE),
        "--genus": _values(-1, 0, 1, 2, HUGE),
        "--k": _values(0, 1, 2, HUGE),
        "--p": _values(0, 1, 2, 3, HUGE),
        "--limit": _values(-1, 0, 1, HUGE),
        "--format": _values("json", "csv"),
        "--max-elements": _values(-1, 0, 3, HUGE),
    },
    "verify": {
        "--bijection": _values(*BIJECTION_TAGS, "zz"),
        "--n": _values(*range(-1, 6), HUGE),
        "--p": _values(0, 1, 2, 3, HUGE),
        "--max-elements": _values(-1, 0, 3, HUGE),
    },
    "moment": {
        "--ensemble": _values("gue", "goe", "lue", "loe", "wishart"),
        "--order": _values(*range(-1, 7), HUGE),
        "--symbolic": None,
        "--dim": _values(-1, 0, 1, 2, 3),
        "--rect-dim": _values(-1, 0, 1, 2, 4),
        "--mc": None,
        "--samples": _values(-1, 0, 1, 50),
        "--seed": _values(-1, 0, 7, HUGE, 2**64),
        "--max-elements": _values(-1, 0, 3, HUGE),
    },
    "classify": {
        "--perm": _values("(1,2)", "(1,2)(3,4)", "(-1,1)", "(-1,2)(1,-2)", "()", "(1,1)", "(9,9)"),
        "--n": _values(-1, 0, 1, 2, 3, 4, CLASSIFY_MAX_N + 1, HUGE),
        "--signed": None,
    },
    "conjecture": {
        "--max-n": _values(-1, 0, 1, 2, 3),
        "--format": _values("json", "csv"),
        "--max-elements": _values(-1, 0, 3, HUGE),
    },
}


#: The flags each subcommand requires, drawn first unless the draw drops them.
REQUIRED = {
    "enumerate": ("--family", "--n"),
    "verify": ("--bijection", "--n"),
    "moment": ("--ensemble", "--order"),
    "classify": ("--perm", "--n"),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from((*FUZZ_FLAGS, "bogus")))
    flags = FUZZ_FLAGS.get(command, {"--n": _values(1)})
    required = REQUIRED.get(command, ()) if draw(st.integers(0, 9)) else ()
    others = st.lists(st.sampled_from(tuple(flags)), max_size=4, unique=True)
    argv = [command]
    for flag in dict.fromkeys((*required, *draw(others))):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cli_argv())
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:  # a cap or budget: the record names it
        assert json.loads(out.getvalue())["result"]["error"]["type"] == "cap-exceeded"
