"""Golden digests: families, moments and CLI records stay byte-identical.

Each key of ``golden.json`` holds the SHA-256 of one value written as
canonical JSON (sorted keys, no spaces) of ints, strings, booleans and
nulls: every grade group of :func:`annular.maps.gluing_groups` and of
:func:`annular.noncrossing.nc_groups` (at the ``GROUPED_SIZES`` of
``tests/test_noncrossing.py`` and the ``NC_LARGE_SIZES`` below; members
in stream order as cycle strings, with their witnesses), every Wick and
genus-expansion moment polynomial up to the largest order each
ensemble's streams admit (``ORDER_REACH``), and a battery of CLI
requests read as (exit code, stdout without ``timing_ms``).  Stderr is
left out: usage messages are diagnostics, not part of the record
contract.

Regenerate the file only for an intended output change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from itertools import permutations as iter_permutations
from pathlib import Path

import pytest

from annular.bijections import BIJECTIONS
from annular.cli import FAMILY_TAGS, NC_TAGS, main
from annular.maps import GLUINGS, gluing_groups
from annular.moments import genus_expansion_moment, wick_moment
from annular.noncrossing import NONCROSSING, nc_groups
from annular.perms import Permutation, signed_ground, unsigned_ground

from test_noncrossing import GROUPED_SIZES

GOLDEN = Path(__file__).with_name("golden.json")

#: Largest n at which each gluing family's groups are recorded.
GLUING_SIZES = {"a": 10, "b": 8, "a-tilde": 6, "a-hat": 6, "b-tilde": 4, "b-hat": 4}

#: Sizes past ``GROUPED_SIZES`` at which non-crossing groups are recorded
#: too: the largest passes of the perfbench verify workload.
NC_LARGE_SIZES = {"NC2T": range(9, 11), "NC2delta": range(7, 9), "NC2K": range(7, 9)}

#: Per ensemble, the largest moment order recorded and the first order
#: its routes refuse.  GOE and LOE are recorded to their reach (a Gaussian
#: order between the two is odd, zero without any stream); the counted
#: GUE and LUE routes reach 20 and 12, and are recorded to the first
#: orders their row streams refuse.
ORDER_REACH = {"GUE": (18, 22), "GOE": (14, 16), "LUE": (10, 13), "LOE": (8, 9)}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv: str) -> list:
    """[exit code, record without timing_ms] (stdout text when not JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    if not text.startswith("{"):
        return [code, text]
    record = json.loads(text)
    del record["timing_ms"]
    return [code, record]


def _enumerate_requests(tag: str):
    if tag in GLUINGS:
        flags = GLUINGS[tag].grades
    else:
        flags = ("p",) if NONCROSSING[NC_TAGS[tag]].grade else ()
    values = {"genus": (-1, 0, 1), "k": (0, 1, 2), "p": (0, 1, 2)}
    for n in range(-1, 5):
        grade_sets = [()]
        for name in flags:
            grade_sets = [g + (f"--{name}", str(v)) for g in grade_sets for v in values[name]]
        for grade in grade_sets:
            yield ("enumerate", "--family", tag, "--n", str(n), *grade)
    first = {"genus": "0", "k": "1", "p": "1"}
    grade = [arg for name in flags for arg in (f"--{name}", first[name])]
    base = ("enumerate", "--family", tag, "--n", "4", *grade)
    yield (*base, "--format", "csv")
    yield (*base, "--limit", "1")
    yield (*base, "--max-elements", "3")
    yield (*base, "--max-elements", "-1")


def _verify_requests(tag: str):
    for n in range(-1, 5):
        yield ("verify", "--bijection", tag, "--n", str(n))
        if tag in BIJECTIONS and BIJECTIONS[tag].graded:
            for p in (0, 1, 2):
                yield ("verify", "--bijection", tag, "--n", str(n), "--p", str(p))
    yield ("verify", "--bijection", tag, "--n", "3", "--max-elements", "3")
    yield ("verify", "--bijection", tag, "--n", "3", "--max-elements", "-1")


def _moment_requests(kind: str):
    refused = ORDER_REACH[kind.upper()][1]
    for order in (-1, 0, 1, 2, 3, 4, refused):
        yield ("moment", "--ensemble", kind, "--order", str(order), "--symbolic")
    yield ("moment", "--ensemble", kind, "--order", "4", "--symbolic", "--max-elements", "3")
    yield ("moment", "--ensemble", kind, "--order", "4", "--symbolic", "--max-elements", "-1")


#: One Wick order per ensemble whose stream spans several blocks, and its
#: stream length: (n−1)!!, (n−1)!!·2^(n/2), n! and (2n−1)!! elements.
BUDGET_ORDERS = {"gue": (12, 10395), "goe": (8, 1680), "lue": (7, 5040), "loe": (5, 945)}


def _moment_budget_requests(kind: str):
    order, length = BUDGET_ORDERS[kind]
    for k in (length - 1, length):
        yield ("moment", "--ensemble", kind, "--order", str(order), "--symbolic",
               "--max-elements", str(k))


def _conjecture_requests():
    for max_n in range(-1, 4):
        yield ("conjecture", "--max-n", str(max_n))
        yield ("conjecture", "--max-n", str(max_n), "--format", "csv")
    yield ("conjecture", "--max-n", "2", "--max-elements", "3")
    yield ("conjecture", "--max-n", "2", "--max-elements", "-1")


def _classify_requests(n: int, signed: bool):
    ground = signed_ground(n) if signed else unsigned_ground(n)
    extra = ("--signed",) if signed else ()
    for img in iter_permutations(range(ground.size)):
        text = Permutation(ground, img).cycle_string()
        yield ("classify", "--perm", text, "--n", str(n), *extra)


def _battery(requests) -> list:
    return [[list(argv), *_cli(*argv)] for argv in requests]


def _values() -> dict[str, object]:
    """Key -> the value whose digest ``golden.json`` records, built lazily."""
    values: dict[str, object] = {}
    for tag, top in GLUING_SIZES.items():
        for n in range(1, top + 1):
            values[f"gluing_groups/{tag}/{n}"] = lambda tag=tag, n=n: [
                [list(key), [pi.cycle_string() for pi in members]]
                for key, members in sorted(gluing_groups(tag, n).items())
            ]
    for tag, sizes in GROUPED_SIZES.items():
        for n in (*sizes, *NC_LARGE_SIZES.get(tag, ())):
            values[f"nc_groups/{tag}/{n}"] = lambda tag=tag, n=n: [
                [
                    p,
                    [pi.cycle_string() for pi in family.members],
                    family.witness_table and [[list(w) for w in ws] for ws in family.witness_table],
                ]
                for p, family in nc_groups(tag, n).items()
            ]
    for kind, (top, _) in ORDER_REACH.items():
        for route, moment in (("wick", wick_moment), ("genus", genus_expansion_moment)):
            for order in range(1, top + 1):
                values[f"{route}_moment/{kind}/{order}"] = (
                    lambda moment=moment, kind=kind, order=order: moment(kind, order).to_json_dict()
                )
    for tag in FAMILY_TAGS:
        values[f"cli/enumerate/{tag}"] = lambda tag=tag: _battery(_enumerate_requests(tag))
    for tag in (*BIJECTIONS, "lemma3"):
        values[f"cli/verify/{tag}"] = lambda tag=tag: _battery(_verify_requests(tag))
    for kind in ("gue", "goe", "lue", "loe"):
        values[f"cli/moment/{kind}"] = lambda kind=kind: _battery(_moment_requests(kind))
    for kind in BUDGET_ORDERS:
        values[f"cli/moment-budget/{kind}"] = lambda kind=kind: _battery(
            _moment_budget_requests(kind)
        )
    values["cli/conjecture"] = lambda: _battery(_conjecture_requests())
    values["cli/classify/5"] = lambda: _battery(_classify_requests(5, False))
    values["cli/classify/signed-3"] = lambda: _battery(_classify_requests(3, True))
    return values


VALUES = _values()


def _recorded() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_keys_match_the_battery():
    assert list(_recorded()) == list(VALUES)


@pytest.mark.parametrize("key", VALUES)
def test_golden_digest(key):
    assert _digest(VALUES[key]()) == _recorded()[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(
        json.dumps({key: _digest(value()) for key, value in VALUES.items()}, indent=1) + "\n"
    )
    print(f"wrote {len(VALUES)} digests to {GOLDEN}")
