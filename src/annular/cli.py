"""Command-line surface for the library.

Four core subcommands plus one evidence table:

* ``enumerate`` — list a gluing or non-crossing family with its count;
* ``verify``    — exhaustively check one of the named bijections or set
  equalities and report the outcome (a graded one at ``--p``, or at
  every grade from one grouped pass per side:
  :func:`annular.bijections.verify_grades`);
* ``moment``    — a matrix-ensemble moment, symbolically or evaluated,
  optionally with a Monte Carlo cross-check;
* ``classify``  — every family membership of a single permutation;
* ``conjecture`` — the surmised twisted-vs-annular count table
  (evidence only, never a pass/fail).

Each invocation writes exactly one JSON document to stdout (CSV instead
where ``--format csv`` is supported: counts and tables only, since cycle
notation contains commas).  Diagnostics go to stderr.  Exit codes:
0 success/verified, 1 enumeration cap exceeded, 2 usage error,
3 verification failure (the report is still emitted).  A usage error is
any ``ValueError``: each input rule is checked once, where the value
enters the library, and its message is the library's own; the handlers
here check only combinations of flags.

Apart from the measured ``timing_ms`` field, output is a deterministic
byte-for-byte function of the arguments (and seed).  ``--max-elements``
bounds the enumeration streams of every subcommand except ``classify``,
which tests its one permutation directly and enumerates nothing.  The
families of ``enumerate`` and ``classify`` are the entries of the tables
:data:`annular.maps.GLUINGS` and :data:`annular.noncrossing.NONCROSSING`
(which holds the non-crossing CLI tags and grade kernels), so a
``classify`` membership is exactly membership in the family that
``enumerate`` builds, at the grade the family's own kernel reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache

import numpy as np

from .bijections import BIJECTIONS, conjecture_table, grades, verify, verify_grades, verify_lemma3
from .ensembles import Ensemble
from .frames import tau0
from .maps import GLUINGS, _grade_rows, gluing_key
from .moments import wick_moment
from .montecarlo import GENERATOR_NAME, mc_moment
from .noncrossing import (
    NONCROSSING,
    NCFamilyId,
    _membership,
    family_nc,
    is_delta_symmetric,
)
from .perms import (
    Permutation,
    _check_integer,
    _cycle_text,
    conjugate,
    inverse,
    num_cycles,
    parse_cycles,
    signed_ground,
    unsigned_ground,
)
from .streams import CapExceeded, EnumerationBudget

__all__ = ["main", "classify_permutation", "SCHEMA_VERSION"]

SCHEMA_VERSION = "2.0"

EXIT_OK = 0
EXIT_CAP = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

#: Largest n that ``classify`` reads: ±[1024] classifies in about 6 ms, and
#: the time and memory grow with n whatever the permutation moves.
CLASSIFY_MAX_N = 1024

#: CLI family tag -> library tag for the non-crossing families.
NC_TAGS = {entry.cli: tag for tag, entry in NONCROSSING.items()}

FAMILY_TAGS = (*GLUINGS, *NC_TAGS)

BIJECTION_TAGS = (*BIJECTIONS, "lemma3")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-elements",
        type=int,
        default=None,
        metavar="K",
        help="cap every enumeration stream at K elements; exceeding it exits 1 "
        "(without the flag no budget applies)",
    )


@cache  # argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annular",
        description="Enumerate gluing and annular non-crossing families, "
        "verify their bijections, and compute matrix-ensemble moments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="list one family in cycle notation, with its count"
    )
    p_enum.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p_enum.add_argument("--n", required=True, type=int)
    p_enum.add_argument("--genus", type=int, default=None, help="orientable genus g")
    p_enum.add_argument("--k", type=int, default=None, help="Euler genus k")
    p_enum.add_argument("--p", type=int, default=None, help="grade (part count)")
    p_enum.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="L",
        help="list at most L elements (the count is always exact)",
    )
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_enum)
    p_enum.set_defaults(handler=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", help="exhaustively check one bijection / set equality"
    )
    p_verify.add_argument("--bijection", required=True, choices=BIJECTION_TAGS)
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument(
        "--p", type=int, default=None, help="one grade (default: all grades, one pass per side)"
    )
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_moment = sub.add_parser(
        "moment", help="an ensemble moment: symbolic, exact numeric, or Monte Carlo"
    )
    p_moment.add_argument(
        "--ensemble", required=True, choices=("gue", "goe", "lue", "loe")
    )
    p_moment.add_argument("--order", required=True, type=int)
    p_moment.add_argument(
        "--symbolic", action="store_true", help="emit the moment polynomial"
    )
    p_moment.add_argument("--dim", type=int, default=None, metavar="N")
    p_moment.add_argument(
        "--rect-dim",
        type=int,
        default=None,
        metavar="M",
        help="second Ginibre dimension (Laguerre ensembles only)",
    )
    p_moment.add_argument(
        "--mc", action="store_true", help="add a Monte Carlo estimate and z-score"
    )
    p_moment.add_argument("--samples", type=int, default=100_000)
    p_moment.add_argument("--seed", type=int, default=0)
    _add_common(p_moment)
    p_moment.set_defaults(handler=cmd_moment)

    p_classify = sub.add_parser(
        "classify", help="report every family membership of one permutation"
    )
    p_classify.add_argument(
        "--perm", required=True, help='cycle notation, e.g. "(1,3)(2,4)"'
    )
    p_classify.add_argument("--n", required=True, type=int)
    p_classify.add_argument(
        "--signed",
        action="store_true",
        help="read the permutation on the signed set {-n..-1, 1..n}",
    )
    p_classify.set_defaults(handler=cmd_classify)

    p_conj = sub.add_parser(
        "conjecture",
        help="tabulate the surmised twisted-vs-annular count identity "
        "(evidence only)",
    )
    p_conj.add_argument("--max-n", type=int, default=3)
    p_conj.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p_conj)
    p_conj.set_defaults(handler=cmd_conjecture)

    return parser


def _resolve_budget(args: argparse.Namespace) -> EnumerationBudget | None:
    return None if args.max_elements is None else EnumerationBudget(args.max_elements)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _require_grade_args(tag: str, args, names: tuple[str, ...]) -> None:
    """Exactly the grade flags named by ``names`` are given."""
    for name in ("genus", "k", "p"):
        given = getattr(args, name) is not None
        if name in names and not given:
            raise ValueError(f"family {tag!r} requires --{name}")
        if name not in names and given:
            raise ValueError(f"family {tag!r} does not take --{name}")


def cmd_enumerate(args) -> tuple[dict, int, list | None]:
    budget = _resolve_budget(args)
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0")
    tag = args.family
    witness_table = None
    if tag in GLUINGS:
        names = GLUINGS[tag].grades
        _require_grade_args(tag, args, names)
        grade = tuple(getattr(args, name) for name in names)
        rows = _grade_rows(tag, args.n, grade, budget=budget)
        rows = rows[np.lexsort(rows.T[::-1])]  # the members' sort key: their images
        signed = GLUINGS[tag].signed
    else:
        lib_tag = NC_TAGS[tag]
        _require_grade_args(tag, args, ("p",) if NONCROSSING[lib_tag].grade else ())
        family = family_nc(NCFamilyId(lib_tag, args.n, args.p), budget=budget)
        rows, witness_table = family.rows, family.witness_table  # already in that order
        signed = NONCROSSING[lib_tag].signed

    count = len(rows)
    shown = count if args.limit is None else min(args.limit, count)
    size = rows.shape[1]
    ground = signed_ground(size // 2) if signed else unsigned_ground(size)
    result = {
        "family": tag,
        "n": args.n,
        "count": count,
        "elements": [_cycle_text(row, ground) for row in rows[:shown].tolist()],
        "listed": shown,
        "truncated_listing": shown < count,
    }
    for name in ("genus", "k", "p"):
        if getattr(args, name) is not None:
            result[name] = getattr(args, name)
    if witness_table is not None:
        result["witnesses"] = [
            [list(w) for w in ws] for ws in witness_table[:shown]
        ]
    csv_rows = None
    if args.format == "csv":
        csv_rows = [
            ["family", "n", "genus", "k", "p", "count"],
            [tag, args.n, args.genus, args.k, args.p, count],
        ]
    return result, EXIT_OK, csv_rows


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> tuple[dict, int, list | None]:
    budget = _resolve_budget(args)
    tag = args.bijection
    entry = BIJECTIONS.get(tag)  # None for lemma3
    graded = entry is not None and entry.graded
    if args.p is not None and not graded:
        raise ValueError(f"bijection {tag!r} does not take --p")
    if args.p is not None and args.p not in grades(args.n):
        raise ValueError("--p must lie in 1..n")
    if entry is None:
        reports = verify_lemma3(args.n, budget=budget)
    elif graded and args.p is None:
        reports = verify_grades(tag, args.n, budget=budget)
    else:
        reports = [verify(tag, args.n, args.p, budget=budget)]

    all_verified = all(r.verified for r in reports)
    result = {
        "bijection": tag,
        "n": args.n,
        "reports": [r.to_payload() for r in reports],
        "all_verified": all_verified,
    }
    return result, EXIT_OK if all_verified else EXIT_VERIFY, None


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------

def cmd_moment(args) -> tuple[dict, int, list | None]:
    budget = _resolve_budget(args)
    ensemble = Ensemble.parse(args.ensemble)
    if args.symbolic == (args.dim is not None):
        raise ValueError("choose exactly one of --symbolic or --dim N")
    if args.mc and args.dim is None:
        raise ValueError("--mc requires numeric mode (--dim N)")
    if args.rect_dim is not None and not ensemble.is_laguerre:
        raise ValueError("--rect-dim applies to Laguerre ensembles only")
    if args.dim is not None:
        ensemble.check_dimensions(args.order, args.dim, args.rect_dim)
    poly = wick_moment(ensemble, args.order, budget=budget)

    result: dict = {
        "ensemble": ensemble.kind,
        "order": args.order,
        "polynomial": poly.to_json_dict(),
        "text": str(poly),
    }
    if args.symbolic:
        result["mode"] = "symbolic"
        return result, EXIT_OK, None

    result["mode"] = "numeric"
    result["dim"] = args.dim
    c = Fraction(1)
    if ensemble.is_laguerre:
        result["rect_dim"] = args.rect_dim
        c = Fraction(args.rect_dim, args.dim)
    value = poly.evaluate(args.dim, c)
    result["value"] = {"num": str(value.numerator), "den": str(value.denominator)}
    result["value_float"] = float(value)

    if args.mc:
        estimate = mc_moment(
            ensemble, args.order, args.dim, args.rect_dim, samples=args.samples, seed=args.seed
        )
        exact = float(value)
        if estimate.std_error > 0:
            z = (estimate.mean - exact) / estimate.std_error
        else:
            z = 0.0 if estimate.mean == exact else math.inf
        result["mc"] = estimate.to_payload()
        result["mc"]["generator"] = GENERATOR_NAME
        result["mc"]["z_score"] = z
    return result, EXIT_OK, None


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

#: Non-crossing families that ``classify`` does not report.  Their
#: members carry W → B; ``classify`` once gated them on B → B, so it has
#: never reported them.  Reporting them changes ``classify`` output that
#: the benchmark reference records (``classify-signed-*``), so it waits
#: for a change that re-records that reference.
_UNREPORTED = ("NC2K_bip", "NC2delta_bip")


def _nc_memberships(pi: Permutation, n: int, signed: bool) -> list[dict]:
    """One entry per non-crossing family on π's ground holding π, in table order.

    A graded family is tested at the grade its own kernel reads off π.
    """
    entries = []
    for tag, entry in NONCROSSING.items():
        if entry.signed != signed or tag in _UNREPORTED or (entry.even_n and n % 2):
            continue
        member = _membership(tag, n, pi)
        if member is None:
            continue
        p, witnesses = member
        found: dict = {"family": tag, "n": n}
        if p is not None:
            found["p"] = p
        if entry.cut is not None:
            found["witnesses"] = [list(w) for w in witnesses]
        entries.append(found)
    return entries


def classify_permutation(text: str, n: int, *, signed: bool = False) -> dict:
    """Parse ``text`` on [n] or ±[n] and report every family membership.

    Each membership is decided by the family's own membership test —
    :func:`annular.maps.gluing_key` for a gluing family, the function
    behind :func:`annular.noncrossing.member_witnesses` for a non-crossing
    one — so no family is built and no stream cap applies; an n above
    :data:`CLASSIFY_MAX_N` raises ``CapExceeded`` before ``text`` is read.
    Union memberships carry their (u, v) witnesses, graded ones their
    grades.  Raises ``ValueError`` on a parse failure or a non-integer n.
    """
    n = _check_integer("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > CLASSIFY_MAX_N:
        message = f"classify requested for n = {n}, above the cap {CLASSIFY_MAX_N}"
        raise CapExceeded(message, requested=n, cap=CLASSIFY_MAX_N)
    domain = signed_ground(n) if signed else unsigned_ground(n)
    pi = parse_cycles(text, domain)
    report = {
        "permutation": pi.cycle_string(),
        "n": n,
        "signed": signed,
        "cycle_count": num_cycles(pi),
        "is_pairing": pi.is_involution() and pi.is_fixed_point_free(),
    }
    gluings = []  # one entry per gluing family holding π
    for tag, entry in GLUINGS.items():
        key = gluing_key(tag, pi)
        if key is not None:
            size = n // 2 if entry.doubled else n
            gluings.append({"family": tag, "n": size, **dict(zip(entry.grades, key))})
    if signed:
        report["mirror_symmetric"] = conjugate(pi, tau0(n)) == inverse(pi)
        report["delta_symmetric"] = is_delta_symmetric(pi)
    report["memberships"] = gluings + _nc_memberships(pi, n, signed)
    return report


def cmd_classify(args) -> tuple[dict, int, list | None]:
    return classify_permutation(args.perm, args.n, signed=args.signed), EXIT_OK, None


# ---------------------------------------------------------------------------
# conjecture table
# ---------------------------------------------------------------------------

def cmd_conjecture(args) -> tuple[dict, int, list | None]:
    budget = _resolve_budget(args)
    rows = conjecture_table(args.max_n, budget=budget)
    result = {
        "rows": [row.to_payload() for row in rows],
        "all_equal": all(row.equal for row in rows),
        "note": "surmised identity; table is evidence, not a verification",
    }
    csv_rows = None
    if args.format == "csv":
        columns = ["n", "p", "twisted_count", "annular_count", "equal"]
        csv_rows = [columns, *([row[c] for c in columns] for row in result["rows"])]
    return result, EXIT_OK, csv_rows


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _emit(record: dict, csv_rows: list | None, stdout) -> None:
    if csv_rows is not None:
        writer = csv.writer(stdout, lineterminator="\n")
        writer.writerows(csv_rows)
    else:
        stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)

    # the record echoes every argument of the subcommand but its output format
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "format", "handler")}
    if args.command == "moment" and not args.mc:  # the sampler's settings are unused
        parameters.update(samples=None, seed=None)
    start = time.perf_counter()
    try:
        result, code, csv_rows = args.handler(args)
    except CapExceeded as exc:
        result = {
            "error": {
                "type": "cap-exceeded",
                "message": str(exc),
                "requested": exc.requested,
                "cap": exc.cap,
            }
        }
        code, csv_rows = EXIT_CAP, None
    except ValueError as exc:
        print(f"annular {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    record = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "result": result,
        "timing_ms": int(round((time.perf_counter() - start) * 1000)),
    }
    _emit(record, csv_rows, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
