"""Explicit maps between gluing families and non-crossing annular families.

Every moment contribution can be listed two ways: as a gluing of edge
labels around one or two vertices (the families of
:data:`annular.maps.GLUINGS`) or as a non-crossing annular object (the
families of :data:`annular.noncrossing.NONCROSSING`).
:data:`BIJECTIONS` names each claimed bijection by its CLI tag as a row
over those two tables: a gluing tag and its leading grade (g or k), a
non-crossing tag, and the map between them; whether a claim is graded by
a part count p, and whether it lives on ±[2n] / [2n], is read from the
tables.  :func:`verify` checks one entry exhaustively at one size and
grade (the ``verify_*`` names are shorthands for it);
:func:`verify_grades`, :func:`verify_lemma3` and
:func:`conjecture_table` read every grade from one grouped pass per
side.

Members stay rows until a report needs text: each side hands over its
members as an array of index images, each map is an array operation on
rows, the sides are compared as sets of row tuples, and only the capped
witnesses and failures are printed.  The tests hold each row map to its
public object form (:func:`phi1`, :func:`phi2`, the reductions of
:mod:`annular.maps`).  The two sides share no family-construction logic
(the gluing side selects rows by cycle-count statistics, the annular
side by the geometric non-crossing test), so agreement is a genuine
cross-check, and :func:`verify` reports any discrepancy (a non-injective
image, an image outside the target family, or a target member never hit)
rather than raising.  The one stream both sides read,
:func:`annular.streams.signed_symmetric_permutations` (b̂ versus
NCdelta_p / NCK_p), is checked element by element against a brute-force
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .frames import tau0
from .maps import GLUINGS, _grade_rows, _white_walk, gluing_counts, gluing_groups, gluing_key
from .noncrossing import NONCROSSING, NCFamilyId, family_nc, nc_groups
from .perms import (
    Pairing, Permutation, _check_integer, _cycle_text, compose, signed_ground, unsigned_ground
)
from .streams import EnumerationBudget

__all__ = [
    "WITNESS_CAP",
    "BijectionReport",
    "ConjectureRow",
    "Bijection",
    "BIJECTIONS",
    "phi1",
    "phi1_inverse",
    "phi2",
    "grades",
    "verify",
    "verify_grades",
    "verify_phi1",
    "verify_phi2",
    "verify_torus_equality",
    "verify_phi1_tilde",
    "verify_phi2_tilde",
    "verify_a_tilde_equality",
    "verify_phi1_hat",
    "verify_phi2_hat",
    "verify_a_hat_equality",
    "verify_lemma3",
    "conjecture_table",
]

#: Most witnesses, and most failures, that one report keeps.
WITNESS_CAP = 100


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of one exhaustive map verification.

    ``verified`` holds exactly when the map is injective, hits every
    member of the target family, and produced no membership failures.
    ``witnesses`` samples (input, image) pairs in cycle notation;
    ``failures`` lists human-readable discrepancies.  Both lists are
    deterministic and capped, so reports are reproducible byte for byte.
    """

    name: str
    n: int
    domain_size: int
    codomain_size: int
    injective: bool
    surjective: bool
    witnesses: tuple[tuple[str, str], ...]
    failures: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return self.injective and self.surjective and not self.failures

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "domain_size": self.domain_size,
            "codomain_size": self.codomain_size,
            "injective": self.injective,
            "surjective": self.surjective,
            "verified": self.verified,
            "witnesses": [list(w) for w in self.witnesses],
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class ConjectureRow:
    """One line of the surmised-count table: twisted Euler-genus-1
    bipartite gluings versus graded mirror-symmetric annular pairings."""

    n: int
    p: int
    twisted_count: int
    annular_count: int

    @property
    def equal(self) -> bool:
        return self.twisted_count == self.annular_count

    def to_payload(self) -> dict:
        return {**asdict(self), "equal": self.equal}


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------

def _glue_with_negation(tau1: Permutation) -> Permutation:
    """Compose a mirror-symmetric gluing with the label-negation pairing."""
    n = tau1.domain.size // 2
    return compose(tau1, tau0(n))


def phi1(tau1: Pairing) -> Permutation:
    """Send a twisted Euler-genus-1 gluing to its annular pairing.

    The image is mirror-symmetric and non-crossing with respect to the
    two-cycle annular frame; the inverse map is :func:`phi1_inverse`.
    """
    if gluing_key("b", tau1) != (1,):
        raise ValueError("input is not a twisted gluing of Euler genus 1")
    return _glue_with_negation(tau1)


def phi1_inverse(pi: Permutation) -> Permutation:
    """Recover the gluing from its annular pairing under :func:`phi1` or
    :func:`phi2` (negation is an involution)."""
    return _glue_with_negation(pi)


def phi2(tau1: Pairing) -> Permutation:
    """Send a twisted Euler-genus-2 gluing to its Klein-frame annular pairing."""
    if gluing_key("b", tau1) != (2,):
        raise ValueError("input is not a twisted gluing of Euler genus 2")
    return _glue_with_negation(tau1)


def _negate_rows(rows: np.ndarray) -> np.ndarray:
    """τ₁ ↦ τ₁τ₀ on rows, one index image each: a column gather by τ₀."""
    return rows.take(tau0(rows.shape[1] // 2).image, axis=1)


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """π ↦ π⁻¹ per row: a scatter."""
    out = np.empty_like(rows)
    out[np.arange(len(rows))[:, None], rows] = np.arange(rows.shape[1])
    return out


def _same_rows(rows: np.ndarray) -> np.ndarray:
    return rows


def _orientable_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`hypermap_from_bipartite_orientable` per row."""
    return rows[:, 1::2] // 2


def _nonorientable_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`hypermap_from_bipartite_nonorientable` per row: the walk table read at W(m)."""
    white, walk = _white_walk(rows.shape[1] // 4)
    return np.array(walk)[rows[:, white]]


# ---------------------------------------------------------------------------
# verification core
# ---------------------------------------------------------------------------

def _text(row: list[int], signed: bool) -> str:
    """The cycle notation of one row on ±[size/2] (when ``signed``) or [size]."""
    return _cycle_text(row, signed_ground(len(row) // 2) if signed else unsigned_ground(len(row)))


def _verify(name: str, n: int, domain, codomain, fn, signed: bool) -> BijectionReport:
    """Map the rows of ``domain`` through the row map ``fn`` and compare them
    with the rows of ``codomain`` two-sidedly, on signed grounds when
    ``signed``.  Discrepancies become failures; a report prints at most
    :data:`WITNESS_CAP` witnesses and failures, and no other row."""
    images = fn(domain).tolist()
    domain = domain.tolist()
    target = set(map(tuple, codomain.tolist()))
    first: dict[tuple[int, ...], int] = {}  # image -> the first domain index hitting it
    failures: list[str] = []
    for i, image in enumerate(map(tuple, images)):
        j = first.setdefault(image, i)
        if len(failures) >= WITNESS_CAP or (j == i and image in target):
            continue
        t, image_text = _text(domain[i], signed), _text(images[i], signed)
        if j != i:
            failures.append(
                f"not injective: {_text(domain[j], signed)} and {t} share the image {image_text}"
            )
        if image not in target:
            failures.append(f"image {image_text} of {t} lies outside the target family")
    missed = sorted(target.difference(first))  # lexicographic rows: the members' sort key
    failures += (f"target member {_text(pi, signed)} is never hit" for pi in missed[:WITNESS_CAP])
    witnesses = [(_text(t, signed), _text(i, signed)) for t, i in zip(domain, images[:WITNESS_CAP])]
    return BijectionReport(
        name=name,
        n=n,
        domain_size=len(domain),
        codomain_size=len(target),
        injective=len(first) == len(domain),
        surjective=not missed,
        witnesses=tuple(witnesses),
        failures=tuple(failures[:WITNESS_CAP]),
    )


def _no_rows(signed: bool, size: int) -> np.ndarray:
    """An empty block of rows on ±[size] (when ``signed``) or [size]."""
    return np.empty((0, 2 * size if signed else size), dtype=np.intp)


def grades(n: int) -> range:
    """The part counts p at which a graded claim of size n is read: 1..n."""
    return range(1, _check_integer("n", n) + 1)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bijection:
    """One claimed bijection: a row over the two family tables.

    The domain is the gluing family ``GLUINGS[gluing]`` at leading grade
    ``first`` (g or k), the codomain the non-crossing family
    ``NONCROSSING[nc]``, and ``map`` carries the one's rows onto the other's.
    """

    gluing: str
    first: int
    nc: str
    map: Callable[[np.ndarray], np.ndarray]

    @property
    def graded(self) -> bool:
        """Both sides are read at a part count p: the non-crossing family is graded."""
        return NONCROSSING[self.nc].grade is not None

    def annular_n(self, n: int) -> int:
        """The annular side's size: 2n (±[2n] / [2n]) when the gluings are bipartite."""
        return 2 * n if GLUINGS[self.gluing].doubled else n


#: CLI tag -> bijection, in CLI order.
BIJECTIONS: dict[str, Bijection] = {
    # twisted Euler-genus-1 gluings of ±[n] -> mirror-symmetric annular pairings
    "phi1": Bijection("b", 1, "NC2delta", _negate_rows),
    # twisted Euler-genus-2 gluings of ±[n] -> Klein-frame annular pairings
    "phi2": Bijection("b", 2, "NC2K", _negate_rows),
    # genus-1 gluings of [n] and torus-frame annular pairings: equal sets
    "torus-eq": Bijection("a", 1, "NC2T", _same_rows),
    # graded bipartite variants: gluings of ±[2n] / [2n]
    "phi1-tilde": Bijection("b-tilde", 1, "NC2delta_bip", _negate_rows),
    "phi2-tilde": Bijection("b-tilde", 2, "NC2K_bip", _negate_rows),
    "a-tilde-eq": Bijection("a-tilde", 1, "NC2T_bip", _same_rows),
    # graded hypermap variants on ±[n] / [n]: on mirror-symmetric
    # permutations, conjugating by label negation equals inversion, so the
    # image is simply the inverse
    "phi1-hat": Bijection("b-hat", 1, "NCdelta_p", _inverse_rows),
    "phi2-hat": Bijection("b-hat", 2, "NCK_p", _inverse_rows),
    "a-hat-eq": Bijection("a-hat", 1, "NCT_p", _same_rows),
}


def _bijection(tag: str) -> Bijection:
    """``BIJECTIONS[tag]``; ``ValueError`` for an unknown tag."""
    entry = BIJECTIONS.get(tag)
    if entry is None:
        raise ValueError(f"unknown bijection {tag!r}; known: {(*BIJECTIONS,)}")
    return entry


def verify(
    tag: str,
    n: int,
    p: int | None = None,
    *,
    budget: EnumerationBudget | None = None,
) -> BijectionReport:
    """Exhaustively check the bijection ``BIJECTIONS[tag]`` at size n.

    A graded entry needs the grade p and names its report
    ``"<tag>(p=<p>)"``; an ungraded one takes no p, needs a positive
    even n, and names its report by the bare tag.
    """
    entry = _bijection(tag)
    if entry.graded == (p is None):
        need = "needs a grade p" if entry.graded else "takes no grade p"
        raise ValueError(f"bijection {tag!r} {need}")
    if not entry.graded and (n < 2 or n % 2):
        raise ValueError("n must be a positive even integer")
    name = f"{tag}(p={p})" if entry.graded else tag
    grade = (entry.first, p) if entry.graded else (entry.first,)
    domain = _grade_rows(entry.gluing, n, grade, budget=budget)
    codomain = family_nc(NCFamilyId(entry.nc, entry.annular_n(n), p), budget=budget)
    return _verify(name, n, domain, codomain.rows, entry.map, GLUINGS[entry.gluing].signed)


def _driver(tag: str) -> Callable[..., BijectionReport]:
    """The ``verify_*`` shorthand for one entry: ``(n)``, or ``(n, p)`` when graded."""
    def driver(n, p=None, *, budget=None):
        return verify(tag, n, p, budget=budget)
    driver.__doc__ = f"``verify({tag!r}, ...)``; see :data:`BIJECTIONS`."
    return driver


verify_phi1 = _driver("phi1")
verify_phi2 = _driver("phi2")
verify_torus_equality = _driver("torus-eq")
verify_phi1_tilde = _driver("phi1-tilde")
verify_phi2_tilde = _driver("phi2-tilde")
verify_a_tilde_equality = _driver("a-tilde-eq")
verify_phi1_hat = _driver("phi1-hat")
verify_phi2_hat = _driver("phi2-hat")
verify_a_hat_equality = _driver("a-hat-eq")


def verify_grades(
    tag: str,
    n: int,
    *,
    budget: EnumerationBudget | None = None,
) -> tuple[BijectionReport, ...]:
    """``verify(tag, n, p)`` for every p in ``grades(n)``, from one grouped pass per side.

    Each report equals the one :func:`verify` gives at its grade, and a
    budget raises as :func:`verify` does at p = 1.  The gluing side
    rejects n < 1 with ``ValueError`` before any stream starts.
    """
    entry = _bijection(tag)
    if not entry.graded:
        raise ValueError(f"bijection {tag!r} takes no grade p")
    signed = GLUINGS[entry.gluing].signed
    domains = gluing_groups(entry.gluing, n, budget=budget)
    codomains = nc_groups(entry.nc, entry.annular_n(n), budget=budget)
    none = _no_rows(signed, entry.annular_n(n))  # both sides' ground
    return tuple(
        _verify(
            f"{tag}(p={p})", n, domains.get((entry.first, p), none),
            codomains[p].rows if p in codomains else none, entry.map, signed,
        )
        for p in grades(n)
    )


# ---------------------------------------------------------------------------
# reduction drivers (bipartite gluings on ±[2n]/[2n] versus hypermaps on ±[n]/[n])
# ---------------------------------------------------------------------------

def verify_lemma3(
    n: int,
    *,
    budget: EnumerationBudget | None = None,
) -> tuple[BijectionReport, ...]:
    """Check that the half-edge reductions carry each graded bipartite
    gluing family bijectively onto the matching hypermap family.

    One report per (grade, part-count) key at which either side is
    nonempty, orientable cases first; a key where only one side is
    populated yields a failing report rather than an error.  The gluing
    side rejects n < 1 with ``ValueError`` before any stream starts.
    """
    reports: list[BijectionReport] = []
    for bipartite, hypermap, reduction, side, grade, signed in (
        ("a-tilde", "a-hat", _orientable_rows, "orientable", "g", False),
        ("b-tilde", "b-hat", _nonorientable_rows, "nonorientable", "k", True),
    ):
        domains = gluing_groups(bipartite, n, budget=budget)
        codomains = gluing_groups(hypermap, n, budget=budget)
        for key in sorted(domains.keys() | codomains.keys()):
            name = f"lemma3-{side}({grade}={key[0]},p={key[1]})"
            domain = domains.get(key, _no_rows(signed, 2 * n))
            codomain = codomains.get(key, _no_rows(signed, n))
            reports.append(_verify(name, n, domain, codomain, reduction, signed))
    return tuple(reports)


# ---------------------------------------------------------------------------
# surmised count identity (evidence only, never pass/fail)
# ---------------------------------------------------------------------------

def conjecture_table(
    max_n: int = 3,
    *,
    budget: EnumerationBudget | None = None,
) -> tuple[ConjectureRow, ...]:
    """Tabulate |twisted Euler-genus-1 bipartite gluings of ±[2n], grade p|
    against |graded mirror-symmetric annular pairings of ±[2n]| for
    n ≤ max_n and every p.  The equality is only surmised, so rows carry
    an ``equal`` flag and no verdict.  ``ValueError`` for max_n < 1, and
    ``CapExceeded`` before any n is computed when max_n is above a cap."""
    if (max_n := _check_integer("max_n", max_n)) < 1:
        raise ValueError("max_n must be a positive integer")
    entry = BIJECTIONS["phi1-tilde"]
    # both sides' streams at max_n: a cap refuses it before any n is computed
    GLUINGS[entry.gluing].source(max_n, None, budget)
    NONCROSSING[entry.nc].source(entry.annular_n(max_n), budget)
    rows: list[ConjectureRow] = []
    for n in range(1, max_n + 1):
        twisted = gluing_counts(entry.gluing, n, budget=budget)
        annular = nc_groups(entry.nc, entry.annular_n(n), budget=budget)
        rows += (
            ConjectureRow(n, p, twisted.get((entry.first, p), 0), len(annular.get(p, ())))
            for p in grades(n)
        )
    return tuple(rows)
