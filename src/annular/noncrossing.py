"""Non-crossing predicates and the annular non-crossing families.

A permutation π of an n-point set is *non-crossing with respect to* a
reference permutation γ when the pair is jointly transitive and the
cycle counts meet the genus-zero bound:

    #(π) + #(π⁻¹γ) + #(γ) = n + 2.

The general inequality #(π) + #(π⁻¹γ) + #(γ) ≤ n + 2·#(π∨γ) makes the
*Euler defect* — the (always even, always non-negative) gap to that
bound — a useful genus proxy: defect 0 with one joint orbit is exactly
the non-crossing condition.

On the signed set ±[n], a permutation is *mirror-symmetric* (written
δ) when its cycle set is closed under the mirror (r₁,…,r_s) ↦
(−r_s,…,−r₁) and no label maps to its own negative.  Fixed points are
allowed; cycles therefore come in mirror pairs and the total cycle
count is even.

The families built here, keyed by :class:`NCFamilyId` tags:

* ``NC`` / ``NC2``: permutations / pairings of [n] non-crossing with
  respect to the disk frame 1ₙ.
* ``NCdelta`` / ``NC2delta``: mirror-symmetric permutations / pairings
  of ±[n] non-crossing with respect to the annulus frame 1̃ₙ.
* ``NC2T`` / ``NC2K``: unions over cut parameters (u, v) of pairings
  non-crossing with respect to the torus / Klein frames, anchored by
  π(u) = v (torus, on [n]) or π(u) = −v (Klein, on ±[n], mirror-
  symmetric) plus the head conditions on labels below u.
* ``NC2T_bip`` / ``NC2K_bip`` / ``NC2delta_bip``: the graded bipartite
  refinements — every pair joins the two colour classes, and the grade
  p counts the black-supported cycles of π⁻¹1̃ₙ (annular/Klein) or the
  odd-supported cycles of π⁻¹1ₙ (torus).  The torus union has only
  v − u odd, the Klein union only v − u even: the colouring forces it,
  since the anchor pair (u, ±v) joins the two classes.
* ``NCdelta_p`` / ``NCT_p`` / ``NCK_p``: permutation-level graded
  families with #(π) = 2p (signed) or #(π) = p (unsigned) and the
  anchor conditions π⁻¹(u) = v (torus) / π⁻¹(u) = −v (Klein; the
  anchor, like the head condition, constrains π⁻¹ — the underlying
  twisted gluing — which is what lets these sets receive the
  hypermap families bijectively).

Union families record which (u, v) admitted each member; the unions
are expected to be disjoint, and any member with several witnesses is
reported via :attr:`NCFamily.union_collisions` rather than hidden.

The Klein unions run over 1 ≤ u < v ≤ n (the frames with v = n are
non-degenerate and are needed for the family sizes to match the
twisted-gluing counts); the torus unions stop at v < n, where the
frame would degenerate to a single cycle.

Graded bipartite tags read their inner sets as the ungraded (u, v)
members and measure grades against the canonical disk/annulus frames,
exactly as the displayed conditions state.

Each family is defined once, as one entry of :data:`NONCROSSING`: its
CLI tag, its source stream (the permutations or pairings of [n], or the
δ-symmetric ones of ±[n]), its cut (none, torus or Klein) and anchor
(π, or π⁻¹ for the hypermap unions), its grade kernel, and whether it
needs an even n.  :class:`NCFamilyId`, the CLI's ``enumerate`` and
``classify`` and the test below all read that entry.  A member passes
one test on one element: the source conditions, the grade its kernel
reads, and the non-crossing condition.  For a union tag the anchor
fixes v from u, so each u names at most one cut, and only a cut that
passes the head condition has its frame built.  :func:`member_witnesses`
applies the test to any permutation; :func:`family_nc` runs the source
stream through it.

The test reads only the element's index image.  One kernel decides
"non-crossing with respect to γ" from three cycle counts against the
cached image of γ⁻¹ (and, if they fit, the join); one colour kernel
checks the bipartite colouring and counts the grade.  Both count cycles
through the shared kernels of :mod:`annular.perms` and read the frames,
walks, colour masks and colour tests of :mod:`annular.frames`; nothing
here comes from the gluing side (:mod:`annular.maps`), so the bijection
checks between the two remain a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .frames import (
    annulus_cycle,
    black_mask,
    full_cycle,
    gamma_walk,
    klein_frame,
    odd_mask,
    sends_into,
    torus_frame,
)
from .perms import (
    GroundSet,
    Permutation,
    _coloured_cycle_count,
    _cycle_count,
    _inverse_image,
    _is_delta_symmetric,
    _join_block_count_images,
    _num_cycles_image,
    signed_ground,
    unsigned_ground,
)
from .streams import (
    EnumerationBudget,
    pairings,
    permutations,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)

__all__ = [
    "is_noncrossing",
    "euler_defect",
    "is_delta_symmetric",
    "NCEntry",
    "NONCROSSING",
    "NCFamilyId",
    "NCFamily",
    "family_nc",
    "member_witnesses",
]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _require_same_domain(pi: Permutation, gamma: Permutation) -> None:
    if pi.domain != gamma.domain:
        raise ValueError(
            f"domain mismatch: {pi.domain} vs {gamma.domain}"
        )


def _cycle_total(img: tuple[int, ...], gamma: Permutation) -> int:
    """#(π) + #(π⁻¹γ) + #(γ) for π given by its image.

    #(π⁻¹γ) is read as #(γ⁻¹π), its inverse, so π is never inverted.
    """
    walk, cycles = gamma_walk(gamma)
    return _num_cycles_image(img) + _cycle_count(walk, img) + cycles


def _noncrossing(img: tuple[int, ...], gamma: Permutation) -> bool:
    """The image kernel of :func:`is_noncrossing`; the join only if the count fits."""
    if _cycle_total(img, gamma) != len(img) + 2:
        return False
    return _join_block_count_images(img, gamma.image) <= 1


def is_noncrossing(pi: Permutation, gamma: Permutation) -> bool:
    """Joint transitivity plus the genus-zero cycle-count identity."""
    _require_same_domain(pi, gamma)
    return _noncrossing(pi.image, gamma)


def euler_defect(pi: Permutation, gamma: Permutation) -> int:
    """n + 2·#(π∨γ) − (#(π) + #(π⁻¹γ) + #(γ)); non-negative and even."""
    _require_same_domain(pi, gamma)
    blocks = _join_block_count_images(pi.image, gamma.image)
    return pi.domain.size + 2 * blocks - _cycle_total(pi.image, gamma)


def is_delta_symmetric(pi: Permutation) -> bool:
    """Mirror-closed cycle set on ±[n], with no label sent to its negative.

    The second condition is the permutation-level form of "(r,−r) is
    never a cycle": on pairings the two are literally the same, and on
    general permutations it additionally rejects the self-mirror
    cycles (those mapped to themselves by negate-and-reverse, such as
    (−2,−1,1,2)), each of which necessarily contains two positions
    with π(x) = −x.  Keeping those out is what makes the cycle count
    of every member even, so the grade #(π) = 2p covers the whole
    family, and what keeps the families aligned with the
    mirror-symmetric gluing streams.
    """
    if pi.domain.kind != GroundSet.SIGNED:
        raise ValueError("δ-symmetry is defined on ±[n]")
    return _is_delta_symmetric(pi.image)


# ---------------------------------------------------------------------------
# the non-crossing families: one table
# ---------------------------------------------------------------------------

def _colour_grade(img: tuple[int, ...], *, signed: bool) -> int | None:
    """The bipartite grade p of π, or None when π is not bipartite.

    Colour 1 is B(n/2) on ±[n] and the odd labels on [n]; π must send
    every label of colour 0 into colour 1.  p is the number of colour-1
    cycles of π⁻¹γ for γ = 1ₙ on [n], and half of it for γ = 1̃ₙ on ±[n]
    (None when that number is odd).
    """
    n = len(img) // 2 if signed else len(img)
    colour = black_mask(n)[1] if signed else odd_mask(n)
    if not sends_into(img, colour):
        return None
    walk = gamma_walk(annulus_cycle(n) if signed else full_cycle(n))[0]
    counts = _coloured_cycle_count(walk, img, colour)
    if counts is None or signed and counts[1] % 2:
        return None
    return counts[1] // 2 if signed else counts[1]


def _half_cycles(img: tuple[int, ...]) -> int | None:
    """p with #(π) = 2p, or None when #(π) is odd."""
    cycles = _num_cycles_image(img)
    return None if cycles % 2 else cycles // 2


_odd_grade = partial(_colour_grade, signed=False)
_black_grade = partial(_colour_grade, signed=True)


@dataclass(frozen=True)
class NCEntry:
    """One non-crossing family: its CLI tag, source stream, cut and grade.

    The source is the permutations (or, with ``pairs``, the pairings) of
    [n], or their δ-symmetric forms on ±[n] when ``signed``.  ``cut`` is
    None for the disk/annulus frame, else ``"torus"`` or ``"klein"``: a
    union over the cuts (u, v), anchored on π, or on π⁻¹ when
    ``hypermap``.  ``grade`` maps an image to its grade p (None: in no
    grade); it is None for an ungraded family.  ``even_n`` families
    exist only for even n.
    """

    cli: str
    signed: bool = False
    pairs: bool = False
    cut: str | None = None
    hypermap: bool = False
    grade: Callable[[tuple[int, ...]], int | None] | None = None
    even_n: bool = False


#: Library tag -> non-crossing family: the unsigned families, then the
#: signed ones, each in the order ``classify`` reports them.
NONCROSSING: dict[str, NCEntry] = {
    "NC": NCEntry("nc"),
    "NC2": NCEntry("nc2", pairs=True),
    "NC2T": NCEntry("nc2-t", pairs=True, cut="torus"),
    "NC2T_bip": NCEntry("nc2-t-bip", pairs=True, cut="torus", grade=_odd_grade, even_n=True),
    "NCT_p": NCEntry("nc-t-p", cut="torus", hypermap=True, grade=_num_cycles_image),
    "NCdelta": NCEntry("nc-delta", signed=True),
    "NC2delta": NCEntry("nc2-delta", signed=True, pairs=True),
    "NCdelta_p": NCEntry("nc-delta-p", signed=True, grade=_half_cycles),
    "NC2K": NCEntry("nc2-k", signed=True, pairs=True, cut="klein"),
    "NC2K_bip": NCEntry(
        "nc2-k-bip", signed=True, pairs=True, cut="klein", grade=_black_grade, even_n=True
    ),
    "NCK_p": NCEntry("nc-k-p", signed=True, cut="klein", hypermap=True, grade=_half_cycles),
    "NC2delta_bip": NCEntry(
        "nc2-delta-bip", signed=True, pairs=True, grade=_black_grade, even_n=True
    ),
}


# ---------------------------------------------------------------------------
# family identifiers and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NCFamilyId:
    """Identifier for a non-crossing family: a tag, the size n, a grade p."""

    tag: str
    n: int
    p: int | None = None

    def __post_init__(self) -> None:
        entry = NONCROSSING.get(self.tag)
        if entry is None:
            raise ValueError(f"unknown family tag {self.tag!r}; known: {(*NONCROSSING,)}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        graded = entry.grade is not None
        if graded and (self.p is None or self.p < 1):
            raise ValueError(f"family {self.tag} requires a grade p >= 1")
        if not graded and self.p is not None:
            raise ValueError(f"family {self.tag} takes no grade")
        if entry.even_n and self.n % 2:
            raise ValueError(f"family {self.tag} requires even n")

    def describe(self) -> str:
        if self.p is None:
            return f"{self.tag}(n={self.n})"
        return f"{self.tag}(n={self.n},p={self.p})"


@dataclass(frozen=True, eq=False)
class NCFamily:
    """A materialized non-crossing family, canonically ordered.

    ``witness_table`` (union families only) aligns with ``members``:
    entry i lists every (u, v) whose frame admitted ``members[i]``.
    """

    family_id: NCFamilyId
    members: tuple[Permutation, ...]
    witness_table: tuple[tuple[tuple[int, int], ...], ...] | None = None
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index.update({pi: i for i, pi in enumerate(self.members)})

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, pi: object) -> bool:
        return pi in self._index

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def witnesses_for(self, pi: Permutation) -> tuple[tuple[int, int], ...]:
        if self.witness_table is None:
            raise ValueError(f"{self.family_id.tag} is not a union family")
        return self.witness_table[self._index[pi]]

    @property
    def union_collisions(self) -> tuple[tuple[Permutation, tuple[tuple[int, int], ...]], ...]:
        """Members admitted by more than one (u, v) frame, if any."""
        if self.witness_table is None:
            return ()
        return tuple(
            (pi, ws)
            for pi, ws in zip(self.members, self.witness_table)
            if len(ws) > 1
        )


# ---------------------------------------------------------------------------
# membership: one test per tag
# ---------------------------------------------------------------------------

def _union_witnesses(
    fid: NCFamilyId, entry: NCEntry, img: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """The cuts (u, v) whose frame admits π, or None when there is none.

    The anchor is π for the pairing unions and π⁻¹ for the hypermap
    unions, read off the image.  A torus cut needs anchor(u) = v and no
    a < u with anchor(a) in [u, v]; a Klein cut needs anchor(u) = −v
    and no a < u with anchor(a) < 0.  So each u names at most one v,
    and only a cut passing both conditions has its frame built and
    tested.  Label a ≥ 1 sits at index first + a − 1, where first is
    n on ±[n] and 0 on [n].
    """
    n = fid.n
    klein = entry.cut == "klein"
    anchor = _inverse_image(img) if entry.hypermap else img
    top = n if klein else n - 1  # largest label a cut may use
    first = n if klein else 0
    found = []
    for u in range(1, top + 1):
        j = anchor[first + u - 1]
        # anchor(u) is −v (Klein) or v; a positive Klein anchor gives v ≤ 0
        v = n - j if klein else j + 1
        if v <= u or v > top:
            continue
        head = anchor[first:first + u - 1]
        blocked = any(x < n for x in head) if klein else any(u <= x + 1 <= v for x in head)
        if blocked:
            continue
        frame = klein_frame(n, u, v) if klein else torus_frame(n, u, v)
        if _noncrossing(img, frame.gamma):
            found.append((u, v))
    return tuple(found) or None


def _member_test(
    fid: NCFamilyId, entry: NCEntry, img: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """Membership of the image of an element of the tag's source stream."""
    if entry.grade is not None and entry.grade(img) != fid.p:
        return None
    if entry.cut is not None:
        return _union_witnesses(fid, entry, img)
    gamma = annulus_cycle(fid.n) if entry.signed else full_cycle(fid.n)
    return () if _noncrossing(img, gamma) else None


def member_witnesses(
    family_id: NCFamilyId, pi: Permutation
) -> tuple[tuple[int, int], ...] | None:
    """Whether ``pi`` belongs to the family, without building the family.

    Returns None for a non-member.  For a member it returns the sorted
    (u, v) witnesses of a union tag, and () for any other tag.  The
    conditions of the family's source stream (ground set, pairing,
    δ-symmetry) are checked here, and then the same per-element test
    that :func:`family_nc` applies to its stream.
    """
    entry = NONCROSSING[family_id.tag]
    n = family_id.n
    if pi.domain != (signed_ground(n) if entry.signed else unsigned_ground(n)):
        return None
    if entry.pairs and not (pi.is_involution() and pi.is_fixed_point_free()):
        return None
    if entry.signed and not _is_delta_symmetric(pi.image):
        return None
    return _member_test(family_id, entry, pi.image)


def family_nc(
    family_id: NCFamilyId,
    *,
    budget: EnumerationBudget | None = None,
) -> NCFamily:
    """Materialize the family named by ``family_id``.

    Members are the elements of the tag's source stream that pass the
    membership test of :func:`member_witnesses`, returned in a canonical
    sorted order; union families also carry their (u, v) witnesses.  A
    budget counts the source elements.
    """
    entry = NONCROSSING.get(family_id.tag)
    if entry is None:
        raise ValueError(f"unknown family tag {family_id.tag!r}")
    if entry.pairs:
        source = signed_symmetric_pairings if entry.signed else pairings
    else:
        source = signed_symmetric_permutations if entry.signed else permutations
    found = {}
    for pi in source(family_id.n, budget=budget):
        witnesses = _member_test(family_id, entry, pi.image)
        if witnesses is not None:
            found[pi] = witnesses
    members = tuple(sorted(found, key=lambda q: q.sort_key()))
    table = tuple(found[pi] for pi in members) if entry.cut else None
    return NCFamily(family_id, members, table)
