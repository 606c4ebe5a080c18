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
  odd-supported cycles of π⁻¹1ₙ (torus).  The torus union keeps only
  v − u odd, the Klein union only v − u even.
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

Each family is defined once, as a test on one element: the conditions
of its source stream (the permutations or pairings of [n], or the
δ-symmetric ones of ±[n]), the grade, and the non-crossing condition.
For a union tag the anchor fixes v from u, so each u names at most one
cut, and only a cut that passes the head condition has its frame
built.  :func:`member_witnesses` applies the test to any permutation;
:func:`family_nc` runs the source stream through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frames import annulus_cycle, full_cycle, klein_frame, torus_frame
from .maps import _is_delta_symmetric, black_labels, black_mask, is_bipartite_pairing
from .perms import (
    GroundSet,
    Permutation,
    compose,
    inverse,
    is_jointly_transitive,
    join_block_count,
    num_cycles,
    restricted_cycle_count,
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
    "NCFamilyId",
    "NCFamily",
    "family_nc",
    "member_witnesses",
    "UNGRADED_TAGS",
    "GRADED_TAGS",
    "UNION_TAGS",
    "ALL_TAGS",
]

UNGRADED_TAGS = ("NC", "NC2", "NCdelta", "NC2delta", "NC2T", "NC2K")
GRADED_TAGS = (
    "NC2delta_bip",
    "NC2T_bip",
    "NC2K_bip",
    "NCdelta_p",
    "NCT_p",
    "NCK_p",
)
ALL_TAGS = UNGRADED_TAGS + GRADED_TAGS
UNION_TAGS = ("NC2T", "NC2K", "NC2T_bip", "NC2K_bip", "NCT_p", "NCK_p")

_EVEN_N_TAGS = ("NC2delta_bip", "NC2T_bip", "NC2K_bip")


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _require_same_domain(pi: Permutation, gamma: Permutation) -> None:
    if pi.domain != gamma.domain:
        raise ValueError(
            f"domain mismatch: {pi.domain} vs {gamma.domain}"
        )


def is_noncrossing(pi: Permutation, gamma: Permutation) -> bool:
    """Joint transitivity plus the genus-zero cycle-count identity."""
    _require_same_domain(pi, gamma)
    if not is_jointly_transitive(pi, gamma):
        return False
    n = pi.domain.size
    total = num_cycles(pi) + num_cycles(compose(inverse(pi), gamma)) + num_cycles(gamma)
    return total == n + 2


def euler_defect(pi: Permutation, gamma: Permutation) -> int:
    """n + 2·#(π∨γ) − (#(π) + #(π⁻¹γ) + #(γ)); non-negative and even."""
    _require_same_domain(pi, gamma)
    n = pi.domain.size
    total = num_cycles(pi) + num_cycles(compose(inverse(pi), gamma)) + num_cycles(gamma)
    return n + 2 * join_block_count(pi, gamma) - total


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
# family identifiers and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NCFamilyId:
    """Identifier for a non-crossing family: a tag, the size n, a grade p."""

    tag: str
    n: int
    p: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}; known: {ALL_TAGS}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        graded = self.tag in GRADED_TAGS
        if graded and (self.p is None or self.p < 1):
            raise ValueError(f"family {self.tag} requires a grade p >= 1")
        if not graded and self.p is not None:
            raise ValueError(f"family {self.tag} takes no grade")
        if self.tag in _EVEN_N_TAGS and self.n % 2:
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


def _finalize(
    family_id: NCFamilyId,
    found: dict[Permutation, list[tuple[int, int]]] | list[Permutation],
) -> NCFamily:
    if isinstance(found, dict):
        members = tuple(sorted(found, key=lambda q: q.sort_key()))
        table = tuple(tuple(sorted(found[pi])) for pi in members)
        return NCFamily(family_id, members, table)
    members = tuple(sorted(found, key=lambda q: q.sort_key()))
    return NCFamily(family_id, members)


# ---------------------------------------------------------------------------
# membership: one test per tag
# ---------------------------------------------------------------------------

#: The source stream of each tag: (on ±[n], pairings only).  Signed
#: sources are the δ-symmetric pairings / permutations of ±[n].
_SOURCE = {
    "NC": (False, False),
    "NC2": (False, True),
    "NCdelta": (True, False),
    "NC2delta": (True, True),
    "NC2T": (False, True),
    "NC2K": (True, True),
    "NC2delta_bip": (True, True),
    "NC2T_bip": (False, True),
    "NC2K_bip": (True, True),
    "NCdelta_p": (True, False),
    "NCT_p": (False, False),
    "NCK_p": (True, False),
}

_KLEIN_TAGS = ("NC2K", "NC2K_bip", "NCK_p")
_HYPERMAP_TAGS = ("NCT_p", "NCK_p")
#: Required parity of v − u on the bipartite unions.
_CUT_PARITY = {"NC2T_bip": 1, "NC2K_bip": 0}


def _alternating_signed(pi: Permutation, m: int) -> bool:
    """Every white label of ±[2m] is sent into the black set."""
    _, black = black_mask(2 * m)
    img = pi.image
    return all(black[img[i]] for i, b in enumerate(black) if not b)


def _black_grade_doubled(pi: Permutation, m: int) -> int:
    """#((π⁻¹1̃ₙ)|_B(m)) for π on ±[2m]; cycles must be colour-pure."""
    faces = compose(inverse(pi), annulus_cycle(2 * m))
    return restricted_cycle_count(faces, black_labels(m))


def _odd_grade(pi: Permutation) -> int:
    """#((π⁻¹1ₙ)|odds) for π on [n], n even; cycles must be parity-pure."""
    size = pi.domain.n
    faces = compose(inverse(pi), full_cycle(size))
    return restricted_cycle_count(faces, range(1, size, 2))


def _graded(fid: NCFamilyId, pi: Permutation) -> bool:
    """The grade and colour conditions of a graded tag; True for the others."""
    tag, p, m = fid.tag, fid.p, fid.n // 2
    if tag == "NCT_p":
        return num_cycles(pi) == p
    if tag in ("NCdelta_p", "NCK_p"):
        return num_cycles(pi) == 2 * p
    if tag == "NC2T_bip":
        return is_bipartite_pairing(pi) and _odd_grade(pi) == p
    if tag in ("NC2delta_bip", "NC2K_bip"):
        return _alternating_signed(pi, m) and _black_grade_doubled(pi, m) == 2 * p
    return True


def _cut_range(n: int, klein: bool) -> range:
    """Labels a cut u < v may use: up to n on Klein frames, below n on torus ones."""
    return range(1, n + 1 if klein else n)


def _union_witnesses(
    fid: NCFamilyId, pi: Permutation
) -> tuple[tuple[int, int], ...] | None:
    """The cuts (u, v) whose frame admits π, or None when there is none.

    The anchor is π for the pairing unions and π⁻¹ for the hypermap
    unions.  A torus cut needs anchor(u) = v and no a < u with
    anchor(a) in [u, v]; a Klein cut needs anchor(u) = −v and no a < u
    with anchor(a) < 0.  So each u names at most one v, and only a cut
    passing both conditions has its frame built and tested.
    """
    n, tag = fid.n, fid.tag
    klein = tag in _KLEIN_TAGS
    anchor = inverse(pi) if tag in _HYPERMAP_TAGS else pi
    parity = _CUT_PARITY.get(tag)
    cuts = _cut_range(n, klein)
    found = []
    for u in cuts:
        v = -anchor(u) if klein else anchor(u)
        if v <= u or v not in cuts:
            continue
        if parity is not None and (v - u) % 2 != parity:
            continue
        head = [anchor(a) for a in range(1, u)]
        blocked = any(x < 0 for x in head) if klein else any(u <= x <= v for x in head)
        if blocked:
            continue
        frame = klein_frame(n, u, v) if klein else torus_frame(n, u, v)
        if is_noncrossing(pi, frame.gamma):
            found.append((u, v))
    return tuple(found) or None


def _member_test(
    fid: NCFamilyId, pi: Permutation
) -> tuple[tuple[int, int], ...] | None:
    """Membership of an element of the tag's source stream."""
    if not _graded(fid, pi):
        return None
    if fid.tag in UNION_TAGS:
        return _union_witnesses(fid, pi)
    gamma = annulus_cycle(fid.n) if _SOURCE[fid.tag][0] else full_cycle(fid.n)
    return () if is_noncrossing(pi, gamma) else None


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
    signed, pairs_only = _SOURCE[family_id.tag]
    ground = signed_ground(family_id.n) if signed else unsigned_ground(family_id.n)
    if pi.domain != ground:
        return None
    if pairs_only and not (pi.is_involution() and pi.is_fixed_point_free()):
        return None
    if signed and not is_delta_symmetric(pi):
        return None
    return _member_test(family_id, pi)


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
    tag = family_id.tag
    if tag not in _SOURCE:
        raise ValueError(f"unknown family tag {tag!r}")
    signed, pairs_only = _SOURCE[tag]
    if pairs_only:
        source = signed_symmetric_pairings if signed else pairings
    else:
        source = signed_symmetric_permutations if signed else permutations
    found = {}
    for pi in source(family_id.n, budget=budget):
        witnesses = _member_test(family_id, pi)
        if witnesses is not None:
            found[pi] = witnesses
    return _finalize(family_id, found if tag in UNION_TAGS else list(found))
