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

Each family is defined once, as one :class:`NCEntry` of
:data:`NONCROSSING`.  NC, NC2, NC2delta and NC2delta_bip are built from
their structure (Biane's blocks, Mingo and Nica's through-strings), each
capped on the entries of the table it holds and budgeted in rows; the
other sources filter a whole stream.
A member passes one test: the source conditions, its grade and the
non-crossing condition.  :func:`_membership` applies its per-image form
to one permutation (the grade by the family's kernel, the condition by
:func:`_noncrossing`, which :func:`is_noncrossing` wraps); it answers
:func:`member_witnesses` and the CLI's ``classify``.  :func:`_scan`
applies the batched form, :func:`_noncrossing_rows`, to each row of a
block against the disk or annulus frame, or against a union's open cuts
(:func:`_open_frames`).  :func:`nc_groups` runs a source through it
once, keeping every grade's members as rows, and :func:`family_nc`
looks one grade up in that pass: an :class:`NCFamily` holds the rows as
a sorted array of index images and builds member objects only on first
use.  Passes are kept by the rule of :func:`annular.streams._kept_pass`.
Both forms read the frames, colour masks and :func:`gamma_walk` records
(walk, cycle count and sides of each γ) of :mod:`annular.frames`;
nothing here comes from the gluing side (:mod:`annular.maps`), so the
bijection checks remain a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Iterator

import numpy as np

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
    Pairing,
    Permutation,
    _check_integer,
    _coloured_cycle_count,
    _cycle_count,
    _cycle_counts,
    _inverse_image,
    _is_delta_symmetric,
    _join_block_count_images,
    _num_cycles_image,
    signed_ground,
    unsigned_ground,
)
from .streams import (
    _ROWS,
    EnumerationBudget,
    _bipartite_pairing_blocks,
    _capped,
    _images,
    _kept_pass,
    _signed_symmetric_pairings_blocks,
    _white_to_black_pairing_blocks,
    pairings,
    permutations,
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
    "nc_groups",
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
    walk, cycles, _ = gamma_walk(gamma)
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


# The same grades, batched: each maps a block of images and #(π) per row
# to the grade p of each row.  Grades start at 1, so 0 marks a row in no grade.

def _block_cycles(block: np.ndarray) -> np.ndarray:
    """#(π) per row."""
    return _cycle_counts(range(block.shape[1]), block)


def _block_colour_grades(block: np.ndarray, cycles: np.ndarray, *, signed: bool) -> np.ndarray:
    """:func:`_colour_grade` per row: the colour test is a mask, the counts one kernel call."""
    n = block.shape[1] // 2 if signed else block.shape[1]
    colour = black_mask(n)[1] if signed else odd_mask(n)
    walk = gamma_walk(annulus_cycle(n) if signed else full_cycle(n))[0]
    _, inside, mixed = _cycle_counts(walk, block, colour)
    mask = np.frombuffer(colour, dtype=np.bool_)
    bipartite = (mask | mask[block]).all(axis=1) & ~mixed  # sends_into
    if signed:
        bipartite &= inside % 2 == 0
        inside = inside // 2
    return np.where(bipartite, inside, 0)


def _block_half_cycles(block: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    """:func:`_half_cycles` per row."""
    return np.where(cycles % 2, 0, cycles // 2)


_odd_grade = partial(_colour_grade, signed=False)
_black_grade = partial(_colour_grade, signed=True)
_odd_grades = partial(_block_colour_grades, signed=False)
_black_grades = partial(_block_colour_grades, signed=True)


# The disk and annulus families built from their blocks: each table holds
# index images of 0..m−1, is read-only and is cached per size.

def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _joined(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each row of ``left`` followed by each row of ``right`` moved onto the points after it."""
    a = left.shape[1]
    rows = np.empty((len(left), len(right), a + right.shape[1]), np.intp)
    rows[..., :a] = left[:, None]
    rows[..., a:] = right + a
    return rows.reshape(-1, rows.shape[2])


@cache
def _chords(m: int, *, through: bool) -> np.ndarray:
    """Involutions of 0..m−1 with non-crossing pairs, as one read-only table.

    Without ``through`` they have no fixed point: the non-crossing
    pairings, Catalan(m/2) rows in lexicographic order.  With it, their
    fixed points (ends of through-strings) lie inside no pair.  0 is
    fixed (with ``through``) or paired with each j at odd distance; the
    points between them are a pairing, those after filled recursively.
    ``through`` is keyword-only, so each table has one cache entry.
    """
    if m < 2:
        return _frozen(np.zeros((1 if through or not m else 0, m), np.intp))
    parts = [_joined(np.zeros((1, 1), np.intp), _chords(m - 1, through=True))] if through else []
    for j in range(1, m, 2):
        parts.append(_joined(_arches(j), _chords(m - 1 - j, through=through)))
    return _frozen(np.concatenate(parts))


@cache
def _arches(j: int) -> np.ndarray:
    """The pairings of 0..j that pair 0 with j, read-only."""
    inner = _chords(j - 1, through=False)
    ends = np.full((len(inner), 1), j)
    return _frozen(np.concatenate((ends, inner + 1, ends - j), axis=1))


@cache
def _disk_partitions(m: int) -> np.ndarray:
    """The permutations of 0..m−1 non-crossing on the disk (Catalan(m) rows).

    Each cycle is an increasing block of a non-crossing partition.  The
    block of 0 ends at some k: on 0..k, a partition of 0..k−1 with k put
    last in the cycle of 0; the points after k are filled recursively.
    """
    if not m:
        return _frozen(np.zeros((1, 0), np.intp))
    parts = []
    for k in range(m):
        inner = _disk_partitions(k)  # the point sent to 0 now goes to k, and k to 0
        closed = np.column_stack((np.where(inner == 0, k, inner), np.zeros(len(inner), np.intp)))
        parts.append(_joined(closed, _disk_partitions(m - 1 - k)))
    return _frozen(np.concatenate(parts))


@lru_cache(maxsize=4)  # NC2delta_bip reads the rows of NC2delta; ±[16] holds 6.7 MB
def _annulus_pairings(n: int) -> np.ndarray:
    """The δ-symmetric pairings of ±[n] non-crossing on the annulus, as (m, 2n) index images.

    On the positive circle (label q + 1 at index n + q) a member is an
    involution ρ of 0..n−1: its fixed points s_1 < ··· < s_t end the
    through-strings, s_i joined to −s_(i+t/2), its pairs fill each cyclic
    gap between them non-crossingly, and their mirrors the negative
    circle.  ρ is a word (the fixed point 0, then a row of
    ``_chords(n − 1, through=True)``) turned by r places, r at most the
    points after the word's last fixed point (so s_1 = r).  t ≡ n (mod 2):
    odd n has no member, even n has t ≥ 2.
    """
    if n % 2:
        return _frozen(np.empty((0, 2 * n), np.intp))
    words = _joined(np.zeros((1, 1), np.intp), _chords(n - 1, through=True))
    turns = (words == np.arange(n))[:, ::-1].argmax(axis=1) + 1
    word = np.repeat(np.arange(len(words)), turns)
    r = (np.arange(len(word)) - np.repeat(np.cumsum(turns) - turns, turns))[:, None]
    rho = (words[word[:, None], (np.arange(n) - r) % n] + r) % n
    at, s = np.nonzero(rho == np.arange(n))  # each row's fixed points, ascending
    t = np.bincount(at)  # every row has some
    first = (np.cumsum(t) - t)[at]
    partner = s[first + (np.arange(len(s)) - first + t[at] // 2) % t[at]]
    image = np.concatenate(((n - 1 - rho)[:, ::-1], n + rho), axis=1)
    image[at, n + s] = n - 1 - partner
    image[at, n - 1 - partner] = n + s
    return _frozen(image)


def _white_to_black(n: int) -> np.ndarray:
    """The rows of :func:`_annulus_pairings` that send the white labels W(n/2) into B(n/2)."""
    rows, black = _annulus_pairings(n), np.frombuffer(black_mask(n)[1], dtype=np.bool_)
    return rows[(black | black[rows]).all(axis=1)]


# Each built source's work at a ground size: the entries (rows × size) of
# the table it holds whole, 0 where it is empty.  NC holds Catalan(m) rows,
# NC2 Catalan(m/2), and NC2delta, whose table NC2delta_bip filters,
# (4^k − C(2k, k))/2 at n = 2k.

def _disk_entries(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1) * m


def _chord_entries(m: int) -> int:
    return 0 if m % 2 else math.comb(m, m // 2) // (m // 2 + 1) * m


def _annulus_entries(size: int) -> int:
    k, odd = divmod(size, 4)
    return 0 if odd else (4**k - math.comb(2 * k, k)) // 2 * size


def _built(noun: str, signed: bool, build: Callable[[int], np.ndarray], entries):
    """A source of ``build(n)``'s rows in blocks, capped on ``entries``, budgeted in ``noun``s."""

    def source(n: int, budget: EnumerationBudget | None) -> Iterator[np.ndarray]:
        def blocks():
            table = build(n)
            for lo in range(0, len(table), _ROWS):
                yield table[lo : lo + _ROWS]

        ground = signed_ground(n) if signed else unsigned_ground(n)
        return _capped(noun, entries, ground, None, budget, blocks())

    return source


@dataclass(frozen=True)
class NCEntry:
    """One non-crossing family: its CLI tag, source blocks, cut and grade kernels.

    ``source(n, budget)`` yields blocks of index images of permutations
    (or, with ``pairs``, pairings) of [n], or of δ-symmetric ones of ±[n]
    when ``signed``: all of them, or a built set holding the family.
    ``cut`` is None for the disk/annulus frame, else ``"torus"`` or
    ``"klein"``: a union over the cuts (u, v), anchored on π, or on π⁻¹
    when ``hypermap``.  ``grade`` maps an image to its grade p (None: in
    no grade), and ``grades`` a block and #(π) per row to the grade of
    each row (0: in no grade); both are None for an ungraded family.
    ``even_n`` families exist only for even n.
    """

    cli: str
    source: Callable[..., Iterator[np.ndarray]]
    signed: bool = False
    pairs: bool = False
    cut: str | None = None
    hypermap: bool = False
    grade: Callable[[tuple[int, ...]], int | None] | None = None
    grades: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    even_n: bool = False


#: Library tag -> non-crossing family: the unsigned families, then the
#: signed ones, each in the order ``classify`` reports them.  NC, NC2,
#: NC2delta and NC2delta_bip read built rows; every other source is a
#: lambda over a block function or, for NC2T, NCT_p, NCdelta, NCdelta_p
#: and NCK_p, a public stream (perfbench's traced verify run counts only
#: its elements as scanned, and asserts scanned >= kept), looked up at
#: call time, so a wrapper rebound over it (a tracer's) is seen.
NONCROSSING: dict[str, NCEntry] = {
    "NC": NCEntry("nc", _built("permutation", False, _disk_partitions, _disk_entries)),
    "NC2": NCEntry(
        "nc2", _built("pairing", False, partial(_chords, through=False), _chord_entries),
        pairs=True),
    "NC2T": NCEntry(
        "nc2-t", lambda n, budget: _images(pairings(n, budget=budget), n),
        pairs=True, cut="torus"),
    "NC2T_bip": NCEntry(
        "nc2-t-bip", lambda n, budget: _bipartite_pairing_blocks(n, None, budget),
        pairs=True, cut="torus", grade=_odd_grade, grades=_odd_grades, even_n=True),
    "NCT_p": NCEntry(
        "nc-t-p", lambda n, budget: _images(permutations(n, budget=budget), n),
        cut="torus", hypermap=True, grade=_num_cycles_image, grades=lambda block, cycles: cycles),
    "NCdelta": NCEntry(
        "nc-delta",
        lambda n, budget: _images(signed_symmetric_permutations(n, budget=budget), 2 * n),
        signed=True),
    "NC2delta": NCEntry(
        "nc2-delta", _built("signed symmetric pairing", True, _annulus_pairings, _annulus_entries),
        signed=True, pairs=True),
    "NCdelta_p": NCEntry(
        "nc-delta-p",
        lambda n, budget: _images(signed_symmetric_permutations(n, budget=budget), 2 * n),
        signed=True, grade=_half_cycles, grades=_block_half_cycles),
    "NC2K": NCEntry(
        "nc2-k", lambda n, budget: _signed_symmetric_pairings_blocks(n, None, budget),
        signed=True, pairs=True, cut="klein"),
    "NC2K_bip": NCEntry(
        "nc2-k-bip", lambda n, budget: _white_to_black_pairing_blocks(n, None, budget),
        signed=True, pairs=True, cut="klein",
        grade=_black_grade, grades=_black_grades, even_n=True),
    "NCK_p": NCEntry(
        "nc-k-p",
        lambda n, budget: _images(signed_symmetric_permutations(n, budget=budget), 2 * n),
        signed=True, cut="klein", hypermap=True,
        grade=_half_cycles, grades=_block_half_cycles),
    "NC2delta_bip": NCEntry(
        "nc2-delta-bip", _built("white-to-black pairing", True, _white_to_black, _annulus_entries),
        signed=True, pairs=True, grade=_black_grade, grades=_black_grades, even_n=True),
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
        if _check_integer("n", self.n) < 1:
            raise ValueError("n must be a positive integer")
        graded = entry.grade is not None
        if graded and (self.p is None or _check_integer("p", self.p) < 1):
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

    ``rows`` holds the members' index images, a read-only (m, size) intp
    array in lexicographic order; ``members``, membership and ``member_set``
    build objects from it on first use.  ``witness_table`` (union families
    only): entry i lists every (u, v) whose frame admitted row i.
    """

    family_id: NCFamilyId
    rows: np.ndarray = field(repr=False)
    witness_table: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def members(self) -> tuple[Permutation, ...]:
        entry = NONCROSSING[self.family_id.tag]
        ground = (signed_ground if entry.signed else unsigned_ground)(self.family_id.n)
        make = partial(Pairing._make if entry.pairs else Permutation._make, ground)
        return tuple(map(make, map(tuple, self.rows.tolist())))

    @cached_property
    def _index(self) -> dict[Permutation, int]:
        return {pi: i for i, pi in enumerate(self.members)}

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, pi: object) -> bool:
        return pi in self._index

    @cached_property
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
    entry: NCEntry, n: int, img: tuple[int, ...]
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


def _membership(tag: str, n: int, pi: Permutation) -> tuple[int | None, tuple] | None:
    """(p, witnesses) of ``pi`` in family ``tag`` at size n, or None for a non-member.

    p is the grade the family's own kernel reads off π (None for an
    ungraded tag), and the witnesses are the sorted (u, v) of a union tag,
    () for any other.  The conditions of the family's source stream
    (ground set, pairing, δ-symmetry) are checked here, and then the
    per-image form of the test that :func:`_scan` applies to its blocks:
    a grade of at least 1, then the non-crossing condition.
    """
    entry = NONCROSSING[tag]
    if pi.domain != (signed_ground(n) if entry.signed else unsigned_ground(n)):
        return None
    if entry.pairs and not (pi.is_involution() and pi.is_fixed_point_free()):
        return None
    if entry.signed and not _is_delta_symmetric(pi.image):
        return None
    p = entry.grade(pi.image) if entry.grade else None
    if entry.grade and (p is None or p < 1):
        return None
    if entry.cut is not None:
        witnesses = _union_witnesses(entry, n, pi.image)
    else:
        gamma = annulus_cycle(n) if entry.signed else full_cycle(n)
        witnesses = () if _noncrossing(pi.image, gamma) else None
    return None if witnesses is None else (p, witnesses)


def member_witnesses(
    family_id: NCFamilyId, pi: Permutation
) -> tuple[tuple[int, int], ...] | None:
    """Whether ``pi`` belongs to the family, without building the family.

    Returns None for a non-member.  For a member it returns the sorted
    (u, v) witnesses of a union tag, and () for any other tag: those of
    :func:`_membership` when the grade it reads is the family's p.
    """
    found = _membership(family_id.tag, family_id.n, pi)
    return found[1] if found is not None and found[0] == family_id.p else None


# The same test, batched over the rows of a block, each against its own frame.

def _noncrossing_rows(
    images: np.ndarray, cycles: np.ndarray, gammas: list[Permutation], which: np.ndarray
) -> np.ndarray:
    """Per row π of ``images``, #(π) in ``cycles``: whether π is non-crossing w.r.t. its frame.

    The batched :func:`_noncrossing`, row i against γ = ``gammas[which[i]]``:
    one kernel call counts the cycles of every row composed with its γ⁻¹
    walk.  On the rows that pass the count, π joins a two-cycle γ iff it
    sends some index across.  A γ of more cycles raises ``ValueError``.
    """
    if not len(images):
        return np.zeros(0, dtype=bool)
    walks, counts, sides = zip(*map(gamma_walk, gammas))
    if (most := max(counts)) > 2:
        raise ValueError(f"the batched join reads frames of one or two cycles, not {most}")
    size, frame, gamma_cycles = images.shape[1], which[:, None], np.array(counts)[which]
    total = cycles + _cycle_counts(range(size), np.array(walks)[frame, images]) + gamma_cycles
    fits = total == size + 2
    if most == 2:
        two = fits & (gamma_cycles == 2)
        sides = np.array(sides)
        fits[two] = (sides[frame[two], images[two]] != sides[which[two]]).any(axis=1)
    return fits


def _open_frames(
    entry: NCEntry, n: int, block: np.ndarray
) -> tuple[np.ndarray, list[Permutation], list[tuple[int, int]] | None, np.ndarray]:
    """The (row, frame) pairs of ``block`` to test: rows, distinct γ, their cuts, each pair's γ.

    Off the unions: every row with the disk or annulus frame, and no cut.
    On a union: the open cuts of :func:`_union_witnesses` over a block,
    where the anchor columns name v for every (row, u) at once and the
    head condition is one mask over (row, u, a < u).  Pairs come row by
    row, u by u within a row; the cuts are in (u, v) order.
    """
    rows, size = block.shape
    if entry.cut is None:
        gamma = annulus_cycle(n) if entry.signed else full_cycle(n)
        return np.arange(rows), [gamma], None, np.zeros(rows, np.intp)
    klein = entry.cut == "klein"
    anchor = block
    if entry.hypermap:
        anchor = np.empty_like(block)
        anchor[np.arange(rows)[:, None], block] = np.arange(size)
    top = n if klein else n - 1
    first = n if klein else 0
    j = anchor[:, first:first + top]  # per row, the anchor of each label u = 1..top
    u = np.arange(1, top + 1)
    v = n - j if klein else j + 1
    open_ = (u < v) & (v <= top)
    if klein:  # some a < u has a negative anchor
        open_[:, 1:] &= ~np.logical_or.accumulate(j < n, axis=1)[:, :-1]
    else:  # some a < u has anchor(a) in [u, v]: [row, u, a]
        head = j[:, None, :] + 1
        below = np.arange(top) < u[:, None] - 1
        open_ &= ~(below & (u[:, None] <= head) & (head <= v[:, :, None])).any(axis=2)
    at, col = np.nonzero(open_)  # no cut is open on [1], [2] and ±[1]
    distinct, which = np.unique((col + 1) * (top + 1) + v[at, col], return_inverse=True)
    cuts = [divmod(cut, top + 1) for cut in distinct.tolist()]
    build = klein_frame if klein else torus_frame
    return at, [build(n, *cut).gamma for cut in cuts], cuts, which


def _scan(
    tag: str, n: int, blocks: Iterator[np.ndarray]
) -> dict[int | None, tuple[np.ndarray, tuple | None]]:
    """Grade -> (member rows, witness table) of ``tag`` at size n, from one pass over ``blocks``.

    The blocks are tested one at a time, and every grade ≥ 1 is kept: a
    row in no grade drops before any frame is built.  An ungraded tag's
    key is None.  Each grade's rows are sorted by image; its witness table
    (None off the unions) lists each row's admitting cuts.
    """
    entry = NONCROSSING[tag]
    size = 2 * n if entry.signed else n
    images, keys, table = [np.empty((0, size), np.intp)], [np.empty(0, np.intp)], []
    for block in blocks:
        cycles = np.full(len(block), block.shape[1] // 2) if entry.pairs else _block_cycles(block)
        grades = np.zeros(len(block), np.intp)
        if entry.grades is not None:
            grades = entry.grades(block, cycles)
            keep = grades > 0
            block, grades, cycles = block[keep], grades[keep], cycles[keep]
        at, gammas, cuts, which = _open_frames(entry, n, block)
        admitted = _noncrossing_rows(block[at], cycles[at], gammas, which)
        at, which = at[admitted], which[admitted]
        kept = np.flatnonzero(np.bincount(at, minlength=len(block)))
        images.append(block[kept])
        keys.append(grades[kept])
        if cuts is not None:
            admitting: dict[int, list[tuple[int, int]]] = {}
            for i, j in zip(at.tolist(), which.tolist()):
                admitting.setdefault(i, []).append(cuts[j])
            table += map(tuple, admitting.values())
    images, keys = np.concatenate(images), np.concatenate(keys)
    order = np.lexsort(images.T[::-1])
    found = {}
    for q in np.flatnonzero(np.bincount(keys)).tolist():
        at = order[keys[order] == q]
        rows = images[at]
        rows.flags.writeable = False
        witnesses = tuple(map(table.__getitem__, at)) if entry.cut else None
        found[q if entry.grades else None] = rows, witnesses
    return found


#: (tag, n) -> every grade's family, from a pass kept by the rule of
#: :func:`annular.streams._kept_pass`.  The families are immutable.
_GROUPS: dict[tuple[str, int], dict[int | None, NCFamily]] = {}


def nc_groups(
    tag: str, n: int, *, budget: EnumerationBudget | None = None
) -> dict[int | None, NCFamily]:
    """Grade p -> the family ``NCFamilyId(tag, n, p)``, for every nonempty grade.

    One pass over the tag's source keeps every grade; :func:`family_nc`
    looks its family up here.  An ungraded tag's one key is None.  A
    budget counts the source rows.  A kept pass (see
    :func:`annular.streams._kept_pass`) answers later calls with a new
    dict over the same families.
    """
    entry = NONCROSSING.get(tag)  # NCFamilyId checks the tag and n before the stream
    NCFamilyId(tag, n, 1 if entry and entry.grade else None)

    def scan(blocks: Iterator[np.ndarray]) -> dict[int | None, NCFamily]:
        found = _scan(tag, n, blocks)
        return {q: NCFamily(NCFamilyId(tag, n, q), *found[q]) for q in sorted(found)}

    # the source checks its cap before any frame of size n
    source = partial(entry.source, n, budget)
    return dict(_kept_pass(_GROUPS, (tag, n), source, scan, bounded=budget is not None))


def family_nc(
    family_id: NCFamilyId,
    *,
    budget: EnumerationBudget | None = None,
) -> NCFamily:
    """Materialize the family named by ``family_id``.

    Members are the rows of the tag's source that pass the
    membership test of :func:`member_witnesses`, returned in a canonical
    sorted order; union families also carry their (u, v) witnesses.  A
    budget counts the source rows.  This is the family of grade p
    in :func:`nc_groups`.
    """
    groups = nc_groups(family_id.tag, family_id.n, budget=budget)
    if family_id.p in groups:
        return groups[family_id.p]
    entry = NONCROSSING[family_id.tag]
    none = np.empty((0, (2 if entry.signed else 1) * family_id.n), np.intp)
    return NCFamily(family_id, none, () if entry.cut else None)
