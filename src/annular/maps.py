"""One-vertex gluing families: orientable, non-orientable, bipartite, hypermap.

A pairing of [n] glues the sides of an n-gon into an orientable surface
whose genus g is read off Euler's formula: the face count is
#(π⁻¹1ₙ) = n/2 + 1 − 2g.  The family ``a(n, g)`` collects the pairings
of each genus.

Non-orientable gluings are encoded on ±[n]: a mirror-symmetric pairing
τ₁ (no (r,−r) pair) describes an n-gon whose sides are glued pairwise,
Möbius-twisted exactly on the pairs {a, b} with τ₁(a) = b > 0.  The
boundary walk is τ₂τ₁ (two cycles per boundary component), and the
Euler genus k — 2 minus the Euler characteristic — satisfies
#(τ₂τ₁) = n + 2 − 2k.  The family ``b(n, k)`` collects the gluings
with at least one twist; twist-free gluings are orientable and are
counted by ``a`` instead.

Bipartite refinements (for Gram-matrix ensembles) restrict to gluings
whose half-edge colouring alternates: on [2n] every pair joins an even
label to an odd one; on ±[2n] the black set B(n) = odd positives ∪
even negatives is preserved.  The grade p counts white vertices: the
cycles of the face walk supported on odd labels (orientable) or half
the cycles of τ₂τ₁ supported on the white labels (non-orientable).

Hypermap forms shrink the white vertices to points: an orientable
bipartite pairing of [2n] becomes a permutation of [n]; a
non-orientable bipartite gluing of ±[2n] becomes a mirror-symmetric
permutation of ±[n].  ``hypermap_*`` implement these reductions on
index images, and the families â and b̂ are defined directly on
permutations — the test suite checks that the reductions are
grade-preserving bijections.

Every statistic (genus, Euler genus, both twists, both white grades)
has one private kernel working on raw index images against the cached
frames; the public functions taking a :class:`Permutation` are thin
wrappers over them.  The kernels count cycles only through the shared
index-space kernels of :mod:`annular.perms` (which also holds the
δ-symmetry test) and read the walks, colour masks and colour tests
cached in :mod:`annular.frames`, the same ones the Wick sum and the
non-crossing side read; this module imports neither of those routes.

Each gluing family is one :class:`Gluing` of :data:`GLUINGS`, keyed by
its CLI tag.  Each Euler relation has one kernel, read by the per-image
key, the batched key and the prefix pass: ``_orientable_genus`` for a, ã
and â, ``_euler_genus`` for b, b̃ and b̂ (â and b̂ as the bipartite gluings
they reduce to), raising ``ValueError`` on a count no gluing has.  A
batched row failing its colour or parity goes to the per-image key.
:func:`gluing_counts` only tallies the grades, and is the one histogram
of each family.  :func:`gluing_groups` is the one row pass: each grade's
members as a read-only array of index images in stream order.  Only
:func:`gluing_family` builds member objects, for its one grade.  Every
count and group gives its grades in ascending order.  All check the tag
and n ≥ 1 before any stream starts.  A row pass is kept for the process
by the one-block rule of :func:`annular.streams._kept_pass`.
:func:`gluing_key` applies the per-image key to one permutation; the
tests hold it to the batched kernel row by row.  The ``family_*`` names
are shorthands for callers outside the package.

:func:`gluing_counts` counts a, ã, â and b by stream prefix
(:func:`annular.perms._prefix_cycle_counts`), building no row.  The
counts of a, ã, â and b are capped on the prefixes run and reach past
the row pass: a to [20], ã and â to n = 12, b to ±[14].  b counts a
prefix with no twisted pair without its untwisted completions, so b is
not read off the Wick sum.  Each count goes through the relation kernel
of the keys, so a count no gluing has raises in place.  b̃ and b̂ are
tallied by the row pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator

import numpy as np

from .frames import (
    annulus_cycle,
    black_labels,
    black_mask,
    full_cycle,
    gamma_walk,
    keeps_black,
    odd_mask,
    sends_into,
    tau2,
    white_labels,
)
from .perms import (
    GroundSet,
    Pairing,
    Permutation,
    _check_integer,
    _coloured_cycle_count,
    _compose_images,
    _cycle_count,
    _cycle_counts,
    _inverse_image,
    _is_delta_symmetric,
    _key_counts,
    _num_cycles_image,
    _prefix_cycle_counts,
    compose,
    signed_ground,
    unsigned_ground,
)
from .streams import (
    EnumerationBudget,
    _bipartite_pairing_blocks,
    _bipartite_signed_symmetric_pairing_blocks,
    _kept_pass,
    _pairings_of_blocks,
    _permutations_of_blocks,
    _prefixes,
    _signed_symmetric_pairings_blocks,
    _signed_symmetric_permutations_blocks,
)

__all__ = [
    "orientable_genus",
    "nonorientable_euler_genus",
    "has_twist",
    "Gluing",
    "GLUINGS",
    "gluing_groups",
    "gluing_counts",
    "gluing_family",
    "gluing_key",
    "family_a",
    "family_b",
    "family_a_counts",
    "family_b_counts",
    "is_bipartite_pairing",
    "is_bipartite_signed_pairing",
    "orientable_white_grade",
    "nonorientable_white_grade",
    "family_a_tilde",
    "family_b_tilde",
    "family_a_tilde_counts",
    "family_b_tilde_counts",
    "family_a_hat",
    "family_b_hat",
    "hypermap_from_bipartite_orientable",
    "hypermap_from_bipartite_nonorientable",
]


class MonochromaticityError(AssertionError):
    """A boundary-walk cycle mixed black and white labels.

    Cannot happen for genuinely bipartite gluings; raising instead of
    silently counting guards against calling a graded operation on an
    object that is not actually bipartite.
    """


# ---------------------------------------------------------------------------
# index-space kernels
#
# Each statistic is computed once, here, on a raw image tuple.  The face
# walk π⁻¹1ₙ is traversed as its inverse 1ₙ⁻¹π (same cycles, no inverse
# of π needed); the boundary walk is τ₂τ₁ itself.
# ---------------------------------------------------------------------------

def _half(twice, count, message: str, ground: int):
    """``twice // 2`` of an int or int array, else ``ValueError`` naming the first bad ``count``."""
    bad = (twice < 0) | (twice % 2 == 1)
    many = isinstance(bad, np.ndarray)  # an int makes no numpy call
    if bad.any() if many else bad:
        raise ValueError(message.format(count[bad.argmax()] if many else count, ground))
    return twice // 2


def _orientable_genus(size: int, faces):
    """g of a one-vertex gluing of [size] from its face count (an int or int array)."""
    message = "impossible face count {} for a one-vertex gluing of [{}]"
    return _half(size // 2 + 1 - faces, faces, message, size)


def _euler_genus(n: int, boundary):
    """k of a gluing of ±[n] from its boundary count (an int or int array)."""
    message = "impossible boundary count {} for a gluing of ±[{}]"
    return _half(n + 2 - boundary, boundary, message, n)


def _has_twist(img: tuple[int, ...], first_positive: int) -> bool:
    """Some positive label maps to a positive one.

    Positive labels hold the indices from ``first_positive`` on: n on
    ±[n], 0 on [n].
    """
    return any(j >= first_positive for j in img[first_positive:])


def _has_hat_twist(img: tuple[int, ...]) -> bool:
    """On ±[n]: some positive label (index ≥ n) maps to a negative one."""
    n = len(img) // 2
    return any(j < n for j in img[n:])


def _orientable_faces(img: tuple[int, ...]) -> tuple[int, int]:
    """(faces, odd-supported faces) of a bipartite pairing, from one face walk."""
    size, walk = len(img), gamma_walk(full_cycle(len(img)))[0]
    counts = _coloured_cycle_count(walk, img, odd_mask(size))
    if counts is None:  # the faces π⁻¹1ₙ, the inverse of the walk read
        faces = _inverse_image(_compose_images(walk, img))
        _raise_mixed_cycle(Permutation._make(unsigned_ground(size), faces), range(1, size + 1, 2))
    return counts


def _nonorientable_boundaries(img: tuple[int, ...]) -> tuple[int, int]:
    """(boundaries, half the white ones) of a bipartite gluing, from one walk."""
    n = len(img) // 2
    counts = _coloured_cycle_count(tau2(n).image, img, black_mask(n)[1])
    if counts is None:
        tau1 = Permutation._make(signed_ground(n), img)
        _raise_mixed_cycle(compose(tau2(n), tau1), black_labels(n // 2))
    boundary, black_cycles = counts
    white_cycles = boundary - black_cycles  # B and W split ±[n]
    if white_cycles % 2:
        raise ValueError(
            f"white boundary count {white_cycles} is odd; "
            "expected mirror-paired boundary walks"
        )
    return boundary, white_cycles // 2


def _raise_mixed_cycle(perm: Permutation, black) -> None:
    """Raise for the first cycle (by minimal label) mixing the colour classes.

    Reached only after a kernel met a mixed cycle; it rebuilds the label
    cycles so the message names the cycle as before.
    """
    black = set(black)
    for cyc in perm.cycles():
        in_black = sum(1 for x in cyc if x in black)
        if in_black not in (0, len(cyc)):
            raise MonochromaticityError(
                f"cycle {cyc} mixes colour classes; object is not bipartite"
            )
    raise AssertionError("no mixed cycle found")


def _same_ground(perm: Permutation, frame: Permutation) -> None:
    if perm.domain != frame.domain:
        raise ValueError("compose requires equal ground sets")


def _check_gluing(pi: Permutation, frame: Permutation) -> None:
    """``ValueError`` unless ``pi`` is a pairing on ``frame``'s ground, δ-symmetric on ±[n]."""
    _same_ground(pi, frame)
    if not (pi.is_involution() and pi.is_fixed_point_free()):
        raise ValueError("a genus requires a pairing: a fixed-point-free involution")
    if pi.domain.kind == GroundSet.SIGNED and not _is_delta_symmetric(pi.image):
        raise ValueError("an Euler genus requires a δ-symmetric pairing")


# ---------------------------------------------------------------------------
# genus / Euler genus
# ---------------------------------------------------------------------------

def orientable_genus(pi: Pairing) -> int:
    """Genus of the orientable one-vertex gluing encoded by a pairing of [n]."""
    _check_gluing(pi, full_cycle(pi.domain.n))
    return _a_key(pi.image)[0]


def nonorientable_euler_genus(tau1: Pairing) -> int:
    """Euler genus k of the gluing encoded by a mirror-symmetric pairing of ±[n].

    #(τ₂τ₁) = n + 2 − 2k; k = 1 is the projective plane, k = 2 the
    Klein bottle.  Only meaningful for mirror-symmetric pairings with
    at least one twist (otherwise the gluing is orientable and the
    right invariant is :func:`orientable_genus` of its positive part).
    """
    n = tau1.domain.n
    _check_gluing(tau1, tau2(n))
    return _euler_genus(n, _cycle_count(tau2(n).image, tau1.image))


def has_twist(tau1: Permutation) -> bool:
    """True iff some positive label maps to a positive label (a Möbius pair)."""
    dom = tau1.domain
    return _has_twist(tau1.image, dom.size - dom.n)


# ---------------------------------------------------------------------------
# bipartite structure
# ---------------------------------------------------------------------------

def is_bipartite_pairing(pi: Pairing) -> bool:
    """On [2n]: every pair joins an even label with an odd label."""
    return sends_into(pi.image, odd_mask(pi.domain.size))


def is_bipartite_signed_pairing(tau1: Permutation) -> bool:
    """On ±[2n]: the black set B(n) is carried to itself."""
    return keeps_black(tau1.image)


def orientable_white_grade(pi: Pairing) -> int:
    """p = number of odd-supported face cycles of a bipartite pairing of [2n]."""
    _same_ground(pi, full_cycle(pi.domain.n))
    return _orientable_faces(pi.image)[1]


def nonorientable_white_grade(tau1: Pairing) -> int:
    """p with 2p = number of white-supported boundary cycles on ±[2n]."""
    _same_ground(tau1, tau2(2 * (tau1.domain.n // 2)))
    return _nonorientable_boundaries(tau1.image)[1]


# ---------------------------------------------------------------------------
# the gluing families: one table
#
# Each family is a source stream of index images and a key kernel mapping
# an image to its grade tuple (None: in no family of the tag), batched below.
# ---------------------------------------------------------------------------

def _a_key(img: tuple[int, ...]) -> tuple[int]:
    size = len(img)
    return (_orientable_genus(size, _cycle_count(gamma_walk(full_cycle(size))[0], img)),)


def _b_key(img: tuple[int, ...]) -> tuple[int] | None:
    n = len(img) // 2
    return (_euler_genus(n, _cycle_count(tau2(n).image, img)),) if _has_twist(img, n) else None


def _a_tilde_key(img: tuple[int, ...]) -> tuple[int, int]:
    faces, p = _orientable_faces(img)
    return _orientable_genus(len(img), faces), p


def _b_tilde_key(img: tuple[int, ...]) -> tuple[int, int] | None:
    if not _has_twist(img, len(img) // 2):
        return None
    boundary, p = _nonorientable_boundaries(img)
    return _euler_genus(len(img) // 2, boundary), p


def _a_hat_key(img: tuple[int, ...]) -> tuple[int, int]:
    """(g, p) with #(π) = p; g is that of the bipartite gluing of [2n] with #π + #(π⁻¹1ₙ) faces."""
    n = len(img)
    p = _num_cycles_image(img)
    return _orientable_genus(2 * n, p + _cycle_count(gamma_walk(full_cycle(n))[0], img)), p


def _b_hat_key(img: tuple[int, ...]) -> tuple[int, int] | None:
    """(k, p) with #(τ₁) = 2p; k ≥ 1 is that of the gluing of ±[2n] with #τ₁ + #(1̃ₙτ₁) boundaries.

    None as well without the hypermap twist.  Both counts are even on a
    δ-symmetric τ₁: #(τ₁) by its mirror-paired cycles, and 1̃ₙτ₁ = τ₂σ
    for the pairing σ = τ₀τ₁, a product of two fixed-point-free
    involutions.  An odd one raises ``ValueError``.
    """
    n = len(img) // 2
    cycles = _num_cycles_image(img)
    boundary = _cycle_count(annulus_cycle(n).image, img)
    if cycles % 2 or boundary % 2:
        raise ValueError(f"odd cycle count #(τ₁) = {cycles} or #(1̃ₙτ₁) = {boundary} on ±[{n}]")
    k = _euler_genus(2 * n, cycles + boundary)
    return (k, cycles // 2) if k >= 1 and _has_hat_twist(img) else None


# The same keys, batched: each maps a block of images to its member rows, as
# an index into the block (a row mask, or every row), and their grade rows, in
# row order.  The b and b̂ kernels walk the whole block, since few of its rows
# drop, so a pass that only tallies grades copies no rows; b̃ drops its many
# untwisted rows first.  Each grades its count arrays by the per-image key's
# kernel, _orientable_genus or _euler_genus; a row that key would reject for
# its colour or parity is handed to it, so both raise the same error.

#: The index of every row of a block.
_EVERY = slice(None)


def _raise_at_first(key: Callable, block: np.ndarray, bad: np.ndarray) -> None:
    """Run the per-image ``key`` on the first ``bad`` row of ``block``, which raises."""
    if bad.any():
        key(tuple(block[bad.argmax()].tolist()))
        raise AssertionError("the batched and per-image keys disagree")


def _twisted(block: np.ndarray) -> np.ndarray:
    """Per row on ±[n]: some positive label maps to a positive one (:func:`_has_twist`)."""
    n = block.shape[1] // 2
    return (block[:, n:] >= n).any(axis=1)


def _a_keys(block: np.ndarray) -> tuple[slice, np.ndarray]:
    size = block.shape[1]
    faces = _cycle_counts(gamma_walk(full_cycle(size))[0], block)
    return _EVERY, _orientable_genus(size, faces)[:, None]


def _b_keys(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = block.shape[1] // 2
    twisted = _twisted(block)
    return twisted, _euler_genus(n, _cycle_counts(tau2(n).image, block)[twisted])[:, None]


def _a_tilde_keys(block: np.ndarray) -> tuple[slice, np.ndarray]:
    size = block.shape[1]
    faces, p, mixed = _cycle_counts(gamma_walk(full_cycle(size))[0], block, odd_mask(size))
    _raise_at_first(_a_tilde_key, block, mixed)
    return _EVERY, np.column_stack((_orientable_genus(size, faces), p))


def _b_tilde_keys(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = block.shape[1] // 2
    twisted = _twisted(block)
    block = block[twisted]  # (n/2)! of (n − 1)!! rows are untwisted, 23 % on ±[8]: skip their walk
    boundary, black_cycles, mixed = _cycle_counts(tau2(n).image, block, black_mask(n)[1])
    white_cycles = boundary - black_cycles  # B and W split ±[n]
    _raise_at_first(_b_tilde_key, block, mixed | (white_cycles % 2 == 1))
    return twisted, np.column_stack((_euler_genus(n, boundary), white_cycles // 2))


def _a_hat_keys(block: np.ndarray) -> tuple[slice, np.ndarray]:
    n = block.shape[1]
    p = _cycle_counts(range(n), block)
    faces = _cycle_counts(gamma_walk(full_cycle(n))[0], block)
    return _EVERY, np.column_stack((_orientable_genus(2 * n, p + faces), p))


def _b_hat_keys(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = block.shape[1] // 2
    cycles = _cycle_counts(range(2 * n), block)
    boundary = _cycle_counts(annulus_cycle(n).image, block)
    _raise_at_first(_b_hat_key, block, (cycles | boundary) % 2 == 1)
    k = _euler_genus(2 * n, cycles + boundary)
    member = (block[:, n:] < n).any(axis=1) & (k >= 1)  # the hypermap twist
    return member, np.column_stack((k, cycles // 2))[member]


@dataclass(frozen=True)
class Gluing:
    """One gluing family: its source blocks, ground, grades and key kernels.

    ``source(n, cap, budget)`` yields blocks of index images on ±[size]
    when ``signed``, else on [size], where size is 2n when ``doubled``
    (the bipartite families) and n otherwise.  Its elements are pairings
    when ``pairs``, δ-symmetric when ``signed``, bipartite when
    ``doubled``.  ``key`` maps one image to its grades, named by
    ``grades`` (None: in no family of the tag); it answers one-permutation
    questions.  ``keys`` maps a block to its member rows, as an index into
    the block (a row mask for b, b̃ and b̂, which drop rows; every row
    for the others), and their grade rows, in row order; every row pass
    reads it.  :func:`gluing_counts` reads the streams of a, ã, â and b
    by prefix instead, from their ground and pairing kind.
    """

    source: Callable[..., Iterator[np.ndarray]]
    signed: bool
    doubled: bool
    pairs: bool
    grades: tuple[str, ...]
    key: Callable[[tuple[int, ...]], tuple[int, ...] | None]
    keys: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


#: CLI tag -> gluing family, in CLI order.  Each source is a lambda over
#: a module-level block-stream name, looked up at call time, so a wrapper
#: rebound over that name (a test's call counter) is seen.  Caps apply to
#: the stream's ground; a budget counts the elements the stream yields
#: (for ã/b̃, the bipartite gluings built).
GLUINGS: dict[str, Gluing] = {
    # pairings of [n] by genus g
    "a": Gluing(
        lambda n, cap, budget: _pairings_of_blocks(unsigned_ground(n), cap, budget),
        signed=False, doubled=False, pairs=True, grades=("genus",), key=_a_key, keys=_a_keys,
    ),
    # twisted mirror-symmetric gluings of ±[n] by Euler genus k ≥ 1
    "b": Gluing(
        lambda n, cap, budget: _signed_symmetric_pairings_blocks(n, cap, budget),
        signed=True, doubled=False, pairs=True, grades=("k",), key=_b_key, keys=_b_keys,
    ),
    # bipartite pairings of [2n] by genus g and white grade p
    "a-tilde": Gluing(
        lambda n, cap, budget: _bipartite_pairing_blocks(2 * n, cap, budget),
        signed=False, doubled=True, pairs=True, grades=("genus", "p"),
        key=_a_tilde_key, keys=_a_tilde_keys,
    ),
    # bipartite twisted mirror-symmetric gluings of ±[2n] by (k, p)
    "b-tilde": Gluing(
        lambda n, cap, budget: _bipartite_signed_symmetric_pairing_blocks(2 * n, cap, budget),
        signed=True, doubled=True, pairs=True, grades=("k", "p"),
        key=_b_tilde_key, keys=_b_tilde_keys,
    ),
    # hypermaps: permutations of [n] by genus g and part count p
    "a-hat": Gluing(
        lambda n, cap, budget: _permutations_of_blocks(unsigned_ground(n), cap, budget),
        signed=False, doubled=False, pairs=False, grades=("genus", "p"),
        key=_a_hat_key, keys=_a_hat_keys,
    ),
    # twisted hypermaps: δ-symmetric permutations of ±[n] by (k, p)
    "b-hat": Gluing(
        lambda n, cap, budget: _signed_symmetric_permutations_blocks(n, cap, budget),
        signed=True, doubled=False, pairs=False, grades=("k", "p"),
        key=_b_hat_key, keys=_b_hat_keys,
    ),
}


def _entry(tag: str, n: int | None = None) -> Gluing:
    """``GLUINGS[tag]``; ``ValueError`` for an unknown tag or a given n < 1, before any stream."""
    entry = GLUINGS.get(tag)
    if entry is None:
        raise ValueError(f"unknown gluing family {tag!r}; known: {(*GLUINGS,)}")
    if n is not None and _check_integer("n", n) < 1:
        raise ValueError("n must be a positive integer")
    return entry


def _ground(entry: Gluing, n: int) -> GroundSet:
    """The ground of ``entry``'s members at size n: ±[size] or [size], size 2n when doubled."""
    size = 2 * n if entry.doubled else n
    return signed_ground(size) if entry.signed else unsigned_ground(size)


#: (tag, n) -> the :func:`gluing_groups` pass kept by the rule of
#: :func:`annular.streams._kept_pass`.  Its rows are read-only.
_GROUPS: dict[tuple[str, int], dict[tuple[int, ...], np.ndarray]] = {}


def gluing_groups(
    tag: str,
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> dict[tuple[int, ...], np.ndarray]:
    """Grade tuple -> the members of family ``tag`` at size n as a read-only
    (m, size) intp array of index images, in stream order, from one pass
    through the batched key kernel; grades in ascending order.  A kept pass
    answers later calls with a new dict over the same arrays."""
    entry = _entry(tag, n)

    def grouped(blocks: Iterator[np.ndarray]) -> dict[tuple[int, ...], np.ndarray]:
        rows = [np.empty((0, _ground(entry, n).size), np.intp)]
        keys = [np.empty((0, len(entry.grades)), np.intp)]
        for block in blocks:
            member, grades = entry.keys(block)
            rows.append(block[member])
            keys.append(grades)
        rows, keys = np.concatenate(rows), np.concatenate(keys)
        codes = np.ravel_multi_index(tuple(keys.T), tuple(keys.max(axis=0, initial=0) + 1))
        result = {}
        for code in np.flatnonzero(np.bincount(codes)).tolist():  # ascending codes and grades
            grade = codes == code
            result[tuple(keys[grade.argmax()].tolist())] = group = rows[grade]
            group.flags.writeable = False
        return result

    source, bounded = partial(entry.source, n, cap, budget), cap is not None or budget is not None
    return dict(_kept_pass(_GROUPS, (tag, n), source, grouped, bounded=bounded))


def gluing_counts(
    tag: str,
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> dict[tuple[int, ...], int]:
    """Histogram grade tuple -> family size, grades ascending, building no member.

    a, ã, â and b are counted by stream prefix, building no row, and each
    count is read by the per-image key's kernel: a cycle count no gluing
    has raises its ``ValueError``, and a prefix that mixes the colour
    classes a ``MonochromaticityError``.  b̃ and b̂ are tallied by the row
    pass, a source block at a time.
    """
    entry = _entry(tag, n)
    if entry.signed and (entry.doubled or not entry.pairs):
        return _key_counts(entry.keys(block)[1] for block in entry.source(n, cap, budget))
    step = 3 if entry.signed else 2 if entry.doubled else int(entry.pairs)
    size = 2 * n if entry.doubled else n
    prefixes = _prefixes(step, _ground(entry, n), cap, budget)  # refuses n before any walk is built
    # k from the boundaries (b); g from the faces (a), the odd and even faces
    # (ã), or the parts and faces of â, the bipartite gluing of [2n] it reduces
    # to.  The grade p is the first count
    if entry.signed:
        walk, genus = tau2(n).image, partial(_euler_genus, n)
    else:
        walk = gamma_walk(full_cycle(size))[0]
        genus = partial(_orientable_genus, size if entry.pairs else 2 * size)
    colour = odd_mask(size) if entry.doubled else None
    counts = _prefix_cycle_counts(walk, *prefixes, colour, entry.signed)
    if counts is None:
        raise MonochromaticityError(
            f"a face walk mixes colour classes on a prefix of the bipartite pairings of [{size}]"
        )
    graded = len(entry.grades) - 1
    return dict(sorted(((genus(sum(c)), *c[:graded]), cnt) for c, cnt in counts.items()))


def _grade_rows(tag: str, n: int, grade: tuple[int, ...], cap=None, budget=None) -> np.ndarray:
    """The rows of :func:`gluing_family`: grade ``grade`` of one :func:`gluing_groups`
    pass.  ``grade`` holds one integer per name in the entry's grades; a
    genus needs g ≥ 0, an Euler genus k ≥ 1, and a grade p ≥ 1."""
    entry = _entry(tag, n)
    if len(grade) != len(entry.grades):
        raise ValueError(f"family {tag} takes the grades {entry.grades}, got {grade!r}")
    grade = tuple(map(_check_integer, entry.grades, grade))
    if entry.grades[0] == "genus" and grade[0] < 0:
        raise ValueError("genus g must be >= 0")
    if entry.grades[0] == "k" and grade[0] < 1:
        twisted = "gluings" if entry.pairs else "hypermaps"
        raise ValueError(f"Euler genus k must be >= 1 for twisted {twisted}")
    if entry.grades[-1] == "p" and grade[-1] < 1:
        raise ValueError(f"family {tag} requires a grade p >= 1")
    none = np.empty((0, _ground(entry, n).size), np.intp)
    if tag == "a" and n % 2:
        return none  # [n] has no pairing: empty before any cap check
    return gluing_groups(tag, n, cap=cap, budget=budget).get(grade, none)


def gluing_family(
    tag: str,
    n: int,
    grade: tuple[int, ...],
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> tuple[Permutation, ...]:
    """Members of family ``tag`` at size n and grades ``grade``, in stream order:
    the rows of its :func:`_grade_rows` built as objects, Pairings if the
    family holds pairings.  The one builder of gluing members."""
    rows, entry = _grade_rows(tag, n, grade, cap, budget), GLUINGS[tag]
    make = partial(Pairing._make if entry.pairs else Permutation._make, _ground(entry, n))
    return tuple(map(make, map(tuple, rows.tolist())))


def gluing_key(tag: str, pi: Permutation) -> tuple[int, ...] | None:
    """π's grades in family ``tag``, or None when π is in none of its families.

    The size comes from π's ground.  The conditions of the source stream
    (ground, pairing, δ-symmetry — on a pairing, mirror symmetry with no
    (r,−r) pair, which forces an even n — and the bipartite colouring)
    are checked first, then the per-image key kernel, the one-row form of
    the batched kernel of :func:`gluing_groups`: π's image is a row of
    ``gluing_groups(tag, n)[key]`` exactly when this returns key.
    """
    entry = _entry(tag)
    if pi.domain.kind != (GroundSet.SIGNED if entry.signed else GroundSet.UNSIGNED):
        return None
    if entry.pairs and not (pi.is_involution() and pi.is_fixed_point_free()):
        return None
    if entry.signed and not _is_delta_symmetric(pi.image):
        return None
    if entry.doubled and not (
        is_bipartite_signed_pairing(pi) if entry.signed else is_bipartite_pairing(pi)
    ):
        return None
    return entry.key(pi.image)


def family_a(n: int, g: int, *, cap=None, budget=None) -> tuple[Pairing, ...]:
    """Pairings of [n] of genus g, in stream order."""
    return gluing_family("a", n, (g,), cap=cap, budget=budget)


def family_a_counts(n: int, *, cap=None, budget=None) -> dict[int, int]:
    """Histogram g -> |a(n, g)| in one pass over the pairing stream."""
    return {g: c for (g,), c in gluing_counts("a", n, cap=cap, budget=budget).items()}


def family_b(n: int, k: int, *, cap=None, budget=None) -> tuple[Pairing, ...]:
    """Twisted mirror-symmetric gluings of ±[n] of Euler genus k ≥ 1."""
    return gluing_family("b", n, (k,), cap=cap, budget=budget)


def family_b_counts(n: int, *, cap=None, budget=None) -> dict[int, int]:
    """Histogram k -> |b(n, k)| over the twisted mirror-symmetric gluings."""
    return {k: c for (k,), c in gluing_counts("b", n, cap=cap, budget=budget).items()}


def family_a_tilde(n: int, g: int, p: int, *, cap=None, budget=None) -> tuple[Pairing, ...]:
    """Bipartite pairings of [2n] with genus g and white grade p, in stream order."""
    return gluing_family("a-tilde", n, (g, p), cap=cap, budget=budget)


def family_a_tilde_counts(n: int, *, cap=None, budget=None) -> dict[tuple[int, int], int]:
    """Histogram (g, p) -> |ã(n, g, p)| in one pass."""
    return gluing_counts("a-tilde", n, cap=cap, budget=budget)


def family_b_tilde(n: int, k: int, p: int, *, cap=None, budget=None) -> tuple[Pairing, ...]:
    """Bipartite twisted mirror-symmetric gluings of ±[2n], Euler genus k, grade p."""
    return gluing_family("b-tilde", n, (k, p), cap=cap, budget=budget)


def family_b_tilde_counts(n: int, *, cap=None, budget=None) -> dict[tuple[int, int], int]:
    """Histogram (k, p) -> |b̃(n, k, p)| in one pass."""
    return gluing_counts("b-tilde", n, cap=cap, budget=budget)


def family_a_hat(n: int, g: int, p: int, *, cap=None, budget=None) -> tuple[Permutation, ...]:
    """Permutations of [n] with #(π) = p and #(π⁻¹1ₙ) = n − p + 1 − 2g."""
    return gluing_family("a-hat", n, (g, p), cap=cap, budget=budget)


def family_b_hat(n: int, k: int, p: int, *, cap=None, budget=None) -> tuple[Permutation, ...]:
    """Twisted hypermaps on ±[n] with Euler genus k ≥ 1 and #(τ₁) = 2p."""
    return gluing_family("b-hat", n, (k, p), cap=cap, budget=budget)


# ---------------------------------------------------------------------------
# reductions (bipartite gluing -> hypermap)
# ---------------------------------------------------------------------------

def hypermap_from_bipartite_orientable(pi: Pairing) -> Permutation:
    """Shrink white vertices of a bipartite pairing of [2n]: π'(u) = (π(2u)+1)/2."""
    if not is_bipartite_pairing(pi):
        raise ValueError("reduction requires a bipartite pairing of [2n]")
    # label 2u sits at index 2u − 1, an odd o at o − 1, and (o + 1)/2 at (o − 1)/2
    return Permutation(unsigned_ground(pi.domain.n // 2), [j // 2 for j in pi.image[1::2]])


@cache
def _white_walk(m: int) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """The relabelling h: W(m) -> ±[m] on indices, as the index in ±[2m] of h⁻¹
    of each index of ±[m], and h·τ₂ as an index table on ±[2m] (−1 off W(m))."""
    big, small = signed_ground(2 * m), signed_ground(m)
    h = {big.index(w): small.index((1 - w) // 2 if w % 2 else -w // 2) for w in white_labels(m)}
    return tuple(sorted(h, key=h.get)), tuple(h.get(j, -1) for j in tau2(2 * m).image)


def hypermap_from_bipartite_nonorientable(tau1: Pairing) -> Permutation:
    """Shrink white vertices of a bipartite gluing of ±[2n] to a map on ±[n].

    The white half of the boundary walk τ₂τ₁ is carried along the
    relabelling h(w) = (|w|+1)/2 for odd |w|, −|w|/2 for even |w|,
    which is a bijection from W(n) onto ±[n].
    """
    m = tau1.domain.n // 2
    if tau1.domain != signed_ground(2 * m) or not is_bipartite_signed_pairing(tau1):
        raise ValueError("reduction requires a bipartite gluing of ±[2n]")
    white, walk = _white_walk(m)
    return Permutation(signed_ground(m), [walk[tau1.image[w]] for w in white])
