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
permutation of ±[n].  ``hypermap_*`` implement these reductions, and
the families â and b̂ are defined directly on permutations — the test
suite checks that the reductions are grade-preserving bijections.

Every statistic (genus, Euler genus, both twists, both white grades)
has one private kernel working on raw index images against the cached
frames; the public functions taking a :class:`Permutation` are thin
wrappers over them.  The kernels count cycles only through the shared
index-space kernels of :mod:`annular.perms` (which also holds the
δ-symmetry test) and read the walks, colour masks and colour tests
cached in :mod:`annular.frames`, the same ones the Wick sum and the
non-crossing side read; this module imports neither of those routes.

Each gluing family is one entry of :data:`GLUINGS`, keyed by its CLI
tag: a source stream of index images (``ã``/``b̃`` read the
constructive bipartite streams of :mod:`annular.streams`, which build
only these gluings instead of filtering all pairings), a ground, grade
names, and one key kernel mapping an image to its grades.
:func:`gluing_groups` and :func:`gluing_counts` run the stream through
the kernel in one pass; :func:`gluing_key` checks the stream's
conditions on one permutation and applies the same kernel, so a
membership it reports is exactly a builder's.  The ``family_*`` names
are one-line shorthands over the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterator

from .frames import (
    annulus_cycle,
    black_labels,
    full_cycle,
    gamma_walk,
    keeps_black,
    odd_mask,
    sends_into,
    tau2,
    white_labels,
    white_mask,
)
from .perms import (
    GroundSet,
    Pairing,
    Permutation,
    _coloured_cycle_count,
    _cycle_count,
    _is_delta_symmetric,
    _num_cycles_image,
    compose,
    inverse,
    signed_ground,
    unsigned_ground,
)
from .streams import (
    EnumerationBudget,
    bipartite_pairing_images,
    bipartite_signed_symmetric_pairing_images,
    pairings,
    permutations,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)

__all__ = [
    "orientable_genus",
    "nonorientable_euler_genus",
    "has_twist",
    "has_hat_twist",
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

def _orientable_genus(img: tuple[int, ...], faces: int | None = None) -> int:
    """g from the face count, walked here unless the caller already has it."""
    size = len(img)
    if faces is None:
        faces = _cycle_count(gamma_walk(full_cycle(size))[0], img)
    twice_genus = size // 2 + 1 - faces
    if twice_genus < 0 or twice_genus % 2:
        raise ValueError(
            f"impossible face count {faces} for a one-vertex gluing of [{size}]"
        )
    return twice_genus // 2


def _euler_genus(img: tuple[int, ...], boundary: int | None = None) -> int:
    """k from the boundary count, walked here unless the caller already has it."""
    n = len(img) // 2
    if boundary is None:
        boundary = _cycle_count(tau2(n).image, img)
    twice_k = n + 2 - boundary
    if twice_k < 0 or twice_k % 2:
        raise ValueError(
            f"impossible boundary count {boundary} for a gluing of ±[{n}]"
        )
    return twice_k // 2


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
    size = len(img)
    counts = _coloured_cycle_count(gamma_walk(full_cycle(size))[0], img, odd_mask(size))
    if counts is None:
        pi = Permutation._make(unsigned_ground(size), img)
        faces = compose(inverse(pi), full_cycle(size))
        _raise_mixed_cycle(faces, range(1, size + 1, 2))
    return counts


def _nonorientable_boundaries(img: tuple[int, ...]) -> tuple[int, int]:
    """(boundaries, half the white ones) of a bipartite gluing, from one walk."""
    n = len(img) // 2
    counts = _coloured_cycle_count(tau2(n).image, img, white_mask(n // 2))
    if counts is None:
        tau1 = Permutation._make(signed_ground(n), img)
        _raise_mixed_cycle(compose(tau2(n), tau1), black_labels(n // 2))
    boundary, white_cycles = counts
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


# ---------------------------------------------------------------------------
# genus / Euler genus
# ---------------------------------------------------------------------------

def orientable_genus(pi: Pairing) -> int:
    """Genus of the orientable one-vertex gluing encoded by a pairing of [n]."""
    _same_ground(pi, full_cycle(pi.domain.n))
    return _orientable_genus(pi.image)


def nonorientable_euler_genus(tau1: Pairing) -> int:
    """Euler genus k of the gluing encoded by a mirror-symmetric pairing of ±[n].

    #(τ₂τ₁) = n + 2 − 2k; k = 1 is the projective plane, k = 2 the
    Klein bottle.  Only meaningful for mirror-symmetric pairings with
    at least one twist (otherwise the gluing is orientable and the
    right invariant is :func:`orientable_genus` of its positive part).
    """
    _same_ground(tau1, tau2(tau1.domain.n))
    return _euler_genus(tau1.image)


def has_twist(tau1: Permutation) -> bool:
    """True iff some positive label maps to a positive label (a Möbius pair)."""
    dom = tau1.domain
    return _has_twist(tau1.image, dom.size - dom.n)


def has_hat_twist(tau1: Permutation) -> bool:
    """Hypermap twist condition: some positive label maps to a negative one."""
    return _has_hat_twist(tau1.image)


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
# Each family is a source stream of index images and one key kernel
# mapping an image to its grade tuple (None: in no family of the tag).
# ---------------------------------------------------------------------------

#: The index images of a stream of permutations.
_images = partial(map, attrgetter("image"))


def _b_key(img: tuple[int, ...]) -> tuple[int] | None:
    return (_euler_genus(img),) if _has_twist(img, len(img) // 2) else None


def _a_tilde_key(img: tuple[int, ...]) -> tuple[int, int]:
    faces, p = _orientable_faces(img)
    return _orientable_genus(img, faces), p


def _b_tilde_key(img: tuple[int, ...]) -> tuple[int, int] | None:
    if not _has_twist(img, len(img) // 2):
        return None
    boundary, p = _nonorientable_boundaries(img)
    return _euler_genus(img, boundary), p


def _a_hat_key(img: tuple[int, ...]) -> tuple[int, int]:
    """(g, p) with #(π) = p and #(π⁻¹1ₙ) = n − p + 1 − 2g."""
    n = len(img)
    p = _num_cycles_image(img)
    return (n - p + 1 - _cycle_count(gamma_walk(full_cycle(n))[0], img)) // 2, p


def _b_hat_key(img: tuple[int, ...]) -> tuple[int, int] | None:
    """(k, p) with #(τ₁) = 2p, #(1̃ₙτ₁) = 2(n − p + 1 − k) and k ≥ 1.

    None as well without the hypermap twist.
    """
    if not _has_hat_twist(img):
        return None
    n = len(img) // 2
    cycles = _num_cycles_image(img)
    boundary = _cycle_count(annulus_cycle(n).image, img)
    if cycles % 2 or boundary % 2:
        return None
    k = n - cycles // 2 + 1 - boundary // 2
    return (k, cycles // 2) if k >= 1 else None


def _framed(frame: Callable[[int], object], n: int) -> int:
    """n, once the n-frame the key reads is built: n < 1 raises before the stream."""
    frame(n)
    return n


@dataclass(frozen=True)
class Gluing:
    """One gluing family: its source stream, ground, grades and key kernel.

    ``source(n, cap, budget)`` yields index images on ±[size] when
    ``signed``, else on [size], where size is 2n when ``doubled`` (the
    bipartite families) and n otherwise.  Its elements are pairings when
    ``pairs``, δ-symmetric when ``signed``, bipartite when ``doubled``.
    ``key`` maps an image to its grades, named by ``grades``.
    """

    source: Callable[..., Iterator[tuple[int, ...]]]
    signed: bool
    doubled: bool
    pairs: bool
    grades: tuple[str, ...]
    key: Callable[[tuple[int, ...]], tuple[int, ...] | None]


#: CLI tag -> gluing family, in CLI order.  Each source is a lambda over
#: a module-level stream name, looked up at call time, so a wrapper
#: rebound over that name (a tracer's) is seen.  Caps apply to the
#: stream's ground; a budget counts the elements the stream yields
#: (for ã/b̃, the bipartite gluings built).
GLUINGS: dict[str, Gluing] = {
    # pairings of [n] by genus g
    "a": Gluing(
        lambda n, cap, budget: _images(pairings(n, cap=cap, budget=budget)),
        signed=False, doubled=False, pairs=True, grades=("genus",),
        key=lambda img: (_orientable_genus(img),),
    ),
    # twisted mirror-symmetric gluings of ±[n] by Euler genus k ≥ 1
    "b": Gluing(
        lambda n, cap, budget: _images(
            signed_symmetric_pairings(n, cap=cap, budget=budget)
        ),
        signed=True, doubled=False, pairs=True, grades=("k",), key=_b_key,
    ),
    # bipartite pairings of [2n] by genus g and white grade p
    "a-tilde": Gluing(
        lambda n, cap, budget: bipartite_pairing_images(2 * n, cap=cap, budget=budget),
        signed=False, doubled=True, pairs=True, grades=("genus", "p"), key=_a_tilde_key,
    ),
    # bipartite twisted mirror-symmetric gluings of ±[2n] by (k, p)
    "b-tilde": Gluing(
        lambda n, cap, budget: bipartite_signed_symmetric_pairing_images(
            2 * n, cap=cap, budget=budget
        ),
        signed=True, doubled=True, pairs=True, grades=("k", "p"), key=_b_tilde_key,
    ),
    # hypermaps: permutations of [n] by genus g and part count p
    "a-hat": Gluing(
        lambda n, cap, budget: _images(
            permutations(_framed(full_cycle, n), cap=cap, budget=budget)
        ),
        signed=False, doubled=False, pairs=False, grades=("genus", "p"), key=_a_hat_key,
    ),
    # twisted hypermaps: δ-symmetric permutations of ±[n] by (k, p)
    "b-hat": Gluing(
        lambda n, cap, budget: _images(
            signed_symmetric_permutations(_framed(annulus_cycle, n), cap=cap, budget=budget)
        ),
        signed=True, doubled=False, pairs=False, grades=("k", "p"), key=_b_hat_key,
    ),
}


def _member(entry: Gluing, n: int) -> Callable[[tuple[int, ...]], Permutation]:
    """Wraps an image of the family at size n: a Pairing if it holds pairings."""
    size = 2 * n if entry.doubled else n
    ground = signed_ground(size) if entry.signed else unsigned_ground(size)
    return partial(Pairing._make if entry.pairs else Permutation._make, ground)


def gluing_groups(
    tag: str,
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> dict[tuple[int, ...], tuple[Permutation, ...]]:
    """Grade tuple -> members of family ``tag`` at size n, in stream order.

    One pass over the source stream.
    """
    entry = GLUINGS[tag]
    member = _member(entry, n)
    groups: dict[tuple[int, ...], list[Permutation]] = {}
    for img in entry.source(n, cap, budget):
        key = entry.key(img)
        if key is not None:
            groups.setdefault(key, []).append(member(img))
    return {key: tuple(members) for key, members in groups.items()}


def gluing_counts(
    tag: str,
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> dict[tuple[int, ...], int]:
    """Histogram grade tuple -> family size, in one pass, building no members."""
    entry = GLUINGS[tag]
    counts = Counter(map(entry.key, entry.source(n, cap, budget)))
    counts.pop(None, None)
    return dict(counts)


def gluing_family(
    tag: str,
    n: int,
    grade: tuple[int, ...],
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> tuple[Permutation, ...]:
    """Members of family ``tag`` at size n and grades ``grade``, in stream order.

    A family graded by Euler genus needs k ≥ 1.
    """
    entry = GLUINGS[tag]
    if entry.grades[0] == "k" and grade[0] < 1:
        twisted = "gluings" if entry.pairs else "hypermaps"
        raise ValueError(f"Euler genus k must be >= 1 for twisted {twisted}")
    if tag == "a" and n % 2:
        return ()  # [n] has no pairing: empty before any cap check
    member = _member(entry, n)
    return tuple(
        member(img) for img in entry.source(n, cap, budget) if entry.key(img) == grade
    )


def gluing_key(tag: str, pi: Permutation) -> tuple[int, ...] | None:
    """π's grades in family ``tag``, or None when π is in none of its families.

    The size comes from π's ground.  The conditions of the source stream
    (ground, pairing, δ-symmetry — on a pairing, mirror symmetry with no
    (r,−r) pair, which forces an even n — and the bipartite colouring)
    are checked first, then the key kernel of :func:`gluing_groups`: π
    is a member of ``gluing_groups(tag, n)[key]`` exactly when this
    returns key.
    """
    entry = GLUINGS[tag]
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
    n = pi.domain.n // 2
    ground = unsigned_ground(n)
    image = []
    for u in range(1, n + 1):
        odd = pi(2 * u)
        image.append(ground.index((odd + 1) // 2))
    return Permutation(ground, image)


def _white_relabel(m: int) -> dict[int, int]:
    """h: W(m) -> ±[m]; odd |w| to (|w|+1)/2, even |w| to −|w|/2."""
    h = {}
    for w in white_labels(m):
        a = abs(w)
        h[w] = (a + 1) // 2 if a % 2 else -(a // 2)
    return h


def hypermap_from_bipartite_nonorientable(tau1: Pairing) -> Permutation:
    """Shrink white vertices of a bipartite gluing of ±[2n] to a map on ±[n].

    The white half of the boundary walk τ₂τ₁ is carried along the
    relabelling h(w) = (|w|+1)/2 for odd |w|, −|w|/2 for even |w|,
    which is a bijection from W(n) onto ±[n].
    """
    if not is_bipartite_signed_pairing(tau1):
        raise ValueError("reduction requires a bipartite gluing of ±[2n]")
    m = tau1.domain.n // 2
    walk = compose(tau2(2 * m), tau1)
    h = _white_relabel(m)
    ground = signed_ground(m)
    mapping = {h[w]: h[walk(w)] for w in h}
    return Permutation.from_mapping(ground, mapping)
