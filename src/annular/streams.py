"""Deterministic enumeration streams with caps and budgets.

Four element streams feed the Wick sums and the non-bipartite gluing
and non-crossing families:

* :func:`pairings` — perfect matchings of a ground set;
* :func:`signed_symmetric_pairings` — mirror-symmetric matchings of ±[n]
  (one per unsigned matching and per-pair twist assignment);
* :func:`permutations` — all permutations of a ground set;
* :func:`signed_symmetric_permutations` — permutations of ±[n] whose
  cycle set is mirror-closed in the strong sense τ₀ττ₀ = τ⁻¹ with
  τ₀τ fixed-point free, built as τ₀σ over the pairings σ of ±[n].

Three constructive streams build the bipartite families directly, as
index images for the kernels of :mod:`annular.maps` and
:mod:`annular.noncrossing`:

* :func:`bipartite_pairing_images` — the (n/2)! pairings of [n] whose
  pairs join an odd label to an even one (ã and NC2T_bip);
* :func:`bipartite_signed_symmetric_pairing_images` /
  :func:`white_to_black_pairing_images` — the (n−1)!! mirror-symmetric
  pairings of ±[n] that keep the black set B(n/2) (b̃) / send the white
  labels into it (NC2delta_bip and NC2K_bip), one per unsigned pairing
  of [n] with every twist forced by label parity.

Each yields exactly the elements of the corresponding filter of
:func:`pairings` / :func:`signed_symmetric_pairings`, in the same order,
without visiting the rejected ones.  The three mirror-symmetric streams
read one expansion, :func:`_mirror_pair_images`, and differ only in the
twists they pass it.

Each stream has a documented deterministic order, an ``n``-cap guarding
against accidental combinatorial explosions (overridable per call), and
an optional :class:`EnumerationBudget` limiting the number of elements
produced; a budget is only ever passed in, never read from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice, permutations as _iter_permutations, product as _iter_product
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .perms import GroundSet, Pairing, Permutation, signed_ground, unsigned_ground

__all__ = [
    "CapExceeded",
    "EnumerationBudget",
    "DEFAULT_PAIRING_CAP",
    "DEFAULT_PERMUTATION_CAP",
    "DEFAULT_SIGNED_PERMUTATION_CAP",
    "pairings",
    "pairings_of",
    "signed_pairings",
    "signed_symmetric_pairings",
    "bipartite_pairing_images",
    "bipartite_signed_symmetric_pairing_images",
    "white_to_black_pairing_images",
    "permutations",
    "signed_symmetric_permutations",
    "double_factorial",
]

#: Largest ground-set size for which matchings are enumerated by default.
DEFAULT_PAIRING_CAP = 16
#: Largest ground-set size for which all permutations are enumerated.
DEFAULT_PERMUTATION_CAP = 9
#: Largest n for the signed symmetric permutation stream.
DEFAULT_SIGNED_PERMUTATION_CAP = 4


class CapExceeded(RuntimeError):
    """An enumeration exceeded its size cap or element budget."""

    def __init__(self, message: str, *, requested=None, cap=None):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


@dataclass(frozen=True)
class EnumerationBudget:
    """A hard limit on how many elements a stream may yield.

    A stream asked for one element more raises :class:`CapExceeded`.
    """

    max_elements: int

    def __post_init__(self):
        if not isinstance(self.max_elements, int):
            raise ValueError(f"max_elements must be an integer, got {self.max_elements!r}")
        if self.max_elements < 0:
            raise ValueError("max_elements must be >= 0")


def _budgeted(it: Iterator, budget: EnumerationBudget | None, what: str):
    """``it``, raising :class:`CapExceeded` if it has more than the budget's elements."""
    if budget is None:
        return it
    limit = budget.max_elements

    def within():
        yield from islice(it, limit)
        for _ in it:  # one element more than the budget
            raise CapExceeded(
                f"{what} exceeded the element budget ({limit})",
                requested=limit + 1,
                cap=limit,
            )

    return within()


def _check_cap(what: str, n: int, cap: int | None, default_cap: int) -> None:
    effective = default_cap if cap is None else cap
    if n > effective:
        raise CapExceeded(
            f"{what} requested for size {n}, above the cap {effective}; "
            f"pass an explicit cap to override",
            requested=n,
            cap=effective,
        )


#: The index images of a stream of permutations.
_images = partial(map, attrgetter("image"))


def double_factorial(m: int) -> int:
    """(m)!! — the number of pairings of an m-set is (m-1)!! for even m."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def _pairing_images(size: int, step: int = 1) -> Iterator[tuple[int, ...]]:
    """Index-space images of all matchings of 0..size-1.

    Deterministic order: the smallest unmatched index is paired with
    each larger unmatched index in ascending order, recursively.  With
    ``step=2`` only indices at odd distance (opposite parity) are
    paired; every partial matching of that kind still extends to a full
    one, so this prunes the search to the bipartite matchings and yields
    them in the order of the unrestricted stream.
    """
    if size % 2:
        return
    image = [-1] * size

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        i = start
        while i < size and image[i] != -1:
            i += 1
        if i == size:
            yield tuple(image)
            return
        for j in range(i + 1, size, step):
            if image[j] == -1:
                image[i], image[j] = j, i
                yield from rec(i + 1)
                image[i], image[j] = -1, -1

    yield from rec(0)


def pairings_of(
    ground: GroundSet,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Pairing]:
    """All pairings of an arbitrary ground set, smallest-label-first order."""
    _check_cap("pairing enumeration", ground.size, cap, DEFAULT_PAIRING_CAP)
    inner = (Pairing._make(ground, img) for img in _pairing_images(ground.size))
    return _budgeted(inner, budget, f"pairings of {ground!r}")


def pairings(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Pairing]:
    """All (n-1)!! pairings of [n] (empty stream for odd n)."""
    return pairings_of(unsigned_ground(n), cap=cap, budget=budget)


def signed_pairings(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Pairing]:
    """All (2n-1)!! pairings of ±[n] (no symmetry imposed)."""
    return pairings_of(signed_ground(n), cap=cap, budget=budget)


# ---------------------------------------------------------------------------
# signed symmetric pairings
# ---------------------------------------------------------------------------

def _mirror_pair_images(
    n: int, twist_tuples: Callable[[list[tuple[int, int]]], Iterable]
) -> Iterator[tuple[int, ...]]:
    """Index images of mirror-symmetric pairings of ±[n] with no (r,−r) pair.

    Every such pairing is an unsigned pairing of [n] together with a
    twist bit per pair.  For a pair {a, b} (a < b): untwisted
    contributes the 2-cycles (a,−b)(−a,b), twisted contributes
    (a,b)(−a,−b).  ``twist_tuples(pairs)`` gives the twist tuples to
    expand for one unsigned pairing, bits aligned with its index pairs
    (i, j), i < j, sorted by i.  Order: unsigned pairings in
    :func:`pairings` order; within one, ``twist_tuples`` order.  In
    index space +a sits at n+a−1 and −a at n−a, so the pair (i, j)
    becomes (n+i, n−1−j)(n−1−i, n+j) untwisted and (n+i, n+j)(n−1−i,
    n−1−j) twisted.
    """
    for img in _pairing_images(n):
        pairs = [(i, j) for i, j in enumerate(img) if i < j]
        for twists in twist_tuples(pairs):
            out = [-1] * (2 * n)
            for (i, j), twisted in zip(pairs, twists):
                if twisted:
                    x, y, z, w = n + i, n + j, n - 1 - i, n - 1 - j
                else:
                    x, y, z, w = n + i, n - 1 - j, n - 1 - i, n + j
                out[x], out[y] = y, x
                out[z], out[w] = w, z
            yield tuple(out)


def signed_symmetric_pairings(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Pairing]:
    """Mirror-symmetric pairings of ±[n]: (n−1)!!·2^(n/2) elements.

    Exactly the pairings that commute with the mirror involution
    τ₀ = (1,−1)···(n,−n) and contain no (r,−r) pair; empty for odd n.
    Order: unsigned pairings in :func:`pairings` order; within one,
    twist tuples in lexicographic order with untwisted (False) first,
    bits aligned with the pairs sorted by smaller element.
    """
    _check_cap(
        "signed symmetric pairing enumeration", 2 * n, cap, DEFAULT_PAIRING_CAP
    )
    ground = signed_ground(n)
    images = _mirror_pair_images(
        n, lambda pairs: _iter_product((False, True), repeat=len(pairs))
    )
    inner = (Pairing._make(ground, img) for img in images)
    return _budgeted(inner, budget, f"signed symmetric pairings of ±[{n}]")


# ---------------------------------------------------------------------------
# bipartite pairings (constructive, index images)
# ---------------------------------------------------------------------------

def bipartite_pairing_images(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Index images of the (n/2)! pairings of [n] joining odd to even labels.

    Exactly the images of ``p in pairings(n) if is_bipartite_pairing(p)``,
    in the same order, built by the pruned search of
    :func:`_pairing_images` (empty stream for odd n).  The cap applies
    to the ground size n, as for :func:`pairings`; a budget counts the
    bipartite elements built.
    """
    _check_cap("bipartite pairing enumeration", n, cap, DEFAULT_PAIRING_CAP)
    return _budgeted(_pairing_images(n, 2), budget, f"bipartite pairings of [{n}]")


def bipartite_signed_symmetric_pairing_images(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Index images of the (n−1)!! bipartite mirror-symmetric pairings of ±[n].

    Exactly the images of ``t in signed_symmetric_pairings(n) if
    is_bipartite_signed_pairing(t)``, in the same order: a pair keeps
    the black set B = odd positives ∪ even negatives only when it is
    twisted exactly if its labels agree in parity, so there is one
    element per unsigned pairing of [n], in :func:`pairings` order
    (empty for odd n).  The cap applies to the ground size 2n, as for
    :func:`signed_symmetric_pairings`; a budget counts the elements built.
    """
    _check_cap(
        "bipartite signed symmetric pairing enumeration",
        2 * n,
        cap,
        DEFAULT_PAIRING_CAP,
    )
    # one twist tuple: twisted exactly where the labels agree in parity
    images = _mirror_pair_images(n, lambda pairs: ([(j - i) % 2 == 0 for i, j in pairs],))
    return _budgeted(images, budget, f"bipartite signed symmetric pairings of ±[{n}]")


def white_to_black_pairing_images(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Index images of the (n−1)!! mirror-symmetric pairings of ±[n] sending W into B.

    Exactly the images of the elements of :func:`signed_symmetric_pairings`
    that send every white label to a black one, in the same order: each
    pair is twisted exactly if its labels differ in parity, the rule
    opposite to :func:`bipartite_signed_symmetric_pairing_images`'s
    (empty for odd n).  The cap applies to the ground size 2n; a budget
    counts the elements built.
    """
    _check_cap("white-to-black pairing enumeration", 2 * n, cap, DEFAULT_PAIRING_CAP)
    images = _mirror_pair_images(n, lambda pairs: ([(j - i) % 2 == 1 for i, j in pairs],))
    return _budgeted(images, budget, f"white-to-black pairings of ±[{n}]")


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def permutations_of(
    ground: GroundSet,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Permutation]:
    """All permutations of a ground set in lexicographic image order."""
    _check_cap("permutation enumeration", ground.size, cap, DEFAULT_PERMUTATION_CAP)
    inner = (
        Permutation._make(ground, img)
        for img in _iter_permutations(range(ground.size))
    )
    return _budgeted(inner, budget, f"permutations of {ground!r}")


def permutations(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Permutation]:
    """All n! permutations of [n], identity first (lexicographic images)."""
    return permutations_of(unsigned_ground(n), cap=cap, budget=budget)


def signed_symmetric_permutations(
    n: int,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Permutation]:
    """Permutations τ of ±[n] with τ₀ττ₀ = τ⁻¹ and τ₀τ fixed-point free.

    These are exactly the δ-symmetric permutations of ±[n]: the two
    conditions say that σ = τ₀τ is a pairing of ±[n], so the stream is
    {τ₀σ : σ a pairing of ±[n]}, (2n−1)!! elements.  In index space,
    with the mirror M(i) = 2n−1−i, τ has image M(σ(i)).  The images are
    sorted, which gives lexicographic image order.  At n=1 the stream is
    exactly {identity}.
    """
    _check_cap(
        "signed symmetric permutation enumeration",
        n,
        cap,
        DEFAULT_SIGNED_PERMUTATION_CAP,
    )
    ground = signed_ground(n)
    last = 2 * n - 1
    images = sorted(tuple(last - j for j in img) for img in _pairing_images(2 * n))
    inner = (Permutation._make(ground, img) for img in images)
    return _budgeted(inner, budget, f"signed symmetric permutations of ±[{n}]")
