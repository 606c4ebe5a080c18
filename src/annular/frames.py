"""Canonical permutations and the reference frames for non-crossing tests.

The package measures "non-crossing" against a small zoo of reference
permutations ("frames"), each describing how boundary points are wired
on a surface:

* disk: the full cycle 1ₙ = (1, 2, ..., n) on [n];
* annulus: 1̃ₙ = (1, ..., n)(−n, ..., −1) on ±[n], which factors as
  τ₂·τ₀ for the canonical involutions below;
* torus: 1ₙ(u−1, v) = (u, ..., v)(1, ..., u−1, v+1, ..., n) on [n],
  for 1 ≤ u < v < n, with (0, v) ≡ (n, v) covering u = 1;
* Klein bottle: 1̃ₙ,ᵤ,ᵥ = 1̃ₙ·(−u, v−1)·(−v, u−1) on ±[n] for
  1 ≤ u < v ≤ n, with (−v, 0) ≡ (−v, n) and (v, 0) ≡ (v, −n)
  covering u = 1.

The two canonical involutions on ±[n] are τ₀ = (1,−1)(2,−2)···(n,−n)
(mirror) and τ₂ = (−1,2)(−2,3)···(−n,1) (successor gluing); boundary
walks of one-vertex gluings are cycles of τ₂τ₁.

Frames are immutable, so every constructor caches its result, and
:func:`gamma_walk` keeps one record of all the kernels read of a frame
γ: the image of γ⁻¹, #(γ) and its sides.  Cuts come at any n, so the
cut frames and walks keep the ``_FRAME_CACHE`` most recently used.
The bipartite colourings are cached too: the label sets B(m),
W(m) of ±[2m], the index mask of B (W is the rest, since the two split
±[2m]), and the odd-label mask of [n].  The two colour tests every
route applies to an index image, :func:`sends_into` and
:func:`keeps_black`, sit beside the masks.

The torus and Klein constructors verify on construction that the
product formula produces exactly the displayed two-cycle form:

* torus: (u, ..., v)(1, ..., u−1, v+1, ..., n);
* Klein: (u, ..., v−1, 1−u, ..., −1, −n, ..., −v)
         (v, ..., n, 1, ..., u−1, 1−v, ..., −u),
  where integer ranges step by +1 and empty ranges vanish (so u = 1
  drops "1, ..., u−1" and "1−u, ..., −1", and v = n drops "−n, ..., −v"
  to the single label −n and "v, ..., n" to the single label n).

The Klein family definition is a union over frames with v up to n:
frames with v = n are non-degenerate (still two cycles) and are
required for the family to match the twisted gluings it counts, so the
constructor accepts v ≤ n.  The torus frame at v = n would merge the
two cycles into one, and the toroidal family never needs it, so the
torus constructor rejects v = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .perms import (
    Permutation,
    _inverse_image,
    _num_cycles_image,
    compose,
    signed_ground,
    unsigned_ground,
)

__all__ = [
    "tau0",
    "tau2",
    "full_cycle",
    "annulus_cycle",
    "AnnularFrame",
    "disk_frame",
    "annulus_frame",
    "torus_frame",
    "klein_frame",
    "gamma_walk",
    "black_labels",
    "white_labels",
    "black_mask",
    "odd_mask",
    "sends_into",
    "keeps_black",
]


#: Most entries of each cut-frame and walk cache.  The union families read
#: 430 torus and 291 Klein cuts, 750 walks, at the sizes their caps admit.
_FRAME_CACHE = 1024


@cache
def tau0(n: int) -> Permutation:
    """The mirror involution (1,−1)(2,−2)···(n,−n) on ±[n]."""
    g = signed_ground(n)
    return Permutation.from_cycles(g, [(i, -i) for i in range(1, n + 1)])


@cache
def tau2(n: int) -> Permutation:
    """The successor gluing (−1,2)(−2,3)···(−n,1) on ±[n]."""
    g = signed_ground(n)
    return Permutation.from_cycles(
        g, [(-i, i + 1 if i < n else 1) for i in range(1, n + 1)]
    )


@cache
def full_cycle(n: int) -> Permutation:
    """1ₙ = (1, 2, ..., n) on [n]."""
    return Permutation.from_cycles(unsigned_ground(n), [tuple(range(1, n + 1))])


@cache
def annulus_cycle(n: int) -> Permutation:
    """1̃ₙ = (1, ..., n)(−n, ..., −1) on ±[n]; equals τ₂·τ₀."""
    g = signed_ground(n)
    gamma = Permutation.from_cycles(
        g,
        [tuple(range(1, n + 1)), tuple(range(-n, 0))],
    )
    if gamma != compose(tau2(n), tau0(n)):
        raise AssertionError("annulus cycle differs from tau2·tau0")
    return gamma


@dataclass(frozen=True)
class AnnularFrame:
    """A reference permutation γ together with its surface descriptor.

    ``kind`` is one of ``disk``, ``annulus``, ``torus``, ``klein``;
    ``u``/``v`` are the cut parameters for the latter two, else None.
    """

    kind: str
    n: int
    gamma: Permutation
    u: int | None = None
    v: int | None = None

    def describe(self) -> str:
        if self.u is None:
            return f"{self.kind}(n={self.n})"
        return f"{self.kind}(n={self.n},u={self.u},v={self.v})"


def disk_frame(n: int) -> AnnularFrame:
    """Frame for classical non-crossing objects on [n]."""
    return AnnularFrame("disk", n, full_cycle(n))


def annulus_frame(n: int) -> AnnularFrame:
    """Frame for annular objects on ±[n] (two concentric circles)."""
    return AnnularFrame("annulus", n, annulus_cycle(n))


def _cycles_image(size: int, *cycles: list[int]) -> tuple[int, ...]:
    """The image of the permutation of 0..size−1 with the given index cycles."""
    image = list(range(size))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return tuple(image)


def _swapped(image: tuple[int, ...], *swaps: tuple[int, int]) -> tuple[int, ...]:
    """The image of γ·(a b)·(c d)···: γ's entries at each pair exchanged in turn."""
    image = list(image)
    for a, b in swaps:
        image[a], image[b] = image[b], image[a]
    return tuple(image)


@lru_cache(maxsize=_FRAME_CACHE)
def torus_frame(n: int, u: int, v: int) -> AnnularFrame:
    """The annulus obtained by cutting a torus gluing along (u−1, v).

    γ = 1ₙ·(u−1, v) = (u, ..., v)(1, ..., u−1, v+1, ..., n) on [n],
    where (0, v) ≡ (n, v) handles u = 1.  Requires 1 ≤ u < v < n.
    """
    if not (1 <= u < v < n):
        raise ValueError(
            f"torus frame requires 1 <= u < v < n, got (n,u,v)=({n},{u},{v})"
        )
    cut = u - 1 if u > 1 else n  # (0,v) ≡ (n,v); label a sits at index a − 1
    gamma = _cycles_image(n, [*range(u - 1, v)], [*range(u - 1), *range(v, n)])
    if _swapped(full_cycle(n).image, (cut - 1, v - 1)) != gamma:
        raise AssertionError("torus frame product and displayed forms differ")
    return AnnularFrame("torus", n, Permutation._make(unsigned_ground(n), gamma), u, v)


@lru_cache(maxsize=_FRAME_CACHE)
def klein_frame(n: int, u: int, v: int) -> AnnularFrame:
    """The annulus obtained by cutting a Klein-bottle gluing at (u, v).

    γ = 1̃ₙ·(−u, v−1)·(−v, u−1) on ±[n], with (−v, 0) ≡ (−v, n) and
    (v, 0) ≡ (v, −n) handling u = 1.  Requires 1 ≤ u < v ≤ n.
    """
    if not (1 <= u < v <= n):
        raise ValueError(
            f"klein frame requires 1 <= u < v <= n, got (n,u,v)=({n},{u},{v})"
        )
    # label −a at index n − a and +a at n + a − 1; (−u, v−1) never needs a
    # convention (u < v forces v−1 ≥ 1), (−v, u−1) is (−v, n) when u = 1
    gamma = _cycles_image(
        2 * n,
        [*range(n + u - 1, n + v - 1), *range(n + 1 - u, n), *range(n - v + 1)],
        [*range(n + v - 1, 2 * n), *range(n, n + u - 1), *range(n + 1 - v, n - u + 1)],
    )
    swaps = (n - u, n + v - 2), (n - v, n + (u - 1 if u > 1 else n) - 1)
    if _swapped(annulus_cycle(n).image, *swaps) != gamma:
        raise AssertionError("klein frame product and displayed forms differ")
    return AnnularFrame("klein", n, Permutation._make(signed_ground(n), gamma), u, v)


@lru_cache(maxsize=_FRAME_CACHE)
def gamma_walk(gamma: Permutation) -> tuple[tuple[int, ...], int, np.ndarray]:
    """The image of γ⁻¹, #(γ) and the sides of γ, once per reference permutation γ.

    The cycle kernels count π⁻¹γ as its inverse γ⁻¹π, so π is never
    inverted.  The sides, a read-only bool array, hold per index whether
    it lies off the γ-cycle through index 0: π joins a two-cycle γ iff it
    sends some index across.  The ``_FRAME_CACHE`` most recent γ are
    held: frames, and any γ passed to :func:`annular.noncrossing.is_noncrossing`.
    """
    image = gamma.image
    off, j = [True] * len(image), 0
    while image and off[j]:
        off[j] = False
        j = image[j]
    sides = np.array(off)
    sides.flags.writeable = False
    return _inverse_image(image), _num_cycles_image(image), sides


# ---------------------------------------------------------------------------
# bipartite colourings
# ---------------------------------------------------------------------------

@cache
def black_labels(m: int) -> tuple[int, ...]:
    """B(m) = odd positives ∪ even negatives inside ±[2m], ascending."""
    return tuple(sorted(list(range(1, 2 * m, 2)) + [-2 * i for i in range(1, m + 1)]))


@cache
def white_labels(m: int) -> tuple[int, ...]:
    """W(m) = even positives ∪ odd negatives inside ±[2m], ascending."""
    return tuple(sorted(list(range(2, 2 * m + 1, 2)) + [1 - 2 * i for i in range(1, m + 1)]))


@cache
def black_mask(n: int) -> tuple[tuple[int, ...], bytes]:
    """The indices of B(n // 2) inside ±[n], and a mask with 1 at them."""
    ground = signed_ground(n)
    black = set(black_labels(n // 2))
    mask = bytes(ground.label(i) in black for i in range(ground.size))
    return tuple(i for i, b in enumerate(mask) if b), mask


@cache
def odd_mask(size: int) -> bytes:
    """1 at the indices of the odd labels of [size]."""
    return bytes((i + 1) % 2 for i in range(size))


def sends_into(img: tuple[int, ...], mask: bytes) -> bool:
    """Every index outside the mask's class is sent into it."""
    return all(mask[j] for i, j in enumerate(img) if not mask[i])


def keeps_black(img: tuple[int, ...]) -> bool:
    """On ±[n]: the black set B(n // 2) is carried to itself."""
    indices, mask = black_mask(len(img) // 2)
    return all(mask[img[i]] for i in indices)
