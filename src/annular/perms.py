"""Exact permutation algebra on the ground sets [n] and ±[n].

Everything in this package is built on two small immutable value types:
:class:`GroundSet`, an indexed ground set, and :class:`Permutation`, a
bijection of a ground set stored as an image tuple in index space.
:class:`Pairing` refines :class:`Permutation` to fixed-point-free
involutions, i.e. perfect matchings written as products of 2-cycles.

Ground sets
-----------
Two kinds are supported:

* ``unsigned``: the set [n] = {1, 2, ..., n};
* ``signed``: the set ±[n] = {-n, ..., -1, 1, ..., n} (no zero).

Labels are mapped to contiguous indices 0..size-1 in ascending label
order, so on a signed set the index of -k is n-k and the index of +k is
n+k-1.  This layout makes negation an index involution
``i -> size-1-i``, which the mirror-symmetry predicates exploit.

Index-space kernels
-------------------
The three routes that cross-check each other (the Wick sum, the genus
expansion and the non-crossing side) share only the per-element
algebra below, on raw image tuples: ``_num_cycles_image`` (#π),
``_cycle_count`` (# of x ↦ outer[inner[x]], e.g. a face walk γ⁻¹π
without inverting π), ``_coloured_cycle_count`` (from one walk, the
same cycles and those inside one colour class of a 0/1 mask, None when
a cycle mixes the classes) and ``_is_delta_symmetric``.  Every cycle
count in the package goes through them; the public functions on
:class:`Permutation` objects are thin wrappers.

Composition convention
----------------------
Products are functional: ``compose(p, q)`` is the map ``x -> p(q(x))``
(apply ``q`` first).  Every cycle-count identity in the package assumes
this convention, and the test suite pins it.  A useful consequence used
throughout: the cycle counts of ``compose(p, q)`` and ``compose(q, p)``
coincide, because the two products are conjugate.

Printing and parsing
--------------------
``cycle_string`` prints disjoint cycles with the minimal element first
inside each cycle and cycles sorted by minimal element; fixed points
are omitted and the identity prints as the empty string.
``parse_cycles`` accepts the grammar

    permutation := cycle*
    cycle       := '(' int (',' int)* ')'

with arbitrary whitespace between tokens; unmentioned labels are fixed
points.  Printing then parsing is the identity, and parsing is
insensitive to cycle rotation/order.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "GroundSet",
    "Permutation",
    "Pairing",
    "unsigned_ground",
    "signed_ground",
    "compose",
    "inverse",
    "conjugate",
    "num_cycles",
    "restricted_cycle_count",
    "is_jointly_transitive",
    "join_block_count",
    "parse_cycles",
]


class GroundSet:
    """An indexed finite ground set of integer labels.

    Parameters
    ----------
    kind:
        ``"unsigned"`` for [n], ``"signed"`` for ±[n].
    n:
        The size parameter: |[n]| = n, |±[n]| = 2n.
    """

    UNSIGNED = "unsigned"
    SIGNED = "signed"

    __slots__ = ("kind", "n", "size")

    def __init__(self, kind: str, n: int):
        if kind not in (self.UNSIGNED, self.SIGNED):
            raise ValueError(f"unknown ground-set kind: {kind!r}")
        if n < 0:
            raise ValueError(f"ground-set parameter n must be >= 0, got {n}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "size", n if kind == self.UNSIGNED else 2 * n)

    # GroundSet is immutable.
    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GroundSet is immutable")

    # -- label/index translation ------------------------------------
    def labels(self) -> tuple[int, ...]:
        """All labels in ascending order (== index order)."""
        if self.kind == self.UNSIGNED:
            return tuple(range(1, self.n + 1))
        return tuple(range(-self.n, 0)) + tuple(range(1, self.n + 1))

    def index(self, label: int) -> int:
        """Index of ``label`` in 0..size-1; raises ValueError if absent."""
        if self.kind == self.UNSIGNED:
            if 1 <= label <= self.n:
                return label - 1
        else:
            if -self.n <= label <= -1:
                return label + self.n
            if 1 <= label <= self.n:
                return self.n + label - 1
        raise ValueError(f"label {label} is not in {self}")

    def label(self, i: int) -> int:
        """Label at index ``i``."""
        if not 0 <= i < self.size:
            raise ValueError(f"index {i} out of range for {self}")
        if self.kind == self.UNSIGNED:
            return i + 1
        return i - self.n if i < self.n else i - self.n + 1

    def __contains__(self, label: int) -> bool:
        try:
            self.index(label)
            return True
        except ValueError:
            return False

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroundSet):
            return NotImplemented
        return self.kind == other.kind and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    def __repr__(self) -> str:
        if self.kind == self.UNSIGNED:
            return f"GroundSet([{self.n}])"
        return f"GroundSet(±[{self.n}])"


_UNSIGNED_CACHE: dict[int, GroundSet] = {}
_SIGNED_CACHE: dict[int, GroundSet] = {}


def unsigned_ground(n: int) -> GroundSet:
    """The ground set [n] (cached, so repeated calls share one object)."""
    g = _UNSIGNED_CACHE.get(n)
    if g is None:
        g = _UNSIGNED_CACHE[n] = GroundSet(GroundSet.UNSIGNED, n)
    return g


def signed_ground(n: int) -> GroundSet:
    """The ground set ±[n] (cached)."""
    g = _SIGNED_CACHE.get(n)
    if g is None:
        g = _SIGNED_CACHE[n] = GroundSet(GroundSet.SIGNED, n)
    return g


# ---------------------------------------------------------------------------
# raw image-tuple helpers (index space)
#
# Hot loops in the enumeration modules work on plain image tuples and only
# wrap survivors in Permutation objects.  These helpers are the single
# implementation of the corresponding Permutation methods.
# ---------------------------------------------------------------------------

def _compose_images(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Image of x -> p(q(x)) in index space."""
    return tuple(p[j] for j in q)


def _inverse_image(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _num_cycles_image(p: Sequence[int]) -> int:
    seen = bytearray(len(p))
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = p[j]
    return count


def _cycle_count(outer: Sequence[int], inner: Sequence[int]) -> int:
    """Number of cycles of x -> outer[inner[x]]."""
    seen = bytearray(len(inner))
    count = 0
    for i in range(len(inner)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = 1
            j = outer[inner[j]]
    return count


def _coloured_cycle_count(
    outer: Sequence[int], inner: Sequence[int], colour: bytes
) -> tuple[int, int] | None:
    """(cycles, colour-1 cycles) of x -> outer[inner[x]], one walk; None if one mixes."""
    seen = bytearray(len(inner))
    count = inside = 0
    for i in range(len(inner)):
        if seen[i]:
            continue
        c = colour[i]
        j = i
        while not seen[j]:
            if colour[j] != c:
                return None
            seen[j] = 1
            j = outer[inner[j]]
        count += 1
        inside += c
    return count, inside


def _is_delta_symmetric(img: Sequence[int]) -> bool:
    """On ±[n]: no label sent to its negative, and π(−π(x)) = −x.

    Negation is the index mirror i ↦ last − i.
    """
    last = len(img) - 1
    return all(j != last - i and img[last - j] == last - i for i, j in enumerate(img))


def _cycles_of_image(p: Sequence[int]) -> list[list[int]]:
    """Index cycles, each starting at its minimal index, sorted by it."""
    seen = bytearray(len(p))
    cycles = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = p[j]
            cycles.append(cyc)
    return cycles


def _join_block_count_images(p: Sequence[int], q: Sequence[int]) -> int:
    """Number of blocks of the finest partition joining p- and q-orbits.

    Union-find over the edges {i, p(i)} and {i, q(i)}.
    """
    size = len(p)
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(size):
        for j in (p[i], q[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    return sum(1 for i in range(size) if find(i) == i)


def _validate_image(image: Sequence[int], size: int) -> None:
    if len(image) != size:
        raise ValueError(
            f"image has length {len(image)}, ground set has size {size}"
        )
    seen = bytearray(size)
    for j in image:
        if not isinstance(j, int) or not 0 <= j < size:
            raise ValueError(f"image entry {j!r} out of range 0..{size - 1}")
        if seen[j]:
            raise ValueError(f"image repeats index {j}; not a bijection")
        seen[j] = 1


class Permutation:
    """A bijection of a :class:`GroundSet`, stored as an index-image tuple.

    ``image[i]`` is the index of the image of the label at index ``i``.
    Instances are immutable and hashable; equality requires equal ground
    sets and equal images.

    Construct with :meth:`identity`, :meth:`from_mapping`,
    :meth:`from_cycles`, or :func:`parse_cycles`; the raw constructor
    takes an index-space image and validates it.
    """

    __slots__ = ("domain", "image", "_hash")

    def __init__(self, domain: GroundSet, image: Sequence[int]):
        image = tuple(image)
        _validate_image(image, domain.size)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, domain: GroundSet, image: tuple[int, ...]) -> "Permutation":
        """Trusted constructor: skips validation (image must be a bijection)."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Permutation is immutable")

    # -- constructors ------------------------------------------------
    @classmethod
    def identity(cls, domain: GroundSet) -> "Permutation":
        return cls._make(domain, tuple(range(domain.size)))

    @classmethod
    def from_mapping(cls, domain: GroundSet, mapping: dict[int, int]) -> "Permutation":
        """Build from a (possibly partial) label->label mapping.

        Labels absent from the mapping are fixed points.
        """
        image = list(range(domain.size))
        for x, y in mapping.items():
            image[domain.index(x)] = domain.index(y)
        _validate_image(image, domain.size)
        return cls._make(domain, tuple(image))

    @classmethod
    def from_cycles(
        cls, domain: GroundSet, cycles: Iterable[Sequence[int]]
    ) -> "Permutation":
        """Build from disjoint label cycles; unmentioned labels are fixed."""
        image = list(range(domain.size))
        touched = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            if not cyc:
                raise ValueError("empty cycle")
            idx = [domain.index(x) for x in cyc]
            for i in idx:
                if i in touched:
                    raise ValueError(
                        f"label {domain.label(i)} appears in more than one cycle"
                    )
                touched.add(i)
            for a, b in zip(idx, idx[1:] + idx[:1]):
                image[a] = b
        return cls._make(domain, tuple(image))

    # -- basic queries -----------------------------------------------
    def __call__(self, label: int) -> int:
        """Image of a label under the permutation."""
        return self.domain.label(self.image[self.domain.index(label)])

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.image))

    def is_involution(self) -> bool:
        img = self.image
        return all(img[img[i]] == i for i in range(len(img)))

    def is_fixed_point_free(self) -> bool:
        return all(j != i for i, j in enumerate(self.image))

    # -- algebra -----------------------------------------------------
    def compose(self, other: "Permutation") -> "Permutation":
        """self·other: the map x -> self(other(x))."""
        if self.domain != other.domain:
            raise ValueError("compose requires equal ground sets")
        return Permutation._make(
            self.domain, _compose_images(self.image, other.image)
        )

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        return Permutation._make(self.domain, _inverse_image(self.image))

    def conjugate_by(self, q: "Permutation") -> "Permutation":
        """q·self·q⁻¹ (relabel self along q)."""
        if self.domain != q.domain:
            raise ValueError("conjugate requires equal ground sets")
        q_img = q.image
        inv_q = _inverse_image(q_img)
        img = tuple(q_img[self.image[inv_q[i]]] for i in range(len(q_img)))
        return Permutation._make(self.domain, img)

    def num_cycles(self) -> int:
        """Number of cycles, fixed points included."""
        return _num_cycles_image(self.image)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint label cycles, fixed points included.

        Each cycle starts at its minimal label; cycles are sorted by
        minimal label (plain integer order, so on signed sets negative
        labels come first).
        """
        dom = self.domain
        out = []
        for idx_cycle in _cycles_of_image(self.image):
            lab = [dom.label(i) for i in idx_cycle]
            m = min(range(len(lab)), key=lab.__getitem__)
            out.append(tuple(lab[m:] + lab[:m]))
        out.sort(key=lambda c: c[0])
        return tuple(out)

    def cycle_string(self) -> str:
        """Canonical cycle notation; fixed points omitted; identity = ''."""
        parts = [
            "(" + ",".join(map(str, cyc)) + ")"
            for cyc in self.cycles()
            if len(cyc) > 1
        ]
        return "".join(parts)

    def mapping(self) -> dict[int, int]:
        """The full label->label mapping as a dict."""
        dom = self.domain
        return {dom.label(i): dom.label(j) for i, j in enumerate(self.image)}

    # -- dunder ------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.domain == other.domain and self.image == other.image

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.domain, self.image))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        s = self.cycle_string()
        return f"Permutation({s or 'id'} on {self.domain!r})"

    def sort_key(self) -> tuple[int, ...]:
        """Deterministic total order for permutations on one ground set."""
        return self.image


class Pairing(Permutation):
    """A fixed-point-free involution (perfect matching) of a ground set."""

    __slots__ = ()

    def __init__(self, domain: GroundSet, image: Sequence[int]):
        super().__init__(domain, image)
        self._check_pairing()

    def _check_pairing(self) -> None:
        img = self.image
        for i, j in enumerate(img):
            if j == i:
                raise ValueError(
                    f"pairing has fixed point {self.domain.label(i)}"
                )
            if img[j] != i:
                raise ValueError("pairing image is not an involution")

    @classmethod
    def from_pairs(
        cls, domain: GroundSet, pairs: Iterable[Sequence[int]]
    ) -> "Pairing":
        """Build from label pairs covering the whole ground set."""
        image = [-1] * domain.size
        for pair in pairs:
            x, y = pair
            i, j = domain.index(x), domain.index(y)
            if i == j:
                raise ValueError(f"pair ({x},{y}) repeats a label")
            if image[i] != -1 or image[j] != -1:
                raise ValueError(f"label in pair ({x},{y}) already paired")
            image[i], image[j] = j, i
        if any(j == -1 for j in image):
            missing = [domain.label(i) for i, j in enumerate(image) if j == -1]
            raise ValueError(f"pairs do not cover labels {missing}")
        return cls._make(domain, tuple(image))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs as (smaller, larger) label tuples, sorted."""
        dom = self.domain
        out = []
        for i, j in enumerate(self.image):
            if i < j:
                a, b = dom.label(i), dom.label(j)
                out.append((a, b) if a < b else (b, a))
        out.sort()
        return tuple(out)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p·q : x -> p(q(x))."""
    return p.compose(q)


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def conjugate(p: Permutation, q: Permutation) -> Permutation:
    """q·p·q⁻¹: the permutation p with labels relabelled along q."""
    return p.conjugate_by(q)


def num_cycles(p: Permutation) -> int:
    return p.num_cycles()


def restricted_cycle_count(p: Permutation, labels: Iterable[int]) -> int:
    """Number of cycles of ``p`` restricted to an invariant label subset.

    Raises ``ValueError`` if the subset is not invariant under ``p``.
    """
    dom = p.domain
    img = p.image
    inside = bytearray(dom.size)
    for x in labels:
        inside[dom.index(x)] = 1
    counts = _coloured_cycle_count(img, range(dom.size), inside)
    if counts is None:
        i = next(i for i, j in enumerate(img) if inside[i] and not inside[j])
        raise ValueError(
            f"subset is not invariant: {dom.label(i)} maps to "
            f"{dom.label(img[i])} outside it"
        )
    return counts[1]


def is_jointly_transitive(p: Permutation, q: Permutation) -> bool:
    """True iff the group generated by p and q acts transitively."""
    return join_block_count(p, q) <= 1


def join_block_count(p: Permutation, q: Permutation) -> int:
    """Number of blocks of the join of the orbit partitions of p and q."""
    if p.domain != q.domain:
        raise ValueError("join requires equal ground sets")
    if p.domain.size == 0:
        return 0
    return _join_block_count_images(p.image, q.image)


_CYCLE_RE = re.compile(r"\(\s*(-?\d+)\s*((?:,\s*-?\d+\s*)*)\)")
_INT_RE = re.compile(r"-?\d+")


def parse_cycles(text: str, domain: GroundSet) -> Permutation:
    """Parse cycle notation over ``domain``.

    Grammar: ``permutation := cycle*`` with
    ``cycle := '(' int (',' int)* ')'``; whitespace is free between
    tokens.  Labels must belong to the ground set and may appear at
    most once overall; unmentioned labels are fixed points.  The empty
    string is the identity.
    """
    pos = 0
    cycles: list[list[int]] = []
    text_len = len(text)
    while pos < text_len:
        if text[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise ValueError(
                f"cannot parse cycle notation at position {pos}: {text[pos:pos + 20]!r}"
            )
        body = m.group(0)
        cycles.append([int(t) for t in _INT_RE.findall(body)])
        pos = m.end()
    return Permutation.from_cycles(domain, cycles)
