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
a cycle mixes the classes) and ``_is_delta_symmetric``.
``_cycle_counts`` is the batched form of the two walk kernels for a
numpy block of images, one row per image, and ``_key_counts`` tallies
the key rows computed from such blocks with ``np.bincount``.  Every
cycle count in the package goes through them, or through their
counting form for a stream read by prefix, which builds no row:
``_prefix_cycle_counts`` contracts each prefix onto its tail
(``_contract``), codes the class of what is left (``_cycle_types``: a
conjugacy class, or on a signed tail the class of the pair it makes with
the mirror) and reads the counts of that class against the tail table,
kept per tail table and class by ``_class_table``.  ``compose``,
``inverse``, ``conjugate``, ``num_cycles`` and
``restricted_cycle_count`` are the algebra of :class:`Permutation`
objects: plain functions over them.

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

import operator
import re
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    "join_block_count",
    "parse_cycles",
]


def _check_integer(name: str, value) -> int:
    """``value`` as an int; numpy integers pass, bools and non-integers raise ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        n = _check_integer("ground-set parameter n", n)
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


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 and True are refused, not read as 4 and 1
def unsigned_ground(n: int) -> GroundSet:
    """The ground set [n] (cached, so repeated calls share one object)."""
    return GroundSet(GroundSet.UNSIGNED, n)


@lru_cache(maxsize=None, typed=True)
def signed_ground(n: int) -> GroundSet:
    """The ground set ±[n] (cached)."""
    return GroundSet(GroundSet.SIGNED, n)


@lru_cache(maxsize=16)
def _labels(ground: GroundSet) -> tuple[int, ...]:
    """``ground.labels()``, one tuple kept for each of the last grounds asked for."""
    return ground.labels()


@lru_cache(maxsize=16)
def _label_strings(ground: GroundSet) -> tuple[str, ...]:
    """The labels of ``ground`` as decimal strings, in index order, as :func:`_labels` keeps them."""
    return tuple(map(str, _labels(ground)))


# ---------------------------------------------------------------------------
# raw image-tuple helpers (index space)
#
# Hot loops in the enumeration modules work on plain image tuples and only
# wrap survivors in Permutation objects.  These helpers are the single
# implementation of the module-level operations below.
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


def _cycle_counts(outer: Sequence[int], block: np.ndarray, colour: bytes | None = None):
    """Per row of ``block``: the cycles of x -> outer[row[x]], all rows in one pass.

    The batched form of :func:`_cycle_count` (without ``colour``) and of
    :func:`_coloured_cycle_count` (with it), for a 2-D block of index
    images.  Each position takes the least index of its orbit by
    pointer doubling, ⌈log₂ size⌉ rounds over the flattened block, and
    a cycle is counted at its least index.  The block is flattened
    column by column (position x of row r at x·rows + r), so the least
    index of an orbit is still its least position and the heads of a
    row are summed down a column, not along a short row.  The first
    round reads no gather (every position starts as its own least), and
    the last doubles no step.  With a 0/1 ``colour`` mask it returns
    (cycles, colour-1 cycles, mixed), where mixed flags the rows with a
    cycle that meets both colour classes; their counts are meaningless.
    """
    rows, size = block.shape
    step = (np.asarray(outer, dtype=np.intp) * rows).take(block.T)
    step += np.arange(rows)
    step = step.reshape(rows * size)
    index = np.arange(rows * size)
    least = np.minimum(index, step)
    for _ in range((size - 1).bit_length() - 1):
        step = step.take(step)
        np.minimum(least, least.take(step), out=least)
    heads = (least == index).reshape(size, rows)
    cycles = heads.sum(axis=0)
    if colour is None:
        return cycles
    mask = np.frombuffer(colour, dtype=np.bool_).repeat(rows)
    mixed = (mask != mask.take(least)).reshape(size, rows).any(axis=0)
    return cycles, (heads & mask.reshape(size, rows)).sum(axis=0), mixed


def _key_counts(keys: Iterable[np.ndarray]) -> dict[tuple[int, ...], int]:
    """Key tuple -> rows carrying it, over 2-D blocks of rows of non-negative int keys.

    Each block's rows are read as numbers in base (its largest key + 1),
    one code a row, and tallied by ``np.bincount``; keys come in
    ascending order.  A block that is not 2-D with at least one column,
    or a negative key, raises ``ValueError``.
    """
    counts: dict[tuple[int, ...], int] = {}
    for block in keys:
        if block.ndim != 2 or not block.shape[1]:
            raise ValueError(f"a key block must be 2-D with a column or more, not {block.shape}")
        if not len(block):
            continue
        if (low := block.min()) < 0:
            raise ValueError(f"keys must be non-negative, got {low}")
        digits = (int(block.max()) + 1,) * block.shape[1]
        tally = np.bincount(np.ravel_multi_index(tuple(block.T), digits))
        present = tally.nonzero()[0]
        found = zip(*(d.tolist() for d in np.unravel_index(present, digits)))
        for key, count in zip(found, tally[present].tolist()):
            counts[key] = counts.get(key, 0) + count
    return dict(sorted(counts.items()))


def _contract(outer, positions, values, tail, free, colour: bytes | None = None):
    """Each prefix of a stream contracted onto its tail slots, one row a prefix.

    A prefix sends its ``positions`` to its ``values``; the element it
    starts sends its tail positions ``tail`` (slot j at ``tail[:, j]``)
    onto its ``free`` values.  Where x ↦ outer[element(x)] enters the
    tail, ``c`` carries on: c(i) is the first tail slot reached from
    outer[free[i]] through the prefix positions.  So if the tail sends
    slot j to free[u(j)], the cycles of x ↦ outer[element(x)] are those
    closed inside the prefix and those of c∘u.  Returns (c, closed,
    colour-1 closed, mixed): the last two are None without a 0/1
    ``colour`` mask.  With one (a bipartite stream, whose tails join the
    classes), mixed flags the prefixes where a closed cycle meets both
    classes, or a path from outer[free[i]] to its slot meets free[i]'s
    class; only where it is false are the cycles of every completion
    monochromatic.
    """
    count, k = free.shape
    head = positions.shape[1]
    size = head + k
    base = size * np.arange(count)[:, None]
    hop = np.empty(count * size, dtype=np.intp)  # flat: x ↦ outer[element(x)]; the tail stays
    hop[positions + base] = np.asarray(outer, dtype=np.intp)[values] + base
    hop[tail + base] = tail + base
    slot = np.empty(count * size, dtype=np.intp)
    slot[positions + base] = -1
    slot[tail + base] = np.arange(k)
    ends = np.asarray(outer, dtype=np.intp)[free] + base
    starts = positions + base
    cycle = hop.take(starts)
    least = np.minimum(starts, cycle)
    if colour is not None:
        shade = np.frombuffer(colour * count, dtype=np.uint8)
        own = shade.take(free + base)
        crossed = shade.take(ends) == own
    for _ in range(head):
        ends = hop.take(ends)
        cycle = hop.take(cycle)
        np.minimum(least, cycle, out=least)
        if colour is not None:
            crossed |= shade.take(ends) == own
    kept = slot.take(cycle) < 0  # the positions on closed cycles
    heads = kept & (least == starts)  # each closed cycle at its least position
    closed = heads.sum(axis=1)
    c = slot.take(ends)
    if colour is None:
        return c, closed, None, None
    inside = (heads & (shade.take(starts) == 1)).sum(axis=1)
    mixed = (kept & (shade.take(least) != shade.take(starts))).any(axis=1)
    return c, closed, inside, mixed | crossed.any(axis=1)


def _cycle_types(perms: np.ndarray, mirrored: bool = False) -> np.ndarray:
    """Per row of permutations of 0..m−1, a code of its cycle type.

    The code is Σ (m+1)^(ℓ(x)−1) over the points x, ℓ(x) the length of
    x's cycle: in base m+1 its digits count the points on cycles of each
    length, so two rows share a code exactly when they are conjugate.
    Each cycle is found at its least point by pointer doubling, as in
    :func:`_cycle_counts`.

    With ``mirrored`` each row is an involution c of m = 2t points, and
    two rows share a code exactly when they are conjugate by the
    centraliser of the mirror δ: s ↦ 2t−1−s, that is when the pairs
    (c, δ) are conjugate.  The orbits of a pair are alternating cycles
    and paths, one class per bipartition of t.  An alternating cycle with
    ℓ c-edges is two ℓ-cycles of c∘δ, a path on 2ℓ points one 2ℓ-cycle
    that meets a fixed point of c.  So the code is the cycle type of c∘δ,
    a flagged 2ℓ-cycle counted at digit t + ℓ − 1, past the unflagged
    lengths (at most t).
    """
    count, m = perms.shape
    index = np.arange(count * m)
    step = ((perms[:, ::-1] if mirrored else perms) + m * np.arange(count)[:, None]).reshape(-1)
    least = np.minimum(index, step)
    for _ in range((m - 1).bit_length() - 1):
        step = step.take(step)
        np.minimum(least, least.take(step), out=least)
    length = np.bincount(least, minlength=count * m).take(least)
    if mirrored:
        fixed = (perms == np.arange(m)).reshape(-1)
        flagged = np.bincount(least, fixed, minlength=count * m).take(least) > 0
        length = np.where(flagged, m // 2 + length // 2, length)
    return ((m + 1) ** (length - 1)).reshape(count, m).sum(axis=1)


#: (kind, m, class code) -> the counts of one class against the tail table
#: of m points, kept for the process: at the depths the streams count at,
#: at most 42 classes of S_10 (matchings, kind 1), 11 of S_6 (permutations
#: and bipartite matchings, kind 0) and 65 pairs (c, δ) on ±[6] (kind 3).
_CLASS_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _class_table(tails: np.ndarray, step: int, code: int, w) -> np.ndarray:
    """The counts of class ``code`` (of the permutation ``w``) against ``tails``.

    Matchings t (odd ``step``: of m points, or signed symmetric of ±[m/2]):
    entry j counts the t with #(w∘t) = j.  Permutations u (even step):
    entry (i, j) counts the u with #u = i and #(w∘u) = j.  Each table is
    closed under conjugation by the group that keeps the class (all of
    S_m, or the centraliser of the mirror), so the counts are those of
    every g·w·g⁻¹ (g·t·g⁻¹ runs over the table as t does).
    """
    m = tails.shape[1]
    key = (step if step % 2 else 0, m, code)  # steps 0 and 2 read the same S_m
    table = _CLASS_TABLES.get(key)
    if table is None:
        walked = _cycle_counts(w, tails)
        if step % 2:
            table = np.bincount(walked, minlength=m + 1)
        else:
            own = _cycle_counts(range(m), tails)
            table = np.bincount(own * (m + 1) + walked, minlength=(m + 1) ** 2)
            table = table.reshape(m + 1, m + 1)
        table.flags.writeable = False
        _CLASS_TABLES[key] = table
    return table


def _prefix_cycle_counts(outer, step: int, tails: np.ndarray, prefixes, colour=None,
                         twisted=False):
    """Histogram of the cycles of x ↦ outer[π(x)] over a stream read by prefix.

    ``prefixes`` are batches of (positions, values, tail, free) runs and
    ``tails`` the table that completes each (see
    :func:`annular.streams._prefixes`).  Each prefix is contracted once
    (:func:`_contract`), its cycles closed inside the prefix are
    offsets, and the rest is read off the cached counts of a class:

    * ``step`` 1, matchings π: key (#(outer∘π),), from the class of c;
    * ``step`` 3, signed symmetric pairings π: the same key, from the
      class of the pair (c, δ), since the tail table is closed under the
      centraliser of δ.  With ``twisted`` only the π with a twisted pair
      are counted: a prefix with none drops the keys of its untwisted
      completions, walked here;
    * ``step`` 0, permutations π: key (#π, #(outer∘π)).  With c₁ the
      contraction for the identity and c that for ``outer``, #π is
      #(c₁∘u) and #(outer∘π) is #(c∘u) over the tail table's u, that is
      #v and #(w∘v) with v = c₁∘u and w = c∘c₁⁻¹;
    * ``step`` 2, bipartite matchings with the 0/1 ``colour`` mask: key
      (colour-1 cycles, colour-0 cycles).  c sends the class-0 slots B
      to class 1 (A) and back (C); a tail joining the classes is a
      bijection τ: B → W, and with u = A∘τ⁻¹ the colour-1 tail cycles
      are #u and the colour-0 ones #(C∘τ) = #(w⁻¹∘u), w = A∘C on W, so
      ``tails`` is S_m and w⁻¹ is in the class of w.  None when a prefix
      mixes the classes (its counts mean nothing).

    Keys come in ascending order.  No row of the stream is built.
    """
    classes: dict[int, list] = {}  # offsets and class, coded -> [prefixes, class code, offsets, w]
    dropped = []  # the keys of the untwisted completions, not counted
    for positions, values, tail, free in prefixes:
        if colour is None and not twisted and not positions.shape[1]:
            # no prefix: the stream is its tail table, c is outer and c₁ the identity
            w = np.asarray(outer, dtype=np.intp)[None]
            code = int(_cycle_types(w, step == 3)[0])
            return _nonzero_counts(_class_table(tails, step, code, w[0]))
        size = positions.shape[1] + free.shape[1]
        c, closed, inside, mixed = _contract(outer, positions, values, tail, free, colour)
        if step == 0:
            c_id, closed_id = _contract(range(size), positions, values, tail, free)[:2]
            w = np.empty_like(c)
            np.put_along_axis(w, c_id, c, axis=1)
            offsets = (closed_id, closed)
        elif step == 2:
            if mixed.any():
                return None
            m = free.shape[1] // 2
            order = np.argsort(np.frombuffer(colour, dtype=np.uint8)[free], axis=1, kind="stable")
            rank = np.empty_like(order)
            np.put_along_axis(rank, order, np.tile(np.arange(m), 2), axis=1)
            after = np.take_along_axis(c, np.take_along_axis(c, order[:, m:], axis=1), axis=1)
            w = np.take_along_axis(rank, after, axis=1)
            offsets = (inside, closed - inside)
        else:
            w, offsets = c, (closed,)
        if twisted:  # a twisted pair sends a positive point (index ≥ n on ±[n]) to one
            half, t = size // 2, tails.shape[1] // 2
            plain = ~((positions >= half) & (values >= half)).any(axis=1)
            straight = tails[~(tails[:, t:] >= t).any(axis=1)]
            walks = c[plain][:, straight].reshape(-1, 2 * t)  # c∘u per (prefix, untwisted u)
            keys = _cycle_counts(range(2 * t), walks).reshape(-1, len(straight))
            dropped.append((closed[plain, None] + keys).reshape(-1))
        codes = coded = _cycle_types(w, step == 3)
        for offset in offsets:
            coded = coded * (size + 1) + offset
        found, first, counts = np.unique(coded, return_index=True, return_counts=True)
        for key, i, count in zip(found.tolist(), first.tolist(), counts.tolist()):
            where = tuple(int(o[i]) for o in offsets)
            classes.setdefault(key, [0, int(codes[i]), where, w[i]])[0] += count
    if not classes:
        return {}
    shape = (tails.shape[1] + 1,) * (2 - step % 2)
    reach = np.max([where for _, _, where, _ in classes.values()], axis=0)
    total = np.zeros(tuple(reach + shape), dtype=np.int64)
    for count, code, where, w in classes.values():
        at = tuple(slice(o, o + s) for o, s in zip(where, shape))
        total[at] += count * _class_table(tails, step, code, w)
    if dropped:
        tally = np.bincount(np.concatenate(dropped), minlength=1)
        total[: len(tally)] -= tally
    return _nonzero_counts(total)


def _nonzero_counts(total: np.ndarray) -> dict[tuple[int, ...], int]:
    """Index tuple -> entry over the nonzero entries of ``total``, in ascending order."""
    at = np.nonzero(total)
    return dict(zip(zip(*(i.tolist() for i in at)), total[at].tolist()))


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


def _cycle_text(img: Sequence[int], ground: GroundSet) -> str:
    """:meth:`Permutation.cycle_string` of an image on ``ground``, in one walk: a cycle
    is printed at its least index i, its one unseen index with img[i] > i."""
    strings = _label_strings(ground)
    seen = bytearray(len(img))
    out = []
    for i, j in enumerate(img):
        if j <= i or seen[i]:
            continue
        if img[j] == i:
            out.append(f"({strings[i]},{strings[j]})")
            continue
        cyc = [strings[i]]
        while j != i:
            seen[j] = 1
            cyc.append(strings[j])
            j = img[j]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out)


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
        _set_domain(self, domain)
        _set_image(self, image)
        _set_hash(self, None)

    @classmethod
    def _make(cls, domain: GroundSet, image: tuple[int, ...]) -> "Permutation":
        """Trusted constructor: skips validation (image must be a bijection)."""
        self = object.__new__(cls)
        _set_domain(self, domain)
        _set_image(self, image)
        _set_hash(self, None)
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

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint label cycles, fixed points included.

        Each cycle starts at its minimal label; cycles are sorted by
        minimal label (plain integer order, so on signed sets negative
        labels come first).  Label order is index order on both
        grounds, so these are the index cycles of
        :func:`_cycles_of_image`, relabelled.
        """
        labels = _labels(self.domain)
        return tuple(tuple(map(labels.__getitem__, cyc)) for cyc in _cycles_of_image(self.image))

    def cycle_string(self) -> str:
        """Canonical cycle notation; fixed points omitted; identity = ''."""
        return _cycle_text(self.image, self.domain)

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
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        s = self.cycle_string()
        return f"Permutation({s or 'id'} on {self.domain!r})"

    def sort_key(self) -> tuple[int, ...]:
        """Deterministic total order for permutations on one ground set."""
        return self.image


# The slots are written through their descriptors, which skip the
# immutability guard of ``__setattr__`` at half the cost of
# ``object.__setattr__``.
_set_domain = Permutation.domain.__set__
_set_image = Permutation.image.__set__
_set_hash = Permutation._hash.__set__


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
    if p.domain != q.domain:
        raise ValueError("compose requires equal ground sets")
    return Permutation._make(p.domain, _compose_images(p.image, q.image))


def inverse(p: Permutation) -> Permutation:
    return Permutation._make(p.domain, _inverse_image(p.image))


def conjugate(p: Permutation, q: Permutation) -> Permutation:
    """q·p·q⁻¹: the permutation p with labels relabelled along q."""
    if p.domain != q.domain:
        raise ValueError("conjugate requires equal ground sets")
    q_img = q.image
    inv_q = _inverse_image(q_img)
    img = tuple(q_img[p.image[inv_q[i]]] for i in range(len(q_img)))
    return Permutation._make(p.domain, img)


def num_cycles(p: Permutation) -> int:
    """Number of cycles, fixed points included."""
    return _num_cycles_image(p.image)


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
