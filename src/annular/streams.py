"""Deterministic enumeration streams with caps and budgets.

A stream has two forms.  Inside the package it is a capped, budgeted
block function (``_*_blocks``): numpy blocks of index images, one
element per row and at most ``_ROWS`` rows a block, which the exact
routes of :mod:`annular.moments` and :mod:`annular.maps` and the
bipartite non-crossing sources of :mod:`annular.noncrossing` read.  At
the API it is a stream of :class:`~annular.perms.Pairing` /
:class:`~annular.perms.Permutation` objects built from those rows:

* :func:`pairings` — perfect matchings of a ground set;
* :func:`signed_symmetric_pairings` — mirror-symmetric matchings of ±[n]
  (one per unsigned matching and per-pair twist assignment);
* :func:`permutations` — all permutations of a ground set;
* :func:`signed_symmetric_permutations` — permutations of ±[n] whose
  cycle set is mirror-closed in the strong sense τ₀ττ₀ = τ⁻¹ with
  τ₀τ fixed-point free, built as τ₀σ over the pairings σ of ±[n].

Matchings (all, or only those joining the two parity classes) and
permutations come from :func:`_tail_blocks`, a batch of prefixes of
first steps at a time (:func:`_runs`), each completed from a small cached
table of the rest.  :func:`_mirror_pair_blocks` expands the matchings of
[n] into the three mirror-symmetric streams of ±[n], and
:func:`_mirrored_pairings` walks the matchings of ±[n] last to first,
mirrored.  Each colour-class stream yields exactly the rows of its
filter, in order, visiting no rejected one.  The matchings, bipartite
matchings, permutations and signed symmetric pairings also have a
counting form, :func:`_prefixes`, for the passes that keep only a
histogram of cycle counts (:func:`annular.perms._prefix_cycle_counts`);
:func:`_completions` builds the rows of one prefix, for their error path.

Each stream has a documented deterministic order, a size cap checked
before any row is built, and an optional :class:`EnumerationBudget`
limiting the number of elements produced, only ever passed in.  It cuts
the block that holds the first element over the budget and raises only
when that element is asked for.  Every source, here and the built
families of :mod:`annular.noncrossing`, states its work at each size of
its ground (2n on ±[n]): the rows a block stream yields, the prefixes a
counting pass runs, or the entries (rows × size) of a table built whole.
Its default cap is the largest size whose work is at most
``STREAM_ROW_CAP`` = 15!!, found once per source; ``cap=`` replaces it.
:func:`_kept_pass` is the rule by which a family pass is kept per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .perms import GroundSet, Pairing, Permutation, _check_integer, signed_ground, unsigned_ground

__all__ = [
    "CapExceeded",
    "EnumerationBudget",
    "STREAM_ROW_CAP",
    "pairings",
    "pairings_of",
    "signed_pairings",
    "signed_symmetric_pairings",
    "permutations",
    "signed_symmetric_permutations",
]

#: Most rows a stream may hold by default: 15!!, the matchings of [16].
STREAM_ROW_CAP = 2_027_025


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
        if _check_integer("max_elements", self.max_elements) < 0:
            raise ValueError("max_elements must be >= 0")


def _over_budget(what: str, limit: int) -> CapExceeded:
    """The error of a stream of ``what`` asked for element ``limit`` + 1."""
    return CapExceeded(
        f"{what} exceeded the element budget ({limit})", requested=limit + 1, cap=limit
    )


#: Most rows in one block, whatever the stream's length: 4 kB per column
#: of intp (80 kB on ±[10]).  Larger blocks raise the peak memory of the
#: exact routes more than they save time.
_ROWS = 512


def _images(elements: Iterable[Permutation], size: int) -> Iterator[np.ndarray]:
    """The index images of a stream of permutations of a ``size``-point set, in blocks.

    The inverse of :func:`_members`, for the five non-crossing sources that
    read a public element stream (NC2T, NCT_p, NCdelta, NCdelta_p, NCK_p).
    """
    images = map(attrgetter("image"), elements)
    row = np.dtype((np.intp, size))
    while len(block := np.fromiter(islice(images, _ROWS), dtype=row)):
        yield block


def _kept_pass(memo: dict, key, source: Callable[[], Iterator[np.ndarray]], run, *, bounded: bool):
    """``run(blocks)`` over ``source()``: the one rule by which a family pass is kept.

    A pass with no cap or budget (not ``bounded``) over a source that ends
    within one block, up to two of which are read first, is kept in
    ``memo[key]`` and answers later unbounded calls.  Any other pass, or
    one that raises, keeps nothing.
    """
    if not bounded and key in memo:
        return memo[key]
    blocks = source()
    head = () if bounded else tuple(islice(blocks, 2))
    result = run(chain(head, blocks))
    if not bounded and len(head) < 2:
        memo[key] = result
    return result


def _rows(blocks: Iterable[np.ndarray]) -> Iterator[tuple[int, ...]]:
    """The rows of ``blocks`` as image tuples, one block at a time."""
    return chain.from_iterable(map(tuple, block.tolist()) for block in blocks)


def _members(cls: type[Permutation], ground: GroundSet, blocks) -> Iterator[Permutation]:
    """``cls`` objects on ``ground`` built from the rows of ``blocks``."""
    return map(partial(cls._make, ground), _rows(blocks))


# ---------------------------------------------------------------------------
# block builders (index space, no cap or budget)
# ---------------------------------------------------------------------------

def _pairing_blocks(size: int, step: int = 1) -> Iterator[np.ndarray]:
    """Blocks of the index images of all matchings of 0..size-1.

    The smallest unmatched index is paired with each larger unmatched one
    in ascending order, recursively; with ``step=2`` only with those at
    odd distance (opposite parity).  Every partial matching of that kind
    extends to a full one, so this is exactly the bipartite matchings, in
    the order of the unrestricted stream.  Empty for odd or negative size.
    """
    if size >= 0 and size % 2 == 0:
        yield from _tail_blocks(step, bytes(i % step for i in range(size)))


def _table_rows(step: int, m: int) -> int:
    """Rows of the stream on m points: m!, (m−1)!! or (m/2)! for ``step`` 0, 1, 2 (odd m: 0)."""
    if step and m % 2:
        return 0
    return math.prod(range(m - 1, 0, -2)) if step == 1 else math.factorial(m // 2 if step else m)


#: Most entries in the tail table of a stream of blocks (8 kB).  The
#: bipartite tables are one per colour pattern: 50 kB of them for [16],
#: 0.5 MB at one size larger.
_TABLE_ENTRIES = 2 * _ROWS

#: Most entries in any table (512 kB): the 5,040 permutations of 7 points
#: fit, the 10,395 matchings of 12 do not.
_TABLE_LIMIT = 1 << 16


@cache
def _table(step: int, colours: bytes) -> np.ndarray:
    """The whole stream on the points 0..m−1 with ``colours``, as one read-only block.

    A bipartite table (step 2) is the matchings' table on m points
    filtered to the rows that join the two colours, which keeps their
    order; a step-3 table holds the signed symmetric pairings of ±[m/2]
    (m/2 even), in their stream's order.  A table of the matchings or
    permutations of m points over ``_TABLE_LIMIT`` entries raises
    ``ValueError``.
    """
    size = len(colours)
    if step == 3:
        table = np.concatenate(tuple(_mirror_pair_blocks(size // 2, "every")))
    elif step == 2:
        matchings = _table(1, bytes(size))
        shade = np.frombuffer(colours, dtype=np.uint8)
        table = matchings[(shade[matchings] != shade).all(axis=1)]
    elif (entries := _table_rows(step, size) * size) > _TABLE_LIMIT:
        raise ValueError(
            f"the table of the {'matchings' if step else 'permutations'} of {size} points "
            f"would hold {entries} entries, above {_TABLE_LIMIT}"
        )
    elif size:
        table = np.concatenate(tuple(_tail_blocks(step, colours, 1)))
    else:
        table = np.zeros((1, 0), np.intp)
    table.flags.writeable = False
    return table


def _runs(step: int, colours: bytes, depth: int, start: int, count: int, down: bool):
    """``count`` runs of ``depth`` first steps from number ``start``: (positions, values, free).

    Step 0 (permutations): the next position takes a free value.  Steps
    1 and 2 (matchings): the least free point is paired with a larger
    one, with step 2 only with one of the other colour.  Each step has
    as many choices whatever came before (the free values; the free
    points but one; half of them, the other colour on a balanced set),
    so a run's number in stream order, read in that mixed radix with the
    first step most significant, names its choice at every step.  The
    digits of ``start`` are taken in Python, so any stream length works,
    and those of the runs after it (before it, with ``down``) by adding
    0, 1, 2, ... with carries: all the runs of a batch are built
    together, one numpy pass per step.
    """
    size = len(colours)
    free_at = [size - (2 if step else 1) * t for t in range(depth)]  # before step t
    radix = [f - 1 if step == 1 else f // 2 if step else f for f in free_at]
    digits, carry = [0] * depth, -np.arange(count) if down else np.arange(count)
    for t in reversed(range(depth)):
        start, low = divmod(start, radix[t])
        carry, digits[t] = np.divmod(low + carry, radix[t])
    shade, at = np.frombuffer(colours, dtype=np.uint8), np.arange(count)[:, None]
    free = np.broadcast_to(np.arange(size), (count, size))
    positions, values = [], []
    for digit in digits:
        if step == 2:  # the digit-th point of the other colour
            other = shade[free[:, 1:]] != shade[free[:, :1]]
            j = np.nonzero(other)[1].reshape(count, -1)[at[:, 0], digit] + 1
        else:
            j = digit + step
        chosen = free[at[:, 0], j]
        if step:
            positions += [free[:, 0], chosen]
            values += [chosen, free[:, 0]]
        else:
            values.append(chosen)
        kept = np.arange(1 if step else 0, free.shape[1] - 1)
        free = free[at, kept + (kept >= j[:, None])]
    head = len(values)
    values = np.column_stack(values) if head else np.empty((count, 0), np.intp)
    positions = np.column_stack(positions) if step and head else np.arange(head)
    return positions, values, free


def _tail_blocks(step: int, colours: bytes, depth=None, reverse=False) -> Iterator[np.ndarray]:
    """The stream of ``step`` on the points 0..m−1 with ``colours``, in blocks.

    Each run of ``depth`` first steps is a prefix, by default the fewest
    that leave a table of at most ``_TABLE_ENTRIES`` entries (so at most
    ``_ROWS`` rows): the rest of the stream on its free points, keyed by
    their colours (all 0 unless ``step`` is 2) and gathered as
    ``free[table]``.  A block stacks as many prefixes as fit in ``_ROWS``
    rows, and one prefix when its table is longer (a given ``depth``).
    The prefixes are built by :func:`_runs` from their numbers, up to
    ``_ROWS`` of them at once.  With ``reverse`` the stream comes last
    to first.
    """
    size, width = len(colours), 2 if step else 1
    if depth is None:
        depth = 0
        while _table_rows(step, size - width * depth) * (size - width * depth) > _TABLE_ENTRIES:
            depth += 1
    tail = size - width * depth
    rows = _table_rows(step, tail)
    total, per = _table_rows(step, size) // rows, max(1, _ROWS // rows)
    table = _table(step, colours[:tail]) if step < 2 else None  # all colours 0
    if table is not None and not depth:  # the whole stream is its cached table
        yield table[::-1] if reverse else table
        return
    batch = per * max(1, _ROWS // per)
    for first in range(0, total, batch):
        count = min(batch, total - first)
        start = total - 1 - first if reverse else first
        positions, values, free = _runs(step, colours, depth, start, count, reverse)
        if step == 2:  # flipping every colour leaves the table as it is
            shades = np.frombuffer(colours, dtype=np.uint8)[free]
            codes, slots = np.unique((shades ^ shades[:, :1]) @ (1 << np.arange(tail)),
                                     return_inverse=True)
            stack = np.array([_table(2, bytes(code >> b & 1 for b in range(tail)))
                              for code in codes.tolist()])
        if step:  # the tail sits at the free points of a matching
            base = np.empty((count, size), dtype=np.intp)
            base[np.arange(count)[:, None], positions] = values
        for lo in range(0, count, per):
            here = free[lo : lo + per]
            k = len(here)
            if step == 2:
                tables = stack[slots[lo : lo + per]]
                tails = here.reshape(-1).take(tables + tail * np.arange(k)[:, None, None])
            else:
                tails = here.take(table, axis=1)
            if reverse:
                tails = tails[:, ::-1]
            if step:
                block = base[lo : lo + per, None].repeat(rows, axis=1)
                cells = here[:, None] + size * np.arange(k * rows).reshape(k, rows, 1)
                block.reshape(-1)[cells] = tails
            else:  # after a permutation's prefix
                block = np.empty((k, rows, size), dtype=np.intp)
                block[..., : size - tail] = values[lo : lo + per, None]
                block[..., size - tail :] = tails
            yield block.reshape(k * rows, size)


def _mirror_pair_blocks(n: int, rule: str) -> Iterator[np.ndarray]:
    """Blocks of the index images of mirror-symmetric pairings of ±[n] with no (r,−r) pair.

    Every such pairing is an unsigned pairing of [n] together with a
    twist bit per pair.  For a pair {a, b} (a < b): untwisted
    contributes the 2-cycles (a,−b)(−a,b), twisted contributes
    (a,b)(−a,−b).  The twists follow ``rule``: ``"every"`` expands each
    unsigned pairing into all its twist tuples in lexicographic order,
    untwisted (0) first, bits aligned with its index pairs (i, j),
    i < j, sorted by i; ``"agree"`` twists exactly the pairs whose
    labels agree in parity and ``"differ"`` those whose labels differ.
    Order: unsigned pairings in :func:`pairings` order, then twist
    tuples.  In index space +a sits at n+a−1 and −a at n−a, so the pair
    (i, j) becomes (n+i, n−1−j)(n−1−i, n+j) untwisted and (n+i, n+j)
    (n−1−i, n−1−j) twisted: a twisted point's image is 2n−1 minus its
    untwisted one.  Each image is therefore the untwisted one plus, at
    the points whose pair is twisted, that difference: for ``"every"``
    each point reads its bit in every twist tuple from a cached table of
    the tuples by its pair's rank, for a whole chunk of rows at once.
    """
    if n < 0:
        return
    half, points = n // 2, np.arange(n)
    tuples = 2**half if rule == "every" else 1
    parents, width = max(1, _ROWS // tuples), min(tuples, _ROWS)
    if rule == "every":  # row t of a parent reads the bit of a point's pair (rank r) at r + half·t
        offsets = np.tile(np.repeat(half * np.arange(width), 2 * n), parents)
        offsets = offsets.reshape(parents * width, 2 * n)
    for block in _pairing_blocks(n):
        untwisted = np.concatenate(((n + block)[:, ::-1], n - 1 - block), axis=1)
        flip = 2 * n - 1 - 2 * untwisted  # twisted minus untwisted
        if rule != "every":
            bit = (block - points) % 2 == (rule == "differ")
            yield untwisted + flip * np.concatenate((bit[:, ::-1], bit), axis=1)
            continue
        # each point's pair, ranked by the pair's least point: its bit in a twist tuple
        rank = np.cumsum(block > points, axis=1) - 1
        rank = np.take_along_axis(rank, np.minimum(block, points), axis=1)
        rank = np.concatenate((rank[:, ::-1], rank), axis=1)
        for lo in range(0, len(block), parents):
            hi = lo + parents
            for first in range(0, tuples, _ROWS):
                index = rank[lo:hi].repeat(width, axis=0)
                index += offsets[: len(index)]
                rows = flip[lo:hi].repeat(width, axis=0)
                rows *= _twist_bits(half, first).reshape(-1).take(index)
                rows += untwisted[lo:hi].repeat(width, axis=0)
                yield rows


@lru_cache(maxsize=8)
def _twist_bits(half: int, first: int) -> np.ndarray:
    """The twist tuples of ``half`` pairs numbered ``first`` on, ``_ROWS`` at most, one row each.

    Tuple t twists pair c (pairs ranked by their least point) where bit
    half−1−c of t is set, so the tuples run in lexicographic order.
    """
    t = np.arange(first, min(2**half, first + _ROWS))
    bits = t[:, None] >> np.arange(half - 1, -1, -1) & 1 == 1
    bits.flags.writeable = False
    return bits


def _permutation_blocks(size: int) -> Iterator[np.ndarray]:
    """Blocks of all images of 0..size-1 in lexicographic order."""
    yield from _tail_blocks(0, bytes(size))


# ---------------------------------------------------------------------------
# capped, budgeted block streams (what the package reads)
#
# Each checks its cap when called and counts its budget in elements.  The
# public stream of the same name, where there is one, builds its objects
# from their rows.
# ---------------------------------------------------------------------------

#: Each block stream's work: the rows it yields at a ground size, 0 where it
#: is empty.  The signed symmetric permutations of ±[n] are as many as the
#: matchings of 2n points, the colour-class pairings of ±[n] as those of
#: n, and the signed symmetric pairings 2^(n/2) times that.
_pairing_rows = partial(_table_rows, 1)
_bipartite_rows = partial(_table_rows, 2)


def _colour_class_rows(size: int) -> int:
    return 0 if size % 2 else _pairing_rows(size // 2)


def _mirror_rows(size: int) -> int:
    return _colour_class_rows(size) << size // 4


@cache
def _default_cap(length: Callable[[int], int]) -> int:
    """The largest size whose work ``length`` is 1 to ``STREAM_ROW_CAP`` (nonempty lengths grow)."""
    cap, size = 0, 0
    while (work := length(size)) <= STREAM_ROW_CAP:
        cap, size = size if work else cap, size + 1
    return cap


def _checked(noun: str, length: Callable[[int], int], ground: GroundSet, cap, budget) -> str:
    """The stream's name for its budget, once its budget's type and ground's size are checked."""
    if budget is not None and not isinstance(budget, EnumerationBudget):
        raise TypeError(f"budget must be an EnumerationBudget or None, got {budget!r}")
    effective = _default_cap(length) if cap is None else _check_integer("cap", cap)
    if ground.size > effective:
        raise CapExceeded(
            f"{noun} enumeration requested for size {ground.size}, above the cap {effective}",
            requested=ground.size,
            cap=effective,
        )
    where = f"±[{ground.n}]" if ground.kind == GroundSet.SIGNED else f"[{ground.n}]"
    return f"{noun}s of {where}"


def _capped(noun: str, length, ground: GroundSet, cap, budget, blocks):
    """Lazy ``blocks`` of ``noun``s on ``ground``, refused above the cap before any is built.

    The rows within the budget come first, so a consumer that takes at
    most its elements never raises; :class:`CapExceeded` when one more exists."""
    what = _checked(noun, length, ground, cap, budget)
    if budget is None:
        return blocks
    limit = budget.max_elements

    def within():
        left = limit
        for block in blocks:
            if len(block) > left:  # the block holds element limit + 1
                if left:
                    yield block[:left]
                raise _over_budget(what, limit)
            left -= len(block)
            yield block

    return within()


#: Points a counting pass leaves to the tail table after each prefix, by
#: step: the 720 permutations of 6 values, the 945 matchings of 10 points,
#: the bipartite matchings of 6 + 6 points, counted on the same S_6, and
#: the 120 signed symmetric pairings of ±[6].
_COUNTED_TAIL = (6, 10, 12, 12)


def _prefix_count(step: int, size: int) -> int:
    """The prefixes the counting form of stream ``step`` runs on ``size`` points (0: empty)."""
    rows = _COUNTED_ROWS[step](size)
    return rows and rows // _COUNTED_ROWS[step](min(size, _COUNTED_TAIL[step]))


#: Each counting form's noun, stream length (rows at a ground size) and
#: work (the prefixes it runs), by step.
_COUNTED_NOUNS = ("permutation", "pairing", "bipartite pairing", "signed symmetric pairing")
_COUNTED_ROWS = (*(partial(_table_rows, step) for step in range(3)), _mirror_rows)
_PREFIX_COUNTS = tuple(partial(_prefix_count, step) for step in range(4))


def _prefixes(step: int, ground: GroundSet, cap=None, budget=None):
    """The counting form of stream ``step`` on ``ground``: (step, tail table, prefix batches).

    Step 3 is the signed symmetric pairings of ±[n].  The size is refused
    above the cap, and a budget below the stream's length, as the block
    stream refuses them (the same errors), before any table is built; a
    counting pass reads every element, so none is counted before a budget
    raises.  Each prefix is a run of :func:`_runs` that leaves
    ``_COUNTED_TAIL`` points (all of them on a smaller ground), given as
    (positions, values, tail positions, free values), ``_ROWS`` prefixes
    a batch (:func:`_signed_prefixes` for step 3); the tail table is the
    stream on the tail, or S_m for a bipartite tail of m + m points.  The
    batches are lazy, and empty where the stream is.
    """
    what = _checked(_COUNTED_NOUNS[step], _PREFIX_COUNTS[step], ground, cap, budget)
    size = ground.size
    length = _COUNTED_ROWS[step](size)
    if budget is not None and length > budget.max_elements:
        raise _over_budget(what, budget.max_elements)
    if not length:  # an odd number of points has no matching
        return step, np.zeros((0, 0), np.intp), iter(())
    width, tail = (1, 2, 2, 4)[step], min(size, _COUNTED_TAIL[step])
    depth = (size - tail) // width
    tails = _table(0, bytes(tail // 2)) if step == 2 else _table(step, bytes(tail))

    def batches():
        if not depth:  # the stream is its tail table: one empty prefix
            points = np.arange(size)[None]
            yield np.empty((1, 0), np.intp), np.empty((1, 0), np.intp), points, points
            return
        if step == 3:
            yield from _signed_prefixes(ground.n, depth)
            return
        colours = bytes(i % 2 if step == 2 else 0 for i in range(size))
        total = length // _table_rows(step, tail)
        for first in range(0, total, _ROWS):
            count = min(_ROWS, total - first)
            positions, values, free = _runs(step, colours, depth, first, count, False)
            if step:  # a matching's tail sits at its free points
                yield positions, values, free, free
            else:
                rows = (len(free), depth)
                tail_at = np.broadcast_to(np.arange(depth, size), free.shape)
                yield np.broadcast_to(positions, rows), values, tail_at, free

    return step, tails, batches()


def _signed_prefixes(n: int, depth: int):
    """Prefix batches of the signed symmetric pairings of ±[n]: ``depth`` pairs of [n], twisted.

    Each run of ``depth`` first pairs of the matchings of [n] comes with
    each of its 2^depth twist tuples, on its 4·depth signed points: in
    index space +p sits at n+p and −p at n−1−p, so an untwisted p ↦ v
    sends n+p to n−1−v and n−1−p to n+v, a twisted one n+p to n+v and
    n−1−p to n−1−v.  The tail slots are those of the free points f, slot
    s < t at −f_{t−1−s} and slot s ≥ t at +f_{s−t}, so the mirror is
    s ↦ 2t−1−s on them as on ±[t], and the tail table is the stream on
    ±[t].  At most ``_ROWS`` prefixes a batch.
    """
    twists = 1 << depth
    bits = (np.arange(twists)[:, None] >> np.arange(depth) & 1).repeat(2, axis=1) == 1
    total, per = _table_rows(1, n) // _table_rows(1, n - 2 * depth), max(1, _ROWS >> depth)
    for first in range(0, total, per):
        count = min(per, total - first)
        positions, values, free = _runs(1, bytes(n), depth, first, count, False)
        plus = np.where(bits, n + values[:, None], n - 1 - values[:, None])  # pair j // 2's bit
        values = np.concatenate((plus, 2 * n - 1 - plus), axis=2).reshape(count * twists, -1)
        positions = np.concatenate((n + positions, n - 1 - positions), axis=1)
        slots = np.concatenate(((n - 1 - free)[:, ::-1], n + free), axis=1).repeat(twists, axis=0)
        yield positions.repeat(twists, axis=0), values, slots, slots


def _completions(step: int, positions, values, tail, free) -> np.ndarray:
    """The rows of stream ``step`` that start with one prefix of :func:`_prefixes`.

    The prefix is given as a row of each of its arrays; the rows complete
    it by the stream on its tail, in that stream's order (for a bipartite
    tail, its matchings that join the colours).
    """
    m = len(free)
    if step == 3:
        table = _table(3, bytes(m))
    else:
        colours = bytes(f % 2 for f in free.tolist()) if step == 2 else bytes(m)
        table = np.concatenate(tuple(_tail_blocks(step, colours)))
    rows = np.empty((len(table), len(positions) + m), np.intp)
    rows[:, positions] = values
    rows[:, tail] = free[table]
    return rows


def _pairings_of_blocks(ground: GroundSet, cap=None, budget=None) -> Iterator[np.ndarray]:
    return _capped("pairing", _pairing_rows, ground, cap, budget, _pairing_blocks(ground.size))


def _signed_symmetric_pairings_blocks(n: int, cap=None, budget=None) -> Iterator[np.ndarray]:
    blocks = _mirror_pair_blocks(n, "every")
    return _capped("signed symmetric pairing", _mirror_rows, signed_ground(n), cap, budget, blocks)


def _bipartite_pairing_blocks(n: int, cap=None, budget=None) -> Iterator[np.ndarray]:
    blocks = _pairing_blocks(n, 2)
    return _capped("bipartite pairing", _bipartite_rows, unsigned_ground(n), cap, budget, blocks)


def _bipartite_signed_symmetric_pairing_blocks(
    n: int, cap=None, budget=None
) -> Iterator[np.ndarray]:
    blocks, pm = _mirror_pair_blocks(n, "agree"), signed_ground(n)
    noun = "bipartite signed symmetric pairing"
    return _capped(noun, _colour_class_rows, pm, cap, budget, blocks)


def _white_to_black_pairing_blocks(n: int, cap=None, budget=None) -> Iterator[np.ndarray]:
    blocks, pm = _mirror_pair_blocks(n, "differ"), signed_ground(n)
    return _capped("white-to-black pairing", _colour_class_rows, pm, cap, budget, blocks)


def _permutations_of_blocks(ground: GroundSet, cap=None, budget=None) -> Iterator[np.ndarray]:
    blocks = _permutation_blocks(ground.size)
    return _capped("permutation", math.factorial, ground, cap, budget, blocks)


def _signed_symmetric_permutations_blocks(n: int, cap=None, budget=None) -> Iterator[np.ndarray]:
    blocks, pm = _mirrored_pairings(n), signed_ground(n)
    return _capped("signed symmetric permutation", _pairing_rows, pm, cap, budget, blocks)


def _mirrored_pairings(n: int) -> Iterator[np.ndarray]:
    """τ₀σ over the pairings σ of ±[n], in lexicographic image order.

    With the mirror M(i) = 2n−1−i, τ₀σ has image M(σ(i)).  The pairings
    come in lexicographic image order (two of them first differ at the
    smallest index still unmatched where they branch, ascending), and M
    reverses it, so the stream is the mirrored pairings last to first,
    expanded in that order a block at a time.
    """
    for block in _tail_blocks(1, bytes(2 * n), reverse=True):
        yield 2 * n - 1 - block


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def pairings_of(
    ground: GroundSet,
    *,
    cap: int | None = None,
    budget: EnumerationBudget | None = None,
) -> Iterator[Pairing]:
    """All pairings of an arbitrary ground set, smallest-label-first order.

    The smallest unmatched label is paired with each larger unmatched
    label in ascending order, recursively.
    """
    return _members(Pairing, ground, _pairings_of_blocks(ground, cap, budget))


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
    blocks = _signed_symmetric_pairings_blocks(n, cap, budget)
    return _members(Pairing, signed_ground(n), blocks)


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
    return _members(Permutation, ground, _permutations_of_blocks(ground, cap, budget))


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
    with the mirror M(i) = 2n−1−i, τ has image M(σ(i)), and the stream
    is in lexicographic image order.  At n=1 the stream is exactly
    {identity}.
    """
    blocks = _signed_symmetric_permutations_blocks(n, cap, budget)
    return _members(Permutation, signed_ground(n), blocks)
