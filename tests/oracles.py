"""Independent naive reference implementations used as test oracles.

Everything here works on plain dicts mapping label -> label, so that it
shares no code path with the package under test, except the two
index-space recursions that the stream block builders replaced
(``ref_pairing_images`` and ``ref_mirror_pair_images``), which are the
reference for their order, and the literal Monte Carlo route on dense
numpy matrices (``ref_dense_traces``), and the object forms of cycle
printing and bijection checking (``ref_cycle_string``, ``ref_verify``),
which the package replaced by one-walk and row forms and which read its
``Permutation`` and ``BijectionReport`` types, and the label form of the
torus and Klein frames (``ref_frame_from_cycles``), which the frame
constructors replaced by index images.  The implementations
favour obviousness over speed and are only used at small sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product
from math import comb

import numpy as np


def ref_compose(p: dict, q: dict) -> dict:
    """x -> p(q(x))."""
    return {x: p[q[x]] for x in q}


def ref_inverse(p: dict) -> dict:
    return {y: x for x, y in p.items()}


def ref_identity(labels) -> dict:
    return {x: x for x in labels}


def ref_cycles(p: dict) -> list[tuple]:
    """Disjoint cycles, each rotated to start at its min, sorted by min."""
    seen = set()
    out = []
    for start in sorted(p):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = p[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        m = cyc.index(min(cyc))
        out.append(tuple(cyc[m:] + cyc[:m]))
    out.sort(key=lambda c: c[0])
    return out


def ref_num_cycles(p: dict) -> int:
    return len(ref_cycles(p))


def ref_join_blocks(p: dict, q: dict) -> int:
    """Blocks of the finest common coarsening of the orbit partitions."""
    labels = set(p)
    blocks = {x: {x} for x in labels}

    def merge(a, b):
        ba, bb = blocks[a], blocks[b]
        if ba is bb:
            return
        if len(ba) < len(bb):
            ba, bb = bb, ba
        ba |= bb
        for x in bb:
            blocks[x] = ba

    for x in labels:
        merge(x, p[x])
        merge(x, q[x])
    return len({id(b) for b in blocks.values()})


def ref_all_pairings(items: list) -> list[list[tuple]]:
    """All perfect matchings of ``items``, smallest-element-first order.

    The first item is paired with each later item in ascending order and
    the rest is matched recursively; this is the deterministic order the
    package promises.
    """
    if not items:
        return [[]]
    out = []
    first, rest = items[0], items[1:]
    for k, other in enumerate(rest):
        for sub in ref_all_pairings(rest[:k] + rest[k + 1:]):
            out.append([(first, other)] + sub)
    return out


def ref_pairing_images(size: int, step: int = 1):
    """Index images of all matchings of 0..size-1, by depth-first recursion.

    The order the block builders of ``annular.streams`` must reproduce:
    the smallest unmatched index is paired with each larger unmatched
    index in ascending order, recursively; with ``step=2`` only with
    indices at odd distance.  Index space, not dicts: this is the
    recursion the blocks replace, kept as their reference.
    """
    if size % 2:
        return
    image = [-1] * size

    def rec(start: int):
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


def ref_mirror_pair_images(n: int, rule: str):
    """Index images of mirror-symmetric pairings of ±[n], one pairing of [n] at a time.

    For each image of :func:`ref_pairing_images` (n), its pairs (i, j),
    i < j, sorted by i, each untwisted ((n+i, n−1−j)(n−1−i, n+j)) or
    twisted ((n+i, n+j)(n−1−i, n−1−j)): all twist tuples in
    lexicographic order, untwisted first, for ``rule="every"``; twisted
    exactly where j − i is even for ``"agree"``, odd for ``"differ"``.
    """
    for img in ref_pairing_images(n):
        pairs = [(i, j) for i, j in enumerate(img) if i < j]
        if rule == "every":
            twist_tuples = product((False, True), repeat=len(pairs))
        else:
            twist_tuples = [[(j - i) % 2 == (rule == "differ") for i, j in pairs]]
        for twists in twist_tuples:
            out = [-1] * (2 * n)
            for (i, j), twisted in zip(pairs, twists):
                if twisted:
                    x, y, z, w = n + i, n + j, n - 1 - i, n - 1 - j
                else:
                    x, y, z, w = n + i, n - 1 - j, n - 1 - i, n + j
                out[x], out[y] = y, x
                out[z], out[w] = w, z
            yield tuple(out)


def pairing_to_map(pairs) -> dict:
    p = {}
    for a, b in pairs:
        p[a] = b
        p[b] = a
    return p


def ref_full_cycle(n: int) -> dict:
    """1_n = (1, 2, ..., n) on [n]."""
    return {i: (i % n) + 1 for i in range(1, n + 1)}


def ref_tau0(n: int) -> dict:
    """(1,-1)(2,-2)...(n,-n) on ±[n]."""
    p = {}
    for i in range(1, n + 1):
        p[i] = -i
        p[-i] = i
    return p


def ref_tau2(n: int) -> dict:
    """(-1,2)(-2,3)...(-n,1) on ±[n]."""
    p = {}
    for i in range(1, n + 1):
        p[-i] = i + 1 if i < n else 1
        p[i + 1 if i < n else 1] = -i
    return p


def ref_annulus_cycle(n: int) -> dict:
    """(1,...,n)(-n,...,-1) on ±[n] (equals tau2·tau0)."""
    p = {}
    for i in range(1, n + 1):
        p[i] = i + 1 if i < n else 1
    for i in range(1, n + 1):
        p[-i] = -(i - 1) if i > 1 else -n
    return p


def ref_is_noncrossing(p: dict, gamma: dict) -> bool:
    """Joint transitivity plus the genus-zero cycle-count identity."""
    n = len(gamma)
    if ref_join_blocks(p, gamma) != 1:
        return False
    total = (
        ref_num_cycles(p)
        + ref_num_cycles(ref_compose(ref_inverse(p), gamma))
        + ref_num_cycles(gamma)
    )
    return total == n + 2


def ref_is_delta_symmetric(p: dict) -> bool:
    """Mirror-closed cycle set and no (r,-r) two-cycle."""
    for x in p:
        # mirror condition pi(-pi(x)) = -x
        if p[-p[x]] != -x:
            return False
    for x in p:
        if x > 0 and p[x] == -x and p[-x] == x:
            return False
    return True


def ref_signed_symmetric_pairings(n: int) -> list[dict]:
    """Brute-force delta-symmetric pairings of ±[n] (as dicts).

    The smallest-first search of :func:`ref_all_pairings`, cut where a
    chosen pair {a, b} has b = -a or its mirror {-a, -b} is already split
    (one side matched elsewhere); no cut removes a delta-symmetric
    pairing, and every survivor is still checked with
    :func:`ref_is_delta_symmetric`.  Same result and order as filtering
    all (2n-1)!! pairings, without holding them in memory.
    """
    labels = [x for x in range(-n, n + 1) if x != 0]
    out = []
    p: dict = {}

    def extend(rest: list) -> None:
        if not rest:
            if ref_is_delta_symmetric(p):
                out.append(dict(p))
            return
        first = rest[0]
        for k in range(1, len(rest)):
            other = rest[k]
            if other == -first:
                continue
            if p.get(-first, -other) != -other or p.get(-other, -first) != -first:
                continue
            p[first], p[other] = other, first
            extend(rest[1:k] + rest[k + 1:])
            del p[first], p[other]

    extend(labels)
    return out


def ref_permutations(labels) -> list[dict]:
    labels = sorted(labels)
    return [dict(zip(labels, img)) for img in iter_permutations(labels)]


def ref_signed_symmetric_permutations(n: int) -> list[dict]:
    """Brute-force delta-symmetric permutations of ±[n] (as dicts).

    Every permutation of ±[n] in lexicographic order, kept when no label
    maps to its negative and p(-p(x)) = -x for every x.
    """
    labels = [x for x in range(-n, n + 1) if x != 0]
    return [
        p
        for p in ref_permutations(labels)
        if all(p[x] != -x and p[-p[x]] == -x for x in labels)
    ]


def ref_delta_symmetric_permutations(n: int):
    """Delta-symmetric permutations of ±[n] (as dicts), by a pruned search.

    The least unassigned label x takes each unused y != -x in ascending
    order, and p(x) = y forces p(-y) = -x: a branch is cut where -y
    already maps elsewhere or -x is already an image.  So the dicts come
    in lexicographic image order, like :func:`ref_signed_symmetric_permutations`,
    which filters all (2n)! permutations, and nothing is built from pairings.
    """
    labels = [x for x in range(-n, n + 1) if x != 0]
    p: dict = {}
    images: set = set()

    def extend():
        x = next((x for x in labels if x not in p), None)
        if x is None:
            yield dict(p)
            return
        for y in labels:
            if y == -x or y in images:
                continue
            p[x] = y
            images.add(y)
            if -y in p:
                if p[-y] == -x:
                    yield from extend()
            elif -x not in images:
                p[-y] = -x
                images.add(-x)
                yield from extend()
                del p[-y]
                images.discard(-x)
            del p[x]
            images.discard(y)

    yield from extend()


def ref_from_cycles(n: int, cycles, signed: bool = False) -> dict:
    """The permutation with the given cycles on [n] or ±[n]; fixed elsewhere."""
    labels = range(-n, n + 1) if signed else range(1, n + 1)
    p = {x: x for x in labels if x != 0}
    for cyc in cycles:
        for i, x in enumerate(cyc):
            p[x] = cyc[(i + 1) % len(cyc)]
    return p


def ref_torus_frame(n: int, u: int, v: int) -> dict:
    """(u, ..., v)(1, ..., u-1, v+1, ..., n) on [n]."""
    rest = list(range(1, u)) + list(range(v + 1, n + 1))
    return ref_from_cycles(n, [list(range(u, v + 1)), rest])


def ref_klein_frame(n: int, u: int, v: int) -> dict:
    """(u..v-1, 1-u..-1, -n..-v)(v..n, 1..u-1, 1-v..-u) on ±[n]."""
    upper = list(range(u, v)) + list(range(1 - u, 0)) + list(range(-n, -v + 1))
    lower = list(range(v, n + 1)) + list(range(1, u)) + list(range(1 - v, -u + 1))
    return ref_from_cycles(n, [upper, lower], signed=True)


def ref_frame_from_cycles(n: int, u: int, v: int, *, klein: bool):
    """The torus / Klein frame γ as a ``Permutation`` built over labels.

    The product formula 1ₙ·(u−1, v) or 1̃ₙ·(−u, v−1)·(−v, u−1) by
    ``Permutation.from_cycles`` and ``compose``, raising unless it equals
    the displayed two-cycle form built by ``from_cycles`` too.
    """
    from annular.frames import annulus_cycle, full_cycle
    from annular.perms import Permutation, compose, signed_ground, unsigned_ground

    if klein:
        ground = signed_ground(n)
        swap1 = Permutation.from_cycles(ground, [(-u, v - 1)])
        swap2 = Permutation.from_cycles(ground, [(-v, u - 1) if u > 1 else (-v, n)])
        gamma = compose(compose(annulus_cycle(n), swap1), swap2)
        upper = [*range(u, v), *range(1 - u, 0), *range(-n, -v + 1)]
        lower = [*range(v, n + 1), *range(1, u), *range(1 - v, -u + 1)]
    else:
        ground = unsigned_ground(n)
        gamma = compose(full_cycle(n), Permutation.from_cycles(ground, [(u - 1 or n, v)]))
        upper, lower = [*range(u, v + 1)], [*range(1, u), *range(v + 1, n + 1)]
    if gamma != Permutation.from_cycles(ground, [upper, lower]):
        raise AssertionError(f"product and displayed forms differ at {(n, u, v, klein)}")
    return gamma


def ref_union_witnesses(
    p: dict, n: int, *, klein: bool, hypermap: bool, parity: int | None = None
) -> list[tuple[int, int]]:
    """Every cut (u, v) whose torus / Klein frame admits p.

    The anchor is p (pairing unions) or its inverse (hypermap unions).
    Torus cuts run over 1 <= u < v < n and need anchor(u) = v with no
    a < u sent into [u, v]; Klein cuts run over 1 <= u < v <= n and need
    anchor(u) = -v with no a < u sent to a negative label.  Then p must
    be non-crossing against the frame.
    """
    anchor = ref_inverse(p) if hypermap else p
    top = n if klein else n - 1
    out = []
    for u in range(1, top + 1):
        for v in range(u + 1, top + 1):
            if parity is not None and (v - u) % 2 != parity:
                continue
            head = [anchor[a] for a in range(1, u)]
            if klein:
                if anchor[u] != -v or any(x < 0 for x in head):
                    continue
                gamma = ref_klein_frame(n, u, v)
            else:
                if anchor[u] != v or any(u <= x <= v for x in head):
                    continue
                gamma = ref_torus_frame(n, u, v)
            if ref_is_noncrossing(p, gamma):
                out.append((u, v))
    return out


def ref_double_factorial(m: int) -> int:
    """m!! — the number of pairings of an m-set is (m−1)!! for even m."""
    return math.prod(range(m, 1, -2))


def ref_catalan(n: int) -> int:
    value = Fraction(1)
    for k in range(n):
        value = value * Fraction(2 * (2 * k + 1), k + 2)
    assert value.denominator == 1
    return int(value)


def ref_harer_zagier(n: int) -> dict[int, int]:
    """Genus g -> ε_g(n), the gluings of a 2n-gon into a surface of genus g.

    The Harer–Zagier recursion (Invent. Math. 85, 1986) from ε_0(0) = 1:
    (n+1)ε_g(n) = 2(2n−1)ε_g(n−1) + (n−1)(2n−1)(2n−3)ε_{g−1}(n−2).
    """
    eps: list[dict[int, int]] = [{}, {0: 1}]  # ε(−1), ε(0)
    for k in range(1, n + 1):
        before, last = eps[-2], eps[-1]
        row = {}
        for g in range(k // 2 + 1):
            total = 2 * (2 * k - 1) * last.get(g, 0)
            total += (k - 1) * (2 * k - 1) * (2 * k - 3) * before.get(g - 1, 0)
            assert total % (k + 1) == 0
            if total:
                row[g] = total // (k + 1)
        eps.append(row)
    return eps[-1]


def ref_narayana(n: int, p: int) -> int:
    value = Fraction(comb(n, p) * comb(n, p - 1), n)
    assert value.denominator == 1
    return int(value)


def ref_cycle_count_on(p: dict, subset: set) -> int:
    """Number of cycles of p supported inside ``subset``.

    Requires every cycle to be entirely inside or entirely outside.
    """
    count = 0
    for cyc in ref_cycles(p):
        inside = len(set(cyc) & subset)
        assert inside in (0, len(cyc)), "cycle straddles the subset"
        if inside:
            count += 1
    return count


def ref_completion_counts(c: dict, completions, *, joint=False, white=None) -> dict:
    """Histogram over the ``completions`` t (dicts) of the cycles of c∘t.

    The key is #(c∘t); (#t, #(c∘t)) when ``joint``; (cycles of c∘t
    inside ``white``, the other cycles) when a ``white`` set is given.
    """
    counts: dict = {}
    for t in completions:
        walk = ref_compose(c, t)
        if white is not None:
            inside = ref_cycle_count_on(walk, white)
            key = (inside, ref_num_cycles(walk) - inside)
        else:
            key = (ref_num_cycles(t), ref_num_cycles(walk)) if joint else ref_num_cycles(walk)
        counts[key] = counts.get(key, 0) + 1
    return counts


def ref_genus_of_pairing(p: dict, n: int) -> int:
    faces = ref_num_cycles(ref_compose(ref_inverse(p), ref_full_cycle(n)))
    twice = n // 2 + 1 - faces
    assert twice >= 0 and twice % 2 == 0
    return twice // 2


def ref_family_a_counts(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for pairs in ref_all_pairings(list(range(1, n + 1))):
        g = ref_genus_of_pairing(pairing_to_map(pairs), n)
        counts[g] = counts.get(g, 0) + 1
    return counts


def ref_euler_genus(p: dict, n: int) -> int:
    boundary = ref_num_cycles(ref_compose(ref_tau2(n), p))
    twice = n + 2 - boundary
    assert twice >= 0 and twice % 2 == 0
    return twice // 2


def ref_has_twist(p: dict, n: int) -> bool:
    return any(p[a] > 0 for a in range(1, n + 1))


def ref_family_b_counts(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in ref_signed_symmetric_pairings(n):
        if not ref_has_twist(p, n):
            continue
        k = ref_euler_genus(p, n)
        counts[k] = counts.get(k, 0) + 1
    return counts


def ref_black_white(m: int) -> tuple[set, set]:
    black = set(range(1, 2 * m, 2)) | {-2 * i for i in range(1, m + 1)}
    white = set(range(2, 2 * m + 1, 2)) | {1 - 2 * i for i in range(1, m + 1)}
    return black, white


def ref_family_a_tilde_counts(n: int) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for pairs in ref_all_pairings(list(range(1, 2 * n + 1))):
        if any((a + b) % 2 == 0 for a, b in pairs):
            continue
        p = pairing_to_map(pairs)
        g = ref_genus_of_pairing(p, 2 * n)
        faces = ref_compose(ref_inverse(p), ref_full_cycle(2 * n))
        grade = ref_cycle_count_on(faces, set(range(1, 2 * n, 2)))
        counts[(g, grade)] = counts.get((g, grade), 0) + 1
    return counts


def ref_family_b_tilde_counts(n: int) -> dict[tuple[int, int], int]:
    black, white = ref_black_white(n)
    counts: dict[tuple[int, int], int] = {}
    for p in ref_signed_symmetric_pairings(2 * n):
        if any(p[b] not in black for b in black):
            continue
        if not ref_has_twist(p, 2 * n):
            continue
        k = ref_euler_genus(p, 2 * n)
        walk = ref_compose(ref_tau2(2 * n), p)
        white_cycles = ref_cycle_count_on(walk, white)
        assert white_cycles % 2 == 0
        counts[(k, white_cycles // 2)] = counts.get((k, white_cycles // 2), 0) + 1
    return counts


def ref_loe_signed_pairing_terms(n: int) -> dict[tuple[int, int], int]:
    """(N power, c power) -> count of the LOE Wick sum over signed symmetric gluings.

    The route the Wishart pairing sum replaced: every signed symmetric
    pairing of ±[2n] that keeps the black set B(n) contributes N^b c^w
    for b boundary walks of τ₂π, w of them white (each walk counted once
    of its mirror pair); the moment is the sum over 2ⁿ.
    """
    black, white = ref_black_white(n)
    counts: dict[tuple[int, int], int] = {}
    for p in ref_signed_symmetric_pairings(2 * n):
        if any(p[b] not in black for b in black):
            continue
        walk = ref_compose(ref_tau2(2 * n), p)
        boundaries, white_walks = ref_num_cycles(walk), ref_cycle_count_on(walk, white)
        assert boundaries % 2 == 0 and white_walks % 2 == 0
        key = (boundaries // 2, white_walks // 2)
        counts[key] = counts.get(key, 0) + 1
    return counts


def ref_hypermap_orientable(p: dict, n: int) -> dict:
    """Shrink the white vertices of a bipartite pairing of [2n]: u -> (p(2u) + 1)/2."""
    return {u: (p[2 * u] + 1) // 2 for u in range(1, n + 1)}


def ref_hypermap_nonorientable(p: dict, m: int) -> dict:
    """The white half of τ₂τ₁ on ±[2m], relabelled onto ±[m] by h.

    h(w) = (|w| + 1)/2 for odd |w| and −|w|/2 for even |w|.
    """
    _, white = ref_black_white(m)
    h = {w: (abs(w) + 1) // 2 if abs(w) % 2 else -(abs(w) // 2) for w in white}
    walk = ref_compose(ref_tau2(2 * m), p)
    return {h[w]: h[walk[w]] for w in white}


def ref_family_a_hat_counts(n: int) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for p in ref_permutations(range(1, n + 1)):
        vertices = ref_num_cycles(p)
        faces = ref_num_cycles(ref_compose(ref_inverse(p), ref_full_cycle(n)))
        twice = n - vertices + 1 - faces
        assert twice >= 0 and twice % 2 == 0
        key = (twice // 2, vertices)
        counts[key] = counts.get(key, 0) + 1
    return counts


def ref_family_b_hat_counts(n: int) -> dict[tuple[int, int], int]:
    """(k, p) histogram over mirror-symmetric twisted permutations of ±[n]."""
    counts: dict[tuple[int, int], int] = {}
    for p in ref_signed_symmetric_permutations(n):
        if not any(p[a] < 0 for a in range(1, n + 1)):
            continue
        halves = ref_num_cycles(p)
        boundary = ref_num_cycles(ref_compose(ref_annulus_cycle(n), p))
        assert halves % 2 == 0 and boundary % 2 == 0
        grade = halves // 2
        k = n - grade + 1 - boundary // 2
        assert k >= 1
        key = (k, grade)
        counts[key] = counts.get(key, 0) + 1
    return counts


def ref_lagrange_coefficients(points: list[tuple]) -> list:
    """Exact coefficients [c0, c1, ...] of the unique polynomial of degree
    < len(points) through the given (x, y) points, via Lagrange bases."""
    from fractions import Fraction

    size = len(points)
    coeffs = [Fraction(0)] * size
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), lowest degree first
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= Fraction(xi) - Fraction(xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, coeff in enumerate(basis):
                nxt[d] += coeff * (-Fraction(xj))
                nxt[d + 1] += coeff
            basis = nxt
        scale = Fraction(yi) / denom
        for d, coeff in enumerate(basis):
            coeffs[d] += coeff * scale
    return coeffs


# ---------------------------------------------------------------------------
# the literal Monte Carlo route
# ---------------------------------------------------------------------------

_ROOT_HALF = math.sqrt(0.5)


def ref_draw_real(rng, shape):
    """Real Gaussian entries of variance ½."""
    return rng.standard_normal(shape) * _ROOT_HALF


def ref_draw_complex(rng, shape):
    """Complex Gaussian entries of total variance 1: all real parts, then all imaginary."""
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    return (real + 1j * imag) * _ROOT_HALF


def ref_trace_power(matrices, n: int):
    """Tr Mⁿ of each matrix of a batch, by repeated products."""
    power = matrices
    for _ in range(n - 1):
        power = power @ matrices
    traces = np.einsum("bii->b", power)
    return traces.real if np.iscomplexobj(traces) else traces


def ref_dense_traces(rng, ensemble, n: int, N: int, M, size: int):
    """One block of Tr Mⁿ on dense matrices: a sampler for ``montecarlo._estimate``.

    H = (G + G*)/2 for an N×N Ginibre G (Gaussian cases) or W = G*G for
    an M×N one (Laguerre cases).  The Ginibre entries are drawn as one
    (size, N, N) or (size, M, N) array, row-major.
    """
    draw = ref_draw_complex if ensemble.is_complex else ref_draw_real
    if ensemble.is_gaussian:
        g = draw(rng, (size, N, N))
        matrices = 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1))))
    else:
        g = draw(rng, (size, M, N))
        matrices = np.conj(np.transpose(g, (0, 2, 1))) @ g
    return ref_trace_power(matrices, n)


# ---------------------------------------------------------------------------
# the object forms of cycle printing and bijection checking
# ---------------------------------------------------------------------------

def ref_cycle_string(perm) -> str:
    """Canonical cycle notation of a ``Permutation``, built from its index cycles.

    Each cycle starts at its least index, cycles are sorted by it, fixed
    points are omitted and the identity prints as ''.
    """
    labels = perm.domain.labels()
    image = perm.image
    seen = set()
    cycles = []
    for start in range(len(image)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = image[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = image[j]
        cycles.append(cycle)
    return "".join(
        "(" + ",".join(str(labels[i]) for i in cycle) + ")" for cycle in cycles if len(cycle) > 1
    )


def ref_verify(name: str, n: int, domain, codomain, fn):
    """A ``BijectionReport`` from mapping the ``Permutation`` objects of
    ``domain`` through the object map ``fn`` and comparing them with
    ``codomain`` two-sidedly: witnesses in domain order, then failures per
    element in domain order (a repeated image, an image outside the
    target), then the missed target members in image order, all capped.
    """
    from annular.bijections import WITNESS_CAP, BijectionReport

    domain = tuple(domain)
    codomain_set = frozenset(codomain)
    witnesses, failures, hit = [], [], {}
    injective = True
    for t in domain:
        image = fn(t)
        if len(witnesses) < WITNESS_CAP:
            witnesses.append((ref_cycle_string(t), ref_cycle_string(image)))
        previous = hit.get(image)
        if previous is not None:
            injective = False
            failures.append(
                f"not injective: {ref_cycle_string(previous)} and "
                f"{ref_cycle_string(t)} share the image {ref_cycle_string(image)}"
            )
        else:
            hit[image] = t
        if image not in codomain_set:
            failures.append(
                f"image {ref_cycle_string(image)} of {ref_cycle_string(t)} "
                "lies outside the target family"
            )
    missed = sorted(codomain_set - set(hit), key=lambda p: p.image)
    failures += (f"target member {ref_cycle_string(pi)} is never hit" for pi in missed)
    return BijectionReport(
        name=name,
        n=n,
        domain_size=len(domain),
        codomain_size=len(codomain_set),
        injective=injective,
        surjective=not missed,
        witnesses=tuple(witnesses),
        failures=tuple(failures[:WITNESS_CAP]),
    )
