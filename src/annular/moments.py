"""Exact spectral moments 𝔼 Tr Mⁿ for the four ensembles, two ways.

``wick_moment`` expands the trace with the Isserlis–Wick theorem and sums
an exact weight over raw gluing candidates (pairings, twisted
mirror-symmetric gluings, permutations, and for LOE the pairings of the
2n real factors of Tr (XXᵀ)ⁿ, the Wishart sum).  ``genus_expansion_moment``
instead weighs each family count by the dimension power its Euler genus
dictates.  Neither has an order cap of its own: the caps of the sources
it reads (each on its work) refuse an order with ``CapExceeded`` before
any row or table is built (the GOE and LOE genus routes read first the
source whose cap binds first), and odd Gaussian orders read no stream.

How the sums are taken.  The LOE Wick sum keys each row of its
stream with the batched cycle kernel of :mod:`annular.perms` against
cached walks.  The GUE, GOE and LUE Wick sums build no row: they read
the pairings or permutations of [n], or the signed symmetric pairings
of ±[n], by prefix (:func:`annular.streams._prefixes`, counted by
:func:`annular.perms._prefix_cycle_counts`) for the faces #(γ⁻¹π) of
each pairing (GUE), the boundary walks #(τ₂π) of each gluing (GOE), #π
and #(γ⁻¹π) of each permutation (LUE).  The genus route reads its
histograms from :func:`annular.maps.gluing_counts`, a, ã and b by
prefix and b̃ by a row pass.

Why the routes still check each other.  They share no family
construction: the Wick sum never reads a gluing family, and the genus
route reads nothing of this module's walks and involutions.  What they
share is index algebra on stream elements, the prefix runs, the
contraction, the cycle-type codes and the class tables, as they share
``_cycle_counts``; the tests hold that algebra to brute force (the row
pass and dict oracles) and to the Harer–Zagier recursion.  On GOE both
read the class tables of ±[6], but the genus route drops each untwisted
gluing from b on its own prefix and reads those gluings as a, on [n].
Their agreement (enforced in tests) then cross-checks the weights and
grades each applies.  The invariants the sums rely on, even cycle
counts and non-negative even twice-genera, are explicit raises.

``wick_oracle_smallN`` is the ground truth for everything else: it sums
covariances over literal matrix index tuples, never touching the
combinatorial machinery.  It is exponentially slow and refuses more
than ``ORACLE_FEASIBILITY_CAP`` index tuples.  It, ``mc_moment`` and
the CLI's numeric mode check n, N and M through one method,
``Ensemble.check_dimensions`` of :mod:`annular.ensembles`; each
positivity message is written once.

Conventions (checked against the oracle): every real Gaussian entry has
variance 1/2; complex entries add an independent imaginary part of
variance 1/2.  The Laguerre factor G is M×N and moments are polynomials
in N and c after the exact substitution M = cN.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product as iter_product

import numpy as np

from .ensembles import Ensemble, _check_positive
from .frames import full_cycle, gamma_walk, tau2
from .maps import gluing_counts
from .perms import (
    _cycle_counts,
    _key_counts,
    _prefix_cycle_counts,
    signed_ground,
    unsigned_ground,
)
from .polynomial import MomentPolynomial
from .streams import (
    CapExceeded,
    EnumerationBudget,
    _pairings_of_blocks,
    _prefixes,
)

__all__ = [
    "ORACLE_FEASIBILITY_CAP",
    "wick_moment",
    "genus_expansion_moment",
    "correction_coefficient",
    "wick_oracle_smallN",
]

ORACLE_FEASIBILITY_CAP = 10_000_000


# ---------------------------------------------------------------------------
# Wick sums over gluing candidates
# ---------------------------------------------------------------------------

def wick_moment(
    ensemble: Ensemble | str,
    n: int,
    *,
    budget: EnumerationBudget | None = None,
) -> MomentPolynomial:
    """Exact moment polynomial via the pairing/permutation Wick sum.

    GUE sums N^(boundary count) over pairings of [n]; GOE over twisted
    and untwisted mirror-symmetric gluings of ±[n]; LUE sums
    c^#(π)·N^(#(π)+boundaries) over permutations of [n]; LOE sums
    N^r·M^c over the pairings of the 2n factors of Tr (XXᵀ)ⁿ, for r row
    and c column index cycles.  Odd Gaussian moments are identically zero.
    """
    ensemble = Ensemble.parse(ensemble)
    _check_positive("moment order", n)
    if ensemble.is_gaussian and n % 2:
        return MomentPolynomial.zero()

    # each stream checks its cap before the walks of size n are built
    if ensemble.kind in ("GUE", "LUE"):
        step = 1 if ensemble.kind == "GUE" else 0  # pairings or permutations of [n]
        prefixes = _prefixes(step, unsigned_ground(n), budget=budget)
        walk = gamma_walk(full_cycle(n))[0]
        counts = _prefix_cycle_counts(walk, *prefixes)
        if ensemble.kind == "GUE":  # (#(γ⁻¹π),) per pairing π
            counts = {(faces, 0): cnt for (faces,), cnt in counts.items()}
            prefactor = Fraction(1, 2 ** (n // 2))
        else:  # (#π, #(γ⁻¹π)) per permutation π
            counts = {(parts + faces, parts): cnt for (parts, faces), cnt in counts.items()}
            prefactor = Fraction(1)

    elif ensemble.kind == "GOE":  # (#(τ₂π),) per signed symmetric pairing π
        prefixes = _prefixes(3, signed_ground(n), budget=budget)
        counts = _prefix_cycle_counts(tau2(n).image, *prefixes)
        if any(doubled % 2 for doubled, in counts):
            raise AssertionError("boundary count of a gluing must be even")
        counts = {(doubled // 2, 0): cnt for (doubled,), cnt in counts.items()}
        prefactor = Fraction(1, 2**n)

    else:  # LOE
        blocks = _pairings_of_blocks(unsigned_ground(2 * n), budget=budget)
        rows, cols = _wishart_involutions(n)
        counts = _key_counts(_wishart_keys(rows, cols, block) for block in blocks)
        prefactor = Fraction(1, 2**n)

    return MomentPolynomial(tuple((key, prefactor * cnt) for key, cnt in counts.items()))


def _wishart_involutions(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """ρ_r = ∏ (2t+1, 2t+2 mod 2n) and ρ_c = ∏ (2t, 2t+1) on the factors of Tr (XXᵀ)ⁿ.

    Factor 2t is X_{i_t j_t} and factor 2t+1 is X_{i_{t+1} j_t}: ρ_r
    joins the factors that share a row index, ρ_c those sharing a column.
    """
    factors = range(2 * n)
    rows = tuple((i + 1 if i % 2 else i - 1) % (2 * n) for i in factors)
    return rows, tuple(i ^ 1 for i in factors)


def _wishart_keys(rows: tuple[int, ...], cols: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """(r + c, c) per pairing π, with r = #(ρ_r π)/2 row and c = #(ρ_c π)/2 column indices."""
    doubled_r, doubled_c = _cycle_counts(rows, block), _cycle_counts(cols, block)
    # a product of two fixed-point-free involutions has an even cycle count
    if (doubled_r % 2).any() or (doubled_c % 2).any():
        raise AssertionError("a pairing of the Wishart factors must close an even number of cycles")
    return np.column_stack(((doubled_r + doubled_c) // 2, doubled_c // 2))


# ---------------------------------------------------------------------------
# genus expansions from family counts
# ---------------------------------------------------------------------------

#: Per ensemble, the gluing families its genus expansion reads, each with
#: the factor that turns its first grade into an Euler genus: 1 for the
#: twisted b and b̃ (graded by k), 2 for a and ã (graded by g).  A twisted
#: family comes first, since its cap binds first.
_GENUS_FAMILIES = {
    "GUE": (("a", 2),),
    "GOE": (("b", 1), ("a", 2)),
    "LUE": (("a-tilde", 2),),
    "LOE": (("b-tilde", 1), ("a-tilde", 2)),
}


def genus_expansion_moment(
    ensemble: Ensemble | str,
    n: int,
    *,
    budget: EnumerationBudget | None = None,
) -> MomentPolynomial:
    """Exact moment polynomial assembled from enumerated family sizes.

    A family of Euler genus e contributes its count at N^(top − e), times
    c^p for its grade p in the Laguerre cases, with top = n/2 + 1 for the
    Gaussian ensembles and n + 1 for the Laguerre ones; prefactors are
    (N/2)^(n/2), (N/4)^(n/2), N^n, and (N/2)^n respectively for GUE,
    GOE, LUE, LOE.
    """
    ensemble = Ensemble.parse(ensemble)
    _check_positive("moment order", n)
    if ensemble.is_gaussian and n % 2:
        return MomentPolynomial.zero()

    top = n // 2 + 1 if ensemble.is_gaussian else n + 1
    terms: list[tuple[tuple[int, int], int]] = []
    for tag, factor in _GENUS_FAMILIES[ensemble.kind]:
        for key, cnt in gluing_counts(tag, n, budget=budget).items():
            p = key[-1] if ensemble.is_laguerre else 0  # ã and b̃ are graded (genus, p)
            terms.append(((top - factor * key[0], p), cnt))

    # built after the counts, whose caps refuse an order before 2ⁿ is computed
    prefactor = Fraction(1, 2 ** {"GUE": n // 2, "LUE": 0}.get(ensemble.kind, n))
    return MomentPolynomial(tuple((key, prefactor * cnt) for key, cnt in terms))


def correction_coefficient(
    ensemble: Ensemble | str,
    n: int,
    n_power: int,
    *,
    budget: EnumerationBudget | None = None,
) -> MomentPolynomial:
    """Coefficient of N^n_power in the exact moment, as a polynomial in c.

    Multiplying back the ensemble prefactor recovers family sizes, e.g.
    the subleading GOE coefficient times 2^n is the count of twisted
    Euler-genus-1 gluings.
    """
    poly = wick_moment(ensemble, n, budget=budget)
    return poly.coefficient(n_power)


# ---------------------------------------------------------------------------
# literal index-sum oracle
# ---------------------------------------------------------------------------

def _position_pairings(positions: tuple[int, ...]):
    """All pairings of a tuple of positions (local, self-contained)."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for idx in range(1, len(positions)):
        partner = positions[idx]
        rest = positions[1:idx] + positions[idx + 1 :]
        for tail in _position_pairings(rest):
            yield ((first, partner),) + tail


def wick_oracle_smallN(
    ensemble: Ensemble | str, n: int, N: int, M: int | None = None
) -> Fraction:
    """Ground-truth moment at a concrete dimension by brute-force index
    summation.

    The trace power is expanded into matrix entries; for every tuple of
    summation indices the expectation of the Gaussian product is
    computed from first principles (pairings of the factors for real
    entries, factor matchings for complex entries).  Cost is
    N^n (Gaussian) or (N·M)^n (Laguerre) tuples and is refused above
    ``ORACLE_FEASIBILITY_CAP``.
    """
    ensemble = Ensemble.parse(ensemble)
    ensemble.check_dimensions(n, N, M)
    work = (N * M) ** n if ensemble.is_laguerre else N**n
    if work > ORACLE_FEASIBILITY_CAP:
        raise CapExceeded(
            f"oracle index sum of size {work} exceeds the cap {ORACLE_FEASIBILITY_CAP}"
        )

    if ensemble.is_gaussian:
        if n % 2:
            return Fraction(0)
        factor_pairings = tuple(_position_pairings(tuple(range(n))))
        total = 0
        complex_case = ensemble.is_complex
        for idx in iter_product(range(N), repeat=n):
            for pairing in factor_pairings:
                term = 1
                for u, v in pairing:
                    # entry u is H[idx[u], idx[u+1]] (cyclic)
                    untwisted = (
                        idx[u] == idx[(v + 1) % n] and idx[v] == idx[(u + 1) % n]
                    )
                    if complex_case:
                        pair_value = 1 if untwisted else 0
                    else:
                        twisted = (
                            idx[u] == idx[v] and idx[(u + 1) % n] == idx[(v + 1) % n]
                        )
                        pair_value = int(untwisted) + int(twisted)
                    if not pair_value:
                        term = 0
                        break
                    term *= pair_value
                total += term
        denominator = 2 ** (n // 2) if complex_case else 4 ** (n // 2)
        return Fraction(total, denominator)

    if ensemble.kind == "LUE":
        matchings = tuple(iter_permutations(range(n)))
        total = 0
        for rows in iter_product(range(M), repeat=n):
            for cols in iter_product(range(N), repeat=n):
                # factor u is conj(G)[rows[u], cols[u]] * G[rows[u], cols[u+1]]
                for sigma in matchings:
                    ok = True
                    for u in range(n):
                        if (
                            rows[u] != rows[sigma[u]]
                            or cols[u] != cols[(sigma[u] + 1) % n]
                        ):
                            ok = False
                            break
                    if ok:
                        total += 1
        return Fraction(total)

    # LOE: 2n real factors; factor 2u is G[rows[u], cols[u]],
    # factor 2u+1 is G[rows[u], cols[u+1]] (cyclic).
    factor_pairings = tuple(_position_pairings(tuple(range(2 * n))))
    total = 0
    for rows in iter_product(range(M), repeat=n):
        for cols in iter_product(range(N), repeat=n):
            coords = []
            for u in range(n):
                coords.append((rows[u], cols[u]))
                coords.append((rows[u], cols[(u + 1) % n]))
            for pairing in factor_pairings:
                for s, t in pairing:
                    if coords[s] != coords[t]:
                        break
                else:
                    total += 1
    return Fraction(total, 2**n)
