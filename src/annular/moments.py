"""Exact spectral moments 𝔼 Tr Mⁿ for the four ensembles, two ways.

``wick_moment`` expands the trace with the Isserlis–Wick theorem and sums
an exact weight over raw gluing candidates (pairings, twisted
mirror-symmetric gluings, permutations).  ``genus_expansion_moment``
instead multiplies family counts by the dimension powers their genus
dictates.  Both raise ``CapExceeded`` above ``DEFAULT_ORDER_CAPS``
before enumerating anything.  The two share no family construction:
the Wick sum filters its own streams and keys each element with the
index-space cycle kernels of :mod:`annular.perms` against the cached
walks, colour masks and colour tests of :mod:`annular.frames`, while
the genus route reads only the ``family_*_counts`` histograms of
:mod:`annular.maps`.  Only that low-level algebra is shared, so their
agreement (enforced in tests) cross-checks both.

``wick_oracle_smallN`` is the ground truth for everything else: it sums
covariances over literal matrix index tuples, never touching the
combinatorial machinery.  It is exponentially slow and refuses more
than ``ORACLE_FEASIBILITY_CAP`` index tuples.  It, ``mc_moment`` and
the CLI's numeric mode check n, N and M through one method,
``Ensemble.check_dimensions``; each positivity message is written once.

Conventions (checked against the oracle): every real Gaussian entry has
variance 1/2; complex entries add an independent imaginary part of
variance 1/2.  The Laguerre factor G is M×N and moments are polynomials
in N and c after the exact substitution M = cN.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product as iter_product

from .frames import black_mask, full_cycle, gamma_walk, keeps_black, tau2
from .maps import (
    family_a_counts,
    family_a_tilde_counts,
    family_b_counts,
    family_b_tilde_counts,
)
from .perms import _coloured_cycle_count, _cycle_count, _num_cycles_image
from .polynomial import MomentPolynomial
from .streams import (
    CapExceeded,
    EnumerationBudget,
    pairings,
    permutations,
    signed_symmetric_pairings,
)

__all__ = [
    "DEFAULT_ORDER_CAPS",
    "ORACLE_FEASIBILITY_CAP",
    "Ensemble",
    "wick_moment",
    "genus_expansion_moment",
    "correction_coefficient",
    "wick_oracle_smallN",
]

DEFAULT_ORDER_CAPS = {"GUE": 12, "GOE": 10, "LUE": 8, "LOE": 5}

ORACLE_FEASIBILITY_CAP = 10_000_000


@dataclass(frozen=True)
class Ensemble:
    """One of the four ensembles, normalized to its upper-case tag."""

    kind: str

    def __post_init__(self):
        kind = self.kind.upper()
        if kind not in DEFAULT_ORDER_CAPS:
            raise ValueError(
                f"unknown ensemble {self.kind!r}; expected one of "
                + ", ".join(sorted(DEFAULT_ORDER_CAPS))
            )
        object.__setattr__(self, "kind", kind)

    @classmethod
    def parse(cls, value: "Ensemble | str") -> "Ensemble":
        if isinstance(value, Ensemble):
            return value
        return cls(str(value))

    @property
    def is_gaussian(self) -> bool:
        return self.kind in ("GOE", "GUE")

    @property
    def is_laguerre(self) -> bool:
        return self.kind in ("LOE", "LUE")

    @property
    def is_complex(self) -> bool:
        return self.kind in ("GUE", "LUE")

    def check_dimensions(self, n: int, N: int, M: int | None) -> None:
        """Raise ``ValueError`` unless n, N ≥ 1 and M ≥ 1 is given exactly when Laguerre."""
        _check_positive("moment order", n)
        _check_positive("dimension N", N)
        if self.is_laguerre:
            if M is None:
                raise ValueError(f"{self.kind} requires the rectangular dimension M")
            _check_positive("dimension M", M)
        elif M is not None:
            raise ValueError("M applies to the Laguerre ensembles only")


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _check_order(ensemble: Ensemble, n: int) -> None:
    _check_positive("moment order", n)
    cap = DEFAULT_ORDER_CAPS[ensemble.kind]
    if n > cap:
        raise CapExceeded(
            f"moment order {n} exceeds the {ensemble.kind} cap of {cap}"
        )


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
    c^#(π)·N^(#(π)+boundaries) over permutations of [n]; LOE over
    bipartite mirror-symmetric gluings of ±[2n] with black/white
    boundary counts split between N and c.  Odd Gaussian moments are
    identically zero.
    """
    ensemble = Ensemble.parse(ensemble)
    _check_order(ensemble, n)
    if ensemble.is_gaussian and n % 2:
        return MomentPolynomial.zero()

    counts: dict[tuple[int, int], int] = {}

    if ensemble.kind == "GUE":
        walk = gamma_walk(full_cycle(n))[0]
        for pi in pairings(n, cap=n, budget=budget):
            key = (_cycle_count(walk, pi.image), 0)
            counts[key] = counts.get(key, 0) + 1
        prefactor = Fraction(1, 2 ** (n // 2))

    elif ensemble.kind == "GOE":
        mirror_shift = tau2(n).image
        for t in signed_symmetric_pairings(n, cap=2 * n, budget=budget):
            doubled = _cycle_count(mirror_shift, t.image)
            if doubled % 2:
                raise AssertionError("boundary count of a gluing must be even")
            key = (doubled // 2, 0)
            counts[key] = counts.get(key, 0) + 1
        prefactor = Fraction(1, 2**n)

    elif ensemble.kind == "LUE":
        walk = gamma_walk(full_cycle(n))[0]
        for pi in permutations(n, cap=n, budget=budget):
            img = pi.image
            blocks = _num_cycles_image(img)
            key = (blocks + _cycle_count(walk, img), blocks)
            counts[key] = counts.get(key, 0) + 1
        prefactor = Fraction(1)

    else:  # LOE
        mirror_shift = tau2(2 * n).image
        black = black_mask(2 * n)[1]
        for t in signed_symmetric_pairings(2 * n, cap=4 * n, budget=budget):
            img = t.image
            if not keeps_black(img):
                continue
            # B(n) and W(n) split ±[2n], so the white cycles are the others
            doubled, black_doubled = _coloured_cycle_count(mirror_shift, img, black)
            white_doubled = doubled - black_doubled
            if white_doubled % 2 or black_doubled % 2:
                raise AssertionError("split boundary counts must be even")
            key = (doubled // 2, white_doubled // 2)
            counts[key] = counts.get(key, 0) + 1
        prefactor = Fraction(1, 2**n)

    return MomentPolynomial(
        tuple((key, prefactor * cnt) for key, cnt in counts.items())
    )


# ---------------------------------------------------------------------------
# genus expansions from family counts
# ---------------------------------------------------------------------------

def genus_expansion_moment(
    ensemble: Ensemble | str,
    n: int,
    *,
    budget: EnumerationBudget | None = None,
) -> MomentPolynomial:
    """Exact moment polynomial assembled from enumerated family sizes.

    Each family of a given (Euler) genus and part count contributes its
    cardinality at one power of N (and of c in the Laguerre cases);
    prefactors are (N/2)^(n/2), (N/4)^(n/2), N^n, and (N/2)^n
    respectively for GUE, GOE, LUE, LOE.
    """
    ensemble = Ensemble.parse(ensemble)
    _check_order(ensemble, n)
    if ensemble.is_gaussian and n % 2:
        return MomentPolynomial.zero()

    terms: list[tuple[tuple[int, int], Fraction]] = []

    if ensemble.kind == "GUE":
        prefactor = Fraction(1, 2 ** (n // 2))
        for g, cnt in family_a_counts(n, cap=n, budget=budget).items():
            terms.append(((n // 2 + 1 - 2 * g, 0), prefactor * cnt))

    elif ensemble.kind == "GOE":
        prefactor = Fraction(1, 2**n)
        for g, cnt in family_a_counts(n, cap=n, budget=budget).items():
            terms.append(((n // 2 + 1 - 2 * g, 0), prefactor * cnt))
        for k, cnt in family_b_counts(n, cap=2 * n, budget=budget).items():
            terms.append(((n // 2 + 1 - k, 0), prefactor * cnt))

    elif ensemble.kind == "LUE":
        for (g, p), cnt in family_a_tilde_counts(n, cap=2 * n, budget=budget).items():
            terms.append(((n + 1 - 2 * g, p), Fraction(cnt)))

    else:  # LOE
        prefactor = Fraction(1, 2**n)
        for (g, p), cnt in family_a_tilde_counts(n, cap=2 * n, budget=budget).items():
            terms.append(((n + 1 - 2 * g, p), prefactor * cnt))
        for (k, p), cnt in family_b_tilde_counts(n, cap=4 * n, budget=budget).items():
            terms.append(((n + 1 - k, p), prefactor * cnt))

    return MomentPolynomial(tuple(terms))


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
