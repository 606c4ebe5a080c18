"""Ribbon-graph and annular non-crossing pairing families.

Exact enumeration of one-vertex orientable and non-orientable gluings
(pairings and permutations with a mirror symmetry), the annular, torus
and Klein-bottle non-crossing families they biject onto, and spectral
moments of the four classical Gaussian/Wishart matrix ensembles by
three mutually cross-checking routes: entrywise Wick summation, genus
expansion over the enumerated families, and Monte Carlo sampling.

Names load on first use (PEP 562): ``import annular`` imports no
submodule, and ``annular.mc_moment`` imports only what the Monte Carlo
route samples with, not the exact routes it checks.  ``annular.maps``
and the other submodules resolve after a bare ``import annular`` too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each exported name, and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "perms": "GroundSet Pairing Permutation compose conjugate inverse join_block_count "
        "num_cycles parse_cycles signed_ground unsigned_ground",
        "streams": "CapExceeded EnumerationBudget pairings permutations "
        "signed_symmetric_pairings signed_symmetric_permutations",
        "frames": "AnnularFrame annulus_cycle annulus_frame disk_frame full_cycle klein_frame "
        "tau0 tau2 torus_frame",
        "maps": "GLUINGS family_a family_a_counts family_a_hat family_a_tilde "
        "family_a_tilde_counts family_b family_b_counts family_b_hat family_b_tilde "
        "family_b_tilde_counts gluing_counts gluing_groups gluing_key "
        "hypermap_from_bipartite_nonorientable hypermap_from_bipartite_orientable "
        "nonorientable_euler_genus orientable_genus",
        "noncrossing": "NONCROSSING NCFamily NCFamilyId euler_defect family_nc "
        "is_delta_symmetric is_noncrossing member_witnesses nc_groups",
        "bijections": "BIJECTIONS BijectionReport ConjectureRow conjecture_table verify "
        "verify_a_hat_equality verify_a_tilde_equality verify_grades verify_lemma3 verify_phi1 "
        "verify_phi1_hat verify_phi1_tilde verify_phi2 verify_phi2_hat verify_phi2_tilde "
        "verify_torus_equality",
        "polynomial": "MomentPolynomial",
        "ensembles": "Ensemble",
        "moments": "correction_coefficient genus_expansion_moment wick_moment wick_oracle_smallN",
        "montecarlo": "McEstimate mc_moment",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is not None:  # bound on first use; a loaded submodule is bound here already
        module = globals().get(home) or _import_module(f".{home}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    if name in _EXPORTS.values() or name == "cli":
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
