"""Ribbon-graph and annular non-crossing pairing families.

Exact enumeration of one-vertex orientable and non-orientable gluings
(pairings and permutations with a mirror symmetry), the annular, torus
and Klein-bottle non-crossing families they biject onto, and spectral
moments of the four classical Gaussian/Wishart matrix ensembles by
three mutually cross-checking routes: entrywise Wick summation, genus
expansion over the enumerated families, and Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .perms import (  # noqa: F401
    GroundSet,
    Pairing,
    Permutation,
    compose,
    conjugate,
    inverse,
    join_block_count,
    num_cycles,
    parse_cycles,
    signed_ground,
    unsigned_ground,
)
from .streams import (  # noqa: F401
    CapExceeded,
    EnumerationBudget,
    pairings,
    permutations,
    signed_symmetric_pairings,
    signed_symmetric_permutations,
)
from .frames import (  # noqa: F401
    AnnularFrame,
    annulus_cycle,
    annulus_frame,
    disk_frame,
    full_cycle,
    klein_frame,
    tau0,
    tau2,
    torus_frame,
)
from .maps import (  # noqa: F401
    GLUINGS,
    family_a,
    family_a_counts,
    family_a_hat,
    family_a_tilde,
    family_a_tilde_counts,
    family_b,
    family_b_counts,
    family_b_hat,
    family_b_tilde,
    family_b_tilde_counts,
    gluing_counts,
    gluing_groups,
    gluing_key,
    hypermap_from_bipartite_nonorientable,
    hypermap_from_bipartite_orientable,
    nonorientable_euler_genus,
    orientable_genus,
)
from .noncrossing import (  # noqa: F401
    NONCROSSING,
    NCFamily,
    NCFamilyId,
    euler_defect,
    family_nc,
    is_delta_symmetric,
    is_noncrossing,
    member_witnesses,
    nc_groups,
)
from .bijections import (  # noqa: F401
    BIJECTIONS,
    BijectionReport,
    ConjectureRow,
    conjecture_table,
    verify,
    verify_a_hat_equality,
    verify_a_tilde_equality,
    verify_grades,
    verify_lemma3,
    verify_phi1,
    verify_phi1_hat,
    verify_phi1_tilde,
    verify_phi2,
    verify_phi2_hat,
    verify_phi2_tilde,
    verify_torus_equality,
)
from .polynomial import MomentPolynomial  # noqa: F401
from .moments import (  # noqa: F401
    Ensemble,
    correction_coefficient,
    genus_expansion_moment,
    wick_moment,
    wick_oracle_smallN,
)
from .montecarlo import McEstimate, mc_moment  # noqa: F401
