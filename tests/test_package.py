"""The package surface: lazy names, and what each route imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import annular

#: Each exported name by the submodule that defines it, written out here
#: so that the package's own table is checked against it.
HOMES = {
    "perms": (
        "GroundSet Pairing Permutation compose conjugate inverse join_block_count num_cycles "
        "parse_cycles signed_ground unsigned_ground"
    ),
    "streams": (
        "CapExceeded EnumerationBudget pairings permutations signed_symmetric_pairings "
        "signed_symmetric_permutations"
    ),
    "frames": (
        "AnnularFrame annulus_cycle annulus_frame disk_frame full_cycle klein_frame tau0 tau2 "
        "torus_frame"
    ),
    "maps": (
        "GLUINGS family_a family_a_counts family_a_hat family_a_tilde family_a_tilde_counts "
        "family_b family_b_counts family_b_hat family_b_tilde family_b_tilde_counts "
        "gluing_counts gluing_groups gluing_key hypermap_from_bipartite_nonorientable "
        "hypermap_from_bipartite_orientable nonorientable_euler_genus orientable_genus"
    ),
    "noncrossing": (
        "NONCROSSING NCFamily NCFamilyId euler_defect family_nc is_delta_symmetric "
        "is_noncrossing member_witnesses nc_groups"
    ),
    "bijections": (
        "BIJECTIONS BijectionReport ConjectureRow conjecture_table verify verify_a_hat_equality "
        "verify_a_tilde_equality verify_grades verify_lemma3 verify_phi1 verify_phi1_hat "
        "verify_phi1_tilde verify_phi2 verify_phi2_hat verify_phi2_tilde verify_torus_equality"
    ),
    "polynomial": "MomentPolynomial",
    "ensembles": "Ensemble",
    "moments": "correction_coefficient genus_expansion_moment wick_moment wick_oracle_smallN",
    "montecarlo": "McEstimate mc_moment",
}
EXPORTS = {name: module for module, names in HOMES.items() for name in names.split()}


def _run(script: str) -> str:
    """The stdout of ``script`` in a fresh interpreter that imports this checkout."""
    src = str(Path(annular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def _loaded_after(call: str) -> set[str]:
    """The ``annular`` submodules loaded once ``import annular`` and ``call`` ran."""
    script = (
        f"import sys, annular\n{call}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('annular.')))"
    )
    return set(_run(script).split())


def test_the_surface_has_77_names():
    assert len(EXPORTS) == 77
    assert len(annular.__all__) == len(set(annular.__all__))
    assert set(annular.__all__) == set(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_home_submodules_object(name):
    home = importlib.import_module(f"annular.{EXPORTS[name]}")
    assert getattr(annular, name) is getattr(home, name)


def test_star_import_gives_exactly_the_names():
    namespace = {}
    exec("from annular import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_dir_lists_every_name():
    assert set(EXPORTS) <= set(dir(annular))
    # in a fresh process, before any submodule loads, the public names are exactly these
    public = _run("import annular; print(' '.join(n for n in dir(annular) if n[0] != '_'))")
    assert set(public.split()) == set(EXPORTS)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        annular.nope
    assert not hasattr(annular, "nope")


def test_submodules_resolve_after_a_bare_import():
    out = _run("import annular; print(annular.maps.gluing_counts('a', 4))")
    assert out == f"{annular.maps.gluing_counts('a', 4)}\n"


def test_a_bare_import_loads_no_submodule():
    assert _loaded_after("") == set()


def test_a_monte_carlo_run_loads_only_what_it_samples_with():
    # the route that checks the exact ones shares none of their construction
    loaded = _loaded_after("annular.mc_moment('GUE', 2, 2, samples=100, seed=0)")
    assert loaded == {"annular.perms", "annular.ensembles", "annular.montecarlo"}


def test_the_wick_route_loads_no_noncrossing_bijection_or_sampler():
    loaded = _loaded_after("annular.wick_moment('GUE', 4)")
    assert "annular.moments" in loaded
    assert not loaded & {"annular.noncrossing", "annular.bijections", "annular.montecarlo"}


def test_the_package_has_no_assert_statements():
    # invariants raise explicitly, so they hold under python -O as well; the
    # -O test runs cannot see an assert, since pytest's own are stripped too
    package = Path(annular.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
