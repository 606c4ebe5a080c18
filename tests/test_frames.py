"""Canonical permutations and reference frames."""

import ast
from pathlib import Path

import pytest

import annular.frames
import annular.maps

from annular.frames import (
    _FRAME_CACHE,
    annulus_cycle,
    annulus_frame,
    disk_frame,
    full_cycle,
    gamma_walk,
    klein_frame,
    tau0,
    tau2,
    torus_frame,
)
from annular.noncrossing import nc_groups
from annular.perms import Permutation, compose, num_cycles, signed_ground, unsigned_ground

from oracles import (
    ref_annulus_cycle,
    ref_compose,
    ref_frame_from_cycles,
    ref_full_cycle,
    ref_tau0,
    ref_tau2,
)


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_permutations_match_reference(n):
    assert dict(tau0(n).mapping()) == ref_tau0(n)
    assert dict(tau2(n).mapping()) == ref_tau2(n)
    assert dict(full_cycle(n).mapping()) == ref_full_cycle(n)
    assert dict(annulus_cycle(n).mapping()) == ref_annulus_cycle(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_annulus_cycle_factors_through_involutions(n):
    assert annulus_cycle(n) == compose(tau2(n), tau0(n))
    assert dict(annulus_cycle(n).mapping()) == ref_compose(ref_tau2(n), ref_tau0(n))


def test_annulus_cycle_string():
    assert annulus_cycle(3).cycle_string() == "(-3,-2,-1)(1,2,3)"


def test_disk_and_annulus_frames():
    d = disk_frame(5)
    assert d.kind == "disk" and d.n == 5 and d.gamma == full_cycle(5)
    assert d.describe() == "disk(n=5)"
    a = annulus_frame(4)
    assert a.kind == "annulus" and a.gamma == annulus_cycle(4)
    assert a.describe() == "annulus(n=4)"


def test_torus_frame_anchor():
    f = torus_frame(6, 2, 4)
    assert f.gamma.cycle_string() == "(1,5,6)(2,3,4)"
    assert f.describe() == "torus(n=6,u=2,v=4)"


def test_torus_frame_u_equals_one():
    assert torus_frame(6, 1, 3).gamma.cycle_string() == "(1,2,3)(4,5,6)"
    assert torus_frame(5, 1, 4).gamma.cycle_string() == "(1,2,3,4)"
    assert num_cycles(torus_frame(5, 1, 4).gamma) == 2


@pytest.mark.parametrize("n", range(3, 9))
def test_torus_frames_have_two_cycles_of_expected_sizes(n):
    for u in range(1, n):
        for v in range(u + 1, n):
            f = torus_frame(n, u, v)
            sizes = sorted(len(c) for c in f.gamma.cycles())
            assert sizes == sorted((v - u + 1, n - (v - u + 1)))
            assert num_cycles(f.gamma) == 2


def test_torus_frame_rejects_bad_parameters():
    for n, u, v in [(4, 1, 4), (4, 2, 2), (4, 0, 2), (4, 3, 2), (2, 1, 2)]:
        with pytest.raises(ValueError):
            torus_frame(n, u, v)


def test_klein_frame_anchor():
    f = klein_frame(4, 1, 3)
    assert f.gamma.cycle_string() == "(-4,-3,1,2)(-2,-1,3,4)"
    assert f.describe() == "klein(n=4,u=1,v=3)"


@pytest.mark.parametrize("n", range(2, 9))
def test_klein_frames_match_independent_product(n):
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            f = klein_frame(n, u, v)
            swap1 = {x: x for x in ref_tau0(n)}
            swap1[-u], swap1[v - 1] = v - 1, -u
            b = u - 1 if u > 1 else n
            swap2 = {x: x for x in ref_tau0(n)}
            swap2[-v], swap2[b] = b, -v
            expected = ref_compose(ref_compose(ref_annulus_cycle(n), swap1), swap2)
            assert dict(f.gamma.mapping()) == expected
            sizes = [len(c) for c in f.gamma.cycles()]
            assert sizes == [n, n]


@pytest.mark.parametrize("n", range(1, 11))
def test_frames_equal_their_label_built_oracle(n):
    # every torus and Klein cut up to n = 10, as built from cycles over labels
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if v < n:
                assert torus_frame(n, u, v).gamma == ref_frame_from_cycles(n, u, v, klein=False)
            assert klein_frame(n, u, v).gamma == ref_frame_from_cycles(n, u, v, klein=True)


def test_klein_frame_accepts_v_equals_n():
    f = klein_frame(4, 2, 4)
    assert num_cycles(f.gamma) == 2


def test_klein_frame_odd_n():
    f = klein_frame(5, 2, 4)
    assert num_cycles(f.gamma) == 2
    assert f.gamma.domain == signed_ground(5)


def test_klein_frame_rejects_bad_parameters():
    for n, u, v in [(4, 1, 5), (4, 2, 2), (4, 0, 3), (4, 3, 2)]:
        with pytest.raises(ValueError):
            klein_frame(n, u, v)


def test_frames_are_hashable_and_comparable():
    assert torus_frame(6, 2, 4) == torus_frame(6, 2, 4)
    assert torus_frame(6, 2, 4) != torus_frame(6, 2, 5)


PACKAGE_MODULES = sorted(Path(annular.frames.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.stem)
def test_invariant_checks_are_explicit_raises(path):
    # `python -O` strips assert statements; the invariant checks of
    # every module must survive it.
    tree = ast.parse(path.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _imports_from(module: str, source: str) -> set[str]:
    """Names the package module ``module`` imports from its sibling ``source``.

    ``from . import source`` counts as importing the whole module, "*".
    """
    tree = ast.parse((Path(annular.frames.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = f"{'.' * node.level}{node.module or ''}"
        if target in (f".{source}", f"annular.{source}"):
            names.update(alias.name for alias in node.names)
        elif target in (".", "annular") and source in [a.name for a in node.names]:
            names.add("*")
    return names


def test_routes_do_not_import_each_other():
    # The Wick sum, the genus expansion and the non-crossing side must
    # stay independent: they share perms/frames, never each other.
    assert _imports_from("noncrossing", "maps") == set()
    # the genus route reads family counts only, through one public call
    assert _imports_from("moments", "maps") == {"gluing_counts"}
    assert _imports_from("maps", "noncrossing") == set()
    assert _imports_from("maps", "moments") == set()
    # the CLI reads the gluing table and one grade's rows, never a gluing-side kernel
    assert _imports_from("cli", "maps") == {"GLUINGS", "_grade_rows", "gluing_key"}
    # the bijection rows name both tables, never a family shorthand; the
    # gluing side is read as rows, and the non-orientable reduction's
    # relabelling table is read at the white columns
    assert _imports_from("bijections", "noncrossing") == {
        "NONCROSSING",
        "NCFamilyId",
        "family_nc",
        "nc_groups",
    }
    assert _imports_from("bijections", "maps") == {
        "GLUINGS",
        "_grade_rows",
        "_white_walk",
        "gluing_counts",
        "gluing_groups",
        "gluing_key",
    }


def test_the_gluing_side_never_imports_noncrossing():
    # maps and moments import nothing that imports noncrossing, where the
    # disk and annulus tables are built, so neither route reads their rows
    siblings = {}
    for path in PACKAGE_MODULES:
        nodes = ast.walk(ast.parse(path.read_text()))
        siblings[path.stem] = {
            node.module
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }

    def reached(module):
        seen, todo = set(), [module]
        while todo:
            seen.add(name := todo.pop())
            todo += siblings[name] - seen
        return seen

    for module in ("maps", "moments"):
        assert "noncrossing" not in reached(module)
    assert "noncrossing" in reached("bijections")  # the check sees an import


def test_no_module_calls_a_gluing_family_shorthand():
    # the family_* names of maps are shorthands for callers outside the
    # package; inside it every gluing count or member list is read through
    # the gluing table's own calls
    shorthands = {name for name in annular.maps.__all__ if name.startswith("family_")}
    assert shorthands
    for path in PACKAGE_MODULES:
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not called & shorthands, f"{path.name} calls {sorted(called & shorthands)}"


def test_no_module_reads_the_environment():
    # a budget or any other setting arrives as an argument or a CLI flag
    for path in sorted(Path(annular.frames.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        ]
        reads += [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "os"
            for alias in node.names
            if alias.name in ("environ", "getenv")
        ]
        assert reads == [], f"{path.name} reads the environment"


def test_frames_are_cached():
    assert tau2(6) is tau2(6)
    assert annulus_cycle(6) is annulus_cycle(6)
    assert klein_frame(6, 2, 4) is klein_frame(6, 2, 4)
    assert gamma_walk(full_cycle(6)) is gamma_walk(full_cycle(6))


def test_gamma_walk_sides_are_the_labels_off_the_first_cycle():
    # every torus and Klein cut up to n = 10, and the disk and annulus frames:
    # per index, whether its label lies off the γ-cycle through the first label
    frames = [full_cycle(6), annulus_cycle(6)]
    for n in range(2, 11):
        for u in range(1, n):
            for v in range(u + 1, n + 1):
                frames += [klein_frame(n, u, v).gamma]
                frames += [torus_frame(n, u, v).gamma] if v < n else []
    for gamma in frames:
        ground = gamma.domain
        first = next(cycle for cycle in gamma.cycles() if ground.label(0) in cycle)
        sides = gamma_walk(gamma)[2]
        assert sides.tolist() == [ground.label(i) not in first for i in range(ground.size)]
        assert not sides.flags.writeable
    walk, cycles, sides = gamma_walk(Permutation(unsigned_ground(0), ()))
    assert (walk, cycles, sides.tolist()) == ((), 0, [])


def test_cut_frame_caches_are_bounded():
    # every cut of [n] and ±[n] for n ≤ 20, 1,140 of each kind: more than
    # each cache keeps, as a long-running membership caller meets them
    caches = (torus_frame, klein_frame, gamma_walk)
    for n in range(2, 21):
        for u in range(1, n):
            for v in range(u + 1, n + 1):
                for frame in (klein_frame(n, u, v), *([torus_frame(n, u, v)] if v < n else ())):
                    gamma_walk(frame.gamma)
    for cache in caches:
        assert cache.cache_info().currsize == cache.cache_info().maxsize == _FRAME_CACHE
    # every frame a union pass reads fits: a second pass builds none
    nc_groups("NC2T", 10)  # two blocks: read again on every call
    misses = [cache.cache_info().misses for cache in caches]
    nc_groups("NC2T", 10)
    assert [cache.cache_info().misses for cache in caches] == misses
