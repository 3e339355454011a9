"""The census kernels against the verbatim earlier versions in naive.py.

The enumeration search must yield the reference colorings that induce a
class bijection for every coordinate permutation, in the same order, and
exactly the colorings of the class-map search before it forced colors
ahead; the census the schemes of the one that took a canonical key of
every survivor; the two-graph finder the same list as the scan over
every graph, and canonical forms the same keys.
"""

import random

import pytest

import astriples as at
from astriples import enumeration
from astriples.core import AstScheme, trivial_cube
from astriples.designs import find_regular_two_graphs
from astriples.enumeration import (EnumerationTask, are_isomorphic,
                                   canonical_key, enumerate_asts,
                                   enumerate_circulant)
from astriples.finfield import field_from_order, point_index

from conftest import verified
from naive import (naive_canonical_key, naive_class_map_search,
                   naive_find_regular_two_graphs,
                   naive_gray_code_find_regular_two_graphs,
                   naive_key_dedup_enumerate_asts, naive_search_colorings,
                   naive_sigma_consistent)


def _task(nu, **kwargs):
    return EnumerationTask(ground=at.GroundSet(nu), **kwargs)


SEARCHES = (
    [(f"trivial-{nu}", lambda nu=nu: enumerate_asts(_task(nu)))
     for nu in range(3, 7)]
    + [(f"symmetric-{nu}",
        lambda nu=nu: enumerate_asts(_task(nu, symmetric_only=True)))
       for nu in range(4, 7)]
    + [(f"two-classes-{nu}",
        lambda nu=nu: enumerate_asts(_task(nu, max_nontrivial_classes=2)))
       for nu in range(4, 7)]
    + [(f"circulant-{nu}", lambda nu=nu: enumerate_circulant(nu))
       for nu in range(5, 8)]
    + [(f"agl1-{q}", lambda q=q: enumerate_asts(
        _task(q, invariance=at.agl1_group(q)))) for q in (7, 8)]
)


#: Reference survivors whose colors induce no class bijection for some
#: coordinate permutation; the kernel never yields them.
SIGMA_DROPS = {"agl1-8": 8}


def _verdict(nu, blocks, coloring):
    labels = trivial_cube(nu, 4)
    for block, color in zip(blocks, coloring):
        for idx in block:
            labels[idx] = 4 + color
    return at.verify_ast(at.TriplePartition.from_labels(at.GroundSet(nu),
                                                        labels))


@pytest.mark.parametrize("name, run", SEARCHES,
                         ids=[name for name, _run in SEARCHES])
def test_search_yields_the_reference_colorings(monkeypatch, name, run):
    search = enumeration._search_colorings
    calls = []

    def both(*args):
        got = list(search(*args))
        calls.append((args, got, list(naive_search_colorings(*args))))
        return iter(got)

    monkeypatch.setattr(enumeration, "_search_colorings", both)
    assert run()
    assert len(calls) == 1
    (nu, blocks, sigma_images, _cap, _limit), got, reference = calls[0]
    # The reference ties no map to its inverse: filter it by the full
    # condition, keeping its order; what the filter drops is no scheme.
    want = [c for c in reference if naive_sigma_consistent(c, sigma_images)]
    dropped = [c for c in reference if c not in want]
    assert want and got == want
    assert len(dropped) == SIGMA_DROPS.get(name, 0)
    for coloring in dropped:
        verdict = _verdict(nu, blocks, coloring)
        assert isinstance(verdict, at.ViolationReport)
        assert verdict.condition == 3


FORCED = SEARCHES + [("circulant-8", lambda: enumerate_circulant(8))]


@pytest.mark.parametrize("name, run", FORCED,
                         ids=[name for name, _run in FORCED])
def test_search_yields_the_class_map_search_colorings(monkeypatch, name,
                                                      run):
    # forcing colors ahead cuts only subtrees without a survivor
    search = enumeration._search_colorings
    calls = []

    def both(*args):
        got = list(search(*args))
        calls.append((got, list(naive_class_map_search(*args))))
        return iter(got)

    monkeypatch.setattr(enumeration, "_search_colorings", both)
    assert run()
    assert len(calls) == 1
    got, want = calls[0]
    assert want and got == want


@pytest.mark.parametrize("name, run", SEARCHES,
                         ids=[name for name, _run in SEARCHES])
def test_census_matches_the_key_dedup_census(monkeypatch, name, run):
    check = enumeration._check_guards
    tasks = []

    def record(task):
        tasks.append(task)
        return check(task)

    monkeypatch.setattr(enumeration, "_check_guards", record)
    got = run()
    assert len(tasks) == 1
    want = naive_key_dedup_enumerate_asts(tasks[0])
    assert [s.serialized() for s in got] == [s.serialized() for s in want]


def _count_sort_keys(monkeypatch):
    """Record every scheme that enumeration takes a sort key of."""
    calls = []

    def counted(key):
        def wrapper(scheme):
            calls.append(scheme)
            return key(scheme)
        return wrapper

    monkeypatch.setattr(enumeration, "canonical_key",
                        counted(enumeration.canonical_key))
    monkeypatch.setattr(AstScheme, "serialized",
                        counted(AstScheme.serialized))
    return calls


def test_canonical_keys_only_for_representatives(monkeypatch):
    # no census in reach has two representatives with one class count,
    # so none takes a key
    calls = _count_sort_keys(monkeypatch)
    for name, run in SEARCHES:
        schemes = run()
        assert len({s.m for s in schemes}) == len(schemes), name
        assert calls == [], name


def _ag24_design_scheme():
    """The scheme of the 20 lines of the affine plane AG(2, 4)."""
    field = field_from_order(4)
    directions = [(0, 1)] + [(1, s) for s in range(4)]
    lines = {tuple(sorted(point_index(field, field.add(x, field.mul(t, dx)),
                                      field.add(y, field.mul(t, dy)))
                          for t in range(4)))
             for x in range(4) for y in range(4) for dx, dy in directions}
    return at.ast_from_design(at.verify_design(16, sorted(lines)))


def test_tied_class_counts_are_ordered_by_key(monkeypatch, asl2_schemes):
    asl2, labeling = asl2_schemes[4]
    j_labels = sorted(labeling.line_labels.values())[:2]
    fusion = at.ast_from_two_graph(
        at.two_graph_fusion(asl2, j_labels).two_graph)
    design = _ag24_design_scheme()
    assert design.m == fusion.m == 5 < asl2.m
    assert are_isomorphic(design, fusion) is None
    want = sorted([design, fusion, asl2],
                  key=lambda scheme: (scheme.m, scheme.serialized()))
    calls = _count_sort_keys(monkeypatch)
    for order in ([asl2, design, fusion], [fusion, asl2, design]):
        assert enumeration._ordered(order, 16) == want
    # the key is taken for the two tied schemes only
    assert sorted(map(id, calls)) == sorted(map(id, [design, fusion] * 2))


def _cycle(nu):
    return at.close([tuple((i + 1) % nu for i in range(nu))])


#: Search nodes, the root and every leaf included; they may only fall.
@pytest.mark.parametrize("nu, circulant, nodes",
                         [(8, True, 4721), (6, False, 8292), (7, True, 732)],
                         ids=["circulant-8", "trivial-6", "circulant-7"])
def test_search_node_counts_are_pinned(nu, circulant, nodes):
    group = _cycle(nu) if circulant else None

    def census(limit):
        return enumerate_asts(_task(nu, invariance=group, node_limit=limit))

    assert census(nodes)
    with pytest.raises(at.SizeGuardError, match=f"exceeded {nodes - 1} "):
        census(nodes - 1)


@pytest.mark.parametrize("nu", range(4, 8))
@pytest.mark.parametrize("proper", (True, False))
def test_two_graph_finder_matches_reference(nu, proper):
    assert (find_regular_two_graphs(nu, proper=proper)
            == naive_find_regular_two_graphs(nu, proper=proper))


@pytest.mark.parametrize("proper", (True, False))
def test_two_graph_finder_matches_gray_code_scan(proper):
    assert (find_regular_two_graphs(8, proper=proper)
            == naive_gray_code_find_regular_two_graphs(8, proper=proper))


def _relabeled(scheme, rng):
    """A copy with points and nontrivial labels shuffled by ``rng``."""
    nu = scheme.nu
    perm = list(range(nu))
    rng.shuffle(perm)
    names = list(range(4, scheme.m + 1))
    rng.shuffle(names)
    rename = list(range(4)) + names
    labels = [0] * nu**3
    for idx, label in enumerate(scheme.labels):
        x, y, z = idx // (nu * nu), idx // nu % nu, idx % nu
        labels[(perm[x] * nu + perm[y]) * nu + perm[z]] = rename[label]
    return verified(at.TriplePartition.from_labels(scheme.ground, labels))


def test_canonical_keys_match_reference():
    rng = random.Random(20221)
    schemes = [s for nu in range(3, 7) for s in enumerate_asts(_task(nu))]
    assert len(schemes) == 7
    for scheme in schemes:
        key = naive_canonical_key(scheme)
        assert canonical_key(scheme) == key
        for _ in range(3):
            copy = _relabeled(scheme, rng)
            assert canonical_key(copy) == naive_canonical_key(copy) == key
