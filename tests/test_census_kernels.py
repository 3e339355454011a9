"""The census kernels against the verbatim first versions in naive.py.

The enumeration search must yield the same colorings in the same order,
the two-graph finder the same list, and canonical forms the same keys.
"""

import random

import pytest

import astriples as at
from astriples import enumeration
from astriples.designs import find_regular_two_graphs
from astriples.enumeration import (EnumerationTask, canonical_key,
                                   enumerate_asts, enumerate_circulant)

from naive import (naive_canonical_key, naive_find_regular_two_graphs,
                   naive_search_colorings)


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


@pytest.mark.parametrize("run", [run for _name, run in SEARCHES],
                         ids=[name for name, _run in SEARCHES])
def test_search_yields_the_reference_colorings(monkeypatch, run):
    search = enumeration._search_colorings
    calls = []

    def both(*args):
        got = list(search(*args))
        calls.append((got, list(naive_search_colorings(*args))))
        return iter(got)

    monkeypatch.setattr(enumeration, "_search_colorings", both)
    assert run()
    assert len(calls) == 1
    got, want = calls[0]
    assert want and got == want


@pytest.mark.parametrize("nu", range(4, 8))
@pytest.mark.parametrize("proper", (True, False))
def test_two_graph_finder_matches_reference(nu, proper):
    assert (find_regular_two_graphs(nu, proper=proper)
            == naive_find_regular_two_graphs(nu, proper=proper))


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
    return at.ensure_ast(at.TriplePartition.from_labels(scheme.ground, labels))


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
