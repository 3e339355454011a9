import random
from itertools import product

import pytest

import astriples as at
from astriples.enumeration import (EnumerationTask, are_isomorphic,
                                   canonical_key, enumerate_asts,
                                   enumerate_circulant)

from conftest import verified
from naive import all_set_partitions, naive_is_ast, naive_trivial_relations


def census(nu, **kwargs):
    return enumerate_asts(EnumerationTask(ground=at.GroundSet(nu), **kwargs))


def test_unique_scheme_on_three_points(three_point):
    result = census(3)
    assert len(result) == 1
    assert are_isomorphic(result[0], three_point) is not None


def test_three_point_completeness_against_partition_oracle():
    # ground truth: try EVERY set partition of the six all-distinct triples
    # below the fixed trivial classes, checked by the independent verifier
    distinct = [t for t in product(range(3), repeat=3) if len(set(t)) == 3]
    trivial = naive_trivial_relations(3)
    valid = []
    for parts in all_set_partitions(distinct):
        classes = trivial + [set(p) for p in parts]
        ok, _reason = naive_is_ast(3, classes)
        if ok:
            valid.append(parts)
    assert len(valid) == 1
    assert len(valid[0]) == 1 and len(valid[0][0]) == 6


def test_unique_symmetric_scheme_on_four_and_five_points():
    for nu in (4, 5):
        result = census(nu, symmetric_only=True)
        assert len(result) == 1
        assert result[0].m == 4  # the single-nontrivial scheme


def test_four_point_symmetric_completeness_against_partition_oracle():
    # symmetric classes are unions of full coordinate-permutation orbits,
    # i.e. of 3-subsets; brute-force all partitions of the four 3-subsets
    from itertools import combinations, permutations
    nu = 4
    subsets = list(combinations(range(nu), 3))
    trivial = naive_trivial_relations(nu)
    valid = 0
    for parts in all_set_partitions(subsets):
        classes = trivial + [
            {order for s in part for order in permutations(s)}
            for part in parts]
        ok, _ = naive_is_ast(nu, classes)
        if ok:
            valid += 1
    assert valid == 1


def test_unique_two_class_scheme_on_four_points():
    result = [s for s in census(4) if s.m - 3 == 2]
    assert len(result) == 1
    thirds = [result[0].valencies.third(i) for i in (4, 5)]
    assert sorted(thirds) == [1, 1]


def test_four_point_census():
    result = census(4)
    assert [s.m - 3 for s in result] == [1, 2]


def test_five_point_census():
    result = census(5)
    assert [s.m - 3 for s in result] == [1, 3]
    agl15 = at.ast_from_group(at.agl1_group(5))
    assert are_isomorphic(result[1], agl15) is not None


def test_six_point_census():
    result = census(6)
    assert [s.m - 3 for s in result] == [1, 2]
    # the two-class scheme is the regular two-graph scheme
    tg = at.two_graph_from_ast(result[1], mode="lenient")
    assert at.is_regular(tg)


def test_unique_nontrivial_circulant_on_five_points():
    result = enumerate_circulant(5)
    nontrivial = [s for s in result if s.m - 3 >= 2]
    assert len(nontrivial) == 1
    assert are_isomorphic(nontrivial[0],
                          at.ast_from_group(at.agl1_group(5))) is not None


def test_three_point_scheme_is_circulant():
    result = enumerate_circulant(3)
    assert len(result) == 1
    assert at.is_circulant_ast(result[0], (1, 2, 0))


def test_circulant_census_on_seven_points():
    # the plane scheme (Fano block/non-block split) and the AGL(1,7) orbit
    # scheme are both invariant under a 7-cycle; with the single-class
    # scheme they exhaust the circulant census
    from conftest import fano_blocks
    result = enumerate_circulant(7)
    assert [s.m - 3 for s in result] == [1, 2, 5]
    fano = at.ast_from_design(at.verify_design(7, fano_blocks()))
    assert are_isomorphic(result[1], fano) is not None
    agl17 = at.ast_from_group(at.agl1_group(7))
    assert are_isomorphic(result[2], agl17) is not None


def test_circulant_census_on_eight_points():
    result = enumerate_circulant(8)
    assert [s.m - 3 for s in result] == [1]


def test_translation_invariant_census_on_eight_points():
    # nu = 8 under a transitive, non-cyclic invariance group: the additive
    # translations of GF(8).  The census holds the single-class scheme,
    # the semilinear-closure orbit scheme, and the AGL(1,8) orbit scheme.
    F = at.make_field(2, 3)
    translations = [tuple(F.add(x, t) for x in range(8)) for t in (1, 2, 4)]
    group = at.close(translations)
    assert at.is_transitive(group) and group.order == 8
    result = census(8, invariance=group)
    assert [s.m - 3 for s in result] == [1, 2, 6]
    assert are_isomorphic(result[2],
                          at.ast_from_group(at.agl1_group(8))) is not None
    gamma = 2  # a generator of the multiplicative group of GF(8)
    seen = {1}
    x = gamma
    while x != 1:
        seen.add(x)
        x = F.mul(x, gamma)
    assert len(seen) == 7
    semilinear = at.close(translations + [
        tuple(F.mul(gamma, x) for x in range(8)),
        tuple(F.mul(x, x) for x in range(8))])
    assert semilinear.order == 168
    assert are_isomorphic(result[1],
                          at.ast_from_group(semilinear)) is not None


def test_circulant_census_four_points_against_block_oracle():
    # brute force: all partitions of the six 4-cycle orbits on distinct
    # triples, checked by the independent verifier
    nu = 4
    cycle = (1, 2, 3, 0)
    distinct = [t for t in product(range(nu), repeat=3) if len(set(t)) == 3]
    remaining = set(distinct)
    orbits = []
    while remaining:
        t = min(remaining)
        orbit = set()
        while t not in orbit:
            orbit.add(t)
            t = (cycle[t[0]], cycle[t[1]], cycle[t[2]])
        orbits.append(sorted(orbit))
        remaining -= orbit
    assert len(orbits) == 6
    trivial = naive_trivial_relations(nu)
    valid = 0
    for parts in all_set_partitions(list(range(6))):
        classes = trivial + [set().union(*(orbits[i] for i in part))
                             for part in parts]
        ok, _ = naive_is_ast(nu, classes)
        if ok:
            valid += 1
    # labeled circulant schemes found by brute force; the library census
    # reduces them modulo isomorphism
    library = enumerate_circulant(4)
    assert valid >= len(library) >= 1
    assert [s.m - 3 for s in library] == [1]
    assert valid == 1


def test_enumerated_schemes_verify_and_are_pairwise_distinct():
    for nu in (4, 5):
        result = census(nu)
        for scheme in result:
            again = verified(scheme.partition)
            assert again.valencies == scheme.valencies
        for i, a in enumerate(result):
            for b in result[i + 1:]:
                assert are_isomorphic(a, b) is None


def test_symmetric_filter_is_a_restriction():
    for nu in (4, 5):
        full_keys = {canonical_key(s) for s in census(nu)}
        symmetric_keys = {canonical_key(s)
                          for s in census(nu, symmetric_only=True)}
        assert symmetric_keys <= full_keys


def test_max_classes_filter():
    bounded = census(4, max_nontrivial_classes=1)
    assert [s.m - 3 for s in bounded] == [1]


def test_max_classes_below_one_is_refused():
    # also with allow_large, whose guards are otherwise skipped
    for bound in (0, -1):
        for allow_large in (False, True):
            with pytest.raises(at.PreconditionError):
                census(4, max_nontrivial_classes=bound,
                       allow_large=allow_large)


def test_invariance_group_restricts_output():
    sym4 = at.close([at.perm_from_cycles(4, [(0, 1)]),
                     at.perm_from_cycles(4, [(0, 1, 2, 3)])])
    result = census(4, invariance=sym4)
    assert len(result) == 1 and result[0].m == 4


def test_enumeration_guards():
    with pytest.raises(at.SizeGuardError):
        census(7)
    with pytest.raises(at.SizeGuardError):
        enumerate_circulant(9)
    with pytest.raises(at.SizeGuardError):
        census(4, node_limit=3)


def test_are_isomorphic_relabeled_copy(three_point, fano_scheme):
    rng = random.Random(11)
    for scheme in (three_point, fano_scheme):
        nu = scheme.nu
        perm = list(range(nu))
        rng.shuffle(perm)
        ground = scheme.ground
        classes = []
        for rel in scheme.partition.classes:
            classes.append(tuple(sorted((perm[x], perm[y], perm[z])
                                        for x, y, z in rel)))
        # trivial classes are fixed setwise by relabeling; nontrivial images
        # may land in any order, so rebuild a valid partition first
        trivial = naive_trivial_relations(nu)
        nontrivial = sorted(classes[4:])
        relabeled = verified(at.TriplePartition(
            ground, tuple(trivial) + tuple(nontrivial)))
        witness = are_isomorphic(scheme, relabeled)
        assert witness is not None
        pm = witness.point_map
        for i, rel in enumerate(scheme.partition.classes):
            image = {(pm[x], pm[y], pm[z]) for x, y, z in rel}
            assert image == \
                set(relabeled.partition.classes[witness.class_map[i]])


def test_are_isomorphic_self(three_point):
    witness = are_isomorphic(three_point, three_point)
    assert witness is not None


def test_are_isomorphic_distinguishes(three_point):
    result = census(5)
    assert are_isomorphic(result[0], result[1]) is None
    assert are_isomorphic(three_point, result[0]) is None


def test_are_isomorphic_exhausts_its_search_on_equal_profiles():
    # the cyclic STS(13) and its Pasch switch: equal class profiles pass
    # the profile filter, and the backtracking finds no point bijection
    cyclic = [tuple(sorted((b + t) % 13 for b in base))
              for base in ((0, 1, 4), (0, 2, 7)) for t in range(13)]
    pasch = [(0, 6, 8), (1, 6, 12), (0, 3, 12), (1, 3, 8)]
    switched = [b for b in cyclic if b not in pasch] + [
        (0, 6, 12), (1, 6, 8), (0, 3, 8), (1, 3, 12)]
    assert len(switched) == len(cyclic) == 26
    s, t = (at.ast_from_design(at.verify_design(13, blocks))
            for blocks in (cyclic, switched))
    assert are_isomorphic(s, t) is None
    assert are_isomorphic(s, s) is not None


def test_enumeration_guard_of_a_non_transitive_group():
    swap = at.close([at.perm_from_cycles(7, [(0, 1)])])
    with pytest.raises(at.SizeGuardError, match=r"guard \(6\)"):
        enumerate_asts(EnumerationTask(ground=at.GroundSet(7),
                                       invariance=swap))


def test_canonical_key_is_relabeling_invariant(three_point):
    result = census(4)
    for scheme in result:
        key = canonical_key(scheme)
        # apply a relabeling and recompute
        perm = (2, 0, 3, 1)
        ground = scheme.ground
        trivial = naive_trivial_relations(ground.nu)
        nontrivial = sorted(
            tuple(sorted((perm[x], perm[y], perm[z]) for x, y, z in rel))
            for rel in scheme.partition.classes[4:])
        relabeled = verified(at.TriplePartition(
            ground, tuple(trivial) + tuple(nontrivial)))
        assert canonical_key(relabeled) == key


def test_canonical_key_guard(fano_scheme):
    with pytest.raises(at.SizeGuardError):
        canonical_key(fano_scheme)
