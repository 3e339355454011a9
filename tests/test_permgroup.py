import random
from itertools import permutations

import pytest

import astriples as at
from astriples import permgroup
from astriples.permgroup import (CYCLE_SEARCH_LIMIT, ORBIT_DEGREE_LIMIT,
                                 check_perm, compose, cycle_type,
                                 generators_from_text, group_from_elements,
                                 identity_perm, inverse_perm,
                                 parse_permutation_line)

from conftest import PSL11_CYCLE, verified
from naive import (naive_chain_elements, naive_classes, naive_close,
                   naive_closure, naive_cycle_orbits_on_relation,
                   naive_is_invariant, naive_is_thin, naive_orbits_on_triples,
                   naive_thin_circulant_decomposition, naive_trivial_relations,
                   naive_triple_orbits, naive_triple_rows)


def _symmetric_gens(n):
    return [at.perm_from_cycles(n, [(0, 1)]),
            at.perm_from_cycles(n, [tuple(range(n))])]


def symmetric_group(n):
    return at.close(_symmetric_gens(n))


def test_perm_utilities():
    p = (1, 2, 0)
    assert compose(p, inverse_perm(p)) == identity_perm(3)
    assert cycle_type(p) == (3,)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    line = " ".join(map(str, p))
    assert parse_permutation_line(line) == p
    with pytest.raises(at.StructuralError):
        parse_permutation_line("0 0 1")


def test_generators_from_text():
    gens = generators_from_text("# comment\n1 0 2\n\n0 2 1\n")
    assert gens == [(1, 0, 2), (0, 2, 1)]
    with pytest.raises(at.StructuralError):
        generators_from_text("1 0 2\n0 1\n")


def test_close_psl11_generators_order_660(psl11_group):
    assert psl11_group.order == 660
    assert psl11_group.degree == 11


def test_close_trivial_group():
    g = at.close([], degree=5)
    assert g.order == 1
    assert identity_perm(5) in g


def test_close_single_eleven_cycle():
    cyc = at.perm_from_cycles(11, [PSL11_CYCLE])
    assert at.close([cyc]).order == 11


def test_close_cap(monkeypatch):
    # S8 takes 8,936 units of work (a sift counts (base length + 1) * 8),
    # the 8-cycle alone 136
    monkeypatch.setattr(permgroup, "CLOSE_WORK_BUDGET", 1000)
    with pytest.raises(at.SizeGuardError, match="work budget 1000"):
        at.close(_symmetric_gens(8))
    assert at.close(_symmetric_gens(8)[1:]).order == 8


def test_close_refuses_degrees_below_one():
    for generators, degree in (([], -1), ([], 0), ([()], None), ([], 2.0),
                               ([], True)):
        with pytest.raises(at.PreconditionError, match="degree must be"):
            at.close(generators, degree=degree)
    assert at.close([], degree=1).order == 1


def test_close_checks_degree_and_order_before_any_sift(monkeypatch):
    monkeypatch.setattr(permgroup, "_sift", None)   # a sift would fail
    for kwargs, message in (({"degree": 5}, "degree is not 5"),
                            ({"degree": "3"}, "degree must be"),
                            ({"degree": True}, "degree must be"),
                            ({"order": "3"}, "order must be"),
                            ({"order": 0}, "order must be"),
                            ({"order": 6.0}, "order must be"),
                            ({"order": True}, "order must be")):
        with pytest.raises(at.PreconditionError, match=message):
            at.close([(1, 0, 2)], **kwargs)


@pytest.mark.parametrize("build, q", [(at.asl2_group, 8), (at.agl2_group, 4),
                                      (at.agl1_group, 64),
                                      (at.psl2_group, 27)])
def test_known_order_stop_gives_the_full_chain(monkeypatch, build, q):
    # the chain that reaches the known order is the one the full Sims
    # check ends with, after fewer sifts
    group = build(q)
    seeds, order = group.generators, group.order
    sifts, sift = [], permgroup._sift
    monkeypatch.setattr(permgroup, "_sift",
                        lambda *args: sifts.append(1) or sift(*args))
    stopped = at.close(seeds, order=order)
    stopped_sifts = len(sifts)
    full = at.close(seeds)
    assert stopped.base == full.base
    assert list(map(len, stopped.transversals)) == \
        list(map(len, full.transversals))
    assert stopped.order == order
    assert stopped_sifts < len(sifts) - stopped_sifts


def test_close_reads_no_generator_past_the_known_order():
    def stream(*gens):
        yield from gens
        pytest.fail("read a generator past the known order")
    s3 = at.close(stream((1, 0, 2), (1, 2, 0)), order=6)
    assert s3.generators == ((1, 0, 2), (1, 2, 0)) and s3.order == 6
    # the order of the trivial group is reached before any generator
    trivial = at.close(stream(), degree=3, order=1)
    assert trivial.generators == () and trivial.order == 1


def test_close_refuses_a_chain_below_the_known_order():
    with pytest.raises(at.ConsistencyError, match="order below 6"):
        at.close([(1, 0, 2)], order=6)


def test_orbits_on_triples_closes_each_stabilizer_once(monkeypatch):
    # S24 has two orbits on pairs, the diagonal and the distinct pairs
    group, closes = symmetric_group(24), []
    close = permgroup.close
    monkeypatch.setattr(permgroup, "close",
                        lambda *args, **kw: closes.append(1)
                        or close(*args, **kw))
    partition = at.orbits_on_triples(group)
    assert len(closes) == 2
    assert partition.sizes == (24, 552, 552, 552, 12144)


def test_orbits_on_triples_full_symmetric_group():
    for n in (3, 4, 5):
        partition = at.orbits_on_triples(symmetric_group(n))
        assert len(partition.classes) == 5
        scheme = verified(partition)
        assert scheme.valencies.third(4) == n - 2


def test_orbits_on_triples_trivial_group():
    partition = at.orbits_on_triples(at.close([], degree=3))
    assert len(partition.classes) == 27
    assert all(len(rel) == 1 for rel in partition.classes)


def test_orbit_sizes_sum_to_cube(psl11_group):
    partition = at.orbits_on_triples(psl11_group)
    assert sum(len(rel) for rel in partition.classes) == 11**3


def test_two_transitive_orbit_partition_verifies(psl11_group):
    scheme = verified(at.orbits_on_triples(psl11_group))
    assert scheme.m - 3 == 2


def test_two_point_stabilizer_orbits_asl2():
    for q in (2, 3, 4, 5):
        g = at.asl2_group(q)
        orbits = at.two_point_stabilizer_orbits(g, 0, q)  # points 0 and (1,0)
        assert len(orbits) == 2 * q - 3
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [1] * (q - 2) + [q] * (q - 1)


def test_two_point_stabilizer_orbit_sizes_match_third_valencies(psl11_group,
                                                                psl11_scheme):
    orbits = at.two_point_stabilizer_orbits(psl11_group, 0, 1)
    sizes = sorted(len(o) for o in orbits)
    thirds = sorted(psl11_scheme.valencies.third(i)
                    for i in psl11_scheme.nontrivial_labels)
    assert sizes == thirds
    assert len(orbits) == psl11_scheme.m - 3


def test_two_point_stabilizer_full_symmetric():
    orbits = at.two_point_stabilizer_orbits(symmetric_group(5), 0, 1)
    assert [len(o) for o in orbits] == [3]


def test_two_point_stabilizer_rejects_equal_points(psl11_group):
    with pytest.raises(at.PreconditionError):
        at.two_point_stabilizer_orbits(psl11_group, 2, 2)


def test_transitivity_predicates(psl11_group):
    assert at.is_transitive(psl11_group)
    assert at.is_two_transitive(psl11_group)
    cyclic = at.close([at.perm_from_cycles(11, [tuple(range(11))])])
    assert at.is_transitive(cyclic)
    assert not at.is_two_transitive(cyclic)
    assert at.is_two_transitive(at.asl2_group(2))


def test_is_invariant(three_point):
    cyc = (1, 2, 0)
    for i in range(5):
        assert at.is_invariant(three_point, i, cyc)
    # transpositions do not fix the middle-coordinate trivial relation class
    assert at.is_invariant(three_point, 2, (1, 0, 2))


def test_trivial_relations_invariant_under_any_cycle(constructed_schemes):
    scheme = constructed_schemes["agl1_5"]
    cyc = (1, 2, 3, 4, 0)
    for i in range(4):
        assert at.is_invariant(scheme, i, cyc)


def test_is_circulant_ast(three_point, psl11_scheme):
    assert at.is_circulant_ast(three_point, (1, 2, 0))
    cyc = at.perm_from_cycles(11, [PSL11_CYCLE])
    assert at.is_circulant_ast(psl11_scheme, cyc)


def test_is_circulant_rejects_non_cycle(three_point):
    with pytest.raises(at.PreconditionError):
        at.is_circulant_ast(three_point, (0, 2, 1))


def test_find_invariant_cycle(three_point):
    cyc = at.find_invariant_cycle(three_point)
    assert cyc is not None
    assert cycle_type(cyc) == (3,)
    assert at.is_circulant_ast(three_point, cyc)


def test_is_thin_three_point(three_point):
    for a, b in ((0, 1), (0, 2), (1, 2), (2, 1)):
        assert at.is_thin(three_point, 4, a, b)
    # R_0 has the wrong cardinality; R_1 projects onto diagonal pairs in
    # coordinates (1, 2) but is thin in (0, 1)
    assert not at.is_thin(three_point, 0, 0, 1)
    assert not at.is_thin(three_point, 1, 1, 2)
    assert at.is_thin(three_point, 1, 0, 1)
    with pytest.raises(at.PreconditionError):
        at.is_thin(three_point, 4, 1, 1)


def test_is_thin_cardinality_obstruction(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    line_label = labeling.line_labels[1]
    rel = scheme.partition.classes[line_label]
    assert len(rel) != scheme.nu * (scheme.nu - 1)
    assert not at.is_thin(scheme, line_label, 0, 1)


def test_cycle_orbits_on_relation(three_point):
    orbits = at.cycle_orbits_on_relation(three_point, 4, (1, 2, 0))
    assert sorted(len(o) for o in orbits) == [3, 3]


def test_thin_decomposition_three_point(three_point):
    result = at.thin_circulant_decomposition(three_point, 4, (1, 2, 0))
    assert result is not None
    assert len(result.pieces) == 1
    union = [i for piece in result.pieces for i in piece]
    assert sorted(union) == list(range(len(result.orbits)))


def test_thin_decomposition_psl11(psl11_scheme):
    # every class but R_0 splits, and the pieces tile the distinct pairs
    cyc = at.perm_from_cycles(11, [PSL11_CYCLE])
    assert at.thin_circulant_decomposition(psl11_scheme, 0, cyc) is None
    for i in range(1, psl11_scheme.m + 1):
        result = at.thin_circulant_decomposition(psl11_scheme, i, cyc)
        assert result is not None
        a, b = result.coords
        nu = psl11_scheme.nu
        for piece in result.pieces:
            pairs = set()
            for orbit_idx in piece:
                pairs |= {(t[a], t[b]) for t in result.orbits[orbit_idx]}
            assert len(pairs) == nu * (nu - 1)


def _full_cycle_through(points):
    images = [0] * len(points)
    for x, y in zip(points, points[1:] + points[:1]):
        images[x] = y
    return tuple(images)


def _predicate_schemes(constructed_schemes):
    """(name, scheme, its invariant full cycle or None) for the comparison
    of the label predicates with their triple-set copies."""
    from astriples.enumeration import enumerate_circulant
    cases = [(f"circulant{nu}.{k}", scheme, tuple((i + 1) % nu
                                                  for i in range(nu)))
             for nu in range(3, 9)
             for k, scheme in enumerate(enumerate_circulant(nu))]
    named = dict(constructed_schemes)
    named.update({f"agl1_{q}": at.ast_from_group(at.agl1_group(q))
                  for q in (7, 8)})
    for name, scheme in named.items():
        if name == "psl2_11_degree11":
            cycle = at.perm_from_cycles(11, [PSL11_CYCLE])
        elif scheme.nu <= CYCLE_SEARCH_LIMIT:
            cycle = at.find_invariant_cycle(scheme)
        else:
            cycle = None
        cases.append((name, scheme, cycle))
    return cases


def test_label_predicates_match_triple_set_copies(constructed_schemes):
    rng = random.Random(1212)
    decompositions = refusals = 0
    for name, scheme, invariant in _predicate_schemes(constructed_schemes):
        nu = scheme.nu
        cycles = [_full_cycle_through(rng.sample(range(nu), nu))]
        if invariant is not None:
            cycles.append(invariant)
        perms = [_random_perm(rng, nu) for _ in range(2)] + cycles
        for i in range(scheme.m + 1):
            rel = scheme.partition.classes[i]
            for p in perms:
                assert at.is_invariant(scheme, i, p) == \
                    naive_is_invariant(nu, rel, p), (name, i, p)
            for a, b in permutations(range(3), 2):
                assert at.is_thin(scheme, i, a, b) == \
                    naive_is_thin(nu, rel, a, b), (name, i, a, b)
            for cycle in cycles:
                assert at.cycle_orbits_on_relation(scheme, i, cycle) == \
                    naive_cycle_orbits_on_relation(rel, cycle), (name, i, cycle)
                if naive_is_invariant(nu, rel, cycle):
                    assert at.thin_circulant_decomposition(
                        scheme, i, cycle) == \
                        naive_thin_circulant_decomposition(nu, rel, cycle), \
                        (name, i, cycle)
                    decompositions += 1
                else:
                    with pytest.raises(at.PreconditionError):
                        at.thin_circulant_decomposition(scheme, i, cycle)
                    refusals += 1
    assert decompositions > 100 and refusals > 0


def test_label_predicates_refuse_bad_labels_and_degrees(constructed_schemes):
    scheme = constructed_schemes["agl1_5"]
    cycle = (1, 2, 3, 4, 0)
    calls = [lambda i, p: at.is_invariant(scheme, i, p),
             lambda i, p: at.cycle_orbits_on_relation(scheme, i, p),
             lambda i, p: at.thin_circulant_decomposition(scheme, i, p),
             lambda i, p: at.is_thin(scheme, i, 0, 1),
             lambda i, p: scheme.check_label(i)]
    for call in calls:
        for label in (-1, scheme.m + 1, 1.0, True, "4"):
            with pytest.raises(at.PreconditionError):
                call(label, cycle)
    for call in calls[:3]:
        for short in ((1, 2, 0), (1, 2, 3, 4, 5, 0)):
            with pytest.raises(at.PreconditionError):
                call(4, short)
        with pytest.raises(at.StructuralError):
            call(4, (1, 2, 3, 4.0, 0))
    for a, b in ((1.0, 0), (0, 3), (2, 2), (-1, 0)):
        with pytest.raises(at.PreconditionError):
            at.is_thin(scheme, 4, a, b)
    assert scheme.check_label(scheme.m) == scheme.m


def test_thin_decomposition_refuses_non_invariant_class_and_non_cycle(
        constructed_schemes):
    scheme = constructed_schemes["agl1_5"]
    other = (2, 0, 4, 1, 3)     # the full cycle 0 2 4 3 1
    assert at.is_invariant(scheme, 3, other)
    assert at.thin_circulant_decomposition(scheme, 3, other) is not None
    assert not at.is_invariant(scheme, 4, other)
    with pytest.raises(at.PreconditionError):
        at.thin_circulant_decomposition(scheme, 4, other)
    # R_1 is invariant under every permutation, but a transposition and a
    # product of two cycles are not full cycles
    for p in ((1, 0, 2, 3, 4), (1, 0, 3, 4, 2)):
        assert at.is_invariant(scheme, 1, p)
        with pytest.raises(at.PreconditionError):
            at.thin_circulant_decomposition(scheme, 1, p)


def test_permutations_follow_the_one_integer_rule():
    for bad in ((0, "a", 1), (0, 1.0, 2), (True, 0, 2), (0, 1, None)):
        with pytest.raises(at.StructuralError):
            check_perm(bad)
        with pytest.raises(at.StructuralError):
            at.close([bad])
        assert bad not in symmetric_group(3)
    for cycles in ([(0, "a")], [(0, 1.0)], [(False, 1)], [([0], 1)]):
        with pytest.raises(at.StructuralError):
            at.perm_from_cycles(3, cycles)
    for line in ("0 1 2 1_0", "0 1 +2 3", "0 1 2 \u0663"):
        with pytest.raises(at.StructuralError):
            parse_permutation_line(line)
    assert check_perm([2, 0, 1]) == (2, 0, 1)
    assert (2, 0, 1) in symmetric_group(3)


@pytest.mark.parametrize("call", [
    lambda: check_perm(5),
    lambda: at.perm_from_cycles(3, [5]),
    lambda: at.perm_from_cycles(3, 5),
    lambda: at.close([5]),
], ids=["check_perm_int", "perm_from_cycles_int_cycle",
        "perm_from_cycles_int_cycles", "close_int_generator"])
def test_non_sequence_permutations_raise_structural_errors(call):
    with pytest.raises(at.StructuralError):
        call()


def test_group_from_elements_rejects_unclosed():
    # one transposition generates a proper subgroup of S3
    with pytest.raises(at.ConsistencyError):
        group_from_elements(3, [(1, 0, 2)], 6)
    # and so does a larger one: S3 is not a group of order 3
    with pytest.raises(at.ConsistencyError):
        group_from_elements(3, [(1, 0, 2), (1, 2, 0)], 3)
    assert group_from_elements(3, [(1, 0, 2), (1, 2, 0)], 6).order == 6


def _random_perm(rng, n, parts=None):
    """A random permutation of 0..n-1; with parts, one preserving each."""
    images = list(range(n))
    for part in parts or [range(n)]:
        part = list(part)
        for a, b in zip(part, rng.sample(part, len(part))):
            images[a] = b
    return tuple(images)


def _cross_check_groups():
    """(name, generators) of the groups checked against tests/naive.py."""
    groups = [(f"S{n}", _symmetric_gens(n)) for n in (3, 4, 5)]
    groups += [("psl2:11", list(at.psl2_group(11).generators)),
               ("trivial", [identity_perm(4)]),
               ("C6", [at.perm_from_cycles(6, [tuple(range(6))])]),
               ("agl1:7", list(at.agl1_group(7).generators)),
               ("asl2:3", list(at.asl2_group(3).generators))]
    rng = random.Random(4711)
    for n in (4, 5, 6, 7):
        for k in (1, 2, 3):
            groups.append((f"random{n}.{k}",
                           [_random_perm(rng, n) for _ in range(k)]))
        split = [range(n // 2), range(n // 2, n)]
        groups.append((f"intransitive{n}",
                       [_random_perm(rng, n, split) for _ in range(2)]))
    return groups


CROSS_CHECK_GROUPS = _cross_check_groups()


@pytest.mark.parametrize("name,gens", CROSS_CHECK_GROUPS,
                         ids=[name for name, _ in CROSS_CHECK_GROUPS])
def test_chain_order_and_elements_match_naive_closure(name, gens):
    group = at.close(gens)
    elements = naive_closure(gens)
    assert group.order == len(elements)
    assert naive_chain_elements(group) == elements


@pytest.mark.parametrize("name,gens", CROSS_CHECK_GROUPS,
                         ids=[name for name, _ in CROSS_CHECK_GROUPS])
def test_orbits_on_triples_match_naive(name, gens):
    group = at.close(gens)
    n = group.degree
    elements = naive_closure(gens)
    partition = at.orbits_on_triples(group)
    got = set(naive_classes(partition))
    assert got == naive_triple_orbits(elements, n)
    firsts = [rel[0] for rel in partition.classes]
    pairs = {frozenset((g[x], g[y]) for g in elements)
             for x in range(n) for y in range(n) if x != y}
    assert at.is_two_transitive(group) == (len(pairs) == 1)
    assert {frozenset(o) for o in at.pair_orbits(group)} == pairs
    if len(pairs) == 1:
        assert naive_classes(partition)[:4] == naive_trivial_relations(n)
        firsts = firsts[4:]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("name,gens", [
    (name, gens) for name, gens in CROSS_CHECK_GROUPS
    if name in ("S3", "S4", "S5", "psl2:11", "agl1:7", "asl2:3")])
def test_two_point_stabilizer_orbits_match_element_filter(name, gens):
    group = at.close(gens)
    n = group.degree
    elements = naive_closure(gens)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            stab = [g for g in elements if g[x] == x and g[y] == y]
            orbits = {tuple(sorted({g[z] for g in stab}))
                      for z in range(n) if z not in (x, y)}
            assert at.two_point_stabilizer_orbits(group, x, y) == sorted(orbits)


def test_membership_by_sifting_matches_naive_closure():
    def cyc(n, *cycles):
        return at.perm_from_cycles(n, list(cycles))

    subgroups = {
        4: [_symmetric_gens(4), [cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))],
            [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 2))],
            [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))],
            [cyc(4, (0, 1, 2, 3))], [cyc(4, (0, 1)), cyc(4, (0, 1, 2))],
            [identity_perm(4)]],
        5: [_symmetric_gens(5), [cyc(5, (0, 1, 2)), cyc(5, (0, 1, 2, 3, 4))],
            [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (1, 4), (2, 3))],
            list(at.agl1_group(5).generators), [cyc(5, (0, 1, 2, 3, 4))],
            [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3))],
            [cyc(5, (0, 1)), cyc(5, (2, 3, 4))]],
    }
    for n, gen_lists in subgroups.items():
        for gens in gen_lists:
            group = at.close(gens)
            elements = naive_closure(gens)
            for p in permutations(range(n)):
                assert (p in group) == (p in elements)
            assert (0,) * n not in group
            assert identity_perm(n + 1) not in group


def test_membership_of_non_sequences_is_false():
    group = at.close([(1, 0, 2)])
    for bad in (5, None, 1.5, object()):
        assert bad not in group
    assert (1, 0, 2) in group


# The groups whose orbit cubes are compared byte for byte with the first
# routines, built when the test runs.
_REFERENCE_GROUPS = (
    [(f"asl2:{q}", at.asl2_group, q) for q in range(2, 10) if q != 6]
    + [(f"agl2:{q}", at.agl2_group, q) for q in (2, 3, 4)]
    + [(f"agl1:{q}", at.agl1_group, q) for q in (7, 8, 9, 29)]
    + [(f"psl2:{q}", at.psl2_group, q) for q in (5, 7, 11)]
    + [(name, at.close, gens) for name, gens in CROSS_CHECK_GROUPS]
    + [("trivial7", lambda n: at.close([], degree=n), 7)])


@pytest.mark.parametrize("name,build,arg", _REFERENCE_GROUPS,
                         ids=[name for name, _, _ in _REFERENCE_GROUPS])
def test_orbit_forest_matches_the_first_routines(name, build, arg):
    group = build(arg)
    n = group.degree
    reference = naive_close(group.generators, degree=n,
                            max_elements=group.order)
    assert reference.base == group.base
    assert [list(t.items()) for t in reference.transversals] == \
        [list(t.items()) for t in group.transversals]
    got, want = at.orbits_on_triples(group), naive_orbits_on_triples(group)
    assert got.labels.typecode == want.labels.typecode
    assert got.labels.tobytes() == want.labels.tobytes()
    two_transitive, row = naive_triple_rows(group)
    assert at.is_two_transitive(group) == two_transitive
    if name == "trivial7":
        assert got.m + 1 == 343 and got.labels.typecode == "H"
    if two_transitive:
        for x, y in ((0, 1), (n - 1, 0), (1, n - 1)):
            buckets = {}
            for z, label in enumerate(row(x * n + y)):
                if z not in (x, y):
                    buckets.setdefault(label, []).append(z)
            assert at.two_point_stabilizer_orbits(group, x, y) == \
                [tuple(b) for b in buckets.values()]


def test_orbit_degree_guard_fires_before_pair_lists():
    import tracemalloc
    n = ORBIT_DEGREE_LIMIT + 1
    group = at.close([at.perm_from_cycles(n, [tuple(range(n))])])
    calls = (at.is_two_transitive, at.pair_orbits, at.orbits_on_triples,
             lambda g: at.two_point_stabilizer_orbits(g, 0, 1))
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            with pytest.raises(at.SizeGuardError):
                call(group)
            # a list of n * n entries would take 8 n^2 bytes
            assert tracemalloc.get_traced_memory()[1] < n * n
    finally:
        tracemalloc.stop()
