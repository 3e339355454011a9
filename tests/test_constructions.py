import random
from itertools import combinations
from types import MappingProxyType

import pytest

import astriples as at
from astriples.core import relabel
from astriples.constructions import (VANISHING_LENIENT, VANISHING_STRICT,
                                     vanishing_report)
from astriples.enumeration import EnumerationTask, enumerate_asts

from conftest import THREE_POINT_RELATIONS, m24_generators
from naive import is_symmetric_relation, naive_classes


def test_ast_from_s3_reproduces_reference_relations():
    s3 = at.close([(1, 0, 2), (1, 2, 0)])
    scheme = at.ast_from_group(s3)
    assert list(scheme.partition.classes) == \
        [tuple(sorted(r)) for r in THREE_POINT_RELATIONS]


def test_ast_from_asl2_class_counts(asl2_schemes):
    for q, (scheme, _) in asl2_schemes.items():
        assert scheme.m - 3 == 2 * q - 3


def test_ast_from_group_refuses_non_two_transitive():
    cyclic = at.close([at.perm_from_cycles(5, [tuple(range(5))])])
    with pytest.raises(at.RefusalError) as err:
        at.ast_from_group(cyclic)
    witness = err.value.witness
    assert witness is not None and len(witness) < 20


def test_ast_from_group_orbit_schemes_verify(psl11_group):
    # every constructed two-transitive orbit partition passes verification
    for group in (psl11_group, at.agl1_group(5), at.asl2_group(3),
                  at.agl2_group(2), at.psl2_group(4)):
        scheme = at.ast_from_group(group)
        assert isinstance(scheme, at.AstScheme)


def _prime_powers(lo, hi):
    def is_prime_power(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1
    return [q for q in range(lo, hi + 1) if is_prime_power(q)]


# every built-in group with 3 <= nu <= 64, and M24 from a generator file
ORBIT_SPECS = ([f"{family}:{q}" for family in ("asl2", "agl2")
                for q in _prime_powers(2, 8)]
               + [f"agl1:{q}" for q in _prime_powers(3, 64)]
               + [f"psl2:{q}" for q in _prime_powers(2, 63)] + ["m24"])


@pytest.mark.parametrize("spec", ORBIT_SPECS)
def test_orbit_scheme_read_from_its_group_equals_the_full_check(spec):
    # ast_from_group reads each condition at one cell per class; the full
    # check reads the whole cube
    group = (at.close(m24_generators()) if spec == "m24"
             else at.group_from_spec(spec))
    scheme = at.ast_from_group(group)
    full = at.verify_ast(at.orbits_on_triples(group), full_check=True)
    assert scheme.partition == full.partition
    assert scheme.partition.sizes == at.TriplePartition.from_labels(
        scheme.ground, scheme.labels).sizes
    assert scheme.valencies == full.valencies
    assert dict(scheme.action) == dict(full.action)
    assert [list(counts.items()) for counts in scheme.tensor.counts] == \
        [list(counts.items()) for counts in full.tensor.counts]


def test_ast_from_design_fano(fano_scheme):
    assert fano_scheme.nu == 7
    assert fano_scheme.m == 5
    assert at.is_symmetric_ast(fano_scheme)
    assert len(fano_scheme.partition.classes[4]) == 42
    assert len(fano_scheme.partition.classes[5]) == 168


def test_ast_from_design_ag23():
    from conftest import ag23_blocks
    scheme = at.ast_from_design(at.verify_design(9, ag23_blocks()))
    assert scheme.nu == 9 and scheme.m == 5
    assert at.is_symmetric_ast(scheme)


def test_ast_from_design_refuses_lambda_two():
    blocks = list(combinations(range(5), 3))
    design = at.verify_design(5, blocks)
    assert design.lam == 3
    with pytest.raises(at.RefusalError):
        at.ast_from_design(design)


def test_ast_from_design_refuses_all_covering_block():
    design = at.verify_design(4, [(0, 1, 2, 3)])
    assert design.lam == 1
    with pytest.raises(at.RefusalError):
        at.ast_from_design(design)


def test_fano_subalgebra_commutative_not_associative(fano_scheme):
    assert at.is_commutative_subalgebra(fano_scheme)
    assert not at.is_associative_subalgebra(fano_scheme)


def test_fano_a4_generates_proper_subalgebra(fano_scheme):
    # closing the support of A_4 under the product never reaches label 5
    tensor = fano_scheme.tensor
    support = {4}
    while True:
        grown = set(support)
        for i in support:
            for j in support:
                for k in support:
                    for l, p in enumerate(tensor.slice(i, j, k)):
                        if p:
                            grown.add(l)
        if grown == support:
            break
        support = grown
    assert 5 not in support


def test_design_round_trip_fano(fano_scheme, fano_design):
    extracted = at.design_from_symmetric_relation(fano_scheme, 4)
    assert extracted.blocks == fano_design.blocks
    assert extracted.lam == 1


def test_design_from_non_collinear_class(fano_scheme):
    d5 = at.design_from_symmetric_relation(fano_scheme, 5)
    assert d5.lam == 4
    assert d5.lam == fano_scheme.valencies.third(5)
    assert d5.b == 28


def test_design_extraction_lambda_equals_third_valency(two_graph_scheme):
    for i in (4, 5):
        d = at.design_from_symmetric_relation(two_graph_scheme, i)
        assert d.lam == two_graph_scheme.valencies.third(i)


def test_design_from_three_point(three_point):
    d = at.design_from_symmetric_relation(three_point, 4)
    assert (d.b, d.v, d.k, d.lam) == (1, 3, 3, 1)


def test_design_extraction_rejects_non_symmetric(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    non_symmetric = labeling.line_labels[1]
    with pytest.raises(at.PreconditionError):
        at.design_from_symmetric_relation(scheme, non_symmetric)
    with pytest.raises(at.PreconditionError):
        at.design_from_symmetric_relation(scheme, 1)


def test_ast_from_two_graph(two_graph_scheme, six_point_two_graph):
    assert two_graph_scheme.nu == 6 and two_graph_scheme.m == 5
    assert at.is_symmetric_ast(two_graph_scheme)
    assert len(two_graph_scheme.partition.classes[4]) == 60


def test_two_graph_vanishing_entries(two_graph_scheme):
    report = vanishing_report(two_graph_scheme)
    assert all(v == 0 for v in report["lenient"].values())
    # the strict final entry does not vanish: p_554^4 = p_455^4 = 1 here
    assert report["strict"][(5, 5, 4, 4)] == 1
    assert sum(1 for v in report["strict"].values() if v) == 1


def test_two_graph_construction_refuses_degenerate():
    with pytest.raises(at.RefusalError):
        at.ast_from_two_graph(at.verify_two_graph(5, []))
    complete = list(combinations(range(5), 3))
    with pytest.raises(at.RefusalError):
        at.ast_from_two_graph(at.verify_two_graph(5, complete))


def test_two_graph_construction_refuses_irregular():
    # a proper two-graph that is not regular: switching class of one edge
    tg = at.two_graph_from_graph(5, [(0, 1)])
    assert not at.is_regular(tg)
    with pytest.raises(at.RefusalError):
        at.ast_from_two_graph(tg)


def test_two_graph_round_trip_lenient(two_graph_scheme, six_point_two_graph):
    recovered = at.two_graph_from_ast(two_graph_scheme, mode="lenient")
    assert recovered.triples == six_point_two_graph.triples


def test_two_graph_strict_mode_names_the_nonzero_entry(two_graph_scheme):
    with pytest.raises(at.RefusalError) as err:
        at.two_graph_from_ast(two_graph_scheme, mode="strict")
    entry, value = err.value.witness
    assert entry == (5, 5, 4, 4) and value == 1


def test_two_graph_extraction_refuses_fano(fano_scheme):
    # p_555^4 = 4 on the design scheme, so both modes refuse
    assert fano_scheme.tensor.get(5, 5, 5, 4) == 4
    for mode in ("strict", "lenient"):
        with pytest.raises(at.RefusalError):
            at.two_graph_from_ast(fano_scheme, mode=mode)


def test_two_graph_extraction_preconditions(three_point):
    with pytest.raises(at.PreconditionError):
        at.two_graph_from_ast(three_point)


def test_complement_two_graph_also_constructs(six_point_two_graph):
    comp = at.complement_two_graph(six_point_two_graph)
    scheme = at.ast_from_two_graph(comp)
    assert isinstance(scheme, at.AstScheme)
    recovered = at.two_graph_from_ast(scheme, mode="lenient")
    assert recovered.triples == comp.triples


def test_fuse_identity(fano_scheme):
    grouping = at.FusionGrouping.identity(fano_scheme.m)
    fused = at.fuse(fano_scheme, grouping)
    assert isinstance(fused, at.AstScheme)
    assert fused.serialized() == fano_scheme.serialized()


def test_fuse_all_into_one(constructed_schemes):
    for name, scheme in constructed_schemes.items():
        grouping = at.FusionGrouping.all_nontrivial_into_one(scheme.m)
        fused = at.fuse(scheme, grouping)
        assert isinstance(fused, at.AstScheme), name
        assert fused.m == 4, name
        # the single nontrivial class holds every all-distinct triple
        assert len(fused.partition.classes[4]) == \
            scheme.nu * (scheme.nu - 1) * (scheme.nu - 2), name


def test_fuse_rejects_malformed_grouping(fano_scheme):
    with pytest.raises(at.StructuralError):
        at.fuse(fano_scheme, at.FusionGrouping(((0,), (1,), (2,), (3,), (4,))))
    with pytest.raises(at.StructuralError):
        at.fuse(fano_scheme,
                at.FusionGrouping(((0,), (1,), (2,), (3,), (4, 3), (5,))))


def test_fuse_can_fail_conditions(asl2_schemes):
    # fusing one line class with the point class of the q=3 scheme breaks
    # the coordinate-permutation closure
    scheme, labeling = asl2_schemes[3]
    point = labeling.point_labels[2]
    line1 = labeling.line_labels[1]
    line2 = labeling.line_labels[2]
    grouping = at.FusionGrouping(
        ((0,), (1,), (2,), (3,), tuple(sorted((point, line1))), (line2,)))
    result = at.fuse(scheme, grouping)
    assert isinstance(result, at.ViolationReport)


def test_fuse_refuses_an_empty_coarse_class(fano_scheme):
    with pytest.raises(at.StructuralError, match="do not partition"):
        at.fuse(fano_scheme,
                at.FusionGrouping(((0,), (1,), (2,), (3,), (), (4, 5))))


def _set_partitions(items):
    """Every partition of ``items`` into blocks, each once."""
    if not items:
        yield []
        return
    for rest in _set_partitions(items[1:]):
        for i in range(len(rest)):
            yield rest[:i] + [[items[0]] + rest[i]] + rest[i + 1:]
        yield [[items[0]]] + rest


def _coarse_partition(scheme, grouping):
    """The unions of the fine classes per coarse label, as a partition."""
    coarse = [0] * (scheme.m + 1)
    for alpha, group in enumerate(grouping.groups):
        for i in group:
            coarse[i] = alpha
    return at.TriplePartition.from_labels(scheme.ground,
                                          relabel(scheme.labels, coarse))


@pytest.mark.parametrize("q, groupings, fusions", [(3, 5, 3), (4, 52, 10)])
def test_fuse_decides_as_the_full_check_does(asl2_schemes, q, groupings,
                                             fusions):
    # every grouping of the nontrivial labels: fuse reads the fine action
    # and tensor, the reference counts condition 2 at every cell of the
    # coarse cube
    scheme = asl2_schemes[q][0]
    seen = found = 0
    for blocks in _set_partitions(list(scheme.nontrivial_labels)):
        grouping = at.FusionGrouping(
            ((0,), (1,), (2,), (3,)) + tuple(map(tuple, blocks)))
        fused = at.fuse(scheme, grouping)
        full = at.verify_ast(_coarse_partition(scheme, grouping),
                             full_check=True)
        seen += 1
        if isinstance(full, at.ViolationReport):
            assert isinstance(fused, at.ViolationReport), blocks
            assert fused.condition == full.condition, blocks
            continue
        found += 1
        assert fused == full        # the partition and the valencies
        assert fused.action == full.action
        assert [tuple(counts.items()) for counts in fused.tensor.counts] == \
            [tuple(counts.items()) for counts in full.tensor.counts]
    assert (seen, found) == (groupings, fusions)


def _asl2_7_non_fusion(scheme):
    """The grouping {4, 6, 8} plus singletons of the asl2:7 scheme (nu =
    49): it keeps condition 3 and breaks condition 2."""
    rest = tuple((i,) for i in scheme.nontrivial_labels
                 if i not in (4, 6, 8))
    return at.FusionGrouping(((0,), (1,), (2,), (3,), (4, 6, 8)) + rest)


@pytest.fixture(scope="module")
def asl2_7():
    return at.ast_from_group(at.asl2_group(7))


def test_fuse_refuses_a_non_fusion_past_nu_30(asl2_7):
    grouping = _asl2_7_non_fusion(asl2_7)
    report = at.fuse(asl2_7, grouping)
    assert report == at.verify_ast(_coarse_partition(asl2_7, grouping),
                                   full_check=True)
    assert report.message == ("count for pattern (4, 4, 6) at (0, 1, 4) in "
                              "relation 4 is 0, expected 1")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: past nu = 30 verify_ast counts condition 2 at one "
    "cell per class and compares none.  Checking every cell costs about "
    "1 s per params on the orbit workload's nu = 64 file, so it waits for "
    "the group certificate and the benchmark refresh (items 16 and 2)."))
def test_verify_refuses_the_asl2_7_non_fusion(asl2_7):
    partition = _coarse_partition(asl2_7, _asl2_7_non_fusion(asl2_7))
    assert isinstance(at.verify_ast(partition), at.ViolationReport)


def test_asl2_to_agl2_fission(asl2_schemes):
    for q in (2, 3):
        fine = asl2_schemes[q][0]
        coarse = at.ast_from_group(at.agl2_group(q))
        grouping = at.is_fission_of(fine, coarse)
        assert grouping is not None
        fused = at.fuse(fine, grouping)
        assert isinstance(fused, at.AstScheme)
        assert fused.serialized() == coarse.serialized()


def test_is_fission_of_identity(fano_scheme):
    grouping = at.is_fission_of(fano_scheme, fano_scheme)
    assert grouping == at.FusionGrouping.identity(fano_scheme.m)


def test_is_fission_of_crossing_classes():
    # the single-nontrivial scheme is NOT a fission of the two-class one
    ground = at.GroundSet(4)
    census = enumerate_asts(EnumerationTask(ground=ground))
    assert len(census) == 2
    single = next(s for s in census if s.m == 4)
    double = next(s for s in census if s.m == 5)
    assert at.is_fission_of(single, double) is None
    grouping = at.is_fission_of(double, single)
    assert grouping == at.FusionGrouping.all_nontrivial_into_one(double.m)


def test_is_fission_of_ground_mismatch(three_point, fano_scheme):
    with pytest.raises(at.PreconditionError):
        at.is_fission_of(three_point, fano_scheme)


def test_fusion_theorem_asl2_to_agl2(asl2_schemes):
    for q in (2, 3):
        fine = asl2_schemes[q][0]
        coarse = at.ast_from_group(at.agl2_group(q))
        grouping = at.is_fission_of(fine, coarse)
        report = at.verify_fusion_theorem(fine, grouping)
        assert report.passed
        assert report.checked_cells == (coarse.m + 1) ** 4


def test_fusion_theorem_all_into_one(constructed_schemes):
    for name, scheme in constructed_schemes.items():
        grouping = at.FusionGrouping.all_nontrivial_into_one(scheme.m)
        report = at.verify_fusion_theorem(scheme, grouping)
        assert report.passed, name


def test_fusion_theorem_identity_grouping(fano_scheme):
    report = at.verify_fusion_theorem(
        fano_scheme, at.FusionGrouping.identity(fano_scheme.m))
    assert report.passed
    assert report.fused.tensor == fano_scheme.tensor


def test_fusion_theorem_counts_the_coarse_constants_afresh(asl2_schemes):
    # fuse carries a wrong fine tensor into the fused scheme; the theorem
    # check counts the coarse constants on the fused cube and sees it
    scheme = asl2_schemes[3][0]
    counts = [dict(c) for c in scheme.tensor.counts]
    counts[4][4, 4, 4] = counts[4].get((4, 4, 4), 0) + 1
    wrong = at.AstScheme(scheme.partition, scheme.valencies)
    wrong.__dict__["action"] = scheme.action
    wrong.__dict__["tensor"] = at.IntersectionTensor(
        tuple(map(MappingProxyType, counts)))
    report = at.verify_fusion_theorem(
        wrong, at.FusionGrouping.identity(scheme.m))
    assert not report.passed
    assert [coarse for coarse, _sums, _direct in report.mismatches] == \
        [(4, 4, 4, 4)]


def test_fused_adjacency_is_sum_of_fine(asl2_schemes):
    # coarse adjacency hypermatrices are entrywise sums over the grouping
    fine = asl2_schemes[3][0]
    coarse = at.ast_from_group(at.agl2_group(3))
    grouping = at.is_fission_of(fine, coarse)
    for alpha in range(coarse.m + 1):
        total = at.CubicHypermatrix(fine.nu, (0,) * fine.nu**3)
        for i in grouping.fine_of(alpha):
            total = total + at.adjacency(fine, i)
        assert total == at.adjacency(coarse, alpha)


def test_fused_product_expansion(asl2_schemes):
    # the coarse product of nontrivial coarse classes expands through the
    # fine tensor triple sums
    fine = asl2_schemes[3][0]
    coarse = at.ast_from_group(at.agl2_group(3))
    grouping = at.is_fission_of(fine, coarse)
    fine_t = fine.tensor
    coarse_t = coarse.tensor
    for alpha in range(4, coarse.m + 1):
        for beta in range(4, coarse.m + 1):
            for gamma in range(4, coarse.m + 1):
                lhs = at.ternary_product(at.adjacency(coarse, alpha),
                                         at.adjacency(coarse, beta),
                                         at.adjacency(coarse, gamma))
                acc = at.CubicHypermatrix(fine.nu, (0,) * fine.nu**3)
                for delta in range(coarse.m + 1):
                    p = coarse_t.get(alpha, beta, gamma, delta)
                    if p:
                        for l in grouping.fine_of(delta):
                            acc = acc + at.adjacency(fine, l).scaled(p)
                            total = sum(
                                fine_t.get(i, j, k, l)
                                for i in grouping.fine_of(alpha)
                                for j in grouping.fine_of(beta)
                                for k in grouping.fine_of(gamma))
                            assert total == p
                assert lhs == acc


def test_two_graph_fusion_negative_witness(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    j_label = labeling.point_labels[2]
    assert is_symmetric_relation(scheme.partition.classes[j_label])
    result = at.two_graph_fusion(scheme, [j_label])
    assert result.two_graph is None
    quad = result.failing_quadruple
    assert quad is not None
    members = sum(1 for idx in quad if idx == j_label)
    assert members % 2 == 1
    assert scheme.tensor.get(*quad) != 0


def test_two_graph_fusion_negative_witness_q4(asl2_schemes):
    scheme, labeling = asl2_schemes[4]
    j_label = labeling.line_labels[1]
    result = at.two_graph_fusion(scheme, [j_label])
    assert result.two_graph is None and result.failing_quadruple is not None


def test_two_graph_fusion_of_two_asl2_line_classes(asl2_schemes):
    # In ASL(2,4) any two of the three line-type classes fuse into a regular
    # two-graph on 16 points; one line class alone, or all three, leave an
    # odd-pattern intersection number nonzero.
    from naive import naive_verify_two_graph
    scheme, labeling = asl2_schemes[4]
    lines = labeling.line_labels
    failing = (labeling.point_labels[2], lines[1], lines[3], lines[2])
    for j_labels in combinations(sorted(lines.values()), 2):
        tg = at.two_graph_fusion(scheme, j_labels).two_graph
        assert (tg.v, len(tg.triples)) == (16, 320)
        subsets = [t for label in j_labels
                   for t in scheme.partition.classes[label]
                   if t[0] < t[1] < t[2]]
        assert naive_verify_two_graph(16, subsets) == tg
        assert at.verify_ast(at.ast_from_two_graph(tg).partition).m == 5
    for j_labels in [(lines[1],), (lines[2],), (lines[3],),
                     tuple(lines.values())]:
        assert at.two_graph_fusion(scheme, j_labels) == \
            at.TwoGraphFusionResult(two_graph=None, failing_quadruple=failing)


def test_two_graph_fusion_preconditions(fano_scheme, asl2_schemes):
    with pytest.raises(at.PreconditionError):
        at.two_graph_fusion(fano_scheme, [4])   # only two nontrivial classes
    scheme, labeling = asl2_schemes[3]
    with pytest.raises(at.PreconditionError):
        at.two_graph_fusion(scheme, [])
    with pytest.raises(at.PreconditionError):
        at.two_graph_fusion(scheme, [labeling.line_labels[1]])  # not symmetric
    with pytest.raises(at.PreconditionError):
        at.two_graph_fusion(scheme, [1])


@pytest.mark.parametrize("label", [4.0, "4"])
def test_symmetric_class_constructions_refuse_non_int_labels(asl2_schemes,
                                                             label):
    scheme, _ = asl2_schemes[4]
    with pytest.raises(at.PreconditionError, match="label must be an int"):
        at.two_graph_fusion(scheme, [label])
    with pytest.raises(at.PreconditionError, match="label must be an int"):
        at.design_from_symmetric_relation(scheme, label)


def test_check_label_names_an_int_out_of_range(asl2_schemes):
    scheme, _ = asl2_schemes[4]
    with pytest.raises(at.PreconditionError, match="label 9 outside 0..8"):
        scheme.check_label(9)


def test_two_graph_fusion_search_is_empty_at_desk_scale(asl2_schemes):
    # Exhaustive search over every scheme enumerable within the guards
    # (full censuses to nu = 6, circulant censuses to nu = 8, the
    # translation-invariant census at nu = 8): no scheme has more than two
    # nontrivial classes together with a symmetric member, so no positive
    # instance of the odd-vanishing fusion exists there.  The
    # negative-witness tests above exercise the hypothesis check instead.
    from astriples.enumeration import enumerate_circulant
    pools = [enumerate_asts(EnumerationTask(ground=at.GroundSet(nu)))
             for nu in (3, 4, 5, 6)]
    pools += [enumerate_circulant(7), enumerate_circulant(8)]
    field = at.make_field(2, 3)
    translations = at.close([tuple(field.add(x, t) for x in range(8))
                             for t in (1, 2, 4)])
    pools.append(enumerate_asts(EnumerationTask(ground=at.GroundSet(8),
                                                invariance=translations)))
    qualifying = []
    for schemes in pools:
        for scheme in schemes:
            if scheme.m - 3 <= 2:
                continue
            symmetric = [i for i in scheme.nontrivial_labels
                         if is_symmetric_relation(scheme.partition.classes[i])]
            if symmetric:
                qualifying.append((scheme.nu, symmetric))
    assert qualifying == []


def test_vanishing_entry_tables():
    assert len(VANISHING_STRICT) == 8 and len(VANISHING_LENIENT) == 8
    assert VANISHING_STRICT[:7] == VANISHING_LENIENT[:7]
    assert VANISHING_STRICT[7] == (5, 5, 4, 4)
    assert VANISHING_LENIENT[7] == (5, 5, 4, 5)


def test_ast_from_group_builds_one_pair_transversal(monkeypatch):
    # is_two_transitive and orbits_on_triples share the group's cached
    # pair transversal
    from astriples import permgroup
    calls = []
    real = permgroup._pair_transversal
    monkeypatch.setattr(permgroup, "_pair_transversal",
                        lambda group: calls.append(group) or real(group))
    for group in (at.asl2_group(3), at.agl1_group(7), at.psl2_group(5)):
        calls.clear()
        at.ast_from_group(group)
        assert calls == [group]


def _random_grouping(rng, m):
    """A random set partition of the nontrivial labels 4..m."""
    blocks = []
    for label in range(4, m + 1):
        k = rng.randrange(len(blocks) + 1)
        if k == len(blocks):
            blocks.append([])
        blocks[k].append(label)
    return at.FusionGrouping(((0,), (1,), (2,), (3,)) + tuple(map(tuple, blocks)))


def _naive_fission(fine, coarse):
    """The grouping putting each fine class into the one coarse class that
    contains it, or None when some fine class lies in none."""
    groups = [[] for _ in coarse]
    for i, rel in enumerate(fine):
        hits = [alpha for alpha, c in enumerate(coarse) if rel <= c]
        if len(hits) != 1:
            return None
        groups[hits[0]].append(i)
    return at.FusionGrouping(tuple(map(tuple, groups)))


def test_fuse_fission_and_tensor_match_naive_on_random_groupings(
        three_point, fano_scheme, asl2_schemes):
    # differential fuzz: fuse, is_fission_of and the tensor against the
    # brute-force reference, on seeded random groupings
    from naive import naive_full_tensor, naive_is_ast
    rng = random.Random(4401)
    schemes = {"three_point": three_point, "fano": fano_scheme,
               "asl2:3": asl2_schemes[3][0],
               "agl1:7": at.ast_from_group(at.agl1_group(7))}
    verdicts = set()
    for name, scheme in schemes.items():
        nu = scheme.nu
        fine = naive_classes(scheme)
        want = naive_full_tensor(nu, fine)
        assert {e[:4]: e[4] for e in scheme.tensor.nonzero()} == want
        for _ in range(6):
            grouping = _random_grouping(rng, scheme.m)
            coarse = [frozenset().union(*(fine[i] for i in group))
                      for group in grouping.groups]
            ok, _reason = naive_is_ast(nu, coarse)
            fused = at.fuse(scheme, grouping)
            assert isinstance(fused, at.AstScheme) == ok, (name, grouping)
            verdicts.add(ok)
            if not ok:
                continue
            assert naive_classes(fused) == coarse
            want = naive_full_tensor(nu, coarse)
            assert {e[:4]: e[4]
                    for e in fused.tensor.nonzero()} == want
            assert at.is_fission_of(scheme, fused) == grouping == \
                _naive_fission(fine, coarse)
            assert at.is_fission_of(fused, scheme) == \
                _naive_fission(coarse, fine)
    assert verdicts == {True, False}
