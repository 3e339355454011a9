import json
import random
import re
from array import array
from collections import Counter
from itertools import permutations, product

import pytest

import astriples as at
from astriples import core
from astriples.core import COORD_PERMS, cube_typecode, trivial_cube

from conftest import THREE_POINT_RELATIONS, verified
from naive import (is_symmetric_relation, naive_classes, naive_full_tensor,
                   naive_is_ast, naive_label_map, naive_trivial_relations,
                   naive_valencies, permute_relation)


def test_ground_set_requires_three_points():
    with pytest.raises(at.PreconditionError):
        at.GroundSet(2)
    assert at.GroundSet(3).nu == 3


def _trivial_classes(nu):
    # R_0..R_3 as the library lays them out in the trivial cube
    return at.TriplePartition.from_labels(at.GroundSet(nu),
                                          trivial_cube(nu, 4)).classes[:4]


def test_trivial_relations_sizes():
    for nu in (3, 4, 7):
        r = _trivial_classes(nu)
        assert [len(rel) for rel in r] == [nu, nu * (nu - 1), nu * (nu - 1),
                                           nu * (nu - 1)]


def test_trivial_relations_match_reference_three_point_lists():
    rels = _trivial_classes(3)
    for i in range(4):
        assert rels[i] == tuple(sorted(THREE_POINT_RELATIONS[i]))
    assert rels[0] == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_trivial_relations_match_naive_oracle():
    for nu in (3, 4, 5):
        rels = _trivial_classes(nu)
        for rel, want in zip(rels, naive_trivial_relations(nu)):
            assert frozenset(rel) == frozenset(want)


def test_verify_ast_accepts_reference_three_point_partition(three_point):
    assert three_point.m == 4
    assert list(three_point.partition.classes) == \
        [tuple(sorted(r)) for r in THREE_POINT_RELATIONS]


def test_verify_ast_structural_errors():
    ground = at.GroundSet(3)
    trivial = naive_trivial_relations(3)
    # missing the nontrivial triples entirely
    with pytest.raises(at.StructuralError):
        at.verify_ast(at.TriplePartition(ground, tuple(trivial)))
    # overlap between classes
    r4 = THREE_POINT_RELATIONS[4]
    overlap = ((0, 1, 2), (0, 0, 0))
    with pytest.raises(at.StructuralError):
        at.verify_ast(at.TriplePartition(
            ground, tuple(trivial) + (r4, overlap)))


def test_verify_ast_reports_moved_triple(three_point):
    # move one triple from the nontrivial class into R_1: still a partition,
    # but the first four classes are no longer the trivial relations
    ground = three_point.ground
    r1 = set(THREE_POINT_RELATIONS[1]) | {(0, 1, 2)}
    r4 = set(THREE_POINT_RELATIONS[4]) - {(0, 1, 2)}
    classes = (THREE_POINT_RELATIONS[0], tuple(r1), THREE_POINT_RELATIONS[2],
               THREE_POINT_RELATIONS[3], tuple(r4))
    report = at.verify_ast(at.TriplePartition(ground, classes))
    assert isinstance(report, at.ViolationReport)
    assert report.condition in (1, 4)
    assert report.witness


def test_verify_ast_condition_one_witness():
    # valid trivial classes, nontrivial split breaking valency constancy
    ground = at.GroundSet(4)
    trivial = naive_trivial_relations(4)
    distinct = [t for t in product(range(4), repeat=3) if len(set(t)) == 3]
    part_a = tuple(t for t in distinct if t[2] in (t[0] + 1, t[0] - 3))
    part_b = tuple(t for t in distinct if t not in set(part_a))
    classes = tuple(trivial) + (part_a, part_b)
    report = at.verify_ast(at.TriplePartition(ground, classes))
    assert isinstance(report, at.ViolationReport)
    assert report.condition in (1, 2, 3)


def _two_fano_planes_partition():
    # the union of two block-disjoint Fano planes is a 2-(7,3,2) design;
    # its two-class split keeps the valencies constant and the coordinate
    # closure (both classes symmetric) but breaks the regularity counts
    from itertools import permutations as point_perms
    from conftest import fano_blocks
    f1 = set(fano_blocks())
    f2 = next({tuple(sorted(p[x] for x in b)) for b in f1}
              for p in point_perms(range(7))
              if not f1 & {tuple(sorted(p[x] for x in b)) for b in f1})
    blocks = sorted(f1 | f2)
    assert at.verify_design(7, blocks).lam == 2
    ground = at.GroundSet(7)
    covered = tuple(sorted(o for b in blocks for o in permutations(b)))
    covered_set = set(covered)
    rest = tuple(t for t in product(range(7), repeat=3)
                 if len(set(t)) == 3 and t not in covered_set)
    classes = tuple(naive_trivial_relations(7)) + (covered, rest)
    return at.TriplePartition(ground, classes)


def test_verify_ast_exact_condition_two_failure():
    # the two-plane split isolates the condition-2 report path; its
    # representative cells agree, and at nu = 7 <= FULL_CHECK_LIMIT no
    # value of full_check skips the check of every cell
    for full_check in (False, True):
        report = at.verify_ast(_two_fano_planes_partition(), full_check)
        assert isinstance(report, at.ViolationReport)
        assert report.condition == 2
        assert report.witness


def test_trivial_group_orbit_partition_rejected_as_decided_by_oracle():
    # orbits of the trivial group on 4 points: singleton classes; the naive
    # checker and the library must agree on the verdict
    nu = 4
    classes = [{t} for t in product(range(nu), repeat=3)]
    ok, reason = naive_is_ast(nu, classes)
    assert not ok and "trivial" in reason
    ground = at.GroundSet(nu)
    partition = at.TriplePartition(
        ground, [(t,) for t in product(range(nu), repeat=3)])
    report = at.verify_ast(partition)
    assert isinstance(report, at.ViolationReport)
    assert report.condition == 4


def test_label_of_refuses_triples_outside_the_cube(asl2_schemes):
    scheme, _ = asl2_schemes[3]     # nu = 9
    assert scheme.label_of((0, 1, 0)) == 2
    assert scheme.label_of((8, 8, 8)) == 0
    for bad in ((0, 0, 9), (0, 0, -1), (0, 0, 729), (0, 0), (0, 0, 1.0),
                [0, 1, 0]):
        with pytest.raises(at.PreconditionError, match=re.escape(repr(bad))):
            scheme.label_of(bad)
        with pytest.raises(at.PreconditionError, match=re.escape(repr(bad))):
            scheme.ground.index(bad)
    assert scheme.ground.triple(728) == (8, 8, 8)
    for bad in (729, -1, 1.0, True):
        with pytest.raises(at.PreconditionError, match=re.escape(repr(bad))):
            scheme.ground.triple(bad)


def test_valencies_three_point(three_point):
    assert three_point.valencies.third(4) == 1
    assert three_point.valencies.rows[:4] == (
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_valencies_third_of_r3_always_zero(three_point, fano_scheme):
    for scheme in (three_point, fano_scheme):
        assert scheme.valencies.third(3) == 0


def test_asl2_3_line_valencies(asl2_schemes):
    scheme, labeling = asl2_schemes[3]
    for lab in labeling.line_labels.values():
        assert scheme.valencies.third(lab) == 3


def test_intersection_numbers_three_point(three_point):
    tensor = three_point.tensor
    assert tensor.get(4, 4, 4, 4) == 0
    assert all(v == 0 for v in tensor.slice(4, 4, 4))


def test_intersection_sum_identity(constructed_schemes):
    # summing p over (i, j, k) counts each completion point once per class
    for name, scheme in constructed_schemes.items():
        tensor = scheme.tensor
        c = scheme.m + 1
        for l in range(c):
            total = sum(tensor.get(i, j, k, l)
                        for i in range(c) for j in range(c) for k in range(c))
            assert total == scheme.nu, (name, l)


def test_fano_tensor_matches_naive_oracle(fano_scheme):
    classes = naive_classes(fano_scheme)
    want = naive_full_tensor(7, classes)
    tensor = at.verify_ast(fano_scheme.partition, full_check=True).tensor
    c = fano_scheme.m + 1
    for i in range(c):
        for j in range(c):
            for k in range(c):
                for l in range(c):
                    assert tensor.get(i, j, k, l) == want.get((i, j, k, l), 0)


def test_permute_relation_trivial_swap(three_point):
    r1 = three_point.partition.classes[1]
    r3 = three_point.partition.classes[3]
    assert permute_relation(r1, (2, 1, 0)) == r3
    assert permute_relation(r1, (0, 1, 2)) == r1


def test_permute_relation_fixes_all_distinct_class(three_point):
    r4 = three_point.partition.classes[4]
    for sigma in permutations(range(3)):
        assert permute_relation(r4, sigma) == r4


def test_permute_relation_composition():
    rng = random.Random(7)
    rel = tuple((rng.randrange(4), rng.randrange(4), rng.randrange(4))
                for _ in range(10))
    for s1 in permutations(range(3)):
        for s2 in permutations(range(3)):
            combined = tuple(s1[s2[i]] for i in range(3))
            step = permute_relation(permute_relation(rel, s1), s2)
            assert step == permute_relation(rel, combined)


def test_permute_relation_rejects_bad_sigma(three_point):
    with pytest.raises(at.PreconditionError):
        permute_relation(three_point.partition.classes[1], (0, 0, 1))


def test_symmetry_predicates(three_point, fano_scheme):
    assert is_symmetric_relation(three_point.partition.classes[4])
    assert not is_symmetric_relation(three_point.partition.classes[1])
    assert at.is_symmetric_ast(three_point)
    assert at.is_symmetric_ast(fano_scheme)
    assert is_symmetric_relation(fano_scheme.partition.classes[4])
    assert is_symmetric_relation(fano_scheme.partition.classes[5])


def test_coordinate_class_action_is_an_action(three_point, fano_scheme, asl2_schemes):
    for scheme in (three_point, fano_scheme, asl2_schemes[3][0]):
        action = dict(scheme.action)
        ident = action[(0, 1, 2)]
        assert ident == tuple(range(scheme.m + 1))
        for s1 in COORD_PERMS:
            for s2 in COORD_PERMS:
                combined = tuple(s1[s2[i]] for i in range(3))
                composed = tuple(action[s2][action[s1][i]]
                                 for i in range(scheme.m + 1))
                assert composed == action[combined]


def test_condition_three_closure_on_labels(three_point):
    action = dict(three_point.action)
    swap_first_last = action[(2, 1, 0)]
    assert swap_first_last[1] == 3 and swap_first_last[3] == 1
    assert swap_first_last[4] == 4


def test_partition_property(constructed_schemes):
    for name, scheme in constructed_schemes.items():
        assert sum(len(rel) for rel in scheme.partition.classes) == \
            scheme.nu**3, name


def test_valency_sum_identity(constructed_schemes):
    # each completion point of a distinct pair lies in exactly one class
    for name, scheme in constructed_schemes.items():
        table = scheme.valencies
        c = scheme.m + 1
        for slot in range(3):
            assert sum(table.rows[i][slot] for i in range(c)) == scheme.nu, \
                (name, slot)


def test_json_round_trip(three_point, fano_scheme):
    for scheme in (three_point, fano_scheme):
        text = at.scheme_to_json(scheme)
        partition = at.partition_from_json(text)
        again = verified(partition)
        assert again.serialized() == scheme.serialized()
        assert at.scheme_to_json(again) == text


def test_json_chunks_hold_at_most_one_slab(constructed_schemes):
    # the writer yields one slab of one class at a time: at most nu^2
    # triples of text, however large a class is
    scheme = constructed_schemes["agl2_3"]
    chunks = list(core.scheme_json_chunks(scheme))
    relations = [list(map(list, rel)) for rel in scheme.partition.classes]
    assert "".join(chunks) == json.dumps(
        {"nu": scheme.nu, "relations": relations}) + "\n"
    assert max(map(len, chunks)) <= scheme.nu**2 * len(", [8, 8, 8]") == 891


def test_json_rejects_malformed():
    with pytest.raises(at.StructuralError):
        at.partition_from_json("not json at all {")
    with pytest.raises(at.StructuralError):
        at.partition_from_json('{"nu": 3}')
    with pytest.raises(at.StructuralError):
        at.partition_from_json('{"nu": 3, "relations": [[[0, 1]]]}')


def _report_meets_the_definition(nu, classes, report):
    # the verdict and witness of a failed verification, checked against
    # the classes as triple sets
    if report.condition == 4:
        (i,), (t,) = report.relations, report.witness
        trivial = naive_trivial_relations(nu)
        assert i == next(k for k in range(4) if classes[k] != trivial[k])
        assert t == min(classes[i] ^ trivial[i])
    elif report.condition == 1:
        (i,), (p1, c1, p2, c2) = report.relations, report.witness
        counts = {(x, y): sum((x, y, z) in classes[i] for z in range(nu))
                  for x in range(nu) for y in range(nu) if x != y}
        assert (counts[p1], counts[p2]) == (c1, c2) and c1 != c2
        assert p1 == (0, 1) and all(counts[p] == c1 for p in counts if p < p2)
        assert all(sum((*p1, z) in c for z in range(nu))
                   == sum((*p2, z) in c for z in range(nu))
                   for c in classes[:i])
    elif report.condition == 3:
        # the least class without an image under the first transposition
        # that fails
        (i,), (sigma,) = report.relations, report.witness
        image_of = {s: [frozenset(tuple(t[k] for k in s) for t in c)
                        for c in classes] for s in ((0, 2, 1), (1, 0, 2))}
        frozen = set(map(frozenset, classes))
        assert image_of[sigma][i] not in frozen
        assert all(image in frozen for image in image_of[sigma][:i])
        if sigma == (1, 0, 2):
            assert all(image in frozen for image in image_of[(0, 2, 1)])


def test_verify_ast_agrees_with_naive_checker_on_random_partitions():
    # differential fuzz: random colorings of the all-distinct triples,
    # verdicts compared against the independent brute-force checker
    # (condition numbering may differ; validity not) and each failure's
    # witness against the definition.  Byte cubes on nu = 3, 4 and 5 with
    # up to three classes; on nu = 5 every pair's fiber gets the same
    # colours in a random order, so condition 1 holds and condition 3 is
    # reached.  Two-byte cubes on nu = 8 with more than 255 classes: a
    # scheme has at most nu + 2 classes, so these fail condition 4 or 1.
    # Some rounds move cells into or out of the trivial classes.
    rng = random.Random(60901)
    seen = set()
    for nu, typecode, (low, high), rounds in ((3, "B", (1, 3), 200),
                                              (4, "B", (1, 3), 120),
                                              (5, "B", (1, 3), 100),
                                              (8, "H", (252, 336), 25)):
        ground = at.GroundSet(nu)
        trivial = trivial_cube(nu, 4)
        distinct = [idx for idx, label in enumerate(trivial) if label == 4]
        for _ in range(rounds):
            n_classes = rng.randrange(low, high + 1)
            if nu == 5:
                fiber = list(range(n_classes)) + [0] * (3 - n_classes)
                colors = []
                for _pair in range(len(distinct) // 3):
                    colors += rng.sample(fiber, 3)
            elif typecode == "H":
                colors = list(range(n_classes)) + [
                    rng.randrange(n_classes)
                    for _ in range(len(distinct) - n_classes)]
                rng.shuffle(colors)
            else:
                colors = [rng.randrange(n_classes) for _ in distinct]
            labels = list(trivial)
            for idx, color in zip(distinct, colors):
                labels[idx] = 4 + color
            for _ in range(rng.choice((0, 0, 0, 1, 2))):
                labels[rng.randrange(nu**3)] = rng.randrange(4 + n_classes)
            rename = {label: k for k, label in enumerate(sorted(set(labels)))}
            if len(rename) < 5:
                continue        # too few classes for verify_ast
            labels = [rename[label] for label in labels]
            partition = at.TriplePartition.from_labels(ground, labels)
            assert partition.labels.typecode == cube_typecode(len(rename))
            classes = [set() for _ in rename]
            for idx, label in enumerate(labels):
                classes[label].add(ground.triple(idx))
            verdict = at.verify_ast(partition)
            ok, _reason = naive_is_ast(nu, classes)
            assert isinstance(verdict, at.AstScheme) == ok
            if not ok:
                _report_meets_the_definition(nu, classes, verdict)
            seen.add((partition.labels.typecode,
                      0 if ok else verdict.condition))
        # the single-class coloring is a scheme
        if typecode == "B":
            single = tuple(naive_trivial_relations(nu)) + (
                [ground.triple(idx) for idx in distinct],)
            assert isinstance(
                at.verify_ast(at.TriplePartition(ground, single)),
                at.AstScheme)
    assert seen >= {("B", 0), ("B", 1), ("B", 3), ("B", 4), ("H", 1),
                    ("H", 4)}


def test_full_check_default_matches_explicit(three_point):
    assert at.verify_ast(three_point.partition, full_check=True).tensor == \
        three_point.tensor


def _flat_tensor(scheme):
    # condition 2 counted at every cell, in flat order
    sigs, bad = core._signatures(scheme.labels, scheme.nu, scheme.m + 1,
                                 range(scheme.nu**3))
    assert bad is None
    return [list(Counter(sig).items()) for sig in sigs]


def test_condition_two_reads_one_cell_per_coordinate_orbit(
        monkeypatch, constructed_schemes):
    # the full check of a scheme never falls back to the flat scan, and
    # gives the flat scan's tensor, entry for entry and in the same order
    schemes = dict(constructed_schemes)
    for spec in ("agl1:27", "agl1:29"):
        schemes[spec] = at.ast_from_group(at.group_from_spec(spec))
    assert {"asl2_2", "asl2_3", "asl2_4", "asl2_5", "agl2_3"} <= set(schemes)
    scans, signatures = [], core._signatures
    monkeypatch.setattr(core, "_signatures", lambda labels, nu, n, cells: (
        scans.append(cells) or signatures(labels, nu, n, cells)))
    for name, scheme in schemes.items():
        want = _flat_tensor(scheme)
        del scans[:]
        fresh = at.verify_ast(at.TriplePartition.from_labels(scheme.ground,
                                                             scheme.labels))
        full = at.verify_ast(fresh.partition, full_check=True).tensor
        assert scans and not any(isinstance(cells, range)
                                 for cells in scans), name
        for tensor in (fresh.tensor, full):
            assert [list(counts.items()) for counts in tensor.counts] == \
                want, name


def _action_closed_fusions(scheme, rng, rounds):
    # random unions of the coordinate-action orbits on the nontrivial
    # classes: conditions 1, 3 and 4 hold, condition 2 may not
    orbits = []
    for i in scheme.nontrivial_labels:
        if all(i not in orbit for orbit in orbits):
            orbits.append({image[i] for image in scheme.action.values()})
    for _ in range(rounds):
        tags = [rng.randrange(len(orbits)) for _ in orbits]
        table = [0, 1, 2, 3] + [None] * (scheme.m - 3)
        for label, tag in enumerate(sorted(set(tags), key=tags.index), 4):
            for orbit in (o for o, t in zip(orbits, tags) if t == tag):
                for i in orbit:
                    table[i] = label
        yield at.TriplePartition.from_labels(
            scheme.ground, core.relabel(scheme.labels, table))


def test_condition_two_failures_match_the_flat_scan(monkeypatch):
    # a partition the sorted cells refuse is scanned cell by cell, so its
    # report is the flat scan's, field for field
    rng = random.Random(1401)
    partitions = [_two_fano_planes_partition()]
    for spec in ("agl1:7", "asl2:4", "agl1:9"):
        partitions += _action_closed_fusions(
            at.ast_from_group(at.group_from_spec(spec)), rng, 12)
    verdicts = list(map(at.verify_ast, partitions))
    monkeypatch.setattr(core, "_orbit_signatures", lambda *args: None)
    flat = list(map(at.verify_ast, partitions))
    conditions = Counter(getattr(v, "condition", 0) for v in verdicts)
    assert set(conditions) == {0, 2} and min(conditions.values()) >= 5
    for verdict, want in zip(verdicts, flat):
        assert type(verdict) is type(want)
        if isinstance(want, at.ViolationReport):
            assert verdict == want
            assert (verdict.condition, verdict.relations, verdict.witness,
                    verdict.message) == (want.condition, want.relations,
                                         want.witness, want.message)
        else:
            assert verdict.tensor.counts == want.tensor.counts


def test_a_carried_signature_that_differs_is_refused(asl2_schemes):
    # a class's signature carried by a coordinate map must be its image's;
    # a wrong map for (1, 0, 2) sends the check to the flat scan
    scheme, _ = asl2_schemes[3]
    n = scheme.m + 1
    action = dict(scheme.action)
    assert core._orbit_signatures(scheme.labels, scheme.nu, n, action)
    action[(1, 0, 2)] = tuple(range(n))
    assert core._orbit_signatures(scheme.labels, scheme.nu, n, action) \
        is None


def test_partition_stores_only_the_label_cube(three_point):
    ground = at.GroundSet(3)
    partition = at.TriplePartition(ground, THREE_POINT_RELATIONS)
    assert set(vars(partition)) == {"ground", "labels"}
    assert partition.labels.typecode == "B"
    assert list(partition.labels) == [
        next(i for i, rel in enumerate(THREE_POINT_RELATIONS) if t in rel)
        for t in product(range(3), repeat=3)]
    assert partition.sizes == (3, 6, 6, 6, 6) and partition.m == 4
    assert partition == three_point.partition
    assert hash(partition) == hash(three_point.partition)
    assert three_point.labels is three_point.partition.labels
    assert list(partition.classes) == \
        [tuple(sorted(rel)) for rel in THREE_POINT_RELATIONS]
    same = at.TriplePartition.from_labels(ground, list(partition.labels))
    assert same == partition


@pytest.mark.parametrize("classes, typecode",
                         [(5, "B"), (255, "B"), (256, "H"), (300, "H")])
def test_cube_typecode_rule(classes, typecode):
    # One byte a cell while the labels and the unfilled mark 0xFF fit in a
    # byte; the rule depends on the class count alone, whatever the input.
    ground = at.GroundSet(7)
    labels = [min(idx, classes - 1) for idx in range(7**3)]
    relations = [[] for _ in range(classes)]
    for idx, label in enumerate(labels):
        relations[label].append(ground.triple(idx))
    assert cube_typecode(classes) == typecode
    assert trivial_cube(7, classes - 1).typecode == typecode
    parts = [at.TriplePartition(ground, relations),
             at.TriplePartition.from_labels(ground, labels)]
    parts += [at.TriplePartition.from_labels(ground, array(code, labels))
              for code in "HI"]
    for part in parts:
        assert part.labels.typecode == typecode
        assert list(part.labels) == labels and part.m == classes - 1
        assert part.sizes == tuple(labels.count(i) for i in range(classes))
        assert part == parts[0] and hash(part) == hash(parts[0])


def test_partition_boundary_errors():
    ground = at.GroundSet(3)
    rels = [list(rel) for rel in THREE_POINT_RELATIONS]
    cases = [
        ("bad relation entry", rels + [5]),
        ("the cube has 27", rels[:4]),
        ("lies in classes 1 and 4", rels[:4] + [rels[4] + [(0, 1, 1)]]),
        ("class 5 is empty", rels + [[]]),
        ("is not a triple", rels[:4] + [[(0, 1)] + rels[4][1:]]),
        ("5 is not a triple", rels[:4] + [[5] + rels[4]]),
        ("out of range", rels[:4] + [[(0, 1, 3)] + rels[4][1:]]),
        ("lies in classes 4 and 4", rels[:4] + [rels[4] + rels[4][:1]]),
    ]
    # a non-int coordinate, alone or beside ints
    for bad in ((0, 1, True), (0, 1.0, 2), (0, 1, "2"), (0, 1, "a")):
        cases.append(("out of range", rels[:4] + [[bad] + rels[4]]))
    for message, classes in cases:
        with pytest.raises(at.StructuralError, match=message):
            at.TriplePartition(ground, classes)
    with pytest.raises(at.StructuralError, match="at most 65535"):
        at.TriplePartition(at.GroundSet(41),
                           [[t] for t in product(range(41), repeat=3)])


def test_from_labels_checks_the_cube():
    ground = at.GroundSet(3)
    with pytest.raises(at.StructuralError, match="26 labels"):
        at.TriplePartition.from_labels(ground, [0] * 26)
    with pytest.raises(at.StructuralError, match="class 1 is empty"):
        at.TriplePartition.from_labels(ground, [0] * 26 + [2])
    for label in (65535, 70000):
        with pytest.raises(at.StructuralError, match="labels must lie"):
            at.TriplePartition.from_labels(ground, [0] * 26 + [label])


def _cube(typecode, labels):
    # a label cube of the given typecode holding arbitrary labels
    return array(typecode, labels)


def test_relabel_matches_the_per_cell_map_on_both_typecodes():
    from astriples.core import relabel
    rng = random.Random(8101)
    for typecode, top, table_top in (("B", 17, 17), ("B", 255, 255),
                                     ("B", 17, 400), ("H", 17, 17),
                                     ("H", 400, 255), ("H", 400, 65535)):
        for _ in range(20):
            labels = _cube(typecode, [rng.randrange(top)
                                      for _ in range(rng.randrange(1, 300))])
            table = [rng.randrange(table_top) for _ in range(top)]
            out = relabel(labels, table)
            assert list(out) == [table[label] for label in labels]
            # a byte cube stays a byte cube while the table fits a byte
            assert out.typecode == ("B" if typecode == "B"
                                    and max(table) <= 0xFF else "H")


def test_label_map_matches_the_set_scan_and_its_witness():
    # the candidate read off the first cells and checked by relabelling
    # gives the scan's map, and after a failed check the scan's witness
    from astriples.core import label_map
    rng = random.Random(8102)
    outcomes = {True: 0, False: 0}
    for typecode, classes, top in (("B", 5, 5), ("B", 40, 254),
                                   ("H", 300, 300), ("H", 40, 1000)):
        for _ in range(40):
            size = rng.randrange(classes, 4 * classes)
            labels = list(range(classes)) + [rng.randrange(classes)
                                             for _ in range(size - classes)]
            rng.shuffle(labels)
            image_of = [rng.randrange(top) for _ in range(classes)]
            images = [image_of[label] for label in labels]
            for _ in range(rng.randrange(3)):
                images[rng.randrange(size)] = rng.randrange(top)
            for image_code in {typecode, "H"}:
                got = label_map(_cube(typecode, labels),
                                _cube(image_code, images))
                assert got == naive_label_map(labels, images)
            outcomes[isinstance(got, tuple)] += 1
    assert min(outcomes.values()) > 20


def test_class_action_matches_relation_images(constructed_schemes):
    # the cube routine behind condition 3 agrees with imaging the triples
    for name, scheme in constructed_schemes.items():
        classes = scheme.partition.classes
        index = {rel: i for i, rel in enumerate(classes)}
        action = dict(scheme.action)
        for sigma in COORD_PERMS:
            assert action[sigma] == tuple(
                index[permute_relation(rel, sigma)]
                for rel in classes), (name, sigma)
        assert at.is_symmetric_ast(scheme) == all(
            is_symmetric_relation(classes[i])
            for i in scheme.nontrivial_labels), name


def test_verify_ast_condition_three_failure():
    # (x, y, z) in class 4 iff z is the smaller of the two points left by
    # (x, y): both classes have third valency 1, but swapping the last two
    # coordinates splits class 4 between the classes
    ground = at.GroundSet(4)
    distinct = [t for t in product(range(4), repeat=3) if len(set(t)) == 3]
    low = [t for t in distinct if t[2] == min({0, 1, 2, 3} - set(t[:2]))]
    high = [t for t in distinct if t not in low]
    classes = naive_trivial_relations(4) + [low, high]
    ok, _reason = naive_is_ast(4, classes)
    assert not ok
    report = at.verify_ast(at.TriplePartition(ground, classes))
    assert isinstance(report, at.ViolationReport)
    assert (report.condition, report.relations, report.witness) == \
        (3, (4,), ((0, 2, 1),))


def _valency_schemes():
    from astriples.enumeration import (EnumerationTask, enumerate_asts,
                                       enumerate_circulant)
    schemes = {spec: at.ast_from_group(at.group_from_spec(spec))
               for spec in ("asl2:3", "asl2:4", "agl1:7", "agl1:8", "psl2:5",
                            "agl2:3")}
    for nu in range(3, 7):
        for i, scheme in enumerate(enumerate_asts(
                EnumerationTask(ground=at.GroundSet(nu)))):
            schemes[f"census-{nu}-{i}"] = scheme
    for nu in range(3, 9):
        for i, scheme in enumerate(enumerate_circulant(nu)):
            schemes[f"circulant-{nu}-{i}"] = scheme
    return schemes


def test_valencies_and_action_match_the_definition():
    # first and second valencies are read off the class action; the action
    # is composed from two transpositions
    from astriples.core import _permuted, label_map
    schemes = _valency_schemes()
    assert len(schemes) == 6 + 7 + 9
    for name, scheme in schemes.items():
        classes = naive_classes(scheme)
        assert scheme.valencies.rows == naive_valencies(scheme.nu, classes), \
            name
        assert scheme.action == {
            sigma: label_map(scheme.labels,
                             _permuted(scheme.labels, scheme.nu, sigma))
            for sigma in COORD_PERMS}, name


def test_verify_ast_condition_three_failure_under_second_transposition():
    # on nu = 5, (x, y, z) is in class 4 iff {y, z} is a pair of the
    # matching that pairs the points other than x in ascending order: the
    # classes are closed under swapping the last two coordinates but not
    # the first two
    nu = 5
    ground = at.GroundSet(nu)
    distinct = [t for t in product(range(nu), repeat=3) if len(set(t)) == 3]

    def matched(x, y, z):
        rest = sorted(set(range(nu)) - {x})
        return rest.index(y) // 2 == rest.index(z) // 2

    low = [t for t in distinct if matched(*t)]
    high = [t for t in distinct if not matched(*t)]
    classes = naive_trivial_relations(nu) + [low, high]
    ok, _reason = naive_is_ast(nu, classes)
    assert not ok
    report = at.verify_ast(at.TriplePartition(ground, classes))
    assert isinstance(report, at.ViolationReport)
    assert (report.condition, report.relations, report.witness) == \
        (3, (4,), ((1, 0, 2),))


def test_verified_schemes_are_read_not_rechecked(monkeypatch, asl2_schemes,
                                                 six_point_two_graph):
    # verify_ast makes two coordinate-permuted copies of the cube; the
    # symmetry queries and the constructions that need symmetric classes
    # then read the stored action and the cube, never the triple view
    from astriples import core
    copies, relations = [], []
    permuted = core._permuted

    def counting(*args):
        copies.append(args[2])
        return permuted(*args)

    monkeypatch.setattr(core, "_permuted", counting)
    monkeypatch.setattr(core.TriplePartition, "classes", property(
        lambda self: relations.append(self)))
    scheme, labeling = asl2_schemes[3]
    fresh = verified(at.TriplePartition.from_labels(scheme.ground,
                                                    scheme.labels))
    two_graph = verified(at.TriplePartition.from_labels(
        at.GroundSet(6), at.ast_from_two_graph(six_point_two_graph).labels))
    assert copies == [(0, 2, 1), (1, 0, 2)] * 3
    del copies[:]
    assert not at.is_symmetric_ast(fresh)
    j_label = labeling.point_labels[2]
    assert at.two_graph_fusion(fresh, [j_label]).failing_quadruple
    with pytest.raises(at.PreconditionError, match="not symmetric"):
        at.design_from_symmetric_relation(fresh, labeling.line_labels[1])
    assert at.is_symmetric_ast(two_graph)
    assert at.two_graph_from_ast(two_graph, "lenient") == six_point_two_graph
    assert copies == [] and relations == []
