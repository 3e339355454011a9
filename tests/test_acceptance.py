"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen.  All tolerances are exact; the stated runtime budgets are
asserted where the criteria give them.

Criterion 6 carries a known-impossible clause: the strict vanishing list
ends in p_554^4, which equals p_455^4 by the symmetric-permutation
identity and is provably 1 on every qualifying instance reachable within
the search guards.  That sub-check is implemented faithfully and marked
as an expected failure; see notes in the repository README.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

import astriples as at
from astriples.asl2 import _context, run_asl2_oracle
from astriples.constructions import vanishing_report
from astriples.enumeration import EnumerationTask, enumerate_asts, enumerate_circulant

from conftest import THREE_POINT_RELATIONS
from naive import is_symmetric_relation


def announce(number, label, passed=True):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict}")


def test_criterion_1_three_point_fidelity():
    start = time.monotonic()
    scheme = at.ast_from_group(at.close([(1, 0, 2), (1, 2, 0)]))
    assert list(scheme.partition.classes) == \
        [tuple(sorted(r)) for r in THREE_POINT_RELATIONS]
    assert scheme.valencies.third(4) == 1
    assert scheme.tensor.get(4, 4, 4, 4) == 0
    a4 = at.adjacency(scheme, 4)
    assert at.ternary_product(a4, a4, a4).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    announce(1, "3-point example fidelity")


def test_criterion_2_enumeration_uniqueness():
    start = time.monotonic()
    assert len(enumerate_asts(EnumerationTask(ground=at.GroundSet(3)))) == 1
    for nu in (4, 5):
        symmetric = enumerate_asts(EnumerationTask(
            ground=at.GroundSet(nu), symmetric_only=True))
        assert len(symmetric) == 1, f"symmetric census at nu={nu}"
    two_class = [s for s in enumerate_asts(EnumerationTask(
        ground=at.GroundSet(4))) if s.m - 3 == 2]
    assert len(two_class) == 1
    circulant5 = [s for s in enumerate_circulant(5) if s.m - 3 >= 2]
    assert len(circulant5) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s"
    announce(2, "enumeration uniqueness")


def test_criterion_3_asl2_oracle():
    start = time.monotonic()
    for q in (2, 3, 4, 5):
        report = run_asl2_oracle(q)
        assert report.nontrivial_relations == 2 * q - 3
        scheme, _ = _context(q)
        thirds = sorted(scheme.valencies.third(i)
                        for i in scheme.nontrivial_labels)
        assert thirds == [1] * (q - 2) + [q] * (q - 1)
        assert report.valencies.passed
        for check in report.nontrivial_products + report.trivial_products:
            assert check.passed, (q, check.name, check.counterexamples[:2])
        assert len(report.nontrivial_products) == (1 if q == 2 else 6)
        assert len(report.trivial_products) == (3 if q == 2 else 7)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.1f}s"
    announce(3, "asl2 oracle q in {2,3,4,5}")


def test_criterion_4_fusion_theorem(constructed_schemes):
    for q in (2, 3):
        fine = _context(q)[0]
        coarse = at.ast_from_group(at.agl2_group(q))
        grouping = at.is_fission_of(fine, coarse)
        assert grouping is not None
        report = at.verify_fusion_theorem(fine, grouping)
        assert report.passed, report.mismatches[:3]
    for name, scheme in constructed_schemes.items():
        grouping = at.FusionGrouping.all_nontrivial_into_one(scheme.m)
        report = at.verify_fusion_theorem(scheme, grouping)
        assert report.passed, (name, report.mismatches[:3])
        assert not report.valency_failures, name
    announce(4, "fusion theorem dual-path")


def test_criterion_5_design_pipeline(fano_design):
    scheme = at.ast_from_design(fano_design)
    assert scheme.m - 3 == 2
    assert is_symmetric_relation(scheme.partition.classes[4])
    assert is_symmetric_relation(scheme.partition.classes[5])
    assert at.is_commutative_subalgebra(scheme)
    counterexample = at.associativity_counterexample(scheme)
    assert counterexample is not None
    labels, left, mid, right = counterexample
    assert left != mid or (right is not None and mid != right)
    # the subalgebra generated by the in-block class never reaches label 5
    tensor = scheme.tensor
    support = {4}
    while True:
        grown = set(support)
        for i, j, k in product(sorted(support), repeat=3):
            grown.update(l for l, p in enumerate(tensor.slice(i, j, k)) if p)
        if grown == support:
            break
        support = grown
    assert 5 not in support
    announce(5, "design pipeline (Fano)")


def test_criterion_6_two_graph_round_trip_lenient():
    found = at.find_regular_two_graphs(6)
    assert found, "no nontrivial regular two-graph found"
    tg = found[0]
    scheme = at.ast_from_two_graph(tg)
    report = vanishing_report(scheme)
    assert all(v == 0 for v in report["lenient"].values())
    recovered = at.two_graph_from_ast(scheme, mode="lenient")
    assert recovered.triples == tg.triples
    announce(6, "two-graph round trip, lenient reading")


@pytest.mark.xfail(
    strict=True,
    reason="The strict vanishing list ends in p_554^4, which equals "
           "p_455^4 for symmetric schemes and is 1 on every regular "
           "two-graph instance on <= 8 points (p_444^4 + 3 p_455^4 = nu - 3 "
           "with p_444^4 <= 1 forces p_455^4 >= 1).  The strict reading is "
           "therefore not attainable; the lenient reading p_554^5 = 0 holds "
           "and round-trips.  See the decisions ledger.")
def test_criterion_6_two_graph_strict_reading():
    tg = at.find_regular_two_graphs(6)[0]
    scheme = at.ast_from_two_graph(tg)
    report = vanishing_report(scheme)
    strict_ok = all(v == 0 for v in report["strict"].values())
    announce(6, "two-graph round trip, strict reading", passed=strict_ok)
    assert strict_ok, f"strict entries: {report['strict']}"
    recovered = at.two_graph_from_ast(scheme, mode="strict")
    assert recovered.triples == tg.triples


def test_criterion_7_psl2_11_example(psl11_group, psl11_scheme):
    assert psl11_group.order == 660
    cycle = at.perm_from_cycles(11, [(0, 1, 2, 9, 5, 10, 7, 3, 4, 8, 6)])
    for i in psl11_scheme.nontrivial_labels:
        assert at.is_invariant(psl11_scheme, i, cycle)
    assert at.is_commutative_subalgebra(psl11_scheme)
    announce(7, "PSL(2,11) degree-11 example")


def test_criterion_8_property_suites(constructed_schemes):
    rng = random.Random(2718)
    for name, scheme in constructed_schemes.items():
        nu = scheme.nu
        # partition and valency counting identities
        assert sum(len(rel) for rel in scheme.partition.classes) == nu**3, \
            name
        for slot in range(3):
            assert sum(row[slot] for row in scheme.valencies.rows) == nu, name
        # structure-constant law on all nontrivial triples
        report = at.verify_structure_constants(scheme, scope="nontrivial")
        assert report.passed, (name, report.failures[:2])
        # weak associative law on every symmetric scheme
        if at.is_symmetric_ast(scheme):
            assert at.weak_associativity_check(scheme), name
        # dual-path product equality on random nontrivial elements
        labels = list(scheme.nontrivial_labels)
        elems = []
        for _ in range(3):
            coeffs = [0] * (scheme.m + 1)
            for lab in labels:
                coeffs[lab] = Fraction(rng.randrange(-2, 3))
            elems.append(at.AlgebraElement(scheme, tuple(coeffs)))
        assert at.product_in_coefficients(*elems).expand() == \
            at.ternary_product(*(e.expand() for e in elems)), name
    # trilinearity of the ternary product on random exact hypermatrices
    nu = 4
    rand = lambda: at.CubicHypermatrix(
        nu, tuple(Fraction(rng.randrange(-2, 3)) for _ in range(nu**3)))
    a, a2, b, c = rand(), rand(), rand(), rand()
    lhs = at.ternary_product(
        at.CubicHypermatrix(nu, tuple(3 * u - 2 * v
                                      for u, v in zip(a.entries, a2.entries))),
        b, c)
    rhs = tuple(3 * u - 2 * v
                for u, v in zip(at.ternary_product(a, b, c).entries,
                                at.ternary_product(a2, b, c).entries))
    assert lhs.entries == rhs
    announce(8, "always-on property suites")
