"""The one boundary for numbers, and the guards that refuse before they
allocate.

Every public callable that takes an order, a degree, nu, a point, a label
or a count refuses a value of the wrong type, or one out of range, with an
``AstriplesError`` at once and without allocating: the parameter goes
through ``errors.check_int`` (or ``AstScheme.check_label``) first.  Each
guard constant of the README's table, at its limit + 1, raises before
anything whose size grows with the refused input is built.
"""

import re
import time
import tracemalloc

import pytest

import astriples as at
from astriples.asl2 import (check_asl2_nontrivial_products,
                            check_asl2_trivial_products, check_asl2_valencies,
                            run_asl2_oracle)
from astriples.constructions import (FusionGrouping,
                                     design_from_symmetric_relation,
                                     two_graph_fusion)
from astriples.core import (LABEL_LIMIT, GroundSet, TriplePartition,
                            trivial_cube)
from astriples.designs import (POINT_LIMIT, TWO_GRAPH_SEARCH_LIMIT,
                               find_regular_two_graphs, two_graph_from_graph,
                               verify_design, verify_two_graph)
from astriples.enumeration import (CANONICAL_NU_LIMIT, GROUP_NU_LIMIT,
                                   TRIVIAL_GROUP_NU_LIMIT, EnumerationTask,
                                   canonical_key, enumerate_asts,
                                   enumerate_circulant)
from astriples.finfield import (FiniteField, agl1_group, agl2_group,
                                asl2_group, field_from_order, make_field,
                                point_index, psl2_group)
from astriples.hypermatrix import (DENSE_LIMIT, AlgebraElement,
                                   CubicHypermatrix, adjacency,
                                   class_product_mismatch)
from astriples.permgroup import (CYCLE_SEARCH_LIMIT, close,
                                 cycle_orbits_on_relation,
                                 find_invariant_cycle, is_invariant, is_thin,
                                 perm_from_cycles,
                                 thin_circulant_decomposition,
                                 two_point_stabilizer_orbits)

from conftest import fano_blocks, verified


class Inputs:
    """Valid companions of the numbers under test, built once."""

    def __init__(self):
        self.group = asl2_group(3)
        self.scheme = at.ast_from_group(self.group)     # nu = 9, m = 6
        self.field = make_field(2, 2)
        self.identity = tuple(range(9))
        self.cycle = tuple((x + 1) % 9 for x in range(9))
        self.blocks = fano_blocks()
        self.expected = (0,) * 7


ZERO, HUGE = (0,), (10**100,)

# (public name, parameter, call, a value it accepts, the values refused
# beyond those of :func:`_hostile`: 0 when it is out of range, 10**100 when
# a guard or the object's own range bounds the parameter)
ROWS = [
    ("GroundSet", "nu", lambda o, v: GroundSet(v), 3, ZERO),
    ("AstScheme", "check_label", lambda o, v: o.scheme.check_label(v),
     4, HUGE),
    ("FusionGrouping", "identity m",
     lambda o, v: FusionGrouping.identity(v), 6, ZERO + HUGE),
    ("FusionGrouping", "all_nontrivial_into_one m",
     lambda o, v: FusionGrouping.all_nontrivial_into_one(v), 6, ZERO + HUGE),
    ("FusionGrouping", "validate m",
     lambda o, v: FusionGrouping.identity(6).validate(v), 6, ZERO + HUGE),
    ("FusionGrouping", "groups label",
     lambda o, v: FusionGrouping(((0,), (1,), (2,), (3,), (v,))).validate(4),
     4, ZERO + HUGE),
    ("design_from_symmetric_relation", "i",
     lambda o, v: design_from_symmetric_relation(o.scheme, v), 4,
     ZERO + HUGE),
    ("two_graph_fusion", "j_labels",
     lambda o, v: two_graph_fusion(o.scheme, [v]), 4, ZERO + HUGE),
    ("verify_design", "v", lambda o, v: verify_design(v, o.blocks), 7,
     ZERO + HUGE),
    ("verify_two_graph", "v", lambda o, v: verify_two_graph(v, []), 6,
     ZERO + HUGE),
    ("two_graph_from_graph", "v", lambda o, v: two_graph_from_graph(v, []),
     6, ZERO + HUGE),
    ("find_regular_two_graphs", "nu",
     lambda o, v: find_regular_two_graphs(v), 6, ZERO + HUGE),
    ("EnumerationTask", "max_nontrivial_classes",
     lambda o, v: enumerate_asts(EnumerationTask(
         ground=GroundSet(4), max_nontrivial_classes=v)), 2, ZERO),
    ("EnumerationTask", "node_limit",
     lambda o, v: enumerate_asts(EnumerationTask(
         ground=GroundSet(4), node_limit=v)), 1000, ZERO),
    ("enumerate_circulant", "nu", lambda o, v: enumerate_circulant(v), 5,
     ZERO + HUGE),
    ("FiniteField", "p", lambda o, v: FiniteField(v, 1, (1, 1)), 3,
     ZERO + HUGE),
    ("FiniteField", "k", lambda o, v: FiniteField(2, v, (1, 1)), 1,
     ZERO + HUGE),
    ("make_field", "p", lambda o, v: make_field(v), 3, ZERO + HUGE),
    ("make_field", "k", lambda o, v: make_field(2, v), 3, ZERO + HUGE),
    ("field_from_order", "q", lambda o, v: field_from_order(v), 4,
     ZERO + HUGE),
    ("asl2_group", "q", lambda o, v: asl2_group(v), 3, ZERO + HUGE),
    ("agl1_group", "q", lambda o, v: agl1_group(v), 3, ZERO + HUGE),
    ("agl2_group", "q", lambda o, v: agl2_group(v), 3, ZERO + HUGE),
    ("psl2_group", "q", lambda o, v: psl2_group(v), 3, ZERO + HUGE),
    ("point_index", "x", lambda o, v: point_index(o.field, v, 0), 1, HUGE),
    ("point_index", "y", lambda o, v: point_index(o.field, 0, v), 1, HUGE),
    ("AlgebraElement", "basis label",
     lambda o, v: AlgebraElement.basis(o.scheme, v), 4, HUGE),
    ("CubicHypermatrix", "nu", lambda o, v: CubicHypermatrix(v, [0] * 8), 2,
     ZERO + HUGE),
    ("adjacency", "i", lambda o, v: adjacency(o.scheme, v), 4, HUGE),
    ("class_product_mismatch", "i",
     lambda o, v: class_product_mismatch(o.scheme, v, 4, 4, o.expected), 4,
     HUGE),
    ("class_product_mismatch", "j",
     lambda o, v: class_product_mismatch(o.scheme, 4, v, 4, o.expected), 4,
     HUGE),
    ("class_product_mismatch", "k",
     lambda o, v: class_product_mismatch(o.scheme, 4, 4, v, o.expected), 4,
     HUGE),
    ("close", "degree", lambda o, v: close([], degree=v), 3, ZERO + HUGE),
    ("close", "order", lambda o, v: close([(1, 0, 2)], order=v), 2, ZERO),
    ("perm_from_cycles", "n", lambda o, v: perm_from_cycles(v, []), 3,
     ZERO + HUGE),
    ("two_point_stabilizer_orbits", "x",
     lambda o, v: two_point_stabilizer_orbits(o.group, v, 2), 0, HUGE),
    ("two_point_stabilizer_orbits", "y",
     lambda o, v: two_point_stabilizer_orbits(o.group, 2, v), 0, HUGE),
    ("is_invariant", "label",
     lambda o, v: is_invariant(o.scheme, v, o.identity), 4, HUGE),
    ("is_thin", "label", lambda o, v: is_thin(o.scheme, v, 0, 1), 4, HUGE),
    ("is_thin", "a", lambda o, v: is_thin(o.scheme, 4, v, 1), 0, HUGE),
    ("is_thin", "b", lambda o, v: is_thin(o.scheme, 4, 0, v), 1,
     ZERO + HUGE),
    ("cycle_orbits_on_relation", "label",
     lambda o, v: cycle_orbits_on_relation(o.scheme, v, o.identity), 4,
     HUGE),
    ("thin_circulant_decomposition", "label",
     lambda o, v: thin_circulant_decomposition(o.scheme, v, o.cycle), 0,
     HUGE),
    ("check_asl2_valencies", "q", lambda o, v: check_asl2_valencies(v), 2,
     ZERO + HUGE),
    ("check_asl2_nontrivial_products", "q",
     lambda o, v: check_asl2_nontrivial_products(v), 2, ZERO + HUGE),
    ("check_asl2_trivial_products", "q",
     lambda o, v: check_asl2_trivial_products(v), 2, ZERO + HUGE),
    ("run_asl2_oracle", "q", lambda o, v: run_asl2_oracle(v), 2,
     ZERO + HUGE),
]

#: Public names that take no number to check: a scheme, a group, a
#: partition, a grouping, a file's text or a mode.
NO_NUMERIC_PARAMETER = {
    "TriplePartition", "is_symmetric_ast", "partition_from_json",
    "scheme_to_json", "verify_ast", "complement_two_graph", "is_regular",
    "pair_coverage", "are_isomorphic", "canonical_key", "enumerate_asts",
    "AstriplesError", "ConsistencyError", "PreconditionError",
    "RefusalError", "SizeGuardError", "StructuralError", "group_from_spec",
    "associativity_counterexample", "commutativity_counterexample",
    "is_associative_subalgebra", "is_commutative_subalgebra",
    "product_in_coefficients", "ternary_field_certificate",
    "ternary_product", "verify_structure_constants",
    "weak_associativity_check", "find_invariant_cycle", "is_circulant_ast",
    "is_transitive", "is_two_transitive", "orbits_on_triples",
    "pair_orbits", "ast_from_design", "ast_from_group", "ast_from_two_graph",
    "fuse", "is_fission_of", "two_graph_from_ast", "vanishing_report",
    "verify_fusion_theorem",
}

#: Records the library builds and returns; their numbers are results.
RESULT_RECORDS = {
    "ValencyTable", "IntersectionTensor", "ViolationReport", "TwoDesign",
    "TwoGraph", "AstIsomorphism", "PermutationGroup", "FusionTheoremReport",
    "TwoGraphFusionResult",
}

#: Parameters for which None is the default: no bound, no known order, or
#: the degree of the generators.
NONE_ALLOWED = {("EnumerationTask", "max_nontrivial_classes"),
                ("EnumerationTask", "node_limit"), ("close", "degree"),
                ("close", "order")}


def _hostile(name, parameter, ok):
    """A bool, the accepted value as a float, a string and a list (an
    unhashable), a non-integral float, None (unless it is the default) and
    a negative int."""
    values = (True, float(ok), 2.5, str(ok), [ok], None, -1)
    if (name, parameter) in NONE_ALLOWED:
        return tuple(value for value in values if value is not None)
    return values


def _cases(refused):
    for name, parameter, call, ok, extra in ROWS:
        values = _hostile(name, parameter, ok) + extra if refused else (ok,)
        for value in values:
            shown = "10**100" if value in HUGE else repr(value)
            yield pytest.param(name, parameter, call, value,
                               id=f"{name}.{parameter}={shown}")


@pytest.fixture(scope="module")
def inputs():
    return Inputs()


def test_every_public_name_is_a_row_or_listed():
    rows = {row[0] for row in ROWS}
    assert not rows & NO_NUMERIC_PARAMETER
    assert not (rows | NO_NUMERIC_PARAMETER) & RESULT_RECORDS
    assert rows | NO_NUMERIC_PARAMETER | RESULT_RECORDS == set(at.__all__)


@pytest.mark.parametrize("name, parameter, call, value",
                         _cases(refused=False))
def test_each_row_accepts_a_good_number(inputs, name, parameter, call,
                                        value):
    # the companions of each row are valid, so a refusal below is the
    # number's
    call(inputs, value)


@pytest.mark.parametrize("name, parameter, call, value",
                         _cases(refused=True))
def test_a_bad_number_is_refused_at_once(inputs, name, parameter, call,
                                         value):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(at.AstriplesError) as refusal:
            call(inputs, value)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 10_000
    # a value that is no int is refused as one, except by is_thin's
    # coordinates, which are checked as a pair
    pair = name == "is_thin" and parameter != "label"
    if type(value) is not int and not pair:
        assert "must be an int" in str(refusal.value)


GUARDS = ("CYCLE_SEARCH_LIMIT", "LABEL_LIMIT-relations",
          "LABEL_LIMIT-grouping", "DENSE_LIMIT-hypermatrix",
          "DENSE_LIMIT-class_product", "DENSE_LIMIT-oracle",
          "TRIVIAL_GROUP_NU_LIMIT", "GROUP_NU_LIMIT-task",
          "GROUP_NU_LIMIT-circulant", "CANONICAL_NU_LIMIT",
          "TWO_GRAPH_SEARCH_LIMIT", "POINT_LIMIT-design",
          "POINT_LIMIT-two_graph", "POINT_LIMIT-graph")


@pytest.fixture(scope="module")
def guard_cases():
    """Each guard's call at its limit + 1, with the error, a part of its
    message and a bound on the bytes the call may allocate."""
    nine = at.ast_from_group(asl2_group(3))
    seven = at.ast_from_group(agl1_group(CANONICAL_NU_LIMIT + 1))
    assert nine.nu == CYCLE_SEARCH_LIMIT + 1
    nu = DENSE_LIMIT + 1
    dense = verified(TriplePartition.from_labels(
        GroundSet(nu), trivial_cube(nu, 4)))
    zeros = (0,) * nu**3
    n = GROUP_NU_LIMIT + 1
    cycle = close([perm_from_cycles(n, [tuple(range(n))])])
    # one relation of one triple per class, past the label limit: the list
    # of relations is copied (8 bytes a class) before it is counted, but
    # the cube (2 bytes a cell, 2 MB) is not allocated
    many = [[(0, 0, 0)]] * (LABEL_LIMIT + 1)
    small = 10_000
    return {
        "CYCLE_SEARCH_LIMIT": (lambda: find_invariant_cycle(nine),
                               at.SizeGuardError,
                               f"at most {CYCLE_SEARCH_LIMIT}", small),
        "LABEL_LIMIT-relations": (
            lambda: TriplePartition(GroundSet(100), many), at.StructuralError,
            f"at most {LABEL_LIMIT}", 8 * len(many) + small),
        "LABEL_LIMIT-grouping": (
            lambda: FusionGrouping.identity(LABEL_LIMIT), at.SizeGuardError,
            f"at most {LABEL_LIMIT - 1}", small),
        "DENSE_LIMIT-hypermatrix": (lambda: CubicHypermatrix(nu, zeros),
                                    at.SizeGuardError,
                                    f"at most {DENSE_LIMIT}", small),
        "DENSE_LIMIT-class_product": (
            lambda: class_product_mismatch(dense, 4, 4, 4, (0,) * 5),
            at.SizeGuardError, f"at most {DENSE_LIMIT}", small),
        "DENSE_LIMIT-oracle": (lambda: run_asl2_oracle(9), at.SizeGuardError,
                               "q is guarded to at most 8", small),
        "TRIVIAL_GROUP_NU_LIMIT": (
            lambda: enumerate_asts(EnumerationTask(
                ground=GroundSet(TRIVIAL_GROUP_NU_LIMIT + 1))),
            at.SizeGuardError, f"guard ({TRIVIAL_GROUP_NU_LIMIT})", small),
        "GROUP_NU_LIMIT-task": (
            lambda: enumerate_asts(EnumerationTask(
                ground=GroundSet(n), invariance=cycle)),
            at.SizeGuardError, f"guard ({GROUP_NU_LIMIT})", small),
        "GROUP_NU_LIMIT-circulant": (lambda: enumerate_circulant(n),
                                     at.SizeGuardError,
                                     f"at most {GROUP_NU_LIMIT}", small),
        "CANONICAL_NU_LIMIT": (lambda: canonical_key(seven),
                               at.SizeGuardError,
                               f"at most {CANONICAL_NU_LIMIT}", small),
        "TWO_GRAPH_SEARCH_LIMIT": (
            lambda: find_regular_two_graphs(TWO_GRAPH_SEARCH_LIMIT + 1),
            at.SizeGuardError, f"at most {TWO_GRAPH_SEARCH_LIMIT}", small),
        "POINT_LIMIT-design": (
            lambda: verify_design(POINT_LIMIT + 1, fano_blocks()),
            at.SizeGuardError, f"at most {POINT_LIMIT}", small),
        "POINT_LIMIT-two_graph": (
            lambda: verify_two_graph(POINT_LIMIT + 1, []),
            at.SizeGuardError, f"at most {POINT_LIMIT}", small),
        "POINT_LIMIT-graph": (
            lambda: two_graph_from_graph(POINT_LIMIT + 1, []),
            at.SizeGuardError, f"at most {POINT_LIMIT}", small),
    }


def test_every_refusal_guard_has_a_case(guard_cases):
    assert set(guard_cases) == set(GUARDS)


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_fires_before_it_allocates(guard_cases, guard):
    call, error, message, bound = guard_cases[guard]
    tracemalloc.start()
    try:
        with pytest.raises(error, match=re.escape(message)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
