"""Schemes on triples: ternary relations, their cubic adjacency algebras,
constructions from two-transitive groups, designs and two-graphs, fusion
and fission, and exhaustive small-case enumeration.

The public names below are loaded from their modules on first use
(PEP 562), so ``python -m astriples.cli`` imports only what its command
needs."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Version tag of the JSON scheme interchange format.
SCHEME_FORMAT_VERSION = "1"

_EXPORTS = {
    "core": (
        "AstScheme", "GroundSet", "IntersectionTensor", "TernaryRelation",
        "TriplePartition", "ValencyTable", "ViolationReport",
        "coordinate_class_action", "ensure_ast", "intersection_numbers",
        "is_symmetric_ast", "partition_from_json", "scheme_to_json",
        "trivial_relations", "verify_ast"),
    "designs": (
        "TwoDesign", "TwoGraph", "complement_two_graph",
        "find_regular_two_graphs", "is_regular", "pair_coverage",
        "two_graph_from_graph", "verify_design", "verify_two_graph"),
    "enumeration": (
        "AstIsomorphism", "EnumerationTask", "are_isomorphic",
        "canonical_key", "enumerate_asts", "enumerate_circulant"),
    "errors": (
        "AstriplesError", "ConsistencyError", "PreconditionError",
        "RefusalError", "SizeGuardError", "StructuralError"),
    "finfield": (
        "FiniteField", "agl1_group", "agl2_group", "asl2_group",
        "field_from_order", "group_from_spec", "make_field", "point_index",
        "psl2_group"),
    "hypermatrix": (
        "AlgebraElement", "CubicHypermatrix", "adjacency",
        "associativity_counterexample", "class_product_mismatch",
        "commutativity_counterexample", "is_associative_subalgebra",
        "is_commutative_subalgebra", "product_in_coefficients",
        "ternary_field_certificate", "ternary_product",
        "verify_structure_constants", "weak_associativity_check"),
    "permgroup": (
        "PermutationGroup", "close", "cycle_orbits_on_relation",
        "find_invariant_cycle", "is_circulant_ast", "is_invariant",
        "is_thin", "is_transitive", "is_two_transitive",
        "orbits_on_triples", "pair_orbits", "perm_from_cycles",
        "thin_circulant_decomposition", "two_point_stabilizer_orbits"),
    "constructions": (
        "FusionGrouping", "FusionTheoremReport", "TwoGraphFusionResult",
        "ast_from_design", "ast_from_group", "ast_from_two_graph",
        "design_from_symmetric_relation", "fuse", "is_fission_of",
        "two_graph_from_ast", "two_graph_fusion", "vanishing_report",
        "verify_fusion_theorem"),
    "asl2": (
        "Asl2Labeling", "check_asl2_nontrivial_products",
        "check_asl2_trivial_products", "check_asl2_valencies",
        "label_asl2_ast", "run_asl2_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
