"""Scheme constructions and transformations.

Covers the orbit construction from two-transitive groups, the block
construction from lambda = 1 designs and its extraction inverse, the
regular-two-graph equivalence with its vanishing intersection numbers,
and fusion/fission of schemes with the triple-sum law relating coarse
and fine structure constants.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, permutations, product

from .core import (LABEL_LIMIT, AstScheme, GroundSet, TriplePartition,
                   ViolationReport, _count_report, _image_report,
                   _orbit_scheme, _scheme, json_object, label_map, relabel,
                   trivial_cube, verify_ast)
from .errors import (ConsistencyError, PreconditionError, RefusalError,
                     StructuralError, check_int)
from .permgroup import PermutationGroup, is_two_transitive, orbits_on_triples, pair_orbits
from .record import Record

# ``designs`` is imported where used, so ``construct`` and ``oracle`` skip it.

#: The eight vanishing intersection numbers of the two-graph equivalence.
#: The strict form ends in p_554^4, the lenient form in p_554^5 (which
#: completes the odd-membership pattern).  On every regular two-graph
#: instance p_554^4 equals p_455^4, which need not vanish; see the README.
VANISHING_STRICT = ((4, 4, 5, 4), (4, 5, 4, 4), (5, 4, 4, 4), (5, 5, 5, 4),
                    (4, 4, 4, 5), (4, 5, 5, 5), (5, 4, 5, 5), (5, 5, 4, 4))
VANISHING_LENIENT = VANISHING_STRICT[:7] + ((5, 5, 4, 5),)


def _scheme_or_bug(partition: TriplePartition, context: str) -> AstScheme:
    result = verify_ast(partition)
    if isinstance(result, ViolationReport):
        raise ConsistencyError(f"{context}: {result.message}")
    return result


def ast_from_group(group: PermutationGroup) -> AstScheme:
    """Orbit scheme of a two-transitive group on at least 3 points.

    Refuses non-two-transitive input, citing a proper pair orbit.  The
    group proves every condition, so each is read at one cell per class
    (:func:`core._orbit_scheme`), not on the whole cube.
    """
    check_int("degree", group.degree, 3)
    if not is_two_transitive(group):
        witness = min(pair_orbits(group), key=len)
        raise RefusalError(
            f"group of order {group.order} is not two-transitive on "
            f"{group.degree} points", witness=witness)
    return _orbit_scheme(orbits_on_triples(group))


def _two_class_partition(nu, triples) -> TriplePartition:
    """Trivial relations, the orderings of the given 3-subsets as class 4
    and the remaining all-distinct triples as class 5."""
    labels = trivial_cube(nu, 5)
    for subset in triples:
        for x, y, z in permutations(subset):
            labels[(x * nu + y) * nu + z] = 4
    return TriplePartition.from_labels(GroundSet(nu), labels)


def ast_from_design(design: TwoDesign) -> AstScheme:
    """Two-class scheme of a lambda = 1 design with 3 <= k < v.

    Class 4 holds the ordered distinct triples lying inside a block,
    class 5 the rest.
    """
    if design.lam != 1:
        raise RefusalError(
            f"construction needs lambda = 1, design has lambda = {design.lam}")
    if design.k < 3:
        raise RefusalError("blocks of size < 3 contain no triples")
    if design.k >= design.v:
        raise RefusalError("a single all-covering block leaves class 5 empty")
    partition = _two_class_partition(
        design.v, (s for block in design.blocks for s in combinations(block, 3)))
    return _scheme_or_bug(partition,
                          "block construction from a lambda = 1 design")


def _symmetric_subsets(scheme: AstScheme, labels) -> list:
    """The 3-subsets {x < y < z} in the given classes, ascending, read off
    the cells (x, y, z); each class must be symmetric."""
    for i in sorted(labels):
        if any(image[i] != i for image in scheme.action.values()):
            raise PreconditionError(f"relation {i} is not symmetric")
    nu, cube = scheme.nu, scheme.labels
    return [t for t in combinations(range(nu), 3)
            if cube[(t[0] * nu + t[1]) * nu + t[2]] in labels]


def design_from_symmetric_relation(scheme: AstScheme, i: int) -> TwoDesign:
    """The 3-subsets underlying a symmetric nontrivial relation, verified
    as a 2-design (its lambda equals the relation's third valency)."""
    if scheme.check_label(i) < 4:
        raise PreconditionError(f"label {i} is not a nontrivial relation")
    from .designs import verify_design
    blocks = _symmetric_subsets(scheme, {i})
    try:
        return verify_design(scheme.nu, blocks)
    except RefusalError as exc:
        raise ConsistencyError(
            f"3-subsets of symmetric relation {i} are not a 2-design: {exc}")


def ast_from_two_graph(tg: TwoGraph) -> AstScheme:
    """Two-class scheme of a regular two-graph.

    Class 4 holds the orderings of the two-graph's triples.  The scheme is
    verified and its odd-pattern intersection numbers are checked to
    vanish; the values of both eight-entry readings are available through
    :func:`vanishing_report`.
    """
    from .designs import is_regular
    if not is_regular(tg):
        raise RefusalError("two-graph is not regular")
    n_all = tg.v * (tg.v - 1) * (tg.v - 2) // 6
    if not tg.triples or len(tg.triples) == n_all:
        raise RefusalError("degenerate two-graph: one class would be empty")
    scheme = _scheme_or_bug(_two_class_partition(tg.v, tg.triples),
                            "construction from a regular two-graph")
    report = vanishing_report(scheme)
    bad = {entry: value for entry, value in report["lenient"].items() if value}
    if bad:
        raise ConsistencyError(
            f"regular two-graph scheme has nonzero odd-pattern entries {bad}")
    return scheme


def vanishing_report(scheme: AstScheme) -> dict:
    """Values of the eight distinguished entries under both readings."""
    tensor = scheme.tensor
    if scheme.m != 5:
        raise PreconditionError("report needs exactly two nontrivial relations")
    return {
        "strict": {entry: tensor.get(*entry) for entry in VANISHING_STRICT},
        "lenient": {entry: tensor.get(*entry) for entry in VANISHING_LENIENT},
    }


def two_graph_from_ast(scheme: AstScheme, mode: str = "strict") -> TwoGraph:
    """Extract the two-graph of a qualifying two-class symmetric scheme.

    ``mode`` selects which eight-entry list is enforced: ``"strict"``
    ends in p_554^4, ``"lenient"`` in p_554^5.  A nonzero enforced entry raises
    :class:`RefusalError` naming it.
    """
    if mode not in ("strict", "lenient"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if scheme.m != 5:
        raise PreconditionError(
            f"extraction needs exactly two nontrivial relations, "
            f"scheme has {scheme.m - 3}")
    # The action permutes {4, 5}: R_5 is symmetric when R_4 is.
    delta = _symmetric_subsets(scheme, {4})
    entries = VANISHING_STRICT if mode == "strict" else VANISHING_LENIENT
    tensor = scheme.tensor
    for entry in entries:
        value = tensor.get(*entry)
        if value:
            i, j, k, l = entry
            raise RefusalError(
                f"p_{i}{j}{k}^{l} = {value} is nonzero", witness=(entry, value))
    from .designs import is_regular, verify_two_graph
    tg = verify_two_graph(scheme.nu, delta)
    if not is_regular(tg):
        raise ConsistencyError(
            "vanishing conditions held but the extracted family is not a "
            "regular two-graph")
    return tg


# ---------------------------------------------------------------------------
# Fusion and fission


class FusionGrouping(Record):
    """Coarse label -> set of fine labels; trivial labels map identically.

    Nontrivial coarse classes are normalized to ascending least fine
    label, which fixes the coarse labeling deterministically.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(sorted(check_int("label", i, 0) for i in g))
                       for g in self.groups)
        head = groups[:4]
        tail = sorted(groups[4:], key=lambda g: min(g, default=-1))
        object.__setattr__(self, "groups", head + tuple(tail))

    @classmethod
    def identity(cls, m: int):
        check_int("m", m, 4, LABEL_LIMIT - 1)
        return cls(tuple((i,) for i in range(m + 1)))

    @classmethod
    def all_nontrivial_into_one(cls, m: int):
        check_int("m", m, 4, LABEL_LIMIT - 1)
        return cls(((0,), (1,), (2,), (3,), tuple(range(4, m + 1))))

    def validate(self, m: int):
        check_int("m", m, 4, LABEL_LIMIT - 1)
        flat = [i for g in self.groups for i in g]
        if sorted(flat) != list(range(m + 1)) or not all(self.groups):
            raise StructuralError(
                f"groups do not partition the labels 0..{m}")
        if self.groups[:4] != ((0,), (1,), (2,), (3,)):
            raise StructuralError(
                "the four trivial labels must map to themselves, first")
        for g in self.groups[4:]:
            if any(i < 4 for i in g):
                raise StructuralError(
                    f"coarse class {g} mixes trivial and nontrivial labels")

    def fine_of(self, alpha: int) -> tuple[int, ...]:
        return self.groups[alpha]


def grouping_to_json(grouping: FusionGrouping) -> str:
    return json.dumps({"groups": [list(g) for g in grouping.groups]},
                      sort_keys=True) + "\n"


def grouping_from_json(text: str) -> FusionGrouping:
    groups = json_object(text, "grouping", "groups")["groups"]
    if not isinstance(groups, list):
        raise StructuralError("'groups' must be a list of label lists")
    for group in groups:
        if not isinstance(group, list) or any(type(i) is not int or i < 0
                                              for i in group):
            raise StructuralError(f"bad 'groups' entry: {group!r}")
    return FusionGrouping(tuple(map(tuple, groups)))


def fuse(scheme: AstScheme, grouping: FusionGrouping):
    """The scheme of the unions of fine classes per coarse label, or the
    :class:`ViolationReport` of the condition they break, decided exactly
    on the fine action and tensor.  Conditions 4 and 1 hold.  Condition 3
    holds iff each class map sends every coarse class into one (so onto
    it); condition 2 iff the fine classes l of each coarse class have one
    signature, the sums of p_ijk^l keyed by the coarse labels of (i, j,
    k), and a refusal names the first cell of the first that differs."""
    grouping.validate(scheme.m)
    groups = grouping.groups
    coarse_of = {i: alpha for alpha, group in enumerate(groups) for i in group}
    coarse = [coarse_of[i] for i in range(scheme.m + 1)]
    action = {}
    for sigma, image in scheme.action.items():
        targets = [{coarse[image[i]] for i in group} for group in groups]
        wide = [alpha for alpha, found in enumerate(targets) if len(found) > 1]
        if wide:
            return _image_report(sigma, wide[0])
        action[sigma] = tuple(found.pop() for found in targets)
    sigs = []
    for alpha, group in enumerate(groups):
        for l in group:
            sig = Counter()
            for (i, j, k), p in scheme.tensor.counts[l].items():
                sig[coarse[i], coarse[j], coarse[k]] += p
            if l == group[0]:
                sigs.append(sig)
            elif sig != sigs[alpha]:
                return _count_report(alpha, scheme.ground.triple(
                    scheme.labels.index(l)), sig, sigs[alpha])
    return _scheme(
        TriplePartition.from_labels(scheme.ground,
                                    relabel(scheme.labels, coarse)),
        [sum(map(scheme.valencies.third, group)) for group in groups],
        action, [dict(sorted(sig.items())) for sig in sigs])


def is_fission_of(fine: AstScheme, coarse: AstScheme):
    """The grouping exhibiting ``fine`` as a fission of ``coarse``, or None.

    Exists iff every fine class is contained in some coarse class.
    """
    if fine.ground != coarse.ground:
        raise PreconditionError("schemes live on different ground sets")
    coarse_of = label_map(fine.labels, coarse.labels)
    if isinstance(coarse_of, int):
        return None
    groups = [[] for _ in range(coarse.m + 1)]
    for i in range(fine.m + 1):
        groups[coarse_of[i]].append(i)
    return FusionGrouping(tuple(tuple(g) for g in groups))


class FusionTheoremReport(Record):
    """Dual-path comparison of coarse structure constants and valencies."""

    checked_cells: int
    mismatches: tuple
    valency_failures: tuple
    fused: AstScheme

    @property
    def passed(self):
        return not self.mismatches and not self.valency_failures


def verify_fusion_theorem(scheme: AstScheme,
                          grouping: FusionGrouping) -> FusionTheoremReport:
    """Check the triple-sum law for a fusing grouping.

    For every coarse index tuple the sum of fine intersection numbers over
    the grouped labels must be independent of the fine representative of
    the superscript class and equal the coarse constant counted on the
    fused cube (fuse's tensor holds the sums);
    coarse third valencies must be the sums of their fine third valencies.
    """
    fused = fuse(scheme, grouping)
    if isinstance(fused, ViolationReport):
        raise PreconditionError(
            f"grouping does not produce a scheme: {fused.message}")
    counted = _scheme_or_bug(fused.partition, "a fusion that fuse accepted")
    fine_t = scheme.tensor
    coarse_t = counted.tensor
    n = fused.m
    mismatches = []
    checked = 0
    for coarse in product(range(n + 1), repeat=4):
        checked += 1
        ga, gb, gg, gd = map(grouping.fine_of, coarse)
        sums = [sum(fine_t.get(i, j, k, l) for i, j, k in product(ga, gb, gg))
                for l in gd]
        direct = coarse_t.get(*coarse)
        if len(set(sums)) != 1 or sums[0] != direct:
            mismatches.append((coarse, tuple(sums), direct))
    valency_failures = []
    for eps in range(n + 1):
        want = sum(scheme.valencies.third(i) for i in grouping.fine_of(eps))
        got = counted.valencies.third(eps)
        if want != got:
            valency_failures.append((eps, got, want))
    return FusionTheoremReport(checked_cells=checked,
                               mismatches=tuple(mismatches),
                               valency_failures=tuple(valency_failures),
                               fused=fused)


class TwoGraphFusionResult(Record):
    """Outcome of the symmetric-index two-graph fusion test."""

    two_graph: TwoGraph | None
    failing_quadruple: tuple | None


def two_graph_fusion(scheme: AstScheme, j_labels) -> TwoGraphFusionResult:
    """Fuse the symmetric classes in ``j_labels`` into a two-graph.

    Requires more than two nontrivial relations and every listed class
    symmetric.  If some nontrivial quadruple with an odd number of members
    in the index set has a nonzero intersection number, returns the
    quadruple instead of a two-graph.
    """
    j_set = frozenset(map(scheme.check_label, j_labels))
    nontrivial = set(scheme.nontrivial_labels)
    if len(nontrivial) <= 2:
        raise PreconditionError(
            "fusion to a two-graph needs more than two nontrivial relations")
    if not j_set or not j_set <= nontrivial:
        raise PreconditionError(
            f"index set {sorted(j_set)} must be a nonempty set of "
            "nontrivial labels")
    delta = _symmetric_subsets(scheme, j_set)
    tensor = scheme.tensor
    for quadruple in product(sorted(nontrivial), repeat=4):
        members = sum(i in j_set for i in quadruple)
        if members % 2 and tensor.get(*quadruple):
            return TwoGraphFusionResult(two_graph=None,
                                        failing_quadruple=quadruple)
    from .designs import is_regular, verify_two_graph
    try:
        tg = verify_two_graph(scheme.nu, delta)
    except RefusalError as exc:
        raise ConsistencyError(
            f"odd-pattern hypothesis held but the family is not a "
            f"two-graph: {exc}")
    if not is_regular(tg):
        raise ConsistencyError(
            "odd-pattern hypothesis held but the two-graph is not regular")
    return TwoGraphFusionResult(two_graph=tg, failing_quadruple=None)
