"""Executable checks of the ASL(2, q) orbit-scheme product identities.

The orbit scheme of the affine special linear group on the plane GF(q)^2
has 2q - 3 nontrivial relations: q - 2 "point type" classes R^a (orbits
of ((0,0), (1,0), (a,0)) for a != 0, 1, third valency 1) and q - 1 "line
type" classes aR (orbits of ((0,0), (1,0), (0,a)) for a != 0, third
valency q).  Their triple products follow closed-form rules in the field
parameters; this module recomputes intersection tensors from scratch and
compares them against those rules, reporting counterexamples rather than
asserting the predicted values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import isqrt

from .constructions import ast_from_group
from .errors import ConsistencyError, check_int
from .finfield import FiniteField, asl2_group, field_from_order, point_index
from .hypermatrix import (DENSE_LIMIT, AlgebraElement, adjacency,
                          class_product_mismatch, is_commutative_subalgebra,
                          ternary_product)
from .record import Record


class Asl2Labeling(Record):
    """Field-element names for the nontrivial classes of the orbit scheme."""

    q: int
    field: FiniteField
    point_labels: dict     # a (a != 0, 1) -> class label of R^a
    line_labels: dict      # a (a != 0)    -> class label of aR


def _context(q: int):
    """The labeled orbit scheme, q checked before the cache is read."""
    return _labeled_scheme(check_int("q", q, 2, isqrt(DENSE_LIMIT)))


@lru_cache(maxsize=None)
def _labeled_scheme(q: int):
    field = field_from_order(q)
    scheme = ast_from_group(asl2_group(q))
    zero = point_index(field, 0, 0)
    one = point_index(field, 1, 0)
    point_labels = {}
    for a in range(2, q):
        rep = (zero, one, point_index(field, a, 0))
        point_labels[a] = scheme.label_of(rep)
    line_labels = {}
    for a in range(1, q):
        rep = (zero, one, point_index(field, 0, a))
        line_labels[a] = scheme.label_of(rep)
    labels = list(point_labels.values()) + list(line_labels.values())
    if len(set(labels)) != len(labels):
        raise ConsistencyError("representative orbits collide")
    if any(lab < 4 for lab in labels):
        raise ConsistencyError("a representative landed in a trivial class")
    if set(labels) != set(scheme.nontrivial_labels):
        raise ConsistencyError(
            f"labels cover {sorted(set(labels))} but the scheme has "
            f"nontrivial classes {list(scheme.nontrivial_labels)}")
    return scheme, Asl2Labeling(q=q, field=field,
                                point_labels=point_labels,
                                line_labels=line_labels)


class OracleCheck(Record):
    """One family of equations: how many instances were compared, and the
    instances whose computed tensor disagreed with the predicted value."""

    name: str
    checked: int
    counterexamples: tuple

    @property
    def passed(self):
        return not self.counterexamples


def check_asl2_valencies(q: int) -> OracleCheck:
    """Point-type classes have third valency 1, line-type classes q."""
    scheme, labeling = _context(q)
    bad = []
    checked = 0
    for kind, labels, want in (("point", labeling.point_labels, 1),
                               ("line", labeling.line_labels, q)):
        for a, lab in sorted(labels.items()):
            checked += 1
            got = scheme.valencies.third(lab)
            if got != want:
                bad.append((f"{kind} class a="
                            f"{labeling.field.format_element(a)}", want, got))
    return OracleCheck(name="valencies", checked=checked,
                       counterexamples=tuple(bad))


def _expected_vector(scheme, support):
    return tuple(map(support.get, range(scheme.m + 1), repeat(0)))


def _nontrivial_families(scheme, labeling):
    """Yield (family, parameter description, (i, j, k), expected vector)."""
    F = labeling.field
    q = F.q
    fmt = F.format_element
    points = sorted(labeling.point_labels)
    lines = sorted(labeling.line_labels)
    plab = labeling.point_labels
    llab = labeling.line_labels

    for a in points:
        for b in points:
            for c in points:
                bc = F.mul(b, c)
                cond = bc == F.add(F.mul(a, F.sub(1, c)), c) and bc != 1
                support = {plab[bc]: 1} if cond else {}
                yield ("1: point point point", f"a={fmt(a)} b={fmt(b)} c={fmt(c)}",
                       (plab[a], plab[b], plab[c]),
                       _expected_vector(scheme, support))
    for a in points:
        for b in points:
            for c in lines:
                desc = f"a={fmt(a)} b={fmt(b)} c={fmt(c)}"
                zero = _expected_vector(scheme, {})
                yield ("2: two points, one line", desc,
                       (plab[a], plab[b], llab[c]), zero)
                yield ("2: two points, one line", desc,
                       (plab[a], llab[c], plab[b]), zero)
                yield ("2: two points, one line", desc,
                       (llab[c], plab[a], plab[b]), zero)
    for a in lines:
        for b in lines:
            for c in points:
                cond = F.add(F.mul(a, c), F.mul(b, c)) == b
                support = {llab[F.div(b, c)]: 1} if cond else {}
                yield ("3: line line point", f"a={fmt(a)} b={fmt(b)} c={fmt(c)}",
                       (llab[a], llab[b], plab[c]),
                       _expected_vector(scheme, support))
    for a in lines:
        for c in points:
            for b in lines:
                cond = F.mul(b, c) == F.add(a, b)
                support = {llab[F.mul(b, c)]: 1} if cond else {}
                yield ("4: line point line", f"a={fmt(a)} c={fmt(c)} b={fmt(b)}",
                       (llab[a], plab[c], llab[b]),
                       _expected_vector(scheme, support))
    for c in points:
        for a in lines:
            for b in lines:
                cond = a == F.neg(F.mul(b, c))
                support = {llab[F.mul(b, F.sub(1, c))]: 1} if cond else {}
                yield ("5: point line line", f"c={fmt(c)} a={fmt(a)} b={fmt(b)}",
                       (plab[c], llab[a], llab[b]),
                       _expected_vector(scheme, support))
    for a in lines:
        for b in lines:
            for c in lines:
                total = F.add(F.add(a, b), c)
                if total == 0:
                    support = {plab[F.neg(F.div(b, c))]: q}
                else:
                    support = {llab[total]: 1}
                yield ("6: line line line", f"a={fmt(a)} b={fmt(b)} c={fmt(c)}",
                       (llab[a], llab[b], llab[c]),
                       _expected_vector(scheme, support))


def _trivial_families(scheme, labeling):
    F = labeling.field
    q = F.q
    fmt = F.format_element
    points = sorted(labeling.point_labels)
    lines = sorted(labeling.line_labels)
    plab = labeling.point_labels
    llab = labeling.line_labels

    for a in points:
        for b in points:
            desc = f"a={fmt(a)} b={fmt(b)}"
            yield ("t1: I1 point point", desc, (1, plab[a], plab[b]),
                   _expected_vector(
                       scheme, {1: 1} if F.mul(a, b) == 1 else {}))
            yield ("t2: point I2 point", desc, (plab[a], 2, plab[b]),
                   _expected_vector(
                       scheme,
                       {2: 1} if F.mul(a, b) == F.add(a, b) else {}))
            yield ("t3: point point I3", desc, (plab[a], plab[b], 3),
                   _expected_vector(
                       scheme, {3: 1} if F.add(a, b) == 1 else {}))
    zero_support = _expected_vector(scheme, {})
    for a in points:
        for b in lines:
            desc = f"a={fmt(a)} b={fmt(b)}"
            for triple in ((1, plab[a], llab[b]), (1, llab[b], plab[a]),
                           (plab[a], 2, llab[b]), (llab[b], 2, plab[a]),
                           (plab[a], llab[b], 3), (llab[b], plab[a], 3)):
                yield ("t4: mixed point-line with a trivial factor", desc,
                       triple, zero_support)
    for a in lines:
        for b in lines:
            desc = f"a={fmt(a)} b={fmt(b)}"
            hit = F.add(a, b) == 0
            yield ("t5: I1 line line", desc, (1, llab[a], llab[b]),
                   _expected_vector(scheme, {1: q} if hit else {}))
            yield ("t6: line I2 line", desc, (llab[a], 2, llab[b]),
                   _expected_vector(scheme, {2: q} if hit else {}))
            yield ("t7: line line I3", desc, (llab[a], llab[b], 3),
                   _expected_vector(scheme, {3: q} if hit else {}))


def _run_families(scheme, families, hypermatrix_all=False):
    """Compare tensor slices (and optionally full products) per family.

    Hypermatrix products are checked by the class kernel.  The first one of
    each family is also run through the public pipeline (``ternary_product``
    against the expanded expectation); a disagreement between the two is a
    :class:`ConsistencyError`, not a counterexample.
    """
    tensor = scheme.tensor
    results = {}
    spot_done = set()
    for family, desc, (i, j, k), expected in families:
        stats = results.setdefault(family, [0, []])
        stats[0] += 1
        actual = tensor.slice(i, j, k)
        if actual != expected:
            stats[1].append((desc, expected, actual))
            continue
        if not hypermatrix_all and family in spot_done:
            continue
        mismatch = class_product_mismatch(scheme, i, j, k, expected)
        if family not in spot_done:
            spot_done.add(family)
            product = ternary_product(adjacency(scheme, i),
                                      adjacency(scheme, j),
                                      adjacency(scheme, k))
            target = AlgebraElement(scheme, expected).expand()
            if (product == target) != (mismatch is None):
                raise ConsistencyError(
                    f"class kernel and ternary_product disagree on "
                    f"A_{i} A_{j} A_{k} ({family}, {desc})")
        if mismatch is not None:
            stats[1].append(
                (desc + " [hypermatrix]", expected, "product mismatch"))
    return tuple(OracleCheck(name=name, checked=stats[0],
                             counterexamples=tuple(stats[1]))
                 for name, stats in sorted(results.items()))


def check_asl2_nontrivial_products(q: int) -> tuple[OracleCheck, ...]:
    """The six product families on nontrivial classes, against the tensor.

    Runs in coefficient space.  The first instance of each family is also
    checked in hypermatrix space, by the class kernel and, as a
    cross-check, by the public ``ternary_product`` pipeline.
    """
    scheme, labeling = _context(q)
    return _run_families(scheme, _nontrivial_families(scheme, labeling))


def check_asl2_trivial_products(q: int) -> tuple[OracleCheck, ...]:
    """The seven families with exactly one trivial factor, checked in
    hypermatrix space.

    Every instance goes through the class kernel on the scheme's cached
    class broadcasts; the first instance of each family is also run
    through the public ``ternary_product`` pipeline as a cross-check.
    """
    scheme, labeling = _context(q)
    return _run_families(scheme, _trivial_families(scheme, labeling),
                         hypermatrix_all=True)


class Asl2OracleReport(Record):
    q: int
    nu: int
    nontrivial_relations: int
    valencies: OracleCheck
    nontrivial_products: tuple
    trivial_products: tuple
    commutative_observed: bool

    @property
    def passed(self):
        return (self.valencies.passed
                and all(c.passed for c in self.nontrivial_products)
                and all(c.passed for c in self.trivial_products))

    def to_dict(self) -> dict:
        def check_dict(check):
            return {
                "name": check.name,
                "checked": check.checked,
                "passed": check.passed,
                "counterexamples": [
                    {"instance": desc, "expected": list(expected),
                     "actual": list(actual) if isinstance(actual, tuple) else actual}
                    for desc, expected, actual in check.counterexamples],
            }
        return {
            "q": self.q,
            "nu": self.nu,
            "nontrivial_relations": self.nontrivial_relations,
            "passed": self.passed,
            "valencies": check_dict(self.valencies),
            "nontrivial_products": [check_dict(c)
                                    for c in self.nontrivial_products],
            "trivial_products": [check_dict(c) for c in self.trivial_products],
            "commutative_observed": self.commutative_observed,
        }


def run_asl2_oracle(q: int) -> Asl2OracleReport:
    """All checks for one q: labeling, valencies, both product theorems.

    Commutativity of the nontrivial subalgebra is computed and reported as
    an observation; it is not part of the pass/fail verdict.  The cached
    scheme's class broadcasts are dropped on return.
    """
    scheme, labeling = _context(q)
    expected_classes = 2 * q - 3
    if len(list(scheme.nontrivial_labels)) != expected_classes:
        raise ConsistencyError(
            f"scheme has {scheme.m - 3} nontrivial classes, "
            f"expected {expected_classes}")
    try:
        return Asl2OracleReport(
            q=q,
            nu=scheme.nu,
            nontrivial_relations=expected_classes,
            valencies=check_asl2_valencies(q),
            nontrivial_products=check_asl2_nontrivial_products(q),
            trivial_products=check_asl2_trivial_products(q),
            commutative_observed=is_commutative_subalgebra(scheme),
        )
    finally:
        scheme.bit_cache.clear()
