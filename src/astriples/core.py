"""Ground sets, ternary relations, and schemes on triples.

A scheme on triples is a partition of the cube Omega^3 into relations
R_0..R_m (m >= 4) satisfying four conditions:

1. for every relation i and every ordered pair of distinct points (x, y),
   the number of z with (x, y, z) in R_i is a constant n_i (the third
   valency of R_i);
2. for all labels i, j, k, l and every (x, y, z) in R_l, the number of
   points w with (w, y, z) in R_i, (x, w, z) in R_j and (x, y, w) in R_k
   is a constant p_ijk^l (the intersection numbers);
3. permuting the three coordinates maps every relation onto a relation;
4. the first four relations are the trivial ones: the diagonal
   R_0 = {(x,x,x)} and the three repeated-coordinate patterns
   R_1 = {(x,y,y)}, R_2 = {(y,x,y)}, R_3 = {(y,y,x)} with x != y.

Everything here is exact: points are 0-based integers, counts are ints.
All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import ConsistencyError, PreconditionError, StructuralError

Triple = tuple[int, int, int]

#: All six coordinate permutations, as 0-based index tuples.  A permutation
#: sigma sends (x_0, x_1, x_2) to (x_sigma[0], x_sigma[1], x_sigma[2]).
COORD_PERMS: tuple[Triple, ...] = tuple(permutations(range(3)))

#: Largest ground set for which intersection-number constancy is verified
#: on every representative by default.  The check is O(nu^4).
FULL_CHECK_LIMIT = 30

#: Version tag of the JSON scheme interchange format.
SCHEME_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class GroundSet:
    """The point set {0, .., nu-1}, nu >= 3."""

    nu: int

    def __post_init__(self):
        if not isinstance(self.nu, int) or self.nu < 3:
            raise PreconditionError(
                f"ground set needs at least 3 points, got {self.nu!r}")

    def index(self, t: Triple) -> int:
        """Flat index of a triple: x*nu^2 + y*nu + z."""
        nu = self.nu
        return (t[0] * nu + t[1]) * nu + t[2]

    def triple(self, idx: int) -> Triple:
        """Inverse of :meth:`index`."""
        nu = self.nu
        xy, z = divmod(idx, nu)
        x, y = divmod(xy, nu)
        return (x, y, z)


@dataclass(frozen=True)
class TernaryRelation:
    """A set of ordered triples over a ground set.

    Triples are stored sorted lexicographically with duplicates removed,
    so equal relations compare and hash equal.
    """

    ground: GroundSet
    triples: tuple[Triple, ...]

    def __post_init__(self):
        nu = self.ground.nu
        cleaned = sorted({tuple(t) for t in self.triples})
        for t in cleaned:
            if len(t) != 3 or not all(
                    isinstance(c, int) and 0 <= c < nu for c in t):
                raise StructuralError(f"triple {t!r} out of range for nu={nu}")
        object.__setattr__(self, "triples", tuple(cleaned))

    def __len__(self):
        return len(self.triples)

    def __contains__(self, t):
        return t in self.triple_set

    @cached_property
    def triple_set(self) -> frozenset:
        return frozenset(self.triples)

    @cached_property
    def mask(self) -> int:
        """Occupancy bitset: bit ground.index(t) set for each triple."""
        nu = self.ground.nu
        m = 0
        for x, y, z in self.triples:
            m |= 1 << ((x * nu + y) * nu + z)
        return m


@dataclass(frozen=True)
class TriplePartition:
    """An ordered list of relations meant to partition Omega^3.

    Partition-ness itself is checked by :func:`verify_ast`; this type only
    guarantees a common ground set.
    """

    ground: GroundSet
    classes: tuple[TernaryRelation, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        for rel in self.classes:
            if rel.ground != self.ground:
                raise StructuralError("relation on a different ground set")

    @property
    def m(self) -> int:
        """Largest relation label."""
        return len(self.classes) - 1


@dataclass(frozen=True)
class ValencyTable:
    """Per-relation valencies (n^(1), n^(2), n^(3)).

    n^(3) counts completions of a distinct pair in the last coordinate;
    n^(1) and n^(2) count completions in the first and middle coordinate.
    """

    rows: tuple[tuple[int, int, int], ...]

    def first(self, i: int) -> int:
        return self.rows[i][0]

    def second(self, i: int) -> int:
        return self.rows[i][1]

    def third(self, i: int) -> int:
        return self.rows[i][2]


@dataclass(frozen=True)
class IntersectionTensor:
    """The structure constants p_ijk^l, dense over (m+1)^4 index tuples."""

    classes: int
    values: tuple[int, ...]

    def get(self, i: int, j: int, k: int, l: int) -> int:
        c = self.classes
        return self.values[((i * c + j) * c + k) * c + l]

    def slice(self, i: int, j: int, k: int) -> tuple[int, ...]:
        """The vector (p_ijk^0, .., p_ijk^m)."""
        c = self.classes
        base = ((i * c + j) * c + k) * c
        return self.values[base:base + c]

    def nonzero(self):
        """Yield (i, j, k, l, p) for every nonzero entry, in index order."""
        c = self.classes
        for flat, p in enumerate(self.values):
            if p:
                l = flat % c
                rest = flat // c
                k = rest % c
                rest //= c
                j = rest % c
                i = rest // c
                yield (i, j, k, l, p)


@dataclass(frozen=True)
class ViolationReport:
    """Names the condition a candidate partition violates, with a witness."""

    condition: int
    relations: tuple[int, ...]
    witness: tuple
    message: str

    def __str__(self):
        return self.message


@dataclass(frozen=True)
class AstScheme:
    """A verified scheme on triples.

    Construct through :func:`verify_ast`; the fields are trusted downstream.
    """

    partition: TriplePartition
    valencies: ValencyTable

    @property
    def ground(self) -> GroundSet:
        return self.partition.ground

    @property
    def nu(self) -> int:
        return self.partition.ground.nu

    @property
    def m(self) -> int:
        return self.partition.m

    @property
    def classes(self) -> tuple[TernaryRelation, ...]:
        return self.partition.classes

    def relation(self, i: int) -> TernaryRelation:
        return self.partition.classes[i]

    @property
    def nontrivial_labels(self) -> range:
        return range(4, self.m + 1)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """Flat class-label lookup over all nu^3 triple indices."""
        nu = self.nu
        out = [-1] * nu**3
        for i, rel in enumerate(self.classes):
            for x, y, z in rel.triples:
                out[(x * nu + y) * nu + z] = i
        return tuple(out)

    def label_of(self, t: Triple) -> int:
        return self.labels[self.ground.index(t)]

    @cached_property
    def zfibers(self) -> tuple[tuple[int, ...], ...]:
        """Per-class z-fibers: ``zfibers[l][x*nu + y]`` is the bitmask of
        the z with ``label(x, y, z) == l``.  Built on first use only."""
        nu = self.nu
        out = [[0] * (nu * nu) for _ in range(self.m + 1)]
        for idx, label in enumerate(self.labels):
            xy, z = divmod(idx, nu)
            out[label][xy] |= 1 << z
        return tuple(tuple(fib) for fib in out)

    @cached_property
    def tensor(self) -> IntersectionTensor:
        """Intersection numbers under the default constancy policy."""
        return _compute_tensor(self, None)

    def diagonal_third_counts(self, i: int) -> tuple[int, ...]:
        """Per-point counts |{z : (x,x,z) in R_i}|.

        The defining conditions only constrain counts over distinct pairs;
        diagonal counts are recorded but not required to be constant.
        """
        nu = self.nu
        counts = [0] * nu
        for x, y, z in self.relation(i).triples:
            if x == y:
                counts[x] += 1
        return tuple(counts)

    def serialized(self) -> tuple:
        """Hashable canonical form: (nu, per-class triple tuples)."""
        return (self.nu, tuple(rel.triples for rel in self.classes))


def trivial_relations(ground: GroundSet) -> list[TernaryRelation]:
    """The four fixed relations R_0..R_3 on a ground set."""
    nu = ground.nu
    pts = range(nu)
    r0 = [(x, x, x) for x in pts]
    r1 = [(x, y, y) for x in pts for y in pts if x != y]
    r2 = [(y, x, y) for x in pts for y in pts if x != y]
    r3 = [(y, y, x) for x in pts for y in pts if x != y]
    return [TernaryRelation(ground, tuple(r)) for r in (r0, r1, r2, r3)]


def permute_relation(rel: TernaryRelation, sigma) -> TernaryRelation:
    """Image of a relation under a coordinate permutation.

    ``sigma`` is a 0-based permutation of (0, 1, 2); the triple
    (x_0, x_1, x_2) maps to (x_sigma[0], x_sigma[1], x_sigma[2]).
    """
    sigma = tuple(sigma)
    if sorted(sigma) != [0, 1, 2]:
        raise PreconditionError(f"not a coordinate permutation: {sigma!r}")
    a, b, c = sigma
    return TernaryRelation(
        rel.ground, tuple((t[a], t[b], t[c]) for t in rel.triples))


def is_symmetric_relation(rel: TernaryRelation) -> bool:
    """True iff the relation is fixed by all six coordinate permutations."""
    ts = rel.triple_set
    for a, b, c in COORD_PERMS:
        if any((t[a], t[b], t[c]) not in ts for t in rel.triples):
            return False
    return True


def is_symmetric_ast(scheme: AstScheme) -> bool:
    """True iff every nontrivial relation is symmetric."""
    return all(is_symmetric_relation(scheme.relation(i))
               for i in scheme.nontrivial_labels)


def coordinate_class_action(scheme: AstScheme) -> dict:
    """The action of coordinate permutations on class labels.

    Returns {sigma: label_map} where label_map[i] is the class that the
    sigma-image of class i equals.  Well-defined on any verified scheme.
    """
    index = {rel.triples: i for i, rel in enumerate(scheme.classes)}
    action = {}
    for sigma in COORD_PERMS:
        a, b, c = sigma
        row = []
        for rel in scheme.classes:
            image = tuple(sorted((t[a], t[b], t[c]) for t in rel.triples))
            row.append(index[image])
        action[sigma] = tuple(row)
    return action


def _slot_counts(classes, nu, slot):
    """counts[i][pair_id] = completions of each distinct ordered pair.

    ``slot`` is the varying coordinate: 0 counts (z,x,y), 1 counts (x,z,y),
    2 counts (x,y,z) completions of the pair (x, y).
    """
    counts = [[0] * (nu * nu) for _ in classes]
    for i, rel in enumerate(classes):
        row = counts[i]
        for t in rel.triples:
            if slot == 2:
                x, y = t[0], t[1]
            elif slot == 1:
                x, y = t[0], t[2]
            else:
                x, y = t[1], t[2]
            if x != y:
                row[x * nu + y] += 1
    return counts


def _constancy(counts_row, nu):
    """(constant, witness) over distinct pairs; witness on failure."""
    value = None
    first_pair = None
    for x in range(nu):
        for y in range(nu):
            if x == y:
                continue
            c = counts_row[x * nu + y]
            if value is None:
                value, first_pair = c, (x, y)
            elif c != value:
                return None, (first_pair, value, (x, y), c)
    return value, None


def verify_ast(partition: TriplePartition, full_check=None):
    """Check the four defining conditions.

    Returns a validated :class:`AstScheme` on success and a
    :class:`ViolationReport` naming the violated condition otherwise.
    Structural problems (input not a partition of the cube, empty classes,
    fewer than five classes) raise :class:`StructuralError` instead.

    ``full_check`` controls condition 2: ``True`` verifies the constancy of
    every intersection number on every representative, ``False`` computes
    from one representative per class, ``None`` picks ``True`` for
    nu <= FULL_CHECK_LIMIT.
    """
    ground = partition.ground
    nu = ground.nu
    classes = partition.classes
    if full_check is None:
        full_check = nu <= FULL_CHECK_LIMIT

    # Structural: nonempty classes forming a partition of the cube.  The
    # count comes first, so a tiny input with a huge nu allocates nothing;
    # with at least nu^3 triples and no overlap, every triple is covered.
    total = sum(len(rel.triples) for rel in classes)
    if total < nu**3:
        raise StructuralError(
            f"the classes hold {total} triples, the cube has {nu**3}")
    labels = [-1] * nu**3
    for i, rel in enumerate(classes):
        if not rel.triples:
            raise StructuralError(f"class {i} is empty")
        for t in rel.triples:
            idx = (t[0] * nu + t[1]) * nu + t[2]
            if labels[idx] != -1:
                raise StructuralError(
                    f"triple {t} lies in classes {labels[idx]} and {i}")
            labels[idx] = i
    if len(classes) < 5:
        raise StructuralError(
            "a scheme needs the four trivial relations plus at least one "
            f"nontrivial relation, got {len(classes)} classes")

    # Condition 4: the first four classes are the trivial relations.
    for i, expected in enumerate(trivial_relations(ground)):
        if classes[i].triples != expected.triples:
            diff = min(classes[i].triple_set ^ expected.triple_set)
            return ViolationReport(
                condition=4, relations=(i,), witness=(diff,),
                message=f"class {i} is not trivial relation R_{i}; "
                        f"witness triple {diff}")

    # Condition 1: third-valency constancy over distinct pairs.
    third_counts = _slot_counts(classes, nu, slot=2)
    thirds = []
    for i in range(len(classes)):
        value, bad = _constancy(third_counts[i], nu)
        if bad:
            (p1, c1, p2, c2) = bad
            return ViolationReport(
                condition=1, relations=(i,), witness=(p1, c1, p2, c2),
                message=f"relation {i}: pair {p1} has {c1} completions "
                        f"but pair {p2} has {c2}")
        thirds.append(value)

    # Condition 3: coordinate permutations map classes onto classes.
    index = {rel.triples: i for i, rel in enumerate(classes)}
    for sigma in COORD_PERMS:
        a, b, c = sigma
        for i, rel in enumerate(classes):
            image = tuple(sorted((t[a], t[b], t[c]) for t in rel.triples))
            if image not in index:
                return ViolationReport(
                    condition=3, relations=(i,), witness=(sigma,),
                    message=f"image of relation {i} under coordinate "
                            f"permutation {sigma} is not a class")

    # First and second valencies now exist; a failure here would mean the
    # checks above are broken, not the input.
    firsts, seconds = [], []
    for slot, out in ((0, firsts), (1, seconds)):
        cnts = _slot_counts(classes, nu, slot)
        for i in range(len(classes)):
            value, bad = _constancy(cnts[i], nu)
            if bad:
                raise ConsistencyError(
                    f"slot-{slot} valency not constant on relation {i} "
                    "despite conditions 1 and 3 holding")
            out.append(value)

    # Condition 2: intersection numbers, constant per class.
    nu2 = nu * nu
    rep_sigs = []
    for rel in classes:
        x, y, z = rel.triples[0]
        sig = {}
        xbase = x * nu2
        yz = y * nu + z
        xy = xbase + y * nu
        for w in range(nu):
            key = (labels[w * nu2 + yz], labels[xbase + w * nu + z],
                   labels[xy + w])
            sig[key] = sig.get(key, 0) + 1
        rep_sigs.append(sig)

    if full_check:
        for x in range(nu):
            xbase = x * nu2
            for y in range(nu):
                xy = xbase + y * nu
                for z in range(nu):
                    l = labels[xy + z]
                    yz = y * nu + z
                    sig = {}
                    for w in range(nu):
                        key = (labels[w * nu2 + yz],
                               labels[xbase + w * nu + z], labels[xy + w])
                        sig[key] = sig.get(key, 0) + 1
                    if sig != rep_sigs[l]:
                        bad = next(k for k in set(sig) | set(rep_sigs[l])
                                   if sig.get(k, 0) != rep_sigs[l].get(k, 0))
                        return ViolationReport(
                            condition=2, relations=(l,) + bad,
                            witness=((x, y, z), bad, sig.get(bad, 0),
                                     rep_sigs[l].get(bad, 0)),
                            message=f"count for pattern {bad} at {(x, y, z)} "
                                    f"in relation {l} is {sig.get(bad, 0)}, "
                                    f"expected {rep_sigs[l].get(bad, 0)}")

    rows = tuple(zip(firsts, seconds, thirds))
    forced = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    if rows[:4] != forced:
        raise ConsistencyError(
            f"trivial valency rows {rows[:4]} differ from forced {forced}")

    scheme = AstScheme(partition=partition, valencies=ValencyTable(rows))
    scheme.__dict__["labels"] = tuple(labels)
    scheme.__dict__["tensor"] = _tensor_from_sigs(len(classes), rep_sigs)
    return scheme


def ensure_ast(partition: TriplePartition, full_check=None) -> AstScheme:
    """Like :func:`verify_ast` but raises on a condition violation."""
    result = verify_ast(partition, full_check=full_check)
    if isinstance(result, ViolationReport):
        raise PreconditionError(f"not a valid scheme: {result.message}")
    return result


def _tensor_from_sigs(n_classes, rep_sigs) -> IntersectionTensor:
    c = n_classes
    values = [0] * c**4
    for l, sig in enumerate(rep_sigs):
        for (i, j, k), count in sig.items():
            values[((i * c + j) * c + k) * c + l] = count
    return IntersectionTensor(classes=c, values=tuple(values))


def _compute_tensor(scheme: AstScheme, full_check) -> IntersectionTensor:
    nu = scheme.nu
    nu2 = nu * nu
    labels = scheme.labels
    if full_check is None:
        full_check = nu <= FULL_CHECK_LIMIT
    n_classes = scheme.m + 1
    rep_sigs = [None] * n_classes
    if full_check:
        cells = range(nu**3)
    else:
        cells = [scheme.ground.index(rel.triples[0]) for rel in scheme.classes]
    for idx in cells:
        l = labels[idx]
        xy, z = divmod(idx, nu)
        x, y = divmod(xy, nu)
        xbase = x * nu2
        yz = y * nu + z
        xyb = xbase + y * nu
        sig = {}
        for w in range(nu):
            key = (labels[w * nu2 + yz], labels[xbase + w * nu + z],
                   labels[xyb + w])
            sig[key] = sig.get(key, 0) + 1
        if rep_sigs[l] is None:
            rep_sigs[l] = sig
        elif rep_sigs[l] != sig:
            raise ConsistencyError(
                f"intersection numbers not constant on relation {l}; "
                "the scheme was not verified")
    return _tensor_from_sigs(n_classes, rep_sigs)


def intersection_numbers(scheme: AstScheme, full_check=None) -> IntersectionTensor:
    """The tensor of structure constants p_ijk^l.

    With ``full_check`` (default on for nu <= FULL_CHECK_LIMIT) every
    representative of every class is counted and compared; a mismatch
    raises :class:`ConsistencyError` since verified schemes cannot produce
    one.
    """
    if full_check is None:
        return scheme.tensor
    return _compute_tensor(scheme, full_check)


def valencies(scheme: AstScheme) -> ValencyTable:
    """The cached valency table of a verified scheme."""
    return scheme.valencies


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"nu": nu, "relations": [[[x, y, z], ...], ...]} with relations ordered
# R_0..R_m, triples lexicographic, all integers 0-based.

def scheme_to_dict(obj) -> dict:
    partition = obj.partition if isinstance(obj, AstScheme) else obj
    return {
        "nu": partition.ground.nu,
        "relations": [[list(t) for t in rel.triples]
                      for rel in partition.classes],
    }


def scheme_to_json(obj) -> str:
    return json.dumps(scheme_to_dict(obj), sort_keys=True) + "\n"


def partition_from_dict(data) -> TriplePartition:
    if not isinstance(data, dict) or "nu" not in data or "relations" not in data:
        raise StructuralError("scheme JSON needs 'nu' and 'relations'")
    try:
        ground = GroundSet(int(data["nu"]))
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"bad 'nu': {data['nu']!r}") from exc
    rels = data["relations"]
    if not isinstance(rels, list):
        raise StructuralError("'relations' must be a list")
    classes = []
    for raw in rels:
        try:
            triples = tuple(tuple(int(c) for c in t) for t in raw)
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"bad relation entry: {raw!r}") from exc
        classes.append(TernaryRelation(ground, triples))
    return TriplePartition(ground, tuple(classes))


def partition_from_json(text: str) -> TriplePartition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
    return partition_from_dict(data)
