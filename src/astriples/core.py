"""Ground sets, partitions of the cube, and schemes on triples.

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

A partition is stored as one flat cube of nu^3 class labels,
``labels[(x*nu + y)*nu + z]``: an ``array('B')``, one byte a cell, when
its classes fit in a byte, and an ``array('H')`` otherwise
(:func:`cube_typecode`).  Every condition is checked on the cube: a fiber
or a coordinate-permuted copy of it is a strided slice.  Conditions 3 and
4 relabel the cube through a class table (:func:`relabel`,
``bytes.translate`` on a byte cube) and compare it with the permuted or
the trivial cube in one ``==``; only a failed comparison scans the cells
for the least witness.  Condition 3 reads the copies for (0, 2, 1) and
(1, 0, 2) only; :func:`verify_ast` composes the other class maps and
stores the action, which the valencies and symmetry queries read.
Condition 2 is counted on the cells x <= y <= z and carried to the rest
by that action.
Relations given as triples are placed in the cube one class at a time by
``TriplePartition(ground, classes)``.  The JSON reader places a file
spelled as the writer spells it one run of x at a time, and parses any
other text whole for that constructor.

Everything here is exact: points are 0-based integers, counts are ints.
All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter, deque
from functools import cached_property
from itertools import chain, permutations, product, repeat
from types import MappingProxyType

from .errors import ConsistencyError, PreconditionError, StructuralError
from .record import Record

Triple = tuple[int, int, int]

#: All six coordinate permutations, as 0-based index tuples.  A permutation
#: sigma sends (x_0, x_1, x_2) to (x_sigma[0], x_sigma[1], x_sigma[2]).
COORD_PERMS: tuple[Triple, ...] = tuple(permutations(range(3)))

#: Largest ground set for which intersection-number constancy is always
#: verified on every cell: nu points are counted at each cell x <= y <= z,
#: about nu^4 / 6 steps, and at all nu^3 cells only when that check fails.
FULL_CHECK_LIMIT = 30

#: Labels are at most unsigned 16-bit; the top value of a cube's typecode
#: marks an uncovered cell while the cube is read, so a partition has at
#: most this many classes.
LABEL_LIMIT = 0xFFFF

# The unfilled mark of each cube typecode.
_UNFILLED = {"B": 0xFF, "H": LABEL_LIMIT}


def cube_typecode(classes: int) -> str:
    """The typecode of the label cube of a partition into ``classes``
    classes: ``'B'`` while the labels and the unfilled mark 0xFF fit in a
    byte (at most 255 classes), else ``'H'``."""
    return "B" if classes <= 0xFF else "H"


def relabel(labels: array, table) -> array:
    """The cube holding ``table[labels[c]]`` in each cell c; ``table``
    covers every label.  A byte cube with a table of bytes is translated
    with ``bytes.translate``; anything else is mapped cell by cell into an
    ``array('H')``, which compares equal to a cube of either typecode."""
    if labels.typecode == "B" and max(table, default=0) <= 0xFF:
        return array("B", labels.tobytes().translate(
            bytes(table).ljust(0x100, b"\0")))
    return array("H", map(table.__getitem__, labels))


def _first_cells(labels: array) -> list[int]:
    """The first cell holding each label 0, 1, .., up to the first label
    that does not occur."""
    if labels.typecode == "B":
        find, cells = labels.tobytes().find, []
        for code in range(0x100):
            cell = find(bytes((code,)))
            if cell < 0:
                break
            cells.append(cell)
        return cells
    cells = []
    try:
        while True:
            cells.append(labels.index(len(cells)))
    except ValueError:
        return cells


def _class_sizes(labels: array) -> tuple[int, ...]:
    """The number of cells holding each label 0..max."""
    if labels.typecode == "B":
        count, sizes, left = labels.tobytes().count, [], len(labels)
        while left:
            sizes.append(count(bytes((len(sizes),))))
            left -= sizes[-1]
        return tuple(sizes)
    counts = Counter(labels)
    return tuple(counts[i] for i in range(max(counts) + 1))


class GroundSet(Record):
    """The point set {0, .., nu-1}, nu >= 3."""

    nu: int

    def __post_init__(self):
        if not isinstance(self.nu, int) or self.nu < 3:
            raise PreconditionError(
                f"ground set needs at least 3 points, got {self.nu!r}")

    def index(self, t: Triple) -> int:
        """Flat index x*nu^2 + y*nu + z of a triple in range(nu)^3; any
        other input raises :class:`PreconditionError`."""
        nu = self.nu
        if not (isinstance(t, tuple) and len(t) == 3 and all(
                type(c) is int and 0 <= c < nu for c in t)):
            raise PreconditionError(f"triple {t!r} outside range({nu})^3")
        return (t[0] * nu + t[1]) * nu + t[2]

    def triple(self, idx: int) -> Triple:
        """Inverse of :meth:`index`: ``idx`` must be an int in
        range(nu^3), else :class:`PreconditionError`."""
        nu = self.nu
        if type(idx) is not int or not 0 <= idx < nu**3:
            raise PreconditionError(f"index {idx!r} outside range({nu**3})")
        xy, z = divmod(idx, nu)
        x, y = divmod(xy, nu)
        return (x, y, z)


class TriplePartition:
    """An ordered partition of Omega^3 into nonempty classes R_0..R_m.

    The only stored state is the label cube ``labels``, not to be mutated:
    an ``array`` of the typecode :func:`cube_typecode` picks for the number
    of classes, so equal partitions hold equal bytes.
    ``TriplePartition(ground, classes)`` reads relations given as
    sequences of triples and raises :class:`StructuralError` unless they
    partition the cube; :meth:`from_labels` takes a cube written by a
    producer.  Whether the partition is a scheme is decided by
    :func:`verify_ast`.
    """

    def __init__(self, ground: GroundSet, classes):
        self.ground = ground
        self.labels = _cube_from_relations(ground, classes)

    @classmethod
    def from_labels(cls, ground: GroundSet, labels) -> TriplePartition:
        """The partition with the given flat label cube, a sequence of
        ints (copied); every label from 0 to the largest must occur."""
        try:
            cube = array("B", labels)
        except OverflowError:
            try:
                cube = array("H", labels)
            except OverflowError as exc:
                raise StructuralError(
                    f"labels must lie in 0..{LABEL_LIMIT - 1}") from exc
        if len(cube) != ground.nu**3:
            raise StructuralError(
                f"{len(cube)} labels for a cube of {ground.nu**3} cells")
        sizes = _class_sizes(cube)
        if len(sizes) > LABEL_LIMIT:
            raise StructuralError(f"labels must lie in 0..{LABEL_LIMIT - 1}")
        if 0 in sizes:
            raise StructuralError(f"class {sizes.index(0)} is empty")
        typecode = cube_typecode(len(sizes))
        return cls._of(ground, cube if cube.typecode == typecode
                       else array(typecode, cube), sizes)

    @classmethod
    def _of(cls, ground, labels, sizes=None) -> TriplePartition:
        """The partition of the cube ``labels`` (and ``sizes``), as given."""
        part = object.__new__(cls)
        part.ground = ground
        part.labels = labels
        if sizes is not None:
            part.__dict__["sizes"] = sizes
        return part

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Number of triples in each class."""
        return _class_sizes(self.labels)

    @property
    def m(self) -> int:
        """Largest relation label."""
        return len(self.sizes) - 1

    def cells(self) -> list[list[int]]:
        """The flat indices of each class, ascending."""
        out = [[] for _ in self.sizes]
        appends = [cells.append for cells in out]
        for idx, label in enumerate(self.labels):
            appends[label](idx)
        return out

    @cached_property
    def classes(self) -> tuple[tuple[Triple, ...], ...]:
        """Each class as its ascending triples, built on first use; no
        computation here reads it."""
        return tuple(tuple(map(self.ground.triple, cells))
                     for cells in self.cells())

    def __eq__(self, other):
        return (isinstance(other, TriplePartition)
                and self.ground == other.ground and self.labels == other.labels)

    def __hash__(self):
        return hash((self.ground, self.labels.tobytes()))


def _cube_from_relations(ground: GroundSet, classes) -> array:
    """The label cube of relations that must partition the cube; the
    first problem found raises :class:`StructuralError`."""
    nu = ground.nu
    rels, total = list(classes), 0
    for rel in rels:
        try:
            total += len(rel)
        except TypeError:
            raise StructuralError(f"bad relation entry: {rel!r}") from None
    if len(rels) > LABEL_LIMIT:
        raise StructuralError(f"{len(rels)} classes; a partition holds at "
                              f"most {LABEL_LIMIT}")
    # The count comes first, so a tiny input with a huge nu allocates
    # nothing.
    if total < nu**3:
        raise StructuralError(
            f"the classes hold {total} triples, the cube has {nu**3}")
    # Then, with at least nu^3 triples and none placed twice, every cell is
    # covered.
    labels = _unfilled_cube(nu, cube_typecode(len(rels)))
    for i, triples in enumerate(rels):
        _place_class(labels, nu, i, triples)
    return labels


def _unfilled_cube(nu: int, typecode: str) -> array:
    """A cube of the given typecode holding the unfilled mark everywhere."""
    return array(typecode, [_UNFILLED[typecode]]) * nu**3


def _place_class(labels: array, nu: int, i: int, triples):
    """Write label ``i`` into the cells of ``triples``, which must be
    nonempty, triples of ints in ``range(nu)``, and on cells that still hold
    the unfilled mark; the first problem raises :class:`StructuralError`."""
    if not triples:
        raise StructuralError(f"class {i} is empty")
    unfilled = _UNFILLED[labels.typecode]
    for t in triples:
        try:
            x, y, z = t
        except (TypeError, ValueError):
            raise StructuralError(
                f"class {i}: {t!r} is not a triple") from None
        if not (type(x) is type(y) is type(z) is int
                and 0 <= x < nu and 0 <= y < nu and 0 <= z < nu):
            raise StructuralError(f"triple {t!r} out of range for nu={nu}")
        idx = (x * nu + y) * nu + z
        if labels[idx] != unfilled:
            raise StructuralError(f"triple {(x, y, z)} lies in classes "
                                  f"{labels[idx]} and {i}")
        labels[idx] = i


class ValencyTable(Record):
    """Per-relation valencies (n^(1), n^(2), n^(3)).

    n^(3) counts completions of a distinct pair in the last coordinate;
    n^(1) and n^(2) count completions in the first and middle coordinate.
    """

    rows: tuple[tuple[int, int, int], ...]

    def third(self, i: int) -> int:
        return self.rows[i][2]


class IntersectionTensor(Record):
    """The structure constants p_ijk^l as condition 2 counts them:
    ``counts[l]`` is a read-only map from each (i, j, k) with p_ijk^l > 0
    to p_ijk^l.  Every other entry is 0; each class holds at most nu
    entries, so the tensor holds at most (m+1)*nu."""

    counts: tuple[MappingProxyType, ...]

    @property
    def classes(self) -> int:
        return len(self.counts)

    def get(self, i: int, j: int, k: int, l: int) -> int:
        return self.counts[l].get((i, j, k), 0)

    def slice(self, i: int, j: int, k: int) -> tuple[int, ...]:
        """The vector (p_ijk^0, .., p_ijk^m)."""
        nonzero = dict(self.slices.get((i, j, k), ()))
        return tuple(map(nonzero.get, range(len(self.counts)), repeat(0)))

    @cached_property
    def slices(self) -> dict:
        """(i, j, k) to the pairs (l, p_ijk^l) of its nonzero entries."""
        out = {}
        for l, counts in enumerate(self.counts):
            for ijk, p in counts.items():
                out[ijk] = out.get(ijk, ()) + ((l, p),)
        return out

    def nonzero(self):
        """Yield (i, j, k, l, p) for every nonzero entry, in index order."""
        yield from sorted(ijk + (l, p) for l, counts in enumerate(self.counts)
                          for ijk, p in counts.items())


class ViolationReport(Record):
    """Names the condition a candidate partition violates, with a witness."""

    condition: int
    relations: tuple[int, ...]
    witness: tuple
    message: str

    def __str__(self):
        return self.message


class AstScheme(Record):
    """A verified scheme on triples.

    Construct through :func:`verify_ast`; the fields are trusted downstream.
    It also stores, beside the fields, ``action``: the read-only map from
    each coordinate permutation sigma (in COORD_PERMS) to the tuple whose
    entry i is the class that sigma maps R_i onto; and ``tensor``: the
    :class:`IntersectionTensor` that condition 2 counted.
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

    def check_label(self, i) -> int:
        """``i`` when it is a class label 0..m, else
        :class:`PreconditionError`."""
        if type(i) is not int:
            raise PreconditionError(f"label {i!r} is not an int")
        if not 0 <= i <= self.m:
            raise PreconditionError(f"label {i!r} outside 0..{self.m}")
        return i

    @property
    def nontrivial_labels(self) -> range:
        return range(4, self.m + 1)

    @property
    def labels(self) -> array:
        """Flat class-label lookup over all nu^3 triple indices."""
        return self.partition.labels

    def label_of(self, t: Triple) -> int:
        """The label of the cell of ``t``, a triple in range(nu)^3; any
        other input raises :class:`PreconditionError`."""
        return self.labels[self.ground.index(t)]

    @cached_property
    def bit_cache(self) -> dict:
        """Whole-cube bit ints of the classes, filled on first use by
        :func:`hypermatrix.class_product_mismatch`: ``[l]`` is class l as
        one nu^3-bit int, ``[l, slot]`` its nu product broadcasts."""
        return {}

    def serialized(self) -> tuple:
        """Hashable canonical form: (nu, per-class ascending flat indices),
        ordered as the per-class sorted triple lists are."""
        return (self.nu, tuple(map(tuple, self.partition.cells())))


def trivial_cube(nu: int, distinct: int) -> array:
    """A label cube holding R_0..R_3 and ``distinct`` on every all-distinct
    cell, for producers to fill in; its typecode fits ``distinct + 1``
    classes."""
    nu2 = nu * nu
    labels = array(cube_typecode(distinct + 1), [distinct]) * nu**3
    for x in range(nu):
        for y in range(nu):
            labels[x * nu2 + y * nu + y] = 1
            labels[y * nu2 + x * nu + y] = 2
            labels[y * nu2 + y * nu + x] = 3
        labels[x * nu2 + x * nu + x] = 0
    return labels


def is_symmetric_ast(scheme: AstScheme) -> bool:
    """True iff every nontrivial relation is symmetric."""
    nontrivial = tuple(scheme.nontrivial_labels)
    return all(image[4:] == nontrivial for image in scheme.action.values())


def _permuted(labels, nu, sigma):
    """The cube whose cell (x_0, x_1, x_2) holds the label of
    (x_sigma[0], x_sigma[1], x_sigma[2]); its rows are strided slices."""
    strides = (nu * nu, nu, 1)
    s0, s1, s2 = (strides[sigma.index(p)] for p in range(3))
    out = array(labels.typecode)
    for x in range(nu):
        for y in range(nu):
            start = x * s0 + y * s1
            out += labels[start:start + s2 * nu:s2]
    return out


def label_map(labels, images):
    """The map i -> j from ``labels`` (holding 0..m) to ``images`` cell by
    cell as a tuple, or the least i whose cells meet two images as an int.

    The candidate map is read off the first cell of each class and checked
    by relabelling; only when that fails are the cells scanned."""
    image = tuple(images[c] for c in _first_cells(labels))
    if relabel(labels, image) == images:
        return image
    return min(i for i, j in set(zip(labels, images)) if image[i] != j)


def _coordinate_action(labels, nu):
    """The class map i -> j with sigma(R_i) = R_j of each coordinate
    permutation, in COORD_PERMS order, or ``(sigma, i)`` for the first
    transposition under which class i has no image.  Only (0, 2, 1) and
    (1, 0, 2) are read off the cube (a map is a bijection, as sigma permutes
    the cells); sigma after tau is ``tuple(tau[k] for k in sigma)``."""
    action = {}
    for sigma in ((0, 2, 1), (1, 0, 2)):
        image = label_map(labels, _permuted(labels, nu, sigma))
        if isinstance(image, int):
            return sigma, image
        action[sigma] = image
    while len(action) < len(COORD_PERMS):
        for (tau, first), (sigma, then) in product(list(action.items()),
                                                   repeat=2):
            action.setdefault(tuple(tau[k] for k in sigma),
                              tuple(then[i] for i in first))
    return MappingProxyType({sigma: action[sigma] for sigma in COORD_PERMS})


def _constant_valencies(labels, nu, n):
    """Third valencies over the fibers (x, y, .), x != y, as (values, None)
    when every fiber has the same counts, else (None, (i, p1, c1, p2, c2)):
    class i has c1 cells in the fiber of the first pair p1 and c2 in that
    of the first pair p2 that differs."""
    pairs = [(x, y) for x in range(nu) for y in range(nu) if x != y]
    first = sorted(labels[nu:2 * nu])   # the fiber of pairs[0] = (0, 1)
    for x, y in pairs[1:]:
        fiber = sorted(labels[(x * nu + y) * nu:(x * nu + y + 1) * nu])
        if fiber != first:
            i = min(i for i in set(fiber) | set(first)
                    if fiber.count(i) != first.count(i))
            return None, (i, pairs[0], first.count(i), (x, y), fiber.count(i))
    return tuple(map(first.count, range(n))), None


def _signatures(labels, nu, n, cells):
    """Condition-2 signatures: for cell (x, y, z), the sorted list of the
    label triples (label(w,y,z), label(x,w,z), label(x,y,w)) over w.

    Returns (sigs, None), sigs[l] being the signature of the first of
    ``cells`` in class l, or (sigs, (idx, sig)) for the first cell whose
    signature differs from its class's.
    """
    nu2 = nu * nu
    sigs = [None] * n
    for idx in cells:
        xy, z = divmod(idx, nu)
        x0 = idx - idx % nu2
        sig = sorted(zip(labels[xy % nu * nu + z::nu2],
                         labels[x0 + z:x0 + nu2:nu],
                         labels[xy * nu:xy * nu + nu]))
        label = labels[idx]
        if sigs[label] is None:
            sigs[label] = sig
        elif sig != sigs[label]:
            return sigs, (idx, sig)
    return sigs, None


def _orbit_signatures(labels, nu, n, action):
    """The condition-2 signature of every class, read on the cells
    x <= y <= z only, or None unless every class has one signature.

    Under condition 3 the cell sigma(t) lies in class act_sigma[L(t)], and
    where t meets the label triple (a_0, a_1, a_2) at a point w, sigma(t)
    meets (act_sigma[a_sigma0], act_sigma[a_sigma1], act_sigma[a_sigma2]).
    Every cell is sigma(t) for a sorted t, so the signatures are constant
    when they are on the sorted cells of each class and each such class's
    signature, carried by the five other sigma, equals that of its image
    class; a class with no sorted cell, such as R_2, gets the carried one.
    """
    sigs, bad = _signatures(labels, nu, n, (
        (x * nu + y) * nu + z
        for x in range(nu) for y in range(x, nu) for z in range(y, nu)))
    if bad:
        return None
    out = list(sigs)
    for k, sig in enumerate(sigs):
        if sig is None:
            continue
        columns = tuple(zip(*sig))
        for sigma in COORD_PERMS[1:]:
            image = action[sigma]
            carried = sorted(zip(*(map(image.__getitem__, columns[p])
                                   for p in sigma)))
            if out[image[k]] is None:
                out[image[k]] = carried
            elif carried != out[image[k]]:
                return None
    return out


def _class_signatures(labels, nu, n, full_check, action):
    """(sigs, bad) as :func:`_signatures` gives them for every cell with
    ``full_check``, else for the first cell of each class.  The full check
    reads the sorted cells (:func:`_orbit_signatures`) through the
    coordinate action ``action`` and scans every cell only when that
    fails, so a failure names the first bad cell in flat order."""
    if not full_check:      # condition 1 puts each class in the first rows
        return _signatures(labels, nu, n, map(labels.index, range(n)))
    sigs = _orbit_signatures(labels, nu, n, action)
    if sigs is not None:
        return sigs, None
    return _signatures(labels, nu, n, range(nu**3))


def verify_ast(partition: TriplePartition, full_check=False):
    """Check the four defining conditions.

    Returns a validated :class:`AstScheme` on success and a
    :class:`ViolationReport` naming the violated condition otherwise.
    Fewer than five classes raise :class:`StructuralError`; a partition
    of the cube into nonempty classes is guaranteed by
    :class:`TriplePartition`.  The scheme stores the coordinate action
    that condition 3 found and, as its :class:`IntersectionTensor`, the
    condition-2 counts of each class; nothing else computes either.

    Condition 2 is checked on every cell when ``full_check`` is true or
    nu <= FULL_CHECK_LIMIT, and otherwise counted on one representative
    cell per class.  The full check counts on the cells x <= y <= z and
    carries those counts to the other cells through the coordinate action
    (:func:`_orbit_signatures`); when that finds a difference, every cell
    is counted in flat order and the report names the first bad cell.
    """
    ground = partition.ground
    nu = ground.nu
    labels = partition.labels
    n = partition.m + 1
    if n < 5:
        raise StructuralError(
            "a scheme needs the four trivial relations plus at least one "
            f"nontrivial relation, got {n} classes")

    # Condition 4: the first four classes are the trivial relations, so
    # with every nontrivial label read as 4 the cube is the trivial cube.
    # A wrong cell is one where the label and the trivial label differ and
    # one of them is trivial; the witness is the least wrong cell of the
    # least such trivial label.
    trivial = trivial_cube(nu, 4)
    if relabel(labels, (0, 1, 2, 3) + (4,) * (n - 4)) != trivial:
        i = min(min(pair) for pair in set(zip(labels, trivial))
                if pair[0] != pair[1] and min(pair) < 4)
        t = ground.triple(next(idx for idx, (a, b) in
                               enumerate(zip(labels, trivial))
                               if a != b and i in (a, b)))
        return ViolationReport(
            condition=4, relations=(i,), witness=(t,),
            message=f"class {i} is not trivial relation R_{i}; "
                    f"witness triple {t}")

    # Condition 1: third-valency constancy over distinct pairs.
    thirds, bad = _constant_valencies(labels, nu, n)
    if bad:
        (i, p1, c1, p2, c2) = bad
        return ViolationReport(
            condition=1, relations=(i,), witness=(p1, c1, p2, c2),
            message=f"relation {i}: pair {p1} has {c1} completions "
                    f"but pair {p2} has {c2}")

    # Condition 3: coordinate permutations map classes onto classes; a
    # failure shows under one of the two generating transpositions.
    action = _coordinate_action(labels, nu)
    if isinstance(action, tuple):
        sigma, i = action
        return ViolationReport(
            condition=3, relations=(i,), witness=(sigma,),
            message=f"image of relation {i} under coordinate "
                    f"permutation {sigma} is not a class")

    # Condition 2: intersection numbers, constant per class.
    sigs, bad = _class_signatures(labels, nu, n,
                                  full_check or nu <= FULL_CHECK_LIMIT, action)
    if bad:
        idx, sig = bad
        l = labels[idx]
        sig, want = Counter(sig), Counter(sigs[l])
        key = min(k for k in sig.keys() | want.keys() if sig[k] != want[k])
        t = ground.triple(idx)
        return ViolationReport(
            condition=2, relations=(l,) + key,
            witness=(t, key, sig[key], want[key]),
            message=f"count for pattern {key} at {t} in relation {l} is "
                    f"{sig[key]}, expected {want[key]}")

    return _scheme(partition, thirds, action, sigs)


def _scheme(partition, thirds, action, sigs) -> AstScheme:
    """A checked partition's scheme: valencies, action and signatures."""
    # (w, y, z) lies in R_i iff (y, z, w) lies in its (1, 2, 0)-image, and
    # (y, w, z) iff (y, z, w) lies in its (0, 2, 1)-image.
    rows = tuple((thirds[r], thirds[s], thirds[i]) for i, (r, s) in
                 enumerate(zip(action[(1, 2, 0)], action[(0, 2, 1)])))
    scheme = AstScheme(partition=partition, valencies=ValencyTable(rows))
    scheme.__dict__["action"] = action
    scheme.__dict__["tensor"] = IntersectionTensor(tuple(
        MappingProxyType(Counter(sig)) for sig in sigs))
    return scheme


def _orbit_scheme(partition: TriplePartition) -> AstScheme:
    """The scheme of the orbits on triples of a two-transitive group G, as
    :func:`permgroup.orbits_on_triples` labels them (which only a caller
    that built them from G can vouch for).  G keeps each class and
    commutes with each sigma, so condition 4 is read at the lead cells, 1
    on the fiber (0, 1), 3 at each sigma of each class's first cell and 2
    at that cell, all in the rows (0, 0) and (0, 1)."""
    nu, labels, n = partition.ground.nu, partition.labels, partition.m + 1
    head = labels[:2 * nu]
    if (head[0], head[nu + 1], head[nu], head[1]) != (0, 1, 2, 3):
        raise ConsistencyError("orbit partition lead cells are not R_0..R_3")
    cells = _first_cells(head)
    triples = [(0,) + divmod(cell, nu) for cell in cells]
    action = MappingProxyType({sigma: tuple(
        labels[(t[sigma[0]] * nu + t[sigma[1]]) * nu + t[sigma[2]]]
        for t in triples) for sigma in COORD_PERMS})
    return _scheme(partition, tuple(map(head[nu:].count, range(n))), action,
                   _signatures(labels, nu, n, cells)[0])


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"nu": nu, "relations": [[[x, y, z], ...], ...]} with relations ordered
# R_0..R_m, triples lexicographic, all integers 0-based.

def scheme_json_chunks(obj):
    """The JSON text of a scheme or partition, one slab of one class at a
    time, each class in cube order: joined, the bytes of ``json.dumps``.

    One pass groups the cells of each slab x by class, as indices into the
    ``"y, z]"`` texts; a slab's piece of a class is joined from them when
    it is asked for, so a writer holds at most ν² triples' text at a
    time."""
    partition = obj.partition if isinstance(obj, AstScheme) else obj
    nu, labels, n = partition.ground.nu, partition.labels, partition.m + 1
    nu2 = nu * nu
    groups = [[] for _ in range(n)]
    appends = [group.append for group in groups]
    slabs = []
    for x in range(nu):
        for yz, label in enumerate(labels[x * nu2:(x + 1) * nu2]):
            appends[label](yz)
        order, ends = array("H" if nu2 <= 0x10000 else "I"), array("I", [0])
        for group in groups:
            order.extend(group)
            ends.append(len(order))
            group.clear()
        slabs.append((f", [{x}, ", order, ends))
    texts = [f"{y}, {z}]" for y in range(nu) for z in range(nu)]
    yield f'{{"nu": {nu}, "relations": ['
    for label in range(n):
        # ", [x, ".join(["", "y, z]", ..]) puts ", [x, " before each cell
        # of the slab, so the slabs concatenate; a class's first ", " is cut.
        cut = 2
        yield "[" if label == 0 else ", ["
        for lead, order, ends in slabs:
            piece = lead.join(chain(("",), map(
                texts.__getitem__, order[ends[label]:ends[label + 1]])))
            if piece:
                yield piece[cut:]
                cut = 0
        yield "]"
    yield "]}\n"


def scheme_to_json(obj) -> str:
    """The JSON text of a scheme or partition (see
    :func:`scheme_json_chunks`)."""
    return "".join(scheme_json_chunks(obj))


def read_text(path) -> str:
    """The UTF-8 text of a file; an unreadable or undecodable file raises
    :class:`StructuralError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read {path!r}: {exc}") from exc


def json_object(text: str, what: str, *keys) -> dict:
    """The JSON object in ``text``, which must hold ``keys``; anything else
    raises :class:`StructuralError`."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError included
        raise StructuralError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise StructuralError(
            f"{what} JSON needs {' and '.join(map(repr, keys))}")
    return data


def json_int(data: dict, key: str) -> int:
    """``data[key]``, which must be a JSON integer: not a bool, a float or
    a string."""
    if type(data[key]) is not int:
        raise StructuralError(f"bad {key!r}: {data[key]!r}")
    return data[key]


_bulk_head = re.compile(r'\{"nu": ([1-9][0-9]{0,9}), "relations": \[').match


def _bulk_cube(text: str):
    """The cube of text in the writer's exact spelling, each class a run of
    triples for every x in turn (as in a scheme), or None.  Each run splits
    on ``"], [x, "`` into ``"y, z"`` keys of a dict of the nu^2 cells; with
    all text read, nu^3 pieces and no cell left unfilled, the classes
    partition the cube.  The cube is widened to ``'H'`` at the 256th class,
    as :func:`cube_typecode` asks."""
    head = _bulk_head(text)
    nu = int(head[1]) if head else 0
    if nu < 3 or len(text) < 7 * nu**3:
        return None
    cube, at, placed = _unfilled_cube(nu, "B"), head.end(), 0
    pairs = {f"{y}, {z}": y * nu + z for y in range(nu) for z in range(nu)}
    for label in range(LABEL_LIMIT):
        if label == 0xFF:
            cube = relabel(cube, tuple(range(0xFF)) + (LABEL_LIMIT,))
        end = text.find("]]", at)
        if end < 0 or not text.startswith("[[0, ", at):
            return None
        starts = [at + 1]       # of the runs; all but the first follow "], "
        for x in range(1, nu):
            found = text.find(f"[{x}, ", starts[-1], end)
            if found < 0 or not text.startswith("], ", found - 3):
                return None
            starts.append(found)
        try:
            for x, (start, stop) in enumerate(zip(
                    starts, [found - 3 for found in starts[1:]] + [end])):
                lead = f"[{x}, "
                cells = text[start + len(lead):stop].split("], " + lead)
                placed += len(cells)
                deque(map(memoryview(cube)[x * nu * nu:].__setitem__,
                          map(pairs.__getitem__, cells),
                          repeat(label, len(cells))), 0)
        except KeyError:
            return None
        at = end + 4
        if not text.startswith(", ", end + 2):
            break
    # The mark is searched in the bytes, far faster than in the cells; in an
    # 'H' cube a hit at an odd offset only sends the text to json.loads,
    # which reads it alike.
    unfilled = array(cube.typecode, [_UNFILLED[cube.typecode]]).tobytes()
    if (text[end + 2:] not in ("]}", "]}\n") or placed != nu**3
            or unfilled in cube.tobytes()):
        return None
    return cube


def partition_from_json(text: str) -> TriplePartition:
    """Read scheme JSON; malformed input raises :class:`StructuralError`.

    The exact spelling of this package and ``json.dumps(sort_keys=True)``
    is placed run by run (:func:`_bulk_cube`); any other text, malformed
    files included, is parsed whole by ``json.loads``, which gives the
    error."""
    cube = _bulk_cube(text)
    if cube is not None:
        return TriplePartition._of(GroundSet(round(len(cube) ** (1 / 3))), cube)
    data = json_object(text, "scheme", "nu", "relations")
    ground = GroundSet(json_int(data, "nu"))
    if not isinstance(data["relations"], list):
        raise StructuralError("'relations' must be a list")
    return TriplePartition(ground, data["relations"])
