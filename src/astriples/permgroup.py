"""Finite permutation groups held as stabilizer chains.

Permutations are image tuples: p[i] is where point i goes.  A group is
built from its generators by a deterministic Schreier-Sims algorithm
(Sims 1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4) into a
base b_0, b_1, .. and, for each level i, a transversal of the orbit of b_i
under the pointwise stabilizer of b_0..b_{i-1}.  The order is the product
of the transversal sizes and membership is decided by sifting, so no
element is listed.  Given the order of a group holding every generator,
:func:`close` stops there and reads no more of them (Seress 2003).

Orbits come from one breadth-first routine, :func:`_forest`, which
records for each point the point and generator it was reached from; group
elements are composed along that forest only where they are needed (the
transversals of the chain, and Schreier's lemma for the stabilizer of
each pair orbit's least pair, closed once).  The label cube of the orbits
on triples is carried down the pair forest a row at a time, as bytes (as
a 16-bit array past 255 classes).
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property, partial
from itertools import chain, islice, permutations
from operator import itemgetter

from .core import (AstScheme, GroundSet, TriplePartition, cube_typecode,
                   relabel)
from .errors import (ConsistencyError, PreconditionError, SizeGuardError,
                     StructuralError, check_int)
from .record import Record

Perm = tuple[int, ...]

CLOSE_WORK_BUDGET = 10**8

#: Orbits on pairs and triples are computed up to this degree, checked
#: before anything of size degree^2 or degree^3 is allocated; 256 is the
#: largest degree of a built-in family (asl2/agl2 at q = 16).
ORBIT_DEGREE_LIMIT = 256

#: Exhaustive invariant-cycle search is limited to this many points.
CYCLE_SEARCH_LIMIT = 8

# The ordered pairs of distinct coordinates, in the order they are tried.
_COORD_PAIRS = tuple(permutations(range(3), 2))


def _is_perm(p: tuple, degree: int) -> bool:
    """Whether ``p`` holds each of 0..degree-1 once, as an ``int`` (not a
    bool, a float or a string)."""
    return (all(type(i) is int for i in p)
            and sorted(p) == list(range(degree)))


def check_perm(p) -> Perm:
    try:
        p = tuple(p)
    except TypeError:
        raise StructuralError(f"not a permutation: {p!r}") from None
    if not _is_perm(p, len(p)):
        raise StructuralError(f"not a permutation: {p!r}")
    return p


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(map(q.__getitem__, p))


def inverse_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_from_cycles(n: int, cycles) -> Perm:
    """Build a permutation on 0..n-1 from disjoint 0-based cycles; n is at
    most CLOSE_WORK_BUDGET, as one sift costs the degree in :func:`close`."""
    images = list(range(check_int("n", n, 1, CLOSE_WORK_BUDGET)))
    seen = set()
    try:
        listed = [tuple(cycle) for cycle in cycles]
    except TypeError:
        raise StructuralError(f"not a list of cycles: {cycles!r}") from None
    for cycle in listed:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if type(a) is not int or a in seen or not 0 <= a < n:
                raise StructuralError(f"bad cycle entry {a} in {cycles!r}")
            seen.add(a)
            images[a] = b
    return tuple(images)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths, including fixed points."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if not seen[i]:
            j, size = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                size += 1
            lengths.append(size)
    return tuple(sorted(lengths))


def parse_permutation_line(line: str, degree=None) -> Perm:
    """Parse a 0-based one-line image array like "2 0 1"."""
    tokens = line.split()
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise StructuralError(f"bad permutation line {line!r}")
    images = tuple(map(int, tokens))
    if degree is not None and len(images) != degree:
        raise StructuralError(
            f"expected degree {degree}, got {len(images)} images")
    return check_perm(images)


def generators_from_text(text: str) -> list[Perm]:
    """One permutation per non-empty line, all of the same degree."""
    perms = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        perms.append(parse_permutation_line(
            line, degree=len(perms[0]) if perms else None))
    if not perms:
        raise StructuralError("no permutations in generator text")
    return perms


class PermutationGroup(Record, eq=False):
    """A permutation group: its generators and a stabilizer chain.

    ``transversals[i]`` maps each point x of the orbit of ``base[i]`` under
    the pointwise stabilizer of ``base[:i]`` to a group element that
    carries x back to ``base[i]``.
    """

    degree: int
    generators: tuple[Perm, ...]
    base: tuple[int, ...]
    transversals: tuple[dict, ...]

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def __contains__(self, p):
        try:
            p = tuple(p)
        except TypeError:
            return False
        if not _is_perm(p, self.degree):
            return False
        residue, _ = _sift(p, self.base, self.transversals, 0)
        return residue == identity_perm(self.degree)

    @cached_property
    def pair_transversal(self):
        """Orbits on ordered pairs with their breadth-first forest, built
        once per group (see :func:`_pair_transversal`)."""
        return _pair_transversal(self)

    def __repr__(self):
        return (f"PermutationGroup(degree={self.degree}, "
                f"order={self.order}, generators={len(self.generators)})")


def _sift(g, base, transversals, level):
    """Strip g through the chain from ``level``; returns (residue, level
    where it left the chain, or len(base) if it passed every level)."""
    for i in range(level, len(base)):
        w = transversals[i].get(g[base[i]])
        if w is None:
            return g, i
        g = compose(g, w)
    return g, len(base)


def _forest(starts, actions, size):
    """Orbits of the points in ``starts`` under ``actions``, each a
    sequence holding the image of every point 0..size-1, with their
    breadth-first forest.  Each orbit lists its points in breadth-first
    order from its root, the first start it contains; ``parent[d]`` is the
    point d was first reached from, by ``actions[via[d]]``, and a root is
    its own parent.  Returns ``(orbits, parent, via)``."""
    parent, via, orbits = [-1] * size, [0] * size, []
    indexed = list(enumerate(actions))
    for start in starts:
        if parent[start] < 0:
            parent[start] = start
            orbit = [start]
            for c in orbit:
                for i, act in indexed:
                    d = act[c]
                    if parent[d] < 0:
                        parent[d], via[d] = c, i
                        orbit.append(d)
            orbits.append(orbit)
    return orbits, parent, via


def _tree_elements(parent, via, gens, degree):
    """``u(c)``: the product of ``gens[via[d]]`` along the forest's path
    from c's root down to c, an element carrying the root to c; each is
    composed once, from its parent's."""
    memo = {}

    def u(c):
        path = []
        while c not in memo and parent[c] != c:
            path.append(c)
            c = parent[c]
        g = memo[c] if c in memo else identity_perm(degree)
        for d in reversed(path):
            g = memo[d] = compose(g, gens[via[d]])
        return g
    return u


def close(generators, degree=None, order=None) -> PermutationGroup:
    """The group generated by an iterable of generators (an empty one
    needs a ``degree``), as a stabilizer chain.

    Given the ``order`` of a group the caller proves holds every
    generator, it stops once the basic orbit lengths multiply to it,
    reading no more generators (the known-order stop of Seress 2003), and
    keeps as ``generators`` those read.  A chain above or below the order
    raises :class:`ConsistencyError`, and work past the guard
    :data:`CLOSE_WORK_BUDGET`, (base length + 1) * degree per sift,
    raises :class:`SizeGuardError`.
    """
    gens = map(check_perm, generators)
    if degree is None:
        first = next(gens, None)
        if first is None:
            raise PreconditionError("empty generator list needs a degree")
        degree, gens = len(first), chain([first], gens)
    check_int("degree", degree, 1, CLOSE_WORK_BUDGET)
    if order is not None:
        check_int("order", order, 1)
    ident = identity_perm(degree)
    base, strong, trans, work, read = [], [], [], 0, []

    def join(g, top):
        # A residue h that fixes base[:level] joins the strong generators
        # of levels top..level; the base grows when h fixes every base
        # point.  Returns the level, or None when g sifts to the identity.
        nonlocal work
        work += (len(base) + 1) * degree
        if work > CLOSE_WORK_BUDGET:
            raise SizeGuardError(f"group closure exceeds the work budget "
                                 f"{CLOSE_WORK_BUDGET}")
        h, level = _sift(g, base, trans, top)
        if h == ident:
            return None
        if level == len(base):
            base.append(next(x for x in range(degree) if h[x] != x))
            strong.append([])
            trans.append(None)
        for i in range(top, level + 1):
            strong[i].append(h)
            (orbit,), parent, via = _forest([base[i]], strong[i], degree)
            u = _tree_elements(parent, via, strong[i], degree)
            trans[i] = {x: inverse_perm(u(x)) for x in orbit}
        if order and math.prod(map(len, trans)) > order:
            raise ConsistencyError(f"the generators give a group of order "
                                   f"more than {order}")
        return level

    # the order is tested before a generator is pulled: a stream may be long
    while (math.prod(map(len, trans)) != order
           and (g := next(gens, None)) is not None):
        if len(g) != degree:
            raise PreconditionError(f"a generator's degree is not {degree}")
        read.append(g)
        join(g, 0)
    # Sims: once the levels below i are complete, every Schreier generator
    # u_x s u_{s(x)}^-1 of level i must sift through them to the identity.
    i = len(base) - 1
    while i >= 0 and math.prod(map(len, trans)) != order:
        schreier = (compose(compose(inverse_perm(w), s), trans[i][s[x]])
                    for x, w in trans[i].items() for s in strong[i])
        level = next(filter(None, (join(g, i + 1) for g in schreier)), None)
        i = i - 1 if level is None else level
    if order and math.prod(map(len, trans)) != order:
        raise ConsistencyError(f"the generators give an order below {order}")
    return PermutationGroup(degree=degree, generators=tuple(read),
                            base=tuple(base), transversals=tuple(trans))


def group_from_elements(degree, seed_generators, order) -> PermutationGroup:
    """:func:`close` of the seeds of a group of the known ``order``."""
    return close(seed_generators, degree=degree, order=order)


def is_transitive(group: PermutationGroup) -> bool:
    n = group.degree
    return len(_forest(range(n), group.generators, n)[0]) == 1


def _pair_transversal(group: PermutationGroup):
    """Orbits on ordered pairs, flat indices x * degree + y, with their
    breadth-first forest under the generators (see :func:`_forest`); each
    orbit's root is its least pair."""
    n = check_int("degree", group.degree, 1, ORBIT_DEGREE_LIMIT)
    acts = [[a + b for a in [x * n for x in g] for b in g]
            for g in group.generators]
    return _forest(range(n * n), acts, n * n)


def _row_keys(group: PermutationGroup, orbit, u) -> list[int]:
    """Key each cell (r, z) of the least pair r of a pair orbit by the
    least cell r * degree + min(o) of its orbit on triples, where o is the
    orbit of z under the stabilizer of r.

    By Schreier's lemma the products u(c) g u(g(c))^-1 over the pairs c of
    the orbit and the generators g generate that stabilizer, which has
    order |G| / |orbit|: :func:`close` reads them only until it reaches
    that order.  ``u`` is the pair forest's :func:`_tree_elements`.
    """
    n, r = group.degree, orbit[0]
    sides = ((compose(u(c), g), u(g[c // n] * n + g[c % n]))
             for c in orbit for g in group.generators)
    stab = close((compose(h, inverse_perm(ud)) for h, ud in sides if h != ud),
                 n, order=group.order // len(orbit))
    points = _forest(range(n), stab.generators, n)[0]
    key = {x: r * n + p[0] for p in points for x in p}
    return [key[x] for x in range(n)]


def is_two_transitive(group: PermutationGroup) -> bool:
    """Single orbit on ordered pairs of distinct points."""
    n = group.degree
    return sum(1 for orbit in group.pair_transversal[0]
               if orbit[0] % (n + 1)) == 1


def pair_orbits(group: PermutationGroup) -> list[tuple]:
    """Orbits on ordered distinct pairs, each as a sorted tuple of pairs."""
    n = group.degree
    return [tuple(divmod(c, n) for c in sorted(orbit))
            for orbit in group.pair_transversal[0] if orbit[0] % (n + 1)]


def orbits_on_triples(group: PermutationGroup) -> TriplePartition:
    """Orbit partition of the cube under the diagonal action.

    For two-transitive groups the four trivial orbits come first in their
    standard order; remaining classes are ordered by least representative.
    Each pair orbit's root row is labelled from its stabilizer's orbits
    (:func:`_row_keys`), and the row of a pair d reached from c by the
    generator g is the row of c gathered through g^-1, as the label of
    (d, g(z)) is that of (c, z).
    """
    n, ground = group.degree, GroundSet(group.degree)
    orbits, parent, via = group.pair_transversal
    u = _tree_elements(parent, via, group.generators, n)
    keys = [_row_keys(group, orbit, u) for orbit in orbits]
    order = sorted(set().union(*keys))
    if is_two_transitive(group):
        # R_0..R_3 first, keyed by their least cells (0, 0, 0), (0, 1, 1),
        # (0, 1, 0) and (0, 0, 1), in the rows of the roots 0 and 1
        lead = [keys[0][0], keys[1][1], keys[1][0], keys[0][1]]
        order = lead + [key for key in order if key not in lead]
    rank = {key: label for label, key in enumerate(order)}
    typecode = cube_typecode(len(order))
    make = bytes if typecode == "B" else partial(array, typecode)
    gathers = [itemgetter(*inverse_perm(g)) for g in group.generators]
    rows, sizes = [b""] * (n * n), [0] * len(order)
    for orbit, row in zip(orbits, keys):
        rows[orbit[0]] = make(map(rank.__getitem__, row))
        for label in rows[orbit[0]]:    # each row of the orbit permutes it
            sizes[label] += len(orbit)
        for d in islice(orbit, 1, None):
            rows[d] = make(gathers[via[d]](rows[parent[d]]))
    return TriplePartition._of(ground, array(typecode, b"".join(rows)),
                               tuple(sizes))


def two_point_stabilizer_orbits(group: PermutationGroup, x: int, y: int):
    """Orbits of the pointwise stabilizer of (x, y) on the remaining points.

    For a two-transitive group these are in bijection with the nontrivial
    relations of its orbit scheme, with sizes the third valencies.
    """
    n = group.degree
    if check_int("x", x, 0) == check_int("y", y, 0):
        raise PreconditionError("stabilizer points must be distinct")
    if max(x, y) >= n:
        raise PreconditionError(f"points ({x}, {y}) out of range")
    if not is_two_transitive(group):
        raise PreconditionError("two-point stabilizer orbits are only "
                                "meaningful for two-transitive groups here")
    # (x, y) is in the orbit of (0, 1): u carries (0, 1, w) to (x, y, u[w])
    orbits, parent, via = group.pair_transversal
    u = _tree_elements(parent, via, group.generators, n)
    buckets = {}
    for z, key in sorted(zip(u(x * n + y), _row_keys(group, orbits[1], u))):
        if z != x and z != y:
            buckets.setdefault(key, []).append(z)
    return [tuple(b) for b in buckets.values()]


def _scheme_perm(scheme: AstScheme, p, full_cycle=False) -> Perm:
    """``p`` as a permutation of the scheme's points (with ``full_cycle``,
    one cycle through all of them), else an error."""
    p = check_perm(p)
    if len(p) != scheme.nu:
        raise PreconditionError("permutation degree differs from ground set")
    if full_cycle and cycle_type(p) != (scheme.nu,):
        raise PreconditionError(f"{p!r} is not a single full cycle")
    return p


def _fixes(cube, nu: int, p: Perm) -> bool:
    """Whether each cell (x, y, z) of the cube holds the label of
    (p[x], p[y], p[z]).  Row (x, y) is compared with row (p[x], p[y])
    read in the order p, up to the first row that differs."""
    move = itemgetter(*p)
    for x in range(nu):
        for y in range(nu):
            row, image = (x * nu + y) * nu, (p[x] * nu + p[y]) * nu
            if move(cube[image:image + nu]) != tuple(cube[row:row + nu]):
                return False
    return True


def is_invariant(scheme: AstScheme, label: int, p) -> bool:
    """True iff the diagonal action of p maps class ``label`` onto
    itself."""
    p = _scheme_perm(scheme, p)
    table = [0] * (scheme.m + 1)
    table[scheme.check_label(label)] = 1
    return _fixes(relabel(scheme.labels, table), scheme.nu, p)


def is_circulant_ast(scheme: AstScheme, cycle) -> bool:
    """True iff the label cube, so every class, is invariant under the
    given full cycle (hence under the cyclic group it generates)."""
    return _fixes(scheme.labels, scheme.nu, _scheme_perm(scheme, cycle, True))


def find_invariant_cycle(scheme: AstScheme):
    """Exhaustive search for a full cycle witnessing circulance, or None.

    Off the default paths: cost grows as (nu-1)!, so it is guarded to
    nu <= CYCLE_SEARCH_LIMIT.
    """
    nu = check_int("nu", scheme.nu, 3, CYCLE_SEARCH_LIMIT)
    for rest in permutations(range(1, nu)):
        cycle = [0] * nu
        for x, y in zip((0,) + rest, rest + (0,)):
            cycle[x] = y
        if _fixes(scheme.labels, nu, cycle):
            return tuple(cycle)
    return None


def is_thin(scheme: AstScheme, label: int, a: int, b: int) -> bool:
    """True iff projecting the triples of class ``label`` to coordinates
    (a, b) is a bijection onto the ordered distinct pairs, that is, iff
    its valency in the third coordinate 3 - a - b is 1 (exact by
    condition 1).  Coordinates are 0-based."""
    if not (type(a) is type(b) is int and (a, b) in _COORD_PAIRS):
        raise PreconditionError("projection coordinates must be two "
                                "different ones of 0, 1, 2")
    return scheme.valencies.rows[scheme.check_label(label)][3 - a - b] == 1


def cycle_orbits_on_relation(scheme: AstScheme, label: int,
                             cycle) -> list[tuple]:
    """Orbits of the cyclic group generated by ``cycle`` on class
    ``label``, each as its sorted triples, ordered by least triple.  On a
    class the permutation does not fix, an orbit stops where it leaves
    the class."""
    p = _scheme_perm(scheme, cycle)
    scheme.check_label(label)
    nu, labels, triple = scheme.nu, scheme.labels, scheme.ground.triple
    seen, orbits = set(), []
    for start in range(len(labels)):
        cell, orbit = start, []
        while labels[cell] == label and cell not in seen:
            seen.add(cell)
            orbit.append(cell)
            x, y, z = triple(cell)
            cell = (p[x] * nu + p[y]) * nu + p[z]
        if orbit:
            orbits.append(tuple(map(triple, sorted(orbit))))
    return orbits


class ThinDecomposition(Record):
    """A split of a circulant relation into thin circulant pieces."""

    coords: tuple[int, int]
    pieces: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple, ...]


def thin_circulant_decomposition(scheme: AstScheme, label: int, cycle):
    """Split class ``label``, invariant under the full ``cycle``, into thin
    pieces that are unions of its cycle orbits.

    The coordinates (a, b) are the first pair on which the class has a
    nonzero valency n.  Each cycle orbit on the class projects onto one of
    the nu - 1 cycle orbits on ordered distinct pairs, and by condition 1
    exactly n of them project onto each; dealt one to each of n pieces,
    they make every piece thin.  Returns a :class:`ThinDecomposition`, or
    None for R_0, the one class with no nonzero valency.
    """
    cycle = _scheme_perm(scheme, cycle, True)
    if not is_invariant(scheme, label, cycle):
        raise PreconditionError(
            f"class {label} is not invariant under {cycle!r}")
    valencies = scheme.valencies.rows[label]
    coords = [(a, b) for a, b in _COORD_PAIRS if valencies[3 - a - b]]
    if not coords:
        return None
    (a, b), nu = coords[0], scheme.nu
    # The cycle orbit of the pair (x, y) is read off the gap from x to y
    # along the cycle.
    position, x = [0] * nu, 0
    for k in range(nu):
        position[x], x = k, cycle[x]
    orbits = cycle_orbits_on_relation(scheme, label, cycle)
    dealt = [0] * nu
    pieces = [[] for _ in range(valencies[3 - a - b])]
    for i, orbit in enumerate(orbits):
        gap = (position[orbit[0][b]] - position[orbit[0][a]]) % nu
        pieces[dealt[gap]].append(i)
        dealt[gap] += 1
    return ThinDecomposition(coords=(a, b), pieces=tuple(map(tuple, pieces)),
                             orbits=tuple(orbits))
