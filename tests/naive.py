"""Independent brute-force oracles used to cross-check the library.

Everything here is written straight from the defining conditions with
plain set/dict scans and no reuse of library internals, so a library bug
cannot hide in a shared code path.  The last sections are different:
they hold the first, plain versions of the census kernels, of the scheme
reader, of the permutation-group predicates on triple sets and of the
orbit routines, the census search and deduplication before forward
checking, the Gray-code two-graph scan over every graph, and the
row-by-row class product kernel on z-fibers, verbatim, so the fast
versions can be checked against them output for output.
The record classes are checked against the frozen dataclasses the stdlib
makes of the same declarations (:func:`dataclass_twin`).
"""

import dataclasses
import math
from array import array
from collections import Counter
from itertools import combinations, permutations, product
from itertools import permutations as _point_perms

from astriples.core import (COORD_PERMS, LABEL_LIMIT, AstScheme, GroundSet,
                            TriplePartition, ViolationReport, cube_typecode,
                            json_int, json_object, trivial_cube, verify_ast)
from astriples.designs import (TWO_GRAPH_SEARCH_LIMIT, TwoGraph, _clean_subsets,
                               _odd_triples, is_regular)
from astriples.enumeration import (CANONICAL_NU_LIMIT, _check_guards,
                                   _orbit_blocks, are_isomorphic,
                                   canonical_key)
from astriples.errors import (ConsistencyError, PreconditionError, RefusalError,
                              SizeGuardError, StructuralError, brief)
from astriples.permgroup import (ORBIT_DEGREE_LIMIT, PermutationGroup,
                                 ThinDecomposition, _sift, check_perm,
                                 compose, identity_perm, inverse_perm)


def naive_trivial_relations(nu):
    r0 = {(x, x, x) for x in range(nu)}
    r1 = {(x, y, y) for x in range(nu) for y in range(nu) if x != y}
    r2 = {(y, x, y) for x in range(nu) for y in range(nu) if x != y}
    r3 = {(y, y, x) for x in range(nu) for y in range(nu) if x != y}
    return [r0, r1, r2, r3]


def naive_classes(obj):
    """The classes of a scheme or partition as frozensets of triples, read
    cell by cell off its label cube."""
    partition = getattr(obj, "partition", obj)
    classes = [set() for _ in range(partition.m + 1)]
    for t, label in zip(product(range(partition.ground.nu), repeat=3),
                        partition.labels):
        classes[label].add(t)
    return list(map(frozenset, classes))


def permute_relation(triples, sigma) -> tuple:
    """Image of a set of triples under a coordinate permutation, sorted.

    ``sigma`` is a 0-based permutation of (0, 1, 2); the triple
    (x_0, x_1, x_2) maps to (x_sigma[0], x_sigma[1], x_sigma[2]).
    """
    sigma = tuple(sigma)
    if sorted(sigma) != [0, 1, 2]:
        raise PreconditionError(f"not a coordinate permutation: {sigma!r}")
    a, b, c = sigma
    return tuple(sorted({(t[a], t[b], t[c]) for t in triples}))


def is_symmetric_relation(triples) -> bool:
    """True iff the triples are fixed by all six coordinate permutations."""
    ts = set(triples)
    for sigma in permutations(range(3)):
        if any(t not in ts for t in permute_relation(ts, sigma)):
            return False
    return True


def naive_is_ast(nu, classes):
    """(ok, reason) for a list of triple sets, checked from the definition.

    Checks, in order: partition of the cube, at least one nontrivial
    class, the four fixed trivial classes, third-valency constancy,
    constancy of the principal regularity counts over every member of
    every class, and closure under the six coordinate permutations.
    """
    classes = [set(c) for c in classes]
    everything = set(product(range(nu), repeat=3))
    union = set()
    total = 0
    for c in classes:
        union |= c
        total += len(c)
    if union != everything or total != nu**3:
        return False, "not a partition"
    if len(classes) < 5:
        return False, "fewer than five classes"
    for i, want in enumerate(naive_trivial_relations(nu)):
        if classes[i] != want:
            return False, f"class {i} is not the trivial relation"
    # condition 1
    for i, c in enumerate(classes):
        counts = set()
        for x in range(nu):
            for y in range(nu):
                if x != y:
                    counts.add(sum(1 for z in range(nu) if (x, y, z) in c))
        if len(counts) != 1:
            return False, f"third valency of class {i} not constant"
    # condition 2
    n = len(classes)
    for l, cl in enumerate(classes):
        table = {}
        for (x, y, z) in cl:
            counts = {}
            for w in range(nu):
                key = (next(i for i in range(n) if (w, y, z) in classes[i]),
                       next(j for j in range(n) if (x, w, z) in classes[j]),
                       next(k for k in range(n) if (x, y, w) in classes[k]))
                counts[key] = counts.get(key, 0) + 1
            if not table:
                table = counts
            elif table != counts:
                return False, f"regularity counts differ within class {l}"
    # condition 3
    frozen = [frozenset(c) for c in classes]
    for sigma in permutations(range(3)):
        for i, c in enumerate(classes):
            image = frozenset((t[sigma[0]], t[sigma[1]], t[sigma[2]])
                              for t in c)
            if image not in frozen:
                return False, f"sigma-image of class {i} is not a class"
    return True, "ok"


def naive_valencies(nu, classes):
    """Per class (n1, n2, n3): the completions of a distinct pair in the
    first, middle and last coordinate, counted at every pair; asserts
    that each count is constant."""
    rows = []
    for i, c in enumerate(classes):
        row = []
        for make in (lambda a, b, w: (w, a, b), lambda a, b, w: (a, w, b),
                     lambda a, b, w: (a, b, w)):
            counts = {sum(1 for w in range(nu) if make(a, b, w) in c)
                      for a in range(nu) for b in range(nu) if a != b}
            assert len(counts) == 1, f"valency of class {i} not constant"
            row.append(counts.pop())
        rows.append(tuple(row))
    return tuple(rows)


def naive_intersection_number(nu, classes, i, j, k, rep):
    """p_ijk at one representative, by direct counting."""
    x, y, z = rep
    return sum(1 for w in range(nu)
               if (w, y, z) in classes[i]
               and (x, w, z) in classes[j]
               and (x, y, w) in classes[k])


def naive_full_tensor(nu, classes):
    """p_ijk^l computed at EVERY representative; asserts constancy."""
    n = len(classes)
    tensor = {}
    for l, cl in enumerate(classes):
        per_rep = []
        for rep in sorted(cl):
            counts = {}
            for w in range(nu):
                x, y, z = rep
                key = (next(a for a in range(n) if (w, y, z) in classes[a]),
                       next(b for b in range(n) if (x, w, z) in classes[b]),
                       next(c for c in range(n) if (x, y, w) in classes[c]))
                counts[key] = counts.get(key, 0) + 1
            per_rep.append(counts)
        assert all(c == per_rep[0] for c in per_rep), \
            f"constancy fails in class {l}"
        for (i, j, k), value in per_rep[0].items():
            tensor[i, j, k, l] = value
    return tensor


def naive_ternary_product(nu, a, b, c):
    """Four-loop product; a, b, c are dicts or indexables by (x, y, z)."""
    def val(h, x, y, z):
        return h[(x, y, z)] if isinstance(h, dict) else h[(x * nu + y) * nu + z]

    out = {}
    for x in range(nu):
        for y in range(nu):
            for z in range(nu):
                out[x, y, z] = sum(
                    val(a, w, y, z) * val(b, x, w, z) * val(c, x, y, w)
                    for w in range(nu))
    return out


def all_set_partitions(items):
    """Every set partition of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def naive_closure(gens):
    """Every product of a non-empty generator list, by breadth-first
    search over a set of image tuples."""
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    queue = [identity]
    for p in queue:
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def naive_triple_orbits(elements, n):
    """Orbits of the diagonal action on the cube, as a set of frozensets:
    each orbit is the image of its least triple under every element."""
    remaining = set(product(range(n), repeat=3))
    orbits = set()
    while remaining:
        x, y, z = min(remaining)
        orbit = frozenset((g[x], g[y], g[z]) for g in elements)
        remaining -= orbit
        orbits.add(orbit)
    return orbits


# ---------------------------------------------------------------------------
# The census kernels as first written, kept verbatim as references for the
# packed-counter search, the Gray-code two-graph scan and the table-driven
# canonical keys, and the scheme reader that parsed the whole text: same
# arguments, same results, in the same order.

def naive_search_colorings(nu, blocks, sigma_images, max_classes, node_limit):
    """Yield block colorings (class assignments) surviving the prunes."""
    n_blocks = len(blocks)
    n_pairs = nu * nu
    block_pairs = []
    remaining = [0] * n_pairs
    for block in blocks:
        counts = {}
        for idx in block:
            pid = idx // nu
            counts[pid] = counts.get(pid, 0) + 1
            remaining[pid] += 1
        block_pairs.append(tuple(counts.items()))

    colors = [-1] * n_blocks
    counts = []           # per class: per-pair completion counts
    valency = []          # per class: locked third valency, or None
    locked = [False]
    maps = [({}, {}) for _ in sigma_images]  # per sigma: forward, inverse
    nodes = [0]
    cap = nu - 2

    def try_place(b, color):
        """Apply block b -> color; return an undo closure or None."""
        new_class = color == len(counts)
        if new_class:
            if locked[0]:
                return None
            if max_classes is not None and len(counts) >= max_classes:
                return None
            counts.append([0] * n_pairs)
            valency.append(None)
        row = counts[color]
        bound = valency[color] if locked[0] else cap
        touched = []
        ok = True
        for pid, c in block_pairs[b]:
            row[pid] += c
            remaining[pid] -= c
            touched.append((pid, c))
            if row[pid] > bound:
                ok = False
                break
        map_log = []
        completed = []
        did_lock = False
        if ok:
            colors[b] = color
            for sidx, images in enumerate(sigma_images):
                other = images[b]
                if other > b:
                    continue
                fwd, inv = maps[sidx]
                target = colors[other] if other != b else color
                if color in fwd:
                    if fwd[color] != target:
                        ok = False
                        break
                elif target in inv:
                    ok = False
                    break
                else:
                    fwd[color] = target
                    inv[target] = color
                    map_log.append((sidx, color, target))
        if ok:
            completed = [pid for pid, _ in block_pairs[b] if remaining[pid] == 0]
            if completed:
                if not locked[0]:
                    did_lock = True
                    locked[0] = True
                    first = completed[0]
                    for c_idx, c_row in enumerate(counts):
                        valency[c_idx] = c_row[first]
                        if c_row[first] == 0:
                            ok = False
                if ok:
                    for pid in completed:
                        if any(c_row[pid] != valency[c_idx]
                               for c_idx, c_row in enumerate(counts)):
                            ok = False
                            break

        def undo():
            for pid, c in touched:
                row[pid] -= c
                remaining[pid] += c
            for sidx, key, target in map_log:
                fwd, inv = maps[sidx]
                del fwd[key]
                del inv[target]
            if did_lock:
                locked[0] = False
                for c_idx in range(len(valency)):
                    valency[c_idx] = None
            colors[b] = -1
            if new_class:
                counts.pop()
                valency.pop()

        if not ok:
            undo()
            return None
        return undo

    def walk(b):
        nodes[0] += 1
        if node_limit is not None and nodes[0] > node_limit:
            raise SizeGuardError(
                f"enumeration search exceeded {node_limit} nodes")
        if b == n_blocks:
            yield tuple(colors)
            return
        for color in range(len(counts) + 1):
            undo = try_place(b, color)
            if undo is not None:
                yield from walk(b + 1)
                undo()

    yield from walk(0)


def naive_sigma_consistent(coloring, sigma_images):
    """True iff, for every coordinate permutation, the colors of each block
    and of its image block pair up as a bijection between classes."""
    for images in sigma_images:
        pairs = {(coloring[b], coloring[image])
                 for b, image in enumerate(images)}
        if (len({src for src, _ in pairs}) != len(pairs)
                or len({dst for _, dst in pairs}) != len(pairs)):
            return False
    return True


def naive_verify_two_graph(v: int, triples) -> TwoGraph:
    """Check the even-intersection condition over all 4-subsets."""
    if v < 4:
        raise PreconditionError("a two-graph needs at least four points")
    cleaned = _clean_subsets(v, triples, 3, "triple")
    if len(set(cleaned)) != len(cleaned):
        raise StructuralError("duplicate triples")
    member = frozenset(cleaned)
    for quad in combinations(range(v), 4):
        count = sum(1 for t in combinations(quad, 3) if t in member)
        if count % 2:
            raise RefusalError(
                f"4-subset {quad} contains {count} triples (odd)",
                witness=quad)
    return TwoGraph(v=v, triples=cleaned)


def naive_find_regular_two_graphs(nu: int, proper: bool = True) -> list[TwoGraph]:
    """Exhaustive list of regular two-graphs on nu points.

    Every switching class contains exactly one graph in which the last
    point is isolated, so scanning all graphs on the first nu - 1 points
    visits each two-graph once; that is the symmetry pruning that keeps
    the search at 2^C(nu-1, 2) candidates.  ``proper`` drops the empty and
    complete families.
    """
    if nu < 4:
        raise PreconditionError("search needs at least four points")
    if nu > TWO_GRAPH_SEARCH_LIMIT:
        raise SizeGuardError(
            f"two-graph search is guarded to nu <= {TWO_GRAPH_SEARCH_LIMIT}")
    pairs = list(combinations(range(nu - 1), 2))
    all_triples = list(combinations(range(nu), 3))
    triple_pairs = [tuple(combinations(t, 2)) for t in all_triples]
    n_triples = len(all_triples)
    found = []
    for mask in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        triples = tuple(
            t for t, tp in zip(all_triples, triple_pairs)
            if sum(1 for pair in tp if pair in edges) % 2)
        if proper and (not triples or len(triples) == n_triples):
            continue
        tg = TwoGraph(v=nu, triples=triples)
        if is_regular(tg):
            found.append(tg)
    return sorted(found, key=lambda tg: tg.triples)


def naive_gray_code_find_regular_two_graphs(nu: int, proper: bool = True
                                            ) -> list[TwoGraph]:
    """Exhaustive list of regular two-graphs on nu points.

    Every switching class contains exactly one graph in which the last
    point is isolated, so scanning all graphs on the first nu - 1 points
    visits each two-graph once; that is the symmetry pruning that keeps
    the search at 2^C(nu-1, 2) candidates, walked in Gray-code order as
    neighbour bitmasks N.  {a, b} lies in |N(a) ^ N(b) - {a, b}| triples,
    or in nu - 2 minus that when a ~ b; a graph is dropped at its first
    pair off the count, and hits are confirmed by :func:`is_regular`.
    ``proper`` drops the empty and complete families (counts 0, nu - 2).
    """
    if nu < 4:
        raise PreconditionError("search needs at least four points")
    if nu > TWO_GRAPH_SEARCH_LIMIT:
        raise SizeGuardError(
            f"two-graph search is guarded to nu <= {TWO_GRAPH_SEARCH_LIMIT}")
    pairs = list(combinations(range(nu - 1), 2))
    flips = [(a, b, 1 << a | 1 << b) for a, b in pairs]
    cap = nu - 2
    nbr = [0] * nu
    found = []
    for step in range(1 << len(pairs)):
        if step:
            a, b, ab = flips[(step & -step).bit_length() - 1]
            nbr[a] ^= 1 << b
            nbr[b] ^= 1 << a
        # Pairs with the isolated last point first: their count is a degree.
        cover = nbr[0].bit_count()
        if nbr[1].bit_count() != cover or proper and not 0 < cover < cap:
            continue
        if any(n.bit_count() != cover for n in nbr[2:-1]):
            continue
        if any((nbr[a] ^ nbr[b]).bit_count() != cover if not nbr[a] >> b & 1
               else cap - ((nbr[a] ^ nbr[b]) & ~ab).bit_count() != cover
               for a, b, ab in flips):
            continue
        edges = [(a, b) for a, b, _ab in flips if nbr[a] >> b & 1]
        tg = TwoGraph(v=nu, triples=_odd_triples(nu, edges))
        if is_regular(tg):
            found.append(tg)
    return sorted(found, key=lambda tg: tg.triples)


def naive_canonical_key(scheme: AstScheme) -> tuple:
    """Lexicographically least relabeled form over all point bijections.

    Exact but factorial in nu; guarded to nu <= CANONICAL_NU_LIMIT.
    """
    nu = scheme.nu
    if nu > CANONICAL_NU_LIMIT:
        raise SizeGuardError(
            f"canonical forms are exact only up to nu={CANONICAL_NU_LIMIT}")
    labels = scheme.labels
    nu2 = nu * nu
    best = None
    for perm in _point_perms(range(nu)):
        relabeled = [0] * (nu * nu2)
        for (x, y, z), lab in zip(product(range(nu), repeat=3), labels):
            relabeled[(perm[x] * nu + perm[y]) * nu + perm[z]] = lab
        rename = {0: 0, 1: 1, 2: 2, 3: 3}
        out = []
        next_label = 4
        for lab in relabeled:
            if lab not in rename:
                rename[lab] = next_label
                next_label += 1
            out.append(rename[lab])
        key = tuple(out)
        if best is None or key < best:
            best = key
    return best


def naive_label_map(labels, images):
    """The map i -> j from ``labels`` (holding 0..m) to ``images`` cell by
    cell as a tuple, or the least i whose cells meet two images as an int:
    the ``set(zip(...))`` scan that ``core.label_map`` ran on every call,
    verbatim."""
    pairs = set(zip(labels, images))
    image = dict(pairs)
    if len(image) == len(pairs):
        return tuple(image[i] for i in range(len(image)))
    return min(i for i, j in pairs if image[i] != j)


def naive_partition_from_json(text):
    """Scheme JSON read as ``core.partition_from_json`` read all of it
    before it read one class at a time, verbatim: the text parsed whole by
    ``json.loads``, then the classes placed by
    :func:`naive_cube_from_relations`.  The ``"nu"`` rule is the library's
    ``json_int``."""
    data = json_object(text, "scheme", "nu", "relations")
    ground = GroundSet(json_int(data, "nu"))
    if not isinstance(data["relations"], list):
        raise StructuralError("'relations' must be a list")
    return TriplePartition._of(
        ground, naive_cube_from_relations(ground, data["relations"]))


def naive_cube_from_relations(ground, classes):
    """The label cube of relations that must partition the cube; the
    first problem found raises :class:`StructuralError`: the one loop
    ``core._cube_from_relations`` ran, verbatim."""
    nu = ground.nu
    rels, total = [], 0
    for rel in classes:
        try:
            total += len(rel)
        except TypeError:
            raise StructuralError(f"bad relation entry: {rel!r}") from None
        rels.append(rel)
    if len(rels) > LABEL_LIMIT:
        raise StructuralError(f"{len(rels)} classes; a partition holds at "
                              f"most {LABEL_LIMIT}")
    # The count comes first, so a tiny input with a huge nu allocates
    # nothing.
    if total < nu**3:
        raise StructuralError(
            f"the classes hold {total} triples, the cube has {brief(nu**3)}")
    # Then, with at least nu^3 triples and none placed twice, every cell is
    # covered.
    typecode = cube_typecode(len(rels))
    unfilled = 0xFF if typecode == "B" else LABEL_LIMIT
    labels = array(typecode, [unfilled]) * nu**3
    for i, triples in enumerate(rels):
        if not triples:
            raise StructuralError(f"class {i} is empty")
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
    return labels


# The permutation-group predicates on a relation over nu points, given as
# its sorted triples, as ``permgroup`` ran them before they read the label
# cube, verbatim but for the arguments (the decomposition with its
# backtracking search and budget).


def naive_is_invariant(nu, triples, p) -> bool:
    """True iff the diagonal action of p maps the relation onto itself."""
    p = check_perm(p)
    if len(p) != nu:
        raise PreconditionError("permutation degree differs from ground set")
    ts = set(triples)
    return all((p[x], p[y], p[z]) in ts for x, y, z in triples)


def naive_is_thin(nu, triples, a: int, b: int) -> bool:
    """True iff projecting triples to coordinates (a, b) is injective with
    image exactly the ordered distinct pairs.  Coordinates are 0-based."""
    if a == b:
        raise PreconditionError("projection coordinates must differ")
    if not (0 <= a <= 2 and 0 <= b <= 2):
        raise PreconditionError("projection coordinates must be in {0, 1, 2}")
    if len(triples) != nu * (nu - 1):
        return False
    seen = set()
    for t in triples:
        pair = (t[a], t[b])
        if pair[0] == pair[1] or pair in seen:
            return False
        seen.add(pair)
    return True


def naive_cycle_orbits_on_relation(triples, cycle) -> list[tuple]:
    """Orbits of the cyclic group generated by ``cycle`` on the relation."""
    cycle = check_perm(cycle)
    remaining = set(triples)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = []
        t = start
        while t in remaining:
            remaining.remove(t)
            orbit.append(t)
            t = (cycle[t[0]], cycle[t[1]], cycle[t[2]])
        orbits.append(tuple(sorted(orbit)))
    return orbits


def naive_thin_circulant_decomposition(nu, triples, cycle,
                                       node_budget=200_000):
    """Try to split a circulant relation into thin circulant pieces.

    Pieces are unions of cycle-orbits that each project bijectively onto
    the ordered distinct pairs under one coordinate pair.  Returns a
    :class:`ThinDecomposition` or None when no split is found within the
    budget; callers treat None as "flagged", not as a disproof.
    """
    orbits = naive_cycle_orbits_on_relation(triples, cycle)
    pair_target = nu * (nu - 1)
    if len(triples) % pair_target:
        return None
    n_pieces = len(triples) // pair_target
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            projections = []
            usable = True
            for orbit in orbits:
                pairs = {(t[a], t[b]) for t in orbit}
                if len(pairs) != len(orbit) or any(p == q for p, q in pairs):
                    usable = False
                    break
                projections.append(frozenset(pairs))
            if not usable:
                continue
            colors = [-1] * len(orbits)
            piece_pairs = [set() for _ in range(n_pieces)]
            budget = [node_budget]

            def assign(idx):
                if budget[0] <= 0:
                    return False
                budget[0] -= 1
                if idx == len(orbits):
                    return all(len(pp) == pair_target for pp in piece_pairs)
                used_new = False
                for color in range(n_pieces):
                    if not piece_pairs[color] and used_new:
                        break  # symmetry: first empty piece only
                    if not piece_pairs[color]:
                        used_new = True
                    if piece_pairs[color] & projections[idx]:
                        continue
                    piece_pairs[color] |= projections[idx]
                    colors[idx] = color
                    if assign(idx + 1):
                        return True
                    piece_pairs[color] -= projections[idx]
                    colors[idx] = -1
                return False

            if assign(0):
                pieces = tuple(
                    tuple(i for i, c in enumerate(colors) if c == color)
                    for color in range(n_pieces))
                return ThinDecomposition(coords=(a, b), pieces=pieces,
                                         orbits=tuple(orbits))
    return None


# ---------------------------------------------------------------------------
# The class-map search that tested each constraint only at the later of its
# two blocks, and the census that took a canonical key of every survivor,
# verbatim: same survivors, same schemes, in the same order.

def naive_class_map_search(nu, blocks, sigma_images, max_classes, node_limit):
    """Yield block colorings (class assignments) surviving the prunes:
    ``enumeration._search_colorings`` before it forced colors ahead."""
    n_blocks, cap = len(blocks), nu - 2
    # One int per class holds its counts, a field of ``width`` bits per
    # ordered pair; adding slack[v] sets a field's top bit iff it passes v.
    per_pair = [Counter(idx // nu for idx in block) for block in blocks]
    width = max([nu] + [max(c.values()) for c in per_pair]).bit_length() + 1
    ones = sum(1 << width * pid for pid in range(nu * nu))
    mask = (1 << width - 1) - 1
    high = ones * (mask + 1)
    slack = [(mask - v) * ones for v in range(cap + 1)]
    vectors = [sum(c << width * pid for pid, c in counts.items())
               for counts in per_pair]
    # The first block to complete a pair locks the classes and valencies.
    remaining = sum(per_pair, Counter())
    for lock, counts in enumerate(per_pair):
        remaining.subtract(counts)
        done = [pid for pid in counts if not remaining[pid]]
        if done:
            break
    first = width * done[0]
    # Valencies are nonzero and sum to nu - 2, which bounds the classes.
    limit = cap if max_classes is None else min(max_classes, cap)
    # One class map per coordinate permutation, defined as colors are
    # placed: F(color(b)) = color(image of b).  Each constraint is tested
    # at the later of its two blocks, through the map or its inverse, so
    # block b holds (m, m_inv, other) meaning m[color(b)] = color(other).
    checks = [[] for _ in range(n_blocks)]
    for images in sigma_images:
        fwd, inv = [-1] * (limit + 1), [-1] * (limit + 1)
        for src, dst in enumerate(images):
            if dst <= src:
                checks[src].append((fwd, inv, dst))
            else:
                checks[dst].append((inv, fwd, src))

    colors = [-1] * n_blocks
    rows, bounds = [], []          # per class: counts, slack of its bound
    logs = [()] * n_blocks         # per block: the map entries it added
    lasts = [0] * n_blocks         # per block: the last color to try
    nodes = 0

    def visit(b):
        """Count a node; return the first color to try at block b."""
        nonlocal nodes
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise SizeGuardError(
                f"enumeration search exceeded {node_limit} nodes")
        if b == n_blocks:
            return 0
        n = len(rows)
        start, last = 0, n if b <= lock and n < limit else n - 1
        # A map already defined on an earlier block's class forces the color.
        for _m, m_inv, other in checks[b]:
            if other != b and m_inv[colors[other]] != -1:
                start = max(start, m_inv[colors[other]])
                last = min(last, m_inv[colors[other]])
        lasts[b] = last
        return start

    def unplace(b):
        color, colors[b] = colors[b], -1
        rows[color] -= vectors[b]
        if not rows[color]:
            del rows[color], bounds[color]
        for m, m_inv, target in logs[b]:
            m[color] = m_inv[target] = -1
        if b == lock:
            bounds[:] = [slack[cap]] * len(bounds)
        return color

    b, color = 0, visit(0)
    while True:
        if color > lasts[b]:
            b -= 1
            if b < 0:
                return
            color = unplace(b) + 1
            continue
        n = len(rows)
        row = vectors[b] + (rows[color] if color < n else 0)
        if row + (bounds[color] if color < n else slack[cap]) & high:
            color += 1
            continue
        if b == lock:
            # No count above its valency: with the sums equal, every
            # completed pair then holds exactly the valencies.
            trial = rows[:color] + [row] + rows[color + 1:]
            valencies = [r >> first & mask for r in trial]
            if not all(v and not (r + slack[v]) & high
                       for r, v in zip(trial, valencies)):
                color += 1
                continue
        added = []
        for m, m_inv, other in checks[b]:
            target = colors[other] if other != b else color
            image = m[color]
            if image == target:
                continue
            if image != -1 or m_inv[target] != -1:
                for m, m_inv, target in added:
                    m[color] = m_inv[target] = -1
                break
            m[color], m_inv[target] = target, color
            added.append((m, m_inv, target))
        else:
            if color < n:
                rows[color] = row
            else:
                rows.append(row)
                bounds.append(slack[cap])
            if b == lock:
                bounds[:] = [slack[v] for v in valencies]
            logs[b], colors[b] = added, color
            b += 1
            color = visit(b)
            if b < n_blocks:
                continue
            yield tuple(colors)
            b -= 1
            color = unplace(b)
        color += 1


def naive_key_dedup_enumerate_asts(task) -> list[AstScheme]:
    """All schemes whose nontrivial relations are unions of invariance
    orbits, one representative per isomorphism class, deterministically
    ordered by class count then canonical form: ``enumerate_asts`` when
    it took a canonical key of every survivor up to CANONICAL_NU_LIMIT."""
    _check_guards(task)
    nu = task.ground.nu
    group = task.invariance
    if group is not None and group.degree != nu:
        raise PreconditionError("invariance group degree differs from nu")
    # The trivial relations, with 4 on the all-distinct cells to be colored.
    base = trivial_cube(nu, 4)
    cells = [idx for idx, label in enumerate(base) if label == 4]
    blocks = _orbit_blocks(task.ground, group, cells, task.symmetric_only)

    sigma_block_images = []
    if not task.symmetric_only:
        block_of = {idx: i for i, block in enumerate(blocks) for idx in block}
        leads = [task.ground.triple(block[0]) for block in blocks]
        for a, b, c in COORD_PERMS[1:]:
            sigma_block_images.append(tuple(
                block_of[(t[a] * nu + t[b]) * nu + t[c]] for t in leads))

    found = []
    seen_keys = {}
    for coloring in naive_class_map_search(nu, blocks, sigma_block_images,
                                           task.max_nontrivial_classes,
                                           task.node_limit):
        labels = array(cube_typecode(5 + max(coloring)), base)
        for block, color in zip(blocks, coloring):
            for idx in block:
                labels[idx] = 4 + color
        result = verify_ast(TriplePartition.from_labels(task.ground, labels))
        if isinstance(result, ViolationReport):
            continue
        if nu <= CANONICAL_NU_LIMIT:
            key = canonical_key(result)
            if key not in seen_keys:
                seen_keys[key] = result
                found.append((key, result))
        else:
            if all(are_isomorphic(result, other) is None
                   for _k, other in found):
                found.append((result.serialized(), result))
    found.sort(key=lambda pair: (pair[1].m, pair[0]))
    return [scheme for _key, scheme in found]


# ---------------------------------------------------------------------------
# The orbit routines as first written, verbatim but for their names: a
# breadth-first search that composes a group element for every point it
# reaches, the stabilizer chain built on it, and the triple orbits filled
# and relabelled cell by cell.  The pair transversal is rebuilt per call
# rather than cached on the group.

def naive_transversals(starts, gens, act, degree):
    """Orbits of ``gens``, acting by ``act(g, point)``, of the points in
    ``starts``.  Each orbit lists its points in breadth-first order from
    the first start it contains, and ``u`` maps each of them to an element
    carrying that start to it.  Returns ``(orbits, u)``."""
    u, orbits = {}, []
    for start in starts:
        if start not in u:
            u[start] = identity_perm(degree)
            orbit = [start]
            for c in orbit:
                for g in gens:
                    d = act(g, c)
                    if d not in u:
                        u[d] = compose(u[c], g)
                        orbit.append(d)
            orbits.append(orbit)
    return orbits, u


def naive_close(generators, degree=None,
                max_elements=10**7) -> PermutationGroup:
    """The group generated by a generator list, as a stabilizer chain.

    An empty generator list needs an explicit ``degree`` and yields the
    trivial group.  :class:`SizeGuardError` is raised as soon as the
    product of the transversal sizes, a lower bound on the order, passes
    ``max_elements``.
    """
    gens = [check_perm(g) for g in generators]
    if gens:
        degs = {len(g) for g in gens}
        if len(degs) != 1:
            raise PreconditionError(f"mixed generator degrees: {sorted(degs)}")
        degree = degs.pop()
    elif degree is None:
        raise PreconditionError("empty generator list needs a degree")
    ident = identity_perm(degree)
    base, strong, trans = [], [], []

    def join(g, top):
        # A residue h that fixes base[:level] joins the strong generators
        # of levels top..level; the base grows when h fixes every base
        # point.  Returns the level, or None when g sifts to the identity.
        h, level = _sift(g, base, trans, top)
        if h == ident:
            return None
        if level == len(base):
            base.append(next(x for x in range(degree) if h[x] != x))
            strong.append([])
            trans.append(None)
        for i in range(top, level + 1):
            strong[i].append(h)
            _, u = naive_transversals([base[i]], strong[i], tuple.__getitem__,
                                      degree)
            trans[i] = {x: inverse_perm(ux) for x, ux in u.items()}
        if math.prod(map(len, trans)) > max_elements:
            raise SizeGuardError(f"group exceeds {max_elements} elements")
        return level

    for g in gens:
        join(g, 0)
    # Sims: once the levels below i are complete, every Schreier generator
    # u_x s u_{s(x)}^-1 of level i must sift through them to the identity.
    i = len(base) - 1
    while i >= 0:
        schreier = (compose(compose(inverse_perm(w), s), trans[i][s[x]])
                    for x, w in trans[i].items() for s in strong[i])
        level = next(filter(None, (join(g, i + 1) for g in schreier)), None)
        i = i - 1 if level is None else level
    return PermutationGroup(degree=degree, generators=tuple(gens),
                            base=tuple(base), transversals=tuple(trans))


def naive_chain_elements(group: PermutationGroup) -> frozenset:
    """Every element of a group, one product of transversal entries per
    element: the ``elements`` view the library once kept, verbatim."""
    elements = [identity_perm(group.degree)]
    for trans in group.transversals:
        elements = [compose(e, w) for e in elements for w in trans.values()]
    return frozenset(elements)


def naive_pair_transversal(group: PermutationGroup):
    """Orbits on ordered pairs, with a transversal.

    Pairs are flat indices x * degree + y.  Returns ``(orbits, u)``: each
    orbit lists its pairs in breadth-first order from its least pair r,
    and ``u[c]`` is a group element carrying r to c.
    """
    n = group.degree
    if n > ORBIT_DEGREE_LIMIT:
        raise SizeGuardError(f"orbits on pairs and triples are guarded to "
                             f"degree <= {ORBIT_DEGREE_LIMIT}, got {n}")

    def on_pair(g, c):
        return g[c // n] * n + g[c % n]

    return naive_transversals(range(n * n), group.generators, on_pair, n)


def naive_triple_rows(group: PermutationGroup):
    """Whether the group is two-transitive, and ``row(c)``: the class
    label of (c, z) for each z.

    By Schreier's lemma the products u_c g u_{g(c)}^-1 over the pairs c of
    an orbit and the generators g generate the stabilizer of its least
    pair r.  Its orbits on points label row r, and row c is row r
    transported through u_c.  Labels are unique across pair orbits.
    """
    n = group.degree
    orbits, u = naive_pair_transversal(group)
    rows, orbit_of = [], {}
    for k, orbit in enumerate(orbits):
        orbit_of.update(dict.fromkeys(orbit, k))
        # The stabilizer has |G| / |orbit| elements: stop as soon as the
        # Schreier generators found so far generate that many.
        size, stab = group.order // len(orbit), set()
        for i, c in enumerate(orbit, 1):
            for g in group.generators:
                d = g[c // n] * n + g[c % n]
                h = compose(u[c], g)
                if h != u[d]:
                    stab.add(compose(h, inverse_perm(u[d])))
            if i & (i - 1) == 0 and naive_close(
                    stab, degree=n, max_elements=size).order == size:
                break
        points, _ = naive_transversals(range(n), stab, tuple.__getitem__, n)
        label = {x: k * n + p[0] for p in points for x in p}
        rows.append([label[x] for x in range(n)])

    def row(c):
        # u_c carries (r, w) to (c, u_c[w])
        out = [0] * n
        for w, label in zip(u[c], rows[orbit_of[c]]):
            out[w] = label
        return out
    return sum(1 for orbit in orbits if orbit[0] % (n + 1)) == 1, row


def naive_orbits_on_triples(group: PermutationGroup) -> TriplePartition:
    """Orbit partition of the cube under the diagonal action.

    For two-transitive groups the four trivial orbits come first in their
    standard order; remaining classes are ordered by least representative.
    """
    n = group.degree
    ground = GroundSet(n)
    two_transitive, row = naive_triple_rows(group)
    final = {}
    if two_transitive:
        lead = [row(c)[z] for c, z in ((0, 0), (1, 1), (n, 1), (n + 1, 0))]
        if len(set(lead)) != 4:
            raise ConsistencyError("trivial orbits collide")
        final = {label: i for i, label in enumerate(lead)}
    labels = []
    for c in range(n * n):
        r = row(c)
        for label in r:
            if label not in final:
                final[label] = len(final)
        labels += map(final.__getitem__, r)
    return TriplePartition.from_labels(ground, labels)


def naive_field_add(field, a, b):
    """GF(p^k) addition on coefficient digits, as first written."""
    if field.k == 1:
        return (a + b) % field.p
    return field.element(map(int.__add__, field.coeffs(a), field.coeffs(b)))


def naive_field_neg(field, a):
    """GF(p^k) negation on coefficient digits, as first written."""
    if field.k == 1:
        return (-a) % field.p
    return field.element(-c for c in field.coeffs(a))


def naive_field_mul(field, a, b):
    """GF(p^k) product: the schoolbook product of the coefficient lists,
    reduced by the monic modulus from the top degree down."""
    p, k, modulus = field.p, field.k, field.modulus
    product = [0] * (2 * k - 1)
    for i, ca in enumerate(field.coeffs(a)):
        for j, cb in enumerate(field.coeffs(b)):
            product[i + j] += ca * cb
    for top in range(2 * k - 2, k - 1, -1):
        c = product[top] % p
        for i in range(k + 1):
            product[top - k + i] -= c * modulus[i]
    return field.element(product[:k])


def naive_primitive_element(field) -> int:
    """The least primitive element, found by following each candidate's
    powers until they return to 1, as first written (products by
    :func:`naive_field_mul`)."""
    q = field.q
    for g in range(2, q):
        e, order = g, 1
        while e != 1:
            e = naive_field_mul(field, e, g)
            order += 1
        if order == q - 1:
            return g
    if q == 2:
        return 1
    raise ConsistencyError("no primitive element found")


# ---------------------------------------------------------------------------
# Record classes: the frozen dataclass of the same declaration.

def naive_zfibers(scheme: AstScheme) -> tuple[tuple[int, ...], ...]:
    """Per-class z-fibers: ``zfibers[l][x*nu + y]`` is the bitmask of
    the z with ``label(x, y, z) == l``."""
    nu = scheme.nu
    out = [[0] * (nu * nu) for _ in range(scheme.m + 1)]
    for idx, label in enumerate(scheme.labels):
        xy, z = divmod(idx, nu)
        out[label][xy] |= 1 << z
    return tuple(tuple(fib) for fib in out)


def naive_class_product_mismatch(scheme: AstScheme, i: int, j: int, k: int,
                                 expected, fibers=None):
    """The row kernel the whole-cube ``class_product_mismatch`` replaced:
    first cell where A_i A_j A_k differs from sum_l expected[l] A_l, as
    ``(cell, got, want)``, or None.  ``fibers`` defaults to
    :func:`naive_zfibers` of the scheme.

    Row (x, y) of the product, as a vector over z, is the sum over
    w in zfib[k][x, y] of zfib[i][w, y] & zfib[j][x, w].  The sum is kept
    in bit planes (plane b holds bit b of every count) by carry-save adds.
    Classes are disjoint, so plane b of the expected row is the OR of
    zfib[l][x, y] over the l whose coefficient has bit b set.
    """
    m = scheme.m
    for label in (i, j, k):
        if not 0 <= label <= m:
            raise PreconditionError(
                f"relation label {label} out of range 0..{m}")
    if len(expected) != m + 1:
        raise PreconditionError(
            f"need {m + 1} coefficients, got {len(expected)}")
    nu = scheme.nu
    if fibers is None:
        fibers = naive_zfibers(scheme)
    # Expected planes per row; a row stays [] when its expectation is 0
    # and becomes None when it meets a class no count can equal.
    wants = [[]] * (nu * nu)
    unreachable = []    # fibers of negative or fractional coefficients
    for label, want in enumerate(expected):
        if not want:
            continue
        n = int(want)
        if n != want or n < 0:
            unreachable.append(fibers[label])
            continue
        bits = [b for b in range(n.bit_length()) if n >> b & 1]
        for xy, f in enumerate(fibers[label]):
            if f:
                row = wants[xy] + [0] * (bits[-1] + 1 - len(wants[xy]))
                for b in bits:
                    row[b] |= f
                wants[xy] = row
    for fib in unreachable:
        for xy, f in enumerate(fib):
            if f:
                wants[xy] = None
    fi, fj, fk = fibers[i], fibers[j], fibers[k]
    icols = [fi[y::nu] for y in range(nu)]   # icols[y][w] = zfib[i][w, y]
    xy = 0
    for x in range(nu):
        jrow = fj[x * nu:x * nu + nu]        # jrow[w] = zfib[j][x, w]
        for icol in icols:
            got = []
            ws = fk[xy]
            while ws:
                low = ws & -ws
                ws ^= low
                w = low.bit_length() - 1
                carry = icol[w] & jrow[w]
                if not carry:
                    continue
                for b, plane in enumerate(got):
                    got[b] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    got.append(carry)
            # Both plane lists end in a nonzero plane, so they are equal
            # exactly when every count in the row matches.
            if got != wants[xy]:
                return _naive_first_row_mismatch(scheme, expected, xy, got)
            xy += 1
    return None


def _naive_first_row_mismatch(scheme, expected, xy, got):
    """Decode the first cell of row ``xy`` whose count is not expected."""
    for idx in range(xy * scheme.nu, (xy + 1) * scheme.nu):
        z = idx % scheme.nu
        count = sum((plane >> z & 1) << b for b, plane in enumerate(got))
        want = expected[scheme.labels[idx]]
        if count != want:
            return scheme.ground.triple(idx), count, want
    raise ConsistencyError(f"row {xy} planes differ but no count does")


def dataclass_twin(cls, eq=True):
    """The class ``@dataclass(frozen=True, eq=eq)`` makes of the body of
    the record class ``cls``: its name, its own annotations as fields, its
    class attributes of those names as defaults and its
    ``__post_init__``, built by ``dataclasses.make_dataclass``."""
    own = cls.__dict__
    fields = [(name, kind, dataclasses.field(default=own[name]))
              if name in own else (name, kind)
              for name, kind in own["__annotations__"].items()]
    namespace = ({"__post_init__": own["__post_init__"]}
                 if "__post_init__" in own else {})
    return dataclasses.make_dataclass(cls.__name__, fields,
                                      namespace=namespace, frozen=True, eq=eq)
