"""Exhaustive generation of schemes up to isomorphism.

Candidates are built from the invariance group's orbits on the
all-distinct triples (the nontrivial cells): every scheme whose
nontrivial relations are unions of those orbits corresponds to a set
partition of the orbit blocks.  The search walks restricted-growth
colorings of the blocks in lexicographic order and prunes hard:

* third-valency bookkeeping: per-class completion counts of each ordered
  distinct pair may never exceed the class valency; the first fully
  assigned pair locks the number of classes and all their valencies, and
  every later pair must reproduce them exactly;
* coordinate-permutation maps: the image of a block under a coordinate
  permutation is again a block, so colors must induce a partial bijection
  on classes for each of the six permutations.

Survivors are verified outright and reduced modulo point relabeling.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import permutations as _point_perms
from itertools import product

from .core import (COORD_PERMS, AstScheme, GroundSet, TriplePartition,
                   ViolationReport, trivial_cube, verify_ast)
from .errors import PreconditionError, SizeGuardError
from .permgroup import (PermutationGroup, _transversals, close, cycle_type,
                        is_circulant_ast, is_transitive)

#: Guards: full search with no invariance, and with a transitive group.
TRIVIAL_GROUP_NU_LIMIT = 6
GROUP_NU_LIMIT = 8

#: Exact canonical forms scan all point permutations up to this size.
CANONICAL_NU_LIMIT = 6


@dataclass(frozen=True)
class EnumerationTask:
    """What to enumerate: ground set, invariance group, filters."""

    ground: GroundSet
    invariance: PermutationGroup | None = None
    symmetric_only: bool = False
    circulant_only: bool = False
    max_nontrivial_classes: int | None = None
    allow_large: bool = False
    node_limit: int | None = None


@dataclass(frozen=True)
class AstIsomorphism:
    """A point bijection mapping one scheme onto another, with the class
    relabeling it induces."""

    point_map: tuple[int, ...]
    class_map: tuple[int, ...]


def _orbit_blocks(ground, group, cells, symmetric):
    """Orbits of the invariance group on the given flat cell indices,
    optionally merged with their coordinate-permutation images; each
    block ascending, blocks ordered by least cell."""
    nu = ground.nu
    position = {idx: i for i, idx in enumerate(cells)}
    triples = list(map(ground.triple, cells))
    acts = [[position[(g[x] * nu + g[y]) * nu + g[z]] for x, y, z in triples]
            for g in (group.generators if group is not None else ())]
    if symmetric:
        acts += [[position[(t[a] * nu + t[b]) * nu + t[c]] for t in triples]
                 for a, b, c in COORD_PERMS[1:]]
    orbits, _ = _transversals(range(len(cells)), acts, list.__getitem__,
                              len(cells))
    return sorted((tuple(sorted(cells[i] for i in orbit))
                   for orbit in orbits), key=lambda block: block[0])


def _check_guards(task: EnumerationTask):
    nu = task.ground.nu
    if task.allow_large:
        return
    group = task.invariance
    if group is None or group.order == 1:
        limit = TRIVIAL_GROUP_NU_LIMIT
    elif is_transitive(group):
        limit = GROUP_NU_LIMIT
    else:
        limit = TRIVIAL_GROUP_NU_LIMIT
    if nu > limit:
        raise SizeGuardError(
            f"enumeration at nu={nu} exceeds the guard ({limit}) for this "
            "invariance group; pass allow_large to override")


def _search_colorings(nu, blocks, sigma_images, max_classes, node_limit):
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


def enumerate_asts(task: EnumerationTask) -> list[AstScheme]:
    """All schemes whose nontrivial relations are unions of invariance
    orbits, one representative per isomorphism class, deterministically
    ordered by class count then canonical form."""
    _check_guards(task)
    nu = task.ground.nu
    group = task.invariance
    if group is not None and group.degree != nu:
        raise PreconditionError("invariance group degree differs from nu")
    cycle = None
    if task.circulant_only:
        cycle = _transitive_cycle(group, nu)
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
    for coloring in _search_colorings(nu, blocks, sigma_block_images,
                                      task.max_nontrivial_classes,
                                      task.node_limit):
        labels = array("H", base)
        for block, color in zip(blocks, coloring):
            for idx in block:
                labels[idx] = 4 + color
        result = verify_ast(TriplePartition.from_labels(task.ground, labels))
        if isinstance(result, ViolationReport):
            continue
        if cycle is not None and not is_circulant_ast(result, cycle):
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


def _transitive_cycle(group, nu):
    if group is None:
        raise PreconditionError(
            "circulant enumeration needs a cyclic invariance group")
    for g in group.generators:
        if cycle_type(g) == (nu,):
            if group.order == nu:
                return g
    raise PreconditionError(
        "circulant enumeration needs the invariance group generated by a "
        "single full cycle")


def enumerate_circulant(nu: int) -> list[AstScheme]:
    """All circulant schemes on nu points up to isomorphism.

    Any scheme invariant under some full cycle is isomorphic to one
    invariant under the standard cycle, so enumerating with that one
    cycle is complete.
    """
    if nu > GROUP_NU_LIMIT:
        raise SizeGuardError(f"circulant enumeration is guarded to "
                             f"nu <= {GROUP_NU_LIMIT}")
    ground = GroundSet(nu)
    cycle = tuple((i + 1) % nu for i in range(nu))
    group = close([cycle])
    task = EnumerationTask(ground=ground, invariance=group,
                           circulant_only=True)
    return enumerate_asts(task)


def _class_profiles(scheme):
    return [(size,) + row for size, row in
            zip(scheme.partition.sizes, scheme.valencies.rows)]


def are_isomorphic(s: AstScheme, t: AstScheme):
    """A point bijection carrying the classes of s onto classes of t, or
    None.  Backtracking with class-size and valency-profile pruning."""
    if s.nu != t.nu or s.m != t.m:
        return None
    profiles_s = _class_profiles(s)
    profiles_t = _class_profiles(t)
    if sorted(profiles_s) != sorted(profiles_t):
        return None
    nu = s.nu
    ground = s.ground
    labels_s, labels_t = s.labels, t.labels
    point_map = [-1] * nu
    used = [False] * nu
    class_map = {i: i for i in range(4)}
    class_inv = {i: i for i in range(4)}

    map_log = []

    def check_new_point(depth):
        # all triples inside the assigned prefix that involve the new point
        for x, y, z in product(range(depth + 1), repeat=3):
            if depth not in (x, y, z):
                continue
            li = labels_s[(x * nu + y) * nu + z]
            lj = labels_t[(point_map[x] * nu + point_map[y]) * nu + point_map[z]]
            if li in class_map:
                if class_map[li] != lj:
                    return False
            elif lj in class_inv or profiles_s[li] != profiles_t[lj]:
                return False
            else:
                class_map[li] = lj
                class_inv[lj] = li
                map_log.append((li, lj))
        return True

    def backtrack(depth):
        if depth == nu:
            return True
        for img in range(nu):
            if used[img]:
                continue
            point_map[depth] = img
            used[img] = True
            mark = len(map_log)
            if check_new_point(depth) and backtrack(depth + 1):
                return True
            while len(map_log) > mark:
                li, lj = map_log.pop()
                del class_map[li]
                del class_inv[lj]
            used[img] = False
            point_map[depth] = -1
        return False

    if backtrack(0):
        cmap = tuple(class_map[i] for i in range(s.m + 1))
        return AstIsomorphism(point_map=tuple(point_map), class_map=cmap)
    return None


def canonical_key(scheme: AstScheme) -> tuple:
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
