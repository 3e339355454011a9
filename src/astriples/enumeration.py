"""Exhaustive generation of schemes up to isomorphism.

Candidates are built from the invariance group's orbits on the
all-distinct triples (the nontrivial cells): every scheme whose
nontrivial relations are unions of those orbits corresponds to a set
partition of the orbit blocks.  The search walks restricted-growth
colorings of the blocks in lexicographic order and prunes hard, testing
before it changes any state:

* third-valency bookkeeping: each class packs its per-pair completion
  counts into one int, so the bound test is one addition and one mask;
  the first block to complete a pair (fixed before the search) locks the
  classes and their valencies, all nonzero and no count above them, and
  as they sum to nu - 2 the bound then makes every completed pair exact;
* coordinate-permutation maps: the image of a block under a coordinate
  permutation sigma is again a block, so colors must induce one class
  bijection F_sigma with color(sigma(b)) = F_sigma(color(b)) for every
  block.  Each such constraint is tested against that one map at the
  later of its two blocks;
* forward checking through the maps (Haralick & Elliott, Artificial
  Intelligence 14, 1980): placing a block, or adding a map entry, forces
  the color of each uncolored sigma-image of a block whose class the map
  defines, and in turn of the blocks each forced one reaches.  A forced
  block's counts join its class's row at once, so the bound tests, the
  lock's included, see them; a second color or a passed bound ends the
  node.  Every survivor meets the maps and the bounds, so only subtrees
  without a survivor are cut.  Forced colors are undone last in, first
  out, and a forced block is only tried in its color.

Survivors are verified outright.  The first survivor of each isomorphism
class represents it.  Representatives are sorted by class count, and
canonical forms are taken only to order those whose class counts tie.
Every candidate is a union of invariance orbits, so invariant by
construction: the circulant census checks no survivor for circulance.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache
from itertools import permutations as _point_perms
from itertools import product

from .core import (COORD_PERMS, AstScheme, GroundSet, TriplePartition,
                   ViolationReport, cube_typecode, trivial_cube, verify_ast)
from .errors import PreconditionError, SizeGuardError
from .permgroup import PermutationGroup, _forest, close, is_transitive
from .record import Record

#: Guards: full search with no invariance, and with a transitive group.
TRIVIAL_GROUP_NU_LIMIT = 6
GROUP_NU_LIMIT = 8

#: Exact canonical forms scan all point permutations up to this size.
CANONICAL_NU_LIMIT = 6


class EnumerationTask(Record):
    """What to enumerate: ground set, invariance group, filters."""

    ground: GroundSet
    invariance: PermutationGroup | None = None
    symmetric_only: bool = False
    max_nontrivial_classes: int | None = None
    allow_large: bool = False
    node_limit: int | None = None


class AstIsomorphism(Record):
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
    orbits = _forest(range(len(cells)), acts, len(cells))[0]
    return sorted((tuple(sorted(cells[i] for i in orbit))
                   for orbit in orbits), key=lambda block: block[0])


def _check_guards(task: EnumerationTask):
    bound = task.max_nontrivial_classes
    if bound is not None and bound < 1:
        raise PreconditionError(
            f"max_nontrivial_classes must be at least 1, got {bound}")
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
    # One class map F per coordinate permutation sigma, defined as colors
    # are placed: F(color(b)) = color(sigma(b)).  Each constraint is tested
    # at the later of its two blocks, through F or its inverse, so block b
    # holds (m, m_inv, other, images, is_f) meaning m[color(b)] =
    # color(other), where is_f tells whether m is F and images is sigma on
    # blocks.  ``arrows`` holds each F with its sigma, to force colors
    # ahead; no inverse is followed, as sigma's inverse is a coordinate
    # permutation too and the checks keep its map equal to F's inverse.
    checks = [[] for _ in range(n_blocks)]
    arrows = []
    for images in sigma_images:
        fwd, inv = [-1] * (limit + 1), [-1] * (limit + 1)
        arrows.append((fwd, images))
        for src, dst in enumerate(images):
            if dst <= src:
                checks[src].append((fwd, inv, dst, images, True))
            else:
                checks[dst].append((inv, fwd, src, images, False))

    # Blocks before b are placed; a later block with a color is forced.
    colors = [-1] * n_blocks
    rows, bounds = [], []          # per class: counts, slack of its bound
    members = []                   # per class: placed and forced blocks,
                                   # whose counts its row holds
    trail = []                     # blocks colored, in order
    marks = [0] * n_blocks         # per block: the trail length before it
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
        if colors[b] != -1:
            lasts[b] = colors[b]
            return colors[b]
        n = len(rows)
        lasts[b] = n if b <= lock and n < limit else n - 1
        return 0

    def force(queue):
        """Color the queued (block, color) pairs and every block their
        maps force in turn; False once a color or a bound conflicts."""
        while queue:
            u, color = queue.pop()
            if colors[u] != -1:
                if colors[u] != color:
                    return False
                continue
            colors[u] = color
            trail.append(u)
            members[color].append(u)
            rows[color] += vectors[u]
            if rows[color] + bounds[color] & high:
                return False
            for m, step in arrows:
                image, w = m[color], step[u]
                if image != -1 and colors[w] != image:
                    queue.append((w, image))
        return True

    def unplace(b):
        color = colors[b]
        for m, m_inv, target in logs[b]:
            m[color] = m_inv[target] = -1
        for u in reversed(trail[marks[b]:]):
            forced = colors[u]
            colors[u] = -1
            members[forced].pop()
            rows[forced] -= vectors[u]
        del trail[marks[b]:]
        if not rows[-1]:
            del rows[-1], bounds[-1], members[-1]
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
        row = (rows[color] if color < n else 0) + (
            vectors[b] if colors[b] == -1 else 0)
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
        added, queue = [], []
        for m, m_inv, other, images, is_f in checks[b]:
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
            # The new entry F(s) = t forces the image of each block of s.
            s, t = (color, target) if is_f else (target, color)
            if s < n:
                queue += [(images[a], t) for a in members[s]
                          if colors[images[a]] != t]
        else:
            if color == n:
                rows.append(0)
                bounds.append(slack[cap])
                members.append([])
            if b == lock:
                bounds[:] = [slack[v] for v in valencies]
            logs[b], marks[b] = added, len(trail)
            queue.append((b, color))
            if not force(queue):
                color = unplace(b) + 1
                continue
            b += 1
            color = visit(b)
            if b < n_blocks:
                continue
            yield tuple(colors)
            b -= 1
            color = unplace(b)
        color += 1


def enumerate_asts(task: EnumerationTask) -> list[AstScheme]:
    """All schemes whose nontrivial relations are unions of invariance
    orbits, one representative per isomorphism class, deterministically
    ordered by class count then canonical form."""
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
    for coloring in _search_colorings(nu, blocks, sigma_block_images,
                                      task.max_nontrivial_classes,
                                      task.node_limit):
        labels = array(cube_typecode(5 + max(coloring)), base)
        for block, color in zip(blocks, coloring):
            for idx in block:
                labels[idx] = 4 + color
        result = verify_ast(TriplePartition.from_labels(task.ground, labels))
        if isinstance(result, ViolationReport):
            continue
        # The first survivor of each isomorphism class represents it.
        if all(are_isomorphic(result, other) is None for other in found):
            found.append(result)
    return _ordered(found, nu)


def _ordered(schemes, nu):
    """Sorted by (m, key); the key is taken only for tied class counts."""
    key = canonical_key if nu <= CANONICAL_NU_LIMIT else AstScheme.serialized
    ties = Counter(scheme.m for scheme in schemes)
    return sorted(schemes, key=lambda scheme: (
        scheme.m, key(scheme) if ties[scheme.m] > 1 else ()))


def enumerate_circulant(nu: int, allow_large: bool = False
                        ) -> list[AstScheme]:
    """All circulant schemes on nu points up to isomorphism.

    Any scheme invariant under some full cycle is isomorphic to one
    invariant under the standard cycle, so enumerating with that one
    cycle is complete.  ``allow_large`` skips the guards.
    """
    if nu > GROUP_NU_LIMIT and not allow_large:
        raise SizeGuardError(f"circulant enumeration is guarded to "
                             f"nu <= {GROUP_NU_LIMIT}; pass allow_large "
                             "to override")
    ground = GroundSet(nu)
    cycle = tuple((i + 1) % nu for i in range(nu))
    group = close([cycle])
    return enumerate_asts(EnumerationTask(ground=ground, invariance=group,
                                          allow_large=allow_large))


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


@lru_cache(maxsize=None)
def _permuted_indices(nu):
    """Per point permutation p, the cells (p x, p y, p z) read in place of
    the all-distinct cells (x, y, z), in cube order; the identity first."""
    cells = [t for t in product(range(nu), repeat=3) if len(set(t)) == 3]
    return [tuple((p[x] * nu + p[y]) * nu + p[z] for x, y, z in cells)
            for p in _point_perms(range(nu))]


def canonical_key(scheme: AstScheme) -> tuple:
    """Lexicographically least relabeled form over all point bijections.

    Only the all-distinct cells move, read through cached index tables;
    labels are renamed by first occurrence, and a permutation is dropped
    once its prefix exceeds the best.  Exact but factorial in nu; guarded
    to nu <= CANONICAL_NU_LIMIT.
    """
    nu = scheme.nu
    if nu > CANONICAL_NU_LIMIT:
        raise SizeGuardError(
            f"canonical forms are exact only up to nu={CANONICAL_NU_LIMIT}")
    labels = scheme.labels
    tables, best = _permuted_indices(nu), None
    for src in tables:
        rename, key, tie = {}, [], best is not None
        for pos, idx in enumerate(src):
            label = rename.setdefault(labels[idx], len(rename) + 4)
            if tie and label != best[pos]:
                if label > best[pos]:
                    break
                tie = False
            key.append(label)
        else:
            if not tie:
                best = key
    out = list(labels)
    for idx, label in zip(tables[0], best):
        out[idx] = label
    return tuple(out)
