"""Independent brute-force oracles used to cross-check the library.

Everything here is written straight from the defining conditions with
plain set/dict scans and no reuse of library internals, so a library bug
cannot hide in a shared code path.
"""

from itertools import permutations, product


def naive_trivial_relations(nu):
    r0 = {(x, x, x) for x in range(nu)}
    r1 = {(x, y, y) for x in range(nu) for y in range(nu) if x != y}
    r2 = {(y, x, y) for x in range(nu) for y in range(nu) if x != y}
    r3 = {(y, y, x) for x in range(nu) for y in range(nu) if x != y}
    return [r0, r1, r2, r3]


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
