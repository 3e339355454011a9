"""2-designs and two-graphs: verification, regularity, brute-force search."""

from __future__ import annotations

import json
from itertools import combinations

from .errors import RefusalError, StructuralError, check_int
from .record import Record

#: Bounds on the exhaustive regular-two-graph search and on the points of
#: a design or two-graph to check.
TWO_GRAPH_SEARCH_LIMIT = 9
POINT_LIMIT = 256


class TwoDesign(Record):
    """A verified 2-design: every point pair lies in exactly lam blocks."""

    v: int
    blocks: tuple[tuple[int, ...], ...]
    k: int
    lam: int

    @property
    def b(self) -> int:
        return len(self.blocks)


class TwoGraph(Record):
    """A verified two-graph: every 4-subset holds an even number of triples."""

    v: int
    triples: tuple[tuple[int, int, int], ...]

    @property
    def triple_set(self):
        return frozenset(self.triples)


def _clean_subsets(v, raw, size, what):
    cleaned = []
    try:
        entries = list(raw)
    except TypeError as exc:
        raise StructuralError(f"{what}s must be a list") from exc
    for entry in entries:
        try:
            block = tuple(sorted(entry))
        except TypeError as exc:
            raise StructuralError(f"bad {what} entry: {entry!r}") from exc
        if any(type(p) is not int for p in block):
            raise StructuralError(f"bad {what} entry: {entry!r}")
        if len(set(block)) != len(block):
            raise StructuralError(f"{what} {entry!r} repeats a point")
        if size is not None and len(block) != size:
            raise StructuralError(f"{what} {entry!r} does not have size {size}")
        if block and not (0 <= block[0] and block[-1] < v):
            raise StructuralError(f"{what} {entry!r} out of range for v={v}")
        cleaned.append(block)
    return tuple(sorted(cleaned))


def verify_design(v: int, blocks) -> TwoDesign:
    """Check constant pair coverage and uniform block size.

    Raises :class:`RefusalError` naming an uneven pair when the input is
    not a 2-design.
    """
    check_int("v", v, 2, POINT_LIMIT)
    cleaned = _clean_subsets(v, blocks, None, "block")
    if not cleaned:
        raise RefusalError("no blocks given")
    sizes = {len(b) for b in cleaned}
    if len(sizes) != 1:
        raise RefusalError(f"block sizes are not uniform: {sorted(sizes)}")
    k = sizes.pop()
    if k < 2:
        raise RefusalError("blocks must contain at least two points")
    coverage = {}
    for block in cleaned:
        for pair in combinations(block, 2):
            coverage[pair] = coverage.get(pair, 0) + 1
    lam = None
    for pair in combinations(range(v), 2):
        count = coverage.get(pair, 0)
        if lam is None:
            lam = count
        elif count != lam:
            raise RefusalError(
                f"pair coverage is not constant: {pair} lies in {count} "
                f"blocks, expected {lam}", witness=pair)
    return TwoDesign(v=v, blocks=cleaned, k=k, lam=lam)


def _odd_triples(v, edges):
    """The 3-subsets spanning an odd number of the edges, ascending, read
    off neighbour bitmasks."""
    nbr = [0] * v
    for a, b in edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return tuple(t for t in combinations(range(v), 3)
                 if (nbr[t[0]] >> t[1] ^ nbr[t[0]] >> t[2]
                     ^ nbr[t[1]] >> t[2]) & 1)


def verify_two_graph(v: int, triples) -> TwoGraph:
    """Check the even-intersection condition over all 4-subsets, in O(v^3):
    the family must be the odd triples of the graph {ab : 0ab in it}.  As
    {0, a, b, c} is odd exactly when abc lies in one of the two sets only,
    the least odd 4-subset is 0 followed by the least such abc."""
    check_int("v", v, 4, POINT_LIMIT)
    cleaned = _clean_subsets(v, triples, 3, "triple")
    if len(set(cleaned)) != len(cleaned):
        raise StructuralError("duplicate triples")
    odd = _odd_triples(v, (t[1:] for t in cleaned if t[0] == 0))
    if odd != cleaned:
        member = frozenset(cleaned)
        quad = (0,) + min(member.symmetric_difference(odd))
        count = sum(1 for t in combinations(quad, 3) if t in member)
        raise RefusalError(
            f"4-subset {quad} contains {count} triples (odd)", witness=quad)
    return TwoGraph(v=v, triples=cleaned)


def pair_coverage(tg: TwoGraph) -> dict:
    cover = {pair: 0 for pair in combinations(range(tg.v), 2)}
    for t in tg.triples:
        for pair in combinations(t, 2):
            cover[pair] += 1
    return cover


def is_regular(tg: TwoGraph) -> bool:
    """True iff every point pair lies in the same number of triples."""
    return len(set(pair_coverage(tg).values())) == 1


def complement_two_graph(tg: TwoGraph) -> TwoGraph:
    """Swap triple membership within all 3-subsets; again a two-graph."""
    member = tg.triple_set
    rest = tuple(t for t in combinations(range(tg.v), 3) if t not in member)
    return verify_two_graph(tg.v, rest)


def two_graph_from_graph(v: int, edges) -> TwoGraph:
    """The two-graph of a graph: 3-subsets spanning an odd number of edges."""
    check_int("v", v, 4, POINT_LIMIT)
    edge_set = set(_clean_subsets(v, edges, 2, "edge"))
    return verify_two_graph(v, _odd_triples(
        v, (e for e in combinations(range(v), 2) if e in edge_set)))


def find_regular_two_graphs(nu: int, proper: bool = True) -> list[TwoGraph]:
    """Exhaustive list of regular two-graphs on nu points.

    Every switching class contains exactly one graph in which the last
    point n = nu - 1 is isolated, and {a, n} lies in deg(a) triples, so
    only the d-regular graphs on the first n points are walked (Taylor,
    Proc. LMS 1977), one degree d at a time, as neighbour bitmasks N.
    Pairs are decided in lexicographic order: one is added only while
    both its points have degree below d, and skipped only while both can
    still reach d.  {a, b} lies in |N(a) ^ N(b) - {a, b}| triples, or in
    nu - 2 minus that when a ~ b; hits on that count are confirmed by
    :func:`is_regular`.  ``proper`` drops d = 0 and d = nu - 2.
    """
    check_int("nu", nu, 4, TWO_GRAPH_SEARCH_LIMIT)
    n, cap = nu - 1, nu - 2
    pairs = [(a, b, 1 << a | 1 << b) for a, b in combinations(range(n), 2)]
    nbr = [0] * n
    found = []

    def walk(i, d):
        if i < len(pairs):
            a, b, _ab = pairs[i]
            deg_a, deg_b = nbr[a].bit_count(), nbr[b].bit_count()
            if deg_a < d and deg_b < d:
                nbr[a] ^= 1 << b
                nbr[b] ^= 1 << a
                walk(i + 1, d)
                nbr[a] ^= 1 << b
                nbr[b] ^= 1 << a
            # Pairs left after {a, b}: n - 1 - b with a, n - 2 - a with b.
            if deg_a + n - 1 - b >= d and deg_b + n - 2 - a >= d:
                walk(i + 1, d)
        elif not any((nbr[a] ^ nbr[b]).bit_count() != d if not nbr[a] >> b & 1
                     else cap - ((nbr[a] ^ nbr[b]) & ~ab).bit_count() != d
                     for a, b, ab in pairs):
            edges = [(a, b) for a, b, _ab in pairs if nbr[a] >> b & 1]
            tg = TwoGraph(v=nu, triples=_odd_triples(nu, edges))
            if is_regular(tg):
                found.append(tg)

    for d in range(1, cap) if proper else range(cap + 1):
        walk(0, d)
    return sorted(found, key=lambda tg: tg.triples)


# ---------------------------------------------------------------------------
# JSON formats: {"v": n, "blocks": [[..], ..]} and {"v": n, "triples": [[..], ..]}

def design_to_json(d: TwoDesign) -> str:
    return json.dumps({"v": d.v, "blocks": [list(b) for b in d.blocks]},
                      sort_keys=True) + "\n"


def design_from_json(text: str) -> TwoDesign:
    from .core import json_int, json_object
    data = json_object(text, "design", "v", "blocks")
    return verify_design(json_int(data, "v"), data["blocks"])


def two_graph_to_json(tg: TwoGraph) -> str:
    return json.dumps({"v": tg.v, "triples": [list(t) for t in tg.triples]},
                      sort_keys=True) + "\n"


def two_graph_from_json(text: str) -> TwoGraph:
    from .core import json_int, json_object
    data = json_object(text, "two-graph", "v", "triples")
    return verify_two_graph(json_int(data, "v"), data["triples"])
