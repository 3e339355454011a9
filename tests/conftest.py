import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import astriples as at

# The five relations of the unique scheme on three points, 0-based.
THREE_POINT_RELATIONS = (
    ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
    ((0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 2, 2), (2, 0, 0), (2, 1, 1)),
    ((0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 2, 1), (2, 0, 2), (2, 1, 2)),
    ((0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 1)),
    ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)),
)

# Generators for the degree-11 permutation representation of PSL(2, 11),
# and a full cycle its orbit scheme is invariant under (0-based).
PSL11_GENERATORS = (
    ((0, 1, 3, 8, 4, 6, 2, 10, 9, 5, 7),),
    ((0, 1, 4, 7, 8), (3, 9, 6, 5, 10)),
    ((0, 1, 4, 7, 9, 10), (2, 5, 6), (3, 8)),
)
PSL11_CYCLE = (0, 1, 2, 9, 5, 10, 7, 3, 4, 8, 6)


def fano_blocks():
    """The seven lines of the plane on GF(2)^3 minus zero: {a, b, a^b}."""
    pts = list(range(1, 8))
    idx = {v: i for i, v in enumerate(pts)}
    return sorted({tuple(sorted((idx[a], idx[b], idx[a ^ b])))
                   for a, b in combinations(pts, 2)})


def ag23_blocks():
    """The twelve lines of the affine plane on GF(3)^2."""
    blocks = set()
    for x, y in combinations(range(9), 2):
        p = divmod(x, 3)
        q = divmod(y, 3)
        d = ((q[0] - p[0]) % 3, (q[1] - p[1]) % 3)
        line = {x, y, (3 * ((p[0] + 2 * d[0]) % 3) + (p[1] + 2 * d[1]) % 3)}
        blocks.add(tuple(sorted(line)))
    return sorted(blocks)


def m24_generators():
    """Conway's generators of M24 on the projective line over GF(23),
    with infinity as point 23: x -> x + 1, x -> 2x, x -> -1/x, and the map
    that swaps 0 and infinity and sends a square x to -(x/2)^2 and a
    non-square x to (2x)^2."""
    q = inf = 23
    squares = {x * x % q for x in range(1, q)}
    half = pow(2, -1, q)
    return [[(x + 1) % q for x in range(q)] + [inf],
            [2 * x % q for x in range(q)] + [inf],
            [inf] + [-pow(x, -1, q) % q for x in range(1, q)] + [0],
            [inf] + [-(x * half) ** 2 % q if x in squares else (2 * x) ** 2 % q
                     for x in range(1, q)] + [0]]


def verified(partition):
    """The scheme :func:`verify_ast` makes of ``partition``, which must
    verify."""
    result = at.verify_ast(partition)
    assert isinstance(result, at.AstScheme), result
    return result


@pytest.fixture(scope="session")
def three_point():
    ground = at.GroundSet(3)
    partition = at.TriplePartition(ground, THREE_POINT_RELATIONS)
    return verified(partition)


@pytest.fixture(scope="session")
def fano_design():
    return at.verify_design(7, fano_blocks())


@pytest.fixture(scope="session")
def fano_scheme(fano_design):
    return at.ast_from_design(fano_design)


@pytest.fixture(scope="session")
def psl11_group():
    gens = [at.perm_from_cycles(11, cycles) for cycles in PSL11_GENERATORS]
    return at.close(gens)


@pytest.fixture(scope="session")
def psl11_scheme(psl11_group):
    return at.ast_from_group(psl11_group)


@pytest.fixture(scope="session")
def asl2_schemes():
    from astriples.asl2 import _context
    return {q: _context(q) for q in (2, 3, 4, 5)}


@pytest.fixture(scope="session")
def six_point_two_graph():
    return at.find_regular_two_graphs(6)[0]


@pytest.fixture(scope="session")
def two_graph_scheme(six_point_two_graph):
    return at.ast_from_two_graph(six_point_two_graph)


@pytest.fixture(scope="session")
def constructed_schemes(three_point, fano_scheme, psl11_scheme, asl2_schemes,
                        two_graph_scheme):
    """Every scheme the suite builds, for the always-on property sweeps."""
    schemes = {
        "three_point": three_point,
        "fano": fano_scheme,
        "ag23": at.ast_from_design(at.verify_design(9, ag23_blocks())),
        "psl2_11_degree11": psl11_scheme,
        "two_graph_6": two_graph_scheme,
        "agl1_5": at.ast_from_group(at.agl1_group(5)),
        "agl2_3": at.ast_from_group(at.agl2_group(3)),
    }
    for q, (scheme, _labeling) in asl2_schemes.items():
        schemes[f"asl2_{q}"] = scheme
    return schemes
