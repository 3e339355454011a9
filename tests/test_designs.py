import random
from itertools import combinations

import pytest

import astriples as at

from conftest import ag23_blocks, fano_blocks
from naive import naive_verify_two_graph


def test_fano_plane_is_lambda_one(fano_design):
    assert (fano_design.b, fano_design.v, fano_design.k, fano_design.lam) == \
        (7, 7, 3, 1)


def test_ag23_is_lambda_one():
    d = at.verify_design(9, ag23_blocks())
    assert (d.b, d.v, d.k, d.lam) == (12, 9, 3, 1)


def test_all_three_subsets_design():
    blocks = list(combinations(range(5), 3))
    d = at.verify_design(5, blocks)
    assert d.lam == 3 and d.k == 3 and d.b == 10


def test_uneven_coverage_refused():
    with pytest.raises(at.RefusalError) as err:
        at.verify_design(4, [(0, 1, 2), (0, 1, 3)])
    assert err.value.witness is not None


def test_mixed_block_sizes_refused():
    with pytest.raises(at.RefusalError):
        at.verify_design(5, [(0, 1, 2), (3, 4)])


def test_design_counting_identity(fano_design):
    for d in (fano_design, at.verify_design(9, ag23_blocks()),
              at.verify_design(5, list(combinations(range(5), 3)))):
        assert d.b * d.k * (d.k - 1) == d.lam * d.v * (d.v - 1)


def test_design_json_round_trip(fano_design):
    from astriples.designs import design_from_json, design_to_json
    text = design_to_json(fano_design)
    again = design_from_json(text)
    assert again == fano_design


def test_empty_two_graph_is_regular():
    tg = at.verify_two_graph(5, [])
    assert at.is_regular(tg)
    assert set(at.pair_coverage(tg).values()) == {0}


def test_complete_two_graph_is_regular():
    triples = list(combinations(range(5), 3))
    tg = at.verify_two_graph(5, triples)
    assert at.is_regular(tg)
    assert set(at.pair_coverage(tg).values()) == {3}


def test_odd_four_subset_refused():
    with pytest.raises(at.RefusalError) as err:
        at.verify_two_graph(4, [(0, 1, 2)])
    assert err.value.witness == (0, 1, 2, 3)


def test_two_graph_from_graph_always_verifies():
    # the odd-edge-count family of any graph satisfies the parity condition
    import random
    rng = random.Random(5)
    for _ in range(10):
        nu = rng.randrange(4, 8)
        edges = [pair for pair in combinations(range(nu), 2)
                 if rng.randrange(2)]
        tg = at.two_graph_from_graph(nu, edges)
        assert tg.v == nu


def test_two_graph_from_graph_refuses_bad_edges():
    for edges in ([(0, 9)], [(2, 2)], [(-1, 3)], [(0, "a")], [(0, 1, 2)],
                  [(0,)], [None], 7):
        with pytest.raises(at.StructuralError):
            at.two_graph_from_graph(5, edges)
    # either order and repeats name the same edge
    assert (at.two_graph_from_graph(5, [(1, 0), (0, 1)])
            == at.two_graph_from_graph(5, [(0, 1)]))


def _two_graph_verdict(check, v, triples):
    try:
        return check(v, triples)
    except at.RefusalError as exc:
        return (exc.witness, str(exc))


def test_verify_two_graph_matches_the_four_subset_scan():
    # valid families (odd triples of a random graph), the same with one
    # 3-subset flipped, and random families, v = 4..9
    rng = random.Random(4417)
    refused = 0
    for _ in range(300):
        v = rng.randrange(4, 10)
        subsets = list(combinations(range(v), 3))
        edges = [e for e in combinations(range(v), 2) if rng.randrange(2)]
        valid = set(at.two_graph_from_graph(v, edges).triples)
        flipped = valid ^ {rng.choice(subsets)}
        noise = {t for t in subsets if rng.random() < rng.random()}
        for triples in (valid, flipped, noise):
            triples = sorted(triples)
            want = _two_graph_verdict(naive_verify_two_graph, v, triples)
            assert _two_graph_verdict(at.verify_two_graph, v, triples) == want
            refused += isinstance(want, tuple)
    assert 300 <= refused < 900


def test_find_regular_two_graphs_on_six_points(six_point_two_graph):
    found = at.find_regular_two_graphs(6)
    assert len(found) == 12
    assert all(len(tg.triples) == 10 for tg in found)
    assert all(set(at.pair_coverage(tg).values()) == {2} for tg in found)
    assert found[0] == six_point_two_graph


def test_no_proper_regular_two_graphs_on_seven_points():
    assert at.find_regular_two_graphs(7) == []


def test_no_proper_regular_two_graphs_on_eight_points():
    # the full scan at the guard: 2^21 graphs on seven points
    assert at.find_regular_two_graphs(8) == []


def test_loaders_refuse_more_points_than_the_guard():
    # checked before the pair and 4-subset scans allocate or loop
    with pytest.raises(at.SizeGuardError):
        at.verify_design(2**40, [(0, 1)])
    with pytest.raises(at.SizeGuardError):
        at.verify_two_graph(257, [(0, 1, 2)])


def test_find_guard():
    # nu = 9 walks the regular graphs on eight points and finds none;
    # nu = 10 is refused before any walk
    assert at.find_regular_two_graphs(9) == []
    with pytest.raises(at.SizeGuardError):
        at.find_regular_two_graphs(10)
    with pytest.raises(at.PreconditionError):
        at.find_regular_two_graphs(3)


def test_complement_of_regular_two_graph(six_point_two_graph):
    comp = at.complement_two_graph(six_point_two_graph)
    assert at.is_regular(comp)
    assert len(comp.triples) == 10
    assert not set(comp.triples) & set(six_point_two_graph.triples)


def test_two_graph_json_round_trip(six_point_two_graph):
    from astriples.designs import two_graph_from_json, two_graph_to_json
    text = two_graph_to_json(six_point_two_graph)
    assert two_graph_from_json(text) == six_point_two_graph


def test_fano_blocks_are_three_subsets():
    for block in fano_blocks():
        assert len(block) == 3
