import random
import tracemalloc
from fractions import Fraction
from itertools import product
from types import MappingProxyType

import pytest

import astriples as at
from astriples.core import trivial_cube
from astriples.hypermatrix import (DENSE_LIMIT, CubicHypermatrix,
                                   _product_dense, _zero_one_bits)

from conftest import verified
from naive import (naive_class_product_mismatch, naive_classes,
                   naive_ternary_product, naive_zfibers)


def random_zero_one(nu, rng):
    return CubicHypermatrix(nu, tuple(rng.randrange(2) for _ in range(nu**3)))


def test_adjacency_entry_sums(three_point):
    total = 0
    for i in range(three_point.m + 1):
        h = at.adjacency(three_point, i)
        assert sum(h.entries) == len(three_point.partition.classes[i])
        total += sum(h.entries)
    assert total == 27
    assert sum(at.adjacency(three_point, 4).entries) == 6


def test_adjacency_diagonal(three_point):
    h = at.adjacency(three_point, 0)
    for x, y, z in product(range(3), repeat=3):
        assert h[x, y, z] == (1 if x == y == z else 0)


def test_adjacency_label_range(three_point):
    with pytest.raises(at.PreconditionError):
        at.adjacency(three_point, 5)


def test_is_zero_one_compares_entries_by_value():
    def is_zero_one(*head):
        cube = CubicHypermatrix(2, head + (0,) * (8 - len(head)))
        return _zero_one_bits(cube.entries) is not None

    assert is_zero_one()
    assert is_zero_one(1, 0, 1)
    assert is_zero_one(Fraction(1), Fraction(0))
    assert is_zero_one(1.0, True)
    assert not is_zero_one(2)
    assert not is_zero_one(1, -1)
    assert not is_zero_one(Fraction(1, 2))


def test_ternary_product_all_distinct_cube_vanishes(three_point):
    a4 = at.adjacency(three_point, 4)
    assert at.ternary_product(a4, a4, a4).is_zero()


def test_ternary_product_zero_argument(three_point):
    a4 = at.adjacency(three_point, 4)
    zero = CubicHypermatrix(3, (0,) * 27)
    assert at.ternary_product(a4, a4, zero).is_zero()
    assert at.ternary_product(zero, a4, a4).is_zero()


def test_ternary_product_dimension_mismatch(three_point):
    with pytest.raises(at.PreconditionError):
        at.ternary_product(at.adjacency(three_point, 0),
                           at.adjacency(three_point, 0),
                           CubicHypermatrix(4, (0,) * 64))


def test_ternary_product_matches_naive_four_loop():
    rng = random.Random(20240)
    for _ in range(12):
        a = random_zero_one(4, rng)
        b = random_zero_one(4, rng)
        c = random_zero_one(4, rng)
        d = at.ternary_product(a, b, c)
        want = naive_ternary_product(4, a.entries, b.entries, c.entries)
        for x, y, z in product(range(4), repeat=3):
            assert d[x, y, z] == want[x, y, z]


def test_bitset_kernel_agrees_with_dense_path():
    rng = random.Random(99)
    for _ in range(8):
        a = random_zero_one(5, rng)
        b = random_zero_one(5, rng)
        c = random_zero_one(5, rng)
        assert at.ternary_product(a, b, c) == _product_dense(a, b, c)


def test_bitset_kernel_agrees_with_dense_path_off_powers_of_two():
    rng = random.Random(2718)
    for nu in (1, 2, 3, 6, 7, 9):
        a, b, c = (random_zero_one(nu, rng) for _ in range(3))
        assert at.ternary_product(a, b, c) == _product_dense(a, b, c)


def test_bitset_kernel_counts_up_to_nu():
    # every w counts at every cell; at nu = 64 the count needs 7 planes
    for nu in (8, 63, 64):
        ones = CubicHypermatrix(nu, (1,) * nu**3)
        assert at.ternary_product(ones, ones, ones).entries == (nu,) * nu**3


def test_ternary_product_takes_zero_one_entries_of_any_type(three_point,
                                                            monkeypatch):
    from astriples import hypermatrix

    def no_dense(*args):
        raise AssertionError("0/1 operands went to the dense path")

    a4, a1 = at.adjacency(three_point, 4), at.adjacency(three_point, 1)
    want = at.ternary_product(a4, a1, a4)
    monkeypatch.setattr(hypermatrix, "_product_dense", no_dense)
    for one in (True, 1.0, Fraction(1)):
        typed = CubicHypermatrix(3, (one if v else 0 for v in a4.entries))
        assert at.ternary_product(typed, a1, typed) == want, one
        assert at.ternary_product(typed, a1, a4).entries == want.entries


def test_dense_product_on_rationals_matches_naive():
    rng = random.Random(271)
    nu = 3
    def rand():
        return CubicHypermatrix(
            nu, tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(nu**3)))
    for _ in range(6):
        a, b, c = rand(), rand(), rand()
        d = at.ternary_product(a, b, c)
        want = naive_ternary_product(nu, a.entries, b.entries, c.entries)
        for x, y, z in product(range(nu), repeat=3):
            assert d[x, y, z] == want[x, y, z]


def test_ternary_product_trilinearity():
    rng = random.Random(4711)
    nu = 3
    scalars = [Fraction(2), Fraction(-1, 3), Fraction(5)]
    a = random_zero_one(nu, rng)
    b = random_zero_one(nu, rng)
    c = random_zero_one(nu, rng)
    a2 = random_zero_one(nu, rng)
    base = at.ternary_product(a, b, c)
    other = at.ternary_product(a2, b, c)
    mixed = at.ternary_product(
        CubicHypermatrix(nu, tuple(scalars[0] * u + scalars[1] * v
                                   for u, v in zip(a.entries, a2.entries))),
        b, c)
    want = tuple(scalars[0] * u + scalars[1] * v
                 for u, v in zip(base.entries, other.entries))
    assert mixed.entries == want
    scaled = at.ternary_product(a, b.scaled(scalars[2]), c)
    assert scaled.entries == tuple(scalars[2] * v for v in base.entries)


def test_product_entries_bounded_by_nu(constructed_schemes):
    scheme = constructed_schemes["three_point"]
    a4 = at.adjacency(scheme, 4)
    prod = at.ternary_product(a4, at.adjacency(scheme, 1), a4)
    assert all(0 <= v <= scheme.nu for v in prod.entries)


def test_verify_structure_constants_all_triples(three_point, fano_scheme,
                                                asl2_schemes):
    for scheme in (three_point, fano_scheme, asl2_schemes[3][0]):
        report = at.verify_structure_constants(scheme, scope="all")
        assert report.passed
        assert report.checked == (scheme.m + 1) ** 3


def test_structure_constant_law_on_diagonal_class(three_point):
    # the law holds on (0,0,0) too: A_0 A_0 A_0 = A_0, computed not assumed
    tensor = three_point.tensor
    assert tensor.get(0, 0, 0, 0) == 1
    a0 = at.adjacency(three_point, 0)
    assert at.ternary_product(a0, a0, a0) == a0


def _with_entry(tensor, i, j, k, l, p):
    """``tensor`` with the one entry p_ijk^l set to ``p`` > 0."""
    counts = [dict(c) for c in tensor.counts]
    counts[l][i, j, k] = p
    tampered = at.IntersectionTensor(tuple(map(MappingProxyType, counts)))
    old, new = ({e[:4]: e[4] for e in t.nonzero()} for t in (tensor, tampered))
    assert [key for key in old.keys() | new.keys()
            if old.get(key) != new.get(key)] == [(i, j, k, l)]
    return tampered


def test_structure_constants_corruption_signal(three_point):
    # tampering with the cached tensor must trip the nontrivial-triple check
    partition = three_point.partition
    fresh = verified(partition)
    # claim p_444^4 = 2
    fresh.__dict__["tensor"] = _with_entry(fresh.tensor, 4, 4, 4, 4, 2)
    with pytest.raises(at.ConsistencyError):
        at.verify_structure_constants(fresh, scope="nontrivial")


def _naive_first_mismatch(scheme, naive, expected):
    """First (cell, got, want) in flat order where the four-loop product
    differs from sum_l expected[l] A_l, or None."""
    label = {t: l for l, rel in enumerate(scheme.partition.classes)
             for t in rel}
    for cell in product(range(scheme.nu), repeat=3):
        want = expected[label[cell]]
        if naive[cell] != want:
            return cell, naive[cell], want
    return None


def test_class_kernel_matches_naive_product(three_point, fano_scheme,
                                            asl2_schemes):
    rng = random.Random(4242)
    schemes = (three_point, fano_scheme, asl2_schemes[3][0],
               at.ast_from_group(at.agl1_group(7)))
    rejected = 0
    for scheme in schemes:
        nu = scheme.nu
        n = scheme.m + 1
        adj = [at.adjacency(scheme, l).entries for l in range(n)]
        for i, j, k in product(range(n), repeat=3):
            naive = naive_ternary_product(nu, adj[i], adj[j], adj[k])
            exact = list(scheme.tensor.slice(i, j, k))
            moved = list(exact)
            moved[rng.randrange(n)] += rng.choice((-1, 1))
            reassigned = list(exact)
            src, dst = rng.sample(range(n), 2)
            reassigned[dst], reassigned[src] = reassigned[src] or 1, 0
            for expected in (exact, moved, reassigned):
                want = _naive_first_mismatch(scheme, naive, expected)
                got = at.class_product_mismatch(scheme, i, j, k, expected)
                assert got == want, (i, j, k, expected)
                rejected += want is not None
    assert rejected > 0


def test_class_kernel_guards(three_point):
    with pytest.raises(at.PreconditionError):
        at.class_product_mismatch(three_point, 4, 4, 5, (0,) * 5)
    with pytest.raises(at.PreconditionError):
        at.class_product_mismatch(three_point, 4, 4, 4, (0,) * 4)


def test_class_kernel_fractional_expectation(three_point):
    # A_0 A_0 A_0 = A_0; a non-integral coefficient can never be met
    expected = [0] * 5
    expected[0] = Fraction(1, 2)
    assert at.class_product_mismatch(three_point, 0, 0, 0, expected) == \
        ((0, 0, 0), 1, Fraction(1, 2))
    expected[0] = Fraction(1)
    assert at.class_product_mismatch(three_point, 0, 0, 0, expected) is None


def _perturbed(exact, rng):
    """Expectations near ``exact``: off by one, negative, fractional and
    beyond any count at one random label, and the exact vector as
    Fractions."""
    n = len(exact)
    out = [[Fraction(p) for p in exact]]
    for change in (lambda p: p + rng.choice((-1, 1)), lambda p: -p - 1,
                   lambda p: p + Fraction(1, 2), lambda p: Fraction(p + 2),
                   lambda p: p + 2**70):
        vector = list(exact)
        at_label = rng.randrange(n)
        vector[at_label] = change(vector[at_label])
        out.append(vector)
    return out


def test_class_kernel_matches_row_kernel(constructed_schemes):
    # every class triple of every scheme the suite builds, asl2:2..5
    # among them: the exact slice and one perturbation of it per triple
    rng = random.Random(8086)
    mismatches = 0
    for name, scheme in constructed_schemes.items():
        fibers = naive_zfibers(scheme)
        n = scheme.m + 1
        for i, j, k in product(range(n), repeat=3):
            exact = scheme.tensor.slice(i, j, k)
            variants = _perturbed(exact, rng)
            for expected in (exact, variants[0], rng.choice(variants[1:])):
                want = naive_class_product_mismatch(scheme, i, j, k,
                                                    expected, fibers)
                got = at.class_product_mismatch(scheme, i, j, k, expected)
                assert got == want, (name, i, j, k, expected)
                mismatches += want is not None
    assert mismatches > 0


def test_bit_cache_built_on_first_use(three_point):
    fresh = verified(three_point.partition)
    nu = fresh.nu
    assert "bit_cache" not in fresh.__dict__
    expected = [0] * 5
    expected[1] = 1
    at.class_product_mismatch(fresh, 4, 0, 4, expected)
    cache = fresh.__dict__["bit_cache"]
    assert set(cache) == {4, 0, 1, (4, 0), (0, 1), (4, 2)}
    for label in (0, 1, 4):
        cells = {fresh.ground.triple(c) for c in range(nu**3)
                 if cache[label] >> c & 1}
        assert cells == set(fresh.partition.classes[label])
    # broadcast w holds, at (x, y, z), the class bit at (w, y, z),
    # (x, w, z) or (x, y, w) for slot 0, 1 or 2
    for label, slot in ((4, 0), (0, 1), (4, 2)):
        broadcasts = cache[label, slot]
        assert len(broadcasts) == nu
        for w, cast in enumerate(broadcasts):
            for x, y, z in product(range(nu), repeat=3):
                source = [x, y, z]
                source[slot] = w
                assert (cast >> (x * nu + y) * nu + z & 1) == \
                    (fresh.label_of(tuple(source)) == label)
    kept = dict(cache)
    at.verify_structure_constants(fresh, scope="all")
    assert all(cache[key] is value for key, value in kept.items())
    assert len(cache) == 4 * 5


def test_class_kernel_refuses_large_nu_before_allocating():
    nu = DENSE_LIMIT + 1
    scheme = verified(at.TriplePartition.from_labels(
        at.GroundSet(nu), trivial_cube(nu, 4)))
    tracemalloc.start()
    try:
        with pytest.raises(at.SizeGuardError):
            at.class_product_mismatch(scheme, 4, 4, 4, (0,) * 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one class alone, as one bit int, would take nu^3 / 8 bytes
    assert peak < nu**3 // 8
    assert "bit_cache" not in scheme.__dict__


def _tampered_asl2_3(asl2_schemes):
    """A fresh asl2:3 scheme whose cached tensor claims p_{1,a,a}^1 = 2,
    with the trivial-family instance (1, a, a) for the point class a."""
    scheme, labeling = asl2_schemes[3]
    fresh = verified(scheme.partition)
    a = labeling.point_labels[2]
    fresh.__dict__["tensor"] = _with_entry(fresh.tensor, 1, a, a, 1, 2)
    return fresh, (1, a, a)


def test_oracle_flags_tampered_tensor_once(asl2_schemes):
    from astriples.asl2 import _run_families
    fresh, ijk = _tampered_asl2_3(asl2_schemes)
    tampered = fresh.tensor.slice(*ijk)
    # once as the family's cross-checked first instance, once behind a
    # sound first instance so that only the class kernel sees it
    sound = (2, 4, 4)
    for instances in ([ijk], [sound, ijk]):
        families = [("t: tampered", f"#{n}", t, fresh.tensor.slice(*t))
                    for n, t in enumerate(instances)]
        (check,) = _run_families(fresh, families, hypermatrix_all=True)
        assert check.checked == len(instances)
        assert check.counterexamples == (
            (f"#{len(instances) - 1} [hypermatrix]", tampered,
             "product mismatch"),)


def test_oracle_cross_check_catches_kernel_disagreement(asl2_schemes,
                                                        monkeypatch):
    from astriples import asl2
    fresh, ijk = _tampered_asl2_3(asl2_schemes)
    monkeypatch.setattr(asl2, "class_product_mismatch", lambda *args: None)
    families = [("t: tampered", "a", ijk, fresh.tensor.slice(*ijk))]
    with pytest.raises(at.ConsistencyError):
        asl2._run_families(fresh, families, hypermatrix_all=True)


def test_product_in_coefficients_basis_triple(three_point):
    e4 = at.AlgebraElement.basis(three_point, 4)
    out = at.product_in_coefficients(e4, e4, e4)
    assert out.is_zero()


def test_product_in_coefficients_trilinear_scaling(fano_scheme):
    e4 = at.AlgebraElement.basis(fano_scheme, 4)
    e5 = at.AlgebraElement.basis(fano_scheme, 5)
    base = at.product_in_coefficients(e4, e5, e4)
    scaled = at.product_in_coefficients(e4.scaled(2), e5.scaled(3),
                                        e4.scaled(5))
    assert scaled.coeffs == tuple(30 * v for v in base.coeffs)


def test_product_in_coefficients_requires_nontrivial_support(three_point):
    e1 = at.AlgebraElement.basis(three_point, 1)
    e4 = at.AlgebraElement.basis(three_point, 4)
    with pytest.raises(at.PreconditionError):
        at.product_in_coefficients(e1, e4, e4)


def test_dual_path_products_agree(fano_scheme, asl2_schemes):
    rng = random.Random(31337)
    for scheme in (fano_scheme, asl2_schemes[3][0]):
        labels = list(scheme.nontrivial_labels)
        for _ in range(5):
            elems = []
            for _ in range(3):
                coeffs = [0] * (scheme.m + 1)
                for lab in labels:
                    coeffs[lab] = Fraction(rng.randrange(-3, 4))
                elems.append(at.AlgebraElement(scheme, tuple(coeffs)))
            via_tensor = at.product_in_coefficients(*elems).expand()
            via_matrices = at.ternary_product(*(e.expand() for e in elems))
            assert via_tensor == via_matrices


def test_commutativity_detectors(three_point, fano_scheme, psl11_scheme,
                                 asl2_schemes):
    assert at.is_commutative_subalgebra(three_point)
    assert at.is_commutative_subalgebra(fano_scheme)
    assert at.is_commutative_subalgebra(psl11_scheme)
    assert not at.is_commutative_subalgebra(asl2_schemes[4][0])
    cx = at.commutativity_counterexample(asl2_schemes[4][0])
    i, j, k, sigma = cx
    permuted = ((i, j, k)[sigma[0]], (i, j, k)[sigma[1]], (i, j, k)[sigma[2]])
    tensor = asl2_schemes[4][0].tensor
    assert tensor.slice(i, j, k) != tensor.slice(*permuted)


def test_associativity_detectors(three_point, fano_scheme, asl2_schemes):
    # one nontrivial relation: associative and commutative
    assert at.is_associative_subalgebra(three_point)
    assert at.is_associative_subalgebra(asl2_schemes[2][0])
    # the design scheme: commutative but not associative
    cx = at.associativity_counterexample(fano_scheme)
    assert cx is not None
    labels, left, mid, right = cx
    assert len(labels) == 5
    assert left != mid or (right is not None and mid != right)
    assert not at.is_associative_subalgebra(fano_scheme)


def test_all_zero_products_are_associative(three_point):
    # every product of nontrivial generators vanishes on the 3-point scheme
    assert three_point.tensor.slice(4, 4, 4) == (0, 0, 0, 0, 0)
    assert at.is_associative_subalgebra(three_point)


def test_weak_associativity(three_point, fano_scheme, two_graph_scheme):
    for scheme in (three_point, fano_scheme, two_graph_scheme):
        assert at.weak_associativity_check(scheme)


def test_weak_associativity_on_enumerated_symmetric_scheme():
    from astriples.enumeration import EnumerationTask, enumerate_asts
    result = enumerate_asts(EnumerationTask(ground=at.GroundSet(5),
                                            symmetric_only=True))
    assert len(result) == 1
    assert at.weak_associativity_check(result[0])


def test_weak_associativity_rejects_non_symmetric(asl2_schemes):
    scheme, _ = asl2_schemes[3]
    assert not at.is_symmetric_ast(scheme)
    with pytest.raises(at.PreconditionError):
        at.weak_associativity_check(scheme)


def test_ternary_field_certificate_none_when_p_vanishes(three_point):
    assert at.ternary_field_certificate(three_point) is None


def test_ternary_field_certificate_on_four_points(asl2_schemes):
    # the single-nontrivial scheme on 4 points has p_444^4 = 1
    scheme, _ = asl2_schemes[2]
    assert scheme.m == 4
    assert scheme.tensor.get(4, 4, 4, 4) == 1
    cert = at.ternary_field_certificate(scheme)
    assert cert is not None
    assert cert.p444 == 1
    assert cert.identity_scaling == Fraction(1, 1)
    for c, inverse in ((1, 1), (2, Fraction(1, 2)),
                       (Fraction(5, 7), Fraction(7, 5))):
        assert Fraction(1) / (c * cert.p444) == inverse
    assert len(cert.verified_products) == 4


def test_ternary_field_certificate_from_enumerated_scheme():
    # independent route: take the single-class scheme out of the nu=4
    # census and recompute its structure constant by direct counting
    from astriples.enumeration import EnumerationTask, enumerate_asts
    from naive import naive_intersection_number

    census = enumerate_asts(EnumerationTask(ground=at.GroundSet(4)))
    scheme = next(s for s in census if s.m == 4)
    classes = naive_classes(scheme)
    rep = scheme.partition.classes[4][0]
    p = naive_intersection_number(4, classes, 4, 4, 4, rep)
    assert p == 1
    cert = at.ternary_field_certificate(scheme)
    assert cert is not None and cert.p444 == p


def test_ternary_field_certificate_requires_single_class(fano_scheme):
    with pytest.raises(at.PreconditionError):
        at.ternary_field_certificate(fano_scheme)
