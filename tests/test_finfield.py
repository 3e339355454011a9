import random
import tracemalloc

import pytest

import astriples as at
from astriples import finfield
from astriples.finfield import FiniteField, field_from_order, make_field

from naive import (naive_chain_elements, naive_field_add, naive_field_mul,
                   naive_field_neg, naive_primitive_element)


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = list(filter(_is_prime_power, range(2, 257)))


def test_gf2_addition():
    f = make_field(2, 1)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf4_multiplicative_group_cyclic():
    f = make_field(2, 2)
    assert f.q == 4
    for x in range(1, 4):
        assert f.pow(x, 3) == 1
    orders = {x: next(n for n in range(1, 4) if f.pow(x, n) == 1)
              for x in range(1, 4)}
    assert sorted(orders.values()) == [1, 3, 3]


def test_gf5_inverse():
    f = make_field(5, 1)
    assert f.inv(2) == 3
    assert f.mul(2, 3) == 1


def test_field_axioms_exhaustive():
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        f = make_field(p, k)
        q = f.q
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(f.add(a, b), b) == a
                for c in range(q):
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(a, f.add(b, c)) == \
                        f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1


def test_field_identity_encoding():
    # 0 and 1 encode the additive and multiplicative identities in every q
    for q in (2, 3, 4, 5, 8, 9, 16):
        f = field_from_order(q)
        for a in range(f.q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_deterministic_modulus():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)      # x^3 + x + 1
    assert make_field(2, 2).modulus == (1, 1, 1)         # x^2 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)         # x^2 + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)   # x^4 + x + 1


def test_make_field_rejects_bad_input():
    with pytest.raises(at.PreconditionError):
        make_field(4, 1)
    with pytest.raises(at.PreconditionError):
        make_field(2, 0)
    with pytest.raises(at.SizeGuardError):
        make_field(2, 17)
    with pytest.raises(at.PreconditionError):
        field_from_order(12)


def test_format_element():
    assert make_field(5, 1).format_element(3) == "3"
    assert make_field(2, 2).format_element(2) == "(0,1)"


def test_primitive_element():
    for q in (3, 4, 5, 7, 8, 9):
        f = field_from_order(q)
        g = f.gamma
        seen = {1}
        x = g
        while x != 1:
            seen.add(x)
            x = f.mul(x, g)
        assert len(seen) == q - 1


def test_asl2_orders():
    assert at.asl2_group(2).order == 24
    assert at.asl2_group(3).order == 216
    assert at.asl2_group(4).order == 960
    assert at.asl2_group(5).order == 3000


def test_asl2_two_transitive():
    for q in (2, 3, 4, 5):
        assert at.is_two_transitive(at.asl2_group(q))


def test_agl1_order_and_degree():
    g = at.agl1_group(5)
    assert g.order == 20 and g.degree == 5
    assert at.is_two_transitive(g)
    assert at.agl1_group(8).order == 56


def test_agl2_order():
    g = at.agl2_group(2)
    assert g.order == 24 and g.degree == 4
    assert at.agl2_group(3).order == 432


def test_psl2_order_and_degree():
    g = at.psl2_group(11)
    assert g.order == 660 and g.degree == 12
    assert at.is_two_transitive(g)
    assert at.psl2_group(4).order == 60
    assert at.psl2_group(5).order == 60


def test_constructor_orders_match_formulas():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        g = at.asl2_group(q)
        assert (g.degree, g.order) == (q * q, q**3 * (q * q - 1))
        g = at.agl2_group(q)
        assert g.order == q * q * (q * q - 1) * (q * q - q)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 31, 32):
        g = at.psl2_group(q)
        assert (g.degree, g.order) == (q + 1,
                                       q * (q * q - 1) // (2 if q % 2 else 1))


def test_constructors_list_no_elements():
    g = at.asl2_group(8)
    assert g.order == 32256
    assert len(g.generators) == 12
    assert not hasattr(g, "elements")


def test_asl2_subset_of_agl2():
    for q in (2, 3):
        small = at.asl2_group(q)
        big = at.agl2_group(q)
        assert naive_chain_elements(small) <= naive_chain_elements(big)


def test_group_guards():
    with pytest.raises(at.SizeGuardError):
        at.asl2_group(17)
    with pytest.raises(at.PreconditionError):
        at.asl2_group(6)


def test_group_from_spec(tmp_path):
    assert at.group_from_spec("asl2:3").order == 216
    assert at.group_from_spec("agl1:5").order == 20
    path = tmp_path / "gens.txt"
    path.write_text("1 0 2\n1 2 0\n", encoding="utf-8")
    assert at.group_from_spec(f"file:{path}").order == 6
    with pytest.raises(at.StructuralError):
        at.group_from_spec("nosuch:3")
    with pytest.raises(at.StructuralError):
        at.group_from_spec("asl2")
    with pytest.raises(at.StructuralError):
        at.group_from_spec("file:/nonexistent/path.txt")


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256])
def test_characteristic_two_addition_matches_the_digits(q):
    # every pair up to q = 64, 24 sampled rows of pairs above
    field = field_from_order(q)
    rng = random.Random(q)
    rows = range(q) if q <= 64 else rng.sample(range(q), 24)
    for a in rows:
        assert field.neg(a) == naive_field_neg(field, a)
        for b in range(q):
            total = naive_field_add(field, a, b)
            assert field.add(a, b) == total
            assert field.sub(total, b) == a


@pytest.mark.parametrize("q", [25, 27, 49])
def test_associativity_and_distributivity_on_a_sample(q):
    # every (q // 16)-th element, beyond the exhaustive axioms at q <= 9
    field = field_from_order(q)
    sample = range(0, q, q // 16)
    for a in sample:
        for b in sample:
            for c in sample:
                assert field.mul(field.mul(a, b), c) == \
                    field.mul(a, field.mul(b, c))
                assert field.add(field.add(a, b), c) == \
                    field.add(a, field.add(b, c))
                assert field.mul(a, field.add(b, c)) == \
                    field.add(field.mul(a, b), field.mul(a, c))


def naive_pow(field, a, n):
    """a^n for n >= 0 by square-and-multiply on the schoolbook product."""
    result = 1
    for bit in bin(n)[2:]:
        result = naive_field_mul(field, result, result)
        if bit == "1":
            result = naive_field_mul(field, result, a)
    return result


def test_prime_powers_up_to_256():
    assert len(PRIME_POWERS) == 70


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_log_tables_match_the_schoolbook_product(q):
    field = field_from_order(q)
    assert field.gamma == naive_primitive_element(field)
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    for a, b in pairs:
        assert field.mul(a, b) == naive_field_mul(field, a, b)
        if b:
            assert naive_field_mul(field, field.div(a, b), b) == a
    for a in range(1, q):
        assert naive_field_mul(field, a, field.inv(a)) == 1
        assert naive_field_mul(field, field.pow(a, -5),
                               naive_pow(field, a, 5)) == 1
        assert field.pow(a, 0) == 1
        assert field.pow(a, q + 3) == naive_pow(field, a, q + 3)
    assert field.pow(0, 0) == 1 and field.pow(0, q + 3) == 0
    with pytest.raises(at.PreconditionError):
        field.pow(0, -1)
    with pytest.raises(at.PreconditionError):
        field.div(1, 0)


def test_fields_stop_at_the_degree_guard():
    # refused before any table is filled; q = 256 is the largest field
    tracemalloc.start()
    try:
        for p, k, message in ((2, 9, "k is guarded to at most 8"),
                              (257, 1, "p is guarded to at most 256"),
                              (3, 6, "field size exceeds cap 256"),
                              (2**61 - 1, 1, "p is guarded to at most 256")):
            tracemalloc.reset_peak()
            with pytest.raises(at.SizeGuardError, match=message):
                make_field(p, k)
            assert tracemalloc.get_traced_memory()[1] < 10_000
    finally:
        tracemalloc.stop()
    assert field_from_order(256).q == 256


@pytest.mark.parametrize("error, call", [
    (at.PreconditionError, lambda: field_from_order(2.5)),
    (at.PreconditionError, lambda: at.agl1_group(2.5)),
    (at.PreconditionError, lambda: at.asl2_group(2.0)),
    (at.SizeGuardError, lambda: field_from_order(10**9 + 7)),
    (at.PreconditionError, lambda: make_field(2.0, 3)),
    (at.SizeGuardError, lambda: make_field(3, 10**7)),
    (at.SizeGuardError, lambda: make_field(2, 10**9)),
    (at.PreconditionError, lambda: make_field(-3, 10**7)),
], ids=["field_from_order(2.5)", "agl1_group(2.5)", "asl2_group(2.0)",
        "field_from_order(10**9+7)", "make_field(2.0,3)", "make_field(3,10**7)",
        "make_field(2,10**9)", "make_field(-3,10**7)"])
def test_field_input_is_checked_before_any_loop(error, call):
    # the type and the size are checked first: no trial division on a
    # float or a large order, and p^k is never formed for a large k
    make_field(2, 3)  # a cached GF(8) must not answer for make_field(2.0, 3)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        assert tracemalloc.get_traced_memory()[1] < 10_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p,modulus", [(2, (0, 0, 1)), (2, (1, 0, 1)),
                                       (3, (2, 0, 1)), (2, (1, 1, 1, 1))])
def test_reducible_modulus_raises(p, modulus):
    with pytest.raises(at.ConsistencyError):
        FiniteField(p, len(modulus) - 1, modulus)


def test_degree_guard_fires_before_the_group_is_built(tmp_path):
    path = tmp_path / "cycle3001.txt"
    path.write_text(" ".join(str((i + 1) % 3001) for i in range(3001)) + "\n",
                    encoding="utf-8")
    cycle = f"file:{path}"
    calls = [(289, at.asl2_group, 17), (289, at.agl2_group, 17),
             (3001, at.agl1_group, 3001), (65536, at.agl1_group, 65536),
             (3001, at.group_from_spec, cycle), (258, at.psl2_group, 257)]
    fields = finfield._field.cache_info()
    tracemalloc.start()
    try:
        for degree, build, arg in calls:
            tracemalloc.reset_peak()
            with pytest.raises(at.SizeGuardError,
                               match="degree is guarded to at most 256"):
                build(arg)
            assert tracemalloc.get_traced_memory()[1] < degree * degree
    finally:
        tracemalloc.stop()
    # no field was asked for
    assert finfield._field.cache_info()[:2] == fields[:2]


@pytest.mark.parametrize("q, classes", [(49, 6), (64, 5)])
def test_psl2_is_guarded_by_degree_only(q, classes):
    # no cap on q besides the degree guard: PSL(2, q) on q + 1 points is
    # three-transitive for even q, with one more class for odd q
    scheme = at.ast_from_group(at.psl2_group(q))
    assert (scheme.nu, scheme.m + 1) == (q + 1, classes)
