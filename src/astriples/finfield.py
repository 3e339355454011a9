"""Exact GF(q) arithmetic and the classical two-transitive groups.

Field elements are integers 0..q-1 encoding polynomial coefficient
vectors in base p (little-endian: element sum c_i x^i is the integer
sum c_i p^i), so 0 and 1 are always the additive and multiplicative
identities.  The modulus is the first monic irreducible of degree k in
that encoding order, making every construction reproducible.

Products, inverses, quotients and powers read log tables, which the
polynomial product ``_mul_raw`` fills once per field.  Fields stop at
q = ``ORBIT_DEGREE_LIMIT`` (256), the largest any group family asks for.

Group constructors build only a few generators (translations, elementary
transvections and, for the general groups, a primitive-element scaling)
and hand them to the stabilizer-chain builder, which checks that they
generate a group of exactly the order given by the classical formula.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (ConsistencyError, PreconditionError, SizeGuardError,
                     StructuralError, check_int)
from .permgroup import (ORBIT_DEGREE_LIMIT, PermutationGroup,
                        group_from_elements)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(n: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        n, r = divmod(n, base)
        out.append(r)
    return out


def _poly_rem(num, den, p):
    """Remainder of num modulo monic den; little-endian coefficient lists."""
    deg_d = len(den) - 1
    num = [c % p for c in num]
    if len(num) < deg_d:
        num += [0] * (deg_d - len(num))
    for top in range(len(num) - 1, deg_d - 1, -1):
        c = num[top]
        if c:
            shift = top - deg_d
            for i in range(deg_d + 1):
                num[shift + i] = (num[shift + i] - c * den[i]) % p
    return num[:deg_d]


def _is_irreducible(poly, p):
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


class FiniteField:
    """GF(p^k) with integer-encoded elements and exact operations.

    ``gamma`` is the least primitive element (1 in GF(2)); ``exp[i]`` is
    gamma^i for 0 <= i < 2(q - 1), the cycle stored twice so that a sum
    of two logs indexes it directly, and ``log[a]`` is the exponent of a
    nonzero a.  A modulus that is not irreducible has no element of
    multiplicative order q - 1 and raises :class:`ConsistencyError`.
    """

    __slots__ = ("p", "k", "q", "modulus", "gamma", "exp", "log")

    def __init__(self, p, k, modulus):
        _check_field_size(p, k)
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = tuple(modulus)
        # The first g whose powers return to 1 after exactly q - 1 steps;
        # each candidate is followed for at most q - 1 steps.
        for g in range(1, q):
            powers, x = [1], g
            while x != 1 and len(powers) < q - 1:
                powers.append(x)
                x = self._mul_raw(x, g)
            if x == 1 and len(powers) == q - 1:
                break
        else:
            raise ConsistencyError(f"no primitive element modulo {modulus}")
        self.gamma = g
        self.exp = powers * 2
        self.log = [0] * q
        for i, x in enumerate(powers):
            self.log[x] = i

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k})"

    def coeffs(self, a: int) -> tuple[int, ...]:
        return tuple(_digits(a, self.p, self.k))

    def element(self, coeffs) -> int:
        total = 0
        for c in reversed(list(coeffs)):
            total = total * self.p + (c % self.p)
        return total

    def add(self, a: int, b: int) -> int:
        # For p = 2 the encoding packs the coefficients as bits.
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return self.element(map(int.__add__, self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        return self.element(-c for c in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        p, k = self.p, self.k
        da, db = _digits(a, p, k), _digits(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    conv[i + j] = (conv[i + j] + ca * cb) % p
        return self.element(_poly_rem(conv, list(self.modulus), p))

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self.exp[self.log[a] + self.log[b]]
        return 0

    def pow(self, a: int, n: int) -> int:
        if a:
            return self.exp[self.log[a] * n % (self.q - 1)]
        if n < 0:
            raise PreconditionError("zero is not invertible")
        return 0 if n else 1

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("zero is not invertible")
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def format_element(self, a: int) -> str:
        """Reports use the coefficient vector for non-prime fields."""
        if self.k == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in self.coeffs(a)) + ")"


def _check_field_size(p, k):
    """Refuse p^k past ``ORBIT_DEGREE_LIMIT`` before any loop; p^k is
    formed only once p and 2^k are within the limit, so it is small."""
    check_int("p", p, 2, ORBIT_DEGREE_LIMIT)
    check_int("k", k, 1, ORBIT_DEGREE_LIMIT.bit_length() - 1)
    if p**k > ORBIT_DEGREE_LIMIT:
        raise SizeGuardError(f"field size exceeds cap {ORBIT_DEGREE_LIMIT}")


def make_field(p: int, k: int = 1) -> FiniteField:
    """GF(p^k) with the first monic irreducible modulus of degree k.

    Deterministic across runs: moduli are scanned in integer-encoding
    order of their non-leading coefficients.  p and k are checked before
    the cache is read: a field past ``ORBIT_DEGREE_LIMIT`` elements raises
    :class:`SizeGuardError` before p is tested for primality.
    """
    _check_field_size(p, k)
    return _field(p, k)


@lru_cache(maxsize=None)
def _field(p, k) -> FiniteField:
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    for enc in range(p**k):
        modulus = _digits(enc, p, k) + [1]
        if _is_irreducible(modulus, p):
            break
    return FiniteField(p, k, modulus)


def field_from_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    check_int("q", q, 2, ORBIT_DEGREE_LIMIT)
    p = 2
    while q % p:
        p += 1
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise PreconditionError(f"{q} is not a prime power")
    return make_field(p, k)


def point_index(field: FiniteField, x: int, y: int) -> int:
    """Index of the plane point (x, y) in 0..q^2-1."""
    if max(check_int("x", x, 0), check_int("y", y, 0)) >= field.q:
        raise PreconditionError(f"point ({x}, {y}) outside GF({field.q})^2")
    return x * field.q + y


def _affine_image(field, mat, tx=0, ty=0):
    """Point-index image array of v -> mat v + (tx, ty)."""
    q = field.q
    a, b, c, d = mat
    return tuple(
        field.add(field.add(field.mul(a, x), field.mul(b, y)), tx) * q
        + field.add(field.add(field.mul(c, x), field.mul(d, y)), ty)
        for x in range(q) for y in range(q))


def _family_field(q, degree) -> FiniteField:
    """GF(q) for a group on ``degree(q)`` points: q is checked first, then
    that degree is guarded, and only then is the field built."""
    check_int("degree", degree(check_int("q", q, 2)), 1, ORBIT_DEGREE_LIMIT)
    return field_from_order(q)


def _affine_group(q, general):
    field = _family_field(q, lambda q: q * q)
    seeds = []
    for i in range(field.k):
        u = field.p**i
        seeds += [_affine_image(field, (1, 0, 0, 1), u, 0),
                  _affine_image(field, (1, u, 0, 1)),
                  _affine_image(field, (1, 0, u, 1)),
                  _affine_image(field, (1, 0, 0, 1), 0, u)]
    if general and q > 2:
        # a non-unimodular generator for the general linear case
        seeds.append(_affine_image(field, (field.gamma, 0, 0, 1)))
    return group_from_elements(q * q, seeds, q**3 * (q * q - 1)
                               * (q - 1 if general else 1))


def asl2_group(q: int) -> PermutationGroup:
    """The affine maps v -> Av + t on GF(q)^2 with det A = 1.

    Order q^3 (q^2 - 1); two-transitive on the q^2 plane points.
    """
    return _affine_group(q, False)


def agl2_group(q: int) -> PermutationGroup:
    """All invertible affine maps on GF(q)^2; order q^3 (q^2 - 1)(q - 1)."""
    return _affine_group(q, True)


def agl1_group(q: int) -> PermutationGroup:
    """The maps x -> a x + b with a != 0 on GF(q); order q(q-1)."""
    field = _family_field(q, lambda q: q)
    seeds = [tuple(field.add(x, field.p**i) for x in range(q))
             for i in range(field.k)]
    if q > 2:
        seeds.append(tuple(field.mul(field.gamma, x) for x in range(q)))
    return group_from_elements(q, seeds, q * (q - 1))


def psl2_group(q: int) -> PermutationGroup:
    """PSL(2, q) acting on the projective line (q + 1 points).

    Points 0..q-1 are the affine values, point q is infinity.  Order
    q (q^2 - 1) / gcd(2, q - 1).
    """
    field = _family_field(q, lambda q: q + 1)
    expected = q * (q * q - 1) // (2 if q % 2 else 1)
    infinity = q

    def moebius_perm(mat):
        a, b, c, d = mat
        images = []
        for x in range(q):
            den = field.add(field.mul(c, x), d)
            num = field.add(field.mul(a, x), b)
            images.append(field.div(num, den) if den else infinity)
        images.append(field.div(a, c) if c else infinity)
        return tuple(images)

    seeds = [moebius_perm((1, field.p**i, 0, 1)) for i in range(field.k)]
    seeds.append(moebius_perm((0, field.neg(1), 1, 0)))
    return group_from_elements(q + 1, seeds, expected)


def group_from_spec(spec: str) -> PermutationGroup:
    """CLI group specifiers: asl2:q, agl1:q, agl2:q, psl2:q, file:<path>."""
    if ":" not in spec:
        raise StructuralError(f"bad group spec {spec!r}; expected name:arg")
    name, arg = spec.split(":", 1)
    if name == "file":
        from .core import read_text
        from .permgroup import close, generators_from_text
        generators = generators_from_text(read_text(arg))
        check_int("degree", len(generators[0]), 1, ORBIT_DEGREE_LIMIT)
        return close(generators)
    builders = {"asl2": asl2_group, "agl1": agl1_group,
                "agl2": agl2_group, "psl2": psl2_group}
    if name not in builders:
        raise StructuralError(f"unknown group family {name!r}")
    if not (arg.isascii() and arg.isdigit()):
        raise StructuralError(f"bad field order {arg!r}")
    return builders[name](int(arg))
