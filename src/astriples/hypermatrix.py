"""Cubic hypermatrices and the ternary adjacency algebra.

The ternary product of three nu x nu x nu hypermatrices A, B, C is the
hypermatrix D with

    D[x][y][z] = sum over w of A[w][y][z] * B[x][w][z] * C[x][y][w].

Adjacency hypermatrices of a verified scheme multiply according to its
intersection numbers: A_i A_j A_k = sum over l of p_ijk^l A_l.  All
arithmetic is exact (ints and Fractions).  0/1 products are counted on
whole-cube bit ints: each factor becomes nu broadcasts, one per w, that
copy its w-slab, w-rows or w-columns across the cube, and the nu ANDs
are carry-save added into bit planes of the counts.

Checking that law for one class triple needs no nu^3 array:
:func:`class_product_mismatch` runs the same count on class broadcasts
cached on the scheme (:attr:`AstScheme.bit_cache`) and compares the
planes with ORs of the classes.  The structure-constant check and the
ASL(2, q) oracle use it for every product; the oracle also runs the
public :func:`ternary_product` pipeline once per family as a cross-check.
Both are refused past nu = DENSE_LIMIT.
"""

from __future__ import annotations

from array import array
from itertools import product, zip_longest

from .core import COORD_PERMS, AstScheme, is_symmetric_ast, relabel
from .errors import ConsistencyError, PreconditionError, check_int
from .record import Record

#: Dense storage bound; products and class products above it are refused.
DENSE_LIMIT = 64

_DIGITS = bytes.maketrans(b"\0\1", b"01")    # 0/1 cell bytes to binary digits
_CELLS = bytes.maketrans(b"01", b"\0\1")     # and back


class CubicHypermatrix:
    """A nu x nu x nu array of exact scalars, flat-indexed (x*nu + y)*nu + z."""

    __slots__ = ("nu", "entries")

    def __init__(self, nu, entries):
        check_int("nu", nu, 1, DENSE_LIMIT)
        entries = tuple(entries)
        if len(entries) != nu**3:
            raise PreconditionError(
                f"expected {nu**3} entries for nu={nu}, got {len(entries)}")
        self.nu = nu
        self.entries = entries

    def __getitem__(self, xyz):
        x, y, z = xyz
        return self.entries[(x * self.nu + y) * self.nu + z]

    def __eq__(self, other):
        return (isinstance(other, CubicHypermatrix)
                and self.nu == other.nu and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nu, self.entries))

    def __repr__(self):
        nz = sum(1 for v in self.entries if v)
        return f"CubicHypermatrix(nu={self.nu}, nonzero={nz})"

    def is_zero(self):
        return not any(self.entries)

    def scaled(self, c):
        return CubicHypermatrix(self.nu, tuple(c * v for v in self.entries))

    def __add__(self, other):
        if not isinstance(other, CubicHypermatrix) or other.nu != self.nu:
            return NotImplemented
        return CubicHypermatrix(
            self.nu, tuple(a + b for a, b in zip(self.entries, other.entries)))


def adjacency(scheme: AstScheme, i: int) -> CubicHypermatrix:
    """The 0/1 adjacency hypermatrix of relation i."""
    table = [0] * (scheme.m + 1)
    table[scheme.check_label(i)] = 1
    return CubicHypermatrix(scheme.nu, relabel(scheme.labels, table))


def _zero_one_bits(entries):
    """The nu^3-bit int with bit c set where entry c is 1, when every
    entry equals 0 or 1; else None."""
    try:
        cells = bytes(entries)
    except (TypeError, ValueError):     # 1.0, Fraction(1), -1, 256, ...
        if not set(entries) <= {0, 1}:
            return None
        cells = bytes(map(bool, entries))
    if cells.translate(None, b"\0\1"):
        return None
    return int(cells[::-1].translate(_DIGITS), 2)


def _spread(bits: int, stride: int, count: int) -> int:
    """``bits`` ORed with its copies shifted by 1 .. count-1 strides."""
    done = 1
    while done < count:
        step = min(done, count - done)
        bits |= bits << step * stride
        done += step
    return bits


def _broadcasts(cube: int, nu: int, slot: int) -> list[int]:
    """The nu broadcasts of a nu^3-bit cube as factor ``slot`` of the
    product: broadcast w holds, at every cell (x, y, z), the cube's bit at
    (w, y, z) for slot 0, at (x, w, z) for slot 1, at (x, y, w) for slot 2."""
    nu2 = nu * nu
    if slot == 0:       # the w-slab, tiled over x
        slab = (1 << nu2) - 1
        return [_spread(cube >> w * nu2 & slab, nu2, nu) for w in range(nu)]
    if slot == 1:       # the w-row of each slab, spread over y
        rows = _spread((1 << nu) - 1, nu2, nu)
        return [_spread(cube >> w * nu & rows, nu, nu) for w in range(nu)]
    cols = _spread(1, nu, nu2)      # the w-column, filled over z
    return [(col << nu) - col for col in (cube >> w & cols for w in range(nu))]


def _count_planes(a_casts, b_casts, c_casts) -> list[int]:
    """Bit planes (plane b holds bit b of every count) of the count, at
    each cell, of the w whose three broadcasts all hold it; carry-save."""
    planes = []
    for a, b, c in zip(a_casts, b_casts, c_casts):
        carry = a & b & c
        if not carry:
            continue
        for p, plane in enumerate(planes):
            planes[p] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _product_dense(a, b, c):
    """The defining sum, cell by cell, skipping zero factors."""
    nu = a.nu
    ae, be, ce = a.entries, b.entries, c.entries
    nu2 = nu * nu
    out = []
    for x, y, z in product(range(nu), repeat=3):
        a0, b0, c0 = y * nu + z, x * nu2 + z, (x * nu + y) * nu
        acc = 0
        for w in range(nu):
            av = ae[a0 + w * nu2]
            if av:
                bv = be[b0 + w * nu]
                if bv:
                    cv = ce[c0 + w]
                    if cv:
                        acc += av * bv * cv
        out.append(acc)
    return CubicHypermatrix(nu, out)


def ternary_product(a: CubicHypermatrix, b: CubicHypermatrix,
                    c: CubicHypermatrix) -> CubicHypermatrix:
    """D with D_xyz = sum_w a_wyz * b_xwz * c_xyw, exact."""
    if not (a.nu == b.nu == c.nu):
        raise PreconditionError(
            f"dimension mismatch: {a.nu}, {b.nu}, {c.nu}")
    cubes = [_zero_one_bits(h.entries) for h in (a, b, c)]
    if None in cubes:
        return _product_dense(a, b, c)
    nu, size = a.nu, a.nu**3
    planes = _count_planes(*map(_broadcasts, cubes, (nu,) * 3, range(3)))
    # Counts are at most nu <= 64, so each fits in one byte lane.
    lanes = 0
    for bit, plane in enumerate(planes):
        digits = format(plane, f"0{size}b").encode()[::-1]
        lanes |= int.from_bytes(digits.translate(_CELLS), "little") << bit
    return CubicHypermatrix(nu, lanes.to_bytes(size, "little"))


def class_product_mismatch(scheme: AstScheme, i: int, j: int, k: int,
                           expected):
    """First cell where A_i A_j A_k differs from sum_l expected[l] A_l.

    Returns None when the two agree everywhere, else ``(cell, got, want)``
    for the first differing triple in flat index order, where ``got`` is
    the product's entry and ``want = expected[label(cell)]``.

    The product is counted (:func:`_count_planes`) on the class
    broadcasts cached in :attr:`AstScheme.bit_cache`, nu^4/8 bytes per
    class and slot, so nu > DENSE_LIMIT is refused.  Classes are disjoint:
    plane b of the expectation is the OR of the classes whose coefficient
    has bit b set, and the first differing cell is the lowest set bit of
    the planes' XOR.
    """
    m = scheme.m
    i, j, k = map(scheme.check_label, (i, j, k))
    if len(expected) != m + 1:
        raise PreconditionError(
            f"need {m + 1} coefficients, got {len(expected)}")
    nu = check_int("nu", scheme.nu, 3, DENSE_LIMIT)
    cache = scheme.bit_cache

    def bits(label):    # class ``label`` as one nu^3-bit int
        if label not in cache:
            table = bytes(l == label for l in range(m + 1))
            cache[label] = _zero_one_bits(
                array("B", relabel(scheme.labels, table)))
        return cache[label]

    for slot, label in enumerate((i, j, k)):
        if (label, slot) not in cache:
            cache[label, slot] = _broadcasts(bits(label), nu, slot)
    got = _count_planes(cache[i, 0], cache[j, 1], cache[k, 2])
    diff = 0            # cells whose count differs from the expectation
    want = [0] * nu.bit_length()
    for label, coeff in enumerate(expected):
        if not coeff:
            continue
        n = int(coeff)
        if n != coeff or not 0 <= n <= nu:  # no count (0..nu) can equal it
            diff |= bits(label)
            continue
        for b in range(n.bit_length()):
            if n >> b & 1:
                want[b] |= bits(label)
    for got_plane, want_plane in zip_longest(got, want, fillvalue=0):
        diff |= got_plane ^ want_plane
    if not diff:
        return None
    cell = (diff & -diff).bit_length() - 1
    count = sum((plane >> cell & 1) << b for b, plane in enumerate(got))
    return scheme.ground.triple(cell), count, expected[scheme.labels[cell]]


class AlgebraElement(Record):
    """A linear combination sum_i coeffs[i] * A_i over a scheme's classes."""

    scheme: AstScheme
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.scheme.m + 1:
            raise PreconditionError(
                f"need {self.scheme.m + 1} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def basis(cls, scheme, i):
        coeffs = [0] * (scheme.m + 1)
        coeffs[scheme.check_label(i)] = 1
        return cls(scheme, tuple(coeffs))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.coeffs) if v)

    def is_zero(self):
        return not any(self.coeffs)

    def scaled(self, c):
        return AlgebraElement(self.scheme, tuple(c * v for v in self.coeffs))

    def expand(self) -> CubicHypermatrix:
        """The hypermatrix sum of the scaled adjacency hypermatrices."""
        coeffs = [c if c else 0 for c in self.coeffs]
        labels = self.scheme.labels
        if all(type(c) is int and 0 <= c <= 0xFF for c in coeffs):
            return CubicHypermatrix(self.scheme.nu, relabel(labels, coeffs))
        return CubicHypermatrix(self.scheme.nu,
                                map(coeffs.__getitem__, labels))


def product_in_coefficients(x: AlgebraElement, y: AlgebraElement,
                            z: AlgebraElement) -> AlgebraElement:
    """Trilinear product through the intersection tensor.

    Only elements supported on nontrivial labels are accepted: products of
    nontrivial basis elements stay in that span, so the expansion is closed
    there, while support on a trivial label has no such guarantee.
    """
    scheme = x.scheme
    if y.scheme is not scheme or z.scheme is not scheme:
        raise PreconditionError("elements live on different schemes")
    for el in (x, y, z):
        if any(i < 4 for i in el.support):
            raise PreconditionError(
                f"support {el.support} touches a trivial label; the "
                "coefficient product is only defined on nontrivial support")
    slices = scheme.tensor.slices
    out = [0] * (scheme.m + 1)
    for i in x.support:
        xi = x.coeffs[i]
        for j in y.support:
            xy = xi * y.coeffs[j]
            for k in z.support:
                coeff = xy * z.coeffs[k]
                for l, p in slices.get((i, j, k), ()):
                    out[l] += coeff * p
    if any(out[:4]):
        raise ConsistencyError(
            "nontrivial product produced support on a trivial label; "
            "the tensor is corrupt")
    return AlgebraElement(scheme, tuple(out))


class StructureConstantReport(Record):
    """Outcome of checking A_i A_j A_k = sum_l p_ijk^l A_l entrywise."""

    checked: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def verify_structure_constants(scheme: AstScheme,
                               scope: str = "all") -> StructureConstantReport:
    """Compare hypermatrix products against the tensor for index triples.

    Every product is checked entrywise by :func:`class_product_mismatch`;
    a failure records the first differing cell.  ``scope`` is ``"all"`` or
    ``"nontrivial"``.  Failures on triples of nontrivial labels contradict
    the closure of the nontrivial subalgebra and raise
    :class:`ConsistencyError`; any other failure is reported.
    """
    if scope not in ("all", "nontrivial"):
        raise PreconditionError(f"unknown scope {scope!r}")
    tensor = scheme.tensor
    idx_range = (range(scheme.m + 1) if scope == "all"
                 else scheme.nontrivial_labels)
    failures = []
    checked = 0
    for i, j, k in product(idx_range, repeat=3):
        checked += 1
        mismatch = class_product_mismatch(scheme, i, j, k,
                                          tensor.slice(i, j, k))
        if mismatch is None:
            continue
        cell, got, want = mismatch
        failures.append((i, j, k, cell, got, want))
        if i >= 4 and j >= 4 and k >= 4:
            raise ConsistencyError(
                f"product A_{i} A_{j} A_{k} breaks the structure-constant "
                f"law at {cell}: {got} != {want}")
    return StructureConstantReport(checked=checked, failures=tuple(failures))


def is_commutative_subalgebra(scheme: AstScheme) -> bool:
    """True iff p is invariant under permuting (i, j, k) on nontrivial labels."""
    return commutativity_counterexample(scheme) is None


def commutativity_counterexample(scheme: AstScheme):
    """A tuple (i, j, k, sigma) with differing tensor slices, or None."""
    slice_of = scheme.tensor.slices.get
    for ijk in product(scheme.nontrivial_labels, repeat=3):
        base = slice_of(ijk)
        for sigma in COORD_PERMS[1:]:
            if slice_of((ijk[sigma[0]], ijk[sigma[1]], ijk[sigma[2]])) != base:
                return ijk + (sigma,)
    return None


def associativity_counterexample(scheme: AstScheme):
    """Five nontrivial basis generators whose nestings disagree, or None.

    The ternary notion compared is the three placements of the inner
    product in a 5-factor expression: (xyz)uv, x(yzu)v and xy(zuv).
    """
    nontrivial = scheme.nontrivial_labels
    basis = {i: AlgebraElement.basis(scheme, i) for i in nontrivial}
    # Products of nontrivial basis elements have nontrivial support only.
    inner = {abc: AlgebraElement(scheme, scheme.tensor.slice(*abc))
             for abc in product(nontrivial, repeat=3)}
    for a, b, c, d, e in product(nontrivial, repeat=5):
        left = product_in_coefficients(inner[a, b, c], basis[d], basis[e])
        mid = product_in_coefficients(basis[a], inner[b, c, d], basis[e])
        if left.coeffs != mid.coeffs:
            return ((a, b, c, d, e), left.coeffs, mid.coeffs, None)
        right = product_in_coefficients(basis[a], basis[b], inner[c, d, e])
        if mid.coeffs != right.coeffs:
            return ((a, b, c, d, e), left.coeffs, mid.coeffs, right.coeffs)
    return None


def is_associative_subalgebra(scheme: AstScheme) -> bool:
    return associativity_counterexample(scheme) is None


def weak_associativity_check(scheme: AstScheme) -> bool:
    """The three nestings of (A_i A_i A_j) A_i A_i agree, for symmetric schemes."""
    if not is_symmetric_ast(scheme):
        raise PreconditionError(
            "the weak associative law is only claimed for symmetric schemes")
    tensor = scheme.tensor
    for i in scheme.nontrivial_labels:
        ei = AlgebraElement.basis(scheme, i)
        for j in scheme.nontrivial_labels:
            iij = AlgebraElement(scheme, tensor.slice(i, i, j))
            iji = AlgebraElement(scheme, tensor.slice(i, j, i))
            jii = AlgebraElement(scheme, tensor.slice(j, i, i))
            left = product_in_coefficients(iij, ei, ei)
            mid = product_in_coefficients(ei, iji, ei)
            right = product_in_coefficients(ei, ei, jii)
            if not (left.coeffs == mid.coeffs == right.coeffs):
                return False
    return True


class TernaryFieldCertificate(Record):
    """Witness that the algebra generated by the single nontrivial class is
    a ternary field.

    ``p444`` is the structure constant of the generator with itself; the
    recorded products show that scaling by 1/p444 yields an identity-like
    element and that every nonzero multiple c*A_4 has the inverse
    (1/(c*p444))*A_4.
    """

    p444: int
    identity_scaling: Fraction
    verified_products: tuple


def ternary_field_certificate(scheme: AstScheme):
    """Certificate for single-nontrivial-relation schemes, or None.

    None is returned when p_444^4 = 0, where no identity-like scaling
    exists.  Each of the scalars c = 1, 2, 3 and 5/7 is checked in
    coefficient space: (e, A_4, c A_4) reproduces c A_4 and
    (c A_4, inv(c) A_4, x) fixes x.  ``fractions`` is imported here, so
    the commands that never ask for a certificate do not load it.
    """
    from fractions import Fraction
    if scheme.m != 4:
        raise PreconditionError(
            "certificate requires exactly one nontrivial relation, "
            f"scheme has {scheme.m - 3}")
    p = scheme.tensor.get(4, 4, 4, 4)
    if p == 0:
        return None
    ident = Fraction(1, p)
    e = AlgebraElement.basis(scheme, 4).scaled(ident)
    a4 = AlgebraElement.basis(scheme, 4)
    checks = []
    for c in (1, 2, 3, Fraction(5, 7)):
        target = a4.scaled(c)
        repro = product_in_coefficients(e, a4, target)
        inv = a4.scaled(Fraction(1, 1) / (c * p))
        fixed = product_in_coefficients(target, inv, a4)
        checks.append((c, repro.coeffs, inv.coeffs, fixed.coeffs))
        if repro.coeffs != target.coeffs or fixed.coeffs != a4.coeffs:
            raise ConsistencyError(
                f"certificate products failed for scalar {c}")
    return TernaryFieldCertificate(
        p444=p, identity_scaling=ident, verified_products=tuple(checks))
