"""Cubic hypermatrices and the ternary adjacency algebra.

The ternary product of three nu x nu x nu hypermatrices A, B, C is the
hypermatrix D with

    D[x][y][z] = sum over w of A[w][y][z] * B[x][w][z] * C[x][y][w].

Adjacency hypermatrices of a verified scheme multiply according to its
intersection numbers: A_i A_j A_k = sum over l of p_ijk^l A_l.  All
arithmetic is exact (ints and Fractions); 0/1 inputs take a bitset kernel
that ANDs per-fiber masks and popcounts.

Checking that law for one class triple does not need any nu^3 array:
:func:`class_product_mismatch` works on the scheme's cached per-class
z-fibers (:attr:`AstScheme.zfibers`), one row (x, y) at a time, with the
counts held in bit planes.  The structure-constant check and the ASL(2, q)
oracle use it for every product; the oracle also runs the public
:func:`ternary_product` pipeline once per family as a cross-check.
"""

from __future__ import annotations

from itertools import product

from .core import COORD_PERMS, AstScheme, is_symmetric_ast, relabel
from .errors import ConsistencyError, PreconditionError
from .record import Record

#: Dense storage bound; products above this are refused.
DENSE_LIMIT = 64


class CubicHypermatrix:
    """A nu x nu x nu array of exact scalars, flat-indexed (x*nu + y)*nu + z."""

    __slots__ = ("nu", "entries")

    def __init__(self, nu, entries):
        if nu < 1 or nu > DENSE_LIMIT:
            raise PreconditionError(
                f"dense hypermatrices support 1 <= nu <= {DENSE_LIMIT}, got {nu}")
        entries = tuple(entries)
        if len(entries) != nu**3:
            raise PreconditionError(
                f"expected {nu**3} entries for nu={nu}, got {len(entries)}")
        self.nu = nu
        self.entries = entries

    @classmethod
    def zeros(cls, nu):
        return cls(nu, (0,) * nu**3)

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

    def is_zero_one(self):
        return set(self.entries) <= {0, 1}

    def scaled(self, c):
        return CubicHypermatrix(self.nu, tuple(c * v for v in self.entries))

    def __add__(self, other):
        if not isinstance(other, CubicHypermatrix) or other.nu != self.nu:
            return NotImplemented
        return CubicHypermatrix(
            self.nu, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def entry_sum(self):
        return sum(self.entries)

    def dump_nonzero(self) -> str:
        """Diagnostic dump: one "x y z value" line per nonzero entry."""
        nu = self.nu
        lines = []
        for idx, v in enumerate(self.entries):
            if v:
                xy, z = divmod(idx, nu)
                x, y = divmod(xy, nu)
                lines.append(f"{x} {y} {z} {v}")
        return "\n".join(lines) + ("\n" if lines else "")


def adjacency(scheme: AstScheme, i: int) -> CubicHypermatrix:
    """The 0/1 adjacency hypermatrix of relation i."""
    if not 0 <= i <= scheme.m:
        raise PreconditionError(f"relation label {i} out of range 0..{scheme.m}")
    table = [0] * (scheme.m + 1)
    table[i] = 1
    return CubicHypermatrix(scheme.nu, relabel(scheme.labels, table))


def _product_bitset(a, b, c):
    """Ternary product of 0/1 hypermatrices via per-fiber AND + popcount."""
    nu = a.nu
    nu2 = nu * nu
    afib = [0] * nu2   # (y, z) -> bits over w with a[w,y,z] = 1
    for idx, v in enumerate(a.entries):
        if v:
            afib[idx % nu2] |= 1 << (idx // nu2)
    bfib = [0] * nu2   # (x, z) -> bits over w with b[x,w,z] = 1
    for idx, v in enumerate(b.entries):
        if v:
            rest, z = divmod(idx, nu)
            x, w = divmod(rest, nu)
            bfib[x * nu + z] |= 1 << w
    cfib = [0] * nu2   # (x, y) -> bits over w with c[x,y,w] = 1
    for idx, v in enumerate(c.entries):
        if v:
            cfib[idx // nu] |= 1 << (idx % nu)
    out = [0] * nu**3
    pos = 0
    for x in range(nu):
        xrow = x * nu
        for y in range(nu):
            cf = cfib[xrow + y]
            if cf:
                yrow = y * nu
                for z in range(nu):
                    hit = afib[yrow + z] & bfib[xrow + z] & cf
                    if hit:
                        out[pos + z] = hit.bit_count()
            pos += nu
    return CubicHypermatrix(nu, out)


def _product_dense(a, b, c):
    nu = a.nu
    nu2 = nu * nu
    ae, be, ce = a.entries, b.entries, c.entries
    out = [0] * nu**3
    pos = 0
    for x in range(nu):
        xb = x * nu2
        for y in range(nu):
            ybase = y * nu
            xyb = xb + ybase
            for z in range(nu):
                acc = 0
                for w in range(nu):
                    av = ae[w * nu2 + ybase + z]
                    if av:
                        bv = be[xb + w * nu + z]
                        if bv:
                            cv = ce[xyb + w]
                            if cv:
                                acc += av * bv * cv
                out[pos] = acc
                pos += 1
    return CubicHypermatrix(nu, out)


def ternary_product(a: CubicHypermatrix, b: CubicHypermatrix,
                    c: CubicHypermatrix) -> CubicHypermatrix:
    """D with D_xyz = sum_w a_wyz * b_xwz * c_xyw, exact."""
    if not (a.nu == b.nu == c.nu):
        raise PreconditionError(
            f"dimension mismatch: {a.nu}, {b.nu}, {c.nu}")
    if a.is_zero_one() and b.is_zero_one() and c.is_zero_one():
        return _product_bitset(a, b, c)
    return _product_dense(a, b, c)


def class_product_mismatch(scheme: AstScheme, i: int, j: int, k: int,
                           expected):
    """First cell where A_i A_j A_k differs from sum_l expected[l] A_l.

    Returns None when the two agree everywhere, else ``(cell, got, want)``
    for the first differing triple in flat index order, where ``got`` is
    the product's entry and ``want = expected[label(cell)]``.

    Row (x, y) of the product, as a vector over z, is the sum over
    w in zfib[k][x, y] of zfib[i][w, y] & zfib[j][x, w].  The sum is kept
    in bit planes (plane b holds bit b of every count) by carry-save adds.
    Classes are disjoint, so plane b of the expected row is the OR of
    zfib[l][x, y] over the l whose coefficient has bit b set.
    """
    m = scheme.m
    for label in (i, j, k):
        if not 0 <= label <= m:
            raise PreconditionError(
                f"relation label {label} out of range 0..{m}")
    if len(expected) != m + 1:
        raise PreconditionError(
            f"need {m + 1} coefficients, got {len(expected)}")
    nu = scheme.nu
    fibers = scheme.zfibers
    # Expected planes per row; a row stays [] when its expectation is 0
    # and becomes None when it meets a class no count can equal.
    wants = [[]] * (nu * nu)
    unreachable = []    # fibers of negative or fractional coefficients
    for label, want in enumerate(expected):
        if not want:
            continue
        n = int(want)
        if n != want or n < 0:
            unreachable.append(fibers[label])
            continue
        bits = [b for b in range(n.bit_length()) if n >> b & 1]
        for xy, f in enumerate(fibers[label]):
            if f:
                row = wants[xy] + [0] * (bits[-1] + 1 - len(wants[xy]))
                for b in bits:
                    row[b] |= f
                wants[xy] = row
    for fib in unreachable:
        for xy, f in enumerate(fib):
            if f:
                wants[xy] = None
    fi, fj, fk = fibers[i], fibers[j], fibers[k]
    icols = [fi[y::nu] for y in range(nu)]   # icols[y][w] = zfib[i][w, y]
    xy = 0
    for x in range(nu):
        jrow = fj[x * nu:x * nu + nu]        # jrow[w] = zfib[j][x, w]
        for icol in icols:
            got = []
            ws = fk[xy]
            while ws:
                low = ws & -ws
                ws ^= low
                w = low.bit_length() - 1
                carry = icol[w] & jrow[w]
                if not carry:
                    continue
                for b, plane in enumerate(got):
                    got[b] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    got.append(carry)
            # Both plane lists end in a nonzero plane, so they are equal
            # exactly when every count in the row matches.
            if got != wants[xy]:
                return _first_row_mismatch(scheme, expected, xy, got)
            xy += 1
    return None


def _first_row_mismatch(scheme, expected, xy, got):
    """Decode the first cell of row ``xy`` whose count is not expected."""
    for idx in range(xy * scheme.nu, (xy + 1) * scheme.nu):
        z = idx % scheme.nu
        count = sum((plane >> z & 1) << b for b, plane in enumerate(got))
        want = expected[scheme.labels[idx]]
        if count != want:
            return scheme.ground.triple(idx), count, want
    raise ConsistencyError(f"row {xy} planes differ but no count does")


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
        coeffs[i] = 1
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
        return CubicHypermatrix(self.scheme.nu,
                                map(coeffs.__getitem__, self.scheme.labels))


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
    for i in idx_range:
        for j in idx_range:
            for k in idx_range:
                checked += 1
                mismatch = class_product_mismatch(scheme, i, j, k,
                                                  tensor.slice(i, j, k))
                if mismatch is None:
                    continue
                cell, got, want = mismatch
                failures.append((i, j, k, cell, got, want))
                if i >= 4 and j >= 4 and k >= 4:
                    raise ConsistencyError(
                        f"product A_{i} A_{j} A_{k} breaks the "
                        f"structure-constant law at {cell}: "
                        f"{got} != {want}")
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

    def inverse_scaling(self, c) -> Fraction:
        from fractions import Fraction
        if c == 0:
            raise PreconditionError("zero has no inverse")
        return Fraction(1, 1) / (c * self.p444)


def ternary_field_certificate(scheme: AstScheme, sample_scalars=None):
    """Certificate for single-nontrivial-relation schemes, or None.

    None is returned when p_444^4 = 0, where no identity-like scaling
    exists.  Each sample scalar c is checked in coefficient space:
    (e, A_4, c A_4) reproduces c A_4 and (c A_4, inv(c) A_4, x) fixes x.
    ``sample_scalars`` defaults to (1, 2, 3, 5/7).  ``fractions`` is
    imported here, so the commands that never ask for a certificate do
    not load it.
    """
    from fractions import Fraction
    if sample_scalars is None:
        sample_scalars = (1, 2, 3, Fraction(5, 7))
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
    for c in sample_scalars:
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
