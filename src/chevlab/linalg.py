"""Exact matrix arithmetic over finite commutative rings.

Matrices are tuples of tuples of raw ring values (canonical, hashable).
A product a b is a (I + E) by column operations with E = b - I: it costs
O(nnz(E) n) and is exact on every ring.  Inversion and the determinant share
one path: it splits the ring into its local factors (a local ring is its own
single factor) and does unit-pivot Gauss-Jordan in each.
A sparse factor I + E acts by `row_ops` (left) or `col_ops` (right) in O(nnz n).
"""
from __future__ import annotations

from .rings import RingError, RingSpec, ZmodRing, artinian_decompose


class SingularMatrix(RingError):
    pass


def identity_matrix(spec: RingSpec, n: int):
    one, zero = spec.one, spec.zero
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_from_int(spec: RingSpec, m):
    return tuple(tuple(map(spec.from_int, row)) for row in m)


def mat_mul(spec: RingSpec, a, b):
    """a b for square b, as a (I + E) with E = b - I."""
    return col_ops(spec, a, delta_entries(spec, b))


def delta_entries(spec: RingSpec, mat) -> tuple:
    """The nonzero entries (i, j, c) of mat - I, the diagonal included; a row
    equal to the identity's is passed over by one test, not scanned."""
    zero, one = spec.zero, spec.one
    return tuple(
        (i, j, v if i != j else spec.sub(v, one))
        for i, row in enumerate(mat)
        if not (row[i] == one and row.count(zero) == len(row) - 1)
        for j, v in enumerate(row)
        if v != (one if i == j else zero)
    )


def row_ops(spec: RingSpec, entries, a):
    """(I + E) a for the entries E = [(i, j, c)]: row i gains c times row j."""
    out = list(a)
    if isinstance(spec, ZmodRing):
        m = spec.n
        for i, j, c in entries:
            out[i] = tuple((x + c * y) % m for x, y in zip(out[i], a[j]))
        return tuple(out)
    add, mul, zero = spec.add, spec.mul, spec.zero
    for i, j, c in entries:
        out[i] = tuple(
            x if y == zero else add(x, mul(c, y)) for x, y in zip(out[i], a[j])
        )
    return tuple(out)


def col_ops(spec: RingSpec, a, entries):
    """a (I + E) for the entries E = [(i, j, c)]: column j gains c times column i.
    A row that is zero in every column i is kept as it is."""
    out = []
    if isinstance(spec, ZmodRing):
        m = spec.n
        for row in a:
            new = None
            for i, j, c in entries:
                if row[i]:
                    new = new or list(row)
                    new[j] = (new[j] + row[i] * c) % m
            out.append(row if new is None else tuple(new))
        return tuple(out)
    add, mul, zero = spec.add, spec.mul, spec.zero
    for row in a:
        new = None
        for i, j, c in entries:
            if row[i] != zero:
                new = new or list(row)
                new[j] = add(new[j], mul(row[i], c))
        out.append(row if new is None else tuple(new))
    return tuple(out)


def _gauss_jordan(spec: RingSpec, a):
    """(inverse, determinant) by Gauss-Jordan over a local ring: every pivot
    must be a unit.  The determinant is the product of the pivots, negated
    once per row swap."""
    n = len(a)
    ident = identity_matrix(spec, n)
    aug = [list(row) + list(e) for row, e in zip(a, ident)]
    det = spec.one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if spec.is_unit(aug[r][col]):
                piv = r
                break
        if piv is None:
            raise SingularMatrix(
                f"matrix is not invertible: no unit pivot in column {col}"
            )
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = spec.neg(det)
        det = spec.mul(det, aug[col][col])
        inv = spec.inv(aug[col][col])
        aug[col] = [spec.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f == spec.zero:
                continue
            aug[r] = [
                spec.sub(x, spec.mul(f, y)) for x, y in zip(aug[r], aug[col])
            ]
    return tuple(tuple(row[n:]) for row in aug), det


def _eliminate(spec: RingSpec, a):
    """(inverse, determinant) over any finite commutative ring, eliminated on
    each local factor and joined back; SingularMatrix when a is not invertible."""
    dec = artinian_decompose(spec)
    if not dec.factors:  # the zero ring: every matrix is its own inverse
        return a, spec.one
    parts, dets = zip(*map(_gauss_jordan, dec.factors, dec.split(a)))
    return dec.join(parts), dec.from_components(dets)


def mat_inverse(spec: RingSpec, a):
    """Exact inverse over any finite commutative ring (local-factor Gauss)."""
    return _eliminate(spec, a)[0]


def mat_det(spec: RingSpec, a):
    """Exact determinant of an invertible matrix, at any dimension; raises
    SingularMatrix when some local factor has no unit pivot."""
    return _eliminate(spec, a)[1]


def transpose(a):
    return tuple(zip(*a))
