"""Exact matrix arithmetic over finite commutative rings.

Matrices are tuples of tuples of raw ring values (canonical, hashable).
From dimension 6 on, a product over Z/n or GF(p)[x]/(f) crosses into numpy
once and comes back once: each matrix enters as one int64 array, read in a
single pass by `np.fromiter`, and the product leaves by `.tolist()`.  A
quotient of degree d is read as an (n, n, d) array of coefficient planes; its
d^2 plane products are summed by degree and reduced mod f in one `tensordot`
with the rows of x^s mod f.  A product ring multiplies factor by factor.  The
int64 path runs only while every intermediate sum stays below 2^63; above
that bound the exact Python-int path takes over.  Inversion and the
determinant share one path: it splits the ring into its local factors (a local
ring is its own single factor) and does unit-pivot Gauss-Jordan in each.
A sparse factor I + E acts by `row_ops` (left) or `col_ops` (right) in O(nnz n).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .rings import (
    RING_MEMO_SIZE,
    PolyQuotientRing,
    ProductRing,
    RingError,
    RingSpec,
    ZmodRing,
    artinian_decompose,
)


class SingularMatrix(RingError):
    pass


def identity_matrix(spec: RingSpec, n: int):
    one, zero = spec.one, spec.zero
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_from_int(spec: RingSpec, m):
    return tuple(tuple(map(spec.from_int, row)) for row in m)


_NUMPY_MIN_DIM = 6


def mat_mul(spec: RingSpec, a, b):
    n = len(a)
    if n >= _NUMPY_MIN_DIM:
        fast = _np_mul(spec, a, b)
        if fast is not None:
            return fast
    if isinstance(spec, ZmodRing):
        m = spec.n
        bt = list(zip(*b))
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % m for col in bt)
            for row in a
        )
    add, mul, zero = spec.add, spec.mul, spec.zero
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


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


_INT64_BOUND = 1 << 63


def _int64_array(m, shape):
    """A matrix of nested tuples of ints as one int64 array of the given shape."""
    flat = m
    for _ in shape[1:]:
        flat = itertools.chain.from_iterable(flat)
    return np.fromiter(flat, np.int64, math.prod(shape)).reshape(shape)


def _np_mul(spec: RingSpec, a, b):
    """Product through numpy int64, or None when the ring has no fast path or
    an intermediate sum could pass 2^63."""
    n = len(a)
    if isinstance(spec, ZmodRing):
        if n * (spec.n - 1) ** 2 >= _INT64_BOUND:
            return None
        prod = _int64_array(a, (n, n)) @ _int64_array(b, (n, n))
        return tuple(map(tuple, (prod % spec.n).tolist()))
    if isinstance(spec, PolyQuotientRing) and isinstance(spec.base, ZmodRing):
        p, d = spec.base.n, spec.degree
        # a conv plane is at most d*n*(p-1)^2, and 2d-1 of them meet entries <= p-1
        if (2 * d - 1) * d * n * (p - 1) ** 3 >= _INT64_BOUND:
            return None
        sa, sb = _int64_array(a, (n, n, d)), _int64_array(b, (n, n, d))
        conv = np.zeros((2 * d - 1, n, n), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                conv[i + j] += sa[:, :, i] @ sb[:, :, j]
        out = np.tensordot(conv, _reduction_rows(spec), axes=(0, 0)) % p
        return tuple(tuple(map(tuple, row)) for row in out.tolist())
    if isinstance(spec, ProductRing):
        # factor k of a matrix: row i is zip(*a[i])[k]
        fa = zip(*(zip(*row) for row in a))
        fb = zip(*(zip(*row) for row in b))
        parts = []
        for f, x, y in zip(spec.factors, fa, fb):
            sub = _np_mul(f, x, y)
            if sub is None:
                return None
            parts.append(sub)
        return tuple(tuple(zip(*rows)) for rows in zip(*parts))
    return None


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def _reduction_rows(spec: PolyQuotientRing):
    """x^s = sum_k red[s][k] x^k for s = 0..2d-2, as an int64 array."""
    d = spec.degree
    rows = [[1 if k == s else 0 for k in range(d)] for s in range(d)]
    rows += [list(row) for row in spec._high_powers]
    return np.array(rows, dtype=np.int64)


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
