"""Exact matrix arithmetic over finite commutative rings.

Matrices are tuples of tuples of raw ring values (canonical, hashable).
Multiplication uses numpy fast paths for residue and polynomial-quotient
rings; inversion works over any finite ring by splitting into local factors
and doing unit-pivot Gaussian elimination there.
"""
from __future__ import annotations

import functools

import numpy as np

from .rings import (
    RING_MEMO_SIZE,
    PolyQuotientRing,
    ProductRing,
    RingError,
    RingSpec,
    ZmodRing,
    artinian_decompose,
    is_local,
)


class SingularMatrix(RingError):
    pass


def identity_matrix(spec: RingSpec, n: int):
    one, zero = spec.one, spec.zero
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_from_int(spec: RingSpec, m):
    cache: dict = {}

    def conv(k):
        v = cache.get(k)
        if v is None:
            v = spec.from_int(k)
            cache[k] = v
        return v

    return tuple(tuple(conv(x) for x in row) for row in m)


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


_INT64_BOUND = 1 << 63


def _np_mul(spec: RingSpec, a, b):
    """Product through numpy int64, or None when the ring has no fast path or
    an intermediate sum could pass 2^63."""
    if isinstance(spec, ZmodRing):
        if len(a) * (spec.n - 1) ** 2 >= _INT64_BOUND:
            return None
        arr = (np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)) % spec.n
        return tuple(tuple(int(x) for x in row) for row in arr)
    if isinstance(spec, PolyQuotientRing) and isinstance(spec.base, ZmodRing):
        return _np_mul_polyquot(spec, a, b)
    if isinstance(spec, ProductRing):
        parts = []
        for idx, f in enumerate(spec.factors):
            fa = tuple(tuple(v[idx] for v in row) for row in a)
            fb = tuple(tuple(v[idx] for v in row) for row in b)
            sub = _np_mul(f, fa, fb)
            if sub is None:
                return None
            parts.append(sub)
        n = len(a)
        return tuple(
            tuple(
                tuple(parts[k][i][j] for k in range(len(parts)))
                for j in range(n)
            )
            for i in range(n)
        )
    return None


def _np_mul_polyquot(spec: PolyQuotientRing, a, b):
    p = spec.base.n
    d = spec.degree
    n = len(a)
    if (2 * d - 1) * d * n * (p - 1) ** 3 >= _INT64_BOUND:
        return None
    red = _reduction_rows(spec)
    sa = [np.empty((n, n), dtype=np.int64) for _ in range(d)]
    sb = [np.empty((n, n), dtype=np.int64) for _ in range(d)]
    for i in range(n):
        for j in range(n):
            va, vb = a[i][j], b[i][j]
            for k in range(d):
                sa[k][i, j] = va[k]
                sb[k][i, j] = vb[k]
    conv = [None] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            prod = sa[i] @ sb[j]
            s = i + j
            conv[s] = prod if conv[s] is None else conv[s] + prod
    out = [None] * d
    for s in range(2 * d - 1):
        if conv[s] is None:
            continue
        for k in range(d):
            c = int(red[s, k])
            if c:
                out[k] = conv[s] * c if out[k] is None else out[k] + conv[s] * c
    out = [(m % p if m is not None else np.zeros((n, n), dtype=np.int64)) for m in out]
    return tuple(
        tuple(
            tuple(int(out[k][i, j]) for k in range(d))
            for j in range(n)
        )
        for i in range(n)
    )


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def _reduction_rows(spec: PolyQuotientRing):
    """x^s = sum_k red[s][k] x^k for s = 0..2d-2, as an int64 array."""
    d = spec.degree
    rows = [[1 if k == s else 0 for k in range(d)] for s in range(d)]
    rows += [list(row) for row in spec._high_powers]
    return np.array(rows, dtype=np.int64)


def _gauss_inverse(spec: RingSpec, a):
    """Gauss-Jordan over a local ring: every pivot must be a unit."""
    n = len(a)
    aug = [list(row) + list(identity_matrix(spec, n)[i]) for i, row in enumerate(a)]
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
        aug[col], aug[piv] = aug[piv], aug[col]
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
    return tuple(tuple(row[n:]) for row in aug)


_local_factors = functools.lru_cache(maxsize=RING_MEMO_SIZE)(artinian_decompose)


def mat_inverse(spec: RingSpec, a):
    """Exact inverse over any finite commutative ring (local-factor Gauss)."""
    if is_local(spec)[0]:
        return _gauss_inverse(spec, a)
    dec = _local_factors(spec)
    n = len(a)
    comp = [[dec.to_components(v) for v in row] for row in a]
    parts = []
    for idx, f in enumerate(dec.factors):
        sub = tuple(tuple(comp[i][j][idx] for j in range(n)) for i in range(n))
        parts.append(_gauss_inverse(f, sub))
    return tuple(
        tuple(
            dec.from_components(tuple(parts[k][i][j] for k in range(len(parts))))
            for j in range(n)
        )
        for i in range(n)
    )


def mat_det_small(spec: RingSpec, a):
    """Determinant by expansion, for small matrices (n <= 5)."""
    n = len(a)
    if n > 5:
        raise RingError("determinant expansion limited to n <= 5")
    if n == 1:
        return a[0][0]
    acc = spec.zero
    for j in range(n):
        if a[0][j] == spec.zero:
            continue
        minor = tuple(
            tuple(row[k] for k in range(n) if k != j) for row in a[1:]
        )
        term = spec.mul(a[0][j], mat_det_small(spec, minor))
        acc = spec.add(acc, term) if j % 2 == 0 else spec.sub(acc, term)
    return acc


def transpose(a):
    return tuple(zip(*a))
