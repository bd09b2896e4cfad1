"""The adjoint solve for the commutator coefficients, kept as a test oracle.

chevlab reads C[i,j] of [e_a(s), e_b(t)] = prod e_{i*a+j*b}(C[i,j] s^i t^j)
off Chevalley's closed formula in the structure constants.  This module
computes them independently, in the adjoint representation: the commutator
at s = t = 1 is one sparse integer matrix, each C[i,j] is read from it by
exact division and its letter peeled off, and the remainder must vanish.
"""
import functools

from chevlab.chevalley import ChevalleyError, _int_smat_mul, _smat_scale, _smat_sum, divided_powers
from chevlab.roots import _neg


@functools.cache
def adjoint_powers(table, root) -> tuple:
    """Sparse divided powers of the adjoint X_root of the table."""
    keys, _, xmats = table.adjoint_data()
    return tuple(divided_powers(xmats[root], len(keys)))


def exp_minus_one(powers, t: int) -> dict:
    """e(t) - I = sum_k t^k M_k, from the divided powers M_k."""
    return _smat_sum(_smat_scale(t**k, m) for k, m in enumerate(powers, 1))


def unipotent_mul(p: dict, q: dict) -> dict:
    """(I + p)(I + q) - I = p + q + pq, for p and q held without the identity."""
    return _smat_sum((p, q, _int_smat_mul(p, q)))


def solve_commutator_coefficients(table, a, b) -> dict:
    """C[i,j] for (a, b) by the adjoint solve.

    The roots i*a+j*b are taken in (i+j, i) order.  Over Z[s, t] an entry
    (r, c) of the adjoint commutator carries only the s^i t^j with
    i*a + j*b = weight(r) - weight(c), as a and b are independent; so the
    commutator at s = t = 1, one integer matrix, loses nothing.  Each
    C[i,j] is read by exact division at one entry of X_{i*a+j*b}, and
    e_{i*a+j*b}(C[i,j]) is peeled off from the left.  A term left in a
    graded piece survives every later peel, which adds terms of other
    grades only, so the zero remainder proves the identity in s and t.
    """
    if b == _neg(a):
        raise ChevalleyError("commutator expansion undefined for b = -a")
    pa = adjoint_powers(table, a)
    pb = adjoint_powers(table, b)
    m = unipotent_mul(
        unipotent_mul(exp_minus_one(pa, 1), exp_minus_one(pb, 1)),
        unipotent_mul(exp_minus_one(pa, -1), exp_minus_one(pb, -1)),
    )
    out = {}
    for i, j, g in table.rs.commutator_root_list(a, b):
        pg = adjoint_powers(table, g)
        r, row = next(iter(pg[0].items()))
        col, v = next(iter(row.items()))
        coeff, rem = divmod(m.get(r, {}).get(col, 0), v)
        if rem:
            raise ChevalleyError("commutator coefficient mismatch")
        out[(i, j)] = coeff
        if coeff:
            m = unipotent_mul(exp_minus_one(pg, -coeff), m)
    if m:
        raise ChevalleyError("commutator expansion failed to close")
    return out
