"""The classical structure tables as they were built up to this version, kept
as a test oracle.

Every bracket [X_a, X_b] of the `sl`/`so`/`sp` matrices of
`classical_generators` is formed and solved for N(a, b): |Phi|^2 brackets.
`build_basis` now builds every table by the extraspecial-pair recursion, with
the signs at the extraspecial pairs read off the same matrices, and checks
the matrices against the table by generators; `test_chevalley.py` holds the
two tables equal on types A-D.
"""
from chevlab.chevalley import ChevalleyError, _smat_bracket, _smat_scale, classical_generators
from chevlab.roots import _add


def solve_scalar_multiple(target: dict, base: dict):
    """c with target == c * base, for a nonzero base; None if no such c."""
    r, row = next(iter(base.items()))
    col, v = next(iter(row.items()))
    c, rem = divmod(target.get(r, {}).get(col, 0), v)
    return None if rem or target != _smat_scale(c, base) else c


def table_from_matrices(rs) -> dict:
    """N(a, b) for every pair of roots with a + b a root, read off the
    defining matrices of a classical type."""
    _, xmats, _ = classical_generators(rs)
    nmap = {}
    for a in rs.roots:
        for b in rs.roots:
            s = _add(a, b)
            if s == tuple([0] * rs.ambient):
                continue
            br = _smat_bracket(xmats[a], xmats[b])
            if rs.is_root(s):
                c = solve_scalar_multiple(br, xmats[s])
                if c is None:
                    raise ChevalleyError(f"bracket of {a}, {b} is not a multiple of X_{s}")
                nmap[(a, b)] = c
            elif br:
                raise ChevalleyError(f"bracket of {a}, {b} should vanish")
    return nmap
