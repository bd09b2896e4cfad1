"""Chevalley bases: integral structure constants and commutator coefficients.

Every integer matrix here is sparse, {row: {col: value}} with no zero
entries: the generators X_a, their divided powers X_a^k / k! and the
brackets.  Every bracket table is built by the extraspecial-pair recursion,
whose signs at the extraspecial pairs fix the whole table.  For types A-D
those signs are read off the explicit integer matrices (sl, so, sp) of the
defining representations, and the matrices are then checked against the
table by generators (verify_model); for E, F and G the signs are +1.  Every
table is certified by root-string magnitude checks and by one Jacobi check
by generators, complete at every rank.

The adjoint action ad x of every basis vector is built in one place,
ChevalleyBasisTable.ad_matrices, for the generator Jacobi check, the adjoint
model's generators X_a = ad e_a and its bracket-preservation test.

The coefficients C[i,j] of [e_a(s), e_b(t)] = prod e_{i*a+j*b}(C[i,j] s^i t^j)
are Chevalley's closed expressions in the structure constants, with one code
path for every type.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from .roots import RootSystem, _add, _neg, _scale, _sub


class ChevalleyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Classical matrix realizations


def classical_generators(rs: RootSystem):
    """Root vectors X_a for the defining representation of a classical type.

    Returns (dim, xmats, weights) with each X_a a sparse integer matrix
    {row: {col: value}}, and weights[i] is the weight of the i-th
    basis vector in the realization's epsilon-coordinates.  Types B, C and D
    share one body: basis vectors of weight e_i, (0 for B,) then -e_i, with
    bar(i) the index of -e_i; the root e_i + e_j acts with sign +1 in C and
    -1 in B and D.
    """
    letter, n = rs.letter, rs.rank
    if letter == "A":
        dim = n + 1
        xmats = {r: _smat((r.index(1), r.index(-1), 1)) for r in rs.roots}
        weights = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
        return dim, xmats, weights
    if letter not in "BCD":
        raise ChevalleyError(f"no defining matrix model for type {letter}")
    dim = 2 * n + (letter == "B")
    bar = lambda i: dim - 1 - i
    sign = 1 if letter == "C" else -1
    xmats = {}
    for r in rs.roots:
        pos = [i for i, c in enumerate(r) if c]
        if len(pos) == 1:
            (i,) = pos
            if letter == "C":
                m = _smat((i, bar(i), 1) if r[i] > 0 else (bar(i), i, 1))
            elif r[i] > 0:
                m = _smat((i, n, 2), (n, bar(i), -1))
            else:
                m = _smat((n, i, 1), (bar(i), n, -2))
        else:
            i, j = pos
            ci, cj = r[i], r[j]
            if ci == 1 and cj == -1:
                m = _smat((i, j, 1), (bar(j), bar(i), -1))
            elif ci == -1 and cj == 1:
                m = _smat((j, i, 1), (bar(i), bar(j), -1))
            elif ci == 1 and cj == 1:
                m = _smat((i, bar(j), 1), (j, bar(i), sign))
            else:
                m = _smat((bar(j), i, 1), (bar(i), j, sign))
        xmats[r] = m
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    weights = units + [(0,) * n] * (letter == "B") + [_neg(u) for u in reversed(units)]
    return dim, xmats, weights


def _defining_model(rs: RootSystem):
    """The root vectors X_a of the defining matrices of types A-D, else None."""
    return classical_generators(rs)[1] if rs.letter in "ABCD" else None


# ---------------------------------------------------------------------------
# Structure table


def _p_value(rs: RootSystem, a, b) -> int:
    """Largest p with b - p*a a root."""
    p = 0
    while rs.is_root(_sub(b, _scale(p + 1, a))):
        p += 1
    return p


def _table_extraspecial(rs: RootSystem, xmats):
    """N(a, b) for every pair of roots with a + b a root, by the
    extraspecial-pair recursion (Carter, Simple Groups of Lie Type, 4.2): the
    sign of N at the extraspecial pair of each positive root fixes the rest.
    With the root vectors xmats of a matrix model that sign is the one with
    [X_a, X_b] = +-(p+1) X_{a+b}, and a bracket of any other form raises;
    without a model it is +1."""
    positives = rs.positive  # by (height, root)
    order = {r: i for i, r in enumerate(positives)}
    nmap = {}  # (a, b) positive, a before b in the order

    def get_n(a, b) -> int:
        s = _add(a, b)
        if not rs.is_root(s):
            return 0
        pa, pb = rs.is_positive(a), rs.is_positive(b)
        if pa and pb:
            return nmap[(a, b)] if order[a] < order[b] else -nmap[(b, a)]
        if not pa and not pb:
            return -get_n(_neg(a), _neg(b))
        z = _neg(s)
        pz = rs.is_positive(z)
        if pb == pz:
            val = Fraction(rs.norm(z), rs.norm(a)) * get_n(b, z)
        else:
            val = Fraction(rs.norm(z), rs.norm(b)) * get_n(z, a)
        if val.denominator != 1:
            raise ChevalleyError("non-integral structure constant")
        return int(val)

    def term(x, y, u, v) -> Fraction:
        s = _add(x, y)
        if not rs.is_root(s):
            return Fraction(0)
        return Fraction(get_n(x, y) * get_n(u, v), rs.norm(s))

    for gamma in positives:
        if rs.height(gamma) < 2:
            continue
        specials = [(a, b) for a in positives  # in the order of a
                    if (b := _sub(gamma, a)) in rs.positive_set and order[a] < order[b]]
        if not specials:
            raise ChevalleyError(f"no special pair for {gamma}")
        a1, b1 = specials[0]
        n = _p_value(rs, a1, b1) + 1
        if xmats is not None:
            bracket = _smat_bracket(xmats[a1], xmats[b1])
            if bracket == _smat_scale(-n, xmats[gamma]):
                n = -n
            elif bracket != _smat_scale(n, xmats[gamma]):
                raise ChevalleyError(f"[X_{a1}, X_{b1}] is not +-{n} X_{gamma} in the matrix model")
        nmap[(a1, b1)] = n
        for a, b in specials[1:]:
            t2 = term(b1, _neg(a), a1, _neg(b))
            t3 = term(_neg(a), a1, b1, _neg(b))
            val = Fraction(rs.norm(gamma), nmap[(a1, b1)]) * (t2 + t3)
            if val.denominator != 1:
                raise ChevalleyError("non-integral structure constant")
            nmap[(a, b)] = int(val)

    return {(a, b): get_n(a, b) for a in rs.roots for b in rs.roots
            if b != rs.opposite[a] and rs.is_root(_add(a, b))}


class ChevalleyBasisTable:
    """Bracket data for the simple Lie algebra in a Chevalley basis.

    Basis: {e_a : a root} plus {h_i : i < rank} (simple coroots).  Brackets:
    [h_i, h_j] = 0, [h_i, e_a] = <a, a_i^v> e_a, [e_a, e_-a] = h_a (integral
    combination of the h_i), [e_a, e_b] = N(a, b) e_{a+b}.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.nmap = _table_extraspecial(rs, _defining_model(rs))
        self.hcoords = {r: rs.coroot_coords(r) for r in rs.roots}
        self._verify_magnitudes()

    def n_constant(self, a, b) -> int:
        """N(a, b) for a+b a root; 0 when a+b is neither a root nor zero."""
        if b == _neg(a):
            raise ChevalleyError("N undefined for b = -a; bracket is h_a")
        return self.nmap.get((tuple(a), tuple(b)), 0)

    def _verify_magnitudes(self):
        rs = self.rs
        for (a, b), n in self.nmap.items():
            if abs(n) != _p_value(rs, a, b) + 1:
                raise ChevalleyError(f"|N({a},{b})| != p+1")
            if self.nmap[(b, a)] != -n:
                raise ChevalleyError("antisymmetry failure")
            if self.nmap[(_neg(a), _neg(b))] != -n:
                raise ChevalleyError("opposite-pair sign failure")

    # -- abstract bracket ---------------------------------------------------

    def basis_keys(self) -> list:
        """Adjoint basis order: roots by descending height, then coroots."""
        rs = self.rs
        keys = [("e", r) for r in sorted(rs.roots, key=lambda r: (-rs.height(r), r))]
        mid = [("h", i) for i in range(rs.rank)]
        # interleave the zero-height block between positive and negative roots
        pos = [k for k in keys if rs.height(k[1]) > 0]
        neg = [k for k in keys if rs.height(k[1]) < 0]
        return pos + mid + neg

    def bracket_keys(self, k1, k2) -> dict:
        """Bracket of two basis symbols as a coordinate dict."""
        rs = self.rs
        t1, v1 = k1
        t2, v2 = k2
        if t1 == "h" and t2 == "h":
            return {}
        if t1 == "h":
            c = rs.cartan_int(v2, rs.simple[v1])
            return {k2: c} if c else {}
        if t2 == "h":
            c = rs.cartan_int(v1, rs.simple[v2])
            return {k1: -c} if c else {}
        if v2 == _neg(v1):
            return {("h", i): c for i, c in enumerate(self.hcoords[v1]) if c}
        s = _add(v1, v2)
        if rs.is_root(s):
            n = self.nmap[(v1, v2)]
            return {("e", s): n} if n else {}
        return {}

    def verify_jacobi(self) -> int:
        """The Jacobi identity on every basis triple, checked by generators at
        every rank; returns the number of checks, 2 * rank * dim + dim^2.
        Raises ChevalleyError on the first failure.

        First the bracket is antisymmetric on each of the dim^2 basis pairs.
        Given that, Jacobi for (x, y, z) says ad[x, y] z = [ad x, ad y] z, so
        Jacobi holds on every triple as soon as ad[x, y] = [ad x, ad y] for
        every basis vector x and y.  The x for which this holds for every y
        (ad x is a derivation) form a Z-submodule D, which is saturated (nx in
        D implies x in D) and closed under the bracket: if ad x and ad y are
        derivations so is their commutator, which is ad[x, y].  The e_{+-a_i}
        of the simple roots lie in D by 2 * rank * dim sparse checks, one per
        basis vector y.  Their brackets give the h_i.  Every other root is
        a + a_i or a - a_i for a root a of smaller height in absolute value,
        and [e_{+-a_i}, e_a] = N e_{a+-a_i} with |N| = p + 1 != 0 (checked at
        construction), so by saturation every e_a lies in D, and D is
        everything: the e_{+-a_i} generate the algebra over Q.  Both checks
        read ad_matrices, which compute each bracket once.  The derivation
        check is shared with verify_model, with ad in place of phi.
        """
        keys = self.basis_keys()
        ad = self.ad_matrices()
        for i, x in enumerate(keys):
            for k, row in ad[x].items():
                for j, c in row.items():
                    if ad[keys[j]].get(k, {}).get(i) != -c:
                        raise ChevalleyError(f"antisymmetry failure on {x}, {keys[j]}")
        index = {y: j for j, y in enumerate(keys)}

        def column(x, y):  # [x, y] is column j of ad x
            j = index[y]
            return {keys[k]: r[j] for k, r in ad[x].items() if j in r}

        return self._check_by_generators(ad, column, "ad") + len(keys) ** 2

    def verify_model(self, xmats) -> int:
        """The matrices X_a of xmats carry this table's bracket: with phi(e_a)
        = X_a and phi(h_i) = [X_{a_i}, X_{-a_i}], phi[x, y] = [phi x, phi y]
        for x = e_{+-a_i} and every basis vector y, [x, y] read off
        bracket_keys; returns the number of checks, 2 * rank * dim, and raises
        ChevalleyError on the first failure.  After verify_jacobi this is
        complete by the argument of its docstring, phi in place of ad."""
        rs = self.rs
        phi = {("e", r): xmats[r] for r in rs.roots}
        phi.update((("h", i), _smat_bracket(xmats[a], xmats[_neg(a)])) for i, a in enumerate(rs.simple))
        return self._check_by_generators(phi, self.bracket_keys, "phi")

    def _check_by_generators(self, rep: dict, bracket, name: str) -> int:
        """rep[x, y] = [rep x, rep y] for x = e_{+-a_i} and every basis key y
        of rep, a sparse integer matrix per key, with [x, y] given as
        bracket(x, y), a coordinate dict; returns the number of checks."""
        gens = [("e", s) for a in self.rs.simple for s in (a, _neg(a))]
        for x in gens:
            for y in rep:
                image = _smat_sum(_smat_scale(c, rep[k]) for k, c in bracket(x, y).items())
                if image != _smat_bracket(rep[x], rep[y]):
                    raise ChevalleyError(f"{name}[x, y] != [{name} x, {name} y] for x = {x}, y = {y}")
        return len(gens) * len(rep)

    # -- adjoint matrices -----------------------------------------------------

    def ad_matrices(self) -> dict:
        """ad x for every basis key x, in basis_keys order, as sparse integer
        matrices whose column j is [x, y_j].  Built on each call, so an edited
        table shows in verify_jacobi."""
        keys = self.basis_keys()
        index = {k: i for i, k in enumerate(keys)}
        return {
            x: _smat(*(
                (index[k], j, c)
                for j, y in enumerate(keys)
                for k, c in self.bracket_keys(x, y).items()
            ))
            for x in keys
        }

    @functools.cache
    def adjoint_data(self):
        """(keys, weights, xmats) for the adjoint representation, each X_r =
        ad e_r a sparse integer matrix {row: {col: value}}."""
        ad = self.ad_matrices()
        zero_w = tuple([0] * self.rs.ambient)
        weights = [k[1] if k[0] == "e" else zero_w for k in ad]
        return list(ad), weights, {r: ad[("e", r)] for r in self.rs.roots}

    # -- group-level commutator coefficients ----------------------------------

    @functools.cache
    def commutator_coefficients(self, a, b) -> MappingProxyType:
        """Integer coefficients C[i,j] of the commutator expansion for (a, b),
        the roots i*a+j*b taken in (i+j, i) order; terms of one level commute.

        Chevalley's formula (Carter, Simple Groups of Lie Type, Thm 5.2.2) uses
        M(a, b, i) = N(a, b) N(a, a+b) ... N(a, (i-1)a+b) / i!, the coefficient
        of e_{i*a+b} in ad(e_a)^i e_b / i!.  With Carter's x^-1 y^-1 x y,
            [x_s(u), x_r(t)] = prod x_{i*r+j*s}(K[i,j] (-t)^i u^j),
            K[i,1] = M(r, s, i), K[1,j] = (-1)^j M(s, r, j),
            K[3,2] = M(r+s, r, 2) / 3, K[2,3] = -2 M(s+r, s, 2) / 3.
        The left side x_s(-u) x_r(-t) x_s(u) x_r(t) is chevlab's [e_s(-u), e_r(-t)].
        With a = s, b = r, s' = -u and t' = -t, the term of i*a + j*b is
        x(K[j,i] t'^j (-s')^i), so C[i,j] = (-1)^i K[j,i]:
            C[i,1] = M(a, b, i),          C[1,j] = -M(b, a, j),
            C[3,2] = 2 M(a+b, a, 2) / 3,  C[2,3] = M(a+b, b, 2) / 3.
        A non-integral value raises ChevalleyError.  The result is a read-only
        view, shared by every caller.
        """
        if b == _neg(a):
            raise ChevalleyError("commutator expansion undefined for b = -a")
        out = {}
        for i, j, _ in self.rs.commutator_root_list(a, b):
            if j == 1:
                c = self._string_coefficient(a, b, i)
            elif i == 1:
                c = -self._string_coefficient(b, a, j)
            elif (i, j) == (3, 2):
                c = 2 * self._string_coefficient(_add(a, b), a, 2) / 3
            else:  # (2, 3), the last term of G2
                c = self._string_coefficient(_add(a, b), b, 2) / 3
            if c.denominator != 1:
                raise ChevalleyError(f"C[{i},{j}] of {a}, {b} is not integral")
            out[(i, j)] = int(c)
        return MappingProxyType(out)

    def _string_coefficient(self, a, b, i: int) -> Fraction:
        """M(a, b, i) = N(a, b) N(a, a+b) ... N(a, (i-1)a+b) / i!."""
        ns = (self.n_constant(a, _add(_scale(k, a), b)) for k in range(i))
        return Fraction(math.prod(ns), math.factorial(i))


# ---------------------------------------------------------------------------
# Sparse integer matrices (dict[row] -> dict[col] -> int, no zero entries)


def _smat(*entries) -> dict:
    """The sparse integer matrix with the given (row, col, value) entries."""
    out: dict = {}
    for i, j, v in entries:
        out.setdefault(i, {})[j] = v
    return out


def _smat_scale(k: int, a: dict) -> dict:
    if not k:
        return {}
    return {r: {c: k * v for c, v in row.items()} for r, row in a.items()}


def _smat_sum(mats) -> dict:
    """The sum of the sparse matrices, zero entries dropped."""
    out: dict = {}
    for m in mats:
        for r, row in m.items():
            acc = out.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + v
    return {r: nz for r, row in out.items() if (nz := {c: v for c, v in row.items() if v})}


def _smat_bracket(a: dict, b: dict) -> dict:
    """ab - ba for sparse integer matrices, zero entries dropped."""
    return _smat_sum((_int_smat_mul(a, b), _smat_scale(-1, _int_smat_mul(b, a))))


def _int_smat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for r, row in a.items():
        acc: dict = {}
        for k, v in row.items():
            brow = b.get(k)
            if not brow:
                continue
            for c, w in brow.items():
                acc[c] = acc.get(c, 0) + v * w
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def divided_powers(x: dict, dim: int) -> list:
    """Sparse M_k = X^k / k! for k = 1, 2, ... until X^k = 0, for a sparse
    dim x dim integer matrix X.

    Raises ChevalleyError when some M_k is not integral or X is not nilpotent.
    """
    mk = x
    out = []
    k = 1
    while mk:
        if k > dim:
            raise ChevalleyError("matrix is not nilpotent")
        out.append(mk)
        k += 1
        nxt: dict = {}
        for r, row in _int_smat_mul(mk, out[0]).items():
            nrow = {}
            for c, v in row.items():
                q, rem = divmod(v, k)
                if rem:
                    raise ChevalleyError(f"divided power X^{k}/{k}! is not integral")
                nrow[c] = q
            nxt[r] = nrow
        mk = nxt
    return out


# ---------------------------------------------------------------------------


@functools.cache
def build_basis(rs: RootSystem) -> ChevalleyBasisTable:
    """The integral bracket table of a root system, built once per type and
    certified before it is returned: every |N| = p + 1, the Jacobi identity
    on every basis triple, by the generator check of
    ChevalleyBasisTable.verify_jacobi at every rank, and for types A-D the
    defining matrices, from which the extraspecial signs were read, carry
    the whole bracket (ChevalleyBasisTable.verify_model, by generators)."""
    table = ChevalleyBasisTable(rs)
    table.verify_jacobi()
    model = _defining_model(rs)
    if model is not None:
        table.verify_model(model)
    return table


def g2_epsilon_signs(table: ChevalleyBasisTable) -> dict:
    """The computed unit signs of the G2 mixed-root commutator expansions."""
    if table.rs.letter != "G":
        raise ChevalleyError("epsilon signs are a G2 report")
    k, c = (1, 0), (0, 1)
    row = table.commutator_coefficients(k, c)
    eps = {
        "eps1": row[(1, 1)],
        "eps2": row[(1, 2)],
        "eps3": row[(1, 3)],
        "eps4": row[(2, 3)],
    }
    row2 = table.commutator_coefficients((1, 1), (1, 2))
    if abs(row2[(1, 1)]) != 3:
        raise ChevalleyError("short-short G2 coefficient should be +-3")
    eps["eps5"] = row2[(1, 1)] // 3
    for k2, v in eps.items():
        if k2 != "eps5" and abs(v) != 1:
            raise ChevalleyError(f"G2 sign {k2} is not a unit: {v}")
    return eps
