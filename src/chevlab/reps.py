"""Matrix representations of Chevalley groups with integral generator data.

Each representation holds, per root, its nilpotent generator X_a as a
sparse integer matrix, and derives from it once the terms of the divided
powers M_k = X^k / k!: each position (i, j) where some M_k is nonzero, with
its coefficients (M_1[i][j], M_2[i][j], ...).  The entries of
e_a(t) - I = sum_k t^k M_k are these coefficient lists evaluated at t, so
they reduce exactly into any finite ring, and no dense integer matrix is
stored.  Basis vectors are ordered by descending weight height, which makes
positive root vectors strictly upper triangular and keeps every M_k off the
diagonal.  Letters e_a(t) act on a matrix as row operations from the left
and column operations from the right.

For types B and D these are SO models (the universal groups are Spin and
have no convenient matrix form); identities among unipotent generators are
exact there because the central kernel meets no unipotent subgroup.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .chevalley import ChevalleyError, build_basis, classical_generators, divided_powers
from .rings import RING_MEMO_SIZE, RingSpec, xgcd
from .roots import RootSystem, _solve_coords


class UnsupportedRepresentation(ValueError):
    pass


SO_MODEL_CAVEAT = (
    "SO matrix model: faithful on unipotent generators only; torus/Weyl "
    "identities hold up to the central kernel of the spin cover"
)

# Elementary matrices, and the entries of e_root(t) - I, kept by value of
# (representation, ring, root, t): more than the 1,598 distinct ones of the
# largest benchmark round.  A matrix shares its untouched rows with the
# identity, so at dimension 78 (E6 adjoint over Z/n) the memo holds about
# 2,048 x 18 KB = 36 MB.
ELEMENTARY_MEMO_SIZE = 2048


class Representation:
    """Integer generator package for one (root system, model) pair."""

    def __init__(self, rs: RootSystem, tag: str, dim: int, weights, xmats):
        self.rs = rs
        self.tag = tag
        self.dim = dim
        self.weights = list(weights)
        self.key = (rs.letter, rs.rank, tag)
        self._x = xmats  # sparse {row: {col: value}} per root, never mutated
        self.form = self._build_form()
        self.caveat = SO_MODEL_CAVEAT if tag in ("defining-B", "defining-D") else None
        self._check_triangular()

    # -- construction checks --------------------------------------------------

    def _check_triangular(self):
        """The basis is sorted by descending height, and each X_r maps the
        basis vector of weight w to one of weight w + r."""
        phi = _height_functional(self.rs)
        heights = [sum(Fraction(a) * b for a, b in zip(phi, w)) for w in self.weights]
        for a, b in zip(heights, heights[1:]):
            if a < b:
                raise ChevalleyError(f"basis of {self.tag} is not height-sorted")
        w = self.weights
        for r, m in self._x.items():
            for i, row in m.items():
                for j in row:
                    if tuple(a - b for a, b in zip(w[i], w[j])) != r:
                        raise ChevalleyError(
                            f"generator {r} is not weight-graded in {self.tag}"
                        )

    def _build_form(self):
        """The antidiagonal form of B, C and D, negated on the second half for
        the symplectic C, with 2 in the middle of B's odd dimension."""
        kind = {"defining-B": "symmetric", "defining-C": "skew", "defining-D": "symmetric"}
        if self.tag not in kind:
            return ("determinant" if self.tag == "defining-A" else "adjoint", None)
        dim, half = self.dim, self.dim // 2
        s = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            s[i][dim - 1 - i] = -1 if kind[self.tag] == "skew" and i >= half else 1
        if dim % 2:
            s[half][half] = 2
        return (kind[self.tag], tuple(map(tuple, s)))

    # -- integral generator data ----------------------------------------------

    def root_matrix(self, root):
        """X_root as dense integer rows, built on each call."""
        return _dense(self._x[tuple(root)], self.dim)

    def divided_powers(self, root) -> tuple:
        """(M_1, M_2, ...) with M_k = X^k / k!, all integral, as dense rows
        built on each call."""
        return tuple(_dense(m, self.dim) for m in divided_powers(self._x[root], self.dim))

    @functools.cache
    def terms(self, root) -> tuple:
        """(i, j, (M_1[i][j], M_2[i][j], ...)) at each position where some
        M_k = X^k / k! is nonzero, in row-major order, trailing zeros dropped.
        Every position is off the diagonal."""
        powers = divided_powers(self._x[root], self.dim)
        cells = sorted({(i, j) for m in powers for i, row in m.items() for j in row})
        out = []
        for i, j in cells:
            coeffs = [m.get(i, {}).get(j, 0) for m in powers]
            while not coeffs[-1]:
                coeffs.pop()
            out.append((i, j, tuple(coeffs)))
        return tuple(out)

    @functools.cache
    def extraction_data(self, root) -> tuple:
        """Bezout multipliers ((r, c), m) with sum m * X[r][c] = 1, built over
        the nonzero entries of X_root in row-major order."""
        x = self._x[root]
        combo = []
        g = 0
        for i, j, v in sorted((i, j, v) for i, row in x.items() for j, v in row.items()):
            g2, a, b = xgcd(g, v)
            combo = [((r, c), m * a) for (r, c), m in combo]
            combo.append(((i, j), b))
            g = g2
            if g == 1:
                break
        if g != 1:
            raise ChevalleyError(f"entries of X_{root} have gcd {g}")
        return tuple((pos, m) for pos, m in combo if m)

    # -- evaluation over a ring -------------------------------------------------

    @functools.lru_cache(maxsize=RING_MEMO_SIZE)
    def identity(self, ring: RingSpec):
        return linalg.identity_matrix(ring, self.dim)

    @functools.lru_cache(maxsize=ELEMENTARY_MEMO_SIZE)
    def elementary_matrix(self, ring: RingSpec, root, t):
        """e_root(t) = I + sum_k t^k M_k over the ring; root is a tuple.  Rows
        that the letter leaves alone are the identity's own rows."""
        return linalg.col_ops(ring, self.identity(ring), self._entries(ring, root, t))

    @functools.lru_cache(maxsize=ELEMENTARY_MEMO_SIZE)
    def _entries(self, ring: RingSpec, root, t) -> tuple:
        """The nonzero entries (i, j, c) of e_root(t) - I, in row-major order,
        each c = sum_k t^k M_k[i][j] by Horner."""
        add, mul, from_int, zero = ring.add, ring.mul, ring.from_int, ring.zero
        out = []
        for i, j, coeffs in self.terms(root):
            c = zero
            for m in reversed(coeffs):
                c = mul(add(c, from_int(m)), t)
            if c != zero:
                out.append((i, j, c))
        return tuple(out)

    def apply_left(self, ring: RingSpec, letters, mat):
        """The product of the letters times mat, as row operations."""
        for root, t in reversed(letters):
            mat = linalg.row_ops(ring, self._entries(ring, root, t), mat)
        return mat

    def apply_right(self, ring: RingSpec, mat, letters):
        """mat times the product of the letters, as column operations."""
        for root, t in letters:
            mat = linalg.col_ops(ring, mat, self._entries(ring, root, t))
        return mat

    def check_invariant(self, ring: RingSpec, mat) -> bool:
        """Form/determinant preservation for the stored matrix; in the adjoint
        representation, preservation of the Lie bracket."""
        kind, s = self.form
        if kind == "determinant":
            try:
                return linalg.mat_det(ring, mat) == ring.one
            except linalg.SingularMatrix:  # the determinant is not even a unit
                return False
        if kind in ("symmetric", "skew"):
            sm = linalg.mat_from_int(ring, s)
            gts = linalg.mat_mul(ring, linalg.transpose(mat), sm)
            return linalg.mat_mul(ring, gts, mat) == sm
        return self._preserves_brackets(ring, mat)

    def _preserves_brackets(self, ring: RingSpec, mat) -> bool:
        """g ad(x) == ad(g x) g for every basis vector x, i.e. g[x, y] = [gx, gy]."""
        n, zero = self.dim, ring.zero
        ads = [
            [(r, col, k) for r, row in m.items() for col, k in row.items()]
            for m in build_basis(self.rs).ad_matrices().values()
        ]

        def ad(v):
            m = [[zero] * n for _ in range(n)]
            for c, entries in zip(v, ads):
                if c != zero:
                    for r, col, k in entries:
                        m[r][col] = ring.add(m[r][col], ring.mul(c, ring.from_int(k)))
            return tuple(map(tuple, m))

        for i in range(n):
            unit = [ring.one if j == i else zero for j in range(n)]
            lhs = linalg.mat_mul(ring, mat, ad(unit))
            if lhs != linalg.mat_mul(ring, ad([row[i] for row in mat]), mat):
                return False
        return True

    def __repr__(self):
        return f"<rep {self.tag} of {self.rs.label}, degree {self.dim}>"


def _dense(m: dict, n: int) -> tuple:
    """A sparse integer matrix {row: {col: value}} as n dense rows."""
    return tuple(tuple(m.get(i, {}).get(j, 0) for j in range(n)) for i in range(n))


def _height_functional(rs: RootSystem):
    """A rational functional with value 1 on every simple root."""
    target = tuple([1] * rs.rank)
    basis = [tuple(rs.simple[i][j] for i in range(rs.rank)) for j in range(rs.ambient)]
    # solve phi . simple_i = 1: treat phi as coordinates in the standard basis
    sol = _solve_coords(basis, target)
    if sol is None:
        raise ChevalleyError("no height functional")
    return tuple(sol)


def available_tags(rs: RootSystem) -> list[str]:
    tags = []
    if rs.letter in "ABCD":
        tags.append(f"defining-{rs.letter}")
    tags.append("adjoint")
    return tags


def default_tag(rs: RootSystem) -> str:
    return available_tags(rs)[0]


def make_representation(rs: RootSystem, tag: str | None = None) -> Representation:
    """The representation of a type with the given tag, built once per pair."""
    return _representation(rs, default_tag(rs) if tag is None else tag)


@functools.cache
def _representation(rs: RootSystem, tag: str) -> Representation:
    if tag not in available_tags(rs):
        raise UnsupportedRepresentation(
            f"representation {tag!r} is not available for type {rs.label}"
        )
    if tag == "adjoint":
        keys, weights, xmats = build_basis(rs).adjoint_data()
        return Representation(rs, "adjoint", len(keys), weights, xmats)
    dim, xmats, weights = classical_generators(rs)
    return Representation(rs, tag, dim, weights, xmats)
