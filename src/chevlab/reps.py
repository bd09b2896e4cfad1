"""Matrix representations of Chevalley groups with integral generator data.

Each representation stores, per root, the integer divided-power matrices
M_k = X^k / k! of its nilpotent generator, so e_a(t) = sum_k t^k M_k reduces
exactly into any finite ring.  Basis vectors are ordered by descending
weight height, which makes positive root vectors strictly upper triangular.

For types B and D these are SO models (the universal groups are Spin and
have no convenient matrix form); identities among unipotent generators are
exact there because the central kernel meets no unipotent subgroup.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .chevalley import (
    ChevalleyError,
    build_basis,
    classical_generators,
    divided_powers,
    freeze,
)
from .rings import RingSpec, xgcd
from .roots import RootSystem


class UnsupportedRepresentation(ValueError):
    pass


SO_MODEL_CAVEAT = (
    "SO matrix model: faithful on unipotent generators only; torus/Weyl "
    "identities hold up to the central kernel of the spin cover"
)


class Representation:
    """Integer generator package for one (root system, model) pair."""

    def __init__(self, rs: RootSystem, tag: str, dim: int, weights, xmats):
        self.rs = rs
        self.tag = tag
        self.dim = dim
        self.weights = list(weights)
        self.key = (rs.letter, rs.rank, tag)
        self._x = {r: freeze(m) for r, m in xmats.items()}
        self._divided: dict = {}
        self._extract: dict = {}
        self._elem_cache: dict = {}
        self._identity_cache: dict = {}
        self.form = self._build_form()
        self.caveat = SO_MODEL_CAVEAT if tag in ("defining-B", "defining-D") else None
        self._check_triangular()

    # -- construction checks --------------------------------------------------

    def _check_triangular(self):
        heights = [self._weight_height(w) for w in self.weights]
        for a, b in zip(heights, heights[1:]):
            if a < b:
                raise ChevalleyError(f"basis of {self.tag} is not height-sorted")
        self.basis_heights = heights
        for r, m in self._x.items():
            ht = self.rs.height(r)
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    if v and heights[i] != heights[j] + ht:
                        raise ChevalleyError(
                            f"generator {r} is not weight-graded in {self.tag}"
                        )

    def _weight_height(self, w) -> Fraction:
        phi = getattr(self, "_phi", None)
        if phi is None:
            phi = _height_functional(self.rs)
            self._phi = phi
        return sum(Fraction(a) * b for a, b in zip(phi, w))

    def _build_form(self):
        n = self.rs.rank
        if self.tag == "defining-B":
            dim = 2 * n + 1
            s = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                s[i][dim - 1 - i] = 1
            s[n][n] = 2
            return ("symmetric", freeze(s))
        if self.tag == "defining-D":
            dim = 2 * n
            s = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                s[i][dim - 1 - i] = 1
            return ("symmetric", freeze(s))
        if self.tag == "defining-C":
            dim = 2 * n
            s = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                s[i][dim - 1 - i] = 1 if i < n else -1
            return ("skew", freeze(s))
        if self.tag == "defining-A":
            return ("determinant", None)
        return ("adjoint", None)

    # -- integral generator data ----------------------------------------------

    def root_matrix(self, root):
        return self._x[tuple(root)]

    def divided_powers(self, root) -> list:
        """[M_1, M_2, ...] with M_k = X^k / k!, all integral, as dense tuples."""
        root = tuple(root)
        hit = self._divided.get(root)
        if hit is None:
            n = self.dim
            hit = [
                tuple(tuple(m.get(i, {}).get(j, 0) for j in range(n)) for i in range(n))
                for m in divided_powers(self._x[root])
            ]
            self._divided[root] = hit
        return hit

    def extraction_data(self, root):
        """Positions and Bezout multipliers solving the root coordinate.

        Returns (entries, combo) where entries = [(r, c, coeff)] are the
        nonzero integer entries of X_root and combo = [((r, c), m)] satisfies
        sum m * X[r][c] = 1.
        """
        root = tuple(root)
        hit = self._extract.get(root)
        if hit is not None:
            return hit
        x = self._x[root]
        entries = [
            (i, j, v)
            for i, row in enumerate(x)
            for j, v in enumerate(row)
            if v
        ]
        combo = []
        g = 0
        for i, j, v in entries:
            g2, a, b = xgcd(g, v)
            combo = [((r, c), m * a) for (r, c), m in combo]
            combo.append(((i, j), b))
            g = g2
            if g == 1:
                break
        if g != 1:
            raise ChevalleyError(f"entries of X_{root} have gcd {g}")
        combo = [(pos, m) for pos, m in combo if m]
        self._extract[root] = (entries, combo)
        return entries, combo

    # -- evaluation over a ring -------------------------------------------------

    def identity(self, ring: RingSpec):
        key = ring.key()
        hit = self._identity_cache.get(key)
        if hit is None:
            hit = linalg.identity_matrix(ring, self.dim)
            self._identity_cache[key] = hit
        return hit

    def elementary_matrix(self, ring: RingSpec, root, t):
        root = tuple(root)
        key = (ring.key(), root, t)
        hit = self._elem_cache.get(key)
        if hit is not None:
            return hit
        mats = self.divided_powers(root)
        out = [list(row) for row in self.identity(ring)]
        tpow = t
        from_int_cache: dict = {}

        def conv(k):
            v = from_int_cache.get(k)
            if v is None:
                v = ring.from_int(k)
                from_int_cache[k] = v
            return v

        for mk in mats:
            for i, row in enumerate(mk):
                for j, v in enumerate(row):
                    if v:
                        out[i][j] = ring.add(
                            out[i][j], ring.mul(tpow, conv(v))
                        )
            tpow = ring.mul(tpow, t)
        res = tuple(tuple(row) for row in out)
        self._elem_cache[key] = res
        return res

    def check_invariant(self, ring: RingSpec, mat) -> bool:
        """Form/determinant preservation for the stored matrix."""
        kind, s = self.form
        if kind == "determinant":
            if self.dim <= 5:
                return linalg.mat_det_small(ring, mat) == ring.one
            return True
        if kind in ("symmetric", "skew"):
            sm = linalg.mat_from_int(ring, s)
            gts = linalg.mat_mul(ring, linalg.transpose(mat), sm)
            return linalg.mat_mul(ring, gts, mat) == sm
        return True

    def __repr__(self):
        return f"<rep {self.tag} of {self.rs.label}, degree {self.dim}>"


def _height_functional(rs: RootSystem):
    """A rational functional with value 1 on every simple root."""
    from .roots import _solve_coords

    target = tuple([1] * rs.rank)
    basis = [tuple(rs.simple[i][j] for i in range(rs.rank)) for j in range(rs.ambient)]
    # solve phi . simple_i = 1: treat phi as coordinates in the standard basis
    sol = _solve_coords(basis, target)
    if sol is None:
        raise ChevalleyError("no height functional")
    return tuple(sol)


_REP_CACHE: dict = {}


def available_tags(rs: RootSystem) -> list[str]:
    tags = []
    if rs.letter in "ABCD":
        tags.append(f"defining-{rs.letter}")
    tags.append("adjoint")
    return tags


def default_tag(rs: RootSystem) -> str:
    return available_tags(rs)[0]


def make_representation(rs: RootSystem, tag: str | None = None) -> Representation:
    if tag is None:
        tag = default_tag(rs)
    key = (rs.letter, rs.rank, tag)
    hit = _REP_CACHE.get(key)
    if hit is not None:
        return hit
    if tag not in available_tags(rs):
        raise UnsupportedRepresentation(
            f"representation {tag!r} is not available for type {rs.label}"
        )
    if tag == "adjoint":
        table = build_basis(rs)
        keys, weights, xmats = table.adjoint_data()
        rep = Representation(rs, "adjoint", len(keys), weights, xmats)
    else:
        dim, xmats, weights = classical_generators(rs)
        rep = Representation(rs, tag, dim, weights, xmats)
    _REP_CACHE[key] = rep
    return rep
