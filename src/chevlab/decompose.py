"""Bounded-generation decompositions into elementary generators.

Implements the constructive toolchain: the four-letter torus identity, exact
big-cell (Gauss) factorization over local rings, eliminated one column at a
time by row operations, Bruhat decomposition over finite fields by brute
force over the Weyl group, where each try applies a lift inverse tabulated
once per (representation, field) as one column pass, the local-ring
decomposition assembled from those two, the letterwise merge over product
rings, and the (U+ U-)^4 normal form obtained by rank induction: a letter
pushed into the eight blocks u_0..u_7 moves through their Levi parts in the
rank-(l-1) machine, and one backward pass rebuilds u'_k = R_{k-1} u_k R_k^-1
from the telescoped Levi conjugators R_k.  The pass keeps a block as it is
while R_k = 1 and its Levi part is unchanged, since then R_{k-1} = 1 and
u'_k = u_k.  Letters act on matrices as row and column operations
(`Representation.apply_left`/`apply_right`).  Every algorithm ends in one
epilogue, `_verified_report`: the word's length is checked against its bound
and the word re-evaluated against its input before the `DecompositionReport`
is built; verification is part of the contract.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

from . import linalg
from .groups import (
    ElementaryWord,
    GroupElement,
    GroupError,
    letters_matrix,
    sandwich,
    torus_and_weyl,
    weyl_conjugation_check,
    weyl_lift_word,
)
from .reps import Representation
from .rings import RING_MEMO_SIZE, RingSpec, artinian_decompose, is_local, residue_field
from .roots import RootSystem


class NotInBigCell(Exception):
    """The element admits no lower-torus-upper factorization."""


class NotUnipotent(GroupError):
    """The matrix is not in the claimed unipotent subgroup."""


class UnsupportedDecomposition(GroupError):
    pass


@functools.cache
def decomposition_constants(rs: RootSystem) -> MappingProxyType:
    """Word-length bounds: big cell N1, Bruhat N2, merge factor, fourfold form.

    One read-only view per root system, shared by every report."""
    npos = len(rs.positive)
    n1 = 2 * npos + 4 * rs.rank
    n2 = n1 + 3 * npos
    return MappingProxyType({
        "N1": n1,
        "N2": n2,
        "local_bound": n1 + n2,
        "merge_bound": (n1 + n2) * len(rs.roots),
        "fourfold_bound": 4 * len(rs.roots),
    })


def check_decomposition_supported(rs: RootSystem):
    if rs.letter in "ABCD" and rs.rank <= 4 or rs.letter == "G":
        return
    raise UnsupportedDecomposition(
        f"decomposition algorithms cover rank <= 4 classical types and G2; "
        f"got {rs.label}"
    )


# ---------------------------------------------------------------------------
# Unipotent coordinates


def unipotent_order(rs: RootSystem, sign: int):
    """Fixed coordinate order: positives by ascending height (mirrored for -).

    `RootSystem` keeps its positive roots sorted by (height, root) already."""
    return rs.positive if sign > 0 else rs.negative


def _read_coordinate(rep: Representation, ring: RingSpec, mat, root):
    combo = rep.extraction_data(root)
    acc = ring.zero
    for (r, c), m in combo:
        acc = ring.add(acc, ring.mul(ring.from_int(m), mat[r][c]))
    return acc


def unipotent_coordinates(
    g: GroupElement, sign: int, order=None
) -> list:
    """Coordinates (root, value) whose height-ordered product re-evaluates to g.

    Raises NotUnipotent when g is not in the unipotent subgroup of the given
    sign (the strip-down fails to reach the identity).
    """
    rep, ring = g.rep, g.ring
    if order is None:
        order = unipotent_order(rep.rs, sign)
    cur = g.mat
    coords = []
    for root in order:
        x = _read_coordinate(rep, ring, cur, root)
        coords.append((root, x))
        if x != ring.zero:
            cur = rep.apply_left(ring, [(root, ring.neg(x))], cur)
    if cur != rep.identity(ring):
        raise NotUnipotent("matrix is not a product of the claimed root groups")
    return coords


# ---------------------------------------------------------------------------
# Torus words


def torus_word(rep: Representation, ring: RingSpec, alpha, a) -> ElementaryWord:
    """Four elementary letters evaluating to h_alpha(a), verified."""
    a_inv = ring.inv(a)
    if a_inv is None:
        raise GroupError("torus word needs a unit")
    alpha = tuple(alpha)
    minus = rep.rs.opposite[alpha]
    one = ring.one
    letters = [
        (alpha, ring.neg(one)),
        (minus, ring.sub(one, a)),
        (alpha, a_inv),
        (minus, ring.mul(a, ring.sub(a, one))),
    ]
    _, h = torus_and_weyl(rep, ring, alpha, a)
    if letters_matrix(rep, ring, letters) != h.mat:
        raise GroupError("torus identity failed to verify")
    return ElementaryWord(rep, ring, letters)


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def _torus_diag_table(rep: Representation, ring: RingSpec) -> dict:
    """diag tuple -> simple-root unit tuple, over the whole torus image.

    Sized from the local ring's unit count before any unit is listed."""
    n_units = ring.card - ring.card // residue_field(ring)[0].card
    if n_units ** rep.rs.rank > 300000:
        raise UnsupportedDecomposition("torus enumeration too large")
    units = ring.units()
    h_diags = []
    for alpha in rep.rs.simple:
        per = {}
        for u in units:
            _, h = torus_and_weyl(rep, ring, alpha, u)
            per[u] = tuple(h.mat[i][i] for i in range(rep.dim))
        h_diags.append(per)
    table = {}
    for combo in itertools.product(units, repeat=rep.rs.rank):
        diag = tuple(
            functools.reduce(ring.mul, [h_diags[i][u][k] for i, u in enumerate(combo)], ring.one)
            for k in range(rep.dim)
        )
        table.setdefault(diag, combo)
    return table


# ---------------------------------------------------------------------------
# Big cell


def big_cell_factor(g: GroupElement) -> ElementaryWord:
    """Exact lower-torus-upper factorization over a local ring, as one word.

    Gaussian elimination with unit pivots in the height-sorted basis; raises
    NotInBigCell when a pivot fails to be a unit, when the diagonal is not in
    the torus image, or when re-evaluation does not reproduce g.
    """
    rep, ring = g.rep, g.ring
    if not is_local(ring)[0]:
        raise GroupError("big-cell factorization needs a local ring")
    n = rep.dim
    m = g.mat
    lower = [list(row) for row in rep.identity(ring)]
    for col in range(n):
        piv_inv = ring.inv(m[col][col])
        if piv_inv is None:
            raise NotInBigCell(f"pivot {col} is not a unit")
        entries = []
        for r in range(col + 1, n):
            f = ring.mul(m[r][col], piv_inv)
            if f != ring.zero:
                lower[r][col] = f
                entries.append((r, col, ring.neg(f)))
        m = linalg.row_ops(ring, entries, m)
    diag = tuple(m[i][i] for i in range(n))
    table = _torus_diag_table(rep, ring)
    units = table.get(diag)
    if units is None:
        raise NotInBigCell("diagonal part is not in the torus image")
    upper = []
    for i in range(n):
        inv = ring.inv(diag[i])
        upper.append(tuple(ring.mul(inv, x) for x in m[i]))
    try:
        neg = unipotent_coordinates(
            GroupElement(rep, ring, tuple(tuple(r) for r in lower)), -1
        )
        pos = unipotent_coordinates(GroupElement(rep, ring, tuple(upper)), +1)
    except NotUnipotent as exc:
        raise NotInBigCell(str(exc))
    letters = [(r, x) for r, x in neg if x != ring.zero]
    word = ElementaryWord(rep, ring, letters)
    for alpha, u in zip(rep.rs.simple, units):
        if u != ring.one:
            word = word + torus_word(rep, ring, alpha, u)
    word = word + ElementaryWord(
        rep, ring, [(r, x) for r, x in pos if x != ring.zero]
    )
    if word.evaluate() != g:
        raise NotInBigCell("factorization failed to re-evaluate")
    return word


# ---------------------------------------------------------------------------
# Bruhat decomposition over a finite field


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def _weyl_lift_inverses(rep: Representation, ring: RingSpec) -> tuple:
    """(word, entries of lift(word)^-1 - I) per Weyl element, in
    `weyl_elements()` order; each lift inverse is built once from its letters."""
    out = []
    for word, _ in rep.rs.weyl_elements():
        inverse = weyl_lift_word(rep, ring, word).inverse_word().letters
        out.append((word, linalg.delta_entries(ring, letters_matrix(rep, ring, inverse))))
    return tuple(out)


def bruhat_decompose(g: GroupElement):
    """(weyl word, elementary word) with the word evaluating to g, over a field.

    Tries the Weyl elements in order: g lift(w)^-1 is one column pass by the
    tabulated lift inverse, and the first remainder in the big cell factors."""
    rep, ring = g.rep, g.ring
    if not ring.is_field:
        raise GroupError("Bruhat decomposition needs a field")
    check_decomposition_supported(rep.rs)
    for word, entries in _weyl_lift_inverses(rep, ring):
        remainder = linalg.col_ops(ring, g.mat, entries)
        try:
            cell = big_cell_factor(GroupElement(rep, ring, remainder))
        except NotInBigCell:
            continue
        full = cell + weyl_lift_word(rep, ring, word)
        if full.evaluate() != g:
            raise GroupError("Bruhat word failed to re-evaluate")
        return word, full
    raise GroupError("no Weyl chamber matched; the cell cover is broken")


# ---------------------------------------------------------------------------
# Local decomposition


@dataclass
class DecompositionReport:
    algorithm: str
    input: GroupElement
    word: ElementaryWord
    bound: int
    constants: MappingProxyType
    verified: bool

    @property
    def length(self) -> int:
        return len(self.word)

    def to_json(self):
        return {
            "algorithm": self.algorithm,
            "word": self.word.to_json(),
            "length": self.length,
            "bound": self.bound,
            "constants": dict(self.constants),
            "verified": self.verified,
        }


def _verified_report(algorithm: str, g: GroupElement, word: ElementaryWord,
                     bound_key: str) -> DecompositionReport:
    """The report of every decomposition algorithm, once its word has passed
    the bound `decomposition_constants()[bound_key]` and re-evaluated to g."""
    consts = decomposition_constants(g.rep.rs)
    bound = consts[bound_key]
    if len(word) > bound:
        raise GroupError(f"{algorithm} word exceeded its bound {bound_key} = {bound}")
    if word.evaluate() != g:
        raise GroupError(f"{algorithm} word failed to re-evaluate")
    return DecompositionReport(algorithm, g, word, bound, consts, True)


def _single_letter_fast_path(g: GroupElement):
    rep, ring = g.rep, g.ring
    for root in rep.rs.roots:
        t = _read_coordinate(rep, ring, g.mat, root)
        if g.mat == rep.elementary_matrix(ring, root, t):
            return ElementaryWord(rep, ring, [(root, t)]).nonzero()
    return None


def local_decompose(g: GroupElement) -> DecompositionReport:
    """Bounded word over a local ring: Bruhat over the residue field, lift,
    then big-cell factorization of the congruence-kernel remainder."""
    rep, ring = g.rep, g.ring
    rs = rep.rs
    check_decomposition_supported(rs)
    if not is_local(ring)[0]:
        raise GroupError("local decomposition needs a local ring")
    # the identity takes the fast path too: its first coordinate reads 0
    word = _single_letter_fast_path(g)
    if word is None:
        field, proj, lift = residue_field(ring)
        reduced = GroupElement(
            rep, field, tuple(tuple(proj(v) for v in row) for row in g.mat)
        )
        _, res_word = bruhat_decompose(reduced)
        lifted = ElementaryWord(
            rep, ring, [(r, lift(t)) for r, t in res_word.letters]
        ).nonzero()
        remainder = rep.apply_right(ring, g.mat, lifted.inverse_word().letters)
        word = big_cell_factor(GroupElement(rep, ring, remainder)) + lifted
    return _verified_report("prop2", g, word, "local_bound")


# ---------------------------------------------------------------------------
# Product-ring merge


def product_merge_decompose(
    g: GroupElement, factor_words, from_components
) -> ElementaryWord:
    """Merge per-factor words into one word over the product, letter slot by slot.

    Slot j holds the j-th letter of each factor word (words that are shorter
    have none).  It becomes one letter e_a(t_a) per root a in the slot, in order
    of first appearance, whose parameter t_a assembles the factors' parameters
    componentwise, with zero for a factor that has no letter for a.
    """
    zeros = [w.ring.zero for w in factor_words]
    merged = []
    for slot in itertools.zip_longest(*(w.letters for w in factor_words)):
        params: dict = {}
        for i, letter in enumerate(slot):
            if letter is not None:
                root, t = letter
                params.setdefault(root, list(zeros))[i] = t
        merged += [(root, from_components(c)) for root, c in params.items()]
    word = ElementaryWord(g.rep, g.ring, merged).nonzero()
    if word.evaluate() != g:
        raise GroupError("merged word failed to re-evaluate")
    return word


def decompose_over_product(g: GroupElement) -> DecompositionReport:
    """Split the ring into local factors, decompose per factor, merge back."""
    dec = artinian_decompose(g.ring)
    factor_words = [
        local_decompose(GroupElement(g.rep, f, mat)).word
        for f, mat in zip(dec.factors, dec.split(g.mat))
    ]
    word = product_merge_decompose(g, factor_words, dec.from_components)
    return _verified_report("merge", g, word, "merge_bound")


# ---------------------------------------------------------------------------
# (U+ U-)^4 normal form


def _rewrite_to_simple_letters(word: ElementaryWord) -> list:
    """Rewrite arbitrary-root letters as words in +-simple-root letters."""
    rep, ring = word.rep, word.ring
    rs = rep.rs
    simple_set = set(rs.simple) | {rs.opposite[s] for s in rs.simple}
    out = []
    for root, t in word.letters:
        if t == ring.zero:
            continue
        if root in simple_set:
            out.append((root, t))
            continue
        base = next(s for s in rs.simple if rs.norm(s) == rs.norm(root))
        w = rs.same_length_conjugator(base, root)
        eps = weyl_conjugation_check(rep, ring, w, base)
        lift = weyl_lift_word(rep, ring, w)
        s = t if eps == 1 else ring.neg(t)
        out.extend(lift.letters)
        out.append((base, s))
        out.extend(lift.inverse_word().letters)
    return out


@functools.cache
def _push_split(rs: RootSystem, root) -> tuple:
    """(split, set of its phi0) for pushing the +-simple letter root into rs:
    the tavgen split off an extremal simple root other than root's."""
    beta_idx = next(
        (i for i, s in enumerate(rs.simple) if root in (s, rs.opposite[s])), None
    )
    if beta_idx is None:
        raise GroupError(f"letter {root} is not a +-simple root of {rs.label}")
    alpha_idx = next(i for i in rs.extremal_simple_indices() if i != beta_idx)
    split = rs.tavgen_split(alpha_idx)
    return split, frozenset(split.phi0)


class _Sl2Machine:
    """Rank-1 base case: track the abstract 2x2 matrix and re-solve blocks."""

    def __init__(self, rs: RootSystem, rep: Representation, ring: RingSpec, blocks=None):
        self.rep = rep
        self.ring = ring
        self.beta = rs.positive[0]
        self.nbeta = rs.opposite[self.beta]
        one, zero = ring.one, ring.zero
        self.m = ((one, zero), (zero, one))
        if blocks:
            for k, coords in enumerate(blocks):
                x = coords.get(self.beta if k % 2 == 0 else self.nbeta)
                if x is not None and x != zero:
                    self._mul_right(k % 2 == 0, x)

    def _mul_right(self, upper: bool, t):
        ring = self.ring
        (a, b), (c, d) = self.m
        if upper:
            self.m = (
                (a, ring.add(ring.mul(a, t), b)),
                (c, ring.add(ring.mul(c, t), d)),
            )
        else:
            self.m = (
                (ring.add(a, ring.mul(b, t)), b),
                (ring.add(c, ring.mul(d, t)), d),
            )

    def push_left(self, root, t):
        ring = self.ring
        (a, b), (c, d) = self.m
        if tuple(root) == self.beta:
            self.m = (
                (ring.add(a, ring.mul(t, c)), ring.add(b, ring.mul(t, d))),
                (c, d),
            )
        elif tuple(root) == self.nbeta:
            self.m = (
                (a, b),
                (ring.add(c, ring.mul(t, a)), ring.add(d, ring.mul(t, b))),
            )
        else:
            raise GroupError(f"letter {root} outside the rank-1 system")

    @property
    def blocks(self) -> list:
        ring = self.ring
        beta, nbeta = self.beta, self.nbeta
        (a, b), (c, d) = self.m
        one = ring.one
        out = [dict() for _ in range(8)]

        def solve(a, b, c, d):
            c_inv = ring.inv(c)
            if c_inv is None:
                raise GroupError("rank-1 solve needs a unit corner")
            x = ring.mul(ring.sub(a, one), c_inv)
            z = ring.mul(ring.sub(d, one), c_inv)
            return x, z

        if ring.is_unit(c):
            x, z = solve(a, b, c, d)
            out[0] = {beta: x}
            out[1] = {nbeta: c}
            out[2] = {beta: z}
        else:
            # local ring: a is then a unit, so c + a is a unit
            c2 = ring.add(c, a)
            d2 = ring.add(d, b)
            x, z = solve(a, b, c2, d2)
            out[1] = {nbeta: ring.neg(one)}
            out[2] = {beta: x}
            out[3] = {nbeta: c2}
            out[4] = {beta: z}
        return [
            {r: v for r, v in blk.items() if v != ring.zero} for blk in out
        ]


class _Machine:
    """Rank-inductive (U+ U-)^4 state over a fixed representation and ring."""

    def __init__(self, rs: RootSystem, rep: Representation, ring: RingSpec, blocks=None):
        self.rs = rs
        self.rep = rep
        self.ring = ring
        self.blocks = blocks if blocks is not None else [dict() for _ in range(8)]

    # coordinate evaluation in this subsystem's fixed orders
    def _letters(self, sign, coords: dict) -> list:
        zero = self.ring.zero
        return [
            (root, coords[root]) for root in unipotent_order(self.rs, sign)
            if coords.get(root, zero) != zero
        ]

    def push_left(self, root, t):
        """Replace the blocks u_0..u_7 of g by those of e_root(t) g.

        Each block is u_k = a_k c_k with a_k in the Levi part U0 of a split
        that keeps root; the inner machine turns e_root(t) a_0...a_7 into
        a'_0...a'_7.  With R_7 = 1 and R_{k-1} = a'_k R_k a_k^-1, the new
        blocks u'_k = R_{k-1} u_k R_k^-1 = a'_k (R_k c_k R_k^-1) telescope to
        R_{-1} g, and R_{-1} must be e_root(t).  A block with R_k = 1 and
        a'_k = a_k is kept as it is: then R_{k-1} = 1 and u'_k = u_k, and its
        Levi-span check is that equality itself.  Letters act on R_k and
        R_k^-1 as row and column operations; only R_k^-1 multiplies as a
        whole matrix (`linalg.mat_mul`, column operations by R_k^-1 - I)."""
        if t == self.ring.zero:
            return
        rs, rep, ring = self.rs, self.rep, self.ring
        root = tuple(root)
        split, phi0 = _push_split(rs, root)
        old = [{r: v for r, v in coords.items() if r in phi0} for coords in self.blocks]
        inner = _machine(split.sub_system, rep, ring, blocks=old)
        inner.push_left(root, t)
        new = inner.blocks

        one = r_mat = r_inv = rep.identity(ring)
        blocks = [None] * 8
        for k in range(7, -1, -1):
            r_is_one = r_inv == one
            if r_is_one and old[k] == new[k]:  # then R_(k-1) = 1 and u'_k = u_k
                blocks[k] = self.blocks[k]
                continue
            sign = 1 if k % 2 == 0 else -1
            a, b = self._letters(sign, old[k]), self._letters(sign, new[k])
            prev = sandwich(rep, ring, b, r_mat, a)
            prev_inv = sandwich(rep, ring, a, r_inv, b)
            block = rep.apply_right(ring, prev, self._letters(sign, self.blocks[k]))
            if not r_is_one:
                block = linalg.mat_mul(ring, block, r_inv)
            coords = unipotent_coordinates(
                GroupElement(rep, ring, block), sign, order=unipotent_order(rs, sign)
            )
            blocks[k] = {r: x for r, x in coords if x != ring.zero}
            if {r: x for r, x in blocks[k].items() if r in phi0} != new[k]:
                raise GroupError("interchange left the expected root span")
            r_mat, r_inv = prev, prev_inv
        if r_mat != rep.elementary_matrix(ring, root, t):
            raise GroupError("interchange did not telescope to the pushed letter")
        self.blocks = blocks

    def word(self) -> ElementaryWord:
        """The blocks u1+ u1- ... u4+ u4- as one word, each in its fixed order."""
        letters = []
        for k, coords in enumerate(self.blocks):
            letters += self._letters(1 if k % 2 == 0 else -1, coords)
        return ElementaryWord(self.rep, self.ring, letters)


def _machine(rs: RootSystem, rep: Representation, ring: RingSpec, blocks=None):
    """The fourfold state for rs: the 2x2 base case at rank 1, else _Machine."""
    return (_Sl2Machine if rs.rank == 1 else _Machine)(rs, rep, ring, blocks)


def tavgen_decompose(word: ElementaryWord) -> DecompositionReport:
    """Rewrite a word in the elementary subgroup as u1+ u1- ... u4+ u4-.

    Input membership is by construction (the element is given as a word); the
    output word re-evaluates to the same element, exactly.
    """
    rep, ring = word.rep, word.ring
    rs = rep.rs
    check_decomposition_supported(rs)
    if not is_local(ring)[0]:
        raise GroupError("the fourfold normal form needs a local ring")
    machine = _machine(rs, rep, ring)
    for root, t in reversed(_rewrite_to_simple_letters(word)):
        machine.push_left(root, t)
    out_word = _Machine(rs, rep, ring, blocks=machine.blocks).word()
    return _verified_report("tavgen", word.evaluate(), out_word, "fourfold_bound")
