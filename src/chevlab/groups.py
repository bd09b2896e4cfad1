"""Chevalley group elements over finite rings: generators, words, oracles.

Group elements are exact matrices over a ring spec in a chosen
representation.  The module provides the elementary generators e_a(t), torus
and Weyl lifts, congruence reduction, a brute-force subgroup closure, and
exhaustive/sampled verification of the additivity and commutator relations.
Closures of E(R) take e_a(g) for g in the ring's additive generators, never
every e_a(t), so a closure's cap bounds its work on every ring.
Inverses come from words, e_a(t)^-1 = e_a(-t) (`ElementaryWord.inverse_word`,
`commutator_expansion`); Gauss-Jordan elimination (`GroupElement.inverse`,
`commutator`, the one product of two `GroupElement`s) is the reference path.
The relation checks, the expansions (letters from `expansion_letters`), the
torus and Weyl lifts and conjugation by letters act by row and column
operations (`letters_matrix`, `sandwich`), not by dense products; one check,
`conjugation_sign`, reads the sign of w e_a(t) w^-1 = e_b(+-t).  The relation
checker tests R2 in the conjugation form e_a(s) e_b(t) e_a(-s) = P e_b(t),
P the product of the expansion's letters, and over a `ProductRing` runs every
check on each factor with the components of (s, t); `word_matrix` and
`ElementaryWord.evaluate` multiply letter by letter through `linalg.mat_mul`,
which reads each e_a(t) - I off its full matrix.  The closure searches
tuples of row ids, each distinct row interned once, under one action, right
multiplication by the generators, and multiplies each distinct row by each
generator once, by column operations with the nonzero entries of h - I;
each member is decoded and wrapped as a `GroupElement` once, at the end.
Normal closures are built on it one generator at a time
(`congruence.materialized_subgroup`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import itemgetter

from . import linalg
from .chevalley import _int_smat_mul, build_basis
from .reps import Representation
from .rings import IdealHandle, ProductRing, RingSpec, ZmodRing


class GroupError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """Subgroup closure grew past the requested cap."""


class GroupElement:
    """An invertible matrix over a finite ring, tagged with its representation."""

    __slots__ = ("rep", "ring", "mat", "_hash")

    def __init__(self, rep: Representation, ring: RingSpec, mat):
        self.rep = rep
        self.ring = ring
        self.mat = mat
        self._hash = None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.rep, self.ring, linalg.mat_mul(self.ring, self.mat, other.mat)
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.rep, self.ring, linalg.mat_inverse(self.ring, self.mat)
        )

    def is_identity(self) -> bool:
        return self.mat == self.rep.identity(self.ring)

    def _check(self, other: "GroupElement"):
        if self.rep.key != other.rep.key or self.ring != other.ring:
            raise GroupError("elements live in different groups")

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.rep.key == other.rep.key
            and self.ring == other.ring
            and self.mat == other.mat
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rep.key, self.mat))
        return self._hash

    def to_json(self):
        ring = self.ring
        return [[ring.element_to_json(v) for v in row] for row in self.mat]

    @classmethod
    def from_json(cls, rep: Representation, ring: RingSpec, rows):
        n = rep.dim
        if not (
            isinstance(rows, list)
            and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)
        ):
            raise GroupError(f"matrix must be {n}x{n}")
        mat = tuple(
            tuple(ring.element_from_json(v) for v in row) for row in rows
        )
        return cls(rep, ring, mat)

    def __repr__(self):
        return f"<{self.rep.tag} element over {self.ring.label}>"


def identity_element(rep: Representation, ring: RingSpec) -> GroupElement:
    return GroupElement(rep, ring, rep.identity(ring))


def elementary(rep: Representation, ring: RingSpec, root, t) -> GroupElement:
    """The root-group element e_root(t) = exp(t X_root), reduced into the ring."""
    if tuple(root) not in rep.rs.root_set:
        raise GroupError(f"{root} is not a root of {rep.rs.label}")
    return GroupElement(rep, ring, rep.elementary_matrix(ring, tuple(root), t))


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """[g, h] = g h g^-1 h^-1, for any elements (Gauss-Jordan inverses)."""
    return a * b * a.inverse() * b.inverse()


def word_matrix(rep: Representation, ring: RingSpec, letters):
    """Raw matrix of the product of e_root(t) over the letters, from the identity."""
    mat = rep.identity(ring)
    for root, t in letters:
        mat = linalg.mat_mul(ring, mat, rep.elementary_matrix(ring, root, t))
    return mat


def expansion_terms(rep: Representation, ring: RingSpec, a, b) -> list:
    """(i, j, root i*a + j*b, C_ij in the ring) of [e_a(s), e_b(t)], b != -a."""
    coeffs = build_basis(rep.rs).commutator_coefficients(a, b)
    return [
        (i, j, g, ring.from_int(coeffs[(i, j)]))
        for i, j, g in rep.rs.commutator_root_list(a, b)
    ]


def expansion_replays(rep: Representation, a, b) -> bool:
    """Whether [e_a(1), e_b(1)] equals the product of the e_g(C_ij) of its
    expansion, both multiplied out exactly over Z in rep.  As a polynomial in s
    and t, an entry of either side carries only the monomial s^i t^j named by
    its weight shift i*a + j*b, so the check at s = t = 1 checks the identity."""
    coeffs = build_basis(rep.rs).commutator_coefficients(a, b)
    identity = {i: {i: 1} for i in range(rep.dim)}

    def letter(root, t):
        m = {i: {i: 1} for i in range(rep.dim)}
        for i, j, ms in rep.terms(root):
            m[i][j] = sum(c * t**k for k, c in enumerate(ms, 1))
        return m

    lhs = [letter(a, 1), letter(b, 1), letter(a, -1), letter(b, -1)]
    rhs = [letter(g, coeffs[(i, j)]) for i, j, g in rep.rs.commutator_root_list(a, b)]
    return reduce(_int_smat_mul, lhs, identity) == reduce(_int_smat_mul, rhs, identity)


def letters_matrix(rep: Representation, ring: RingSpec, letters):
    """Raw matrix of the product of the letters: the later letters act as
    column operations on the memoized first one."""
    if not letters:
        return rep.identity(ring)
    (root, t), *rest = letters
    return rep.apply_right(ring, rep.elementary_matrix(ring, root, t), rest)


def sandwich(rep: Representation, ring: RingSpec, left, mat, right):
    """left . mat . right^-1 for letter lists: the left letters act as row
    operations, those of right^-1 (reversed, negated) as column operations."""
    inverse = [(r, ring.neg(t)) for r, t in reversed(right)]
    return rep.apply_right(ring, rep.apply_left(ring, left, mat), inverse)


def expansion_letters(ring: RingSpec, terms, s, t) -> list:
    """The letters (g, C_ij s^i t^j) of [e_a(s), e_b(t)] over its `expansion_terms`."""
    return [(g, reduce(ring.mul, [s] * i + [t] * j, c)) for i, j, g, c in terms]


def commutator_expansion(rep: Representation, ring: RingSpec, terms, a, b, s, t):
    """[e_a(s), e_b(t)] = e_a(s) e_b(t) e_a(-s) e_b(-t) as a raw matrix, from the
    memoized e_a(s) by column operations, and the letters (g, C_ij s^i t^j) of
    its expansion over `terms`, for the caller to evaluate and compare."""
    word = [(a, s), (b, t), (a, ring.neg(s)), (b, ring.neg(t))]
    return letters_matrix(rep, ring, word), expansion_letters(ring, terms, s, t)


class ElementaryWord:
    """A product of elementary generators, as (root, parameter) letters."""

    def __init__(self, rep: Representation, ring: RingSpec, letters=()):
        self.rep = rep
        self.ring = ring
        self.letters = tuple((tuple(r), t) for r, t in letters)
        self._value = None

    def evaluate(self) -> GroupElement:
        if self._value is None:
            self._value = GroupElement(
                self.rep, self.ring, word_matrix(self.rep, self.ring, self.letters)
            )
        return self._value

    def inverse_word(self) -> "ElementaryWord":
        return ElementaryWord(
            self.rep,
            self.ring,
            [(r, self.ring.neg(t)) for r, t in reversed(self.letters)],
        )

    def __len__(self):
        return len(self.letters)

    def __add__(self, other: "ElementaryWord") -> "ElementaryWord":
        if self.rep.key != other.rep.key or self.ring != other.ring:
            raise GroupError("words live in different groups")
        return ElementaryWord(self.rep, self.ring, self.letters + other.letters)

    def nonzero(self) -> "ElementaryWord":
        zero = self.ring.zero
        return ElementaryWord(
            self.rep, self.ring, [(r, t) for r, t in self.letters if t != zero]
        )

    def to_json(self):
        return [
            {"root": list(r), "t": self.ring.element_to_json(t)}
            for r, t in self.letters
        ]

    @classmethod
    def from_json(cls, rep: Representation, ring: RingSpec, items):
        letters = []
        for item in items:
            root = tuple(item["root"])
            if root not in rep.rs.root_set:
                raise GroupError(f"{root} is not a root of {rep.rs.label}")
            letters.append((root, ring.element_from_json(item["t"])))
        return cls(rep, ring, letters)

    def __repr__(self):
        return f"<word of length {len(self.letters)} over {self.ring.label}>"


# ---------------------------------------------------------------------------
# Torus and Weyl lifts


def weyl_letters(rep: Representation, ring: RingSpec, alpha, u):
    """Letters of w_alpha(u) = e_a(u) e_-a(-u^-1) e_a(u)."""
    ui = ring.inv(u)
    if ui is None:
        raise GroupError("Weyl lift needs a unit parameter")
    alpha = tuple(alpha)
    return [(alpha, u), (rep.rs.opposite[alpha], ring.neg(ui)), (alpha, u)]


def torus_and_weyl(rep: Representation, ring: RingSpec, alpha, u):
    """(w_alpha(u), h_alpha(u) = w_alpha(u) w_alpha(1)^-1), from 3 and 6 letters."""
    w = weyl_letters(rep, ring, alpha, u)
    w1_inv = [(r, ring.neg(t)) for r, t in reversed(weyl_letters(rep, ring, alpha, ring.one))]
    return tuple(GroupElement(rep, ring, letters_matrix(rep, ring, x)) for x in (w, w + w1_inv))


def weyl_lift_word(rep: Representation, ring: RingSpec, word) -> ElementaryWord:
    """Canonical lift of a Weyl word as 3-letter blocks w_simple(1)."""
    letters = []
    for i in word:
        letters.extend(weyl_letters(rep, ring, rep.rs.simple[i], ring.one))
    return ElementaryWord(rep, ring, letters)


def conjugation_sign(rep: Representation, ring: RingSpec, lift, source, target):
    """eps with lift e_source(t) lift^-1 = e_target(eps t) on the ring's additive
    generators, hence for every t as both sides are additive in t, or None.
    Each conjugate is computed once; +1 is tried first, so characteristic 2
    answers +1."""
    e = rep.elementary_matrix
    conjugates = [(t, sandwich(rep, ring, lift, e(ring, source, t), lift))
                  for t in ring.additive_generators()]
    for eps in (1, -1):
        if all(c == e(ring, target, t if eps == 1 else ring.neg(t)) for t, c in conjugates):
            return eps
    return None


def weyl_conjugation_check(rep: Representation, ring: RingSpec, word, alpha) -> int:
    """Sign eps with w e_alpha(t) w^-1 = e_{w(alpha)}(eps t) for every t, w the
    canonical lift of the Weyl word; raises GroupError when neither sign holds
    (which would indicate a structure-table inconsistency)."""
    alpha = tuple(alpha)
    lift = weyl_lift_word(rep, ring, word).letters
    eps = conjugation_sign(rep, ring, lift, alpha, rep.rs.apply_word(word, alpha))
    if eps is None:
        raise GroupError(f"Weyl conjugation failed for {alpha}")
    return eps


# ---------------------------------------------------------------------------
# Congruence reduction


def congruence_reduce(g: GroupElement, ideal: IdealHandle) -> GroupElement:
    """Entrywise reduction of g modulo the ideal (a group homomorphism)."""
    if ideal.spec != g.ring:
        raise GroupError("ideal belongs to a different ring")
    qspec, proj, _ = ideal.quotient()
    mat = tuple(tuple(proj(v) for v in row) for row in g.mat)
    return GroupElement(g.rep, qspec, mat)


def in_congruence_kernel(g: GroupElement, ideal: IdealHandle) -> bool:
    """g reduces to the identity mod the ideal Ann(h): g*h == h entrywise."""
    ring = g.ring
    if ideal.spec != ring:
        raise GroupError("ideal belongs to a different ring")
    h = ideal.cofactor
    if isinstance(ring, ZmodRing):
        m = ring.n
        return all(
            v * h % m == (h if i == j else 0)
            for i, row in enumerate(g.mat)
            for j, v in enumerate(row)
        )
    mul, zero = ring.mul, ring.zero
    return all(
        mul(v, h) == (h if i == j else zero)
        for i, row in enumerate(g.mat)
        for j, v in enumerate(row)
    )


# ---------------------------------------------------------------------------
# Brute-force closure


def subgroup_closure(generators, cap: int, track_words: bool = False):
    """Multiplicative closure of the generators (a subgroup, the group being finite).

    One frontier search from the identity over interned rows: each distinct
    row gets an integer id the first time it appears, a member is the tuple
    of its row ids, and each new member x is multiplied on the right by every
    generator h.  x h = x(I + E), E = h - I, acts on each row alone by column
    operations: each h keeps a dict id -> image id (distinct rows x
    generators entries), filled by one `linalg.col_ops` call over the rows of
    an expanded member that have none yet, and x h is read off it by one
    `itemgetter` per member.  Members are decoded into matrices of the shared
    row tuples, the id tuples are dropped, and the matrices are wrapped as
    `GroupElement`s once, at the end.  With track_words=True the generators
    are (element, ElementaryWord) pairs and a dict element -> ElementaryWord
    is returned; otherwise returns a frozenset.  Raises CapExceeded when the
    closure grows past cap.
    """
    gens = list(generators)
    if not gens:
        raise GroupError("closure needs at least one generator")
    if not track_words:
        gens = [(g, None) for g in gens]
    first = gens[0][0]
    rep, ring = first.rep, first.ring
    actions = []  # (id -> image id, col_ops entries, word) per generator
    for h, hw in gens:
        first._check(h)
        actions.append(({}, linalg.delta_entries(ring, h.mat), hw))
    mapped = actions[0][0]  # every generator's dict holds the same ids
    rows = list(rep.identity(ring))  # id -> row
    ids = {r: i for i, r in enumerate(rows)}  # row -> id
    ident = tuple(range(len(rows)))
    words = {ident: ElementaryWord(rep, ring) if track_words else None}
    if cap < 1:  # the identity counts against the cap
        raise CapExceeded(f"closure exceeded cap {cap}")
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            new = [i for i in x if i not in mapped]
            if new:
                src = [rows[i] for i in new]
                for image, entries, _ in actions:
                    ys = linalg.col_ops(ring, src, entries)
                    for r in ys:
                        if r not in ids:
                            ids[r] = len(rows)
                            rows.append(r)
                    image.update(zip(new, map(ids.__getitem__, ys)))
            xw = words[x]
            pick = itemgetter(*x)  # image -> x h, a tuple as x has >= 2 rows
            for image, _, hw in actions:
                y = pick(image)
                if y not in words:
                    words[y] = xw + hw if track_words else None
                    nxt.append(y)
                    if len(words) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    row = rows.__getitem__
    if track_words:
        return {GroupElement(rep, ring, tuple(map(row, x))): w for x, w in words.items()}
    mats = [tuple(map(row, x)) for x in words]
    del words  # the id tuples go before the members are wrapped
    return frozenset(GroupElement(rep, ring, m) for m in mats)


def all_elementaries(rep: Representation, ring: RingSpec, omit_root=None):
    """Generators e_a(g) of E(R), g over the ring's additive generators (they
    give every e_a(t), as e_a(s+t) = e_a(s) e_a(t)), optionally omitting a
    single root."""
    omit = tuple(omit_root) if omit_root is not None else None
    return [
        elementary(rep, ring, r, g)
        for r in rep.rs.roots if r != omit
        for g in ring.additive_generators()
    ]


def elementary_generator_words(rep: Representation, ring: RingSpec):
    """(element, single-letter word) pairs for every e_a(t), t != 0.

    Unlike `all_elementaries` this lists the ring: breadth-first words over
    these letters are shorter, and `tavgen_decompose` is slower on longer ones.
    """
    out = []
    for r in rep.rs.roots:
        for t in ring.elements():
            if t == ring.zero:
                continue
            w = ElementaryWord(rep, ring, [(r, t)])
            out.append((w.evaluate(), w))
    return out


def random_elementary_word(
    rep: Representation, ring: RingSpec, length: int, rng: random.Random
) -> ElementaryWord:
    """`length` uniform letters (root, t), t drawn by index without listing
    the ring: the draws of `rng.choice(ring.elements())`."""
    roots = list(rep.rs.roots)
    letters = [
        (rng.choice(roots), ring.element_at(rng.randrange(ring.card))) for _ in range(length)
    ]
    return ElementaryWord(rep, ring, letters)


# ---------------------------------------------------------------------------
# Steinberg relation verification


@dataclass
class RelationReport:
    type_label: str
    ring_label: str
    rep_tag: str
    additivity_checked: int = 0
    commutator_checked: int = 0
    excluded_pairs: int = 0
    exhaustive: bool = True
    failures: list = field(default_factory=list)
    caveat: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def _parameter_pairs(ring: RingSpec, loop_cap: int, sample: int, seed: int):
    """Every pair (s, t) when there are at most loop_cap of them, else a
    fixed-seed sample drawn by index, without listing the ring: the draws of
    rng.choice(ring.elements()), since choice(seq) is seq[randrange(len(seq))]."""
    if ring.card**2 <= loop_cap:
        values = ring.elements()
        return [(s, t) for s in values for t in values], True
    rng = random.Random(seed)
    draw = lambda: ring.element_at(rng.randrange(ring.card))
    return [(draw(), draw()) for _ in range(sample)], False


def verify_steinberg_relations(
    rep: Representation,
    ring: RingSpec,
    mode: str = "both",
    loop_cap: int = 2**16,
    sample: int = 512,
    seed: int = 0,
) -> RelationReport:
    """Check additivity (R1) and the commutator expansion (R2) over the ring.

    R1: e_a(s) e_a(t) = e_a(s+t) for every root.  R2: for every ordered pair
    with b != -a, [e_a(s), e_b(t)] equals the product P of the expansion's
    letters e_g(C_ij s^i t^j), with the integral coefficients from the
    structure table, factors ordered by (i+j, i).  It is checked in the
    equivalent conjugation form e_a(s) e_b(t) e_a(-s) = P e_b(t), since
    e_b(-t) = e_b(t)^-1: the left side is two column operations on the
    memoized e_a(s), the right side P's letters as row operations on the
    memoized e_b(t), so a pair with no expansion letters costs two operations.
    Over a `ProductRing` every check runs on each factor with the components
    of (s, t), and fails when any factor fails.  Failures are collected in
    the report, with the ring's own (s, t), not raised; a mode other than
    R1, R2 or both raises GroupError before any check runs.
    """
    if mode not in ("R1", "R2", "both"):
        raise GroupError(f"relation mode must be R1, R2 or both, not {mode!r}")
    rs = rep.rs
    report = RelationReport(rs.label, ring.label, rep.tag, caveat=rep.caveat)
    pairs, exhaustive = _parameter_pairs(ring, loop_cap, sample, seed)
    report.exhaustive = exhaustive
    if mode in ("R1", "both"):
        for a in rs.roots:
            holds = _factorwise(ring, lambda f: partial(_additive, rep, f, a))
            for s, t in pairs:
                report.additivity_checked += 1
                if not holds(s, t):
                    report.failures.append(("R1", a, s, t))
    if mode in ("R2", "both"):
        checks = {}
        for a in rs.roots:
            opposite = rs.opposite[a]
            for b in rs.roots:
                if b == opposite:
                    report.excluded_pairs += 1
                    continue
                checks[(a, b)] = _factorwise(ring, lambda f: partial(
                    _conjugation_form, rep, f, a, b, expansion_terms(rep, f, a, b)))
        for (a, b), holds in checks.items():
            for s, t in pairs:
                report.commutator_checked += 1
                if not holds(s, t):
                    report.failures.append(("R2", a, b, s, t))
    return report


def _factorwise(ring: RingSpec, make_check):
    """A predicate on (s, t) over the ring from make_check(factor), a predicate
    over one factor.  Over a `ProductRing` it runs on each factor with the
    components s[k], t[k]; any other ring is its own single factor."""
    if not isinstance(ring, ProductRing):
        return make_check(ring)
    checks = [make_check(f) for f in ring.factors]
    return lambda s, t: all(c(x, y) for c, x, y in zip(checks, s, t))


def _additive(rep: Representation, ring: RingSpec, a, s, t) -> bool:
    """R1 at (s, t): e_a(s) e_a(t) = e_a(s + t)."""
    lhs = letters_matrix(rep, ring, [(a, s), (a, t)])
    return lhs == rep.elementary_matrix(ring, a, ring.add(s, t))


def _conjugation_form(rep: Representation, ring: RingSpec, a, b, terms, s, t) -> bool:
    """R2 at (s, t) as e_a(s) e_b(t) e_a(-s) = P e_b(t), P the product of the
    letters (g, C_ij s^i t^j) over the `expansion_terms`."""
    lhs = letters_matrix(rep, ring, [(a, s), (b, t), (a, ring.neg(s))])
    letters = expansion_letters(ring, terms, s, t)
    return lhs == rep.apply_left(ring, letters, rep.elementary_matrix(ring, b, t))
