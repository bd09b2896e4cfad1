"""Reduced irreducible root systems in standard integer realizations.

Roots are integer coordinate tuples in a fixed ambient lattice.  Types A-F use
orthonormal epsilon-coordinates (E and F scaled by 2 so that all entries stay
integral); G2 uses the basis {k, c} with k long and c short, a root a*k + b*c
stored as the pair (a, b) with the corresponding Gram matrix.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction


Root = tuple  # integer coordinate vector
WeylWord = tuple  # sequence of simple-root indices, leftmost applied last


class RootSystemError(ValueError):
    pass


def parse_type(label: str) -> tuple[str, int]:
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG" or not label[1:].isdigit():
        raise RootSystemError(f"bad type label {label!r}")
    return label[0], int(label[1:])


_CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}


def _eps(n: int, i: int, c: int = 1) -> tuple:
    v = [0] * n
    v[i] = c
    return tuple(v)


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _scale(c, u: tuple) -> tuple:
    return tuple(c * a for a in u)


def _neg(u: tuple) -> tuple:
    return tuple(-a for a in u)


def _pair_roots(n: int, c: int = 1) -> list:
    """The vectors +-c*e_i +- c*e_j for i < j, in a fixed order."""
    return [
        _add(_eps(n, i, c * si), _eps(n, j, c * sj))
        for i in range(n)
        for j in range(i + 1, n)
        for si in (1, -1)
        for sj in (1, -1)
    ]


def _realization(letter: str, rank: int):
    """Returns (ambient dim, gram rows or None for identity, roots, simples)."""
    n = rank
    if letter == "A":
        if rank < 1:
            raise RootSystemError("type A needs rank >= 1")
        dim = n + 1
        roots = [
            _sub(_eps(dim, i), _eps(dim, j))
            for i in range(dim)
            for j in range(dim)
            if i != j
        ]
        simples = [_sub(_eps(dim, i), _eps(dim, i + 1)) for i in range(n)]
        return dim, None, roots, simples
    if letter == "B":
        if rank < 2:
            raise RootSystemError("type B needs rank >= 2")
        roots = [_eps(n, i, s) for i in range(n) for s in (1, -1)]
        roots += _pair_roots(n)
        simples = [_sub(_eps(n, i), _eps(n, i + 1)) for i in range(n - 1)]
        simples.append(_eps(n, n - 1))
        return n, None, roots, simples
    if letter == "C":
        if rank < 2:
            raise RootSystemError("type C needs rank >= 2")
        roots = [_eps(n, i, 2 * s) for i in range(n) for s in (1, -1)]
        roots += _pair_roots(n)
        simples = [_sub(_eps(n, i), _eps(n, i + 1)) for i in range(n - 1)]
        simples.append(_eps(n, n - 1, 2))
        return n, None, roots, simples
    if letter == "D":
        if rank < 3:
            raise RootSystemError("type D needs rank >= 3")
        roots = _pair_roots(n)
        simples = [_sub(_eps(n, i), _eps(n, i + 1)) for i in range(n - 1)]
        simples.append(_add(_eps(n, n - 2), _eps(n, n - 1)))
        return n, None, roots, simples
    if letter == "G":
        if rank != 2:
            raise RootSystemError("type G needs rank 2")
        # coordinates (a, b) = a*k + b*c; k long, c short
        gram = ((6, -3), (-3, 2))
        longs = [(1, 0), (1, 3), (2, 3)]
        shorts = [(0, 1), (1, 1), (1, 2)]
        roots = []
        for r in longs + shorts:
            roots.append(r)
            roots.append(_neg(r))
        simples = [(1, 0), (0, 1)]
        return 2, gram, roots, simples
    if letter == "F":
        if rank != 4:
            raise RootSystemError("type F needs rank 4")
        # scaled by 2: long = +-2e_i +- 2e_j, short = +-2e_i and (+-1)^4
        roots = [_eps(4, i, 2 * s) for i in range(4) for s in (1, -1)]
        roots += _pair_roots(4, 2)
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(signs)
        simples = [
            (0, 2, -2, 0),
            (0, 0, 2, -2),
            (0, 0, 0, 2),
            (1, -1, -1, -1),
        ]
        return 4, None, roots, simples
    if letter == "E":
        if rank not in (6, 7, 8):
            raise RootSystemError("type E needs rank 6, 7, or 8")
        # E8 scaled by 2
        roots8 = _pair_roots(8, 2)
        for signs in itertools.product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                roots8.append(signs)
        simples8 = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        simples = simples8[:rank]
        if rank == 8:
            return 8, None, roots8, simples
        span = _span_filter(simples, roots8)
        expected = {6: 72, 7: 126}[rank]
        if len(span) != expected:
            raise RootSystemError("internal: E-subsystem count mismatch")
        return 8, None, span, simples
    raise RootSystemError(f"unknown type letter {letter!r}")


def _span_filter(simples, roots):
    """Roots lying in the rational span of the given simple roots."""
    out = []
    for r in roots:
        if _solve_coords(simples, r) is not None:
            out.append(r)
    return out


def _solve_coords(basis, target):
    """Rational coordinates of target in the given basis, or None."""
    rows = [list(map(Fraction, b)) for b in basis]
    m = len(rows)
    dim = len(target)
    # solve x * rows = target by Gaussian elimination on rows^T
    aug = [[rows[j][i] for j in range(m)] + [Fraction(target[i])] for i in range(dim)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, dim) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(dim):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, dim):
        if aug[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][m]
    return x


class TavgenSplit:
    """Partition of a root system by an extremal simple root."""

    def __init__(self, sub_system, phi0, phi1):
        self.sub_system = sub_system
        self.phi0 = tuple(phi0)
        self.phi1 = tuple(phi1)


class RootSystem:
    """A reduced irreducible root system with a chosen simple system."""

    def __init__(self, letter, rank, ambient, gram, roots, simples, label=None):
        self.letter = letter
        self.rank = rank
        self.ambient = ambient
        self.gram = gram  # None means the identity form
        self.simple = tuple(simples)
        self.label = label or f"{letter}{rank}"
        coords = {}
        for r in roots:
            sol = _solve_coords(self.simple, r)
            if sol is None:
                raise RootSystemError(f"root {r} outside simple span")
            ints = []
            for x in sol:
                if x.denominator != 1:
                    raise RootSystemError(f"non-integral simple coordinates for {r}")
                ints.append(int(x))
            if not (all(c >= 0 for c in ints) or all(c <= 0 for c in ints)):
                raise RootSystemError(f"mixed-sign coordinates for {r}")
            coords[tuple(r)] = tuple(ints)
        self.simple_coords = coords
        # one tuple per root, the given one: the simple roots and each root's
        # negative are looked up, not built, so words share them
        own = {r: r for r in coords}
        self.simple = tuple(own[s] for s in self.simple)
        self.opposite = {r: own[_neg(r)] for r in own}
        positives = [r for r in coords if sum(coords[r]) > 0]
        positives.sort(key=lambda r: (sum(coords[r]), r))
        self.positive = tuple(positives)
        self.negative = tuple(self.opposite[r] for r in positives)
        self.roots = self.positive + self.negative
        self.root_set = frozenset(self.roots)
        self.positive_set = frozenset(self.positive)
        if len(self.root_set) != len(roots):
            raise RootSystemError("duplicate roots in realization")
        self._norms = {r: self.inner(r, r) for r in self.roots}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_subsystem(cls, parent: "RootSystem", roots, simples, label):
        letter, rank = parse_type(label) if label else ("?", len(simples))
        return cls(letter, rank, parent.ambient, parent.gram, roots, simples, label=label)

    # -- bilinear data ------------------------------------------------------

    def inner(self, u, v) -> int:
        if self.gram is None:
            return sum(a * b for a, b in zip(u, v))
        total = 0
        for i, a in enumerate(u):
            if a:
                row = self.gram[i]
                total += a * sum(row[j] * v[j] for j in range(len(v)))
        return total

    def norm(self, r) -> int:
        return self._norms.get(r, self.inner(r, r))

    def cartan_int(self, beta, alpha) -> int:
        num = 2 * self.inner(beta, alpha)
        den = self.inner(alpha, alpha)
        if num % den:
            raise RootSystemError("non-integral Cartan pairing")
        return num // den

    def reflect(self, alpha, beta):
        """s_alpha(beta) = beta - <beta, alpha^v> alpha."""
        c = self.cartan_int(beta, alpha)
        return _sub(beta, _scale(c, alpha))

    def is_root(self, v) -> bool:
        return tuple(v) in self.root_set

    def height(self, r) -> int:
        return sum(self.simple_coords[r])

    def is_positive(self, r) -> bool:
        return r in self.positive_set

    def length_classes(self) -> list[int]:
        return sorted(set(self._norms.values()))

    def long_roots(self) -> tuple:
        top = max(self._norms.values())
        return tuple(r for r in self.roots if self._norms[r] == top)

    def short_roots(self) -> tuple:
        low = min(self._norms.values())
        return tuple(r for r in self.roots if self._norms[r] == low)

    def coroot_coords(self, alpha) -> tuple:
        """Integer coordinates of alpha^v in the simple-coroot basis."""
        target = [Fraction(2 * x, self.norm(alpha)) for x in alpha]
        basis = [
            [Fraction(2 * x, self.norm(s)) for x in s] for s in self.simple
        ]
        sol = _solve_coords([tuple(b) for b in basis], tuple(target))
        if sol is None:
            raise RootSystemError("coroot outside coroot lattice span")
        out = []
        for x in sol:
            if x.denominator != 1:
                raise RootSystemError("non-integral coroot coordinates")
            out.append(int(x))
        return tuple(out)

    # -- Weyl group ---------------------------------------------------------

    def apply_word(self, word: WeylWord, beta):
        for i in reversed(word):
            beta = self.reflect(self.simple[i], beta)
        return beta

    def same_length_conjugator(self, alpha1, alpha2) -> WeylWord:
        """A Weyl word w with w(alpha1) = alpha2, found by breadth-first search."""
        if self.norm(alpha1) != self.norm(alpha2):
            raise RootSystemError("roots have different lengths")
        word = self._conjugators(alpha1).get(alpha2)
        if word is None:
            raise RootSystemError("roots are not Weyl-conjugate")
        return word

    @functools.cache
    def _conjugators(self, alpha1) -> dict:
        """Weyl word w with w(alpha1) = r, for every root r in alpha1's orbit."""
        words = {alpha1: ()}
        frontier = [alpha1]
        while frontier:
            nxt = []
            for r in frontier:
                for i in range(self.rank):
                    img = self.reflect(self.simple[i], r)
                    if img not in words:
                        words[img] = (i,) + words[r]
                        nxt.append(img)
            frontier = nxt
        return words

    @functools.cache
    def weyl_elements(self) -> tuple[tuple[WeylWord, tuple], ...]:
        """All Weyl group elements as (reduced word, permutation of self.roots)."""
        index = {r: i for i, r in enumerate(self.roots)}
        refl_perms = []
        for i in range(self.rank):
            perm = tuple(index[self.reflect(self.simple[i], r)] for r in self.roots)
            refl_perms.append(perm)
        ident = tuple(range(len(self.roots)))
        seen = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for perm in frontier:
                word = seen[perm]
                for i, refl in enumerate(refl_perms):
                    # s_i composed after perm
                    newp = tuple(refl[p] for p in perm)
                    if newp not in seen:
                        seen[newp] = (i,) + word
                        nxt.append(newp)
            frontier = nxt
        out = sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[1]))
        return tuple((word, perm) for perm, word in out)

    # -- structural queries --------------------------------------------------

    @functools.cache
    def commutator_root_list(self, alpha, beta) -> tuple[tuple[int, int, Root], ...]:
        """Roots i*alpha + j*beta (i, j >= 1), ordered by (i+j, i)."""
        if beta == _neg(alpha):
            raise RootSystemError("commutator list undefined for beta = -alpha")
        out = []
        for i in range(1, 5):
            for j in range(1, 5):
                r = _add(_scale(i, alpha), _scale(j, beta))
                if r in self.root_set:
                    out.append((i, j, r))
        out.sort(key=lambda t: (t[0] + t[1], t[0]))
        return tuple(out)

    def dynkin_neighbors(self, i: int) -> list[int]:
        return [
            j
            for j in range(self.rank)
            if j != i and self.inner(self.simple[i], self.simple[j]) != 0
        ]

    def extremal_simple_indices(self) -> list[int]:
        return [i for i in range(self.rank) if len(self.dynkin_neighbors(i)) <= 1]

    @functools.cache
    def tavgen_split(self, alpha_index: int) -> TavgenSplit:
        """Split off an extremal simple root: roots without/with that root."""
        if alpha_index not in self.extremal_simple_indices():
            raise RootSystemError(
                f"simple root #{alpha_index} is not an extremal Dynkin node"
            )
        phi0, phi1 = [], []
        for r in self.roots:
            if self.simple_coords[r][alpha_index] == 0:
                phi0.append(r)
            else:
                phi1.append(r)
        sub_simples = [
            s for i, s in enumerate(self.simple) if i != alpha_index
        ]
        label = classify(self, phi0, sub_simples)
        sub = RootSystem.from_subsystem(self, phi0, sub_simples, label)
        return TavgenSplit(sub, phi0, phi1)

    def root_name(self, r) -> str:
        """Readable name in the realization's coordinates: signed multiples
        of c, k for G2 (c first) and of e1, e2, ... otherwise."""
        if self.letter == "G":
            pairs = zip(r[::-1], "ck")
        else:
            pairs = ((c, f"e{i + 1}") for i, c in enumerate(r))
        out = ""
        for c, name in pairs:
            if c:
                sign = "-" if c < 0 else "+" if out else ""
                out += sign + (name if abs(c) == 1 else f"{abs(c)}{name}")
        return out or "0"

    def __repr__(self):
        return f"<root system {self.label}, {len(self.roots)} roots>"


def classify(parent: RootSystem, roots, simples) -> str:
    """Classify a subsystem by rank, root count, and length census."""
    rank = len(simples)
    count = len(roots)
    if rank == 0:
        return "A0"
    if rank == 1:
        return "A1"
    norms = sorted({parent.norm(r) for r in roots})
    if len(norms) == 1:
        if count == rank * (rank + 1):
            return f"A{rank}"
        if count == 2 * rank * (rank - 1):
            return f"D{rank}"
        if (rank, count) in ((6, 72), (7, 126), (8, 240)):
            return f"E{rank}"
    else:
        short_count = sum(1 for r in roots if parent.norm(r) == norms[0])
        if rank == 2 and count == 8:
            return "C2" if short_count == 4 else "B2"
        if rank == 2 and count == 12:
            return "G2"
        if rank == 4 and count == 48 and short_count == 24:
            return "F4"
        if count == 2 * rank * rank:
            return f"B{rank}" if short_count == 2 * rank else f"C{rank}"
    return f"?{rank}"


def build_root_system(type_label, rank=None) -> RootSystem:
    """Standard realization for the given type; rank 1 is the internal SL2 base.

    Each type has one RootSystem object, shared by every caller."""
    if rank is None:
        letter, rank = parse_type(type_label)
    else:
        letter = type_label.strip().upper()
    return _root_system(letter, rank)


@functools.cache
def _root_system(letter: str, rank: int) -> RootSystem:
    dim, gram, roots, simples = _realization(letter, rank)
    rs = RootSystem(letter, rank, dim, gram, roots, simples)
    if letter in _CLASSICAL_COUNTS:
        expected = _CLASSICAL_COUNTS[letter](rank)
    else:
        expected = {"G": 12, "F": 48, "E": {6: 72, 7: 126, 8: 240}.get(rank)}[letter]
    if len(rs.roots) != expected:
        raise RootSystemError("root count mismatch for realization")
    return rs
