"""Independent arithmetic that the benchmark checks chevlab's outputs against.

Nothing here calls chevlab's ring or matrix arithmetic.  A ring is handled as
a list of integer moduli, one per direct factor (``Z/n`` has one, ``Z/4 x
GF(3)`` has two); a matrix is one list-of-lists of Python ints per modulus.
Root-group elements come from an exact integer exponential of the
representation's nilpotent generator ``X = Representation.root_matrix(root)``,
divided by k! here and reduced modulo each modulus.  Python ints never
overflow, so these products stay exact on any modulus.
"""
from __future__ import annotations

from math import factorial, gcd, prod


class NoReference(ValueError):
    """The ring has a factor that is not Z/n, so no integer reference exists."""


def ring_moduli(ring) -> list[int]:
    """The moduli of the Z/n factors of a chevlab ring, read from its key."""
    key = ring.key()
    if key[0] == "zmod":
        return [key[1]]
    if key[0] == "product" and all(k[0] == "zmod" for k in key[1]):
        return [k[1] for k in key[1]]
    raise NoReference(f"no integer reference for {ring.label}")


def split_value(ring, v) -> list[int]:
    """A chevlab raw value as one int per modulus."""
    return [v] if ring.key()[0] == "zmod" else list(v)


def join_value(ring, comps):
    """One int per modulus back to a chevlab raw value."""
    return comps[0] if ring.key()[0] == "zmod" else tuple(comps)


# ---------------------------------------------------------------------------
# Integer divided powers


def int_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def divided_powers(x) -> list[list[tuple[int, int, int]]]:
    """Sparse X^k / k! for k = 1, 2, ... until X^k = 0, asserting integrality."""
    x = [list(row) for row in x]
    n = len(x)
    out = []
    power = x
    k = 1
    while any(any(row) for row in power):
        if k > n:
            raise ValueError("generator is not nilpotent")
        f = factorial(k)
        entries = []
        for i, row in enumerate(power):
            for j, v in enumerate(row):
                if v:
                    if v % f:
                        raise ValueError(f"X^{k}/{k}! is not integral")
                    entries.append((i, j, v // f))
        out.append(entries)
        power = int_matmul(power, x)
        k += 1
    return out


def root_sign(x) -> int:
    """+1 for a strictly upper triangular generator, -1 for strictly lower."""
    upper = any(v and i < j for i, row in enumerate(x) for j, v in enumerate(row))
    lower = any(v and i > j for i, row in enumerate(x) for j, v in enumerate(row))
    if upper == lower:
        raise ValueError("generator is not strictly triangular")
    return 1 if upper else -1


# ---------------------------------------------------------------------------
# Matrices over Z/m


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def apply_right(m, powers, t: int, mod: int):
    """m * exp(t X) mod `mod`, with exp(t X) = I + sum_k t^k X^k/k!."""
    n = len(m)
    out = [row[:] for row in m]
    tk = 1
    for entries in powers:
        tk = tk * t % mod
        if not tk:
            break
        for i, j, v in entries:
            c = tk * v % mod
            if not c:
                continue
            for r in range(n):
                mi = m[r][i]
                if mi:
                    out[r][j] = (out[r][j] + c * mi) % mod
    return out


def mat_mul(a, b, mod: int):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in bt] for row in a]


def det3(m, mod: int) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % mod


class RefGroup:
    """Products of root-group elements of one representation over Z/m factors."""

    def __init__(self, rep, ring):
        self.rep = rep
        self.ring = ring
        self.moduli = ring_moduli(ring)
        self.dim = rep.dim
        self._powers: dict = {}
        self._signs: dict = {}

    def powers(self, root):
        root = tuple(root)
        hit = self._powers.get(root)
        if hit is None:
            hit = divided_powers(self.rep.root_matrix(root))
            self._powers[root] = hit
        return hit

    def sign(self, root) -> int:
        root = tuple(root)
        hit = self._signs.get(root)
        if hit is None:
            hit = root_sign(self.rep.root_matrix(root))
            self._signs[root] = hit
        return hit

    def word(self, letters) -> list:
        """Product of e_root(t) over (root, raw t) letters, one matrix per modulus."""
        mats = [identity(self.dim) for _ in self.moduli]
        for root, t in letters:
            pw = self.powers(root)
            comps = split_value(self.ring, t)
            mats = [
                apply_right(m, pw, c % mod, mod)
                for m, c, mod in zip(mats, comps, self.moduli)
            ]
        return mats

    def matches(self, raw, mats) -> bool:
        """Does a chevlab matrix of raw values equal the reference matrices?"""
        if len(raw) != self.dim:
            return False
        for i, row in enumerate(raw):
            for j, v in enumerate(row):
                comps = split_value(self.ring, v)
                if any(c != m[i][j] for c, m in zip(comps, mats)):
                    return False
        return True

    def to_raw(self, mats):
        """Reference matrices as a chevlab matrix of raw values."""
        return tuple(
            tuple(
                join_value(self.ring, [m[i][j] for m in mats])
                for j in range(self.dim)
            )
            for i in range(self.dim)
        )


# ---------------------------------------------------------------------------
# Group orders, root counts and word-length bounds


def sl_order(n: int, p: int, k: int) -> int:
    """|SL_n(Z/p^k)| = p^((k-1)(n^2-1)) * q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1), q = p."""
    field = p ** (n * (n - 1) // 2) * prod(p**i - 1 for i in range(2, n + 1))
    return p ** ((k - 1) * (n * n - 1)) * field


_EXCEPTIONAL_ROOTS = {("G", 2): 12, ("F", 4): 48, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240}


def root_count(letter: str, rank: int) -> int:
    """|Phi| from the classification, not from chevlab's root lists."""
    if letter == "A":
        return rank * (rank + 1)
    if letter in "BC":
        return 2 * rank * rank
    if letter == "D":
        return 2 * rank * (rank - 1)
    return _EXCEPTIONAL_ROOTS[(letter, rank)]


def word_bounds(letter: str, rank: int) -> dict:
    """N1 = 2|Phi+| + 4l, N2 = N1 + 3|Phi+|, and the bounds built from them."""
    phi = root_count(letter, rank)
    npos = phi // 2
    n1 = 2 * npos + 4 * rank
    n2 = n1 + 3 * npos
    return {"local": n1 + n2, "merge": (n1 + n2) * phi, "fourfold": 4 * phi}


def fourfold_blocks_ok(signs) -> bool:
    """Do letters of these signs fit in u1+ u1- u2+ u2- u3+ u3- u4+ u4-?"""
    block = 0
    for s in signs:
        while (1 if block % 2 == 0 else -1) != s:
            block += 1
        if block > 7:
            return False
    return True


# ---------------------------------------------------------------------------
# Ideals of the rings the subgroups workload uses


def zmod_ideal(n: int, g: int) -> frozenset:
    d = gcd(g, n)
    return frozenset(range(0, n, d)) if d else frozenset({0})


def gf2_truncated_ideal(degree: int, j: int) -> frozenset:
    """(x^j) in GF(2)[x]/(x^degree): coefficient tuples vanishing below degree j."""
    out = set()
    for bits in range(2 ** (degree - j)):
        high = [(bits >> i) & 1 for i in range(degree - j)]
        out.add(tuple([0] * j + high))
    return frozenset(out)


def gf2_truncated_mul(a, b, degree: int) -> tuple:
    out = [0] * degree
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y and i + j < degree:
                    out[i + j] ^= 1
    return tuple(out)


def product_ideal(parts) -> frozenset:
    """Direct product of per-factor ideals, as per-factor tuples."""
    out = {()}
    for part in parts:
        out = {t + (v,) for t in out for v in part}
    return frozenset(out)
