"""Finite commutative unital rings with exact arithmetic.

Three ring kinds: integers mod n (`ZmodRing`), polynomial quotients
base[x]/(f) with monic f (`PolyQuotientRing`, finite fields GF(q) among them)
and finite direct products (`ProductRing`).  The quotient of each by an ideal
is again one of them: Z/d, GF(p)[x]/(g) or a product of quotients.  Elements
are kept in canonical form, so equality is plain coordinate equality.  All
values are immutable.  Every ideal is principal, and is held by one generator
and its cofactor, not by its elements.
"""
from __future__ import annotations

import functools
import itertools
import json
import math

# Memos keyed by ring value (rings compare by `key()`) keep this many rings.
RING_MEMO_SIZE = 64
# Whole-ring walks (level sets, the artinian round trip) list at most this many
# elements; above it they refuse or sample.
LISTING_LIMIT = 2**16


class RingError(ValueError):
    """Malformed ring description or invalid ring operation."""


class RingTooLarge(RingError):
    """A whole-ring walk refused on a ring above LISTING_LIMIT elements."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the bound itself is a composite that passes all 13 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin below 3.3e24.  At and
    above that bound a witness still proves n composite, but a number that
    passes every base is not certified prime, and raises RingError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise RingError(
            f"{n} passes Miller-Rabin to the bases up to 41 but is not certified "
            f"prime: primality is exact only below {_MR_EXACT_BELOW}"
        )
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho, Floyd's cycle
    search on x -> x^2 + c from x = 2, for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization, ascending primes: trial division by the primes up
    to 41, then Pollard's rho on the rest; a factor is kept once `is_prime`
    accepts it, and split again otherwise.  A factor above 3.3e24 that no
    Miller-Rabin base refutes raises RingError from `is_prime`."""
    if n < 2:
        return []
    counts = {}
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return sorted(counts.items())


# ---------------------------------------------------------------------------
# Ring specs


class RingSpec:
    """A finite commutative unital ring, compared and hashed by its key.

    Subclasses provide raw-value arithmetic and set `zero` and `one` once, as
    plain attributes.  Raw values are always hashable and canonical (no
    normalization needed before comparing).
    """

    label: str
    card: int
    zero: object
    one: object
    is_field: bool = False

    def __init__(self, key: tuple):
        self._key = key
        self._hash = hash(key)

    def key(self):
        return self._key

    # raw-value arithmetic
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        """Multiplicative inverse of a raw value, or None when not a unit."""
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_unit(self, a) -> bool:
        return self.inv(a) is not None

    def from_int(self, k: int):
        """Image of the integer k under the unique map Z -> R."""
        raise NotImplementedError

    def elements(self):
        """All raw values in a fixed deterministic order, as a sequence."""
        raise NotImplementedError

    def element_at(self, index: int):
        """elements()[index], found without listing the ring."""
        raise NotImplementedError

    def additive_generators(self) -> tuple:
        """Raw values whose sums give every element: the parameters that suffice
        for generation and conjugation, since e_a(s+t) = e_a(s) e_a(t)."""
        raise NotImplementedError

    @functools.lru_cache(maxsize=RING_MEMO_SIZE)
    def units(self) -> tuple:
        return tuple(v for v in self.elements() if self.is_unit(v))

    # serialization: ints / nested lists, per the constructor shape
    def element_to_json(self, v):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def format_element(self, v) -> str:
        return json.dumps(self.element_to_json(v))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec) and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<ring {self.label} (order {self.card})>"


class ZmodRing(RingSpec):
    """Z/n with values 0..n-1."""

    def __init__(self, n: int, label: str | None = None):
        if n < 1:
            raise RingError(f"invalid modulus {n}")
        super().__init__(("zmod", n))
        self.n = n
        self.card = n
        self.zero, self.one = 0, 1 % n
        self.label = label or f"Z/{n}"
        self.is_field = is_prime(n)

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def inv(self, a):
        g, x, _ = xgcd(a, self.n)
        if g != 1:
            return None if self.n > 1 else 0
        return x % self.n

    def from_int(self, k: int):
        return k % self.n

    def elements(self):
        return range(self.n)

    def element_at(self, index: int):
        return index

    def additive_generators(self) -> tuple:
        return (self.one,)

    def element_to_json(self, v):
        return v

    def element_from_json(self, obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise RingError(f"expected integer residue, got {obj!r}")
        return obj % self.n


class PolyQuotientRing(RingSpec):
    """base[x]/(f) for monic f; values are coefficient tuples, low degree first."""

    def __init__(self, base: RingSpec, modulus: tuple, label: str | None = None):
        if len(modulus) < 2:
            raise RingError("quotient polynomial must have degree >= 1")
        if modulus[-1] != base.one:
            raise RingError("quotient polynomial must be monic")
        super().__init__(("polyquot", base.key(), tuple(modulus)))
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.card = base.card ** self.degree
        self.zero = (base.zero,) * self.degree
        self.one = self.pad((base.one,))
        self.label = label or f"{base.label}[x]/({poly_str(base, modulus)})"
        self.is_field = bool(base.is_field) and poly_is_irreducible(
            base, list(modulus)
        )
        # x^(degree+k) reduced mod f, for k = 0..degree-2 (covers products)
        self._high_powers = self._reduction_table()
        # sums and products, up to card^2 entries each of about 245 bytes:
        # small rings only
        self._add_cache: dict | None = {} if self.card <= 256 else None
        self._mul_cache: dict | None = {} if self.card <= 256 else None

    def _reduction_table(self):
        d = self.degree
        base = self.base
        # x^d = -(f_0 + ... + f_{d-1} x^{d-1})
        top = [base.neg(c) for c in self.modulus[:d]]
        rows = [tuple(top)]
        for _ in range(d - 2):
            prev = rows[-1]
            shifted = [base.zero] + list(prev[: d - 1])
            carry = prev[d - 1]
            row = [
                base.add(shifted[i], base.mul(carry, top[i])) for i in range(d)
            ]
            rows.append(tuple(row))
        return rows[: d - 1]  # degree 1 needs no row

    def add(self, a, b):
        if self._add_cache is not None:
            hit = self._add_cache.get((a, b))
            if hit is not None:
                return hit
        base = self.base
        res = tuple(base.add(x, y) for x, y in zip(a, b))
        if self._add_cache is not None:
            self._add_cache[(a, b)] = res
        return res

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        if self._mul_cache is not None:
            hit = self._mul_cache.get((a, b))
            if hit is not None:
                return hit
        base = self.base
        d = self.degree
        conv = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == base.zero:
                continue
            for j, y in enumerate(b):
                if y == base.zero:
                    continue
                conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == base.zero:
                continue
            row = self._high_powers[k - d]
            for i in range(d):
                out[i] = base.add(out[i], base.mul(c, row[i]))
        res = tuple(out)
        if self._mul_cache is not None:
            self._mul_cache[(a, b)] = res
        return res

    def inv(self, a):
        # a is a unit iff gcd(a, f) = 1; then u*a = 1 mod f
        base = self.base
        if not base.is_field:
            raise RingError(f"{self.label}: inverses need a field base")
        g, u, _ = poly_xgcd(base, list(a), list(self.modulus))
        if len(g) != 1:
            return None
        c = base.inv(g[0])
        return self.pad([base.mul(c, x) for x in u])

    def pad(self, coeffs) -> tuple:
        """The value of a polynomial of degree < deg f, given low degree first."""
        coeffs = tuple(coeffs)
        return coeffs + (self.base.zero,) * (self.degree - len(coeffs))

    def from_int(self, k: int):
        out = [self.base.zero] * self.degree
        out[0] = self.base.from_int(k)
        return tuple(out)

    @functools.lru_cache(maxsize=RING_MEMO_SIZE)
    def elements(self):
        return tuple(
            tuple(reversed(t))
            for t in itertools.product(self.base.elements(), repeat=self.degree)
        )

    def element_at(self, index: int):
        """The coefficient of x^i is digit i of the index in base |base|."""
        out = []
        for _ in range(self.degree):
            index, digit = divmod(index, self.base.card)
            out.append(self.base.element_at(digit))
        return tuple(out)

    def additive_generators(self) -> tuple:
        """x^i b for i < deg f and b an additive generator of the base."""
        return tuple(
            self.pad((self.base.zero,) * i + (b,))
            for i in range(self.degree) for b in self.base.additive_generators()
        )

    def element_to_json(self, v):
        return [self.base.element_to_json(c) for c in v]

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise RingError(f"expected coefficient list, got {obj!r}")
        coeffs = [self.base.element_from_json(c) for c in obj]
        if len(coeffs) > self.degree:
            raise RingError("coefficient list longer than quotient degree")
        return self.pad(coeffs)


class ProductRing(RingSpec):
    """Finite direct product; values are per-factor tuples."""

    def __init__(self, factors: list[RingSpec]):
        if len(factors) < 2:
            raise RingError("product needs at least two factors")
        super().__init__(("product", tuple(f.key() for f in factors)))
        self.factors = tuple(factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)
        self.card = 1
        for f in factors:
            self.card *= f.card
        self.label = " x ".join(f.label for f in factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        out = []
        for f, x in zip(self.factors, a):
            i = f.inv(x)
            if i is None:
                return None
            out.append(i)
        return tuple(out)

    def from_int(self, k: int):
        return tuple(f.from_int(k) for f in self.factors)

    @functools.lru_cache(maxsize=RING_MEMO_SIZE)
    def elements(self):
        return tuple(itertools.product(*[f.elements() for f in self.factors]))

    def element_at(self, index: int):
        """The index in mixed radix, the last factor's digit lowest."""
        out = []
        for f in reversed(self.factors):
            index, digit = divmod(index, f.card)
            out.append(f.element_at(digit))
        return tuple(reversed(out))

    def additive_generators(self) -> tuple:
        return tuple(
            self.inject(i, g)
            for i, f in enumerate(self.factors) for g in f.additive_generators()
        )

    def inject(self, index: int, value):
        """Element (0, ..., value, ..., 0) supported on one factor."""
        out = [f.zero for f in self.factors]
        out[index] = value
        return tuple(out)

    def element_to_json(self, v):
        return [f.element_to_json(x) for f, x in zip(self.factors, v)]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.factors):
            raise RingError(f"expected {len(self.factors)}-tuple, got {obj!r}")
        return tuple(
            f.element_from_json(x) for f, x in zip(self.factors, obj)
        )


def sorted_values(spec: RingSpec, values) -> list:
    """Deterministic ordering of raw values, by position in spec.elements()."""
    index = {v: i for i, v in enumerate(spec.elements())}
    return sorted(values, key=lambda v: index[v])


# ---------------------------------------------------------------------------
# Polynomials over a field spec (coefficient lists, low degree first)


def poly_trim(base: RingSpec, f: list) -> list:
    while f and f[-1] == base.zero:
        f.pop()
    return f


def poly_str(base: RingSpec, coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == base.zero:
            continue
        if i == 0:
            terms.append(base.format_element(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            if c == base.one:
                terms.append(xs)
            else:
                terms.append(f"{base.format_element(c)}{xs}")
    return "+".join(terms) if terms else "0"


def poly_mul(base: RingSpec, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [base.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == base.zero:
            continue
        for j, y in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    return poly_trim(base, out)


def poly_divmod(base: RingSpec, f: list, g: list) -> tuple[list, list]:
    """Division with remainder; leading coefficient of g must be a unit."""
    f = poly_trim(base, list(f))
    g = poly_trim(base, list(g))
    if not g:
        raise RingError("division by zero polynomial")
    lead_inv = base.inv(g[-1])
    if lead_inv is None:
        raise RingError("leading coefficient is not a unit")
    q = [base.zero] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g) and r:
        c = base.mul(r[-1], lead_inv)
        k = len(r) - len(g)
        q[k] = c
        for i, gc in enumerate(g):
            r[k + i] = base.sub(r[k + i], base.mul(c, gc))
        r = poly_trim(base, r)
    return poly_trim(base, q), r


def poly_xgcd(base: RingSpec, f: list, g: list):
    """Extended gcd over a field base: (d, u, v) with u*f + v*g = d."""
    r0, r1 = poly_trim(base, list(f)), poly_trim(base, list(g))
    s0, s1 = [base.one], []
    t0, t1 = [], [base.one]
    while r1:
        q, r = poly_divmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(base, s0, poly_mul(base, q, s1))
        t0, t1 = t1, poly_sub(base, t0, poly_mul(base, q, t1))
    return r0, s0, t0


def poly_sub(base: RingSpec, f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else base.zero
        b = g[i] if i < len(g) else base.zero
        out.append(base.sub(a, b))
    return poly_trim(base, out)


def monic_polys(base: RingSpec, degree: int):
    """All monic polynomials of the given degree over a finite base."""
    for tail in itertools.product(base.elements(), repeat=degree):
        yield list(tail) + [base.one]


def _least_factor(base: RingSpec, f: list):
    """The first monic divisor of trimmed f of degree 1 to deg(f)/2, by
    increasing degree in `monic_polys` order, or None.  Being of least degree,
    it is irreducible."""
    for k in range(1, (len(f) - 1) // 2 + 1):
        for g in monic_polys(base, k):
            if not poly_divmod(base, f, g)[1]:
                return g
    return None


def poly_is_irreducible(base: RingSpec, f: list) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    if not base.is_field:
        return False
    f = poly_trim(base, list(f))
    return len(f) > 1 and _least_factor(base, f) is None


def poly_factor(base: RingSpec, f: list) -> list[tuple[tuple, int]]:
    """Factor monic f over a finite field base into (irreducible, multiplicity),
    dividing out least factors; the last factor is what remains."""
    work = poly_trim(base, list(f))
    factors: dict[tuple, int] = {}
    while len(work) > 1:
        g = _least_factor(base, work) or work
        factors[tuple(g)] = factors.get(tuple(g), 0) + 1
        work = poly_divmod(base, work, g)[0]
    return sorted(factors.items())


# ---------------------------------------------------------------------------
# Parsing


def field_spec(q: int) -> RingSpec:
    """GF(q) with an auto-selected irreducible modulus when q is not prime."""
    if q < 2:
        raise RingError(f"GF({q}): order must be at least 2")
    fact = factorize(q)
    if len(fact) != 1:
        raise RingError(f"GF({q}): order is not a prime power")
    p, k = fact[0]
    if k == 1:
        return ZmodRing(p, label=f"GF({p})")
    base = ZmodRing(p, label=f"GF({p})")
    for f in monic_polys(base, k):
        if poly_is_irreducible(base, f):
            return PolyQuotientRing(base, tuple(f), label=f"GF({q})")
    raise RingError(f"GF({q}): no irreducible polynomial found")


class _PolyParser:
    """Parses polynomial expressions like x^3+x+1, 2x^2, x^2(x+1) into trimmed
    coefficient lists over the base ring."""

    def __init__(self, text: str, base: RingSpec):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.base = base

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> list:
        f = self.expr()
        if self.pos != len(self.text):
            raise RingError(f"trailing input in polynomial: {self.text[self.pos:]!r}")
        return f

    def expr(self) -> list:
        base, total, sign = self.base, [], "+"
        while True:
            if self.peek() and self.peek() in "+-":
                sign = self.peek()
                self.pos += 1
            t = self.term()
            # total + t is total - (0 - t)
            total = poly_sub(base, total, t if sign == "-" else poly_sub(base, [], t))
            if not (self.peek() and self.peek() in "+-"):
                return total

    def term(self) -> list:
        out = self.factor()
        while self.peek() and (self.peek().isdigit() or self.peek() in "x("):
            out = poly_mul(self.base, out, self.factor())
        return out

    def factor(self) -> list:
        c = self.peek()
        if c == "(":
            self.pos += 1
            f = self.expr()
            if self.peek() != ")":
                raise RingError("unbalanced parenthesis in polynomial")
            self.pos += 1
            return self._maybe_pow(f)
        if c == "x":
            self.pos += 1
            return self._maybe_pow([self.base.zero, self.base.one])
        if c.isdigit():
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            return [self.base.from_int(int(self.text[start : self.pos]))]
        raise RingError(f"unexpected character {c!r} in polynomial")

    def _maybe_pow(self, f: list) -> list:
        if self.peek() != "^":
            return f
        self.pos += 1
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise RingError("missing exponent")
        out = [self.base.one]
        for _ in range(int(self.text[start : self.pos])):
            out = poly_mul(self.base, out, f)
        return out


def _split_product(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if (
            depth == 0
            and c == "x"
            and i > 0
            and text[i - 1] == " "
            and i + 1 < len(text)
            and text[i + 1] == " "
        ):
            parts.append("".join(cur).strip())
            cur = []
            i += 2
            continue
        cur.append(c)
        i += 1
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring description: Z/<n> | GF(<q>) | GF(<p>)[x]/(<monic poly>) | products with ' x '."""
    text = text.strip()
    parts = _split_product(text)
    if len(parts) > 1:
        return ProductRing([parse_ring_spec(p) for p in parts])
    atom = parts[0]
    if atom.startswith("Z/"):
        body = atom[2:]
        if not body.isdigit():
            raise RingError(f"bad modulus in {atom!r}")
        n = int(body)
        if n < 2:
            raise RingError(f"Z/{n}: modulus must be at least 2")
        return ZmodRing(n)
    if atom.startswith("GF(") and ")" in atom:
        close = atom.index(")")
        q_text = atom[3:close]
        if not q_text.isdigit():
            raise RingError(f"bad field order in {atom!r}")
        rest = atom[close + 1 :].strip()
        if not rest:
            return field_spec(int(q_text))
        # GF(p)[x]/(f): polynomial quotient over the prime field
        p = int(q_text)
        if not is_prime(p):
            raise RingError(f"GF({p})[x]/(...): base order must be prime")
        if not (rest.startswith("[x]/(") and rest.endswith(")")):
            raise RingError(f"bad polynomial quotient syntax in {atom!r}")
        base = ZmodRing(p, label=f"GF({p})")
        f = _PolyParser(rest[len("[x]/(") : -1], base).parse()
        return PolyQuotientRing(base, tuple(f))
    raise RingError(f"unrecognized ring spec {atom!r}")


# ---------------------------------------------------------------------------
# Ideals


class IdealHandle:
    """A principal ideal (g) = Ann(h): g is the gcd of the modulus and the
    generators (factor by factor in a product) and h is the modulus over g, so
    v is a member iff v*h = 0."""

    def __init__(self, spec: RingSpec, generators):
        self.spec = spec
        self.generators = tuple(generators)
        self.generator, self.cofactor = _principal(spec, self.generators)

    @property
    def size(self) -> int:
        return self.spec.card // self.quotient()[0].card

    def contains(self, v) -> bool:
        return self.spec.mul(v, self.cofactor) == self.spec.zero

    def elements_list(self) -> list:
        return [v for v in self.spec.elements() if self.contains(v)]

    def element_set(self) -> frozenset:
        return frozenset(self.elements_list())

    def is_zero(self) -> bool:
        return self.generator == self.spec.zero

    def is_unit_ideal(self) -> bool:
        return self.generator == self.spec.one

    def short_label(self) -> str:
        gens = ",".join(self.spec.format_element(g) for g in self.generators)
        return f"({gens})"

    def quotient(self):
        """Quotient ring with projection and a canonical lift (section).

        Returns (spec, project, lift) where project is a surjective ring
        homomorphism and project(lift(v)) == v.  The quotient is Z/d, with d
        the gcd of n and the generators; GF(p)[x]/(g), with g the monic gcd
        of f and the generators; or the product of the factors' quotients.
        """
        return _quotient(self.spec, self.generator)

    def __eq__(self, other):
        return (
            isinstance(other, IdealHandle)
            and self.spec == other.spec
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.spec, self.generator))

    def __repr__(self):
        return f"<ideal {self.short_label()} of {self.spec.label}, {self.size} elements>"


def _same(v):
    return v


def _principal(spec: RingSpec, gens) -> tuple:
    """The canonical generator g of the ideal and its cofactor h: (g) = Ann(h)."""
    if isinstance(spec, ZmodRing):
        d = math.gcd(spec.n, *gens)
        return d % spec.n, spec.n // d % spec.n
    if isinstance(spec, ProductRing):
        parts = [
            _principal(f, [g[i] for g in gens]) for i, f in enumerate(spec.factors)
        ]
        return tuple(g for g, _ in parts), tuple(h for _, h in parts)
    base = _field_base(spec)
    g = list(spec.modulus)
    for a in gens:
        g = poly_xgcd(base, g, list(a))[0]
    if len(g) == len(spec.modulus):
        return spec.zero, spec.one
    c = base.inv(g[-1])
    g = [base.mul(c, x) for x in g]
    # h = f/g has degree deg f only when g = 1, and then h = f = 0 in the ring
    h = poly_divmod(base, spec.modulus, g)[0] if len(g) > 1 else []
    return spec.pad(g), spec.pad(h)


def _quotient(spec: RingSpec, g):
    """Quotient by the ideal with canonical generator g."""
    if isinstance(spec, ZmodRing):
        d = math.gcd(spec.n, g)
        if d == spec.n:
            return spec, _same, _same
        return ZmodRing(d), (lambda v: v % d), _same
    if isinstance(spec, ProductRing):
        parts = [_quotient(f, x) for f, x in zip(spec.factors, g)]
        if all(q is f for (q, _, _), f in zip(parts, spec.factors)):
            return spec, _same, _same
        return (
            ProductRing([q for q, _, _ in parts]),
            lambda v: tuple(proj(x) for (_, proj, _), x in zip(parts, v)),
            lambda v: tuple(lift(x) for (_, _, lift), x in zip(parts, v)),
        )
    if g == spec.zero:
        return spec, _same, _same
    base = spec.base
    g = poly_trim(base, list(g))
    if len(g) == 1:
        return ZmodRing(1), (lambda v: 0), (lambda v: spec.zero)
    q = PolyQuotientRing(base, tuple(g))
    return q, (lambda v: q.pad(poly_divmod(base, v, q.modulus)[1])), spec.pad


def ideal_from_generators(spec: RingSpec, generators) -> IdealHandle:
    """Smallest ideal containing the generators: a gcd, no enumeration."""
    return IdealHandle(spec, generators)


def _field_base(spec: RingSpec) -> RingSpec:
    """The base field of GF(p)[x]/(f); no other ring kind gets here."""
    if isinstance(spec, PolyQuotientRing) and spec.base.is_field:
        return spec.base
    raise RingError(f"{spec.label}: not Z/n, GF(p)[x]/(f) or a product of these")


def _primaries(spec: RingSpec) -> list[tuple]:
    """(prime, primary) generators of each local factor of Z/n or GF(p)[x]/(f),
    reduced into the ring: (p, p^k) for each p^k exactly dividing n, (g, g^e)
    for each g^e exactly dividing f."""
    if isinstance(spec, ZmodRing):
        return [(p % spec.n, p**k % spec.n) for p, k in factorize(spec.n)]
    out = []
    for g, e in poly_factor(_field_base(spec), list(spec.modulus)):
        prime = spec.pad(g) if len(g) <= spec.degree else spec.zero  # g = f: a field
        out.append((prime, functools.reduce(spec.mul, [prime] * e)))
    return out


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def is_local(spec: RingSpec) -> tuple[bool, IdealHandle | None]:
    """(True, maximal ideal) when local, else (False, None): Z/n is local iff
    n is a prime power p^k, with maximal ideal (p); GF(p)[x]/(f) iff f = g^e
    with g irreducible, with maximal ideal (g); a product never is."""
    primaries = [] if isinstance(spec, ProductRing) else _primaries(spec)
    if len(primaries) != 1:
        return False, None
    return True, ideal_from_generators(spec, [primaries[0][0]])


def residue_field(spec: RingSpec):
    """(field, project, lift) for a local ring's quotient by its maximal ideal."""
    flag, mx = is_local(spec)
    if not flag:
        raise RingError(f"{spec.label} is not local")
    return mx.quotient()


# ---------------------------------------------------------------------------
# Artinian decomposition


class ArtinianDecomposition:
    """R ~ product of local rings, with explicit coordinate maps both ways,
    for elements (`to_components`/`from_components`) and matrices
    (`split`/`join`)."""

    def __init__(self, source: RingSpec, factors, to_components, from_components):
        self.source = source
        self.factors = tuple(factors)
        self._to = to_components
        self._from = from_components

    def to_components(self, v) -> tuple:
        return self._to(v)

    def from_components(self, comps) -> object:
        return self._from(tuple(comps))

    def split(self, mat) -> list:
        """The matrix over each local factor, in factor order."""
        return list(zip(*(zip(*map(self._to, row)) for row in mat)))

    def join(self, mats):
        """The matrix over the source whose image over factor k is mats[k]."""
        return tuple(tuple(map(self._from, zip(*rows))) for rows in zip(*mats))

    def __repr__(self):
        names = ", ".join(f.label for f in self.factors)
        return f"<{self.source.label} ~ {names}>"


@functools.lru_cache(maxsize=RING_MEMO_SIZE)
def artinian_decompose(spec: RingSpec) -> ArtinianDecomposition:
    """Split a finite ring into local factors with invertible coordinate maps.

    A non-local Z/n or GF(p)[x]/(f) splits by the Chinese remainder theorem
    over its primary generators q (p^k for the prime powers in n, g^e for the
    irreducible powers in f): the factor is R/(q), and the idempotent of the
    factor is r * lift(inv(proj(r))) with r the cofactor of q.  A product's
    factors are its factors' local factors, in order.
    """
    if isinstance(spec, ProductRing):
        subs = [artinian_decompose(f) for f in spec.factors]
        ends = list(itertools.accumulate((len(s.factors) for s in subs), initial=0))
        return ArtinianDecomposition(
            spec,
            [g for s in subs for g in s.factors],
            lambda v: tuple(c for s, x in zip(subs, v) for c in s.to_components(x)),
            lambda comps: tuple(
                s.from_components(comps[i:j]) for s, i, j in zip(subs, ends, ends[1:])
            ),
        )
    primaries = _primaries(spec)
    if len(primaries) == 1:
        return ArtinianDecomposition(
            spec, [spec], lambda v: (v,), lambda comps: comps[0]
        )
    parts = []
    for _, q in primaries:
        ring, proj, lift = _quotient(spec, q)
        rest = _principal(spec, [q])[1]
        parts.append((ring, proj, lift, spec.mul(rest, lift(ring.inv(proj(rest))))))

    def to_components(v):
        return tuple(proj(v) for _, proj, _, _ in parts)

    def from_components(comps):
        terms = (spec.mul(lift(c), e) for c, (_, _, lift, e) in zip(comps, parts))
        return functools.reduce(spec.add, terms, spec.zero)

    return ArtinianDecomposition(
        spec, [ring for ring, _, _, _ in parts], to_components, from_components
    )
