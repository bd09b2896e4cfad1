"""The polynomial parser and trial division as they stood before `rings`
shared one toolkit, kept as a test oracle.

The parser computes over the integers and reduces mod p at the end;
irreducibility and factoring each run their own trial division.  The ring
code now parses over GF(p) itself and finds divisors in one helper; the
properties in `test_rings.py` hold the two to the same answers.
"""
from chevlab.rings import RingError, monic_polys, poly_divmod, poly_str, poly_trim


class PolyParser:
    """Parses polynomial expressions like x^3+x+1, 2x^2, x^2(x+1)."""

    def __init__(self, text: str, p: int):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.p = p

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> list[int]:
        f = self.expr()
        if self.pos != len(self.text):
            raise RingError(f"trailing input in polynomial: {self.text[self.pos:]!r}")
        return [c % self.p for c in f]

    def expr(self) -> list[int]:
        sign = 1
        if self.peek() and self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        total = [sign * c for c in self.term()]
        while self.peek() and self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
            t = self.term()
            n = max(len(total), len(t))
            total += [0] * (n - len(total))
            for i, c in enumerate(t):
                total[i] += sign * c
        return total

    def term(self) -> list[int]:
        out = self.factor()
        while self.peek() and (self.peek().isdigit() or self.peek() in "x("):
            g = self.factor()
            conv = [0] * (len(out) + len(g) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(g):
                    conv[i + j] += a * b
            out = conv
        return out

    def factor(self) -> list[int]:
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
            return self._maybe_pow([0, 1])
        if c.isdigit():
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            return [int(self.text[start : self.pos])]
        raise RingError(f"unexpected character {c!r} in polynomial")

    def _maybe_pow(self, f: list[int]) -> list[int]:
        if self.peek() != "^":
            return f
        self.pos += 1
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise RingError("missing exponent")
        e = int(self.text[start : self.pos])
        out = [1]
        for _ in range(e):
            conv = [0] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(f):
                    conv[i + j] += a * b
            out = conv
        return out


def quotient_summary(p: int, poly_text: str, base) -> tuple:
    """(key, label, is_field) of GF(p)[x]/(poly_text), or the error text,
    as the ring grammar gave them; `base` is GF(p)."""
    try:
        f = PolyParser(poly_text, p).parse()
    except RingError as exc:
        return str(exc)
    while f and f[-1] == 0:
        f.pop()
    if len(f) < 2:
        return "quotient polynomial must have degree >= 1"
    if f[-1] != 1:
        return "quotient polynomial must be monic"
    key = ("polyquot", ("zmod", p), tuple(f))
    return key, f"GF({p})[x]/({poly_str(base, f)})", poly_is_irreducible(base, f)


def poly_is_irreducible(base, f: list) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    if not base.is_field:
        return False
    f = poly_trim(base, list(f))
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    for k in range(1, d // 2 + 1):
        for g in monic_polys(base, k):
            _, r = poly_divmod(base, f, g)
            if not r:
                return False
    return True


def poly_factor(base, f: list) -> list[tuple[tuple, int]]:
    """Factor monic f over a finite field base into (irreducible, multiplicity)."""
    f = poly_trim(base, list(f))
    factors: dict[tuple, int] = {}
    work = list(f)
    d = 1
    while len(work) - 1 >= 1:
        if len(work) - 1 == 1 or poly_is_irreducible(base, work):
            key = tuple(work)
            factors[key] = factors.get(key, 0) + 1
            break
        found = False
        while d <= (len(work) - 1) // 2:
            for g in monic_polys(base, d):
                q, r = poly_divmod(base, work, g)
                if not r:
                    key = tuple(g)
                    factors[key] = factors.get(key, 0) + 1
                    work = q
                    found = True
                    break
            if found:
                break
            d += 1
        if not found:
            key = tuple(work)
            factors[key] = factors.get(key, 0) + 1
            break
    return sorted(factors.items())
