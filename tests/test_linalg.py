import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chevlab.groups import ElementaryWord, letters_matrix, sandwich, word_matrix
from chevlab.linalg import SingularMatrix, identity_matrix, mat_det, mat_mul
from chevlab.reps import make_representation
from chevlab.rings import PolyQuotientRing, ProductRing, ZmodRing, parse_ring_spec
from chevlab.roots import build_root_system


def int_matmul_mod(a, b, n):
    """Plain Python-int product of integer matrices, reduced mod n."""
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % n for col in bt) for row in a)


def poly_mulmod(f, g, modulus, m):
    """f * g in (Z/m)[x]/(modulus) for monic modulus, with Python ints."""
    d = len(modulus) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            conv[i + j] += x * y
    for top in range(2 * d - 2, d - 1, -1):
        c = conv[top]
        conv[top] = 0
        for i in range(d):
            conv[top - d + i] -= c * modulus[i]
    return tuple(c % m for c in conv[:d])


def poly_matmul(a, b, modulus, m):
    d = len(modulus) - 1
    out = []
    for row in a:
        orow = []
        for col in zip(*b):
            acc = [0] * d
            for x, y in zip(row, col):
                acc = [u + v for u, v in zip(acc, poly_mulmod(x, y, modulus, m))]
            orow.append(tuple(c % m for c in acc))
        out.append(tuple(orow))
    return tuple(out)


def random_matrix(rng, dim, value):
    return tuple(tuple(value() for _ in range(dim)) for _ in range(dim))


def composite_quotient(m, degree, rng):
    modulus = tuple(rng.randrange(m) for _ in range(degree)) + (1,)
    return PolyQuotientRing(ZmodRing(m), modulus)


dims = st.integers(1, 9)
seeds = st.integers(0, 2**32)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 2**42), dim=dims, seed=seeds)
@example(n=2**40 + 15, dim=6, seed=0)
@example(n=4294967311, dim=6, seed=1)
def test_mat_mul_zmod_matches_python_ints(n, dim, seed):
    rng = random.Random(seed)
    ring = ZmodRing(n)
    a = random_matrix(rng, dim, lambda: rng.randrange(n))
    b = random_matrix(rng, dim, lambda: rng.randrange(n))
    assert mat_mul(ring, a, b) == int_matmul_mod(a, b, n)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(2, 2**11), q=st.integers(2, 2**11), degree=st.integers(2, 3),
    dim=dims, seed=seeds,
)
def test_mat_mul_quotient_over_composite_base(p, q, degree, dim, seed):
    m = p * q
    rng = random.Random(seed)
    ring = composite_quotient(m, degree, rng)
    value = lambda: tuple(rng.randrange(m) for _ in range(degree))
    a = random_matrix(rng, dim, value)
    b = random_matrix(rng, dim, value)
    assert mat_mul(ring, a, b) == poly_matmul(a, b, ring.modulus, m)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 2**42), m=st.integers(4, 2**22), dim=dims, seed=seeds)
def test_mat_mul_product_ring(n, m, dim, seed):
    rng = random.Random(seed)
    quot = composite_quotient(m, 2, rng)
    ring = ProductRing([ZmodRing(n), quot])
    value = lambda: (rng.randrange(n), (rng.randrange(m), rng.randrange(m)))
    a = random_matrix(rng, dim, value)
    b = random_matrix(rng, dim, value)
    part = lambda mat, k: tuple(tuple(v[k] for v in row) for row in mat)
    first = int_matmul_mod(part(a, 0), part(b, 0), n)
    second = poly_matmul(part(a, 1), part(b, 1), quot.modulus, m)
    expected = tuple(
        tuple((x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(first, second)
    )
    assert mat_mul(ring, a, b) == expected


def test_d3_word_over_large_modulus_is_exact():
    rep = make_representation(build_root_system("D3"), "defining-D")
    ring = parse_ring_spec("Z/4294967311")
    n, dim = ring.n, rep.dim
    rng = random.Random(4294967311)
    letters = [(rng.choice(rep.rs.roots), rng.randrange(1, n)) for _ in range(12)]
    expected = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    for root, t in letters:
        elem = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for k, mk in enumerate(rep.divided_powers(root), 1):
            for i, row in enumerate(mk):
                for j, v in enumerate(row):
                    elem[i][j] += v * t**k
        expected = int_matmul_mod(expected, elem, n)
    assert ElementaryWord(rep, ring, letters).evaluate().mat == expected


def edge_matrix(dim, value):
    return tuple(tuple(value for _ in range(dim)) for _ in range(dim))


def test_zmod_guard_boundary_at_dim_6():
    # 6 * (n - 1)^2 crosses 2^63 between these moduli: sums past int64 stay exact
    for n in [1239850263, 1239850264]:
        ring = ZmodRing(n)
        a = edge_matrix(6, n - 1)
        b = tuple(tuple((n - 1 - i - j) % n for j in range(6)) for i in range(6))
        assert mat_mul(ring, a, b) == int_matmul_mod(a, b, n)


def test_quotient_guard_boundary_at_dim_6():
    # 3 * 2 * 6 * (m - 1)^3 crosses 2^63 between these moduli
    for m in [635130, 635131]:
        ring = PolyQuotientRing(ZmodRing(m), (m - 1, m - 1, 1))
        a = edge_matrix(6, (m - 1, m - 1))
        b = tuple(tuple(((m - 1 - i) % m, (m - 1 - j) % m) for j in range(6)) for i in range(6))
        assert mat_mul(ring, a, b) == poly_matmul(a, b, ring.modulus, m)


@pytest.mark.parametrize("spec", ["Z/9", "GF(4)", "Z/4 x GF(3)"])
@pytest.mark.parametrize("dim", [1, 3, 7])
def test_mat_mul_by_identity_and_zero(spec, dim):
    ring = parse_ring_spec(spec)
    rng = random.Random(dim)
    a = random_matrix(rng, dim, lambda: random_value(rng, ring))
    zero = edge_matrix(dim, ring.zero)
    assert mat_mul(ring, a, identity_matrix(ring, dim)) == a
    # every diagonal entry of zero - I is -1
    assert mat_mul(ring, a, zero) == zero


def test_mat_mul_over_the_zero_ring():
    ring = ZmodRing(1)
    zero = edge_matrix(3, 0)
    assert identity_matrix(ring, 3) == zero
    assert mat_mul(ring, zero, zero) == zero


small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 31, 257])


@st.composite
def field_base_quotients(draw):
    p = draw(small_primes)
    degree = draw(st.integers(1, 4))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return PolyQuotientRing(ZmodRing(p), tuple(tail) + (1,))


@settings(max_examples=40, deadline=None)
@given(ring=field_base_quotients(), dim=dims, seed=seeds)
def test_mat_mul_quotient_over_a_field(ring, dim, seed):
    rng = random.Random(seed)
    p, d = ring.base.n, ring.degree
    value = lambda: tuple(rng.randrange(p) for _ in range(d))
    a = random_matrix(rng, dim, value)
    b = random_matrix(rng, dim, value)
    assert mat_mul(ring, a, b) == poly_matmul(a, b, ring.modulus, p)


@settings(max_examples=20, deadline=None)
@given(quot=field_base_quotients(), n=st.integers(2, 2**20), m=st.integers(2, 2**20), dim=dims, seed=seeds)
def test_mat_mul_three_factor_product(quot, n, m, dim, seed):
    rng = random.Random(seed)
    ring = ProductRing([ZmodRing(n), quot, ZmodRing(m)])
    p, d = quot.base.n, quot.degree
    value = lambda: (rng.randrange(n), tuple(rng.randrange(p) for _ in range(d)), rng.randrange(m))
    a = random_matrix(rng, dim, value)
    b = random_matrix(rng, dim, value)
    part = lambda mat, k: tuple(tuple(v[k] for v in row) for row in mat)
    parts = (
        int_matmul_mod(part(a, 0), part(b, 0), n),
        poly_matmul(part(a, 1), part(b, 1), quot.modulus, p),
        int_matmul_mod(part(a, 2), part(b, 2), m),
    )
    expected = tuple(tuple(zip(*rows)) for rows in zip(*parts))
    assert mat_mul(ring, a, b) == expected


def leibniz_det(ring, a):
    """Sum over permutations of sign * prod a[i][perm[i]], in ring arithmetic."""
    n = len(a)
    acc = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = functools.reduce(ring.mul, (a[i][perm[i]] for i in range(n)), ring.one)
        acc = ring.sub(acc, term) if inversions % 2 else ring.add(acc, term)
    return acc


def random_value(rng, ring):
    if isinstance(ring, ZmodRing):
        return rng.randrange(ring.n)
    if isinstance(ring, PolyQuotientRing):
        return tuple(rng.randrange(ring.base.n) for _ in range(ring.degree))
    return tuple(random_value(rng, f) for f in ring.factors)


@st.composite
def det_rings(draw):
    """Z/n, GF(p)[x]/(f) (f need not be irreducible) or a product of the two."""
    zmod = ZmodRing(draw(st.integers(2, 200)))
    quot = draw(field_base_quotients())
    return draw(st.sampled_from([zmod, quot, ProductRing([zmod, quot])]))


@settings(max_examples=40, deadline=None)
@given(ring=det_rings(), dim=st.integers(2, 7), seed=seeds)
def test_determinant_check_matches_leibniz(ring, dim, seed):
    rng = random.Random(seed)
    rep = make_representation(build_root_system(f"A{dim - 1}"), "defining-A")
    a = random_matrix(rng, dim, lambda: random_value(rng, ring))
    det = leibniz_det(ring, a)
    assert rep.check_invariant(ring, a) == (det == ring.one)
    if not ring.is_unit(det):
        with pytest.raises(SingularMatrix):
            mat_det(ring, a)
        return
    assert mat_det(ring, a) == det
    # scaling the first row by det^-1 gives determinant 1
    scaled = (tuple(ring.mul(ring.inv(det), x) for x in a[0]),) + a[1:]
    assert leibniz_det(ring, scaled) == ring.one
    assert rep.check_invariant(ring, scaled)


def test_determinant_check_rejects_det_minus_one_at_dimension_6():
    ring = ZmodRing(9)
    rep = make_representation(build_root_system("A5"), "defining-A")
    swap = tuple(
        tuple(int(j == {0: 1, 1: 0}.get(i, i)) for j in range(6)) for i in range(6)
    )
    assert mat_det(ring, swap) == leibniz_det(ring, swap) == 8
    assert not rep.check_invariant(ring, swap)
    assert rep.check_invariant(ring, rep.identity(ring))


# Letters act as row operations from the left and column operations from the
# right; both must agree with the dense product by the word's matrix.
ACTION_REPS = [("A2", None), ("B2", None), ("C3", None), ("G2", "adjoint")]


def action_ring(draw):
    kind = draw(st.sampled_from(["small", "huge", "quotient"]))
    if kind == "small":
        return ZmodRing(draw(st.integers(2, 400)))
    if kind == "huge":
        return ZmodRing(2**61)
    return draw(field_base_quotients())


@st.composite
def action_rings(draw):
    """Z/n with n <= 400, Z/2^61, GF(p)[x]/(f), or a product of two of them."""
    first = action_ring(draw)
    return ProductRing([first, action_ring(draw)]) if draw(st.booleans()) else first


@settings(max_examples=60, deadline=None)
@given(
    ring=action_rings(),
    case=st.sampled_from(ACTION_REPS),
    length=st.integers(0, 6),
    seed=seeds,
)
def test_letters_act_as_row_and_column_operations(ring, case, length, seed):
    rng = random.Random(seed)
    rep = make_representation(build_root_system(case[0]), case[1])
    roots = list(rep.rs.roots)
    letters = [(rng.choice(roots), random_value(rng, ring)) for _ in range(length)]
    m = random_matrix(rng, rep.dim, lambda: random_value(rng, ring))
    word = word_matrix(rep, ring, letters)
    assert rep.apply_left(ring, letters, m) == mat_mul(ring, word, m)
    assert rep.apply_right(ring, m, letters) == mat_mul(ring, m, word)


@settings(max_examples=40, deadline=None)
@given(
    ring=action_rings(),
    case=st.sampled_from(ACTION_REPS),
    lengths=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    seed=seeds,
)
def test_sandwich_and_letters_matrix_match_dense_products(ring, case, lengths, seed):
    rng = random.Random(seed)
    rep = make_representation(build_root_system(case[0]), case[1])
    roots = list(rep.rs.roots)
    left, right = (
        [(rng.choice(roots), random_value(rng, ring)) for _ in range(n)] for n in lengths
    )
    m = random_matrix(rng, rep.dim, lambda: random_value(rng, ring))
    right_inv = ElementaryWord(rep, ring, right).inverse_word().evaluate().mat
    dense = mat_mul(ring, mat_mul(ring, word_matrix(rep, ring, left), m), right_inv)
    assert sandwich(rep, ring, left, m, right) == dense
    assert letters_matrix(rep, ring, left) == word_matrix(rep, ring, left)


@functools.cache
def dense_divided_powers(rep, root):
    """X^k / k! for k = 1, 2, ... from dense Python-int powers of X_root,
    asserting that each is integral."""
    x = rep.root_matrix(root)
    out, power, k = [], x, 1
    while any(any(row) for row in power):
        f = math.factorial(k)
        assert all(v % f == 0 for row in power for v in row)
        out.append(tuple(tuple(v // f for v in row) for row in power))
        nxt = []
        for row in power:
            acc = [0] * len(x)
            for l, v in enumerate(row):
                if v:
                    acc = [a + v * w for a, w in zip(acc, x[l])]
            nxt.append(tuple(acc))
        power, k = tuple(nxt), k + 1
    return out


def dense_elementary(ring, powers, t):
    """I + sum_k t^k X^k / k! over the ring, entry by entry."""
    n = len(powers[0])
    out = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    tk = ring.one
    for mk in powers:
        tk = ring.mul(tk, t)
        for i, row in enumerate(mk):
            for j, v in enumerate(row):
                if v:
                    out[i][j] = ring.add(out[i][j], ring.mul(ring.from_int(v), tk))
    return tuple(map(tuple, out))


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "D4", "G2", "F4"])
def test_letter_support_is_off_the_diagonal(label):
    """Each letter's terms sit off the diagonal, and e_r(t) and its entries
    agree with the exponential of the dense integer X_r over several rings."""
    rs = build_root_system(label)
    rings = [parse_ring_spec(text) for text in ("Z/9", "GF(4)", "Z/4 x GF(3)", f"Z/{2**61}")]
    rng = random.Random(label)
    for rep in dict.fromkeys(make_representation(rs, tag) for tag in ("adjoint", None)):
        for root in rs.roots:
            support = [(i, j) for i, j, _ in rep.terms(root)]
            assert support and all(i != j for i, j in support)
            for ring in rings:
                t = ring.zero
                while t == ring.zero:
                    t = ring.element_at(rng.randrange(ring.card))
                expected = dense_elementary(ring, dense_divided_powers(rep, root), t)
                assert rep.elementary_matrix(ring, root, t) == expected
                assert rep._entries(ring, root, t) == tuple(
                    (i, j, v)
                    for i, row in enumerate(expected)
                    for j, v in enumerate(row)
                    if v != (ring.one if i == j else ring.zero)
                )
