import ast
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlab import rings
from chevlab.linalg import mat_mul
from chevlab.rings import (
    PolyQuotientRing,
    ProductRing,
    RingError,
    ZmodRing,
    artinian_decompose,
    factorize,
    ideal_from_generators,
    is_local,
    is_prime,
    monic_polys,
    parse_ring_spec,
    poly_divmod,
    poly_factor,
    poly_is_irreducible,
    residue_field,
)
import factor_oracle
import poly_oracle


def poly_divide_oracle(p, num, den):
    """Independent long-division oracle over GF(p): returns num mod den."""
    num = list(num)
    while len(num) >= len(den) and any(num):
        while num and num[-1] % p == 0:
            num.pop()
        if len(num) < len(den):
            break
        lead = num[-1]
        inv = next(i for i in range(1, p) if (i * den[-1]) % p == lead % p)
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - inv * c) % p
        while num and num[-1] % p == 0:
            num.pop()
    return tuple(c % p for c in num)


def test_parse_zmod():
    r = parse_ring_spec("Z/12")
    assert r.card == 12
    with pytest.raises(RingError):
        parse_ring_spec("Z/1")


def test_parse_gf8_irreducibility_oracle():
    # oracle: x^3+x+1 has no monic divisor of degree 1 over GF(2)
    f = (1, 1, 0, 1)
    for a in range(2):
        rem = poly_divide_oracle(2, f, (a, 1))
        assert rem != ()
    r = parse_ring_spec("GF(2)[x]/(x^3+x+1)")
    assert r.card == 8 and r.is_field


def test_parse_product():
    r = parse_ring_spec("Z/4 x GF(9)")
    assert isinstance(r, ProductRing)
    assert r.card == 36
    assert r.factors[0].card == 4 and r.factors[1].card == 9


def test_gf9_auto_modulus_is_irreducible():
    r = parse_ring_spec("GF(9)")
    assert isinstance(r, PolyQuotientRing)
    assert r.is_field and r.card == 9


def test_zmod_inverse():
    r = ZmodRing(12)
    assert r.inv(5) == 5  # 5*5 = 25 = 1 mod 12
    assert r.inv(4) is None


def test_gf8_multiplication_against_division_oracle():
    r = parse_ring_spec("GF(2)[x]/(x^3+x+1)")
    x = (0, 1, 0)
    x2 = (0, 0, 1)
    prod = r.mul(x, x2)
    # oracle: x^3 mod (x^3+x+1) via long division
    expected = poly_divide_oracle(2, (0, 0, 0, 1), (1, 1, 0, 1))
    expected = tuple(list(expected) + [0] * (3 - len(expected)))
    assert prod == expected == (1, 1, 0)


def test_ring_axioms_exhaustive_small():
    for spec_text in ["Z/6", "GF(4)", "Z/2 x Z/3"]:
        r = parse_ring_spec(spec_text)
        els = r.elements()
        for a in els:
            assert r.add(a, r.zero) == a
            assert r.mul(a, r.one) == a
            assert r.add(a, r.neg(a)) == r.zero
            for b in els:
                assert r.add(a, b) == r.add(b, a)
                assert r.mul(a, b) == r.mul(b, a)
                for c in els:
                    assert r.mul(a, r.add(b, c)) == r.add(
                        r.mul(a, b), r.mul(a, c)
                    )


def test_inverse_iff_unit_ideal():
    for spec_text in ["Z/12", "GF(4)", "Z/4 x GF(3)"]:
        r = parse_ring_spec(spec_text)
        for a in r.elements():
            ideal = ideal_from_generators(r, [a])
            assert (r.inv(a) is not None) == ideal.is_unit_ideal()


def test_is_local():
    flag, mx = is_local(ZmodRing(8))
    assert flag and mx.element_set() == frozenset({0, 2, 4, 6})
    assert is_local(ZmodRing(12)) == (False, None)
    flag, mx = is_local(parse_ring_spec("GF(2)[x]/(x^3+x+1)"))
    assert flag and mx.is_zero()
    assert not is_local(parse_ring_spec("Z/2 x Z/3"))[0]


def test_artinian_z360():
    r = ZmodRing(360)
    dec = artinian_decompose(r)
    assert [f.label for f in dec.factors] == ["Z/8", "Z/9", "Z/5"]
    for v in r.elements():
        comps = dec.to_components(v)
        assert dec.from_components(comps) == v
    # homomorphism spot check on all pairs of a subsample
    sample = r.elements()[::7]
    for a in sample:
        for b in sample:
            ca, cb = dec.to_components(a), dec.to_components(b)
            prod = tuple(
                f.mul(x, y) for f, x, y in zip(dec.factors, ca, cb)
            )
            assert dec.from_components(prod) == r.mul(a, b)


def test_artinian_local_identity():
    r = ZmodRing(8)
    dec = artinian_decompose(r)
    assert len(dec.factors) == 1 and dec.factors[0] == r


def test_artinian_polyquot_idempotent_oracle():
    # GF(2)[x]/(x^2(x+1)) has 8 elements; oracle: enumerate idempotents
    r = parse_ring_spec("GF(2)[x]/(x^2(x+1))")
    assert r.card == 8
    idems = [v for v in r.elements() if r.mul(v, v) == v]
    assert len(idems) == 4  # two factors -> 2^2 idempotents
    dec = artinian_decompose(r)
    assert sorted(f.card for f in dec.factors) == [2, 4]
    labels = sorted(f.degree for f in dec.factors)
    assert labels == [1, 2]  # GF(2) (as degree-1 quotient) and GF(2)[x]/(x^2)
    for v in r.elements():
        assert dec.from_components(dec.to_components(v)) == v
    for f in dec.factors:
        assert is_local(f)[0]


def test_artinian_product_ring():
    r = parse_ring_spec("Z/6 x Z/4")
    dec = artinian_decompose(r)
    assert sorted(f.card for f in dec.factors) == [2, 3, 4]
    for v in r.elements():
        assert dec.from_components(dec.to_components(v)) == v


def test_artinian_factor_count_equals_maximal_ideals():
    # for Z/n the number of local factors is the number of prime divisors
    for n, expected in [(360, 3), (12, 2), (8, 1), (30, 3)]:
        dec = artinian_decompose(ZmodRing(n))
        assert len(dec.factors) == expected
        assert all(is_local(f)[0] for f in dec.factors)


def test_ideal_from_generators_z12():
    r = ZmodRing(12)
    ideal = ideal_from_generators(r, [8])
    assert ideal.element_set() == frozenset({0, 4, 8})
    assert ideal.contains(4) and not ideal.contains(2)


def test_ideal_contains_z9():
    r = ZmodRing(9)
    ideal = ideal_from_generators(r, [3])
    assert ideal.contains(6)


def test_quotient_z12_by_4():
    r = ZmodRing(12)
    ideal = ideal_from_generators(r, [4])
    q, proj, lift = ideal.quotient()
    assert q.card == 4
    for v in r.elements():
        assert proj(v) == v % 4
    # surjective homomorphism on all pairs
    for a in r.elements():
        for b in r.elements():
            assert proj(r.add(a, b)) == q.add(proj(a), proj(b))
            assert proj(r.mul(a, b)) == q.mul(proj(a), proj(b))
    for v in q.elements():
        assert proj(lift(v)) == v


def test_generic_quotient():
    r = parse_ring_spec("GF(2)[x]/(x^2(x+1))")
    flagless = [v for v in r.elements() if not r.is_unit(v)]
    # quotient by the nilradical-ish ideal generated by x(x+1)
    gen = (0, 1, 1)  # x + x^2
    ideal = ideal_from_generators(r, [gen])
    q, proj, lift = ideal.quotient()
    assert isinstance(q, PolyQuotientRing) and q.modulus == (0, 1, 1)
    assert q.card == r.card // ideal.size
    for a in r.elements():
        for b in r.elements():
            assert proj(r.mul(a, b)) == q.mul(proj(a), proj(b))
    assert len(flagless) > 0


def test_residue_field_of_z9():
    k, proj, lift = residue_field(ZmodRing(9))
    assert k.card == 3
    assert proj(7) == 1
    assert proj(lift(2)) == 2


def test_element_serialization_roundtrip():
    for text in ["Z/12", "GF(4)", "Z/4 x GF(9)"]:
        r = parse_ring_spec(text)
        for v in r.elements():
            s = r.format_element(v)
            assert r.element_from_json(json.loads(s)) == v


@pytest.mark.parametrize(
    "text, obj",
    [
        ("Z/4", True),
        ("Z/4", False),
        ("GF(2)[x]/(x^3)", [True]),
        ("Z/4 x GF(3)", [True, 0]),
        ("Z/4 x GF(3)", [0, False]),
    ],
)
def test_json_booleans_are_not_elements(text, obj):
    with pytest.raises(RingError):
        parse_ring_spec(text).element_from_json(obj)


def test_product_inject():
    r = parse_ring_spec("Z/2 x Z/3")
    assert r.inject(0, 1) == (1, 0)
    assert r.inject(1, 2) == (0, 2)


def test_spec_equality_structural():
    assert parse_ring_spec("GF(3)") == ZmodRing(3)
    assert parse_ring_spec("GF(4)") == parse_ring_spec("GF(2)[x]/(x^2+x+1)")
    assert parse_ring_spec("Z/4") != parse_ring_spec("Z/8")


def test_mul_cache_only_on_small_quotient_rings():
    gf2 = ZmodRing(2)
    small = PolyQuotientRing(gf2, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # GF(256)
    big = PolyQuotientRing(gf2, (1, 0, 0, 1) + (0,) * 8 + (1,))  # GF(4096)
    assert small.card == 256 and big.card == 4096
    x = (0, 1) + (0,) * 10
    x11 = (0,) * 11 + (1,)
    assert big.mul(x, x11) == (1, 0, 0, 1) + (0,) * 8  # x^12 = 1 + x^3
    assert big.add(x, x11) == (0, 1) + (0,) * 9 + (1,)
    assert big._mul_cache is None and big._add_cache is None
    y = (0, 1) + (0,) * 6
    assert small.mul(y, y) == small.mul(y, y) == (0, 0, 1) + (0,) * 5
    assert len(small._mul_cache) == 1
    one = small.one
    assert small.add(y, one) == small.add(y, one) == (1, 1) + (0,) * 6
    assert small.add(y, y) == small.zero
    assert len(small._add_cache) == 2


def test_zmod_elements_do_not_materialize():
    ring = ZmodRing(2**61)
    values = ring.elements()
    assert isinstance(values, range) and len(values) == 2**61
    assert values[-1] == 2**61 - 1


def test_is_prime_agrees_with_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, n, p))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7 and 2, ..., 23 respectively
    assert not is_prime(n)
    (p, _), *_ = factorize(n)
    assert 1 < p < n and n % p == 0


def test_factorize_stops_at_a_prime_cofactor():
    p = 2**61 - 1
    assert factorize(p) == [(p, 1)]
    assert factorize(12 * p) == [(2, 2), (3, 1), (p, 1)]


def test_factorize_agrees_with_trial_division():
    """Trial division up to 41, then Pollard's rho: the oracle's answers on
    -1..4,999 and on cofactors that rho has to split or find prime."""
    for n in [*range(-1, 5000), 2**61, 10**12 + 39, 3 * 4294967311, 43**2 * 47, 1009**3]:
        assert factorize(n) == factor_oracle.factorize(n), n


def test_factorize_splits_a_composite_above_the_exact_bound():
    """(2^61 - 1)(2^31 - 1) lies above 3.3e24: a Miller-Rabin witness proves
    it composite, and rho splits it, where trial division would not return."""
    assert factorize((2**61 - 1) * (2**31 - 1)) == [(2**31 - 1, 1), (2**61 - 1, 1)]


@pytest.mark.parametrize("n", [3317044064679887385962123, rings._MR_EXACT_BELOW])
def test_is_prime_refuses_an_uncertified_number(n):
    """A probable prime above the bound, and the bound itself, a composite
    that passes all 13 bases: neither is certified, so both raise."""
    with pytest.raises(RingError) as exc:
        is_prime(n)
    assert str(exc.value) == (
        f"{n} passes Miller-Rabin to the bases up to 41 but is not certified "
        f"prime: primality is exact only below 3317044064679887385961981"
    )


def test_factorize_splits_two_large_primes():
    """10000000019 * 10000000033: trial division would make 5e9 steps."""
    assert factorize(100000000520000000627) == [(10000000019, 1), (10000000033, 1)]


def test_large_prime_modulus_parses_as_a_field():
    ring = parse_ring_spec("Z/2305843009213693951")
    assert ring.n == 2**61 - 1 and ring.is_field
    flag, mx = is_local(ring)
    assert flag and mx.is_zero()


def test_zmod_ideals_are_multiples_of_the_gcd():
    ring = ZmodRing(12)
    assert ideal_from_generators(ring, [8, 6]).element_set() == {0, 2, 4, 6, 8, 10}
    assert ideal_from_generators(ring, []).element_set() == {0}
    assert ideal_from_generators(ring, [5]).is_unit_ideal()


def ideal_by_closure(r, gens) -> set:
    """Reference ideal: the additive closure of every r*g, by brute force."""
    members = {r.zero}
    for s in [r.mul(a, g) for g in gens for a in r.elements()]:
        while True:
            grown = members | {r.add(m, s) for m in members}
            if grown == members:
                break
            members = grown
    return members


IDEAL_RINGS = [
    "GF(2)[x]/(x^3)",
    "GF(2)[x]/(x^2(x+1))",
    "GF(3)[x]/(x^2)",
    "GF(3)[x]/(x^2+1)",
    "GF(2)[x]/(x^4+x)",
    "Z/4 x GF(3)",
    "Z/6 x GF(2)[x]/(x^2)",
    "GF(2)[x]/(x^2+x) x Z/3",
]


@settings(max_examples=80, deadline=None)
@given(
    text=st.one_of(
        st.sampled_from(IDEAL_RINGS),
        st.integers(2, 36).map(lambda n: f"Z/{n}"),
    ),
    data=st.data(),
)
def test_principal_ideal_matches_the_additive_closure(text, data):
    r = parse_ring_spec(text)
    els = r.elements()
    gens = data.draw(st.lists(st.sampled_from(els), max_size=3))
    ideal = ideal_from_generators(r, gens)
    ref = ideal_by_closure(r, gens)
    assert [v for v in els if ideal.contains(v)] == [v for v in els if v in ref]
    assert ideal.size == len(ref)
    assert ideal.elements_list() == [v for v in els if v in ref]
    assert ideal.is_zero() == (ref == {r.zero})
    assert ideal.is_unit_ideal() == (len(ref) == r.card)
    assert ideal.cofactor in els and r.mul(ideal.generator, ideal.cofactor) == r.zero
    # the canonical generator is the first element that generates the ideal
    first = next(v for v in els if ideal_by_closure(r, [v]) == ref)
    assert ideal.generator == first
    assert ideal == ideal_from_generators(r, [first])


@pytest.mark.parametrize("text", ["Z/2305843009213693952", "GF(2)[x]/(x^64)"])
def test_is_local_on_a_large_ring_is_immediate(text):
    r = parse_ring_spec(text)
    start = time.perf_counter()
    flag, mx = is_local.__wrapped__(r)  # skip the memo: time a cold call
    assert time.perf_counter() - start < 0.05
    assert flag and mx.quotient()[0].card == 2 and not mx.is_zero()


def test_ideals_of_large_quotients_are_not_enumerated():
    x = (0, 1) + (0,) * 9
    start = time.perf_counter()
    ideal = ideal_from_generators(parse_ring_spec("GF(2)[x]/(x^11)"), [x])
    assert time.perf_counter() - start < 0.05
    assert ideal.size == 2**10 and ideal.contains((0, 0, 1) + (0,) * 8)
    big = parse_ring_spec("GF(2)[x]/(x^64)")
    assert ideal_from_generators(big, [big.pad([0, 1])]).size == 2**63


QUOTIENT_RINGS = [
    "GF(2)[x]/(x^2(x+1))",
    "GF(3)[x]/(x^3)",
    "GF(2)[x]/((x+1)^2(x^2+x+1))",
    "GF(2)[x]/(x^3+x+1)",
    "GF(3)[x]/(x^2+1)",
    "Z/4 x GF(2)[x]/(x^2)",
    "GF(2)[x]/(x^2) x Z/6",
]


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(QUOTIENT_RINGS), data=st.data())
def test_quotient_is_a_ring_of_the_three_kinds(text, data):
    r = parse_ring_spec(text)
    els = r.elements()
    gens = data.draw(st.lists(st.sampled_from(els), max_size=2))
    ideal = ideal_from_generators(r, gens)
    q, proj, lift = ideal.quotient()
    assert isinstance(q, (ZmodRing, PolyQuotientRing, ProductRing))
    assert q.card == r.card // ideal.size
    assert {v for v in els if proj(v) == q.zero} == ideal.element_set()
    assert all(proj(lift(v)) == v for v in q.elements())
    assert proj(r.one) == q.one
    for a in els:
        for b in els:
            assert proj(r.add(a, b)) == q.add(proj(a), proj(b))
            assert proj(r.mul(a, b)) == q.mul(proj(a), proj(b))


def test_quotient_kinds():
    r = parse_ring_spec("GF(2)[x]/(x^2(x+1))")
    assert ideal_from_generators(r, []).quotient()[0] is r
    assert ideal_from_generators(r, [(1, 0, 0)]).quotient()[0] == ZmodRing(1)
    q, proj, lift = ideal_from_generators(r, [(0, 0, 1)]).quotient()
    assert q == PolyQuotientRing(ZmodRing(2), (0, 0, 1))  # (x^2)
    assert proj((1, 1, 1)) == (1, 1) and lift((1, 1)) == (1, 1, 0)
    p = parse_ring_spec("Z/4 x GF(3)")
    q, proj, _ = ideal_from_generators(p, [(2, 0)]).quotient()
    assert q.factors == (ZmodRing(2), p.factors[1]) and proj((3, 2)) == (1, 2)


def test_residue_fields_are_exact_fields():
    for text, card in [("Z/9", 3), ("GF(3)[x]/(x^2)", 3), ("GF(2)[x]/((x^2+x+1)^2)", 4), ("GF(4)", 4)]:
        k, _, _ = residue_field(parse_ring_spec(text))
        assert k.is_field and k.card == card
        assert isinstance(k, (ZmodRing, PolyQuotientRing))


@pytest.mark.parametrize("text", ["GF(2)[x]/(x^2(x+1))", "GF(3)[x]/(x^3)"])
def test_xgcd_inverse_matches_search(text):
    r = parse_ring_spec(text)
    for a in r.elements():
        found = [b for b in r.elements() if r.mul(a, b) == r.one]
        assert r.inv(a) == (found[0] if found else None)


def test_inverse_on_a_large_quotient_is_immediate():
    r = parse_ring_spec("GF(2)[x]/(x^12)")
    a = (1, 1) + (0,) * 10
    start = time.perf_counter()
    b = r.inv(a)
    assert time.perf_counter() - start < 0.1
    assert r.mul(a, b) == r.one
    assert r.inv((0, 1) + (0,) * 10) is None


def test_non_field_base_is_not_supported():
    r = PolyQuotientRing(ZmodRing(4), (1, 0, 1))  # (Z/4)[x]/(x^2+1)
    assert r.mul((0, 1), (0, 1)) == (3, 0)
    with pytest.raises(RingError):
        r.inv((1, 1))
    with pytest.raises(RingError):
        is_local(r)
    with pytest.raises(RingError):
        artinian_decompose(r)


@st.composite
def crt_rings(draw, max_n=500):
    """Z/n with n <= max_n, or GF(p)[x]/(f) with p in {2, 3, 5} and a monic f of degree <= 4."""
    if draw(st.booleans()):
        return ZmodRing(draw(st.integers(2, max_n)))
    p = draw(st.sampled_from([2, 3, 5]))
    degree = draw(st.integers(1, 4))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return PolyQuotientRing(ZmodRing(p, label=f"GF({p})"), tuple(tail) + (1,))


@settings(max_examples=60, deadline=None)
@given(r=crt_rings(), data=st.data())
def test_crt_is_a_ring_isomorphism_onto_local_factors(r, data):
    dec = artinian_decompose(r)
    assert all(is_local(f)[0] for f in dec.factors)
    card = 1
    for f in dec.factors:
        card *= f.card
    assert card == r.card
    els = r.elements()
    for v in els:
        assert dec.from_components(dec.to_components(v)) == v
    for _ in range(40):
        a, b = data.draw(st.sampled_from(els)), data.draw(st.sampled_from(els))
        ca, cb = dec.to_components(a), dec.to_components(b)
        assert dec.to_components(r.add(a, b)) == tuple(
            f.add(x, y) for f, x, y in zip(dec.factors, ca, cb)
        )
        assert dec.to_components(r.mul(a, b)) == tuple(
            f.mul(x, y) for f, x, y in zip(dec.factors, ca, cb)
        )


def additive_closure(r, gens) -> set:
    """Every sum of the gens, by a frontier search from zero."""
    members, frontier = {r.zero}, [r.zero]
    while frontier:
        fresh = {r.add(m, g) for m in frontier for g in gens} - members
        members |= fresh
        frontier = list(fresh)
    return members


@settings(max_examples=60, deadline=None)
@given(
    r=st.one_of(
        crt_rings(),
        st.tuples(crt_rings(), crt_rings())
        .filter(lambda fs: fs[0].card * fs[1].card <= 5000)
        .map(ProductRing),
    )
)
def test_additive_generators_sum_to_every_element(r):
    gens = r.additive_generators()
    assert all(g in r.elements() for g in gens)
    assert additive_closure(r, gens) == set(r.elements())


@pytest.mark.parametrize("ring", [
    parse_ring_spec("Z/12"),
    parse_ring_spec("GF(8)"),
    parse_ring_spec("Z/4 x GF(3)"),
    PolyQuotientRing(ZmodRing(4), (1, 0, 1)),
    ProductRing([parse_ring_spec("GF(4)"), PolyQuotientRing(ZmodRing(6), (0, 1)), ZmodRing(5)]),
], ids=["Z/12", "GF(8)", "Z/4 x GF(3)", "(Z/4)[x]/(x^2+1)", "three factors"])
def test_element_at_indexes_the_element_list(ring):
    """element_at(i) is elements()[i], so a draw by index repeats the draws of
    rng.choice(elements()) without listing the ring."""
    values = ring.elements()
    assert [ring.element_at(i) for i in range(ring.card)] == list(values)
    a, b = random.Random(3), random.Random(3)
    picks = [ring.element_at(b.randrange(ring.card)) for _ in range(50)]
    assert picks == [a.choice(values) for _ in range(50)]


# Z/n with n <= 400, GF(p)[x]/(f), or a product of two or three of these
split_rings = st.one_of(
    crt_rings(max_n=400),
    st.lists(crt_rings(max_n=400), min_size=2, max_size=3).map(ProductRing),
)


def ring_values(r):
    """Values of r drawn coordinate by coordinate: no ring is enumerated."""
    if isinstance(r, ProductRing):
        return st.tuples(*map(ring_values, r.factors))
    if isinstance(r, PolyQuotientRing):
        return st.tuples(*[ring_values(r.base)] * r.degree)
    return st.integers(0, r.n - 1)


def matrices(r, dim):
    row = st.tuples(*[ring_values(r)] * dim)
    return st.tuples(*[row] * dim)


@settings(max_examples=60, deadline=None)
@given(r=split_rings, dim=st.integers(1, 6), data=st.data())
def test_split_and_join_are_inverse_ring_maps_on_matrices(r, dim, data):
    dec = artinian_decompose(r)
    a, b = data.draw(matrices(r, dim)), data.draw(matrices(r, dim))
    assert dec.join(dec.split(a)) == a
    assert [len(m) for m in dec.split(a)] == [dim] * len(dec.factors)
    assert dec.split(mat_mul(r, a, b)) == [
        mat_mul(f, x, y) for f, x, y in zip(dec.factors, dec.split(a), dec.split(b))
    ]


@settings(max_examples=60, deadline=None)
@given(r=split_rings)
def test_a_ring_is_local_iff_it_has_one_local_factor(r):
    assert is_local(r)[0] == (len(artinian_decompose(r).factors) == 1)


# ---------------------------------------------------------------------------
# One polynomial toolkit: the parser and trial division against the copies
# in poly_oracle, which compute over the integers and search twice.


@st.composite
def poly_texts(draw):
    """Polynomial text of degree at most 6: signed terms, each an optional
    number and up to two factors x^e or (sum of ax + b)^e with e <= 3.  Now
    and then one character turns into '*', '(', ')' or 'y', a parenthesis
    drops out, '^' is appended, or the text is empty, so every parser error
    shows up; none of these raises the degree."""
    def power():
        return draw(st.sampled_from(["", "^0", "^1", "^2", "^3"]))

    def number():
        return str(draw(st.integers(0, 20)))

    def monomial():
        return draw(st.sampled_from(["x", number() + "x", number()]))

    def factor():
        if draw(st.booleans()):
            return "x" + power()
        inner = [monomial() for _ in range(draw(st.integers(1, 3)))]
        signs = [draw(st.sampled_from(["", "-"]))] + [
            draw(st.sampled_from(["+", "-"])) for _ in inner[1:]
        ]
        return "(" + "".join(s + m for s, m in zip(signs, inner)) + ")" + power()

    def term():
        head = number() if draw(st.booleans()) else ""
        factors = "".join(factor() for _ in range(draw(st.integers(0 if head else 1, 2))))
        return head + factors

    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    signs = [draw(st.sampled_from(["", "+", "-"]))] + [
        draw(st.sampled_from(["+", "-"])) for _ in terms[1:]
    ]
    text = "".join(s + t for s, t in zip(signs, terms))
    fault = draw(st.sampled_from(["none"] * 4 + ["swap", "drop", "caret", "empty"]))
    if fault == "swap":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from("*()y")) + text[i + 1 :]
    elif fault == "drop" and any(c in "()" for c in text):
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c in "()"]))
        text = text[:i] + text[i + 1 :]
    elif fault == "caret":
        text += "^"
    elif fault == "empty":
        text = ""
    return text


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), text=poly_texts())
def test_parser_over_gf_p_matches_the_integer_parser(p, text):
    """GF(p)[x]/(f) gives the same key, label and is_field, or the same
    error, as parsing over the integers and reducing mod p at the end."""
    try:
        r = parse_ring_spec(f"GF({p})[x]/({text})")
        got = r.key(), r.label, r.is_field
    except RingError as exc:
        got = str(exc)
    assert got == poly_oracle.quotient_summary(p, text, ZmodRing(p, label=f"GF({p})"))


@pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3)])
def test_factoring_and_irreducibility_match_the_two_search_version(p, top):
    base = ZmodRing(p, label=f"GF({p})")
    for degree in range(top + 1):
        for f in monic_polys(base, degree):
            assert poly_factor(base, f) == poly_oracle.poly_factor(base, f)
            assert poly_is_irreducible(base, f) == poly_oracle.poly_is_irreducible(base, f)


def test_irreducibility_stops_at_the_first_divisor(monkeypatch):
    """x^32+x^4+x = x(x^31+x^3+1) with the cofactor irreducible: the check
    when the quotient is built divides once, by x.  Factoring the modulus
    instead would run the whole search up to degree 15 on the cofactor."""
    calls = []

    def counted(*args):
        calls.append(args)
        return poly_divmod(*args)

    monkeypatch.setattr(rings, "poly_divmod", counted)
    r = parse_ring_spec("GF(2)[x]/(x^32+x^4+x)")
    assert not r.is_field and r.card == 2**32
    assert len(calls) == 1


def test_trial_division_is_written_once():
    """A poly_divmod call in a loop over monic_polys is trial division; one
    function in the package does it, and the others ask that one."""
    src = Path(rings.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for loop in ast.walk(fn):
                if (
                    isinstance(loop, ast.For)
                    and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "id", None) == "monic_polys"
                    and any(
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "poly_divmod"
                        for node in ast.walk(loop)
                    )
                ):
                    found.append(f"{path.name}:{fn.name}")
    assert found == ["rings.py:_least_factor"]
