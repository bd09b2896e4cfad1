import random
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closure_oracle
from chevlab import linalg
from chevlab.chevalley import ChevalleyError
from chevlab.groups import (
    CapExceeded,
    ElementaryWord,
    GroupElement,
    GroupError,
    all_elementaries,
    commutator,
    commutator_expansion,
    congruence_reduce,
    elementary,
    elementary_generator_words,
    expansion_terms,
    identity_element,
    in_congruence_kernel,
    letters_matrix,
    random_elementary_word,
    sandwich,
    subgroup_closure,
    torus_and_weyl,
    verify_steinberg_relations,
    weyl_conjugation_check,
    weyl_letters,
    weyl_lift_word,
    word_matrix,
)
from chevlab.reps import Representation, make_representation, available_tags
from chevlab.rings import ZmodRing, ideal_from_generators, parse_ring_spec
from chevlab.roots import _neg, build_root_system


A2 = build_root_system("A2")
B2 = build_root_system("B2")
C2 = build_root_system("C2")
B3 = build_root_system("B3")
G2 = build_root_system("G2")


def test_elementary_sl3_matrix():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(5)
    g = elementary(rep, ring, (1, -1, 0), 3)
    assert g.mat == ((1, 3, 0), (0, 1, 0), (0, 0, 1))


def test_elementary_zero_is_identity():
    for rs, tag in [(A2, "defining-A"), (B2, "defining-B"), (G2, "adjoint")]:
        rep = make_representation(rs, tag)
        ring = ZmodRing(4)
        for r in rs.roots:
            assert elementary(rep, ring, r, 0).is_identity()


def test_elementary_additivity_exhaustive():
    for rs, tag in [(A2, "defining-A"), (C2, "defining-C")]:
        rep = make_representation(rs, tag)
        ring = ZmodRing(4)
        for r in rs.roots:
            for s in ring.elements():
                for t in ring.elements():
                    lhs = elementary(rep, ring, r, s) * elementary(rep, ring, r, t)
                    assert lhs == elementary(rep, ring, r, (s + t) % 4)


@pytest.mark.parametrize("rs, tag", [(A2, "defining-A"), (B3, "defining-B"), (G2, "adjoint")])
def test_generators_must_be_weight_graded(rs, tag):
    """X_r maps weight w to w + r.  One entry of some X_r moved to two weights
    that differ by another root of the same height keeps every height shift,
    and the representation is refused."""
    rep = make_representation(rs, tag)
    w = rep.weights
    shift = {
        (i, j): tuple(a - b for a, b in zip(w[i], w[j]))
        for i in range(rep.dim) for j in range(rep.dim)
    }
    r, i, j, i2, j2 = next(
        (r, i, j, i2, j2)
        for r, m in rep._x.items()
        for i, row in m.items() for j in row
        for (i2, j2), s in shift.items()
        if s in rs.root_set and s != r and rs.height(s) == rs.height(r)
        and j2 not in m.get(i2, {})
    )
    moved = {k: {a: dict(row) for a, row in m.items()} for k, m in rep._x.items()}
    moved[r].setdefault(i2, {})[j2] = moved[r][i].pop(j)
    Representation(rs, tag, rep.dim, w, rep._x)  # the unmoved data passes
    with pytest.raises(ChevalleyError, match="not weight-graded"):
        Representation(rs, tag, rep.dim, w, moved)


def test_adjoint_g2_unipotent():
    rep = make_representation(G2, "adjoint")
    ring = ZmodRing(4)
    g = elementary(rep, ring, (0, 1), 1)
    assert rep.dim == 14
    n = tuple(
        tuple(ring.sub(v, ring.one if i == j else ring.zero) for j, v in enumerate(row))
        for i, row in enumerate(g.mat)
    )
    m = n
    for _ in range(3):
        m = linalg.mat_mul(ring, m, n)
    assert all(v == ring.zero for row in m for v in row)


def test_commutator_a2_paper_identity_z6():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(6)
    e12 = (1, -1, 0)
    e23 = (0, 1, -1)
    e13 = (1, 0, -1)
    for r in ring.elements():
        for s in ring.elements():
            lhs = commutator(
                elementary(rep, ring, e12, r), elementary(rep, ring, e23, s)
            )
            assert lhs == elementary(rep, ring, e13, (r * s) % 6)


def test_commutator_with_identity():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(5)
    g = elementary(rep, ring, (1, -1, 0), 2)
    assert commutator(g, identity_element(rep, ring)).is_identity()


def test_inverse_of_elementary():
    rep = make_representation(B2, "defining-B")
    ring = ZmodRing(9)
    for r in B2.roots:
        for t in ring.elements():
            g = elementary(rep, ring, r, t)
            assert g.inverse() == elementary(rep, ring, r, (-t) % 9)


def test_torus_and_weyl_sl2_block():
    rs = build_root_system("A", 1)
    rep = make_representation(rs, "defining-A")
    ring = ZmodRing(5)
    alpha = (1, -1)
    w, h = torus_and_weyl(rep, ring, alpha, 1)
    assert w.mat == ((0, 1), (4, 0))
    assert h.is_identity()


def test_torus_sl3_z5():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(5)
    # oracle: 2x2-block multiplication gives diag(2, 2^-1, 1); 3 = 2^-1 mod 5
    _, h = torus_and_weyl(rep, ring, (1, -1, 0), 2)
    assert h.mat == ((2, 0, 0), (0, 3, 0), (0, 0, 1))


def test_torus_lands_in_diagonal():
    for rs, tag in [(B2, "defining-B"), (C2, "defining-C"), (G2, "adjoint")]:
        rep = make_representation(rs, tag)
        ring = ZmodRing(9)
        for alpha in rs.simple:
            for u in ring.units():
                _, h = torus_and_weyl(rep, ring, alpha, u)
                for i, row in enumerate(h.mat):
                    for j, v in enumerate(row):
                        if i != j:
                            assert v == ring.zero


def test_weyl_conjugation_signs():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(5)
    assert weyl_conjugation_check(rep, ring, (0,), (1, -1, 0)) in (1, -1)
    assert weyl_conjugation_check(rep, ring, (), (1, -1, 0)) == 1


def test_weyl_conjugation_b2_z9():
    rep = make_representation(B2, "defining-B")
    ring = ZmodRing(9)
    # reflection in e1-e2 (simple index 0) maps e1 to e2
    assert weyl_conjugation_check(rep, ring, (0,), (1, 0)) in (1, -1)
    assert B2.apply_word((0,), (1, 0)) == (0, 1)


def reference_weyl_sign(rep, ring, word, alpha):
    """The former per-generator loop of `weyl_conjugation_check`, kept as the
    oracle: each generator t matched on its own, +1 before -1, the sign read
    off the generators with t != -t; GroupError on a failure or a sign that
    varies with t."""
    beta = rep.rs.apply_word(word, alpha)
    lift = weyl_lift_word(rep, ring, word).letters
    sign = None
    for t in ring.additive_generators():
        lhs = sandwich(rep, ring, lift, elementary(rep, ring, alpha, t).mat, lift)
        matched = next(
            (eps for eps in (1, -1)
             if lhs == elementary(rep, ring, beta, t if eps == 1 else ring.neg(t)).mat),
            None,
        )
        if matched is None:
            raise GroupError(f"Weyl conjugation failed for {alpha} at t={t}")
        if t != ring.zero and ring.neg(t) != t:
            if sign is not None and sign != matched:
                raise GroupError(f"Weyl conjugation sign varies with t for {alpha}")
            sign = matched
    return 1 if sign is None else sign


SIGN_RINGS = ["GF(2)", "GF(3)", "GF(4)", "Z/4", "Z/9", "Z/4 x GF(3)", "Z/2 x Z/3"]


@pytest.mark.parametrize("ring_text", SIGN_RINGS)
@pytest.mark.parametrize("rs", [A2, B2, C2, G2], ids=lambda rs: rs.label)
def test_weyl_conjugation_sign_matches_the_per_generator_oracle(rs, ring_text):
    """Every root, every tag and every Weyl word of length at most 2: the one
    sign check gives the oracle's sign."""
    ring = parse_ring_spec(ring_text)
    words = [w for w, _ in rs.weyl_elements() if len(w) <= 2]
    for tag in available_tags(rs):
        rep = make_representation(rs, tag)
        for word in words:
            for alpha in rs.roots:
                expected = reference_weyl_sign(rep, ring, word, alpha)
                assert weyl_conjugation_check(rep, ring, word, alpha) == expected


def test_relation_modes_other_than_r1_r2_both_are_refused():
    """A mistyped mode raises before any check runs, instead of passing with
    no checks."""
    rep, ring = make_representation(A2), ZmodRing(4)
    for mode in ("r2", "R3"):
        with pytest.raises(GroupError, match="R1, R2 or both"):
            verify_steinberg_relations(rep, ring, mode=mode)
    assert verify_steinberg_relations(rep, ring, mode="R2").commutator_checked == 30 * 16


@pytest.mark.parametrize(
    "rs, tag, ring_text",
    [
        (A2, "defining-A", "Z/9"),
        (B2, "defining-B", "Z/4 x GF(3)"),
        (G2, "adjoint", "GF(2)[x]/(x^2+x+1)"),
        (C2, "defining-C", "GF(3)[x]/(x^2)"),
    ],
)
def test_weyl_conjugation_sign_holds_for_every_parameter(rs, tag, ring_text):
    """The sign is read off the additive generators; check it on every t."""
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    for alpha in rs.roots:
        for word in [(0,), (1,), (0, 1)]:
            eps = weyl_conjugation_check(rep, ring, word, alpha)
            lift = weyl_lift_word(rep, ring, word)
            w, w_inv = lift.evaluate(), lift.inverse_word().evaluate()
            beta = rs.apply_word(word, alpha)
            for t in ring.elements():
                s = t if eps == 1 else ring.neg(t)
                assert w * elementary(rep, ring, alpha, t) * w_inv == elementary(
                    rep, ring, beta, s
                )


def test_congruence_reduction():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    ideal = ideal_from_generators(ring, [2])
    g = elementary(rep, ring, (1, -1, 0), 2)
    assert in_congruence_kernel(g, ideal)
    h = elementary(rep, ring, (1, -1, 0), 1)
    assert not in_congruence_kernel(h, ideal)
    red = congruence_reduce(h, ideal)
    assert red.ring.card == 2


def test_congruence_reduction_is_homomorphism():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    ideal = ideal_from_generators(ring, [2])
    rng = random.Random(7)
    from chevlab.groups import random_elementary_word

    for _ in range(100):
        g = random_elementary_word(rep, ring, 4, rng).evaluate()
        h = random_elementary_word(rep, ring, 4, rng).evaluate()
        assert congruence_reduce(g * h, ideal) == congruence_reduce(
            g, ideal
        ) * congruence_reduce(h, ideal)


def test_closure_sl2_gf2():
    rs = build_root_system("A", 1)
    rep = make_representation(rs, "defining-A")
    ring = ZmodRing(2)
    gens = [
        elementary(rep, ring, (1, -1), 1),
        elementary(rep, ring, (-1, 1), 1),
    ]
    closure = subgroup_closure(gens, cap=100)
    assert len(closure) == 6


def test_closure_identity_only():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(2)
    closure = subgroup_closure([identity_element(rep, ring)], cap=10)
    assert closure == frozenset({identity_element(rep, ring)})


def test_closure_counts_the_identity_against_the_cap():
    """The trivial group has one element, so cap 0 is already exceeded."""
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(2)
    one = identity_element(rep, ring)
    assert subgroup_closure([one], cap=1) == frozenset({one})
    with pytest.raises(CapExceeded):
        subgroup_closure([one], cap=0)
    with pytest.raises(CapExceeded):
        subgroup_closure([(one, ElementaryWord(rep, ring))], cap=0, track_words=True)


def reference_random_elementary_word(rep, ring, length, rng):
    """`random_elementary_word` as it stood, drawing from the listed ring."""
    roots = list(rep.rs.roots)
    values = ring.elements()
    letters = [
        (rng.choice(roots), rng.choice(values)) for _ in range(length)
    ]
    return ElementaryWord(rep, ring, letters)


@pytest.mark.parametrize("ring_text", ["Z/9", "GF(4)", "Z/4 x GF(3)", "GF(2)[x]/(x^3)"])
def test_random_word_draws_as_from_the_listed_ring(ring_text):
    rep, ring = make_representation(B2, "defining-B"), parse_ring_spec(ring_text)
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        word = random_elementary_word(rep, ring, 7, rng)
        assert word.letters == reference_random_elementary_word(rep, ring, 7, ref).letters
        assert rng.random() == ref.random()  # the same draws were made


def test_random_word_does_not_list_the_ring(monkeypatch):
    ring = parse_ring_spec("GF(2)[x]/(x^64)")

    def refused(self):
        raise AssertionError("the ring was listed")

    monkeypatch.setattr(type(ring), "elements", refused)
    word = random_elementary_word(make_representation(A2), ring, 5, random.Random(3))
    assert len(word.letters) == 5 and all(len(t) == 64 for _, t in word.letters)


def test_closure_cap():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(3)
    with pytest.raises(CapExceeded):
        subgroup_closure(all_elementaries(rep, ring), cap=10)


@pytest.mark.parametrize(
    "label, tag, ring_text, omit",
    [
        ("A1", "defining-A", "Z/12", None),
        ("A1", "defining-A", "GF(4)", None),
        ("A1", "defining-A", "GF(2)[x]/(x^2)", None),
        ("A1", "defining-A", "Z/4 x GF(3)", None),
        ("B2", "defining-B", "GF(2)", None),
        ("A2", "defining-A", "GF(3)", (1, -1, 0)),
    ],
)
def test_additive_generators_close_to_every_elementary(label, tag, ring_text, omit):
    rs = build_root_system(label)
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    every = [
        elementary(rep, ring, r, t)
        for r in rs.roots if r != omit
        for t in ring.elements() if t != ring.zero
    ]
    gens = all_elementaries(rep, ring, omit_root=omit)
    assert subgroup_closure(gens, cap=10**5) == subgroup_closure(every, cap=10**5)


def test_closure_word_tracking():
    rs = build_root_system("A", 1)
    rep = make_representation(rs, "defining-A")
    ring = ZmodRing(3)
    words = subgroup_closure(
        elementary_generator_words(rep, ring), cap=100, track_words=True
    )
    assert len(words) == 24  # |SL2(F3)|
    for element, word in words.items():
        assert word.evaluate() == element


def _dense_closure(gens, cap, conjugators=()):
    """Reference frontier search: right products and conjugates e x e^-1 as
    dense products, members in insertion order."""
    rep, ring = gens[0].rep, gens[0].ring
    conj = [
        (elementary(rep, ring, r, t).mat, elementary(rep, ring, r, ring.neg(t)).mat)
        for r, t in conjugators
    ]
    seen = {rep.identity(ring): None}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            images = [linalg.mat_mul(ring, x, h.mat) for h in gens]
            images += [
                linalg.mat_mul(ring, linalg.mat_mul(ring, a, x), b) for a, b in conj
            ]
            for y in images:
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
                    if len(seen) > cap:
                        raise CapExceeded
        frontier = nxt
    return list(seen)


CLOSURE_GROUPS = [
    (rs, tag, ring)
    for rs, tag in [
        (build_root_system("A1"), "defining-A"), (A2, "defining-A"), (B2, "defining-B")
    ]
    for ring in ["Z/2", "Z/4", "Z/6", "GF(4)", "GF(2)[x]/(x^2)", "Z/2 x Z/3"]
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CLOSURE_GROUPS), data=st.data())
def test_closure_matches_dense_reference_search(case, data):
    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    nonzero = [t for t in ring.elements() if t != ring.zero]
    letter = st.tuples(st.sampled_from(rs.roots), st.sampled_from(nonzero))
    words = [
        ElementaryWord(rep, ring, [x]) for x in data.draw(st.lists(letter, max_size=3))
    ]
    if data.draw(st.booleans()):  # a Weyl lift: h - I has many nonzero entries
        alpha = data.draw(st.sampled_from(rs.roots))
        u = data.draw(st.sampled_from(ring.units()))
        words.append(ElementaryWord(rep, ring, weyl_letters(rep, ring, alpha, u)))
    if not words:
        words.append(ElementaryWord(rep, ring))
    conjugators = data.draw(st.lists(letter, max_size=2))
    track = data.draw(st.booleans())
    gens = [w.evaluate() for w in words]
    cap = 400
    try:
        expected = _dense_closure(gens, cap)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            subgroup_closure(gens, cap)
    else:
        if track:
            found = subgroup_closure(list(zip(gens, words)), cap, track_words=True)
            assert [g.mat for g in found] == expected
            assert all(w.evaluate() == g for g, w in found.items())
        else:
            found = subgroup_closure(gens, cap)
            assert found == {GroupElement(rep, ring, m) for m in expected}
    if not conjugators:
        return
    # the oracle's conjugator action, the former one-search normal closure
    try:
        expected = _dense_closure(gens, cap, conjugators)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            closure_oracle.subgroup_closure(gens, cap, conjugators=conjugators)
        return
    found = closure_oracle.subgroup_closure(gens, cap, conjugators=conjugators)
    assert found == {GroupElement(rep, ring, m) for m in expected}


def _normal_closure_matches_the_oracle(rep, ring, gens, cap):
    """`materialized_subgroup` against the oracle's one search under the
    conjugators of every root: the same members, or CapExceeded on both
    sides, and CapExceeded on both at cap = |N| - 1."""
    from chevlab.congruence import materialized_subgroup

    letters = [(r, g) for r in rep.rs.roots for g in ring.additive_generators()]
    try:
        expected = closure_oracle.subgroup_closure(gens, cap, conjugators=letters)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            materialized_subgroup(rep, ring, gens, cap=cap)
        return
    assert materialized_subgroup(rep, ring, gens, cap=cap).data == expected
    with pytest.raises(CapExceeded):
        materialized_subgroup(rep, ring, gens, cap=len(expected) - 1)
    with pytest.raises(CapExceeded):
        closure_oracle.subgroup_closure(gens, len(expected) - 1, conjugators=letters)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CLOSURE_GROUPS), data=st.data())
def test_normal_closure_matches_the_one_search_oracle(case, data):
    """The normal closure by generators, conjugating by the +-simple-root
    letters, has the members of the former one search under the conjugators
    of every root, and raises CapExceeded exactly when |N| > cap."""
    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    nonzero = [t for t in ring.elements() if t != ring.zero]
    letter = st.tuples(st.sampled_from(rs.roots), st.sampled_from(nonzero))

    def element():
        kind = data.draw(st.sampled_from(["elementary", "weyl", "member"]))
        if kind == "elementary":
            return elementary(rep, ring, *data.draw(letter))
        if kind == "weyl":
            alpha = data.draw(st.sampled_from(rs.roots))
            u = data.draw(st.sampled_from(ring.units()))
            return GroupElement(rep, ring, letters_matrix(rep, ring, weyl_letters(rep, ring, alpha, u)))
        pairs = [
            (elementary(rep, ring, *x), ElementaryWord(rep, ring, [x]))
            for x in data.draw(st.lists(letter, min_size=2, max_size=2))
        ]
        return data.draw(st.sampled_from(list(subgroup_closure(pairs, 2000, track_words=True))))

    gens = [element() for _ in range(data.draw(st.integers(1, 2)))]
    _normal_closure_matches_the_oracle(rep, ring, gens, cap=2000)


def test_g2_normal_closure_matches_the_one_search_oracle():
    """G2(2) in the adjoint representation: the long root elements generate
    the simple index-2 subgroup U3(3), of order 6,048."""
    rs = build_root_system("G2")
    rep, ring = make_representation(rs, "adjoint"), parse_ring_spec("GF(2)")
    g = elementary(rep, ring, min(rs.long_roots()), ring.one)
    _normal_closure_matches_the_oracle(rep, ring, [g], cap=13000)


def test_closure_members_share_their_rows():
    """Equal rows across the SL3(Z/3) closure are one object, not one per member."""
    rep = make_representation(A2, "defining-A")
    closure = subgroup_closure(all_elementaries(rep, ZmodRing(3)), cap=10**4)
    rows = [row for g in closure for row in g.mat]
    assert len({id(row) for row in rows}) == len(set(rows))


def test_closure_makes_no_dense_products(monkeypatch):
    from chevlab.congruence import materialized_subgroup

    calls = []
    mat_mul = linalg.mat_mul

    def counted(ring, a, b):
        calls.append(1)
        return mat_mul(ring, a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    rep = make_representation(A2, "defining-A")
    z3, z9 = ZmodRing(3), ZmodRing(9)
    weyl = GroupElement(rep, z3, letters_matrix(rep, z3, weyl_letters(rep, z3, A2.roots[0], 1)))
    assert len(subgroup_closure(all_elementaries(rep, z3), cap=10**4)) == 5616
    assert len(subgroup_closure([weyl, *all_elementaries(rep, z3)], cap=10**4)) == 5616
    normal = materialized_subgroup(rep, z9, [elementary(rep, z9, A2.roots[0], 3)])
    assert len(normal.data) == 3**8  # the congruence kernel of (3) in SL3(Z/9)
    assert calls == []


ORACLE_GROUPS = [
    (rs, tag, ring)
    for rs, tag in [(A2, "defining-A"), (B2, "defining-B")]
    for ring in ["GF(2)", "GF(3)", "Z/4", "GF(2)[x]/(x^2)", "Z/2 x GF(3)"]
]


def _outcome(closure, *args, **kwargs):
    """A closure's answer, or the message of its CapExceeded."""
    try:
        return closure(*args, **kwargs)
    except CapExceeded as exc:
        return str(exc)


def _items(words):
    return words if isinstance(words, str) else [
        (g.mat, w.letters) for g, w in words.items()
    ]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(ORACLE_GROUPS), data=st.data())
def test_closure_matches_the_full_matrix_oracle(case, data):
    """Row images give the members, the words in their dict order and the cap
    outcomes of the full-matrix search they replaced."""
    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    letters = [(r, t) for r in rs.roots for t in ring.additive_generators()]
    pool = [
        (g, ElementaryWord(rep, ring, [x]))
        for g, x in zip(all_elementaries(rep, ring), letters)
    ] + elementary_generator_words(rep, ring)
    pairs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    if data.draw(st.booleans()):  # a Weyl lift: h - I has many nonzero entries
        alpha = data.draw(st.sampled_from(rs.roots))
        u = data.draw(st.sampled_from(ring.units()))
        w = ElementaryWord(rep, ring, weyl_letters(rep, ring, alpha, u))
        pairs.append((w.evaluate(), w))
    gens = [g for g, _ in pairs]
    cap = 2000
    expected = _outcome(closure_oracle.subgroup_closure, pairs, cap, track_words=True)
    found = _outcome(subgroup_closure, pairs, cap, track_words=True)
    assert _items(found) == _items(expected)
    done = not isinstance(expected, str)
    for c in (len(expected) - 1, len(expected)) if done else (cap,):
        assert _outcome(subgroup_closure, gens, c) == _outcome(
            closure_oracle.subgroup_closure, gens, c
        )


def test_closure_multiplies_each_distinct_row_by_each_generator_once(monkeypatch):
    """SL3(Z/3) under its 12 generators e_a(t), t != 0: the 5,616 members have
    26 distinct rows, and `col_ops` sees each row once per generator."""
    rep = make_representation(A2, "defining-A")
    gens = [g for g, _ in elementary_generator_words(rep, ZmodRing(3))]
    rows = []
    col_ops = linalg.col_ops

    def counted(ring, a, entries):
        rows.append(len(a))
        return col_ops(ring, a, entries)

    monkeypatch.setattr(linalg, "col_ops", counted)
    assert len(subgroup_closure(gens, cap=10**4)) == 5616
    assert sum(rows) == 26 * len(gens) == 312


@pytest.mark.parametrize("track_words", [False, True])
def test_closure_cap_boundary(track_words):
    """SL3(Z/3) has 5,616 members: cap 5615 is exceeded, cap 5616 returns them all."""
    rep = make_representation(A2, "defining-A")
    z3 = ZmodRing(3)
    gens = all_elementaries(rep, z3)
    if track_words:
        letters = [(r, t) for r in A2.roots for t in z3.additive_generators()]
        gens = [(g, ElementaryWord(rep, z3, [x])) for g, x in zip(gens, letters)]
    with pytest.raises(CapExceeded, match="closure exceeded cap 5615"):
        subgroup_closure(gens, cap=5615, track_words=track_words)
    closure = subgroup_closure(gens, cap=5616, track_words=track_words)
    assert len(closure) == 5616
    if track_words:
        assert all(w.evaluate() == g for g, w in closure.items())


def test_closure_peak_memory():
    """The SL3(Z/3) closure peaks below 1.7 MB under tracemalloc: members are
    tuples of row ids during the search, and the id-keyed dict is freed
    before the decoded matrices are wrapped.  On 64-bit CPython 3.11 this
    search peaks at 1.56 MB, a search over tuples of row tuples at 1.81 MB,
    and keeping the dict alive while wrapping at 2.09 MB."""
    rep = make_representation(A2, "defining-A")
    gens = all_elementaries(rep, ZmodRing(3))
    subgroup_closure(gens, cap=10**4)  # fill the memos the closure reads
    tracemalloc.start()
    try:
        closure = subgroup_closure(gens, cap=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closure) == 5616
    assert peak < 1_700_000


def test_closure_over_a_huge_ring_reaches_the_cap_at_once():
    """Row images are filled member by member, never by closing the orbit of a
    row first: over GF(2)[x]/(x^64) that orbit is every unimodular row."""
    rep = make_representation(A2, "defining-A")
    gens = all_elementaries(rep, parse_ring_spec("GF(2)[x]/(x^64)"))
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        subgroup_closure(gens, cap=1000)
    assert time.perf_counter() - start < 1.0


def test_closure_rejects_generators_from_two_groups():
    rep = make_representation(A2, "defining-A")
    a1 = make_representation(build_root_system("A1"), "defining-A")
    z2, z3 = ZmodRing(2), ZmodRing(3)
    e = elementary(rep, z2, A2.roots[0], 1)
    for other in (elementary(rep, z3, A2.roots[0], 1), elementary(a1, z2, (1, -1), 1)):
        with pytest.raises(GroupError):
            subgroup_closure([e, other], cap=100)
        with pytest.raises(GroupError):
            subgroup_closure([other, e], cap=100)


def test_word_inverse_and_serialization():
    rep = make_representation(B2, "defining-B")
    ring = parse_ring_spec("Z/4 x GF(3)")
    w = ElementaryWord(
        rep, ring, [((1, 0), ring.from_int(3)), ((0, 1), ring.inject(1, 2))]
    )
    assert (w + w.inverse_word()).evaluate().is_identity()
    data = w.to_json()
    back = ElementaryWord.from_json(rep, ring, data)
    assert back.letters == w.letters


def test_steinberg_relations_a2_z4():
    rep = make_representation(A2, "defining-A")
    report = verify_steinberg_relations(rep, ZmodRing(4))
    assert report.ok
    assert report.exhaustive
    assert report.excluded_pairs == 6
    assert report.additivity_checked == 6 * 16


def test_steinberg_relations_g2_gf3_adjoint():
    rep = make_representation(G2, "adjoint")
    report = verify_steinberg_relations(rep, ZmodRing(3))
    assert report.ok


def test_representation_independence_unipotent_words():
    # a relation word built from the commutator expansion evaluates to the
    # identity in every available representation
    for rs in (A2, B2, C2):
        ring = ZmodRing(9)
        for tag in available_tags(rs):
            rep = make_representation(rs, tag)
            report = verify_steinberg_relations(
                rep, ring, mode="R2", loop_cap=16, sample=40, seed=3
            )
            assert report.ok


def test_cross_factor_elementaries_commute():
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec("Z/2 x Z/3")
    for a in A2.roots:
        for b in A2.roots:
            for r in ring.factors[0].elements():
                for s in ring.factors[1].elements():
                    x = elementary(rep, ring, a, ring.inject(0, r))
                    y = elementary(rep, ring, b, ring.inject(1, s))
                    assert commutator(x, y).is_identity()


def test_form_preservation():
    ring = ZmodRing(9)
    for rs, tag in [(B2, "defining-B"), (C2, "defining-C")]:
        rep = make_representation(rs, tag)
        g = identity_element(rep, ring)
        for r in rs.roots:
            g = g * elementary(rep, ring, r, 5)
        assert rep.check_invariant(ring, g.mat)


def test_group_element_json_roundtrip():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    g = elementary(rep, ring, (1, -1, 0), 3)
    data = g.to_json()

    assert GroupElement.from_json(rep, ring, data) == g


def test_adjoint_relations_exhaustive_small_rings():
    # both sides of the commutator expansion agree in the adjoint model
    # for every parameter pair over rings of order <= 9
    for rs, ring in [(A2, ZmodRing(4)), (B2, ZmodRing(3)), (G2, ZmodRing(2))]:
        rep = make_representation(rs, "adjoint")
        report = verify_steinberg_relations(rep, ring, mode="R2")
        assert report.ok and report.exhaustive


def test_generators_preserve_the_representation_form():
    ring = ZmodRing(9)
    for rs, tag in [(A2, "defining-A"), (B2, "defining-B"), (C2, "defining-C")]:
        rep = make_representation(rs, tag)
        for r in rs.roots:
            assert rep.check_invariant(ring, elementary(rep, ring, r, 5).mat)


PROPERTY_GROUPS = [
    (rs, tag, ring)
    for rs, tag in [(A2, "defining-A"), (B2, "defining-B"), (G2, "adjoint")]
    for ring in ["Z/9", "GF(4)", "Z/4 x GF(3)"]
]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(PROPERTY_GROUPS),
    length=st.integers(0, 8),
    seed=st.integers(0, 2**32),
)
def test_inverse_word_matches_gauss_jordan_inverse(case, length, seed):
    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    w = random_elementary_word(rep, ring, length, random.Random(seed))
    assert w.inverse_word().evaluate() == w.evaluate().inverse()


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(PROPERTY_GROUPS), data=st.data())
def test_commutator_expansion_matches_reference_commutator(case, data):
    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from([r for r in rs.roots if r != _neg(a)]))
    s = data.draw(st.sampled_from(ring.elements()))
    t = data.draw(st.sampled_from(ring.elements()))
    terms = expansion_terms(rep, ring, a, b)
    word, letters = commutator_expansion(ring, terms, a, b, s, t)
    reference = commutator(elementary(rep, ring, a, s), elementary(rep, ring, b, t))
    assert letters_matrix(rep, ring, word) == reference.mat
    assert word_matrix(rep, ring, letters) == reference.mat


ADJOINT_GROUPS = [
    (rs, ring) for rs in (A2, B2, G2) for ring in ["Z/4", "Z/9", "GF(4)", "Z/4 x GF(3)"]
]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(ADJOINT_GROUPS),
    length=st.integers(0, 10),
    seed=st.integers(0, 2**32),
)
def test_adjoint_words_preserve_the_bracket(case, length, seed):
    rs, ring_text = case
    rep = make_representation(rs, "adjoint")
    ring = parse_ring_spec(ring_text)
    w = random_elementary_word(rep, ring, length, random.Random(seed))
    assert rep.check_invariant(ring, w.evaluate().mat)


def test_adjoint_check_rejects_non_automorphisms():
    ring = ZmodRing(9)
    for rs in (A2, G2):
        rep = make_representation(rs, "adjoint")
        n = rep.dim
        ones = tuple(tuple(1 for _ in range(n)) for _ in range(n))
        double = tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))
        assert not rep.check_invariant(ring, ones)
        assert not rep.check_invariant(ring, double)  # 2[x, y] != [2x, 2y]
        assert rep.check_invariant(ring, rep.identity(ring))


def test_adjoint_check_reads_the_torus_rows():
    """One entry changed in a row of the h_i in a G2 adjoint word over GF(3)
    makes the matrix refused: the check reads the ad h_i it is built from."""
    rep = make_representation(G2, "adjoint")
    ring = parse_ring_spec("GF(3)")
    mat = random_elementary_word(rep, ring, 12, random.Random(7)).evaluate().mat
    assert rep.check_invariant(ring, mat)
    h = len(G2.positive)  # the h_i follow the positive roots
    rows = [list(row) for row in mat]
    rows[h][0] = ring.add(rows[h][0], ring.one)
    assert not rep.check_invariant(ring, tuple(map(tuple, rows)))


def test_random_word_over_a_huge_modulus():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(2**61)
    w = random_elementary_word(rep, ring, 4, random.Random(5))
    assert len(w) == 4 and all(0 <= t < ring.n for _, t in w.letters)
    # drawing from range(n) gives the same seeded letters as from a list
    rng = random.Random(5)
    expected = [(rng.choice(A2.roots), rng.choice(list(range(97)))) for _ in range(4)]
    word = random_elementary_word(rep, ZmodRing(97), 4, random.Random(5))
    assert word.letters == tuple(expected)


def test_matmul_matches_pure_loop():
    from chevlab.linalg import mat_mul

    rng = random.Random(17)
    for ring in [parse_ring_spec("GF(4)"), parse_ring_spec("Z/4 x GF(3)"), ZmodRing(9)]:
        values = ring.elements()
        n = 8
        a = tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
        b = tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
        fast = mat_mul(ring, a, b)
        slow = tuple(
            tuple(
                _dot(ring, [a[i][k] for k in range(n)], [b[k][j] for k in range(n)])
                for j in range(n)
            )
            for i in range(n)
        )
        assert fast == slow


def _dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


KERNEL_CASES = [
    ("Z/8", [4]),
    ("Z/12", [6]),
    ("GF(2)[x]/(x^3)", [(0, 1, 0)]),
    ("GF(2)[x]/(x^2(x+1))", [(0, 1, 1)]),
    ("GF(3)[x]/(x^2+1)", [(0, 0)]),
    ("Z/4 x GF(3)", [(2, 0)]),
    ("GF(2)[x]/(x^2) x Z/9", [((0, 1), 3)]),
    ("Z/9", [2]),  # unit ideals, alone and in one factor
    ("Z/4 x GF(3)", [(2, 1)]),
    ("GF(2)[x]/(x^3) x Z/3", [((1, 1, 0), 0)]),
]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(KERNEL_CASES), seed=st.integers(0, 2**32))
def test_kernel_membership_matches_reduction(case, seed):
    text, gens = case
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec(text)
    ideal = ideal_from_generators(ring, gens)
    rng = random.Random(seed)
    inside = [
        (rng.choice(A2.roots), rng.choice(ideal.elements_list())) for _ in range(3)
    ]
    for g in (
        ElementaryWord(rep, ring, inside).evaluate(),
        random_elementary_word(rep, ring, 3, rng).evaluate(),
    ):
        expected = congruence_reduce(g, ideal).is_identity()
        assert in_congruence_kernel(g, ideal) == expected
    assert in_congruence_kernel(ElementaryWord(rep, ring, inside).evaluate(), ideal)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 72),
    generator=st.integers(0, 71),
    label=st.sampled_from(["A2", "B2", "G2"]),
    seed=st.integers(0, 2**32),
)
def test_zmod_kernel_membership_matches_reduction(n, generator, label, seed):
    rs = build_root_system(label)
    rep = make_representation(rs)
    ring = ZmodRing(n)
    ideal = ideal_from_generators(ring, [generator % n])
    rng = random.Random(seed)
    inside = [(rng.choice(rs.roots), rng.randrange(n) * generator % n) for _ in range(3)]
    near = [list(row) for row in rep.identity(ring)]
    i, j = rng.randrange(rep.dim), rng.randrange(rep.dim)
    near[i][j] = ring.add(near[i][j], rng.randrange(n))
    members = [
        ElementaryWord(rep, ring, inside).evaluate(),
        random_elementary_word(rep, ring, 3, rng).evaluate(),
        GroupElement(rep, ring, tuple(map(tuple, near))),  # any matrix, one entry moved
    ]
    for g in members:
        assert in_congruence_kernel(g, ideal) == congruence_reduce(g, ideal).is_identity()
    assert in_congruence_kernel(members[0], ideal)


def test_reduction_by_the_unit_ideal_lands_in_the_zero_ring():
    rep = make_representation(build_root_system("A2"))
    ring = parse_ring_spec("Z/12")
    g = ElementaryWord(rep, ring, [((1, -1, 0), 5), ((0, 1, -1), 7)]).evaluate()
    q = congruence_reduce(g, ideal_from_generators(ring, [5]))
    assert q.ring == ZmodRing(1)
    assert q.inverse() == q and q.inverse().mat == ((0,) * 3,) * 3


# ---------------------------------------------------------------------------
# Negative controls and the dense-product guard of the relation checker


def test_bumped_commutator_coefficient_fails_r2_for_that_pair_only(monkeypatch):
    from chevlab import groups

    rep = make_representation(B2, "defining-B")
    ring = ZmodRing(3)
    a, b = next(
        (a, b) for a in B2.roots for b in B2.roots
        if b != _neg(a) and len(B2.commutator_root_list(a, b)) == 2
    )
    terms = groups.expansion_terms

    def bumped(rep_, ring_, x, y):
        out = terms(rep_, ring_, x, y)
        if (x, y) != (a, b):
            return out
        i, j, g, c = out[-1]
        return out[:-1] + [(i, j, g, ring_.add(c, ring_.one))]

    monkeypatch.setattr(groups, "expansion_terms", bumped)
    report = verify_steinberg_relations(rep, ring)
    # the bumped letter's parameter C s^i t^j moves exactly when s, t != 0
    expected = [("R2", a, b, s, t) for s in (1, 2) for t in (1, 2)]
    assert sorted(report.failures) == expected


def test_corrupted_elementary_matrix_fails_r1_for_that_root(monkeypatch):
    from chevlab.reps import Representation

    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(3)
    root = A2.roots[0]
    i, j, _ = rep.terms(root)[0]
    original = Representation.elementary_matrix

    def corrupted(self, ring_, r, t):
        mat = original(self, ring_, r, t)
        if self is not rep or r != root or t != ring_.one:
            return mat
        rows = [list(row) for row in mat]
        rows[i][j] = ring_.add(rows[i][j], ring_.one)
        return tuple(map(tuple, rows))

    assert verify_steinberg_relations(rep, ring, mode="R1").ok
    monkeypatch.setattr(Representation, "elementary_matrix", corrupted)
    report = verify_steinberg_relations(rep, ring, mode="R1")
    assert report.failures
    assert {root for _, root, _, _ in report.failures} == {root}


def test_relation_checks_and_normality_make_no_dense_products(monkeypatch):
    from chevlab.congruence import check_normal, kernel_subgroup, materialized_subgroup

    calls = []
    mat_mul = linalg.mat_mul

    def counted(ring, a, b):
        calls.append(1)
        return mat_mul(ring, a, b)

    a2 = make_representation(A2, "defining-A")
    z9, gf2 = ZmodRing(9), ZmodRing(2)
    kernel = kernel_subgroup(a2, z9, ideal_from_generators(z9, [3]))
    materialized = materialized_subgroup(a2, gf2, [elementary(a2, gf2, A2.roots[0], 1)])
    monkeypatch.setattr(linalg, "mat_mul", counted)
    for label, tag, ring_text in [("B3", "defining-B", "Z/9"), ("G2", "adjoint", "GF(4)")]:
        rep = make_representation(build_root_system(label), tag)
        report = verify_steinberg_relations(rep, parse_ring_spec(ring_text))
        assert report.ok and report.exhaustive
    assert check_normal(kernel) and check_normal(materialized)
    assert calls == []


# ---------------------------------------------------------------------------
# R2 in conjugation form, product rings factor by factor


def _bump_terms(patch, pair, delta):
    """`groups.expansion_terms` with the last coefficient of `pair` raised by
    `delta` (as an integer, so by its image in each factor)."""
    from chevlab import groups

    terms = groups.expansion_terms

    def bumped(rep_, ring_, x, y):
        out = terms(rep_, ring_, x, y)
        if (x, y) != pair:
            return out
        i, j, g, c = out[-1]
        return out[:-1] + [(i, j, g, ring_.add(c, ring_.from_int(delta)))]

    return patch(groups, "expansion_terms", bumped)


FACTORWISE_GROUPS = [
    (rs, tag, ring)
    for rs, tag in [(A2, "defining-A"), (B2, "defining-B"), (G2, "adjoint")]
    for ring in ["Z/4 x GF(3)", "GF(4) x Z/9", "Z/2 x Z/3 x Z/5"]
]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(FACTORWISE_GROUPS), bump=st.sampled_from([0, 1]), data=st.data()
)
def test_factorwise_conjugation_form_agrees_with_the_unsplit_commutator(case, bump, data):
    """The report's verdict on each root pair equals [e_a(s), e_b(t)] against
    the expansion's letters over the whole ring, on correct data and with one
    coefficient bumped by 1."""
    from unittest import mock

    from chevlab import groups

    rs, tag, ring_text = case
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    a, b = data.draw(st.sampled_from([
        (a, b) for a in rs.roots for b in rs.roots
        if b != _neg(a) and rs.commutator_root_list(a, b)
    ]))
    s = data.draw(st.sampled_from(ring.elements()))
    t = data.draw(st.sampled_from(ring.elements()))
    with _bump_terms(mock.patch.object, (a, b), bump), mock.patch.object(
        groups, "_parameter_pairs", return_value=([(s, t)], False)
    ):
        report = verify_steinberg_relations(rep, ring, mode="R2")
        expected = []
        for x in rs.roots:
            for y in rs.roots:
                if y == _neg(x):
                    continue
                terms = groups.expansion_terms(rep, ring, x, y)
                word, letters = commutator_expansion(ring, terms, x, y, s, t)
                if letters_matrix(rep, ring, word) != letters_matrix(rep, ring, letters):
                    expected.append(("R2", x, y, s, t))
    assert report.failures == expected
    # the bump shows exactly where its letter's parameter moves
    i, j, _ = rs.commutator_root_list(a, b)[-1]
    moved = ring.mul(ring.from_int(bump), reduce(ring.mul, [s] * i + [t] * j, ring.one))
    assert expected == ([("R2", a, b, s, t)] if moved != ring.zero else [])


def test_coefficient_wrong_on_one_factor_fails_where_that_component_moves(monkeypatch):
    """A coefficient bumped by 3 over Z/4 x GF(3) is wrong on the Z/4 factor
    only: R2 fails exactly where the Z/4 component of s^i t^j is nonzero, and
    each failure carries the product-ring (s, t)."""
    rep = make_representation(B2, "defining-B")
    ring = parse_ring_spec("Z/4 x GF(3)")
    a, b = next(
        (a, b) for a in B2.roots for b in B2.roots
        if b != _neg(a) and len(B2.commutator_root_list(a, b)) == 2
    )
    i, j, _ = B2.commutator_root_list(a, b)[-1]
    assert i + j == 3
    _bump_terms(monkeypatch.setattr, (a, b), 3)
    report = verify_steinberg_relations(rep, ring, mode="R2")
    assert report.exhaustive and report.commutator_checked == 56 * 144
    values = ring.elements()
    expected = [
        ("R2", a, b, s, t) for s in values for t in values
        if s[0] ** i * t[0] ** j % 4
    ]
    assert expected and len(expected) < 144
    assert report.failures == expected


def test_r2_check_of_a_commuting_pair_makes_two_sparse_operations(monkeypatch):
    """With the memos warm, R2 on a pair with no expansion letters is two
    column operations; every other pair adds one row operation per letter."""
    from chevlab import groups

    calls = []
    col_ops, row_ops = linalg.col_ops, linalg.row_ops

    def counted(op):
        def run(*args):
            calls.append(op.__name__)
            return op(*args)
        return run

    rep = make_representation(B3, "defining-B")
    ring = ZmodRing(9)
    s, t = ring.from_int(2), ring.from_int(5)
    monkeypatch.setattr(groups, "_parameter_pairs", lambda *args: ([(s, t)], False))
    assert verify_steinberg_relations(rep, ring, mode="R2").ok  # warms the memos
    a, b = next(
        (a, b) for a in B3.roots for b in B3.roots
        if b not in (a, _neg(a)) and not B3.commutator_root_list(a, b)
    )
    terms = expansion_terms(rep, ring, a, b)
    monkeypatch.setattr(linalg, "col_ops", counted(col_ops))
    monkeypatch.setattr(linalg, "row_ops", counted(row_ops))
    assert groups._conjugation_form(rep, ring, a, b, terms, s, t)
    assert calls == ["col_ops", "col_ops"]
    calls.clear()
    report = verify_steinberg_relations(rep, ring, mode="R2")
    letters = sum(
        len(B3.commutator_root_list(x, y))
        for x in B3.roots for y in B3.roots if y != _neg(x)
    )
    assert report.ok and report.commutator_checked == 306
    assert calls.count("col_ops") == 2 * 306 and calls.count("row_ops") == letters
