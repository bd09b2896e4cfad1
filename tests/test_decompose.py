import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlab import decompose, linalg
from chevlab.decompose import (
    NotInBigCell,
    NotUnipotent,
    UnsupportedDecomposition,
    big_cell_factor,
    bruhat_decompose,
    decompose_over_product,
    decomposition_constants,
    local_decompose,
    product_merge_decompose,
    tavgen_decompose,
    torus_word,
    unipotent_coordinates,
)
from chevlab.groups import (
    ElementaryWord,
    GroupElement,
    GroupError,
    elementary,
    elementary_generator_words,
    identity_element,
    random_elementary_word,
    subgroup_closure,
    torus_and_weyl,
    weyl_lift_word,
)
from chevlab.reps import Representation, make_representation
from chevlab.rings import ZmodRing, artinian_decompose, parse_ring_spec
from chevlab.roots import _neg, build_root_system


A1 = build_root_system("A", 1)
A2 = build_root_system("A2")
B2 = build_root_system("B2")
C2 = build_root_system("C2")
B3 = build_root_system("B3")
A3 = build_root_system("A3")
G2 = build_root_system("G2")


def rep_of(rs, tag=None):
    return make_representation(rs, tag)


def test_torus_word_identity_parameter():
    rep = rep_of(A1)
    ring = ZmodRing(7)
    w = torus_word(rep, ring, (1, -1), 1)
    assert w.evaluate().is_identity()
    assert len(w) == 4


def test_torus_word_sl2_z5():
    rep = rep_of(A1)
    ring = ZmodRing(5)
    w = torus_word(rep, ring, (1, -1), 2)
    # parameters (-1, -1, 3, 2): -1 = 4, 1-a = -1, a^-1 = 3, a(a-1) = 2
    assert [t for _, t in w.letters] == [4, 4, 3, 2]
    assert w.evaluate().mat == ((2, 0), (0, 3))


def test_torus_word_sl2_z9():
    rep = rep_of(A1)
    ring = ZmodRing(9)
    w = torus_word(rep, ring, (1, -1), 4)
    assert w.evaluate().mat == ((4, 0), (0, 7))  # 7 = 4^-1 mod 9


def test_unipotent_coordinates_roundtrip():
    rep = rep_of(B2)
    ring = ZmodRing(9)
    rng = random.Random(11)
    pos_roots = list(B2.positive)
    for _ in range(25):
        letters = [(r, rng.randrange(9)) for r in rng.sample(pos_roots, 3)]
        g = ElementaryWord(rep, ring, letters).evaluate()
        coords = unipotent_coordinates(g, +1)
        again = ElementaryWord(rep, ring, coords).nonzero().evaluate()
        assert again == g


def test_unipotent_coordinates_commuting_twist():
    # product out of height order picks up the structure-constant twist
    rep = rep_of(A2)
    ring = ZmodRing(5)
    a, b = (1, -1, 0), (0, 1, -1)
    # fixed order lists b before a, so this product needs a twist on a+b
    g = ElementaryWord(rep, ring, [(a, 3), (b, 2)]).evaluate()
    coords = dict(unipotent_coordinates(g, +1))
    assert coords[a] == 3 and coords[b] == 2
    assert coords[(1, 0, -1)] != 0  # the commuting correction shows up


def test_unipotent_coordinates_rejects_mixed():
    rep = rep_of(A2)
    ring = ZmodRing(5)
    g = elementary(rep, ring, (-1, 1, 0), 2)
    with pytest.raises(NotUnipotent):
        unipotent_coordinates(g, +1)


def test_big_cell_identity():
    rep = rep_of(A2)
    ring = ZmodRing(8)
    assert len(big_cell_factor(identity_element(rep, ring))) == 0


def test_big_cell_weyl_element_is_outside():
    rep = rep_of(A1)
    ring = ZmodRing(2)
    w, _ = torus_and_weyl(rep, ring, (1, -1), 1)
    with pytest.raises(NotInBigCell):
        big_cell_factor(w)


def test_big_cell_congruence_kernel_element():
    rep = rep_of(A2)
    ring = ZmodRing(4)
    rng = random.Random(3)
    for _ in range(20):
        word = [
            (r, 2 * rng.randrange(2)) for r in A2.roots for _ in range(1)
        ]
        rng.shuffle(word)
        g = ElementaryWord(rep, ring, word).evaluate()
        assert big_cell_factor(g).evaluate() == g


def test_bruhat_sl2_gf3_antidiagonal():
    rep = rep_of(A1)
    ring = ZmodRing(3)
    w, _ = torus_and_weyl(rep, ring, (1, -1), 1)
    assert w.mat == ((0, 1), (2, 0))
    wword, word = bruhat_decompose(w)
    assert wword == (0,)
    assert word.evaluate() == w


def test_bruhat_exhaustive_sl3_gf2():
    rep = rep_of(A2)
    ring = ZmodRing(2)
    group = subgroup_closure(
        [g for g, _ in elementary_generator_words(rep, ring)], cap=200
    )
    assert len(group) == 168
    consts = decomposition_constants(A2)
    for g in group:
        _, word = bruhat_decompose(g)
        assert word.evaluate() == g
        assert len(word) <= consts["N2"]


def test_bruhat_requires_field():
    rep = rep_of(A2)
    ring = ZmodRing(4)
    with pytest.raises(Exception):
        bruhat_decompose(identity_element(rep, ring))


def test_local_decompose_identity_and_fast_path():
    rep = rep_of(A2)
    ring = ZmodRing(8)
    report = local_decompose(identity_element(rep, ring))
    assert report.length == 0 and report.verified
    g = elementary(rep, ring, (1, -1, 0), 5)
    report = local_decompose(g)
    assert report.length == 1
    assert report.word.letters[0] == ((1, -1, 0), 5)


def test_local_decompose_sl3_z8_random():
    rep = rep_of(A2)
    ring = ZmodRing(8)
    rng = random.Random(7)
    consts = decomposition_constants(A2)
    for _ in range(50):
        g = random_elementary_word(rep, ring, 12, rng).evaluate()
        report = local_decompose(g)
        assert report.verified
        assert report.word.evaluate() == g
        assert report.length <= consts["N1"] + consts["N2"]


def test_local_decompose_sp4_z9_random():
    rep = rep_of(C2)
    ring = ZmodRing(9)
    rng = random.Random(9)
    consts = decomposition_constants(C2)
    for _ in range(30):
        g = random_elementary_word(rep, ring, 10, rng).evaluate()
        report = local_decompose(g)
        assert report.verified and report.length <= consts["local_bound"]


def test_local_decompose_rejects_nonlocal():
    rep = rep_of(A2)
    ring = ZmodRing(6)
    with pytest.raises(Exception):
        local_decompose(identity_element(rep, ring))


def test_product_merge_trivial_cases():
    rep = rep_of(A2)
    ring = parse_ring_spec("Z/2 x Z/3")
    dec = artinian_decompose(ring)
    g = identity_element(rep, ring)
    w = product_merge_decompose(
        g,
        [ElementaryWord(rep, f) for f in dec.factors],
        dec.from_components,
    )
    assert len(w) == 0
    # single letters on disjoint roots merge to two letters
    a, b = (1, -1, 0), (0, 1, -1)
    wa = ElementaryWord(rep, dec.factors[0], [(a, 1)])
    wb = ElementaryWord(rep, dec.factors[1], [(b, 2)])
    g = elementary(rep, ring, a, (1, 0)) * elementary(rep, ring, b, (0, 2))
    merged = product_merge_decompose(g, [wa, wb], dec.from_components)
    assert len(merged) == 2
    assert set(merged.letters) == {(a, (1, 0)), (b, (0, 2))}


def test_decompose_over_product_z4xgf3():
    rep = rep_of(A2)
    ring = parse_ring_spec("Z/4 x GF(3)")
    rng = random.Random(13)
    consts = decomposition_constants(A2)
    for _ in range(20):
        g = random_elementary_word(rep, ring, 8, rng).evaluate()
        report = decompose_over_product(g)
        assert report.verified
        assert report.length <= consts["merge_bound"]
        assert report.word.evaluate() == g


def test_tavgen_identity():
    rep = rep_of(A2)
    ring = ZmodRing(3)
    report = tavgen_decompose(ElementaryWord(rep, ring))
    assert report.length == 0


def test_tavgen_sl2_gf3_exhaustive():
    rep = rep_of(A1)
    ring = ZmodRing(3)
    words = subgroup_closure(
        elementary_generator_words(rep, ring), cap=100, track_words=True
    )
    assert len(words) == 24
    for element, word in words.items():
        report = tavgen_decompose(word)
        assert report.verified
        assert report.word.evaluate() == element


def test_tavgen_sl2_z4_exhaustive():
    rep = rep_of(A1)
    ring = ZmodRing(4)
    words = subgroup_closure(
        elementary_generator_words(rep, ring), cap=200, track_words=True
    )
    assert len(words) == 48
    for element, word in words.items():
        report = tavgen_decompose(word)
        assert report.verified and report.word.evaluate() == element


def test_tavgen_sl3_random_words():
    rep = rep_of(A2)
    ring = ZmodRing(4)
    rng = random.Random(5)
    for _ in range(10):
        word = random_elementary_word(rep, ring, 6, rng)
        report = tavgen_decompose(word)
        assert report.verified
        assert report.word.evaluate() == word.evaluate()
        assert len(report.word) <= 4 * len(A2.roots)


def test_tavgen_b2_random_words():
    rep = rep_of(B2)
    ring = ZmodRing(3)
    rng = random.Random(6)
    for _ in range(5):
        word = random_elementary_word(rep, ring, 5, rng)
        report = tavgen_decompose(word)
        assert report.verified


def test_tavgen_crosscheck_with_local():
    rep = rep_of(A2)
    ring = ZmodRing(4)
    rng = random.Random(8)
    for _ in range(5):
        word = random_elementary_word(rep, ring, 5, rng)
        g = word.evaluate()
        assert tavgen_decompose(word).word.evaluate() == g
        assert local_decompose(g).word.evaluate() == g


def test_tavgen_corrupted_inner_block_fails_telescope_check(monkeypatch):
    rep = rep_of(A2)
    ring = ZmodRing(3)
    blocks = decompose._Sl2Machine.blocks.fget

    def corrupted(self):
        out = blocks(self)
        out[6] = {self.beta: self.ring.one}  # the rank-1 solve leaves block 6 empty
        return out

    monkeypatch.setattr(decompose._Sl2Machine, "blocks", property(corrupted))
    with pytest.raises(GroupError, match="did not telescope to the pushed letter"):
        tavgen_decompose(ElementaryWord(rep, ring, [(A2.simple[0], 1)]))


def test_tavgen_refuses_when_the_inner_machine_moves_nothing(monkeypatch):
    """Negative control for the kept blocks: with the rank-1 push a no-op,
    every Levi part is unchanged and R_k stays 1, so the backward pass keeps
    all eight blocks, and the telescoping check still refuses the letter."""
    rep, ring = rep_of(A2), ZmodRing(3)
    monkeypatch.setattr(decompose._Sl2Machine, "push_left", lambda self, root, t: None)
    with pytest.raises(GroupError, match="interchange did not telescope to the pushed letter"):
        tavgen_decompose(ElementaryWord(rep, ring, [(A2.simple[0], 1)]))


# The tavgen golden inputs (the fixed words of tests/test_cli.py), the dense
# products tavgen_decompose may spend on each, and the blocks it may
# re-factor (`unipotent_coordinates` calls).  Letters act as row and column
# operations, so only the conjugated blocks R_(k-1) u_k R_k^-1 with R_k != 1
# and the re-evaluations multiply dense matrices; a block with R_k = 1 and
# an unchanged Levi part is kept without being re-factored.
TAVGEN_GOLDEN_PRODUCTS = [
    ("A1", "GF(3)", None, 2, 0),
    ("A2", "GF(3)", None, 45, 48),
    ("B2", "GF(3)", None, 75, 109),
    ("C2", "Z/9", None, 184, 250),
    ("A3", "Z/4", None, 468, 668),
    ("B3", "GF(3)", None, 357, 564),
    ("D4", "GF(2)", None, 1054, 1539),
    ("G2", "GF(3)", "adjoint", 240, 327),
]


def test_tavgen_mat_mul_count_guard(monkeypatch):
    """Dense products and re-factored blocks on the tavgen golden inputs
    (105,042 products over all eight before letters acted as row and column
    operations, 2,425 after; 9,096 blocks re-factored before kept blocks,
    3,505 after)."""
    calls = {"mat_mul": 0, "unipotent_coordinates": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for label, ring_text, tag, products, blocks in TAVGEN_GOLDEN_PRODUCTS:
        rs, ring = build_root_system(label), parse_ring_spec(ring_text)
        rep, pos = rep_of(rs, tag), rs.positive
        letters = []
        for i in range(1, len(pos) + 1):
            letters.append((pos[i - 1], ring.from_int(i)))
            letters.append((_neg(pos[-i]), ring.from_int(2 * i - 1)))
        word = local_decompose(ElementaryWord(rep, ring, letters).evaluate()).word
        calls.update(mat_mul=0, unipotent_coordinates=0)
        with monkeypatch.context() as m:
            m.setattr(linalg, "mat_mul", counted(linalg, "mat_mul"))
            m.setattr(
                decompose, "unipotent_coordinates",
                counted(decompose, "unipotent_coordinates"),
            )
            tavgen_decompose(word)
        assert calls["mat_mul"] <= products, (label, ring_text)
        assert calls["unipotent_coordinates"] <= blocks, (label, ring_text)


@pytest.mark.parametrize("label", ["E6", "F4"])
def test_unsupported_types_rejected(label):
    rep = make_representation(build_root_system(label), "adjoint")
    ring = ZmodRing(2)
    with pytest.raises(UnsupportedDecomposition):
        local_decompose(identity_element(rep, ring))


def test_field_cell_cover_exhaustive():
    # every element of these groups over fields lies in some translated cell
    cases = [
        ("A", 1, "defining-A", 2, 6),
        ("A", 1, "defining-A", 3, 24),
        ("A", 2, "defining-A", 2, 168),
        ("C", 2, "defining-C", 2, 720),
    ]
    for letter, rank, tag, q, expected in cases:
        rs = build_root_system(letter, rank)
        rep = make_representation(rs, tag)
        ring = ZmodRing(q)
        group = subgroup_closure(
            [g for g, _ in elementary_generator_words(rep, ring)], cap=10**4
        )
        assert len(group) == expected
        for g in group:
            _, word = bruhat_decompose(g)
            assert word.evaluate() == g


def test_bruhat_identity_trivial_word():
    rep = rep_of(A2)
    ring = ZmodRing(3)
    wword, word = bruhat_decompose(identity_element(rep, ring))
    assert wword == ()
    assert len(word) == 0


def test_unipotent_coordinates_identity_all_zero():
    rep = rep_of(B2)
    ring = ZmodRing(5)
    coords = unipotent_coordinates(identity_element(rep, ring), +1)
    assert all(x == ring.zero for _, x in coords)


def test_fourfold_higher_ranks():
    rng = random.Random(2)
    cases = [
        ("A3", "defining-A", ZmodRing(2)),
        ("B3", "defining-B", ZmodRing(3)),
        ("C3", "defining-C", ZmodRing(2)),
        ("D4", "defining-D", ZmodRing(2)),
        ("G2", "adjoint", ZmodRing(3)),
    ]
    for label, tag, ring in cases:
        rs = build_root_system(label)
        rep = make_representation(rs, tag)
        word = random_elementary_word(rep, ring, 3, rng)
        report = tavgen_decompose(word)
        assert report.verified
        assert report.word.evaluate() == word.evaluate()
        assert len(report.word) <= 4 * len(rs.roots)


@pytest.mark.parametrize("label, tag, ring", [
    ("A2", None, ZmodRing(4)),
    ("B3", "defining-B", ZmodRing(9)),
    ("G2", "adjoint", ZmodRing(4)),
])
def test_words_hold_the_root_systems_own_root_tuples(label, tag, ring):
    """prop2 and tavgen words name each root by the tuple in rs.roots, Weyl
    lift and torus letters included, so a kept report builds no root tuples."""
    rs = build_root_system(label)
    rep = make_representation(rs, tag)
    word = random_elementary_word(rep, ring, 6, random.Random(label))
    for report in (local_decompose(word.evaluate()), tavgen_decompose(word)):
        assert any(t != ring.zero for _, t in report.word.letters)
        assert all(any(root is r for r in rs.roots) for root, _ in report.word.letters)


def test_local_decompose_g2_adjoint_z4():
    rs = build_root_system("G2")
    rep = make_representation(rs, "adjoint")
    ring = ZmodRing(4)
    rng = random.Random(3)
    consts = decomposition_constants(rs)
    for _ in range(3):
        g = random_elementary_word(rep, ring, 6, rng).evaluate()
        report = local_decompose(g)
        assert report.verified and report.length <= consts["local_bound"]


def test_decompose_over_artinian_split_z30():
    rep = rep_of(A2)
    ring = ZmodRing(30)
    rng = random.Random(4)
    for _ in range(3):
        g = random_elementary_word(rep, ring, 6, rng).evaluate()
        report = decompose_over_product(g)
        assert report.verified and report.word.evaluate() == g


# ---------------------------------------------------------------------------
# The Bruhat search against its reference path: a lift word built and
# inverted per Weyl element, applied letter by letter, and the big-cell
# elimination on lists of rows.


def reference_big_cell_factor(g):
    rep, ring = g.rep, g.ring
    n = rep.dim
    m = [list(row) for row in g.mat]
    lower = [list(row) for row in rep.identity(ring)]
    for col in range(n):
        piv = m[col][col]
        if not ring.is_unit(piv):
            raise NotInBigCell(f"pivot {col} is not a unit")
        piv_inv = ring.inv(piv)
        for r in range(col + 1, n):
            f = ring.mul(m[r][col], piv_inv)
            if f == ring.zero:
                continue
            lower[r][col] = f
            m[r] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(m[r], m[col])]
    diag = tuple(m[i][i] for i in range(n))
    units = decompose._torus_diag_table(rep, ring).get(diag)
    if units is None:
        raise NotInBigCell("diagonal part is not in the torus image")
    upper = [tuple(ring.mul(ring.inv(diag[i]), x) for x in m[i]) for i in range(n)]
    try:
        neg = unipotent_coordinates(GroupElement(rep, ring, tuple(map(tuple, lower))), -1)
        pos = unipotent_coordinates(GroupElement(rep, ring, tuple(upper)), +1)
    except NotUnipotent as exc:
        raise NotInBigCell(str(exc))
    word = ElementaryWord(rep, ring, [(r, x) for r, x in neg if x != ring.zero])
    for alpha, u in zip(rep.rs.simple, units):
        if u != ring.one:
            word = word + torus_word(rep, ring, alpha, u)
    word = word + ElementaryWord(rep, ring, [(r, x) for r, x in pos if x != ring.zero])
    if word.evaluate() != g:
        raise NotInBigCell("factorization failed to re-evaluate")
    return word


def reference_bruhat_decompose(g):
    rep, ring = g.rep, g.ring
    for word, _ in rep.rs.weyl_elements():
        lift = weyl_lift_word(rep, ring, word)
        try:
            remainder = rep.apply_right(ring, g.mat, lift.inverse_word().letters)
            full = reference_big_cell_factor(GroupElement(rep, ring, remainder)) + lift
        except NotInBigCell:
            continue
        assert full.evaluate() == g
        return word, full
    raise AssertionError("no Weyl chamber matched")


def cell_element(rep, ring, w, rng):
    """lower . lift(w) . upper with random parameters on every root.  Over a
    field it lies in B- w B, and so in the translated big cell B- B v only
    for v >= w in the Bruhat order: the length-ordered search stops at w."""
    draw = lambda: rng.choice(ring.elements())
    lower = [(_neg(p), draw()) for p in rep.rs.positive]
    upper = [(p, draw()) for p in rep.rs.positive]
    word = (
        ElementaryWord(rep, ring, lower)
        + weyl_lift_word(rep, ring, w)
        + ElementaryWord(rep, ring, upper)
    )
    return word.evaluate()


BRUHAT_GROUPS = [(A2, None), (B2, None), (C2, None), (G2, "adjoint")]


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(BRUHAT_GROUPS),
    field=st.sampled_from(["GF(2)", "GF(3)", "GF(4)", "GF(5)"]),
    seed=st.integers(0, 2**32),
)
def test_bruhat_matches_the_reference_path(group, field, seed):
    rs, tag = group
    rep, ring, rng = rep_of(rs, tag), parse_ring_spec(field), random.Random(seed)
    w = rng.choice(rs.weyl_elements())[0]
    g = cell_element(rep, ring, w, rng)
    weyl, word = bruhat_decompose(g)
    assert (weyl, word.letters) == (w, reference_bruhat_decompose(g)[1].letters)


def _big_cell_outcome(factor, g):
    try:
        return factor(g).letters
    except NotInBigCell as exc:
        return ("NotInBigCell", str(exc))


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(BRUHAT_GROUPS),
    ring_text=st.sampled_from(["GF(2)", "GF(4)", "GF(5)", "Z/9", "GF(2)[x]/(x^2)"]),
    kind=st.sampled_from(["big cell", "any cell", "any matrix"]),
    seed=st.integers(0, 2**32),
)
def test_big_cell_factor_matches_the_reference_path(group, ring_text, kind, seed):
    """Same word, or NotInBigCell with the same message, on group elements in
    and out of the big cell and on matrices outside the group."""
    rs, tag = group
    rep, ring, rng = rep_of(rs, tag), parse_ring_spec(ring_text), random.Random(seed)
    if kind == "any matrix":
        elements = ring.elements()
        mat = tuple(
            tuple(rng.choice(elements) for _ in range(rep.dim)) for _ in range(rep.dim)
        )
        g = GroupElement(rep, ring, mat)
    else:
        w = () if kind == "big cell" else rng.choice(rs.weyl_elements())[0]
        g = cell_element(rep, ring, w, rng)
    assert _big_cell_outcome(big_cell_factor, g) == _big_cell_outcome(
        reference_big_cell_factor, g
    )


def test_bruhat_refuses_a_wrong_lift_inverse(monkeypatch):
    """The re-evaluation of the Bruhat word is live: with the identity's
    table entry replaced by e_a(1) - I, the remainder g e_a(1) still factors,
    and its word does not evaluate to g."""
    rep, ring = rep_of(A2), parse_ring_spec("GF(3)")
    table = list(decompose._weyl_lift_inverses(rep, ring))
    assert table[0] == ((), ())
    table[0] = ((), rep._entries(ring, A2.positive[0], ring.one))
    monkeypatch.setattr(decompose, "_weyl_lift_inverses", lambda rep, ring: tuple(table))
    g = cell_element(rep, ring, (), random.Random(5))
    with pytest.raises(GroupError, match="Bruhat word failed to re-evaluate"):
        bruhat_decompose(g)


def test_bruhat_work_guard(monkeypatch):
    """With the lift table warm, a search through all 48 Weyl elements of B3
    builds one lift word, for the element that factors, and applies no
    letter by column operations: each try is one pass by a lift inverse."""
    rep, ring = rep_of(B3), parse_ring_spec("GF(3)")
    w0 = B3.weyl_elements()[-1][0]
    g = cell_element(rep, ring, w0, random.Random(7))
    decompose._weyl_lift_inverses(rep, ring)
    lifts, applied = [], []
    lift_word, apply_right = decompose.weyl_lift_word, Representation.apply_right

    def counted_lift(*args):
        lifts.append(args[2])
        return lift_word(*args)

    def counted_apply(*args):
        applied.append(1)
        return apply_right(*args)

    monkeypatch.setattr(decompose, "weyl_lift_word", counted_lift)
    monkeypatch.setattr(Representation, "apply_right", counted_apply)
    weyl, _ = bruhat_decompose(g)
    assert weyl == w0 and len(w0) == 9
    assert lifts == [w0]
    assert applied == []


# ---------------------------------------------------------------------------
# The fourfold machine against its reference path: every push rebuilds and
# re-factors all eight blocks, with no block kept.


def _fixed_letters(rs, sign, coords):
    return [(r, coords[r]) for r in decompose.unipotent_order(rs, sign) if r in coords]


def reference_push_left(rs, rep, ring, blocks, root, t):
    """The blocks of e_root(t) g from those of g, by the full eight-block sweep."""
    if t == ring.zero:
        return blocks
    if rs.rank == 1:
        machine = decompose._Sl2Machine(rs, rep, ring, blocks)
        machine.push_left(root, t)
        return machine.blocks
    beta_idx = next(i for i, s in enumerate(rs.simple) if root in (s, _neg(s)))
    alpha_idx = next(i for i in rs.extremal_simple_indices() if i != beta_idx)
    split = rs.tavgen_split(alpha_idx)
    phi0 = set(split.phi0)
    old = [{r: v for r, v in coords.items() if r in phi0} for coords in blocks]
    new = reference_push_left(split.sub_system, rep, ring, old, root, t)
    r_mat = r_inv = rep.identity(ring)
    out = [None] * 8
    for k in range(7, -1, -1):
        sign = 1 if k % 2 == 0 else -1
        a, b = _fixed_letters(rs, sign, old[k]), _fixed_letters(rs, sign, new[k])
        prev = rep.apply_left(ring, b, rep.apply_right(ring, r_mat, ElementaryWord(
            rep, ring, a).inverse_word().letters))
        prev_inv = rep.apply_left(ring, a, rep.apply_right(ring, r_inv, ElementaryWord(
            rep, ring, b).inverse_word().letters))
        block = linalg.mat_mul(
            ring, rep.apply_right(ring, prev, _fixed_letters(rs, sign, blocks[k])), r_inv
        )
        coords = unipotent_coordinates(GroupElement(rep, ring, block), sign)
        out[k] = {r: x for r, x in coords if x != ring.zero}
        assert {r: x for r, x in out[k].items() if r in phi0} == new[k]
        r_mat, r_inv = prev, prev_inv
    assert r_mat == rep.elementary_matrix(ring, root, t)
    return out


MACHINE_GROUPS = [(A2, None), (B2, None), (C2, None), (G2, "adjoint"), (A3, None)]


@settings(max_examples=100, deadline=None)
@given(
    group=st.sampled_from(MACHINE_GROUPS),
    ring_text=st.sampled_from(["GF(2)", "GF(3)", "GF(4)", "Z/4", "Z/9"]),
    seed=st.integers(0, 2**32),
)
def test_push_left_matches_the_reference_sweep(group, ring_text, seed):
    """After every push of a random +-simple-letter word, the kept-block
    machine holds the same blocks as the full sweep."""
    rs, tag = group
    rep, ring, rng = rep_of(rs, tag), parse_ring_spec(ring_text), random.Random(seed)
    letters = rs.simple + tuple(rs.opposite[s] for s in rs.simple)
    machine = decompose._machine(rs, rep, ring)
    expected = [dict() for _ in range(8)]
    for _ in range(rng.randrange(1, 13)):
        root, t = rng.choice(letters), rng.choice(ring.elements())
        machine.push_left(root, t)
        expected = reference_push_left(rs, rep, ring, expected, root, t)
        assert machine.blocks == expected
