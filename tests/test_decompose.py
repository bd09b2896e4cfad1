import random

import pytest

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
    GroupError,
    elementary,
    elementary_generator_words,
    identity_element,
    random_elementary_word,
    subgroup_closure,
    torus_and_weyl,
)
from chevlab.reps import make_representation
from chevlab.rings import ZmodRing, artinian_decompose, parse_ring_spec
from chevlab.roots import _neg, build_root_system


A1 = build_root_system("A", 1)
A2 = build_root_system("A2")
B2 = build_root_system("B2")
C2 = build_root_system("C2")


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


# The tavgen golden inputs (the fixed words of tests/test_cli.py) and the
# dense products tavgen_decompose may spend on each.  Letters act as row and
# column operations, so only the conjugated blocks R_(k-1) u_k R_k^-1 with
# R_k != 1 and the re-evaluations multiply dense matrices.
TAVGEN_GOLDEN_PRODUCTS = [
    ("A1", "GF(3)", None, 2),
    ("A2", "GF(3)", None, 53),
    ("B2", "GF(3)", None, 111),
    ("C2", "Z/9", None, 250),
    ("A3", "Z/4", None, 564),
    ("B3", "GF(3)", None, 453),
    ("D4", "GF(2)", None, 1212),
    ("G2", "GF(3)", "adjoint", 344),
]


def test_tavgen_mat_mul_count_guard(monkeypatch):
    """Dense products on the tavgen golden inputs (105,042 over all eight
    before letters acted as row and column operations; 2,989 after)."""
    calls = []
    mat_mul = linalg.mat_mul

    def counted(ring, a, b):
        calls.append(1)
        return mat_mul(ring, a, b)

    for label, ring_text, tag, bound in TAVGEN_GOLDEN_PRODUCTS:
        rs, ring = build_root_system(label), parse_ring_spec(ring_text)
        rep, pos = rep_of(rs, tag), rs.positive
        letters = []
        for i in range(1, len(pos) + 1):
            letters.append((pos[i - 1], ring.from_int(i)))
            letters.append((_neg(pos[-i]), ring.from_int(2 * i - 1)))
        word = local_decompose(ElementaryWord(rep, ring, letters).evaluate()).word
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg, "mat_mul", counted)
            tavgen_decompose(word)
        assert len(calls) <= bound, (label, ring_text)


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
