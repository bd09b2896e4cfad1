"""The benchmark's reference arithmetic and checks, tested against chevlab and
against hand-computed cases.  Run with `python3 -m pytest perfbench/tests`."""
import itertools
import random

import pytest

import reference as ref
from chevlab.decompose import decomposition_constants
from chevlab.groups import ElementaryWord
from chevlab.reps import make_representation
from chevlab.rings import ideal_from_generators, parse_ring_spec
from chevlab.roots import build_root_system

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2", "F4"]


@pytest.mark.parametrize("label", TYPES)
def test_root_count_and_bounds_match_chevlab(label):
    rs = build_root_system(label)
    assert ref.root_count(rs.letter, rs.rank) == len(rs.roots)
    consts = decomposition_constants(rs)
    bounds = ref.word_bounds(rs.letter, rs.rank)
    assert bounds == {
        "local": consts["local_bound"],
        "merge": consts["merge_bound"],
        "fourfold": consts["fourfold_bound"],
    }


@pytest.mark.parametrize("label", ["A2", "B3", "G2"])
def test_divided_powers_match_chevlab(label):
    rep = make_representation(build_root_system(label))
    for root in rep.rs.roots:
        mine = ref.divided_powers(rep.root_matrix(root))
        theirs = rep.divided_powers(root)
        assert len(mine) == len(theirs)
        for entries, dense in zip(mine, theirs):
            assert sorted(entries) == sorted(
                (i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v
            )


def test_divided_powers_reject_non_integral_and_non_nilpotent():
    with pytest.raises(ValueError):
        ref.divided_powers(((0, 1, 0), (0, 0, 1), (0, 0, 0)))  # X^2 / 2 = E13 / 2
    with pytest.raises(ValueError):
        ref.divided_powers(((1, 0), (0, 0)))


@pytest.mark.parametrize("label,ring_text", [
    ("A2", "Z/9"), ("G2", "GF(3)"), ("C2", "Z/4 x GF(3)"), ("B3", "Z/360")])
def test_reference_word_matches_chevlab(label, ring_text):
    rep = make_representation(build_root_system(label))
    ring = parse_ring_spec(ring_text)
    group = ref.RefGroup(rep, ring)
    rng = random.Random(7)
    moduli = ref.ring_moduli(ring)
    for _ in range(5):
        letters = [
            (rng.choice(rep.rs.roots),
             ref.join_value(ring, [rng.randrange(m) for m in moduli]))
            for _ in range(6)
        ]
        mats = group.word(letters)
        value = ElementaryWord(rep, ring, letters).evaluate().mat
        assert group.matches(value, mats)
        assert group.to_raw(mats) == value
        corrupted = [list(row) for row in value]
        corrupted[0][0] = ring.add(corrupted[0][0], ring.one)
        assert not group.matches(corrupted, mats)


def test_reference_stays_exact_above_two_to_the_32():
    rep = make_representation(build_root_system("D3"), "defining-D")
    ring = parse_ring_spec("Z/4294967311")
    group = ref.RefGroup(rep, ring)
    (n,) = group.moduli
    root = rep.rs.roots[0]
    t = n - 12345
    assert group.word([(root, t), (root, n - t)]) == [ref.identity(rep.dim)]
    assert group.word([(root, t), (root, t)]) == group.word([(root, 2 * t % n)])


def test_reference_rejects_rings_without_integer_factors():
    rep = make_representation(build_root_system("A2"))
    with pytest.raises(ref.NoReference):
        ref.RefGroup(rep, parse_ring_spec("GF(4)"))


def test_root_sign_reads_triangularity():
    rep = make_representation(build_root_system("B2"))
    for root in rep.rs.roots:
        assert ref.root_sign(rep.root_matrix(root)) == (1 if rep.rs.is_positive(root) else -1)


def test_sl_order_matches_brute_force():
    assert ref.sl_order(3, 2, 2) == 43008
    assert ref.sl_order(2, 5, 1) == 5 * (25 - 1)
    count = sum(
        1 for a, b, c, d in itertools.product(range(4), repeat=4) if (a * d - b * c) % 4 == 1
    )
    assert ref.sl_order(2, 2, 2) == count == 48


def test_det3():
    assert ref.det3(((1, 2, 3), (0, 1, 4), (0, 0, 1)), 4) == 1
    assert ref.det3(((3, 0, 0), (0, 1, 0), (0, 0, 1)), 4) == 3
    assert ref.det3(((0, 1, 0), (1, 0, 0), (0, 0, 1)), 5) == 4


@pytest.mark.parametrize("signs,ok", [
    ([], True),
    ([1, -1] * 4, True),
    ([-1, -1, 1], True),
    ([1, 1, -1, 1, -1, 1, -1], True),
    ([1, -1] * 4 + [1], False),
    ([-1, 1] * 4, False),
])
def test_fourfold_blocks(signs, ok):
    assert ref.fourfold_blocks_ok(signs) is ok


@pytest.mark.parametrize("ring_text,gen,expected", [
    ("Z/27", 3, ref.zmod_ideal(27, 3)),
    ("Z/27", 18, ref.zmod_ideal(27, 9)),
    ("GF(2)[x]/(x^3)", (0, 1, 1), ref.gf2_truncated_ideal(3, 1)),
    ("GF(2)[x]/(x^3)", (0, 0, 1), ref.gf2_truncated_ideal(3, 2)),
    ("Z/4 x GF(3)", (2, 0), ref.product_ideal([ref.zmod_ideal(4, 2), ref.zmod_ideal(3, 0)])),
    ("Z/4 x GF(3)", (0, 2), ref.product_ideal([ref.zmod_ideal(4, 0), ref.zmod_ideal(3, 1)])),
])
def test_ideals_match_chevlab(ring_text, gen, expected):
    ring = parse_ring_spec(ring_text)
    assert ideal_from_generators(ring, [gen]).element_set() == expected


def test_gf2_truncated_mul():
    assert ref.gf2_truncated_mul((1, 1, 0), (0, 1, 0), 3) == (0, 1, 1)
    assert ref.gf2_truncated_mul((1, 1, 1), (1, 1, 0), 3) == (1, 0, 0)
