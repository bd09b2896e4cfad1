import pytest

from chevlab.roots import RootSystem, RootSystemError, build_root_system


EXPECTED_COUNTS = {
    "A2": 6,
    "A3": 12,
    "A4": 20,
    "B2": 8,
    "B3": 18,
    "B4": 32,
    "C2": 8,
    "C3": 18,
    "C4": 32,
    "D3": 12,
    "D4": 24,
    "E6": 72,
    "E7": 126,
    "E8": 240,
    "F4": 48,
    "G2": 12,
}


@pytest.mark.parametrize("label,count", sorted(EXPECTED_COUNTS.items()))
def test_root_counts(label, count):
    rs = build_root_system(label)
    assert len(rs.roots) == count
    assert frozenset(map(tuple, rs.roots)) == frozenset(
        tuple(-c for c in r) for r in rs.roots
    )


def test_a2_realization():
    rs = build_root_system("A2")
    eps = lambda i: tuple(1 if k == i else 0 for k in range(3))
    expected = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                expected.add(tuple(a - b for a, b in zip(eps(i), eps(j))))
    assert rs.root_set == expected


def test_b2_realization():
    rs = build_root_system("B2")
    assert rs.root_set == {
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    }


def test_g2_realization():
    rs = build_root_system("G2")
    shorts = set(rs.short_roots())
    # short roots: +-c, +-(c+k), +-(2c+k) as (k, c)-pairs
    assert shorts == {(0, 1), (0, -1), (1, 1), (-1, -1), (1, 2), (-1, -2)}
    longs = set(rs.long_roots())
    assert longs == {(1, 0), (-1, 0), (1, 3), (-1, -3), (2, 3), (-2, -3)}


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "D4", "F4", "G2"])
def test_reflection_bijective(label):
    rs = build_root_system(label)
    for alpha in rs.roots:
        image = {rs.reflect(alpha, beta) for beta in rs.roots}
        assert image == rs.root_set


def test_length_classes():
    assert len(build_root_system("A3").length_classes()) == 1
    assert len(build_root_system("D4").length_classes()) == 1
    assert len(build_root_system("E6").length_classes()) == 1
    assert len(build_root_system("B3").length_classes()) == 2
    assert len(build_root_system("G2").length_classes()) == 2


def test_commutator_root_list_a2():
    rs = build_root_system("A2")
    a = (1, -1, 0)
    b = (0, 1, -1)
    assert rs.commutator_root_list(a, b) == ((1, 1, (1, 0, -1)),)
    # pair whose sum is not a root: empty
    assert rs.commutator_root_list(a, (1, 0, -1)) == ()


def test_commutator_root_list_b2_exhaustive_oracle():
    rs = build_root_system("B2")
    a = (1, 1)
    b = (0, -1)
    # oracle: scan i, j <= 4 against the root list
    expected = []
    for i in range(1, 5):
        for j in range(1, 5):
            r = tuple(i * x + j * y for x, y in zip(a, b))
            if r in rs.root_set:
                expected.append((i, j, r))
    expected.sort(key=lambda t: (t[0] + t[1], t[0]))
    got = rs.commutator_root_list(a, b)
    assert got == tuple(expected) == ((1, 1, (1, 0)), (1, 2, (1, -1)))


def test_commutator_root_list_g2():
    rs = build_root_system("G2")
    k, c = (1, 0), (0, 1)
    got = rs.commutator_root_list(k, c)
    assert got == (
        (1, 1, (1, 1)),
        (1, 2, (1, 2)),
        (1, 3, (1, 3)),
        (2, 3, (2, 3)),
    )


def test_commutator_root_list_rejects_opposite():
    rs = build_root_system("A2")
    with pytest.raises(RootSystemError):
        rs.commutator_root_list((1, -1, 0), (-1, 1, 0))


def test_same_length_conjugator_identity():
    rs = build_root_system("B2")
    for r in rs.roots:
        assert rs.same_length_conjugator(r, r) == ()


def test_same_length_conjugator_a2():
    rs = build_root_system("A2")
    w = rs.same_length_conjugator((1, -1, 0), (1, 0, -1))
    assert len(w) == 1
    assert rs.apply_word(w, (1, -1, 0)) == (1, 0, -1)


def test_same_length_conjugator_b2_swap():
    rs = build_root_system("B2")
    w = rs.same_length_conjugator((1, 0), (0, 1))
    assert rs.apply_word(w, (1, 0)) == (0, 1)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_same_length_conjugator_total(label):
    rs = build_root_system(label)
    for cls_roots in (rs.long_roots(), rs.short_roots()):
        base = cls_roots[0]
        for r in cls_roots:
            w = rs.same_length_conjugator(base, r)
            assert rs.apply_word(w, base) == r


def test_weyl_orders():
    assert len(build_root_system("A2").weyl_elements()) == 6
    assert len(build_root_system("B2").weyl_elements()) == 8
    assert len(build_root_system("G2").weyl_elements()) == 12
    assert len(build_root_system("A3").weyl_elements()) == 24
    assert len(build_root_system("B3").weyl_elements()) == 48
    assert len(build_root_system("D4").weyl_elements()) == 192


def test_weyl_element_words_act_consistently():
    rs = build_root_system("B2")
    for word, perm in rs.weyl_elements():
        for idx, r in enumerate(rs.roots):
            assert rs.apply_word(word, r) == rs.roots[perm[idx]]


def test_tavgen_split_a3():
    rs = build_root_system("A3")
    ends = rs.extremal_simple_indices()
    assert ends == [0, 2]
    split = rs.tavgen_split(0)
    assert split.sub_system.label == "A2"
    assert len(split.phi0) == 6 and len(split.phi1) == 6
    assert set(split.phi0) | set(split.phi1) == rs.root_set
    assert not (set(split.phi0) & set(split.phi1))


def test_tavgen_split_b2_long_end():
    rs = build_root_system("B2")
    # simple roots: e1-e2 (long), e2 (short); the long one is index 0
    split = rs.tavgen_split(0)
    assert split.sub_system.label == "A1"
    assert len(split.phi0) == 2


def test_tavgen_split_g2():
    rs = build_root_system("G2")
    # splitting at c leaves only {k, -k}
    split = rs.tavgen_split(1)
    assert set(split.phi0) == {(1, 0), (-1, 0)}


def test_tavgen_split_rejects_non_extremal():
    rs = build_root_system("A3")
    with pytest.raises(RootSystemError):
        rs.tavgen_split(1)


def test_coroot_coords_are_integral():
    for label in ["A2", "B3", "C3", "G2", "F4"]:
        rs = build_root_system(label)
        for r in rs.roots:
            coords = rs.coroot_coords(r)
            assert all(isinstance(c, int) for c in coords)
        # simple coroots are unit vectors
        for i, s in enumerate(rs.simple):
            expected = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert rs.coroot_coords(s) == expected


def test_invalid_type():
    with pytest.raises(RootSystemError):
        build_root_system("F5")
    with pytest.raises(RootSystemError):
        build_root_system("H3")


def test_root_names():
    rs = build_root_system("B2")
    assert rs.root_name((1, -1)) == "e1-e2"
    assert rs.root_name((0, 1)) == "e2"
    g2 = build_root_system("G2")
    assert g2.root_name((1, 0)) == "k"
    assert g2.root_name((2, 3)) == "3c+2k"


def reference_root_name(rs, r) -> str:
    """The former two-branch `root_name`, kept as the oracle."""
    if rs.letter == "G":
        a, b = r
        terms = []
        if b:
            terms.append("c" if b == 1 else ("-c" if b == -1 else f"{b}c"))
        if a:
            s = "k" if a == 1 else ("-k" if a == -1 else f"{a}k")
            if terms and a > 0:
                s = "+" + s
            terms.append(s)
        return "".join(terms) if terms else "0"
    terms = []
    for i, c in enumerate(r):
        if not c:
            continue
        name = f"e{i + 1}"
        if c == 1:
            s = name if not terms else f"+{name}"
        elif c == -1:
            s = f"-{name}"
        else:
            s = f"{c:+d}{name}" if terms else f"{c}{name}"
        terms.append(s)
    return "".join(terms) if terms else "0"


ROOT_NAME_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_root_name_matches_the_reference_on_every_root():
    """One sign rule for c, k and e1, e2, ...: the same name as the former
    per-branch code on every root of every listed type, and on zero."""
    count = 0
    for label in ROOT_NAME_TYPES:
        rs = build_root_system(label)
        for r in list(rs.roots) + [(0,) * rs.ambient]:
            assert rs.root_name(r) == reference_root_name(rs, r), (label, r)
            count += 1
    assert count == 1882 + len(ROOT_NAME_TYPES)
