"""Negative controls for the guards that every answer passes before it leaves
the program: each test corrupts one producer in one named way and asserts
that the guard downstream of it fires, through the API (`GroupError`, or
`CertificateError` for `check_normal` and the certificate replays) and, for
decompositions and one certificate, through the CLI (exit 1, never 0 and
never 2).  An `ast` walk holds every membership replay of `congruence` to a
control.

The input guards of `groups` and `decompose` have controls too: each feeds
one API call an argument it must refuse and asserts its `GroupError` and
message, so that deleting the check fails the test, also where the call
would otherwise raise some other error.

Also a tooling guard: the decompositions and certificates run without a
single dense product of `GroupElement`s."""
import ast
import dataclasses
import json
from pathlib import Path
from types import MappingProxyType

import pytest
from click.testing import CliRunner

from chevlab import congruence, decompose, groups
from chevlab.cli import main
from chevlab.congruence import (
    CertificateError,
    NormalSubgroupHandle,
    check_normal,
    ideal_certificate,
    kernel_subgroup,
    materialized_subgroup,
    omit_root_generation_check,
)
from chevlab.decompose import (
    big_cell_factor,
    decompose_over_product,
    local_decompose,
    tavgen_decompose,
    torus_word,
)
from chevlab.groups import (
    ElementaryWord,
    GroupElement,
    GroupError,
    congruence_reduce,
    elementary,
    identity_element,
    in_congruence_kernel,
    subgroup_closure,
    torus_and_weyl,
    weyl_conjugation_check,
    weyl_lift_word,
)
from chevlab.reps import make_representation
from chevlab.rings import ZmodRing, artinian_decompose, ideal_from_generators, parse_ring_spec
from chevlab.roots import _neg, build_root_system


def fixed_word(label, ring_text, rep_tag=None) -> ElementaryWord:
    """The fixed word e_{p_i}(i) e_{-p_(m+1-i)}(2i - 1), i = 1..m, over the
    positive roots p_1..p_m (the input of the CLI decompose goldens)."""
    rs = build_root_system(label)
    ring = parse_ring_spec(ring_text)
    pos = rs.positive
    letters = []
    for i in range(1, len(pos) + 1):
        letters.append((pos[i - 1], ring.from_int(i)))
        letters.append((_neg(pos[-i]), ring.from_int(2 * i - 1)))
    return ElementaryWord(make_representation(rs, rep_tag), ring, letters)


def bumped(word: ElementaryWord) -> ElementaryWord:
    """The word with its first letter's parameter raised by one."""
    (root, t), *rest = word.letters
    return ElementaryWord(word.rep, word.ring, [(root, word.ring.add(t, word.ring.one)), *rest])


# algorithm -> (the CLI decomposer's input, its bound key, the producer
# just upstream of the epilogue: (module or class, attribute, stand-in)
# returning the given word)
EPILOGUE_CASES = {
    "prop2": (("C2", "Z/9"), "local_bound",
              lambda w: (decompose, "_single_letter_fast_path", lambda g: w)),
    "merge": (("B2", "Z/360"), "merge_bound",
              lambda w: (decompose, "product_merge_decompose", lambda g, words, join: w)),
    "tavgen": (("A2", "GF(3)"), "fourfold_bound",
               lambda w: (decompose._Machine, "word", lambda self: w)),
}
DECOMPOSERS = {
    "prop2": local_decompose,
    "merge": decompose_over_product,
    "tavgen": lambda g: tavgen_decompose(local_decompose(g).word),
}


def corrupt_epilogue_input(monkeypatch, algorithm, corruption):
    """The input g and the message the epilogue must raise, after one
    corruption of the word or of the bound that the epilogue checks."""
    (label, ring_text), key, producer = EPILOGUE_CASES[algorithm]
    g = fixed_word(label, ring_text).evaluate()
    word = DECOMPOSERS[algorithm](g).word
    if corruption == "parameter":
        monkeypatch.setattr(*producer(bumped(word)))
        return g, f"{algorithm} word failed to re-evaluate"
    constants = decompose.decomposition_constants
    low = len(word) - 1
    monkeypatch.setattr(
        decompose, "decomposition_constants",
        lambda rs: MappingProxyType({**constants(rs), key: low}),
    )
    return g, f"{algorithm} word exceeded its bound {key} = {low}"


@pytest.mark.parametrize("corruption", ["parameter", "bound"])
@pytest.mark.parametrize("algorithm", list(EPILOGUE_CASES))
def test_epilogue_refuses_a_corrupted_decomposition(monkeypatch, algorithm, corruption):
    g, message = corrupt_epilogue_input(monkeypatch, algorithm, corruption)
    with pytest.raises(GroupError) as exc:
        DECOMPOSERS[algorithm](g)
    assert str(exc.value) == message


def assert_cli_refuses(g, algorithm, message):
    """`group decompose` on g exits 1 with the message, never 0 and never 2."""
    res = CliRunner().invoke(main, [
        "group", "decompose", "--type", g.rep.rs.label, "--ring", g.ring.label,
        "--algorithm", algorithm, "--input", json.dumps(g.to_json()), "--format", "json",
    ])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == message


@pytest.mark.parametrize("corruption", ["parameter", "bound"])
@pytest.mark.parametrize("algorithm", list(EPILOGUE_CASES))
def test_epilogue_refusal_exits_1(monkeypatch, algorithm, corruption):
    g, message = corrupt_epilogue_input(monkeypatch, algorithm, corruption)
    assert_cli_refuses(g, algorithm, message)


def assert_refused_in(site, message, call):
    """call() raises a `GroupError` with the message, from the function site."""
    with pytest.raises(GroupError) as exc:
        call()
    assert str(exc.value) == message
    assert site in [entry.name for entry in exc.traceback]


def test_torus_word_refuses_the_torus_element_of_another_unit(monkeypatch):
    """With h_a(-u) in place of h_a(u), the torus words that the C2/Z/9
    factorization builds (units other than 1) fail their check."""
    g = fixed_word("C2", "Z/9").evaluate()
    assert local_decompose(g).verified  # the torus table is built unpatched
    monkeypatch.setattr(
        decompose, "torus_and_weyl",
        lambda rep, ring, alpha, a: torus_and_weyl(rep, ring, alpha, ring.neg(a)),
    )
    message = "torus identity failed to verify"
    assert_refused_in("torus_word", message, lambda: local_decompose(g))
    assert_cli_refuses(g, "prop2", message)


def test_merge_refuses_a_corrupted_factor_word(monkeypatch):
    """The word of the first local factor of Z/360 with its first letter's
    parameter raised by one: the merged word no longer re-evaluates."""
    g = fixed_word("B2", "Z/360").evaluate()
    first = artinian_decompose(g.ring).factors[0].label
    local = decompose.local_decompose

    def corrupted(h):
        report = local(h)
        if h.ring.label != first:
            return report
        return dataclasses.replace(report, word=bumped(report.word))

    monkeypatch.setattr(decompose, "local_decompose", corrupted)
    message = "merged word failed to re-evaluate"
    assert_refused_in("product_merge_decompose", message, lambda: decompose_over_product(g))
    assert_cli_refuses(g, "merge", message)


def test_bruhat_search_with_no_chamber_refuses(monkeypatch):
    """With a lift table that holds the identity alone, an input outside the
    big cell (the lift of the longest Weyl element) matches no chamber."""
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(3)")
    rep = make_representation(rs)
    g = weyl_lift_word(rep, ring, rs.weyl_elements()[-1][0]).evaluate()
    assert g.mat[0][0] == ring.zero
    monkeypatch.setattr(decompose, "_weyl_lift_inverses", lambda rep, ring: (((), ()),))
    message = "no Weyl chamber matched; the cell cover is broken"
    assert_refused_in("bruhat_decompose", message, lambda: local_decompose(g))
    assert_cli_refuses(g, "prop2", message)


A2_REP = make_representation(build_root_system("A2"), "defining-A")
Z4, Z6, Z8 = ZmodRing(4), ZmodRing(6), ZmodRing(8)
# guard -> (a call it must refuse, its exact message)
INPUT_GUARDS = {
    "elementary non-root": (
        lambda: elementary(A2_REP, Z4, (1, 1, 1), 1),
        "(1, 1, 1) is not a root of A2"),
    "word from_json non-root": (
        lambda: ElementaryWord.from_json(A2_REP, Z4, [{"root": [1, 1, 1], "t": 1}]),
        "(1, 1, 1) is not a root of A2"),
    "words from two groups": (
        lambda: ElementaryWord(A2_REP, Z4) + ElementaryWord(A2_REP, Z8),
        "words live in different groups"),
    "non-unit Weyl lift": (
        lambda: torus_and_weyl(A2_REP, Z4, (1, -1, 0), 2),
        "Weyl lift needs a unit parameter"),
    "reduce mod an ideal of another ring": (
        lambda: congruence_reduce(
            elementary(A2_REP, Z4, (1, -1, 0), 1), ideal_from_generators(Z8, [2])),
        "ideal belongs to a different ring"),
    "kernel of an ideal of another ring": (
        lambda: in_congruence_kernel(
            elementary(A2_REP, Z4, (1, -1, 0), 1), ideal_from_generators(Z8, [2])),
        "ideal belongs to a different ring"),
    "closure of no generators": (
        lambda: subgroup_closure([], cap=10),
        "closure needs at least one generator"),
    "torus word of a non-unit": (
        lambda: torus_word(A2_REP, Z4, (1, -1, 0), 2),
        "torus word needs a unit"),
    "big cell over a ring that is not local": (
        lambda: big_cell_factor(identity_element(A2_REP, Z6)),
        "big-cell factorization needs a local ring"),
    "fourfold form over a ring that is not local": (
        lambda: tavgen_decompose(ElementaryWord(A2_REP, Z6, [((1, -1, 0), 1)])),
        "the fourfold normal form needs a local ring"),
}


@pytest.mark.parametrize("guard", list(INPUT_GUARDS))
def test_input_guard_refuses(guard):
    call, message = INPUT_GUARDS[guard]
    with pytest.raises(GroupError) as exc:
        call()
    assert type(exc.value) is GroupError
    assert str(exc.value) == message


def corrupt_weyl_letters(monkeypatch):
    """Every Weyl lift e_a(u) e_-a(-u^-1) e_a(u), in `groups` and in
    `congruence`, with its middle letter's parameter raised by one.  (Raising
    the first one gives e_a(1) w_a(u), which still conjugates every root
    group that e_a commutes with after w_a as w_a does.)"""
    letters = groups.weyl_letters

    def corrupted(rep, ring, alpha, u):
        first, (root, t), last = letters(rep, ring, alpha, u)
        return [first, (root, ring.add(t, ring.one)), last]

    monkeypatch.setattr(groups, "weyl_letters", corrupted)
    monkeypatch.setattr(congruence, "weyl_letters", corrupted)


def test_sign_check_refuses_a_corrupted_lift(monkeypatch):
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(3)")
    rep = make_representation(rs)
    alpha = rs.simple[1]
    word = ElementaryWord(rep, ring, [(rs.positive[-1], ring.one), (alpha, ring.one)])
    assert weyl_conjugation_check(rep, ring, (0,), alpha) in (1, -1)
    assert tavgen_decompose(word).verified
    corrupt_weyl_letters(monkeypatch)
    with pytest.raises(GroupError, match="Weyl conjugation failed"):
        weyl_conjugation_check(rep, ring, (0,), alpha)
    with pytest.raises(GroupError, match="Weyl conjugation failed"):
        tavgen_decompose(word)


def test_omit_root_falls_back_to_enumeration_on_a_corrupted_lift(monkeypatch):
    """The conjugation certificate fails with the corrupted lift, so the
    answer comes from the two closures, and it is still True."""
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(2)")
    rep = make_representation(rs)
    closures = []
    closure = congruence.subgroup_closure

    def spy(*args, **kwargs):
        closures.append(1)
        return closure(*args, **kwargs)

    monkeypatch.setattr(congruence, "subgroup_closure", spy)
    assert omit_root_generation_check(rep, ring, rs.positive[0])
    assert closures == []
    corrupt_weyl_letters(monkeypatch)
    assert omit_root_generation_check(rep, ring, rs.positive[0])
    assert closures == [1, 1]


def test_no_dense_group_products(monkeypatch):
    """Torus lifts, torus words and the G2 short isolation act by letters:
    with `GroupElement.__mul__` refused, the decompositions (C2 over Z/9 has
    torus units other than 1) and the certificates still run."""
    decompose._torus_diag_table.cache_clear()

    def refused(self, other):
        raise AssertionError("dense GroupElement product")

    units = []
    torus_word = decompose.torus_word

    def recorded(rep, ring, alpha, a):
        units.append(a)
        return torus_word(rep, ring, alpha, a)

    monkeypatch.setattr(GroupElement, "__mul__", refused)
    monkeypatch.setattr(decompose, "torus_word", recorded)
    assert local_decompose(fixed_word("C2", "Z/9").evaluate()).verified
    assert units  # torus words with a unit other than 1 were built
    assert decompose_over_product(fixed_word("B2", "Z/360").evaluate()).verified
    word = fixed_word("G2", "GF(3)", "adjoint")
    assert tavgen_decompose(local_decompose(word.evaluate()).word).verified
    for label, n, gen in [("G2", 25, 5), ("B3", 27, 9)]:
        rep, ring = make_representation(build_root_system(label)), parse_ring_spec(f"Z/{n}")
        ideal = ideal_from_generators(ring, [gen])
        assert ideal_certificate(kernel_subgroup(rep, ring, ideal)).ideal.element_set() == ideal.element_set()


def sl3_z9_subgroup(corruption) -> NormalSubgroupHandle:
    """A "materialized" handle over SL3(Z/9) that is not normal: the normal
    closure of e_a(3) (the kernel mod 3, 3^8 elements) with the member
    e_a(3) dropped, or the root subgroup <e_a(1)> (9 elements)."""
    rs = build_root_system("A2")
    rep, ring = make_representation(rs), parse_ring_spec("Z/9")
    alpha = rs.simple[0]
    if corruption == "member dropped":
        full = materialized_subgroup(rep, ring, [elementary(rep, ring, alpha, 3)])
        members = full.data - {elementary(rep, ring, alpha, 3)}
        assert len(members) == 3**8 - 1
    else:
        members = subgroup_closure([elementary(rep, ring, alpha, 1)], cap=100)
        assert len(members) == 9
    return NormalSubgroupHandle(rep, ring, "materialized", members, corruption)


@pytest.mark.parametrize("corruption", ["member dropped", "root subgroup"])
def test_check_normal_refuses_a_subgroup_that_is_not_normal(corruption):
    n = sl3_z9_subgroup(corruption)
    assert not check_normal(n)
    with pytest.raises(CertificateError, match="conjugation-closure check"):
        ideal_certificate(n)


# ---------------------------------------------------------------------------
# Certificate replays: one corruption each, and the check that must catch it

CERTIFICATE_CASES = {
    "A2/Z/27": ("A2", "Z/27", 3),
    "B3/Z/27": ("B3", "Z/27", 9),
    "C3/Z/9": ("C3", "Z/9", 3),
    "B2/Z/9": ("B2", "Z/9", 3),
    "G2/Z/25": ("G2", "Z/25", 5),  # adjoint, the default G2 representation
}


def certificate_kernel(case) -> NormalSubgroupHandle:
    label, ring_text, gen = CERTIFICATE_CASES[case]
    rep, ring = make_representation(build_root_system(label)), parse_ring_spec(ring_text)
    return kernel_subgroup(rep, ring, ideal_from_generators(ring, [gen]))


def bump_first_coefficient(monkeypatch):
    """Every commutator expansion with its first structure constant raised by one."""
    terms = congruence.expansion_terms

    def corrupted(rep, ring, a, b):
        (i, j, g, c), *rest = terms(rep, ring, a, b)
        return [(i, j, g, ring.add(c, ring.one)), *rest]

    monkeypatch.setattr(congruence, "expansion_terms", corrupted)


def bump_last_letter_within(monkeypatch, site, step):
    """Inside the function `site` only, `_expansion` hands back its verified
    letters with `step` added to the last one's parameter."""
    expansion, scoped = congruence._expansion, getattr(congruence, site)
    active = []

    def corrupted(rep, ring, *args):
        comm, letters = expansion(rep, ring, *args)
        if active:
            (g, x), letters = letters[-1], letters[:-1]
            letters = [*letters, (g, ring.add(x, step))]
        return comm, letters

    def within(*args):
        active.append(site)
        try:
            return scoped(*args)
        finally:
            active.pop()

    monkeypatch.setattr(congruence, "_expansion", corrupted)
    monkeypatch.setattr(congruence, site, within)


class RefusingHandle(NormalSubgroupHandle):
    """A kernel subgroup with one member dropped from its predicate."""

    def __init__(self, n, refused):
        super().__init__(n.rep, n.ring, n.kind, n.data, f"{n.description} minus one member")
        self.refused = refused

    def contains(self, g):
        return g.mat != self.refused and super().contains(g)


def first_composite_member(monkeypatch, n, what):
    """The first matrix that the replay `what` asks about in a clean run which
    is neither the identity nor any e_r(t): dropping it from N leaves every
    level set as it was."""
    rep, ring = n.rep, n.ring
    elementaries = {elementary(rep, ring, r, t).mat for r in rep.rs.roots for t in ring.elements()}
    asked = []
    member = congruence._member

    def spy(handle, g, name):
        if name == what:
            asked.append(g.mat)
        return member(handle, g, name)

    with monkeypatch.context() as m:
        m.setattr(congruence, "_member", spy)
        ideal_certificate(n)
    return next(x for x in asked if x not in elementaries)


def derive_the_unit_ideal(monkeypatch):
    """The derived parameter set read as the unit ideal."""
    monkeypatch.setattr(congruence, "_ideal_of", lambda ring, values: ideal_from_generators(ring, [ring.one]))


# (case, corruption, argument, the function in congruence.py whose check
# fires, the message); every function of congruence.py that replays a
# membership (`_member`, `_peel`) is reached by one of them
REPLAY_CONTROLS = [
    *[(case, "coefficient", None, "_expansion", "commutator expansion failed")
      for case in CERTIFICATE_CASES],
    ("A2/Z/27", "letter", "_a2_ideal_derivation", "_a2_ideal_derivation",
     "derived product escaped the level set"),
    ("B3/Z/27", "letter", "_cover_b_mixed", "_peel",
     "replay failed: residue factor of the mixed identity is not in N"),
    ("B3/Z/27", "letter in N", "_cover_b_mixed", "_peel", "mixed identity peel failed"),
    ("C3/Z/9", "letter", "_long_coverage", "_long_coverage", "long coverage identity failed"),
    ("B2/Z/9", "letter", "_long_coverage", "_long_coverage", "long coverage identity failed"),
    ("B2/Z/9", "letter", "_cover_rank2", "_cover_rank2",
     "difference-of-commutators identity failed"),
    ("G2/Z/25", "letter", "_cover_g2_short", "_peel",
     "replay failed: residue factor of the short isolation is not in N"),
    ("B3/Z/27", "member", "mixed commutator", "_cover_b_mixed",
     "replay failed: mixed commutator is not in N"),
    ("B2/Z/9", "member", "first mixed commutator", "_cover_rank2",
     "replay failed: first mixed commutator is not in N"),
    ("G2/Z/25", "member", "first short-isolation commutator", "_cover_g2_short",
     "replay failed: first short-isolation commutator is not in N"),
    ("G2/Z/25", "member", "second short-isolation commutator", "_cover_g2_short",
     "replay failed: second short-isolation commutator is not in N"),
    ("A2/Z/27", "ideal", None, "ideal_certificate", r"replay failed: e_\S+\(1\) is not in N"),
]
# functions that replay a membership with no control above, and why
UNCONTROLLED_REPLAYS = {}


@pytest.mark.parametrize(
    "case, corruption, arg, site, message", REPLAY_CONTROLS,
    ids=[f"{c[0]}-{c[1]}-{c[2] or c[3]}" for c in REPLAY_CONTROLS],
)
def test_certificate_replay_catches_a_corruption(monkeypatch, case, corruption, arg, site, message):
    n = certificate_kernel(case)
    if corruption == "coefficient":
        bump_first_coefficient(monkeypatch)
    elif corruption == "letter":  # by one, out of the ideal
        bump_last_letter_within(monkeypatch, arg, n.ring.one)
    elif corruption == "letter in N":  # by the ideal's generator
        bump_last_letter_within(monkeypatch, arg, n.data.generator)
    elif corruption == "member":
        n = RefusingHandle(n, first_composite_member(monkeypatch, n, arg))
    else:
        derive_the_unit_ideal(monkeypatch)
    with pytest.raises(CertificateError, match=message) as exc:
        ideal_certificate(n)
    assert site in [entry.name for entry in exc.traceback]


def test_certificate_with_a_corrupted_expansion_exits_1(monkeypatch):
    bump_first_coefficient(monkeypatch)
    res = CliRunner().invoke(main, [
        "congruence", "certify", "--type", "G2", "--ring", "Z/25",
        "--subgroup", "kernel:(5)", "--format", "json",
    ])
    assert res.exit_code == 1
    assert "commutator expansion failed" in json.loads(res.output)["error"]


def test_every_membership_replay_has_a_control():
    """Each function of congruence.py that calls `_member` or `_peel` is the
    site of a control in REPLAY_CONTROLS, or is listed with its reason."""
    tree = ast.parse(Path(congruence.__file__).read_text())
    replaying = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_member", "_peel") for node in ast.walk(fn))
    }
    assert replaying  # the walk found the replays
    sites = {c[3] for c in REPLAY_CONTROLS}
    assert replaying - sites == set(UNCONTROLLED_REPLAYS)
