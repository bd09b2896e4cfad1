"""Negative controls for the guards that every answer passes before it leaves
the program: each test corrupts one producer in one named way and asserts
that the guard downstream of it fires, through the API (`GroupError`, or
`CertificateError` for `check_normal` and the certificate guards) and, for
decompositions and three certificates, through the CLI (exit 1, never 0 and
never 2).  A certificate is a stream of claims that `congruence._replay`
checks: the replay controls corrupt the claims, and an `ast` walk keeps
`_replay` the only place on the certificate path that asks N's predicate.

Three guards that no other test reaches have controls of the same kind: the
sampled kernel branch of `check_normal`, the re-evaluation inside
`big_cell_factor` and the failure witness of `ebg check`.

The input guards of `groups` and `decompose` have controls too: each feeds
one API call an argument it must refuse and asserts its `GroupError` and
message, so that deleting the check fails the test, also where the call
would otherwise raise some other error.

Also a tooling guard: the decompositions and certificates run without a
single dense product of `GroupElement`s."""
import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path
from types import MappingProxyType

import pytest
from click.testing import CliRunner

from chevlab import congruence, decompose, groups
from chevlab.cli import main
from chevlab.congruence import (
    CertificateError,
    LevelSet,
    NormalSubgroupHandle,
    check_normal,
    cross_factor_commute_check,
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
    letters_matrix,
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


A1_REP = make_representation(build_root_system("A1"), "defining-A")
A2_REP = make_representation(build_root_system("A2"), "defining-A")
Z2, Z4, Z6, Z8 = ZmodRing(2), ZmodRing(4), ZmodRing(6), ZmodRing(8)
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
    "omitted-root generation at rank 1": (
        lambda: omit_root_generation_check(A1_REP, Z2, (1, -1)),
        "omitted-root generation needs rank >= 2"),
    "cross-factor check of a ring that is not a product": (
        lambda: cross_factor_commute_check(A2_REP, Z6),
        "cross-factor check needs a product ring"),
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


def corrupt_claims(monkeypatch, scope, why, step):
    """Of the claims that the derivation function `scope` yields, the first
    with this `why` reaches `_replay` with `step` added to the parameter of
    the last letter of its last word."""
    replay, scoped = congruence._replay, getattr(congruence, scope)
    active, done = [], []

    def corrupted(ring, claims):
        for kind, reason, *words in claims:
            if active and not done and reason == why:
                done.append(reason)
                *rest, (root, x) = words[-1]
                words[-1] = [*rest, (root, ring.add(x, step))]
            yield (kind, reason, *words)

    def within(*args):
        active.append(scope)
        try:
            return (yield from scoped(*args))
        finally:
            active.pop()

    monkeypatch.setattr(
        congruence, "_replay", lambda n, claims: replay(n, corrupted(n.ring, claims)))
    monkeypatch.setattr(congruence, scope, within)


def watch_claims(monkeypatch):
    """Lists that `_replay` fills from then on: the derivations (generators)
    it is given, and each claim as it takes it."""
    replay, derivations, seen = congruence._replay, [], []

    def watched(n, claims):
        derivations.append(claims)
        return replay(n, (seen.append(claim) or claim for claim in claims))

    monkeypatch.setattr(congruence, "_replay", watched)
    return derivations, seen


class RefusingHandle(NormalSubgroupHandle):
    """A kernel subgroup with one member dropped from its predicate."""

    def __init__(self, n, refused):
        super().__init__(n.rep, n.ring, n.kind, n.data, f"{n.description} minus one member")
        self.refused = refused

    def contains(self, g):
        return g.mat != self.refused and super().contains(g)


def first_composite_member(monkeypatch, n, why):
    """The first matrix that a member claim with this `why` names in a clean
    run which is neither the identity nor any e_r(t): dropping it from N
    leaves every level set as it was."""
    rep, ring = n.rep, n.ring
    elementaries = {elementary(rep, ring, r, t).mat for r in rep.rs.roots for t in ring.elements()}
    with monkeypatch.context() as m:
        _, seen = watch_claims(m)
        ideal_certificate(n)
    named = (letters_matrix(rep, ring, word) for kind, reason, word, *_ in seen
             if (kind, reason) == ("member", why))
    return next(x for x in named if x not in elementaries)


def derive_the_unit_ideal(monkeypatch):
    """The derived parameter set read as the unit ideal."""
    monkeypatch.setattr(congruence, "_ideal_of", lambda ring, values: ideal_from_generators(ring, [ring.one]))


# (case, corruption, scope, the why of the claim that fails).  A "letter"
# corruption changes the first claim with that why which the derivation
# function `scope` yields: by one (out of the ideal) or by the ideal's
# generator ("letter in N").  A "member" corruption drops a matrix that a
# claim with that why names from N.  "coefficient" raises a structure
# constant of every expansion (`commutator_expansion` puts them into the
# claims; its scope, "_expansion", only names the row), and
# "ideal" reads the ideal that `ideal_certificate` derives as the unit ideal.
# `_replay` raises each time, naming the claim.
REPLAY_CONTROLS = [
    *[(case, "coefficient", "_expansion", "A2 commutator expansion")
      for case in CERTIFICATE_CASES if case != "B2/Z/9"],
    ("B2/Z/9", "coefficient", "_expansion", "difference-of-commutators identity"),
    ("A2/Z/27", "letter", "_a2_ideal_derivation", "commutator of an N-member with a generator"),
    ("B3/Z/27", "letter", "_cover_b_mixed", "residue factor of the mixed identity"),
    ("B3/Z/27", "letter in N", "_cover_b_mixed", "mixed identity peel"),
    ("C3/Z/9", "letter", "_long_coverage", "long coverage identity"),
    ("B2/Z/9", "letter", "_long_coverage", "doubling commutator"),
    ("B2/Z/9", "letter", "_cover_rank2", "doubling identity"),
    ("G2/Z/25", "letter", "_cover_g2_short", "short isolation peel"),
    ("B3/Z/27", "member", None, "mixed commutator"),
    ("B2/Z/9", "member", None, "first mixed commutator"),
    ("G2/Z/25", "member", None, "first short-isolation commutator"),
    ("G2/Z/25", "member", None, "second short-isolation commutator"),
    ("A2/Z/27", "ideal", "ideal_certificate", r"e_\S+\(1\)"),
]


@pytest.mark.parametrize(
    "case, corruption, scope, why", REPLAY_CONTROLS,
    ids=[f"{c[0]}-{c[1]}-{c[2] or c[3]}" for c in REPLAY_CONTROLS],
)
def test_certificate_replay_catches_a_corruption(monkeypatch, case, corruption, scope, why):
    n = certificate_kernel(case)
    if corruption == "coefficient":
        bump_first_coefficient(monkeypatch)
    elif corruption == "letter":
        corrupt_claims(monkeypatch, scope, why, n.ring.one)
    elif corruption == "letter in N":
        corrupt_claims(monkeypatch, scope, why, n.data.generator)
    elif corruption == "member":
        n = RefusingHandle(n, first_composite_member(monkeypatch, n, why))
    else:
        derive_the_unit_ideal(monkeypatch)
    message = f"^replay failed: {why} (does not hold|is not in N)$"
    with pytest.raises(CertificateError, match=message) as exc:
        ideal_certificate(n)
    assert exc.traceback[-1].name == "_replay"


def test_a_failed_claim_stops_the_derivation(monkeypatch):
    """The derivation is a stream: once `_replay` refuses a claim it takes no
    further claim, and the derivation stays suspended where it stood."""
    n = certificate_kernel("B2/Z/9")
    with monkeypatch.context() as m:
        _, clean = watch_claims(m)
        ideal_certificate(n)
    corrupt_claims(monkeypatch, "_cover_rank2", "doubling identity", n.ring.one)
    derivations, seen = watch_claims(monkeypatch)
    with pytest.raises(CertificateError, match="doubling identity does not hold"):
        ideal_certificate(n)
    first = next(i for i, claim in enumerate(clean) if claim[1] == "doubling identity")
    assert seen == clean[:first + 1]
    assert inspect.getgeneratorstate(derivations[0]) == inspect.GEN_SUSPENDED


def test_certificate_with_a_corrupted_expansion_exits_1(monkeypatch):
    bump_first_coefficient(monkeypatch)
    res = CliRunner().invoke(main, [
        "congruence", "certify", "--type", "G2", "--ring", "Z/25",
        "--subgroup", "kernel:(5)", "--format", "json",
    ])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "replay failed: A2 commutator expansion does not hold"


def test_every_membership_replay_has_a_control():
    """On the certificate path only `_replay` asks N's predicate (besides
    `level_set` and `check_normal`, and `_ideal_of`, which asks an ideal),
    and no derivation (a generator of congruence.py) raises on a comparison:
    each check is a claim, and REPLAY_CONTROLS corrupts the claims."""
    tree = ast.parse(Path(congruence.__file__).read_text())
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    asking = {
        (fn.name, node.func.value.id) for fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "contains" and isinstance(node.func.value, ast.Name)
    }
    assert asking == {("level_set", "n"), ("check_normal", "n"), ("_replay", "n"),
                      ("_ideal_of", "ideal")}
    derivations = {
        fn.name: fn for fn in functions
        if any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))
    }
    assert set(derivations) == {
        "_peel", "_long_coverage", "_a2_ideal_derivation", "_certificate_claims",
        "_cover_b_mixed", "_cover_c_doubling", "_cover_rank2", "_cover_g2_short",
    }
    compared = [
        name for name, fn in derivations.items() for node in ast.walk(fn)
        if isinstance(node, ast.If) and any(
            isinstance(test, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in test.ops)
            for test in ast.walk(node.test))
        and any(isinstance(inner, ast.Raise) for inner in ast.walk(node))
    ]
    assert compared == []
    assert {c[2] for c in REPLAY_CONTROLS if c[1].startswith("letter")} <= set(derivations)


# ---------------------------------------------------------------------------
# Certificate guards outside the replay: one corruption of the producer just
# upstream of each, through the API and, for the two on the certificate
# path, the CLI (exit 1, never 0 and never 2)


def assert_certify_refuses(label, ring_text, generator, message):
    res = CliRunner().invoke(main, [
        "congruence", "certify", "--type", label, "--ring", ring_text,
        "--subgroup", f"kernel:({generator})", "--format", "json",
    ])
    assert res.exit_code == 1
    assert re.fullmatch(message, json.loads(res.output)["error"])


def corrupt_level_sets(monkeypatch, values):
    """`level_set` with the values of root r read as values(n, r) where that
    is not None."""
    level = congruence.level_set

    def corrupted(n, alpha):
        found = level(n, alpha)
        changed = values(n, tuple(alpha))
        return found if changed is None else LevelSet(found.root, changed, None)

    monkeypatch.setattr(congruence, "level_set", corrupted)


def test_weyl_spread_refuses_level_sets_that_differ(monkeypatch):
    """With the level set of the last root of A2 read as {0}, the spread of
    the A2 head over the length class finds two level sets that differ."""
    corrupt_level_sets(
        monkeypatch, lambda n, r: frozenset({n.ring.zero}) if r == n.rep.rs.roots[-1] else None)
    message = r"level sets of \(.*\) and \(.*\) differ; N is not normal"
    with pytest.raises(CertificateError) as exc:
        ideal_certificate(certificate_kernel("A2/Z/27"))
    assert re.fullmatch(message, str(exc.value))
    assert exc.traceback[-1].name == "_spread_by_weyl"
    assert_certify_refuses("A2", "Z/27", "3", message)


def test_certificate_refuses_a_derived_set_that_is_not_an_ideal(monkeypatch):
    """Over GF(2)[x]/(x^3), N the kernel mod (x): with every level set read
    as {0, x}, an additive subgroup of the ideal (x) but not an ideal, every
    claim holds and the spread agrees, and the derived set is refused."""
    ring = parse_ring_spec("GF(2)[x]/(x^3)")
    x = ring.element_from_json([0, 1])
    corrupt_level_sets(monkeypatch, lambda n, r: frozenset({ring.zero, x}))
    rep = make_representation(build_root_system("A2"))
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [x]))
    message = "derived parameter set is not an ideal"
    with pytest.raises(CertificateError) as exc:
        ideal_certificate(n)
    assert str(exc.value) == message
    assert exc.traceback[-1].name == "_certificate_claims"
    assert_certify_refuses("A2", "GF(2)[x]/(x^3)", "[0,1]", message)


def test_materialized_subgroup_refuses_a_closure_that_is_not_normal(monkeypatch):
    """With every conjugate by a letter read as the element itself, the
    search for a missing conjugate finds none, and the closure of e_a(1)
    over SL3(Z/3) (3 elements) fails the normality check."""
    rs, ring = build_root_system("A2"), parse_ring_spec("Z/3")
    rep = make_representation(rs)
    monkeypatch.setattr(congruence, "sandwich", lambda rep, ring, left, mat, right: mat)
    with pytest.raises(CertificateError) as exc:
        materialized_subgroup(rep, ring, [elementary(rep, ring, rs.simple[0], 1)])
    assert str(exc.value) == "materialized subgroup failed normality check"
    assert exc.traceback[-1].name == "materialized_subgroup"


# ---------------------------------------------------------------------------
# Guards that no other tier-1 test reaches: the sampled kernel branch of
# `check_normal`, the re-evaluation of `big_cell_factor` and the failure
# witness of `ebg check`, each after one corruption just upstream


def count_contains(monkeypatch) -> list:
    """A list that gets one entry per call of `NormalSubgroupHandle.contains`."""
    calls, contains = [], NormalSubgroupHandle.contains

    def counted(self, g):
        calls.append(g)
        return contains(self, g)

    monkeypatch.setattr(NormalSubgroupHandle, "contains", counted)
    return calls


@pytest.mark.parametrize("corruption", ["member", "conjugate"])
def test_check_normal_refuses_a_corrupted_kernel_sample(monkeypatch, corruption):
    """Over SL3(Z/27), N the kernel mod (3): with the first letter of each
    sampled member raised by one (out of the ideal), the first member asked
    is not in N; with each conjugate's right-hand letters dropped, e_r(t) g
    is not in N at the first sample whose t is not in the ideal."""
    n = certificate_kernel("A2/Z/27")
    if corruption == "member":
        letters = congruence.letters_matrix

        def corrupted(rep, ring, word):
            (root, t), *rest = word
            return letters(rep, ring, [(root, ring.add(t, ring.one)), *rest])

        monkeypatch.setattr(congruence, "letters_matrix", corrupted)
    else:
        monkeypatch.setattr(
            congruence, "sandwich", lambda rep, ring, left, mat, right: rep.apply_left(ring, left, mat))
    calls = count_contains(monkeypatch)
    assert check_normal(n) is False
    # the member test asks once per sample, the conjugate test once more
    assert len(calls) == 1 if corruption == "member" else len(calls) % 2 == 0
    with pytest.raises(CertificateError) as exc:
        ideal_certificate(n)
    assert str(exc.value) == "subgroup failed the conjugation-closure check"
    assert_certify_refuses("A2", "Z/27", "3", "subgroup failed the conjugation-closure check")


def test_big_cell_factor_refuses_a_corrupted_coordinate(monkeypatch):
    """With the last upper coordinate that `unipotent_coordinates` reads over
    Z/9 raised by one (the Bruhat step over GF(3) left clean), the big-cell
    factorization of the C2/Z/9 input no longer re-evaluates."""
    g = fixed_word("C2", "Z/9").evaluate()
    coordinates = decompose.unipotent_coordinates

    def corrupted(h, sign, order=None):
        coords = coordinates(h, sign, order)
        if sign < 0 or h.ring.is_field:
            return coords
        *rest, (root, x) = coords
        return [*rest, (root, h.ring.add(x, h.ring.one))]

    monkeypatch.setattr(decompose, "unipotent_coordinates", corrupted)
    message = "factorization failed to re-evaluate"
    with pytest.raises(decompose.NotInBigCell) as exc:
        local_decompose(g)
    assert str(exc.value) == message
    assert exc.traceback[-1].name == "big_cell_factor"
    assert_cli_refuses(g, "prop2", message)


@pytest.mark.parametrize("corruption", ["raised", "wrong word"])
def test_ebg_check_names_a_failure_witness(monkeypatch, corruption):
    """Over SL3(GF(2)): with the fourfold machine's word bumped, every
    element but the identity raises in `tavgen_decompose`; with the report's
    word bumped, its word no longer evaluates to the element.  Either way
    `ebg check` exits 1 and names the first element that failed."""
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(2)")
    rep = make_representation(rs)
    words = subgroup_closure(groups.elementary_generator_words(rep, ring), cap=10**6, track_words=True)
    witness = next(g for g in words if not g.is_identity())
    if corruption == "raised":
        word = decompose._Machine.word
        monkeypatch.setattr(
            decompose._Machine, "word", lambda self: bumped(w) if len(w := word(self)) else w)
        with pytest.raises(GroupError) as exc:
            tavgen_decompose(words[witness])
        assert str(exc.value) == "tavgen word failed to re-evaluate"
    else:
        tavgen = decompose.tavgen_decompose

        def corrupted(w):
            report = tavgen(w)
            return dataclasses.replace(report, word=bumped(report.word)) if len(w) else report

        monkeypatch.setattr(decompose, "tavgen_decompose", corrupted)
    res = CliRunner().invoke(main, [
        "ebg", "check", "--type", "A2", "--ring", "GF(2)", "--format", "json"])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert (doc["passed"], doc["total"], doc["in_fourfold_form"]) == (False, 168, 1)
    assert doc["witness"] == witness.to_json()
