"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and loop bound is pinned here.
"""
import random
import time

import pytest

from chevlab.chevalley import build_basis, g2_epsilon_signs
from chevlab.congruence import (
    CertificateError,
    cross_factor_commute_check,
    ideal_certificate,
    kernel_subgroup,
    omit_root_generation_check,
    weyl_level_equality,
)
from chevlab.decompose import (
    decomposition_constants,
    decompose_over_product,
    local_decompose,
    tavgen_decompose,
)
from chevlab.groups import (
    GroupElement,
    all_elementaries,
    commutator,
    elementary,
    elementary_generator_words,
    random_elementary_word,
    subgroup_closure,
    verify_steinberg_relations,
)
from chevlab.reps import make_representation
from chevlab.rings import (
    ZmodRing,
    artinian_decompose,
    ideal_from_generators,
    parse_ring_spec,
)
from chevlab.roots import build_root_system


SEED = 20240813

RELATION_TYPES = {
    "A2": "defining-A",
    "A3": "defining-A",
    "B2": "defining-B",
    "B3": "defining-B",
    "C3": "defining-C",
    "D4": "defining-D",
    "G2": "adjoint",
}
RELATION_RINGS = ["Z/4", "Z/9", "GF(2)", "GF(3)", "GF(4)"]


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name} failed: {detail}"


def test_a1_steinberg_relation_suite():
    start = time.time()
    total_checks = 0
    failures = []
    for label, tag in RELATION_TYPES.items():
        rep = make_representation(build_root_system(label), tag)
        for ring_text in RELATION_RINGS:
            ring = parse_ring_spec(ring_text)
            report = verify_steinberg_relations(
                rep, ring, mode="both", loop_cap=2**16, sample=512, seed=SEED
            )
            total_checks += report.additivity_checked + report.commutator_checked
            if not report.ok:
                failures.append((label, ring_text, report.failures[:3]))
    elapsed = time.time() - start
    _report(
        "A1",
        not failures and elapsed < 300,
        f"{total_checks} relation checks over {len(RELATION_TYPES)} types x "
        f"{len(RELATION_RINGS)} rings in {elapsed:.1f}s (target < 300s); "
        f"failures: {failures}",
    )


def test_a2_paper_identities():
    details = []
    # A2 display identity with coefficient exactly +1, exhaustive over Z/6
    rep = make_representation(build_root_system("A2"), "defining-A")
    ring = ZmodRing(6)
    e12, e23, e13 = (1, -1, 0), (0, 1, -1), (1, 0, -1)
    ok_a2 = all(
        commutator(
            elementary(rep, ring, e12, r), elementary(rep, ring, e23, s)
        )
        == elementary(rep, ring, e13, (r * s) % 6)
        for r in range(6)
        for s in range(6)
    )
    details.append(f"A2 over Z/6: {'ok' if ok_a2 else 'FAIL'}")

    # corrected mixed identity in type B: the second factor carries e1-e2,
    # not the doubled-negative root; signs are computed, not transcribed
    b2 = build_root_system("B2")
    table = build_basis(b2)
    lam, nmu = (1, 1), (0, -1)
    entries = b2.commutator_root_list(lam, nmu)
    roots_only = [g for _, _, g in entries]
    assert roots_only == [(1, 0), (1, -1)], roots_only
    coeffs = table.commutator_coefficients(lam, nmu)
    c1, c2 = coeffs[(1, 1)], coeffs[(1, 2)]
    ok_b = abs(c1) == 1 and abs(c2) == 1
    rep_b = make_representation(b2, "defining-B")
    for n in (4, 9):
        ring = ZmodRing(n)
        for r in range(n):
            for s in range(n):
                lhs = commutator(
                    elementary(rep_b, ring, lam, r),
                    elementary(rep_b, ring, nmu, s),
                )
                rhs = elementary(
                    rep_b, ring, (1, 0), (c1 * r * s) % n
                ) * elementary(rep_b, ring, (1, -1), (c2 * r * s * s) % n)
                ok_b = ok_b and lhs == rhs
    details.append(
        f"corrected mixed identity (root e1-e2, signs {c1:+d},{c2:+d}) "
        f"over Z/4 and Z/9: {'ok' if ok_b else 'FAIL'}"
    )

    # quarter-parameter identity over Z/9 where 2 is a unit
    ring9 = ZmodRing(9)
    dcoeffs = table.commutator_coefficients((1, 0), (0, 1))
    d = dcoeffs[(1, 1)]
    assert abs(d) == 2
    inv4 = ring9.inv(ring9.from_int(4))
    inv2 = ring9.inv(ring9.from_int(2))
    sign = d // 2
    ok_q = True
    for r in range(9):
        for s in range(9):
            lhs = commutator(
                elementary(rep_b, ring9, (1, 0), r),
                elementary(rep_b, ring9, (0, 1), (s * inv4) % 9),
            )
            rhs = elementary(
                rep_b, ring9, (1, 1), (sign * r * s * inv2) % 9
            )
            ok_q = ok_q and lhs == rhs
    details.append(
        f"quarter-parameter identity over Z/9 (sign {sign:+d}): "
        f"{'ok' if ok_q else 'FAIL'}"
    )

    # G2 mixed and short-short expansions over GF(3), with the computed
    # unit signs held fixed across all (s, t)
    g2 = build_root_system("G2")
    tg2 = build_basis(g2)
    eps = g2_epsilon_signs(tg2)
    rep_g = make_representation(g2, "adjoint")
    ring3 = ZmodRing(3)
    k, c = (1, 0), (0, 1)
    ok_g = True
    for s in range(3):
        for t in range(3):
            lhs = commutator(
                elementary(rep_g, ring3, k, s), elementary(rep_g, ring3, c, t)
            )
            rhs = (
                elementary(rep_g, ring3, (1, 1), (eps["eps1"] * s * t) % 3)
                * elementary(rep_g, ring3, (1, 2), (eps["eps2"] * s * t * t) % 3)
                * elementary(rep_g, ring3, (1, 3), (eps["eps3"] * s * t**3) % 3)
                * elementary(
                    rep_g, ring3, (2, 3), (eps["eps4"] * s * s * t**3) % 3
                )
            )
            ok_g = ok_g and lhs == rhs
            lhs2 = commutator(
                elementary(rep_g, ring3, (1, 1), s),
                elementary(rep_g, ring3, (1, 2), t),
            )
            rhs2 = elementary(
                rep_g, ring3, (2, 3), (3 * eps["eps5"] * s * t) % 3
            )
            ok_g = ok_g and lhs2 == rhs2
    details.append(
        f"G2 expansions over GF(3) with computed signs {eps}: "
        f"{'ok' if ok_g else 'FAIL'}"
    )
    ok = ok_a2 and ok_b and ok_q and ok_g
    _report("A2", ok, "; ".join(details))


def test_a3_local_decomposition():
    start = time.time()
    rng = random.Random(SEED)
    summaries = []
    ok = True
    for label, tag, ring_text in [
        ("A2", "defining-A", "Z/8"),
        ("C2", "defining-C", "Z/9"),
    ]:
        rs = build_root_system(label)
        rep = make_representation(rs, tag)
        ring = parse_ring_spec(ring_text)
        consts = decomposition_constants(rs)
        bound = consts["N1"] + consts["N2"]
        worst = 0
        for _ in range(1000):
            word = random_elementary_word(rep, ring, 16, rng)
            g = word.evaluate()
            report = local_decompose(g)
            ok = ok and report.verified and report.word.evaluate() == g
            ok = ok and report.length <= bound
            worst = max(worst, report.length)
        summaries.append(
            f"{label} over {ring_text}: 1000 elements, max length {worst} <= "
            f"N1+N2 = {consts['N1']}+{consts['N2']} = {bound}"
        )
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    _report("A3", ok, "; ".join(summaries) + f"; {elapsed:.1f}s (target < 120s)")


def test_a4_fourfold_form_exhaustive():
    cases = [
        ("A1", "defining-A", "GF(3)", 24),
        ("A1", "defining-A", "Z/4", 48),
        ("A2", "defining-A", "GF(2)", 168),
    ]
    details = []
    ok = True
    for label, tag, ring_text, expected in cases:
        rs = build_root_system(label[0], int(label[1]))
        rep = make_representation(rs, tag)
        ring = parse_ring_spec(ring_text)
        words = subgroup_closure(
            elementary_generator_words(rep, ring), cap=10**5, track_words=True
        )
        ok = ok and len(words) == expected
        good = 0
        for element, word in words.items():
            report = tavgen_decompose(word)
            if report.verified and report.word.evaluate() == element:
                good += 1
        ok = ok and good == expected
        details.append(f"{label} over {ring_text}: {good}/{expected}")
    _report("A4", ok, "fourfold coverage " + ", ".join(details))


def test_a5_artinian_and_merge():
    ring = ZmodRing(360)
    dec = artinian_decompose(ring)
    labels = [f.label for f in dec.factors]
    ok = labels == ["Z/8", "Z/9", "Z/5"]
    for v in ring.elements():
        ok = ok and dec.from_components(dec.to_components(v)) == v
    # isomorphism respects both operations on all pairs
    for a in ring.elements():
        ca = dec.to_components(a)
        for b in ring.elements():
            cb = dec.to_components(b)
            s = tuple(f.add(x, y) for f, x, y in zip(dec.factors, ca, cb))
            p = tuple(f.mul(x, y) for f, x, y in zip(dec.factors, ca, cb))
            if dec.from_components(s) != (a + b) % 360 or dec.from_components(
                p
            ) != (a * b) % 360:
                ok = False
                break
        if not ok:
            break

    rs = build_root_system("A2")
    rep = make_representation(rs, "defining-A")
    prod_ring = parse_ring_spec("Z/4 x GF(3)")
    consts = decomposition_constants(rs)
    rng = random.Random(SEED)
    worst = 0
    for _ in range(100):
        g = random_elementary_word(rep, prod_ring, 10, rng).evaluate()
        report = decompose_over_product(g)
        ok = ok and report.verified and report.word.evaluate() == g
        ok = ok and report.length <= consts["merge_bound"]
        worst = max(worst, report.length)
    _report(
        "A5",
        ok,
        f"Z/360 ~ {' x '.join(labels)} verified on 360 elements and all "
        f"pairs; merge over Z/4 x GF(3): 100 elements, max length {worst} <= "
        f"{consts['merge_bound']} = (N1+N2)*|roots|",
    )


def test_a6_certificates():
    details = []
    # SL3(Z/4) kernel mod (2)
    a2 = build_root_system("A2")
    rep_a = make_representation(a2, "defining-A")
    ring4 = ZmodRing(4)
    n_a = kernel_subgroup(rep_a, ring4, ideal_from_generators(ring4, [2]))
    trace_a = ideal_certificate(n_a)
    ok = trace_a.ideal.element_set() == frozenset({0, 2})
    ok = ok and all(count == 2 for _, count in trace_a.per_root)
    ok = ok and "a2-multiplication" in trace_a.step_kinds()
    details.append(
        f"SL3(Z/4) kernel mod (2): ideal {sorted(trace_a.ideal.element_set())}"
    )
    for r1 in a2.roots:
        for r2 in a2.roots:
            ok = ok and weyl_level_equality(n_a, r1, r2)

    # Sp4(Z/9) kernel mod (3)
    c2 = build_root_system("C2")
    rep_c = make_representation(c2, "defining-C")
    ring9 = ZmodRing(9)
    n_c = kernel_subgroup(rep_c, ring9, ideal_from_generators(ring9, [3]))
    trace_c = ideal_certificate(n_c)
    ok = ok and trace_c.ideal.element_set() == frozenset({0, 3, 6})
    ok = ok and all(count == 3 for _, count in trace_c.per_root)
    ok = ok and "quarter-parameter" in trace_c.step_kinds()
    details.append(
        f"Sp4(Z/9) kernel mod (3): ideal {sorted(trace_c.ideal.element_set())}"
    )
    for cls in (c2.long_roots(), c2.short_roots()):
        for r1 in cls:
            for r2 in cls:
                ok = ok and weyl_level_equality(n_c, r1, r2)

    # Sp4 over Z/4 refuses
    n_bad = kernel_subgroup(
        rep_c, ring4, ideal_from_generators(ring4, [2])
    )
    refused = False
    try:
        ideal_certificate(n_bad)
    except CertificateError as exc:
        refused = "2 is not a unit" in str(exc)
    ok = ok and refused
    details.append("Sp4(Z/4): refused with the 2-not-a-unit diagnostic")
    _report("A6", ok, "; ".join(details))


def test_a7_generation_checks():
    rs = build_root_system("A2")
    rep = make_representation(rs, "defining-A")
    ring = ZmodRing(4)
    closure = subgroup_closure(all_elementaries(rep, ring), cap=10**5)
    ok = len(closure) == 43008
    rng = random.Random(SEED)
    adjoined = 0
    while adjoined < 100:
        mat = tuple(
            tuple(rng.randrange(4) for _ in range(3)) for _ in range(3)
        )
        if not rep.check_invariant(ring, mat):
            continue
        adjoined += 1
        g = GroupElement(rep, ring, mat)
        # closure already contains the extra generator, so adjoining it
        # cannot enlarge the subgroup: the index is 1
        ok = ok and g in closure
    detail = (
        f"closure of SL3(Z/4) elementaries has {len(closure)} elements and "
        f"index 1 after adjoining 100 random determinant-1 matrices"
    )

    omit_ok = True
    for label, tag in [("A2", "defining-A"), ("B2", "defining-B")]:
        rs2 = build_root_system(label)
        rep2 = make_representation(rs2, tag)
        for ring_text in ("GF(2)", "GF(3)"):
            ring2 = parse_ring_spec(ring_text)
            for alpha in rs2.roots:
                omit_ok = omit_ok and omit_root_generation_check(
                    rep2, ring2, alpha
                )
    ok = ok and omit_ok
    _report(
        "A7",
        ok,
        detail + "; omitted-root generation holds for every root of A2 and "
        "B2 over GF(2) and GF(3)",
    )


def test_a8_cross_factor_commutation():
    rep = make_representation(build_root_system("A2"), "defining-A")
    ok = True
    checked = []
    for ring_text in ("Z/2 x Z/3", "Z/2 x Z/2"):
        ring = parse_ring_spec(ring_text)
        report = cross_factor_commute_check(rep, ring)
        ok = ok and report.ok
        checked.append(
            f"{ring_text}: {report.parameters_checked} additive generator pairs "
            f"over {report.pairs_checked} root pairs (opposite roots included)"
        )
    _report("A8", ok, "; ".join(checked))
