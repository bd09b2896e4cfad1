"""Each workload on a shrunken input set: its checks pass on chevlab's outputs
and its negative controls fire.  Run with `python3 -m pytest perfbench/tests`."""
import dataclasses
import random

import pytest

import reference as ref
import workloads as wl
from chevlab.groups import ElementaryWord


def run(workload):
    workload.setup()
    workload.run_round()
    return workload.check(), workload.metrics()


def test_relations_small(monkeypatch):
    monkeypatch.setattr(wl, "RELATION_CASES", [
        ("G2", "adjoint", ("Z/9", "GF(4)", "Z/4 x GF(3)"), 1, "both"),
        ("B3", "defining-B", ("GF(3)",), 2, "R1"),
    ])
    monkeypatch.setattr(wl, "LARGE_WORDS_PER_TYPE", 1)
    w = wl.Relations(5)
    verdict, metrics = run(w)
    assert verdict.problems == []
    # the large-modulus words fail on every pass, and nothing else fails
    assert verdict.failed == 2 * w.sweeps * w.passes
    assert w.attempted == 6 * w.sweeps * w.passes
    assert metrics["work_per_s"] > 0 and metrics["op_p50_ms"] > 0


def test_relation_reference_detects_a_wrong_coefficient():
    from chevlab.chevalley import build_basis
    from chevlab.reps import make_representation
    from chevlab.rings import parse_ring_spec
    from chevlab.roots import build_root_system

    rs = build_root_system("B2")
    rep = make_representation(rs)
    ring = parse_ring_spec("Z/9")
    group = ref.RefGroup(rep, ring)
    for a in rs.roots:
        for b in rs.roots:
            entries = rs.commutator_root_list(a, b) if b != wl._neg(a) else []
            if not entries:
                continue
            coeffs = build_basis(rs).commutator_coefficients(a, b)
            assert wl._r2_holds(group, a, b, 2, 5, entries, coeffs)
            i, j, _ = entries[-1]
            wrong = {**coeffs, (i, j): coeffs[(i, j)] + 1}
            assert not wl._r2_holds(group, a, b, 1, 1, entries, wrong)


def test_subgroups_small(monkeypatch):
    monkeypatch.setattr(wl, "CERTIFICATE_CASES", [
        ("A2", "Z/27", ("zmod", 27, 3)),
        ("A2", "GF(2)[x]/(x^3)", ("gf2x", 3, 1)),
        ("A2", "Z/4 x GF(3)", ("product", ((4, 0), (3, 1)))),
    ])
    monkeypatch.setattr(wl, "CLOSURE_CASES", [
        ("closure", 2, ref.sl_order(3, 2, 1)),
        ("small-closure", 3, ref.sl_order(3, 3, 1)),
    ])
    monkeypatch.setattr(wl, "CLOSURE_PAIR_SAMPLES", 50)
    monkeypatch.setattr(wl.Subgroups, "passes", 1)
    w = wl.Subgroups(3)
    verdict, metrics = run(w)
    assert verdict.problems == [] and verdict.failed == 0
    # the first closure once a round, the rest once a sweep
    assert w.attempted == 1 + w.sweeps * (1 + 3 * wl.GENERATORS_PER_CASE)
    (closure,) = w.of_kind("closure")
    assert closure.outputs[-1] == (168, None)
    (small,) = w.of_kind("small-closure")
    assert small.outputs[-1] == (5616, None)
    assert metrics["work_per_s"] > 0


def test_closure_problem_detects_wrong_sets():
    rng = random.Random(0)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert "order" in wl.closure_problem({identity}, 4, ref.sl_order(3, 2, 2), rng)
    assert "determinant" in wl.closure_problem({((2, 0, 0), (0, 1, 0), (0, 0, 1))}, 3, 1, rng)


def test_certificate_check_detects_a_wrong_ideal(monkeypatch):
    monkeypatch.setattr(wl, "CERTIFICATE_CASES", [("A2", "Z/27", ("zmod", 27, 3))])
    monkeypatch.setattr(wl, "GENERATORS_PER_CASE", 1)
    w = wl.Subgroups(1)
    w.setup()
    op = w.of_kind("certificate")[0]
    out = op.call()
    assert w.problem(op, out) is None
    op.case.ideal = ref.zmod_ideal(27, 9)
    assert w.problem(op, out) is not None


def test_decompose_small(monkeypatch):
    monkeypatch.setattr(wl, "DECOMPOSE_SETS", 2)
    monkeypatch.setattr(wl, "FOURFOLD_WORDS_PER_CASE", 1)
    w = wl.Decompose(9)
    verdict, metrics = run(w)
    assert verdict.problems == [] and verdict.failed == 0
    assert w.attempted == (25 * 2 + 4) * w.passes
    assert metrics["op_p99_ms"] >= metrics["op_p50_ms"] > 0


def test_decompose_check_detects_a_corrupted_word_and_a_broken_bound(monkeypatch):
    monkeypatch.setattr(wl, "LOCAL_CASES", [("A2", "GF(3)", 1)])
    monkeypatch.setattr(wl, "MERGE_CASES", [])
    monkeypatch.setattr(wl, "FOURFOLD_CASES", [])
    monkeypatch.setattr(wl, "DECOMPOSE_SETS", 1)
    w = wl.Decompose(4)
    w.setup()
    (op,) = w.ops
    report = op.call()
    assert wl.word_problem("local", op.case, report) is None
    assert len(report.word) > 0
    tight = dataclasses.replace(op.case, bound=len(report.word) - 1)
    assert "bound" in wl.word_problem("local", tight, report)
    letters = list(report.word.letters)
    root, t = letters[0]
    letters[0] = (root, (t + 1) % 3)
    report.word = ElementaryWord(report.word.rep, report.word.ring, letters)
    assert "re-multiply" in wl.word_problem("local", op.case, report)


@pytest.mark.parametrize("n", [7, 48, 100])
def test_spread_weyl_is_even(n):
    from collections import Counter

    from chevlab.roots import build_root_system

    rs = build_root_system("B3")
    words = [w for w, _ in rs.weyl_elements()]
    picks = wl.spread_weyl(rs, n, random.Random(n))
    assert len(picks) == n
    counts = Counter(picks)
    lo, hi = n // len(words), -(-n // len(words))
    assert all(lo <= counts[w] <= hi for w in words)
    # evenly spaced in the order Bruhat brute force tries them
    positions = sorted(words.index(w) for w in picks)
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    assert max(gaps) <= -(-len(words) // n) + 1
