import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chevlab import congruence
from chevlab.congruence import (
    CertificateError,
    NormalSubgroupHandle,
    check_normal,
    cross_factor_commute_check,
    full_subgroup,
    ideal_certificate,
    kernel_subgroup,
    level_set,
    materialized_subgroup,
    omit_root_generation_check,
    weyl_level_equality,
)
from chevlab.groups import (
    all_elementaries,
    commutator,
    elementary,
    in_congruence_kernel,
    subgroup_closure,
)
from chevlab.reps import make_representation
from chevlab.rings import IdealHandle, ZmodRing, ideal_from_generators, parse_ring_spec
from chevlab.roots import build_root_system


A2 = build_root_system("A2")
B2 = build_root_system("B2")
C2 = build_root_system("C2")
G2 = build_root_system("G2")


def kernel_mod(rs, tag, n, gens):
    rep = make_representation(rs, tag)
    ring = ZmodRing(n)
    ideal = ideal_from_generators(ring, gens)
    return rep, ring, kernel_subgroup(rep, ring, ideal)


def test_level_set_kernel_sl3_z4():
    rep, ring, n = kernel_mod(A2, "defining-A", 4, [2])
    for alpha in A2.roots:
        ls = level_set(n, alpha)
        assert ls.values == frozenset({0, 2})
        assert ls.is_ideal


def materialized_level(ring_text, params):
    """Level set of the first root in the hand-built set {e_a(t) : t in params}."""
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec(ring_text)
    alpha = A2.roots[0]
    members = frozenset(elementary(rep, ring, alpha, t) for t in params)
    return ring, level_set(NormalSubgroupHandle(rep, ring, "materialized", members), alpha)


def test_level_set_not_additively_closed():
    with pytest.raises(CertificateError, match="not additively closed"):
        materialized_level("Z/4", [0, 1])


def test_level_set_additive_subgroup_that_is_not_an_ideal():
    ring, ls = materialized_level("GF(4)", [(0, 0), (1, 0)])
    assert ls.values == {ring.zero, ring.one}
    assert not ls.is_ideal and ls.ideal is None


@pytest.mark.parametrize(
    "label, tag, modulus, gen",
    [
        ("A2", "defining-A", 9, 3),
        ("B3", "defining-B", 27, 9),
        ("C2", "defining-C", 9, 3),
        ("G2", "adjoint", 25, 5),
    ],
)
def test_certificate_computes_each_level_set_once(monkeypatch, label, tag, modulus, gen):
    calls = []

    def counted(n, alpha):
        calls.append(alpha)
        return level_set(n, alpha)

    monkeypatch.setattr(congruence, "level_set", counted)
    rs = build_root_system(label)
    rep, ring, n = kernel_mod(rs, tag, modulus, [gen])
    ideal_certificate(n)
    # one table of level sets, shared by the A2 head, the cover steps and the spreads
    assert sorted(calls) == sorted(rs.roots)


def test_level_set_full_group():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    n = full_subgroup(rep, ring)
    assert level_set(n, (1, -1, 0)).values == frozenset(ring.elements())


def test_level_set_trivial_subgroup():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(2)
    triv = materialized_subgroup(rep, ring, [], cap=10)
    assert level_set(triv, (1, -1, 0)).values == frozenset({0})


@pytest.mark.parametrize(
    "ring_text, length, param, size",
    [
        ("Z/4", "short", 2, 32),
        ("Z/4", "long", 2, 1024),
        ("GF(2)[x]/(x^2)", "short", [0, 1], 32),
        ("GF(2)[x]/(x^2)", "long", [0, 1], 1024),
    ],
)
def test_sp4_normal_closure_sizes(ring_text, length, param, size):
    rep = make_representation(C2, "defining-C")
    ring = parse_ring_spec(ring_text)
    root = min(C2.short_roots() if length == "short" else C2.long_roots())
    g = elementary(rep, ring, root, ring.element_from_json(param))
    assert len(materialized_subgroup(rep, ring, [g]).data) == size


def test_normal_closure_of_e3_is_the_sl3_z9_kernel_mod_3():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(9)
    n = materialized_subgroup(rep, ring, [elementary(rep, ring, (1, -1, 0), 3)])
    ideal = ideal_from_generators(ring, [3])
    # |ker(SL3(Z/9) -> SL3(Z/3))| = 3^8
    assert len(n.data) == 3**8
    assert all(in_congruence_kernel(g, ideal) for g in n.data)


def test_generation_and_normal_closure_do_not_walk_the_ring(monkeypatch):
    def walk(*args):
        raise AssertionError("walked the ring")

    monkeypatch.setattr(ZmodRing, "elements", walk)
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    assert len(all_elementaries(rep, ring)) == len(A2.roots)
    assert len(congruence._conjugators(rep, ring)) == 2 * A2.rank  # one additive generator
    n = materialized_subgroup(rep, ring, [elementary(rep, ring, (1, -1, 0), 2)])
    assert len(n.data) == 2**8


@pytest.mark.parametrize("label, tag, ring_text, order", [
    ("A2", "defining-A", "Z/4", 43008),
    ("C2", "defining-C", "Z/3", 51840),
    ("G2", "adjoint", "GF(2)", 12096),
])
def test_the_conjugators_generate_the_elementary_group(label, tag, ring_text, order):
    """The e_r(g), r a +-simple root, that `check_normal` conjugates by
    generate E(R), so closure under them is normality."""
    rs = build_root_system(label)
    rep = make_representation(rs, tag)
    ring = parse_ring_spec(ring_text)
    letters = congruence._conjugators(rep, ring)
    assert len(letters) == 2 * rs.rank * len(ring.additive_generators())
    conjugators = [elementary(rep, ring, r, g) for r, g in letters]
    assert len(subgroup_closure(conjugators, cap=10**5)) == order
    assert len(subgroup_closure(all_elementaries(rep, ring), cap=10**5)) == order


def test_weyl_level_equality():
    rep, ring, n = kernel_mod(A2, "defining-A", 4, [2])
    assert weyl_level_equality(n, (1, -1, 0), (0, 1, -1))
    assert weyl_level_equality(n, (1, -1, 0), (1, -1, 0))
    rep, ring, n = kernel_mod(C2, "defining-C", 9, [3])
    assert weyl_level_equality(n, (2, 0), (0, 2))
    with pytest.raises(CertificateError):
        weyl_level_equality(n, (2, 0), (1, 1))


def test_check_normal_kernel():
    _, _, n = kernel_mod(A2, "defining-A", 4, [2])
    assert check_normal(n)


def test_check_normal_kernel_does_not_walk_the_ring(monkeypatch):
    def walk(*args):
        raise AssertionError("walked the ring")

    monkeypatch.setattr(IdealHandle, "elements_list", walk)
    monkeypatch.setattr(congruence, "_conjugators", walk)
    _, _, n = kernel_mod(A2, "defining-A", 2**61, [2])
    assert check_normal(n)


def test_certificate_sl3_z4():
    rep, ring, n = kernel_mod(A2, "defining-A", 4, [2])
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 2})
    assert "a2-multiplication" in trace.step_kinds()
    assert len(trace.per_root) == 6
    assert all(count == 2 for _, count in trace.per_root)


def test_certificate_full_group():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(4)
    trace = ideal_certificate(full_subgroup(rep, ring))
    assert trace.ideal.is_unit_ideal()


def test_certificate_sp4_z9():
    rep, ring, n = kernel_mod(C2, "defining-C", 9, [3])
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 3, 6})
    kinds = trace.step_kinds()
    assert "quarter-parameter" in kinds
    assert "difference-of-commutators" in kinds
    assert "long-coverage" in kinds


def test_certificate_b2_z9():
    rep, ring, n = kernel_mod(B2, "defining-B", 9, [3])
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 3, 6})


def test_certificate_refuses_sp4_z4():
    rep, ring, n = kernel_mod(C2, "defining-C", 4, [2])
    with pytest.raises(CertificateError, match="2 is not a unit"):
        ideal_certificate(n)


def test_refusal_is_about_division_only():
    # the doubling identity itself still holds over Z/4 as a matrix identity
    from chevlab.chevalley import build_basis

    rep = make_representation(B2, "defining-B")
    ring = ZmodRing(4)
    table = build_basis(B2)
    coeffs = table.commutator_coefficients((1, 0), (0, 1))
    c = coeffs[(1, 1)]
    for r in ring.elements():
        for s in ring.elements():
            lhs = commutator(
                elementary(rep, ring, (1, 0), r),
                elementary(rep, ring, (0, 1), s),
            )
            assert lhs == elementary(rep, ring, (1, 1), (c * r * s) % 4)


def test_certificate_b3_no_unit_requirement():
    b3 = build_root_system("B3")
    rep = make_representation(b3, "defining-B")
    ring = ZmodRing(4)  # 2 is not a unit; B3 must still work
    ideal = ideal_from_generators(ring, [2])
    n = kernel_subgroup(rep, ring, ideal)
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 2})
    assert "corrected-mixed-identity" in trace.step_kinds()


def test_certificate_c3_requires_unit():
    c3 = build_root_system("C3")
    rep = make_representation(c3, "defining-C")
    ring = ZmodRing(4)
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [2]))
    with pytest.raises(CertificateError, match="2 is not a unit"):
        ideal_certificate(n)


def test_certificate_c3_z9():
    c3 = build_root_system("C3")
    rep = make_representation(c3, "defining-C")
    ring = ZmodRing(9)
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [3]))
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 3, 6})


def test_certificate_g2_gf3():
    rep = make_representation(G2, "adjoint")
    ring = ZmodRing(3)
    trace = ideal_certificate(full_subgroup(rep, ring))
    assert trace.ideal.is_unit_ideal()
    assert "short-isolation" in trace.step_kinds()


def test_certificate_g2_z25_kernel():
    rep = make_representation(G2, "adjoint")
    ring = ZmodRing(25)
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [5]))
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 5, 10, 15, 20})


def test_certificate_rank1_rejected():
    a1 = build_root_system("A", 1)
    rep = make_representation(a1, "defining-A")
    ring = ZmodRing(4)
    with pytest.raises(CertificateError, match="rank"):
        ideal_certificate(full_subgroup(rep, ring))


def test_omit_root_generation_a2_gf2_against_enumeration():
    rep = make_representation(A2, "defining-A")
    ring = ZmodRing(2)
    for alpha in A2.roots:
        fast = omit_root_generation_check(rep, ring, alpha)
        slow = omit_root_generation_check(rep, ring, alpha, exhaustive=True)
        assert fast and slow


def test_omit_root_generation_b2_gf2_against_enumeration():
    rep = make_representation(C2, "defining-C")
    ring = ZmodRing(2)
    for alpha in C2.roots:
        fast = omit_root_generation_check(rep, ring, alpha)
        slow = omit_root_generation_check(rep, ring, alpha, exhaustive=True)
        assert fast and slow


def test_omit_root_rejects_rank1():
    a1 = build_root_system("A", 1)
    rep = make_representation(a1, "defining-A")
    ring = ZmodRing(2)
    with pytest.raises(Exception):
        omit_root_generation_check(rep, ring, (1, -1))


def test_cross_factor_commute_z2xz3():
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec("Z/2 x Z/3")
    report = cross_factor_commute_check(rep, ring)
    assert report.ok
    assert report.pairs_checked == 2 * 6 * 6


def test_cross_factor_commute_z2xz2_opposite_roots():
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec("Z/2 x Z/2")
    report = cross_factor_commute_check(rep, ring)
    assert report.ok


def test_cross_factor_checks_generator_pairs():
    """Z/4 x GF(9): one additive generator against two, on each of the 2 x 36
    ordered root pairs, where listing both factors made 2,592 checks."""
    rep = make_representation(A2, "defining-A")
    report = cross_factor_commute_check(rep, parse_ring_spec("Z/4 x GF(9)"))
    assert report.ok
    assert (report.pairs_checked, report.parameters_checked) == (72, 144)
    huge = parse_ring_spec(f"Z/{2**61} x GF(3)")  # not listed: a bounded walk
    assert cross_factor_commute_check(rep, huge).parameters_checked == 72


def test_cross_factor_sees_a_leaking_injection(monkeypatch):
    """An inject that also writes 1 into the next factor makes elementaries of
    different factors meet, and the check reports failures."""
    rep = make_representation(A2, "defining-A")
    ring = parse_ring_spec("Z/2 x Z/3")
    inject = ring.inject

    def leaky(i, v):
        other = (i + 1) % len(ring.factors)
        return ring.add(inject(i, v), inject(other, ring.factors[other].one))

    monkeypatch.setattr(ring, "inject", leaky)
    report = cross_factor_commute_check(rep, ring)
    assert not report.ok and report.failures


def test_cross_factor_requires_product():
    rep = make_representation(A2, "defining-A")
    with pytest.raises(Exception):
        cross_factor_commute_check(rep, ZmodRing(6))


def test_certificate_refuses_g2_z4():
    rep = make_representation(G2, "adjoint")
    ring = ZmodRing(4)
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [2]))
    with pytest.raises(CertificateError, match="2 is not a unit"):
        ideal_certificate(n)


def test_certificate_refuses_b2_gf2():
    rep = make_representation(B2, "defining-B")
    ring = ZmodRing(2)
    with pytest.raises(CertificateError, match="2 is not a unit"):
        ideal_certificate(full_subgroup(rep, ring))


def test_certificate_d4_simply_laced():
    d4 = build_root_system("D4")
    rep = make_representation(d4, "defining-D")
    ring = ZmodRing(4)
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [2]))
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 2})
    assert trace.branch.startswith("simply-laced")


def test_certificate_f4_long_a2_branch():
    f4 = build_root_system("F4")
    rep = make_representation(f4, "adjoint")
    ring = ZmodRing(4)  # 2 not a unit: the F4 route must not need it
    n = kernel_subgroup(rep, ring, ideal_from_generators(ring, [2]))
    trace = ideal_certificate(n)
    assert trace.ideal.element_set() == frozenset({0, 2})
    assert "corrected-mixed-identity" in trace.step_kinds()


def test_check_normal_kernel_over_a_huge_quotient_under_memory_limit():
    """Over GF(2)[x]/(x^64) the sample draws from the additive generators; it
    used to list all 2^64 ring elements and end in MemoryError."""
    code = (
        "from chevlab.congruence import check_normal, kernel_subgroup\n"
        "from chevlab.reps import make_representation\n"
        "from chevlab.rings import ideal_from_generators, parse_ring_spec\n"
        "from chevlab.roots import build_root_system\n"
        "ring = parse_ring_spec('GF(2)[x]/(x^64)')\n"
        "ideal = ideal_from_generators(ring, [ring.pad((0, 1))])\n"
        "rep = make_representation(build_root_system('A2'))\n"
        "print(check_normal(kernel_subgroup(rep, ring, ideal)))\n"
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=30, env=env, preexec_fn=limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
