"""The three benchmark workloads: relations, subgroups and decompose.

Each workload builds a fixed list of operations from the seed in `setup()`.
An operation is one call into chevlab on inputs the benchmark made.  A round
makes `passes` passes over the workload's schedule, which runs every
operation at least once.  Each call's wall time is scaled to the reference
speed of `pace.py`, read from a fixed loop timed between the calls, and an
operation's time is the median of its scaled repeats: the machine's speed
drifts by tens of percent over seconds to minutes, and the scaling takes
that drift out.  `check()` then checks every output of every repeat against
the independent arithmetic of `reference.py` or against a property the
method guarantees.  Checks are never timed.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from typing import Callable

import reference as ref
from pace import Pace

# ---------------------------------------------------------------------------
# Shared machinery


@dataclass
class Op:
    """One call into the program, run once per pass."""

    kind: str
    case: object
    call: Callable[[], object]
    seconds: list = field(default_factory=list)  # wall time, one per repeat
    starts: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # seconds at the reference speed
    outputs: list = field(default_factory=list)

    @property
    def time(self) -> float:
        return statistics.median(self.scaled)


@dataclass
class Raised:
    """The output of a call that raised instead of returning."""

    message: str


@dataclass
class Verdict:
    failed: int = 0
    problems: list = field(default_factory=list)

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


def busy_seconds(ops) -> float:
    return sum(op.time for op in ops)


def latency_metrics(ops) -> dict:
    """Median and 99th percentile over operations of each one's time."""
    ms = [op.time * 1e3 for op in ops]
    return {
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": statistics.quantiles(ms, n=100, method="inclusive")[98],
    }


def _neg(root):
    return tuple(-x for x in root)


def _draw(rng: random.Random, ring):
    """A uniformly random raw value of a ring made of Z/n factors."""
    comps = [rng.randrange(m) for m in ref.ring_moduli(ring)]
    return ref.join_value(ring, comps)


def _draw_nonzero(rng: random.Random, ring):
    while True:
        v = _draw(rng, ring)
        if any(ref.split_value(ring, v)):
            return v


def _prepare(label: str, tag: str | None = None, coefficients: bool = False):
    """Root system, representation, structure table and divided powers."""
    from chevlab.chevalley import build_basis
    from chevlab.reps import make_representation
    from chevlab.roots import build_root_system

    rs = build_root_system(label)
    rep = make_representation(rs, tag)
    table = build_basis(rs)
    for a in rs.roots:
        rep.divided_powers(a)
        if coefficients:
            for b in rs.roots:
                if b != _neg(a):
                    table.commutator_coefficients(a, b)
    return rep


class Workload:
    name = ""
    passes = 2
    sweeps = 1  # times a pass runs each operation
    # Operations of this kind fail on every run (see LARGE_MODULUS).
    expected_failure = None

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.pace = Pace()

    def schedule(self, pass_index: int) -> list[Op]:
        """The calls of one pass, in order."""
        return self.ops * self.sweeps

    def run_round(self, between_passes: Callable[[], None] = lambda: None):
        """Every pass of one round; `between_passes` runs, untimed, after each."""
        pace = self.pace
        for p in range(self.passes):
            pace.burst()
            for op in self.schedule(p):
                pace.tick()
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # counted as a failed operation
                    out = Raised(f"{type(exc).__name__}: {exc}")
                op.seconds.append(time.perf_counter() - t0)
                op.starts.append(t0)
                op.outputs.append(out if isinstance(out, Raised) else self.keep(op, out))
            pace.burst()
            between_passes()
        for op in self.ops:
            for t0, s in zip(op.starts[len(op.scaled):], op.seconds[len(op.scaled):]):
                op.scaled.append(s * pace.scale(t0, t0 + s))

    def keep(self, op: Op, out):
        """What the check needs from one output."""
        return out

    def of_kind(self, *kinds) -> list[Op]:
        return [op for op in self.ops if op.kind in kinds]

    @property
    def attempted(self) -> int:
        return sum(len(op.outputs) for op in self.ops)

    @property
    def call_seconds(self) -> float:
        """Wall time spent inside the program's calls, over every repeat."""
        return sum(sum(op.seconds) for op in self.ops)

    @property
    def scaled_call_seconds(self) -> float:
        """The same at the reference speed of `pace.py`."""
        return sum(sum(op.scaled) for op in self.ops)

    def check(self) -> Verdict:
        verdict = Verdict()
        for op in self.ops:
            for out in op.outputs:
                if isinstance(out, Raised):
                    problem = f"{op.kind} call raised {out.message}"
                else:
                    problem = self.problem(op, out)
                if problem:
                    verdict.failed += 1
                    if op.kind != self.expected_failure:
                        verdict.problems.append(problem)
        self.controls(verdict)
        return verdict

    def problem(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def controls(self, verdict: Verdict):
        """Reference comparisons and negative controls that span outputs."""


# ---------------------------------------------------------------------------
# relations


# (type, representation, rings, sampled parameter pairs per call, relations)
# F4 is checked on R1 only: R2 needs every F4 commutator coefficient, a 13 s
# solve that each of the fresh set-ups behind setup_s would repeat.
RELATION_CASES = [
    ("B3", "defining-B", ("Z/9", "GF(4)", "Z/4 x GF(3)"), 1, "both"),
    ("C3", "defining-C", ("Z/9", "GF(4)", "Z/4 x GF(3)"), 1, "both"),
    ("D4", "defining-D", ("Z/9", "GF(4)", "Z/4 x GF(3)"), 1, "both"),
    ("G2", "adjoint", ("Z/9", "GF(4)", "Z/4 x GF(3)"), 1, "both"),
    ("F4", "adjoint", ("GF(2)", "GF(3)"), 4, "R1"),
]

# Word evaluations over a modulus above 2^32.  chevlab's numpy product
# multiplies in int64 without an overflow guard from dimension 6 on, so these
# fail today; their parameters do not depend on the seed, so they fail on
# every run.  The ring is never enumerated: Z/n.elements() would allocate n.
LARGE_MODULUS = "Z/4294967311"
LARGE_CASES = [("D3", "defining-D"), ("B3", "defining-B")]
LARGE_WORDS_PER_TYPE = 4
LARGE_WORD_LENGTH = 12
LARGE_SEED = 4294967311


@dataclass
class RelationCase:
    rep: object
    ring: object
    sample: int
    mode: str


def expected_checks(case: RelationCase) -> tuple[int, int]:
    """(R1, R2) checks of one sampled call: |Phi| P and (|Phi|^2 - |Phi|) P."""
    rs = case.rep.rs
    phi = ref.root_count(rs.letter, rs.rank)
    r2 = (phi * phi - phi) * case.sample if case.mode != "R1" else 0
    return phi * case.sample, r2


def _evaluate(rep, ring, letters):
    from chevlab.groups import ElementaryWord

    return ElementaryWord(rep, ring, letters).evaluate().mat


class Relations(Workload):
    name = "relations"
    sweeps = 2
    expected_failure = "large-modulus"

    def setup(self):
        from chevlab.groups import verify_steinberg_relations
        from chevlab.rings import parse_ring_spec

        for label, tag, rings, sample, mode in RELATION_CASES:
            rep = _prepare(label, tag, coefficients=mode != "R1")
            for text in rings:
                case = RelationCase(rep, parse_ring_spec(text), sample, mode)
                call = partial(
                    verify_steinberg_relations, rep, case.ring, mode=mode,
                    loop_cap=0, sample=sample, seed=self.rng.randrange(2**31),
                )
                self.ops.append(Op("relations", case, call))

        big = parse_ring_spec(LARGE_MODULUS)
        (modulus,) = ref.ring_moduli(big)
        fixed = random.Random(LARGE_SEED)
        for label, tag in LARGE_CASES:
            rep = _prepare(label, tag)
            group = ref.RefGroup(rep, big)
            roots = list(rep.rs.roots)
            for _ in range(LARGE_WORDS_PER_TYPE):
                letters = [
                    (fixed.choice(roots), fixed.randrange(1, modulus))
                    for _ in range(LARGE_WORD_LENGTH)
                ]
                self.ops.append(Op(
                    "large-modulus", (group, letters), partial(_evaluate, rep, big, letters)))

    def metrics(self) -> dict:
        ops = self.of_kind("relations")
        checks = sum(sum(expected_checks(op.case)) for op in ops)
        out = {"work_per_s": checks / busy_seconds(ops)}
        out.update(latency_metrics(ops))
        return out

    def problem(self, op: Op, out) -> str | None:
        if op.kind == "large-modulus":
            group, letters = op.case
            if group.matches(out, group.word(letters)):
                return None
            return f"{group.rep.rs.label} word over {LARGE_MODULUS} evaluated wrongly"
        case = op.case
        rs = case.rep.rs
        r1_expected, r2_expected = expected_checks(case)
        excluded = ref.root_count(rs.letter, rs.rank) if case.mode != "R1" else 0
        if (
            out.ok
            and not out.exhaustive
            and out.additivity_checked == r1_expected
            and out.commutator_checked == r2_expected
            and out.excluded_pairs == excluded
        ):
            return None
        return (
            f"relations {rs.label}/{case.ring.label}: ok={out.ok} "
            f"R1={out.additivity_checked} R2={out.commutator_checked}, "
            f"expected R1={r1_expected} R2={r2_expected}"
        )

    def controls(self, verdict: Verdict):
        """Elementary matrices, a product and one R2 identity per Z/n-based case."""
        from chevlab import linalg
        from chevlab.chevalley import build_basis

        rng = self.rng
        for op in self.of_kind("relations"):
            rep, ring = op.case.rep, op.case.ring
            try:
                group = ref.RefGroup(rep, ring)
            except ref.NoReference:
                continue
            rs = rep.rs
            label = f"{rs.label}/{ring.label}"
            roots = list(rs.roots)
            letters = [(rng.choice(roots), _draw(rng, ring)) for _ in range(3)]
            mats = [rep.elementary_matrix(ring, a, t) for a, t in letters]
            for (a, t), m in zip(letters, mats):
                verdict.require(
                    group.matches(m, group.word([(a, t)])),
                    f"elementary matrix {a}({t}) over {label} differs from exp(tX)",
                )
            verdict.require(
                group.matches(linalg.mat_mul(ring, mats[0], mats[1]), group.word(letters[:2])),
                f"product of two elementary matrices over {label} is wrong",
            )
            corrupted = [list(row) for row in mats[2]]
            corrupted[0][-1] = ring.add(corrupted[0][-1], ring.one)
            verdict.require(
                not group.matches(corrupted, group.word(letters[2:])),
                f"negative control: a corrupted matrix over {label} passed",
            )
            a, b = next(
                (a, b) for a in roots for b in roots
                if b != _neg(a) and rs.commutator_root_list(a, b)
            )
            entries = rs.commutator_root_list(a, b)
            coeffs = build_basis(rs).commutator_coefficients(a, b)
            s, t = _draw(rng, ring), _draw(rng, ring)
            verdict.require(
                _r2_holds(group, a, b, s, t, entries, coeffs),
                f"R2 for {a}, {b} over {label} fails in the reference",
            )
            wrong = dict(coeffs)
            i, j, _ = entries[0]
            wrong[(i, j)] += 1
            verdict.require(
                not _r2_holds(group, a, b, ring.one, ring.one, entries, wrong),
                f"negative control: a wrong R2 coefficient over {label} passed",
            )


def _r2_holds(group: ref.RefGroup, a, b, s, t, entries, coeffs) -> bool:
    """[e_a(s), e_b(t)] = prod e_{ia+jb}(C_ij s^i t^j), in reference arithmetic."""
    ring, moduli = group.ring, group.moduli
    sc, tc = ref.split_value(ring, s), ref.split_value(ring, t)

    def neg(comps):
        return ref.join_value(ring, [-c % m for c, m in zip(comps, moduli)])

    lhs = group.word([(a, s), (b, t), (a, neg(sc)), (b, neg(tc))])
    rhs = []
    for i, j, g in entries:
        comps = [
            coeffs[(i, j)] * pow(x, i, m) * pow(y, j, m) % m
            for x, y, m in zip(sc, tc, moduli)
        ]
        rhs.append((g, ref.join_value(ring, comps)))
    return lhs == group.word(rhs)


# ---------------------------------------------------------------------------
# subgroups


# Closures of the elementary generators e_a(t), t = 1..q-1, of A2 over Z/q:
# (op kind, q, |SL3(Z/q)|).  The SL3(Z/4) closure (43,008 elements) is one
# call of 10-15 s whose wall time varies by about 15% from call to call, even
# in one process on a steady machine; it runs once a round, and work_per_s
# is read from the SL3(Z/3) closure (5,616 elements, about 1 s), which runs
# in every sweep.
CLOSURE_CASES = [
    ("closure", 4, ref.sl_order(3, 2, 2)),  # 2^8 * 168 = 43,008
    ("small-closure", 3, ref.sl_order(3, 3, 1)),  # 3^3 * 8 * 26 = 5,616
]
CLOSURE_PAIR_SAMPLES = 2000

# (type, ring, ideal): ("zmod", n, g) is (g) in Z/n, ("gf2x", d, j) is (x^j)
# in GF(2)[x]/(x^d), ("product", ((n1, g1), (n2, g2))) is (g1) x (g2).
CERTIFICATE_CASES = [
    ("A2", "Z/27", ("zmod", 27, 3)),
    ("A2", "Z/27", ("zmod", 27, 9)),
    ("B2", "Z/9", ("zmod", 9, 3)),
    ("B3", "Z/27", ("zmod", 27, 9)),
    ("C2", "Z/25", ("zmod", 25, 5)),
    ("C3", "Z/9", ("zmod", 9, 3)),
    ("D4", "Z/4", ("zmod", 4, 2)),
    ("G2", "Z/25", ("zmod", 25, 5)),
    ("A2", "GF(2)[x]/(x^3)", ("gf2x", 3, 1)),
    ("A2", "GF(2)[x]/(x^3)", ("gf2x", 3, 2)),
    ("A2", "Z/4 x GF(3)", ("product", ((4, 2), (3, 0)))),
    ("A2", "Z/4 x GF(3)", ("product", ((4, 0), (3, 1)))),
]
# Each case is certified from this many generators of its ideal, each a
# different random unit multiple of the generator above.
GENERATORS_PER_CASE = 2


def expected_ideal(spec) -> frozenset:
    kind = spec[0]
    if kind == "zmod":
        return ref.zmod_ideal(spec[1], spec[2])
    if kind == "gf2x":
        return ref.gf2_truncated_ideal(spec[1], spec[2])
    return ref.product_ideal([ref.zmod_ideal(n, g) for n, g in spec[1]])


def random_generator(spec, rng: random.Random):
    """A random unit multiple of the ideal's generator, as a chevlab raw value."""

    def unit(n):
        while True:
            u = rng.randrange(1, n)
            if gcd(u, n) == 1:
                return u

    kind = spec[0]
    if kind == "zmod":
        _, n, g = spec
        return g * unit(n) % n
    if kind == "gf2x":
        _, d, j = spec
        u = (1,) + tuple(rng.randrange(2) for _ in range(d - 1))
        xj = tuple(int(i == j) for i in range(d))
        return ref.gf2_truncated_mul(u, xj, d)
    return tuple(g * unit(n) % n for n, g in spec[1])


@dataclass
class CertificateCase:
    label: str
    subgroup: object
    ideal: frozenset


def _certify(subgroup):
    from chevlab.congruence import ideal_certificate, level_set

    trace = ideal_certificate(subgroup)
    return trace, [level_set(subgroup, r) for r in subgroup.rep.rs.roots]


def closure_problem(mats: set, q: int, order: int, rng: random.Random) -> str | None:
    """Is this set of 3x3 matrices over Z/q all of SL3(Z/q), of the given order?"""
    if len(mats) != order:
        return f"order {len(mats)}, expected |SL3(Z/{q})| = {order}"
    if any(ref.det3(m, q) != 1 for m in mats):
        return "an element has determinant != 1"
    members = list(mats)
    for _ in range(CLOSURE_PAIR_SAMPLES):
        prod = ref.mat_mul(rng.choice(members), rng.choice(members), q)
        if tuple(map(tuple, prod)) not in mats:
            return "the set is not closed under multiplication"
    return None


@dataclass
class ClosureCase:
    q: int
    order: int


class Subgroups(Workload):
    """Closures of SL3(Z/4) and SL3(Z/3), and every certificate.

    A pass runs the SL3(Z/3) closure and every certificate `sweeps` times;
    the first pass of a round also runs the SL3(Z/4) closure.
    """

    name = "subgroups"
    sweeps = 3

    def setup(self):
        from chevlab.congruence import kernel_subgroup
        from chevlab.groups import GroupElement, subgroup_closure
        from chevlab.rings import ideal_from_generators, parse_ring_spec

        rep = _prepare("A2")
        for kind, q, order in CLOSURE_CASES:
            ring = parse_ring_spec(f"Z/{q}")
            group = ref.RefGroup(rep, ring)
            generators = [
                GroupElement(rep, ring, group.to_raw(group.word([(r, t)])))
                for r in rep.rs.roots
                for t in range(1, q)
            ]
            self.rng.shuffle(generators)
            self.ops.append(Op(
                kind, ClosureCase(q, order),
                partial(subgroup_closure, generators, cap=2 * order)))
        self.perturbed_found = set()

        certificates = []
        for label, text, spec in CERTIFICATE_CASES:
            rep = _prepare(label)
            ring = parse_ring_spec(text)
            for _ in range(GENERATORS_PER_CASE):
                gen = random_generator(spec, self.rng)
                subgroup = kernel_subgroup(rep, ring, ideal_from_generators(ring, [gen]))
                case = CertificateCase(
                    f"{rep.rs.label}/{ring.label}/{ring.format_element(gen)}",
                    subgroup, expected_ideal(spec))
                certificates.append(Op("certificate", case, partial(_certify, subgroup)))
        self.rng.shuffle(certificates)
        self.ops += certificates

    def schedule(self, pass_index: int) -> list[Op]:
        first = self.of_kind("closure") if pass_index == 0 else []
        return first + self.of_kind("small-closure", "certificate") * self.sweeps

    def keep(self, op: Op, out):
        if op.kind == "certificate":
            return out
        # Thousands of elements: check them now and keep only the verdict.
        q, order = op.case.q, op.case.order
        mats = {g.mat for g in out}
        _, *rest = next(iter(mats))
        if ((0, 0, 0), *rest) in mats:  # an element with its first row zeroed
            self.perturbed_found.add(q)
        return len(out), closure_problem(mats, q, order, self.rng)

    def metrics(self) -> dict:
        (closure,) = self.of_kind("small-closure")
        out = {"work_per_s": closure.case.order / closure.time}
        out.update(latency_metrics(self.of_kind("certificate")))
        return out

    def problem(self, op: Op, out) -> str | None:
        if op.kind != "certificate":
            _, problem = out
            return problem and f"closure of the SL3(Z/{op.case.q}) elementaries: {problem}"
        trace, levels = out
        case = op.case
        ideal = case.ideal
        n_roots = len(case.subgroup.rep.rs.roots)
        ok = (
            trace.ideal.element_set() == ideal
            and len(levels) == n_roots
            and all(ls.values == ideal for ls in levels)
            and len(trace.per_root) == n_roots
            and all(count == len(ideal) for _, count in trace.per_root)
        )
        return None if ok else f"certificate {case.label}: ideal or level sets differ"

    def controls(self, verdict: Verdict):
        verdict.require(
            ref.det3(((3, 0, 0), (0, 1, 0), (0, 0, 1)), 4) != 1,
            "negative control: a determinant-3 matrix passed the SL3 check",
        )
        verdict.require(
            not self.perturbed_found,
            "negative control: a perturbed matrix is in a closure",
        )
        verdict.require(
            closure_problem(
                {((1, 0, 0), (0, 1, 0), (0, 0, 1))}, 4, ref.sl_order(3, 2, 2), self.rng,
            ) is not None,
            "negative control: the trivial group passed as SL3(Z/4)",
        )
        verdict.require(
            ref.zmod_ideal(27, 3) != ref.zmod_ideal(27, 9)
            and ref.gf2_truncated_ideal(3, 1) != ref.gf2_truncated_ideal(3, 2),
            "negative control: distinct ideals compare equal",
        )


# ---------------------------------------------------------------------------
# decompose


# (type, ring, inputs per set)
LOCAL_CASES = [
    ("A3", "GF(2)", 6),
    ("B3", "GF(3)", 2),
    ("D4", "GF(2)", 1),
    ("G2", "GF(3)", 2),
    ("C2", "Z/9", 6),
]
MERGE_CASES = [
    ("A2", "Z/4 x GF(3)", 6),
    ("B2", "Z/360", 2),
]
# 41 sets of 25 decompositions: 1025 latency samples, so at least ten lie
# beyond the 99th percentile.  D4 costs most and sets the tail.
DECOMPOSE_SETS = 41
FOURFOLD_CASES = [("A2", "GF(3)"), ("A2", "Z/4"), ("B2", "GF(3)"), ("C2", "Z/9")]
# Each fourfold input is a word with one letter per root, in a random order,
# with random nonzero parameters.
FOURFOLD_WORDS_PER_CASE = 6


@dataclass
class DecomposeCase:
    group: ref.RefGroup
    letters: list  # the input word (fourfold) or lower . Weyl lift . upper
    expected: list  # the letters' product in reference arithmetic
    bound: int
    value: object = None  # the input matrix handed to local and merge


def spread_weyl(rs, n: int, rng: random.Random) -> list:
    """n Weyl words spread evenly over the whole Weyl group.

    A systematic sample of `weyl_elements()` with a random start: each
    element is drawn floor(n/|W|) or ceil(n/|W|) times, and the drawn
    elements are evenly spaced in the order Bruhat brute force tries them,
    so the mix of cheap and costly cells hardly depends on the seed.
    """
    words = [word for word, _ in rs.weyl_elements()]
    g = len(words)
    start = rng.random()
    picks = [words[int((start + k) * g / n) % g] for k in range(n)]
    rng.shuffle(picks)
    return picks


def bruhat_spread_letters(rs, ring, w, rng: random.Random) -> list:
    """Letters of lower . lift(w) . upper.

    lower and upper carry a random parameter on every negative and positive
    root; the lift of w is its reduced word in blocks w_i(1) = e_i(1) e_-i(-1)
    e_i(1).
    """
    moduli = ref.ring_moduli(ring)
    one = ref.join_value(ring, [1] * len(moduli))
    minus_one = ref.join_value(ring, [m - 1 for m in moduli])
    lower = [(r, _draw(rng, ring)) for r in rs.roots if not rs.is_positive(r)]
    upper = [(r, _draw(rng, ring)) for r in rs.positive]
    lift = []
    for i in w:
        s = rs.simple[i]
        lift += [(s, one), (_neg(s), minus_one), (s, one)]
    return lower + lift + upper


def _fourfold(rep, ring, letters):
    from chevlab.decompose import tavgen_decompose
    from chevlab.groups import ElementaryWord

    return tavgen_decompose(ElementaryWord(rep, ring, letters))


class Decompose(Workload):
    name = "decompose"

    def setup(self):
        from chevlab.decompose import decompose_over_product, local_decompose
        from chevlab.groups import GroupElement
        from chevlab.rings import parse_ring_spec

        calls = {"local": local_decompose, "merge": decompose_over_product}
        for kind, cases in (("local", LOCAL_CASES), ("merge", MERGE_CASES)):
            for label, text, per_set in cases:
                group = ref.RefGroup(_prepare(label), parse_ring_spec(text))
                rs = group.rep.rs
                bound = ref.word_bounds(rs.letter, rs.rank)[kind]
                for w in spread_weyl(rs, per_set * DECOMPOSE_SETS, self.rng):
                    letters = bruhat_spread_letters(rs, group.ring, w, self.rng)
                    expected = group.word(letters)
                    value = GroupElement(group.rep, group.ring, group.to_raw(expected))
                    case = DecomposeCase(group, letters, expected, bound, value)
                    self.ops.append(Op(kind, case, partial(calls[kind], value)))
        for label, text in FOURFOLD_CASES:
            group = ref.RefGroup(_prepare(label), parse_ring_spec(text))
            rs = group.rep.rs
            bound = ref.word_bounds(rs.letter, rs.rank)["fourfold"]
            for _ in range(FOURFOLD_WORDS_PER_CASE):
                roots = list(rs.roots)
                self.rng.shuffle(roots)
                letters = [(r, _draw_nonzero(self.rng, group.ring)) for r in roots]
                case = DecomposeCase(group, letters, group.word(letters), bound)
                self.ops.append(Op(
                    "fourfold", case, partial(_fourfold, group.rep, group.ring, letters)))
        self.rng.shuffle(self.ops)

    def metrics(self) -> dict:
        four = self.of_kind("fourfold")
        out = {"work_per_s": len(four) / busy_seconds(four)}
        out.update(latency_metrics(self.of_kind("local", "merge")))
        return out

    def problem(self, op: Op, out) -> str | None:
        problem = word_problem(op.kind, op.case, out)
        return problem and f"{op.kind} decomposition: {problem}"

    def controls(self, verdict: Verdict):
        covered = set()
        for op in self.ops:
            out = op.outputs[-1]
            if op.kind in covered or isinstance(out, Raised) or word_problem(op.kind, op.case, out):
                continue
            letters = list(out.word.letters)
            if not letters:
                continue
            covered.add(op.kind)
            group = op.case.group
            root, t = letters[0]
            comps = [(c + 1) % m for c, m in zip(ref.split_value(group.ring, t), group.moduli)]
            letters[0] = (root, ref.join_value(group.ring, comps))
            verdict.require(
                group.word(letters) != op.case.expected,
                f"negative control: a corrupted {op.kind} word re-multiplied to its input",
            )
        verdict.require(
            covered == {"local", "merge", "fourfold"},
            "negative controls did not cover every decomposition kind",
        )
        verdict.require(
            not ref.fourfold_blocks_ok([1, -1] * 4 + [1]),
            "negative control: nine alternating blocks passed the fourfold check",
        )


def word_problem(kind: str, case: DecomposeCase, report) -> str | None:
    """Why a decomposition report is wrong, or None when it is right."""
    group = case.group
    letters = report.word.letters
    if group.word(letters) != case.expected:
        return "the word does not re-multiply to the input"
    if len(letters) > case.bound or report.bound != case.bound:
        return f"length {len(letters)} against bound {report.bound}, expected bound {case.bound}"
    if kind == "fourfold" and not ref.fourfold_blocks_ok(
        [group.sign(root) for root, _ in letters]
    ):
        return "the word is not in (U+ U-)^4 form"
    return None


WORKLOADS = {w.name: w for w in (Relations, Subgroups, Decompose)}
