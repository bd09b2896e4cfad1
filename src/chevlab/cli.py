"""Command-line front end: reproducible experiments with structured output.

Exit codes: 0 when every verification in the run passed, 1 on a verification
failure (the failing witness is printed), 2 on malformed input.  With
--format json the output is a stable versioned document; runs are
deterministic for a fixed --seed.
"""
from __future__ import annotations

import contextlib
import functools
import json
import random
import sys

import click

from . import congruence as cg
from . import decompose as dc
from . import groups as gp
from . import linalg
from .chevalley import build_basis, g2_epsilon_signs
from .reps import UnsupportedRepresentation, make_representation
from .rings import (
    LISTING_LIMIT,
    RingError,
    RingTooLarge,
    artinian_decompose,
    ideal_from_generators,
    is_local,
    parse_ring_spec,
    sorted_values,
)
from .roots import RootSystemError, build_root_system

SCHEMA = "chevlab-report/1"

# parse and validation errors only: an internal error must not exit 2
_INPUT_ERRORS = (
    RingError,
    RootSystemError,
    UnsupportedRepresentation,
    dc.UnsupportedDecomposition,
    json.JSONDecodeError,
)


def _emit(fmt: str, passed: bool, payload: dict, lines: list[str]):
    if fmt == "json":
        doc = {"schema": SCHEMA, "passed": passed}
        doc.update(payload)
        click.echo(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            click.echo(line)
        click.echo("PASS" if passed else "FAIL")
    sys.exit(0 if passed else 1)


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@contextlib.contextmanager
def _input_checks(*more_errors):
    """Exit 2 on a parse or validation error (or one of `more_errors`) raised
    inside; anything else propagates."""
    try:
        yield
    except (*_INPUT_ERRORS, *more_errors) as exc:
        _fail_input(str(exc))


def _refuse(fmt: str, exc, prefix: str = "", **extra):
    """Exit 1 on a refused verification: closure caps, failed decompositions,
    refused certificates."""
    _emit(fmt, False, {"error": str(exc), **extra}, [f"{prefix}{exc}"])


def _check_elementary_count(rs, ring_spec, cap: int, omit=None):
    """Refuse a closure before listing it when its distinct members e_r(t),
    t != 0 and r not omitted, and the identity alone pass the cap."""
    if (len(rs.roots) - (omit is not None)) * (ring_spec.card - 1) + 1 > cap:
        raise gp.CapExceeded(f"closure exceeded cap {cap}")


def _parse_subgroup(rep, ring, text):
    text = text.strip()
    if text == "full":
        return cg.full_subgroup(rep, ring)
    if text.startswith("kernel:(") and text.endswith(")"):
        body = text[len("kernel:(") : -1]
        # elements are JSON: 3, [0,1] or [[1,0],2] per the ring's shape
        items = json.loads(f"[{body.strip().removesuffix(',')}]")
        gens = [ring.element_from_json(v) for v in items]
        ideal = ideal_from_generators(ring, gens)
        return cg.kernel_subgroup(rep, ring, ideal)
    _fail_input(f"unrecognized subgroup description {text!r}")


def _parse_root(rs, text):
    """A root given as a JSON list of integers (JSON booleans are not integers)."""
    value = json.loads(text)
    if (
        not isinstance(value, list)
        or any(type(x) is not int for x in value)
        or tuple(value) not in rs.root_set
    ):
        _fail_input(f"{text} is not a root of {rs.label} given as a JSON list of integers")
    return tuple(value)


# every decomposition algorithm returns a DecompositionReport
_DECOMPOSERS = {
    "prop2": dc.local_decompose,
    "merge": dc.decompose_over_product,
    "tavgen": lambda g: dc.tavgen_decompose(dc.local_decompose(g).word),
}


fmt_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
seed_option = click.option("--seed", type=int, default=0, show_default=True)


def _typed_command(parent, name: str):
    """A subcommand of `parent` with --type, --ring, --rep and --format: the
    function gets the root system, ring and representation they name, parsed
    under `_input_checks`, and fmt, then its own options."""

    def decorate(fn):
        @parent.command(name)
        @click.option("--type", "type_label", required=True)
        @click.option("--ring", "ring_text", required=True)
        @click.option("--rep", "rep_tag", default=None)
        @fmt_option
        @functools.wraps(fn)
        def command(type_label, ring_text, rep_tag, fmt, **options):
            with _input_checks():
                rs = build_root_system(type_label)
                ring = parse_ring_spec(ring_text)
                rep = make_representation(rs, rep_tag)
            fn(rs, ring, rep, fmt, **options)

        return command

    return decorate


@click.group()
def main():
    """Exact computations in Chevalley groups over finite commutative rings."""


# -- ring ------------------------------------------------------------------


@main.group()
def ring():
    """Finite ring operations."""


# The artinian round trip runs on every element of a ring up to this many,
# and above it on ROUND_TRIP_SAMPLE elements drawn by index with a fixed seed.
ROUND_TRIP_LIMIT = LISTING_LIMIT
ROUND_TRIP_SAMPLE = 1000


@ring.command("decompose-artinian")
@click.argument("spec_text")
@fmt_option
def ring_decompose_artinian(spec_text, fmt):
    """Split a finite ring into local factors and verify the isomorphism,
    on every element, or on a fixed sample above ROUND_TRIP_LIMIT elements
    (the JSON report then carries "sampled": true)."""
    with _input_checks():
        spec = parse_ring_spec(spec_text)
        dec = artinian_decompose(spec)
    sampled = spec.card > ROUND_TRIP_LIMIT
    if sampled:
        rng = random.Random(0)
        values = [
            spec.element_at(rng.randrange(spec.card)) for _ in range(ROUND_TRIP_SAMPLE)
        ]
    else:
        values = spec.elements()
    failures = [
        spec.format_element(v)
        for v in values
        if dec.from_components(dec.to_components(v)) != v
    ]
    lines = [f"{spec.label} ~ " + " x ".join(f.label for f in dec.factors)]
    lines.append(
        f"round-trip verified on {len(values)} {'sampled ' if sampled else ''}elements"
        if not failures
        else f"round-trip FAILED on {failures[:3]}"
    )
    payload = {
        "ring": spec.label,
        "factors": [f.label for f in dec.factors],
        "verified_elements": len(values) - len(failures),
        "failures": failures[:10],
    }
    if sampled:
        payload["sampled"] = True
    _emit(fmt, not failures, payload, lines)


# -- roots -------------------------------------------------------------------


@main.group()
def roots():
    """Root system queries."""


@roots.command("show")
@click.option("--type", "type_label", required=True)
@fmt_option
def roots_show(type_label, fmt):
    """List the roots, simple system, and length classes."""
    with _input_checks():
        rs = build_root_system(type_label)
    lines = [f"{rs.label}: {len(rs.roots)} roots, rank {rs.rank}"]
    lines.append(
        "simple roots: "
        + ", ".join(f"{rs.root_name(s)} {list(s)}" for s in rs.simple)
    )
    for r in rs.positive:
        cls = "long" if r in rs.long_roots() else "short"
        if len(rs.length_classes()) == 1:
            cls = "-"
        lines.append(
            f"  +{rs.root_name(r)} {list(r)} height {rs.height(r)} {cls}"
        )
    payload = {
        "type": rs.label,
        "rank": rs.rank,
        "roots": [list(r) for r in rs.roots],
        "simple": [list(s) for s in rs.simple],
        "positive": [list(r) for r in rs.positive],
        "length_classes": rs.length_classes(),
    }
    _emit(fmt, True, payload, lines)


# -- chevalley ----------------------------------------------------------------


@main.command("chevalley")
@click.argument("action", type=click.Choice(["constants"]))
@click.argument("type_label")
@fmt_option
def chevalley_cmd(action, type_label, fmt):
    """Emit the integral commutator-coefficient table for a type, each row replayed over Z."""
    with _input_checks():
        rs = build_root_system(type_label)
        table = build_basis(rs)
        rep = make_representation(rs)
    lines = [f"commutator coefficients for {rs.label} (order: (i+j, i) ascending)"]
    rows = []
    failures = []
    for a in rs.roots:
        for b in rs.roots:
            if b == tuple(-x for x in a):
                continue
            entries = rs.commutator_root_list(a, b)
            if not entries:
                continue
            coeffs = table.commutator_coefficients(a, b)
            row = {
                "a": list(a),
                "b": list(b),
                "terms": [
                    {"i": i, "j": j, "root": list(g), "coefficient": coeffs[(i, j)]}
                    for i, j, g in entries
                ],
            }
            rows.append(row)
            terms = " ".join(
                f"e_{rs.root_name(g)}({coeffs[(i, j)]:+d} s^{i} t^{j})"
                for i, j, g in entries
            )
            lines.append(
                f"[e_{rs.root_name(a)}(s), e_{rs.root_name(b)}(t)] = {terms}"
            )
            if not gp.expansion_replays(rep, a, b):
                failures.append(f"expansion of ({list(a)}, {list(b)}) fails in {rep.tag}")
                lines.append(f"replay failure: {failures[-1]}")
    payload = {"type": rs.label, "rows": rows}
    if failures:
        payload["failures"] = failures
    if rs.letter == "G":
        eps = g2_epsilon_signs(table)
        payload["unit_signs"] = eps
        lines.append("computed unit signs: " + json.dumps(eps, sort_keys=True))
    _emit(fmt, not failures, payload, lines)


# -- group ---------------------------------------------------------------------


@main.group()
def group():
    """Group element computations."""


@_typed_command(group, "verify-relations")
@click.option("--mode", type=click.Choice(["R1", "R2", "both"]), default="both")
@seed_option
def group_verify_relations(rs, ring_spec, rep, fmt, mode, seed):
    """Exhaustively (or by fixed-seed sampling) check the defining relations."""
    report = gp.verify_steinberg_relations(rep, ring_spec, mode=mode, seed=seed)
    lines = [
        f"{rs.label} over {ring_spec.label} in {rep.tag}: "
        f"additivity {report.additivity_checked} checks, "
        f"commutator {report.commutator_checked} checks, "
        f"{report.excluded_pairs} opposite pairs excluded, "
        f"{'exhaustive' if report.exhaustive else 'sampled'}"
    ]
    unit_signs = None
    if rs.letter == "G":
        unit_signs = g2_epsilon_signs(build_basis(rs))
        lines.append("computed unit signs: " + json.dumps(unit_signs, sort_keys=True))
    if report.caveat:
        lines.append(f"note: {report.caveat}")
    for f in report.failures[:5]:
        lines.append(f"failure witness: {f}")
    payload = {
        "type": rs.label,
        "ring": ring_spec.label,
        "rep": rep.tag,
        "additivity_checked": report.additivity_checked,
        "commutator_checked": report.commutator_checked,
        "excluded_pairs": report.excluded_pairs,
        "exhaustive": report.exhaustive,
        "failures": [str(f) for f in report.failures[:20]],
        "caveat": report.caveat,
        "unit_signs": unit_signs,
    }
    _emit(fmt, report.ok, payload, lines)


@_typed_command(group, "decompose")
@click.option(
    "--algorithm",
    type=click.Choice(["prop2", "tavgen", "merge"]),
    default="prop2",
    show_default=True,
)
@click.option("--input", "input_text", required=True, help="matrix as JSON rows")
def group_decompose(rs, ring_spec, rep, fmt, algorithm, input_text):
    """Decompose a matrix into a bounded product of elementary generators."""
    with _input_checks(gp.GroupError):
        dc.check_decomposition_supported(rs)
        if algorithm != "merge" and not is_local(ring_spec)[0]:
            _fail_input(
                f"--algorithm {algorithm} needs a local ring and {ring_spec.label} "
                f"is not local; use --algorithm merge"
            )
        rows = json.loads(input_text)
        g = gp.GroupElement.from_json(rep, ring_spec, rows)
        if not rep.check_invariant(ring_spec, g.mat):
            _fail_input("matrix does not preserve the representation form")
        linalg.mat_inverse(ring_spec, g.mat)
    try:
        with _input_checks():  # an UnsupportedDecomposition is bad input
            report = _DECOMPOSERS[algorithm](g)
    except (gp.GroupError, dc.NotInBigCell) as exc:
        _refuse(fmt, exc, "decomposition failed: ")
    lines = [
        f"{report.algorithm} decomposition over {ring_spec.label}: "
        f"length {report.length} <= bound {report.bound}",
        f"constants: {json.dumps(dict(report.constants), sort_keys=True)}",
        f"word: {json.dumps(report.word.to_json())}",
        "verified: evaluation reproduces the input exactly",
    ]
    payload = {"type": rs.label, "ring": ring_spec.label, "rep": rep.tag}
    payload.update(report.to_json())
    _emit(fmt, report.verified, payload, lines)


@_typed_command(group, "closure")
@click.option("--omit-root", "omit_text", default=None, help="root as JSON list")
@click.option("--cap", type=click.IntRange(min=1), default=2 * 10**6, show_default=True)
def group_closure(rs, ring_spec, rep, fmt, omit_text, cap):
    """Brute-force closure of the elementary generators."""
    with _input_checks():
        omit = _parse_root(rs, omit_text) if omit_text else None
    try:
        _check_elementary_count(rs, ring_spec, cap, omit)
        closure = gp.subgroup_closure(
            gp.all_elementaries(rep, ring_spec, omit_root=omit), cap=cap
        )
    except gp.CapExceeded as exc:
        _refuse(fmt, exc)
    lines = [
        f"closure of elementaries of {rs.label} over {ring_spec.label}"
        + (f" omitting {list(omit)}" if omit else "")
        + f": {len(closure)} elements"
    ]
    payload = {
        "type": rs.label,
        "ring": ring_spec.label,
        "rep": rep.tag,
        "omitted": list(omit) if omit else None,
        "order": len(closure),
    }
    _emit(fmt, True, payload, lines)


# -- congruence -----------------------------------------------------------------


@main.group()
def congruence():
    """Normal subgroup level sets and ideal certificates."""


@_typed_command(congruence, "certify")
@click.option("--subgroup", "subgroup_text", required=True)
def congruence_certify(rs, ring_spec, rep, fmt, subgroup_text):
    """Extract an ideal trapped by a normal subgroup, with a replayed trace."""
    with _input_checks():
        n = _parse_subgroup(rep, ring_spec, subgroup_text)
    try:
        trace = cg.ideal_certificate(n)
    except cg.CertificateError as exc:
        _refuse(fmt, exc, "certificate refused: ", refused=True)
    except RingTooLarge as exc:
        _fail_input(str(exc))
    ideal = trace.ideal
    lines = [
        f"subgroup: {n.description}",
        f"certified ideal: {ideal.short_label()} with {ideal.size} elements "
        f"({trace.branch})",
    ]
    for step in trace.steps:
        lines.append(f"  [{step.kind}] {step.detail}")
    lines.append(
        f"membership replayed for {len(trace.per_root)} roots x "
        f"{ideal.size} parameters"
    )
    payload = {
        "type": rs.label,
        "ring": ring_spec.label,
        "subgroup": n.description,
        "ideal": [ring_spec.element_to_json(v) for v in ideal.elements_list()],
        "branch": trace.branch,
        "steps": [{"kind": s.kind, "detail": s.detail} for s in trace.steps],
        "replayed_roots": len(trace.per_root),
    }
    _emit(fmt, True, payload, lines)


@_typed_command(congruence, "levels")
@click.option("--subgroup", "subgroup_text", required=True)
def congruence_levels(rs, ring_spec, rep, fmt, subgroup_text):
    """Dump the parameter level set of every root."""
    with _input_checks():
        n = _parse_subgroup(rep, ring_spec, subgroup_text)
    try:
        levels = [cg.level_set(n, r) for r in rs.roots]
    except RingTooLarge as exc:
        _fail_input(str(exc))
    lines = [f"level sets for {n.description}"]
    rows = []
    for r, ls in zip(rs.roots, levels):
        values = [
            ring_spec.element_to_json(v) for v in sorted_values(ring_spec, ls.values)
        ]
        rows.append(
            {"root": list(r), "values": values, "is_ideal": ls.is_ideal}
        )
        lines.append(
            f"  {rs.root_name(r)}: {values} "
            f"({'ideal' if ls.is_ideal else 'additive subgroup only'})"
        )
    payload = {"type": rs.label, "ring": ring_spec.label, "levels": rows}
    _emit(fmt, True, payload, lines)


# -- ebg ---------------------------------------------------------------------


@main.group()
def ebg():
    """Fourfold unipotent normal form checks."""


@_typed_command(ebg, "check")
@click.option("--cap", type=click.IntRange(min=1), default=10**6, show_default=True)
def ebg_check(rs, ring_spec, rep, fmt, cap):
    """Exhaustively express every group element in the fourfold form."""
    with _input_checks():
        dc.check_decomposition_supported(rs)
        if not is_local(ring_spec)[0]:
            _fail_input(
                f"the fourfold form needs a local ring; {ring_spec.label} is not local"
            )
    try:
        _check_elementary_count(rs, ring_spec, cap)
        words = gp.subgroup_closure(
            gp.elementary_generator_words(rep, ring_spec),
            cap=cap,
            track_words=True,
        )
    except gp.CapExceeded as exc:
        _refuse(fmt, exc)
    total = len(words)
    good = 0
    witness = None
    for element, word in words.items():
        try:
            report = dc.tavgen_decompose(word)
            if report.verified and report.word.evaluate() == element:
                good += 1
            elif witness is None:
                witness = element
        except gp.GroupError:
            if witness is None:
                witness = element
    lines = [f"{good}/{total} elements in (U+U-)^4"]
    if witness is not None:
        lines.append(f"failure witness: {witness.to_json()}")
    payload = {
        "type": rs.label,
        "ring": ring_spec.label,
        "rep": rep.tag,
        "total": total,
        "in_fourfold_form": good,
        "witness": witness.to_json() if witness is not None else None,
    }
    _emit(fmt, good == total, payload, lines)


if __name__ == "__main__":
    main()
