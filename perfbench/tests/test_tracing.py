"""The tracer, and BENCHMARK.json against the metrics the benchmark prints.
Run with `python3 -m pytest perfbench/tests`."""
import json
from pathlib import Path

import chevlab.congruence
import chevlab.decompose
import chevlab.groups
import chevlab.linalg
import run
import tracing
from chevlab.groups import ElementaryWord
from chevlab.reps import make_representation
from chevlab.rings import parse_ring_spec
from chevlab.roots import build_root_system

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_spans_counts_and_restore():
    originals = (
        chevlab.linalg.mat_mul,
        chevlab.groups.ElementaryWord.evaluate,
        chevlab.decompose.unipotent_coordinates,
        chevlab.congruence.subgroup_closure,
        vars(type(parse_ring_spec("Z/9")))["mul"],
    )
    rep = make_representation(build_root_system("A2"))
    ring = parse_ring_spec("Z/9")
    roots = rep.rs.roots
    word = ElementaryWord(rep, ring, [(roots[0], 2), (roots[1], 3), (roots[0], 4)])

    tracer = tracing.Tracer()
    tracer.install()
    # a function imported by name is wrapped where it was imported, too
    assert chevlab.congruence.subgroup_closure is chevlab.groups.subgroup_closure
    assert chevlab.congruence.subgroup_closure is not originals[3]
    tracer.active = True
    word.evaluate()
    word.evaluate()  # cached: a second span, no new letters
    tracer.active = False
    metrics = tracer.per_layer()
    tracer.uninstall()

    assert metrics["groups.ElementaryWord.evaluate.calls"] == 2
    assert metrics["groups.ElementaryWord.evaluate.letters"] == 3
    assert metrics["linalg.mat_mul.calls.zmod.d3"] == 3
    assert metrics["reps.elementary_matrix.calls"] == 3
    assert metrics["reps.elementary_matrix.miss_ratio"] == 1.0
    assert 0 <= metrics["groups.ElementaryWord.evaluate.self_s"] <= metrics["linalg.mat_mul.self_s"] + 1
    assert set(metrics) | {f"cli.{c}.wall_s" for c in tracing.CLI_COMMANDS} == set(
        tracing.per_layer_names())
    assert (
        chevlab.linalg.mat_mul,
        chevlab.groups.ElementaryWord.evaluate,
        chevlab.decompose.unipotent_coordinates,
        chevlab.congruence.subgroup_closure,
        vars(type(ring))["mul"],
    ) == originals


def test_inactive_tracer_records_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = make_representation(build_root_system("A2"))
        ElementaryWord(rep, parse_ring_spec("Z/4"), [(rep.rs.roots[0], 1)]).evaluate()
    finally:
        tracer.uninstall()
    assert len(tracer.start) == 0 and not tracer.counts


def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in doc["per_layer"]] == tracing.per_layer_names()
    for m in doc["per_layer"]:
        assert m["unit"] == tracing.per_layer_unit(m["name"])
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(
        ["relations", "subgroups", "decompose"])
