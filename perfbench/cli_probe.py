"""Each workload's command-line counterpart, run once outside the timed phase.

The probe starts `python -m chevlab.cli ... --format json` in a fresh process,
checks exit code 0 and `"passed": true`, and compares the reported counts
with what the same computation gave in the benchmark's own process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

CLI_TIMEOUT_S = 150


def run_cli(root: Path, args: list) -> tuple[float, int, dict | None]:
    """(wall seconds, exit code, parsed JSON report or None)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chevlab.cli", *args, "--format", "json"],
        capture_output=True, text=True, env=env, cwd=root, timeout=CLI_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    doc = None
    if proc.returncode == 0:
        doc = json.loads(proc.stdout)
    return wall, proc.returncode, doc


def _passed(code: int, doc) -> bool:
    return code == 0 and doc is not None and doc.get("passed") is True


def _last_output(op):
    """The op's last in-process output, or None when that call raised."""
    from workloads import Raised

    out = op.outputs[-1]
    return None if isinstance(out, Raised) else out


def probe_relations(root: Path, workload) -> tuple[dict, list]:
    from chevlab.groups import verify_steinberg_relations
    from chevlab.reps import make_representation
    from chevlab.rings import parse_ring_spec
    from chevlab.roots import build_root_system

    wall, code, doc = run_cli(root, [
        "group", "verify-relations", "--type", "G2", "--ring", "GF(4)", "--rep", "adjoint"])
    rep = make_representation(build_root_system("G2"), "adjoint")
    report = verify_steinberg_relations(rep, parse_ring_spec("GF(4)"))
    ok = (
        _passed(code, doc)
        and report.ok
        and doc["additivity_checked"] == report.additivity_checked
        and doc["commutator_checked"] == report.commutator_checked
    )
    problems = [] if ok else [f"CLI verify-relations: exit {code}, report {doc}"]
    return {"verify-relations": wall}, problems


def probe_subgroups(root: Path, workload) -> tuple[dict, list]:
    problems = []
    wall_closure, code, doc = run_cli(root, ["group", "closure", "--type", "A2", "--ring", "Z/4"])
    (closure,) = workload.of_kind("closure")
    kept = _last_output(closure)
    order = kept and kept[0]
    if not (_passed(code, doc) and doc["order"] == order):
        problems.append(f"CLI closure: exit {code}, order {doc and doc.get('order')} != {order}")

    wall_certify, code, doc = run_cli(root, [
        "congruence", "certify", "--type", "C2", "--ring", "Z/25", "--subgroup", "kernel:(5)"])
    op = next(op for op in workload.of_kind("certificate") if op.case.label.startswith("C2/Z/25/"))
    kept = _last_output(op)
    ring = op.case.subgroup.ring
    ideal = kept and [ring.element_to_json(v) for v in kept[0].ideal.elements_list()]
    if not (
        _passed(code, doc)
        and kept is not None
        and doc["ideal"] == ideal
        and doc["replayed_roots"] == len(kept[0].per_root)
    ):
        problems.append(f"CLI certify: exit {code}, ideal {doc and doc.get('ideal')} != {ideal}")
    return {"closure": wall_closure, "certify": wall_certify}, problems


def probe_decompose(root: Path, workload) -> tuple[dict, list]:
    op = next(
        op for op in workload.of_kind("local")
        if op.case.group.rep.rs.label == "A3" and op.case.group.ring.label == "GF(2)"
    )
    rows = op.case.value.to_json()
    wall, code, doc = run_cli(root, [
        "group", "decompose", "--type", "A3", "--ring", "GF(2)", "--algorithm", "prop2",
        "--input", json.dumps(rows)])
    report = _last_output(op)
    ok = (
        _passed(code, doc)
        and report is not None
        and doc["length"] == report.length
        and doc["word"] == report.word.to_json()
    )
    problems = [] if ok else [f"CLI decompose: exit {code}, report {doc}"]
    return {"decompose": wall}, problems


PROBES = {
    "relations": probe_relations,
    "subgroups": probe_subgroups,
    "decompose": probe_decompose,
}
