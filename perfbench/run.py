"""chevlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; chevlab is imported from ./src.  The
process sets the workload up (imports, rings, root systems, structure tables,
representations, inputs from the seed), then runs whole rounds of timed calls
until --seconds have passed, then checks every output.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run, whose spans are also written to .perfbench/.  See README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# The set-up is measured in this process and in fresh child processes, so
# that no process-wide cache of chevlab is warm; setup_s is their median,
# in wall time, since pace.py does not scale anything as long as a set-up.
# The children run between the timed passes, which spreads the passes over a
# longer stretch of the machine's drifting speed.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("relations", "subgroups", "decompose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chevlab" / "__init__.py").is_file():
        print(f"error: chevlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [setup_s]

    def set_up_in_a_child():
        if tracer is None and len(setups) < SETUP_REPEATS:
            setups.append(child_setup_seconds(args))

    start = time.perf_counter()
    rounds = 0
    while True:
        workload.run_round(set_up_in_a_child)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.active = False
        per_layer = tracer.per_layer()
        tracer.uninstall()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    verdict = workload.check()
    metrics = dict(workload.metrics(), peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        from cli_probe import PROBES
        from tracing import per_layer_names, per_layer_unit

        walls, problems = PROBES[args.workload](ROOT, workload)
        verdict.problems += problems
        for cmd, wall in walls.items():
            per_layer[f"cli.{cmd}.wall_s"] = wall
        report = {
            name: {"value": per_layer.get(name, 0.0), "unit": per_layer_unit(name)}
            for name in per_layer_names()
        }
    else:
        while len(setups) < SETUP_REPEATS:
            set_up_in_a_child()
        metrics["setup_s"] = sorted(setups)[len(setups) // 2]
        report = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {rounds} round(s) in {timed_s:.2f}s, "
        f"{workload.call_seconds:.2f}s in calls "
        f"({workload.scaled_call_seconds:.2f}s at reference speed), "
        f"set-up {setup_s:.2f}s, "
        + ", ".join(f"{k} {v:.4g}" for k, v in sorted(metrics.items())),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": workload.attempted,
        "failed": verdict.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
