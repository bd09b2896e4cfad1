import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from chevlab import congruence as cg
from chevlab import decompose, reps
from chevlab.chevalley import ChevalleyBasisTable, ChevalleyError
from chevlab.cli import main
from chevlab.groups import ElementaryWord, weyl_lift_word
from chevlab.rings import RingError, parse_ring_spec
from chevlab.roots import _neg, build_root_system

GOLDEN = Path(__file__).parent / "golden"


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_ring_decompose_artinian_z360():
    res = run("ring", "decompose-artinian", "Z/360")
    assert res.exit_code == 0
    assert "Z/8 x Z/9 x Z/5" in res.output
    assert "PASS" in res.output


def test_ring_decompose_artinian_json():
    res = run("ring", "decompose-artinian", "Z/360", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema"] == "chevlab-report/1"
    assert doc["factors"] == ["Z/8", "Z/9", "Z/5"]
    assert doc["passed"] is True


# golden name -> command, for the subcommands the other golden tests leave out
GOLDEN_REPORTS = {
    "ring_decompose_artinian_Z360": ["ring", "decompose-artinian", "Z/360"],
    "ring_decompose_artinian_GF2x_x2_x1_2": [
        "ring", "decompose-artinian", "GF(2)[x]/(x^2(x+1)^2)",
    ],
    "ring_decompose_artinian_GF5x_x3_x": ["ring", "decompose-artinian", "GF(5)[x]/(x^3-x)"],
    "ring_decompose_artinian_Z12xGF2x_x2_x": [
        "ring", "decompose-artinian", "Z/12 x GF(2)[x]/(x^2+x)",
    ],
    "roots_show_G2": ["roots", "show", "--type", "G2"],
    "group_verify_relations_A2_Z4": [
        "group", "verify-relations", "--type", "A2", "--ring", "Z/4",
    ],
    "group_verify_relations_B2_Z4xGF3": [
        "group", "verify-relations", "--type", "B2", "--ring", "Z/4 x GF(3)",
    ],
    "group_verify_relations_G2_adjoint_GF4": [
        "group", "verify-relations", "--type", "G2", "--rep", "adjoint", "--ring", "GF(4)",
    ],
    "group_verify_relations_A2_Z2_61xGF3_seed3": [
        "group", "verify-relations", "--type", "A2", "--ring",
        "Z/2305843009213693952 x GF(3)", "--seed", "3",
    ],
    "group_closure_A2_GF2_omit": [
        "group", "closure", "--type", "A2", "--ring", "GF(2)", "--omit-root", "[1,-1,0]",
    ],
    "group_closure_A2_Z4": ["group", "closure", "--type", "A2", "--ring", "Z/4"],
    "group_closure_G2_adjoint_GF2": [
        "group", "closure", "--type", "G2", "--rep", "adjoint", "--ring", "GF(2)",
    ],
}


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_report_matches_golden(name):
    res = run(*GOLDEN_REPORTS[name], "--format", "json")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / f"{name}.json").read_text()


def test_ring_malformed_input_exit_2():
    res = run("ring", "decompose-artinian", "Z/1")
    assert res.exit_code == 2


@pytest.mark.parametrize("spec, message", [
    ("GF(3)[x]/(x^)", "missing exponent"),
    ("GF(3)[x]/((x+1)", "unbalanced parenthesis in polynomial"),
    ("GF(3)[x]/(x+1))", "trailing input in polynomial: ')'"),
    ("GF(3)[x]/(x*2)", "trailing input in polynomial: '*2'"),
    ("GF(3)[x]/(())", "unexpected character ')' in polynomial"),
    ("GF(3)[x]/(2)", "quotient polynomial must have degree >= 1"),
    ("GF(3)[x]/(2x^2+1)", "quotient polynomial must be monic"),
    ("GF(4)[x]/(x)", "GF(4)[x]/(...): base order must be prime"),
])
def test_malformed_polynomial_quotient_exit_2(spec, message):
    res = run("ring", "decompose-artinian", spec)
    assert res.exit_code == 2
    assert f"error: {message}\n" in res.output
    assert "Traceback" not in res.output


def test_roots_show():
    res = run("roots", "show", "--type", "G2")
    assert res.exit_code == 0
    assert "12 roots" in res.output


def test_chevalley_constants_g2():
    res = run("chevalley", "constants", "G2", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert "unit_signs" in doc
    assert set(doc["unit_signs"]) == {"eps1", "eps2", "eps3", "eps4", "eps5"}


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "G2"])
def test_chevalley_constants_match_golden_report(label):
    res = run("chevalley", "constants", label, "--format", "json")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / f"chevalley_constants_{label}.json").read_text()


@pytest.mark.parametrize("label, a, b, term", [
    ("B3", (1, -1, 0), (0, 1, -1), (1, 1)),
    ("G2", (1, 0), (0, 1), (2, 3)),
])
def test_chevalley_constants_replay_catches_a_flipped_sign(monkeypatch, label, a, b, term):
    """Each printed row is replayed over Z: one coefficient with its sign
    flipped fails the run, which names the pair."""
    coefficients = ChevalleyBasisTable.commutator_coefficients

    def flipped(self, x, y):
        row = coefficients(self, x, y)
        return {**row, term: -row[term]} if (x, y) == (a, b) else row

    monkeypatch.setattr(ChevalleyBasisTable, "commutator_coefficients", flipped)
    res = run("chevalley", "constants", label, "--format", "json")
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["passed"] is False
    tag = reps.default_tag(build_root_system(label))
    assert doc["failures"] == [f"expansion of ({list(a)}, {list(b)}) fails in {tag}"]


def test_chevalley_bad_type_exit_2():
    res = run("chevalley", "constants", "F5")
    assert res.exit_code == 2


def test_verify_relations_a2():
    res = run(
        "group", "verify-relations", "--type", "A2", "--ring", "Z/4"
    )
    assert res.exit_code == 0
    assert "exhaustive" in res.output


def test_verify_relations_g2_adjoint_z4():
    res = run(
        "group",
        "verify-relations",
        "--type",
        "G2",
        "--ring",
        "Z/4",
        "--rep",
        "adjoint",
        "--format",
        "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["passed"] and doc["exhaustive"]


def test_group_decompose_prop2():
    ident = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = run(
        "group",
        "decompose",
        "--type",
        "A2",
        "--ring",
        "Z/8",
        "--algorithm",
        "prop2",
        "--input",
        ident,
        "--format",
        "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["length"] == 0 and doc["verified"]


def test_group_decompose_nontrivial():
    mat = json.dumps([[1, 0, 0], [2, 1, 0], [3, 5, 1]])
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/8",
        "--algorithm", "prop2", "--input", mat, "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["length"] <= doc["bound"]


def test_group_decompose_tavgen():
    mat = json.dumps([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/4",
        "--algorithm", "tavgen", "--input", mat,
    )
    assert res.exit_code == 0


def test_group_decompose_bad_matrix_exit_2():
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/8",
        "--algorithm", "prop2", "--input", "[[1,0],[0,1]]",
    )
    assert res.exit_code == 2


def test_group_decompose_unsupported_type_exit_2():
    ident = json.dumps([[int(i == j) for j in range(6)] for i in range(6)])
    res = run(
        "group", "decompose", "--type", "A5", "--ring", "Z/4",
        "--algorithm", "prop2", "--input", ident,
    )
    assert res.exit_code == 2
    assert "decomposition failed" not in res.output


def test_group_decompose_f4_exit_2():
    ident = json.dumps([[int(i == j) for j in range(52)] for i in range(52)])
    res = run(
        "group", "decompose", "--type", "F4", "--ring", "Z/2",
        "--rep", "adjoint", "--input", ident,
    )
    assert res.exit_code == 2
    assert "got F4" in res.output and "allow_slow" not in res.output


def test_group_decompose_adjoint_non_automorphism_exit_2():
    ones = json.dumps([[1] * 14 for _ in range(14)])
    res = run(
        "group", "decompose", "--type", "G2", "--ring", "Z/4",
        "--rep", "adjoint", "--input", ones,
    )
    assert res.exit_code == 2
    assert "does not preserve" in res.output


def test_group_decompose_singular_adjoint_exit_2():
    zero = json.dumps([[0] * 14 for _ in range(14)])
    res = run(
        "group", "decompose", "--type", "G2", "--ring", "Z/4",
        "--rep", "adjoint", "--input", zero,
    )
    assert res.exit_code == 2
    assert "not invertible" in res.output and "cell cover" not in res.output


def test_group_decompose_torus_too_large_exit_2():
    # e_12(1) e_21(1) in SL5(Z/29): the torus table would list 28^4 combinations
    mat = [[int(i == j) for j in range(5)] for i in range(5)]
    mat[0][:2], mat[1][:2] = [2, 1], [1, 1]
    res = run(
        "group", "decompose", "--type", "A4", "--ring", "Z/29",
        "--input", json.dumps(mat),
    )
    assert res.exit_code == 2
    assert "torus enumeration too large" in res.output
    assert "decomposition failed" not in res.output


HUGE = "Z/2305843009213693952"  # 2^61


def child_env():
    """The environment with `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_under_memory_limit(*args):
    """The CLI in a child process under a 3 GB address-space limit."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, "-m", "chevlab.cli", *args],
        capture_output=True, text=True, timeout=60, env=child_env(),
        preexec_fn=limit_memory,
    )


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import chevlab.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_group_decompose_huge_local_ring_exit_2_under_memory_limit():
    """Over Z/2^61 the torus table is refused before any unit is listed."""
    proc = run_under_memory_limit(
        "group", "decompose", "--type", "A2", "--ring", HUGE,
        "--input", "[[1,1,0],[1,2,0],[0,0,1]]",
    )
    assert proc.returncode == 2
    assert "torus enumeration too large" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("group", "closure", "--type", "A2", "--cap", "1000", "--ring", HUGE),
        ("group", "closure", "--type", "A2", "--cap", "1000", "--ring", "GF(2)[x]/(x^64)"),
        ("group", "closure", "--type", "A2", "--cap", "1000", "--ring", f"{HUGE} x GF(3)"),
        ("group", "closure", "--type", "A2", "--ring", "GF(2)[x]/(x^64)"),
        ("ebg", "check", "--type", "A2", "--ring", HUGE),
    ],
    ids=[
        "closure-zmod", "closure-polyquot", "closure-product",
        "closure-polyquot-default-cap", "ebg-check",
    ],
)
def test_closure_on_a_huge_ring_hits_the_cap_under_memory_limit(args):
    """The cap bounds the work: generators come from the additive generators,
    and `group closure` and `ebg check` refuse at once when the e_r(t) alone
    pass the cap."""
    proc = run_under_memory_limit(*args)
    assert proc.returncode == 1
    assert "closure exceeded cap" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("ring", ["GF(2)[x]/(x^64)", f"{HUGE} x GF(3)"])
def test_verify_relations_samples_a_huge_ring_under_memory_limit(ring):
    """Parameters are drawn by index with `element_at`; the ring is never listed."""
    proc = run_under_memory_limit(
        "group", "verify-relations", "--type", "A2", "--ring", ring, "--mode", "R1",
    )
    assert proc.returncode == 0, proc.stderr
    assert "sampled" in proc.stdout and "PASS" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("ring", [HUGE, f"{HUGE} x GF(3)"])
def test_verify_relations_both_samples_a_huge_ring_under_memory_limit(ring):
    """R1 and R2 on sampled pairs; the product ring is checked factor by factor."""
    proc = run_under_memory_limit(
        "group", "verify-relations", "--type", "A2", "--ring", ring, "--mode", "both",
    )
    assert proc.returncode == 0, proc.stderr
    assert "sampled" in proc.stdout and "PASS" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_decompose_artinian_splits_two_large_primes_under_memory_limit():
    """Z/n for n = 10000000019 * 10000000033, which trial division splits only
    after 5e9 steps: Pollard's rho splits it at once."""
    proc = run_under_memory_limit("ring", "decompose-artinian", "Z/100000000520000000627")
    assert proc.returncode == 0, proc.stderr
    assert "Z/100000000520000000627 ~ Z/10000000019 x Z/10000000033" in proc.stdout
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("ring", [HUGE, "GF(2)[x]/(x^64)", f"{HUGE} x GF(3)"])
def test_decompose_artinian_samples_a_huge_ring_under_memory_limit(ring):
    """Above `ROUND_TRIP_LIMIT` the round trip runs on a fixed sample drawn by
    index with `element_at`."""
    proc = run_under_memory_limit("ring", "decompose-artinian", ring)
    assert proc.returncode == 0, proc.stderr
    assert "round-trip verified on 1000 sampled elements" in proc.stdout
    assert "PASS" in proc.stdout and "Traceback" not in proc.stderr
    res = run("ring", "decompose-artinian", ring, "--format", "json")
    doc = json.loads(res.output)
    assert res.exit_code == 0 and doc["sampled"] is True
    assert doc["verified_elements"] == 1000


@pytest.mark.parametrize(
    "args",
    [
        ("certify", "--ring", HUGE, "--subgroup", "kernel:(2)"),
        ("levels", "--ring", HUGE, "--subgroup", "kernel:(2)"),
        ("certify", "--ring", "GF(2)[x]/(x^64)", "--subgroup", "kernel:([0,1])"),
        ("certify", "--ring", f"{HUGE} x GF(3)", "--subgroup", "full"),
    ],
    ids=["certify-zmod", "levels-zmod", "certify-polyquot", "certify-product"],
)
def test_level_sets_refuse_a_huge_ring_under_memory_limit(args):
    """Level sets list the ring: above `LISTING_LIMIT` elements they are
    refused as input (exit 2) before any element is listed."""
    start = time.monotonic()
    proc = run_under_memory_limit("congruence", args[0], "--type", "A2", *args[1:])
    assert time.monotonic() - start < 30
    assert proc.returncode == 2
    assert "ring too large to enumerate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_other_ring_errors_in_a_certificate_are_not_bad_input(monkeypatch):
    """Only RingTooLarge is refused as input: any other RingError raised while
    certifying is an internal error, not exit 2."""
    def broken(n):
        raise RingError("internal")

    monkeypatch.setattr(cg, "ideal_certificate", broken)
    res = run("congruence", "certify", "--type", "A2", "--ring", "Z/4", "--subgroup", "full")
    assert res.exit_code != 2
    assert isinstance(res.exception, RingError)


def test_uncertified_modulus_exits_2_at_once():
    """Z/n for a probable prime n above the Miller-Rabin bound is refused as
    input; trial division from 43 up would not return."""
    n = 3317044064679887385962123
    proc = subprocess.run(
        [sys.executable, "-m", "chevlab.cli", "ring", "decompose-artinian", f"Z/{n}"],
        capture_output=True, text=True, timeout=20, env=child_env(),
    )
    assert proc.returncode == 2
    assert f"{n} passes Miller-Rabin" in proc.stdout + proc.stderr


# Runs argv[1:] and prints its exit code, its ru_maxrss in KB and its output.
# A fresh launcher, not the test process, starts the command: at exec a
# process inherits the high-water RSS of the process it was forked from.
PEAK_RSS_LAUNCHER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, out]))
"""


def test_e7_adjoint_additivity_stays_small():
    """Each command peaks below its bound in its own process.  The generator
    data stays sparse: the E7 adjoint R1 check over GF(2) needs about 26 MB,
    and dense 133 x 133 divided powers per root take it past 100 MB.  The
    Jacobi certificate streams its basis triples: the F4 adjoint R1 check over
    GF(2) needs about 20 MB, and a list of all 52^3 triples takes it to 29 MB.
    Closure members share their equal rows: the G2 adjoint closure over GF(2)
    needs about 23 MB, and a row object per member takes it to 47 MB."""
    cases = [
        (["verify-relations", "--type", "E7", "--rep", "adjoint", "--ring", "GF(2)",
          "--mode", "R1"], "504 checks", 64),
        (["verify-relations", "--type", "F4", "--rep", "adjoint", "--ring", "GF(2)",
          "--mode", "R1"], "192 checks", 25),
        (["closure", "--type", "G2", "--rep", "adjoint", "--ring", "GF(2)"],
         "12096 elements", 35),
    ]
    for args, expected, limit_mb in cases:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m", "chevlab.cli",
             "group", *args],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kb, out = json.loads(proc.stdout)
        assert code == 0, out
        assert expected in out and "PASS" in out
        assert peak_kb < limit_mb * 1024, args  # ru_maxrss is in kilobytes on Linux


@pytest.mark.parametrize("rows", ["[1,2,3]", "3", '"abc"', '{"a": 1}', "[[1,0,0],5,[0,0,1]]"])
def test_group_decompose_malformed_rows_exit_2(rows):
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/8", "--input", rows,
    )
    assert res.exit_code == 2
    assert "matrix must be 3x3" in res.output


@pytest.mark.parametrize("algorithm", ["prop2", "tavgen"])
def test_group_decompose_non_local_ring_exit_2(algorithm):
    ident = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/6",
        "--algorithm", algorithm, "--input", ident,
    )
    assert res.exit_code == 2
    assert "--algorithm merge" in res.output
    assert "decomposition failed" not in res.output


def test_group_decompose_merge_over_non_local_ring():
    mat = json.dumps([[1, 0, 0], [2, 1, 0], [3, 5, 1]])
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/6",
        "--algorithm", "merge", "--input", mat, "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verified"] and doc["length"] <= doc["bound"]


@pytest.mark.parametrize(
    "root", ["5", "[[1],-1,0]", "[true,-1,0]", "[1.0,-1,0]", '"1,-1,0"', "[1,1,1]"]
)
def test_group_closure_malformed_omit_root_exit_2(root):
    res = run(
        "group", "closure", "--type", "A2", "--ring", "GF(2)", "--omit-root", root,
    )
    assert res.exit_code == 2
    assert "is not a root of A2" in res.output


def test_group_closure_omit_root_echoes_integers():
    res = run(
        "group", "closure", "--type", "A2", "--ring", "GF(2)",
        "--omit-root", "[1,-1,0]", "--format", "json",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["omitted"] == [1, -1, 0]


def test_group_closure():
    res = run(
        "group", "closure", "--type", "A2", "--ring", "GF(2)",
        "--format", "json",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["order"] == 168


def test_congruence_certify_kernel():
    res = run(
        "congruence", "certify", "--type", "A2", "--ring", "Z/4",
        "--subgroup", "kernel:(2)", "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ideal"] == [0, 2]


def test_congruence_certify_refusal_exit_1():
    res = run(
        "congruence", "certify", "--type", "C2", "--ring", "Z/4",
        "--subgroup", "kernel:(2)",
    )
    assert res.exit_code == 1
    assert "2 is not a unit" in res.output


def test_congruence_levels():
    res = run(
        "congruence", "levels", "--type", "A2", "--ring", "Z/4",
        "--subgroup", "kernel:(2)", "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert all(row["values"] == [0, 2] for row in doc["levels"])


@pytest.mark.parametrize(
    "ring, subgroup, ideal",
    [
        ("GF(2)[x]/(x^3)", "kernel:([0,1])", [[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]),
        ("GF(2)[x]/(x^3)", "kernel:([0,0,1], [0, 0, 1])", [[0, 0, 0], [0, 0, 1]]),
        ("Z/4 x GF(3)", "kernel:([2,0])", [[0, 0], [2, 0]]),
        ("Z/12", "kernel:(4, 6)", [0, 2, 4, 6, 8, 10]),
        ("Z/12", "kernel:(3,)", [0, 3, 6, 9]),
        ("GF(2)[x]/(x^3)", "kernel:([0,0,1], )", [[0, 0, 0], [0, 0, 1]]),
    ],
)
def test_congruence_kernel_with_list_valued_generators(ring, subgroup, ideal):
    res = run(
        "congruence", "certify", "--type", "A2", "--ring", ring,
        "--subgroup", subgroup, "--format", "json",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["ideal"] == ideal
    res = run(
        "congruence", "levels", "--type", "A2", "--ring", ring,
        "--subgroup", subgroup, "--format", "json",
    )
    assert res.exit_code == 0
    assert all(row["values"] == ideal for row in json.loads(res.output)["levels"])


def test_congruence_kernel_boolean_generator_exit_2():
    res = run(
        "congruence", "certify", "--type", "A2", "--ring", "Z/4",
        "--subgroup", "kernel:(true,)",
    )
    assert res.exit_code == 2
    assert "expected integer residue" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("group", "closure", "--type", "A2", "--ring", "GF(2)", "--cap", "0"),
        ("ebg", "check", "--type", "A2", "--ring", "GF(2)", "--cap", "-5"),
    ],
)
def test_non_positive_cap_exit_2(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "exceeded cap" not in res.output


@pytest.mark.parametrize(
    "label, ring, subgroup, name",
    [
        ("A2", "Z/4", "kernel:(2)", "A2_Z4"),
        ("C2", "Z/9", "kernel:(3)", "C2_Z9"),
        ("A2", "GF(2)[x]/(x^3)", "kernel:([0,1])", "A2_GF2x_x3"),
    ],
)
def test_congruence_levels_matches_golden_report(label, ring, subgroup, name):
    res = run(
        "congruence", "levels", "--type", label, "--ring", ring,
        "--subgroup", subgroup, "--format", "json",
    )
    assert res.exit_code == 0
    assert res.output == (GOLDEN / f"congruence_levels_{name}.json").read_text()


def fixed_word_matrix(label, ring_text, rep_tag=None):
    """The evaluated fixed word with letters e_{p_i}(i) e_{-p_(m+1-i)}(2i - 1),
    i = 1..m, over the positive roots p_1..p_m, as JSON rows."""
    rs = build_root_system(label)
    ring = parse_ring_spec(ring_text)
    pos = rs.positive
    letters = []
    for i in range(1, len(pos) + 1):
        letters.append((pos[i - 1], ring.from_int(i)))
        letters.append((_neg(pos[-i]), ring.from_int(2 * i - 1)))
    rep = reps.make_representation(rs, rep_tag)
    return ElementaryWord(rep, ring, letters).evaluate().to_json()


def longest_cell_matrix(label, ring_text, rep_tag=None):
    """lower . lift(w0) . upper for the longest Weyl element w0, as JSON rows:
    lower has letters e_{-p_i}(i), upper e_{p_i}(2i - 1).  Over a field the
    input lies in w0's translated cell alone, so the Bruhat search tries every
    Weyl element before it (w0 comes last in `weyl_elements()` order)."""
    rs = build_root_system(label)
    ring = parse_ring_spec(ring_text)
    rep = reps.make_representation(rs, rep_tag)
    w0 = max(rs.weyl_elements(), key=lambda e: len(e[0]))[0]
    pos = rs.positive
    lower = [(_neg(p), ring.from_int(i)) for i, p in enumerate(pos, 1)]
    upper = [(p, ring.from_int(2 * i - 1)) for i, p in enumerate(pos, 1)]
    word = (
        ElementaryWord(rep, ring, lower)
        + weyl_lift_word(rep, ring, w0)
        + ElementaryWord(rep, ring, upper)
    )
    return word.evaluate().to_json()


# name -> (type, ring, representation); each input is the fixed word's matrix
DECOMPOSE_INPUTS = {
    "A1_GF3": ("A1", "GF(3)", None),
    "A2_GF3": ("A2", "GF(3)", None),
    "B2_GF3": ("B2", "GF(3)", None),
    "C2_Z9": ("C2", "Z/9", None),
    "A2_Z4xGF3": ("A2", "Z/4 x GF(3)", None),
    "B2_Z360": ("B2", "Z/360", None),
    "A3_Z4": ("A3", "Z/4", None),
    "B3_GF3": ("B3", "GF(3)", None),
    "D4_GF2": ("D4", "GF(2)", None),
    "G2_GF3": ("G2", "GF(3)", "adjoint"),
}


@pytest.mark.parametrize(
    "name, matrix",
    [
        ("A1_GF3", [[2, 1], [1, 1]]),
        ("A2_GF3", [[1, 2, 0], [1, 2, 1], [1, 1, 1]]),
        (
            "B2_GF3",
            [[2, 0, 2, 2, 1], [0, 0, 0, 1, 0], [1, 0, 0, 2, 1], [2, 1, 1, 1, 2],
             [1, 0, 2, 2, 2]],
        ),
        ("C2_Z9", [[2, 2, 0, 5], [5, 3, 5, 3], [0, 8, 2, 7], [8, 6, 4, 3]]),
        (
            "A2_Z4xGF3",
            [[[3, 1], [3, 2], [1, 0]], [[2, 1], [2, 2], [3, 1]],
             [[3, 1], [0, 1], [2, 1]]],
        ),
        (
            "B2_Z360",
            [[11, 3, 200, 89, 343], [342, 225, 204, 262, 153], [334, 9, 213, 80, 187],
             [29, 106, 58, 82, 143], [346, 183, 164, 164, 104]],
        ),
    ],
)
def test_fixed_word_inputs_are_pinned(name, matrix):
    assert fixed_word_matrix(*DECOMPOSE_INPUTS[name]) == matrix


@pytest.mark.parametrize(
    "algorithm, name, fmt",
    [
        *[(alg, name, "json") for alg in ("tavgen", "prop2")
          for name in ("A1_GF3", "A2_GF3", "B2_GF3", "C2_Z9")],
        # rank 3 and 4 run the rank-2 machine inside; G2 splits off an A1
        *[("tavgen", name, "json") for name in ("A3_Z4", "B3_GF3", "D4_GF2", "G2_GF3")],
        ("merge", "A2_Z4xGF3", "json"),
        ("merge", "B2_Z360", "json"),
        ("prop2", "A2_GF3", "text"),
    ],
)
def test_group_decompose_matches_golden_report(algorithm, name, fmt):
    label, ring, rep = DECOMPOSE_INPUTS[name]
    matrix = fixed_word_matrix(label, ring, rep)
    args = [
        "group", "decompose", "--type", label, "--ring", ring,
        "--algorithm", algorithm, "--input", json.dumps(matrix), "--format", fmt,
    ]
    res = run(*args, *(("--rep", rep) if rep else ()))
    assert res.exit_code == 0
    suffix = "json" if fmt == "json" else "txt"
    golden = GOLDEN / f"group_decompose_{algorithm}_{name}.{suffix}"
    assert res.output == golden.read_text()


@pytest.mark.parametrize(
    "label, ring, rep, name",
    [
        ("B3", "GF(3)", None, "B3_GF3"),
        ("D4", "GF(2)", None, "D4_GF2"),
        ("G2", "GF(3)", "adjoint", "G2_GF3"),
    ],
)
def test_longest_cell_decompose_matches_golden_report(label, ring, rep, name):
    """The Bruhat search through the whole Weyl group, pinned byte for byte."""
    matrix = longest_cell_matrix(label, ring, rep)
    res = run(
        "group", "decompose", "--type", label, "--ring", ring, "--algorithm", "prop2",
        "--input", json.dumps(matrix), "--format", "json",
        *(("--rep", rep) if rep else ()),
    )
    assert res.exit_code == 0
    golden = GOLDEN / f"group_decompose_prop2_{name}_longest.json"
    assert res.output == golden.read_text()


def test_decompose_with_a_wrong_lift_inverse_exits_1(monkeypatch):
    """A Bruhat word that fails its re-evaluation is a refused decomposition
    (exit 1), not a result (0) and not bad input (2)."""
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(3)")
    rep = reps.make_representation(rs)
    table = list(decompose._weyl_lift_inverses(rep, ring))
    table[0] = ((), rep._entries(ring, rs.positive[0], ring.one))
    monkeypatch.setattr(decompose, "_weyl_lift_inverses", lambda rep, ring: tuple(table))
    lower_upper = [(_neg(p), ring.one) for p in rs.positive] + [(p, ring.one) for p in rs.positive]
    matrix = ElementaryWord(rep, ring, lower_upper).evaluate().to_json()
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "GF(3)",
        "--input", json.dumps(matrix), "--format", "json",
    )
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "Bruhat word failed to re-evaluate"


def test_tavgen_with_a_frozen_inner_machine_exits_1(monkeypatch):
    """With the rank-1 push a no-op, the fourfold machine keeps every block
    and its telescoping check refuses the letter: exit 1, not 0 and not 2."""
    rs, ring = build_root_system("A2"), parse_ring_spec("GF(3)")
    rep = reps.make_representation(rs)
    monkeypatch.setattr(decompose._Sl2Machine, "push_left", lambda self, root, t: None)
    matrix = ElementaryWord(rep, ring, [(rs.simple[0], ring.one)]).evaluate().to_json()
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "GF(3)", "--algorithm", "tavgen",
        "--input", json.dumps(matrix), "--format", "json",
    )
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "interchange did not telescope to the pushed letter"


@pytest.mark.parametrize(
    "label, ring, message", [("A5", "GF(2)", "got A5"), ("A1", "Z/6", "not local")]
)
def test_ebg_check_out_of_scope_exit_2(label, ring, message):
    res = run("ebg", "check", "--type", label, "--ring", ring)
    assert res.exit_code == 2
    assert message in res.output


def test_ebg_check_a2_gf2():
    res = run("ebg", "check", "--type", "A2", "--ring", "GF(2)", "--format", "json")
    assert res.exit_code == 0
    assert res.output == (GOLDEN / "ebg_check_A2_GF2.json").read_text()


@pytest.mark.parametrize(
    "label, ring, ideal",
    [
        ("A2", "Z/27", "3"),
        ("B2", "Z/9", "3"),
        ("B3", "Z/27", "9"),
        ("C3", "Z/9", "3"),
        ("D4", "Z/4", "2"),
        ("G2", "Z/25", "5"),
    ],
)
def test_congruence_certify_matches_golden_report(label, ring, ideal):
    res = run(
        "congruence", "certify", "--type", label, "--ring", ring,
        "--subgroup", f"kernel:({ideal})", "--format", "json",
    )
    assert res.exit_code == 0
    name = f"congruence_certify_{label}_{ring.replace('/', '')}.json"
    assert res.output == (GOLDEN / name).read_text()


def test_deterministic_output():
    args = [
        "group", "verify-relations", "--type", "B2", "--ring", "GF(3)",
        "--format", "json", "--seed", "7",
    ]
    assert run(*args).output == run(*args).output


def test_internal_error_in_setup_is_not_bad_input(monkeypatch):
    def broken(rs):
        raise ChevalleyError("structure table broke")

    monkeypatch.setattr(reps, "build_basis", broken)
    reps._representation.cache_clear()
    res = run(
        "group", "verify-relations", "--type", "G2", "--ring", "Z/4",
        "--rep", "adjoint",
    )
    assert isinstance(res.exception, ChevalleyError)
    assert res.exit_code not in (0, 2)


def test_invalid_rep_exit_2():
    res = run(
        "group", "verify-relations", "--type", "G2", "--ring", "Z/4",
        "--rep", "defining-G",
    )
    assert res.exit_code == 2


def test_group_decompose_merge_product_ring():
    one, zero = [1, 1], [0, 0]
    ident = json.dumps(
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    res = run(
        "group", "decompose", "--type", "A2", "--ring", "Z/4 x GF(3)",
        "--algorithm", "merge", "--input", ident, "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verified"] and doc["length"] <= doc["bound"]
