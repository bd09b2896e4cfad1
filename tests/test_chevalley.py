import hashlib
import random
import tracemalloc

import pytest

from chevlab import chevalley
from chevlab.chevalley import (
    ChevalleyBasisTable,
    ChevalleyError,
    build_basis,
    classical_generators,
    divided_powers,
    g2_epsilon_signs,
)
from chevlab.roots import RootSystem, _add, _neg, build_root_system
from commutator_oracle import solve_commutator_coefficients
from jacobi_oracle import reference_jacobi
from table_oracle import table_from_matrices


def entries(m):
    """A sparse matrix {row: {col: value}} as {(row, col): value}."""
    return {(i, j): v for i, row in m.items() for j, v in row.items()}


def combination(*terms):
    """sum c * m over the (c, m) terms, for matrices as {(row, col): value}."""
    out = {}
    for c, m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def bracket(x, y):
    """xy - yx for matrices as {(row, col): value}, zero entries dropped."""
    out = {}
    for a, b, sign in ((x, y, 1), (y, x, -1)):
        for (i, k), v in a.items():
            for (l, j), w in b.items():
                if k == l:
                    out[i, j] = out.get((i, j), 0) + sign * v * w
    return {key: v for key, v in out.items() if v}


def test_a2_display_constant_is_plus_one():
    rs = build_root_system("A2")
    table = build_basis(rs)
    # N for (e1-e2, e2-e3) must be +1 so that [e12(r), e23(s)] = e13(rs)
    assert table.n_constant((1, -1, 0), (0, 1, -1)) == 1


def test_a_type_matches_matrix_units():
    for label in ["A2", "A3"]:
        rs = build_root_system(label)
        table = build_basis(rs)
        _, xmats, _ = classical_generators(rs)
        x = {r: entries(m) for r, m in xmats.items()}
        for a in rs.roots:
            for b in rs.roots:
                if b == tuple(-c for c in a):
                    continue
                br = bracket(x[a], x[b])
                s = tuple(p + q for p, q in zip(a, b))
                if rs.is_root(s):
                    n = table.n_constant(a, b)
                    assert br == combination((n, x[s]))
                else:
                    assert br == {}


CLASSICAL_LABELS = (
    [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(3, 7)]
)


@pytest.mark.parametrize("label", CLASSICAL_LABELS)
def test_classical_tables_match_the_matrix_reader(label):
    """The extraspecial recursion, with its signs read off the defining
    matrices, gives the table that reading all |Phi|^2 brackets off those
    matrices gave."""
    rs = build_root_system(label)
    assert build_basis(rs).nmap == table_from_matrices(rs)


def corrupt_model(monkeypatch, rs, corruption):
    """classical_generators with one X_r changed: the first simple root's
    negated, or a stray diagonal entry added to the highest or the lowest
    root's."""
    generators = chevalley.classical_generators
    root = {"negated": rs.simple[0], "stray at the highest root": rs.positive[-1],
            "stray at the lowest root": rs.negative[-1]}[corruption]

    def corrupted(system):
        dim, xmats, weights = generators(system)
        x = xmats[root]
        xmats[root] = ({r: {c: -v for c, v in row.items()} for r, row in x.items()}
                       if corruption == "negated" else {**x, 0: {**x.get(0, {}), 0: 1}})
        return dim, xmats, weights

    monkeypatch.setattr(chevalley, "classical_generators", corrupted)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4"])
@pytest.mark.parametrize("corruption, check, message", [
    ("negated", "_check_by_generators", r"phi\[x, y\] != \[phi x, phi y\]"),
    ("stray at the highest root", "_table_extraspecial", r"is not \+-\d+ X_.* in the matrix model"),
    ("stray at the lowest root", "_check_by_generators", r"phi\[x, y\] != \[phi x, phi y\]"),
])
def test_a_corrupted_matrix_model_is_refused(monkeypatch, label, corruption, check, message):
    """A negated X_r reads as other extraspecial signs, and the table built
    from them passes its magnitude and Jacobi checks, so only the model
    check refuses it; a stray entry at a positive root breaks the sign read
    of its extraspecial pair, and one at a negative root, which no sign read
    sees, the model check."""
    rs = build_root_system(label)
    corrupt_model(monkeypatch, rs, corruption)
    with pytest.raises(ChevalleyError, match=message) as exc:
        build_basis.__wrapped__(rs)
    names = [entry.name for entry in exc.traceback]
    assert names[-1] == check and "_verify_magnitudes" not in names
    assert ("verify_model" in names) == (check == "_check_by_generators")


def test_bracket_zero_for_non_roots():
    rs = build_root_system("B2")
    table = build_basis(rs)
    # e1 and e1-e2: sum 2e1-e2 is not a root
    assert table.n_constant((1, 0), (1, -1)) == 0


def test_magnitudes_follow_root_strings():
    for label in ["B2", "C3", "G2", "F4"]:
        rs = build_root_system(label)
        table = build_basis(rs)
        for (a, b), n in table.nmap.items():
            p = 0
            cur = b
            while True:
                cur = tuple(x - y for x, y in zip(cur, a))
                if not rs.is_root(cur):
                    break
                p += 1
            assert abs(n) == p + 1


def test_g2_has_coefficient_two():
    rs = build_root_system("G2")
    table = build_basis(rs)
    # [e_c, e_{c+k}] = +-2 e_{2c+k}
    assert abs(table.n_constant((0, 1), (1, 1))) == 2


def test_jacobi_counts_generator_and_pair_checks():
    """At every rank the check is by generators: 2 * rank * dim derivation
    checks and dim^2 antisymmetry checks."""
    for label, count in [("A2", 96), ("B2", 140), ("C3", 567), ("G2", 252)]:
        rs = build_root_system(label)
        table = build_basis(rs)
        dim = len(table.basis_keys())
        assert table.verify_jacobi() == 2 * rs.rank * dim + dim**2 == count


def test_jacobi_by_generators_e6():
    """Above rank 4 the check is complete: 2 * rank * dim derivation checks
    and dim^2 antisymmetry checks."""
    table = build_basis(build_root_system("E6"))
    assert table.verify_jacobi() == 2 * 6 * 78 + 78**2


def test_jacobi_memory_is_bounded():
    """The ad-matrix check holds the sparse ad x of each basis vector and a few
    brackets at a time: for D4 it peaks well below 256 KB."""
    table = ChevalleyBasisTable(build_root_system("D4"))
    tracemalloc.start()
    try:
        assert table.verify_jacobi() == 2 * 4 * 28 + 28**2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def quadruple(a, b):
    """The keys of N(a, b), N(b, a), N(-a, -b) and N(-b, -a)."""
    return (a, b), (b, a), (_neg(a), _neg(b)), (_neg(b), _neg(a))


def flip_sign_quadruple(table, a, b):
    """Negate the quadruple of (a, b) in place."""
    for key in quadruple(a, b):
        table.nmap[key] = -table.nmap[key]


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "G2", "F4", "E6", "E7"])
def test_jacobi_catches_sign_flips(label):
    """One flipped sign quadruple keeps every |N| = p + 1 and the
    antisymmetry of the table, and fails the generator check.  At rank <= 4
    the reference triple loop refuses each drawn flip too, so the seed draws
    no flip that leaves a valid table."""
    table = ChevalleyBasisTable(build_root_system(label))
    rng = random.Random(2010)
    for a, b in rng.sample(sorted(table.nmap), 4):
        flip_sign_quadruple(table, a, b)
        table._verify_magnitudes()
        with pytest.raises(ChevalleyError):
            table.verify_jacobi()
        flip_sign_quadruple(table, a, b)


def zero_quadruple(table, a, b):
    """Set the quadruple of (a, b) to 0 in place."""
    for key in quadruple(a, b):
        table.nmap[key] = 0


def twist_root_signs(table, rng):
    """N(a, b) -> eps_a eps_b eps_{a+b} N(a, b) for random signs with
    eps_{-a} = eps_a: the table of the basis e'_a = eps_a e_a, which is again a
    Chevalley basis."""
    rs = table.rs
    eps = {}
    for r in rs.positive:
        eps[r] = eps[_neg(r)] = rng.choice((1, -1))
    table.nmap = {
        (a, b): eps[a] * eps[b] * eps[_add(a, b)] * n
        for (a, b), n in table.nmap.items()
    }


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "C2", "B3", "C3", "D4", "G2"])
def test_jacobi_agrees_with_the_triple_loop(label):
    """On fresh tables with one or two flipped sign quadruples, one zeroed
    quadruple or a root-sign twist, verify_jacobi raises exactly when the
    reference triple loop finds a failing triple."""
    rs = build_root_system(label)
    rng = random.Random(f"jacobi {label}")
    verdicts = set()
    for case in range(25):
        table = ChevalleyBasisTable(rs)
        kind = ("flip", "flip2", "zero", "twist")[case % 4]
        if kind == "twist":
            twist_root_signs(table, rng)
        else:
            pairs = rng.sample(sorted(table.nmap), 2 if kind == "flip2" else 1)
            for a, b in pairs:
                (zero_quadruple if kind == "zero" else flip_sign_quadruple)(table, a, b)
        if kind != "zero":
            table._verify_magnitudes()
        valid = reference_jacobi(table)
        try:
            table.verify_jacobi()
            raised = False
        except ChevalleyError:
            raised = True
        assert raised != valid, kind
        verdicts.add(valid)
    assert verdicts == {True, False}


def test_magnitude_check_refuses_a_scaled_quadruple():
    """The extraspecial recursion leaves magnitudes to _verify_magnitudes: an
    F4 quadruple scaled by 2 keeps antisymmetry and is refused there."""
    table = ChevalleyBasisTable(build_root_system("F4"))
    a, b = sorted(table.nmap)[0]
    for key in quadruple(a, b):
        table.nmap[key] *= 2
    with pytest.raises(ChevalleyError, match=r"\|N"):
        table._verify_magnitudes()


def test_coroot_brackets():
    rs = build_root_system("C2")
    table = build_basis(rs)
    for r in rs.roots:
        h = table.bracket_keys(("e", r), ("e", tuple(-c for c in r)))
        assert h == {
            ("h", i): c for i, c in enumerate(rs.coroot_coords(r)) if c
        }


def test_adjoint_matrices_shape():
    rs = build_root_system("G2")
    table = build_basis(rs)
    keys, weights, xmats = table.adjoint_data()
    assert len(keys) == 14 and len(weights) == 14
    for r in rs.roots:
        m = entries(xmats[r])
        assert m and all(0 <= i < 14 and 0 <= j < 14 and v for (i, j), v in m.items())


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "F4"])
def test_ad_matrices_of_the_torus_and_the_root_vectors(label):
    """ad h_i is diagonal, <b, a_i^v> on the row of each e_b and 0 on the h
    rows; each adjoint generator X_r is ad e_r."""
    rs = build_root_system(label)
    table = build_basis(rs)
    ad = table.ad_matrices()
    keys, _, xmats = table.adjoint_data()
    assert list(ad) == keys
    for i, a in enumerate(rs.simple):
        expected = {}
        for j, (kind, b) in enumerate(keys):
            if kind == "e" and rs.cartan_int(b, a):
                expected[j, j] = rs.cartan_int(b, a)
        assert entries(ad[("h", i)]) == expected
    for r in rs.roots:
        assert xmats[r] == ad[("e", r)]


def test_jacobi_by_generators_computes_each_bracket_once(monkeypatch):
    """The generator check reads every [x, y] off ad_matrices: dim^2
    bracket_keys calls, none repeated, for E6 and for F4."""
    calls = []
    bracket_keys = ChevalleyBasisTable.bracket_keys

    def counted(self, x, y):
        calls.append((x, y))
        return bracket_keys(self, x, y)

    tables = [ChevalleyBasisTable(build_root_system(label)) for label in ("E6", "F4")]
    monkeypatch.setattr(ChevalleyBasisTable, "bracket_keys", counted)
    for table, dim in zip(tables, (78, 52)):
        calls.clear()
        table.verify_jacobi()
        assert len(calls) == len(set(calls)) == dim**2


def test_commutator_coefficients_a2():
    rs = build_root_system("A2")
    table = build_basis(rs)
    row = table.commutator_coefficients((1, -1, 0), (0, 1, -1))
    assert row == {(1, 1): 1}


def test_commutator_coefficients_empty_for_commuting_pair():
    rs = build_root_system("A3")
    table = build_basis(rs)
    # orthogonal pair e1-e2, e3-e4
    row = table.commutator_coefficients((1, -1, 0, 0), (0, 0, 1, -1))
    assert row == {}


def test_commutator_coefficients_b2():
    rs = build_root_system("B2")
    table = build_basis(rs)
    # short-short pair (e1, e2): single term with coefficient +-2
    row = table.commutator_coefficients((1, 0), (0, 1))
    assert set(row) == {(1, 1)}
    assert abs(row[(1, 1)]) == 2
    # corrected mixed identity: (e1+e2, -e2) -> e1 and e1-e2
    row = table.commutator_coefficients((1, 1), (0, -1))
    assert set(row) == {(1, 1), (1, 2)}
    assert abs(row[(1, 1)]) == 1 and abs(row[(1, 2)]) == 1


def test_commutator_coefficients_g2_signs():
    rs = build_root_system("G2")
    table = build_basis(rs)
    eps = g2_epsilon_signs(table)
    assert set(eps) == {"eps1", "eps2", "eps3", "eps4", "eps5"}
    assert all(v in (1, -1) for v in eps.values())
    # the long-long A2 inside G2 behaves simply-laced
    row = table.commutator_coefficients((1, 0), (1, 3))
    assert set(row) == {(1, 1)} and abs(row[(1, 1)]) == 1


def test_commutator_coefficients_reject_opposite():
    rs = build_root_system("A2")
    table = build_basis(rs)
    with pytest.raises(ChevalleyError):
        table.commutator_coefficients((1, -1, 0), (-1, 1, 0))


def test_classical_tables_verify_chevalley_conditions():
    # [H_i, X_a] = <a, a_i^v> X_a and [X_a, X_-a] = integral coroot combo
    for label in ["A2", "B2", "B3", "C2", "C3", "D4"]:
        rs = build_root_system(label)
        _, xmats, _ = classical_generators(rs)
        x = {r: entries(m) for r, m in xmats.items()}
        hmats = [bracket(x[s], x[tuple(-c for c in s)]) for s in rs.simple]
        for i, hi in enumerate(hmats):
            for r in rs.roots:
                target = rs.cartan_int(r, rs.simple[i])
                assert bracket(hi, x[r]) == combination((target, x[r]))
        for r in rs.roots:
            combo = combination(*zip(rs.coroot_coords(r), hmats))
            assert bracket(x[r], x[tuple(-c for c in r)]) == combo


def test_commutator_coefficients_e6_simple_pair():
    rs = build_root_system("E6")
    table = build_basis(rs)
    a, b = rs.simple[0], rs.simple[2]
    row = table.commutator_coefficients(a, b)
    assert set(row) == {(1, 1)} and abs(row[(1, 1)]) == 1


def test_f4_commutator_table_matches_its_digest():
    """F4, the two-length type no golden covers (coefficients +-1 and +-2): the
    coefficients of every ordered pair, in sorted root order, hash to the
    digest of the table first computed over Z[s, t]."""
    rs = build_root_system("F4")
    table = build_basis(rs)
    lines = [
        f"{a} {b} {sorted(table.commutator_coefficients(a, b).items())}"
        for a in sorted(rs.roots) for b in sorted(rs.roots) if b != _neg(a)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0ea092fd806b7092eec9dd5d197060b29e6930a268c840a732ae5883e2bf0c91"


def commutator_table_digest(label):
    """SHA-256 of the coefficients of every ordered pair, in sorted root order."""
    rs = build_root_system(label)
    table = build_basis(rs)
    lines = [
        f"{a} {b} {sorted(table.commutator_coefficients(a, b).items())}"
        for a in sorted(rs.roots) for b in sorted(rs.roots) if b != _neg(a)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("label, digest", [
    ("E6", "e7435c83c83ceb06d5eb7824b9d3240618acb4607cfe5277f5858c4dfe078681"),
    ("E7", "a8a8bc9bedc0a088c9bb0ff4d244b9bbb588d64f0e46b3e34619c051e55f1537"),
])
def test_simply_laced_exceptional_tables_match_their_digests(label, digest):
    """E6 and E7, which no golden covers: digests of the tables the adjoint
    solve computed, before the closed formula replaced it."""
    assert commutator_table_digest(label) == digest


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "G2", "F4"])
def test_closed_formula_matches_the_adjoint_solve(label):
    """Chevalley's closed formula and the adjoint solve agree on every
    ordered pair of roots."""
    rs = build_root_system(label)
    table = build_basis(rs)
    for a in rs.roots:
        for b in rs.roots:
            if b != _neg(a):
                assert table.commutator_coefficients(a, b) == solve_commutator_coefficients(table, a, b)


def test_closed_formula_rejects_a_non_integral_m():
    """N(e1, e2) = +-2 in B2, and M(e1, e2 - e1, 2) = N(e1, e2 - e1) N(e1, e2) / 2:
    with N(e1, e2) corrupted to 1 that M is 1/2, and C[2,1] of (e1, e2 - e1)
    is not an integer."""
    a, b = (1, 0), (-1, 1)
    assert build_basis(build_root_system("B2")).commutator_coefficients(a, b).keys() == {(1, 1), (2, 1)}
    table = ChevalleyBasisTable(build_root_system("B2"))
    table.nmap[((1, 0), (0, 1))] = 1
    with pytest.raises(ChevalleyError, match="not integral"):
        table.commutator_coefficients(a, b)


def test_commutator_solve_without_its_last_root_fails_to_close(monkeypatch):
    """The G2 term e_(2,3) left out of the expansion stays in the remainder."""
    roots = RootSystem.commutator_root_list

    def short(self, a, b):
        out = roots(self, a, b)
        return out[:-1] if (a, b) == ((1, 0), (0, 1)) else out

    monkeypatch.setattr(RootSystem, "commutator_root_list", short)
    table = ChevalleyBasisTable(build_root_system("G2"))
    with pytest.raises(ChevalleyError, match="failed to close"):
        solve_commutator_coefficients(table, (1, 0), (0, 1))


@pytest.mark.parametrize("at_read_entry, message", [
    (True, "coefficient mismatch"), (False, "failed to close"),
])
def test_commutator_solve_rejects_a_doubled_entry(at_read_entry, message):
    """C[1,1] for the G2 pair (1,0), (0,1) is read at the first entry of the
    adjoint X_(1,1): doubled there, the exact division fails; doubled at the
    last entry, the peel leaves a remainder in that graded piece."""
    table = ChevalleyBasisTable(build_root_system("G2"))
    x = table.adjoint_data()[2][(1, 1)]
    row, col = list(entries(x))[0 if at_read_entry else -1]
    x[row][col] *= 2
    with pytest.raises(ChevalleyError, match=message):
        solve_commutator_coefficients(table, (1, 0), (0, 1))


def test_divided_powers_sparse_and_integral():
    # X = 2(E12 + E23): X^2 / 2! = 2 E13 and X^3 = 0
    x = {0: {1: 2}, 1: {2: 2}}
    assert divided_powers(x, 3) == [{0: {1: 2}, 1: {2: 2}}, {0: {2: 2}}]


def test_divided_powers_reject_non_integral_and_non_nilpotent():
    with pytest.raises(ChevalleyError, match="not integral"):
        divided_powers({0: {1: 1}, 1: {2: 1}}, 3)  # X^2 / 2 = E13 / 2
    with pytest.raises(ChevalleyError):
        divided_powers({0: {0: 1}}, 2)
    with pytest.raises(ChevalleyError, match="not nilpotent"):
        divided_powers({0: {0: 2}}, 1)  # X^2 / 2 = 2 stays integral
