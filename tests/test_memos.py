"""One memo idiom: functools caches keyed by value, bounded where keyed by rings."""
import ast
from pathlib import Path
from types import MappingProxyType

from chevlab import decompose
from chevlab.chevalley import ChevalleyBasisTable, build_basis
from chevlab.reps import ELEMENTARY_MEMO_SIZE, Representation, default_tag, make_representation
from chevlab.rings import RING_MEMO_SIZE, ZmodRing, artinian_decompose, parse_ring_spec
from chevlab.roots import build_root_system

SRC = Path(__file__).resolve().parents[1] / "src" / "chevlab"

# slots an object sets up in __init__ and fills itself later: (method, attribute)
FILLED_SLOTS = {
    ("evaluate", "_value"),
    ("__hash__", "_hash"),
    ("add", "_add_cache"),
    ("mul", "_mul_cache"),
}


def test_no_hand_rolled_memos():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name) and t.id.endswith("_CACHE"):
                    problems.append(f"{path.name}:{node.lineno} module-level cache {t.id}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and str(node.args[1].value).startswith("_")
            ):
                problems.append(f"{path.name}:{node.lineno} {node.func.id} probe of {node.args[1].value}")
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
                for t in targets:
                    if isinstance(t, ast.Subscript):
                        t = t.value  # self._memo[key] = value
                    if (
                        isinstance(t, ast.Attribute)
                        and t.attr.startswith("_")
                        and (fn.name, t.attr) not in FILLED_SLOTS
                    ):
                        problems.append(f"{path.name}:{node.lineno} {fn.name} sets .{t.attr}")
    assert problems == []


def test_one_bracket_reader():
    """Only chevalley.py turns the bracket table into ad matrices: no other
    module in src calls bracket_keys."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bracket_keys"
            ):
                callers.add(path.name)
    assert callers == {"chevalley.py"}


def test_one_jacobi_path():
    """ChevalleyBasisTable.verify_jacobi reads no rank attribute, so the
    Jacobi check takes one path at every rank."""
    tree = ast.parse((SRC / "chevalley.py").read_text())
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ChevalleyBasisTable")
    (fn,) = (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "verify_jacobi")
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == "rank"]


def _called(tree) -> list:
    """Names of the functions called in the tree, one per call site."""
    return [
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]


def test_one_table_builder():
    """Every structure table comes from the extraspecial recursion: no module
    in src defines the former matrix reader or its scalar solve, and
    ChevalleyBasisTable.__init__ calls one builder, on no branch."""
    defined = {
        node.name for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"_table_from_matrices", "_solve_scalar_multiple"}
    tree = ast.parse((SRC / "chevalley.py").read_text())
    builders = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_table")}
    assert builders == {"_table_extraspecial"}
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ChevalleyBasisTable")
    (init,) = (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    assert [name for name in _called(init) if name in builders] == ["_table_extraspecial"]
    assert not [n for n in ast.walk(init) if isinstance(n, (ast.If, ast.IfExp))]


def test_one_closure_action():
    """groups.subgroup_closure takes (generators, cap, track_words) and acts
    by right multiplication alone: no row operations, no conjugation, no
    dense product, and `linalg.col_ops` at one call site; members are wrapped
    as `GroupElement`s after the search loop, never inside it; and no second
    conjugation helper is left in src."""
    tree = ast.parse((SRC / "groups.py").read_text())
    (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "subgroup_closure")
    args = fn.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["generators", "cap", "track_words"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs)
    called = _called(fn)
    assert not set(called) & {"row_ops", "sandwich", "mat_mul"}
    assert called.count("col_ops") == 1
    (loop,) = (n for n in ast.walk(fn) if isinstance(n, ast.While))
    assert "GroupElement" not in _called(loop)
    assert "GroupElement" in called
    defined = {
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("conjugated", "conjugation_entries")
    }
    assert not defined


def test_elementary_memo_is_bounded():
    rep = make_representation(build_root_system("A", 1), "defining-A")
    ring = ZmodRing(2**61)
    root = rep.rs.positive[0]
    memo = Representation.elementary_matrix
    assert memo.cache_info().maxsize == ELEMENTARY_MEMO_SIZE
    for t in range(1, ELEMENTARY_MEMO_SIZE + 100):
        assert rep.elementary_matrix(ring, root, t)[0][1] == t
    assert memo.cache_info().currsize <= ELEMENTARY_MEMO_SIZE
    # a hit returns the memoized object itself
    last = ELEMENTARY_MEMO_SIZE + 99
    assert rep.elementary_matrix(ring, root, last) is rep.elementary_matrix(ring, root, last)


def test_elementary_entries_memo_is_bounded():
    rep = make_representation(build_root_system("A", 1), "defining-A")
    ring = ZmodRing(2**61)
    root = rep.rs.positive[0]
    memo = Representation._entries
    assert memo.cache_info().maxsize == ELEMENTARY_MEMO_SIZE
    for t in range(1, ELEMENTARY_MEMO_SIZE + 100):
        assert rep._entries(ring, root, t) == ((0, 1, t),)
    assert memo.cache_info().currsize <= ELEMENTARY_MEMO_SIZE
    last = ELEMENTARY_MEMO_SIZE + 99
    assert rep._entries(ring, root, last) is rep._entries(ring, root, last)


def test_one_object_per_type():
    assert build_root_system("B3") is build_root_system("b3")
    assert build_root_system("B3") is build_root_system("B", 3)
    rs = build_root_system("b3")
    assert build_basis(build_root_system("B3")) is build_basis(rs)
    assert make_representation(rs) is make_representation(build_root_system("B3"), default_tag(rs))
    assert make_representation(rs, "adjoint") is make_representation(build_root_system("B3"), "adjoint")


def test_value_keyed_memos_share_between_equal_rings():
    rep = make_representation(build_root_system("A2"))
    a, b = ZmodRing(7), ZmodRing(7, label="GF(7)")
    assert a is not b and a == b
    assert rep.identity(a) is rep.identity(b)
    assert rep.elementary_matrix(a, (1, -1, 0), 3) is rep.elementary_matrix(b, (1, -1, 0), 3)


def test_equal_rings_share_one_weyl_lift_table():
    rep = make_representation(build_root_system("B2"))
    memo = decompose._weyl_lift_inverses
    a, b = ZmodRing(3), parse_ring_spec("GF(3)")
    assert a is not b and a == b
    assert memo.cache_info().maxsize == RING_MEMO_SIZE
    assert memo(rep, a) is memo(rep, b)


def test_three_ring_kinds():
    # the ring kinds whose add/mul/inv a traced benchmark run counts
    kinds = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "RingSpec" for b in node.bases
            ):
                kinds.add(node.name)
    assert kinds == {"ZmodRing", "PolyQuotientRing", "ProductRing"}


def test_equal_rings_share_one_artinian_decomposition():
    a, b = ZmodRing(360), ZmodRing(360, label="integers mod 360")
    assert a is not b and a == b
    before = artinian_decompose.cache_info()
    assert artinian_decompose(a) is artinian_decompose(b)
    after = artinian_decompose.cache_info()
    assert after.maxsize == RING_MEMO_SIZE
    assert after.hits >= before.hits + 1


def test_commutator_root_list_hit_returns_the_same_tuple():
    rs = build_root_system("G2")
    first = rs.commutator_root_list((1, 0), (0, 1))
    before = type(rs).commutator_root_list.cache_info().hits
    assert isinstance(first, tuple)
    assert build_root_system("G2").commutator_root_list((1, 0), (0, 1)) is first
    assert type(rs).commutator_root_list.cache_info().hits == before + 1


def test_commutator_coefficients_hit_returns_the_same_view():
    """The relations checks read the coefficients once per root pair per call,
    and a traced run wraps the method by name: a second call is one memo hit
    that returns the same read-only view."""
    table = build_basis(build_root_system("G2"))
    first = table.commutator_coefficients((1, 0), (0, 1))
    before = ChevalleyBasisTable.commutator_coefficients.cache_info().hits
    assert isinstance(first, MappingProxyType)
    assert build_basis(build_root_system("G2")).commutator_coefficients((1, 0), (0, 1)) is first
    assert ChevalleyBasisTable.commutator_coefficients.cache_info().hits == before + 1


def test_decomposition_constants_hit_returns_the_same_view():
    """Every decomposition report holds its root system's one read-only view
    of the bounds; a second call is one memo hit."""
    rs = build_root_system("B3")
    first = decompose.decomposition_constants(rs)
    before = decompose.decomposition_constants.cache_info().hits
    assert isinstance(first, MappingProxyType)
    assert decompose.decomposition_constants(build_root_system("B3")) is first
    assert decompose.decomposition_constants.cache_info().hits == before + 1


def test_push_split_hit_returns_the_same_split():
    """Each push into the fourfold machine reads its split and Levi root set
    from one memo keyed by (root system, letter): a second lookup is one hit
    that returns the same pair."""
    rs = build_root_system("B3")
    root = rs.opposite[rs.simple[1]]
    first = decompose._push_split(rs, root)
    before = decompose._push_split.cache_info().hits
    assert isinstance(first[1], frozenset)
    assert decompose._push_split(build_root_system("B3"), root) is first
    assert decompose._push_split.cache_info().hits == before + 1
