"""Spans around chevlab's public callables, recorded from the benchmark's side.

`Tracer.install()` replaces each traced function or method with a wrapper,
in its defining module or class and in every chevlab module that imported it
by name, so calls made inside the program are traced as well as calls made
by the benchmark.  The program's code is not changed.  A span is
(name, start, end, parent); spans are held in flat arrays in memory and
written out by `Tracer.write()` at the end of the run.  Ring add/mul/inv are
only counted: they are too small and too frequent to time one by one.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute path, statistics reported)
SPANS = [
    ("chevalley.build_basis", "chevalley", "build_basis", ("total_s",)),
    ("chevalley.commutator_coefficients", "chevalley",
     "ChevalleyBasisTable.commutator_coefficients", ("calls", "total_s")),
    ("reps.divided_powers", "reps", "Representation.divided_powers", ("total_s",)),
    ("reps.elementary_matrix", "reps", "Representation.elementary_matrix", ("calls", "self_s")),
    ("linalg.mat_mul", "linalg", "mat_mul", ("self_s",)),
    ("linalg.mat_inverse", "linalg", "mat_inverse", ("calls", "self_s")),
    ("groups.GroupElement.mul", "groups", "GroupElement.__mul__", ("calls",)),
    ("groups.subgroup_closure", "groups", "subgroup_closure", ("total_s",)),
    ("groups.verify_steinberg_relations", "groups", "verify_steinberg_relations", ("total_s",)),
    ("groups.ElementaryWord.evaluate", "groups", "ElementaryWord.evaluate", ("calls", "self_s")),
    ("decompose.bruhat_decompose", "decompose", "bruhat_decompose", ("calls", "total_s")),
    ("decompose.big_cell_factor", "decompose", "big_cell_factor", ("calls",)),
    ("decompose.local_decompose", "decompose", "local_decompose", ("total_s",)),
    ("decompose.decompose_over_product", "decompose", "decompose_over_product", ("total_s",)),
    ("decompose.unipotent_coordinates", "decompose", "unipotent_coordinates", ("calls", "self_s")),
    ("decompose.tavgen_decompose", "decompose", "tavgen_decompose", ("total_s",)),
    ("roots.RootSystem.weyl_elements", "roots", "RootSystem.weyl_elements", ("total_s",)),
    ("roots.RootSystem.same_length_conjugator", "roots",
     "RootSystem.same_length_conjugator", ("calls",)),
    ("congruence.ideal_certificate", "congruence", "ideal_certificate", ("total_s",)),
    ("congruence.level_set", "congruence", "level_set", ("calls", "total_s")),
    ("congruence.NormalSubgroupHandle.contains", "congruence",
     "NormalSubgroupHandle.contains", ("calls",)),
]

# Ratios and counts the wrappers record beside the spans.
DERIVED = (
    "reps.elementary_matrix.miss_ratio",
    "groups.ElementaryWord.evaluate.letters",
    "decompose.big_cell_factor.accept_ratio",
)

RING_KINDS = {"ZmodRing": "zmod", "PolyQuotientRing": "polyquot", "ProductRing": "product"}
RING_OPS = ("add", "mul", "inv")

# mat_mul is reported per ring kind for the dimensions the workloads use.
MAT_MUL_DIMS = {
    "zmod": (3, 4, 5, 6, 7, 8, 14, 52),
    "polyquot": (3, 6, 7, 8, 14),
    "product": (3, 6, 7, 8, 14),
}

CLI_COMMANDS = ("verify-relations", "closure", "certify", "decompose")


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in the order the benchmark reports them."""
    names = [f"{span}.{stat}" for span, _, _, stats in SPANS for stat in stats]
    names += DERIVED
    for kind, dims in MAT_MUL_DIMS.items():
        for d in dims:
            names.append(f"linalg.mat_mul.calls.{kind}.d{d}")
            names.append(f"linalg.mat_mul.us_per_call.{kind}.d{d}")
    names += [f"rings.{op}.calls.{kind}" for op in RING_OPS for kind in RING_KINDS.values()]
    names += [f"cli.{cmd}.wall_s" for cmd in CLI_COMMANDS]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".us_per_call." in name:
        return "us"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # the name of each name id
        self._ids: dict = {}
        self._span_of: list[str] = []  # the SPANS entry of each name id
        self.name_id = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.elementary_keys: set = set()
        self._mat_mul_ids: dict = {}
        self._stack = [-1]
        self._patches: list = []
        self.active = False

    def intern(self, name: str, span: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._span_of.append(span)
            self._ids[name] = nid
        return nid

    # -- recording ------------------------------------------------------------

    def _span_wrapper(self, span: str, fn, before=None, after=None):
        """Wrap fn in a span; `before(args)` may return a finer name id."""
        tracer = self
        nid = self.intern(span, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid if before is None else before(args))
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mat_mul_id(self, args) -> int:
        """linalg.mat_mul spans are named by ring kind and dimension."""
        key = (type(args[0]), len(args[1]))
        nid = self._mat_mul_ids.get(key)
        if nid is None:
            kind = RING_KINDS.get(key[0].__name__, "other")
            nid = self.intern(f"linalg.mat_mul.{kind}.d{key[1]}", "linalg.mat_mul")
            self._mat_mul_ids[key] = nid
        return nid

    def _elementary_key(self, args) -> int:
        rep, ring, root, t = args[:4]
        self.elementary_keys.add((rep.key, ring.key(), tuple(root), t))
        return self._ids["reps.elementary_matrix"]

    def _evaluate_letters(self, args) -> int:
        word = args[0]
        if word._value is None:
            self.counts["groups.ElementaryWord.evaluate.letters"] += len(word.letters)
        return self._ids["groups.ElementaryWord.evaluate"]

    def _big_cell_accepted(self, out):
        self.counts["decompose.big_cell_factor.accepted"] += 1

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Wrap every traced callable; spans are recorded while `active`."""
        import chevlab.congruence  # noqa: F401  (loads every traced module)
        import chevlab.decompose  # noqa: F401

        befores = {
            "linalg.mat_mul": self._mat_mul_id,
            "reps.elementary_matrix": self._elementary_key,
            "groups.ElementaryWord.evaluate": self._evaluate_letters,
        }
        afters = {"decompose.big_cell_factor": self._big_cell_accepted}
        modules = [m for n, m in sys.modules.items() if n.startswith("chevlab")]
        for span, module, path, _ in SPANS:
            owner = sys.modules[f"chevlab.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = vars(owner)[attr]
            wrapped = self._span_wrapper(span, fn, befores.get(span), afters.get(span))
            if classes:
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, wrapped)
        rings = sys.modules["chevlab.rings"]
        for cls_name, kind in RING_KINDS.items():
            cls = getattr(rings, cls_name)
            for op in RING_OPS:
                key = f"rings.{op}.calls.{kind}"
                self._patch(cls, op, self._count_wrapper(key, vars(cls)[op]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def arrays(self):
        """(name id, parent index, start, end) of every span, as numpy arrays."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def write(self, path):
        """Write every span and count to a compressed .npz file."""
        name_id, parent, start, end = self.arrays()
        keys = sorted(self.counts)
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            count_keys=np.array(keys),
            count_values=np.array([self.counts[k] for k in keys]),
        )

    def per_layer(self) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        span_of = np.array(self._span_of + [""])[name_id]

        out: dict = {}
        for span, _, _, stats in SPANS:
            sel = span_of == span
            values = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
            for stat in stats:
                out[f"{span}.{stat}"] = values[stat]

        calls = out["reps.elementary_matrix.calls"]
        out["reps.elementary_matrix.miss_ratio"] = len(self.elementary_keys) / calls if calls else 0.0
        out["groups.ElementaryWord.evaluate.letters"] = self.counts[
            "groups.ElementaryWord.evaluate.letters"]
        calls = out["decompose.big_cell_factor.calls"]
        accepted = self.counts["decompose.big_cell_factor.accepted"]
        out["decompose.big_cell_factor.accept_ratio"] = accepted / calls if calls else 0.0

        for kind, dims in MAT_MUL_DIMS.items():
            for d in dims:
                sel = name_id == self._ids.get(f"linalg.mat_mul.{kind}.d{d}", -1)
                n = int(sel.sum())
                out[f"linalg.mat_mul.calls.{kind}.d{d}"] = n
                out[f"linalg.mat_mul.us_per_call.{kind}.d{d}"] = (
                    float(np.median(dur[sel])) * 1e6 if n else 0.0)
        for op in RING_OPS:
            for kind in RING_KINDS.values():
                key = f"rings.{op}.calls.{kind}"
                out[key] = self.counts[key]
        return out
