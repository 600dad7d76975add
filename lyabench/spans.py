"""In-process span tracer for the per-layer metrics.

The tracer wraps the public functions of each ``lya`` module from outside:
nothing under ``src/`` changes.  A function is replaced wherever a module
looks its name up, because ``from .exactlin import nullspace`` binds the
name in the importing module too.  Each call records a span (name, start,
end, parent) in flat arrays; the arrays are written out once, at the end.

A layer is a module.  A span's own-layer time is its duration minus the time
of the nested spans that belong to other layers, so a layer's ``self_s`` is
the time during which the innermost traced call was one of its functions.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "serialize", "theorems", "derivations", "structure", "maps", "lyalg",
          "exactlin")

# Vector primitives run millions of times per pass; a span on each would
# cost more than the work it measures.  Their time counts as their caller's.
UNTRACED = {"exactlin": {"frac", "vec", "vzero", "vunit", "vadd", "vsub", "vscale",
                         "vis_zero", "vdot"}}

SOLVERS = ("derivations.derivation_space", "derivations.g_derivation_space",
           "derivations.centroid", "derivations.stabilizer_derivations")
VERIFIERS = tuple(f"theorems.verify_{p}" for p in
                  ("p31", "t32", "p33", "p34", "p35", "p36", "p37", "p38"))
STRUCTURE = ("structure.center", "structure.derived_algebra", "structure.is_subalgebra",
             "structure.is_ideal")

# Per-layer metrics and their units.  README.md gives the end-to-end metric
# and workload each should move.
METRICS = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "serialize.load_json_file.calls": "count",
    "serialize.load_json_file.s": "s",
    "serialize.algebra_from_dict.self_s": "s",
    "serialize.canonical_json.calls": "count",
    "serialize.canonical_json.s": "s",
    "serialize.out_bytes": "B",
    "lyalg.check_axioms.calls": "count",
    "lyalg.check_axioms.s": "s",
    "lyalg.binary_eval.calls": "count",
    "lyalg.ternary_eval.calls": "count",
    "lyalg.self_s": "s",
    "exactlin.rref.calls": "count",
    "exactlin.rref.s": "s",
    "exactlin.rref.cells": "count",
    "exactlin.rref.nnz": "count",
    "exactlin.nullspace.calls": "count",
    "exactlin.nullspace.s": "s",
    "exactlin.solve.calls": "count",
    "exactlin.solve.s": "s",
    "exactlin.self_s": "s",
    "maps.satisfies_g_derivation.calls": "count",
    "maps.satisfies_g_derivation.s": "s",
    "maps.certify_automorphism.calls": "count",
    "maps.certify_automorphism.s": "s",
    "maps.self_s": "s",
    "structure.calls": "count",
    "structure.s": "s",
    "derivations.solves": "count",
    "derivations.g_derivation_space.calls": "count",
    "derivations.is_quasi_derivation.s": "s",
    "derivations.dhat.s": "s",
    "derivations.self_s": "s",
    "theorems.checks": "count",
    "theorems.verify.s": "s",
    "theorems.self_s": "s",
    "theorems.solves_per_check": "ratio",
    "trace.overhead": "ratio",
}

COUNTS = {name for name, unit in METRICS.items() if unit in ("count", "B")}


def _count_rref_input(counters: dict, m, *_args, **_kwargs) -> None:
    counters["exactlin.rref.cells"] += m.rows * m.cols
    counters["exactlin.rref.nnz"] += sum(1 for row in m.entries for x in row if x != 0)


class Tracer:
    """Wraps lya's functions while installed and keeps every span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"exactlin.rref.cells": 0, "exactlin.rref.nnz": 0}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        fid = self._id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            if measure is not None:
                measure(counters, *args, **kwargs)
            idx = len(start)
            span_name.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"lya.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNTRACED.get(layer, ())):
                    measure = _count_rref_input if f"{layer}.{attr}" == "exactlin.rref" else None
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn, measure)
        for modname, module in list(sys.modules.items()):
            if modname != "lya" and not modname.startswith("lya."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def begin_job(self, job_id: str) -> int:
        """Open the root span of one job; its children share its index."""
        idx = len(self.start)
        self.span_name.append(self._id(f"job:{job_id}"))
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def end_job(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def mark(self) -> tuple[int, dict]:
        return len(self.start), dict(self.counters)

    def metrics(self, since: tuple[int, dict], out_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded after ``since``."""
        lo, counters0 = since
        hi = len(self.start)
        names = self.names
        layer_of = [name.split(".", 1)[0] for name in names]
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        foreign = [0.0] * (hi - lo)
        for i in range(hi - 1, lo - 1, -1):
            p = self.parent[i]
            if p >= lo:
                if layer_of[self.span_name[i]] != layer_of[self.span_name[p]]:
                    foreign[p - lo] += dur[i - lo]
                else:
                    foreign[p - lo] += foreign[i - lo]

        calls: dict[str, int] = {}
        own: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        by_name: dict[str, list[int]] = {}
        for i in range(lo, hi):
            name = names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            t_own = dur[i - lo] - foreign[i - lo]
            own[name] = own.get(name, 0.0) + t_own
            layer = layer_of[self.span_name[i]]
            p = self.parent[i]
            if layer in layer_self and (p < lo or layer_of[self.span_name[p]] != layer):
                layer_self[layer] += t_own
            by_name.setdefault(name, []).append(i)

        def has_ancestor(i: int, group: set[int]) -> bool:
            p = self.parent[i]
            while p >= lo:
                if self.span_name[p] in group:
                    return True
                p = self.parent[p]
            return False

        def inclusive(*group_names: str) -> float:
            group = {self.name_id[n] for n in group_names if n in self.name_id}
            return sum(dur[i - lo] for n in group_names for i in by_name.get(n, ())
                       if not has_ancestor(i, group))

        def n_calls(*group_names: str) -> int:
            return sum(calls.get(n, 0) for n in group_names)

        checks = n_calls(*VERIFIERS)
        verifier_ids = {self.name_id[n] for n in VERIFIERS if n in self.name_id}
        solves_in_checks = sum(1 for i in by_name.get("derivations.g_derivation_space", ())
                               if has_ancestor(i, verifier_ids))
        m = {
            "cli.main.s": inclusive("cli.main"),
            "cli.self_s": layer_self["cli"],
            "serialize.load_json_file.calls": n_calls("serialize.load_json_file"),
            "serialize.load_json_file.s": inclusive("serialize.load_json_file"),
            "serialize.algebra_from_dict.self_s": own.get("serialize.algebra_from_dict", 0.0),
            "serialize.canonical_json.calls": n_calls("serialize.canonical_json"),
            "serialize.canonical_json.s": inclusive("serialize.canonical_json"),
            "serialize.out_bytes": out_bytes,
            "lyalg.check_axioms.calls": n_calls("lyalg.check_axioms"),
            "lyalg.check_axioms.s": inclusive("lyalg.check_axioms"),
            "lyalg.binary_eval.calls": n_calls("lyalg.binary_eval"),
            "lyalg.ternary_eval.calls": n_calls("lyalg.ternary_eval"),
            "lyalg.self_s": layer_self["lyalg"],
            "exactlin.rref.calls": n_calls("exactlin.rref"),
            "exactlin.rref.s": inclusive("exactlin.rref"),
            "exactlin.nullspace.calls": n_calls("exactlin.nullspace"),
            "exactlin.nullspace.s": inclusive("exactlin.nullspace"),
            "exactlin.solve.calls": n_calls("exactlin.solve"),
            "exactlin.solve.s": inclusive("exactlin.solve"),
            "exactlin.self_s": layer_self["exactlin"],
            "maps.satisfies_g_derivation.calls": n_calls("maps.satisfies_g_derivation"),
            "maps.satisfies_g_derivation.s": inclusive("maps.satisfies_g_derivation"),
            "maps.certify_automorphism.calls": n_calls("maps.certify_automorphism"),
            "maps.certify_automorphism.s": inclusive("maps.certify_automorphism"),
            "maps.self_s": layer_self["maps"],
            "structure.calls": n_calls(*STRUCTURE),
            "structure.s": inclusive(*STRUCTURE),
            "derivations.solves": n_calls(*SOLVERS),
            "derivations.g_derivation_space.calls": n_calls("derivations.g_derivation_space"),
            "derivations.is_quasi_derivation.s": inclusive("derivations.is_quasi_derivation"),
            "derivations.dhat.s": inclusive("derivations.dhat"),
            "derivations.self_s": layer_self["derivations"],
            "theorems.checks": checks,
            "theorems.verify.s": inclusive(*VERIFIERS),
            "theorems.self_s": layer_self["theorems"],
            "theorems.solves_per_check": solves_in_checks / checks if checks else 0.0,
        }
        for key in ("exactlin.rref.cells", "exactlin.rref.nnz"):
            m[key] = self.counters[key] - counters0[key]
        return m

    def dump(self, path: Path) -> None:
        """Write every span as ``index name start end parent`` lines, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def combine(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced pass and medians of everything else.

    Returns the metrics and the names of counts that differed between passes.
    """
    first = per_pass[0]
    unstable = [k for k in first if k in COUNTS and any(p[k] != first[k] for p in per_pass)]
    out = {k: (first[k] if k in COUNTS else statistics.median(p[k] for p in per_pass))
           for k in first}
    return out, unstable
