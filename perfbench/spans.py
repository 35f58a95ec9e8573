"""Spans around calls into polyvote's layers, recorded from outside.

``Tracer.install`` replaces selected functions and methods of the five
polyvote modules with wrappers that record one span per call: name,
start, end and the span open when it was called.  A function is
replaced under every module attribute bound to it, so calls through
``from .linalg import determinant`` are traced as well.  Spans stay in
memory until ``write`` is called after the pass.

Each traced name maps to a bucket; a bucket's self time is the summed
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Bareiss kernels only: the scalar helpers (as_vector, parse_rational,
# ...) run once per constraint or coefficient, and a span each would
# cost more than the work it measures.
LINALG_KERNELS = ("determinant", "solve", "rank")
POLYTOPE_METHODS = {
    "HPolytope": ("intersect", "eliminate_equality", "enumerate_vertices",
                  "bounding_box", "is_empty", "volume"),
    "VPolytope": ("denominator_lcm",),
    "EventRegion": ("intersect", "volume"),
}
POLYTOPE_FUNCTIONS = ("parse_hrep", "format_hrep")
# HPolytope.volume() enumerates vertices through the cached module-level
# _vertices; tracing that name splits vertex time out of volume time
# without changing what is computed.
VERTEX_FUNCTION = "_vertices"
# the two functions that turn constraint rows into an HPolytope
COMPILERS = ("share_space_polytope", "referendum_district_polytope")

BUCKETS = (
    "cli", "socialchoice", "polytope.vertices", "polytope.volume",
    "polytope.other", "linalg", "ehrhart.count", "ehrhart.interpolate",
    "ehrhart.other",
)


def bucket_of(name: str) -> str:
    module, _, attr = name.partition(".")
    if module == "polytope":
        if attr == VERTEX_FUNCTION:
            return "polytope.vertices"
        if attr.endswith(".volume"):
            return "polytope.volume"
        return "polytope.other"
    if module == "ehrhart":
        if attr == "count_lattice_points":
            return "ehrhart.count"
        if attr == "interpolate_quasipolynomial":
            return "ehrhart.interpolate"
        return "ehrhart.other"
    return module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.vertices_found = 0
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    def _wrap_vertices(self, fn):
        traced = self._wrap(fn, f"polytope.{VERTEX_FUNCTION}")
        info = getattr(fn, "cache_info", None)

        def counted(poly):
            misses = info().misses if info else 0
            verts = traced(poly)
            if not info or info().misses > misses:
                self.vertices_found += len(verts)
            return verts

        return counted

    def install(self, package) -> None:
        """Wrap the traced functions of ``package``'s five modules."""
        mods = {m: sys.modules[f"{package.__name__}.{m}"]
                for m in ("cli", "socialchoice", "polytope", "ehrhart", "linalg")}
        namespaces = [package] + list(mods.values())
        targets = []
        for m in ("cli", "socialchoice", "ehrhart"):
            targets += [(f"{m}.{n}", f) for n, f in vars(mods[m]).items()
                        if not n.startswith("_") and inspect.isfunction(f)
                        and f.__module__ == mods[m].__name__]
        for n in LINALG_KERNELS:
            targets.append((f"linalg.{n}", getattr(mods["linalg"], n, None)))
        for n in POLYTOPE_FUNCTIONS:
            targets.append((f"polytope.{n}", getattr(mods["polytope"], n, None)))
        for name, fn in targets:
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(fn, name)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
        for cls_name, methods in POLYTOPE_METHODS.items():
            cls = getattr(mods["polytope"], cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if not inspect.isfunction(fn):
                    self.missing.append(f"polytope.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self._wrap(fn, f"polytope.{cls_name}.{meth}"))
        vertices = getattr(mods["polytope"], VERTEX_FUNCTION, None)
        if vertices is None:
            self.missing.append(f"polytope.{VERTEX_FUNCTION}")
        else:
            setattr(mods["polytope"], VERTEX_FUNCTION, self._wrap_vertices(vertices))

    def summary(self) -> dict:
        """Self time per bucket, call counts per traced name, and totals."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(BUCKETS, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for sid, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[bucket_of(name)] += end - start - child[sid]
            calls[name] += 1
        return {
            "self_s": self_s,
            "calls": {n: c for n, c in calls.items() if c},
            "spans": len(self.spans),
            "vertices_found": self.vertices_found,
            "polytopes_compiled": sum(calls.get(f"socialchoice.{n}", 0) for n in COMPILERS),
            "missing": self.missing,
        }

    def write(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": self.names[name_id],
                                     "start": start, "end": end, "parent": parent}))
                fh.write("\n")
