"""Span and count recorders installed around calls between layers.

Only the traced run imports this module.  ``Tracer.install`` replaces the
module-level names through which one layer of ``prologtheta`` calls
another (and the benchmark's own ``render``) with wrappers that record a
span or bump a counter, then call the original.  A name that no longer
exists is skipped, and the metrics that depend only on it are reported as
absent rather than as 0.
"""

from __future__ import annotations

import gc
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute path, span name, extra counts taken from the call).
# Each extra is (counter, fn(args, result) -> amount).
SPAN_HOOKS = [
    ("prologtheta.loader", "parse_module", "parser.parse_module",
     [("parser.bytes", lambda a, r: len(a[0].encode()))]),
    ("prologtheta.parser", "parse_query", "parser.parse_query", []),
    ("prologtheta.fuzz", "parse_query", "parser.parse_query", []),
    ("prologtheta.loader", "skolemize", "loader.skolemize",
     [("loader.clauses", lambda a, r: len(r.clauses))]),
    ("prologtheta.loader", "Program.arities", "loader.arities", []),
    ("prologtheta.syntax", "desugar_query_vars", "syntax.desugar_query", []),
    ("prologtheta.fuzz", "desugar_query_vars", "syntax.desugar_query", []),
    ("prologtheta.engine", "solve", "engine.open", []),
    ("prologtheta.fuzz", "solve", "engine.open", []),
    ("prologtheta.engine", "ProofSearch.snapshot", "engine.snapshot",
     [("engine.snapshots", lambda a, r: 1),
      ("engine.trace_steps", lambda a, r: len(a[0].steps))]),
    ("prologtheta.fuzz", "herbrand_universe", "oracle.universe", []),
    ("prologtheta.fuzz", "oracle_solve", "oracle.solve", []),
    ("prologtheta.fuzz", "random_case", "fuzz.generate", []),
    ("prologtheta.fuzz", "load", "fuzz.load", []),
    ("workloads", "render", "cli.render",
     [("cli.bytes_out", lambda a, r: len(r) + 1)]),
]
# Generators whose every resumption is one span.
RESUME_HOOKS = [
    ("prologtheta.engine", "SolveSession._run", "engine.search", "engine.solutions"),
]
# Hot calls that are counted only: a span each would cost more than the call.
# Each is (module, attribute path, counter, counter of truthy results or None).
COUNT_HOOKS = [
    ("prologtheta.engine", "ProofSearch.backchain", "engine.clause_tries", None),
    ("prologtheta.engine", "unify_into", "engine.unify_calls", "engine.unify_ok"),
    ("prologtheta.engine", "fresh_var", "engine.fresh_vars", None),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self(span: str):
    return lambda t: t.own[span]


def _count(name: str):
    return lambda t: t.counts[name]


# name -> (unit, recorder names it needs, fn(tracer) -> value)
PER_LAYER = {
    "parser.parse_module_s": ("s", ["parser.parse_module"], _self("parser.parse_module")),
    "parser.bytes_per_s": ("B/s", ["parser.parse_module"],
                           lambda t: _ratio(t.counts["parser.bytes"],
                                            t.own["parser.parse_module"])),
    "parser.parse_query_s": ("s", ["parser.parse_query"], _self("parser.parse_query")),
    "loader.skolemize_s": ("s", ["loader.skolemize"], _self("loader.skolemize")),
    "loader.clauses": ("count", ["loader.skolemize"], _count("loader.clauses")),
    "loader.arities_s": ("s", ["loader.arities"], _self("loader.arities")),
    "syntax.desugar_query_s": ("s", ["syntax.desugar_query"], _self("syntax.desugar_query")),
    "engine.open_s": ("s", ["engine.open"], _self("engine.open")),
    "engine.search_s": ("s", ["engine.search"], _self("engine.search")),
    "engine.snapshot_s": ("s", ["engine.snapshot"], _self("engine.snapshot")),
    "engine.snapshots": ("count", ["engine.snapshot"], _count("engine.snapshots")),
    "engine.clause_tries": ("count", ["engine.clause_tries"], _count("engine.clause_tries")),
    "engine.unify_calls": ("count", ["engine.unify_calls"], _count("engine.unify_calls")),
    "engine.unify_ok_ratio": ("ratio", ["engine.unify_calls"],
                              lambda t: _ratio(t.counts["engine.unify_ok"],
                                               t.counts["engine.unify_calls"])),
    "engine.fresh_vars": ("count", ["engine.fresh_vars"], _count("engine.fresh_vars")),
    "engine.solutions": ("count", ["engine.search"], _count("engine.solutions")),
    "engine.trace_steps": ("count", ["engine.snapshot"], _count("engine.trace_steps")),
    "cli.import_s": ("s", ["cli.import"], _self("cli.import")),
    "cli.render_s": ("s", ["cli.render"], _self("cli.render")),
    "cli.bytes_out": ("B", ["cli.render"], _count("cli.bytes_out")),
    "oracle.universe_s": ("s", ["oracle.universe"], _self("oracle.universe")),
    "oracle.solve_s": ("s", ["oracle.solve"], _self("oracle.solve")),
    "fuzz.generate_s": ("s", ["fuzz.generate"], _self("fuzz.generate")),
    "fuzz.load_s": ("s", ["fuzz.load"], _self("fuzz.load")),
    "py.gc_s": ("s", ["py.gc"], lambda t: t.gc_s),
    "py.gc_collections": ("count", ["py.gc"], _count("py.gc_collections")),
}
OVERHEAD = ("trace.overhead_ratio", "ratio")


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Spans are ``[name, parent, request, start, end]`` kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.request = 0
        self.own: dict = {}  # span name -> summed self time, set by metrics()
        self.gc_s = 0.0
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.request, perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured before the tracer was installed."""
        self.spans.append([name, None, self.request, start, end])
        self.installed.add(name)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, path, name, extras in SPAN_HOOKS:
            self._replace(module, path, name, lambda f, n=name, x=extras: self._span(f, n, x))
        for module, path, name, counter in RESUME_HOOKS:
            self._replace(module, path, name, lambda f, n=name, c=counter: self._resumes(f, n, c))
        for module, path, name, ok in COUNT_HOOKS:
            self._replace(module, path, name, lambda f, n=name, k=ok: self._counted(f, n, k))
        gc.callbacks.append(self._on_gc)
        self.installed.add("py.gc")

    def _replace(self, module: str, path: str, name: str, wrap: Callable) -> None:
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, value = found
        setattr(owner, attr, wrap(value))
        self.installed.add(name)

    def _span(self, fn, name, extras):
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            for counter, amount in extras:
                self.counts[counter] += amount(args, result)
            return result
        return spanned

    def _resumes(self, fn, name, counter):
        def resumed(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    self.counts[counter] += 1
                    yield item
            finally:
                gen.close()
        return resumed

    def _counted(self, fn, name, ok_name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if ok_name is not None and result:
                counts[ok_name] += 1
            return result
        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.counts["py.gc_collections"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        """Every per-layer metric whose recorders could all be installed."""
        gc.callbacks.remove(self._on_gc)
        self.own = defaultdict(float)
        for own, span in zip(self.self_times(), self.spans):
            self.own[span[0]] += own
        out = {}
        for name, (unit, needs, value) in PER_LAYER.items():
            if all(n in self.installed for n in needs):
                out[name] = {"value": value(self), "unit": unit}
        return out

    def dump(self, path, header: dict) -> None:
        own = self.self_times()
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, ((name, parent, request, start, end), s) in enumerate(zip(self.spans, own)):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "request": request, "start": start,
                                    "end": end, "self": s}) + "\n")
