"""Runtime wrappers around the public entry points of each engine layer.

Nothing under ``src/`` changes: ``Tracer.install`` replaces functions and
methods on the imported modules and ``Tracer.uninstall`` puts the originals
back. A name is patched in every module that looks it up, because ``synth``
binds the names it imports (``tablesynth.synth.solve_concat`` is a separate
binding from ``tablesynth.features.solve_concat``).

A span is one call of a wrapped function (or one ``next()`` of the
surjection generator). Spans nest on one stack; a layer's self time is the
duration of its spans minus the time covered by spans opened inside them.
Counters are kept where the work happens, so the ratios are measured there.
"""

from __future__ import annotations

import time
from collections import defaultdict

import tablesynth.cli as cli
import tablesynth.domains as domains
import tablesynth.dsl as dsl
import tablesynth.features as features
import tablesynth.progtext as progtext
import tablesynth.synth as synth
import tablesynth.table as table
from tablesynth.errors import FeatureMissError, TableSynthError

_SOLVERS = ("linear", "div", "mod", "sum", "substring", "concat")
_OPERATORS = ("filter", "join", "groupjoin", "order")

#: Layers with a self-time span, by reported name.
SPAN_LAYERS = (
    ("table.Table",)
    + tuple(f"dsl.exec_{op}" for op in _OPERATORS)
    + ("synth.expand", "synth.hypgen", "synth.match", "synth.surjections",
       "synth.assemble")
    + tuple(f"features.solve_{s}" for s in _SOLVERS)
    + ("domains.load_benchmark", "progtext.format_program",
       "progtext.parse_program")
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Self time of each layer split by the layer whose span caused it.
        self.self_by_caller: dict[tuple[str, str], float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child time] of each open span
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()
        self.self_by_caller.clear()
        self.count.clear()

    # -- span and counter primitives -----------------------------------------

    def _open(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _close(self, start: float):
        elapsed = time.perf_counter() - start
        name, child = self._stack.pop()
        self.self_s[name] += elapsed - child
        self.total_s[name] += elapsed
        caller = self._stack[-1][0] if self._stack else "-"
        self.self_by_caller[(name, caller)] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed

    def span(self, name: str, fn, hits: bool = False):
        """Wrap ``fn`` in a span; with ``hits``, count non-None results."""
        count = self.count
        calls, hit = name + ".calls", name + ".hits"

        def wrapper(*args, **kwargs):
            count[calls] += 1
            start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(start)
            if hits and result is not None:
                count[hit] += 1
            return result

        return wrapper

    def span_generator(self, name: str, fn):
        """Wrap a generator function; each ``next()`` is one span."""
        tracer = self
        count = self.count
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                start = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(start)
                count[yielded] += 1
                yield item

        return wrapper

    def counted(self, name: str, fn, errors=None):
        """Count calls of ``fn`` (and raised ``errors``) without a span."""
        count = self.count
        calls, errs = name + ".calls", name + ".errors"

        def wrapper(*args, **kwargs):
            count[calls] += 1
            if errors is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except errors:
                count[errs] += 1
                raise

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        p = self._patch
        p(table.Table, "__init__", lambda f: self.span("table.Table", f))
        for op in _OPERATORS:
            p(dsl, f"exec_{op}", lambda f, op=op: self.span(f"dsl.exec_{op}", f))
        # exec_transform is looked up in dsl (exec_program) and in synth
        # (forward expansion); only the latter counts as a forward statement.
        p(dsl, "exec_transform",
          lambda f: self.counted("dsl.exec_transform", f, TableSynthError))
        p(synth, "exec_transform",
          lambda f: self.counted("synth.exec_transform", f, TableSynthError))
        for s in _SOLVERS:
            name = f"features.solve_{s}"
            p(features, f"solve_{s}", lambda f, n=name: self.span(n, f, hits=True))
            p(synth, f"solve_{s}", lambda f, n=name: self.span(n, f, hits=True))
        p(features, "extract",
          lambda f: self.counted("features.extract", f, FeatureMissError))
        p(synth, "score_subtable",
          lambda f: self.counted("synth.score_subtable", f))
        engine = synth._Engine
        p(engine, "expand", lambda f: self.span("synth.expand", f))
        p(engine, "match_hypothesis", lambda f: self.span("synth.match", f))
        p(engine, "_surjections",
          lambda f: self.span_generator("synth.surjections", f))
        p(engine, "assemble_mapping", lambda f: self.span("synth.assemble", f))
        p(engine, "assemble_program", lambda f: self.span("synth.assemble", f))
        p(engine, "_solve", lambda f: self._solve_wrapper(f))
        p(engine, "_add_entry", lambda f: self._add_entry_wrapper(f))
        gen = synth.HypothesisGenerator
        for attr in ("__init__", "next", "update_rank"):
            p(gen, attr, lambda f: self.span("synth.hypgen", f))
        p(domains, "load_benchmark",
          lambda f: self.span("domains.load_benchmark", f))
        for owner in (progtext, cli):
            p(owner, "format_program",
              lambda f: self.span("progtext.format_program", f))
        p(progtext, "parse_program",
          lambda f: self.span("progtext.parse_program", f))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _solve_wrapper(self, fn):
        count = self.count

        def wrapper(engine, family, data):
            count["synth.solve.calls"] += 1
            if (family, data) in engine.solver_cache:
                count["synth.solve.cache_hits"] += 1
            return fn(engine, family, data)

        return wrapper

    def _add_entry_wrapper(self, fn):
        count = self.count

        def wrapper(engine, stmt, table_, depth):
            kept = fn(engine, stmt, table_, depth)
            if kept and stmt is not None:
                count["synth.forward.kept"] += 1
            return kept

        return wrapper
