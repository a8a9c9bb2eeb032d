"""Span tracing of haig from outside the package.

``Tracer.install`` wraps, for the duration of a traced pass, every public
function that ``haig.cli``, ``haig.harness`` and ``haig.specfile`` import
from another haig module (``cli.load_spec``, ``harness.filter_action``,
``specfile.validate_model`` and so on), plus ``RolloutTrace.to_jsonl``.
Only names that exist are wrapped, so a function a later change deletes
reads as zero calls.  ``uninstall`` puts the originals back.

A span records its name (defining module and function, e.g.
``solver.value_iteration``), start, end, parent span and op id.  Its self
time is its duration minus the durations of its direct children.  Hot
calls are aggregated per (parent, name) instead of kept one by one.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "harness", "specfile")
TRACED_METHODS = (("harness", "RolloutTrace", "to_jsonl"),)
HOT = frozenset({"filtering.filter_action"})


def _observe_load(counts, args, result):
    counts["doc_bytes_loaded"] += os.path.getsize(args[0])


def _observe_solve(counts, args, result):
    counts["sweeps"] += result.iterations


def _observe_verify(counts, args, result):
    counts["verify_expansions"] += result.expanded
    counts["verify_counterexamples"] += len(result.counterexamples)


# Counters read off the arguments or results of a traced call.
OBSERVERS = {
    "specfile.load_spec": _observe_load,
    "solver.value_iteration": _observe_solve,
    "harness.verify_safety": _observe_verify,
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent, op, self)
        self.hot = {}                   # (parent, name) -> [count, total, self]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []                # open spans: [id, name, start, child time]
        self._next_id = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        if name in HOT:
            entry = self.hot.setdefault((parent, name), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
        else:
            self.spans.append((span_id, name, start, end, parent, self.op, duration - child))

    def self_times(self):
        """Self time and call count summed per span name."""
        total = defaultdict(float)
        calls = defaultdict(int)
        for _, name, _, _, _, _, self_time in self.spans:
            total[name] += self_time
            calls[name] += 1
        for (_, name), (count, _, self_time) in self.hot.items():
            total[name] += self_time
            calls[name] += count
        return total, calls

    def dump(self):
        """JSON-ready spans: individual ones, then the aggregated hot calls."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op, "self": st}
                for i, n, s, e, p, op, st in self.spans
            ],
            "aggregated": [
                {"parent": p, "name": n, "count": c, "total": t, "self": st}
                for (p, n), (c, t, st) in self.hot.items()
            ],
        }

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self):
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"haig.{short}")
            except ImportError:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith("haig.") or owner == module.__name__:
                    continue
                name = f"{owner.split('.', 1)[1]}.{value.__name__}"
                self._undo.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name))
        for short, cls_name, method in TRACED_METHODS:
            try:
                cls = getattr(importlib.import_module(f"haig.{short}"), cls_name)
            except (ImportError, AttributeError):
                continue
            original = cls.__dict__.get(method)
            if inspect.isfunction(original):
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, f"{short}.{cls_name}.{method}"))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
