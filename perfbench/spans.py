"""Layer timing from outside the program, by wrapping its functions.

A layer's function is wrapped at every module of the package that binds it,
and a layer's methods on their class, so a call is caught however it is
reached: ``poly.interreduce`` calls ``normal_form`` through its own module,
the runner through its import. Each call records a span (name, start, end,
parent span, instance) and the layer's counts. Spans stay in memory until the
benchmark writes them out; self time is a span's duration minus what its
child spans cover.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

from midgb import engine, f4, incremental, midsolve, poly, runner, trace


def everywhere(module, attr, before=None, **counts):
    """A module function, wrapped at every module of the package that binds it."""
    return True, module, (attr,), before, counts


def here(owner, *attrs, before=None, **counts):
    """Methods of a class, or names bound by one module only."""
    return False, owner, attrs, before, counts


# name -> where to wrap, and the counts taken at the boundary. A count is
# f(args, result, before) with ``before`` what ``before(args)`` returned.
LAYERS = {
    "f4.symbolic_preprocess": everywhere(
        f4, "symbolic_preprocess", rows=lambda a, r, b: len(r)
    ),
    "f4.MacaulayMatrix.reduce": here(
        f4.MacaulayMatrix,
        "reduce",
        before=lambda a: a[0].shape,
        cells=lambda a, r, b: b[0] * b[1],
        rows=lambda a, r, b: b[0],
        zero_rows=lambda a, r, b: r[1],
    ),
    "runner.RunState.insert_new": here(
        runner.RunState, "insert_new", kept=lambda a, r, b: int(r is not None)
    ),
    "poly.normal_form": everywhere(poly, "normal_form"),
    "engine.update": everywhere(
        engine,
        "update",
        before=lambda a: len(a[1]),
        queue_delta=lambda a, r, b: len(a[1]) - b,
    ),
    "engine.PairQueue.select": here(
        engine.PairQueue, "select", pairs=lambda a, r, b: len(r)
    ),
    "midsolve.renew": everywhere(midsolve, "renew"),
    "midsolve.find_unique_root_polys": everywhere(
        midsolve, "find_unique_root_polys", found=lambda a, r, b: len(r)
    ),
    "poly.interreduce": everywhere(poly, "interreduce"),
    "runner.RunState.completion": here(runner.RunState, "completion"),
    "poly.field_reduce": everywhere(poly, "field_reduce"),
    "trace.TraceWriter": here(trace.TraceWriter, "event", "round", "terminal"),
    # the from-scratch inner engine runs, as the incremental frame calls them
    "incremental.inner_runs": here(incremental, "f4_core", "buchberger_core"),
}


class Tracer:
    """Span and count recorder; the benchmark sets ``instance`` per call."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, instance)
        self.counts: dict = {}  # layer -> count name -> total
        self.instance = None
        self._stack: list = []

    def wrap(self, name, fn, before=None, counts=None):
        counts = list((counts or {}).items())
        totals = self.counts.setdefault(name, {})
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            for key, count in counts:
                totals[key] = totals.get(key, 0) + count(args, result, token)
            return result

        return wrapper

    def summary(self, first: int = 0) -> dict:
        """Per layer: calls, self and total seconds of spans ``first`` onwards."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict = {}
        for (name, start, end, _, _), inner in zip(spans, child):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - inner
            row["total_s"] += end - start
        return out

    def take_counts(self) -> dict:
        """The counts so far, zeroing them for the next pass."""
        out = {name: dict(c) for name, c in self.counts.items()}
        for c in self.counts.values():
            c.clear()
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _bindings(fn):
    """Every (module, attribute) of the package that binds ``fn``."""
    for modname, module in sorted(sys.modules.items()):
        if modname == "midgb" or modname.startswith("midgb."):
            for attr, value in sorted(vars(module).items()):
                if value is fn:
                    yield module, attr


def layer_patches(tracer: Tracer) -> list:
    """(owner, attribute, wrapper) for every layer in LAYERS."""
    out = []
    for name, (spread, owner, attrs, before, counts) in LAYERS.items():
        for attr in attrs:
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(name, fn, before, counts)
            where = list(_bindings(fn)) if spread else [(owner, attr)]
            out += [(o, a, wrapped) for o, a in where]
    return out


def first_event_patch(clock: dict) -> list:
    """Stamp ``clock["at"]`` when the first ``solved`` line of a call is written.

    The only hook in untraced runs: one extra call per trace event. The
    caller clears ``clock["at"]`` before each call.
    """
    original = trace.TraceWriter.event

    def event(writer, kind, *args, **kwargs):
        original(writer, kind, *args, **kwargs)
        if kind == "solved" and clock.get("at") is None:
            clock["at"] = perf_counter()

    return [(trace.TraceWriter, "event", event)]


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
