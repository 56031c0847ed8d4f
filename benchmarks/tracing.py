"""Spans around the public calls of each swallowtail layer.

The benchmark's traced run replaces module attributes such as
``swallowtail.zeros.eval_q`` by wrappers that open a span, call the original
function and close the span.  Because the library looks these names up as
module globals, calls between layers (``modulus_scan`` -> ``eval_q``,
``trace_steepest`` -> ``saddles``) are recorded as child spans without any
change to the library.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name); a span's layer is the part before the first
# dot.  Modules are imported by ``Tracer.install`` only, so that the traced
# cli run, which has nothing in-process to wrap, never loads the library.
INSTRUMENTED = (
    ("swallowtail.zeros", "eval_q", "oracle.eval_q"),
    ("swallowtail.zeros", "modulus_scan", "zeros.modulus_scan"),
    ("swallowtail.saddle", "saddles", "saddle.saddles"),
    ("swallowtail.saddle", "trace_steepest", "saddle.trace_steepest"),
    ("swallowtail.asymptotics", "saddles", "saddle.saddles"),
    ("swallowtail.asymptotics", "saddle_contributions", "asymptotics.saddle_contributions"),
    ("swallowtail.asymptotics", "leading_from_contributions",
     "asymptotics.leading_from_contributions"),
    ("swallowtail.asymptotics", "dominance_gap", "asymptotics.dominance_gap"),
    ("swallowtail.asymptotics", "below_caustic_obstruction",
     "asymptotics.below_caustic_obstruction"),
)

# eval_q regimes by the z coordinate of the call
SMALL_Z = 8.0

# per-layer metrics built only from counts and return values: they repeat
# bit for bit for a given seed
EXACT = (
    "oracle.eval_q.calls_per_op",
    "oracle.eval_q.panels",
    "oracle.tol_miss",
    "saddle.trace_steepest.points",
    "saddle.trace_steepest.stalls",
)


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "attrs", "child_time")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _attributes(name, args, result, error, errors):
    """Per-call facts the per-layer metrics need (regime, panels, outcome)."""
    ToleranceNotReached, PathStalled = errors.ToleranceNotReached, errors.PathStalled
    attrs = {}
    if name == "oracle.eval_q":
        attrs["z"] = args[0].z
        if isinstance(error, ToleranceNotReached):
            attrs["tol_miss"] = True
            result = error.partial
        if result is not None:
            attrs["panels"] = result.subdivisions_used
    elif name == "saddle.trace_steepest":
        if isinstance(error, PathStalled):
            attrs["stalled"] = True
        elif result is not None:
            attrs["points"] = len(result.points)
    elif name == "zeros.modulus_scan" and result is not None:
        attrs["cells"] = len(result.y_values) * len(result.z_values)
    return attrs


class Tracer:
    """In-memory span recorder with a parent stack (single thread)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._errors = None   # swallowtail.errors, once installed

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent.sid, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.close(span)
                span.attrs = _attributes(name, args, result, error, self._errors)
        return traced

    def install(self):
        """Swap every instrumented module attribute for its traced wrapper."""
        self._errors = importlib.import_module("swallowtail.errors")
        for module_name, attr, name in INSTRUMENTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")


def _p50(values, scale):
    return statistics.median(values) * scale if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer metrics of one traced pass (see the benchmark README)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    ops = by_name.get("op", [])
    op_time = sum(s.duration for s in ops)

    def named(name):
        return by_name.get(name, [])

    def share(layer):
        own = sum(s.self_time for s in spans if s.layer == layer)
        return own / op_time if op_time else 0.0

    eval_q = named("oracle.eval_q")
    small = [s.duration for s in eval_q if abs(s.attrs["z"]) <= SMALL_Z]
    neg = [s.duration for s in eval_q if s.attrs["z"] < -SMALL_Z]
    pos = [s.duration for s in eval_q if s.attrs["z"] > SMALL_Z]

    # zeros: self time per op
    zeros_self = {}
    for s in spans:
        if s.layer == "zeros":
            root = _root(s, spans)
            zeros_self[root] = zeros_self.get(root, 0.0) + s.self_time
    scans = named("zeros.modulus_scan")
    traces = named("saddle.trace_steepest")

    return {
        "oracle.eval_q.calls_per_op": len(eval_q) / n_ops,
        "oracle.eval_q.panels": _mean([s.attrs["panels"] for s in eval_q if "panels" in s.attrs]),
        "oracle.eval_q.p50_us.small_z": _p50(small, 1e6),
        "oracle.eval_q.p50_us.neg_z": _p50(neg, 1e6),
        "oracle.eval_q.p50_us.pos_z": _p50(pos, 1e6),
        "oracle.tol_miss": sum(1 for s in eval_q if s.attrs.get("tol_miss")),
        "oracle.self_share": share("oracle"),
        "zeros.self_ms": _p50(list(zeros_self.values()), 1e3),
        "zeros.modulus_scan.us_per_cell": _p50(
            [s.duration / s.attrs["cells"] for s in scans if "cells" in s.attrs], 1e6),
        "saddle.saddles.p50_us": _p50([s.duration for s in named("saddle.saddles")], 1e6),
        "saddle.trace_steepest.p50_ms": _p50([s.duration for s in traces], 1e3),
        "saddle.trace_steepest.points": _mean([s.attrs["points"] for s in traces if "points" in s.attrs]),
        "saddle.trace_steepest.stalls": sum(1 for s in traces if s.attrs.get("stalled")),
        "asymptotics.saddle_contributions.p50_us": _p50(
            [s.duration for s in named("asymptotics.saddle_contributions")], 1e6),
        "asymptotics.self_share": share("asymptotics"),
    }


def _root(span, spans):
    while span.parent is not None:
        span = spans[span.parent]
    return span.sid
