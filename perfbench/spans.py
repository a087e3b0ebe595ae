"""Span recorder for traced runs.

A span is recorded around each call into a package module: its name, start,
end, the span that caused it and the id of the operation it belongs to.
Spans stay in memory and are written out once, when the run ends.  An
untraced run uses ``NullTracer``, whose spans do nothing.
"""

from __future__ import annotations

import json
import statistics
import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        record = self.record
        record["parent"] = tracer.stack[-1]["id"] if tracer.stack else None
        if record["op"] is None:
            record["op"] = tracer.stack[-1]["op"] if tracer.stack else tracer.new_op()
        tracer.stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        return record

    def __exit__(self, exc_type, exc, tb):
        self.record["end_ns"] = time.perf_counter_ns()
        if exc_type is not None:
            self.record["error"] = exc_type.__name__
        self.tracer.stack.pop()
        self.tracer.spans.append(self.record)
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._ids = 0
        self._ops = 0

    def new_op(self):
        self._ops += 1
        return self._ops

    def span(self, name, op=False, **attrs):
        """A span named ``name``; ``op=True`` starts a new operation id."""
        self._ids += 1
        record = {"id": self._ids, "name": name, "op": self.new_op() if op else None}
        if attrs:
            record["attrs"] = attrs
        return _Span(self, record)

    def durations(self, name, **match):
        """Durations in seconds of the spans named ``name`` whose attributes
        include ``match``."""
        out = []
        for s in self.spans:
            if s["name"] == name and all(s.get("attrs", {}).get(k) == v for k, v in match.items()):
                out.append((s["end_ns"] - s["start_ns"]) / 1e9)
        return out

    def median(self, name, **match):
        values = self.durations(name, **match)
        return statistics.median(values) if values else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start_ns"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class _NullSpan:
    __slots__ = ("record",)

    def __init__(self):
        self.record = {}

    def __enter__(self):
        return self.record

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    def __init__(self):
        self._span = _NullSpan()

    def span(self, name, op=False, **attrs):
        return self._span
