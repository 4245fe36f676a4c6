"""Span recorder for the benchmark's traced runs.

The benchmark measures drainsched from outside. In a traced run it replaces
public functions with wrappers that record one span per call: span id,
parent span id, name, start and end in nanoseconds. The wrappers are
installed where the caller looks the name up (the engine imports most
review-path functions by name, reaches the channel through its module, and
the solver calls ``finalize_feasible`` as a module global) and are removed
again when the traced job ends, so untraced jobs run the original code.

Spans live in one flat int64 array in memory and are written out once, when
the run ends. A layer is the part of a span name before the first dot; the
benchmark's own root span uses the layer ``bench``.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

FIELDS = 5  # span id, parent id, name id, start ns, end ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._rec = array("q")
        self._stack = [-1]
        self._next = 0

    def name_id(self, name: str) -> int:
        """Register a span name; a registered name is reported even if it never fires."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        sid = self._next
        self._next = sid + 1
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self._rec.extend((sid, parent, nid, t0, t1))

    def wrap(self, name: str, fn, on_result=None):
        """A stand-in for fn that records a span per call."""
        nid = self.name_id(name)
        call = self.call
        if on_result is None:
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                out = call(nid, fn, args, kwargs)
                on_result(out)
                return out
        traced.__wrapped__ = fn
        return traced

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 5) array, in order of completion."""
        return np.frombuffer(self._rec, dtype=np.int64).reshape(-1, FIELDS).copy()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.spans())


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class SpanSummary:
    """Durations and self times per span name.

    Self time is a span's duration minus the durations of its direct
    children; the children of one call never overlap because the program
    is single-threaded.
    """

    def __init__(self, names: list[str], spans: np.ndarray):
        self.names = names
        sid, parent, nid, start, end = (spans[:, i] for i in range(FIELDS))
        dur = end - start
        child = np.zeros(int(sid.max()) + 1 if len(sid) else 0, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child[sid] if len(sid) else dur
        self._dur = {n: dur[nid == i] for i, n in enumerate(names)}
        self._self = {n: self_ns[nid == i] for i, n in enumerate(names)}

    def count(self, name: str) -> int:
        return len(self._dur[name])

    def durations_s(self, name: str) -> np.ndarray:
        return self._dur[name] / 1e9

    def self_s(self, name: str) -> np.ndarray:
        return self._self[name] / 1e9

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            float(self._self[n].sum()) for n in self.names if n.startswith(prefix)
        ) / 1e9
