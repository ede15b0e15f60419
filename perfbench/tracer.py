"""In-memory span tracer used by the benchmark's traced run.

Spans are recorded from outside the program: `Tracer.wrap` returns a
function that records one span (name, start, end, parent span) around each
call of the wrapped function.  Spans live in flat arrays in memory and are
reduced to per-name statistics once the traced work has finished.  The
tracer is single-threaded: a span's parent is the innermost span open when
it starts, and spans are appended in start order.
"""

from __future__ import annotations

import functools
import math
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def record_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` wrapped in a span called `name`.

        `observe(tracer, args, result)` runs after a call that returned, to
        update counters from the arguments and the result.
        """
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, value) -> None:
        """Replace `owner.attr`, remembering the original for `uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(parent, start, end) -> array:
    """Per span: its duration minus the part of it that its children cover.

    Spans must be in start order, so a parent precedes its children and the
    children of one parent arrive by increasing start.  Child intervals are
    clipped to the parent and overlapping children are counted once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [-math.inf]) * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def span_stats(tracer: Tracer) -> dict:
    """{span name: {calls, s, self_s, durations}} with durations ascending."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
           for name in tracer.names}
    for i, nid in enumerate(tracer.name_of):
        entry = out[tracer.names[nid]]
        dur = tracer.end[i] - tracer.start[i]
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += selfs[i]
        entry["durations"].append(dur)
    for entry in out.values():
        entry["durations"].sort()
    return out


def calls_under(tracer: Tracer, prefix: str) -> dict:
    """{span name: calls made while a span whose name starts with `prefix` was open}."""
    n = len(tracer.start)
    inside = bytearray(n)
    out: dict[str, int] = {}
    for i in range(n):
        name = tracer.names[tracer.name_of[i]]
        p = tracer.parent[i]
        if p >= 0 and inside[p]:
            out[name] = out.get(name, 0) + 1
        inside[i] = name.startswith(prefix) or (p >= 0 and inside[p])
    return out
