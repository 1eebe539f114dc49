"""Span recording around the public functions of each stochgame layer.

A `Tracer` replaces module attributes (the names callers look up at call
time) with wrappers that record one span per call: name, start, end,
parent span and the id of the solve it belongs to.  Spans stay in memory
until the run ends.  Times are integer nanoseconds from
`time.perf_counter_ns`, so self times add up exactly.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    solve: int
    name: str
    start: int
    end: int = 0


class Tracer:
    """Records spans and per-span-name counters; restores patches on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.solve = -1

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def high(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, self.solve, name, time.perf_counter_ns())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            return fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Wrapper recording a `name` span around fn.

        The hooks update counters from the call's (args, kwargs) and from
        its result; they run inside the span, so their cost is charged to
        the layer they count.
        """

        def counted(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, counted, *args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sp in self.spans:
                out.write(json.dumps([sp.span_id, sp.parent, sp.solve, sp.name, sp.start, sp.end]))
                out.write("\n")


def covered(intervals) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent cannot drive a self time negative.
    """
    by_id = {sp.span_id: sp for sp in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            p = by_id[sp.parent]
            start, end = max(sp.start, p.start), min(sp.end, p.end)
            if start < end:
                children.setdefault(sp.parent, []).append((start, end))
    return {
        sp.span_id: (sp.end - sp.start) - covered(children.get(sp.span_id, ()))
        for sp in spans
    }


def layer_totals(spans) -> dict[str, tuple[int, int]]:
    """Span name -> (calls, total self time in ns)."""
    own = self_times(spans)
    totals: dict[str, tuple[int, int]] = {}
    for sp in spans:
        calls, ns = totals.get(sp.name, (0, 0))
        totals[sp.name] = (calls + 1, ns + own[sp.span_id])
    return totals
