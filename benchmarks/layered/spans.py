"""The benchmark's own span recorder, and self time.

Spans are recorded around the calls the benchmark makes into each layer
(name, start, end, the span that caused it, the program it belongs to),
kept in memory, and written into the results file when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        #: ``[name, start, end, parent index or None, program]`` rows.
        self.spans: list[list] = []
        self._current: int | None = None

    @contextmanager
    def span(self, name: str, program: str):
        index = len(self.spans)
        row = [name, time.perf_counter(), None, self._current, program]
        self.spans.append(row)
        outer, self._current = self._current, index
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._current = outer

    def seconds(self, name: str, program: str) -> list[float]:
        """Durations of every ``name`` span of ``program``."""
        return [end - start for n, start, end, _, p in self.spans
                if n == name and p == program]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals — children that
    ran in parallel are not counted twice."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(span) -> float:
    """A tracer span's duration minus the part of it its children
    cover."""
    inside = [(max(c.start, span.start), min(c.end, span.end))
              for c in span.children]
    return span.seconds - covered((s, e) for s, e in inside if e > s)
