"""Hierarchical query tracing (the observability core).

The paper's evaluation decomposes query cost into compile (COMP) and
execute time and attributes speedups to individual optimizations; this
module provides the machinery to see that decomposition on every run:

* :class:`Span` — one timed region (``query``, ``parse``, ``plan``,
  ``translate``, ``compile`` → ``optimize``/``codegen``, ``execute`` →
  ``kernel:*`` → ``chunk``), with attributes (row counts, pass
  statistics, backend) and parent/child structure;
* :class:`Tracer` — collects spans into trees.  The *current* span is
  tracked per-thread via a :mod:`contextvars` variable, so nested
  instrumentation sites compose without threading a span through every
  call signature.  A new thread does not inherit the caller's context —
  a span opened there passes ``parent=`` explicitly;
* :data:`NULL_TRACER` — the default.  Disabled tracing must be near
  free: ``NullTracer.span`` returns one shared no-op context manager and
  every instrumentation site checks ``tracer.enabled`` before computing
  anything expensive (string formatting, row counting), so the disabled
  cost is one attribute read plus one method call per site
  (``benchmarks/bench_obs_overhead.py`` bounds it at <2% on TPC-H Q6).

Spans are exported as a human ``EXPLAIN ANALYZE`` tree or Chrome-trace
JSON by :mod:`repro.obs.render`.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: The span enclosing the caller, per thread of execution (a new thread
#: starts empty: cross-thread children pass ``parent=`` explicitly).
_current_span: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None)


class Span:
    """A timed, attributed region of query processing.

    Used as a context manager; entering starts the clock and makes the
    span current for nested instrumentation, exiting stops the clock and
    attaches the span to its parent (or the tracer's roots).  An
    exception propagating through still closes the span and records the
    error as an attribute.
    """

    __slots__ = ("name", "attrs", "parent", "children", "start", "end",
                 "thread_id", "_tracer", "_token")

    #: Class-level so instrumentation can gate work on ``span.enabled``.
    enabled = True

    def __init__(self, tracer: "Tracer", name: str,
                 parent: "Span | None", attrs: dict):
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.children: list[Span] = []
        self.start = 0.0
        self.end = 0.0
        self.thread_id = 0
        self._tracer = tracer
        self._token = None

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes (row counts, pass stats, ...)."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment a numeric attribute (e.g. per-chunk row totals)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount
        return self

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        if self.parent is None:
            self.parent = _current_span.get()
        self._token = _current_span.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._attach(self)
        return False

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.seconds * 1000:.3f}ms, "
                f"children={len(self.children)})")


class Tracer:
    """Collects span trees.  Thread-safe: children attach under a lock,
    so sessions on several threads can share one tracer."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def span(self, name: str, parent: Span | None = None,
             **attrs) -> Span:
        """A new span, parented to ``parent`` (or the current span)."""
        return Span(self, name, parent, attrs)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        return _current_span.get()

    def _attach(self, span: Span) -> None:
        with self._lock:
            if span.parent is not None and span.parent.enabled:
                span.parent.children.append(span)
            else:
                span.parent = None
                self.roots.append(span)

    def last_root(self) -> Span | None:
        with self._lock:
            return self.roots[-1] if self.roots else None

    def reset(self) -> None:
        with self._lock:
            self.roots = []

    def all_spans(self) -> list[Span]:
        with self._lock:
            roots = list(self.roots)
        spans: list[Span] = []
        for root in roots:
            spans.extend(root.walk())
        return spans


class _NullSpan:
    """The shared do-nothing span: every no-op site reuses one object."""

    __slots__ = ()
    enabled = False
    name = ""
    children: list = []
    attrs: dict = {}
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: allocation-free, state-free, thread-safe."""

    __slots__ = ()
    enabled = False
    roots: list = []

    def span(self, name: str, parent=None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def last_root(self) -> None:
        return None

    def reset(self) -> None:
        pass

    def all_spans(self) -> list:
        return []


NULL_TRACER = NullTracer()
