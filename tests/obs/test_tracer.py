"""Span/tracer semantics: nesting, error paths, threading, no-op cost."""

import threading
import time

import pytest

from repro.obs import NULL_TRACER, Tracer


class TestSpanTree:
    def test_nesting_builds_parent_child_structure(self):
        tracer = Tracer()
        with tracer.span("query") as query:
            with tracer.span("prepare") as prepare:
                with tracer.span("parse"):
                    pass
                with tracer.span("plan"):
                    pass
            with tracer.span("execute"):
                pass
        assert tracer.roots == [query]
        assert [c.name for c in query.children] == ["prepare", "execute"]
        assert [c.name for c in prepare.children] == ["parse", "plan"]
        assert prepare.parent is query
        assert query.parent is None

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.name for r in tracer.roots] == ["a", "b"]
        assert tracer.last_root().name == "b"

    def test_span_times_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", label="x") as span:
            time.sleep(0.01)
            span.set(rows=7)
            span.add("count")
            span.add("count", 2)
        assert span.seconds >= 0.01
        assert span.attrs == {"label": "x", "rows": 7, "count": 3}
        assert span.thread_id == threading.get_ident()

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer = tracer.last_root()
        assert outer.name == "outer"
        inner = outer.children[0]
        assert inner.end >= inner.start > 0
        assert inner.attrs["error"] == "ValueError: boom"
        assert outer.attrs["error"] == "ValueError: boom"
        # The contextvar unwound: new spans are roots again.
        assert tracer.current() is None
        with tracer.span("after"):
            pass
        assert tracer.last_root().name == "after"

    def test_explicit_parent_across_threads(self):
        tracer = Tracer()
        with tracer.span("kernel") as kernel:
            def chunk(index):
                with tracer.span("chunk", parent=kernel, index=index):
                    pass
            threads = [threading.Thread(target=chunk, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(kernel.children) == 4
        assert {c.attrs["index"] for c in kernel.children} == {0, 1, 2, 3}
        assert all(c.name == "chunk" for c in kernel.children)
        # Worker spans carry their own thread ids.
        assert all(c.thread_id != kernel.thread_id
                   for c in kernel.children)

    def test_walk_and_all_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [s.name for s in tracer.all_spans()] == ["a", "b", "c"]

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.last_root() is None


class TestNullTracer:
    def test_null_span_is_shared_and_inert(self):
        first = NULL_TRACER.span("a", rows=1)
        second = NULL_TRACER.span("b")
        assert first is second
        with first as span:
            span.set(x=1)
            span.add("y")
        assert span.attrs == {}
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.all_spans() == []
        assert NULL_TRACER.current() is None

    def test_null_span_swallows_exceptions_like_a_real_span(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError

    def test_noop_overhead_smoke(self):
        """A disabled span site must cost well under 10µs (the real
        figure is ~0.2µs; the loose bar keeps slow CI green while still
        catching accidental allocation or formatting on the no-op
        path)."""
        loops = 50_000
        span = NULL_TRACER.span
        start = time.perf_counter()
        for _ in range(loops):
            with span("site"):
                pass
        per_site = (time.perf_counter() - start) / loops
        assert per_site < 10e-6
