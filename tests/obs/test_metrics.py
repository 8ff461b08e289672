"""Metrics registry behavior and thread safety."""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set_max(3)
        assert gauge.value == 5
        gauge.set_max(9)
        assert gauge.value == 9

    def test_histogram(self):
        hist = Histogram("h")
        for value in (0.0005, 0.005, 0.005, 2.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 0.0005
        assert hist.max == 2.0
        assert hist.mean == pytest.approx((0.0005 + 0.01 + 2.0) / 4)
        snap = hist._snapshot()
        assert snap["buckets"]["le_0.001"] == 1
        assert snap["buckets"]["le_0.01"] == 2
        assert snap["buckets"]["le_10"] == 1

    def test_histogram_overflow_accounting(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snap = registry.snapshot()["h"]
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 2}
        assert sum(snap["buckets"].values()) == snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)

    def test_histogram_snapshot_omits_empty_overflow(self):
        """Snapshots without overflow stay byte-identical to the
        pre-overflow-bucket format."""
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(0.5)
        assert "le_inf" not in hist._snapshot()["buckets"]

    def test_histogram_reset_clears_overflow(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0,)).observe(99.0)
        assert registry.snapshot()["h"]["buckets"]["le_inf"] == 1
        registry.reset()
        snap = registry.snapshot()["h"]
        assert snap["buckets"] == {"le_1": 0}
        assert (snap["count"], snap["sum"]) == (0, 0.0)

    def test_registry_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.size").set(4)
        registry.histogram("c.seconds").observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == ["a.size", "b.count", "c.seconds"]
        assert snap["b.count"] == 2
        assert snap["c.seconds"]["count"] == 1

    def test_reset_zeroes_in_place_keeping_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        hist = registry.histogram("h")
        counter.inc(5)
        hist.observe(1.0)
        registry.reset()
        assert registry.counter("x") is counter
        assert counter.value == 0
        assert hist.count == 0 and hist.min is None
        counter.inc()
        assert registry.counter("x").value == 1


class TestThreadSafety:
    def test_counter_increments_under_threads_are_exact(self):
        """Sessions on several threads may share one registry;
        concurrent increments must not lose updates."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer")
        hist = registry.histogram("hammer.seconds")

        def hammer(index):
            for _ in range(500):
                counter.inc()
                hist.observe(index * 1e-6)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16 * 500
        assert hist.count == 16 * 500

    def test_concurrent_instrument_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("contended"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)
