"""Metrics registry behavior, thread safety, and pool instrumentation."""

import logging
import threading
import time

import pytest

from repro.core.execpool import ExecutorPool
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
    def test_counter_increments_under_pool_workers_are_exact(self):
        """A registry is shared by every pool worker; concurrent
        increments through the pool must not lose updates."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer")
        hist = registry.histogram("hammer.seconds")
        with ExecutorPool(metrics=registry) as pool:
            executor = pool.get(8)

            def hammer(index):
                for _ in range(500):
                    counter.inc()
                    hist.observe(index * 1e-6)

            list(executor.map(hammer, range(16)))
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


class TestPoolInstrumentation:
    """Pools carry their own telemetry: each test builds a private
    ``ExecutorPool`` over a private registry, so nothing here touches —
    or needs to reset — process state."""

    def test_pool_metrics_recorded(self):
        metrics = MetricsRegistry()
        with ExecutorPool(max_workers=4, metrics=metrics) as pool:
            executor = pool.get(4)
            assert list(executor.map(lambda v: v + 1, range(10))) == \
                list(range(1, 11))
        assert metrics.counter("pool.tasks_submitted").value == 10
        assert metrics.counter("pool.tasks_completed").value == 10
        assert metrics.counter("pool.task_seconds_total").value > 0
        assert metrics.gauge("pool.size").value == 4
        assert metrics.gauge("pool.peak_concurrent_tasks").value >= 1

    def test_submit_is_instrumented_too(self):
        metrics = MetricsRegistry()
        with ExecutorPool(metrics=metrics) as pool:
            future = pool.get(2).submit(lambda: 41 + 1)
            assert future.result() == 42
        assert metrics.counter("pool.tasks_completed").value == 1

    def test_slow_worker_wait_warns_once_per_pool(self, caplog):
        """A task waiting >100ms for a worker logs one warning per
        *pool* (and counts every occurrence in the pool's registry)."""
        metrics = MetricsRegistry()
        with ExecutorPool(max_workers=1, metrics=metrics) as pool:
            executor = pool.get(1)
            with caplog.at_level(logging.WARNING,
                                 logger="repro.obs.execpool"):
                # One worker, two 120ms tasks: the second waits >100ms.
                list(executor.map(lambda _: time.sleep(0.12), range(2)))
                list(executor.map(lambda _: time.sleep(0.12), range(2)))
        records = [r for r in caplog.records
                   if "waited" in r.getMessage()]
        assert len(records) == 1
        assert metrics.counter("pool.wait_warnings").value >= 2

    def test_wait_warning_state_is_per_pool_not_per_process(self, caplog):
        """A second saturated pool warns again — the once-only latch
        lives in the pool's telemetry, not in module globals."""
        def saturate(pool):
            executor = pool.get(1)
            with caplog.at_level(logging.WARNING,
                                 logger="repro.obs.execpool"):
                list(executor.map(lambda _: time.sleep(0.12), range(2)))

        with ExecutorPool(max_workers=1,
                          metrics=MetricsRegistry()) as pool:
            saturate(pool)
        with ExecutorPool(max_workers=1,
                          metrics=MetricsRegistry()) as pool:
            saturate(pool)
        records = [r for r in caplog.records
                   if "waited" in r.getMessage()]
        assert len(records) == 2

    def test_instrumented_executor_delegates_introspection(self):
        with ExecutorPool() as pool:
            executor = pool.get(2)
            assert executor._shutdown is False  # ThreadPoolExecutor attr

    def test_close_is_idempotent_across_owners(self):
        """Several owners (session, fixture, atexit hook) may each close
        the same pool; every close after the first is a no-op."""
        pool = ExecutorPool(metrics=MetricsRegistry())
        assert pool.get(2).submit(lambda: 1).result() == 1
        pool.close()
        pool.close()
        with pool:      # context-manager exit closes a third time
            pass
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.get(2)
