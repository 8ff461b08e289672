"""Reusable thread pools for chunked kernel execution.

Before this module existed every ``CompiledProgram.run`` built a fresh
``ThreadPoolExecutor`` and tore it down with ``shutdown(wait=False)`` —
repeated executions paid pool construction on the hot path and leaked
in-flight worker threads whenever a kernel raised mid-run.  An
:class:`ExecutorPool` owns one long-lived executor, lazily created at
first parallel run, grown on demand, and shut down with ``wait=True``
(``close()`` is idempotent, so a pool with several owners — a session,
a test fixture, the interpreter-exit hook — can be closed by each of
them safely).

Pools are **instances**, not process state: every
:class:`~repro.engine.EngineSession` owns one, sized and closed with the
session, reporting into the session's own metrics registry.  The
module-level :func:`shared_pool` remains for code that runs outside any
session — a :class:`~repro.core.context.QueryContext` with ``pool=None``
borrows it; it counts into a registry of its own and is joined at
interpreter exit.

All users of chunked parallelism submit work synchronously (``pool.map``
from the caller's thread; chunk functions never re-submit), so sharing a
pool between the compiled-program runtime, the fused-kernel executor and
the baseline plan executor cannot deadlock.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs import MetricsRegistry

__all__ = ["ExecutorPool", "PoolStats", "InstrumentedExecutor",
           "shared_pool", "close_shared_pool"]

_log = logging.getLogger("repro.obs.execpool")

#: A task waiting longer than this for a worker indicates pool
#: starvation; logged (once per pool) as a warning.
_WAIT_WARN_SECONDS = 0.1


@dataclass
class PoolStats:
    """Observability counters for a pool's lifecycle."""

    acquisitions: int = 0
    pools_created: int = 0
    max_workers_seen: int = 0


class _PoolTelemetry:
    """Per-pool instrumentation state: the metric instruments plus the
    live concurrency counter and the once-per-pool starvation flag.
    Owned by an :class:`ExecutorPool`; shared by the
    :class:`InstrumentedExecutor` proxies it hands out."""

    __slots__ = ("size", "peak_tasks", "submitted", "completed",
                 "task_seconds", "wait_warnings", "oversubscribed",
                 "lock", "concurrent_tasks", "wait_warned")

    def __init__(self, metrics: MetricsRegistry):
        self.size = metrics.gauge("pool.size")
        self.peak_tasks = metrics.gauge("pool.peak_concurrent_tasks")
        self.submitted = metrics.counter("pool.tasks_submitted")
        self.completed = metrics.counter("pool.tasks_completed")
        self.task_seconds = metrics.counter("pool.task_seconds_total")
        self.wait_warnings = metrics.counter("pool.wait_warnings")
        self.oversubscribed = metrics.counter("pool.oversubscribed")
        self.lock = threading.Lock()
        self.concurrent_tasks = 0
        self.wait_warned = False


class InstrumentedExecutor:
    """A thin ``ThreadPoolExecutor`` wrapper reporting per-task metrics.

    Tracks tasks submitted/completed, total task wall time, and the peak
    number of concurrently executing tasks in the owning pool's metrics
    registry, and warns (once per pool) when a task waited more than
    100 ms for a free worker — the signal that the pool is undersized
    for the load.  Everything else (``shutdown``, ``_shutdown``
    introspection, ...) delegates to the wrapped executor.
    """

    __slots__ = ("_inner", "_telemetry")

    def __init__(self, inner: ThreadPoolExecutor,
                 telemetry: _PoolTelemetry):
        self._inner = inner
        self._telemetry = telemetry

    def _wrap(self, fn, submitted_at: float):
        telemetry = self._telemetry

        def task(*args, **kwargs):
            start = time.perf_counter()
            wait = start - submitted_at
            if wait > _WAIT_WARN_SECONDS:
                telemetry.wait_warnings.inc()
                if not telemetry.wait_warned:
                    telemetry.wait_warned = True
                    _log.warning(
                        "executor-pool task waited %.0f ms for a worker "
                        "(pool size %d); the pool is saturated "
                        "(warning logged once per pool)",
                        wait * 1000.0, telemetry.size.value)
            with telemetry.lock:
                telemetry.concurrent_tasks += 1
                telemetry.peak_tasks.set_max(telemetry.concurrent_tasks)
            try:
                return fn(*args, **kwargs)
            finally:
                with telemetry.lock:
                    telemetry.concurrent_tasks -= 1
                telemetry.completed.inc()
                telemetry.task_seconds.inc(time.perf_counter() - start)
        return task

    def map(self, fn, *iterables, **kwargs):
        iterables = [list(iterable) for iterable in iterables]
        self._telemetry.submitted.inc(min((len(it) for it in iterables),
                                          default=0))
        return self._inner.map(self._wrap(fn, time.perf_counter()),
                               *iterables, **kwargs)

    def submit(self, fn, *args, **kwargs):
        self._telemetry.submitted.inc()
        return self._inner.submit(self._wrap(fn, time.perf_counter()),
                                  *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ExecutorPool:
    """A lazily-created, growable, cleanly-closed thread pool.

    ``get(n_threads)`` returns a ``ThreadPoolExecutor`` with at least
    ``n_threads`` workers, creating or growing the underlying executor as
    needed.  The first creation sizes the pool to
    ``max(n_threads, os.cpu_count())`` so later, larger requests rarely
    force a re-build.  ``close(wait=True)`` joins every worker and is
    idempotent — a second close (from another owner, a context-manager
    exit, or the interpreter-exit hook) is a no-op rather than an error.
    The context-manager form closes on exit.

    ``metrics`` names the registry task telemetry reports into:
    session-owned pools pass the session's registry, a pool built
    without one counts into a private registry.
    """

    def __init__(self, max_workers: int | None = None,
                 metrics: MetricsRegistry | None = None):
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._proxy: InstrumentedExecutor | None = None
        self._workers = 0
        self._cap = max_workers
        self._closed = False
        self._telemetry = _PoolTelemetry(
            metrics if metrics is not None else MetricsRegistry())
        self.stats = PoolStats()

    def get(self, n_threads: int) -> InstrumentedExecutor:
        """An executor with at least ``min(n_threads, max_workers)``
        workers.  ``max_workers`` is a hard cap: a request beyond it is
        clamped (the caller's chunks share the capped workers) and
        counted in ``pool.oversubscribed`` — the old behavior of quietly
        growing past the cap defeated the point of sizing a session's
        pool."""
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        with self._lock:
            if self._closed:
                raise RuntimeError("ExecutorPool is closed")
            self.stats.acquisitions += 1
            want = max(n_threads, os.cpu_count() or 1)
            if self._cap is not None:
                cap = max(self._cap, 1)
                if n_threads > cap:
                    self._telemetry.oversubscribed.inc()
                want = min(want, cap)
            if self._pool is None or self._workers < want:
                old = self._pool
                self._pool = ThreadPoolExecutor(
                    max_workers=want,
                    thread_name_prefix="repro-exec")
                self._proxy = InstrumentedExecutor(self._pool,
                                                   self._telemetry)
                self._workers = want
                self.stats.pools_created += 1
                self.stats.max_workers_seen = max(
                    self.stats.max_workers_seen, want)
                self._telemetry.size.set(want)
                if old is not None:
                    # All submission is synchronous map() from caller
                    # threads, so nothing is in flight here; joining is
                    # instant and leaks no threads.
                    old.shutdown(wait=True)
            return self._proxy

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Shut the pool down, joining workers by default.  Safe to call
        any number of times, from any owner."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool, self._workers = self._pool, None, 0
            self._proxy = None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=True)


#: The process-shared pool for code running outside a session.
#: Deliberate module state, allowlisted by the no-globals guard test; new
#: module-level mutable state must not be added here.
_shared: ExecutorPool | None = None
_shared_lock = threading.Lock()


def shared_pool() -> ExecutorPool:
    """The process-wide pool, created on first use."""
    global _shared
    with _shared_lock:
        if _shared is None or _shared.closed:
            _shared = ExecutorPool()
        return _shared


def close_shared_pool(wait: bool = True) -> None:
    """Tear down the process-wide pool (mainly for tests)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.close(wait=wait)


#: One interpreter-exit hook for the lifetime of the process.  The old
#: code registered ``_shared.close`` on every re-creation, stacking a
#: stale callback per shared-pool cycle; closing here is idempotent and
#: always targets the current pool.
atexit.register(close_shared_pool)
