"""The query governor: resource policy for an :class:`EngineSession`.

The ROADMAP's north star — "serves heavy traffic from millions of
users" — assumes queries are *governed* resources.  Before this module
a single runaway query (a huge scale factor, a pathological UDF, an
unbounded intermediate) held a session's pool and memory hostage with
no timeout, no budget, and no back-pressure.  A
:class:`QueryGovernor`, owned by every
:class:`~repro.engine.session.EngineSession`, enforces four policies:

1. **Deadlines** — :meth:`QueryGovernor.grant` issues a
   :class:`~repro.core.limits.QueryLimits` that the execution layers
   checkpoint against cooperatively (per chunk, per statement, per
   optimizer pass); past the deadline the next checkpoint raises
   :class:`~repro.errors.QueryTimeout`.
2. **Memory budgets** — enforced at the *existing*
   :class:`~repro.obs.prof.AllocationProfile` charge points: the grant
   wraps the context's profile in a :class:`BudgetedAllocationProfile`
   whose ``record`` raises :class:`~repro.errors.MemoryBudgetExceeded`
   instead of silently growing.  No new instrumentation sites.
3. **Admission control** — :meth:`QueryGovernor.admit` is a bounded
   concurrent-query semaphore with a queue-wait histogram
   (``governor.queue_wait_seconds``); when the limit is saturated and
   the admission wait expires, it raises
   :class:`~repro.errors.AdmissionRejected`.
4. **Graceful degradation** — the session's ``run_sql`` consults
   :attr:`QueryGovernor.retry_fallback`: a runtime kernel failure on a
   backend with a declared fallback (``cgen`` → ``pygen`` → ``interp``,
   the registry's capability chain) retries the query on the fallback,
   counting ``query.retries`` and annotating the query span.

Everything is off by default: an unconfigured governor grants no
limits, admits every query without touching a metric, and a query run
with no ``timeout=``/``memory_budget=`` takes the exact pre-governor
code path — golden outputs stay byte-identical and the disabled
checkpoint overhead is bounded at <2% by
``benchmarks/bench_obs_overhead.py``.

Governor metrics (created lazily, only when the policy fires):

========================================  ==============================
``governor.admitted``                     queries admitted under a
                                          concurrency limit
``governor.rejected``                     queries refused admission
``governor.timed_out``                    queries cancelled at a
                                          deadline checkpoint
``governor.cancelled``                    queries stopped by an explicit
                                          cancel or a memory budget
``governor.queue_wait_seconds``           admission queue wait histogram
``query.retries``                         graceful-degradation retries
========================================  ==============================

With a session query log (``docs/telemetry.md``), every governed
refusal additionally leaves a durable record whose ``outcome`` is the
error's ``refusal`` class.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.core.limits import QueryLimits
from repro.errors import (AdmissionRejected, MemoryBudgetExceeded,
                          QueryCancelled, QueryTimeout)
from repro.obs import AllocationProfile, MetricsRegistry
from repro.obs.prof import format_bytes

__all__ = ["QueryGovernor", "BudgetedAllocationProfile"]


class BudgetedAllocationProfile(AllocationProfile):
    """An :class:`AllocationProfile` that *enforces* instead of just
    metering: crossing ``budget`` bytes raises
    :class:`~repro.errors.MemoryBudgetExceeded` from the charge point
    itself, so the query stops at the allocation that broke the budget
    rather than after the fact.

    When the query is *also* being profiled (``base``), every charge is
    forwarded so the caller's profile sees exactly what it would have
    seen without the budget — up to the failing charge.
    """

    def __init__(self, budget: int, limits: QueryLimits | None = None,
                 base: AllocationProfile | None = None):
        super().__init__()
        self.budget = budget
        self.limits = limits
        self.base = base if (base is not None
                             and base.enabled) else None

    def record(self, nbytes: int, site: str | None = None,
               count: int = 1) -> None:
        super().record(nbytes, site=site, count=count)
        if self.base is not None:
            self.base.record(nbytes, site=site, count=count)
        allocated = self.bytes_allocated
        if allocated > self.budget:
            raise MemoryBudgetExceeded(
                f"query exceeded its memory budget: "
                f"{format_bytes(allocated)} allocated > "
                f"{format_bytes(self.budget)} budget "
                f"(last charge {format_bytes(nbytes)}"
                f"{'' if site is None else ' at ' + site})")

    def record_builtin(self, name: str, nbytes: int) -> None:
        super().record_builtin(name, nbytes)
        if self.base is not None:
            self.base.record_builtin(name, nbytes)

    def update_peak(self, live_bytes: int) -> None:
        super().update_peak(live_bytes)
        if self.base is not None:
            self.base.update_peak(live_bytes)


class QueryGovernor:
    """Per-session resource policy: admission, deadlines, budgets,
    and the graceful-degradation retry switch.

    All configuration is optional and independently settable — a
    governor with no configuration is a no-op on every path.  The
    governor reports into the owning session's metrics registry;
    instruments are created lazily so ungoverned sessions never grow
    ``governor.*`` entries in their metric snapshots.
    """

    def __init__(self, metrics: MetricsRegistry | None = None, *,
                 max_concurrent: int | None = None,
                 admission_timeout: float = 0.0,
                 default_timeout: float | None = None,
                 default_memory_budget: int | None = None,
                 retry_fallback: bool = True):
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        self.default_timeout = default_timeout
        self.default_memory_budget = default_memory_budget
        #: Whether ``run_sql`` retries runtime failures down the
        #: backend fallback chain (cgen → pygen → interp).
        self.retry_fallback = retry_fallback
        self._lock = threading.Lock()
        self.max_concurrent: int | None = None
        self.admission_timeout = admission_timeout
        self._semaphore: threading.Semaphore | None = None
        self.configure(max_concurrent=max_concurrent)

    def configure(self, *, max_concurrent: int | None = ...,
                  admission_timeout: float | None = None,
                  default_timeout: float | None = ...,
                  default_memory_budget: int | None = ...,
                  retry_fallback: bool | None = None) -> None:
        """Re-point any subset of the governor's knobs.

        Changing ``max_concurrent`` replaces the admission semaphore;
        callers should reconfigure between queries, not while queries
        are in flight (in-flight queries release into the old
        semaphore, which is then unreferenced and harmless)."""
        with self._lock:
            if max_concurrent is not ...:
                if max_concurrent is not None and max_concurrent < 1:
                    raise ValueError(
                        f"max_concurrent must be >= 1, got "
                        f"{max_concurrent}")
                self.max_concurrent = max_concurrent
                self._semaphore = (
                    None if max_concurrent is None
                    else threading.Semaphore(max_concurrent))
            if admission_timeout is not None:
                if admission_timeout < 0:
                    raise ValueError(
                        f"admission_timeout must be >= 0, got "
                        f"{admission_timeout}")
                self.admission_timeout = admission_timeout
            if default_timeout is not ...:
                self.default_timeout = default_timeout
            if default_memory_budget is not ...:
                self.default_memory_budget = default_memory_budget
            if retry_fallback is not None:
                self.retry_fallback = retry_fallback

    # -- per-query grants ------------------------------------------------------

    def grant(self, timeout: float | None = None,
              memory_budget: int | None = None) -> QueryLimits | None:
        """The :class:`QueryLimits` for one query, or ``None`` when
        neither the call nor the governor's defaults set any limit —
        the fast path that keeps ungoverned queries on the exact
        pre-governor code."""
        if timeout is None:
            timeout = self.default_timeout
        if memory_budget is None:
            memory_budget = self.default_memory_budget
        if timeout is None and memory_budget is None:
            return None
        return QueryLimits(timeout=timeout,
                           memory_budget=memory_budget)

    def budgeted_profile(self, limits: QueryLimits,
                         base=None) -> BudgetedAllocationProfile:
        """The enforcing profile for a grant with a memory budget
        (forwarding to ``base`` when the query is also profiled)."""
        return BudgetedAllocationProfile(limits.memory_budget,
                                         limits=limits, base=base)

    # -- admission -------------------------------------------------------------

    @contextmanager
    def admit(self):
        """Hold one concurrent-query slot for the duration of a query.

        No-op (no metrics, no locking) when ``max_concurrent`` is not
        configured.  When it is: an immediately free slot admits with
        zero recorded wait; otherwise the caller queues for at most
        ``admission_timeout`` seconds and is rejected with
        :class:`~repro.errors.AdmissionRejected` when no slot frees up
        in time (``admission_timeout=0`` rejects immediately —
        back-pressure instead of queueing).
        """
        semaphore = self._semaphore
        if semaphore is None:
            yield False
            return
        wait = 0.0
        admitted = semaphore.acquire(blocking=False)
        if not admitted and self.admission_timeout > 0:
            start = time.monotonic()
            admitted = semaphore.acquire(
                timeout=self.admission_timeout)
            wait = time.monotonic() - start
        if not admitted:
            self.metrics.counter("governor.rejected").inc()
            raise AdmissionRejected(
                f"admission rejected: {self.max_concurrent} "
                f"quer{'y is' if self.max_concurrent == 1 else 'ies are'}"
                f" already running and no slot freed within "
                f"{self.admission_timeout:g} s")
        self.metrics.counter("governor.admitted").inc()
        self.metrics.histogram(
            "governor.queue_wait_seconds").observe(wait)
        try:
            yield True
        finally:
            semaphore.release()

    # -- outcome accounting ----------------------------------------------------

    def note_failure(self, exc: BaseException) -> str:
        """Count a governor-enforced stop (called by ``run_sql`` on the
        way out; rejections are counted inside :meth:`admit`) and
        return the refusal class — the stable ``outcome`` string the
        query log records (``"timeout"``, ``"memory_budget"``,
        ``"admission_rejected"``, ``"cancelled"``)."""
        if isinstance(exc, QueryTimeout):
            self.metrics.counter("governor.timed_out").inc()
        elif isinstance(exc, (QueryCancelled, MemoryBudgetExceeded)):
            self.metrics.counter("governor.cancelled").inc()
        return getattr(exc, "refusal", "error")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueryGovernor(max_concurrent={self.max_concurrent}, "
                f"default_timeout={self.default_timeout}, "
                f"default_memory_budget={self.default_memory_budget}, "
                f"retry_fallback={self.retry_fallback})")
