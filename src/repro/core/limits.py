"""Per-query resource limits and cooperative cancellation checkpoints.

Limits belong to the query that asked for them: ``run_sql(timeout=,
memory_budget=)`` builds one :class:`QueryLimits` and puts it on that
query's :class:`~repro.core.context.QueryContext`.  The execution
layers never poll a clock on their own and never kill a thread; every
hot loop calls ``limits.check(...)`` at a natural boundary —

* the chunked kernel executor, once per chunk
  (:func:`repro.core.codegen.executor.run_kernel`);
* the statement loop every compiled program runs on, once per
  statement or kernel item (:class:`repro.core.interp.Interpreter`);
* the pass manager, once per checkpointing pass
  (:class:`repro.core.passes.PassManager`);
* the baseline plan executor, once per plan operator
  (:class:`repro.engine.executor.PlanExecutor`).

``check`` raises :class:`~repro.errors.QueryTimeout` past the deadline
and :class:`~repro.errors.QueryCancelled` after an explicit
:meth:`QueryLimits.cancel` — so a runaway query stops within one
checkpoint interval of the limit, with no non-cooperative thread
machinery.

A query without limits carries ``limits=None``, and every checkpoint
site guards with ``if limits is not None:``.  A memory budget is
enforced at the allocation profiler's existing charge points through
:class:`BudgetedAllocationProfile`.
"""

from __future__ import annotations

import time

from repro.errors import MemoryBudgetExceeded, QueryCancelled, QueryTimeout
from repro.obs.prof import AllocationProfile, format_bytes

__all__ = ["QueryLimits", "BudgetedAllocationProfile"]


class QueryLimits:
    """The active limits of one query.

    ``checks`` counts every checkpoint the query passed through — a
    direct measure of cancellation granularity.  The counter is a plain
    attribute: every checkpoint runs on the query's own thread.
    """

    __slots__ = ("timeout", "deadline", "memory_budget", "checks",
                 "cancelled", "cancel_reason")

    def __init__(self, timeout: float | None = None,
                 memory_budget: int | None = None):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be > 0, got {memory_budget}")
        self.timeout = timeout
        self.deadline = (None if timeout is None
                         else time.monotonic() + timeout)
        self.memory_budget = memory_budget
        self.checks = 0
        self.cancelled = False
        self.cancel_reason = ""

    def check(self, where: str = "checkpoint") -> None:
        """One cooperative cancellation point; raises when the query
        must stop."""
        self.checks += 1
        if self.cancelled:
            reason = self.cancel_reason or "no reason given"
            raise QueryCancelled(
                f"query cancelled ({reason}); stopped cooperatively "
                f"at {where}")
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeout(
                f"query exceeded its {self.timeout:g} s deadline; "
                f"cancelled cooperatively at {where}")

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation: the next ``check`` (from
        any thread) raises :class:`~repro.errors.QueryCancelled`."""
        self.cancel_reason = reason
        self.cancelled = True

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (``None`` when no deadline)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout:g}s")
        if self.memory_budget is not None:
            parts.append(f"memory_budget={self.memory_budget}")
        if self.cancelled:
            parts.append("cancelled")
        return f"QueryLimits({', '.join(parts)})"


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

    def __init__(self, budget: int,
                 base: AllocationProfile | None = None):
        super().__init__()
        self.budget = budget
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
