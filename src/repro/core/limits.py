"""Per-query resource limits and cooperative cancellation checkpoints.

The execution layers never poll a clock on their own and never kill a
thread: a :class:`QueryLimits` object rides on the
:class:`~repro.core.context.QueryContext` and every hot loop calls
``limits.check(...)`` at a natural boundary —

* the chunked kernel executor, once per chunk
  (:func:`repro.core.codegen.executor.run_kernel`);
* the reference interpreter, once per statement
  (:class:`repro.core.interp.Interpreter`);
* the compiled plan executor, once per plan item
  (:class:`repro.core.compiler._RunState`);
* the optimizer pipeline, once per pass
  (:func:`repro.core.optimizer.optimize`);
* the baseline plan executor, once per plan operator
  (:class:`repro.engine.executor.PlanExecutor`).

``check`` raises :class:`~repro.errors.QueryTimeout` past the deadline
and :class:`~repro.errors.QueryCancelled` after an explicit
:meth:`QueryLimits.cancel` — so a runaway query stops within one
checkpoint interval of the limit, with no non-cooperative thread
machinery.

The disabled form mirrors the tracer and the allocation profiler: the
stateless :data:`NULL_LIMITS` singleton is the context default, and
every checkpoint site guards with ``if limits.enabled:`` — one attribute
read per site when no limits are configured
(``benchmarks/bench_obs_overhead.py`` bounds the disabled cost at <2%
on warm TPC-H Q6, the same bar as the tracer and the profiler).

This module lives in :mod:`repro.core` (not the engine layer) because
the checkpoint surface is consumed by the core executors; the policy
side — who gets a :class:`QueryLimits`, with what deadline and budget —
lives in :mod:`repro.engine.governor`.
"""

from __future__ import annotations

import time

from repro.errors import QueryCancelled, QueryTimeout

__all__ = ["QueryLimits", "NullQueryLimits", "NULL_LIMITS"]


class QueryLimits:
    """The active limits of one admitted query.

    ``checks`` counts every checkpoint the query passed through — the
    number the overhead benchmark multiplies by the disabled-site cost,
    and a direct measure of cancellation granularity.  The counter is
    a plain attribute (not locked): chunk workers may race on it, so it
    is exact for serial runs and approximate under ``n_threads > 1`` —
    fine for both of its uses.
    """

    enabled = True

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


class NullQueryLimits:
    """The disabled limits: allocation-free, state-free, shared.

    Every checkpoint site reads ``enabled`` and skips the ``check``
    call entirely, so an ungoverned query pays one attribute read per
    site — the no-globals guard audits that this singleton carries no
    mutable state.
    """

    __slots__ = ()
    enabled = False
    timeout = None
    deadline = None
    memory_budget = None
    checks = 0
    cancelled = False
    cancel_reason = ""

    def check(self, where: str = "checkpoint") -> None:
        pass

    def remaining_seconds(self) -> None:
        return None


NULL_LIMITS = NullQueryLimits()
