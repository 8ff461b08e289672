"""The explicit per-query execution context.

Every stage of the pipeline — parse → plan → translate → compile →
execute — receives a :class:`QueryContext` naming the tracer to record
spans into and the metrics registry to report into.  Nothing below the
session layer reaches for process-global state; an isolated
:class:`~repro.engine.EngineSession` builds contexts bound to its own
tracer/metrics, so N sessions can run concurrently in one process
without sharing a single mutable object.

The defaults are the stateless null objects, no limits and a private
registry: a bare ``QueryContext()`` — which is what ``ctx=None`` means
at the public entry points that accept it (``compile_module``,
``optimize``, ``CompiledProgram.run``, the interpreter,
``PlanExecutor``, ``MatlabProgram``) — is untraced, unprofiled,
unlimited, and counts into a registry nobody else holds.  There is no
process-global fallback; instrumentation is reached through the
context or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.limits import QueryLimits
from repro.obs import NULL_PROFILE, NULL_TRACER, MetricsRegistry
from repro.obs.prof import AllocationProfile, NullAllocationProfile
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["QueryContext"]


@dataclass
class QueryContext:
    """What one query needs from its surroundings, made explicit.

    * ``tracer`` — where spans go (a real :class:`~repro.obs.Tracer` or
      the no-op ``NULL_TRACER``);
    * ``metrics`` — the :class:`~repro.obs.MetricsRegistry` instruments
      report into;
    * ``profile`` — the :class:`~repro.obs.prof.AllocationProfile`
      materialized bytes are charged to (the no-op ``NULL_PROFILE``
      unless profiling was requested);
    * ``limits`` — the :class:`~repro.core.limits.QueryLimits` the
      execution layers checkpoint against (deadline, memory budget,
      cooperative cancellation), or ``None`` for a query that set no
      limits.
    """

    tracer: "Tracer | NullTracer" = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    profile: "AllocationProfile | NullAllocationProfile" = NULL_PROFILE
    limits: "QueryLimits | None" = None

