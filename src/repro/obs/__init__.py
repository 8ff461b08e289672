"""``repro.obs`` — zero-dependency observability for the pipeline.

Three pieces (see ``docs/observability.md`` for the span taxonomy and
metric names):

* :mod:`repro.obs.tracer` — hierarchical spans
  (``query → parse/plan/translate/compile(optimize/codegen)/execute``,
  optimizer spans per pass, executor spans per kernel and per chunk);
  off by default via a near-free no-op tracer;
* :mod:`repro.obs.metrics` — the registry of counters, gauges and
  histograms every subsystem reports into (plan cache, kernel
  executor, baseline operators); one per session, carried by
  the :class:`~repro.core.context.QueryContext`;
* :mod:`repro.obs.render` — ``EXPLAIN ANALYZE`` text, Chrome-trace JSON
  (Perfetto-loadable) and the flat metrics dump;
* :mod:`repro.obs.prof` — the allocation/materialization profiler
  (bytes charged per statement/builtin/kernel, peak footprint, and the
  paper-style ``fusion_savings`` naive-vs-opt report); off by default
  via a near-free no-op profile;
* :mod:`repro.obs.telemetry` — the query log (see
  ``docs/telemetry.md``): one JSONL record per query, built from its
  root span; off by default at one ``is None`` check per query.
"""

from repro.obs.metrics import (BYTE_BUCKETS, QERROR_BUCKETS, Counter,
                               Gauge, Histogram, MetricsRegistry)
from repro.obs.prof import (NULL_PROFILE, AllocationProfile, FusionSavings,
                            NullAllocationProfile, format_fusion_savings,
                            fusion_savings)
from repro.obs.render import (chrome_trace, chrome_trace_json,
                              format_lint_findings, format_pass_stats,
                              phase_coverage, render_explain_analyze,
                              render_plan)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.telemetry import QueryLog

__all__ = [
    "QueryLog",
    "BYTE_BUCKETS", "QERROR_BUCKETS", "Counter", "Gauge", "Histogram",
    "MetricsRegistry",
    "NULL_PROFILE", "AllocationProfile", "FusionSavings",
    "NullAllocationProfile", "format_fusion_savings", "fusion_savings",
    "chrome_trace", "chrome_trace_json", "phase_coverage",
    "format_pass_stats", "format_lint_findings",
    "render_explain_analyze", "render_plan",
    "NULL_TRACER", "NullTracer", "Span", "Tracer",
]
