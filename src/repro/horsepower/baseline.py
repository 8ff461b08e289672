"""The MonetDB-like comparison system.

Identical SQL surface to :class:`HorsePowerSystem` — same parser, same
planner, same plans — but executed by the interpreting column-store
engine with black-box Python UDFs (Section 2.3's architecture).  The pair
of facades is what the Table 2 / Table 4 benchmarks drive.

Like :class:`HorsePowerSystem`, this is a facade over a plain
:class:`~repro.engine.session.EngineSession` that receives the
constructor's ``tracer=`` / ``profile=`` / ``metrics=`` (hand both
facades the same registry to compare their counters side by side); the
plan executor is the session's ``baseline_executor()`` (also reachable
through the session's backend registry as the ``baseline`` backend), so
its UDF-bridge conversion counters accumulate across queries.
"""

from __future__ import annotations

import time

from repro.engine.executor import PlanExecutor
from repro.engine.session import EngineSession
from repro.engine.storage import Database
from repro.engine.table import ColumnTable
from repro.sql.parser import parse_sql
from repro.sql.planner import plan_query
from repro.sql.udf import UDFRegistry

__all__ = ["MonetDBLike"]


class MonetDBLike:
    """Column-store DBS with embedded Python UDFs (the baseline)."""

    def __init__(self, db: Database, udfs: UDFRegistry | None = None, *,
                 tracer=None, profile=None, metrics=None):
        self.session = EngineSession(
            db, udfs=udfs, default_backend="baseline", tracer=tracer,
            profile=profile, metrics=metrics)
        self.executor: PlanExecutor = self.session.baseline_executor()
        self._metric_queries = self.session.metrics.counter(
            "baseline.query.count")
        self._metric_query_seconds = self.session.metrics.histogram(
            "baseline.query.seconds")

    @property
    def db(self) -> Database:
        return self.session.db

    @property
    def udfs(self) -> UDFRegistry:
        return self.session.udfs

    @property
    def bridge(self):
        """The UDF conversion boundary (exposes conversion counters)."""
        return self.executor.bridge

    @property
    def stats(self):
        """The session's :class:`~repro.stats.StatsStore`."""
        return self.session.stats

    def analyze(self, table: str | None = None):
        """Collect table/column statistics (``ANALYZE``); see
        :meth:`EngineSession.analyze`.  Planned operators get
        ``est_rows`` annotations the executor reports est-vs-actual
        against."""
        return self.session.analyze(table)

    def plan_sql(self, sql: str):
        tracer = self.session.tracer
        stats = self.session.stats
        with tracer.span("parse"):
            select = parse_sql(sql)
        with tracer.span("plan"):
            return plan_query(select, self.db.catalog(), self.udfs,
                              table_stats=stats
                              if stats.enabled else None)

    def run_sql(self, sql: str, n_threads: int = 1) -> ColumnTable:
        """Plan and execute, traced the same way as
        :meth:`HorsePowerSystem.run_sql` (one ``query`` root with
        ``parse``/``plan``/``execute`` children) so naive-vs-opt traces
        line up side by side in Perfetto."""
        ctx = self.session.context()
        start = time.perf_counter()
        with ctx.tracer.span("query", system="monetdb", sql=sql,
                             n_threads=n_threads):
            plan = self.plan_sql(sql)
            result = self.executor.execute(plan, n_threads=n_threads,
                                           ctx=ctx)
        self._metric_queries.inc()
        self._metric_query_seconds.observe(time.perf_counter() - start)
        return result
