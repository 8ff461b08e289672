"""Session-scoped engine state: one ``EngineSession`` per database.

Everything a query touches at runtime — the database, the prepared-query
:class:`~repro.horsepower.cache.PlanCache`, the tracer, the
:class:`~repro.obs.MetricsRegistry`, the UDF registry, and the four
execution engines (:data:`~repro.engine.backends.ENGINES`) — used to
live in process globals reached through module-level lookups.  An
:class:`EngineSession` owns one instance of each instead, and every
pipeline stage (parse → plan → translate → compile → execute) receives
the session's :class:`~repro.core.context.QueryContext` explicitly, so

* two sessions in one process never share caches, counters, or trace
  buffers (the concurrent-session tests exercise exactly this);
* sharing is explicit: two sessions report into the same tracer or
  registry only when the caller hands both the same object.

The session is the system's one front door: the paper's comparison
(one SQL frontend, one plan, two execution engines) is a ``backend=``
choice on :meth:`EngineSession.run_sql` — ``"pygen"`` / ``"cgen"`` /
``"interp"`` for HorsePower, ``"baseline"`` for the MonetDB-like
engine — so every engine honours the same per-query limits and is
logged and counted by the same code.

A session starts no thread: queries run on the caller's thread, and
``n_threads`` is the OpenMP thread count of the C backend's kernels.  A
session is a context manager; closing it closes the query log it owns
(idempotently — closing twice is a no-op).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.limits import BudgetedAllocationProfile, QueryLimits
from repro.core.passes import resolve_pipeline
from repro.core.values import TableValue
from repro.engine.backends import (
    DEFAULT_BACKEND, ENGINES, Backend, BackendError, CompilationUnit,
    resolve,
)
from repro.errors import HorseRuntimeError, QueryLimitError
from repro.engine.executor import PlanExecutor
from repro.engine.storage import Database
from repro.matlang.frontend import MatlabProgram, matlab_to_module
from repro.obs import (
    BYTE_BUCKETS, NULL_PROFILE, NULL_TRACER, QERROR_BUCKETS,
    AllocationProfile, MetricsRegistry, QueryLog, Tracer,
)
from repro.obs.telemetry import query_record
from repro.stats import MISESTIMATE_THRESHOLD, StatsStore, q_error
from repro.sql.parser import parse_sql
from repro.sql.plan import plan_to_json
from repro.sql.planner import plan_query
from repro.sql.udf import ScalarUDF, TableUDFDef, UDFRegistry
from repro.horsepower.cache import (
    DEFAULT_PLAN_CACHE_SIZE, CacheStats, PlanCache, PreparedQuery,
)
from repro.horsepower.translate import build_query_module

__all__ = ["EngineSession", "CompiledQuery"]

#: Runtime failures the graceful-degradation retry may re-run on the
#: backend's declared fallback (cgen → pygen → interp).  Deliberately
#: narrow: a :class:`QueryLimitError` is the query's own limit, not an
#: engine failure, and frontend/builtin errors reproduce identically on
#: every backend, so retrying them would only waste the fallback chain.
_RETRYABLE_ERRORS = (HorseRuntimeError,)


@dataclass
class CompiledQuery:
    """A compiled SQL query with its full provenance chain.

    ``program`` is whatever executable the backend produced (a
    :class:`~repro.core.compiler.CompiledProgram`, the interpreter's
    module wrapper, or the baseline's plan); ``backend`` names the
    session's engine that compiled it and will execute it."""

    sql: str
    plan_json: dict
    module_before_opt: object  # ir.Module as built (pre-optimization)
    program: object
    session: "EngineSession"
    backend: str = DEFAULT_BACKEND

    def run(self, n_threads: int = 1,
            ctx: QueryContext | None = None, **kwargs) -> TableValue:
        """Execute on the backend that compiled the query.
        ``n_threads`` (at least 1) is the OpenMP thread count of the C
        backend's kernels; every other engine runs on the caller's
        thread."""
        if n_threads < 1:
            raise ValueError(f"n_threads must be at least 1, "
                             f"got {n_threads}")
        session = self.session
        engine = session.backends[self.backend]
        return engine.execute(self.program, session._ctx(ctx),
                              db=session.db, n_threads=n_threads,
                              **kwargs)

    @property
    def report(self):
        """The backend's :class:`CompileReport` (None for executables
        that carry no report, e.g. the baseline's plan)."""
        return getattr(self.program, "report", None)

    @property
    def compile_seconds(self) -> float:
        """The paper's COMP column: optimize + codegen time."""
        report = self.report
        return report.compile_seconds if report is not None else 0.0

    @property
    def optimize_seconds(self) -> float:
        """The optimizer's share of COMP."""
        report = self.report
        return report.optimize_seconds if report is not None else 0.0

    @property
    def codegen_seconds(self) -> float:
        """The code-generation (plus verify/segmentation) share of
        COMP."""
        report = self.report
        return report.codegen_seconds if report is not None else 0.0

    @property
    def kernel_sources(self) -> list[str]:
        return list(getattr(self.program, "kernel_sources", []))


class EngineSession:
    """One isolated engine instance: database, plan cache, tracer,
    metrics, UDFs, and backends, with no process-global state shared
    between sessions.

    A plain ``EngineSession()`` is fully isolated: its own
    :class:`MetricsRegistry`, a null tracer and a null profile unless
    one is passed, and its own instance of each engine in
    :attr:`backends`."""

    def __init__(self, db: Database | None = None,
                 udfs: UDFRegistry | None = None, *,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 default_backend: str = DEFAULT_BACKEND,
                 profile: AllocationProfile | None = None,
                 query_log=None):
        self.db = db if db is not None else Database()
        self.udfs = udfs if udfs is not None else UDFRegistry()
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profile = profile if profile is not None else NULL_PROFILE
        #: One instance of each engine, by name (a test may put a fake
        #: under a name of its own).
        self.backends: dict[str, Backend] = {
            name: engine() for name, engine in ENGINES.items()}
        if default_backend not in self.backends:
            raise BackendError(f"unknown backend {default_backend!r}; "
                               f"known: {', '.join(self.backends)}")
        self.default_backend = default_backend
        #: The query log (:mod:`repro.obs.telemetry`): ``query_log=``
        #: takes a path or writable stream (the session owns the log it
        #: builds) or a shared :class:`~repro.obs.QueryLog`.  ``None``,
        #: the default, costs ``run_sql`` one ``is None`` check.
        self._owns_query_log = not (query_log is None
                                    or isinstance(query_log, QueryLog))
        self.query_log = (QueryLog(query_log) if self._owns_query_log
                          else query_log)
        self._query_ids = itertools.count(1)
        self.plan_cache = PlanCache(plan_cache_size)
        #: Table/column statistics (:mod:`repro.stats`).  Empty — and
        #: one attribute read per query — until :meth:`analyze` runs.
        self.stats = StatsStore()
        self._baseline_executor: PlanExecutor | None = None
        self._closed = False
        self._metric_queries = self.metrics.counter("query.count")
        self._metric_query_seconds = self.metrics.histogram(
            "query.seconds")

    # -- context --------------------------------------------------------------

    def context(self) -> QueryContext:
        """A fresh :class:`QueryContext` carrying this session's tracer
        and metrics — the object threaded explicitly through
        parse → plan → translate → compile → execute."""
        return QueryContext(tracer=self.tracer, metrics=self.metrics,
                            session=self, profile=self.profile)

    def _ctx(self, ctx: QueryContext | None) -> QueryContext:
        return ctx if ctx is not None else self.context()

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the query log the session owns.  Idempotent: closing
        twice is a no-op."""
        if self._closed:
            return
        self._closed = True
        if self._owns_query_log:
            self.query_log.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- UDF registration -----------------------------------------------------

    def register_scalar_udf(self, name: str, matlab_source: str,
                            param_types: list[ht.HorseType],
                            ret_type: ht.HorseType = ht.F64,
                            python_impl=None) -> ScalarUDF:
        udf = ScalarUDF(name, list(param_types), ret_type,
                        matlab_source=matlab_source,
                        python_impl=python_impl)
        self.udfs.register(udf)
        self.plan_cache.invalidate()
        return udf

    def register_table_udf(self, name: str, matlab_source: str,
                           param_types: list[ht.HorseType],
                           output_columns: list[tuple[str, ht.HorseType]],
                           python_impl=None) -> TableUDFDef:
        udf = TableUDFDef(name, list(param_types),
                          list(output_columns),
                          matlab_source=matlab_source,
                          python_impl=python_impl)
        self.udfs.register(udf)
        self.plan_cache.invalidate()
        return udf

    # -- statistics -----------------------------------------------------------

    def analyze(self, table: str | None = None):
        """Collect table/column statistics (``ANALYZE``).

        Analyzes ``table`` — or every table in the database — into the
        session's :class:`~repro.stats.StatsStore`: row counts,
        min/max, null fractions, distinct counts, and equi-depth
        histograms (see ``docs/statistics.md``).  The store's
        fingerprint changes, so previously cached plans (estimated or
        reordered under older statistics) can no longer be served; the
        plan cache is invalidated eagerly to reclaim them.  Returns the
        list of :class:`~repro.stats.TableStats` collected."""
        collected = self.db.analyze_into(self.stats, table)
        self.plan_cache.invalidate()
        return collected

    # -- SQL ------------------------------------------------------------------

    def plan_sql(self, sql: str, ctx: QueryContext | None = None, *,
                 pipeline=None):
        """Parse + plan; returns ``(plan, plan_json)`` — the logical
        plan node and its JSON form (the translator's input).

        ``pipeline`` selects which plan-level rewrite passes run after
        the raw plan is built (every preset runs predicate pushdown then
        column pruning; a custom pass list runs exactly what it
        names)."""
        ctx = self._ctx(ctx)
        with ctx.tracer.span("parse"):
            select = parse_sql(sql)
        with ctx.tracer.span("plan"):
            plan = plan_query(select, self.db.catalog(), self.udfs,
                              pipeline=pipeline,
                              table_stats=self.stats
                              if self.stats.enabled else None)
            plan_json = plan_to_json(plan)
        return plan, plan_json

    def compile_sql(self, sql: str, opt_level: str = "opt",
                    backend: str | None = None,
                    ctx: QueryContext | None = None, *,
                    pipeline=None, verify_ir: bool = False,
                    dump_ir: str | None = None) -> CompiledQuery:
        """Compile ``sql`` for one of the session's engines (an
        unavailable one degrades along its declared fallback).

        ``pipeline`` overrides the pass preset ``opt_level`` implies for
        both the plan-level and IR-level passes; ``verify_ir=True``
        re-verifies the IR after every optimizer pass
        (:class:`~repro.errors.PassVerificationError` on failure);
        ``dump_ir`` names a directory for per-pass IR snapshots."""
        ctx = self._ctx(ctx)
        engine = resolve(self.backends, backend or self.default_backend)
        # One pipeline for the whole compile: planning and the backend
        # run the passes of the same resolved (pipeline, opt_level).
        pipeline = resolve_pipeline(pipeline, opt_level=opt_level)
        plan, plan_json = self.plan_sql(sql, ctx=ctx, pipeline=pipeline)
        module = None
        if engine.horseir:
            with ctx.tracer.span("translate"):
                module = build_query_module(plan_json, self.udfs)
        unit = CompilationUnit(opt_level=opt_level, module=module,
                               plan=plan, plan_json=plan_json,
                               udfs=self.udfs, sql=sql,
                               pipeline=pipeline, verify_ir=verify_ir,
                               dump_ir=dump_ir)
        program = engine.compile(unit, ctx)
        return CompiledQuery(sql, plan_json, module, program, self,
                             backend=engine.name)

    def prepare(self, sql: str, opt_level: str = "opt",
                backend: str | None = None, use_cache: bool = True,
                ctx: QueryContext | None = None, *,
                pipeline=None, verify_ir: bool = False,
                dump_ir: str | None = None) -> PreparedQuery:
        """Fetch (or compile and cache) the prepared form of ``sql``.

        The cache key carries the resolved engine's name, the catalog,
        UDF-registry, pass-pipeline and statistics fingerprints, so a
        schema change, a UDF registration, a different ``--passes``
        pipeline or an ``ANALYZE`` can never serve a stale plan.  None
        of it is recomputed per call: the schema fingerprint (and the
        catalog the planner reads) once per schema version, the
        registry's once per registration, the normalized text once per
        distinct text the cache has room for.  Every engine's compiled
        query is cached, the baseline's plan included; ``use_cache=False``
        and the debug modes bypass the cache (``verify_ir``/``dump_ir``
        must actually compile to verify or dump anything)."""
        ctx = self._ctx(ctx)
        engine = resolve(self.backends, backend or self.default_backend)
        use_cache = use_cache and not verify_ir and dump_ir is None
        # Resolved once, for the key and the compile below.
        pipeline = resolve_pipeline(pipeline, opt_level=opt_level)
        with ctx.tracer.span("prepare") as span:
            key = self.plan_cache.key_of(sql, opt_level, engine.name,
                                         self.db.schema_fingerprint(),
                                         self.udfs.fingerprint(),
                                         pipeline.fingerprint(),
                                         self.stats.fingerprint())
            if use_cache:
                cached = self.plan_cache.lookup(key)
                if cached is not None:
                    span.set(cached=True)
                    return PreparedQuery(cached, cached=True, key=key)
            compiled = self.compile_sql(sql, opt_level,
                                        backend=engine.name, ctx=ctx,
                                        pipeline=pipeline,
                                        verify_ir=verify_ir,
                                        dump_ir=dump_ir)
            if use_cache:
                self.plan_cache.insert(key, compiled)
            span.set(cached=False)
            return PreparedQuery(compiled, cached=False, key=key)

    def run_sql(self, sql: str, n_threads: int = 1,
                opt_level: str = "opt", backend: str | None = None,
                use_cache: bool = True,
                ctx: QueryContext | None = None,
                timeout: float | None = None,
                memory_budget: int | None = None,
                pipeline=None, verify_ir: bool = False,
                dump_ir: str | None = None,
                **kwargs) -> TableValue:
        """Prepare (cache permitting) and execute ``sql``.

        ``timeout`` (seconds) sets a deadline enforced cooperatively at
        chunk/statement/pass checkpoints (:class:`QueryTimeout` past
        it); ``memory_budget`` (bytes) bounds materialized allocation
        at the profiler charge points (:class:`MemoryBudgetExceeded`
        beyond it).  Either one gives this call its own
        :class:`~repro.core.limits.QueryLimits`; with neither, the
        context's ``limits`` stand (``None`` unless the caller set
        them).  A runtime failure degrades down the backend fallback
        chain (:meth:`_run_with_fallback`).

        With a :attr:`query_log`, every call — successful, refused, or
        failed — additionally appends one record built from its root
        span (``docs/telemetry.md``).
        """
        ctx = self._ctx(ctx)
        backend_label = backend or self.default_backend
        query_log = self.query_log
        if query_log is not None:
            # The record is read from the span tree; when the session
            # isn't tracing, give this query a private tracer so the
            # record still carries per-phase times and provenance.
            if not ctx.tracer.enabled:
                ctx = replace(ctx, tracer=Tracer())
            query_id = next(self._query_ids)
        if timeout is not None or memory_budget is not None:
            limits = QueryLimits(timeout=timeout,
                                 memory_budget=memory_budget)
            profile = ctx.profile
            if memory_budget is not None:
                profile = BudgetedAllocationProfile(memory_budget,
                                                    base=profile)
            ctx = replace(ctx, limits=limits, profile=profile)
        profile = ctx.profile
        if profile.enabled:
            bytes_before, inter_before = profile.counters()
        start = time.perf_counter()
        root_span = None
        failure: BaseException | None = None
        try:
            with ctx.tracer.span(
                    "query", system="horsepower", sql=sql,
                    opt_level=opt_level, backend=backend_label,
                    n_threads=n_threads) as span:
                root_span = span
                if timeout is not None:
                    span.set(timeout=timeout)
                if memory_budget is not None:
                    span.set(memory_budget=memory_budget)
                result = self._run_with_fallback(
                    sql, opt_level, backend, use_cache, ctx,
                    n_threads, span, kwargs, pipeline=pipeline,
                    verify_ir=verify_ir, dump_ir=dump_ir)
                if query_log is not None:
                    span.set(rows_returned=result.num_rows)
                if profile.enabled:
                    bytes_after, inter_after = profile.counters()
                    alloc = bytes_after - bytes_before
                    span.set(alloc_bytes=alloc,
                             peak_bytes=profile.peak_bytes)
                    metrics = ctx.metrics
                    metrics.counter("prof.bytes_allocated").inc(alloc)
                    metrics.counter(
                        "prof.intermediates_materialized").inc(
                        inter_after - inter_before)
                    metrics.gauge("prof.peak_bytes").set_max(
                        profile.peak_bytes)
                    metrics.histogram(
                        "prof.query_bytes",
                        bounds=BYTE_BUCKETS).observe(alloc)
        except QueryLimitError as exc:
            self.metrics.counter("query.refused." + exc.refusal).inc()
            failure = exc
            raise
        except BaseException as exc:
            failure = exc
            raise
        finally:
            if query_log is not None:
                query_log.emit(query_record(
                    root_span, query_id=query_id, sql=sql,
                    backend_requested=backend_label,
                    opt_level=opt_level, n_threads=n_threads,
                    wall_seconds=time.perf_counter() - start,
                    error=failure))
                self.metrics.counter("telemetry.records").inc()
        self._metric_queries.inc()
        self._metric_query_seconds.observe(time.perf_counter() - start)
        return result

    def _run_with_fallback(self, sql: str, opt_level: str,
                           backend: str | None, use_cache: bool,
                           ctx: QueryContext, n_threads: int, span,
                           kwargs: dict, *, pipeline=None,
                           verify_ir: bool = False,
                           dump_ir: str | None = None) -> TableValue:
        """Prepare + execute with graceful backend degradation.

        A :class:`HorseRuntimeError` out of an engine that declares a
        fallback re-prepares and re-runs the query one
        step down the chain (cgen → pygen → interp), counting
        ``query.retries`` and annotating the query span; errors that
        would reproduce identically everywhere (syntax, planning,
        builtins) and the query's own limits propagate immediately.
        """
        engine = resolve(self.backends, backend or self.default_backend)
        retries = 0
        while True:
            try:
                prepared = self.prepare(sql, opt_level,
                                        backend=engine.name,
                                        use_cache=use_cache, ctx=ctx,
                                        pipeline=pipeline,
                                        verify_ir=verify_ir,
                                        dump_ir=dump_ir)
                result = prepared.query.run(n_threads=n_threads,
                                            ctx=ctx, **kwargs)
                if self.stats.enabled:
                    # The baseline observes every plan operator's
                    # estimate as it executes, the root included; a
                    # HorseIR engine has no operators left, so the
                    # root is the one estimate it can be held to.
                    self._note_estimate(prepared.query.plan_json, result,
                                        span, observe=engine.horseir)
                return result
            except _RETRYABLE_ERRORS as exc:
                if engine.fallback is None:
                    raise
                retries += 1
                ctx.metrics.counter("query.retries").inc()
                span.set(retries=retries, retried_from=engine.name,
                         retry_error=f"{type(exc).__name__}: {exc}")
                engine = resolve(self.backends, engine.fallback)
                # The span's backend now names the engine that actually
                # ran the query — the query log records it as provenance.
                span.set(backend=engine.name)

    def _note_estimate(self, plan_json: dict, result: TableValue,
                       span, *, observe: bool) -> None:
        """Record est-vs-actual for a finished query: ``est_rows`` /
        ``rows_out`` / ``q_error`` on the query span (rendered as
        ``rows est=… actual=…`` by EXPLAIN ANALYZE and copied into the
        query-log record) and, with ``observe``, the ``stats.q_error``
        histogram and the ``stats.misestimates`` counter past
        :data:`~repro.stats.MISESTIMATE_THRESHOLD`."""
        est = plan_json.get("est_rows")
        if est is None:
            return
        actual = result.num_rows
        q = q_error(est, actual)
        span.set(est_rows=est, rows_out=actual, q_error=round(q, 3))
        if not observe:
            return
        self.metrics.histogram("stats.q_error",
                               bounds=QERROR_BUCKETS).observe(q)
        if q > MISESTIMATE_THRESHOLD:
            self.metrics.counter("stats.misestimates").inc()

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction/invalidation counters for the plan
        cache."""
        return self.plan_cache.stats

    # -- baseline -------------------------------------------------------------

    def baseline_executor(self) -> PlanExecutor:
        """The session's MonetDB-like plan executor, created on first
        use and kept for the session's lifetime so its UDF-bridge
        conversion counters accumulate across queries."""
        if self._baseline_executor is None:
            self._baseline_executor = PlanExecutor(
                self.db, self.udfs, ctx=self.context())
        return self._baseline_executor

    # -- standalone MATLAB ----------------------------------------------------

    def compile_matlab(self, source: str, param_specs=None,
                       opt_level: str = "opt",
                       backend: str | None = None,
                       module_name: str = "MatlabModule",
                       ctx: QueryContext | None = None, *,
                       pipeline=None, verify_ir: bool = False,
                       dump_ir: str | None = None) -> MatlabProgram:
        """MATLAB source → HorseIR → an executable on one of the
        session's HorseIR engines (:class:`BackendError` for the
        baseline, which runs logical plans only)."""
        ctx = self._ctx(ctx)
        engine = resolve(self.backends, backend or self.default_backend)
        if not engine.horseir:
            raise BackendError(f"backend {engine.name!r} cannot run "
                               f"MATLAB programs")
        module = matlab_to_module(source, param_specs,
                                  module_name=module_name)
        unit = CompilationUnit(opt_level=opt_level, module=module,
                               udfs=self.udfs, pipeline=pipeline,
                               verify_ir=verify_ir, dump_ir=dump_ir)
        compiled = engine.compile(unit, ctx)
        return MatlabProgram(module, compiled, ctx=ctx)
