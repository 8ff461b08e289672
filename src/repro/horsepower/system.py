"""The HorsePower system facade.

A thin layer over :class:`~repro.engine.session.EngineSession`: the
facade owns one plain session (``pygen`` by default) and forwards every
historical entry point to it — ``compile_sql`` / ``run_sql`` for SQL
(optionally with registered MATLAB UDFs), ``compile_matlab_function``
for standalone analytics, ``prepare`` and the plan cache for
prepared-query economics.  Instrumentation is whatever the constructor
was handed: ``tracer=`` / ``profile=`` / ``metrics=`` go straight to
the session, and without them the system is untraced, unprofiled and
counts into a registry of its own (``system.session.metrics``).
``system.session.close()`` releases the session's worker threads.
"""

from __future__ import annotations

from repro.core import types as ht
from repro.engine.session import CompiledQuery, EngineSession
from repro.engine.storage import Database
from repro.horsepower.cache import (
    DEFAULT_PLAN_CACHE_SIZE, CacheStats, PlanCache, PreparedQuery,
)
from repro.matlang.frontend import MatlabProgram
from repro.sql.udf import ScalarUDF, TableUDFDef, UDFRegistry

__all__ = ["HorsePowerSystem", "CompiledQuery", "PreparedQuery"]


class HorsePowerSystem:
    """SQL + MATLAB + SQL-with-MATLAB-UDF execution over HorseIR."""

    def __init__(self, db: Database, udfs: UDFRegistry | None = None,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE, *,
                 tracer=None, profile=None, metrics=None):
        self.session = EngineSession(
            db, udfs=udfs, plan_cache_size=plan_cache_size,
            default_backend="pygen", tracer=tracer, profile=profile,
            metrics=metrics)

    @property
    def db(self) -> Database:
        return self.session.db

    @property
    def udfs(self) -> UDFRegistry:
        return self.session.udfs

    @property
    def plan_cache(self) -> PlanCache:
        return self.session.plan_cache

    @property
    def governor(self):
        """The session's :class:`~repro.engine.governor.QueryGovernor`
        (configure concurrency limits and default timeouts/budgets
        here; per-query limits pass through ``run_sql``)."""
        return self.session.governor

    @property
    def telemetry(self):
        """The session's :class:`~repro.obs.SessionTelemetry` (query
        log, flight recorder, Prometheus endpoint); unconfigured — and
        free — by default."""
        return self.session.telemetry

    def configure_telemetry(self, **kwargs):
        """See :meth:`EngineSession.configure_telemetry` — the CLI's
        ``--query-log`` / ``--slow-query-ms`` / ``--serve-metrics``
        land here."""
        return self.session.configure_telemetry(**kwargs)

    def dump_diagnostics(self, directory) -> str:
        """Write a postmortem diagnostics bundle; see
        :meth:`EngineSession.dump_diagnostics`."""
        return self.session.dump_diagnostics(directory)

    # -- statistics -------------------------------------------------------------

    @property
    def stats(self):
        """The session's :class:`~repro.stats.StatsStore` — empty (and
        free) until :meth:`analyze` runs."""
        return self.session.stats

    def analyze(self, table: str | None = None):
        """Collect table/column statistics (``ANALYZE``); see
        :meth:`EngineSession.analyze`."""
        return self.session.analyze(table)

    # -- UDF registration -------------------------------------------------------

    def register_scalar_udf(self, name: str, matlab_source: str,
                            param_types: list[ht.HorseType],
                            ret_type: ht.HorseType = ht.F64,
                            python_impl=None) -> ScalarUDF:
        return self.session.register_scalar_udf(
            name, matlab_source, param_types, ret_type,
            python_impl=python_impl)

    def register_table_udf(self, name: str, matlab_source: str,
                           param_types: list[ht.HorseType],
                           output_columns: list[tuple[str, ht.HorseType]],
                           python_impl=None) -> TableUDFDef:
        return self.session.register_table_udf(
            name, matlab_source, param_types, output_columns,
            python_impl=python_impl)

    # -- SQL -----------------------------------------------------------------

    def plan_sql(self, sql: str) -> dict:
        """Parse + plan + serialize; the JSON handed to the translator."""
        _, plan_json = self.session.plan_sql(sql)
        return plan_json

    def compile_sql(self, sql: str, opt_level: str = "opt",
                    backend: str = "python", *,
                    pipeline=None, verify_ir: bool = False,
                    dump_ir: str | None = None) -> CompiledQuery:
        return self.session.compile_sql(sql, opt_level, backend=backend,
                                        pipeline=pipeline,
                                        verify_ir=verify_ir,
                                        dump_ir=dump_ir)

    def prepare(self, sql: str, opt_level: str = "opt",
                backend: str = "python",
                use_cache: bool = True, *,
                pipeline=None, verify_ir: bool = False,
                dump_ir: str | None = None) -> PreparedQuery:
        """Fetch (or compile and cache) the prepared form of ``sql``;
        see :meth:`EngineSession.prepare`."""
        return self.session.prepare(sql, opt_level, backend=backend,
                                    use_cache=use_cache,
                                    pipeline=pipeline,
                                    verify_ir=verify_ir,
                                    dump_ir=dump_ir)

    def run_sql(self, sql: str, n_threads: int = 1,
                opt_level: str = "opt", backend: str = "python",
                use_cache: bool = True, **kwargs):
        return self.session.run_sql(sql, n_threads=n_threads,
                                    opt_level=opt_level, backend=backend,
                                    use_cache=use_cache, **kwargs)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction/invalidation counters for the plan cache."""
        return self.session.cache_stats

    # -- standalone MATLAB -------------------------------------------------------

    def compile_matlab_function(self, source: str, param_specs=None,
                                opt_level: str = "opt",
                                backend: str = "python", *,
                                pipeline=None, verify_ir: bool = False,
                                dump_ir: str | None = None) \
            -> MatlabProgram:
        return self.session.compile_matlab(source, param_specs,
                                           opt_level=opt_level,
                                           backend=backend,
                                           pipeline=pipeline,
                                           verify_ir=verify_ir,
                                           dump_ir=dump_ir)
