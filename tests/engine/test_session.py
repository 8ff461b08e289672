"""EngineSession: isolation, backends, fallback, lifecycle."""

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.codegen.cgen import c_backend_available
from repro.engine import EngineSession, QueryContext
from repro.engine.backends import (
    ENGINES, Backend, BackendError, CgenBackend, CompilationUnit,
)
from repro.engine.storage import Database
from repro.obs import Tracer


def make_db(rows=100):
    db = Database()
    db.create_table("t", {
        "x": np.arange(rows, dtype=np.float64),
        "y": np.arange(rows, dtype=np.float64) * 2.0,
    })
    return db


SQL = "SELECT SUM(x) AS s FROM t"


class TestSessionBasics:
    def test_run_sql_on_default_backend(self):
        with EngineSession(make_db()) as session:
            result = session.run_sql(SQL)
        assert result.column("s").data[0] == pytest.approx(4950.0)

    def test_all_backends_agree(self):
        with EngineSession(make_db()) as session:
            results = {
                name: session.run_sql(
                    "SELECT SUM(x * y) AS s FROM t WHERE x > 3",
                    backend=name).column("s").data[0]
                for name in session.backends
            }
        expected = results.pop("interp")
        for name, value in results.items():
            assert value == pytest.approx(expected), name

    def test_sessions_do_not_share_metrics_or_cache(self):
        a = EngineSession(make_db())
        b = EngineSession(make_db())
        with a, b:
            a.run_sql(SQL)
            a.run_sql(SQL)
            b.run_sql(SQL)
        assert a.metrics.counter("query.count").value == 2
        assert b.metrics.counter("query.count").value == 1
        assert a.cache_stats.hits == 1 and b.cache_stats.hits == 0
        assert len(a.plan_cache) == 1 and len(b.plan_cache) == 1

    def test_session_tracer_is_isolated(self):
        tracer = Tracer()
        with EngineSession(make_db(), tracer=tracer) as traced, \
                EngineSession(make_db()) as silent:
            traced.run_sql(SQL)
            silent.run_sql(SQL)
        roots = tracer.roots
        assert len(roots) == 1
        assert roots[0].name == "query"
        names = set()

        def walk(span):
            names.add(span.name)
            for child in span.children:
                walk(child)

        walk(roots[0])
        assert {"query", "prepare", "parse", "plan", "translate",
                "compile", "execute"} <= names

    def test_context_carries_session_parts(self):
        with EngineSession(make_db()) as session:
            ctx = session.context()
            assert isinstance(ctx, QueryContext)
            assert ctx.metrics is session.metrics
            assert ctx.session is session

    def test_close_is_idempotent_and_contextmanager_safe(self):
        session = EngineSession(make_db())
        session.run_sql(SQL, n_threads=2)
        session.close()
        session.close()
        with session:
            pass
        assert session.closed

    def test_compile_matlab_through_session(self):
        with EngineSession(make_db()) as session:
            program = session.compile_matlab(
                "function y = f(x)\n  y = sum(x .* x);\nend")
            assert program(np.array([1.0, 2.0, 3.0])) \
                == pytest.approx(14.0)
        assert session.metrics.counter("compile.count").value == 1

    @pytest.mark.parametrize("backend", ["interp", "pygen"])
    def test_compile_metrics_are_the_same_on_every_backend(self,
                                                           backend):
        """The interpreter shares the compiler's prologue, so its
        compiles report the COMP split like the kernel backends'."""
        with EngineSession(make_db(),
                           default_backend=backend) as session:
            query = session.compile_sql(SQL)
            snapshot = session.metrics.snapshot()
        assert snapshot["compile.count"] == 1
        assert snapshot["compile.optimize_seconds_total"] \
            == query.optimize_seconds > 0.0
        assert snapshot["compile.codegen_seconds_total"] \
            == query.codegen_seconds
        assert query.compile_seconds \
            == query.optimize_seconds + query.codegen_seconds


class _UnavailableCgen(CgenBackend):
    """cgen on a machine without gcc; compiling on it is a bug."""

    def available(self):
        return False

    def compile(self, unit, ctx):  # pragma: no cover - must not run
        raise AssertionError("an unavailable cgen compiled")


class TestEngineTable:
    def test_session_holds_one_instance_per_engine(self):
        with EngineSession(make_db()) as one, \
                EngineSession(make_db()) as two:
            assert list(one.backends) == ["interp", "pygen", "cgen",
                                          "baseline"] == list(ENGINES)
            for name, engine in one.backends.items():
                assert type(engine) is ENGINES[name]
                assert engine.name == name
                assert engine is not two.backends[name]
            assert [name for name, engine in one.backends.items()
                    if engine.horseir] == ["interp", "pygen", "cgen"]

    def test_unknown_backend_raises_with_known_names(self):
        with EngineSession(make_db()) as session:
            with pytest.raises(BackendError, match="unknown backend"):
                session.run_sql(SQL, backend="turbo")
            with pytest.raises(BackendError, match="pygen"):
                session.compile_sql(SQL, backend="turbo")

    @pytest.mark.parametrize("name", ["python", "turbo"])
    def test_unknown_default_backend_is_refused_at_construction(self, name):
        with pytest.raises(BackendError,
                           match="known: interp, pygen, cgen, baseline"):
            EngineSession(make_db(), default_backend=name)

    @pytest.mark.parametrize("alias", ["python", "c", "monetdb"])
    def test_old_aliases_are_refused(self, alias):
        known = "known: interp, pygen, cgen, baseline"
        with EngineSession(make_db()) as session:
            with pytest.raises(BackendError, match=known):
                session.run_sql(SQL, backend=alias)
            with pytest.raises(BackendError, match=known):
                session.compile_sql(SQL, backend=alias)
            with pytest.raises(BackendError, match=known):
                session.prepare(SQL, backend=alias)
            assert session.cache_stats.lookups == 0

    def test_unavailable_cgen_resolves_to_pygen(self):
        with EngineSession(make_db()) as session:
            session.backends["cgen"] = _UnavailableCgen()
            assert session.compile_sql(SQL,
                                       backend="cgen").backend == "pygen"
            result = session.run_sql(SQL, backend="cgen")
            assert result.column("s").data[0] == pytest.approx(4950.0)
            # run_sql cached the pygen compile under the pygen key.
            prepared = session.prepare(SQL, backend="cgen")
            assert prepared.cached and prepared.query.backend == "pygen"
            assert session.metrics.counter("query.retries").value == 0

    def test_unavailable_engine_without_fallback_raises(self):
        class Gone(_UnavailableCgen):
            fallback = None

        with EngineSession(make_db()) as session:
            session.backends["cgen"] = Gone()
            with pytest.raises(BackendError, match="unavailable"):
                session.run_sql(SQL, backend="cgen")

    def test_custom_backend_registers_per_session(self):
        calls = []

        class Recorder(Backend):
            name = "recorder"
            fallback = "pygen"

            def compile(self, unit, ctx):
                calls.append(unit.sql)
                raise BackendError("recorder cannot compile")

        with EngineSession(make_db()) as session:
            session.backends["recorder"] = Recorder()
            with pytest.raises(BackendError):
                session.run_sql(SQL, backend="recorder")
        assert calls == [SQL]
        # Other sessions (their own engines) never see it.
        with EngineSession(make_db()) as other:
            with pytest.raises(BackendError, match="unknown backend"):
                other.run_sql(SQL, backend="recorder")

    def test_compile_matlab_refuses_the_baseline(self):
        source = "function y = f(x)\n  y = sum(x .* x);\nend"
        with EngineSession(make_db()) as session:
            with pytest.raises(BackendError, match="baseline"):
                session.compile_matlab(source, backend="baseline")
            program = session.compile_matlab(source, backend="interp")
            assert program(np.array([1.0, 2.0])) == pytest.approx(5.0)


class TestBackendBehavior:
    def test_baseline_backend_uses_the_plan_cache(self):
        with EngineSession(make_db()) as session:
            cold = session.run_sql(SQL, backend="baseline")
            warm = session.run_sql(SQL, backend="baseline")
            assert session.cache_stats.hits == 1
            assert len(session.plan_cache) == 1
            assert warm.column("s").data.tolist() \
                == cold.column("s").data.tolist() == [4950.0]
            # ANALYZE and a UDF registration each invalidate it.
            session.analyze()
            assert len(session.plan_cache) == 0
            session.run_sql(SQL, backend="baseline")
            session.register_scalar_udf(
                "twice", "function y = twice(x)\n  y = x .* 2;\nend",
                [ht.F64])
            assert len(session.plan_cache) == 0
            assert session.cache_stats.invalidations == 2
            again = session.run_sql(SQL, backend="baseline")
            assert again.column("s").data.tolist() == [4950.0]
            assert session.cache_stats.misses == 3

    def test_prepared_backends_share_no_cache_entries(self):
        with EngineSession(make_db()) as session:
            session.run_sql(SQL, backend="pygen")
            session.run_sql(SQL, backend="interp")
            assert len(session.plan_cache) == 2
            session.run_sql(SQL, backend="pygen")
            assert session.cache_stats.hits == 1

    def test_interp_backend_reports_compile_provenance(self):
        with EngineSession(make_db()) as session:
            compiled = session.compile_sql(SQL, backend="interp")
        assert compiled.backend == "interp"
        assert compiled.kernel_sources == []
        assert compiled.compile_seconds > 0
        assert compiled.compile_seconds == pytest.approx(
            compiled.optimize_seconds + compiled.codegen_seconds)

    def test_baseline_compiled_query_runs_and_has_no_report(self):
        with EngineSession(make_db()) as session:
            compiled = session.compile_sql(SQL, backend="baseline")
            result = compiled.run()
        assert compiled.report is None
        assert compiled.compile_seconds == 0.0
        assert result.column("s").data[0] == pytest.approx(4950.0)

    @pytest.mark.skipif(not c_backend_available(),
                        reason="gcc not on PATH")
    def test_cgen_backend_runs_natively(self):
        with EngineSession(make_db()) as session:
            result = session.run_sql(SQL, backend="cgen", n_threads=2)
        assert result.column("s").data[0] == pytest.approx(4950.0)

    def test_compilation_unit_requirements(self):
        ctx = QueryContext()
        with pytest.raises(BackendError, match="HorseIR module"):
            ENGINES["pygen"]().compile(CompilationUnit(), ctx)
        with pytest.raises(BackendError, match="logical plan"):
            ENGINES["baseline"]().compile(CompilationUnit(), ctx)
