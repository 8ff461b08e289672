"""The query log: one JSONL record per ``run_sql``, built from the
query's root span."""

import io
import json
import re

import numpy as np
import pytest

from repro.engine import EngineSession
from repro.engine.backends import PygenBackend
from repro.engine.storage import Database
from repro.errors import HorseRuntimeError, QueryTimeout
from repro.obs import QueryLog, Tracer
from repro.obs.render import render_explain_analyze
from repro.obs.telemetry import (QUERY_LOG_FIELDS, phase_seconds,
                                 query_record, sql_fingerprint)


def make_db(rows=100, seed=0):
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("t", {
        "x": rng.random(rows),
        "y": rng.random(rows),
    })
    return db


SQL = "SELECT SUM(x * y) AS s FROM t WHERE x > 0.1"


class _FailState:
    def __init__(self):
        self.failures = 0


def _flaky_backend(fail_state):
    """A backend that fails at runtime and declares pygen as fallback
    (same shape as test_governor's degradation scenario)."""

    class FlakyBackend(PygenBackend):
        name = "flaky"
        description = "fails at runtime; falls back to pygen"
        fallback = "pygen"

        def execute(self, program, ctx, **kwargs):
            fail_state.failures += 1
            raise HorseRuntimeError("kernel blew up at runtime")

    return FlakyBackend()


# -- query log --------------------------------------------------------------


class TestQueryLog:
    def test_jsonl_schema_and_monotonic_ids(self):
        sink = io.StringIO()
        with EngineSession(make_db(), query_log=sink) as session:
            session.run_sql(SQL)
            session.run_sql(SQL)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        for record in records:
            assert tuple(record) == QUERY_LOG_FIELDS
            assert record["fingerprint"] == sql_fingerprint(SQL)
            assert record["outcome"] == "ok"
            assert record["backend"] == "pygen"
            assert record["rows"] == 1
            assert record["wall_seconds"] > 0
            assert "execute" in record["phases"]
        assert [r["query_id"] for r in records] == [1, 2]
        # First run compiles, second hits the plan cache.
        assert [r["cache_hit"] for r in records] == [False, True]

    def test_path_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with EngineSession(make_db(), query_log=path) as session:
            session.run_sql(SQL)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["query_id"] == 1
        assert session.query_log._stream is None

    def test_shared_log_is_borrowed_and_ids_are_per_session(
            self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QueryLog(path)
        with EngineSession(make_db(), query_log=log) as one, \
                EngineSession(make_db(), query_log=log) as two:
            assert one.query_log is two.query_log is log
            one.run_sql(SQL)
            two.run_sql(SQL)
            one.run_sql(SQL)
        # Closing the sessions left the log they were handed open.
        assert log._stream is not None
        log.close()
        assert log.emitted == 3
        assert [json.loads(line)["query_id"] for line
                in path.read_text().splitlines()] == [1, 1, 2]

    def test_timeout_record_carries_refusal_class(self):
        sink = io.StringIO()
        with EngineSession(make_db(rows=10_000),
                           query_log=sink) as session:
            with pytest.raises(QueryTimeout):
                session.run_sql(SQL, backend="interp", timeout=1e-9)
        (line,) = sink.getvalue().splitlines()
        record = json.loads(line)
        assert tuple(record) == QUERY_LOG_FIELDS
        assert record["outcome"] == "timeout"
        assert record["error"].startswith("QueryTimeout")
        assert record["rows"] is None

    def test_retried_query_records_provenance(self):
        sink = io.StringIO()
        fail_state = _FailState()
        with EngineSession(make_db(), query_log=sink) as session:
            session.backends["flaky"] = _flaky_backend(fail_state)
            result = session.run_sql(SQL, backend="flaky")
        assert result.num_rows == 1
        assert fail_state.failures == 1
        record = json.loads(sink.getvalue().splitlines()[0])
        assert record["retries"] == 1
        assert record["retried_from"] == "flaky"
        assert record["backend"] == "pygen"
        assert record["backend_requested"] == "flaky"
        assert record["outcome"] == "ok"

    def test_long_sql_truncated_but_fingerprint_full(self):
        padding = " " * 2000  # collapses in the fingerprint
        sql = SQL + padding + "-- " + "x" * 2000
        record = query_record(None, query_id=1, sql=sql,
                              backend_requested="pygen",
                              opt_level="opt", n_threads=1,
                              wall_seconds=0.0, error=None)
        assert tuple(record) == QUERY_LOG_FIELDS
        assert len(record["sql"]) <= 501
        assert record["fingerprint"] == sql_fingerprint(sql)


# -- span/record provenance -------------------------------------------------


class TestRowsAttribute:
    def test_rows_rendered_when_telemetry_on(self):
        tracer = Tracer()
        with EngineSession(make_db(), tracer=tracer,
                           query_log=io.StringIO()) as session:
            session.run_sql(SQL)
        text = render_explain_analyze(tracer.last_root(),
                                      timings=False)
        assert "rows=1" in text

    def test_rows_absent_when_telemetry_off(self):
        tracer = Tracer()
        with EngineSession(make_db(), tracer=tracer) as session:
            session.run_sql(SQL)
        text = render_explain_analyze(tracer.last_root(),
                                      timings=False)
        assert "rows=" not in text


class TestHelpers:
    def test_fingerprint_collapses_whitespace(self):
        assert sql_fingerprint("SELECT  1") == \
            sql_fingerprint("SELECT\n\t1 ")
        assert sql_fingerprint("SELECT 1") != sql_fingerprint("SELECT 2")
        assert re.fullmatch(r"[0-9a-f]{16}",
                            sql_fingerprint("SELECT 1"))

    def test_phase_seconds_sums_repeated_phases(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("execute"):
                pass
            with tracer.span("execute"):
                pass
            with tracer.span("irrelevant"):
                pass
        phases = phase_seconds(root)
        assert set(phases) == {"execute"}
        assert phases["execute"] >= 0
        assert phase_seconds(None) == {}
