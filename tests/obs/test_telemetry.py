"""Session telemetry: query log, flight recorder, diagnostics bundles,
and the Prometheus scrape endpoint (PR 7)."""

import io
import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import EngineSession, default_registry
from repro.engine.storage import Database
from repro.errors import HorseRuntimeError, QueryTimeout
from repro.obs import (FlightRecorder, MetricsRegistry, QueryLog,
                       SessionTelemetry, Tracer)
from repro.obs.render import render_explain_analyze
from repro.obs.telemetry import (QUERY_LOG_FIELDS, phase_seconds,
                                 sql_fingerprint)


def make_db(rows=100, seed=0):
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("t", {
        "x": rng.random(rows),
        "y": rng.random(rows),
    })
    return db


SQL = "SELECT SUM(x * y) AS s FROM t WHERE x > 0.1"


# -- Prometheus exposition format ------------------------------------------


def parse_prometheus(text: str) -> dict:
    """A deliberately strict mini-parser for the text exposition
    format: returns ``{metric_name: {"type": ..., "samples": [(labels,
    value), ...]}}`` and asserts the structural invariants a real
    scraper relies on."""
    metrics: dict = {}
    current = None
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in metrics, f"duplicate HELP for {name}"
            metrics[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(maxsplit=3)
            assert name == current, "TYPE must follow its HELP"
            assert kind in ("counter", "gauge", "histogram")
            metrics[name]["type"] = kind
        else:
            match = re.fullmatch(
                r'([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)', line)
            assert match, f"unparseable sample line: {line!r}"
            name, labels, value = match.groups()
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            owner = name if name in metrics else base
            assert owner in metrics, f"sample {name} before its HELP"
            metrics[owner]["samples"].append(
                (name, labels, float(value)))
    return metrics


class TestPrometheusExport:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("query.count").inc(3)
        registry.gauge("pool.workers").set(4)
        hist = registry.histogram("query.seconds")
        for value in (1e-5, 0.002, 0.002, 0.5, 99.0):  # 99 overflows
            hist.observe(value)
        return registry

    def test_help_and_type_for_every_metric(self):
        metrics = parse_prometheus(self.make_registry().to_prometheus())
        assert set(metrics) == {"query_count", "pool_workers",
                                "query_seconds"}
        assert metrics["query_count"]["type"] == "counter"
        assert metrics["pool_workers"]["type"] == "gauge"
        assert metrics["query_seconds"]["type"] == "histogram"

    def test_names_are_sanitized(self):
        text = self.make_registry().to_prometheus()
        for line in text.splitlines():
            if not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                assert "." not in name
                assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name)

    def test_counter_and_gauge_values(self):
        metrics = parse_prometheus(self.make_registry().to_prometheus())
        assert metrics["query_count"]["samples"] == [
            ("query_count", None, 3.0)]
        assert metrics["pool_workers"]["samples"] == [
            ("pool_workers", None, 4.0)]

    def test_histogram_buckets_cumulative_and_inf_equals_count(self):
        metrics = parse_prometheus(self.make_registry().to_prometheus())
        samples = metrics["query_seconds"]["samples"]
        buckets = [(labels, value) for name, labels, value in samples
                   if name == "query_seconds_bucket"]
        values = [value for _, value in buckets]
        assert values == sorted(values), "buckets must be cumulative"
        assert buckets[-1][0] == 'le="+Inf"'
        count = [value for name, _, value in samples
                 if name == "query_seconds_count"][0]
        assert buckets[-1][1] == count == 5
        # The overflow observation (99.0) is only in +Inf: the last
        # finite bucket holds the 4 in-range observations.
        assert buckets[-2][1] == 4
        total = [value for name, _, value in samples
                 if name == "query_seconds_sum"][0]
        assert total == pytest.approx(1e-5 + 0.002 + 0.002 + 0.5 + 99.0)

    def test_leading_digit_names_get_prefixed(self):
        registry = MetricsRegistry()
        registry.counter("99th.latency").inc()
        metrics = parse_prometheus(registry.to_prometheus())
        assert "_99th_latency" in metrics

    def test_session_scrape_contains_query_metrics(self):
        with EngineSession(make_db()) as session:
            session.run_sql(SQL)
            metrics = parse_prometheus(session.metrics.to_prometheus())
        assert metrics["query_count"]["samples"][0][2] == 1.0
        assert metrics["query_seconds"]["type"] == "histogram"


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

    def test_slow_threshold_marks_records(self):
        sink = io.StringIO()
        with EngineSession(make_db(), query_log=sink) as session:
            session.configure_telemetry(slow_query_ms=0.0)
            session.run_sql(SQL)
            assert session.metrics.counter(
                "telemetry.slow_queries").value == 1
        record = json.loads(sink.getvalue().splitlines()[0])
        assert record["slow"] is True

    def test_sampling_is_deterministic(self):
        sink = io.StringIO()
        log = QueryLog(sink, sample_rate=0.5)
        for i in range(10):
            log.emit({"query_id": i, "outcome": "ok", "slow": False})
        assert log.emitted == 5
        assert log.sampled_out == 5
        kept = [json.loads(line)["query_id"]
                for line in sink.getvalue().splitlines()]
        assert kept == [1, 3, 5, 7, 9]

    def test_errors_and_slow_bypass_sampling(self):
        sink = io.StringIO()
        log = QueryLog(sink, sample_rate=0.01)
        log.emit({"outcome": "timeout", "slow": False})
        log.emit({"outcome": "ok", "slow": True})
        assert log.emitted == 2

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError):
            QueryLog(io.StringIO(), sample_rate=0.0)
        with pytest.raises(ValueError):
            QueryLog(io.StringIO(), sample_rate=1.5)

    def test_path_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with EngineSession(make_db(), query_log=path) as session:
            session.run_sql(SQL)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["query_id"] == 1
        assert session.telemetry.query_log._stream is None

    def test_long_sql_truncated_but_fingerprint_full(self):
        sink = io.StringIO()
        log_record = None
        padding = " " * 2000  # collapses in the fingerprint
        sql = SQL + padding + "-- " + "x" * 2000
        fingerprint = sql_fingerprint(sql)
        telemetry = SessionTelemetry()
        telemetry.configure(query_log=QueryLog(sink))
        log_record = telemetry.begin_query(
            sql, backend="pygen", opt_level="opt", n_threads=1)
        assert len(log_record["sql"]) <= 501
        assert log_record["fingerprint"] == fingerprint


# -- flight recorder and diagnostics ---------------------------------------


class TestFlightRecorder:
    def test_capacity_bound_keeps_newest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record({"query_id": i})
        assert len(recorder) == 3
        assert [r["query_id"] for r in recorder.records()] == [7, 8, 9]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_session_records_without_query_log(self):
        with EngineSession(make_db()) as session:
            session.configure_telemetry(flight_recorder=8)
            session.run_sql(SQL)
            records = session.telemetry.recorder.records()
        assert len(records) == 1
        assert records[0]["outcome"] == "ok"


class _FailState:
    def __init__(self):
        self.failures = 0


def _flaky_registry(fail_state):
    """A backend that fails at runtime and declares pygen as fallback
    (same shape as the governor test's degradation scenario)."""
    registry = default_registry()
    pygen = registry.get("pygen")

    class FlakyBackend(type(pygen)):
        name = "flaky"
        description = "fails at runtime; falls back to pygen"
        fallback = "pygen"

        def execute(self, program, ctx, **kwargs):
            fail_state.failures += 1
            raise HorseRuntimeError("kernel blew up at runtime")

    registry.register(FlakyBackend())
    return registry


class TestDiagnostics:
    BUNDLE_FILES = ("record.json", "span_tree.txt", "metrics.json",
                    "profile.json", "backends.json", "env.json",
                    "flight_records.jsonl")

    def test_timeout_dumps_automatic_bundle(self, tmp_path):
        sink = io.StringIO()
        with EngineSession(make_db(rows=10_000),
                           query_log=sink) as session:
            session.configure_telemetry(diagnostics_dir=tmp_path)
            with pytest.raises(QueryTimeout):
                session.run_sql(SQL, backend="interp", timeout=1e-9)
        record = json.loads(sink.getvalue().splitlines()[0])
        assert record["outcome"] == "timeout"
        assert record["error"].startswith("QueryTimeout")
        bundles = list(tmp_path.iterdir())
        assert len(bundles) == 1
        assert bundles[0].name == "diag-q000001-timeout"
        for filename in self.BUNDLE_FILES:
            assert (bundles[0] / filename).stat().st_size > 0
        bundled = json.loads((bundles[0] / "record.json").read_text())
        assert bundled["outcome"] == "timeout"

    def test_flaky_backend_bundle_contains_retried_span(self, tmp_path):
        fail_state = _FailState()
        with EngineSession(make_db(),
                           backends=_flaky_registry(fail_state)) \
                as session:
            session.configure_telemetry(slow_query_ms=1e9)
            result = session.run_sql(SQL, backend="flaky")
            assert result.num_rows == 1
            assert fail_state.failures == 1
            bundle = session.dump_diagnostics(tmp_path)
        tree = (tmp_path / bundle.split("/")[-1] /
                "span_tree.txt").read_text()
        assert "retried_from=flaky" in tree
        record = json.loads(
            (tmp_path / bundle.split("/")[-1] /
             "record.json").read_text())
        assert record["retries"] == 1
        assert record["retried_from"] == "flaky"
        assert record["backend"] == "pygen"
        assert record["backend_requested"] == "flaky"
        assert record["outcome"] == "ok"

    def test_bundle_counts_in_flight_records(self, tmp_path):
        with EngineSession(make_db()) as session:
            session.configure_telemetry(flight_recorder=4)
            for _ in range(3):
                session.run_sql(SQL)
            session.dump_diagnostics(tmp_path)
            assert session.metrics.counter(
                "telemetry.diagnostics_bundles").value == 1
        bundle = next(tmp_path.iterdir())
        lines = (bundle / "flight_records.jsonl") \
            .read_text().splitlines()
        assert [json.loads(line)["query_id"]
                for line in lines] == [1, 2, 3]

    def test_failure_without_diagnostics_dir_writes_nothing(
            self, tmp_path):
        with EngineSession(make_db(rows=10_000)) as session:
            session.configure_telemetry(slow_query_ms=1e9)
            with pytest.raises(QueryTimeout):
                session.run_sql(SQL, backend="interp", timeout=1e-9)
        assert list(tmp_path.iterdir()) == []


# -- metrics server ---------------------------------------------------------


class TestMetricsServer:
    def test_scrape_over_http(self):
        with EngineSession(make_db()) as session:
            telemetry = session.configure_telemetry(serve_metrics=0)
            session.run_sql(SQL)
            url = telemetry.server.url
            assert url.startswith("http://127.0.0.1:")
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                body = response.read().decode()
            metrics = parse_prometheus(body)
            assert metrics["query_count"]["samples"][0][2] == 1.0
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    url.replace("/metrics", "/nope"))
            assert excinfo.value.code == 404
        # Session close stopped the server.
        assert session.telemetry.server is None

    def test_close_is_idempotent(self):
        telemetry = SessionTelemetry(metrics=MetricsRegistry())
        telemetry.configure(serve_metrics=0)
        server = telemetry.server
        telemetry.close()
        server.close()
        assert telemetry.server is None

    def test_serve_metrics_alone_does_not_enable_recording(self):
        telemetry = SessionTelemetry(metrics=MetricsRegistry())
        telemetry.configure(serve_metrics=0)
        try:
            assert not telemetry.enabled
        finally:
            telemetry.close()


# -- span/record provenance -------------------------------------------------


class TestRowsAttribute:
    def test_rows_rendered_when_telemetry_on(self):
        tracer = Tracer()
        with EngineSession(make_db(), tracer=tracer) as session:
            session.configure_telemetry(flight_recorder=4)
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
