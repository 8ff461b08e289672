"""Plan feedback: ANALYZE invalidates cached plans (stats fingerprint
in the cache key), stale statistics trip the ``stats.misestimates``
counter, and est/actual land in the telemetry query log."""

import io
import json

import numpy as np

from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.engine.table import ColumnTable
from repro.obs.telemetry import QUERY_LOG_FIELDS
from repro.stats import MISESTIMATE_THRESHOLD, q_error


def make_db(rows=100):
    db = Database()
    db.create_table("t", {
        "x": np.arange(rows, dtype=np.int64),
        "y": np.linspace(0.0, 1.0, rows),
    })
    return db


SQL = "SELECT SUM(y) AS s FROM t WHERE x >= 0"

#: Root cardinality scales with the table (aggregates collapse to one
#: row and would hide a stale row count from the session-level check).
SCALING_SQL = "SELECT y AS y FROM t WHERE x >= 0"


def _swap_table(db, rows):
    db.drop_table("t")
    db.add_table(ColumnTable("t", {
        "x": np.arange(rows, dtype=np.int64),
        "y": np.linspace(0.0, 1.0, rows),
    }))


class TestCacheInvalidation:
    def test_analyze_invalidates_cached_plans(self):
        with EngineSession(make_db()) as session:
            session.run_sql(SQL)
            session.run_sql(SQL)
            assert session.cache_stats.hits == 1
            session.analyze()
            session.run_sql(SQL)
            assert session.cache_stats.hits == 1  # recompiled
            assert session.cache_stats.invalidations >= 1
            session.run_sql(SQL)
            assert session.cache_stats.hits == 2  # warm again

    def test_reanalyze_changes_the_cache_key(self):
        with EngineSession(make_db()) as session:
            session.analyze()
            first = session.stats.fingerprint()
            session.analyze()
            assert session.stats.fingerprint() != first

    def test_stats_free_key_is_legacy_shaped(self):
        with EngineSession(make_db()) as session:
            assert session.stats.fingerprint() is None
            session.run_sql(SQL)
            (key,) = list(session.plan_cache.keys()) \
                if hasattr(session.plan_cache, "keys") else [None]
            if key is not None:
                assert key[-1] is None


class TestStaleStatsMisestimates:
    def test_stale_store_trips_the_counter(self):
        """ANALYZE a 10-row table, grow it 1000×, re-run: the root
        estimate is ~10 vs ~10 000 actual — q-error far past the
        threshold — so ``stats.misestimates`` must fire."""
        db = make_db(rows=10)
        with EngineSession(db) as session:
            session.analyze()
            session.run_sql(SCALING_SQL)
            assert session.metrics.counter(
                "stats.misestimates").value == 0
            _swap_table(db, 10_000)
            session.plan_cache.invalidate()  # stats are stale, plan too
            session.run_sql(SCALING_SQL)
            assert session.metrics.counter(
                "stats.misestimates").value >= 1
            hist = session.metrics.histogram("stats.q_error")
            assert hist.count >= 2
            assert hist.max > MISESTIMATE_THRESHOLD

    def test_fresh_stats_do_not_trip_the_counter(self):
        with EngineSession(make_db(rows=1000)) as session:
            session.analyze()
            session.run_sql(SQL)
            assert session.metrics.counter(
                "stats.misestimates").value == 0
            assert session.metrics.histogram(
                "stats.q_error").count >= 1

    def test_each_estimate_is_observed_exactly_once(self):
        """One ``stats.q_error`` observation per query on a HorseIR
        engine (only the root survives lowering), one per plan operator
        on the baseline — the root included, once."""
        with EngineSession(make_db(rows=1000)) as session:
            session.analyze()
            session.run_sql(SQL)
            hist = session.metrics.histogram("stats.q_error")
            assert hist.count == 1
            session.run_sql(SQL, backend="baseline")
            operators = session.metrics.counter("exec.operators").value
            assert hist.count == 1 + operators > 2

    def test_baseline_executor_records_operator_misestimates(self):
        """The interpreting path keeps est-vs-actual metrics flowing
        even with tracing off."""
        db = make_db(rows=10)
        with EngineSession(db, default_backend="baseline") as session:
            session.analyze()
            _swap_table(db, 10_000)
            session.plan_cache.invalidate()
            session.run_sql(SCALING_SQL, backend="baseline")
            assert session.metrics.counter(
                "stats.misestimates").value >= 1


class TestTelemetryFields:
    def test_schema_ends_with_est_and_q_error(self):
        assert QUERY_LOG_FIELDS[-2:] == ("est_rows", "q_error")

    def test_record_carries_est_and_q_after_analyze(self):
        sink = io.StringIO()
        with EngineSession(make_db(), query_log=sink) as session:
            session.analyze()
            session.run_sql(SQL)
        record = json.loads(sink.getvalue().splitlines()[0])
        assert tuple(record) == QUERY_LOG_FIELDS
        assert record["est_rows"] >= 1
        assert record["q_error"] == q_error(record["est_rows"],
                                            record["rows"])

    def test_record_fields_stay_null_without_stats(self):
        sink = io.StringIO()
        with EngineSession(make_db(), query_log=sink) as session:
            session.run_sql(SQL)
        record = json.loads(sink.getvalue().splitlines()[0])
        assert tuple(record) == QUERY_LOG_FIELDS
        assert record["est_rows"] is None
        assert record["q_error"] is None
