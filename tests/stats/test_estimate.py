"""Cardinality estimation end to end: plan annotation, ``plan_to_json``
surfacing, per-operator est-vs-actual spans, and the acceptance bar —
q-error ≤ 2.0 on the Q1/Q6 filters after ANALYZE."""

import pytest

from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.obs import Tracer
from repro.sql.parser import parse_sql
from repro.sql.plan import plan_to_json
from repro.sql.planner import plan_query
from repro.stats import annotate_plan, q_error
from repro.workloads.tpch_queries import PLAIN_QUERIES

TPCH_SCALE = 0.01


@pytest.fixture(scope="module")
def analyzed_mdb():
    mdb = EngineSession(generate_tpch(scale_factor=TPCH_SCALE),
                        tracer=Tracer(), default_backend="baseline")
    mdb.analyze()
    return mdb


def _traced_run(mdb, sql):
    """Run ``sql`` and return the session's tracer holding only that
    query's spans."""
    tracer = mdb.tracer
    tracer.reset()
    mdb.run_sql(sql)
    return tracer


def _filter_spans(mdb, sql):
    tracer = _traced_run(mdb, sql)
    return tracer, [s for s in tracer.all_spans()
                    if s.name == "op:Filter"]


class TestAcceptanceQError:
    """The ISSUE's acceptance criterion: after ANALYZE, the Q1 and Q6
    filter estimates stay within a factor 2 of the actual counts."""

    @pytest.mark.parametrize("name", ["q1", "q6"])
    def test_filter_q_error_within_two(self, analyzed_mdb, name):
        _, filters = _filter_spans(analyzed_mdb, PLAIN_QUERIES[name])
        assert filters, f"{name}: no filter operators traced"
        for span in filters:
            est = span.attrs["est_rows"]
            actual = span.attrs["rows_out"]
            assert q_error(est, actual) <= 2.0, \
                f"{name}: est={est} actual={actual}"


class TestPerOperatorSpans:
    def test_every_workload_query_reports_est_and_actual(
            self, analyzed_mdb):
        """EXPLAIN ANALYZE on every TPC-H workload query shows both
        sides on every operator span."""
        for name, sql in PLAIN_QUERIES.items():
            tracer = _traced_run(analyzed_mdb, sql)
            operators = [s for s in tracer.all_spans()
                         if s.name.startswith("op:")]
            assert operators, name
            for span in operators:
                assert span.attrs.get("est_rows") is not None, \
                    (name, span.name)
                assert span.attrs.get("rows_out") is not None, \
                    (name, span.name)

    def test_scan_estimate_is_exact(self, analyzed_mdb):
        tracer, _ = _filter_spans(analyzed_mdb, PLAIN_QUERIES["q6"])
        scan = next(s for s in tracer.all_spans()
                    if s.name == "op:Scan")
        assert scan.attrs["est_rows"] == scan.attrs["rows_out"]

    def test_spans_without_stats_carry_actuals_only(self):
        tracer = Tracer()
        mdb = EngineSession(generate_tpch(scale_factor=0.002),
                            tracer=tracer, default_backend="baseline")
        mdb.run_sql(PLAIN_QUERIES["q6"])
        names = {s.name for s in tracer.all_spans()}
        assert {"query", "parse", "plan", "execute"} <= names
        operators = [s for s in tracer.all_spans()
                     if s.name.startswith("op:")]
        assert operators
        for span in operators:
            assert "est_rows" not in span.attrs
            assert span.attrs.get("rows_out") is not None


class TestPlanAnnotation:
    def _plan(self, mdb, sql, with_stats=True):
        return plan_query(parse_sql(sql), mdb.db.catalog(), mdb.udfs,
                          table_stats=mdb.stats if with_stats else None)

    def test_annotate_covers_every_node(self, analyzed_mdb):
        plan = self._plan(analyzed_mdb, PLAIN_QUERIES["q6"])
        seen = []

        def walk(node):
            seen.append(node)
            for child in node.children():
                walk(child)

        walk(plan)
        assert len(seen) >= 3
        for node in seen:
            assert node.est_rows is not None, type(node).__name__

    def test_scan_estimate_matches_row_count(self, analyzed_mdb):
        plan = self._plan(analyzed_mdb, PLAIN_QUERIES["q6"])
        node = plan
        while node.children():
            node = node.children()[0]
        row_count = analyzed_mdb.stats.table("lineitem").row_count
        assert node.est_rows == row_count

    def test_join_estimate_present_and_bounded(self, analyzed_mdb):
        sql = ("SELECT o_orderkey AS k FROM orders, lineitem "
               "WHERE o_orderkey = l_orderkey")
        plan = self._plan(analyzed_mdb, sql)
        joins = []

        def walk(node):
            if type(node).__name__ == "Join":
                joins.append(node)
            for child in node.children():
                walk(child)

        walk(plan)
        assert joins
        stats = analyzed_mdb.stats
        cross = (stats.table("orders").row_count
                 * stats.table("lineitem").row_count)
        for join in joins:
            assert 1 <= join.est_rows <= cross

    def test_annotate_plan_returns_root_estimate(self, analyzed_mdb):
        plan = self._plan(analyzed_mdb, PLAIN_QUERIES["q6"],
                          with_stats=False)
        assert plan.est_rows is None
        root_est = annotate_plan(plan, analyzed_mdb.stats)
        assert root_est is not None
        assert plan.est_rows == int(round(root_est))


class TestPlanToJson:
    def test_output_names_always_present(self, analyzed_mdb):
        plan = plan_query(parse_sql(PLAIN_QUERIES["q6"]),
                          analyzed_mdb.db.catalog(), analyzed_mdb.udfs)

        def walk(node_json):
            assert node_json["output_names"] == \
                [name for name, _ in node_json["output"]]
            assert "est_rows" not in node_json
            for key in ("child", "left", "right"):
                if key in node_json:
                    walk(node_json[key])

        walk(plan_to_json(plan))

    def test_est_rows_surfaces_after_analyze(self, analyzed_mdb):
        plan = plan_query(parse_sql(PLAIN_QUERIES["q6"]),
                          analyzed_mdb.db.catalog(), analyzed_mdb.udfs,
                          table_stats=analyzed_mdb.stats)
        node_json = plan_to_json(plan)

        def walk(node_json):
            assert node_json["est_rows"] >= 1
            for key in ("child", "left", "right"):
                if key in node_json:
                    walk(node_json[key])

        walk(node_json)
