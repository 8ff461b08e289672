"""Renderer tests: EXPLAIN ANALYZE (golden), the estimated-plan
renderer (golden), Chrome trace round-trip, and end-to-end
instrumentation of both systems on TPC-H."""

import json
import os
from dataclasses import replace

import pytest

from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.obs import (Tracer, chrome_trace, chrome_trace_json,
                       phase_coverage, render_explain_analyze,
                       render_plan)
from repro.sql.parser import parse_sql
from repro.sql.planner import plan_query
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: TPC-H generation is seeded, so plan shapes, optimizer pass effects and
#: row counts — everything the timing-free render shows — are stable.
TPCH_SCALE = 0.002


@pytest.fixture(scope="module")
def hp_system():
    db = generate_tpch(scale_factor=TPCH_SCALE)
    hp = EngineSession(db)
    register_tpch_udfs(hp)
    return hp


def _trace_query(hp, sql, **kwargs):
    tracer = Tracer()
    hp.run_sql(sql, backend="python",
               ctx=replace(hp.context(), tracer=tracer), **kwargs)
    root = tracer.last_root()
    assert root is not None and root.name == "query"
    return tracer, root


class TestExplainAnalyze:
    def test_golden_q6_udf(self, hp_system):
        """The timing-free EXPLAIN ANALYZE tree for the Froid-style Q6
        UDF rewrite is stable run to run; regenerate the golden with
        ``python tests/obs/test_render.py`` after intentional plan or
        instrumentation changes."""
        _, root = _trace_query(hp_system, UDF_QUERIES["q6"])
        rendered = render_explain_analyze(root, timings=False)
        golden_path = os.path.join(GOLDEN_DIR,
                                   "explain_analyze_q6_udf.txt")
        with open(golden_path) as handle:
            assert rendered == handle.read().rstrip("\n")

    def test_rendered_tree_is_deterministic(self, hp_system):
        hp_system.plan_cache.invalidate()
        _, first = _trace_query(hp_system, UDF_QUERIES["q12"])
        hp_system.plan_cache.invalidate()
        _, second = _trace_query(hp_system, UDF_QUERIES["q12"])
        assert render_explain_analyze(first, timings=False) == \
            render_explain_analyze(second, timings=False)

    def test_timed_render_has_totals_and_coverage(self, hp_system):
        hp_system.plan_cache.invalidate()
        _, root = _trace_query(hp_system, UDF_QUERIES["q6"])
        rendered = render_explain_analyze(root)
        assert " ms" in rendered
        assert "-- phases cover" in rendered
        assert "%" in rendered

    def test_phase_times_cover_query_total(self, hp_system):
        """The acceptance bar is 95% coverage; assert a slightly looser
        90% here so a noisy CI scheduler cannot flake the suite."""
        hp_system.plan_cache.invalidate()
        _, root = _trace_query(hp_system, UDF_QUERIES["q6"])
        covered, total, fraction = phase_coverage(root)
        assert total > 0
        assert covered <= total * 1.001
        assert fraction > 0.90


def _estimated_plan(hp, sql):
    """Plan ``sql`` with the system's (analyzed) statistics, as
    ``run-sql --analyze --explain`` does."""
    stats = hp.stats
    return plan_query(parse_sql(sql), hp.db.catalog(), hp.udfs,
                      table_stats=stats if stats.enabled else None)


class TestExplainPlanGolden:
    """``--explain`` renderings (est_rows per operator after ANALYZE)
    for Q6 plain and the Froid-style Q6 UDF rewrite are stable: TPC-H
    generation is seeded, so histograms — and therefore every estimate
    — are deterministic at a fixed scale.  Regenerate with
    ``python tests/obs/test_render.py``."""

    @pytest.mark.parametrize("queries,golden", [
        (PLAIN_QUERIES, "explain_plan_q6.txt"),
        (UDF_QUERIES, "explain_plan_q6_udf.txt"),
    ], ids=["plain", "udf"])
    def test_golden_q6_estimated_plan(self, hp_system, queries, golden):
        hp_system.analyze()
        rendered = render_plan(_estimated_plan(hp_system,
                                               queries["q6"]))
        with open(os.path.join(GOLDEN_DIR, golden)) as handle:
            assert rendered == handle.read().rstrip("\n")

    def test_plan_without_stats_renders_without_est_rows(self,
                                                         hp_system):
        plan = plan_query(parse_sql(PLAIN_QUERIES["q6"]),
                          hp_system.db.catalog(), hp_system.udfs)
        rendered = render_plan(plan)
        assert "est_rows" not in rendered
        assert "out=[" in rendered


class TestSpanTaxonomy:
    def test_horsepower_cold_run_has_full_pipeline_spans(self, hp_system):
        hp_system.plan_cache.invalidate()
        tracer, root = _trace_query(hp_system, UDF_QUERIES["q6"])
        names = {span.name for span in tracer.all_spans()}
        for expected in ("query", "prepare", "parse", "plan",
                         "translate", "compile", "optimize", "codegen",
                         "pass:inline", "execute"):
            assert expected in names, expected
        assert any(name.startswith("kernel:") for name in names)

    def test_warm_run_skips_compile_spans(self, hp_system):
        hp_system.plan_cache.invalidate()
        _trace_query(hp_system, UDF_QUERIES["q6"])  # cold, fills cache
        tracer, root = _trace_query(hp_system, UDF_QUERIES["q6"])
        names = {span.name for span in tracer.all_spans()}
        assert "compile" not in names and "parse" not in names
        prepare = next(s for s in root.children if s.name == "prepare")
        assert prepare.attrs["cached"] is True


class TestChromeTrace:
    def test_round_trip_is_valid_json_with_required_keys(self, hp_system):
        hp_system.plan_cache.invalidate()
        tracer, _ = _trace_query(hp_system, UDF_QUERIES["q6"],
                                 n_threads=2)
        payload = json.loads(chrome_trace_json(tracer.roots))
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["name"]
            assert "tid" in event and "pid" in event

    def test_event_count_matches_span_count(self, hp_system):
        tracer, _ = _trace_query(hp_system, UDF_QUERIES["q14"])
        payload = chrome_trace(tracer.roots)
        assert len(payload["traceEvents"]) == len(tracer.all_spans())

    def test_args_carry_span_attributes(self, hp_system):
        tracer, _ = _trace_query(hp_system, UDF_QUERIES["q6"])
        payload = chrome_trace(tracer.roots)
        query = next(e for e in payload["traceEvents"]
                     if e["name"] == "query")
        assert query["args"]["system"] == "horsepower"


def _regenerate_golden() -> None:
    db = generate_tpch(scale_factor=TPCH_SCALE)
    hp = EngineSession(db)
    register_tpch_udfs(hp)
    _, root = _trace_query(hp, UDF_QUERIES["q6"])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, "explain_analyze_q6_udf.txt")
    with open(path, "w") as handle:
        handle.write(render_explain_analyze(root, timings=False) + "\n")
    print(f"wrote {path}")
    hp.analyze()
    for queries, name in ((PLAIN_QUERIES, "explain_plan_q6.txt"),
                          (UDF_QUERIES, "explain_plan_q6_udf.txt")):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as handle:
            handle.write(render_plan(_estimated_plan(hp, queries["q6"]))
                         + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate_golden()
