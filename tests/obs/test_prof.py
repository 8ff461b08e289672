"""Allocation-profiler tests: unit behavior, the naive-vs-opt parity
invariant (opt never allocates more than naive; fused Q6+UDF
materializes strictly fewer intermediates), render/export integration,
session metrics, and the disabled-profile overhead smoke."""

import json
import time

import numpy as np
import pytest

from repro.core.compiler import compile_module
from repro.core.context import QueryContext
from repro.core.interp import run_module
from repro.core.parser import parse_module
from repro.data.blackscholes import load_blackscholes_table
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.obs import (NULL_PROFILE, AllocationProfile, Tracer,
                       chrome_trace, format_fusion_savings,
                       fusion_savings, render_explain_analyze)
from repro.obs.prof import format_bytes
from repro.workloads.bs_queries import SCALAR_QUERIES, register_bs_udfs
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

TPCH_SCALE = 0.002
BS_ROWS = 4_000


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(scale_factor=TPCH_SCALE)


@pytest.fixture(scope="module")
def bs_db():
    db = Database()
    load_blackscholes_table(db, BS_ROWS)
    return db


def profile_query(db, sql, *, backend, opt_level, register=None,
                  n_threads=1):
    """Run one query in an isolated session with a fresh profile."""
    profile = AllocationProfile()
    with EngineSession(db, profile=profile,
                       default_backend=backend) as session:
        if register is not None:
            register(session)
        result = session.run_sql(sql, opt_level=opt_level,
                                 backend=backend, n_threads=n_threads)
    return profile, result


def naive_vs_opt(db, sql, register=None, n_threads=1):
    naive, _ = profile_query(db, sql, backend="interp",
                             opt_level="naive", register=register,
                             n_threads=n_threads)
    opt, _ = profile_query(db, sql, backend="pygen", opt_level="opt",
                           register=register, n_threads=n_threads)
    return naive, opt


class TestAllocationProfile:
    def test_record_totals_and_sites(self):
        profile = AllocationProfile()
        profile.record(100, site="interp:a")
        profile.record(50, site="interp:a")
        profile.record(8, site="kernel:_k0", count=3)
        assert profile.bytes_allocated == 158
        assert profile.intermediates_materialized == 5
        assert profile.sites["interp:a"] == [2, 150]
        assert profile.sites["kernel:_k0"] == [3, 8]

    def test_builtin_breakdown_does_not_touch_the_total(self):
        profile = AllocationProfile()
        profile.record_builtin("mul", 400)
        profile.record_builtin("mul", 100)
        assert profile.bytes_allocated == 0
        assert profile.intermediates_materialized == 0
        assert profile.builtins["mul"] == [2, 500]

    def test_peak_is_a_high_water_mark(self):
        profile = AllocationProfile()
        profile.update_peak(10)
        profile.update_peak(500)
        profile.update_peak(20)
        assert profile.peak_bytes == 500

    def test_to_dict_round_trips_through_json(self):
        profile = AllocationProfile()
        profile.record(64, site="interp:x")
        profile.record_builtin("sum", 64)
        profile.update_peak(128)
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["bytes_allocated"] == 64
        assert payload["peak_bytes"] == 128
        assert payload["sites"]["interp:x"] == {"count": 1, "bytes": 64}
        assert payload["builtins"]["sum"] == {"count": 1, "bytes": 64}

    def test_reset_zeroes_everything(self):
        profile = AllocationProfile()
        profile.record(64, site="interp:x")
        profile.update_peak(64)
        profile.reset()
        assert profile.bytes_allocated == 0
        assert profile.peak_bytes == 0
        assert profile.sites == {}

    def test_null_profile_is_inert(self):
        NULL_PROFILE.record(1000, site="x")
        NULL_PROFILE.record_builtin("mul", 1000)
        NULL_PROFILE.update_peak(1000)
        assert NULL_PROFILE.bytes_allocated == 0
        assert NULL_PROFILE.counters() == (0, 0)
        assert not NULL_PROFILE.enabled
        assert NULL_PROFILE.to_dict()["bytes_allocated"] == 0

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(1536) == "1.5KiB"
        assert format_bytes(3 << 20) == "3.0MiB"
        assert format_bytes(2 << 30) == "2.0GiB"


class TestParityInvariant:
    """The paper's claim as an assertion: the optimized pipeline never
    materializes more bytes than naive execution of the same query."""

    @pytest.mark.parametrize("name", sorted(PLAIN_QUERIES))
    def test_tpch_plain(self, tpch_db, name):
        naive, opt = naive_vs_opt(tpch_db, PLAIN_QUERIES[name])
        assert naive.bytes_allocated > 0
        assert opt.bytes_allocated <= naive.bytes_allocated, name

    @pytest.mark.parametrize("name", sorted(UDF_QUERIES))
    def test_tpch_udf(self, tpch_db, name):
        naive, opt = naive_vs_opt(tpch_db, UDF_QUERIES[name],
                                  register=register_tpch_udfs)
        assert naive.bytes_allocated > 0
        assert opt.bytes_allocated <= naive.bytes_allocated, name

    @pytest.mark.parametrize("name", ["bs0_base", "bs1_med", "bs3_med"])
    def test_blackscholes(self, bs_db, name):
        naive, opt = naive_vs_opt(bs_db, SCALAR_QUERIES[name],
                                  register=register_bs_udfs)
        assert naive.bytes_allocated > 0
        assert opt.bytes_allocated <= naive.bytes_allocated, name

    def test_multithreaded_kernels_charge_like_serial(self, tpch_db):
        serial, _ = profile_query(tpch_db, UDF_QUERIES["q6"],
                                  backend="pygen", opt_level="opt",
                                  register=register_tpch_udfs)
        threaded, _ = profile_query(tpch_db, UDF_QUERIES["q6"],
                                    backend="pygen", opt_level="opt",
                                    register=register_tpch_udfs,
                                    n_threads=2)
        assert threaded.bytes_allocated == serial.bytes_allocated
        assert (threaded.intermediates_materialized
                == serial.intermediates_materialized)


class TestReferenceCharges:
    """A column reference hands out stored data; only a conversion
    copies.  The SQL translator wraps every column reference in a
    ``check_cast`` to the column's own type, which returns the column
    itself — that used to be charged as a full copy."""

    @pytest.mark.parametrize("backend,opt_level",
                             [("interp", "naive"), ("pygen", "opt")])
    def test_sql_column_reference_charges_nothing(self, tpch_db, backend,
                                                  opt_level):
        profile, _ = profile_query(
            tpch_db, "SELECT SUM(l_quantity) AS s FROM lineitem",
            backend=backend, opt_level=opt_level)
        # What is left is the one-row sum (and the result table).
        assert profile.bytes_allocated < 64

    @pytest.mark.parametrize("backend", ["interp", "pygen"])
    @pytest.mark.parametrize("cast,charged", [("i64", 0), ("f64", 8 * 5)])
    def test_check_cast_charges_only_a_conversion(self, backend, cast,
                                                  charged):
        module = parse_module(f"""
        module M {{
            def main(): {cast} {{
                t:table = @load_table(`t:sym);
                c:{cast} = check_cast(@column_value(t, `k:sym), {cast});
                s:{cast} = @sum(c);
                return s;
            }}
        }}""")
        db = Database()
        db.create_table("t", {"k": np.arange(5, dtype=np.int64)})
        profile = AllocationProfile()
        ctx = QueryContext(profile=profile)
        if backend == "interp":
            run_module(module, db.to_table_values(), ctx=ctx)
            site = "interp:c"
        else:
            compile_module(module, "opt").run(db.to_table_values(),
                                              ctx=ctx)
            site = "stmt:c"
        assert profile.sites.get(site, [0, 0])[1] == charged


class TestFusionSavings:
    def test_q6_udf_eliminates_intermediates(self, tpch_db):
        """The acceptance criterion: on Q6+UDF the fused pipeline
        allocates strictly fewer bytes than naive and eliminates at
        least one intermediate."""
        naive, opt = naive_vs_opt(tpch_db, UDF_QUERIES["q6"],
                                  register=register_tpch_udfs)
        savings = fusion_savings(naive, opt)
        assert savings.opt_bytes < savings.naive_bytes
        assert savings.intermediates_eliminated >= 1
        assert (opt.intermediates_materialized
                < naive.intermediates_materialized)
        assert 0.0 < savings.bytes_ratio < 1.0

    def test_report_text(self, tpch_db):
        naive, opt = naive_vs_opt(tpch_db, UDF_QUERIES["q6"],
                                  register=register_tpch_udfs)
        text = format_fusion_savings(fusion_savings(naive, opt),
                                     title="q6_udf")
        assert "q6_udf" in text
        assert "intermediates eliminated" in text
        assert "bytes allocated" in text

    def test_savings_dict_is_consistent(self):
        naive = AllocationProfile()
        naive.record(1000, count=10)
        naive.update_peak(800)
        opt = AllocationProfile()
        opt.record(300, count=3)
        opt.update_peak(400)
        payload = fusion_savings(naive, opt).to_dict()
        assert payload["bytes_saved"] == 700
        assert payload["intermediates_eliminated"] == 7
        assert payload["bytes_ratio"] == pytest.approx(0.3)


class TestRenderIntegration:
    def test_explain_analyze_shows_alloc_columns_when_profiling(
            self, tpch_db):
        tracer = Tracer()
        profile = AllocationProfile()
        with EngineSession(tpch_db, tracer=tracer,
                           profile=profile) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
        rendered = render_explain_analyze(tracer.last_root())
        assert "alloc=" in rendered
        assert "peak=" in rendered

    def test_explain_analyze_unchanged_without_profiling(self, tpch_db):
        tracer = Tracer()
        with EngineSession(tpch_db, tracer=tracer) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
        rendered = render_explain_analyze(tracer.last_root())
        assert "alloc=" not in rendered
        assert "peak=" not in rendered

    def test_chrome_trace_gains_memory_counter_track(self, tpch_db):
        tracer = Tracer()
        profile = AllocationProfile()
        with EngineSession(tpch_db, tracer=tracer,
                           profile=profile) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
        events = chrome_trace(tracer.roots)["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "no memory counter samples"
        assert all(e["name"] == "allocated bytes" for e in counters)
        totals = [e["args"]["allocated"] for e in counters]
        assert totals == sorted(totals)  # running total, monotonic
        assert totals[-1] == profile.bytes_allocated

    def test_chrome_trace_unchanged_without_profiling(self, tpch_db):
        tracer = Tracer()
        with EngineSession(tpch_db, tracer=tracer) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
        events = chrome_trace(tracer.roots)["traceEvents"]
        spans = sum(1 for _ in tracer.roots[0].walk())
        assert all(e["ph"] == "X" for e in events)
        assert len(events) == spans


class TestSessionMetrics:
    def test_prof_metrics_recorded_per_query(self, tpch_db):
        profile = AllocationProfile()
        with EngineSession(tpch_db, profile=profile) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
            snapshot = session.metrics.snapshot()
        assert (snapshot["prof.bytes_allocated"]
                == profile.bytes_allocated)
        assert (snapshot["prof.intermediates_materialized"]
                == profile.intermediates_materialized)
        assert snapshot["prof.peak_bytes"] == profile.peak_bytes
        hist = snapshot["prof.query_bytes"]
        assert hist["count"] == 1
        assert hist["sum"] == profile.bytes_allocated
        # Byte-scale buckets: the observation lands in a bucket instead
        # of overflowing a seconds-scale histogram.
        assert sum(hist["buckets"].values()) == 1

    def test_no_prof_metrics_without_profiling(self, tpch_db):
        with EngineSession(tpch_db) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
            snapshot = session.metrics.snapshot()
        assert not any(name.startswith("prof.") for name in snapshot)


class TestDisabledOverhead:
    def test_noop_profile_site_cost(self):
        """A disabled charge site is one ``.enabled`` attribute read;
        the same loose 10µs bar as the tracer's no-op smoke test."""
        loops = 50_000
        profile = NULL_PROFILE
        start = time.perf_counter()
        for _ in range(loops):
            if profile.enabled:
                profile.record(0)
        per_site = (time.perf_counter() - start) / loops
        assert per_site < 10e-6

    def test_disabled_by_default_everywhere(self, tpch_db):
        """With no profile passed, a session carries NULL_PROFILE and a
        full query charges nothing anywhere."""
        with EngineSession(tpch_db) as session:
            register_tpch_udfs(session)
            session.run_sql(UDF_QUERIES["q6"])
            assert session.profile is NULL_PROFILE
        assert NULL_PROFILE.bytes_allocated == 0
