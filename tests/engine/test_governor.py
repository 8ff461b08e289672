"""QueryGovernor: deadlines, memory budgets, admission control, and
graceful backend degradation (PR 6)."""

import threading
import time

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.codegen.executor import run_kernel
from repro.core.codegen.pygen import CompiledKernel
from repro.core.execpool import ExecutorPool
from repro.core.limits import NULL_LIMITS, QueryLimits
from repro.core.values import Vector
from repro.data.blackscholes import load_blackscholes_table
from repro.engine import EngineSession, QueryGovernor, default_registry
from repro.engine.governor import BudgetedAllocationProfile
from repro.engine.storage import Database
from repro.errors import (AdmissionRejected, GovernorError,
                          HorseRuntimeError, MemoryBudgetExceeded,
                          QueryCancelled, QueryTimeout)
from repro.obs import AllocationProfile, MetricsRegistry
from repro.workloads.bs_queries import SCALAR_QUERIES, register_bs_udfs


def make_db(rows=100, seed=0):
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("t", {
        "x": rng.random(rows),
        "y": rng.random(rows),
    })
    return db


SQL = "SELECT SUM(x * y) AS s FROM t WHERE x > 0.1"


class TestQueryLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryLimits(timeout=0)
        with pytest.raises(ValueError):
            QueryLimits(timeout=-1.0)
        with pytest.raises(ValueError):
            QueryLimits(memory_budget=0)

    def test_check_counts_and_passes_inside_deadline(self):
        limits = QueryLimits(timeout=3600.0)
        for _ in range(5):
            limits.check("test")
        assert limits.checks == 5
        assert limits.remaining_seconds() > 3000.0

    def test_check_raises_past_deadline(self):
        limits = QueryLimits(timeout=0.001)
        time.sleep(0.005)
        with pytest.raises(QueryTimeout, match="deadline"):
            limits.check("chunk")

    def test_cancel_raises_at_next_check(self):
        limits = QueryLimits(timeout=3600.0)
        limits.check()
        limits.cancel("test asked")
        with pytest.raises(QueryCancelled, match="test asked"):
            limits.check("statement")

    def test_null_limits_is_disabled_and_inert(self):
        assert NULL_LIMITS.enabled is False
        NULL_LIMITS.check("anywhere")  # no-op, raises nothing
        assert NULL_LIMITS.checks == 0
        assert NULL_LIMITS.remaining_seconds() is None


class TestGovernorGrant:
    def test_unconfigured_governor_grants_nothing(self):
        governor = QueryGovernor(metrics=MetricsRegistry())
        assert governor.grant() is None

    def test_defaults_apply_when_call_passes_none(self):
        governor = QueryGovernor(metrics=MetricsRegistry(),
                                 default_timeout=5.0,
                                 default_memory_budget=1 << 20)
        limits = governor.grant()
        assert limits.timeout == 5.0
        assert limits.memory_budget == 1 << 20
        # explicit per-query values win over defaults
        limits = governor.grant(timeout=1.0, memory_budget=64)
        assert limits.timeout == 1.0
        assert limits.memory_budget == 64

    def test_configure_rejects_bad_values(self):
        governor = QueryGovernor(metrics=MetricsRegistry())
        with pytest.raises(ValueError):
            governor.configure(max_concurrent=0)
        with pytest.raises(ValueError):
            governor.configure(admission_timeout=-1.0)


class TestDeadline:
    def test_deadline_cancels_within_one_chunk_boundary(self):
        """The acceptance scenario: a 50 ms deadline on a multi-chunk
        kernel stops at the next chunk checkpoint — overshoot bounded
        by one chunk's work, nowhere near the ungoverned runtime."""
        chunk_sleep = 0.02
        n_chunks = 40  # ungoverned runtime ~0.8 s
        chunk = 64
        executed = []

        def slow_fn(x, out):
            executed.append(len(x))
            time.sleep(chunk_sleep)
            out[...] = x
            return [None]

        kernel = CompiledKernel(
            segment=None, source="", fn=slow_fn, inputs=["x"],
            streamed=[True], outputs=[("y", "vector")],
            output_types=[ht.F64], placements=["base"])
        data = Vector(ht.F64, np.ones(chunk * n_chunks))

        with EngineSession(make_db()) as session:
            limits = QueryLimits(timeout=0.05)
            ctx = session.context()
            ctx.limits = limits
            start = time.perf_counter()
            with pytest.raises(QueryTimeout):
                run_kernel(kernel, [data], chunk_size=chunk, ctx=ctx)
            elapsed = time.perf_counter() - start

        # Cancelled long before the ~0.8 s ungoverned runtime, with
        # overshoot past the deadline bounded by roughly one chunk
        # (generous CI slack, still an order of magnitude under 0.8 s).
        assert elapsed < 0.05 + chunk_sleep + 0.15
        assert len(executed) < n_chunks
        assert limits.checks == len(executed) + 1  # failing check runs no chunk

    def test_run_sql_timeout_raises_and_counts(self):
        with EngineSession(make_db(rows=50_000)) as session:
            with pytest.raises(QueryTimeout):
                session.run_sql(SQL, timeout=1e-6, backend="interp",
                                opt_level="naive", use_cache=False)
            assert session.metrics.counter(
                "governor.timed_out").value == 1

    def test_optimizer_pass_checkpoint(self):
        """A deadline expiring during compilation cancels at an
        optimizer-pass boundary (no execution ever starts)."""
        with EngineSession(make_db()) as session:
            limits = QueryLimits(timeout=0.001)
            time.sleep(0.005)
            ctx = session.context()
            ctx.limits = limits
            with pytest.raises(QueryTimeout, match="pass:"):
                session.compile_sql(SQL, opt_level="opt", ctx=ctx)

    def test_memory_budget_cancel_counts_as_cancelled(self):
        with EngineSession(make_db(rows=50_000)) as session:
            with pytest.raises(MemoryBudgetExceeded):
                session.run_sql(SQL, memory_budget=64, use_cache=False)
            assert session.metrics.counter(
                "governor.cancelled").value == 1


class TestMemoryBudget:
    @pytest.fixture(scope="class")
    def bs_db(self):
        db = Database()
        load_blackscholes_table(db, 50_000)
        return db

    def _alloc_of(self, session, sql, backend, opt_level):
        profile = AllocationProfile()
        ctx = session.context()
        ctx.profile = profile
        session.run_sql(sql, backend=backend, opt_level=opt_level,
                        ctx=ctx)
        return profile.bytes_allocated

    def test_naive_trips_budget_that_fused_fits(self, bs_db):
        """The fusion story as an enforcement boundary: naive
        Black-Scholes materializes every intermediate and blows a
        budget the fused pipeline runs comfortably inside."""
        sql = SCALAR_QUERIES["bs0_base"]
        with EngineSession(bs_db) as session:
            register_bs_udfs(session)
            naive = self._alloc_of(session, sql, "interp", "naive")
            fused = self._alloc_of(session, sql, "pygen", "opt")
            assert fused < naive
            budget = (naive + fused) // 2

            # Fused: runs to completion under the budget.
            session.run_sql(sql, backend="pygen", opt_level="opt",
                            memory_budget=budget)
            # Naive: the same budget trips at a charge point.
            with pytest.raises(MemoryBudgetExceeded, match="budget"):
                session.run_sql(sql, backend="interp",
                                opt_level="naive",
                                memory_budget=budget,
                                use_cache=False)

    def test_budgeted_profile_forwards_to_base(self):
        base = AllocationProfile()
        budgeted = BudgetedAllocationProfile(1 << 20, base=base)
        budgeted.record(1024, site="test")
        budgeted.update_peak(1024)
        assert base.bytes_allocated == 1024
        assert base.peak_bytes == 1024
        with pytest.raises(MemoryBudgetExceeded):
            budgeted.record(1 << 21, site="big")
        # the failing charge was still metered before it raised
        assert base.bytes_allocated == 1024 + (1 << 21)


class TestAdmission:
    def test_rejects_query_past_the_limit(self):
        with EngineSession(make_db()) as session:
            session.governor.configure(max_concurrent=1)
            with session.governor.admit():
                with pytest.raises(AdmissionRejected):
                    session.run_sql(SQL)
            # slot released: same query admitted now
            session.run_sql(SQL)
            metrics = session.metrics
            assert metrics.counter("governor.rejected").value == 1
            assert metrics.counter("governor.admitted").value >= 1
            snapshot = metrics.snapshot()
            assert "governor.queue_wait_seconds" in snapshot

    def test_concurrent_queries_beyond_limit_reject(self):
        """N+1 genuinely concurrent queries: N admitted, one
        rejected."""
        with EngineSession(make_db(rows=50_000)) as session:
            session.governor.configure(max_concurrent=2)
            barrier = threading.Barrier(3)
            outcomes = []

            def worker():
                try:
                    with session.governor.admit():
                        barrier.wait(timeout=5)
                        time.sleep(0.05)
                    outcomes.append("ok")
                except AdmissionRejected:
                    barrier.wait(timeout=5)
                    outcomes.append("rejected")

            threads = [threading.Thread(target=worker)
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert sorted(outcomes) == ["ok", "ok", "rejected"]

    def test_admission_queue_wait_admits_when_slot_frees(self):
        governor = QueryGovernor(metrics=MetricsRegistry(),
                                 max_concurrent=1,
                                 admission_timeout=5.0)
        release = threading.Event()

        def holder():
            with governor.admit():
                release.set()
                time.sleep(0.05)

        thread = threading.Thread(target=holder)
        thread.start()
        release.wait(timeout=5)
        with governor.admit() as admitted:  # queues ~50 ms, then enters
            assert admitted
        thread.join(timeout=5)
        waits = governor.metrics.histogram(
            "governor.queue_wait_seconds")
        assert waits.count == 2  # holder (zero wait) + queued entry

    def test_governor_errors_are_never_retried(self):
        """Admission rejection must not walk the fallback chain."""
        with EngineSession(make_db()) as session:
            session.governor.configure(max_concurrent=1)
            with session.governor.admit():
                with pytest.raises(GovernorError):
                    session.run_sql(SQL, backend="cgen")
            assert session.metrics.counter("query.retries").value == 0


class _FailingOnce:
    """Mutable flag shared with the flaky backend below."""

    def __init__(self):
        self.failures = 0


def _flaky_registry(fail_state):
    """A registry whose ``flaky`` backend compiles like pygen but blows
    up at runtime, declaring pygen as its fallback — the cgen-style
    runtime-failure scenario without needing gcc."""
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


class TestGracefulDegradation:
    def test_runtime_failure_degrades_bit_identical(self):
        fail_state = _FailingOnce()
        db = make_db(rows=10_000, seed=7)
        with EngineSession(db, backends=_flaky_registry(fail_state)) \
                as session:
            degraded = session.run_sql(SQL, backend="flaky")
            expected = session.run_sql(SQL, backend="pygen")
            assert fail_state.failures == 1
            assert degraded.column("s").data[0] == \
                expected.column("s").data[0]
            assert session.metrics.counter("query.retries").value == 1

    def test_retry_disabled_propagates(self):
        fail_state = _FailingOnce()
        with EngineSession(make_db(),
                           backends=_flaky_registry(fail_state)) \
                as session:
            session.governor.configure(retry_fallback=False)
            with pytest.raises(HorseRuntimeError, match="blew up"):
                session.run_sql(SQL, backend="flaky")
            assert session.metrics.counter("query.retries").value == 0

    def test_no_fallback_propagates(self):
        """A backend with no declared fallback surfaces its runtime
        errors as-is — nothing left to degrade to."""
        registry = default_registry()
        pygen = registry.get("pygen")

        class DeadEndBackend(type(pygen)):
            name = "deadend"
            description = "fails at runtime with no fallback"
            fallback = None

            def execute(self, program, ctx, **kwargs):
                raise HorseRuntimeError("no safety net")

        registry.register(DeadEndBackend())
        with EngineSession(make_db(), backends=registry) as session:
            with pytest.raises(HorseRuntimeError, match="no safety"):
                session.run_sql(SQL, backend="deadend")
            assert session.metrics.counter("query.retries").value == 0


class TestBaselineGoverned:
    def test_timeout_raises_and_session_stays_usable(self):
        with EngineSession(make_db(rows=200_000)) as session:
            with pytest.raises(QueryTimeout):
                session.run_sql(SQL, backend="baseline", timeout=0.0005)
            assert session.run_sql(SQL, backend="baseline").num_rows == 1
            counts = session.metrics.snapshot()
            assert counts["governor.timed_out"] == 1
            assert counts["query.count"] == 1

    def test_memory_budget_raises_at_the_operator(self):
        with EngineSession(make_db(rows=50_000)) as session, \
                pytest.raises(MemoryBudgetExceeded, match="op:Filter"):
            session.run_sql(SQL, backend="baseline", memory_budget=64)

    def test_one_checkpoint_per_plan_operator(self):
        with EngineSession(make_db()) as session:
            ctx = session.context()
            ctx.limits = QueryLimits(timeout=3600.0)
            session.run_sql(SQL, backend="baseline", ctx=ctx)
            operators = session.metrics.counter("exec.operators").value
            assert ctx.limits.checks == operators > 1


class TestUngovernedPathUnchanged:
    def test_no_limits_means_null_limits_and_no_governor_metrics(self):
        with EngineSession(make_db()) as session:
            result = session.run_sql(SQL)
            assert result.num_rows == 1
            snapshot = session.metrics.snapshot()
            assert not any(key.startswith("governor.")
                           for key in snapshot)
            assert "query.retries" not in snapshot
            assert session.context().limits is NULL_LIMITS

    def test_governed_and_ungoverned_results_identical(self):
        db = make_db(rows=10_000, seed=3)
        with EngineSession(db) as session:
            plain = session.run_sql(SQL)
            governed = session.run_sql(SQL, timeout=3600.0,
                                       memory_budget=1 << 30)
            assert plain.column("s").data[0] == \
                governed.column("s").data[0]


class TestPoolCap:
    def test_cap_clamps_oversized_requests(self):
        """Regression: ``get(n_threads > max_workers)`` used to grow
        the pool past its cap."""
        metrics = MetricsRegistry()
        with ExecutorPool(max_workers=2, metrics=metrics) as pool:
            pool.get(8)
            assert pool.workers == 2
            assert metrics.counter("pool.oversubscribed").value == 1
            # within-cap requests are not oversubscription
            pool.get(2)
            assert metrics.counter("pool.oversubscribed").value == 1
            assert pool.stats.max_workers_seen == 2

    def test_oversubscribed_requests_do_not_rebuild_the_pool(self):
        metrics = MetricsRegistry()
        with ExecutorPool(max_workers=2, metrics=metrics) as pool:
            pool.get(8)
            pool.get(8)
            pool.get(16)
            assert pool.stats.pools_created == 1
            assert metrics.counter("pool.oversubscribed").value == 3

    def test_uncapped_pool_still_grows(self):
        with ExecutorPool(metrics=MetricsRegistry()) as pool:
            executor = pool.get(4)
            assert pool.workers >= 4
            assert executor is not None


#: A query whose compiled form contains a fused kernel (a single
#: predicate compiles to plain column ops with no segment to fuse).
FUSED_SQL = ("SELECT SUM(x * (1.0 - y)) AS s FROM t "
             "WHERE x > 0.1 AND y < 0.9")


class TestChunkCounting:
    def test_single_chunk_fast_path_counts_one_chunk(self):
        """Regression: the single-chunk fast path returned before
        ``kernel.chunks`` was incremented, undercounting every query
        whose base length fits one chunk."""
        with EngineSession(make_db(rows=64)) as session:
            assert len(session.compile_sql(
                FUSED_SQL, backend="pygen").kernel_sources) == 1
            session.run_sql(FUSED_SQL, backend="pygen")
            assert session.metrics.counter("kernel.chunks").value == 1

    def test_multi_chunk_counts_match_bounds(self):
        with EngineSession(make_db(rows=2000)) as session:
            session.run_sql(FUSED_SQL, backend="pygen",
                            chunk_size=100)
            # ~81% of 2000 rows survive the filter → the fused kernel
            # streams well over 1000 rows → at least 10 chunks.
            assert session.metrics.counter(
                "kernel.chunks").value >= 10
