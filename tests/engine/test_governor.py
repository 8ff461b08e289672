"""Per-query limits — deadlines, memory budgets and cancellation that
ride on the query's own context — and graceful backend degradation."""

import time

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.codegen.executor import run_kernel
from repro.core.codegen.pygen import CompiledKernel
from repro.core.limits import BudgetedAllocationProfile, QueryLimits
from repro.core.values import Vector
from repro.data.blackscholes import load_blackscholes_table
from repro.engine import EngineSession
from repro.engine.backends import PygenBackend
from repro.engine.storage import Database
from repro.errors import (HorseRuntimeError, MemoryBudgetExceeded,
                          QueryCancelled, QueryTimeout)
from repro.obs import AllocationProfile
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


class TestDeadline:
    def test_deadline_cancels_within_one_chunk_boundary(self):
        """The acceptance scenario: a 50 ms deadline on a multi-chunk
        kernel stops at the next chunk checkpoint — overshoot bounded
        by one chunk's work, nowhere near the unlimited runtime."""
        chunk_sleep = 0.02
        n_chunks = 40  # unlimited runtime ~0.8 s
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

        # Cancelled long before the ~0.8 s unlimited runtime, with
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
                "query.refused.timeout").value == 1

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
                "query.refused.memory_budget").value == 1


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


class _FailingOnce:
    """Mutable flag shared with the flaky backend below."""

    def __init__(self):
        self.failures = 0


def _flaky_backend(fail_state):
    """A backend that compiles like pygen but blows up at runtime,
    declaring pygen as its fallback — the cgen-style runtime-failure
    scenario without needing gcc."""

    class FlakyBackend(PygenBackend):
        name = "flaky"
        description = "fails at runtime; falls back to pygen"
        fallback = "pygen"

        def execute(self, program, ctx, **kwargs):
            fail_state.failures += 1
            raise HorseRuntimeError("kernel blew up at runtime")

    return FlakyBackend()


class TestGracefulDegradation:
    def test_runtime_failure_degrades_bit_identical(self):
        fail_state = _FailingOnce()
        db = make_db(rows=10_000, seed=7)
        with EngineSession(db) as session:
            session.backends["flaky"] = _flaky_backend(fail_state)
            degraded = session.run_sql(SQL, backend="flaky")
            expected = session.run_sql(SQL, backend="pygen")
            assert fail_state.failures == 1
            assert degraded.column("s").data[0] == \
                expected.column("s").data[0]
            assert session.metrics.counter("query.retries").value == 1

    def test_limit_errors_are_never_retried(self):
        """A query its own limits stopped must not walk the fallback
        chain: the flaky backend's fallback would hit the same limit."""
        fail_state = _FailingOnce()
        with EngineSession(make_db()) as session:
            session.backends["flaky"] = _flaky_backend(fail_state)
            ctx = session.context()
            ctx.limits = QueryLimits()
            ctx.limits.cancel("test asked")
            with pytest.raises(QueryCancelled, match="test asked"):
                session.run_sql(SQL, backend="flaky", ctx=ctx)
            assert session.metrics.counter("query.retries").value == 0
            assert session.metrics.counter(
                "query.refused.cancelled").value == 1

    def test_no_fallback_propagates(self):
        """A backend with no declared fallback surfaces its runtime
        errors as-is — nothing left to degrade to."""
        class DeadEndBackend(PygenBackend):
            name = "deadend"
            description = "fails at runtime with no fallback"
            fallback = None

            def execute(self, program, ctx, **kwargs):
                raise HorseRuntimeError("no safety net")

        with EngineSession(make_db()) as session:
            session.backends["deadend"] = DeadEndBackend()
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
            assert counts["query.refused.timeout"] == 1
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
        """A query that sets no limits carries ``limits=None``, and a
        session none of whose queries was refused has no refusal
        counters."""
        with EngineSession(make_db()) as session:
            assert session.context().limits is None
            result = session.run_sql(SQL)
            assert result.num_rows == 1
            snapshot = session.metrics.snapshot()
            assert not any(key.startswith("query.refused.")
                           for key in snapshot)
            assert "query.retries" not in snapshot

    def test_governed_and_ungoverned_results_identical(self):
        db = make_db(rows=10_000, seed=3)
        with EngineSession(db) as session:
            plain = session.run_sql(SQL)
            governed = session.run_sql(SQL, timeout=3600.0,
                                       memory_budget=1 << 30)
            assert plain.column("s").data[0] == \
                governed.column("s").data[0]


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
