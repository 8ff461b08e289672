"""Concurrent-session stress: sessions running on threads must behave
exactly as when run serially — bit-identical results, per-session
metrics, per-session traces, no bleed through any shared state.

This is the acceptance test for the session refactor: every piece of
runtime state a query touches (plan cache, metrics registry, tracer,
UDF registry) is owned by its ``EngineSession``, so
K sessions over distinct catalogs can interleave freely on threads.
"""

import sys
import threading

import numpy as np
import pytest

from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.obs import AllocationProfile, MetricsRegistry, Tracer

N_SESSIONS = 4
N_QUERIES = 8


def make_catalog(seed: int) -> Database:
    """A per-session catalog: same schema, session-specific contents."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("t", {
        "x": rng.integers(0, 1000, size=500).astype(np.float64),
        "y": rng.integers(1, 100, size=500).astype(np.float64),
        "k": rng.integers(0, 5, size=500),
    })
    return db


def queries(seed: int) -> list[str]:
    """M distinct queries; thresholds depend on the session seed so no
    two sessions compile an identical (sql, catalog) pair."""
    base = [
        "SELECT SUM(x) AS v FROM t",
        "SELECT SUM(x * y) AS v FROM t",
        f"SELECT SUM(x + y) AS v FROM t WHERE x > {seed * 10}",
        f"SELECT COUNT(*) AS v FROM t WHERE y < {50 + seed}",
        "SELECT MIN(x) AS v FROM t",
        "SELECT MAX(x * x) AS v FROM t",
        f"SELECT SUM(y) AS v FROM t WHERE k = {seed % 5}",
        "SELECT AVG(x) AS v FROM t",
    ]
    assert len(base) == N_QUERIES
    return base


def run_plan(session: EngineSession, seed: int) -> list[float]:
    """One session's workload: every query twice (second run is a cache
    hit), at ``n_threads=2``, results collected in order."""
    out = []
    for sql in queries(seed):
        for _ in range(2):
            result = session.run_sql(sql, n_threads=2)
            out.append(float(result.column("v").data[0]))
    return out


class TestConcurrentSessions:
    def test_threaded_sessions_match_serial_bit_for_bit(self):
        # Serial reference: fresh sessions, one after another.
        serial = {}
        for seed in range(N_SESSIONS):
            with EngineSession(make_catalog(seed)) as session:
                serial[seed] = run_plan(session, seed)

        # Threaded run: one session per thread, started together.
        sessions = {seed: EngineSession(make_catalog(seed),
                                        tracer=Tracer())
                    for seed in range(N_SESSIONS)}
        threaded = {}
        errors = []
        barrier = threading.Barrier(N_SESSIONS)

        def work(seed):
            try:
                barrier.wait()
                threaded[seed] = run_plan(sessions[seed], seed)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((seed, exc))

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        # Bit-identical to the serial reference, session by session.
        for seed in range(N_SESSIONS):
            assert threaded[seed] == serial[seed], seed

        # Per-session metrics did not bleed: each session saw exactly
        # its own queries, cache hits, and compiles.
        for seed, session in sessions.items():
            counts = session.metrics.snapshot()
            assert counts["query.count"] == N_QUERIES * 2
            assert counts["plan_cache.hits"] == N_QUERIES
            assert counts["plan_cache.misses"] == N_QUERIES
            assert counts["compile.count"] == N_QUERIES
            assert session.cache_stats.hits == N_QUERIES
            assert len(session.plan_cache) == N_QUERIES

        # Per-session traces did not bleed: each tracer holds exactly
        # this session's query roots, all of them complete.
        for seed, session in sessions.items():
            roots = session.tracer.roots
            assert len(roots) == N_QUERIES * 2
            assert all(root.name == "query" for root in roots)
            assert all(root.end >= root.start > 0 for root in roots)

        for session in sessions.values():
            session.close()

    def test_allocation_profiles_stay_isolated_across_sessions(self):
        """Each session's AllocationProfile charges exactly that
        session's queries: the threaded byte totals match a serial
        reference bit for bit, and the shared NULL_PROFILE stays
        untouched."""
        from repro.obs import NULL_PROFILE

        def profile_of(seed: int, serial: bool) -> AllocationProfile:
            profile = AllocationProfile()
            with EngineSession(make_catalog(seed),
                               profile=profile) as session:
                run_plan(session, seed)
            return profile

        serial = {seed: profile_of(seed, True)
                  for seed in range(N_SESSIONS)}

        profiles = {seed: AllocationProfile()
                    for seed in range(N_SESSIONS)}
        sessions = {seed: EngineSession(make_catalog(seed),
                                        profile=profiles[seed])
                    for seed in range(N_SESSIONS)}
        errors = []
        barrier = threading.Barrier(N_SESSIONS)

        def work(seed):
            try:
                barrier.wait()
                run_plan(sessions[seed], seed)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((seed, exc))

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        for seed in range(N_SESSIONS):
            threaded, reference = profiles[seed], serial[seed]
            assert threaded.bytes_allocated > 0
            assert threaded.bytes_allocated == reference.bytes_allocated
            assert (threaded.intermediates_materialized
                    == reference.intermediates_materialized)
            assert threaded.peak_bytes == reference.peak_bytes
            assert threaded.sites == reference.sites
            # prof.* metrics landed in the owning session's registry.
            counts = sessions[seed].metrics.snapshot()
            assert (counts["prof.bytes_allocated"]
                    == threaded.bytes_allocated)

        # The null object every unprofiled context carries never saw
        # any of it.
        assert NULL_PROFILE.bytes_allocated == 0

        for session in sessions.values():
            session.close()

    def test_one_session_shared_by_worker_threads_is_rejected_nowhere(
            self):
        """Distinct sessions are the isolation unit; this sanity check
        just confirms sequential reuse of one session from several
        threads (non-overlapping) stays correct."""
        with EngineSession(make_catalog(0)) as session:
            lock = threading.Lock()
            values = []

            def work():
                with lock:  # serialized: sessions are not thread-safe
                    result = session.run_sql(
                        "SELECT SUM(x) AS v FROM t")
                    values.append(float(result.column("v").data[0]))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(set(values)) == 1
        assert session.metrics.counter("query.count").value == 4


class TestConcurrentEngines:
    def test_two_engines_trace_concurrently_without_bleed(self):
        """A default (pygen) session and a ``default_backend="baseline"``
        session over the same database, each handed its own tracer and
        registry, run at the same time; each tracer and registry sees
        its own session's queries only — which a tracer installed
        process-wide could not promise."""
        db = make_catalog(0)
        rounds = 6
        hp_tracer, mdb_tracer = Tracer(), Tracer()
        hp_metrics, mdb_metrics = MetricsRegistry(), MetricsRegistry()
        hp = EngineSession(db, tracer=hp_tracer, metrics=hp_metrics)
        mdb = EngineSession(db, tracer=mdb_tracer, metrics=mdb_metrics,
                            default_backend="baseline")
        errors = []
        barrier = threading.Barrier(2)

        def work(system):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    for sql in queries(0):
                        system.run_sql(sql)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((type(system).__name__, exc))

        threads = [threading.Thread(target=work, args=(system,))
                   for system in (hp, mdb)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two aggressively
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        expected = rounds * N_QUERIES
        for tracer, backend in ((hp_tracer, "pygen"),
                                (mdb_tracer, "baseline")):
            assert len(tracer.roots) == expected
            assert {root.attrs["backend"]
                    for root in tracer.roots} == {backend}
        hp_counts = hp_metrics.snapshot()
        mdb_counts = mdb_metrics.snapshot()
        assert hp_counts["query.count"] == expected
        assert mdb_counts["query.count"] == expected
        assert "exec.operators" not in hp_counts
        assert "compile.count" not in mdb_counts

    def test_sessions_share_counters_only_through_a_shared_registry(self):
        """Side-by-side counters are opt-in: two sessions handed the
        same registry count into it; a third, handed none, keeps its
        own."""
        db = make_catalog(0)
        shared = MetricsRegistry()
        hp = EngineSession(db, metrics=shared)
        mdb = EngineSession(db, metrics=shared, default_backend="baseline")
        alone = EngineSession(db)
        sql = queries(0)[0]
        for system in (hp, mdb, alone):
            system.run_sql(sql)

        assert hp.metrics is mdb.metrics is shared
        counts = shared.snapshot()
        assert counts["query.count"] == 2
        assert counts["exec.operators"] > 0 and counts["compile.count"] == 1
        assert alone.metrics is not shared
        assert alone.metrics.snapshot()["query.count"] == 1
