"""Micro-benchmark: the cost of every *disabled* instrument on warm
TPC-H Q6.

Each instrument is off by default and must stay near free.  For each
one this script measures the per-site cost of its disabled form in a
tight loop, counts the sites one Q6 run passes through (by running once
with the instrument on), and bounds ``sites x per-site cost / warm Q6
runtime`` at **<2%**:

* tracer — ``NULL_TRACER.span()`` enter + exit, one per span site;
* allocation profiler — the ``if profile.enabled:`` branch at every
  charge point;
* query limits — the ``if limits is not None:`` branch at every
  cancellation checkpoint (chunk / statement / plan item / optimizer
  pass / baseline plan operator) of a query that set no limits;
* query log — the one ``if query_log is not None:`` branch at the top
  of ``run_sql`` (``query_log = self.query_log``);
* table statistics — ``stats.fingerprint()`` in the plan-cache key plus
  the ``if self.stats.enabled:`` branch after execution, on an empty
  store;
* IR verification — ``PassManager._verify``'s ``if not self.verify:
  return``, once for the input module and once per pass application of
  one cold compile (against the same warm-Q6 denominator).

For reference it also reports the *enabled* tracing runtime, which is
allowed to be slower (it allocates and timestamps real spans).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

Exits non-zero if any disabled overhead exceeds the 2% bar.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.harness import make_tpch_session, time_callable  # noqa: E402
from repro.core.limits import QueryLimits  # noqa: E402
from repro.obs import (NULL_PROFILE, NULL_TRACER, AllocationProfile,  # noqa: E402
                       Tracer)
from repro.workloads.tpch_queries import PLAIN_QUERIES  # noqa: E402

OVERHEAD_BAR = 0.02
_NULL_SPAN_LOOPS = 200_000


def measure_null_span_cost(loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per disabled instrumentation site (span enter+exit)."""
    span = NULL_TRACER.span  # the bound method a hot site pays for
    start = time.perf_counter()
    for _ in range(loops):
        with span("x"):
            pass
    return (time.perf_counter() - start) / loops


def measure_null_profile_cost(loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per disabled profiler site (the ``if profile.enabled:``
    branch every charge point pays when profiling is off)."""
    profile = NULL_PROFILE
    sink = 0
    start = time.perf_counter()
    for _ in range(loops):
        if profile.enabled:
            sink += 1  # pragma: no cover - NULL_PROFILE is disabled
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / loops


def measure_no_limits_cost(loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per checkpoint of a query that set no limits (the ``if
    limits is not None:`` branch every checkpoint site pays when the
    context carries ``limits=None``)."""
    limits = None
    sink = 0
    start = time.perf_counter()
    for _ in range(loops):
        if limits is not None:
            sink += 1  # pragma: no cover - no limits set
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / loops


def measure_disabled_query_log_cost(session,
                                   loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per disabled query-log site (reading
    ``session.query_log`` and the ``is not None`` branch ``run_sql``
    pays once per query when no log is configured)."""
    assert session.query_log is None
    sink = 0
    start = time.perf_counter()
    for _ in range(loops):
        if session.query_log is not None:
            sink += 1  # pragma: no cover - no log configured
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / loops


# ``run_sql`` reads ``self.query_log`` exactly once per query; the later
# checks of the same local are not separate sites.
QUERY_LOG_SITES_PER_QUERY = 1


def measure_disabled_stats_cost(loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per disabled statistics site on an empty
    :class:`~repro.stats.StatsStore`: one ``fingerprint()`` call (the
    plan-cache key component) averaged with one ``if stats.enabled:``
    branch (the est-vs-actual hook), the two sites a warm query pays."""
    from repro.stats import StatsStore

    stats = StatsStore()
    assert not stats.enabled and stats.fingerprint() is None
    sink = 0
    start = time.perf_counter()
    for _ in range(loops):
        stats.fingerprint()
        if stats.enabled:
            sink += 1  # pragma: no cover - store is empty
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / (2 * loops)


# A warm query pays ``stats.fingerprint()`` in ``prepare`` plus the
# ``if self.stats.enabled:`` branch after execution; ``plan_sql`` adds
# a third read on the cold path only.
STATS_SITES_PER_QUERY = 2


def measure_disabled_verify_cost(loops: int = _NULL_SPAN_LOOPS) -> float:
    """Seconds per disabled verification site (the
    ``if not self.verify: return`` call every pass application pays
    when ``--verify-ir`` is off)."""
    from repro.core.passes import PassManager, preset

    manager = PassManager(preset("O2"))
    assert not manager.verify
    check = manager._verify
    start = time.perf_counter()
    for _ in range(loops):
        check("x", None, None)
    return (time.perf_counter() - start) / loops


def count_verify_sites_per_compile(session, sql: str) -> int:
    """Verification call sites one cold Q6 compile passes through
    (counted by wrapping the manager's verify hook)."""
    from repro.core import passes as passes_mod

    counts = [0]
    orig = passes_mod.PassManager._verify

    def counting(self, *args, **kwargs):
        counts[0] += 1
        return orig(self, *args, **kwargs)

    passes_mod.PassManager._verify = counting
    try:
        session.compile_sql(sql)
    finally:
        passes_mod.PassManager._verify = orig
    return counts[0]


def count_checkpoints_per_run(session, sql: str) -> int:
    """Cancellation checkpoints one warm Q6 run with limits passes
    through — measured by setting a deadline far in the future and
    reading ``limits.checks`` back."""
    limits = QueryLimits(timeout=3600.0)
    session.run_sql(sql, ctx=replace(session.context(), limits=limits))
    return limits.checks


def count_spans_per_run(session, sql: str) -> int:
    """Span sites one warm Q6 run passes through."""
    tracer = Tracer()
    session.run_sql(sql, ctx=replace(session.context(), tracer=tracer))
    return len(tracer.all_spans())


def count_charge_sites_per_run(session, sql: str) -> int:
    """Profiler charge events one warm, profiled Q6 run records."""
    profile = AllocationProfile()
    session.run_sql(sql, ctx=replace(session.context(), profile=profile))
    return profile.events


def main() -> int:
    session = make_tpch_session()
    sql = PLAIN_QUERIES["q6"]
    session.run_sql(sql)  # compile + cache: measurements below are warm

    disabled = time_callable(lambda: session.run_sql(sql), warmup=2,
                             rounds=7)
    site_cost = measure_null_span_cost()
    sites = count_spans_per_run(session, sql)

    traced = replace(session.context(), tracer=Tracer())
    enabled = time_callable(lambda: session.run_sql(sql, ctx=traced),
                            warmup=2, rounds=7)

    prof_site_cost = measure_null_profile_cost()
    charge_sites = count_charge_sites_per_run(session, sql)

    limits_site_cost = measure_no_limits_cost()
    checkpoints = count_checkpoints_per_run(session, sql)

    log_site_cost = measure_disabled_query_log_cost(session)

    stats_site_cost = measure_disabled_stats_cost()

    verify_site_cost = measure_disabled_verify_cost()
    verify_sites = count_verify_sites_per_compile(session, sql)

    overhead = sites * site_cost / disabled.seconds
    prof_overhead = charge_sites * prof_site_cost / disabled.seconds
    limits_overhead = checkpoints * limits_site_cost / disabled.seconds
    log_overhead = (QUERY_LOG_SITES_PER_QUERY * log_site_cost
                    / disabled.seconds)
    stats_overhead = (STATS_SITES_PER_QUERY * stats_site_cost
                      / disabled.seconds)
    verify_overhead = (verify_sites * verify_site_cost
                       / disabled.seconds)
    print("# Disabled-tracer overhead on TPC-H Q6 (warm, cached plan)")
    print(f"warm Q6 runtime (tracing off) : {disabled.millis:9.3f} ms")
    print(f"warm Q6 runtime (tracing on)  : {enabled.millis:9.3f} ms")
    print(f"span sites per run            : {sites:9d}")
    print(f"cost per disabled site        : {site_cost * 1e9:9.1f} ns")
    print(f"disabled overhead             : {overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    print()
    print("# Disabled-profiler overhead on TPC-H Q6 (warm, cached plan)")
    print(f"charge sites per profiled run : {charge_sites:9d}")
    print(f"cost per disabled check       : {prof_site_cost * 1e9:9.1f}"
          f" ns")
    print(f"disabled overhead             : {prof_overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    print()
    print("# No-limits checkpoint overhead on TPC-H Q6 (warm, cached "
          "plan)")
    print(f"checkpoints per limited run   : {checkpoints:9d}")
    print(f"cost per disabled check       : {limits_site_cost * 1e9:9.1f}"
          f" ns")
    print(f"disabled overhead             : {limits_overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    print()
    print("# Disabled-query-log overhead on TPC-H Q6 (warm, cached plan)")
    print(f"query-log sites per query     : "
          f"{QUERY_LOG_SITES_PER_QUERY:9d}")
    print(f"cost per disabled check       : {log_site_cost * 1e9:9.1f}"
          f" ns")
    print(f"disabled overhead             : {log_overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    print()
    print("# Disabled-statistics overhead on TPC-H Q6 (warm, cached "
          "plan)")
    print(f"stats sites per query         : "
          f"{STATS_SITES_PER_QUERY:9d}")
    print(f"cost per disabled check       : "
          f"{stats_site_cost * 1e9:9.1f} ns")
    print(f"disabled overhead             : {stats_overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    print()
    print("# Disabled-verifier overhead on TPC-H Q6 (cold compile)")
    print(f"verify sites per cold compile : {verify_sites:9d}")
    print(f"cost per disabled check       : "
          f"{verify_site_cost * 1e9:9.1f} ns")
    print(f"disabled overhead             : {verify_overhead:9.4%} "
          f"(bar: <{OVERHEAD_BAR:.0%})")
    failed = False
    if overhead >= OVERHEAD_BAR:
        print("FAIL: disabled tracing is not near-free")
        failed = True
    if prof_overhead >= OVERHEAD_BAR:
        print("FAIL: disabled profiling is not near-free")
        failed = True
    if limits_overhead >= OVERHEAD_BAR:
        print("FAIL: checkpoints without limits are not near-free")
        failed = True
    if log_overhead >= OVERHEAD_BAR:
        print("FAIL: disabled query log is not near-free")
        failed = True
    if stats_overhead >= OVERHEAD_BAR:
        print("FAIL: disabled statistics are not near-free")
        failed = True
    if verify_overhead >= OVERHEAD_BAR:
        print("FAIL: disabled IR verification is not near-free")
        failed = True
    if failed:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
