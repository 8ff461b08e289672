"""Shared benchmark infrastructure.

Scaling: the paper's testbed is a 40-core Xeon with SF-1 TPC-H (≈6 M
lineitem rows) and 1M–8M element arrays.  Benchmarks here default to a
laptop/CI-friendly scale and honour two environment variables:

* ``REPRO_BENCH_SCALE`` — multiplier on every workload size (default 1.0;
  10 approximates the paper's sizes);
* ``REPRO_BENCH_THREADS`` — comma-separated thread counts for the sweep
  columns (default ``1,2,4``; the paper uses up to 64).

``benchmarks/report.py`` prints the paper-style tables
(``benchmarks/tables.py``) built on these helpers.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.blackscholes import load_blackscholes_table
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.obs import Tracer, chrome_trace_json
from repro.workloads.bs_queries import register_bs_udfs
from repro.workloads.tpch_queries import register_tpch_udfs

__all__ = ["bench_scale", "thread_counts", "make_tpch_session",
           "make_bs_session", "time_callable", "Timed",
           "time_cold_warm", "ColdWarm", "trace_dir", "bench_session",
           "compile_matlab", "dump_bench_trace"]


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def trace_dir() -> str | None:
    """When ``REPRO_BENCH_TRACE`` names a directory, every benchmark run
    records spans and the tables dump one Chrome trace per section."""
    return os.environ.get("REPRO_BENCH_TRACE") or None


def bench_session() -> EngineSession:
    """The benchmark process's one instrumented session.  Its registry
    — and its tracer, a real one when the ``REPRO_BENCH_TRACE``
    directory flag is set — are handed to every session the harness
    builds, so all spans and counters land in the one trace /
    ``--metrics-json`` file ``report.py`` writes per run."""
    if "session" not in _CACHE:
        _CACHE["session"] = EngineSession(
            tracer=Tracer() if trace_dir() else None)
    return _CACHE["session"]


def compile_matlab(source: str, param_specs=None, opt_level: str = "opt",
                   backend: str = "pygen"):
    """:func:`repro.matlang.compile_matlab` on :func:`bench_session`,
    so the standalone-MATLAB tables (1 and 3) show up in
    ``--trace-dir`` / ``--metrics-json`` like the SQL ones."""
    return bench_session().compile_matlab(
        source, param_specs, opt_level=opt_level, backend=backend)


def dump_bench_trace(name: str) -> str | None:
    """Write the spans recorded since the last dump to
    ``$REPRO_BENCH_TRACE/<name>.trace.json`` and clear the tracer."""
    tracer = bench_session().tracer
    if not tracer.enabled:
        return None
    directory = trace_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.trace.json")
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(tracer.roots))
    tracer.reset()
    return path


def _default_threads() -> str:
    cpus = os.cpu_count() or 1
    counts = [1]
    while counts[-1] * 2 <= cpus:
        counts.append(counts[-1] * 2)
    return ",".join(str(c) for c in counts)


def thread_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_THREADS", _default_threads())
    return [int(part) for part in raw.split(",") if part.strip()]


# Workload sizes at scale 1.0 (paper scale ≈ 10x these).
TABLE1_SIZES = [100_000, 200_000, 400_000, 800_000]
TPCH_SCALE_FACTOR = 0.02          # lineitem ≈ 120k rows
BLACKSCHOLES_ROWS = 400_000

_CACHE: dict = {}


def _make_session(db) -> EngineSession:
    """A session over ``db`` reporting into the harness session's
    tracer and registry; the tables reach the MonetDB-like engine
    through it as ``backend="baseline"``."""
    shared = bench_session()
    return EngineSession(db, tracer=shared.tracer,
                         metrics=shared.metrics)


def make_tpch_session() -> EngineSession:
    """Module-cached TPC-H database + session with UDFs registered."""
    key = ("tpch", bench_scale())
    if key not in _CACHE:
        session = _make_session(generate_tpch(
            scale_factor=TPCH_SCALE_FACTOR * bench_scale()))
        register_tpch_udfs(session)
        _CACHE[key] = session
    return _CACHE[key]


def make_bs_session() -> EngineSession:
    key = ("bs", bench_scale())
    if key not in _CACHE:
        db = Database()
        load_blackscholes_table(db, int(BLACKSCHOLES_ROWS
                                        * bench_scale()))
        session = _make_session(db)
        register_bs_udfs(session)
        _CACHE[key] = session
    return _CACHE[key]


class Timed:
    """Result of :func:`time_callable`: best-of-N wall time + the value."""

    def __init__(self, seconds: float, value):
        self.seconds = seconds
        self.value = value

    @property
    def millis(self) -> float:
        return self.seconds * 1000.0


def time_callable(fn, *, warmup: int = 1, rounds: int = 3) -> Timed:
    """Median-of-``rounds`` timing after ``warmup`` calls (the paper
    averages steady-state runs after warm-up)."""
    value = None
    for _ in range(warmup):
        value = fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return Timed(float(np.median(times)), value)


class ColdWarm:
    """Cold (first, compiling) vs warm (cache-served) ``run_sql`` cost.

    ``speedup`` is the prepared-query payoff: how much of the cold call
    was compilation that the :class:`~repro.horsepower.cache.PlanCache`
    amortizes away on repeat traffic.
    """

    def __init__(self, cold_seconds: float, warm_seconds: float,
                 compile_seconds: float,
                 optimize_seconds: float = 0.0,
                 codegen_seconds: float = 0.0):
        self.cold_seconds = cold_seconds
        self.warm_seconds = warm_seconds
        self.compile_seconds = compile_seconds
        #: The per-phase decomposition of ``compile_seconds`` (COMP =
        #: optimize + codegen; see ``CompileReport``).
        self.optimize_seconds = optimize_seconds
        self.codegen_seconds = codegen_seconds

    @property
    def speedup(self) -> float:
        return (self.cold_seconds / self.warm_seconds
                if self.warm_seconds > 0 else float("inf"))


def time_cold_warm(session: EngineSession, sql: str, *,
                   n_threads: int = 1, warm_rounds: int = 3) -> ColdWarm:
    """Measure one cold ``run_sql`` (fresh cache entry: full
    parse→plan→optimize→codegen) and the median warm repeat (plan-cache
    hit: execution only)."""
    start = time.perf_counter()
    prepared = session.prepare(sql)
    prepared.run(n_threads=n_threads)
    cold = time.perf_counter() - start
    if prepared.cached:
        # The entry pre-dated this call: measuring a warmed query as
        # "cold" would understate the compile cost, so fail loudly.
        raise RuntimeError(f"query already cached; cold timing is "
                           f"meaningless: {sql!r}")
    warm = time_callable(
        lambda: session.run_sql(sql, n_threads=n_threads),
        warmup=1, rounds=warm_rounds)
    report = prepared.program.report
    return ColdWarm(cold, warm.seconds, prepared.compile_seconds,
                    optimize_seconds=report.optimize_seconds,
                    codegen_seconds=report.codegen_seconds)
