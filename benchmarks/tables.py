"""Paper-style table rendering for the four evaluation tables.

Each ``report_tableN(emit)`` runs the measurements and prints rows
matching the paper's layout: execution times in milliseconds with
speedup columns.  Both sides of Tables 2 and 4 are one session's
``compile_sql`` — ``backend="baseline"`` for the MonetDB-like engine —
timed through ``CompiledQuery.run``.  Their HP column runs on the C
backend, whose emitted loops are the only engine with threads; without
gcc it runs on the NumPy kernels and the thread axis is T1 only.
"""

from __future__ import annotations

from benchmarks.harness import (TABLE1_SIZES, bench_scale,
                                compile_matlab, make_bs_session,
                                make_tpch_session, thread_counts,
                                time_callable, time_cold_warm)
from repro.data.blackscholes import calc_option_price, generate_blackscholes
from repro.data.morgan import generate_morgan
from repro.core.codegen.cgen import c_backend_available
from repro.matlang.interp import MatlabInterpreter
from repro.matlang.parser import parse_program
from repro.workloads.bs_queries import (BS_VARIANT_NAMES,
                                        PAPER_SELECTIVITY, SCALAR_QUERIES,
                                        TABLE_QUERIES)
from repro.workloads.matlab_sources import (BLACKSCHOLES_MATLAB,
                                            MORGAN_MATLAB)
from repro.workloads.tpch_queries import TPCH_UDF_QUERY_NAMES, UDF_QUERIES

__all__ = ["report_table1", "report_table2", "report_table3",
           "report_table4", "report_plan_cache"]


def _fmt_ms(seconds: float) -> str:
    millis = seconds * 1000.0
    if millis >= 100:
        return f"{millis:8.0f}"
    if millis >= 1:
        return f"{millis:8.1f}"
    return f"{millis:8.3f}"


def _fmt_speedup(ratio: float) -> str:
    if ratio >= 100:
        return f"{ratio:6.0f}x"
    if ratio >= 10:
        return f"{ratio:6.1f}x"
    return f"{ratio:6.2f}x"


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def report_table1(emit) -> None:
    emit("## Table 1 — HorsePower vs MATLAB-interpreter "
         "(Black-Scholes & Morgan, times in ms)")
    emit()
    native = c_backend_available()
    header = (f"{'workload':14} {'size':>9} {'MATLAB':>9} {'Naive':>9} "
              f"{'SP':>7} {'Opt':>9} {'SP':>7}")
    if native:
        header += f" {'Opt-C':>9} {'SP':>7}"
    emit(header)

    sizes = [int(size * bench_scale()) for size in TABLE1_SIZES]
    configs = [
        ("blackscholes", BLACKSCHOLES_MATLAB, _bs_args, None),
        ("morgan", MORGAN_MATLAB, _morgan_args,
         [("f64", "scalar"), ("f64", "vector"), ("f64", "vector")]),
    ]
    for workload, source, make_args, specs in configs:
        interp = MatlabInterpreter(parse_program(source))
        naive = compile_matlab(source, param_specs=specs,
                               opt_level="naive")
        opt = compile_matlab(source, param_specs=specs, opt_level="opt")
        opt_c = compile_matlab(source, param_specs=specs,
                               opt_level="opt",
                               backend="cgen") if native else None
        for size in sizes:
            args = make_args(size)
            t_matlab = time_callable(lambda: interp.run(*args)).seconds
            t_naive = time_callable(lambda: naive(*args)).seconds
            t_opt = time_callable(lambda: opt(*args)).seconds
            row = (f"{workload:14} {size:>9} {_fmt_ms(t_matlab)} "
                   f"{_fmt_ms(t_naive)} "
                   f"{_fmt_speedup(t_matlab / t_naive)} "
                   f"{_fmt_ms(t_opt)} "
                   f"{_fmt_speedup(t_matlab / t_opt)}")
            if opt_c is not None:
                t_c = time_callable(lambda: opt_c(*args)).seconds
                row += (f" {_fmt_ms(t_c)} "
                        f"{_fmt_speedup(t_matlab / t_c)}")
            emit(row)
    emit()


def _bs_args(size: int):
    data = generate_blackscholes(size)
    return [data[c] for c in ("spotPrice", "strike", "rate",
                              "volatility", "otime", "optionType")]


def _morgan_args(size: int):
    price, volume = generate_morgan(size)
    return [1000.0, price, volume]


def _hp_threads(threads: list[int]) -> tuple[str, list[int]]:
    """The HP column's backend and thread axis: cgen over ``threads``
    when gcc is present, else pygen at one thread."""
    if c_backend_available():
        return "cgen", threads
    return "pygen", [1]


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

def report_table2(emit) -> None:
    emit("## Table 2 — modified TPC-H with UDFs: MonetDB-like vs "
         "HorsePower (times in ms)")
    emit()
    backend, threads_axis = _hp_threads(thread_counts())
    emit(f"HP engine: {backend}")
    header = f"{'threads':>8}"
    for query in TPCH_UDF_QUERY_NAMES:
        header += f" | {query + ' MDB':>9} {query + ' HP':>9} {'SP':>7}"
    emit(header)

    session = make_tpch_session()
    compiled = {query: session.compile_sql(UDF_QUERIES[query],
                                           backend=backend)
                for query in TPCH_UDF_QUERY_NAMES}
    baseline = {query: session.compile_sql(UDF_QUERIES[query],
                                           backend="baseline")
                for query in TPCH_UDF_QUERY_NAMES}

    for threads in threads_axis:
        row = f"T{threads:<7}"
        for query in TPCH_UDF_QUERY_NAMES:
            t_mdb = time_callable(
                lambda q=query: baseline[q].run(
                    n_threads=threads)).seconds
            t_hp = time_callable(
                lambda q=query: compiled[q].run(
                    n_threads=threads)).seconds
            row += (f" | {_fmt_ms(t_mdb)} {_fmt_ms(t_hp)} "
                    f"{_fmt_speedup(t_mdb / t_hp)}")
        emit(row)

    comp = "COMP(ms)"
    for query in TPCH_UDF_QUERY_NAMES:
        comp += f" | {compiled[query].compile_seconds * 1000:27.1f}"
    emit(comp)
    # The per-phase decomposition of COMP (CompileReport split).
    split = "  = opt/gen"
    for query in TPCH_UDF_QUERY_NAMES:
        report = compiled[query].program.report
        split += (f" | {report.optimize_seconds * 1000:15.1f}"
                  f" / {report.codegen_seconds * 1000:8.1f}")
    emit(split)
    emit()


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------

def report_table3(emit) -> None:
    emit("## Table 3 — standalone Black-Scholes, one thread "
         "(times in ms)")
    emit()
    from benchmarks.harness import BLACKSCHOLES_ROWS
    size = int(BLACKSCHOLES_ROWS * bench_scale())
    args = _bs_args(size)
    t_python = time_callable(lambda: calc_option_price(*args)).seconds
    naive = compile_matlab(BLACKSCHOLES_MATLAB, opt_level="naive")
    opt = compile_matlab(BLACKSCHOLES_MATLAB, opt_level="opt")
    t_naive = time_callable(lambda: naive(*args)).seconds
    t_opt = time_callable(lambda: opt(*args)).seconds
    header = (f"{'Python(T1)':>12} {'Naive(T1)':>12} {'SP':>7} "
              f"{'Opt(T1)':>12} {'SP':>7}")
    row = (f"{_fmt_ms(t_python):>12} {_fmt_ms(t_naive):>12} "
           f"{_fmt_speedup(t_python / t_naive)} {_fmt_ms(t_opt):>12} "
           f"{_fmt_speedup(t_python / t_opt)}")
    if c_backend_available():
        opt_c = compile_matlab(BLACKSCHOLES_MATLAB, opt_level="opt",
                               backend="cgen")
        t_c = time_callable(lambda: opt_c(*args)).seconds
        header += f" {'Opt-C(T1)':>12} {'SP':>7}"
        row += (f" {_fmt_ms(t_c):>12} "
                f"{_fmt_speedup(t_python / t_c)}")
    emit(header)
    emit(row)
    emit()


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------

def report_table4(emit) -> None:
    emit("## Table 4 — Black-Scholes SQL variants: MonetDB-like (MDB) vs "
         "HorsePower (HP), times in ms")
    emit()
    backend, threads = _hp_threads(
        sorted({min(thread_counts()), max(thread_counts())}))
    emit(f"HP engine: {backend}")
    session = make_bs_session()

    for style, queries in (("Table UDF", TABLE_QUERIES),
                           ("Scalar UDF", SCALAR_QUERIES)):
        emit(f"### {style}")
        header = f"{'variant':>10} {'selec.':>7}"
        for t in threads:
            header += f" | {'MDB T%d' % t:>9} {'HP T%d' % t:>9} {'SP':>7}"
        header += f" | {'COMP':>7}"
        emit(header)
        for variant in BS_VARIANT_NAMES:
            sql = queries[variant]
            compiled = session.compile_sql(sql, backend=backend)
            baseline = session.compile_sql(sql, backend="baseline")
            row = (f"{variant:>10} "
                   f"{PAPER_SELECTIVITY[variant] * 100:6.1f}%")
            for t in threads:
                t_mdb = time_callable(
                    lambda: baseline.run(n_threads=t)).seconds
                t_hp = time_callable(
                    lambda: compiled.run(n_threads=t)).seconds
                row += (f" | {_fmt_ms(t_mdb)} {_fmt_ms(t_hp)} "
                        f"{_fmt_speedup(t_mdb / t_hp)}")
            row += f" | {compiled.compile_seconds * 1000:6.1f}"
            emit(row)
        emit()


def report_plan_cache(emit) -> None:
    """Cold vs. warm ``run_sql``: the prepared-query cache payoff.

    COLD is the first call (parse -> plan -> optimize -> codegen +
    execution), WARM the median cache-served repeat (execution only);
    SPEEDUP is cold/warm -- the amortized compilation win for repeated
    query traffic.  COMP is the compile share of the cold call.
    """
    emit("## Prepared-query cache -- cold vs warm run_sql "
         "(TPC-H UDF queries)")
    emit()
    session = make_tpch_session()
    emit(f"{'query':>8} | {'COLD ms':>9} {'WARM ms':>9} "
         f"{'COMP ms':>9} {'OPT ms':>9} {'GEN ms':>9} {'SPEEDUP':>8}")
    for query in TPCH_UDF_QUERY_NAMES:
        session.plan_cache.invalidate()
        cw = time_cold_warm(session, UDF_QUERIES[query])
        emit(f"{query:>8} | {_fmt_ms(cw.cold_seconds)} "
             f"{_fmt_ms(cw.warm_seconds)} "
             f"{_fmt_ms(cw.compile_seconds)} "
             f"{_fmt_ms(cw.optimize_seconds)} "
             f"{_fmt_ms(cw.codegen_seconds)} "
             f"{_fmt_speedup(cw.speedup)}")
    stats = session.cache_stats
    emit(f"plan cache: {stats.summary()}")
    emit()
