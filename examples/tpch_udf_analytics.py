"""Advanced analytics over TPC-H: SQL + MATLAB UDFs on both engines.

Generates TPC-H data, registers the Froid-style UDFs, and runs the
modified q6 and q12 on the MonetDB-like baseline and on HorsePower,
showing why the baseline collapses when a UDF sits in the WHERE clause
over date/string columns (per-element conversion through the black-box
bridge, Tables 2's q6/q12 story) while HorsePower compiles the UDF into
the query.

Run:  python examples/tpch_udf_analytics.py [scale_factor]
"""

import sys
import time

from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.workloads.tpch_queries import UDF_QUERIES, register_tpch_udfs


def best_of(fn, rounds: int = 3) -> float:
    fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02
    print(f"Generating TPC-H at SF {scale} ...")
    db = generate_tpch(scale_factor=scale)
    print(f"  lineitem: {db.table('lineitem').num_rows} rows")

    session = EngineSession(db)
    register_tpch_udfs(session)
    bridge = session.baseline_executor().bridge

    for name in ("q6", "q12"):
        sql = UDF_QUERIES[name]
        print(f"\n=== modified {name} "
              f"(UDF in the WHERE clause) ===")
        print(sql)

        compiled = session.compile_sql(sql)
        baseline = session.compile_sql(sql, backend="baseline")

        bridge.calls = 0
        bridge.values_converted_in = 0
        t_mdb = best_of(lambda: baseline.run())
        t_hp = best_of(lambda: compiled.run())

        print(f"MonetDB-like : {t_mdb:9.1f} ms   "
              f"(bridge calls: {bridge.calls}, values converted "
              f"per run: {bridge.values_converted_in // 4})")
        print(f"HorsePower   : {t_hp:9.1f} ms   "
              f"(UDF inlined; {compiled.program.report.fused_segments} "
              f"fused kernels; compile "
              f"{compiled.compile_seconds * 1000:.1f} ms)")
        print(f"speedup      : {t_mdb / t_hp:9.2f}x")

        hp_result = compiled.run()
        mdb_result = baseline.run()
        print("results match:",
              hp_result.num_rows == mdb_result.num_rows)


if __name__ == "__main__":
    main()
