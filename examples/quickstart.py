"""Quickstart: the Figure 2 pipeline end to end.

Runs the paper's example query (simplified TPC-H q6) through HorsePower:
SQL → logical plan → JSON → HorseIR → optimized fused kernel → result —
printing each artifact along the way, including the generated HorseIR
(Figure 2b) and the fused kernel source (the Figure 3 analog).

Run:  python examples/quickstart.py
"""

import json

import numpy as np

from repro import Database, EngineSession
from repro.core.printer import print_module


def main() -> None:
    # 1. A tiny lineitem table.
    rng = np.random.default_rng(1)
    n = 100_000
    db = Database()
    db.create_table("lineitem", {
        "l_extendedprice": rng.uniform(100.0, 10_000.0, n),
        "l_discount": np.round(rng.uniform(0.0, 0.1, n), 2),
    })

    session = EngineSession(db)
    sql = """
        SELECT SUM(l_extendedprice * l_discount) AS RevenueChange
        FROM lineitem
        WHERE l_discount >= 0.05
    """
    print("SQL:")
    print(sql)

    # 2. The logical plan, as the JSON the translator consumes.
    _, plan_json = session.plan_sql(sql)
    print("Logical plan (JSON):")
    print(json.dumps(plan_json, indent=2)[:800])
    print()

    # 3. The HorseIR program (compare the paper's Figure 2b).
    compiled = session.compile_sql(sql)
    print("Generated HorseIR (before optimization):")
    print(print_module(compiled.module_before_opt))

    # 4. The optimized module and its fused kernel (Figure 3 analog).
    print("After optimization:")
    print(print_module(compiled.program.module))
    print("Fused kernel source (predicate + compress + multiply + sum in "
          "one loop):")
    for source in compiled.kernel_sources:
        print(source)

    # 5. Execute, and cross-check against the MonetDB-like baseline —
    #    the same session, a different backend.
    result = compiled.run()
    print("HorsePower result:", result.to_pylist())

    mdb_result = session.run_sql(sql, backend="baseline")
    print("Baseline result:  ",
          float(mdb_result.column("RevenueChange").data[0]))
    print(f"(compile time: {compiled.compile_seconds * 1000:.1f} ms)")


if __name__ == "__main__":
    main()
