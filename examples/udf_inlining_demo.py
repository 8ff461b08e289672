"""The Figures 6 & 7 story: cross-optimization through method inlining.

Registers the paper's scalar UDF ``calcRevenueChangeScalar`` (written in
MATLAB), embeds it in the example query, and shows:

1. the merged HorseIR module with the UDF as a separate method (Fig. 6);
2. the dependence graph of ``main`` with the call as an opaque node, and
   the graph after inlining where fusion can span everything (Fig. 7),
   both printed as Graphviz;
3. the final single fused kernel;
4. timings: baseline (black-box Python UDF) vs HorsePower.

Run:  python examples/udf_inlining_demo.py
"""

import time

import numpy as np

from repro import Database, EngineSession
from repro.core import types as ht
from repro.core.depgraph import build_depgraph
from repro.core.printer import print_module

MATLAB_UDF = """
function r = calcRevenueChangeScalar(price, discount)
    r = price .* discount;
end
"""


def python_udf(price, discount):
    return price * discount


SQL = """
    SELECT SUM(calcRevenueChangeScalar(l_extendedprice, l_discount))
           AS RevenueChange
    FROM lineitem
    WHERE l_discount >= 0.05
"""


def main() -> None:
    rng = np.random.default_rng(2)
    n = 1_000_000
    db = Database()
    db.create_table("lineitem", {
        "l_extendedprice": rng.uniform(100.0, 10_000.0, n),
        "l_discount": np.round(rng.uniform(0.0, 0.1, n), 2),
    })
    session = EngineSession(db)
    session.register_scalar_udf("calcRevenueChangeScalar", MATLAB_UDF,
                                [ht.F64, ht.F64], ht.F64,
                                python_impl=python_udf)

    compiled = session.compile_sql(SQL)

    print("Merged HorseIR before optimization (compare Figure 6):")
    print(print_module(compiled.module_before_opt))

    main_before = compiled.module_before_opt.methods["main"]
    print("Dependence graph with the UDF call opaque "
          "(left side of Figure 7):")
    print(build_depgraph(main_before.body).to_dot())
    print()

    main_after = compiled.program.module.methods["main"]
    print("Dependence graph after inlining "
          "(right side of Figure 7):")
    print(build_depgraph(main_after.body).to_dot())
    print()

    print("Fused kernel(s) — the whole query is one loop (Figure 3):")
    for source in compiled.kernel_sources:
        print(source)

    # Timings: black-box UDF vs holistic compilation.
    baseline = session.compile_sql(SQL, backend="baseline")

    def best_of(fn, rounds=3):
        fn()
        return min(_timed(fn) for _ in range(rounds))

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    t_mdb = best_of(lambda: baseline.run())
    t_hp = best_of(lambda: compiled.run())
    print(f"MonetDB-like (black-box UDF): {t_mdb * 1000:8.1f} ms")
    print(f"HorsePower (inlined + fused): {t_hp * 1000:8.1f} ms "
          f"({t_mdb / t_hp:.2f}x)")


if __name__ == "__main__":
    main()
