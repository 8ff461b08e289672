"""The Figures 6 & 7 story: cross-optimization through method inlining.

Registers the paper's scalar UDF ``calcRevenueChangeScalar`` (written in
MATLAB), embeds it in the example query, and shows:

1. the merged HorseIR module with the UDF as a separate method and
   ``main`` calling it (Fig. 6, the left side of Fig. 7);
2. the optimized module after inlining, where the UDF body sits in
   ``main`` and fusion can span everything (the right side of Fig. 7);
3. the final single fused kernel;
4. timings: baseline (black-box Python UDF) vs HorsePower.

Run:  python examples/udf_inlining_demo.py
"""

import time

import numpy as np

from repro import Database, EngineSession
from repro.core import types as ht
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

    print("Merged HorseIR before inlining, the UDF call opaque "
          "(Figure 6, left side of Figure 7):")
    print(print_module(compiled.module_before_opt))

    print("HorseIR after inlining and optimization "
          "(right side of Figure 7):")
    print(print_module(compiled.program.module))

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
