"""MATLAB analytics through the McLab-style pipeline (paper Section 3.2).

Compiles the two Table-1 workloads — Black-Scholes (PARSEC) and Morgan —
from MATLAB source to HorseIR and compares three executions:

* the MATLAB interpreter baseline (tree-walking over NumPy);
* HorsePower-Naive (HorseIR, statement-at-a-time, full materialization);
* HorsePower-Opt (inlined, fused, chunked kernels).

Also prints the intermediate artifacts: the typed TameIR and the HorseIR
module, showing how ``A(I)`` logical indexing becomes ``@compress`` and
``x(a:b)`` becomes a zero-copy ``@subseq``.

Run:  python examples/matlab_analytics.py [size]
"""

import sys
import time

import numpy as np

from repro.core.printer import print_module
from repro.data.blackscholes import calc_option_price, generate_blackscholes
from repro.data.morgan import generate_morgan, morgan_reference
from repro import EngineSession
from repro.matlang import matlab_to_module
from repro.matlang.interp import MatlabInterpreter
from repro.matlang.parser import parse_program
from repro.matlang.tamer import tame_source
from repro.workloads.matlab_sources import (BLACKSCHOLES_MATLAB,
                                            MORGAN_MATLAB)


def best_of(fn, rounds: int = 3) -> float:
    fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000


def show_pipeline_artifacts() -> None:
    source = """
    function y = demo(x, k)
        m = x(x > k);
        y = sum(m .* m);
    end
    """
    print("MATLAB source:")
    print(source)
    print("Typed TameIR (after the Tamer):")
    tamed = tame_source(source, [("f64", "vector"), ("f64", "scalar")])
    for stmt in tamed.entry.body:
        print("   ", stmt)
    print()
    print("HorseIR (logical indexing became @compress):")
    print(print_module(matlab_to_module(
        source, [("f64", "vector"), ("f64", "scalar")])))


def run_blackscholes(size: int) -> None:
    data = generate_blackscholes(size)
    args = [data[c] for c in ("spotPrice", "strike", "rate",
                              "volatility", "otime", "optionType")]
    interp = MatlabInterpreter(parse_program(BLACKSCHOLES_MATLAB))
    session = EngineSession()
    naive = session.compile_matlab(BLACKSCHOLES_MATLAB, opt_level="naive")
    opt = session.compile_matlab(BLACKSCHOLES_MATLAB, opt_level="opt")

    reference = calc_option_price(*args)
    assert np.allclose(np.asarray(opt(*args)), reference)

    t_interp = best_of(lambda: interp.run(*args))
    t_naive = best_of(lambda: naive(*args))
    t_opt = best_of(lambda: opt(*args))
    print(f"Black-Scholes ({size} options)")
    print(f"  MATLAB interpreter : {t_interp:8.1f} ms")
    print(f"  HorsePower-Naive   : {t_naive:8.1f} ms "
          f"({t_interp / t_naive:.2f}x)")
    print(f"  HorsePower-Opt     : {t_opt:8.1f} ms "
          f"({t_interp / t_opt:.2f}x)")
    print(f"  (one fused kernel covers "
          f"{opt.report.fused_statements} statements)")
    print()


def run_morgan(size: int) -> None:
    price, volume = generate_morgan(size)
    specs = [("f64", "scalar"), ("f64", "vector"), ("f64", "vector")]
    interp = MatlabInterpreter(parse_program(MORGAN_MATLAB))
    session = EngineSession()
    naive = session.compile_matlab(MORGAN_MATLAB, param_specs=specs,
                                   opt_level="naive")
    opt = session.compile_matlab(MORGAN_MATLAB, param_specs=specs,
                                 opt_level="opt")

    reference = morgan_reference(1000, price, volume)
    assert np.isclose(float(opt(1000.0, price, volume)), reference)

    t_interp = best_of(lambda: interp.run(1000.0, price, volume))
    t_naive = best_of(lambda: naive(1000.0, price, volume))
    t_opt = best_of(lambda: opt(1000.0, price, volume))
    print(f"Morgan ({size} ticks, window 1000)")
    print(f"  MATLAB interpreter : {t_interp:8.1f} ms")
    print(f"  HorsePower-Naive   : {t_naive:8.1f} ms "
          f"({t_interp / t_naive:.2f}x)")
    print(f"  HorsePower-Opt     : {t_opt:8.1f} ms "
          f"({t_interp / t_opt:.2f}x)")
    print()


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 800_000
    show_pipeline_artifacts()
    run_blackscholes(size)
    run_morgan(size)


if __name__ == "__main__":
    main()
