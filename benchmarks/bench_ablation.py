"""Ablation study: isolate each design choice DESIGN.md calls out.

Configurations, all on the Black-Scholes kernel (the evaluation's most
fusion-sensitive workload):

* ``naive``            — no optimization at all (the floor);
* ``opt-nofuse``       — scalar optimizations only, fusion disabled;
* ``opt-nobuffers``    — fusion + chunking, but every fused statement
                         allocates a fresh temporary (no out= buffers);
* ``opt-full``         — the shipped configuration;
* ``opt-chunk-{4k,32k,256k}`` — chunk-size sensitivity;
* plus a UDF-inlining on/off pair on the Figure-6 query.

Run under ``pytest benchmarks/bench_ablation.py --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import bench_scale, compile_matlab
from repro.core import from_numpy
from repro.core.compiler import compile_module
from repro.core.optimizer import optimize
from repro.data.blackscholes import generate_blackscholes
from repro.matlang import matlab_to_module
from repro.workloads.matlab_sources import BLACKSCHOLES_MATLAB

_N = int(400_000 * bench_scale())


def _args():
    data = generate_blackscholes(_N)
    return [data[c] for c in ("spotPrice", "strike", "rate",
                              "volatility", "otime", "optionType")]


def _compile_nofuse():
    """Scalar optimizations, no fusion: optimize the module, then compile
    with segmentation disabled."""
    module = matlab_to_module(BLACKSCHOLES_MATLAB)
    module, _ = optimize(module)
    return compile_module(module, "naive")


def _compile_nobuffers():
    """Full fusion, buffer reuse disabled (ufunc out= suppressed)."""
    from repro.core import builtins as hb
    saved = {}
    for name, builtin in hb.BUILTINS.items():
        if builtin.ufunc is not None:
            saved[name] = builtin.ufunc
            object.__setattr__(builtin, "ufunc", None)
    try:
        program = compile_matlab(BLACKSCHOLES_MATLAB, opt_level="opt")
    finally:
        for name, ufunc in saved.items():
            object.__setattr__(hb.BUILTINS[name], "ufunc", ufunc)
    return program


_CONFIGS = {
    "naive": lambda: compile_matlab(BLACKSCHOLES_MATLAB,
                                    opt_level="naive"),
    "opt-nofuse": _compile_nofuse,
    "opt-nobuffers": _compile_nobuffers,
    "opt-full": lambda: compile_matlab(BLACKSCHOLES_MATLAB,
                                       opt_level="opt"),
}

from repro.core.codegen.cgen import c_backend_available  # noqa: E402

if c_backend_available():
    _CONFIGS["opt-c-native"] = lambda: compile_matlab(
        BLACKSCHOLES_MATLAB, opt_level="opt", backend="cgen")


@pytest.mark.parametrize("config", list(_CONFIGS))
def test_ablation_optimizations(benchmark, config):
    program = _CONFIGS[config]()
    args = _args()
    benchmark.extra_info.update(table="ablation", config=config, size=_N)
    run = getattr(program, "run", None)
    if run is not None:  # CompiledProgram (nofuse path)
        values = [from_numpy(np.asarray(a)) for a in args]
        result = benchmark.pedantic(lambda: program.run(args=values),
                                    rounds=3, iterations=1,
                                    warmup_rounds=1)
    else:
        result = benchmark.pedantic(lambda: program(*args), rounds=3,
                                    iterations=1, warmup_rounds=1)
    assert result is not None


@pytest.mark.parametrize("chunk_exp", [12, 15, 18])
def test_ablation_chunk_size(benchmark, chunk_exp):
    program = compile_matlab(BLACKSCHOLES_MATLAB, opt_level="opt")
    args = _args()
    chunk = 1 << chunk_exp
    benchmark.extra_info.update(table="ablation",
                                config=f"opt-chunk-{chunk}", size=_N)
    result = benchmark.pedantic(
        lambda: program(*args, chunk_size=chunk), rounds=3,
        iterations=1, warmup_rounds=1)
    assert result is not None


_UDF_QUERY = """
    SELECT SUM(calcRevenue(l_extendedprice, l_discount)) AS revenue
    FROM lineitem
    WHERE l_discount >= 0.05
"""

_UDF_MATLAB = """
function r = calcRevenue(price, discount)
    r = price .* discount;
end
"""


@pytest.mark.parametrize("inlining", ["enabled", "disabled"])
def test_ablation_udf_inlining(benchmark, inlining):
    """Cost of keeping the UDF as an opaque method call vs inlining it."""
    from repro.core import types as ht
    from repro.engine import EngineSession
    from repro.engine.storage import Database
    from repro.horsepower.translate import build_query_module
    from repro.core.optimizer.inline import inline_methods

    rng = np.random.default_rng(5)
    n = int(400_000 * bench_scale())
    db = Database()
    db.create_table("lineitem", {
        "l_extendedprice": rng.uniform(100, 10_000, n),
        "l_discount": np.round(rng.uniform(0, 0.1, n), 2),
    })
    session = EngineSession(db)
    session.register_scalar_udf("calcRevenue", _UDF_MATLAB,
                                [ht.F64, ht.F64], ht.F64)
    _, plan_json = session.plan_sql(_UDF_QUERY)
    module = build_query_module(plan_json, session.udfs)
    if inlining == "enabled":
        program = compile_module(module, "opt")
    else:
        # Compile with segmentation but without merging the UDF body:
        # naive-compile keeps the call opaque and materialized.
        program = compile_module(module, "naive")
    tables = db.to_table_values()
    benchmark.extra_info.update(table="ablation",
                                config=f"inlining-{inlining}", size=n)
    result = benchmark.pedantic(lambda: program.run(tables), rounds=3,
                                iterations=1, warmup_rounds=1)
    assert result is not None
