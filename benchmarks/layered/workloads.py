"""The four workloads: program lists, data sizes, engine configuration.

A *program* is one SQL query or one standalone MATLAB function; a
workload is a fixed list of programs over seeded data.  ``set_up`` is
the whole of what ``setup_s`` times: data generation, load,
``EngineSession`` creation and UDF registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ``repro`` (and with it NumPy) is imported inside the functions below:
# run.py reads a workload's thread count from this module first and pins
# the BLAS / OpenMP pools before NumPy loads.

TPCH_PROGRAMS = tuple(name + suffix
                      for name in ("q1", "q6", "q12", "q14", "q19")
                      for suffix in ("", "_udf"))

#: Black-Scholes variants by short name: full scan (bs0), 51 % input
#: predicate (bs1med), 0.2 % / 51 % predicate with the price projected
#: away (bs2high / bs2med), 50 % predicate on the computed price (bs3med).
_BS_VARIANTS = {"bs0": "bs0_base", "bs1med": "bs1_med",
                "bs2high": "bs2_high", "bs2med": "bs2_med",
                "bs3med": "bs3_med"}
KERNEL_PROGRAMS = (tuple(f"{short}_{style}" for style in "st"
                         for short in _BS_VARIANTS)
                   + ("m_bs", "m_morgan"))
ALL_PROGRAMS = TPCH_PROGRAMS + KERNEL_PROGRAMS

_BS_COLUMNS = ("spotPrice", "strike", "rate", "volatility", "otime",
               "optionType")
_MORGAN_WINDOW = 1000.0     # the paper sets N = 1000
_MORGAN_SPECS = [("f64", "scalar"), ("f64", "vector"), ("f64", "vector")]

#: Rows / scale factor of the tiny data ``compile_cold`` and ``--smoke``
#: use: large enough that every program returns rows, small enough that
#: execution is a fraction of compilation.
TINY_SF = 0.002
TINY_ROWS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple[str, ...]
    tpch_sf: float          # 0 = no TPC-H tables
    rows: int               # Black-Scholes / Morgan rows, 0 = none
    backend: str
    n_threads: int
    min_rounds: int         # warm runs, and fresh compiles, per program


WORKLOADS = {w.name: w for w in (
    # SF 0.1 (~600 k lineitem rows), not the issue's 0.3: a run sets up
    # three times and the driver makes 92 runs in 3420 s (README).
    Workload("tpch_udf", TPCH_PROGRAMS, 0.1, 0, "pygen", 1, 7),
    Workload("kernels", KERNEL_PROGRAMS, 0, 2_000_000, "pygen", 1, 7),
    Workload("kernels_cgen_t2", KERNEL_PROGRAMS, 0, 2_000_000, "cgen",
             2, 7),
    Workload("compile_cold", ALL_PROGRAMS, TINY_SF, TINY_ROWS, "pygen",
             1, 25),
)}


def smoke(workload: Workload) -> Workload:
    """The same programs and configuration on tiny data."""
    return replace(workload,
                   tpch_sf=TINY_SF if workload.tpch_sf else 0,
                   rows=TINY_ROWS if workload.rows else 0)


@dataclass
class Program:
    name: str
    kind: str                       # "sql" | "matlab"
    text: str                       # SQL text or MATLAB source
    specs: list | None = None       # MATLAB parameter specs
    args: list = field(default_factory=list)    # MATLAB arguments
    reference: object = None        # MATLAB: NumPy reference callable


@dataclass
class Env:
    """One set-up: the database, the session under test, the programs."""

    workload: Workload
    db: object              # repro.engine.storage.Database
    session: object         # repro.engine.EngineSession
    programs: list[Program]


def set_up(workload: Workload, seed: int) -> Env:
    """Everything ``setup_s`` covers.  ``seed`` drives every generator;
    the engine sees only the generated tables and arrays."""
    from repro.data.blackscholes import load_blackscholes_table
    from repro.data.tpch import generate_tpch
    from repro.engine import EngineSession
    from repro.engine.storage import Database
    from repro.workloads.bs_queries import register_bs_udfs
    from repro.workloads.tpch_queries import register_tpch_udfs

    db = Database()
    if workload.tpch_sf:
        generate_tpch(workload.tpch_sf, seed=seed, db=db)
    if workload.rows:
        load_blackscholes_table(db, workload.rows, seed=seed)
    session = EngineSession(db, default_backend=workload.backend)
    if workload.tpch_sf:
        register_tpch_udfs(session)
    if workload.rows:
        register_bs_udfs(session)
    programs = [_program(name, db, workload.rows, seed)
                for name in workload.programs]
    return Env(workload, db, session, programs)


def _program(name: str, db, rows: int, seed: int) -> Program:
    from repro.data.blackscholes import calc_option_price
    from repro.data.morgan import generate_morgan, morgan_reference
    from repro.workloads.bs_queries import SCALAR_QUERIES, TABLE_QUERIES
    from repro.workloads.matlab_sources import BLACKSCHOLES_MATLAB, \
        MORGAN_MATLAB
    from repro.workloads.tpch_queries import PLAIN_QUERIES, UDF_QUERIES

    if name == "m_bs":
        table = db.table("blackScholesData")
        return Program(name, "matlab", BLACKSCHOLES_MATLAB,
                       args=[table.column(c) for c in _BS_COLUMNS],
                       reference=calc_option_price)
    if name == "m_morgan":
        price, volume = generate_morgan(rows, seed=seed)
        return Program(
            name, "matlab", MORGAN_MATLAB, specs=_MORGAN_SPECS,
            args=[_MORGAN_WINDOW, price, volume],
            reference=lambda n, p, v: morgan_reference(int(n), p, v))
    if name.endswith("_udf"):
        return Program(name, "sql", UDF_QUERIES[name[:-len("_udf")]])
    if name in PLAIN_QUERIES:
        return Program(name, "sql", PLAIN_QUERIES[name])
    short, style = name.rsplit("_", 1)
    queries = SCALAR_QUERIES if style == "s" else TABLE_QUERIES
    return Program(name, "sql", queries[_BS_VARIANTS[short]])
