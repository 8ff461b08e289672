"""Golden optimized IR for the 22 benchmark programs at ``O2``.

The ten TPC-H programs (q1/q6/q12/q14/q19, plain and UDF form), the ten
Black-Scholes queries (bs0/bs1med/bs2high/bs2med/bs3med, scalar and
table UDF) and the two standalone MATLAB functions (Black-Scholes and
Morgan), taken from :mod:`repro.workloads`.  The final module
(``core.printer.print_module``), its statement count and the number of
pass applications that rewrote something must not move when the
optimizer is made faster.  Regenerate with
``PYTHONPATH=src python tests/core/test_optimized_ir.py`` after an
intentional change to what the optimizer produces.
"""

import json
import os

import pytest

from repro.core import ir
from repro.core.printer import print_module
from repro.data.blackscholes import load_blackscholes_table
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.workloads.bs_queries import (SCALAR_QUERIES, TABLE_QUERIES,
                                        register_bs_udfs)
from repro.workloads.matlab_sources import (BLACKSCHOLES_MATLAB,
                                            MORGAN_MATLAB)
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden",
                          "optimized_ir")
STATS_FILE = os.path.join(GOLDEN_DIR, "stats.json")

_BS_VARIANTS = {"bs0": "bs0_base", "bs1med": "bs1_med",
                "bs2high": "bs2_high", "bs2med": "bs2_med",
                "bs3med": "bs3_med"}
_MORGAN_SPECS = [("f64", "scalar"), ("f64", "vector"), ("f64", "vector")]


def _programs() -> dict:
    """name -> ("sql", text) or ("matlab", source, specs)."""
    programs = {}
    for query in ("q1", "q6", "q12", "q14", "q19"):
        programs[query] = ("sql", PLAIN_QUERIES[query])
        programs[query + "_udf"] = ("sql", UDF_QUERIES[query])
    for style, queries in (("s", SCALAR_QUERIES), ("t", TABLE_QUERIES)):
        for short, variant in _BS_VARIANTS.items():
            programs[f"{short}_{style}"] = ("sql", queries[variant])
    programs["m_bs"] = ("matlab", BLACKSCHOLES_MATLAB, None)
    programs["m_morgan"] = ("matlab", MORGAN_MATLAB, _MORGAN_SPECS)
    return programs


PROGRAMS = _programs()


def _session() -> EngineSession:
    # Only the schema and the UDFs shape the optimized IR; tiny tables do.
    db = generate_tpch(0.001)
    load_blackscholes_table(db, 100)
    session = EngineSession(db)
    register_tpch_udfs(session)
    register_bs_udfs(session)
    return session


def _stmts(body) -> int:
    return sum(1 for _ in ir.walk_body(body))


def _optimized(session: EngineSession, name: str):
    """``(printed module, ir_stmts_after, rewrites)`` of one fresh O2
    compile."""
    kind, text, *specs = PROGRAMS[name]
    if kind == "sql":
        program = session.prepare(text, use_cache=False).program
    else:
        program = session.compile_matlab(text, specs[0]).compiled
    module = program.module
    stats = program.report.optimize_stats
    return (print_module(module),
            sum(_stmts(m.body) for m in module.methods.values()),
            sum(p.rewrites for p in stats.pass_stats))


@pytest.fixture(scope="module")
def session():
    with _session() as engine:
        yield engine


@pytest.fixture(scope="module")
def golden_stats():
    with open(STATS_FILE) as handle:
        return json.load(handle)


def test_golden_covers_the_22_programs(golden_stats):
    assert len(PROGRAMS) == 22
    assert sorted(golden_stats) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimized_ir_matches_golden(session, golden_stats, name):
    printed, stmts, rewrites = _optimized(session, name)
    with open(os.path.join(GOLDEN_DIR, name + ".hir")) as handle:
        assert printed == handle.read()
    assert {"ir_stmts_after": stmts, "rewrites": rewrites} == \
        golden_stats[name]


def test_no_statement_reaches_code_generation_declared_unknown(session):
    """Compilation resolves every ``?`` declaration the SQL translator
    and the MATLAB frontend emit; only a list's elements stay ``?``."""
    for name, (kind, text, *specs) in PROGRAMS.items():
        if kind == "sql":
            module = session.prepare(text, use_cache=False).program.module
        else:
            module = session.compile_matlab(text, specs[0]).compiled.module
        unknown = [str(stmt) for method in module.methods.values()
                   for stmt in method.walk_stmts()
                   if isinstance(stmt, ir.Assign)
                   and stmt.type.is_wildcard]
        assert not unknown, (name, unknown)


def _regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    stats = {}
    with _session() as engine:
        for name in sorted(PROGRAMS):
            printed, stmts, rewrites = _optimized(engine, name)
            with open(os.path.join(GOLDEN_DIR, name + ".hir"), "w") as out:
                out.write(printed)
            stats[name] = {"ir_stmts_after": stmts, "rewrites": rewrites}
    with open(STATS_FILE, "w") as out:
        json.dump(stats, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {len(stats)} programs to {GOLDEN_DIR}")


if __name__ == "__main__":
    _regenerate()
