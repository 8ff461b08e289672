"""GROUP BY ``AVG`` against an independent oracle: stdlib ``sqlite3``.

The translator lowers a grouped ``AVG(x)`` to ``@group_sum`` over
``@group_count`` and leaves CSE to share both with the query's own
``SUM(x)`` and ``COUNT(*)``; the baseline divides the same two builtins.
Every case runs on the four engines (cgen skipped without gcc) at the
naive and optimized levels and is compared with SQLite's answer by the
reference benchmark's row-order-normalising comparator.  The float
column holds quarters, so every sum is exact and an ``ORDER BY`` an
average sees the oracle's order.  Cases: ``AVG`` beside ``SUM`` and
``COUNT(*)`` of the same column, ``AVG`` alone, ``AVG`` of an integer
column, a string key plus an integer key, one group, an empty table,
``HAVING`` on an ``AVG``, ``ORDER BY`` an ``AVG``, and ``SUM`` beside
``AVG`` of one integer column, which share one ``@group_sum``.

An integer ``SUM`` is an exact ``i64``, as SQLite's is: a group holding
2**53 + 1 and 2 sums to 9007199254740995, compared exactly (a float64
accumulator would round it to ...994).

No query may reach its answer by the session's fallback chain
(``query.retries`` stays 0).
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from benchmarks.layered.check import columns_of, mismatch
from repro import EngineSession
from repro.core import ir
from repro.core import types as ht
from repro.core.codegen.cgen import c_backend_available
from repro.engine.storage import Database

WORDS = ["a", "bb", "c.c", "MAIL", "SHIP"]

#: (table, column, type) — column names are unique across tables.
SCHEMA = {
    "t": [("s", ht.STR), ("k", ht.I64), ("x", ht.F64), ("n", ht.I64),
          ("same", ht.STR)],
    "e": [("es", ht.STR), ("ex", ht.F64)],
    "w": [("wg", ht.I64), ("wv", ht.I64)],
}


def _tables(seed: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    rows = 200
    return {
        "t": [[WORDS[i] for i in rng.integers(0, len(WORDS), rows)],
              [int(k) for k in rng.integers(0, 7, rows)],
              [float(q) / 4 for q in rng.integers(-400, 4000, rows)],
              [int(v) for v in rng.integers(-50, 1000, rows)],
              ["one"] * rows],
        "e": [[], []],
        "w": [[1, 1, 2], [2**53 + 1, 2, 5]],
    }


CASES = {
    "avg_sum_count": ("SELECT s, AVG(x) AS ax, SUM(x) AS sx, "
                      "COUNT(*) AS c FROM t GROUP BY s"),
    "avg_alone": "SELECT s, AVG(x) AS ax FROM t GROUP BY s",
    "avg_integer": "SELECT k, AVG(n) AS an FROM t GROUP BY k",
    "string_and_int_keys": ("SELECT s, k, AVG(x) AS ax, AVG(n) AS an "
                            "FROM t GROUP BY s, k"),
    "one_group": ("SELECT same, AVG(x) AS ax, COUNT(*) AS c "
                  "FROM t GROUP BY same"),
    "empty_table": "SELECT es, AVG(ex) AS ax FROM e GROUP BY es",
    "having_avg": ("SELECT s, AVG(x) AS ax FROM t GROUP BY s "
                   "HAVING AVG(x) > 440"),
    "order_by_avg": ("SELECT k, AVG(x) AS ax FROM t GROUP BY k "
                     "ORDER BY ax DESC"),
    "sum_avg_integer": ("SELECT k, SUM(n) AS sn, AVG(n) AS an "
                        "FROM t GROUP BY k"),
}

EXACT_SUM = "SELECT wg, SUM(wv) AS sv FROM w GROUP BY wg"

ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]

SQL_TYPES = {ht.STR: "TEXT", ht.I64: "INTEGER", ht.F64: "REAL"}


@pytest.fixture(scope="module")
def data():
    tables = _tables()
    db = Database()
    oracle = sqlite3.connect(":memory:")
    for name, columns in SCHEMA.items():
        db.create_table(
            name,
            {column: _array(values, type_)
             for (column, type_), values in zip(columns, tables[name])},
            dict(columns))
        decl = ", ".join(f"{column} {SQL_TYPES[type_]}"
                         for column, type_ in columns)
        oracle.execute(f"CREATE TABLE {name} ({decl})")
        rows = list(zip(*tables[name]))
        if rows:
            marks = ", ".join("?" * len(columns))
            oracle.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    session = EngineSession(db)
    yield session, oracle
    assert session.metrics.counter("query.retries").value == 0
    session.close()
    oracle.close()


def _array(values, type_):
    if type_ is ht.STR:
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return np.asarray(values, dtype=ht.numpy_dtype(type_))


def _oracle(oracle, sql: str) -> dict:
    cursor = oracle.execute(sql)
    names = [d[0] for d in cursor.description]
    rows = cursor.fetchall()
    columns = {}
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        if values and isinstance(values[0], str):
            columns[name] = _array(values, ht.STR)
        else:
            columns[name] = np.asarray(values)
    return columns


def test_having_keeps_some_groups(data):
    """The ``HAVING`` case must filter, not pass every group or none."""
    _, oracle = data
    kept = len(_oracle(oracle, CASES["having_avg"])["s"])
    assert 0 < kept < len(WORDS), kept


@pytest.mark.parametrize("opt_level", ["naive", "opt"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_sqlite(data, case, engine, opt_level):
    session, oracle = data
    sql = CASES[case]
    result = session.run_sql(sql, backend=engine, opt_level=opt_level)
    want = _oracle(oracle, sql)
    assert mismatch(result, want) is None, mismatch(result, want)
    if "ORDER BY" in sql:
        # The comparator forgives row order; the sort key must not.
        assert list(columns_of(result)["k"]) == list(want["k"])


@pytest.mark.parametrize("opt_level", ["naive", "opt"])
@pytest.mark.parametrize("engine", ENGINES)
def test_integer_sum_is_exact(data, engine, opt_level):
    session, oracle = data
    result = columns_of(session.run_sql(EXACT_SUM, backend=engine,
                                        opt_level=opt_level))
    want = _oracle(oracle, EXACT_SUM)
    assert want["sv"].tolist() == [2**53 + 3, 5]
    order = np.argsort(result["wg"])
    assert result["sv"].dtype == np.int64
    assert result["sv"][order].tolist() == want["sv"].tolist()


def test_sum_and_avg_of_an_integer_share_one_group_sum(data):
    session, _ = data
    module = session.prepare(CASES["sum_avg_integer"],
                             use_cache=False).program.module
    sums = [stmt for stmt in ir.walk_body(module.entry.body)
            if isinstance(stmt, ir.Assign)
            and isinstance(stmt.expr, ir.BuiltinCall)
            and stmt.expr.name == "group_sum"]
    assert [stmt.type for stmt in sums] == [ht.I64]
