"""String queries against an independent oracle: stdlib ``sqlite3``.

Every case runs on the four engines (cgen skipped without gcc) at the
naive and optimized levels and is compared with SQLite's answer by the
reference benchmark's row-order-normalising comparator.  The tables are
small, seeded and ASCII; SQLite's ``LIKE`` is made case-sensitive to
match the engine's.  They are built to hit the corner cases of
dictionary-encoded strings: an empty table, a one-row table, an
all-equal column, literals absent from a dictionary, ``IN`` lists with
duplicates, ``LIKE`` patterns holding regex metacharacters, string
ranges, ``ORDER BY`` a string ``DESC`` with ties, grouping on two string
keys, a join on string keys whose dictionaries differ, and per-group
``MIN`` / ``MAX`` of a string.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from benchmarks.layered.check import columns_of, mismatch
from repro import EngineSession
from repro.core import types as ht
from repro.core.codegen.cgen import c_backend_available
from repro.engine.storage import Database

#: ASCII values with SQL and regex metacharacters in them.
WORDS = ["a", "ab", "abc", "a.b", "a(b", "a+b", "axb", "b", "b_c", "bc",
         "B", "MAIL", "SHIP", "x%y", ""]
KEYS = ["a", "ab", "a.b", "b", "zz", "MAIL", "q(r"]

def _tables(seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    n = 120
    return {
        "t": [("id", ht.I64, list(range(n))),
              ("a", ht.STR, [WORDS[i] for i in rng.integers(0, len(WORDS), n)]),
              ("b", ht.STR, [WORDS[i] for i in rng.integers(0, 4, n)]),
              ("same", ht.STR, ["same"] * n),
              ("x", ht.I64, [int(i) for i in rng.integers(0, 50, n)])],
        "u": [("k", ht.STR, [KEYS[i % len(KEYS)] for i in range(20)]),
              ("w", ht.I64, list(range(20)))],
        "e": [("s", ht.STR, []), ("v", ht.I64, [])],
        "one": [("z", ht.STR, ["only"]), ("y", ht.I64, [3])],
    }


CASES = {
    "eq_absent": "SELECT id, a FROM t WHERE a = 'zzz'",
    "neq_absent": "SELECT id FROM t WHERE a <> 'zzz'",
    "eq_present": "SELECT id FROM t WHERE a = 'a.b' OR b = 'ab'",
    "in_duplicates": "SELECT id, a FROM t WHERE a IN ('ab', 'zzz', 'ab', 'a.b')",
    "not_in": "SELECT id FROM t WHERE a NOT IN ('ab', 'b')",
    "like_prefix": "SELECT id FROM t WHERE a LIKE 'a%'",
    "like_underscore": "SELECT id FROM t WHERE a LIKE 'a_b'",
    "like_dot": "SELECT id FROM t WHERE a LIKE '%.%'",
    "like_paren_plus": "SELECT id FROM t WHERE a LIKE 'a(%' OR a LIKE '%+b'",
    "like_percent_data": "SELECT id FROM t WHERE a LIKE 'x%'",
    "range": "SELECT id, a FROM t WHERE a >= 'a.' AND a < 'b'",
    "order_desc_ties": "SELECT a, id FROM t ORDER BY a DESC, id",
    "group_two_keys": ("SELECT a, b, COUNT(*) AS n, SUM(x) AS sx "
                       "FROM t GROUP BY a, b"),
    "group_all_equal": "SELECT same, COUNT(*) AS n FROM t GROUP BY same",
    "where_all_equal": "SELECT id FROM t WHERE same = 'same' AND x < 10",
    "join_string_key": "SELECT id, a, w FROM t JOIN u ON a = k",
    "min_max_string": ("SELECT b, MIN(a) AS lo, MAX(a) AS hi "
                       "FROM t GROUP BY b"),
    "empty_filter": "SELECT s, v FROM e WHERE s = 'x'",
    "empty_group": "SELECT s, COUNT(*) AS n FROM e GROUP BY s",
    "one_row": "SELECT z, y FROM one WHERE z LIKE 'o%' AND z <> 'x'",
    "one_row_group": "SELECT z, MIN(z) AS lo, SUM(y) AS sy FROM one GROUP BY z",
}

ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]


@pytest.fixture(scope="module")
def data():
    tables = _tables()
    db = Database()
    oracle = sqlite3.connect(":memory:")
    oracle.execute("PRAGMA case_sensitive_like = ON")
    for name, columns in tables.items():
        db.create_table(
            name,
            {column: _array(values, type_)
             for column, type_, values in columns},
            {column: type_ for column, type_, _ in columns})
        decl = ", ".join(f"{column} {'TEXT' if type_ is ht.STR else 'INTEGER'}"
                         for column, type_, _ in columns)
        oracle.execute(f"CREATE TABLE {name} ({decl})")
        rows = list(zip(*(values for _, _, values in columns)))
        if rows:
            marks = ", ".join("?" * len(columns))
            oracle.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    session = EngineSession(db)
    yield session, oracle
    session.close()
    oracle.close()


def _array(values, type_):
    if type_ is ht.STR:
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return np.asarray(values, dtype=np.int64)


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
        assert list(columns_of(result)["a"]) == list(want["a"])
