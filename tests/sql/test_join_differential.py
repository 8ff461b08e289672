"""Joins with random predicates against stdlib ``sqlite3``, and the
metamorphic relations join predicate motion must keep.

Seeded small tables with duplicate keys on both sides, keys without a
partner, an empty table, and an ``i64`` and a ``str`` join key.  Each
case is a random ``and`` / ``or`` / ``not`` tree over atoms that read
the left side, the right side or both, written twice: as plain SQL and
as one registered MATLAB predicate UDF tested ``> 0`` (the Froid shape
whose body the optimizer inlines above the join).  Checks:

* plain form on every engine at the naive and optimized levels against
  SQLite, by the reference benchmark's row-order-normalising comparator;
* ``O2`` against ``O2`` without ``join-predicate-motion``, bit for bit,
  on the HorseIR engines — rows, order and values;
* UDF form against plain form on every engine and level.

No query may reach its answer by the session's fallback chain
(``query.retries`` stays 0), so a kernel that fails on one engine cannot
hide behind the next.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from benchmarks.layered.check import columns_of, mismatch
from repro import EngineSession
from repro.core import types as ht
from repro.core.codegen.cgen import c_backend_available
from repro.core.passes import Pipeline, preset
from repro.engine.storage import Database

WORDS = ["a", "b", "c", "d", "a.b"]

#: (table, column, type) — column names are unique across tables.
SCHEMA = {
    "l": [("id", ht.I64), ("kl", ht.I64), ("sl", ht.STR), ("xl", ht.I64),
          ("wl", ht.STR)],
    "r": [("kr", ht.I64), ("sr", ht.STR), ("zr", ht.I64), ("vr", ht.STR)],
    "e": [("ke", ht.I64), ("se", ht.STR), ("ze", ht.I64), ("ve", ht.STR)],
}
#: ``e`` is ``r`` with no rows (and, names being global, renamed columns).
EMPTY_NAMES = {"kr": "ke", "sr": "se", "zr": "ze", "vr": "ve"}

#: The UDF's parameters: two columns of each side.
UDF_PARAMS = [("xl", ht.I64), ("wl", ht.STR), ("zr", ht.I64),
              ("vr", ht.STR)]

N_CASES = 16


def _tables(seed: int = 11) -> dict:
    rng = np.random.default_rng(seed)

    def words(n):
        return [WORDS[i] for i in rng.integers(0, len(WORDS), n)]

    n_left, n_right = 50, 20
    return {
        # Keys 0..11 on the left, 3..14 on the right: duplicates on both
        # sides and misses in both directions.
        "l": [list(range(n_left)),
              [int(k) for k in rng.integers(0, 12, n_left)],
              words(n_left),
              [int(x) for x in rng.integers(0, 100, n_left)],
              words(n_left)],
        "r": [[int(k) for k in rng.integers(3, 15, n_right)],
              words(n_right),
              [int(z) for z in rng.integers(0, 100, n_right)],
              words(n_right)],
        "e": [[], [], [], []],
    }


# ---------------------------------------------------------------------------
# random predicates, in three spellings: SQL, MATLAB, NumPy
# ---------------------------------------------------------------------------

def _atom(rng) -> tuple[str, str, object]:
    """One comparison as ``(sql, matlab, numpy evaluator)``."""
    kind = rng.integers(0, 6)
    c = int(rng.integers(10, 90))
    w, w2 = (WORDS[i] for i in rng.choice(len(WORDS), 2, replace=False))
    if kind == 0:
        return (f"xl < {c}", f"(xl < {c})", lambda v: v["xl"] < c)
    if kind == 1:
        return (f"zr >= {c}", f"(zr >= {c})", lambda v: v["zr"] >= c)
    if kind == 2:
        return (f"wl = '{w}'", f"strcmp(wl, '{w}')",
                lambda v: v["wl"] == w)
    if kind == 3:
        return (f"vr <> '{w}'", f"(~strcmp(vr, '{w}'))",
                lambda v: v["vr"] != w)
    if kind == 4:
        return (f"wl IN ('{w}', '{w2}')",
                f"(strcmp(wl, '{w}') | strcmp(wl, '{w2}'))",
                lambda v: np.isin(v["wl"], [w, w2]))
    return ("xl < zr", "(xl < zr)", lambda v: v["xl"] < v["zr"])


def _tree(rng, depth: int) -> tuple[str, str, object]:
    # Mostly connectives, so both sides meet under one OR or NOT.
    choice = rng.choice(5, p=[.35, .35, .1, .1, .1]) if depth > 0 else 4
    if choice in (0, 1):
        (ls, lm, lf), (rs, rm, rf) = (_tree(rng, depth - 1),
                                      _tree(rng, depth - 1))
        if choice == 0:
            return (f"({ls} AND {rs})", f"({lm} & {rm})",
                    lambda v: np.logical_and(lf(v), rf(v)))
        return (f"({ls} OR {rs})", f"({lm} | {rm})",
                lambda v: np.logical_or(lf(v), rf(v)))
    if choice == 2:
        s, m, f = _tree(rng, depth - 1)
        return (f"(NOT {s})", f"(~{m})", lambda v: np.logical_not(f(v)))
    return _atom(rng)


def _cases() -> list[dict]:
    rng = np.random.default_rng(2024)
    cases = []
    for index in range(N_CASES):
        sql_pred, matlab_pred, evaluate = _tree(rng, 3)
        key = ("kl = kr", "sl = sr")[index % 2]
        name = f"jp{index}UDF"
        plain = (f"SELECT id, xl, zr, vr FROM l, r "
                 f"WHERE {key} AND {sql_pred}")
        udf = (f"SELECT id, xl, zr, vr FROM l, r "
               f"WHERE {key} AND {name}(xl, wl, zr, vr) > 0")
        right = "r"
        if index == N_CASES - 1:
            right = "e"
            for old, new in EMPTY_NAMES.items():
                plain, udf = plain.replace(old, new), udf.replace(old, new)
            plain = plain.replace(" l, r ", " l, e ")
            udf = udf.replace(" l, r ", " l, e ")
        cases.append({
            "id": f"{index}-{key.split()[0]}-{right}",
            "plain": plain,
            "udf": udf,
            "udf_name": name,
            "matlab": (f"function m = jp{index}(xl, wl, zr, vr)\n"
                       f"    m = 1.0 .* {matlab_pred};\nend\n"),
            "numpy": evaluate,
        })
    return cases


CASES = _cases()
CASE_IDS = [case["id"] for case in CASES]

ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]


def _numpy_udf(evaluate):
    def impl(xl, wl, zr, vr):
        values = {"xl": xl, "wl": wl, "zr": zr, "vr": vr}
        return np.asarray(evaluate(values), dtype=np.float64)
    return impl


@pytest.fixture(scope="module")
def data():
    tables = _tables()
    db = Database()
    oracle = sqlite3.connect(":memory:")
    for name, columns in SCHEMA.items():
        arrays = {}
        for (column, type_), values in zip(columns, tables[name]):
            if type_ is ht.STR:
                arrays[column] = np.empty(len(values), dtype=object)
                arrays[column][:] = values
            else:
                arrays[column] = np.asarray(values, dtype=np.int64)
        db.create_table(name, arrays, dict(columns))
        decl = ", ".join(
            f"{column} {'TEXT' if type_ is ht.STR else 'INTEGER'}"
            for column, type_ in columns)
        oracle.execute(f"CREATE TABLE {name} ({decl})")
        rows = list(zip(*tables[name]))
        if rows:
            marks = ", ".join("?" * len(columns))
            oracle.executemany(f"INSERT INTO {name} VALUES ({marks})",
                               rows)
    session = EngineSession(db)
    for case in CASES:
        session.register_scalar_udf(
            case["udf_name"], case["matlab"],
            [type_ for _, type_ in UDF_PARAMS], ht.F64,
            python_impl=_numpy_udf(case["numpy"]))
    yield session, oracle
    assert session.metrics.counter("query.retries").value == 0
    session.close()
    oracle.close()


def _oracle(oracle, sql: str) -> dict:
    cursor = oracle.execute(sql)
    names = [d[0] for d in cursor.description]
    rows = cursor.fetchall()
    columns = {}
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        if name in ("vr", "ve"):
            columns[name] = np.empty(len(values), dtype=object)
            columns[name][:] = values
        else:
            columns[name] = np.asarray(values, dtype=np.int64)
    return columns


def _exact(result) -> list:
    return [(name, array.tolist())
            for name, array in columns_of(result).items()]


@pytest.mark.parametrize("opt_level", ["naive", "opt"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_plain_and_udf_forms_match_sqlite(data, case, engine, opt_level):
    session, oracle = data
    want = _oracle(oracle, case["plain"])
    plain = session.run_sql(case["plain"], backend=engine,
                            opt_level=opt_level)
    assert mismatch(plain, want) is None, mismatch(plain, want)
    udf = session.run_sql(case["udf"], backend=engine, opt_level=opt_level)
    assert mismatch(udf, want) is None, mismatch(udf, want)


WITHOUT_MOTION = Pipeline(
    "O2-without-join-predicate-motion",
    [e for e in preset("O2").passes if e[0] != "join-predicate-motion"])


@pytest.mark.parametrize("engine", ["interp", "pygen", pytest.param(
    "cgen", marks=pytest.mark.skipif(not c_backend_available(),
                                     reason="gcc not on PATH"))])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_motion_is_bit_identical(data, case, engine):
    session, _ = data
    for form in ("plain", "udf"):
        moved = session.run_sql(case[form], backend=engine)
        kept = session.run_sql(case[form], backend=engine,
                               pipeline=WITHOUT_MOTION)
        assert _exact(moved) == _exact(kept)


def test_motion_fires_on_most_udf_cases(data):
    """The relations above must exercise the pass, not skip it."""
    session, _ = data
    fired = 0
    for case in CASES:
        stats = session.compile_sql(case["udf"]).report.optimize_stats
        rewrites = {ps.name: ps.rewrites for ps in stats.pass_stats}
        fired += rewrites["join-predicate-motion"] > 0
    assert fired >= N_CASES // 2, fired
