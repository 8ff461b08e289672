"""A NULL date (NaT) compares false under every operator but ``<>``, on
every engine.

pygen and cgen compare dates as int64 day numbers, where NaT is the
int64 minimum and so sorts below every date; their guards must restore
NumPy's rule.  Each of the six operators runs with a literal on either
side and with two columns, over rows that put NaT on the left, on the
right and on both sides.  The selected row ids must equal NumPy's
``datetime64`` answer bit for bit on interp, pygen, cgen and the
baseline, with no fallback retry, and cgen's kernels must run as C.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import EngineSession
from repro.core import types as ht
from repro.core.codegen.cgen import c_backend_available
from repro.engine.storage import Database
from repro.obs import Tracer

NAT = "NaT"
#: (d, e) per row: NaT on either side, on both, equal and ordered dates.
ROWS = [
    ("1999-01-01", "2000-01-01"),
    (NAT, "2000-01-01"),
    ("2001-01-01", NAT),
    (NAT, NAT),
    ("2000-01-01", "2000-01-01"),
    ("2002-06-30", "2000-01-01"),
    ("2000-01-01", NAT),
    (NAT, "1999-12-31"),
]
LITERAL = "2000-01-01"

OPERATORS = {
    "<": np.less, "<=": np.less_equal, ">": np.greater,
    ">=": np.greater_equal, "=": np.equal, "<>": np.not_equal,
}
#: operand spellings: SQL, and the NumPy operands it reads.
SHAPES = {
    "column-literal": ("d {op} DATE '%s'" % LITERAL, ("d", "literal")),
    "literal-column": ("DATE '%s' {op} e" % LITERAL, ("literal", "e")),
    "column-column": ("d {op} e", ("d", "e")),
}

ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]


def _columns() -> dict[str, np.ndarray]:
    return {
        "id": np.arange(len(ROWS), dtype=np.int64),
        "d": np.array([d for d, _ in ROWS], dtype="datetime64[D]"),
        "e": np.array([e for _, e in ROWS], dtype="datetime64[D]"),
        "literal": np.datetime64(LITERAL, "D"),
    }


def _database() -> Database:
    columns = _columns()
    db = Database()
    db.create_table("t", {name: columns[name] for name in ("id", "d", "e")},
                    {"id": ht.I64, "d": ht.DATE, "e": ht.DATE})
    return db


@pytest.fixture(scope="module")
def session():
    session = EngineSession(_database())
    yield session
    assert session.metrics.counter("query.retries").value == 0
    session.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_null_dates_compare_like_numpy(session, op, shape, engine):
    predicate, (left, right) = SHAPES[shape]
    columns = _columns()
    want = columns["id"][OPERATORS[op](columns[left], columns[right])]
    sql = f"SELECT id FROM t WHERE {predicate.format(op=op)}"
    tracer = Tracer()
    got = session.run_sql(sql, backend=engine,
                          ctx=replace(session.context(), tracer=tracer))
    assert got.column("id").data.tolist() == want.tolist()
    kernels = [span for span in tracer.all_spans()
               if span.name.startswith("kernel:")]
    if engine in ("pygen", "cgen"):
        assert kernels, "the predicate did not run as a fused kernel"
    if engine == "cgen":
        assert all(span.attrs["backend"] == "c" for span in kernels), \
            [span.attrs for span in kernels]


#: Row sets for MIN / MAX: SQL predicate on ``id``, and NumPy's.
EXTREMES = {
    "one_nat": ("id <= 2", lambda ids: ids <= 2),
    "three_nats": ("id >= 0", lambda ids: ids >= 0),
    "no_nat": ("id <> 1 AND id <> 3 AND id <> 7",
               lambda ids: ~np.isin(ids, [1, 3, 7])),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("rows", sorted(EXTREMES))
def test_min_max_of_null_dates_are_null(session, rows, engine):
    """A NULL date makes MIN and MAX NULL, as in NumPy.  NaT is the
    int64 minimum, so a C max over day numbers would skip it."""
    predicate, select = EXTREMES[rows]
    columns = _columns()
    dates = columns["d"][select(columns["id"])]
    sql = f"SELECT MAX(d) AS hi, MIN(d) AS lo FROM t WHERE {predicate}"
    tracer = Tracer()
    got = session.run_sql(sql, backend=engine,
                          ctx=replace(session.context(), tracer=tracer))
    assert got.column("hi").data.tolist() == [np.max(dates).item()]
    assert got.column("lo").data.tolist() == [np.min(dates).item()]
    if engine == "cgen":
        kernels = [span.attrs for span in tracer.all_spans()
                   if span.name.startswith("kernel:")]
        assert kernels and all(k["backend"] == "c" for k in kernels), \
            kernels


def test_pygen_compares_day_numbers():
    """No kernel parses or compares ``datetime64`` values per chunk."""
    with EngineSession(_database()) as session:
        sql = f"SELECT id FROM t WHERE d < e AND d >= DATE '{LITERAL}'"
        sources = session.compile_sql(sql, backend="pygen").report \
            .kernel_sources
    source = "\n".join(sources)
    assert "datetime64" not in source
    assert ".view(np.int64)" in source and "!= _NAT" in source
