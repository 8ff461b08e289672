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


def test_pygen_compares_day_numbers():
    """No kernel parses or compares ``datetime64`` values per chunk."""
    with EngineSession(_database()) as session:
        sql = f"SELECT id FROM t WHERE d < e AND d >= DATE '{LITERAL}'"
        sources = session.compile_sql(sql, backend="pygen").report \
            .kernel_sources
    source = "\n".join(sources)
    assert "datetime64" not in source
    assert ".view(np.int64)" in source and "!= _NAT" in source
