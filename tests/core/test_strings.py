"""Dictionary-encoded strings: the representation, the builtins that
run on codes, the codegen lowering, and what must not leak from it."""

from __future__ import annotations

import inspect
import itertools
import sys
import threading

import numpy as np
import pytest

from benchmarks.layered.check import mismatch
from repro.core import builtins as hb
from repro.core import compiler, strings
from repro.core import types as ht
from repro.core.codegen import pygen
from repro.core.codegen.cgen import c_backend_available
from repro.core.values import ListValue, Vector, scalar, vector
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.engine import executor
from repro.engine.storage import Database
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

CTX = hb.EvalContext()
ENGINES = ["interp", "pygen",
           pytest.param("cgen", marks=pytest.mark.skipif(
               not c_backend_available(), reason="gcc not on PATH")),
           "baseline"]


def run(name, *args):
    return hb.get(name).run(list(args), CTX)


def text(values) -> Vector:
    return vector(list(values), ht.STR)


def encoded(values) -> Vector:
    codes, dictionary = strings.encode(text(values).data)
    return Vector.from_codes(codes, dictionary)


class TestStringsModule:
    def test_encode_sorts_the_dictionary(self):
        codes, dictionary = strings.encode(text(["b", "a", "c", "a"]).data)
        assert dictionary.tolist() == ["a", "b", "c"]
        assert codes.dtype == np.int32
        assert codes.tolist() == [1, 0, 2, 0]
        assert strings.decode(codes, dictionary).tolist() == \
            ["b", "a", "c", "a"]

    def test_encode_empty(self):
        codes, dictionary = strings.encode(np.empty(0, dtype=object))
        assert len(codes) == 0 and len(dictionary) == 0

    def test_reconcile_keeps_a_shared_dictionary(self):
        a = strings.encode(text(["x", "y"]).data)
        (codes,), dictionary = strings.reconcile(a)
        assert codes is a[0] and dictionary is a[1]

    def test_reconcile_merges_differing_dictionaries(self):
        a = strings.encode(text(["b", "d", "b"]).data)
        b = strings.encode(text(["a", "d"]).data)
        (ca, cb), dictionary = strings.reconcile(a, b)
        assert dictionary.tolist() == ["a", "b", "d"]
        assert dictionary[ca].tolist() == ["b", "d", "b"]
        assert dictionary[cb].tolist() == ["a", "d"]


class TestVector:
    def test_from_codes_decodes_lazily(self):
        vec = Vector.from_codes(np.array([1, 0, 1]),
                                np.array(["p", "q"], dtype=object))
        assert vec._data is None
        assert len(vec) == 3
        assert vec.data.tolist() == ["q", "p", "q"]

    def test_str_vectors_charge_four_bytes_per_row(self):
        assert text(["a", "bb", "ccc"]).nbytes() == 12
        assert encoded(["a", "bb", "ccc"]).nbytes() == 12

    def test_encoding_is_computed_once(self):
        vec = text(["b", "a"])
        assert vec.encoding() is vec.encoding()

    def test_column_vectors_are_shared_and_encoded_on_first_use(self):
        db = Database()
        table = db.create_table("t", {"s": np.array(["b", "a"])})
        first = db.to_table_values()["t"].column("s")
        assert first._encoding is None          # not encoded at load
        assert db.to_table_values()["t"].column("s") is first
        first.encoding()
        assert table.to_table_value().column("s")._encoding is not None

    def test_sessions_racing_on_a_column_share_one_encoding(self):
        values = np.array([f"v{i % 97}" for i in range(20_000)],
                          dtype=object)
        db = Database()
        db.create_table("t", {"s": values})
        column = db.to_table_values()["t"].column("s")
        barrier = threading.Barrier(4)
        seen = []

        def first_use():
            barrier.wait(timeout=10)
            seen.append(column.encoding())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        assert all(encoding is seen[0] for encoding in seen)


class TestStringBuiltins:
    def test_selection_keeps_the_dictionary(self):
        col = encoded(["c", "a", "b", "a"])
        mask = vector([True, False, True, True], ht.BOOL)
        for result in (run("compress", mask, col),
                       run("index", col, vector([3, 0], ht.I64)),
                       run("reverse", col),
                       run("take", col, scalar(2, ht.I64)),
                       run("unique", col)):
            assert result.encoding()[1] is col.encoding()[1]
        assert run("unique", col).data.tolist() == ["c", "a", "b"]
        assert run("reverse", col).data.tolist() == ["a", "b", "a", "c"]

    def test_predicate_against_an_absent_literal(self):
        col = encoded(["a", "b"])
        assert run("eq", col, scalar("zz")).data.tolist() == [False, False]
        assert run("neq", scalar("zz"), col).data.tolist() == [True, True]
        assert run("lt", col, scalar("ab")).data.tolist() == [True, False]

    def test_two_string_operands_compare_over_a_merged_dictionary(self):
        left, right = encoded(["a", "c", "b"]), encoded(["b", "c", "a"])
        assert run("eq", left, right).data.tolist() == [False, True, False]
        assert run("gt", left, right).data.tolist() == [False, False, True]

    def test_one_row_like_is_not_iterated_per_character(self):
        result = run("like", text(["only"]), scalar("o%"))
        assert result.data.tolist() == [True]

    def test_min_max_of_strings(self):
        col = encoded(["m", "b", "x"])
        assert run("min", col).item() == "b"
        assert run("max", col).item() == "x"
        groups = vector([1, 0, 1], ht.I64)
        ngroups = scalar(2, ht.I64)
        assert run("group_min", col, groups, ngroups).data.tolist() == \
            ["b", "m"]
        assert run("group_max", col, groups, ngroups).data.tolist() == \
            ["b", "x"]

    def test_order_descending_string_keeps_ties_stable(self):
        col = text(["b", "a", "b", "c", "a"])
        order = run("order", col, vector([False], ht.BOOL))
        assert order.data.tolist() == [3, 0, 2, 1, 4]

    def test_group_by_two_string_keys(self):
        a, b = text(["x", "y", "x", "x"]), text(["p", "p", "q", "p"])
        first, codes = run("group", a, b)
        assert first.data.tolist() == [0, 1, 2]
        assert codes.data.tolist() == [0, 1, 2, 0]


def _join_reference(left_rows, right_rows, kind):
    """Nested loops: left index ascending, matches in right order."""
    pairs = []
    for i, lkey in enumerate(left_rows):
        matches = [j for j, rkey in enumerate(right_rows) if rkey == lkey]
        pairs.extend((i, j) for j in matches)
        if not matches and kind == "left":
            pairs.append((i, -1))
    return pairs


class TestJoinIndex:
    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_string_keys_with_differing_dictionaries(self, kind):
        left = text(["b", "zz", "a", "b", "c"])
        right = encoded(["c", "b", "b", "q", "a"])
        self._check([left], [right], kind)

    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_two_keys_with_duplicates_and_misses(self, kind):
        left = [vector([1, 2, 1, 3, 1], ht.I64),
                text(["x", "y", "x", "x", "y"])]
        right = [vector([1, 1, 3, 2, 1], ht.I64),
                 text(["x", "x", "y", "y", "y"])]
        self._check(left, right, kind)

    @pytest.mark.parametrize("kind", ["inner", "left"])
    def test_single_numeric_key(self, kind):
        self._check([vector([5, 1, 5, 9], ht.I64)],
                    [vector([5, 5, 1, 7], ht.I64)], kind)

    def _check(self, left, right, kind):
        def pack(keys):
            return keys[0] if len(keys) == 1 else ListValue(keys)

        lidx, ridx = run("join_index", pack(left), pack(right),
                         scalar(kind, ht.SYM))
        rows = list(zip(*(k.data.tolist() for k in left)))
        rrows = list(zip(*(k.data.tolist() for k in right)))
        assert list(zip(lidx.data.tolist(), ridx.data.tolist())) == \
            _join_reference(rows, rrows, kind)


class TestGroupMinMaxString:
    """Failed with "group min/max of string columns unsupported" on all
    four engines before strings were dictionary-encoded."""

    SQL = ("SELECT l_returnflag, MIN(l_shipmode) AS lo, "
           "MAX(l_shipmode) AS hi FROM lineitem GROUP BY l_returnflag")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_python(self, engine):
        db = generate_tpch(0.001, seed=3)
        lineitem = db.table("lineitem")
        want: dict = {}
        for flag, mode in zip(lineitem.column("l_returnflag"),
                              lineitem.column("l_shipmode")):
            lo, hi = want.get(flag, (mode, mode))
            want[flag] = (min(lo, mode), max(hi, mode))
        with EngineSession(db) as session:
            result = session.run_sql(self.SQL, backend=engine)
        reference = {
            "l_returnflag": np.array(list(want), dtype=object),
            "lo": np.array([v[0] for v in want.values()], dtype=object),
            "hi": np.array([v[1] for v in want.values()], dtype=object)}
        assert mismatch(result, reference) is None


TPCH_PROGRAMS = {name + form: (UDF_QUERIES if form else PLAIN_QUERIES)[name]
                 for name, form in itertools.product(
                     ("q1", "q6", "q12", "q14", "q19"), ("", "_udf"))}


@pytest.fixture(scope="module")
def tpch_session():
    with EngineSession(generate_tpch(0.002, seed=1)) as session:
        register_tpch_udfs(session)
        yield session


class TestLowering:
    def test_no_per_row_string_path_remains(self):
        for module in (hb, pygen, executor):
            assert "np.fromiter" not in inspect.getsource(module)
        for name in ("_like", "_member", "_startswith"):
            assert not hasattr(pygen, name)

    @pytest.mark.parametrize("name", sorted(TPCH_PROGRAMS))
    def test_no_kernel_sees_a_string(self, tpch_session, name,
                                     monkeypatch):
        compiled = tpch_session.compile_sql(TPCH_PROGRAMS[name])
        for source in compiled.kernel_sources:
            assert "_like(" not in source and "_member(" not in source
            assert "_startswith(" not in source

        seen = []

        def checked(kernel, inputs, **kwargs):
            seen.extend(inputs)
            return run_kernel(kernel, inputs, **kwargs)

        run_kernel = compiler.run_kernel
        monkeypatch.setattr(compiler, "run_kernel", checked)
        compiled.run()
        assert seen
        assert all(v.type is not ht.STR and v.data.dtype != object
                   for v in seen)

    def test_lowering_keeps_the_logical_program(self, tpch_session):
        compiled = tpch_session.compile_sql(TPCH_PROGRAMS["q12"])
        text_ir = str([str(s) for s in compiled.program.module.entry.body])
        assert "@member(c9, e10)" in text_ir
        assert "str_codes" not in text_ir

    @pytest.mark.parametrize("backend", ["pygen", pytest.param(
        "cgen", marks=pytest.mark.skipif(not c_backend_available(),
                                         reason="gcc not on PATH"))])
    def test_compiled_query_runs_on_other_strings(self, backend):
        """Codes and dictionaries are runtime values: a program compiled
        over one database answers correctly over another with the same
        schema and different strings."""
        sql = ("SELECT s, COUNT(*) AS n FROM t WHERE s IN ('b', 'c') "
               "OR s LIKE 'x%' OR s = 'd' GROUP BY s ORDER BY s DESC")
        first, second = Database(), Database()
        first.create_table("t", {"s": np.array(["a", "b", "c", "b"])})
        second.create_table("t", {"s": np.array(
            ["xa", "d", "c", "q", "c", "xb", "b"])})
        with EngineSession(first) as session:
            compiled = session.compile_sql(sql, backend=backend)
            compiled.run()
            got = compiled.run(tables=second.to_table_values())
        with EngineSession(second) as session:
            want = session.run_sql(sql, backend="baseline")
        assert mismatch(got, want) is None
        assert got.column("s").data.tolist() == ["xb", "xa", "d", "c",
                                                 "b"]
