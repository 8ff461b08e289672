"""Robustness and failure-injection tests across the full stack."""

import numpy as np
import pytest

from repro.core import types as ht
from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.errors import PlanError, ReproError, UDFError


@pytest.fixture
def empty_db():
    db = Database()
    db.create_table("t", {
        "x": np.empty(0, dtype=np.float64),
        "label": np.empty(0, dtype=object),
    })
    return db


@pytest.fixture
def small_db():
    db = Database()
    db.create_table("t", {
        "x": np.array([1.0, -1.0, 2.0]),
        "label": np.array(["a", "b", "a"], dtype=object),
    })
    return db


class TestEmptyInputs:
    def test_filter_aggregate_on_empty_table(self, empty_db):
        hp = EngineSession(empty_db)
        sql = "SELECT SUM(x * x) AS s FROM t WHERE x > 0"
        assert hp.run_sql(sql).column("s").data[0] == 0
        assert hp.run_sql(sql, backend="baseline").column("s").data[0] == 0

    def test_projection_on_empty_table(self, empty_db):
        hp = EngineSession(empty_db)
        result = hp.run_sql("SELECT x * 2 AS y FROM t")
        assert result.num_rows == 0

    def test_group_by_on_empty_table(self, empty_db):
        hp = EngineSession(empty_db)
        result = hp.run_sql(
            "SELECT label, COUNT(*) AS n FROM t GROUP BY label")
        assert result.num_rows == 0

    def test_filter_selecting_nothing(self, small_db):
        hp = EngineSession(small_db)
        sql = "SELECT SUM(x) AS s FROM t WHERE x > 1000"
        assert hp.run_sql(sql).column("s").data[0] == 0
        assert hp.run_sql(sql, backend="baseline").column("s").data[0] == 0


class TestUDFFailures:
    def test_python_udf_exception_propagates(self, small_db):
        hp = EngineSession(small_db)

        def exploding(x):
            raise RuntimeError("boom inside the UDF")

        hp.register_scalar_udf(
            "explodeUDF", "function r = f(x)\n    r = x;\nend",
            [ht.F64], ht.F64, python_impl=exploding)
        with pytest.raises(RuntimeError, match="boom"):
            hp.run_sql("SELECT SUM(explodeUDF(x)) AS s FROM t",
                       backend="baseline")

    def test_unregistered_udf_in_sql_is_a_plan_error(self, small_db):
        hp = EngineSession(small_db)
        with pytest.raises((PlanError, ReproError)):
            hp.run_sql("SELECT SUM(ghostUDF(x)) AS s FROM t")

    def test_scalar_udf_in_from_rejected(self, small_db):
        hp = EngineSession(small_db)
        hp.register_scalar_udf(
            "scalarUDF", "function r = f(x)\n    r = x;\nend",
            [ht.F64], ht.F64)
        with pytest.raises(PlanError, match="scalar UDF"):
            hp.run_sql(
                "SELECT x FROM scalarUDF((SELECT x FROM t))")

    def test_table_udf_returning_wrong_arity(self, small_db):
        hp = EngineSession(small_db)
        hp.register_table_udf(
            "badTblUDF",
            "function t = f(x)\n    t = table(x);\nend",
            [ht.F64], [("a", ht.F64), ("b", ht.F64)],
            python_impl=lambda x: [x])  # declares 2, returns 1
        with pytest.raises(UDFError, match="declared 2"):
            hp.run_sql("SELECT a FROM badTblUDF((SELECT x FROM t))",
                       backend="baseline")


class TestNumericEdgeCases:
    def test_nan_propagates_identically(self, small_db):
        """log of a negative produces NaN on both engines, not a crash."""
        hp = EngineSession(small_db)
        hp.register_scalar_udf(
            "logUDF", "function r = f(x)\n    r = log(x);\nend",
            [ht.F64], ht.F64, python_impl=np.log)
        sql = "SELECT SUM(logUDF(x)) AS s FROM t"
        with np.errstate(invalid="ignore"):
            hp_value = hp.run_sql(sql).column("s").data[0]
            mdb_value = hp.run_sql(sql, backend="baseline").column("s").data[0]
        assert np.isnan(hp_value) and np.isnan(mdb_value)

    def test_division_by_zero_yields_inf(self, small_db):
        hp = EngineSession(small_db)
        with np.errstate(divide="ignore"):
            result = hp.run_sql("SELECT MAX(1.0 / (x - 1.0)) AS m FROM t")
        assert np.isinf(result.column("m").data[0])

    def test_single_row_table(self):
        db = Database()
        db.create_table("one", {"v": np.array([42.0])})
        hp = EngineSession(db)
        result = hp.run_sql("SELECT SUM(v * 2) AS s FROM one")
        assert result.column("s").data[0] == pytest.approx(84.0)


class TestThreadSafetyOfCompiledQueries:
    def test_compiled_query_reusable_across_runs(self, small_db):
        hp = EngineSession(small_db)
        compiled = hp.compile_sql("SELECT SUM(x) AS s FROM t")
        first = compiled.run().column("s").data[0]
        # Mutate the database between runs: new table contents flow in
        # (plans bind to names, not snapshots).
        small_db.drop_table("t")
        small_db.create_table("t", {
            "x": np.array([10.0, 20.0]),
            "label": np.array(["a", "b"], dtype=object),
        })
        second = compiled.run().column("s").data[0]
        assert first == pytest.approx(2.0)
        assert second == pytest.approx(30.0)

    def test_many_threads_on_tiny_input(self, small_db):
        hp = EngineSession(small_db)
        compiled = hp.compile_sql("SELECT SUM(x) AS s FROM t")
        result = compiled.run(n_threads=16, chunk_size=1)
        assert result.column("s").data[0] == pytest.approx(2.0)
