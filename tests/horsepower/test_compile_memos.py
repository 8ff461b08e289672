"""What a compile computes once — the lowered UDF bodies, the catalog,
the cache key's parts, the resolved pass pipeline — is recomputed when
what it was computed from changes, and is never changed by a compile."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.printer import print_module
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.engine.storage import Database
from repro.errors import MatlangSyntaxError
from repro.horsepower import translate
from repro.workloads.tpch_queries import UDF_QUERIES, register_tpch_udfs

GOLDEN_IR = os.path.join(os.path.dirname(__file__), os.pardir, "core",
                         "golden", "optimized_ir")

DOUBLE = "function y = double_it(x)\n  y = x .* 2;\nend"


@pytest.fixture
def session():
    db = Database()
    db.create_table("t", {"x": np.arange(10, dtype=np.float64),
                          "y": np.arange(10, dtype=np.float64) * 3.0})
    with EngineSession(db) as engine:
        yield engine


@pytest.fixture
def lowerings(monkeypatch):
    """Every UDF body the translator lowers, by module name."""
    seen = []
    lower = translate.matlab_to_module

    def counting(source, specs, module_name):
        seen.append(module_name)
        return lower(source, specs, module_name=module_name)

    monkeypatch.setattr(translate, "matlab_to_module", counting)
    return seen


class TestUDFMemo:
    def test_lowered_on_first_reference_and_only_then(self, session,
                                                      lowerings):
        udf = session.register_scalar_udf("double_it", DOUBLE, [ht.F64])
        assert lowerings == [] and udf.lowered is None
        first = session.prepare("SELECT SUM(double_it(x)) AS s FROM t",
                                use_cache=False)
        again = session.prepare("SELECT SUM(double_it(x)) AS s FROM t",
                                use_cache=False)
        other = session.prepare("SELECT SUM(double_it(y)) AS s FROM t")
        assert lowerings == ["udf_double_it"]
        assert not first.cached and not again.cached and not other.cached
        assert first.run().column("s").data[0] == 90.0
        assert other.run().column("s").data[0] == 270.0

    def test_a_failed_lowering_is_not_remembered(self, session,
                                                 lowerings):
        udf = session.register_scalar_udf(
            "broken", "function y = broken(x)\n  y = x +;\nend", [ht.F64])
        for _ in range(2):
            with pytest.raises(MatlangSyntaxError):
                session.prepare("SELECT SUM(broken(x)) AS s FROM t")
        assert lowerings == ["udf_broken", "udf_broken"]
        assert udf.lowered is None

    def test_in_place_passes_never_reach_the_memo(self, session):
        """Without ``inline`` the passes rewrite the merged UDF methods
        in place; they are the query's copies, so the second compile
        starts from the same IR and ends at the same IR."""
        udf = session.register_scalar_udf(
            "poly", "function y = poly(x)\n  a = 2;\n  b = a .* x;\n"
            "  y = b + a;\nend", [ht.F64])
        sql = "SELECT SUM(poly(x)) AS s FROM t"
        session.prepare(sql)
        memo_before = print_module(udf.lowered)
        modules = [print_module(session.compile_sql(
            sql, pipeline="simplify").program.module)
            for _ in range(2)]
        assert modules[0] == modules[1]
        assert "poly" in modules[0]         # not inlined: rewritten in place
        assert print_module(udf.lowered) == memo_before
        assert session.run_sql(sql, pipeline="simplify") \
            .column("s").data[0] == 2 * 45.0 + 2 * 10


class TestSchemaMemo:
    def test_a_table_created_after_a_prepare_is_planned(self, session):
        session.prepare("SELECT SUM(x) AS s FROM t")
        session.db.create_table("u", {"z": np.ones(4)})
        assert session.run_sql("SELECT SUM(z) AS s FROM u") \
            .column("s").data[0] == 4.0

    def test_a_column_added_after_a_prepare_is_planned(self, session):
        session.prepare("SELECT SUM(x) AS s FROM t")
        fingerprint = session.db.schema_fingerprint()
        session.db.table("t").add_column("w", np.full(10, 0.5))
        assert session.db.schema_fingerprint() != fingerprint
        assert session.run_sql("SELECT SUM(w) AS s FROM t") \
            .column("s").data[0] == 5.0

    def test_catalog_is_derived_once_per_schema(self, session):
        catalog = session.db.catalog()
        assert session.db.catalog() is catalog
        session.db.create_table("u", {"z": np.ones(4)})
        assert session.db.catalog() is not catalog
        assert "u" in session.db.catalog().tables


class TestPipelineMemo:
    def test_o1_and_the_default_keep_distinct_keys(self, session):
        sql = "SELECT SUM(x) AS s FROM t"
        default = session.prepare(sql)
        o1 = session.prepare(sql, pipeline="O1")
        assert not o1.cached and o1.key != default.key
        assert session.prepare(sql).cached
        assert session.prepare(sql, pipeline="O1").cached

    def test_verify_ir_still_verifies(self, session):
        prepared = session.prepare("SELECT SUM(x) AS s FROM t",
                                   verify_ir=True)
        assert not prepared.cached
        assert prepared.run().column("s").data[0] == 45.0

    def test_final_ir_dump_matches_the_golden(self, tmp_path):
        """The last ``dump_ir`` snapshot is the optimized module, which
        the optimizer golden pins."""
        with EngineSession(generate_tpch(0.001)) as engine:
            register_tpch_udfs(engine)
            engine.prepare(UDF_QUERIES["q6"], dump_ir=str(tmp_path))
        snapshots = sorted(os.listdir(tmp_path))
        assert snapshots[0] == "000-input.hir"
        with open(os.path.join(GOLDEN_IR, "q6_udf.hir")) as handle:
            golden = handle.read()
        with open(tmp_path / snapshots[-1]) as handle:
            assert handle.read() == golden + "\n"


def test_threads_compiling_on_one_session_share_the_memos():
    """Eight threads compile UDF queries on one session with no plan
    cache while the interpreter switches threads as often as it can:
    whoever fills a memo first, every thread gets the serial IR, and
    the memos end up filled."""
    with EngineSession(generate_tpch(0.001)) as engine:
        register_tpch_udfs(engine)
        queries = [UDF_QUERIES[name] for name in ("q1", "q6", "q14")]
        with EngineSession(engine.db) as serial:
            register_tpch_udfs(serial)
            expected = [print_module(serial.prepare(
                sql, use_cache=False).program.module) for sql in queries]
        barrier = threading.Barrier(8)
        results, errors = [], []

        def work():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    results.append([print_module(engine.prepare(
                        sql, use_cache=False).program.module)
                        for sql in queries])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert results == [expected] * 24
        for sql in queries:
            _, plan_json = engine.plan_sql(sql)
            for name in translate.referenced_udfs(plan_json, engine.udfs):
                assert engine.udfs.get(name).lowered is not None
