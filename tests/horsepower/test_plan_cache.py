"""Prepared-query cache: hits, misses, invalidation, LRU eviction."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import types as ht
from repro.data import generate_tpch
from repro.engine.storage import Database
from repro.engine import EngineSession
from repro.horsepower.cache import PlanCache, normalize_sql


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", {
        "x": np.arange(100, dtype=np.float64),
        "y": np.arange(100, dtype=np.float64) * 2.0,
    })
    return database


@pytest.fixture
def hp(db):
    return EngineSession(db)


def test_package_imports_eagerly_and_without_a_cycle():
    """From a fresh interpreter ``repro.horsepower`` is a plain package
    (its cache exports are module attributes, no lazy ``__getattr__``)
    and the translator can be the first thing imported."""
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    for code in ("import repro.horsepower as p; vars(p)['PlanCache']",
                 "from repro.horsepower.translate import "
                 "build_query_module"):
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestHitMiss:
    def test_first_run_misses_second_hits(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        r1 = hp.run_sql(sql)
        assert hp.cache_stats.misses == 1 and hp.cache_stats.hits == 0
        r2 = hp.run_sql(sql)
        assert hp.cache_stats.hits == 1
        assert len(hp.plan_cache) == 1
        np.testing.assert_array_equal(r1.column("s").data,
                                      r2.column("s").data)

    def test_prepare_reports_cache_provenance(self, hp):
        sql = "SELECT SUM(y) AS s FROM t"
        cold = hp.prepare(sql)
        warm = hp.prepare(sql)
        assert not cold.cached and warm.cached
        assert warm.query is cold.query  # the same compiled plan object
        assert warm.compile_seconds == cold.compile_seconds

    def test_warm_call_does_zero_compile_work(self, hp, monkeypatch):
        sql = "SELECT SUM(x * y) AS s FROM t WHERE x > 3"
        hp.run_sql(sql)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm call re-compiled")

        import repro.engine.backends as backends_mod
        import repro.engine.session as session_mod
        monkeypatch.setattr(backends_mod, "compile_module", boom)
        monkeypatch.setattr(session_mod, "parse_sql", boom)
        result = hp.run_sql(sql)
        assert result.num_rows == 1

    def test_whitespace_variants_share_an_entry(self, hp):
        hp.run_sql("SELECT SUM(x) AS s FROM t")
        hp.run_sql("  SELECT   SUM(x)  AS s\n FROM t ;")
        assert hp.cache_stats.hits == 1
        assert len(hp.plan_cache) == 1

    def test_distinct_opt_levels_are_distinct_entries(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql, opt_level="opt")
        hp.run_sql(sql, opt_level="naive")
        assert hp.cache_stats.misses == 2
        assert len(hp.plan_cache) == 2

    def test_no_cache_bypasses_lookup_and_insert(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql, use_cache=False)
        hp.run_sql(sql, use_cache=False)
        assert hp.cache_stats.lookups == 0
        assert len(hp.plan_cache) == 0

    def test_cache_stats_are_the_one_record(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql)
        hp.run_sql(sql)
        hp.plan_cache.invalidate()
        assert hp.cache_stats.to_dict() == {
            "hits": 1, "misses": 1, "evictions": 0, "invalidations": 1,
            "hit_rate": 0.5}
        assert not [name for name in hp.metrics.snapshot()
                    if name.startswith("plan_cache")]


class TestInvalidation:
    def test_udf_registration_clears_the_cache(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql)
        assert len(hp.plan_cache) == 1
        hp.register_scalar_udf(
            "double_it", "function y = double_it(x)\n  y = x .* 2;\nend",
            [ht.F64])
        assert len(hp.plan_cache) == 0
        assert hp.cache_stats.invalidations == 1
        # And the re-run misses (fresh compile under the new registry).
        hp.run_sql(sql)
        assert hp.cache_stats.misses == 2

    def test_udf_fingerprint_rotates_the_key(self, hp):
        # Even without the eager clear, a registration changes the key:
        # the old entry would be unreachable.
        sql = "SELECT SUM(x) AS s FROM t"
        key_before = hp.plan_cache.key_of(
            sql, "opt", "pygen", hp.db.schema_fingerprint(),
            hp.udfs.fingerprint(), "O2", None)
        hp.register_scalar_udf(
            "triple_it", "function y = triple_it(x)\n  y = x .* 3;\nend",
            [ht.F64])
        key_after = hp.plan_cache.key_of(
            sql, "opt", "pygen", hp.db.schema_fingerprint(),
            hp.udfs.fingerprint(), "O2", None)
        assert key_before != key_after

    def test_schema_change_rotates_the_key(self, hp, db):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql)
        db.create_table("u", {"z": np.arange(5, dtype=np.float64)})
        hp.run_sql(sql)
        # Same SQL, but the catalog fingerprint changed: a miss, not a
        # stale hit.
        assert hp.cache_stats.misses == 2
        db.drop_table("u")
        hp.run_sql(sql)
        assert hp.cache_stats.hits == 1  # fingerprint restored


class TestLRUEviction:
    def test_capacity_evicts_least_recently_used(self, db):
        hp = EngineSession(db, plan_cache_size=2)
        q1 = "SELECT SUM(x) AS s FROM t"
        q2 = "SELECT SUM(y) AS s FROM t"
        q3 = "SELECT COUNT(*) AS n FROM t"
        hp.run_sql(q1)
        hp.run_sql(q2)
        hp.run_sql(q1)          # refresh q1: q2 becomes LRU
        hp.run_sql(q3)          # evicts q2
        assert hp.cache_stats.evictions == 1
        assert len(hp.plan_cache) == 2
        hp.run_sql(q1)
        assert hp.cache_stats.hits == 2   # q1 still cached
        hp.run_sql(q2)
        assert hp.cache_stats.misses == 4  # q2 was evicted

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(0)


class TestNormalizeSql:
    def test_collapses_whitespace_and_trailing_semicolon(self):
        assert normalize_sql("  SELECT  1\n\t; ") == "SELECT 1"

    def test_preserves_case_and_literals(self):
        assert normalize_sql("SELECT 'a  b' FROM T") \
            == "SELECT 'a  b' FROM T"
        # Conservative by design: case differences do NOT share a key.
        assert normalize_sql("select 1") != normalize_sql("SELECT 1")

    def test_comments_drop_up_to_their_newline(self):
        assert normalize_sql("SELECT 1 -- one\nFROM t -- end") \
            == "SELECT 1 FROM t"
        assert normalize_sql("SELECT '--x' AS s") == "SELECT '--x' AS s"

    def test_a_comment_never_swallows_the_next_line(self):
        """The newline ending a comment is what keeps the clause after
        it out of the comment; the same text with that newline turned
        into a space is a different query (no WHERE), and must not be
        served the first one's plan."""
        from repro.data.tpch import generate_tpch
        tpch = generate_tpch(0.002)
        with_where = ("SELECT COUNT(*) AS n FROM lineitem -- all rows\n"
                      "WHERE l_quantity < 10")
        commented = with_where.replace("\n", " ")
        assert normalize_sql(with_where) != normalize_sql(commented)
        session = EngineSession(tpch)
        filtered = session.run_sql(with_where).column("n").data[0]
        served = session.run_sql(commented).column("n").data[0]
        fresh = EngineSession(tpch).run_sql(commented).column("n").data[0]
        assert served == fresh == tpch.table("lineitem").num_rows
        assert filtered < served
        assert session.cache_stats.hits == 0


class TestPipelineFingerprint:
    """The cache key carries the pass-pipeline fingerprint: custom
    pipelines must never collide with the presets (a stale hit would
    silently execute differently-optimized code)."""

    CAT = (("t", ("x", "y")),)
    UDF = ()

    def test_distinct_pipelines_are_distinct_keys(self):
        cache = PlanCache()
        base, o1, custom = (
            cache.key_of("SELECT 1", "opt", "pygen", self.CAT, self.UDF,
                         pipeline, None)
            for pipeline in ("O2", "O1", "custom(inline,simplify)"))
        assert len({base, o1, custom}) == 3

    def test_pipeline_variants_do_not_share_cache_entries(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql)
        hp.run_sql(sql, pipeline="O1")
        hp.run_sql(sql, pipeline="inline,simplify")
        assert hp.cache_stats.misses == 3
        assert len(hp.plan_cache) == 3
        # Each variant hits its own entry on re-run.
        hp.run_sql(sql)
        hp.run_sql(sql, pipeline="O1")
        hp.run_sql(sql, pipeline="inline,simplify")
        assert hp.cache_stats.hits == 3

    def test_explicit_o2_hits_the_default_entry(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql)
        hp.run_sql(sql, pipeline="O2")
        assert hp.cache_stats.hits == 1
        assert len(hp.plan_cache) == 1

    def test_one_key_plans_with_one_pipeline(self):
        # After ANALYZE, O2's selectivity-reorder moves the shipdate
        # conjunct first and O0 leaves it last.  "naive" and an
        # explicit O0 share one cache key, so both must plan with O0,
        # whichever compiles first.
        session = EngineSession(generate_tpch(0.002))
        session.analyze()
        sql = ("SELECT SUM(l_extendedprice) AS s FROM lineitem "
               "WHERE l_quantity < 50 AND l_discount > 0.05 "
               "AND l_shipdate < DATE '1992-06-01'")
        implied = session.prepare(sql, "naive", use_cache=False)
        explicit = session.prepare(sql, "naive", pipeline="O0",
                                   use_cache=False)
        assert implied.key == explicit.key
        assert implied.query.plan_json == explicit.query.plan_json
        reordered = session.prepare(sql, "opt", use_cache=False)
        assert reordered.query.plan_json != explicit.query.plan_json

    def test_verify_ir_bypasses_the_cache(self, hp):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql, verify_ir=True)
        hp.run_sql(sql, verify_ir=True)
        assert hp.cache_stats.lookups == 0
        assert len(hp.plan_cache) == 0

    def test_dump_ir_bypasses_the_cache(self, hp, tmp_path):
        sql = "SELECT SUM(x) AS s FROM t"
        hp.run_sql(sql, dump_ir=str(tmp_path / "ir"))
        assert hp.cache_stats.lookups == 0
        assert len(hp.plan_cache) == 0
