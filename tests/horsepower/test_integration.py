"""Integration tests: both systems must agree on every supported query
shape — plain SQL, scalar-UDF SQL and table-UDF SQL."""

import numpy as np
import pytest

from repro.core import types as ht
from repro.engine.storage import Database
from repro.engine import EngineSession


@pytest.fixture
def db():
    rng = np.random.default_rng(42)
    n = 2000
    database = Database()
    status = np.empty(n, dtype=object)
    for i, value in enumerate(rng.choice(["A", "F", "N", "R"], n)):
        status[i] = str(value)
    dates = (np.datetime64("1995-01-01", "D")
             + rng.integers(0, 1200, n).astype("timedelta64[D]"))
    database.create_table("lineitem", {
        "l_orderkey": rng.integers(1, 500, n).astype(np.int64),
        "l_quantity": rng.uniform(1, 50, n),
        "l_extendedprice": rng.uniform(100, 10_000, n),
        "l_discount": np.round(rng.uniform(0.0, 0.1, n), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, n), 2),
        "l_returnflag": status,
        "l_shipdate": dates,
    })
    okeys = np.arange(1, 501, dtype=np.int64)
    prio = np.empty(500, dtype=object)
    for i, value in enumerate(rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"], 500)):
        prio[i] = str(value)
    database.create_table("orders", {
        "o_orderkey": okeys,
        "o_totalprice": rng.uniform(1000, 100_000, 500),
        "o_orderpriority": prio,
    })
    return database


@pytest.fixture
def systems(db):
    hp = EngineSession(db)
    mdb = EngineSession(db, hp.udfs, default_backend="baseline")
    return hp, mdb


def assert_tables_match(hp_result, mdb_result, sort_by=None):
    """Compare a HorseIR result table with the baseline's."""
    hp_cols, mdb_cols = ({name: vec.data for name, vec in result.columns()}
                         for result in (hp_result, mdb_result))
    assert sorted(hp_cols) == sorted(mdb_cols)
    if sort_by is not None:
        hp_order = np.argsort(hp_cols[sort_by], kind="stable")
        mdb_order = np.argsort(mdb_cols[sort_by], kind="stable")
    else:
        hp_order = mdb_order = slice(None)
    for name in hp_cols:
        left = hp_cols[name][hp_order]
        right = mdb_cols[name][mdb_order]
        assert len(left) == len(right), f"column {name}"
        if left.dtype.kind == "f" or right.dtype.kind == "f":
            np.testing.assert_allclose(
                left.astype(np.float64), right.astype(np.float64),
                rtol=1e-9, err_msg=f"column {name}")
        else:
            assert (left == right).all(), f"column {name}"


class TestPlainSQL:
    def test_q6_style_filter_aggregate(self, systems):
        hp, mdb = systems
        sql = """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_discount >= 0.05 AND l_quantity < 24
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_group_by_with_multiple_aggregates(self, systems):
        hp, mdb = systems
        sql = """
        SELECT l_returnflag,
               SUM(l_quantity) AS sum_qty,
               AVG(l_extendedprice) AS avg_price,
               COUNT(*) AS count_order
        FROM lineitem
        GROUP BY l_returnflag
        ORDER BY l_returnflag
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_join(self, systems):
        hp, mdb = systems
        sql = """
        SELECT SUM(l_extendedprice) AS total
        FROM lineitem, orders
        WHERE l_orderkey = o_orderkey AND o_totalprice > 50000
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_explicit_join_syntax(self, systems):
        hp, mdb = systems
        sql = """
        SELECT SUM(l_quantity) AS q
        FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
        WHERE o_orderpriority = '1-URGENT'
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_case_when(self, systems):
        hp, mdb = systems
        sql = """
        SELECT SUM(CASE WHEN l_discount > 0.05
                        THEN l_extendedprice ELSE 0.0 END) AS high_disc
        FROM lineitem
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_date_predicate_with_interval(self, systems):
        hp, mdb = systems
        sql = """
        SELECT COUNT(*) AS n
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_in_list_and_between(self, systems):
        hp, mdb = systems
        sql = """
        SELECT COUNT(*) AS n
        FROM lineitem
        WHERE l_returnflag IN ('A', 'R')
          AND l_quantity BETWEEN 10 AND 30
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_order_by_desc_with_limit(self, systems):
        hp, mdb = systems
        sql = """
        SELECT l_returnflag, SUM(l_quantity) AS q
        FROM lineitem
        GROUP BY l_returnflag
        ORDER BY q DESC
        LIMIT 2
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_projection_without_aggregates(self, systems):
        hp, mdb = systems
        sql = """
        SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS disc_price
        FROM lineitem
        WHERE l_quantity > 45
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql),
                            sort_by="disc_price")


MATLAB_REVENUE_UDF = """
function r = revenue(price, discount)
    r = price .* discount;
end
"""


def python_revenue(price, discount):
    return price * discount


class TestScalarUDF:
    @pytest.fixture
    def with_udf(self, systems):
        hp, mdb = systems
        hp.register_scalar_udf(
            "revenueUDF", MATLAB_REVENUE_UDF,
            [ht.F64, ht.F64], ht.F64, python_impl=python_revenue)
        return hp, mdb

    def test_udf_in_select(self, with_udf):
        hp, mdb = with_udf
        sql = """
        SELECT SUM(revenueUDF(l_extendedprice, l_discount)) AS rev
        FROM lineitem
        WHERE l_discount >= 0.05
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_udf_in_where(self, with_udf):
        hp, mdb = with_udf
        sql = """
        SELECT COUNT(*) AS n
        FROM lineitem
        WHERE revenueUDF(l_extendedprice, l_discount) > 100
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_udf_is_inlined_by_horsepower(self, with_udf):
        hp, _ = with_udf
        sql = """
        SELECT SUM(revenueUDF(l_extendedprice, l_discount)) AS rev
        FROM lineitem
        """
        compiled = hp.compile_sql(sql)
        assert list(compiled.program.module.methods) == ["main"]

    def test_baseline_conversion_counters(self, with_udf):
        _, mdb = with_udf
        sql = """
        SELECT SUM(revenueUDF(l_extendedprice, l_discount)) AS rev
        FROM lineitem
        """
        mdb.run_sql(sql)
        # Two decimal (float) input columns convert; that is the only
        # boundary cost for this numeric UDF.
        bridge = mdb.baseline_executor().bridge
        assert bridge.calls == 1
        n = 2000  # rows in the fixture's lineitem table
        assert bridge.values_converted_in == 2 * n


MATLAB_TABLE_UDF = """
function t = pricing(price, discount)
    net = price .* (1 - discount);
    t = table(price, net);
end
"""


def python_pricing(price, discount):
    net = price * (1 - discount)
    return [price, net]


class TestTableUDF:
    @pytest.fixture
    def with_udf(self, systems):
        hp, mdb = systems
        hp.register_table_udf(
            "pricingUDF", MATLAB_TABLE_UDF, [ht.F64, ht.F64],
            [("price", ht.F64), ("net", ht.F64)],
            python_impl=python_pricing)
        return hp, mdb

    def test_table_udf_in_from(self, with_udf):
        hp, mdb = with_udf
        sql = """
        SELECT SUM(net) AS total
        FROM pricingUDF((SELECT l_extendedprice, l_discount
                         FROM lineitem
                         WHERE l_discount >= 0.05))
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_filter_above_table_udf(self, with_udf):
        hp, mdb = with_udf
        sql = """
        SELECT price, net
        FROM pricingUDF((SELECT l_extendedprice, l_discount
                         FROM lineitem))
        WHERE price > 9000
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql),
                            sort_by="price")

    def test_unused_udf_output_sliced_away_by_horsepower(self, with_udf):
        hp, _ = with_udf
        sql = """
        SELECT price
        FROM pricingUDF((SELECT l_extendedprice, l_discount
                         FROM lineitem))
        """
        compiled = hp.compile_sql(sql)
        # After inlining + backward slicing, the net computation is gone.
        from repro.core.printer import print_module
        text = print_module(compiled.program.module)
        assert "@mul" not in text


class TestDerivedTables:
    def test_subquery_in_from(self, systems):
        hp, mdb = systems
        sql = """
        SELECT SUM(dp) AS total
        FROM (SELECT l_extendedprice * (1 - l_discount) AS dp
              FROM lineitem
              WHERE l_quantity < 25) AS t
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_filter_pushes_through_projection(self, systems):
        hp, mdb = systems
        sql = """
        SELECT qty
        FROM (SELECT l_quantity AS qty, l_discount AS d
              FROM lineitem) AS t
        WHERE qty > 49
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql),
                            sort_by="qty")


class TestThreadedExecution:
    def test_hp_threads_agree(self, systems):
        hp, _ = systems
        sql = """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_discount >= 0.05
        """
        compiled = hp.compile_sql(sql)
        t1 = compiled.run(n_threads=1, chunk_size=256)
        t4 = compiled.run(n_threads=4, chunk_size=256)
        np.testing.assert_allclose(t1.column("revenue").data,
                                   t4.column("revenue").data)

    def test_mdb_threads_agree(self, systems):
        _, mdb = systems
        sql = """
        SELECT COUNT(*) AS n FROM lineitem WHERE l_discount >= 0.05
        """
        t1 = mdb.run_sql(sql, n_threads=1)
        t4 = mdb.run_sql(sql, n_threads=4)
        assert t1.column("n").data[0] == t4.column("n").data[0]

class TestMultiJoin:
    """Three-table comma joins resolve recursively (paper future-work
    item: multi-join support)."""

    @pytest.fixture
    def three_tables(self):
        rng = np.random.default_rng(0)
        db = Database()
        db.create_table("ta", {
            "ak": np.arange(50, dtype=np.int64),
            "av": rng.uniform(0, 1, 50),
        })
        db.create_table("tb", {
            "bk": rng.integers(0, 50, 200).astype(np.int64),
            "ck_ref": rng.integers(0, 30, 200).astype(np.int64),
            "bv": rng.uniform(0, 1, 200),
        })
        db.create_table("tc", {
            "ck": np.arange(30, dtype=np.int64),
            "cv": rng.uniform(0, 1, 30),
        })
        return (EngineSession(db),
                EngineSession(db, default_backend="baseline"), db)

    def test_three_way_join_agrees_with_bruteforce(self, three_tables):
        hp, mdb, db = three_tables
        sql = """
        SELECT SUM(av * bv * cv) AS s
        FROM ta, tb, tc
        WHERE ak = bk AND ck_ref = ck AND cv > 0.2
        """
        got_hp = hp.run_sql(sql).column("s").data[0]
        got_mdb = mdb.run_sql(sql).column("s").data[0]
        a_map = dict(zip(db.table("ta").column("ak"),
                         db.table("ta").column("av")))
        c_map = dict(zip(db.table("tc").column("ck"),
                         db.table("tc").column("cv")))
        expected = sum(
            a_map[bk] * bv * c_map[cr]
            for bk, cr, bv in zip(db.table("tb").column("bk"),
                                  db.table("tb").column("ck_ref"),
                                  db.table("tb").column("bv"))
            if c_map[cr] > 0.2)
        assert got_hp == pytest.approx(expected)
        assert got_mdb == pytest.approx(expected)

    def test_three_way_join_with_group_by(self, three_tables):
        hp, mdb, _ = three_tables
        sql = """
        SELECT ak, SUM(bv * cv) AS s
        FROM ta, tb, tc
        WHERE ak = bk AND ck_ref = ck
        GROUP BY ak
        ORDER BY ak
        """
        assert_tables_match(hp.run_sql(sql), mdb.run_sql(sql))
