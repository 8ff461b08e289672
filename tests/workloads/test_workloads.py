"""Workload-level tests: TPC-H data properties, query agreement between
plain and UDF forms, and agreement between HorsePower and the baseline."""

import re
from collections import Counter

import numpy as np
import pytest

from benchmarks.layered.check import columns_of
from repro.core.printer import print_module
from repro.data import generate_blackscholes, generate_tpch
from repro.data.blackscholes import calc_option_price, load_blackscholes_table
from repro.data.morgan import generate_morgan, morgan_reference, msum_reference
from repro.engine.storage import Database
from repro.engine import EngineSession
from repro.workloads.bs_queries import (BS_VARIANT_NAMES, SCALAR_QUERIES,
                                        TABLE_QUERIES, register_bs_udfs)
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(scale_factor=0.002)


@pytest.fixture(scope="module")
def tpch_systems(tpch_db):
    hp = EngineSession(tpch_db)
    mdb = EngineSession(tpch_db, hp.udfs, default_backend="baseline")
    register_tpch_udfs(hp)
    return hp, mdb


def _columns(result) -> dict[str, np.ndarray]:
    return {name: vec.data for name, vec in result.columns()}


def assert_results_match(a, b):
    left, right = _columns(a), _columns(b)
    assert sorted(left) == sorted(right)
    for name in left:
        x, y = left[name], right[name]
        assert len(x) == len(y), f"column {name}"
        if np.asarray(x).dtype.kind == "f" \
                or np.asarray(y).dtype.kind == "f":
            np.testing.assert_allclose(
                np.asarray(x, dtype=np.float64),
                np.asarray(y, dtype=np.float64), rtol=1e-9,
                err_msg=f"column {name}")
        else:
            assert (np.asarray(x) == np.asarray(y)).all(), f"column {name}"


class TestTPCHData:
    def test_all_tables_present(self, tpch_db):
        assert set(tpch_db.table_names()) == {
            "region", "nation", "supplier", "customer", "part",
            "partsupp", "orders", "lineitem"}

    def test_cardinalities_scale(self, tpch_db):
        lineitem = tpch_db.table("lineitem")
        orders = tpch_db.table("orders")
        # ~4 lineitems per order on average (1..7 uniform).
        assert 2.5 < lineitem.num_rows / orders.num_rows < 5.5

    def test_q6_selectivity_near_spec(self, tpch_db):
        lineitem = tpch_db.table("lineitem")
        ship = lineitem.column("l_shipdate")
        disc = lineitem.column("l_discount")
        qty = lineitem.column("l_quantity")
        mask = ((ship >= np.datetime64("1994-01-01"))
                & (ship < np.datetime64("1995-01-01"))
                & (disc >= 0.05) & (disc <= 0.07) & (qty < 24))
        fraction = mask.mean()
        # TPC-H spec-ish: around 2%.
        assert 0.005 < fraction < 0.06

    def test_foreign_keys_resolve(self, tpch_db):
        lineitem = tpch_db.table("lineitem")
        orders = tpch_db.table("orders")
        assert lineitem.column("l_orderkey").max() \
            <= orders.column("o_orderkey").max()
        part = tpch_db.table("part")
        assert lineitem.column("l_partkey").max() \
            <= part.column("p_partkey").max()


class TestTPCHQueries:
    @pytest.mark.parametrize("name", list(PLAIN_QUERIES))
    def test_plain_queries_agree_across_systems(self, tpch_systems, name):
        hp, mdb = tpch_systems
        assert_results_match(hp.run_sql(PLAIN_QUERIES[name]),
                             mdb.run_sql(PLAIN_QUERIES[name]))

    @pytest.mark.parametrize("name", list(UDF_QUERIES))
    def test_udf_queries_agree_across_systems(self, tpch_systems, name):
        hp, mdb = tpch_systems
        assert_results_match(hp.run_sql(UDF_QUERIES[name]),
                             mdb.run_sql(UDF_QUERIES[name]))

    @pytest.mark.parametrize("name", list(UDF_QUERIES))
    def test_udf_form_equals_plain_form(self, tpch_systems, name):
        hp, _ = tpch_systems
        assert_results_match(hp.run_sql(PLAIN_QUERIES[name]),
                             hp.run_sql(UDF_QUERIES[name]))

    @pytest.mark.parametrize("name", list(UDF_QUERIES))
    def test_horsepower_inlines_all_udfs(self, tpch_systems, name):
        hp, _ = tpch_systems
        compiled = hp.compile_sql(UDF_QUERIES[name])
        assert list(compiled.program.module.methods) == ["main"]

    def test_multithreaded_agrees(self, tpch_systems):
        hp, mdb = tpch_systems
        sql = UDF_QUERIES["q6"]
        assert_results_match(hp.run_sql(sql, n_threads=4),
                             mdb.run_sql(sql, n_threads=4))


@pytest.fixture(scope="module")
def bs_systems():
    db = Database()
    load_blackscholes_table(db, 5000)
    hp = EngineSession(db)
    mdb = EngineSession(db, hp.udfs, default_backend="baseline")
    register_bs_udfs(hp)
    return hp, mdb


class TestBlackScholesQueries:
    @pytest.mark.parametrize("variant", BS_VARIANT_NAMES)
    def test_scalar_variant_agrees(self, bs_systems, variant):
        hp, mdb = bs_systems
        sql = SCALAR_QUERIES[variant]
        assert_results_match(hp.run_sql(sql), mdb.run_sql(sql))

    @pytest.mark.parametrize("variant", BS_VARIANT_NAMES)
    def test_table_variant_agrees(self, bs_systems, variant):
        hp, mdb = bs_systems
        sql = TABLE_QUERIES[variant]
        assert_results_match(hp.run_sql(sql), mdb.run_sql(sql))

    @pytest.mark.parametrize("variant", BS_VARIANT_NAMES)
    def test_scalar_and_table_forms_agree(self, bs_systems, variant):
        hp, _ = bs_systems
        scalar_cols = _columns(hp.run_sql(SCALAR_QUERIES[variant]))
        table_cols = _columns(hp.run_sql(TABLE_QUERIES[variant]))
        assert sorted(scalar_cols) == sorted(table_cols)
        for name in scalar_cols:
            np.testing.assert_allclose(scalar_cols[name],
                                       table_cols[name], rtol=1e-9)

    def test_bs2_table_udf_sliced_by_horsepower(self, bs_systems):
        hp, _ = bs_systems
        compiled = hp.compile_sql(TABLE_QUERIES["bs2_med"])
        text = print_module(compiled.program.module)
        # The pricing math (cndf's exp) must be gone entirely.
        assert "@exp" not in text

    def test_bs2_table_udf_not_sliced_by_baseline(self, bs_systems):
        _, mdb = bs_systems
        before = mdb.baseline_executor().bridge.calls
        mdb.run_sql(TABLE_QUERIES["bs2_med"])
        # The baseline still pays the full black-box UDF call.
        assert mdb.baseline_executor().bridge.calls == before + 1

    def test_selectivities_are_near_paper(self, bs_systems):
        hp, _ = bs_systems
        base = _columns(hp.run_sql(SCALAR_QUERIES["bs0_base"]))
        n = len(base["spotPrice"])
        high = _columns(hp.run_sql(SCALAR_QUERIES["bs1_high"]))
        med = _columns(hp.run_sql(SCALAR_QUERIES["bs1_med"]))
        low = _columns(hp.run_sql(SCALAR_QUERIES["bs1_low"]))
        assert len(high["spotPrice"]) / n < 0.02
        assert 0.4 < len(med["spotPrice"]) / n < 0.6
        assert len(low["spotPrice"]) / n > 0.97


class TestMorganReference:
    def test_msum_matches_convolution(self):
        x = np.arange(1.0, 50.0)
        assert np.allclose(msum_reference(x, 7),
                           np.convolve(x, np.ones(7), mode="valid"))

    def test_morgan_is_deterministic(self):
        price, volume = generate_morgan(5000, seed=3)
        a = morgan_reference(100, price, volume)
        b = morgan_reference(100, price, volume)
        assert a == b


class TestBlackScholesReference:
    def test_put_call_parity(self):
        data = generate_blackscholes(2000, seed=5)
        call = calc_option_price(
            data["spotPrice"], data["strike"], data["rate"],
            data["volatility"], data["otime"],
            np.zeros_like(data["spotPrice"]))
        put = calc_option_price(
            data["spotPrice"], data["strike"], data["rate"],
            data["volatility"], data["otime"],
            np.ones_like(data["spotPrice"]))
        # C - P = S - K * exp(-rT), up to the CNDF polynomial's tolerance.
        rhs = (data["spotPrice"] - data["strike"]
               * np.exp(-data["rate"] * data["otime"]))
        np.testing.assert_allclose(call - put, rhs, atol=5e-4)

    def test_prices_nonnegative(self):
        data = generate_blackscholes(2000, seed=6)
        price = calc_option_price(
            data["spotPrice"], data["strike"], data["rate"],
            data["volatility"], data["otime"], data["optionType"])
        assert (price > -1e-6).all()


class TestExtendedTPCHQueries:
    """q3 (3-way join + top-k), q5 (6-way join) and q10 (join + wide
    group) — coverage toward the paper's full-TPC-H claim."""

    @pytest.mark.parametrize("name", ["q3", "q5", "q10"])
    def test_extended_queries_agree_across_systems(self, tpch_systems,
                                                   name):
        from repro.workloads.tpch_queries import EXTENDED_PLAIN_QUERIES
        hp, mdb = tpch_systems
        sql = EXTENDED_PLAIN_QUERIES[name]
        assert_results_match(hp.run_sql(sql), mdb.run_sql(sql))

    def test_q3_is_a_top_k(self, tpch_systems):
        from repro.workloads.tpch_queries import EXTENDED_PLAIN_QUERIES
        hp, _ = tpch_systems
        result = hp.run_sql(EXTENDED_PLAIN_QUERIES["q3"])
        revenue = result.column("revenue").data
        assert len(revenue) <= 10
        assert np.all(np.diff(revenue) <= 1e-9)  # descending


class TestQ1GroupedAggregates:
    """q1's three ``AVG`` lower to ``@group_sum`` ÷ ``@group_count``, and
    CSE shares them with the query's four ``SUM`` and its ``COUNT(*)``:
    five grouped sums and one grouped count remain, and every engine
    returns the same bits."""

    QUERIES = {"q1": PLAIN_QUERIES["q1"], "q1_udf": UDF_QUERIES["q1"]}

    @pytest.fixture(scope="class")
    def session(self):
        session = EngineSession(generate_tpch(0.01, seed=1))
        register_tpch_udfs(session)
        yield session
        assert session.metrics.counter("query.retries").value == 0
        session.close()

    @staticmethod
    def _grouped_calls(session, sql, opt_level) -> Counter:
        """How often each ``@group_*`` aggregate is called."""
        text = print_module(
            session.compile_sql(sql, opt_level=opt_level).program.module)
        return Counter(re.findall(r"@(group_\w+)\(", text))

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_optimized_ir_shares_sums_and_one_count(self, session, name):
        assert self._grouped_calls(session, self.QUERIES[name], "opt") \
            == {"group_sum": 5, "group_count": 1}

    def test_naive_ir_has_only_sums_and_counts(self, session):
        # Unshared: four SUM, three AVG sums, three AVG counts, COUNT(*).
        assert self._grouped_calls(session, self.QUERIES["q1"], "naive") \
            == {"group_sum": 7, "group_count": 4}

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_every_engine_returns_the_same_bits(self, session, name):
        def table(result):
            return [(column, array.dtype.str, array.tolist())
                    for column, array in columns_of(result).items()]

        sql = self.QUERIES[name]
        want = table(session.run_sql(sql, backend="interp",
                                     opt_level="naive"))
        for opt_level in ("naive", "opt"):
            for backend, n_threads in (("interp", 1), ("pygen", 1),
                                       ("pygen", 2), ("cgen", 1),
                                       ("baseline", 1)):
                got = table(session.run_sql(sql, backend=backend,
                                            opt_level=opt_level,
                                            n_threads=n_threads))
                assert got == want, (backend, n_threads, opt_level)
