"""The stats-driven ``selectivity-reorder`` plan pass: a no-op without
statistics, provably reorders Q6's filter conjuncts with them, and
keeps query output bit-identical."""

import numpy as np
import pytest

from repro.core.passes import preset, registered_pass_names
from repro.data.tpch import generate_tpch
from repro.engine import EngineSession
from repro.sql.parser import parse_sql
from repro.sql.plan_passes import reorder_by_selectivity
from repro.sql.planner import plan_query
from repro.workloads.tpch_queries import PLAIN_QUERIES

TPCH_SCALE = 0.01


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(scale_factor=TPCH_SCALE)


def _find(plan, kind):
    found = []

    def walk(node):
        if type(node).__name__ == kind:
            found.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    return found


class TestPassWiring:
    def test_registered_and_preset_placement(self):
        assert "selectivity-reorder" in registered_pass_names()
        assert "selectivity-reorder" not in preset("O0").names
        for name in ("O1", "O2"):
            assert "selectivity-reorder" in \
                [n for n, _ in preset(name).plan_passes]

    def test_noop_without_stats_preserves_identity(self, tpch_db):
        plan = plan_query(parse_sql(PLAIN_QUERIES["q6"]),
                          tpch_db.catalog())
        assert reorder_by_selectivity(plan) is plan
        assert reorder_by_selectivity(plan, None, None) is plan

    def test_plans_identical_without_stats(self, tpch_db):
        """O2 with an empty stats context must produce the same plan
        as before the pass existed (byte-identity guarantee)."""
        select = parse_sql(PLAIN_QUERIES["q6"])
        with_pass = plan_query(select, tpch_db.catalog())
        select = parse_sql(PLAIN_QUERIES["q6"])
        filters = _find(with_pass, "Filter")
        assert filters
        reordered = reorder_by_selectivity(with_pass)
        assert _find(reordered, "Filter")[0].predicate is \
            filters[0].predicate


class TestConjunctReorder:
    def test_q6_conjunct_order_changes_with_stats(self, tpch_db):
        """The acceptance criterion: the pass provably reorders at
        least one workload's filter conjuncts."""
        session = EngineSession(tpch_db)
        session.analyze()
        select = parse_sql(PLAIN_QUERIES["q6"])
        without = plan_query(select, tpch_db.catalog())
        select = parse_sql(PLAIN_QUERIES["q6"])
        with_stats = plan_query(select, tpch_db.catalog(),
                                table_stats=session.stats)
        before = str(_find(without, "Filter")[0].predicate)
        after = str(_find(with_stats, "Filter")[0].predicate)
        assert before != after
        # Same conjuncts, different order: the most selective one
        # (the BETWEEN on l_discount) moves to the front.
        assert after.startswith("(((")
        assert "BETWEEN" in after.split(" and ")[0]
        session.close()

    def test_q6_output_bit_identical_with_and_without_stats(
            self, tpch_db):
        """AND-of-masks is commutative: reordering conjuncts must not
        change a single output bit."""
        with EngineSession(tpch_db) as plain:
            baseline = plain.run_sql(PLAIN_QUERIES["q6"])
            plain_cols = {name: vec.data.copy() for name, vec
                          in baseline.columns()}
        with EngineSession(tpch_db) as analyzed:
            analyzed.analyze()
            result = analyzed.run_sql(PLAIN_QUERIES["q6"])
            stats_cols = {name: vec.data for name, vec
                          in result.columns()}
        assert plain_cols.keys() == stats_cols.keys()
        for name in plain_cols:
            assert np.array_equal(plain_cols[name], stats_cols[name]), \
                name

    def test_q1_output_bit_identical(self, tpch_db):
        with EngineSession(tpch_db) as plain:
            plain_rows = plain.run_sql(PLAIN_QUERIES["q1"])
            expected = {name: vec.data.copy() for name, vec
                        in plain_rows.columns()}
        with EngineSession(tpch_db) as analyzed:
            analyzed.analyze()
            actual = analyzed.run_sql(PLAIN_QUERIES["q1"])
            got = {name: vec.data for name, vec in actual.columns()}
        for name in expected:
            assert np.array_equal(expected[name], got[name]), name


class TestJoinSideSwap:
    SQL = ("SELECT o_orderkey AS k, l_quantity AS q "
           "FROM orders, lineitem WHERE o_orderkey = l_orderkey")

    def _join(self, db, table_stats=None):
        plan = plan_query(parse_sql(self.SQL), db.catalog(),
                          table_stats=table_stats)
        joins = _find(plan, "Join")
        assert len(joins) == 1
        return joins[0]

    def _tables_under(self, node):
        return {scan.table for scan in _find(node, "Scan")}

    def test_smaller_estimated_side_becomes_build_side(self, tpch_db):
        """``@join_index`` builds its hash table on the *right* input,
        so the pass moves the smaller side there."""
        session = EngineSession(tpch_db)
        session.analyze()
        before = self._join(tpch_db)
        after = self._join(tpch_db, table_stats=session.stats)
        assert self._tables_under(before.left) == {"orders"}
        assert self._tables_under(after.right) == {"orders"}
        assert self._tables_under(after.left) == {"lineitem"}
        # Keys swap with the inputs; output schema is preserved.
        assert after.left_keys == before.right_keys
        assert after.right_keys == before.left_keys
        assert after.output_names() == before.output_names()
        session.close()

    def test_swapped_join_returns_the_same_rows(self, tpch_db):
        """Row *order* may change when the probe side swaps, so compare
        as sorted row sets."""
        def rows(session):
            result = session.run_sql(self.SQL)
            cols = [vec.data for _, vec in result.columns()]
            return sorted(zip(*[c.tolist() for c in cols]))

        with EngineSession(tpch_db) as plain:
            expected = rows(plain)
        with EngineSession(tpch_db) as analyzed:
            analyzed.analyze()
            got = rows(analyzed)
        assert expected == got
        assert len(expected) > 0
