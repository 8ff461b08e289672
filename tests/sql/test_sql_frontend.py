"""Unit tests for the SQL frontend: lexer/parser, planner (pushdown,
pruning, aggregation planning), plan JSON, and plan→HorseIR."""

import numpy as np
import pytest

from repro.core import types as ht
from repro.errors import CatalogError, PlanError, SQLSyntaxError
from repro.sql import ast
from repro.sql import plan as p
from repro.sql.catalog import Catalog, TableSchema
from repro.sql.parser import parse_sql
from repro.sql.plan import plan_to_json
from repro.sql.planner import plan_query
from repro.sql.plan_to_ir import json_plan_to_module
from repro.sql.udf import ScalarUDF, TableUDFDef, UDFRegistry


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add(TableSchema("t", [
        ("a", ht.I64), ("b", ht.F64), ("c", ht.STR), ("d", ht.DATE),
    ]))
    cat.add(TableSchema("u", [
        ("k", ht.I64), ("v", ht.F64),
    ]))
    return cat


class TestParser:
    def test_simple_select(self):
        select = parse_sql("SELECT a, b FROM t")
        assert len(select.items) == 2
        assert isinstance(select.from_items[0], ast.TableRef)

    def test_keywords_case_insensitive(self):
        select = parse_sql("select A from T where A > 1 group by A")
        assert select.where is not None
        assert len(select.group_by) == 1

    def test_expression_precedence(self):
        select = parse_sql("SELECT a + b * 2 AS x FROM t")
        expr = select.items[0].expr
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_and_binds_tighter_than_or(self):
        select = parse_sql(
            "SELECT a FROM t WHERE a = 1 OR a = 2 AND b > 0")
        assert select.where.op == "or"

    def test_string_escaping(self):
        select = parse_sql("SELECT a FROM t WHERE c = 'it''s'")
        assert select.where.right.value == "it's"

    def test_date_and_interval_literals(self):
        select = parse_sql(
            "SELECT a FROM t WHERE d <= DATE '1998-12-01' "
            "- INTERVAL '90' DAY")
        right = select.where.right
        assert isinstance(right, ast.BinOp)
        assert isinstance(right.left, ast.DateLit)
        assert isinstance(right.right, ast.IntervalLit)
        assert right.right.amount == 90

    def test_between_in_like(self):
        select = parse_sql(
            "SELECT a FROM t WHERE b BETWEEN 1 AND 2 "
            "AND c IN ('x', 'y') AND c LIKE 'PRO%'")
        conjuncts = []

        def flatten(e):
            if isinstance(e, ast.BinOp) and e.op == "and":
                flatten(e.left)
                flatten(e.right)
            else:
                conjuncts.append(e)
        flatten(select.where)
        kinds = [type(c).__name__ for c in conjuncts]
        assert kinds == ["Between", "InList", "BinOp"]

    def test_not_variants(self):
        select = parse_sql(
            "SELECT a FROM t WHERE b NOT BETWEEN 1 AND 2 "
            "AND c NOT IN ('x')")
        assert select.where.left.negated
        assert select.where.right.negated

    def test_case_when(self):
        select = parse_sql(
            "SELECT SUM(CASE WHEN a > 1 THEN b ELSE 0.0 END) AS s "
            "FROM t")
        case = select.items[0].expr.args[0]
        assert isinstance(case, ast.CaseWhen)
        assert case.else_expr is not None

    def test_order_by_and_limit(self):
        select = parse_sql(
            "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 5")
        assert select.order_by[0][1] is False
        assert select.order_by[1][1] is True
        assert select.limit == 5

    def test_derived_table(self):
        select = parse_sql(
            "SELECT x FROM (SELECT a AS x FROM t) AS sub")
        assert isinstance(select.from_items[0], ast.SubqueryRef)

    def test_table_udf_call(self):
        select = parse_sql(
            "SELECT p FROM myUdf((SELECT a, b FROM t)) AS x")
        ref = select.from_items[0]
        assert isinstance(ref, ast.TableUDFRef)
        assert ref.name == "myUdf"

    def test_explicit_join(self):
        select = parse_sql(
            "SELECT a FROM t INNER JOIN u ON a = k")
        join = select.from_items[1]
        assert join[0] == "join"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            parse_sql("SELECT a FROM t 123")

    def test_unterminated_expression_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a + FROM t")


class TestPlanner:
    def test_single_table_filter_pushdown_structure(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT a FROM t WHERE b > 1"), catalog)
        # Project (the SELECT list) over Filter over Scan.
        assert isinstance(plan, p.Project)
        assert isinstance(plan.child, p.Filter)
        assert isinstance(plan.child.child, p.Scan)

    def test_scan_columns_are_pruned(self, catalog):
        plan = plan_query(parse_sql("SELECT a FROM t"), catalog)
        scan = plan
        while not isinstance(scan, p.Scan):
            scan = scan.child
        assert scan.columns == ["a"]

    def test_comma_join_extracts_equi_keys(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT SUM(v) AS s FROM t, u WHERE a = k AND b > 0"),
            catalog)
        join = _find(plan, p.Join)
        assert join is not None
        assert (join.left_keys, join.right_keys) in ([(["a"], ["k"]),
                                                      (["k"], ["a"])])

    def test_single_table_predicates_pushed_below_join(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT SUM(v) AS s FROM t, u WHERE a = k AND b > 0"),
            catalog)
        join = _find(plan, p.Join)
        # The b > 0 filter must sit under the join, not above it.
        sides = [join.left, join.right]
        assert any(isinstance(side, p.Filter) for side in sides)

    def test_cross_join_without_keys_rejected(self, catalog):
        with pytest.raises(PlanError, match="equi-join"):
            plan_query(parse_sql("SELECT a FROM t, u WHERE b > 0"),
                       catalog)

    def test_aggregation_splits_into_projection_and_group(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT c, SUM(a * b) AS s FROM t GROUP BY c"), catalog)
        group = _find(plan, p.GroupAggregate)
        assert group.keys == ["c"]
        assert group.aggregates[0][1] == "sum"
        assert isinstance(group.child, p.Project)

    def test_expression_over_aggregates(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT 100.0 * SUM(a) / SUM(b) AS pct FROM t"), catalog)
        assert isinstance(plan, p.Project)
        group = _find(plan, p.GroupAggregate)
        assert len(group.aggregates) == 2

    def test_bare_column_outside_group_by_rejected(self, catalog):
        with pytest.raises(PlanError, match="GROUP BY"):
            plan_query(parse_sql("SELECT c, SUM(a) AS s FROM t"),
                       catalog)

    def test_unknown_column_rejected(self, catalog):
        with pytest.raises((PlanError, CatalogError)):
            plan_query(parse_sql("SELECT nope FROM t"), catalog)

    def test_interval_folding(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT a FROM t "
            "WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY"), catalog)
        filt = _find(plan, p.Filter)
        assert isinstance(filt.predicate.right, ast.DateLit)
        assert filt.predicate.right.value == "1998-09-02"

    def test_month_interval_folding(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT a FROM t "
            "WHERE d < DATE '1995-09-01' + INTERVAL '1' MONTH"), catalog)
        filt = _find(plan, p.Filter)
        assert filt.predicate.right.value == "1995-10-01"

    def test_filter_pushes_through_passthrough_projection(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT x FROM (SELECT a AS x, b AS y FROM t) AS s "
            "WHERE x > 3"), catalog)
        # The filter lands below the projection, on the scan.
        node = plan
        seen = []
        while True:
            seen.append(type(node).__name__)
            children = node.children()
            if not children:
                break
            node = children[0]
        assert seen.index("Filter") > seen.index("Project") \
            or "Filter" not in seen[:seen.index("Scan")]

    def test_udf_predicate_not_pushed_below_join(self, catalog):
        udfs = UDFRegistry()
        udfs.register(ScalarUDF("f", [ht.F64], ht.F64))
        plan = plan_query(parse_sql(
            "SELECT SUM(v) AS s FROM t, u "
            "WHERE a = k AND f(b) > 0"), catalog, udfs)
        filt = _find(plan, p.Filter)
        assert isinstance(filt.child, p.Join)

    def test_table_udf_is_a_pruning_barrier(self, catalog):
        udfs = UDFRegistry()
        udfs.register(TableUDFDef(
            "tf", [ht.I64, ht.F64],
            [("o1", ht.F64), ("o2", ht.F64)]))
        plan = plan_query(parse_sql(
            "SELECT o1 FROM tf((SELECT a, b FROM t))"), catalog, udfs)
        udf_node = _find(plan, p.TableUDF)
        # Both declared outputs survive pruning (black box), and both
        # inputs are produced.
        assert [name for name, _ in udf_node.output] == ["o1", "o2"]
        assert udf_node.input_columns == ["a", "b"]


class TestPlanJSON:
    def test_json_structure(self, catalog):
        plan = plan_query(parse_sql(
            "SELECT c, SUM(b) AS s FROM t WHERE a > 1 GROUP BY c "
            "ORDER BY c LIMIT 3"), catalog)
        data = plan_to_json(plan)
        ops = []

        def walk(node):
            ops.append(node["op"])
            for key in ("child", "left", "right"):
                if key in node:
                    walk(node[key])
        walk(data)
        # The outer project renames agg outputs; the inner one computes
        # aggregate arguments.
        assert ops == ["limit", "sort", "project", "group", "project",
                       "filter", "scan"]

    def test_translated_module_verifies(self, catalog):
        from repro.core.verify import verify_module
        plan = plan_query(parse_sql(
            "SELECT c, SUM(b) AS s FROM t WHERE a > 1 AND c LIKE 'x%' "
            "GROUP BY c"), catalog)
        module = json_plan_to_module(plan_to_json(plan))
        verify_module(module)

    def test_translated_module_executes(self, catalog):
        from repro.core.interp import run_module
        from repro.core.values import TableValue, from_numpy

        table = TableValue([
            ("a", from_numpy(np.array([1, 2, 3], dtype=np.int64))),
            ("b", from_numpy(np.array([1.0, 2.0, 3.0]))),
        ])
        plan = plan_query(parse_sql(
            "SELECT SUM(b) AS s FROM t WHERE a >= 2"), catalog)
        module = json_plan_to_module(plan_to_json(plan))
        result = run_module(module, {"t": table})
        assert result.column("s").data[0] == pytest.approx(5.0)


class TestCatalog:
    def test_duplicate_table_rejected(self, catalog):
        with pytest.raises(CatalogError, match="duplicate"):
            catalog.add(TableSchema("t", [("z", ht.F64)]))

    def test_duplicate_column_across_tables_rejected(self, catalog):
        with pytest.raises(CatalogError, match="globally unique"):
            catalog.add(TableSchema("w", [("a", ht.F64)]))

    def test_owner_lookup(self, catalog):
        assert catalog.owner_of("v") == "u"
        assert catalog.owner_of("nope") is None
        assert catalog.column_type("b") == ht.F64


def _find(node, kind):
    if isinstance(node, kind):
        return node
    for child in node.children():
        found = _find(child, kind)
        if found is not None:
            return found
    return None


class TestDistinctAndHaving:
    @pytest.fixture
    def db_systems(self):
        from repro.engine.storage import Database
        from repro.engine import EngineSession

        db = Database()
        db.create_table("s", {
            "grp": np.array(["a", "b", "a", "c", "b", "a"],
                            dtype=object),
            "val": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        })
        return (EngineSession(db),
                EngineSession(db, default_backend="baseline"))

    def test_select_distinct(self, db_systems):
        hp, mdb = db_systems
        sql = "SELECT DISTINCT grp FROM s ORDER BY grp"
        hp_result = hp.run_sql(sql)
        mdb_result = mdb.run_sql(sql)
        assert hp_result.column("grp").data.tolist() == ["a", "b", "c"]
        assert mdb_result.column("grp").data.tolist() == ["a", "b", "c"]

    def test_select_distinct_expression(self, db_systems):
        hp, _ = db_systems
        sql = "SELECT DISTINCT val * 0 AS z FROM s"
        result = hp.run_sql(sql)
        assert result.num_rows == 1

    def test_having_filters_groups(self, db_systems):
        hp, mdb = db_systems
        sql = """
        SELECT grp, SUM(val) AS total
        FROM s
        GROUP BY grp
        HAVING SUM(val) > 6
        ORDER BY grp
        """
        hp_result = hp.run_sql(sql)
        mdb_result = mdb.run_sql(sql)
        assert hp_result.column("grp").data.tolist() == ["a", "b"]
        assert hp_result.column("total").data.tolist() == [10.0, 7.0]
        assert mdb_result.column("grp").data.tolist() == ["a", "b"]

    def test_having_with_aggregate_not_in_select(self, db_systems):
        hp, mdb = db_systems
        sql = """
        SELECT grp
        FROM s
        GROUP BY grp
        HAVING COUNT(*) >= 2
        ORDER BY grp
        """
        assert hp.run_sql(sql).column("grp").data.tolist() == ["a", "b"]
        assert mdb.run_sql(sql).column("grp").data.tolist() == ["a", "b"]

    def test_having_without_group_rejected(self, db_systems):
        hp, _ = db_systems
        with pytest.raises(PlanError, match="HAVING"):
            hp.run_sql("SELECT val FROM s HAVING val > 1")
