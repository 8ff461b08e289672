"""Logical planner: SQL AST → optimized plan tree.

Planning pipeline (the MonetDB stand-in's optimizer):

1. constant folding (``DATE '1998-12-01' - INTERVAL '90' DAY`` → a date);
2. FROM resolution: scans, derived tables, table-UDF calls, join clauses;
   comma joins recover their hash-join keys from WHERE equi-join
   conjuncts right here, at build time;
3. WHERE decomposition into conjuncts; every conjunct the join keys did
   not consume lands in **one** ``Filter`` directly above the join tree
   (the *raw* plan);
4. aggregation planning: aggregate arguments become computed columns in a
   pre-projection, then one GroupAggregate node;
5. plan-level rewrite passes (:mod:`repro.sql.plan_passes`) run through
   the :class:`~repro.core.passes.PassManager`: **predicate pushdown**
   sinks filters below joins and through projections, then **column
   pruning** shrinks every node's column set to what its parent needs.

The planner treats scalar UDF calls as ordinary expressions (so they ride
inside Project/Filter nodes), mirroring how MonetDB plans UDF hooks.
"""

from __future__ import annotations

import numpy as np

from repro.core import builtins as hb
from repro.core import types as ht
from repro.core.passes import OptimizeStats, PassManager, resolve_pipeline
from repro.errors import PlanError
from repro.sql import ast
from repro.sql import plan as p
from repro.sql.catalog import Catalog
from repro.sql.plan_passes import _and_all, _split_conjuncts
from repro.sql.udf import UDFRegistry

__all__ = ["plan_query"]


def plan_query(select: ast.Select, catalog: Catalog,
               udfs: UDFRegistry | None = None, *,
               pipeline=None, table_stats=None,
               stats: OptimizeStats | None = None) -> p.PlanNode:
    """Plan a SELECT statement against ``catalog`` (+ registered UDFs).

    ``pipeline`` selects which plan-level passes run after the raw plan
    is built (a preset name, a comma list, or a
    :class:`~repro.core.passes.Pipeline`); the default ``O2`` preset runs
    predicate pushdown then column pruning, which every preset includes
    — only a custom ``--passes`` list can drop them.  ``stats`` (when
    given) accumulates per-pass timing in its ``pass_stats``.

    ``table_stats`` (a :class:`~repro.stats.StatsStore`, optional)
    feeds the statistics-driven passes and, afterwards, the cardinality
    estimator: every node of the final plan gets ``est_rows`` where the
    statistics cover its inputs.  The annotation runs *after* the
    passes so rebuilt nodes keep their estimates.
    """
    planner = _Planner(catalog, udfs or UDFRegistry())
    node = planner.plan_select(select)
    manager = PassManager(resolve_pipeline(pipeline))
    node = manager.run_plan(node, udfs=planner.udfs,
                            table_stats=table_stats, stats=stats)
    if table_stats:
        from repro.stats.estimate import annotate_plan
        annotate_plan(node, table_stats)
    return node


# ---------------------------------------------------------------------------
# expression utilities
# ---------------------------------------------------------------------------

def _fold_constants(expr: ast.Expr) -> ast.Expr:
    """Fold date ± interval and numeric literal arithmetic."""
    if isinstance(expr, ast.BinOp):
        left = _fold_constants(expr.left)
        right = _fold_constants(expr.right)
        if isinstance(left, ast.DateLit) and isinstance(right,
                                                        ast.IntervalLit) \
                and expr.op in ("+", "-"):
            return _shift_date(left, right, expr.op)
        if isinstance(left, (ast.IntLit, ast.FloatLit)) \
                and isinstance(right, (ast.IntLit, ast.FloatLit)) \
                and expr.op in ("+", "-", "*", "/"):
            return _fold_numeric(left, right, expr.op)
        return ast.BinOp(expr.op, left, right)
    if isinstance(expr, ast.UnOp):
        operand = _fold_constants(expr.operand)
        if expr.op == "-" and isinstance(operand, ast.IntLit):
            return ast.IntLit(-operand.value)
        if expr.op == "-" and isinstance(operand, ast.FloatLit):
            return ast.FloatLit(-operand.value)
        return ast.UnOp(expr.op, operand)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name,
                            [_fold_constants(a) for a in expr.args],
                            expr.distinct)
    if isinstance(expr, ast.CaseWhen):
        whens = [(_fold_constants(c), _fold_constants(v))
                 for c, v in expr.whens]
        else_expr = (_fold_constants(expr.else_expr)
                     if expr.else_expr is not None else None)
        return ast.CaseWhen(whens, else_expr)
    if isinstance(expr, ast.InList):
        return ast.InList(_fold_constants(expr.expr),
                          [_fold_constants(i) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_fold_constants(expr.expr),
                           _fold_constants(expr.low),
                           _fold_constants(expr.high), expr.negated)
    return expr


def _shift_date(date: ast.DateLit, interval: ast.IntervalLit,
                op: str) -> ast.DateLit:
    amount = interval.amount if op == "+" else -interval.amount
    value = np.datetime64(date.value, "D")
    if interval.unit == "day":
        value = value + np.timedelta64(amount, "D")
    elif interval.unit == "month":
        months = value.astype("datetime64[M]") + np.timedelta64(amount, "M")
        day = (value - value.astype("datetime64[M]").astype(
            "datetime64[D]")).astype(int)
        value = months.astype("datetime64[D]") + np.timedelta64(
            int(day), "D")
    else:  # year
        months = value.astype("datetime64[M]") + np.timedelta64(
            12 * amount, "M")
        day = (value - value.astype("datetime64[M]").astype(
            "datetime64[D]")).astype(int)
        value = months.astype("datetime64[D]") + np.timedelta64(
            int(day), "D")
    return ast.DateLit(str(value))


def _fold_numeric(left, right, op: str):
    a, b = left.value, right.value
    result = {"+": a + b, "-": a - b, "*": a * b,
              "/": a / b if b != 0 else float("nan")}[op]
    if isinstance(left, ast.IntLit) and isinstance(right, ast.IntLit) \
            and op != "/":
        return ast.IntLit(int(result))
    return ast.FloatLit(float(result))


def _sum_type(arg_type: ht.HorseType) -> ht.HorseType:
    """The SQL type of ``SUM`` over ``arg_type``: the ``@sum`` builtin's
    (an integer sum is an exact ``i64``)."""
    return hb.get("sum").infer([arg_type])


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if expr.name.lower() in ast.AGGREGATE_NAMES:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinOp):
        return _contains_aggregate(expr.left) \
            or _contains_aggregate(expr.right)
    if isinstance(expr, ast.UnOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.CaseWhen):
        for cond, value in expr.whens:
            if _contains_aggregate(cond) or _contains_aggregate(value):
                return True
        return expr.else_expr is not None \
            and _contains_aggregate(expr.else_expr)
    return False


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

class _Planner:
    def __init__(self, catalog: Catalog, udfs: UDFRegistry):
        self.catalog = catalog
        self.udfs = udfs
        self._derived_count = 0

    # -- type inference over a node's schema -----------------------------------

    def infer_type(self, expr: ast.Expr,
                   node: p.PlanNode) -> ht.HorseType:
        if isinstance(expr, ast.Col):
            try:
                return node.output_type(expr.name)
            except KeyError:
                raise PlanError(f"unknown column {expr.name!r}; "
                                f"available: {node.output_names()}") \
                    from None
        if isinstance(expr, ast.IntLit):
            return ht.I64
        if isinstance(expr, ast.FloatLit):
            return ht.F64
        if isinstance(expr, ast.StrLit):
            return ht.STR
        if isinstance(expr, ast.DateLit):
            return ht.DATE
        if isinstance(expr, ast.UnOp):
            if expr.op == "not":
                return ht.BOOL
            return self.infer_type(expr.operand, node)
        if isinstance(expr, ast.BinOp):
            if expr.op in ("and", "or", "=", "<>", "<", "<=", ">", ">=",
                           "like"):
                return ht.BOOL
            if expr.op == "/":
                return ht.F64
            left = self.infer_type(expr.left, node)
            right = self.infer_type(expr.right, node)
            return ht.promote(left, right)
        if isinstance(expr, (ast.InList, ast.Between)):
            return ht.BOOL
        if isinstance(expr, ast.CaseWhen):
            result = self.infer_type(expr.whens[0][1], node)
            for _, value in expr.whens[1:]:
                result = ht.promote(result,
                                    self.infer_type(value, node))
            if expr.else_expr is not None:
                result = ht.promote(result, self.infer_type(
                    expr.else_expr, node))
            return result
        if isinstance(expr, ast.FuncCall):
            name = expr.name.lower()
            if name == "sum":
                return _sum_type(self.infer_type(expr.args[0], node))
            if name == "avg":
                return ht.F64
            if name == "count":
                return ht.I64
            if name in ("min", "max"):
                return self.infer_type(expr.args[0], node)
            if self.udfs.is_scalar(expr.name):
                return self.udfs.get(expr.name).ret_type
            raise PlanError(f"unknown function {expr.name!r}")
        raise PlanError(
            f"cannot type expression {type(expr).__name__}")

    # -- FROM ---------------------------------------------------------------

    def plan_select(self, select: ast.Select) -> p.PlanNode:
        """Build the *raw* plan: joins resolved, every leftover WHERE
        conjunct in one Filter above the join tree.  Predicate pushdown
        and column pruning are plan-level passes applied by
        :func:`plan_query`, not here."""
        node = self._plan_from(select)
        conjuncts = [_fold_constants(c)
                     for c in _split_conjuncts(select.where)]
        node, conjuncts = self._resolve_crosses(node, conjuncts)
        if conjuncts:
            node = p.Filter(node, _and_all(conjuncts),
                            output=list(node.output))
        node = self._plan_projection(select, node)
        node = self._plan_order_limit(select, node)
        return node

    def _plan_from(self, select: ast.Select) -> p.PlanNode:
        if not select.from_items:
            raise PlanError("queries without FROM are unsupported")
        nodes: list[p.PlanNode] = []
        join_clauses: list[tuple[p.PlanNode, ast.Expr]] = []
        for item in select.from_items:
            if isinstance(item, tuple) and item[0] == "join":
                _, right_ref, condition = item
                join_clauses.append((self._plan_from_item(right_ref),
                                     _fold_constants(condition)))
            else:
                nodes.append(self._plan_from_item(item))
        node = nodes[0]
        for other in nodes[1:]:
            # Comma join: keys are recovered from WHERE conjuncts later by
            # _apply_filters via _try_join_condition; start with a cross
            # join marker (rejected unless keys are found).
            node = _PendingCross(node, other)
        for right, condition in join_clauses:
            node = self._make_join(node, right, condition)
        return node

    def _plan_from_item(self, item) -> p.PlanNode:
        if isinstance(item, ast.TableRef):
            schema = self.catalog.table(item.name)
            return p.Scan(item.name, schema.column_names(),
                          output=list(schema.columns))
        if isinstance(item, ast.SubqueryRef):
            return self.plan_select(item.subquery)
        if isinstance(item, ast.TableUDFRef):
            child = self.plan_select(item.subquery)
            udf = self.udfs.get(item.name)
            if udf.kind != "table":
                raise PlanError(
                    f"{item.name!r} is a scalar UDF used in FROM")
            return p.TableUDF(child, udf.name,
                              list(child.output_names()),
                              output=list(udf.output_columns))
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    def _make_join(self, left: p.PlanNode, right: p.PlanNode,
                   condition: ast.Expr) -> p.Join:
        keys = self._join_keys(left, right, condition)
        if keys is None:
            raise PlanError(
                f"unsupported join condition {condition}; only "
                f"conjunctions of column equalities are supported")
        left_keys, right_keys = keys
        return p.Join(left, right, left_keys, right_keys, "inner",
                      output=list(left.output) + list(right.output))

    def _join_keys(self, left: p.PlanNode, right: p.PlanNode,
                   condition: ast.Expr):
        left_cols = set(left.output_names())
        right_cols = set(right.output_names())
        left_keys: list[str] = []
        right_keys: list[str] = []
        for conjunct in _split_conjuncts(condition):
            if not (isinstance(conjunct, ast.BinOp)
                    and conjunct.op == "="
                    and isinstance(conjunct.left, ast.Col)
                    and isinstance(conjunct.right, ast.Col)):
                return None
            a, b = conjunct.left.name, conjunct.right.name
            if a in left_cols and b in right_cols:
                left_keys.append(a)
                right_keys.append(b)
            elif b in left_cols and a in right_cols:
                left_keys.append(b)
                right_keys.append(a)
            else:
                return None
        return (left_keys, right_keys)

    # -- comma-join resolution --------------------------------------------------

    def _resolve_crosses(self, node: p.PlanNode,
                         conjuncts: list[ast.Expr]):
        """Turn comma joins into hash joins, consuming the WHERE
        equalities that become their keys; returns (node, leftover
        conjuncts)."""
        if isinstance(node, _PendingCross):
            left, conjuncts = self._resolve_crosses(node.left, conjuncts)
            right, conjuncts = self._resolve_crosses(node.right,
                                                     conjuncts)
            left_cols = set(left.output_names())
            right_cols = set(right.output_names())
            key_conjuncts: list[ast.Expr] = []
            others: list[ast.Expr] = []
            for conjunct in conjuncts:
                if isinstance(conjunct, ast.BinOp) \
                        and conjunct.op == "=" \
                        and isinstance(conjunct.left, ast.Col) \
                        and isinstance(conjunct.right, ast.Col):
                    a, b = conjunct.left.name, conjunct.right.name
                    if (a in left_cols and b in right_cols) \
                            or (b in left_cols and a in right_cols):
                        key_conjuncts.append(conjunct)
                        continue
                others.append(conjunct)
            if not key_conjuncts:
                raise PlanError(
                    "cross join without an equi-join condition in WHERE "
                    "is unsupported")
            join = self._make_join(left, right, _and_all(key_conjuncts))
            return join, others
        if isinstance(node, p.Join):
            node.left, conjuncts = self._resolve_crosses(node.left,
                                                         conjuncts)
            node.right, conjuncts = self._resolve_crosses(node.right,
                                                          conjuncts)
            return node, conjuncts
        return node, conjuncts

    # -- SELECT list / aggregation ----------------------------------------------

    def _plan_projection(self, select: ast.Select,
                         node: p.PlanNode) -> p.PlanNode:
        items = self._expand_stars(select.items, node)
        has_aggregates = any(_contains_aggregate(item.expr)
                             for item in items)
        if select.having is not None \
                and not (has_aggregates or select.group_by):
            raise PlanError("HAVING requires GROUP BY or aggregates")
        if not has_aggregates and not select.group_by:
            plan_items = []
            output = []
            for item in items:
                name = self._item_name(item)
                expr = _fold_constants(item.expr)
                plan_items.append((name, expr))
                output.append((name, self.infer_type(expr, node)))
            if not self._is_identity_projection(plan_items, node):
                node = p.Project(node, plan_items, output=output)
            if select.distinct:
                node = self._plan_distinct(node)
            return node
        return self._plan_aggregation(select, items, node)

    @staticmethod
    def _plan_distinct(node: p.PlanNode) -> p.PlanNode:
        """SELECT DISTINCT: group on every output column, no aggregates."""
        return p.GroupAggregate(node, node.output_names(), [],
                                output=list(node.output))

    def _expand_stars(self, items: list[ast.SelectItem],
                      node: p.PlanNode) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for name in node.output_names():
                    expanded.append(ast.SelectItem(ast.Col(name), None))
            else:
                expanded.append(item)
        return expanded

    @staticmethod
    def _is_identity_projection(plan_items, node: p.PlanNode) -> bool:
        names = node.output_names()
        return (len(plan_items) == len(names)
                and all(isinstance(expr, ast.Col) and expr.name == name
                        and name == names[i]
                        for i, (name, expr) in enumerate(plan_items)))

    def _item_name(self, item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Col):
            return item.expr.name
        self._derived_count += 1
        return f"col{self._derived_count}"

    def _plan_aggregation(self, select: ast.Select,
                          items: list[ast.SelectItem],
                          node: p.PlanNode) -> p.PlanNode:
        group_keys: list[str] = []
        for expr in select.group_by:
            folded = _fold_constants(expr)
            if not isinstance(folded, ast.Col):
                raise PlanError(
                    "GROUP BY supports plain columns only")
            group_keys.append(folded.name)

        # Stage 1: a pre-projection computing every aggregate argument and
        # passing group keys through.
        pre_items: list[tuple[str, ast.Expr]] = []
        pre_output: list[tuple[str, ht.HorseType]] = []
        for key in group_keys:
            pre_items.append((key, ast.Col(key)))
            pre_output.append((key, node.output_type(key)))

        aggregates: list[tuple[str, str, str | None]] = []
        post_exprs: list[tuple[str, ast.Expr, ht.HorseType]] = []

        def plan_agg_expr(expr: ast.Expr) -> ast.Expr:
            """Replace aggregate calls with references to agg outputs."""
            if isinstance(expr, ast.FuncCall) \
                    and expr.name.lower() in ast.AGGREGATE_NAMES:
                fn = expr.name.lower()
                if fn == "count" and (not expr.args or isinstance(
                        expr.args[0], ast.Star)):
                    agg_name = f"agg{len(aggregates)}"
                    aggregates.append((agg_name, "count", None))
                    return ast.Col(agg_name)
                arg = _fold_constants(expr.args[0])
                arg_name = f"aggin{len(pre_items)}"
                pre_items.append((arg_name, arg))
                pre_output.append((arg_name,
                                   self.infer_type(arg, node)))
                agg_name = f"agg{len(aggregates)}"
                aggregates.append((agg_name, fn, arg_name))
                return ast.Col(agg_name)
            if isinstance(expr, ast.BinOp):
                return ast.BinOp(expr.op, plan_agg_expr(expr.left),
                                 plan_agg_expr(expr.right))
            if isinstance(expr, ast.UnOp):
                return ast.UnOp(expr.op, plan_agg_expr(expr.operand))
            if isinstance(expr, ast.Col):
                if expr.name not in group_keys:
                    raise PlanError(
                        f"column {expr.name!r} must appear in GROUP BY "
                        f"or inside an aggregate")
                return expr
            if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StrLit,
                                 ast.DateLit)):
                return expr
            raise PlanError(
                f"unsupported expression over aggregates: {expr}")

        final_items: list[tuple[str, ast.Expr]] = []
        for item in items:
            name = self._item_name(item)
            final_items.append((name,
                                plan_agg_expr(_fold_constants(item.expr))))

        # HAVING may introduce aggregates of its own; rewrite it before the
        # pre-projection and group schemas are frozen.
        having_expr = None
        if select.having is not None:
            having_expr = plan_agg_expr(_fold_constants(select.having))

        if not pre_items:
            # count(*) with no keys and no aggregate arguments: carry one
            # child column so row counts stay observable downstream.
            first, first_type = node.output[0]
            pre_items.append((first, ast.Col(first)))
            pre_output.append((first, first_type))
        pre = p.Project(node, pre_items, output=pre_output)
        agg_output: list[tuple[str, ht.HorseType]] = []
        for key in group_keys:
            agg_output.append((key, pre.output_type(key)))
        for agg_name, fn, col in aggregates:
            if fn == "count":
                agg_output.append((agg_name, ht.I64))
            elif fn == "sum":
                agg_output.append((agg_name,
                                   _sum_type(pre.output_type(col))))
            elif fn == "avg":
                agg_output.append((agg_name, ht.F64))
            else:
                agg_output.append((agg_name, pre.output_type(col)))
        group: p.PlanNode = p.GroupAggregate(pre, group_keys, aggregates,
                                             output=agg_output)

        if having_expr is not None:
            group = p.Filter(group, having_expr,
                             output=list(group.output))

        final_output = []
        for name, expr in final_items:
            final_output.append((name, self.infer_type(expr, group)))
        if self._is_identity_projection(final_items, group):
            return group
        return p.Project(group, final_items, output=final_output)

    # -- ORDER BY / LIMIT ----------------------------------------------------------

    def _plan_order_limit(self, select: ast.Select,
                          node: p.PlanNode) -> p.PlanNode:
        if select.order_by:
            keys: list[tuple[str, bool]] = []
            for expr, ascending in select.order_by:
                if not isinstance(expr, ast.Col):
                    raise PlanError(
                        "ORDER BY supports output columns only")
                if expr.name not in node.output_names():
                    raise PlanError(
                        f"ORDER BY column {expr.name!r} is not in the "
                        f"output")
                keys.append((expr.name, ascending))
            node = p.Sort(node, keys, output=list(node.output))
        if select.limit is not None:
            node = p.Limit(node, select.limit, output=list(node.output))
        return node


class _PendingCross(p.PlanNode):
    """Marker node for comma joins awaiting their WHERE equi-join keys."""

    def __init__(self, left: p.PlanNode, right: p.PlanNode):
        super().__init__(output=list(left.output) + list(right.output))
        self.left = left
        self.right = right

    def children(self) -> list[p.PlanNode]:
        return [self.left, self.right]
