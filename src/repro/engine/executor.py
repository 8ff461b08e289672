"""The baseline plan executor — how the MonetDB stand-in runs queries.

Execution style mirrors MAL interpretation: each plan operator runs as a
sequence of whole-column vectorized primitives, materializing every
intermediate.  Operators carry the table's own vectors, so a string column
keeps its one stored dictionary (as MonetDB keeps one string heap per
column) through every selection.  The vector primitives themselves are
shared with the HorseIR runtime (both systems use comparable kernels, the
way MonetDB's BAT algebra and HorsePower's generated code both sit on
tight loops); what differs — and what the benchmarks measure — is

* UDFs run through the black-box :class:`~repro.engine.udf_bridge.UDFBridge`
  (conversion cost, single-threaded, no cross-boundary optimization);
* no fusion: every expression node materializes a full column;
* every operator runs on the caller's thread: ``n_threads`` is accepted,
  as every backend's ``execute`` takes it, and recorded on the
  ``execute`` span.
"""

from __future__ import annotations

import numpy as np

from repro.core import builtins as hb
from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.values import ListValue, TableValue, Vector, scalar, \
    value_nbytes, vector
from repro.engine.storage import Database
from repro.engine.udf_bridge import UDFBridge
from repro.errors import ExecutorError
from repro.obs.metrics import QERROR_BUCKETS
from repro.stats import MISESTIMATE_THRESHOLD, q_error
from repro.sql import ast
from repro.sql import plan as p
from repro.sql.udf import UDFRegistry

__all__ = ["PlanExecutor"]


class PlanExecutor:
    """Interprets logical plans over a :class:`Database`.

    Not thread-safe across concurrent ``execute`` calls — each session
    (or thread) owns its own executor, which is how session isolation is
    achieved; the per-query :class:`QueryContext` passed to ``execute``
    names the tracer/metrics one run reports into."""

    def __init__(self, db: Database, udfs: UDFRegistry | None = None,
                 ctx: QueryContext | None = None):
        self.db = db
        self.udfs = udfs or UDFRegistry()
        self.bridge = UDFBridge()
        self._ctx = hb.EvalContext()
        #: The context of ``execute`` calls that pass none (untraced,
        #: private counters unless the owner bound one).
        self._default_qctx = ctx if ctx is not None else QueryContext()
        self._qctx = self._default_qctx

    def execute(self, node: p.PlanNode, n_threads: int = 1,
                ctx: QueryContext | None = None) -> TableValue:
        """Run the plan; returns the result as a table value."""
        self._qctx = ctx if ctx is not None else self._default_qctx
        with self._qctx.tracer.span("execute",
                                    n_threads=n_threads) as span:
            columns = self._exec(node)
            span.set(rows_out=_num_rows(columns))
        return TableValue([(name, columns[name]) for name, _ in node.output])

    # -- operators -------------------------------------------------------------

    def _exec(self, node: p.PlanNode) -> dict[str, Vector]:
        """Dispatch one operator, wrapped in an ``op:<Type>`` span (rows
        out recorded) when tracing is on.

        Nodes the estimator annotated (``est_rows``) additionally get
        est-vs-actual accounting: the estimate lands on the span (the
        renderer folds it into ``rows est=… actual=…``) and the
        operator's q-error feeds ``stats.q_error`` /
        ``stats.misestimates`` — with or without tracing, so metrics
        see misestimates even on untraced production runs.

        Every finished operator is one limits checkpoint and one
        profiler charge site, the baseline's counterpart of the
        interpreter's per-statement pair."""
        tracer = self._qctx.tracer
        if not tracer.enabled:
            columns = self._exec_node(node)
            self._account(node, columns)
            return columns
        with tracer.span("op:" + type(node).__name__) as span:
            columns = self._exec_node(node)
            span.set(rows_out=_num_rows(columns))
            if node.est_rows is not None:
                span.set(est_rows=node.est_rows)
            self._account(node, columns)
            return columns

    def _account(self, node: p.PlanNode,
                 columns: dict[str, Vector]) -> None:
        """What one finished operator owes the query's context."""
        qctx = self._qctx
        if node.est_rows is not None:
            q = q_error(node.est_rows, _num_rows(columns))
            qctx.metrics.histogram("stats.q_error",
                                   bounds=QERROR_BUCKETS).observe(q)
            if q > MISESTIMATE_THRESHOLD:
                qctx.metrics.counter("stats.misestimates").inc()
        profile = qctx.profile
        if profile.enabled and not isinstance(node, p.Scan):
            # Full materialization: every operator output is a fresh
            # set of columns (a string costs its 4-byte codes).  A scan
            # hands out the stored vectors, as ``@load_table`` does in
            # the HorseIR engines, and is not charged.  The peak is the
            # largest single output (inputs still live are not counted).
            nbytes = sum(value_nbytes(v) for v in columns.values())
            profile.record(nbytes, site="op:" + type(node).__name__,
                           count=len(columns))
            profile.update_peak(nbytes)
        limits = qctx.limits
        if limits is not None:
            # After the operator, not before it: plan recursion enters
            # every node on the way down before any work is done, so an
            # entry check would see the clock only once.
            limits.check("operator")

    def _exec_node(self, node: p.PlanNode) -> dict[str, Vector]:
        self._qctx.metrics.counter("exec.operators").inc()
        if isinstance(node, p.Scan):
            table = self.db.table(node.table).to_table_value()
            return {c: table.column(c) for c in node.columns}
        if isinstance(node, p.Filter):
            return self._exec_filter(node)
        if isinstance(node, p.Project):
            return self._exec_project(node)
        if isinstance(node, p.Join):
            return self._exec_join(node)
        if isinstance(node, p.GroupAggregate):
            return self._exec_group(node)
        if isinstance(node, p.Sort):
            return self._exec_sort(node)
        if isinstance(node, p.Limit):
            columns = self._exec(node.child)
            return _fetch(columns, slice(None, node.count))
        if isinstance(node, p.TableUDF):
            return self._exec_table_udf(node)
        raise ExecutorError(f"unknown plan node {type(node).__name__}")

    def _exec_filter(self, node: p.Filter) -> dict[str, Vector]:
        columns = self._exec(node.child)
        mask = self._eval(node.predicate, columns)
        mask = np.asarray(_data(mask), dtype=np.bool_)
        if mask.ndim == 0:
            raise ExecutorError("filter predicate produced a scalar")
        # One candidate list of row ids, every column fetched through it.
        rows = hb.selection(mask)
        return {name: hb.select(columns[name], rows)
                for name, _ in node.output}

    def _exec_project(self, node: p.Project) -> dict[str, Vector]:
        columns = self._exec(node.child)
        n = _num_rows(columns)
        out: dict[str, Vector] = {}
        for (name, expr), (_, type_) in zip(node.items, node.output):
            value = self._eval(expr, columns)
            out[name] = value if isinstance(value, Vector) \
                else Vector(type_, _full(value, n))
        return out

    def _exec_join(self, node: p.Join) -> dict[str, Vector]:
        left = self._exec(node.left)
        right = self._exec(node.right)
        pair = hb.get("join_index").run(
            [_keys(left, node.left_keys), _keys(right, node.right_keys),
             scalar(node.kind, ht.SYM)], self._ctx)
        left_names = set(node.left.output_names())
        return {name: hb.select(left[name], pair[0].data)
                if name in left_names
                else hb.select(right[name], pair[1].data)
                for name, _ in node.output}

    def _exec_group(self, node: p.GroupAggregate) -> dict[str, Vector]:
        columns = self._exec(node.child)
        types = dict(node.output)
        out: dict[str, Vector] = {}
        if not node.keys:
            for name, fn, column in node.aggregates:
                if fn == "count":
                    any_col = column or next(iter(columns))
                    value = len(columns[any_col])
                else:
                    reducer = {"sum": np.sum, "avg": np.mean,
                               "min": np.min, "max": np.max}[fn]
                    value = reducer(columns[column].data)
                out[name] = Vector(types[name],
                                   np.atleast_1d(np.asarray(value)))
            return out

        grouped = hb.get("group").run([columns[k] for k in node.keys],
                                      self._ctx)
        key_index = grouped[0].data
        codes = grouped[1]
        ngroups = Vector(ht.I64, np.array([len(key_index)],
                                          dtype=np.int64))
        for key in node.keys:
            out[key] = hb.select(columns[key], key_index)

        def aggregate(fn, values):
            return hb.get(f"group_{fn}").run([values, codes, ngroups],
                                             self._ctx)

        for name, fn, column in node.aggregates:
            if fn == "count":
                out[name] = aggregate("count", codes)
            elif fn == "avg":
                out[name] = Vector(types[name], np.true_divide(
                    aggregate("sum", columns[column]).data,
                    aggregate("count", codes).data))
            else:
                out[name] = aggregate(fn, columns[column])
        return out

    def _exec_sort(self, node: p.Sort) -> dict[str, Vector]:
        columns = self._exec(node.child)
        ascending = Vector(ht.BOOL, np.array([asc for _, asc in node.keys],
                                             dtype=np.bool_))
        order = hb.get("order").run(
            [_keys(columns, [name for name, _ in node.keys]), ascending],
            self._ctx).data
        return _fetch(columns, order)

    def _exec_table_udf(self, node: p.TableUDF) -> dict[str, Vector]:
        columns = self._exec(node.child)
        udf = self.udfs.get(node.udf_name)
        arrays = [columns[c].data for c in node.input_columns]
        results = self.bridge.call_table(udf, arrays)
        return {name: Vector(type_, array)
                for (name, type_), array in zip(node.output, results)}

    # -- expression evaluation -----------------------------------------------

    def _eval(self, expr: ast.Expr, columns: dict[str, Vector]):
        """Vectorized, fully-materializing expression evaluation: a
        column reference is its vector, anything else NumPy."""
        if isinstance(expr, ast.Col):
            try:
                return columns[expr.name]
            except KeyError:
                raise ExecutorError(
                    f"column {expr.name!r} not available; have "
                    f"{sorted(columns)}") from None
        if isinstance(expr, ast.IntLit):
            return np.int64(expr.value)
        if isinstance(expr, ast.FloatLit):
            return np.float64(expr.value)
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.DateLit):
            return np.datetime64(expr.value, "D")
        if isinstance(expr, ast.UnOp):
            operand = self._operand(expr.operand, columns)
            if expr.op == "not":
                return np.logical_not(operand)
            return np.negative(operand)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, columns)
        if isinstance(expr, ast.FuncCall):
            return self._eval_call(expr, columns)
        if isinstance(expr, ast.CaseWhen):
            if expr.else_expr is not None:
                result = self._operand(expr.else_expr, columns)
            else:
                result = np.int64(0)
            for cond, value in reversed(expr.whens):
                mask = self._operand(cond, columns)
                result = np.where(np.asarray(mask, dtype=np.bool_),
                                  self._operand(value, columns), result)
            return result
        if isinstance(expr, ast.InList):
            value = self._eval(expr.expr, columns)
            pool = [self._operand(i, columns) for i in expr.items]
            if _is_str(value):
                # Strings: the @member builtin, once per dictionary entry.
                result = hb.get("member").run(
                    [_strings(value), vector(pool, ht.STR)],
                    self._ctx).data
            else:
                result = np.isin(_data(value), np.asarray(pool))
            return np.logical_not(result) if expr.negated else result
        if isinstance(expr, ast.Between):
            value = self._operand(expr.expr, columns)
            low = self._operand(expr.low, columns)
            high = self._operand(expr.high, columns)
            result = np.logical_and(value >= low, value <= high)
            return np.logical_not(result) if expr.negated else result
        raise ExecutorError(
            f"cannot evaluate expression {type(expr).__name__}")

    def _operand(self, expr: ast.Expr, columns: dict[str, Vector]):
        """``expr``'s value for NumPy: a column as its ``.data``."""
        return _data(self._eval(expr, columns))

    def _eval_binop(self, expr: ast.BinOp,
                    columns: dict[str, Vector]):
        if expr.op == "like":
            values = self._eval(expr.left, columns)
            pattern = self._eval(expr.right, columns)
            return hb.get("like").run(
                [_strings(values), scalar(pattern, ht.STR)],
                self._ctx).data
        left = self._operand(expr.left, columns)
        right = self._operand(expr.right, columns)
        table = {
            "+": np.add, "-": np.subtract, "*": np.multiply,
            "/": np.true_divide,
            "=": np.equal, "<>": np.not_equal,
            "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal,
            "and": np.logical_and, "or": np.logical_or,
        }
        fn = table.get(expr.op)
        if fn is None:
            raise ExecutorError(f"unknown operator {expr.op!r}")
        return fn(left, right)

    def _eval_call(self, expr: ast.FuncCall,
                   columns: dict[str, Vector]):
        if self.udfs.is_scalar(expr.name):
            n = _num_rows(columns)
            arrays = [_full(self._operand(arg, columns), n)
                      for arg in expr.args]
            return self.bridge.call_scalar(self.udfs.get(expr.name),
                                           arrays)
        name = expr.name.lower()
        if name in ("sum", "avg", "min", "max", "count"):
            raise ExecutorError(
                f"aggregate {name} outside of a GroupAggregate node")
        raise ExecutorError(f"unknown function {expr.name!r}")


def _num_rows(columns: dict[str, Vector]) -> int:
    for vec in columns.values():
        return len(vec)
    return 0


def _full(value, n: int) -> np.ndarray:
    """A computed value as a column: a scalar repeated ``n`` times."""
    array = np.asarray(value)
    return np.full(n, array[()]) if array.ndim == 0 else array


def _data(value):
    """A column as its NumPy array; a computed value as it is."""
    return value.data if isinstance(value, Vector) else value


def _is_str(value) -> bool:
    return value.type is ht.STR if isinstance(value, Vector) \
        else np.asarray(value).dtype == object


def _strings(value) -> Vector:
    """A string operand: a column on its own dictionary, or a literal
    or computed strings as a fresh vector."""
    if isinstance(value, Vector):
        return value
    return Vector(ht.STR, np.atleast_1d(np.asarray(value, dtype=object)))


def _fetch(columns: dict[str, Vector], rows) -> dict[str, Vector]:
    """Every column at ``rows`` (ids, a slice or an order)."""
    return {name: hb.select(vec, rows) for name, vec in columns.items()}


def _keys(columns: dict[str, Vector], names: list[str]):
    """The key operand of @group/@order/@join_index: one column, or a
    list of them."""
    if len(names) == 1:
        return columns[names[0]]
    return ListValue([columns[name] for name in names])
