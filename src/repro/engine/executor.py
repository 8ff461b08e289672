"""The baseline plan executor — how the MonetDB stand-in runs queries.

Execution style mirrors MAL interpretation: each plan operator runs as a
sequence of whole-column vectorized primitives, materializing every
intermediate.  The vector primitives themselves are shared with the
HorseIR runtime (both systems use comparable kernels, the way MonetDB's
BAT algebra and HorsePower's generated code both sit on tight loops); what
differs — and what the benchmarks measure — is

* UDFs run through the black-box :class:`~repro.engine.udf_bridge.UDFBridge`
  (conversion cost, single-threaded, no cross-boundary optimization);
* no fusion: every expression node materializes a full column;
* ``n_threads`` parallelizes only plain column work (filter/project
  chunks); the UDF path stays serial, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core import builtins as hb
from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.values import ListValue, Vector, scalar, value_nbytes
from repro.engine.storage import Database
from repro.engine.table import ColumnTable
from repro.engine.udf_bridge import UDFBridge
from repro.errors import ExecutorError
from repro.obs.metrics import QERROR_BUCKETS
from repro.stats import MISESTIMATE_THRESHOLD, q_error
from repro.sql import ast
from repro.sql import plan as p
from repro.sql.udf import UDFRegistry

__all__ = ["PlanExecutor"]

_PARALLEL_MIN_ROWS = 1 << 15


class PlanExecutor:
    """Interprets logical plans over a :class:`Database`.

    Not thread-safe across concurrent ``execute`` calls — each session
    (or thread) owns its own executor, which is how session isolation is
    achieved; the per-query :class:`QueryContext` passed to ``execute``
    names the tracer/metrics/pool one run reports into."""

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
                ctx: QueryContext | None = None) -> ColumnTable:
        """Run the plan; returns the result as a column table."""
        self._qctx = ctx if ctx is not None else self._default_qctx
        with self._qctx.tracer.span("execute",
                                    n_threads=n_threads) as span:
            columns = self._exec(node, n_threads)
            span.set(rows_out=_num_rows(columns))
        self._qctx.metrics.counter("exec.rows_produced").inc(
            _num_rows(columns))
        result = ColumnTable("result")
        for name, type_ in node.output:
            result.add_column(name, columns[name], type_)
        return result

    # -- operators -------------------------------------------------------------

    def _exec(self, node: p.PlanNode,
              n_threads: int) -> dict[str, np.ndarray]:
        """Dispatch one operator, wrapped in an ``op:<Type>`` span (rows
        out recorded) when tracing is on.

        Nodes the estimator annotated (``est_rows``) additionally get
        est-vs-actual accounting: the estimate lands on the span (the
        renderer folds it into ``rows est=… actual=…``) and the
        operator's q-error feeds ``stats.q_error`` /
        ``stats.misestimates`` — with or without tracing, so metrics
        see misestimates even on untraced production runs.

        Every finished operator is one governor checkpoint and one
        profiler charge site, the baseline's counterpart of the
        interpreter's per-statement pair."""
        tracer = self._qctx.tracer
        if not tracer.enabled:
            columns = self._exec_node(node, n_threads)
            self._account(node, columns)
            return columns
        with tracer.span("op:" + type(node).__name__) as span:
            columns = self._exec_node(node, n_threads)
            span.set(rows_out=_num_rows(columns))
            if node.est_rows is not None:
                span.set(est_rows=node.est_rows)
            self._account(node, columns)
            return columns

    def _account(self, node: p.PlanNode,
                 columns: dict[str, np.ndarray]) -> None:
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
            # set of columns.  A scan hands out the stored arrays by
            # reference, as ``@load_table`` does in the HorseIR
            # engines, and is not charged.  The peak is the largest
            # single output (inputs still live are not counted).
            nbytes = sum(value_nbytes(a) for a in columns.values())
            profile.record(nbytes, site="op:" + type(node).__name__,
                           count=len(columns))
            profile.update_peak(nbytes)
        limits = qctx.limits
        if limits.enabled:
            # After the operator, not before it: plan recursion enters
            # every node on the way down before any work is done, so an
            # entry check would see the clock only once.
            limits.check("operator")

    def _exec_node(self, node: p.PlanNode,
                   n_threads: int) -> dict[str, np.ndarray]:
        self._qctx.metrics.counter("exec.operators").inc()
        if isinstance(node, p.Scan):
            table = self.db.table(node.table)
            columns = {c: table.column(c) for c in node.columns}
            self._qctx.metrics.counter("exec.rows_scanned").inc(
                _num_rows(columns))
            return columns
        if isinstance(node, p.Filter):
            return self._exec_filter(node, n_threads)
        if isinstance(node, p.Project):
            return self._exec_project(node, n_threads)
        if isinstance(node, p.Join):
            return self._exec_join(node, n_threads)
        if isinstance(node, p.GroupAggregate):
            return self._exec_group(node, n_threads)
        if isinstance(node, p.Sort):
            return self._exec_sort(node, n_threads)
        if isinstance(node, p.Limit):
            columns = self._exec(node.child, n_threads)
            return {name: array[:node.count]
                    for name, array in columns.items()}
        if isinstance(node, p.TableUDF):
            return self._exec_table_udf(node, n_threads)
        raise ExecutorError(f"unknown plan node {type(node).__name__}")

    def _exec_filter(self, node: p.Filter,
                     n_threads: int) -> dict[str, np.ndarray]:
        columns = self._exec(node.child, n_threads)
        mask = self._eval(node.predicate, columns, n_threads)
        mask = np.asarray(mask, dtype=np.bool_)
        if mask.ndim == 0:
            raise ExecutorError("filter predicate produced a scalar")
        # One candidate list of row ids, every column fetched through it.
        rows = hb.selection(mask)
        return {name: columns[name].take(rows)
                for name, _ in node.output}

    def _exec_project(self, node: p.Project,
                      n_threads: int) -> dict[str, np.ndarray]:
        columns = self._exec(node.child, n_threads)
        n = _num_rows(columns)
        out: dict[str, np.ndarray] = {}
        for name, expr in node.items:
            value = self._eval(expr, columns, n_threads)
            array = np.asarray(value)
            if array.ndim == 0:
                array = np.full(n, array[()])
            out[name] = array
        return out

    def _exec_join(self, node: p.Join,
                   n_threads: int) -> dict[str, np.ndarray]:
        left = self._exec(node.left, n_threads)
        right = self._exec(node.right, n_threads)
        left_keys = self._key_value(node.left_keys, left, node.left)
        right_keys = self._key_value(node.right_keys, right, node.right)
        pair = hb.get("join_index").run(
            [left_keys, right_keys,
             Vector(ht.SYM, _sym_scalar(node.kind))], self._ctx)
        left_index = pair[0].data
        right_index = pair[1].data
        out: dict[str, np.ndarray] = {}
        left_names = set(node.left.output_names())
        for name, _ in node.output:
            if name in left_names:
                out[name] = left[name][left_index]
            else:
                out[name] = right[name][right_index]
        return out

    def _key_value(self, keys: list[str],
                   columns: dict[str, np.ndarray], node: p.PlanNode):
        vectors = [Vector(node.output_type(k), columns[k]) for k in keys]
        if len(vectors) == 1:
            return vectors[0]
        return ListValue(vectors)

    def _exec_group(self, node: p.GroupAggregate,
                    n_threads: int) -> dict[str, np.ndarray]:
        columns = self._exec(node.child, n_threads)
        out: dict[str, np.ndarray] = {}
        if not node.keys:
            for name, fn, column in node.aggregates:
                if fn == "count":
                    any_col = column or next(iter(columns))
                    out[name] = np.array([len(columns[any_col])],
                                         dtype=np.int64)
                else:
                    reducer = {"sum": np.sum, "avg": np.mean,
                               "min": np.min, "max": np.max}[fn]
                    out[name] = np.atleast_1d(
                        np.asarray(reducer(columns[column])))
            return out

        key_vectors = [Vector(node.child.output_type(k), columns[k])
                       for k in node.keys]
        grouped = hb.get("group").run(list(key_vectors), self._ctx)
        key_index = grouped[0].data
        codes = grouped[1]
        ngroups = Vector(ht.I64, np.array([len(key_index)],
                                          dtype=np.int64))
        for key in node.keys:
            out[key] = columns[key][key_index]
        for name, fn, column in node.aggregates:
            builtin = {"sum": "group_sum", "avg": "group_avg",
                       "min": "group_min", "max": "group_max",
                       "count": "group_count"}[fn]
            if fn == "count":
                values = codes
            else:
                values = Vector(node.child.output_type(column),
                                columns[column])
            result = hb.get(builtin).run([values, codes, ngroups],
                                         self._ctx)
            out[name] = result.data
        return out

    def _exec_sort(self, node: p.Sort,
                   n_threads: int) -> dict[str, np.ndarray]:
        columns = self._exec(node.child, n_threads)
        key_vectors = [Vector(node.child.output_type(name), columns[name])
                       for name, _ in node.keys]
        ascending = Vector(ht.BOOL, np.array([asc for _, asc in node.keys],
                                             dtype=np.bool_))
        keys_value = key_vectors[0] if len(key_vectors) == 1 \
            else ListValue(key_vectors)
        order = hb.get("order").run([keys_value, ascending],
                                    self._ctx).data
        return {name: array[order] for name, array in columns.items()}

    def _exec_table_udf(self, node: p.TableUDF,
                        n_threads: int) -> dict[str, np.ndarray]:
        columns = self._exec(node.child, n_threads)
        udf = self.udfs.get(node.udf_name)
        arrays = [columns[c] for c in node.input_columns]
        results = self.bridge.call_table(udf, arrays)
        return {name: array
                for (name, _), array in zip(udf.output_columns, results)}

    # -- expression evaluation -----------------------------------------------

    def _eval(self, expr: ast.Expr, columns: dict[str, np.ndarray],
              n_threads: int):
        """Vectorized, fully-materializing expression evaluation.

        Chunks across threads when the expression is UDF-free and the
        input is large; UDF-bearing expressions run single-threaded (the
        bridge is serial)."""
        if n_threads > 1 and not self._has_udf(expr):
            n = _num_rows(columns)
            if n >= _PARALLEL_MIN_ROWS:
                return self._eval_parallel(expr, columns, n, n_threads)
        return self._eval_serial(expr, columns)

    def _eval_parallel(self, expr: ast.Expr,
                       columns: dict[str, np.ndarray], n: int,
                       n_threads: int):
        chunk = max(_PARALLEL_MIN_ROWS // 2, n // (n_threads * 4))
        bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

        def run(bound):
            lo, hi = bound
            view = {name: (arr[lo:hi] if len(arr) == n else arr)
                    for name, arr in columns.items()}
            return np.asarray(self._eval_serial(expr, view))

        pool = self._qctx.executor(n_threads)
        parts = list(pool.map(run, bounds))
        return np.concatenate([np.atleast_1d(part) for part in parts])

    def _has_udf(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.FuncCall):
            if self.udfs.is_udf(expr.name):
                return True
            return any(self._has_udf(a) for a in expr.args)
        if isinstance(expr, ast.BinOp):
            return self._has_udf(expr.left) or self._has_udf(expr.right)
        if isinstance(expr, ast.UnOp):
            return self._has_udf(expr.operand)
        if isinstance(expr, ast.CaseWhen):
            for cond, value in expr.whens:
                if self._has_udf(cond) or self._has_udf(value):
                    return True
            return expr.else_expr is not None \
                and self._has_udf(expr.else_expr)
        if isinstance(expr, ast.InList):
            return self._has_udf(expr.expr)
        if isinstance(expr, ast.Between):
            return self._has_udf(expr.expr)
        return False

    def _eval_serial(self, expr: ast.Expr,
                     columns: dict[str, np.ndarray]):
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
            operand = self._eval_serial(expr.operand, columns)
            if expr.op == "not":
                return np.logical_not(operand)
            return np.negative(operand)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, columns)
        if isinstance(expr, ast.FuncCall):
            return self._eval_call(expr, columns)
        if isinstance(expr, ast.CaseWhen):
            if expr.else_expr is not None:
                result = self._eval_serial(expr.else_expr, columns)
            else:
                result = np.int64(0)
            for cond, value in reversed(expr.whens):
                mask = self._eval_serial(cond, columns)
                result = np.where(np.asarray(mask, dtype=np.bool_),
                                  self._eval_serial(value, columns),
                                  result)
            return result
        if isinstance(expr, ast.InList):
            value = np.asarray(self._eval_serial(expr.expr, columns))
            pool = [self._eval_serial(i, columns) for i in expr.items]
            if value.dtype == object:
                # Strings: the @member builtin, once per dictionary entry.
                items = np.empty(len(pool), dtype=object)
                items[:] = pool
                result = hb.get("member").run(
                    [Vector(ht.STR, np.atleast_1d(value)),
                     Vector(ht.STR, items)], self._ctx).data
            else:
                result = np.isin(value, np.asarray(pool))
            return np.logical_not(result) if expr.negated else result
        if isinstance(expr, ast.Between):
            value = self._eval_serial(expr.expr, columns)
            low = self._eval_serial(expr.low, columns)
            high = self._eval_serial(expr.high, columns)
            result = np.logical_and(value >= low, value <= high)
            return np.logical_not(result) if expr.negated else result
        raise ExecutorError(
            f"cannot evaluate expression {type(expr).__name__}")

    def _eval_binop(self, expr: ast.BinOp,
                    columns: dict[str, np.ndarray]):
        if expr.op == "like":
            values = np.atleast_1d(self._eval_serial(expr.left, columns))
            pattern = self._eval_serial(expr.right, columns)
            return hb.get("like").run(
                [Vector(ht.STR, values), scalar(pattern, ht.STR)],
                self._ctx).data
        left = self._eval_serial(expr.left, columns)
        right = self._eval_serial(expr.right, columns)
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
                   columns: dict[str, np.ndarray]):
        if self.udfs.is_scalar(expr.name):
            udf = self.udfs.get(expr.name)
            arrays = []
            n = _num_rows(columns)
            for arg in expr.args:
                value = np.asarray(self._eval_serial(arg, columns))
                if value.ndim == 0:
                    value = np.full(n, value[()])
                arrays.append(value)
            return self.bridge.call_scalar(udf, arrays)
        name = expr.name.lower()
        if name in ("sum", "avg", "min", "max", "count"):
            raise ExecutorError(
                f"aggregate {name} outside of a GroupAggregate node")
        raise ExecutorError(f"unknown function {expr.name!r}")


def _num_rows(columns: dict[str, np.ndarray]) -> int:
    for array in columns.values():
        return len(array)
    return 0


def _sym_scalar(value: str) -> np.ndarray:
    out = np.empty(1, dtype=object)
    out[0] = value
    return out
