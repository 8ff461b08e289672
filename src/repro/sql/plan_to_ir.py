"""JSON plan → HorseIR translator (paper Section 3.1 / 3.3).

Consumes the JSON form of a logical plan (the stand-in for MonetDB's plan
trees converted to JSON) and emits a HorseIR ``main`` method:

* scans become ``@load_table`` + ``@column_value`` + ``check_cast``;
* filters become a predicate expression followed by one ``@compress`` per
  live column — exactly the Figure 2b shape;
* joins become ``@join_index`` + ``@index`` materialization;
* grouping becomes ``@group`` + segmented aggregates;
* scalar UDF calls become *method invocations* (placeholders inlined later
  by the optimizer);
* table UDF calls become a method invocation returning a list of columns,
  destructured with ``@list_item``.
"""

from __future__ import annotations

from repro.core import ir
from repro.core import types as ht
from repro.errors import PlanError
from repro.sql.udf import UDFRegistry

import numpy as np

__all__ = ["json_plan_to_method", "json_plan_to_module"]

_CMP_OPS = {"=": "eq", "<>": "neq", "<": "lt", "<=": "leq",
            ">": "gt", ">=": "geq"}
_ARITH_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def json_plan_to_module(plan_json: dict, udfs: UDFRegistry | None = None,
                        module_name: str = "Query") -> ir.Module:
    """Wrap the translated ``main`` method in a fresh module."""
    module = ir.Module(module_name)
    module.add(json_plan_to_method(plan_json, udfs))
    return module


def json_plan_to_method(plan_json: dict,
                        udfs: UDFRegistry | None = None) -> ir.Method:
    translator = _Translator(udfs or UDFRegistry())
    columns = translator.translate(plan_json)
    output_names = [name for name, _ in plan_json["output"]]
    stmts = translator.stmts

    name_atoms: list[ir.Expr] = [ir.SymbolLit(n) for n in output_names]
    names_var = translator.fresh("names")
    stmts.append(ir.Assign(names_var, ht.SYM,
                           ir.BuiltinCall("concat", name_atoms)))
    cols_var = translator.fresh("cols")
    stmts.append(ir.Assign(
        cols_var, ht.list_of(ht.WILDCARD),
        ir.BuiltinCall("list", [ir.Var(columns[n])
                                for n in output_names])))
    result_var = translator.fresh("result")
    stmts.append(ir.Assign(result_var, ht.TABLE,
                           ir.BuiltinCall("table", [ir.Var(names_var),
                                                    ir.Var(cols_var)])))
    stmts.append(ir.Return(ir.Var(result_var)))
    return ir.Method("main", [], ht.TABLE, stmts)


class _Translator:
    def __init__(self, udfs: UDFRegistry):
        self.udfs = udfs
        self.stmts: list[ir.Stmt] = []
        self._counter = 0

    def fresh(self, hint: str = "t") -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    def emit(self, hint: str, type_: ht.HorseType,
             expr: ir.Expr) -> str:
        name = self.fresh(hint)
        self.stmts.append(ir.Assign(name, type_, expr))
        return name

    # -- node dispatch --------------------------------------------------------

    def translate(self, node: dict) -> dict[str, str]:
        """Translate a plan node; returns column-name → variable map."""
        op = node["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise PlanError(f"no translation for plan op {op!r}")
        return handler(node)

    def _output_types(self, node: dict) -> dict[str, ht.HorseType]:
        return {name: ht.parse_type(spelling)
                for name, spelling in node["output"]}

    def _op_scan(self, node: dict) -> dict[str, str]:
        types = self._output_types(node)
        table_var = self.emit(
            "tbl", ht.TABLE,
            ir.BuiltinCall("load_table", [ir.SymbolLit(node["table"])]))
        columns: dict[str, str] = {}
        for column in node["columns"]:
            type_ = types.get(column, ht.WILDCARD)
            raw = ir.BuiltinCall("column_value",
                                 [ir.Var(table_var),
                                  ir.SymbolLit(column)])
            columns[column] = self.emit("c", type_, ir.Cast(raw, type_)
                                        if not type_.is_wildcard else raw)
        return columns

    def _op_filter(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        mask = self._expr(node["predicate"], columns, child_types)
        mask_var = self._as_var(mask, ht.BOOL, "mask")
        out: dict[str, str] = {}
        for name, _ in node["output"]:
            out[name] = self.emit(
                "f", child_types.get(name, ht.WILDCARD),
                ir.BuiltinCall("compress", [ir.Var(mask_var),
                                            ir.Var(columns[name])]))
        return out

    def _op_project(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        types = self._output_types(node)
        out: dict[str, str] = {}
        for name, expr_json in node["items"]:
            expr = self._expr(expr_json, columns, child_types)
            out[name] = self._as_var(expr, types.get(name, ht.WILDCARD),
                                     "p")
        return out

    def _op_join(self, node: dict) -> dict[str, str]:
        if node["kind"] != "inner":
            raise PlanError(f"unsupported join kind {node['kind']!r}")
        left_cols = self.translate(node["left"])
        right_cols = self.translate(node["right"])
        left_types = self._output_types(node["left"])
        right_types = self._output_types(node["right"])

        left_keys = self._key_list(node["left_keys"], left_cols)
        right_keys = self._key_list(node["right_keys"], right_cols)
        index_pair = self.emit(
            "ji", ht.list_of(ht.I64),
            ir.BuiltinCall("join_index",
                           [left_keys, right_keys,
                            ir.SymbolLit("inner")]))
        left_index = self.emit(
            "li", ht.I64,
            ir.BuiltinCall("list_item", [ir.Var(index_pair),
                                         ir.Literal(0, ht.I64)]))
        right_index = self.emit(
            "ri", ht.I64,
            ir.BuiltinCall("list_item", [ir.Var(index_pair),
                                         ir.Literal(1, ht.I64)]))

        out: dict[str, str] = {}
        for name, _ in node["output"]:
            if name in left_cols:
                out[name] = self.emit(
                    "j", left_types.get(name, ht.WILDCARD),
                    ir.BuiltinCall("index", [ir.Var(left_cols[name]),
                                             ir.Var(left_index)]))
            else:
                out[name] = self.emit(
                    "j", right_types.get(name, ht.WILDCARD),
                    ir.BuiltinCall("index", [ir.Var(right_cols[name]),
                                             ir.Var(right_index)]))
        return out

    def _key_list(self, keys: list[str],
                  columns: dict[str, str]) -> ir.Expr:
        if len(keys) == 1:
            return ir.Var(columns[keys[0]])
        return ir.BuiltinCall("list",
                              [ir.Var(columns[k]) for k in keys])

    def _op_group(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        types = self._output_types(node)
        keys: list[str] = node["keys"]
        out: dict[str, str] = {}

        if not keys:
            return self._global_aggregates(node, columns, child_types)

        group = self.emit(
            "g", ht.list_of(ht.I64),
            ir.BuiltinCall("group", [ir.Var(columns[k]) for k in keys]))
        key_index = self.emit(
            "ki", ht.I64,
            ir.BuiltinCall("list_item", [ir.Var(group),
                                         ir.Literal(0, ht.I64)]))
        codes = self.emit(
            "gid", ht.I64,
            ir.BuiltinCall("list_item", [ir.Var(group),
                                         ir.Literal(1, ht.I64)]))
        ngroups = self.emit(
            "ng", ht.I64, ir.BuiltinCall("len", [ir.Var(key_index)]))

        for key in keys:
            out[key] = self.emit(
                "k", child_types.get(key, ht.WILDCARD),
                ir.BuiltinCall("index", [ir.Var(columns[key]),
                                         ir.Var(key_index)]))

        def aggregate(type_, builtin, values):
            return self.emit(
                "a", type_,
                ir.BuiltinCall(builtin, [ir.Var(values), ir.Var(codes),
                                         ir.Var(ngroups)]))

        for name, fn, column in node["aggregates"]:
            if fn == "avg":
                # SUM ÷ COUNT(*), each spelled as those aggregates are,
                # so CSE shares them with the query's own SUM and COUNT.
                total = aggregate(ht.F64, "group_sum", columns[column])
                count = aggregate(ht.I64, "group_count", codes)
                out[name] = self.emit(
                    "a", types.get(name, ht.WILDCARD),
                    ir.BuiltinCall("div", [ir.Var(total), ir.Var(count)]))
            elif fn == "count":
                out[name] = aggregate(types.get(name, ht.WILDCARD),
                                      "group_count", codes)
            else:
                out[name] = aggregate(types.get(name, ht.WILDCARD),
                                      f"group_{fn}", columns[column])
        return out

    def _global_aggregates(self, node: dict, columns: dict[str, str],
                           child_types) -> dict[str, str]:
        types = self._output_types(node)
        out: dict[str, str] = {}
        for name, fn, column in node["aggregates"]:
            if fn == "count":
                target = column if column is not None \
                    else next(iter(columns), None)
                if target is None:
                    raise PlanError("count(*) over an empty projection")
                out[name] = self.emit(
                    "a", ht.I64,
                    ir.BuiltinCall("len", [ir.Var(columns[target])]))
            else:
                out[name] = self.emit(
                    "a", types.get(name, ht.WILDCARD),
                    ir.BuiltinCall(fn, [ir.Var(columns[column])]))
        return out

    def _op_sort(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        keys = node["keys"]
        key_exprs = [ir.Var(columns[name]) for name, _ in keys]
        key_arg: ir.Expr
        if len(key_exprs) == 1:
            key_arg = key_exprs[0]
        else:
            key_arg = ir.BuiltinCall("list", key_exprs)
        asc_arg = ir.BuiltinCall(
            "concat", [ir.Literal(bool(asc), ht.BOOL)
                       for _, asc in keys])
        order = self.emit("ord", ht.I64,
                          ir.BuiltinCall("order", [key_arg, asc_arg]))
        out: dict[str, str] = {}
        for name, _ in node["output"]:
            out[name] = self.emit(
                "s", child_types.get(name, ht.WILDCARD),
                ir.BuiltinCall("index", [ir.Var(columns[name]),
                                         ir.Var(order)]))
        return out

    def _op_limit(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        out: dict[str, str] = {}
        for name, _ in node["output"]:
            out[name] = self.emit(
                "l", child_types.get(name, ht.WILDCARD),
                ir.BuiltinCall("take",
                               [ir.Var(columns[name]),
                                ir.Literal(node["count"], ht.I64)]))
        return out

    def _op_table_udf(self, node: dict) -> dict[str, str]:
        columns = self.translate(node["child"])
        child_types = self._output_types(node["child"])
        udf = self.udfs.get(node["udf"])
        args: list[ir.Expr] = []
        for column in node["inputs"]:
            arg: ir.Expr = ir.Var(columns[column])
            if child_types.get(column) == ht.DATE:
                converted = ir.BuiltinCall("date_to_i64", [arg])
                arg = ir.Var(self.emit("d", ht.I64, converted))
            args.append(arg)
        result = self.emit("udf", ht.list_of(ht.WILDCARD),
                           ir.MethodCall(udf.name, args))
        out: dict[str, str] = {}
        for index, (name, type_) in enumerate(udf.output_columns):
            item = ir.BuiltinCall("list_item",
                                  [ir.Var(result),
                                   ir.Literal(index, ht.I64)])
            out[name] = self.emit("u", type_, ir.Cast(item, type_)
                                  if not type_.is_wildcard else item)
        return out

    # -- expressions -------------------------------------------------------------

    def _as_var(self, expr: ir.Expr, type_: ht.HorseType,
                hint: str) -> str:
        if isinstance(expr, ir.Var):
            return expr.name
        return self.emit(hint, type_, expr)

    def _expr(self, node: dict, columns: dict[str, str],
              types: dict[str, ht.HorseType]) -> ir.Expr:
        kind = node["kind"]
        if kind == "col":
            try:
                return ir.Var(columns[node["name"]])
            except KeyError:
                raise PlanError(
                    f"column {node['name']!r} is not available here; "
                    f"have {sorted(columns)}") from None
        if kind == "int":
            return ir.Literal(node["value"], ht.I64)
        if kind == "float":
            return ir.Literal(node["value"], ht.F64)
        if kind == "str":
            return ir.Literal(node["value"], ht.STR)
        if kind == "date":
            return ir.Literal(np.datetime64(node["value"], "D"), ht.DATE)
        if kind == "binop":
            return self._binop(node, columns, types)
        if kind == "unop":
            operand = self._expr(node["operand"], columns, types)
            if node["op"] == "not":
                return ir.BuiltinCall(
                    "not", [self._anchor(operand, columns, types)])
            return ir.BuiltinCall(
                "neg", [self._anchor(operand, columns, types)])
        if kind == "call":
            return self._call(node, columns, types)
        if kind == "case":
            return self._case(node, columns, types)
        if kind == "in":
            return self._in_list(node, columns, types)
        if kind == "between":
            return self._between(node, columns, types)
        raise PlanError(f"unknown expression kind {kind!r}")

    def _anchor(self, expr: ir.Expr, columns, types) -> ir.Expr:
        """Flatten nested calls into temporaries (3-address form)."""
        if isinstance(expr, (ir.Var, ir.Literal, ir.SymbolLit)):
            return expr
        return ir.Var(self.emit("e", ht.WILDCARD, expr))

    def _binop(self, node: dict, columns, types) -> ir.Expr:
        op = node["op"]
        left = self._anchor(self._expr(node["left"], columns, types),
                            columns, types)
        right = self._anchor(self._expr(node["right"], columns, types),
                             columns, types)
        if op in ("and", "or"):
            return ir.BuiltinCall(op, [left, right])
        if op == "like":
            return ir.BuiltinCall("like", [left, right])
        if op in _CMP_OPS:
            return ir.BuiltinCall(_CMP_OPS[op], [left, right])
        if op in _ARITH_OPS:
            return ir.BuiltinCall(_ARITH_OPS[op], [left, right])
        raise PlanError(f"unknown operator {op!r}")

    def _call(self, node: dict, columns, types) -> ir.Expr:
        name = node["name"]
        if self.udfs.is_scalar(name):
            # UDF boundary: date values cross as int64 day counts on both
            # systems (the engine's bridge converts; here it is a free
            # elementwise reinterpretation that fuses away).
            args = [self._udf_arg(a, columns, types)
                    for a in node["args"]]
            return ir.MethodCall(self.udfs.get(name).name, args)
        args = [self._anchor(self._expr(a, columns, types),
                             columns, types)
                for a in node["args"]]
        lowered = name.lower()
        if lowered in ("sum", "avg", "min", "max"):
            return ir.BuiltinCall(lowered, args)
        if lowered == "count":
            return ir.BuiltinCall("count", args)
        raise PlanError(f"unknown function {name!r}")

    def _udf_arg(self, node: dict, columns, types) -> ir.Expr:
        if node["kind"] == "date":
            days = int(np.datetime64(node["value"], "D").astype(np.int64))
            return ir.Literal(days, ht.I64)
        expr = self._anchor(self._expr(node, columns, types),
                            columns, types)
        if node["kind"] == "col" and types.get(node["name"]) == ht.DATE:
            converted = ir.BuiltinCall("date_to_i64", [expr])
            return ir.Var(self.emit("d", ht.I64, converted))
        return expr

    def _case(self, node: dict, columns, types) -> ir.Expr:
        whens = node["whens"]
        if node["else"] is not None:
            result = self._anchor(self._expr(node["else"], columns,
                                             types), columns, types)
        else:
            result = ir.Literal(0, ht.I64)
        for cond_json, value_json in reversed(whens):
            cond = self._anchor(self._expr(cond_json, columns, types),
                                columns, types)
            value = self._anchor(self._expr(value_json, columns, types),
                                 columns, types)
            result = ir.Var(self.emit(
                "cw", ht.WILDCARD,
                ir.BuiltinCall("if_else", [cond, value, result])))
        return result

    def _in_list(self, node: dict, columns, types) -> ir.Expr:
        expr = self._anchor(self._expr(node["expr"], columns, types),
                            columns, types)
        items = [self._expr(i, columns, types) for i in node["items"]]
        pool = self._anchor(ir.BuiltinCall("concat", items), columns,
                            types)
        member = ir.BuiltinCall("member", [expr, pool])
        if node["negated"]:
            anchored = self._anchor(member, columns, types)
            return ir.BuiltinCall("not", [anchored])
        return member

    def _between(self, node: dict, columns, types) -> ir.Expr:
        expr = self._anchor(self._expr(node["expr"], columns, types),
                            columns, types)
        low = self._anchor(self._expr(node["low"], columns, types),
                           columns, types)
        high = self._anchor(self._expr(node["high"], columns, types),
                            columns, types)
        lower = self._anchor(ir.BuiltinCall("geq", [expr, low]),
                             columns, types)
        upper = self._anchor(ir.BuiltinCall("leq", [expr, high]),
                             columns, types)
        result = ir.BuiltinCall("and", [lower, upper])
        if node["negated"]:
            anchored = self._anchor(result, columns, types)
            return ir.BuiltinCall("not", [anchored])
        return result
