"""Merging SQL-derived and MATLAB-derived HorseIR (paper Section 3.3).

The two code paths meet here: the plan translator produces a ``main``
method whose UDF invocations are placeholder method calls, and the MATLAB
frontend produces one HorseIR method per (specialized) MATLAB function.
``build_query_module`` integrates both into a single module — which the
optimizer then inlines and fuses holistically (Section 3.4.2).

A UDF's body does not depend on the query calling it, so it is lowered
once per registry entry, on the first query that references it, and
memoised there (``udf.lowered``).  Every query module receives its own
statement-level copy of the memo, so passes that rewrite statements in
place cannot reach it.
"""

from __future__ import annotations

from repro.core import ir
from repro.core import types as ht
from repro.errors import UDFError
from repro.matlang.frontend import matlab_to_module
from repro.sql.plan_to_ir import json_plan_to_method
from repro.sql.udf import UDFRegistry

__all__ = ["build_query_module", "referenced_udfs"]


def build_query_module(plan_json: dict, udfs: UDFRegistry,
                       module_name: str = "Query") -> ir.Module:
    """Translate plan + UDF sources into one merged HorseIR module."""
    module = ir.Module(module_name)
    module.add(json_plan_to_method(plan_json, udfs))
    for udf_name in referenced_udfs(plan_json, udfs):
        _merge_udf_methods(module, _lowered(udfs.get(udf_name)),
                           udf_name)
    return module


def _lowered(udf) -> ir.Module:
    """The UDF's MATLAB body as HorseIR, lowered on first use."""
    if udf.lowered is None:
        if udf.matlab_source is None:
            raise UDFError(
                f"UDF {udf.name!r} has no MATLAB source; HorsePower "
                f"cannot translate it")
        specs = [_param_spec(t) for t in udf.param_types]
        udf.lowered = matlab_to_module(udf.matlab_source, specs,
                                       module_name=f"udf_{udf.name}")
    return udf.lowered


def referenced_udfs(plan_json: dict, udfs: UDFRegistry) -> list[str]:
    """UDF names invoked anywhere in the plan, in first-use order."""
    found: list[str] = []

    def visit_expr(node) -> None:
        if not isinstance(node, dict):
            return
        if node.get("kind") == "call" and udfs.is_udf(node["name"]):
            name = udfs.get(node["name"]).name
            if name not in found:
                found.append(name)
        for value in node.values():
            if isinstance(value, dict):
                visit_expr(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, dict):
                        visit_expr(item)
                    elif isinstance(item, list):
                        for sub in item:
                            visit_expr(sub)

    def visit_node(node: dict) -> None:
        if node["op"] == "table_udf":
            name = udfs.get(node["udf"]).name
            if name not in found:
                found.append(name)
        if "predicate" in node:
            visit_expr(node["predicate"])
        for _, expr in node.get("items", []):
            visit_expr(expr)
        for key in ("child", "left", "right"):
            if key in node:
                visit_node(node[key])

    visit_node(plan_json)
    return found


def _param_spec(type_: ht.HorseType) -> tuple[str, str]:
    # Dates cross the UDF boundary as int64 day counts (see plan_to_ir).
    if type_ == ht.DATE:
        return ("i64", "vector")
    return (type_.kind, "vector")


def _merge_udf_methods(target: ir.Module, source: ir.Module,
                       entry_name: str) -> None:
    """Copy the UDF module's methods into the query module, statement
    by statement (expressions are never mutated in place, so they are
    shared).

    The MATLAB entry function may not share the UDF's registered name;
    it is renamed (the Tamer already names specializations uniquely, so
    helpers copy over as-is)."""
    entry = source.entry
    rename = {entry.name: entry_name}
    for method in source.methods.values():
        new_name = rename.get(method.name, method.name)
        if new_name in target.methods:
            raise UDFError(
                f"method name collision while merging UDF "
                f"{entry_name!r}: {new_name!r}")
        target.add(ir.Method(new_name, list(method.params),
                             method.ret_type,
                             ir.copy_body(method.body, lambda expr:
                                          _rename_expr_calls(expr, rename))))


def _rename_expr_calls(expr: ir.Expr, rename: dict[str, str]) -> ir.Expr:
    def visit(node: ir.Expr) -> ir.Expr:
        if isinstance(node, ir.MethodCall) and node.name in rename:
            return ir.MethodCall(rename[node.name], node.args)
        return node
    return ir.map_expr(expr, visit)
