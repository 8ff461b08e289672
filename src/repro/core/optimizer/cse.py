"""Common-subexpression elimination.

Within each straight-line block, pure builtin calls with identical
structure (the same printed form) are computed once; later occurrences
become aliases of the first result.  Only expressions over
single-assignment variables participate, so availability cannot be
invalidated by a redefinition.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core.optimizer import analysis

__all__ = ["eliminate_common_subexpressions"]


def eliminate_common_subexpressions(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    single = analysis.single_assignment_vars(method)
    return _rewrite_body(method.body, single)


def _rewrite_body(body: list[ir.Stmt], single: set[str]) -> bool:
    changed = False
    available: dict[tuple, str] = {}
    for stmt in body:
        if isinstance(stmt, ir.If):
            changed |= _rewrite_body(stmt.then_body, single)
            changed |= _rewrite_body(stmt.else_body, single)
            continue
        if isinstance(stmt, ir.While):
            changed |= _rewrite_body(stmt.body, single)
            continue
        if not isinstance(stmt, ir.Assign) or stmt.target not in single \
                or not isinstance(stmt.expr, (ir.BuiltinCall, ir.Cast)):
            continue
        key = _key(stmt.expr, single)
        if key is None:
            continue
        key = (key, stmt.type)
        existing = available.get(key)
        if existing is not None:
            stmt.expr = ir.Var(existing)
            changed = True
        else:
            available[key] = stmt.target
    return changed


def _key(expr: ir.Expr, single: set[str]):
    """A hashable key, equal exactly when the printed forms are; None
    unless ``expr`` is pure over single-assignment variables."""
    if isinstance(expr, ir.Var):
        return expr.name if expr.name in single else None
    if isinstance(expr, (ir.Literal, ir.SymbolLit)):
        return (str(expr),)
    if isinstance(expr, ir.Cast):
        inner = _key(expr.expr, single)
        return None if inner is None else ("check_cast", inner, expr.type)
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None or not builtin.is_pure:
            return None
        key = [expr.name]
        for arg in expr.args:
            part = _key(arg, single)
            if part is None:
                return None
            key.append(part)
        return tuple(key)
    return None
