"""Constant propagation and folding.

Literal assignments to single-assignment variables are substituted into
their uses, and pure elementwise builtins whose arguments are all literals
are folded by evaluating them once at compile time.

One mask identity is folded as well: ``x = @gt(t, 0)`` with
``t = @mul(c, m)``, ``c`` a positive numeric literal and ``m`` declared
``bool``, becomes the alias ``x = m``.  A MATLAB predicate UDF returns
``1.0 .* mask`` and the SQL side tests ``> 0``; after inlining that pair
is the identity on ``m``, and folding it leaves a plain boolean tree for
join predicate motion to split.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.optimizer import analysis
from repro.core.values import Vector, scalar
from repro.errors import BuiltinError

__all__ = ["propagate_constants"]

_FOLDABLE_KINDS = ("elementwise", "reduction")


def propagate_constants(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    single = analysis.single_assignment_vars(method)
    constants: dict[str, ir.Expr] = {}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign) and stmt.target in single \
                and isinstance(stmt.expr, (ir.Literal, ir.SymbolLit)):
            constants[stmt.target] = stmt.expr
    changed = ir.rewrite_exprs(method.body,
                               lambda expr: _rewrite_expr(expr, constants))
    changed |= _fold_scaled_mask_tests(method, single)
    return changed


def _fold_scaled_mask_tests(method: ir.Method, single: set[str]) -> bool:
    """``x = @gt(@mul(c, m), 0)`` → ``x = m`` (see the module doc)."""
    tests = [stmt for stmt in method.walk_stmts()
             if isinstance(stmt, ir.Assign) and _is_zero_test(stmt.expr)]
    if not tests:
        return False
    types = analysis.declared_types(method)
    masks: dict[str, str] = {}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign) and stmt.target in single:
            mask = _scaled_mask(stmt.expr, single, types)
            if mask is None and isinstance(stmt.expr, ir.Var):
                mask = masks.get(stmt.expr.name)  # through an alias
            if mask is not None:
                masks[stmt.target] = mask
    changed = False
    for stmt in tests:
        mask = masks.get(stmt.expr.args[0].name)
        if mask is not None:
            stmt.expr = ir.Var(mask)
            changed = True
    return changed


def _is_zero_test(expr: ir.Expr) -> bool:
    """``@gt(v, 0)`` with ``v`` a variable."""
    return (isinstance(expr, ir.BuiltinCall) and expr.name == "gt"
            and len(expr.args) == 2 and isinstance(expr.args[0], ir.Var)
            and _numeric_literal(expr.args[1]) == 0)


def _scaled_mask(expr: ir.Expr, single: set[str], types: dict) \
        -> str | None:
    """``m`` when ``expr`` is ``@mul(c, m)`` or ``@mul(m, c)`` with ``c``
    a positive numeric literal and ``m`` a single-assignment ``bool``."""
    if not (isinstance(expr, ir.BuiltinCall) and expr.name == "mul"
            and len(expr.args) == 2):
        return None
    left, right = expr.args
    for scale, mask in ((left, right), (right, left)):
        value = _numeric_literal(scale)
        if value is not None and value > 0 \
                and isinstance(mask, ir.Var) and mask.name in single \
                and types.get(mask.name) == ht.BOOL:
            return mask.name
    return None


def _numeric_literal(expr: ir.Expr) -> float | None:
    if isinstance(expr, ir.Literal) and expr.type != ht.BOOL \
            and ht.is_numeric(expr.type):
        return float(expr.value)
    return None


def _rewrite_expr(expr: ir.Expr, constants: dict[str, ir.Expr]) -> ir.Expr:
    def visit(node: ir.Expr) -> ir.Expr:
        if isinstance(node, ir.Var):
            return constants.get(node.name, node)
        if isinstance(node, ir.BuiltinCall):
            folded = _try_fold(node)
            if folded is not None:
                return folded
        return node

    return ir.map_expr(expr, visit)


def _try_fold(call: ir.BuiltinCall) -> ir.Literal | None:
    if not all(isinstance(arg, ir.Literal) for arg in call.args):
        return None
    builtin = hb.BUILTINS.get(call.name)
    if builtin is None or builtin.kind not in _FOLDABLE_KINDS:
        return None
    values = [scalar(arg.value, arg.type) for arg in call.args]
    try:
        result = builtin.run(values, hb.EvalContext())
    except BuiltinError:
        return None
    if not isinstance(result, Vector) or len(result) != 1 \
            or result.type in (ht.SYM,):
        return None
    return ir.Literal(result.item(), result.type)
