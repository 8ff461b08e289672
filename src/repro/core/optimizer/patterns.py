"""Pattern-based fusion (paper Section 3.4.1).

A pattern is an operator sequence the compiler recognizes and rewrites into
a form with a cheaper template.  The repertoire implemented here covers the
SQL shapes the evaluation exercises:

* ``avg-split`` — ``@avg(x)`` becomes ``@div(@sum(x), @count(x))`` so the
  average participates in loop fusion (plain reductions fuse; avg needs a
  two-part accumulator otherwise).
* ``masked-dot`` — the Figure 2/3 sequence ``m = pred; a = @compress(m, x);
  b = @compress(m, y); p = @mul(a, b); s = @sum(p)`` collapses to
  ``s = @dot_masked(m, x, y)``: one multiply-add pass without gathering the
  compressed operands.
* ``masked-sum`` — ``a = @compress(m, x); s = @sum(a)`` collapses to
  ``s = @sum_masked(m, x)``.
* ``redundant-cast`` — ``x = check_cast(v, T)`` becomes the alias
  ``x = v`` when every definition of ``v`` declares exactly ``T``:
  assignment coerces to the declared type, so the cast is an identity.
  List-forwarding creates these when it substitutes an already-cast
  column into a table UDF's output cast.

Patterns only fire when every interior value has a single consumer (the
rewrite removes those values), which the block dependence graph provides.
"""

from __future__ import annotations

from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import (consistent_types,
                                           redundant_casts)
from repro.core.depgraph import block_uses, build_depgraph
from repro.core.optimizer import analysis

__all__ = ["apply_patterns"]


def apply_patterns(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    taken = analysis.method_names(method)
    fresh = analysis.fresh_namer(taken)
    changed = _rewrite_body(method.body, fresh)
    changed |= _drop_redundant_casts(method)
    return changed


def _drop_redundant_casts(method: ir.Method) -> bool:
    """Replace ``check_cast(v, T)`` with ``v`` when ``v``'s declared
    type is consistently ``T`` (conflicting redeclarations disable the
    rewrite for that variable)."""
    casts = list(redundant_casts(method, consistent_types(method)))
    for stmt in casts:
        stmt.expr = stmt.expr.expr
    return bool(casts)


def _rewrite_body(body: list[ir.Stmt], fresh) -> bool:
    changed = False
    for stmt in body:
        if isinstance(stmt, ir.If):
            changed |= _rewrite_body(stmt.then_body, fresh)
            changed |= _rewrite_body(stmt.else_body, fresh)
        elif isinstance(stmt, ir.While):
            changed |= _rewrite_body(stmt.body, fresh)
    changed |= _split_avg(body, fresh)
    changed |= _masked_reductions(body)
    return changed


def _split_avg(body: list[ir.Stmt], fresh) -> bool:
    changed = False
    i = 0
    while i < len(body):
        stmt = body[i]
        if isinstance(stmt, ir.Assign) \
                and isinstance(stmt.expr, ir.BuiltinCall) \
                and stmt.expr.name == "avg":
            arg = stmt.expr.args[0]
            total = fresh("avg_sum")
            count = fresh("avg_cnt")
            body[i:i + 1] = [
                ir.Assign(total, ht.F64,
                          ir.BuiltinCall("sum", [arg])),
                ir.Assign(count, ht.I64,
                          ir.BuiltinCall("count", [arg])),
                ir.Assign(stmt.target, stmt.type,
                          ir.BuiltinCall("div",
                                         [ir.Var(total), ir.Var(count)])),
            ]
            changed = True
            i += 3
        else:
            i += 1
    return changed


def _masked_reductions(body: list[ir.Stmt]) -> bool:
    """Collapse compress(+mul)+sum chains into masked reductions."""
    changed = False
    while _masked_reduction_once(body):
        changed = True
    return changed


def _masked_reduction_once(body: list[ir.Stmt]) -> bool:
    graph = build_depgraph(body)
    # Variables consumed inside nested if/while bodies are invisible to the
    # block dependence graph; treat them as extra consumers so the rewrite
    # never deletes a statement they need.
    nested_uses: set[str] = set()
    for stmt in body:
        if isinstance(stmt, ir.If):
            nested_uses |= block_uses(stmt.then_body)
            nested_uses |= block_uses(stmt.else_body)
        elif isinstance(stmt, ir.While):
            nested_uses |= block_uses(stmt.body)
    producers: dict[str, int] = {}
    for i, stmt in enumerate(body):
        if isinstance(stmt, ir.Assign):
            producers[stmt.target] = i

    for i, stmt in enumerate(body):
        if not (isinstance(stmt, ir.Assign)
                and isinstance(stmt.expr, ir.BuiltinCall)
                and stmt.expr.name == "sum"
                and isinstance(stmt.expr.args[0], ir.Var)):
            continue
        operand = stmt.expr.args[0].name
        src = producers.get(operand)
        if src is None or not graph.single_consumer(src) \
                or operand in nested_uses:
            continue
        src_stmt = body[src]
        assert isinstance(src_stmt, ir.Assign)
        expr = src_stmt.expr
        if not isinstance(expr, ir.BuiltinCall):
            continue

        if expr.name == "compress":
            mask, data = expr.args
            stmt.expr = ir.BuiltinCall("sum_masked", [mask, data])
            del body[src]
            return True

        if expr.name == "mul" \
                and all(isinstance(a, ir.Var) for a in expr.args):
            left = producers.get(expr.args[0].name)
            right = producers.get(expr.args[1].name)
            if left is None or right is None:
                continue
            if not (graph.single_consumer(left)
                    and graph.single_consumer(right)):
                continue
            if expr.args[0].name in nested_uses \
                    or expr.args[1].name in nested_uses:
                continue
            left_stmt, right_stmt = body[left], body[right]
            if not (_is_compress(left_stmt) and _is_compress(right_stmt)):
                continue
            left_mask = left_stmt.expr.args[0]
            right_mask = right_stmt.expr.args[0]
            if str(left_mask) != str(right_mask):
                continue
            stmt.expr = ir.BuiltinCall(
                "dot_masked",
                [left_mask, left_stmt.expr.args[1],
                 right_stmt.expr.args[1]])
            # left and right may be the same statement (sum of a square).
            for index in sorted({src, left, right}, reverse=True):
                del body[index]
            return True
    return False


def _is_compress(stmt: ir.Stmt) -> bool:
    return (isinstance(stmt, ir.Assign)
            and isinstance(stmt.expr, ir.BuiltinCall)
            and stmt.expr.name == "compress")


def forward_list_items(method: ir.Method) -> bool:
    """Forward ``x = @list_item(l, k)`` to ``l``'s k-th element.

    After a table UDF inlines, ``main`` holds ``l = @list(c0, c1, ...)``
    followed by ``@list_item`` projections.  Forwarding each projection to
    the underlying column turns unused UDF outputs into dead code, which
    backward slicing then removes — the paper's bs2 behaviour.
    """
    single = analysis.single_assignment_vars(method)
    producers: dict[str, ir.BuiltinCall] = {}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign) and stmt.target in single \
                and isinstance(stmt.expr, ir.BuiltinCall) \
                and stmt.expr.name == "list" \
                and all(isinstance(a, ir.Var) and a.name in single
                        for a in stmt.expr.args):
            producers[stmt.target] = stmt.expr

    if not producers:
        return False
    changed = False
    for stmt in method.walk_stmts():
        if not isinstance(stmt, ir.Assign):
            continue
        expr = stmt.expr
        # Allow the projection to sit under a check_cast.
        cast = None
        if isinstance(expr, ir.Cast):
            cast = expr.type
            expr = expr.expr
        if not (isinstance(expr, ir.BuiltinCall)
                and expr.name == "list_item"
                and isinstance(expr.args[0], ir.Var)
                and isinstance(expr.args[1], ir.Literal)):
            continue
        source = producers.get(expr.args[0].name)
        if source is None:
            continue
        index = int(expr.args[1].value)
        if not (0 <= index < len(source.args)):
            continue
        replacement: ir.Expr = source.args[index]
        if cast is not None:
            replacement = ir.Cast(replacement, cast)
        stmt.expr = replacement
        changed = True
    return changed
