"""Pattern-based fusion (paper Section 3.4.1).

A pattern is an operator sequence the compiler recognizes and rewrites into
a form that loop fusion handles.  Everything else fuses under the general
rule (compress, elementwise ops and a reduction tail share one loop — the
Figure 2/3 masked sum is such a segment), so the repertoire is small:

* ``avg-split`` — ``@avg(x)`` becomes ``@div(@sum(x), @count(x))`` so the
  average participates in loop fusion (plain reductions fuse; avg needs a
  two-part accumulator otherwise).
* ``redundant-cast`` — ``x = check_cast(v, T)`` becomes the alias
  ``x = v`` when every definition of ``v`` declares exactly ``T``:
  assignment coerces to the declared type, so the cast is an identity.
  ``simplify``'s list forwarding creates these when it substitutes an
  already-cast column into a table UDF's output cast.
"""

from __future__ import annotations

from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import (consistent_types,
                                           redundant_casts)
from repro.core.optimizer import analysis

__all__ = ["apply_patterns"]


def apply_patterns(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    changed = _rewrite_body(method.body, analysis.fresh_namer(method))
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
