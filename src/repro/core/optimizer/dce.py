"""Dead-code elimination by backward slicing (paper Section 3.4.2).

Starting from the slicing criteria — return expressions, control-flow
conditions, and calls to methods that are not known-pure — every statement
whose result cannot reach a criterion is deleted.  After inlining, this is
what removes a table UDF's unused output columns (the bs2_* variants in
Table 4, where HorsePower avoids computing ``optionPrice`` entirely).
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir

__all__ = ["eliminate_dead_code", "backward_slice"]


def eliminate_dead_code(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed.

    One sweep over the slice removes everything dead: the slice marks
    only what statements with a live result read, and the sweep keeps
    every such statement, so slicing the swept body finds nothing more.
    """
    return _sweep(method.body, backward_slice(method))


def backward_slice(method: ir.Method) -> set[str]:
    """The set of variable names that can influence the method's result.

    A fixpoint over the whole body: loops make liveness circular (a loop
    body both uses and defines its carried variables), so walk until a
    walk marks no name live after passing a definition of it — one walk
    for straight-line code that defines each name before its uses.
    """
    live: set[str] = set()
    while _mark_live(method.body, live, set()):
        pass
    return live


def _mark_live(body: list[ir.Stmt], live: set[str],
               passed: set[str]) -> bool:
    """One backward walk; True when it marked live a name whose
    definition it had already passed (``passed``) and judged dead."""
    stale = False

    def mark(names) -> None:
        nonlocal stale
        for name in names:
            if name not in live:
                live.add(name)
                stale = stale or name in passed

    for stmt in reversed(body):
        if isinstance(stmt, ir.Return):
            mark(ir.expr_vars(stmt.expr))
        elif isinstance(stmt, ir.Assign):
            if stmt.target in live or _has_effects(stmt.expr):
                mark(ir.expr_vars(stmt.expr))
                mark((stmt.target,))
            passed.add(stmt.target)
        elif isinstance(stmt, ir.If):
            mark(ir.expr_vars(stmt.cond))
            stale |= _mark_live(stmt.then_body, live, passed)
            stale |= _mark_live(stmt.else_body, live, passed)
        elif isinstance(stmt, ir.While):
            mark(ir.expr_vars(stmt.cond))
            stale |= _mark_live(stmt.body, live, passed)
    return stale


def _has_effects(expr: ir.Expr) -> bool:
    """True when evaluating ``expr`` must be preserved regardless of use.

    Method calls are conservatively treated as effectful (the callee may be
    non-inlinable and opaque); all builtins in this library are pure, so a
    builtin call is removable when its result is dead.
    """
    if isinstance(expr, ir.MethodCall):
        return True
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None:
            return True
        return any(_has_effects(a) for a in expr.args)
    if isinstance(expr, ir.Cast):
        return _has_effects(expr.expr)
    return False


def _sweep(body: list[ir.Stmt], live: set[str]) -> bool:
    removed = False
    kept: list[ir.Stmt] = []
    for stmt in body:
        if isinstance(stmt, ir.Assign) and stmt.target not in live \
                and not _has_effects(stmt.expr):
            removed = True
            continue
        if isinstance(stmt, ir.If):
            removed |= _sweep(stmt.then_body, live)
            removed |= _sweep(stmt.else_body, live)
        elif isinstance(stmt, ir.While):
            removed |= _sweep(stmt.body, live)
        kept.append(stmt)
    body[:] = kept
    return removed
