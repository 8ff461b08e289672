"""Def/use facts over HorseIR statement blocks.

Which variables a block reads and which it assigns, nested ``if`` /
``while`` bodies included: the liveness questions fusion, join
predicate motion, lint and the optimizer's analyses ask of a block.
"""

from __future__ import annotations

from repro.core import ir

__all__ = ["block_defs", "block_uses"]


def stmt_uses(stmt: ir.Stmt) -> set[str]:
    """Variables read by a statement (shallow: not nested bodies)."""
    if isinstance(stmt, (ir.Assign, ir.Return)):
        return set(ir.expr_vars(stmt.expr))
    if isinstance(stmt, (ir.If, ir.While)):
        return set(ir.expr_vars(stmt.cond))
    return set()


def block_defs(body: list[ir.Stmt]) -> set[str]:
    """All variables assigned anywhere in ``body`` (recursing into bodies)."""
    defs: set[str] = set()
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            defs.add(stmt.target)
        elif isinstance(stmt, ir.If):
            defs |= block_defs(stmt.then_body)
            defs |= block_defs(stmt.else_body)
        elif isinstance(stmt, ir.While):
            defs |= block_defs(stmt.body)
    return defs


def block_uses(body: list[ir.Stmt]) -> set[str]:
    """All variables read anywhere in ``body`` (recursing into bodies)."""
    uses: set[str] = set()
    for stmt in body:
        uses |= stmt_uses(stmt)
        if isinstance(stmt, ir.If):
            uses |= block_uses(stmt.then_body)
            uses |= block_uses(stmt.else_body)
        elif isinstance(stmt, ir.While):
            uses |= block_uses(stmt.body)
    return uses
