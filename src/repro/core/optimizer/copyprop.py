"""Copy propagation: collapse ``t = s`` aliases.

Only single-assignment targets whose source is itself single-assignment are
propagated — that is sufficient after inlining, which introduces exactly
this kind of alias when binding read-only parameters.
"""

from __future__ import annotations

from repro.core import ir
from repro.core.optimizer import analysis

__all__ = ["propagate_copies"]


def propagate_copies(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    single = analysis.single_assignment_vars(method)
    aliases: dict[str, str] = {}
    for stmt in method.walk_stmts():
        if isinstance(stmt, ir.Assign) and isinstance(stmt.expr, ir.Var):
            if stmt.target in single and stmt.expr.name in single:
                aliases[stmt.target] = stmt.expr.name
    if not aliases:
        return False
    # Resolve chains a -> b -> c so one pass suffices.
    resolved = {name: _resolve(name, aliases) for name in aliases}
    return ir.rewrite_exprs(method.body,
                            lambda expr: ir.rename_expr(expr, resolved))


def _resolve(name: str, aliases: dict[str, str]) -> str:
    seen = {name}
    while name in aliases:
        name = aliases[name]
        if name in seen:  # defensive: cycles cannot arise from SSA aliases
            break
        seen.add(name)
    return name
