"""Variable-name facts shared by the optimizer passes: assignment
counts, the single-assignment set, every name a method mentions, and a
collision-free name generator."""

from __future__ import annotations

from collections import Counter

from repro.core import ir
from repro.core.depgraph import block_defs, block_uses

__all__ = ["assign_counts", "single_assignment_vars", "method_names",
           "fresh_namer"]


def assign_counts(method: ir.Method) -> Counter:
    """How many times each variable is assigned anywhere in the method.

    Assignments inside ``while`` bodies count twice: they may execute many
    times, so the variable is not single-assignment even if it appears once
    textually.
    """
    counts: Counter = Counter()
    _count_assigns(method.body, counts, in_loop=False)
    for param in method.params:
        counts[param.name] += 1
    return counts


def _count_assigns(body: list[ir.Stmt], counts: Counter,
                   in_loop: bool) -> None:
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            counts[stmt.target] += 2 if in_loop else 1
        elif isinstance(stmt, ir.If):
            _count_assigns(stmt.then_body, counts, in_loop)
            _count_assigns(stmt.else_body, counts, in_loop)
        elif isinstance(stmt, ir.While):
            _count_assigns(stmt.body, counts, in_loop=True)


def single_assignment_vars(method: ir.Method) -> set[str]:
    """Variables assigned exactly once on every path (SSA-like)."""
    return {name for name, count in assign_counts(method).items()
            if count == 1}


def fresh_namer(taken: set[str] | ir.Method, prefix: str = "v"):
    """A generator of variable names guaranteed not to collide.

    Returns a callable ``fresh(hint) -> str`` that registers each result in
    ``taken`` (the caller's live set, mutated in place) — or, given a
    method, in its :func:`method_names`, collected on the first call.
    """
    counters: dict[str, int] = {}

    def fresh(hint: str = prefix) -> str:
        nonlocal taken
        if isinstance(taken, ir.Method):
            taken = method_names(taken)
        index = counters.get(hint, 0)
        while True:
            candidate = f"{hint}_{index}"
            index += 1
            if candidate not in taken:
                counters[hint] = index
                taken.add(candidate)
                return candidate

    return fresh


def method_names(method: ir.Method) -> set[str]:
    """Every variable name appearing in the method (defs, uses, params)."""
    names = set(method.param_names())
    names |= block_uses(method.body)
    names |= block_defs(method.body)
    return names
