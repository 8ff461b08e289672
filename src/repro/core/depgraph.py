"""Data-dependence graphs over HorseIR method bodies.

The fusion optimizer (Section 3.4.1 of the paper) "first builds a data
dependence graph across all the statements within a method"; this module is
that graph.  Nodes are statement indices within one straight-line block;
edges run from the statement that defines a variable to each statement that
uses it.  The graph also powers the Figure-7 style visualizations in the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import ir

__all__ = ["DepGraph", "build_depgraph", "block_defs", "block_uses"]


@dataclass
class DepGraph:
    """Dependence graph for one straight-line block of statements."""

    stmts: list[ir.Stmt]
    #: edges[i] = indices of statements that consume a value defined by i.
    edges: dict[int, set[int]] = field(default_factory=dict)
    #: reverse edges: deps[i] = indices of statements i reads from.
    deps: dict[int, set[int]] = field(default_factory=dict)
    #: variables read by each statement that are defined outside the block.
    external_inputs: dict[int, set[str]] = field(default_factory=dict)

    def consumers(self, index: int) -> set[int]:
        return self.edges.get(index, set())

    def producers(self, index: int) -> set[int]:
        return self.deps.get(index, set())

    def to_dot(self, labels: bool = True) -> str:
        """Graphviz rendering (used by the inlining demo example)."""
        lines = ["digraph depgraph {", "  node [shape=box];"]
        for i, stmt in enumerate(self.stmts):
            label = str(stmt).replace('"', '\\"') if labels else f"S{i}"
            lines.append(f'  s{i} [label="S{i}: {label}"];')
        for src, dsts in sorted(self.edges.items()):
            for dst in sorted(dsts):
                lines.append(f"  s{src} -> s{dst};")
        lines.append("}")
        return "\n".join(lines)


def stmt_uses(stmt: ir.Stmt) -> set[str]:
    """Variables read by a statement (shallow: not nested bodies)."""
    if isinstance(stmt, ir.Assign):
        return set(ir.expr_vars(stmt.expr))
    if isinstance(stmt, ir.Return):
        return set(ir.expr_vars(stmt.expr))
    if isinstance(stmt, (ir.If, ir.While)):
        return set(ir.expr_vars(stmt.cond))
    return set()


def stmt_def(stmt: ir.Stmt) -> str | None:
    """The variable a statement defines, if any (shallow)."""
    if isinstance(stmt, ir.Assign):
        return stmt.target
    return None


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


def build_depgraph(stmts: list[ir.Stmt]) -> DepGraph:
    """Build the def-use graph for one straight-line block.

    ``stmts`` must not contain ``if``/``while`` (fusion never crosses
    control flow); nested statements appear to the caller as opaque block
    boundaries.
    """
    graph = DepGraph(list(stmts))
    last_def: dict[str, int] = {}
    for i, stmt in enumerate(stmts):
        graph.edges.setdefault(i, set())
        graph.deps.setdefault(i, set())
        graph.external_inputs.setdefault(i, set())
        for name in stmt_uses(stmt):
            producer = last_def.get(name)
            if producer is None:
                graph.external_inputs[i].add(name)
            else:
                graph.edges.setdefault(producer, set()).add(i)
                graph.deps[i].add(producer)
        defined = stmt_def(stmt)
        if defined is not None:
            last_def[defined] = i
    return graph
