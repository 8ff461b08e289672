"""Plan-level rewrite passes: predicate pushdown and column pruning.

Historically these two rules were private functions buried inside
:mod:`repro.sql.planner`; the pass-manager refactor makes them
first-class plan-level passes, registered in
:mod:`repro.core.passes` beside the HorseIR rewrites (the paper's "one
optimizer across the SQL/UDF boundary").  Every plan pass is
``fn(plan, udfs, table_stats) -> plan``; only
:func:`reorder_by_selectivity` reads the statistics.  The
planner now builds a *raw* plan — every WHERE conjunct in one
``Filter`` directly above the join tree — and
:func:`repro.sql.planner.plan_query` applies these passes through the
pipeline:

* :func:`push_predicates` — each ``Filter``'s conjuncts sink as deep
  as they can go: below hash joins (single-side conjuncts), through
  projections that pass the referenced columns through unchanged
  (with renaming), never through aggregates, table UDFs, or other
  filters, and never when the conjunct calls a UDF.  A filter whose
  conjuncts all stay put is returned *unchanged*, preserving the
  original predicate tree (HAVING predicates keep their shape).
* :func:`prune_columns` — every node's column set shrinks to what its
  parent needs — except across ``TableUDF`` nodes, which are black
  boxes (the bs2 experiment relies on exactly this asymmetry).

Both are pure tree transforms over :mod:`repro.sql.plan` nodes with
SQL AST predicates; they know nothing about the pipeline that
schedules them.  The shared expression utilities (conjunct splitting,
column collection, renaming) live here and are imported back by the
planner.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.sql import ast
from repro.sql import plan as p
from repro.sql.udf import UDFRegistry

__all__ = ["push_predicates", "prune_columns", "reorder_by_selectivity",
           "find_filters_without_columns", "find_unfiltered_cross_joins",
           "find_unlimited_sorts"]


# ---------------------------------------------------------------------------
# expression utilities (shared with the planner)
# ---------------------------------------------------------------------------

def _expr_columns(expr: ast.Expr) -> set[str]:
    cols: set[str] = set()
    _collect_columns(expr, cols)
    return cols


def _collect_columns(expr: ast.Expr, out: set[str]) -> None:
    if isinstance(expr, ast.Col):
        out.add(expr.name)
    elif isinstance(expr, ast.BinOp):
        _collect_columns(expr.left, out)
        _collect_columns(expr.right, out)
    elif isinstance(expr, ast.UnOp):
        _collect_columns(expr.operand, out)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _collect_columns(arg, out)
    elif isinstance(expr, ast.CaseWhen):
        for cond, value in expr.whens:
            _collect_columns(cond, out)
            _collect_columns(value, out)
        if expr.else_expr is not None:
            _collect_columns(expr.else_expr, out)
    elif isinstance(expr, ast.InList):
        _collect_columns(expr.expr, out)
        for item in expr.items:
            _collect_columns(item, out)
    elif isinstance(expr, ast.Between):
        _collect_columns(expr.expr, out)
        _collect_columns(expr.low, out)
        _collect_columns(expr.high, out)


def _split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _and_all(conjuncts: list[ast.Expr]) -> ast.Expr:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinOp("and", result, conjunct)
    return result


def _rename_columns(expr: ast.Expr, mapping: dict[str, str]) -> ast.Expr:
    if isinstance(expr, ast.Col):
        return ast.Col(mapping.get(expr.name, expr.name))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(expr.op, _rename_columns(expr.left, mapping),
                         _rename_columns(expr.right, mapping))
    if isinstance(expr, ast.UnOp):
        return ast.UnOp(expr.op, _rename_columns(expr.operand, mapping))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name,
                            [_rename_columns(a, mapping)
                             for a in expr.args], expr.distinct)
    if isinstance(expr, ast.CaseWhen):
        whens = [(_rename_columns(c, mapping), _rename_columns(v, mapping))
                 for c, v in expr.whens]
        else_expr = (_rename_columns(expr.else_expr, mapping)
                     if expr.else_expr is not None else None)
        return ast.CaseWhen(whens, else_expr)
    if isinstance(expr, ast.InList):
        return ast.InList(_rename_columns(expr.expr, mapping),
                          list(expr.items), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_rename_columns(expr.expr, mapping),
                           expr.low, expr.high, expr.negated)
    return expr


def _calls_udf(expr: ast.Expr, udfs: UDFRegistry) -> bool:
    """Whether ``expr`` calls a registered UDF anywhere (such a conjunct
    is never pushed below a join or a projection)."""
    if isinstance(expr, ast.FuncCall):
        if udfs.is_udf(expr.name):
            return True
        return any(_calls_udf(a, udfs) for a in expr.args)
    if isinstance(expr, ast.BinOp):
        return _calls_udf(expr.left, udfs) \
            or _calls_udf(expr.right, udfs)
    if isinstance(expr, ast.UnOp):
        return _calls_udf(expr.operand, udfs)
    if isinstance(expr, ast.CaseWhen):
        for cond, value in expr.whens:
            if _calls_udf(cond, udfs) \
                    or _calls_udf(value, udfs):
                return True
        return expr.else_expr is not None \
            and _calls_udf(expr.else_expr, udfs)
    if isinstance(expr, ast.InList):
        return _calls_udf(expr.expr, udfs)
    if isinstance(expr, ast.Between):
        return _calls_udf(expr.expr, udfs)
    return False


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------

def push_predicates(plan: p.PlanNode, udfs: UDFRegistry | None = None,
                    table_stats=None) -> p.PlanNode:
    """Sink every ``Filter``'s conjuncts as deep as they can go.

    Post-order: inner subtrees (subquery plans) settle before an outer
    filter tries to cross them — the same order the per-SELECT planner
    recursion used to impose."""
    udfs = udfs if udfs is not None else UDFRegistry()
    return _pushdown(plan, udfs)


def _pushdown(node: p.PlanNode, udfs: UDFRegistry) -> p.PlanNode:
    _visit_children(node, udfs)
    if isinstance(node, p.Filter):
        conjuncts = _split_conjuncts(node.predicate)
        child, leftovers = _push_filters(node.child, conjuncts, udfs)
        if len(leftovers) == len(conjuncts):
            # Nothing moved: keep the original node so the predicate's
            # expression tree (e.g. a HAVING condition) is untouched.
            return node
        if leftovers:
            return p.Filter(child, _and_all(leftovers),
                            output=list(child.output))
        return child
    return node


def _visit_children(node: p.PlanNode, udfs: UDFRegistry) -> None:
    if isinstance(node, p.Join):
        node.left = _pushdown(node.left, udfs)
        node.right = _pushdown(node.right, udfs)
    elif isinstance(node, (p.Filter, p.Project, p.GroupAggregate,
                           p.Sort, p.Limit, p.TableUDF)):
        node.child = _pushdown(node.child, udfs)


def _apply_filters(node: p.PlanNode, conjuncts: list[ast.Expr],
                   udfs: UDFRegistry) -> p.PlanNode:
    node, leftovers = _push_filters(node, conjuncts, udfs)
    if leftovers:
        node = p.Filter(node, _and_all(leftovers),
                        output=list(node.output))
    return node


def _push_filters(node: p.PlanNode, conjuncts: list[ast.Expr],
                  udfs: UDFRegistry):
    """Push each conjunct as deep as it can go; returns (node,
    not-pushed)."""
    if isinstance(node, p.Join):
        remaining: list[ast.Expr] = []
        left_push: list[ast.Expr] = []
        right_push: list[ast.Expr] = []
        left_cols = set(node.left.output_names())
        right_cols = set(node.right.output_names())
        for conjunct in conjuncts:
            used = _expr_columns(conjunct)
            if _calls_udf(conjunct, udfs):
                remaining.append(conjunct)
            elif used <= left_cols:
                left_push.append(conjunct)
            elif used <= right_cols:
                right_push.append(conjunct)
            else:
                remaining.append(conjunct)
        left = _apply_filters(node.left, left_push, udfs)
        right = _apply_filters(node.right, right_push, udfs)
        new_join = p.Join(left, right, node.left_keys,
                          node.right_keys, node.kind,
                          output=list(node.output))
        return new_join, remaining
    if isinstance(node, p.Project) and conjuncts:
        # Push through when the conjunct only references columns the
        # projection passes through unchanged.
        passthrough = {name: expr.name for name, expr in node.items
                       if isinstance(expr, ast.Col)}
        pushed: list[ast.Expr] = []
        remaining = []
        for conjunct in conjuncts:
            used = _expr_columns(conjunct)
            if used <= set(passthrough) \
                    and not _calls_udf(conjunct, udfs):
                pushed.append(_rename_columns(conjunct, passthrough))
            else:
                remaining.append(conjunct)
        if pushed:
            child = _apply_filters(node.child, pushed, udfs)
            node = p.Project(child, list(node.items),
                             output=list(node.output))
        return node, remaining
    return node, list(conjuncts)


# ---------------------------------------------------------------------------
# column pruning
# ---------------------------------------------------------------------------

def prune_columns(plan: p.PlanNode, udfs: UDFRegistry | None = None,
                  table_stats=None) -> p.PlanNode:
    """Shrink every node's outputs to what the root produces."""
    return _prune_columns(plan, set(plan.output_names()))


def _prune_columns(node: p.PlanNode, needed: set[str]) -> p.PlanNode:
    """Shrink every node's outputs to ``needed`` (never crossing
    TableUDF)."""
    if isinstance(node, p.Scan):
        keep = [c for c in node.columns if c in needed]
        if not keep and node.columns:
            keep = [node.columns[0]]  # keep row counts observable
            needed = needed | {keep[0]}
        return p.Scan(node.table, keep,
                      output=[(n, t) for n, t in node.output
                              if n in needed])
    if isinstance(node, p.Filter):
        child_needed = needed | _expr_columns(node.predicate)
        child = _prune_columns(node.child, child_needed)
        return p.Filter(child, node.predicate,
                        output=[(n, t) for n, t in node.output
                                if n in needed])
    if isinstance(node, p.Project):
        keep_items = [(name, expr) for name, expr in node.items
                      if name in needed]
        if not keep_items and node.items:
            keep_items = [node.items[0]]  # keep row counts observable
            needed = needed | {keep_items[0][0]}
        child_needed: set[str] = set()
        for _, expr in keep_items:
            child_needed |= _expr_columns(expr)
        child = _prune_columns(node.child, child_needed)
        return p.Project(child, keep_items,
                         output=[(n, t) for n, t in node.output
                                 if n in needed])
    if isinstance(node, p.Join):
        left_names = set(node.left.output_names())
        right_names = set(node.right.output_names())
        left_needed = (needed & left_names) | set(node.left_keys)
        right_needed = (needed & right_names) | set(node.right_keys)
        left = _prune_columns(node.left, left_needed)
        right = _prune_columns(node.right, right_needed)
        return p.Join(left, right, node.left_keys, node.right_keys,
                      node.kind,
                      output=[(n, t) for n, t in node.output
                              if n in needed])
    if isinstance(node, p.GroupAggregate):
        child_needed = set(node.keys)
        keep_aggs = []
        for name, fn, col in node.aggregates:
            if name in needed:
                keep_aggs.append((name, fn, col))
                if col is not None:
                    child_needed.add(col)
        if not keep_aggs and node.aggregates:
            # Keep one aggregate so group cardinality is observable.
            name, fn, col = node.aggregates[0]
            keep_aggs.append((name, fn, col))
            if col is not None:
                child_needed.add(col)
        child = _prune_columns(node.child, child_needed)
        return p.GroupAggregate(child, node.keys, keep_aggs,
                                output=[(n, t) for n, t in node.output
                                        if n in needed
                                        or n in node.keys])
    if isinstance(node, p.Sort):
        child_needed = needed | {name for name, _ in node.keys}
        child = _prune_columns(node.child, child_needed)
        return p.Sort(child, node.keys,
                      output=[(n, t) for n, t in node.output
                              if n in child_needed or n in needed])
    if isinstance(node, p.Limit):
        child = _prune_columns(node.child, needed)
        return p.Limit(child, node.count, output=list(child.output))
    if isinstance(node, p.TableUDF):
        # Black box: every declared input column must be produced and
        # every declared output is computed, regardless of `needed`.
        child = _prune_columns(node.child, set(node.input_columns))
        return p.TableUDF(child, node.udf_name, node.input_columns,
                          output=list(node.output))
    raise PlanError(f"cannot prune {type(node).__name__}")


# ---------------------------------------------------------------------------
# statistics-driven reordering
# ---------------------------------------------------------------------------

def reorder_by_selectivity(plan: p.PlanNode,
                           udfs: UDFRegistry | None = None,
                           table_stats=None) -> p.PlanNode:
    """Order filter conjuncts and join build/probe sides by estimated
    selectivity (the ``selectivity-reorder`` pass).

    * Each ``Filter``'s conjuncts are stable-sorted most-selective
      first, so short-circuiting executors reject rows as early as
      possible.  Reordering an ``AND`` chain never changes the mask it
      computes — output stays bit-identical.
    * Each *inner* ``Join`` puts the smaller estimated input on the
      **right**: ``@join_index`` builds its hash table on the right
      input and probes with the left, so the build table should be the
      small one.  Output columns are selected by name, so swapping
      sides preserves the schema (row order may differ, as permitted
      for an unordered join).

    Without statistics (``table_stats`` is ``None`` or empty) the plan
    is returned *unchanged* — same object — so pipelines that include
    this pass are inert until the first ``ANALYZE``."""
    if not table_stats:
        return plan
    return _reorder(plan, table_stats)


def _reorder(node: p.PlanNode, store) -> p.PlanNode:
    # Imported lazily: repro.stats imports repro.sql.plan; keeping the
    # estimator out of this module's import time avoids the cycle.
    from repro.stats.estimate import estimate_rows, predicate_selectivity

    if isinstance(node, p.Filter):
        child = _reorder(node.child, store)
        conjuncts = _split_conjuncts(node.predicate)
        if len(conjuncts) > 1:
            ranked = sorted(
                range(len(conjuncts)),
                key=lambda i: (predicate_selectivity(conjuncts[i],
                                                     child, store), i))
            if ranked != list(range(len(conjuncts))):
                ordered = _and_all([conjuncts[i] for i in ranked])
                return p.Filter(child, ordered,
                                output=list(node.output))
        if child is node.child:
            return node
        return p.Filter(child, node.predicate,
                        output=list(node.output))
    if isinstance(node, p.Join):
        left = _reorder(node.left, store)
        right = _reorder(node.right, store)
        if node.kind == "inner":
            left_est = estimate_rows(left, store)
            right_est = estimate_rows(right, store)
            if left_est is not None and right_est is not None \
                    and left_est < right_est:
                return p.Join(right, left, list(node.right_keys),
                              list(node.left_keys), node.kind,
                              output=list(node.output))
        if left is node.left and right is node.right:
            return node
        return p.Join(left, right, node.left_keys, node.right_keys,
                      node.kind, output=list(node.output))
    if isinstance(node, (p.Project, p.GroupAggregate, p.Sort, p.Limit,
                         p.TableUDF)):
        child = _reorder(node.child, store)
        if child is not node.child:
            node.child = child
        return node
    return node


# ---------------------------------------------------------------------------
# Plan lint detectors (consumed by repro.core.analysis.lint)
# ---------------------------------------------------------------------------

def _plan_children(node: p.PlanNode) -> list[p.PlanNode]:
    if isinstance(node, p.Join):
        return [node.left, node.right]
    child = getattr(node, "child", None)
    return [child] if child is not None else []


def _walk_plan(node: p.PlanNode, ancestors: tuple = ()):
    """Yield ``(node, ancestors)`` pairs, root first (ancestors are
    ordered nearest-first)."""
    yield node, ancestors
    for child in _plan_children(node):
        yield from _walk_plan(child, (node,) + ancestors)


def find_filters_without_columns(plan: p.PlanNode) -> list[tuple]:
    """``(location, message)`` for every Filter whose predicate
    references no column its child produces — a predicate that can
    only be constant-true or constant-false (usually a typo'd name
    that slipped past resolution, or a degenerate rewrite)."""
    findings = []
    for node, _ in _walk_plan(plan):
        if not isinstance(node, p.Filter):
            continue
        referenced = _expr_columns(node.predicate)
        available = set(node.child.output_names())
        if referenced and not (referenced & available):
            missing = ", ".join(sorted(referenced))
            findings.append(
                (node.describe(),
                 f"filter references no column of its input "
                 f"(uses: {missing})"))
        elif not referenced:
            findings.append(
                (node.describe(),
                 "filter predicate references no columns at all "
                 "(constant predicate)"))
    return findings


def find_unfiltered_cross_joins(plan: p.PlanNode) -> list[tuple]:
    """``(location, message)`` for every keyless (cross) join with no
    Filter anywhere above it — a full Cartesian product whose output
    nothing ever narrows."""
    findings = []
    for node, ancestors in _walk_plan(plan):
        if not isinstance(node, p.Join):
            continue
        if node.left_keys or node.right_keys:
            continue
        if any(isinstance(a, p.Filter) for a in ancestors):
            continue
        findings.append(
            (node.describe(),
             "cross join (no keys) with no follow-up filter: "
             "produces the full Cartesian product"))
    return findings


def find_unlimited_sorts(plan: p.PlanNode) -> list[tuple]:
    """``(location, message)`` for every Sort with no Limit above it —
    a full sort where a top-k pass would do.  Informational: ORDER BY
    without LIMIT is legitimate SQL, so the lint rule carrying this
    detector is off by default."""
    findings = []
    for node, ancestors in _walk_plan(plan):
        if not isinstance(node, p.Sort):
            continue
        if any(isinstance(a, p.Limit) for a in ancestors):
            continue
        findings.append(
            (node.describe(),
             "full sort with no LIMIT above it (top-k would avoid "
             "sorting the whole input)"))
    return findings
