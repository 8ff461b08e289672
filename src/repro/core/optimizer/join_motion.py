"""Join predicate motion: filter each join side before ``@join_index``.

After inlining, a Froid-style predicate UDF over two joined tables is one
mask computed on the *joined* rows: ``q19MatchUDF(p_brand, ...,
l_shipmode, ...) > 0`` joins every ``lineitem`` row with its ``part`` row
and only then throws most pairs away.  Plan-level pushdown cannot help —
the UDF body does not exist when the plan is rewritten — so this pass
moves the filter in HorseIR, once the body is inlined.

It applies to ``ji = @join_index(lk, rk, `inner)`` whose row-level
results leave only through ``@compress(m, ·)`` with one mask ``m``.
Row-level values are ``li`` / ``ri`` (the two ``@list_item`` of ``ji``),
every gather ``@index(x, li|ri)`` and everything computed from them.
Each statement on that path must be elementwise (or a cast): its other
operands are literals, and a whole-value operand such as ``@member``'s
pool may be any value that does not depend on the join.  A reduction,
``@order``, ``@group``, a second mask or a use under control flow stops
the pass.

For each side S the pass builds ``proj_S(m)`` from the ``and`` / ``or``
tree of ``m``: an atom (any other row-level value, ``not`` included)
stays when every gather it reads is of side S and becomes ``true``
otherwise.  ``and`` and ``or`` are monotone, so ``m ⇒ proj_S(m)``.  When
``proj_S(m)`` is not ``true`` it is re-emitted just before the join on
the pre-join columns (``x`` for ``@index(x, li)``), and the side's keys
and every column it gathers are compressed by it.  ``m`` stays and
re-checks the pairs that survive.  ``@join_index`` emits pairs by left
row, then in right-input order, and a compress keeps row order, so the
surviving pairs — and every result — are bit-identical.

Every column a side gathers is a column of that side's input relation,
as the SQL translator emits joins; that is what lets one projection
compress the key and the gathered columns alike.  There is no cost
model: a compress is one pass over a column, cheaper than probing and
gathering the rows it removes.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import consistent_types
from repro.core.depgraph import block_uses
from repro.core.optimizer import analysis

__all__ = ["move_join_predicates"]

_CONNECTIVES = ("and", "or")


def move_join_predicates(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    joins = [stmt for stmt in method.body if _is_inner_join(stmt)]
    changed = False
    for join in joins:
        changed |= _move(method, join)
    return changed


def _is_inner_join(stmt: ir.Stmt) -> bool:
    return (isinstance(stmt, ir.Assign)
            and _is_call(stmt.expr, "join_index", 3)
            and isinstance(stmt.expr.args[2], ir.SymbolLit)
            and stmt.expr.args[2].name == "inner"
            and all(_key_vars(key) is not None
                    for key in stmt.expr.args[:2]))


def _is_call(expr: ir.Expr, name: str, arity: int) -> bool:
    return (isinstance(expr, ir.BuiltinCall) and expr.name == name
            and len(expr.args) == arity)


def _key_vars(key: ir.Expr) -> list[str] | None:
    """The variables of a join key operand: ``k`` or ``@list(k1, ...)``."""
    if isinstance(key, ir.Var):
        return [key.name]
    if isinstance(key, ir.BuiltinCall) and key.name == "list" \
            and key.args and all(isinstance(a, ir.Var) for a in key.args):
        return [a.name for a in key.args]
    return None


# ---------------------------------------------------------------------------
# analysis: what the join's rows feed
# ---------------------------------------------------------------------------

class _Rows:
    """The row-level dataflow below one join (see the module doc)."""

    def __init__(self):
        self.index_vars: dict[str, int] = {}       # li / ri -> side
        self.gathers: dict[str, tuple[int, str]] = {}  # var -> (side, x)
        self.defs: dict[str, ir.Assign] = {}       # every row-level value
        self.reads: dict[str, frozenset] = {}      # value -> sides read
        self.masks: set[str] = set()

    def is_value(self, expr: ir.Expr) -> bool:
        return isinstance(expr, ir.Var) and expr.name in self.reads


def _analyse(body: list[ir.Stmt], position: int,
             single: set[str]) -> _Rows | None:
    """The rows below ``body[position]`` (a join), or None when they are
    observed other than through one ``@compress`` mask."""
    join = body[position]
    if join.target not in single:
        return None
    rows = _Rows()
    dependent = {join.target}
    for stmt in body[position + 1:]:
        if not isinstance(stmt, ir.Assign):
            # A return or control flow may only see filtered values.
            if not block_uses([stmt]).isdisjoint(
                    {join.target, *rows.reads, *rows.index_vars}):
                return None
            continue
        used = set(ir.expr_vars(stmt.expr))
        if used.isdisjoint(dependent):
            continue
        if stmt.target not in single:
            return None
        dependent.add(stmt.target)
        expr = stmt.expr
        if join.target in used:
            if not (_is_call(expr, "list_item", 2)
                    and isinstance(expr.args[1], ir.Literal)
                    and expr.args[1].value in (0, 1)):
                return None
            rows.index_vars[stmt.target] = int(expr.args[1].value)
            continue
        if used.isdisjoint(rows.reads) and used.isdisjoint(rows.index_vars):
            continue  # reads the join only through a compress: filtered
        if _is_call(expr, "index", 2) \
                and isinstance(expr.args[1], ir.Var) \
                and expr.args[1].name in rows.index_vars \
                and isinstance(expr.args[0], ir.Var) \
                and expr.args[0].name not in dependent:
            side = rows.index_vars[expr.args[1].name]
            rows.gathers[stmt.target] = (side, expr.args[0].name)
            rows.defs[stmt.target] = stmt
            rows.reads[stmt.target] = frozenset((side,))
            continue
        if _is_call(expr, "compress", 2) \
                and all(rows.is_value(arg) for arg in expr.args):
            rows.masks.add(expr.args[0].name)
            continue
        if not _is_row_op(expr, rows, dependent):
            return None
        rows.defs[stmt.target] = stmt
        rows.reads[stmt.target] = frozenset().union(
            *(rows.reads[name] for name in used if name in rows.reads))
    if len(rows.masks) != 1:
        return None
    return rows


def _is_row_op(expr: ir.Expr, rows: _Rows, dependent: set[str]) -> bool:
    """Is ``expr`` elementwise over row-level values and literals?"""
    if isinstance(expr, ir.Cast):
        return rows.is_value(expr.expr)
    if not isinstance(expr, ir.BuiltinCall):
        return False
    builtin = hb.BUILTINS.get(expr.name)
    if builtin is None or builtin.kind != "elementwise":
        return False
    for position, arg in enumerate(expr.args):
        if position in builtin.broadcast_args:
            if not dependent.isdisjoint(ir.expr_vars(arg)):
                return False
        elif not (rows.is_value(arg)
                  or isinstance(arg, (ir.Literal, ir.SymbolLit))):
            return False
    return True


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _project(rows: _Rows, side: int):
    """``proj_side(m)`` as a tree — an atom's variable name, or
    ``(op, left, right)`` for ``and`` / ``or`` — or None for ``true``."""
    memo: dict[str, object] = {}

    def visit(name: str):
        if name in memo:
            return memo[name]
        expr = rows.defs[name].expr
        if name not in rows.gathers and isinstance(expr, ir.BuiltinCall) \
                and expr.name in _CONNECTIVES and len(expr.args) == 2:
            # A literal operand weakens to true like a foreign atom.
            parts = [visit(arg.name) if rows.is_value(arg) else None
                     for arg in expr.args]
            kept = [part for part in parts if part is not None]
            if expr.name == "or" and len(kept) < len(parts):
                result = None
            elif len(kept) == 2:
                result = (expr.name, kept[0], kept[1])
            else:
                result = kept[0] if kept else None
        else:
            result = name if rows.reads[name] == {side} else None
        memo[name] = result
        return result

    [mask] = rows.masks
    tree = visit(mask)
    if isinstance(tree, str) and rows.defs[tree].type != ht.BOOL:
        return None  # a lone atom must itself be a mask to compress by
    return tree


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def _move(method: ir.Method, join: ir.Assign) -> bool:
    """Filter each side of ``join`` its projection applies to; the
    method is untouched unless everything can be committed."""
    body = method.body
    position = next(i for i, stmt in enumerate(body) if stmt is join)
    single = analysis.single_assignment_vars(method)
    rows = _analyse(body, position, single)
    if rows is None:
        return False
    sides = []
    for side in (0, 1):
        tree = _project(rows, side)
        keys = _key_vars(join.expr.args[side])
        gathers = [name for name, (s, _) in rows.gathers.items()
                   if s == side]
        if tree is not None \
                and not _already_filtered(body, rows, tree, keys, gathers):
            sides.append((side, tree, keys, gathers))
    if not sides:
        return False

    types = consistent_types(method)
    fresh = analysis.fresh_namer(analysis.method_names(method))
    emitted: list[ir.Assign] = []
    args = list(join.expr.args)
    sources: dict[str, ir.Var] = {}  # gather -> compressed column
    for side, tree, keys, gathers in sides:
        predicate = _emit_projection(rows, tree, emitted, fresh)
        compressed: dict[str, ir.Var] = {}

        def compress(name: str) -> ir.Var:
            if name not in compressed:
                declared = types.get(name)
                target = fresh(name)
                emitted.append(ir.Assign(
                    target, ht.WILDCARD if declared is None else declared,
                    ir.BuiltinCall("compress", [predicate, ir.Var(name)])))
                compressed[name] = ir.Var(target)
            return compressed[name]

        new_keys = [compress(name) for name in keys]
        args[side] = new_keys[0] if isinstance(args[side], ir.Var) \
            else ir.BuiltinCall("list", new_keys)
        for name in gathers:
            sources[name] = compress(rows.gathers[name][1])

    hoisted = _hoist(method, position, emitted, single)
    if hoisted is None:
        return False
    # Commit: nothing below can fail.
    join.expr = ir.BuiltinCall("join_index", args)
    for name, source in sources.items():
        gather = rows.defs[name]
        gather.expr = ir.BuiltinCall("index", [source, gather.expr.args[1]])
    moved = [body[i] for i in hoisted]
    for i in reversed(hoisted):
        del body[i]
    position = next(i for i, stmt in enumerate(body) if stmt is join)
    body[position:position] = moved + emitted
    return True


def _emit_projection(rows: _Rows, tree, emitted: list[ir.Assign],
                     fresh) -> ir.Var:
    """Append statements computing ``tree`` on pre-join columns."""
    clones: dict[str, ir.Var] = {}
    nodes: dict[tuple, ir.Var] = {}

    def clone(name: str) -> ir.Var:
        if name in clones:
            return clones[name]
        if name in rows.gathers:
            result = ir.Var(rows.gathers[name][1])
        else:
            stmt = rows.defs[name]
            expr = ir.map_expr(stmt.expr, lambda node: clone(node.name)
                               if rows.is_value(node) else node)
            result = ir.Var(fresh("pm"))
            emitted.append(ir.Assign(result.name, stmt.type, expr))
        clones[name] = result
        return result

    def emit(node) -> ir.Var:
        if isinstance(node, str):
            return clone(node)
        if node not in nodes:
            op, left, right = node
            args = [emit(left), emit(right)]
            nodes[node] = ir.Var(fresh("pm"))
            emitted.append(ir.Assign(nodes[node].name, ht.BOOL,
                                     ir.BuiltinCall(op, args)))
        return nodes[node]

    return emit(tree)


def _hoist(method: ir.Method, position: int, emitted: list[ir.Assign],
           single: set[str]) -> list[int] | None:
    """Indices (ascending) of the statements after the join that the
    emitted ones read — a ``@member`` pool, a late-loaded column — and
    so must move above it with everything they read; None when one
    cannot move."""
    body = method.body
    where: dict[str, int] = {}  # variable -> top-level statement defining it
    for i, stmt in enumerate(body):
        for inner in ir.walk_body([stmt]):
            if isinstance(inner, ir.Assign):
                where[inner.target] = i
    local = {stmt.target for stmt in emitted}
    pending = [name for stmt in emitted
               for name in ir.expr_vars(stmt.expr) if name not in local]
    hoisted: set[int] = set()
    while pending:
        name = pending.pop()
        index = where.get(name)
        if index is None or index < position or index in hoisted:
            continue
        stmt = body[index]
        if not isinstance(stmt, ir.Assign) or name not in single \
                or _calls_method(stmt.expr):
            return None
        hoisted.add(index)
        pending.extend(ir.expr_vars(stmt.expr))
    return sorted(hoisted)


def _calls_method(expr: ir.Expr) -> bool:
    if isinstance(expr, ir.MethodCall):
        return True
    return any(_calls_method(child) for child in expr.children())


# ---------------------------------------------------------------------------
# idempotence: is this side already filtered by this projection?
# ---------------------------------------------------------------------------

def _already_filtered(body: list[ir.Stmt], rows: _Rows, tree,
                      keys: list[str], gathers: list[str]) -> bool:
    """True when the side's keys and gathered columns are all
    ``@compress(p, ·)`` of one ``p`` that computes ``tree`` on their
    uncompressed sources — what a previous application left."""
    defs = {stmt.target: stmt.expr for stmt in body
            if isinstance(stmt, ir.Assign)}
    masks, sources = set(), {}
    for name in keys + [rows.gathers[g][1] for g in gathers]:
        expr = defs.get(name)
        if not (_is_call(expr, "compress", 2)
                and all(isinstance(a, ir.Var) for a in expr.args)):
            return False
        masks.add(expr.args[0].name)
        sources[name] = expr.args[1].name
    if len(masks) != 1:
        return False
    [mask] = masks
    stops = set(sources.values())
    pre_join = _Canonical(defs, stops, {})
    post_join = _Canonical(defs, stops, {
        g: sources[rows.gathers[g][1]] for g in gathers})
    return pre_join.var(mask) == post_join.tree(tree)


class _Canonical:
    """Definitions expanded to one string, through elementwise
    statements and casts down to ``stops``; ``renames`` maps gathers to
    the column they read before the compress."""

    def __init__(self, defs: dict, stops: set[str], renames: dict):
        self.defs = defs
        self.stops = stops
        self.renames = renames
        self.memo: dict[str, str] = {}

    def var(self, name: str) -> str:
        if name in self.renames:
            return self.renames[name]
        if name in self.stops:
            return name
        if name not in self.memo:
            expr = self.defs.get(name)
            expandable = isinstance(expr, ir.Cast) or (
                isinstance(expr, ir.BuiltinCall)
                and getattr(hb.BUILTINS.get(expr.name), "kind", None)
                == "elementwise")
            self.memo[name] = self.expr(expr) if expandable else name
        return self.memo[name]

    def expr(self, expr: ir.Expr) -> str:
        return str(ir.map_expr(expr, lambda node: ir.Var(self.var(
            node.name)) if isinstance(node, ir.Var) else node))

    def tree(self, node) -> str:
        if isinstance(node, str):
            return self.var(node)
        op, left, right = node
        return f"@{op}({self.tree(left)}, {self.tree(right)})"
