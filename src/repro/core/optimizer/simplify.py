"""The scalar rewriting core (paper Section 3.4.2): constant and copy
propagation, common-subexpression elimination and backward slicing as
one forward sweep and one backward slice.

The forward sweep visits the statements in program order and rewrites
each expression from what it learned about the single-assignment names
defined before it:

* ``x = @list_item(l, k)`` (also under a ``check_cast``) becomes ``l``'s
  k-th element when ``l = @list(...)``: after a table UDF inlines, this
  turns its unused output columns into dead code (the bs2 variants);
* a name bound to a literal is replaced by the literal, and a pure
  builtin whose arguments are all literals is folded by evaluating it;
* ``@gt(@mul(c, m), 0)``, ``c`` a positive numeric literal and ``m``
  declared ``bool``, becomes ``m``: a MATLAB predicate UDF returns
  ``1.0 .* mask`` and the SQL side tests ``> 0``, and folding the pair
  leaves a plain boolean tree for join predicate motion to split;
* a name bound to another name (``t = s``) is replaced by it;
* a pure builtin or cast equal to one already computed in the same
  block becomes an alias of the first result.

An assignment is a coercion to its declared type, so a name is bound to
a literal or to another name only when their types equal its own or it
is declared ``?`` (which passes anything through).  A statement that is
dead before the sweep is never a common-subexpression representative:
the value it names would come back to life under the name of a
statement that was not dead.

The backward slice then marks every name that can reach a return, a
control-flow condition or a call to a method, and everything else is
deleted.  The sweep resolves each name once, from definitions that are
already rewritten, so one application reaches the fixed point.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.analysis.typeshape import consistent_types
from repro.core.optimizer import analysis
from repro.core.values import Vector, scalar
from repro.errors import BuiltinError

__all__ = ["simplify", "eliminate_dead_code", "backward_slice"]


def simplify(method: ir.Method) -> bool:
    """Rewrite ``method`` in place; returns True when anything changed."""
    sweep = _Sweep(method, backward_slice(method))
    sweep.block(method.body)
    return eliminate_dead_code(method) or sweep.changed


class _Sweep:
    """The forward sweep's facts about the single-assignment names."""

    def __init__(self, method: ir.Method, live: set[str]):
        self.single = analysis.single_assignment_vars(method)
        self.types = consistent_types(method)
        self.live = live
        #: name -> the literal or the name it stands for
        self.values: dict[str, ir.Expr] = {}
        #: name of an ``@list`` -> its elements
        self.lists: dict[str, list[ir.Expr]] = {}
        #: name of a ``@mul(c, m)`` -> ``m`` (see the module doc)
        self.masks: dict[str, str] = {}
        self.changed = False

    def block(self, body: list[ir.Stmt]) -> None:
        available: dict[tuple, str] = {}
        for stmt in body:
            if isinstance(stmt, ir.Assign):
                self.assign(stmt, available)
            elif isinstance(stmt, ir.Return):
                stmt.expr = self.expr(stmt.expr)
            else:
                stmt.cond = self.expr(stmt.cond)
                if isinstance(stmt, ir.If):
                    self.block(stmt.then_body)
                    self.block(stmt.else_body)
                else:
                    self.block(stmt.body)

    def expr(self, expr: ir.Expr) -> ir.Expr:
        def visit(node: ir.Expr) -> ir.Expr:
            if isinstance(node, ir.Var):
                return self.values.get(node.name, node)
            if isinstance(node, ir.BuiltinCall):
                return _fold(node) or node
            return node

        new = ir.map_expr(expr, visit)
        self.changed |= new is not expr
        return new

    def assign(self, stmt: ir.Assign, available: dict) -> None:
        expr = self._mask_test(self._list_item(self.expr(stmt.expr)))
        target = stmt.target
        if target not in self.single:
            stmt.expr = expr
            return
        if isinstance(expr, (ir.BuiltinCall, ir.Cast)):
            key = _key(expr, self.single)
            if key is not None:
                key = (key, stmt.type)
                if key in available:
                    expr = ir.Var(available[key])
                    self.changed = True
                elif target in self.live:
                    available[key] = target
        stmt.expr = expr
        if self._passes_through(expr, stmt.type):
            self.values[target] = expr
        elif isinstance(expr, ir.BuiltinCall) and expr.name == "list" \
                and all(isinstance(a, (ir.Literal, ir.SymbolLit))
                        or isinstance(a, ir.Var) and a.name in self.single
                        for a in expr.args):
            self.lists[target] = expr.args
        else:
            mask = self._scaled_mask(expr)
            if mask is not None:
                self.masks[target] = mask

    def _passes_through(self, expr: ir.Expr, declared: ht.HorseType) \
            -> bool:
        """Whether assigning the literal or name ``expr`` to a name
        declared ``declared`` is no coercion (see the module doc)."""
        if isinstance(expr, ir.Literal):
            found = expr.type
        elif isinstance(expr, ir.SymbolLit):
            found = ht.SYM
        elif isinstance(expr, ir.Var) and expr.name in self.single:
            found = self.types.get(expr.name)
        else:
            return False
        return declared.is_wildcard or found == declared

    def _list_item(self, expr: ir.Expr) -> ir.Expr:
        """``@list_item(l, k)``, under a cast or not, as ``l``'s k-th
        element."""
        call = expr.expr if isinstance(expr, ir.Cast) else expr
        if not (isinstance(call, ir.BuiltinCall) and call.name == "list_item"
                and isinstance(call.args[0], ir.Var)
                and isinstance(call.args[1], ir.Literal)):
            return expr
        items = self.lists.get(call.args[0].name, ())
        index = int(call.args[1].value)
        if not 0 <= index < len(items):
            return expr
        self.changed = True
        if call is expr:
            return items[index]
        return ir.Cast(items[index], expr.type)

    def _mask_test(self, expr: ir.Expr) -> ir.Expr:
        """``@gt(t, 0)`` with ``t = @mul(c, m)`` as ``m``."""
        if isinstance(expr, ir.BuiltinCall) and expr.name == "gt" \
                and len(expr.args) == 2 and isinstance(expr.args[0], ir.Var) \
                and _numeric_literal(expr.args[1]) == 0:
            mask = self.masks.get(expr.args[0].name)
            if mask is not None:
                self.changed = True
                return ir.Var(mask)
        return expr

    def _scaled_mask(self, expr: ir.Expr) -> str | None:
        """``m`` when ``expr`` is ``@mul(c, m)`` or ``@mul(m, c)`` with
        ``c`` a positive numeric literal and ``m`` a single-assignment
        ``bool``."""
        if not (isinstance(expr, ir.BuiltinCall) and expr.name == "mul"
                and len(expr.args) == 2):
            return None
        left, right = expr.args
        for scale, mask in ((left, right), (right, left)):
            value = _numeric_literal(scale)
            if value is not None and value > 0 \
                    and isinstance(mask, ir.Var) and mask.name in self.single \
                    and self.types.get(mask.name) == ht.BOOL:
                return mask.name
        return None


def _numeric_literal(expr: ir.Expr) -> float | None:
    if isinstance(expr, ir.Literal) and expr.type != ht.BOOL \
            and ht.is_numeric(expr.type):
        return float(expr.value)
    return None


def _fold(call: ir.BuiltinCall) -> ir.Literal | None:
    if not all(isinstance(arg, ir.Literal) for arg in call.args):
        return None
    builtin = hb.BUILTINS.get(call.name)
    if builtin is None or builtin.kind not in ("elementwise", "reduction"):
        return None
    values = [scalar(arg.value, arg.type) for arg in call.args]
    try:
        result = builtin.run(values, hb.EvalContext())
    except BuiltinError:
        return None
    if not isinstance(result, Vector) or len(result) != 1 \
            or result.type == ht.SYM:
        return None
    return ir.Literal(result.item(), result.type)


def _key(expr: ir.Expr, single: set[str]):
    """A hashable key, equal exactly when the printed forms are; None
    unless ``expr`` is pure over single-assignment variables."""
    if isinstance(expr, ir.Var):
        return expr.name if expr.name in single else None
    if isinstance(expr, (ir.Literal, ir.SymbolLit)):
        return (str(expr),)
    if isinstance(expr, ir.Cast):
        inner = _key(expr.expr, single)
        return None if inner is None else ("check_cast", inner, expr.type)
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None or not builtin.is_pure:
            return None
        key = [expr.name]
        for arg in expr.args:
            part = _key(arg, single)
            if part is None:
                return None
            key.append(part)
        return tuple(key)
    return None


# ---------------------------------------------------------------------------
# the backward slice
# ---------------------------------------------------------------------------

def eliminate_dead_code(method: ir.Method) -> bool:
    """Delete every statement outside the backward slice; True when one
    was deleted.

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
