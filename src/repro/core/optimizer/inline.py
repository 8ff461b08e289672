"""Method inlining — HorsePower's cross-optimization enabler.

Per Section 3.4.2: replacing UDF method calls with the callee's body lets
the dependence graph span the whole query, so loop fusion can run across
the SQL/UDF boundary (Figure 7).  Rules implemented here, as in the paper:

* the callee body is alpha-renamed so no names collide with the caller;
* pass-by-value is respected: a parameter the callee *reassigns* gets a
  fresh local bound to the argument (our IR has no in-place mutation, so
  reassignment is the only hazard); read-only parameters alias the argument
  directly (the paper's copy-on-write shortcut);
* a method is removed from the module once it is inlined at every call
  site (and is not the entry method);
* only straight-line callees are inlined at expression position; callees
  with control flow keep their call (the backend interprets them).
"""

from __future__ import annotations

from repro.core import ir
from repro.core.optimizer import analysis
from repro.errors import OptimizerError

__all__ = ["inline_methods", "inline_pass", "can_inline"]

_MAX_ROUNDS = 32


def can_inline(method: ir.Method) -> bool:
    """True if a method body is straight-line ending in a single return."""
    if not method.body:
        return False
    *front, last = method.body
    if not isinstance(last, ir.Return):
        return False
    return all(isinstance(stmt, ir.Assign) for stmt in front)


def inline_methods(module: ir.Module, entry: str | None = None) -> ir.Module:
    """Inline every inlinable call site in every method, to fixpoint.

    Returns a new module; the input is not mutated.  The entry method (by
    default the module's ``entry``) is always retained.
    """
    return inline_pass(module, entry)[0]


def inline_pass(module: ir.Module, entry: str | None = None) \
        -> tuple[ir.Module, bool]:
    """:func:`inline_methods` as a module pass: the new module, and
    whether a call site was expanded or a method dropped."""
    entry_name = entry if entry is not None else module.entry.name
    methods = {name: _copy_method(m) for name, m in module.methods.items()}
    # Only a method with a call site can change.  Each caller keeps one
    # name generator across rounds: inlining only adds names to it.
    callers = {m.name: analysis.fresh_namer(m) for m in methods.values()
               if any(isinstance(stmt, ir.Assign)
                      and isinstance(stmt.expr, ir.MethodCall)
                      for stmt in m.walk_stmts())}

    for rounds in range(_MAX_ROUNDS):
        changed = False
        for name, fresh in callers.items():
            if _inline_in_body(methods[name].body, name, methods, fresh):
                changed = True
        if not changed:
            break
    else:
        raise OptimizerError(
            "inlining did not reach a fixpoint (recursive methods?)")

    survivors = _reachable_methods(methods, entry_name)
    result = ir.Module(module.name)
    for name, method in methods.items():
        if name in survivors:
            result.add(method)
    # Every round but the last expanded a call site.
    return result, rounds > 0 or len(survivors) < len(methods)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _copy_method(method: ir.Method) -> ir.Method:
    return ir.Method(method.name, list(method.params), method.ret_type,
                     ir.copy_body(method.body))


def _inline_in_body(body: list[ir.Stmt], caller: str,
                    methods: dict[str, ir.Method], fresh) -> bool:
    changed = False
    i = 0
    while i < len(body):
        stmt = body[i]
        if isinstance(stmt, ir.If):
            changed |= _inline_in_body(stmt.then_body, caller, methods, fresh)
            changed |= _inline_in_body(stmt.else_body, caller, methods, fresh)
        elif isinstance(stmt, ir.While):
            changed |= _inline_in_body(stmt.body, caller, methods, fresh)
        elif isinstance(stmt, ir.Assign) \
                and isinstance(stmt.expr, ir.MethodCall):
            call = stmt.expr
            callee = methods.get(call.name)
            if callee is not None and call.name != caller \
                    and can_inline(callee):
                expansion = _expand_call(stmt, call, callee, fresh)
                body[i:i + 1] = expansion
                i += len(expansion)
                changed = True
                continue
        i += 1
    return changed


def _expand_call(site: ir.Assign, call: ir.MethodCall, callee: ir.Method,
                 fresh) -> list[ir.Stmt]:
    """The inlined statements replacing ``site``."""
    if len(call.args) != len(callee.params):
        raise OptimizerError(
            f"call to {callee.name!r} with {len(call.args)} args, "
            f"expected {len(callee.params)}")

    reassigned = _reassigned_params(callee)
    rename: dict[str, str] = {}
    out: list[ir.Stmt] = []

    for param, arg in zip(callee.params, call.args):
        if isinstance(arg, ir.Var) and param.name not in reassigned:
            # Read-only parameter: alias the argument (copy-on-write says a
            # physical copy is unnecessary).
            rename[param.name] = arg.name
        else:
            local = fresh(param.name)
            rename[param.name] = local
            out.append(ir.Assign(local, param.type, arg))

    *front, last = callee.body
    for stmt in front:
        assert isinstance(stmt, ir.Assign)
        local = fresh(stmt.target)
        expr = ir.rename_expr(stmt.expr, rename)
        rename[stmt.target] = local
        out.append(ir.Assign(local, stmt.type, expr))

    assert isinstance(last, ir.Return)
    out.append(ir.Assign(site.target, site.type,
                         ir.rename_expr(last.expr, rename)))
    return out


def _reassigned_params(callee: ir.Method) -> set[str]:
    params = set(callee.param_names())
    counts = analysis.assign_counts(callee)
    # Parameters start with count 1 (the binding); any extra assignment in
    # the body means the callee overwrites its copy.
    return {name for name in params if counts[name] > 1}


def _reachable_methods(methods: dict[str, ir.Method],
                       entry: str) -> set[str]:
    reachable = {entry}
    frontier = [entry]
    while frontier:
        current = methods.get(frontier.pop())
        if current is None:
            continue
        called: set[str] = set()
        for stmt in current.walk_stmts():
            _called_methods(stmt.cond if isinstance(stmt, (ir.If, ir.While))
                            else stmt.expr, called)
        frontier.extend(called - reachable)
        reachable |= called
    return reachable


def _called_methods(expr: ir.Expr, names: set[str]) -> None:
    if isinstance(expr, (ir.BuiltinCall, ir.MethodCall)):
        if isinstance(expr, ir.MethodCall):
            names.add(expr.name)
        for arg in expr.args:
            _called_methods(arg, names)
    elif isinstance(expr, ir.Cast):
        _called_methods(expr.expr, names)
