"""Verification of HorseIR modules — the one verifier, at two depths.

The default depth is the structural walk every compile runs on its
input, before optimization; it enforces the invariants the optimizer and the
backends rely on:

* every variable is assigned before use on every path (parameters
  count; ``if`` branches contribute only names assigned on both arms,
  ``while`` bodies contribute nothing);
* builtin names exist and arities match;
* method calls resolve to methods in the same module, with matching arity;
* every path through a method body ends in ``return`` (checked shallowly:
  the last top-level statement must be a return or an if whose branches
  both terminate);
* ``if``/``while`` conditions are expressions (scalarity is a runtime
  property, checked by the interpreter).

``full=True`` is the ``--verify-ir`` depth the
:class:`~repro.core.passes.PassManager` runs on its input and after
every pass application.  It adds:

* an unknown builtin is a :class:`~repro.errors.HorseVerifyError` (the
  default depth lets :class:`~repro.errors.BuiltinError` through);
* no orphaned statements: code after a ``return`` (or after an ``if``
  whose branches both return) can never execute;
* strict type/shape inference
  (:func:`repro.core.analysis.typeshape.infer_method`): every builtin
  receives element types its contract admits, every broadcast has
  compatible lengths, every cast can coerce at runtime, and every
  assignment and return lands in a slot that can hold it — a
  :class:`~repro.errors.HorseTypeError` naming the statement otherwise.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core.analysis.typeshape import infer_method
from repro.core.printer import print_stmt
from repro.errors import BuiltinError, HorseVerifyError

__all__ = ["verify_module", "verify_method"]


def verify_module(module: ir.Module, *, full: bool = False) -> None:
    if not module.methods:
        raise HorseVerifyError(f"module {module.name!r} has no methods")
    for method in module.methods.values():
        verify_method(method, module, full=full)


def verify_method(method: ir.Method, module: ir.Module | None = None, *,
                  full: bool = False) -> None:
    """Check one method (``module`` enables method-call resolution)."""
    if not full:
        _verify_structure(method, module)
        return
    try:
        _verify_structure(method, module)
    except BuiltinError as exc:
        raise HorseVerifyError(
            f"unknown builtin in method {method.name!r}: "
            f"{exc}") from exc
    for body in _bodies(method.body):
        for stmt, following in zip(body, body[1:]):
            if _terminates([stmt]):
                raise HorseVerifyError(
                    f"orphaned statement after a return in method "
                    f"{method.name!r}: {print_stmt(following)}")
    infer_method(method, module, strict=True)


def _verify_structure(method: ir.Method,
                      module: ir.Module | None) -> None:
    defined = set(method.param_names())
    if len(defined) != len(method.params):
        raise HorseVerifyError(
            f"method {method.name!r} has duplicate parameter names")
    _verify_body(method.body, defined, method, module)
    if not _terminates(method.body):
        raise HorseVerifyError(
            f"method {method.name!r} does not end in a return")


def _bodies(body: list[ir.Stmt]):
    """``body`` and every statement list nested inside it."""
    yield body
    for stmt in body:
        if isinstance(stmt, ir.If):
            yield from _bodies(stmt.then_body)
            yield from _bodies(stmt.else_body)
        elif isinstance(stmt, ir.While):
            yield from _bodies(stmt.body)


def _verify_body(body: list[ir.Stmt], defined: set[str],
                 method: ir.Method, module: ir.Module | None) -> None:
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            _verify_expr(stmt.expr, defined, method, module)
            defined.add(stmt.target)
        elif isinstance(stmt, ir.Return):
            _verify_expr(stmt.expr, defined, method, module)
        elif isinstance(stmt, ir.If):
            _verify_expr(stmt.cond, defined, method, module)
            then_defined = set(defined)
            else_defined = set(defined)
            _verify_body(stmt.then_body, then_defined, method, module)
            _verify_body(stmt.else_body, else_defined, method, module)
            # Only names assigned on *both* branches are defined after.
            defined |= (then_defined & else_defined)
        elif isinstance(stmt, ir.While):
            _verify_expr(stmt.cond, defined, method, module)
            # Loop bodies may not execute; their definitions don't escape.
            _verify_body(stmt.body, set(defined), method, module)
        else:
            raise HorseVerifyError(
                f"unknown statement {type(stmt).__name__} "
                f"in method {method.name!r}")


def _verify_expr(expr: ir.Expr, defined: set[str],
                 method: ir.Method, module: ir.Module | None) -> None:
    if isinstance(expr, ir.Var):
        if expr.name not in defined:
            raise HorseVerifyError(
                f"variable {expr.name!r} used before assignment "
                f"in method {method.name!r}")
        return
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.get(expr.name)
        if builtin.arity is not None and len(expr.args) != builtin.arity:
            raise HorseVerifyError(
                f"@{expr.name} expects {builtin.arity} argument(s), "
                f"got {len(expr.args)} in method {method.name!r}")
    elif isinstance(expr, ir.MethodCall):
        if module is not None:
            callee = module.methods.get(expr.name)
            if callee is None:
                raise HorseVerifyError(
                    f"call to unknown method {expr.name!r} "
                    f"in method {method.name!r}")
            if len(callee.params) != len(expr.args):
                raise HorseVerifyError(
                    f"method {expr.name!r} expects {len(callee.params)} "
                    f"argument(s), got {len(expr.args)} "
                    f"in method {method.name!r}")
    for child in expr.children():
        _verify_expr(child, defined, method, module)


def _terminates(body: list[ir.Stmt]) -> bool:
    if not body:
        return False
    last = body[-1]
    if isinstance(last, ir.Return):
        return True
    if isinstance(last, ir.If) and last.else_body:
        return _terminates(last.then_body) and _terminates(last.else_body)
    return False
