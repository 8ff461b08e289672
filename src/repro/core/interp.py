"""Reference interpreter for HorseIR.

Executes a module statement-at-a-time, fully materializing every
intermediate vector — precisely the execution style of MonetDB's MAL
interpreter and of the paper's **HorsePower-Naive** configuration (HorseIR
compiled to C without fusion).  A compiled program
(:mod:`repro.core.compiler`) runs on this same loop, with fused kernels
standing in for the statements they replace; both produce identical
results, which the test suite checks property-style.
"""

from __future__ import annotations

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.values import (TableValue, Value, Vector, coerce, scalar,
                               value_nbytes)
from repro.errors import HorseRuntimeError

__all__ = ["Interpreter", "find_method", "run_module"]

_MAX_LOOP_ITERATIONS = 100_000_000


class _ReturnSignal(Exception):
    """Internal control-flow signal carrying a method's return value."""

    def __init__(self, value: Value):
        self.value = value


class Interpreter:
    """Statement-at-a-time evaluator for a HorseIR module.

    The one statement loop of the system: a compiled program runs on it
    too (:class:`repro.core.compiler._RunState`), with its compiled plan
    as the body (:meth:`body_of`) and its kernel items run by
    :meth:`exec_other`."""

    #: Profile site prefix of an assignment's materialized bytes.
    site_prefix = "interp:"
    #: Label of the limits checkpoint taken before each statement.
    checkpoint = "statement"

    def __init__(self, module: ir.Module,
                 context: hb.EvalContext | None = None,
                 qctx: QueryContext | None = None):
        self.module = module
        self.context = context if context is not None else hb.EvalContext()
        #: The query context naming the tracer/metrics this run reports
        #: into (untraced, private counters when not given).
        self.qctx = qctx if qctx is not None else QueryContext()
        #: Where materialized bytes are charged (NULL_PROFILE when the
        #: query is not being profiled; every charge site checks
        #: ``.enabled`` first so disabled profiling costs one attribute
        #: read per statement).
        self.profile = self.qctx.profile
        #: The query's cooperative-cancellation surface (None when the
        #: query set no limits); checked once per executed statement so
        #: a deadline cancels interpreted runs at statement granularity.
        self.limits = self.qctx.limits
        #: Number of vector intermediates materialized (for the evaluation
        #: narrative: naive mode materializes one per statement).
        self.materialized = 0

    def run(self, method_name: str | None = None,
            args: list[Value] | None = None) -> Value:
        """Execute a method (the entry method by default) and return its
        result."""
        method = self.module.entry if method_name is None \
            else find_method(self.module, method_name)
        tracer = self.qctx.tracer
        if not tracer.enabled:
            return self._traced_call(method, args, None)
        with tracer.span("interpret", method=method.name,
                         module=self.module.name) as span:
            return self._traced_call(method, args, span)

    def _traced_call(self, method: ir.Method, args, span) -> Value:
        before = self.materialized
        bytes_before = (self.profile.counters()[0]
                        if self.profile.enabled else 0)
        try:
            return self._call(method, list(args or []))
        finally:
            materialized = self.materialized - before
            self.qctx.metrics.counter("interp.materialized").inc(
                materialized)
            if span is not None:
                span.set(materialized=materialized)
                if self.profile.enabled:
                    span.set(alloc_bytes=self.profile.counters()[0]
                             - bytes_before)

    # -- internals ----------------------------------------------------------

    def _call(self, method: ir.Method, args: list[Value]) -> Value:
        if len(args) != len(method.params):
            raise HorseRuntimeError(
                f"method {method.name!r} expects {len(method.params)} "
                f"argument(s), got {len(args)}")
        env: dict[str, Value] = {
            param.name: value
            for param, value in zip(method.params, args)
        }
        try:
            self._exec_body(self.body_of(method), env)
        except _ReturnSignal as signal:
            return signal.value
        raise HorseRuntimeError(
            f"method {method.name!r} finished without returning")

    def _exec_body(self, body: list, env: dict[str, Value]) -> None:
        profile = self.profile
        limits = self.limits
        for stmt in body:
            if limits is not None:
                limits.check(self.checkpoint)
            if isinstance(stmt, ir.Assign):
                value = env[stmt.target] = coerce(
                    self._eval(stmt.expr, env), stmt.type)
                self.materialized += 1
                if profile.enabled:
                    # Naive-mode accounting: every assignment fully
                    # materializes its result vector — except reference
                    # hand-outs (a table, a column).
                    if hb.charges_output(
                            stmt.expr, value,
                            lambda call: self._eval(call, env)):
                        profile.record(value_nbytes(value),
                                       site=self.site_prefix + stmt.target)
                    profile.update_peak(
                        sum(value_nbytes(v) for v in env.values()))
            elif isinstance(stmt, ir.Return):
                raise _ReturnSignal(self._eval(stmt.expr, env))
            elif isinstance(stmt, ir.If):
                if self._truth(stmt.cond, env):
                    self._exec_body(stmt.then_body, env)
                else:
                    self._exec_body(stmt.else_body, env)
            elif isinstance(stmt, ir.While):
                iterations = 0
                while self._truth(stmt.cond, env):
                    self._exec_body(stmt.body, env)
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERATIONS:
                        raise HorseRuntimeError(
                            "while loop exceeded the iteration limit")
            else:
                self.exec_other(stmt, env)

    def body_of(self, method: ir.Method) -> list:
        """The statements a call of ``method`` runs."""
        return method.body

    def exec_other(self, stmt, env: dict[str, Value]) -> None:
        """Run a statement that is not an IR statement (none here)."""
        raise HorseRuntimeError(f"unknown statement {type(stmt).__name__}")

    def _truth(self, cond: ir.Expr, env: dict[str, Value]) -> bool:
        value = self._eval(cond, env)
        if not isinstance(value, Vector) or len(value) != 1:
            raise HorseRuntimeError(
                "control-flow conditions must be scalar booleans "
                "(MATLAB's non-empty-set truthiness is unsupported, "
                "per the paper's translation rules)")
        return bool(value.item())

    def _eval(self, expr: ir.Expr, env: dict[str, Value]) -> Value:
        if isinstance(expr, ir.Var):
            try:
                return env[expr.name]
            except KeyError:
                raise HorseRuntimeError(
                    f"undefined variable {expr.name!r}") from None
        if isinstance(expr, ir.Literal):
            return scalar(expr.value, expr.type)
        if isinstance(expr, ir.SymbolLit):
            return scalar(expr.name, ht.SYM)
        if isinstance(expr, ir.Cast):
            return coerce(self._eval(expr.expr, env), expr.type)
        if isinstance(expr, ir.BuiltinCall):
            builtin = hb.get(expr.name)
            args = [self._eval(a, env) for a in expr.args]
            if self.profile.enabled:
                return hb.run_profiled(builtin, args, self.context,
                                       self.profile)
            return builtin.run(args, self.context)
        if isinstance(expr, ir.MethodCall):
            callee = self.module.methods.get(expr.name)
            if callee is None:
                raise HorseRuntimeError(
                    f"call to unknown method {expr.name!r}")
            args = [self._eval(a, env) for a in expr.args]
            return self._call(callee, args)
        raise HorseRuntimeError(
            f"unknown expression {type(expr).__name__}")


def find_method(module: ir.Module, name: str) -> ir.Method:
    """``module``'s method ``name``; every engine raises this one error
    for a method the module lacks."""
    try:
        return module.methods[name]
    except KeyError:
        raise HorseRuntimeError(
            f"module {module.name!r} has no method {name!r}") from None


def run_module(module: ir.Module, tables: dict[str, TableValue] | None = None,
               method: str | None = None,
               args: list[Value] | None = None,
               ctx: QueryContext | None = None) -> Value:
    """Convenience wrapper: interpret ``module`` against ``tables``."""
    interp = Interpreter(module, hb.EvalContext(tables), qctx=ctx)
    return interp.run(method, args)
