"""The four execution engines behind one ``Backend`` interface.

The paper's architecture compiles every input language into one IR
and then hands it to *an* execution engine.  This module holds the
engines:

* :class:`Backend` — what every engine implements: a ``name``,
  ``compile(unit, ctx)`` producing an executable, ``execute(compiled,
  ctx, ...)`` running it, ``available()``, the ``fallback`` it degrades
  to when unavailable, and ``horseir`` (whether it runs the HorseIR
  module or, like the baseline, the logical plan);
* :data:`ENGINES` — the name → class table of the four engines
  (``interp``, ``pygen``, ``cgen``, ``baseline``); each
  :class:`~repro.engine.session.EngineSession` holds one instance of
  each in its ``backends`` dict;
* :func:`resolve` — the engine for a name, following ``fallback`` while
  the engine is unavailable (``cgen`` without gcc → ``pygen``).  The
  ``cgen`` engine additionally falls back *per segment* at runtime for
  inputs its native kernels cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import builtins as hb
from repro.core import ir
from repro.core.codegen.cgen import c_backend_available
from repro.core.codegen.executor import DEFAULT_CHUNK_SIZE
from repro.core.compiler import (
    CompiledProgram, CompileReport, compilation, compile_module,
)
from repro.core.context import QueryContext
from repro.core.interp import Interpreter
from repro.core.values import TableValue, Value
from repro.engine.executor import PlanExecutor
from repro.errors import HorseRuntimeError

__all__ = ["Backend", "BackendError", "CompilationUnit", "ENGINES",
           "InterpProgram", "resolve", "DEFAULT_BACKEND"]

#: The backend used when a caller does not pick one.
DEFAULT_BACKEND = "pygen"


class BackendError(ValueError):
    """Unknown or unavailable backend, or a request it cannot serve."""


@dataclass
class CompilationUnit:
    """What the pipeline hands a backend to compile.

    HorseIR engines consume ``module``; the baseline consumes ``plan``.
    ``plan_json`` and ``sql`` ride along as provenance.  ``pipeline``
    (a preset name, comma list, or
    :class:`~repro.core.passes.Pipeline`) overrides the optimization
    preset ``opt_level`` implies; ``verify_ir``/``dump_ir`` switch on
    inter-pass verification and per-pass IR snapshots."""

    opt_level: str = "opt"
    module: ir.Module | None = None
    plan: object | None = None
    plan_json: dict | None = None
    udfs: object | None = None
    sql: str | None = None
    pipeline: object | None = None
    verify_ir: bool = False
    dump_ir: str | None = None


class Backend:
    """One execution engine.  Subclasses override the class attributes
    and the ``compile``/``execute`` pair; ``available`` answers whether
    the engine can run in this environment (:func:`resolve` consults
    it)."""

    name: str = "abstract"
    description: str = ""
    #: True for the engines that run the HorseIR module: the session
    #: translates the plan for them, holds their result to the root
    #: estimate's q-error, and compiles MATLAB only for them.
    horseir: bool = False
    #: Name of the backend this one degrades to when unavailable, or
    #: when it fails at runtime (None = no fallback).
    fallback: str | None = None

    def available(self) -> bool:
        return True

    def compile(self, unit: CompilationUnit, ctx: QueryContext):
        raise NotImplementedError

    def execute(self, compiled, ctx: QueryContext, *, db=None,
                tables: dict[str, TableValue] | None = None,
                args: list[Value] | None = None,
                method: str | None = None, n_threads: int = 1,
                chunk_size: int = DEFAULT_CHUNK_SIZE, **kwargs):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name}>"


class InterpProgram:
    """The interpreter's "executable": the (optionally optimized) module
    plus a :class:`CompileReport` so it quacks like a
    :class:`~repro.core.compiler.CompiledProgram` (``run``, ``report``,
    ``kernel_sources``, ``module``)."""

    def __init__(self, module: ir.Module, report: CompileReport):
        self.module = module
        self.report = report

    @property
    def kernel_sources(self) -> list[str]:
        return []

    def run(self, tables: dict[str, TableValue] | None = None,
            args: list[Value] | None = None,
            method: str | None = None, n_threads: int = 1,
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            ctx: QueryContext | None = None) -> Value:
        if ctx is None:
            ctx = QueryContext()
        interp = Interpreter(self.module, hb.EvalContext(tables),
                             qctx=ctx)
        tracer = ctx.tracer
        if not tracer.enabled:
            return interp.run(method, args)
        with tracer.span("execute", method=method or
                         self.module.entry.name, n_threads=n_threads,
                         opt_level=self.report.opt_level):
            return interp.run(method, args)


class _HorseIRBackend(Backend):
    """Shared execute path for engines that run HorseIR programs."""

    horseir = True

    def execute(self, compiled, ctx: QueryContext, *, db=None,
                tables=None, args=None, method=None, n_threads=1,
                chunk_size=DEFAULT_CHUNK_SIZE, **kwargs):
        if tables is None and db is not None:
            with ctx.tracer.span("bind-tables"):
                tables = db.to_table_values()
        return compiled.run(tables, args=args, method=method,
                            n_threads=n_threads, chunk_size=chunk_size,
                            ctx=ctx, **kwargs)


class InterpBackend(_HorseIRBackend):
    """The reference interpreter: statement-at-a-time, everything
    materialized — the paper's MAL-style execution profile.  Slowest,
    but dependency-free and the parity oracle for the others."""

    name = "interp"
    description = ("reference HorseIR interpreter (full "
                   "materialization, the parity oracle)")

    def compile(self, unit: CompilationUnit,
                ctx: QueryContext) -> InterpProgram:
        if unit.module is None:
            raise BackendError("interp backend needs a HorseIR module")
        # The shared prologue is the whole compile: the interpreter
        # has no code generation to put in the ``with`` body.
        with compilation(unit.module, unit.opt_level, self.name, ctx,
                         pipeline=unit.pipeline,
                         verify_ir=unit.verify_ir,
                         dump_ir=unit.dump_ir) as (module, report, _):
            pass
        return InterpProgram(module, report)


class PygenBackend(_HorseIRBackend):
    """Generated NumPy kernels — the always-available compiled engine."""

    name = "pygen"
    description = ("generated NumPy loop kernels (chunked, "
                   "single-threaded; always available)")
    fallback = "interp"

    def compile(self, unit: CompilationUnit,
                ctx: QueryContext) -> CompiledProgram:
        if unit.module is None:
            raise BackendError("pygen backend needs a HorseIR module")
        return compile_module(unit.module, unit.opt_level, ctx=ctx,
                              backend="python",
                              pipeline=unit.pipeline,
                              verify_ir=unit.verify_ir,
                              dump_ir=unit.dump_ir)


class CgenBackend(_HorseIRBackend):
    """Emitted C + OpenMP kernels, compiled with gcc per segment.
    Segments the native engine cannot express (strings, compressed
    selections) fall back to the pygen kernel at runtime."""

    name = "cgen"
    description = ("emitted C + OpenMP kernels via gcc (per-segment "
                   "pygen fallback for strings/compressed)")
    fallback = "pygen"

    def available(self) -> bool:
        return c_backend_available()

    def compile(self, unit: CompilationUnit,
                ctx: QueryContext) -> CompiledProgram:
        if unit.module is None:
            raise BackendError("cgen backend needs a HorseIR module")
        if not self.available():
            raise BackendError("the C backend needs gcc on PATH")
        return compile_module(unit.module, unit.opt_level, ctx=ctx,
                              backend="c",
                              pipeline=unit.pipeline,
                              verify_ir=unit.verify_ir,
                              dump_ir=unit.dump_ir)


class BaselinePlan:
    """The baseline's "executable": the logical plan itself (the
    MonetDB-like engine interprets plans, it does not lower them)."""

    def __init__(self, plan, udfs):
        self.plan = plan
        self.udfs = udfs


class BaselineBackend(Backend):
    """The MonetDB-like comparison engine: interpreted plan operators
    over whole columns with black-box Python UDFs."""

    name = "baseline"
    description = ("MonetDB-like interpreted plan execution with "
                   "black-box Python UDFs (the comparison system)")

    def compile(self, unit: CompilationUnit,
                ctx: QueryContext) -> BaselinePlan:
        if unit.plan is None:
            raise BackendError("baseline backend needs a logical plan")
        return BaselinePlan(unit.plan, unit.udfs)

    def execute(self, compiled: BaselinePlan, ctx: QueryContext, *,
                db=None, tables=None, args=None, method=None,
                n_threads=1, chunk_size=DEFAULT_CHUNK_SIZE, **kwargs):
        session = ctx.session
        if session is not None and db in (None, session.db):
            executor = session.baseline_executor()
        elif db is not None:
            executor = PlanExecutor(db, compiled.udfs, ctx=ctx)
        else:
            raise HorseRuntimeError(
                "baseline execution needs a Database (none bound)")
        return executor.execute(compiled.plan, n_threads=n_threads,
                                ctx=ctx)


#: The four engines, by name.
ENGINES = {"interp": InterpBackend, "pygen": PygenBackend,
           "cgen": CgenBackend, "baseline": BaselineBackend}


def resolve(engines: dict[str, Backend], name: str) -> Backend:
    """The engine ``engines`` holds under ``name``, following its
    ``fallback`` while the engine is unavailable in this environment
    (``cgen`` without gcc → ``pygen``)."""
    try:
        backend = engines[name]
    except KeyError:
        raise BackendError(f"unknown backend {name!r}; known: "
                           f"{', '.join(engines)}") from None
    while not backend.available():
        if backend.fallback is None:
            raise BackendError(f"backend {name!r} is unavailable in "
                               f"this environment")
        backend = engines[backend.fallback]
    return backend
