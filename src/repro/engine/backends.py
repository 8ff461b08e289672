"""Pluggable execution backends behind one ``Backend`` interface.

The paper's architecture compiles every input language into one IR and
then hands it to *an* execution engine; historically this reproduction
hard-coded four engines across three modules (the reference interpreter,
generated NumPy kernels, emitted C kernels, and the MonetDB-like
baseline), each reached through its own code path.  This module unifies
them:

* :class:`Backend` — the protocol every engine implements: a ``name``,
  a set of ``capabilities``, ``compile(unit, ctx)`` producing an
  executable, and ``execute(compiled, ctx, ...)`` running it;
* :class:`BackendRegistry` — named backends plus aliases, with
  **capability-based fallback**: resolving a backend that is unavailable
  (no gcc) or lacks a required capability walks its declared fallback
  chain (``cgen`` → ``pygen``) instead of failing, and the ``cgen``
  engine additionally falls back *per segment* at runtime for string or
  compressed data its native kernels cannot express;
* :func:`default_registry` — a fresh registry with the four standard
  engines (``interp``, ``pygen``, ``cgen``, ``baseline``) and the
  historical aliases (``python`` → ``pygen``, ``c`` → ``cgen``,
  ``monetdb`` → ``baseline``).

Registries are plain instances — each
:class:`~repro.engine.session.EngineSession` gets its own, so one
session can register an experimental backend without affecting any
other session in the process.

Capability tokens used by the standard engines:

========== ===========================================================
token      meaning
========== ===========================================================
sql        can execute SQL-derived work
matlab     can execute standalone MATLAB programs
horseir    consumes the HorseIR module (translate step required)
fusion     fuses segments into loop kernels (HorsePower-Opt profile)
threads    honors ``n_threads``: OpenMP threads in emitted C loops
native     emits machine code (C + OpenMP) for eligible segments
strings    full string/date kernel support without fallback
prepared   compilation is worth caching in the session plan cache
========== ===========================================================
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

__all__ = ["Backend", "BackendRegistry", "BackendError",
           "CompilationUnit", "InterpProgram", "default_registry",
           "DEFAULT_BACKEND"]

#: The backend used when a caller does not pick one.
DEFAULT_BACKEND = "pygen"


class BackendError(ValueError):
    """Unknown, unavailable, or incapable backend."""


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
    the engine can run in this environment (the registry consults it
    when resolving with fallback)."""

    name: str = "abstract"
    description: str = ""
    capabilities: frozenset = frozenset()
    #: Name of the backend resolution degrades to when this one is
    #: unavailable or lacks a required capability (None = no fallback).
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
    capabilities = frozenset({"sql", "matlab", "horseir", "strings",
                              "prepared"})

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
    capabilities = frozenset({"sql", "matlab", "horseir", "fusion",
                              "strings", "prepared"})
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
    selections) fall back to the pygen kernel at runtime — the
    capability fallback made per-segment."""

    name = "cgen"
    description = ("emitted C + OpenMP kernels via gcc (per-segment "
                   "pygen fallback for strings/compressed)")
    capabilities = frozenset({"sql", "matlab", "horseir", "fusion",
                              "threads", "native", "prepared"})
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
    capabilities = frozenset({"sql", "udf-python"})

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


class BackendRegistry:
    """Named :class:`Backend` instances plus aliases.

    ``get`` is strict (exact name or alias); ``resolve`` additionally
    walks each backend's declared fallback chain when the backend is
    unavailable in this environment or lacks a required capability —
    e.g. ``resolve("cgen")`` on a box without gcc degrades to
    ``pygen``."""

    def __init__(self):
        self._backends: dict[str, Backend] = {}
        self._aliases: dict[str, str] = {}

    def register(self, backend: Backend,
                 aliases: tuple[str, ...] = ()) -> Backend:
        if backend.name in self._backends:
            raise BackendError(
                f"backend {backend.name!r} is already registered")
        self._backends[backend.name] = backend
        for alias in aliases:
            self._aliases[alias] = backend.name
        return backend

    def names(self) -> list[str]:
        return list(self._backends)

    def aliases(self, name: str) -> list[str]:
        """The alternate names registered for ``name``'s backend."""
        canonical = self._aliases.get(name, name)
        return sorted(alias for alias, target in self._aliases.items()
                      if target == canonical)

    def __contains__(self, name: str) -> bool:
        return name in self._backends or name in self._aliases

    def get(self, name: str) -> Backend:
        canonical = self._aliases.get(name, name)
        try:
            return self._backends[canonical]
        except KeyError:
            known = sorted(set(self._backends) | set(self._aliases))
            raise BackendError(
                f"unknown backend {name!r}; known: "
                f"{', '.join(known)}") from None

    def resolve(self, name: str,
                require: frozenset | set | tuple = ()) -> Backend:
        """The backend for ``name``, degrading along fallback chains
        when it is unavailable or lacks a capability in ``require``."""
        backend = self.get(name)
        required = frozenset(require)
        seen = []
        while True:
            if backend.available() and required <= backend.capabilities:
                return backend
            seen.append(backend.name)
            if backend.fallback is None or backend.fallback in seen:
                missing = sorted(required - backend.capabilities)
                reason = (f"missing capabilities {missing}" if missing
                          else "unavailable in this environment")
                raise BackendError(
                    f"backend {name!r} cannot serve this request "
                    f"({reason}) and no fallback remains "
                    f"(tried {' -> '.join(seen)})")
            backend = self.get(backend.fallback)


def default_registry() -> BackendRegistry:
    """A fresh registry with the four standard engines and the
    historical aliases."""
    registry = BackendRegistry()
    registry.register(InterpBackend())
    registry.register(PygenBackend(), aliases=("python",))
    registry.register(CgenBackend(), aliases=("c",))
    registry.register(BaselineBackend(), aliases=("monetdb",))
    return registry
