"""The four execution engines behind one ``Backend`` interface.

The paper's architecture compiles every input language into one IR
and then hands it to *an* execution engine.  This module holds the
engines:

* :class:`Backend` — what every engine implements: a ``name``,
  ``compile(source, ctx, ...)`` producing an executable from the
  HorseIR module (or, for the baseline, the logical plan),
  ``execute(program, ctx, session=...)`` running it, ``available()``,
  the ``fallback`` it degrades to when unavailable, and ``horseir``
  (whether it runs the HorseIR module or, like the baseline, the
  logical plan);
* :data:`ENGINES` — the name → class table of the four engines
  (``interp``, ``pygen``, ``cgen``, ``baseline``); each
  :class:`~repro.engine.session.EngineSession` holds one instance of
  each in its ``backends`` dict;
* :func:`resolve` — the engine for a name, following ``fallback`` while
  the engine is unavailable (``cgen`` without gcc → ``pygen``).  The
  ``cgen`` engine additionally falls back *per segment* at runtime for
  inputs its native kernels cannot express.

The three HorseIR engines are one class apart only in their class
attributes: each compiles through
:func:`~repro.core.compiler.compile_module` with its own kernel kind
and runs the :class:`~repro.core.compiler.CompiledProgram` it gets.
"""

from __future__ import annotations

from repro.core.codegen.cgen import c_backend_available
from repro.core.codegen.executor import DEFAULT_CHUNK_SIZE
from repro.core.compiler import check_run_options, compile_module
from repro.core.context import QueryContext

__all__ = ["Backend", "BackendError", "ENGINES", "resolve",
           "DEFAULT_BACKEND"]

#: The backend used when a caller does not pick one.
DEFAULT_BACKEND = "pygen"


class BackendError(ValueError):
    """Unknown or unavailable backend, or a request it cannot serve."""


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

    def compile(self, source, ctx: QueryContext, *,
                opt_level: str = "opt", pipeline=None,
                verify_ir: bool = False, dump_ir: str | None = None):
        """The executable of ``source``: the HorseIR module for a
        HorseIR engine, the logical plan for the baseline."""
        raise NotImplementedError

    def execute(self, program, ctx: QueryContext, *, session,
                tables=None, args=None, method=None, n_threads: int = 1,
                chunk_size: int = DEFAULT_CHUNK_SIZE):
        """Run ``program`` over ``tables`` (by default ``session``'s
        database)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name}>"


class _HorseIRBackend(Backend):
    """The engines that compile HorseIR with :func:`compile_module` and
    run the program it returns."""

    horseir = True
    #: The kernel kind ``compile_module`` makes for this engine.
    kernels: str

    def compile(self, module, ctx, *, opt_level="opt", pipeline=None,
                verify_ir=False, dump_ir=None):
        return compile_module(module, opt_level, ctx=ctx,
                              backend=self.kernels, pipeline=pipeline,
                              verify_ir=verify_ir, dump_ir=dump_ir)

    def execute(self, program, ctx, *, session, tables=None, args=None,
                method=None, n_threads=1, chunk_size=DEFAULT_CHUNK_SIZE):
        if tables is None:
            with ctx.tracer.span("bind-tables"):
                tables = session.db.to_table_values()
        return program.run(tables, args=args, method=method,
                           n_threads=n_threads, chunk_size=chunk_size,
                           ctx=ctx)


class InterpBackend(_HorseIRBackend):
    """The reference interpreter's loop over the optimized, unfused
    bodies: statement-at-a-time, everything materialized — the paper's
    MAL-style execution profile.  Slowest, but dependency-free."""

    name = "interp"
    description = ("the reference interpreter's statement loop over "
                   "unfused HorseIR (full materialization)")
    kernels = "interp"


class PygenBackend(_HorseIRBackend):
    """Generated NumPy kernels — the always-available compiled engine."""

    name = "pygen"
    description = ("generated NumPy loop kernels (chunked, "
                   "single-threaded; always available)")
    fallback = "interp"
    kernels = "python"


class CgenBackend(_HorseIRBackend):
    """Emitted C + OpenMP kernels, compiled with gcc per segment.
    Segments the native engine cannot express (strings, compressed
    selections) fall back to the pygen kernel at runtime."""

    name = "cgen"
    description = ("emitted C + OpenMP kernels via gcc (per-segment "
                   "pygen fallback for strings/compressed)")
    fallback = "pygen"
    kernels = "c"

    def available(self) -> bool:
        return c_backend_available()


class BaselineBackend(Backend):
    """The MonetDB-like comparison engine: interpreted plan operators
    over whole columns with black-box Python UDFs.  It interprets the
    logical plan rather than lowering it, so the plan is its program,
    and it runs over the session's database with the session's UDFs."""

    name = "baseline"
    description = ("MonetDB-like interpreted plan execution with "
                   "black-box Python UDFs (the comparison system)")

    def compile(self, plan, ctx, *, opt_level="opt", pipeline=None,
                verify_ir=False, dump_ir=None):
        return plan

    def execute(self, plan, ctx, *, session, tables=None, args=None,
                method=None, n_threads=1, chunk_size=DEFAULT_CHUNK_SIZE):
        if tables is not None or args is not None or method is not None:
            raise BackendError("the baseline runs its plan over the "
                               "session's database: it takes no tables, "
                               "args or method")
        check_run_options(n_threads, chunk_size)
        return session.baseline_executor().execute(
            plan, n_threads=n_threads, ctx=ctx)


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
