"""The HorsePower compiler: HorseIR module → executable program.

Two optimization levels, matching the paper's configurations:

* ``"naive"`` (HorsePower-Naive): no optimization; every statement executes
  as an individual vectorized call with full materialization — the same
  execution profile as a MAL-style interpreter.
* ``"opt"`` (HorsePower-Opt): the full pipeline — inlining, constant/copy
  propagation, CSE, backward slicing, pattern-based fusion — followed by
  automatic loop fusion and kernel code generation.

Either way the program runs on the reference interpreter's statement
loop (:class:`~repro.core.interp.Interpreter`): at ``"naive"`` over the
method bodies as they are, at ``"opt"`` over each method's compiled
plan, whose fused segments are kernel items in place of the statements
they replace.

The compiled program's ``run`` takes ``n_threads``, the OpenMP thread
count of the emitted C kernels (NumPy kernels run on the caller's
thread), and an optional :class:`~repro.core.context.QueryContext`
naming the tracer/metrics the run reports into; without one the run is
untraced and unprofiled (a default ``QueryContext()``).

Which kernel engine a fused segment compiles to is the ``backend``
string: ``"python"`` → generated NumPy kernels, ``"c"`` → emitted C +
OpenMP with per-segment Python fallback.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from repro.core import builtins as hb
from repro.core import ir
from repro.core.analysis.typeshape import consistent_types, resolve_types
from repro.core.codegen.cgen import CKernel, c_backend_available
from repro.core.codegen.executor import DEFAULT_CHUNK_SIZE, run_kernel
from repro.core.codegen.lower import lower_strings
from repro.core.codegen.pygen import CompiledKernel, generate_kernel
from repro.core.context import QueryContext
from repro.core.optimizer import OptimizeStats, optimize
from repro.core.passes import resolve_pipeline
from repro.core.optimizer.fusion import (
    FusedItem, IfItem, OpaqueItem, ReturnItem, segment_method,
)
from repro.core.interp import Interpreter, find_method
from repro.core.values import TableValue, Value, Vector, value_nbytes
from repro.core.verify import verify_module
from repro.errors import HorseRuntimeError

__all__ = ["compile_module", "compilation", "CompiledProgram",
           "CompileReport"]


@dataclass
class CompileReport:
    """Provenance of a compilation (surfaced in benchmarks as COMP time).

    ``compile_seconds`` is the paper's COMP column and always equals
    ``optimize_seconds + codegen_seconds`` exactly — the split lets
    reports decompose COMP into its optimizer and code-generation
    shares (``codegen_seconds`` includes verification and plan
    segmentation, the non-optimizer remainder)."""

    opt_level: str
    compile_seconds: float
    optimize_stats: OptimizeStats | None
    backend: str = "python"
    fused_segments: int = 0
    fused_statements: int = 0
    c_eligible_segments: int = 0
    kernel_sources: list[str] = field(default_factory=list)
    optimize_seconds: float = 0.0
    codegen_seconds: float = 0.0


class _KernelItem:
    """Plan item: a fused segment with its compiled kernel(s).

    ``c_kernel`` is the native (emitted C + OpenMP) variant; when
    present it is tried first and ``run`` falls back to the Python
    kernel for segments or runtime inputs the native engine declines
    (object-dtype inputs, empty inputs, builtins without a C template)
    — cgen's per-segment fallback to pygen.  The kernel span then names
    the reason in ``c_declined``.
    """

    __slots__ = ("kernel", "c_kernel")

    def __init__(self, kernel: CompiledKernel,
                 c_kernel: "CKernel | None" = None):
        self.kernel = kernel
        self.c_kernel = c_kernel

    def run(self, inputs: list[Vector], state: "_RunState",
            span=None) -> list[Vector]:
        if self.c_kernel is None:
            if span is not None:
                span.set(backend="python")
        else:
            outputs, declined = self.c_kernel.try_run(inputs,
                                                      state.n_threads)
            if outputs is not None:
                if span is not None:
                    span.set(backend="c")
                if state.profile.enabled:
                    # The native path allocates only its output arrays
                    # on the Python heap (its temporaries live inside
                    # the emitted C); run_kernel charges the Python
                    # path itself.
                    total = sum(v.nbytes() for v in outputs)
                    state.profile.record(
                        total, site="kernel:" + self.kernel.fn.__name__,
                        count=len(outputs))
                    if span is not None:
                        span.add("alloc_bytes", total)
                return outputs
            if span is not None:
                span.set(backend="python", c_declined=declined)
        return run_kernel(self.kernel, inputs,
                          chunk_size=state.chunk_size, ctx=state.qctx)


def _python_kernel_item(segment, name: str, report: CompileReport,
                        declared: dict) -> _KernelItem:
    """Generated NumPy kernels — always available, handles every dtype."""
    kernel = generate_kernel(segment, name=name, declared=declared)
    report.kernel_sources.append(kernel.source)
    return _KernelItem(kernel)


def _c_kernel_item(segment, name: str, report: CompileReport,
                   declared: dict) -> _KernelItem:
    """Emitted C + OpenMP per segment, with the Python kernel kept as
    the per-segment (and per-dtype-signature) fallback."""
    item = _python_kernel_item(segment, name, report, declared)
    c_kernel = CKernel(segment, declared)
    if c_kernel.eligible:
        report.c_eligible_segments += 1
    item.c_kernel = c_kernel
    return item


#: The fused-kernel engine ``backend`` selects: one fused segment in,
#: one executable plan item out — ``(segment, name, report, declared)``,
#: ``declared`` mapping each variable of the method to its type.
_BUILTIN_FACTORIES = {
    "python": _python_kernel_item,
    "c": _c_kernel_item,
}


class CompiledProgram:
    """An executable HorseIR program."""

    def __init__(self, module: ir.Module, plans: dict[str, list],
                 report: CompileReport):
        self.module = module
        self._plans = plans
        self.report = report

    def run(self, tables: dict[str, TableValue] | None = None,
            args: list[Value] | None = None,
            method: str | None = None,
            n_threads: int = 1,
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            ctx: QueryContext | None = None) -> Value:
        """Execute the entry method (or ``method``) and return its result.

        ``n_threads`` (at least 1) is the OpenMP thread count of the
        emitted C kernels; NumPy kernels run on the caller's thread.
        """
        if n_threads < 1:
            raise ValueError(f"n_threads must be at least 1, "
                             f"got {n_threads}")
        if ctx is None:
            ctx = QueryContext()
        entry = method if method is not None else self.module.entry.name
        target = find_method(self.module, entry)
        state = _RunState(self, hb.EvalContext(tables), n_threads,
                          chunk_size, ctx)
        tracer = ctx.tracer
        if not tracer.enabled:
            return state._call(target, list(args or []))
        with tracer.span("execute", method=entry,
                         n_threads=n_threads,
                         opt_level=self.report.opt_level) as span:
            result = state._call(target, list(args or []))
            rows = getattr(result, "num_rows", None)
            if rows is not None:
                span.set(rows_out=rows)
            return result

    @property
    def kernel_sources(self) -> list[str]:
        """Generated kernel code, for inspection (Figure 3 analog)."""
        return list(self.report.kernel_sources)


class _RunState(Interpreter):
    """One run of a compiled program: the reference interpreter's
    statement loop over each method's compiled plan — IR statements
    plus kernel items — with the run's threading and chunking."""

    site_prefix = "stmt:"
    checkpoint = "plan-item"

    def __init__(self, program: CompiledProgram, eval_ctx: hb.EvalContext,
                 n_threads: int, chunk_size: int, ctx: QueryContext):
        super().__init__(program.module, eval_ctx, ctx)
        self.plans = program._plans
        self.n_threads = n_threads
        self.chunk_size = chunk_size

    def body_of(self, method: ir.Method) -> list:
        return self.plans[method.name]

    def exec_other(self, item: _KernelItem, env: dict[str, Value]) -> None:
        kernel = item.kernel
        inputs = []
        for name in kernel.inputs:
            value = env.get(name)
            if value is None:
                raise HorseRuntimeError(
                    f"fused segment input {name!r} is undefined")
            if not isinstance(value, Vector):
                raise HorseRuntimeError(
                    f"fused segment input {name!r} must be a vector, "
                    f"got {type(value).__name__}")
            inputs.append(value)
        tracer = self.qctx.tracer
        if not tracer.enabled:
            outputs = item.run(inputs, self)
        else:
            with tracer.span("kernel:" + kernel.fn.__name__,
                             statements=len(kernel.segment.stmts)) as sp:
                outputs = item.run(inputs, self, span=sp)
                sp.set(rows_in=max((len(v) for v in inputs), default=0),
                       rows_out=max((len(v) for v in outputs),
                                    default=0))
        for (name, _), value in zip(kernel.outputs, outputs):
            env[name] = value
        if self.profile.enabled:
            self.profile.update_peak(
                sum(value_nbytes(v) for v in env.values()))


@contextmanager
def compilation(module: ir.Module, opt_level: str, backend: str,
                ctx: QueryContext, *, entry: str | None = None,
                pipeline=None, verify_ir: bool = False,
                dump_ir: str | None = None):
    """The part of compiling that every HorseIR backend shares: the
    ``compile`` span, verify → resolve types → optimize, the COMP
    timing split and the ``compile.*`` counters.

    The input is verified once, at the default depth, so a malformed
    module fails with a located diagnostic before any pass runs; the
    optimizer's own output is checked under ``verify_ir`` (every state,
    at full depth), not twice per compile.  Every ``?`` declaration is
    then resolved (:func:`~repro.core.analysis.typeshape.resolve_types`)
    into a new module, so the caller's module is left as it was.

    Yields ``(module, report, compile_span)`` with the optimized module
    and a :class:`CompileReport` the caller's code generation (the
    ``with`` body; empty for the interpreter) may fill in.  On exit the
    report's timings are final — the body's time lands in
    ``codegen_seconds`` — and the counters are bumped."""
    pipeline = resolve_pipeline(pipeline, opt_level=opt_level)
    tracer = ctx.tracer
    with tracer.span("compile", opt_level=opt_level,
                     backend=backend) as compile_span:
        start = time.perf_counter()
        # Under verify_ir the pass manager verifies its input and every
        # later module state at full depth, the final one included.
        if not verify_ir:
            verify_module(module)
        # Types are decided here, once: no `?` declaration reaches the
        # optimizer or code generation unless an operand is unknown.
        module = resolve_types(module)

        stats: OptimizeStats | None = None
        optimize_seconds = 0.0
        if pipeline.ir_passes or verify_ir or dump_ir is not None:
            opt_start = time.perf_counter()
            with tracer.span("optimize"):
                module, stats = optimize(module, entry=entry, ctx=ctx,
                                         pipeline=pipeline,
                                         verify_ir=verify_ir,
                                         dump_ir=dump_ir)
            optimize_seconds = time.perf_counter() - opt_start

        report = CompileReport(opt_level, 0.0, stats, backend=backend)
        yield module, report, compile_span

        total = time.perf_counter() - start
        report.optimize_seconds = optimize_seconds
        report.codegen_seconds = total - optimize_seconds
        # Sum the parts so optimize + codegen == compile holds exactly
        # (a float re-add, not the raw total, which could differ by an
        # ulp).
        report.compile_seconds = (report.optimize_seconds
                                  + report.codegen_seconds)
    metrics = ctx.metrics
    metrics.counter("compile.count").inc()
    metrics.counter("compile.optimize_seconds_total").inc(
        report.optimize_seconds)
    metrics.counter("compile.codegen_seconds_total").inc(
        report.codegen_seconds)


def compile_module(module: ir.Module, opt_level: str = "opt",
                   entry: str | None = None,
                   backend: str = "python",
                   ctx: QueryContext | None = None, *,
                   pipeline=None, verify_ir: bool = False,
                   dump_ir: str | None = None) -> CompiledProgram:
    """Compile a HorseIR module at ``opt_level`` (``"naive"`` or
    ``"opt"``).

    ``backend`` selects the fused-kernel engine: ``"python"`` (generated
    NumPy kernels, always available) or ``"c"`` (emitted C + OpenMP via
    gcc, per-segment with Python fallback).  Spans and compile metrics
    go to ``ctx`` (nowhere visible when not given: a default
    ``QueryContext()`` is untraced and counts privately).

    ``pipeline`` overrides the optimization preset the level implies
    (``"opt"`` → ``O2``, ``"naive"`` → ``O0``, which has no IR passes);
    ``verify_ir=True`` re-verifies the IR after every pass and
    ``dump_ir`` names a directory for per-pass IR snapshots."""
    if ctx is None:
        ctx = QueryContext()
    if opt_level not in ("naive", "opt"):
        raise ValueError(f"unknown opt level {opt_level!r}")
    if backend not in _BUILTIN_FACTORIES:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "c" and not c_backend_available():
        raise ValueError("the C backend needs gcc on PATH")
    make_kernel = _BUILTIN_FACTORIES[backend]
    with compilation(module, opt_level, backend, ctx, entry=entry,
                     pipeline=pipeline, verify_ir=verify_ir,
                     dump_ir=dump_ir) as (module, report, compile_span):
        plans: dict[str, list] = {}
        with ctx.tracer.span("codegen") as codegen_span:
            for name, method in module.methods.items():
                if opt_level == "naive":
                    plans[name] = method.body
                    continue
                method, opaque = lower_strings(method)
                plan = segment_method(method, module, opaque=opaque)
                plans[name] = _compile_plan(plan, report, partial(
                    make_kernel, declared=consistent_types(method)))
            codegen_span.set(fused_segments=report.fused_segments,
                             fused_statements=report.fused_statements)
        compile_span.set(fused_segments=report.fused_segments)
    return CompiledProgram(module, plans, report)


def _compile_plan(plan: list, report: CompileReport, make_kernel) -> list:
    """The segmenter's plan as the statements :class:`_RunState` runs:
    IR statements, with a kernel item per fused segment."""
    compiled: list = []
    for item in plan:
        if isinstance(item, FusedItem):
            name = f"_kernel_{report.fused_segments}"
            report.fused_segments += 1
            report.fused_statements += len(item.segment.stmts)
            compiled.append(make_kernel(item.segment, name, report))
        elif isinstance(item, OpaqueItem):
            compiled.append(item.stmt)
        elif isinstance(item, ReturnItem):
            compiled.append(ir.Return(item.expr))
        elif isinstance(item, IfItem):
            compiled.append(ir.If(
                item.cond,
                _compile_plan(item.then_plan, report, make_kernel),
                _compile_plan(item.else_plan, report, make_kernel)))
        else:
            compiled.append(ir.While(
                item.cond, _compile_plan(item.body_plan, report, make_kernel)))
    return compiled
