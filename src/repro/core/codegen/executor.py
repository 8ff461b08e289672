"""Chunked, multi-threaded execution of fused kernels.

The reproduction's stand-in for the paper's OpenMP parallel loops: the base
iteration space is split into chunks, the fused kernel runs per chunk (its
temporaries are chunk-sized, so the chain stays cache-resident), chunks are
dispatched to a thread pool (NumPy array ops release the GIL), and
reduction partials merge with the builtin's ``combine`` rule.

Vector outputs are never assembled from pieces: each is allocated once at
the base length and every chunk writes its rows into its own slice.  A
compressed output is written compacted — at the running offset on one
thread; at the chunk's ``lo`` on several, after which each block moves
down, in chunk order, to its prefix-sum offset (the shape of the C
backend's native compaction) — and then shrinks to the rows selected.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core import types as ht
from repro.core.codegen.pygen import CompiledKernel, compress_length_error
from repro.core.context import QueryContext
from repro.core.values import Vector
from repro.errors import BuiltinError, HorseRuntimeError

__all__ = ["run_kernel", "DEFAULT_CHUNK_SIZE"]

#: Elements per chunk.  Sized so a handful of f64 temporaries stay
#: cache-resident (measured sweet spot 8k-32k elements on this class of
#: kernel; see EXPERIMENTS.md).
DEFAULT_CHUNK_SIZE = 1 << 15


def run_kernel(kernel: CompiledKernel, inputs: list[Vector],
               n_threads: int = 1,
               chunk_size: int = DEFAULT_CHUNK_SIZE,
               pool: ThreadPoolExecutor | None = None, *,
               ctx: QueryContext) -> list[Vector]:
    """Execute a fused kernel over its inputs; returns the output vectors
    in the order of ``kernel.outputs``.  Spans and kernel metrics report
    into ``ctx``; parallel runs borrow ``pool``, falling back to the
    context's pool."""
    start = time.perf_counter()
    outputs = _run_kernel(kernel, inputs, n_threads, chunk_size, pool,
                          ctx)
    metrics = ctx.metrics
    metrics.counter("kernel.invocations").inc()
    metrics.histogram("kernel.seconds").observe(
        time.perf_counter() - start)
    metrics.counter("kernel.rows_in").inc(
        max((len(v) for v in inputs), default=0))
    metrics.counter("kernel.rows_out").inc(
        max((len(v) for v in outputs), default=0))
    profile = ctx.profile
    if profile.enabled:
        charge_kernel_alloc(kernel, inputs, outputs, chunk_size, ctx)
    return outputs


def charge_kernel_alloc(kernel: CompiledKernel, inputs: list[Vector],
                        outputs: list[Vector], chunk_size: int,
                        ctx: QueryContext) -> None:
    """Charge one fused-kernel invocation to the context's profile.

    The fusion story in numbers: the kernel materializes only its
    *outputs* (written in place; they take no buffer) plus its reused
    per-chunk ``out=`` buffers — each buffer
    is ``min(base_len, chunk_size)`` elements and charged **once** no
    matter how many chunks streamed through it, whereas the naive path
    charges a full-length vector per statement.  The total also lands
    on the current (kernel) span as ``alloc_bytes`` so
    ``EXPLAIN ANALYZE`` shows per-span allocation.
    """
    profile = ctx.profile
    n = max((len(v) for v, stream in zip(inputs, kernel.streamed)
             if stream), default=1)
    buffer_bytes = sum(min(n, chunk_size) * itemsize
                       for itemsize in kernel.buffer_itemsizes)
    output_bytes = sum(v.nbytes() for v in outputs)
    total = output_bytes + buffer_bytes
    site = "kernel:" + kernel.fn.__name__
    profile.record(total, site=site,
                   count=len(outputs) + len(kernel.buffer_itemsizes))
    span = ctx.tracer.current()
    if span is not None:
        span.add("alloc_bytes", total)


def _run_kernel(kernel: CompiledKernel, inputs: list[Vector],
                n_threads: int, chunk_size: int,
                pool: ThreadPoolExecutor | None,
                ctx: QueryContext) -> list[Vector]:
    arrays = [value.data for value in inputs]
    n = _base_length(kernel, arrays)
    if kernel.compress_guards:
        error = compress_length_error(kernel.compress_guards, arrays, n)
        if error is not None:
            raise error

    if n == 0:
        return _empty_outputs(kernel, arrays)

    limits = ctx.limits
    #: One destination per in-place output, allocated once at the base
    #: length: ``(output slot, array, compacted)``.
    targets = [(slot, np.empty(n, dtype=ht.numpy_dtype(type_)),
                where == "sel")
               for slot, (where, type_)
               in enumerate(zip(kernel.placements, kernel.output_types))
               if where in ("base", "sel")]

    if n <= chunk_size or kernel.whole:
        # The single-chunk fast path is still one chunk of work: count
        # it (kernel.chunks == chunks actually executed, fast path or
        # not) and give it the same cancellation checkpoint.
        ctx.metrics.counter("kernel.chunks").inc()
        if limits is not None:
            limits.check("chunk")
        result = kernel.fn(*arrays, *(dst for _, dst, _ in targets))
        for slot, (name, role) in enumerate(kernel.outputs):
            if role != "vector" and result[slot] is None:
                combine = role.split(":", 1)[1]
                raise BuiltinError(f"@{combine} of an empty vector")
        return _assemble(kernel, arrays, targets,
                         [result[slot] for slot, _, _ in targets],
                         list(result))

    bounds = [(lo, min(lo + chunk_size, n))
              for lo in range(0, n, chunk_size)]
    ctx.metrics.counter("kernel.chunks").inc(len(bounds))

    tracer = ctx.tracer
    #: Worker threads start with an empty context, so chunk spans anchor
    #: to the kernel span captured here rather than via the contextvar.
    parent = tracer.current() if tracer.enabled else None

    def run_chunk(lo: int, hi: int, starts: list[int]):
        """Run rows ``[lo, hi)``; a compacted output's rows go to its
        destination at ``starts[i]``, a base output's at ``lo``."""
        if limits is not None:
            limits.check("chunk")
        sliced = [arr[lo:hi] if stream and len(arr) == n else arr
                  for arr, stream in zip(arrays, kernel.streamed)]
        views = [dst[start:start + hi - lo] if compacted else dst[lo:hi]
                 for (_, dst, compacted), start in zip(targets, starts)]
        if not tracer.enabled:
            return kernel.fn(*sliced, *views)
        with tracer.span("chunk", parent=parent, lo=lo, hi=hi,
                         rows=hi - lo):
            return kernel.fn(*sliced, *views)

    ends = [0] * len(targets)
    parallel = n_threads > 1 and len(bounds) > 1
    if parallel:
        # Each chunk writes its selected rows at its own ``lo``.  As the
        # results arrive, in chunk order, each block moves down to its
        # prefix-sum offset — below the rows of every later chunk, so
        # the moves overlap the chunks still running.
        if pool is None:
            pool = ctx.executor(n_threads)
        results = pool.map(
            lambda bound: run_chunk(*bound, [bound[0]] * len(targets)),
            bounds)
    else:
        # One thread: each chunk writes at the running offset, so
        # nothing moves.
        results = (run_chunk(lo, hi, ends) for lo, hi in bounds)
    chunk_results = []
    for (lo, _), result in zip(bounds, results):
        for i, (slot, dst, compacted) in enumerate(targets):
            if compacted:
                rows, end = result[slot], ends[i]
                if parallel and end != lo:
                    dst[end:end + rows] = dst[lo:lo + rows]
                ends[i] = end + rows
        chunk_results.append(result)

    values = []
    for slot, (name, role) in enumerate(kernel.outputs):
        if role == "vector":
            # A broadcast value is the same in every chunk.
            values.append(chunk_results[0][slot])
        else:
            values.append(_combine(
                role.split(":", 1)[1],
                [result[slot] for result in chunk_results],
                kernel.output_types[slot]))
    return _assemble(kernel, arrays, targets, ends, values)


def _assemble(kernel: CompiledKernel, arrays: list[np.ndarray],
              targets: list, ends: list[int], values: list) -> list[Vector]:
    """The output vectors: destinations written in place (a compacted one
    shrunk, without a copy, to its ``ends`` rows), inputs passed
    through, and ``values`` (what the kernel returned, reductions
    combined) for the rest."""
    for (slot, dst, compacted), end in zip(targets, ends):
        if compacted:
            dst.resize(end, refcheck=False)
        values[slot] = dst
    for slot, where in enumerate(kernel.placements):
        if isinstance(where, int):
            values[slot] = arrays[where]
    return _wrap_outputs(kernel, values)


def _base_length(kernel: CompiledKernel, arrays: list[np.ndarray]) -> int:
    """The chunked iteration count: the common length of the streamed
    inputs.  Length-1 streamed inputs are broadcast scalars and never
    constrain (or satisfy) the length check, regardless of argument
    order; any other two lengths — including 0 vs. n — must agree."""
    n = None
    first = None
    for name, arr, stream in zip(kernel.inputs, arrays, kernel.streamed):
        if not stream or len(arr) == 1:
            continue
        if n is None:
            n, first = len(arr), name
        elif len(arr) != n:
            raise HorseRuntimeError(
                f"fused segment input {name!r} has length {len(arr)}, "
                f"expected {n} (the length of {first!r})")
    return 1 if n is None else n


def _empty_outputs(kernel: CompiledKernel,
                   arrays: list[np.ndarray]) -> list[Vector]:
    """All-empty inputs: reductions fold to identities, vectors are empty.

    Running the kernel is unsafe for min/max on empty chunks, so outputs
    are synthesized from roles and declared types instead.  Identities
    (and the min/max error) match ``_reduction_identity`` in
    :mod:`repro.core.builtins` exactly, so the compiled path agrees with
    the interpreter on empty inputs — same values, same dtypes, and the
    same error type and message where the interpreter raises.
    """
    outputs: list[Vector] = []
    for (name, role), type_ in zip(kernel.outputs, kernel.output_types):
        dtype = ht.numpy_dtype(type_)
        if role == "vector":
            outputs.append(Vector(type_, np.empty(0, dtype=dtype)))
            continue
        combine = role.split(":", 1)[1]
        if combine == "sum":
            identity = 0
        elif combine == "prod":
            identity = 1
        elif combine == "any":
            identity = False
        elif combine == "all":
            identity = True
        else:
            # Mirrors BuiltinError("@min of an empty vector") from the
            # interpreter's reduction builtins, message included.
            raise BuiltinError(f"@{combine} of an empty vector")
        out = np.empty(1, dtype=dtype)
        out[0] = identity
        outputs.append(Vector(type_, out))
    return outputs


def _combine(combine: str, parts: list, type_: ht.HorseType):
    """Merge per-chunk reduction partials in the *declared* output dtype.

    ``np.sum(np.asarray(parts))`` would let NumPy pick the accumulator
    (bool partials become int64, int32 accumulates as the platform int),
    silently diverging from the single-chunk run where the kernel result
    is cast to the declared dtype once at the end.  Casting the partials
    first and pinning the accumulator keeps chunked, multi-threaded
    results bit-identical to unchunked ones — integer wraparound is
    modular, so truncate-then-sum equals sum-then-truncate.

    ``None`` partials mark min/max chunks whose compressed selection was
    empty: they drop out of the merge (min-of-mins over the non-empty
    chunks), and if *every* chunk was empty the reduction raises exactly
    like the interpreter's builtin.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        raise BuiltinError(f"@{combine} of an empty vector")
    arr = np.asarray(parts).astype(ht.numpy_dtype(type_), copy=False)
    if combine == "sum":
        return np.sum(arr, dtype=arr.dtype)
    if combine == "prod":
        return np.prod(arr, dtype=arr.dtype)
    if combine == "min":
        return np.min(arr)
    if combine == "max":
        return np.max(arr)
    if combine == "any":
        return np.any(arr)
    if combine == "all":
        return np.all(arr)
    raise HorseRuntimeError(f"unknown reduction combine {combine!r}")


def _wrap_outputs(kernel: CompiledKernel, results: list) -> list[Vector]:
    outputs: list[Vector] = []
    for value, type_ in zip(results, kernel.output_types):
        array = np.asarray(value)
        if array.ndim == 0:
            array = array.reshape(1)
        outputs.append(Vector(type_, array))
    return outputs
