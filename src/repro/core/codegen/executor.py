"""Chunked execution of generated NumPy kernels, on the caller's thread.

The base iteration space is split into chunks and the fused kernel runs
per chunk, so its temporaries are chunk-sized and the chain stays
cache-resident; reduction partials merge with the builtin's ``combine``
rule.  Threads are the C backend's: its emitted loops run under OpenMP
(:mod:`repro.core.codegen.cgen`), and this executor is the
single-threaded fallback.

Vector outputs are never assembled from pieces: each is allocated once at
the base length and every chunk writes its rows into its own slice.  A
compressed output is written compacted, at the running offset, and then
shrinks to the rows selected.
"""

from __future__ import annotations

import numpy as np

from repro.core import builtins as hb
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
               chunk_size: int = DEFAULT_CHUNK_SIZE, *,
               ctx: QueryContext) -> list[Vector]:
    """Execute a fused kernel over its inputs; returns the output vectors
    in the order of ``kernel.outputs``.  Spans, the chunk count and the
    allocation profile report into ``ctx``."""
    outputs = _run_kernel(kernel, inputs, chunk_size, ctx)
    if ctx.profile.enabled:
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
                chunk_size: int, ctx: QueryContext) -> list[Vector]:
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
    #: Where each compacted output's next rows go; a base output's rows
    #: go at the chunk's ``lo``.
    ends = [0] * len(targets)
    chunk_results = []
    for lo, hi in bounds:
        if limits is not None:
            limits.check("chunk")
        sliced = [arr[lo:hi] if stream and len(arr) == n else arr
                  for arr, stream in zip(arrays, kernel.streamed)]
        views = [dst[end:end + hi - lo] if compacted else dst[lo:hi]
                 for (_, dst, compacted), end in zip(targets, ends)]
        if tracer.enabled:
            with tracer.span("chunk", lo=lo, hi=hi, rows=hi - lo):
                result = kernel.fn(*sliced, *views)
        else:
            result = kernel.fn(*sliced, *views)
        for i, (slot, _, compacted) in enumerate(targets):
            if compacted:
                ends[i] += result[slot]
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
    (and the min/max error) come from :data:`repro.core.builtins.COMBINES`,
    which the interpreter's reductions read too, so the compiled path
    agrees with it on empty inputs — same values, same dtypes, and the
    same error type and message where the interpreter raises.
    """
    outputs: list[Vector] = []
    for (name, role), type_ in zip(kernel.outputs, kernel.output_types):
        dtype = ht.numpy_dtype(type_)
        if role == "vector":
            outputs.append(Vector(type_, np.empty(0, dtype=dtype)))
            continue
        combine = role.split(":", 1)[1]
        identity = hb.COMBINES[combine].identity
        if identity is None:
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
    first and pinning the accumulator keeps chunked results
    bit-identical to unchunked ones — integer wraparound is
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
    return hb.COMBINES[combine].merge(arr)


def _wrap_outputs(kernel: CompiledKernel, results: list) -> list[Vector]:
    outputs: list[Vector] = []
    for value, type_ in zip(results, kernel.output_types):
        array = np.asarray(value)
        if array.ndim == 0:
            array = array.reshape(1)
        outputs.append(Vector(type_, array))
    return outputs
