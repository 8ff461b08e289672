"""Generate Python source for fused segments.

For the paper's running example, the segment covering statements S0..S4 of
Figure 6 compiles to (compare Figure 3's C loop)::

    def _kernel(t1, t2):
        t3 = (t2 >= 0.05)
        t4 = t1[t3]
        t5 = t2[t3]
        t6 = (t4 * t5)
        t7 = np.sum(t6)
        return (t7,)

The executor calls the kernel once per chunk, so every local above is a
chunk-sized temporary — the fusion payoff — and reduction outputs are
per-chunk partials combined by the executor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.optimizer.fusion import ANY, BASE, Segment
from repro.errors import CodegenError

__all__ = ["CompiledKernel", "generate_kernel"]


@dataclass
class CompiledKernel:
    """A compiled fused segment: callable + provenance."""

    segment: Segment
    source: str
    fn: object  # the compiled function
    inputs: list[str]
    #: parallel to ``inputs``: True when the input is sliced per chunk,
    #: False for whole-value (broadcast) inputs like @member pools.
    streamed: list[bool]
    outputs: list[tuple[str, str]]  # (name, role)
    output_types: list[ht.HorseType]
    #: element sizes (bytes) of the kernel's reused per-chunk ``out=``
    #: buffers, one per buffer declaration — the allocation profiler
    #: charges each buffer once per invocation at
    #: ``min(base_len, chunk_size) * itemsize``, which is exactly why
    #: fused segments allocate less than statement-at-a-time execution.
    buffer_itemsizes: list[int] = field(default_factory=list)


# -- kernel helper functions (bound into every kernel's globals) ------------

def _chunk_min(values):
    """Per-chunk @min partial; None marks an empty selection (the
    executor drops None partials and errors only when every chunk's
    selection was empty, matching the interpreter)."""
    return np.min(values) if len(values) else None


def _chunk_max(values):
    return np.max(values) if len(values) else None


_KERNEL_GLOBALS = {
    "np": np,
    "_chunk_min": _chunk_min,
    "_chunk_max": _chunk_max,
}

_ASTYPE = {
    "bool": "np.bool_",
    "i8": "np.int8",
    "i16": "np.int16",
    "i32": "np.int32",
    "i64": "np.int64",
    "f32": "np.float32",
    "f64": "np.float64",
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


#: dtypes eligible for reused output buffers.
_BUFFER_DTYPES = {
    "f64": "np.float64", "f32": "np.float32",
    "i64": "np.int64", "i32": "np.int32", "bool": "np.bool_",
}

#: buffer dtype spelling → NumPy type, for sizing the profiler's
#: once-per-invocation chunk-buffer charge.
_BUFFER_ITEMSIZE_DTYPES = {
    "np.float64": np.float64, "np.float32": np.float32,
    "np.int64": np.int64, "np.int32": np.int32, "np.bool_": np.bool_,
}

#: logical ufuncs only take buffers when their operands are provably
#: boolean.
_LOGICAL_UFUNCS = ("np.logical_and", "np.logical_or", "np.logical_not")


class _BufferPlanner:
    """Linear-scan assignment of reused per-chunk output buffers.

    This is the register-allocation analog of the paper's generated C:
    instead of one freshly allocated temporary per fused statement, the
    kernel allocates a handful of chunk-sized buffers and ufuncs write
    into them via ``out=`` — the dominant allocation cost of long
    elementwise chains disappears.
    """

    def __init__(self, segment: Segment):
        self.segment = segment
        self._last_use = self._compute_last_use()
        self._outputs = {name for name, _ in segment.outputs}
        self._buffers: list[tuple[str, int]] = []  # (dtype spelling, free_at)
        self.assignments: dict[int, tuple[str, str]] = {}
        self.buffer_decls: list[tuple[str, str]] = []
        self._plan()

    def _compute_last_use(self) -> dict[str, int]:
        last: dict[str, int] = {}
        for index, stmt in enumerate(self.segment.stmts):
            for used in ir.expr_vars(stmt.expr):
                last[used] = index
        return last

    def _eligible(self, index: int) -> tuple[str, str] | None:
        """(ufunc, dtype spelling) when statement ``index`` can write into
        a buffer."""
        stmt = self.segment.stmts[index]
        expr = stmt.expr
        if not isinstance(expr, ir.BuiltinCall):
            return None
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None or builtin.ufunc is None:
            return None
        if self.segment.domains.get(stmt.target) != BASE:
            return None
        dtype = _BUFFER_DTYPES.get(stmt.type.kind)
        if dtype is None:
            return None
        if not all(isinstance(a, (ir.Var, ir.Literal)) for a in expr.args):
            return None
        if builtin.ufunc in _LOGICAL_UFUNCS \
                and not self._operands_boolean(expr):
            return None
        return (builtin.ufunc, dtype)

    def _operands_boolean(self, expr: ir.BuiltinCall) -> bool:
        declared = {s.target: s.type for s in self.segment.stmts}
        for arg in expr.args:
            if isinstance(arg, ir.Literal):
                if arg.type != ht.BOOL:
                    return False
            elif declared.get(arg.name) != ht.BOOL:
                return False
        return True

    def _plan(self) -> None:
        for index in range(len(self.segment.stmts)):
            spec = self._eligible(index)
            if spec is None:
                continue
            ufunc, dtype = spec
            target = self.segment.stmts[index].target
            if target in self._outputs:
                free_at = len(self.segment.stmts) + 1  # never reused
            else:
                free_at = self._last_use.get(target, index)
            slot = self._acquire(dtype, index, free_at)
            self.assignments[index] = (ufunc, slot)

    def _acquire(self, dtype: str, index: int, free_at: int) -> str:
        for slot, (slot_dtype, busy_until) in enumerate(self._buffers):
            if slot_dtype == dtype and busy_until < index:
                self._buffers[slot] = (dtype, free_at)
                return f"_buf{slot}"
        self._buffers.append((dtype, free_at))
        slot = len(self._buffers) - 1
        self.buffer_decls.append((f"_buf{slot}", dtype))
        return f"_buf{slot}"


def generate_kernel(segment: Segment,
                    name: str = "_kernel") -> CompiledKernel:
    """Compile a fused segment into a Python function."""
    for var in segment.inputs + [s.target for s in segment.stmts]:
        if not _IDENT_RE.match(var):
            raise CodegenError(f"variable name {var!r} is not an identifier")

    streamed = [segment.domains.get(input_name) != ANY
                for input_name in segment.inputs]
    base_input = next((input_name for input_name, stream
                       in zip(segment.inputs, streamed) if stream), None)

    planner = _BufferPlanner(segment) if base_input is not None else None

    lines = [f"def {name}({', '.join(segment.inputs)}):"]
    if planner is not None and planner.buffer_decls:
        # The base length is the longest streamed input: scalar-typed
        # inputs may arrive as length-1 broadcasts in any position.
        streamed_names = [input_name for input_name, stream
                          in zip(segment.inputs, streamed) if stream]
        lens = [f"len({input_name})" for input_name in streamed_names]
        if len(lens) == 1:
            lines.append(f"    _n = {lens[0]}")
        else:
            lines.append(f"    _n = max({', '.join(lens)})")
        for buffer_name, dtype in planner.buffer_decls:
            lines.append(f"    {buffer_name} = np.empty(_n, "
                         f"dtype={dtype})")
    target_types: dict[str, ht.HorseType] = {}
    for index, stmt in enumerate(segment.stmts):
        assignment = planner.assignments.get(index) if planner else None
        if assignment is not None:
            ufunc, slot = assignment
            args = ", ".join(_emit_expr(a) for a in stmt.expr.args)
            lines.append(f"    {stmt.target} = {ufunc}({args}, "
                         f"out={slot}, casting='unsafe')")
        else:
            lines.append(f"    {stmt.target} = {_emit_expr(stmt.expr)}")
        target_types[stmt.target] = stmt.type
    out_names = [out for out, _ in segment.outputs]
    if not out_names:
        raise CodegenError("segment has no outputs")
    lines.append(f"    return ({', '.join(out_names)},)")
    source = "\n".join(lines) + "\n"

    namespace: dict = {}
    exec(compile(source, f"<fused:{name}>", "exec"),  # noqa: S102
         dict(_KERNEL_GLOBALS), namespace)
    fn = namespace[name]

    output_types = [target_types.get(out, ht.WILDCARD) for out in out_names]
    buffer_itemsizes = ([np.dtype(_BUFFER_ITEMSIZE_DTYPES[dtype]).itemsize
                         for _, dtype in planner.buffer_decls]
                        if planner is not None else [])
    return CompiledKernel(segment, source, fn, list(segment.inputs),
                          streamed, list(segment.outputs), output_types,
                          buffer_itemsizes)


def _emit_expr(expr: ir.Expr) -> str:
    if isinstance(expr, ir.Var):
        return expr.name
    if isinstance(expr, ir.Literal):
        return _emit_literal(expr)
    if isinstance(expr, ir.SymbolLit):
        return repr(expr.name)
    if isinstance(expr, ir.Cast):
        inner = _emit_expr(expr.expr)
        ctor = _ASTYPE.get(expr.type.kind)
        if ctor is None:
            raise CodegenError(f"cannot emit cast to {expr.type}")
        return f"({inner}).astype({ctor})"
    if isinstance(expr, ir.BuiltinCall):
        builtin = hb.get(expr.name)
        if builtin.kind == "compress":
            mask, data = (_emit_expr(a) for a in expr.args)
            return f"({data})[{mask}]"
        if builtin.template is None:
            raise CodegenError(f"@{expr.name} has no fusion template")
        args = [_emit_expr(a) for a in expr.args]
        return builtin.template.format(*args)
    raise CodegenError(f"cannot emit {type(expr).__name__} in a kernel")


def _emit_literal(literal: ir.Literal) -> str:
    value = literal.value
    if literal.type == ht.DATE:
        return f"np.datetime64({str(value)!r})"
    if literal.type == ht.BOOL:
        return "True" if value else "False"
    if literal.type in (ht.STR, ht.SYM):
        return repr(str(value))
    if ht.is_float(literal.type):
        return repr(float(value))
    if ht.is_integer(literal.type):
        return repr(int(value))
    raise CodegenError(f"cannot emit literal of type {literal.type}")
