"""Generate Python source for fused segments.

For the paper's running example, the segment covering statements S0..S4 of
Figure 6 compiles to (compare Figure 3's C loop)::

    def _kernel(t1, t2):
        t3 = (t2 >= 0.05)
        _sel0 = selection(t3)
        t4 = np.take(t1, _sel0)
        t5 = np.take(t2, _sel0)
        t6 = (t4 * t5)
        t7 = np.sum(t6)
        return (t7,)

A ``@compress`` is a gather through its mask's *selection vector*: the
row ids where the mask holds, computed once per chunk by the first
compress on that mask and shared by every column compressed by it.

The executor calls the kernel once per chunk, so every local above is a
chunk-sized temporary — the fusion payoff.  Reduction outputs are
per-chunk partials the executor combines.  Vector outputs are written in
place: the kernel takes one destination per vector output, its slice of
the final array, and the statement producing the output writes into it
(``out=`` of the final ufunc, or a ``np.take`` into the head of the slice
for a compressed output), so each surviving row is moved once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.optimizer.fusion import ANY, BASE, Segment, domain_masks
from repro.errors import CodegenError, HorseRuntimeError

__all__ = ["CompiledKernel", "generate_kernel", "compress_guards",
           "compress_length_error"]


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
    #: parallel to ``outputs``, how each one leaves the kernel:
    #: ``"base"`` / ``"sel"`` — written in place into a destination the
    #: kernel takes as a parameter (one row per row of the chunk, or the
    #: chunk's selected rows, whose count the kernel returns); an ``int``
    #: — the kernel input at that position, unchanged; ``"value"`` —
    #: returned whole (a broadcast value, or one of a type with no
    #: NumPy destination); ``"reduce"`` — a per-chunk partial.
    placements: list = field(default_factory=list)
    #: see :func:`compress_guards`.
    compress_guards: tuple = ()
    #: run as one chunk: a compress of a broadcast value in a compressed
    #: domain is checked inside the kernel, which is exact only when the
    #: kernel sees every row at once, and an output of a type with no
    #: NumPy destination has nothing to stream into.
    whole: bool = False


# -- kernel helper functions (bound into every kernel's globals) ------------

def _chunk_min(values):
    """Per-chunk @min partial; None marks an empty selection (the
    executor drops None partials and errors only when every chunk's
    selection was empty, matching the interpreter)."""
    return np.min(values) if len(values) else None


def _chunk_max(values):
    return np.max(values) if len(values) else None


def _take(values, rows, out):
    """``values[rows]`` written into the head of ``out``.  The length
    guards make every row id valid, so ``mode="clip"`` only spares NumPy
    the bounds-checked copy it makes of ``out`` in the default mode."""
    out = out[:len(rows)]
    if getattr(values, "dtype", None) == out.dtype:
        return np.take(values, rows, out=out, mode="clip")
    out[...] = np.take(values, rows)
    return out


def _compress_check(mask, values):
    """The interpreter's length check, for a compress of a broadcast
    value in a compressed domain (see ``CompiledKernel.whole``)."""
    mask_len, data_len = np.size(mask), np.size(values)
    if mask_len != data_len:
        raise hb.compress_mismatch(mask_len, data_len)


_KERNEL_GLOBALS = {
    "np": np,
    "selection": hb.selection,
    "_take": _take,
    "_compress_check": _compress_check,
    "_chunk_min": _chunk_min,
    "_chunk_max": _chunk_max,
    "_NAT": hb.NAT_DAY,
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

#: output types the executor allocates a destination for.
_DESTINATION_KINDS = frozenset(_ASTYPE) | {"date"}

#: logical ufuncs only take buffers when their operands are provably
#: boolean.
_LOGICAL_UFUNCS = ("np.logical_and", "np.logical_or", "np.logical_not")


def _ufunc_spec(types: dict, stmt: ir.Assign,
                type_: ht.HorseType) -> tuple[str, str] | None:
    """(ufunc, dtype spelling) when ``stmt`` can write its ``type_``
    result into a given array with ``out=``; ``types`` maps each of the
    segment's targets to its declared type."""
    expr = stmt.expr
    if not isinstance(expr, ir.BuiltinCall):
        return None
    builtin = hb.BUILTINS.get(expr.name)
    if builtin is None or builtin.ufunc is None:
        return None
    dtype = _BUFFER_DTYPES.get(type_.kind)
    if dtype is None:
        return None
    if not all(isinstance(a, (ir.Var, ir.Literal)) for a in expr.args):
        return None
    if builtin.ufunc in _LOGICAL_UFUNCS \
            and not _operands_boolean(types, expr):
        return None
    return (builtin.ufunc, dtype)


def _operands_boolean(types: dict, expr: ir.BuiltinCall) -> bool:
    for arg in expr.args:
        if isinstance(arg, ir.Literal):
            if arg.type != ht.BOOL:
                return False
        elif types.get(arg.name) != ht.BOOL:
            return False
    return True


class _BufferPlanner:
    """Linear-scan assignment of reused per-chunk output buffers.

    This is the register-allocation analog of the paper's generated C:
    instead of one freshly allocated temporary per fused statement, the
    kernel allocates a handful of chunk-sized buffers and ufuncs write
    into them via ``out=`` — the dominant allocation cost of long
    elementwise chains disappears.  Statements that produce an output
    take no buffer: they write into the output's destination.
    """

    def __init__(self, segment: Segment, in_place: set[int], types: dict):
        self.segment = segment
        self._types = types
        self._last_use = self._compute_last_use()
        self._outputs = {name for name, _ in segment.outputs}
        self._in_place = in_place
        self._buffers: list[tuple[str, int]] = []  # (dtype spelling, free_at)
        self.assignments: dict[int, tuple[str, str]] = {}
        self.buffer_decls: list[tuple[str, str]] = []
        self._plan()

    def _compute_last_use(self) -> dict[str, int]:
        """Last statement reading each variable, where reading an alias
        (``u = t``) reads what it aliases: ``t``'s buffer stays live for
        as long as ``u`` does."""
        last: dict[str, int] = {}
        aliased: dict[str, str] = {}
        for index, stmt in enumerate(self.segment.stmts):
            for used in ir.expr_vars(stmt.expr):
                last[aliased.get(used, used)] = index
            if isinstance(stmt.expr, ir.Var):
                name = stmt.expr.name
                aliased[stmt.target] = aliased.get(name, name)
            else:
                aliased.pop(stmt.target, None)
        return last

    def _eligible(self, index: int) -> tuple[str, str] | None:
        """(ufunc, dtype spelling) when statement ``index`` can write into
        a buffer."""
        stmt = self.segment.stmts[index]
        if stmt.target in self._outputs or index in self._in_place:
            return None
        if self.segment.domains.get(stmt.target) != BASE:
            return None
        return _ufunc_spec(self._types, stmt, stmt.type)

    def _plan(self) -> None:
        for index in range(len(self.segment.stmts)):
            spec = self._eligible(index)
            if spec is None:
                continue
            ufunc, dtype = spec
            target = self.segment.stmts[index].target
            free_at = self._last_use.get(target, index)
            slot = self._acquire(dtype, index, free_at)
            self.assignments[index] = (ufunc, slot)

    def _acquire(self, dtype: str, index: int, free_at: int) -> str:
        # A buffer whose value is last read by this statement can take
        # its result: a ufunc writing ``out=`` into an operand of the
        # same dtype is elementwise-safe.
        for slot, (slot_dtype, busy_until) in enumerate(self._buffers):
            if slot_dtype == dtype and busy_until <= index:
                self._buffers[slot] = (dtype, free_at)
                return f"_buf{slot}"
        self._buffers.append((dtype, free_at))
        slot = len(self._buffers) - 1
        self.buffer_decls.append((f"_buf{slot}", dtype))
        return f"_buf{slot}"


# ---------------------------------------------------------------------------
# output placement
# ---------------------------------------------------------------------------

@dataclass
class _Placement:
    """Where each output of a segment goes (see
    ``CompiledKernel.placements``)."""

    placements: list = field(default_factory=list)
    types: list[ht.HorseType] = field(default_factory=list)
    #: statement index -> output index whose destination it writes into
    writers: dict[int, int] = field(default_factory=dict)
    #: statement index -> outputs copied into their destination right
    #: after it (values no statement can write in place)
    stores: dict[int, list[int]] = field(default_factory=dict)
    whole: bool = False


def _place_outputs(segment: Segment, types: dict) -> _Placement:
    """Decide how each output leaves the kernel.

    A vector output's value comes from a statement or an input, through
    any chain of aliases.  An input leaves as it came in; a statement
    that can write its result into a given array (a compress, or a ufunc
    of a buffer dtype) writes into the output's destination, once; any
    other value is copied into it.  An output of a type with no NumPy
    destination is returned whole."""
    stmts = segment.stmts
    position = {name: index for index, name in enumerate(segment.inputs)}
    roots: list = []
    current: dict[str, int] = {}
    for index, stmt in enumerate(stmts):
        source = stmt.expr.name if isinstance(stmt.expr, ir.Var) else None
        if source is None:
            roots.append(index)
        elif source in current:
            roots.append(roots[current[source]])
        else:
            roots.append(source)
        current[stmt.target] = index

    placed = _Placement()
    for slot, (name, role) in enumerate(segment.outputs):
        index = current[name]
        type_ = stmts[index].type
        placed.types.append(type_)
        domain = segment.domains.get(name)
        if role != "vector":
            placed.placements.append("reduce")
            continue
        if domain == ANY:
            placed.placements.append("value")
            continue
        if type_.kind not in _DESTINATION_KINDS:
            placed.placements.append("value")
            placed.whole = True
            continue
        root = roots[index]
        if isinstance(root, str):
            placed.placements.append(position[root])
            continue
        placed.placements.append("base" if domain == BASE else "sel")
        writer = stmts[root]
        if root not in placed.writers and writer.type == type_ \
                and (_is_compress(writer.expr)
                     or _ufunc_spec(types, writer, type_) is not None):
            placed.writers[root] = slot
        else:
            placed.stores.setdefault(index, []).append(slot)
    return placed


def _is_compress(expr: ir.Expr) -> bool:
    return isinstance(expr, ir.BuiltinCall) \
        and hb.get(expr.name).kind == "compress"


# ---------------------------------------------------------------------------
# length guards
# ---------------------------------------------------------------------------

def compress_guards(segment: Segment) -> tuple[tuple, bool]:
    """``(guards, dynamic)`` for the segment's ``@compress`` statements.

    A fused loop compresses row by row, so it cannot see what the
    interpreter checks: that mask and data have one length.  An operand
    computed from streamed inputs only (or a broadcast value) has the
    length of those inputs, known before the loop runs; each guard is
    ``(mask inputs, data inputs)`` — the positions of the streamed
    inputs each operand takes its length from — for one base-level
    compress (see :func:`compress_length_error`).  A compress of a
    broadcast value inside a compressed domain is ``dynamic``: its other
    operand has as many rows as the domain selects."""
    if not any(_is_compress(stmt.expr) for stmt in segment.stmts):
        return (), False
    sources: dict[str, frozenset] = {
        name: frozenset([index])
        for index, name in enumerate(segment.inputs)
        if segment.domains.get(name) != ANY}
    guards: dict[tuple, None] = {}
    dynamic = False
    for stmt in segment.stmts:
        expr = stmt.expr
        while isinstance(expr, ir.Cast):
            expr = expr.expr
        if domain_masks(segment.domains[stmt.target]) \
                and not _is_compress(expr):
            continue  # a compressed value: its length is the selection's
        found = frozenset()
        if isinstance(expr, ir.Var):
            found = sources.get(expr.name, found)
        elif isinstance(expr, ir.BuiltinCall):
            builtin = hb.get(expr.name)
            if builtin.kind == "compress":
                mask, data = (arg.name for arg in expr.args)
                domains = [segment.domains[mask], segment.domains[data]]
                if not any(domain_masks(domain) for domain in domains):
                    guards[tuple(tuple(sorted(sources.get(name, ())))
                                 for name in (mask, data))] = None
                elif domains[0] != domains[1]:
                    dynamic = True
            elif builtin.kind == "elementwise":
                found = found.union(*(
                    sources.get(arg.name, ()) for position, arg
                    in enumerate(expr.args) if isinstance(arg, ir.Var)
                    and position not in builtin.broadcast_args))
        sources[stmt.target] = found
    return tuple(guards), dynamic


def compress_length_error(guards: tuple, arrays: list,
                          n: int) -> Exception | None:
    """The error running a kernel with ``guards`` on ``arrays`` (base
    length ``n``) must raise, or ``None``.

    An operand's length is the interpreter's: ``n`` when one of its
    streamed inputs has ``n`` rows, 1 when all of them are length-1
    broadcasts (or it has none).  Unequal lengths raise the
    interpreter's error.  Equal lengths below ``n`` — a compress of
    broadcast values inside an ``n``-row loop — are legal but cannot be
    run row by row, and raise a runtime error instead of a broadcast
    result."""
    for mask_inputs, data_inputs in guards:
        mask_len = _operand_length(mask_inputs, arrays)
        data_len = _operand_length(data_inputs, arrays)
        if mask_len != data_len:
            return hb.compress_mismatch(mask_len, data_len)
        if mask_len != n:
            return HorseRuntimeError(
                f"fused @compress of {mask_len}-row operands in a loop "
                f"over {n} rows")
    return None


def _operand_length(inputs: tuple, arrays: list) -> int:
    for index in inputs:
        length = len(arrays[index])
        if length != 1:
            return length
    return 1


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

def generate_kernel(segment: Segment, name: str = "_kernel",
                    declared: dict | None = None) -> CompiledKernel:
    """Compile a fused segment into a Python function.  ``declared``
    gives the declared type of each variable of the segment's method
    (default: the segment's own statements)."""
    for var in segment.inputs + [s.target for s in segment.stmts]:
        if not _IDENT_RE.match(var):
            raise CodegenError(f"variable name {var!r} is not an identifier")

    streamed = [segment.domains.get(input_name) != ANY
                for input_name in segment.inputs]
    base_input = next((input_name for input_name, stream
                       in zip(segment.inputs, streamed) if stream), None)

    types = {stmt.target: stmt.type for stmt in segment.stmts}
    placed = _place_outputs(segment, types)
    planner = _BufferPlanner(segment, set(placed.writers), types) \
        if base_input is not None else None
    guards, dynamic = compress_guards(segment)

    out_names = [out for out, _ in segment.outputs]
    if not out_names:
        raise CodegenError("segment has no outputs")
    destinations = [f"_out{slot}" for slot, where
                    in enumerate(placed.placements)
                    if where in ("base", "sel")]
    lines = [f"def {name}({', '.join(segment.inputs + destinations)}):"]
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
    emitter = _Emitter(segment, lines,
                       types if declared is None else declared)
    for index, stmt in enumerate(segment.stmts):
        slot = placed.writers.get(index)
        assignment = planner.assignments.get(index) if planner else None
        if slot is not None:
            emitter.write(stmt, f"_out{slot}")
        elif assignment is not None:
            emitter.ufunc(stmt, buffer_name=assignment[1])
        else:
            lines.append(f"    {stmt.target} = {emitter.value(stmt)}")
        for slot in placed.stores.get(index, ()):
            emitter.store(stmt.target, f"_out{slot}")
        emitter.assigned(stmt.target)
    # Per output: the rows a compacted one wrote, a returned value, or
    # nothing.
    returned = [f"len({emitter.rows(out)})" if where == "sel"
                else "None" if where == "base" or isinstance(where, int)
                else out for out, where in zip(out_names, placed.placements)]
    lines.append(f"    return ({', '.join(returned)},)")
    source = "\n".join(lines) + "\n"

    namespace: dict = {}
    exec(compile(source, f"<fused:{name}>", "exec"),  # noqa: S102
         dict(_KERNEL_GLOBALS), namespace)
    fn = namespace[name]

    buffer_itemsizes = ([np.dtype(_BUFFER_ITEMSIZE_DTYPES[dtype]).itemsize
                         for _, dtype in planner.buffer_decls]
                        if planner is not None else [])
    return CompiledKernel(segment, source, fn, list(segment.inputs),
                          streamed, list(segment.outputs), placed.types,
                          buffer_itemsizes, placed.placements, guards,
                          dynamic or placed.whole)


class _Emitter:
    """Emits a segment's statements, tracking one selection vector per
    mask."""

    def __init__(self, segment: Segment, lines: list[str],
                 declared: dict):
        self.segment = segment
        self.lines = lines
        self.declared = declared
        #: mask variable -> the local holding its selection vector
        self._selections: dict[str, str] = {}
        #: compressed domain -> the selection vector that made it
        self._domain_rows: dict[tuple, str] = {}
        self._count = 0

    def _select(self, stmt: ir.Assign) -> tuple[str, str]:
        """``(data, selection vector)`` of a compress; the selection is
        computed by the first compress on its mask."""
        mask, data = (_emit_expr(a) for a in stmt.expr.args)
        self._check(stmt.expr)
        rows = self._selections.get(mask)
        if rows is None:
            rows = self._selections[mask] = f"_sel{self._count}"
            self._count += 1
            self.lines.append(f"    {rows} = selection({mask})")
        self._domain_rows[self.segment.domains[stmt.target]] = rows
        return data, rows

    def assigned(self, target: str) -> None:
        """A redefined mask needs a new selection vector."""
        self._selections.pop(target, None)

    def rows(self, name: str) -> str:
        """The selection vector of the domain ``name`` lives in."""
        return self._domain_rows[self.segment.domains[name]]

    def head(self, name: str, destination: str) -> str:
        """The part of ``destination`` that ``name``'s rows fill."""
        if self.segment.domains[name] == BASE:
            return destination
        return f"{destination}[:len({self.rows(name)})]"

    def store(self, name: str, destination: str) -> None:
        """Copy ``name`` into ``destination``."""
        head = self.head(name, destination)
        if head == destination:
            head += "[...]"
        self.lines.append(f"    {head} = {name}")

    def write(self, stmt: ir.Assign, destination: str) -> None:
        """``stmt``, writing its result into ``destination``."""
        if _is_compress(stmt.expr):
            data, rows = self._select(stmt)
            self.lines.append(f"    {stmt.target} = "
                              f"_take({data}, {rows}, {destination})")
        else:
            self.ufunc(stmt, self.head(stmt.target, destination))

    def ufunc(self, stmt: ir.Assign, buffer_name: str) -> None:
        """``stmt``'s ufunc, writing its result into ``buffer_name``."""
        args, guard = self._operands(stmt.expr)
        self.lines.append(
            f"    {stmt.target} = {hb.get(stmt.expr.name).ufunc}("
            f"{', '.join(args)}, out={buffer_name}, casting='unsafe')")
        if guard is not None:
            operator, test = guard
            self.lines.append(f"    {stmt.target} {operator}= {test}")

    def value(self, stmt: ir.Assign) -> str:
        expr = stmt.expr
        if _is_compress(expr):
            return "np.take({}, {})".format(*self._select(stmt))
        if not hb.compares_dates(expr, self.declared):
            return _emit_expr(expr)
        args, guard = self._operands(expr)
        value = hb.get(expr.name).template.format(*args)
        if guard is None:
            return value
        operator, test = guard
        return f"({value} {operator} {test})"

    def _operands(self, expr: ir.BuiltinCall
                  ) -> tuple[list[str], tuple[str, str] | None]:
        """A call's operands, and ``(operator, operand test)`` when its
        result needs a NaT guard.  Two dates compare as int64 day
        numbers, NumPy's integer loop being several times faster than
        its datetime one; :func:`repro.core.builtins.nat_guard` says
        what keeps that exact."""
        if not hb.compares_dates(expr, self.declared):
            return [_emit_expr(a) for a in expr.args], None
        args = [repr(hb.day_number(a.value)) if isinstance(a, ir.Literal)
                else f"{a.name}.view(np.int64)" for a in expr.args]
        guard = hb.nat_guard(expr)
        if guard is None:
            return args, None
        position, connective = guard
        if connective == "and":
            return args, ("&", f"({args[position]} != _NAT)")
        return args, ("|", f"({args[position]} == _NAT)")

    def _check(self, expr: ir.BuiltinCall) -> None:
        """The in-kernel length check of a dynamic compress (see
        :func:`compress_guards`)."""
        mask, data = (self.segment.domains[arg.name] for arg in expr.args)
        if mask != data and (domain_masks(mask) or domain_masks(data)):
            args = ", ".join(_emit_expr(a) for a in expr.args)
            self.lines.append(f"    _compress_check({args})")


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
