"""Native backend: fused segments → emitted C → gcc → ctypes.

This is the paper's actual backend (Figure 3): each fused segment becomes
one C function containing a single loop — predicates, compresses,
arithmetic and reductions all inside it — compiled with
``gcc -O3 -march=native -fopenmp`` and invoked through ctypes (which
releases the GIL, so OpenMP threads scale on multi-core hosts).

Eligibility (segments that don't qualify run on the Python-kernel
backend):

* every statement is an elementwise builtin with a ``c_template``, a
  ``@compress``, or a reduction (`sum prod min max count any all`);
* vector outputs live in the base domain (compressed values may only feed
  reductions — compression becomes the loop's ``if`` guard, exactly as in
  Figure 3);
* runtime dtypes are numeric/bool/datetime (strings reach kernels as
  int32 dictionary codes — see :mod:`repro.core.codegen.lower`).

Kernels are specialized per (dtype, broadcast) signature at first call
and cached; gcc runs once per specialization.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.optimizer.fusion import ANY, BASE, Segment
from repro.core.values import Vector
from repro.errors import BuiltinError, CodegenError, HorseRuntimeError

__all__ = ["CKernel", "c_backend_available", "gcc_version"]

_REDUCTIONS = {
    "sum": ("+", "0"),
    "prod": ("*", "1"),
    "count": ("+", "0"),
    "min": ("min", None),
    "max": ("max", None),
    "any": ("||", "0"),
    "all": ("&&", "1"),
}

_C_TYPES = {
    "f64": "double", "f32": "float",
    "i64": "long long", "i32": "int", "i16": "short", "i8": "signed char",
    "bool": "int",
}

#: C storage types for output buffers: these must match NumPy's in-memory
#: layout exactly (bool is ONE byte in NumPy; loop locals may stay int).
_C_STORE_TYPES = dict(_C_TYPES, bool="unsigned char")

# Runtime dtype → (C pointer element type, ctypes type)
_DTYPE_C = {
    "float64": ("double", ctypes.c_double),
    "float32": ("float", ctypes.c_float),
    "int64": ("long long", ctypes.c_longlong),
    "int32": ("int", ctypes.c_int),
    "int16": ("short", ctypes.c_short),
    "int8": ("signed char", ctypes.c_byte),
    "bool": ("unsigned char", ctypes.c_ubyte),
    # datetime64[D] is an int64 day count under the hood.
    "datetime64[D]": ("long long", ctypes.c_longlong),
}

_gcc_state: dict = {}


def gcc_version() -> str | None:
    if "version" not in _gcc_state:
        try:
            out = subprocess.run(["gcc", "--version"],
                                 capture_output=True, text=True,
                                 timeout=30)
            _gcc_state["version"] = out.stdout.splitlines()[0] \
                if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _gcc_state["version"] = None
    return _gcc_state["version"]


def c_backend_available() -> bool:
    return gcc_version() is not None


def _build_dir() -> str:
    if "dir" not in _gcc_state:
        _gcc_state["dir"] = tempfile.mkdtemp(prefix="repro-ckernels-")
    return _gcc_state["dir"]


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------

def segment_is_c_eligible(segment: Segment) -> bool:
    """Static half of eligibility (dtypes are checked per call)."""
    base_vector_outputs = []
    for name, role in segment.outputs:
        if role == "vector":
            if segment.domains.get(name) != BASE:
                return False
            base_vector_outputs.append(name)
    for stmt in segment.stmts:
        expr = stmt.expr
        if isinstance(expr, (ir.Literal, ir.Var)):
            continue
        if not isinstance(expr, ir.BuiltinCall):
            return False
        builtin = hb.BUILTINS.get(expr.name)
        if builtin is None:
            return False
        if builtin.kind == "elementwise":
            if builtin.c_template is None:
                return False
            if not all(isinstance(a, (ir.Var, ir.Literal))
                       for a in expr.args):
                return False
            if any(isinstance(a, ir.Literal)
                   and a.type in (ht.STR, ht.SYM) for a in expr.args):
                return False
        elif builtin.kind == "compress":
            continue
        elif builtin.kind == "reduction":
            if expr.name not in _REDUCTIONS:
                return False
        else:
            return False
        if stmt.type.kind not in _C_TYPES and stmt.type != ht.WILDCARD:
            return False
        if stmt.type == ht.WILDCARD:
            return False
    return True


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------

def _c_literal(literal: ir.Literal) -> str:
    if literal.type == ht.BOOL:
        return "1" if literal.value else "0"
    if ht.is_integer(literal.type):
        return f"{int(literal.value)}LL"
    if literal.type == ht.DATE:
        days = int(np.datetime64(literal.value, "D").astype(np.int64))
        return f"{days}LL"
    return repr(float(literal.value))


class _SourceBuilder:
    """Generates the C function for one (segment, signature) pair."""

    def __init__(self, segment: Segment, scalar_flags: list[bool],
                 input_ctypes: list[str], name: str):
        self.segment = segment
        self.scalar_flags = scalar_flags
        self.input_ctypes = input_ctypes
        self.name = name
        #: compress chains: var -> C guard expression (or None for base)
        self._values: dict[str, str] = {}
        self._guards: dict[str, str] = {}

    def build(self) -> str:
        segment = self.segment
        params = ["long long n", "int nt"]
        for input_name, ctype, _ in zip(segment.inputs,
                                        self.input_ctypes,
                                        self.scalar_flags):
            params.append(f"const {ctype}* restrict {input_name}_p")

        vector_outputs = [name for name, role in segment.outputs
                          if role == "vector"]
        reductions = [(name, role.split(":", 1)[1])
                      for name, role in segment.outputs
                      if role != "vector"]
        out_types = {stmt.target: stmt.type for stmt in segment.stmts}
        for name in vector_outputs:
            params.append(
                f"{_C_STORE_TYPES[out_types[name].kind]}"
                f"* restrict {name}_o")
        for name, _ in reductions:
            params.append(f"double* restrict {name}_r")

        lines = ["#include <math.h>", ""]
        # NaN-propagating min/max combiners: np.min/np.max return NaN
        # when any element is NaN, but OpenMP's built-in min/max (and
        # fmin/fmax) silently drop it.
        if any(combine in ("min", "max") for _, combine in reductions):
            for red, fn, init in (("nanmin", "fmin", "INFINITY"),
                                  ("nanmax", "fmax", "-INFINITY")):
                lines.append(
                    f"#pragma omp declare reduction({red} : double : "
                    f"omp_out = ((omp_out != omp_out) || "
                    f"(omp_in != omp_in)) ? NAN : {fn}(omp_out, omp_in)) "
                    f"initializer(omp_priv = {init})")
            lines.append("")
        lines.append(f"void {self.name}({', '.join(params)}) {{")

        acc_decls, omp_reductions, finals = self._accumulators(reductions,
                                                               out_types)
        lines.extend(acc_decls)
        omp = "#pragma omp parallel for schedule(static) num_threads(nt)"
        if omp_reductions:
            omp += " " + " ".join(omp_reductions)
        lines.append(f"    {omp}")
        lines.append("    for (long long i = 0; i < n; i++) {")
        lines.extend(self._loop_body(vector_outputs, reductions,
                                     out_types))
        lines.append("    }")
        lines.extend(finals)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _accumulators(self, reductions, out_types):
        decls, omp, finals = [], [], []
        for name, combine in reductions:
            op, identity = _REDUCTIONS[combine]
            if combine in ("min", "max"):
                init = "INFINITY" if combine == "min" else "-INFINITY"
                decls.append(f"    double {name}_acc = {init};")
                omp.append(f"reduction(nan{combine}:{name}_acc)")
                # Selected-element count: min/max over an empty
                # selection must raise, not return +/-INFINITY; the
                # invoker checks slot [1].
                decls.append(f"    double {name}_nsel = 0;")
                omp.append(f"reduction(+:{name}_nsel)")
                finals.append(f"    {name}_r[1] = {name}_nsel;")
            else:
                decls.append(f"    double {name}_acc = {identity};")
                omp.append(f"reduction({op}:{name}_acc)")
            finals.append(f"    {name}_r[0] = {name}_acc;")
        return decls, omp, finals

    def _input_ref(self, name: str) -> str:
        index = self.segment.inputs.index(name)
        if self.scalar_flags[index]:
            return f"{name}_p[0]"
        return f"{name}_p[i]"

    def _value_of(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Literal):
            return _c_literal(expr)
        assert isinstance(expr, ir.Var)
        if expr.name in self._values:
            return self._values[expr.name]
        return self._input_ref(expr.name)

    def _guard_of(self, name: str) -> str | None:
        if name in self._guards:
            return self._guards[name]
        return None  # inputs live in the base domain (unguarded)

    def _loop_body(self, vector_outputs, reductions, out_types):
        lines = []
        red_combines = dict(reductions)
        for stmt in self.segment.stmts:
            expr = stmt.expr
            target = stmt.target
            ctype = _C_TYPES[stmt.type.kind]
            if isinstance(expr, (ir.Literal, ir.Var)):
                self._values[target] = self._value_of(expr) \
                    if not isinstance(expr, ir.Literal) \
                    else _c_literal(expr)
                if isinstance(expr, ir.Var):
                    guard = self._guard_of(expr.name)
                    if guard is not None:
                        self._guards[target] = guard
                continue
            builtin = hb.get(expr.name)
            if builtin.kind == "elementwise":
                # A whole-value operand (the table of a @gather) is
                # indexed by the template, not read per row.
                args = [f"{a.name}_p" if position in builtin.broadcast_args
                        else self._value_of(a)
                        for position, a in enumerate(expr.args)]
                guards = [self._guard_of(a.name) for a in expr.args
                          if isinstance(a, ir.Var)]
                guards = [g for g in guards if g is not None]
                body = builtin.c_template.format(*args)
                lines.append(
                    f"        {ctype} {target}_v = ({ctype})({body});")
                self._values[target] = f"{target}_v"
                if guards:
                    self._guards[target] = guards[0]
            elif builtin.kind == "compress":
                mask, data = expr.args
                mask_value = self._value_of(mask)
                parent = self._guard_of(mask.name)
                guard = mask_value if parent is None \
                    else f"({parent} && {mask_value})"
                self._values[target] = self._value_of(data)
                self._guards[target] = guard
            elif builtin.kind == "reduction":
                arg = expr.args[0]
                value = self._value_of(arg)
                guard = self._guard_of(arg.name) \
                    if isinstance(arg, ir.Var) else None
                update = self._reduction_update(
                    target, expr.name, value)
                if guard is not None:
                    lines.append(f"        if ({guard}) {{ {update} }}")
                else:
                    lines.append(f"        {update}")
        for name in vector_outputs:
            lines.append(
                f"        {name}_o[i] = "
                f"({_C_STORE_TYPES[out_types[name].kind]})"
                f"({self._values[name]});")
        return lines

    @staticmethod
    def _reduction_update(target: str, reducer: str, value: str) -> str:
        if reducer == "sum":
            return f"{target}_acc += (double)({value});"
        if reducer == "prod":
            return f"{target}_acc *= (double)({value});"
        if reducer == "count":
            return f"{target}_acc += 1;"
        if reducer in ("min", "max"):
            # NaN-propagating, like np.min/np.max (fmin/fmax return the
            # non-NaN operand).
            fn = "fmin" if reducer == "min" else "fmax"
            return (f"{target}_acc = (({target}_acc != {target}_acc) || "
                    f"((double)({value}) != (double)({value}))) ? NAN "
                    f": {fn}({target}_acc, (double)({value})); "
                    f"{target}_nsel += 1;")
        if reducer == "any":
            return f"{target}_acc = {target}_acc || ({value} != 0);"
        if reducer == "all":
            return f"{target}_acc = {target}_acc && ({value} != 0);"
        raise CodegenError(f"no C reduction for @{reducer}")


# ---------------------------------------------------------------------------
# compile + invoke
# ---------------------------------------------------------------------------

class CKernel:
    """Per-segment native kernel with per-signature specialization."""

    def __init__(self, segment: Segment):
        self.segment = segment
        self.eligible = segment_is_c_eligible(segment) \
            and c_backend_available()
        self._variants: dict[tuple, object] = {}
        self.sources: list[str] = []

    # -- public ----------------------------------------------------------------

    def try_run(self, inputs: list[Vector],
                n_threads: int) -> list[Vector] | None:
        """Execute natively; None means the caller should fall back."""
        if not self.eligible:
            return None
        arrays = [value.data for value in inputs]
        signature = self._signature(arrays)
        if signature is None:
            return None
        fn = self._variants.get(signature)
        if fn is None:
            fn = self._compile(signature)
            self._variants[signature] = fn
        if fn is False:
            return None
        return self._invoke(fn, arrays, signature, n_threads)

    # -- internals ----------------------------------------------------------------

    def _signature(self, arrays) -> tuple | None:
        parts = []
        n = 1
        for arr in arrays:
            key = str(arr.dtype)
            if key not in _DTYPE_C:
                return None
            scalar = len(arr) == 1
            parts.append((key, scalar))
            if not scalar:
                n = max(n, len(arr))
        # Re-evaluate scalarness against the true base length: an input of
        # length n==1 everywhere means a degenerate base.
        return tuple(parts)

    def _compile(self, signature: tuple):
        scalar_flags = [scalar for _, scalar in signature]
        input_ctypes = [_DTYPE_C[dtype][0] for dtype, _ in signature]
        digest = hashlib.sha1(
            (repr(signature) + self.segment.describe()).encode()
        ).hexdigest()[:16]
        name = f"k{digest}"
        try:
            source = _SourceBuilder(self.segment, scalar_flags,
                                    input_ctypes, name).build()
        except (CodegenError, KeyError, ValueError):
            return False
        self.sources.append(source)
        path = os.path.join(_build_dir(), name)
        with open(path + ".c", "w") as handle:
            handle.write(source)
        cmd = ["gcc", "-O3", "-march=native", "-fopenmp", "-shared",
               "-fPIC", "-o", path + ".so", path + ".c", "-lm"]
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            return False
        lib = ctypes.CDLL(path + ".so")
        fn = getattr(lib, name)
        fn.restype = None
        return fn

    def _invoke(self, fn, arrays, signature, n_threads) -> list[Vector]:
        segment = self.segment
        n = None
        for name, arr, (_, scalar) in zip(segment.inputs, arrays,
                                          signature):
            if not scalar and segment.domains.get(name) != ANY:
                if n is not None and len(arr) != n:
                    raise HorseRuntimeError(
                        "native kernel input length mismatch")
                n = len(arr)
        if n is None:
            n = 1  # all-scalar segment: a single loop iteration
        if n == 0:
            return None  # delegate empty inputs to the Python path

        out_types = {stmt.target: stmt.type for stmt in segment.stmts}
        args = [ctypes.c_longlong(n), ctypes.c_int(max(1, n_threads))]
        keepalive = []
        for arr in arrays:
            contiguous = np.ascontiguousarray(arr)
            keepalive.append(contiguous)
            args.append(contiguous.ctypes.data_as(ctypes.c_void_p))

        vector_buffers = []
        reduction_buffers = []
        for name, role in segment.outputs:
            if role == "vector":
                buffer = np.empty(
                    n, dtype=ht.numpy_dtype(out_types[name]))
                vector_buffers.append((name, buffer))
                args.append(buffer.ctypes.data_as(ctypes.c_void_p))
            else:
                # min/max kernels write the selected-element count into
                # slot [1] so an empty selection can raise like the
                # interpreter instead of returning +/-INFINITY.
                combine = role.split(":", 1)[1]
                slots = 2 if combine in ("min", "max") else 1
                buffer = np.empty(slots, dtype=np.float64)
                reduction_buffers.append((name, buffer))
                args.append(buffer.ctypes.data_as(ctypes.c_void_p))

        fn(*args)

        outputs: list[Vector] = []
        vector_iter = iter(vector_buffers)
        reduction_iter = iter(reduction_buffers)
        for name, role in segment.outputs:
            type_ = out_types[name]
            if role == "vector":
                _, buffer = next(vector_iter)
                outputs.append(Vector(type_, buffer))
            else:
                _, buffer = next(reduction_iter)
                combine = role.split(":", 1)[1]
                if combine in ("min", "max") and buffer[1] == 0:
                    raise BuiltinError(f"@{combine} of an empty vector")
                value = np.empty(1, dtype=ht.numpy_dtype(type_))
                value[0] = buffer[0]
                outputs.append(Vector(type_, value))
        return outputs
