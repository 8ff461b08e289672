"""Native backend: fused segments → emitted C → gcc → ctypes.

This is the paper's actual backend (Figure 3): each fused segment becomes
one C function whose row loop holds the segment's predicates,
compresses, arithmetic and reductions — compiled with
``gcc -O3 -march=native -fopenmp -fno-math-errno`` and invoked through
ctypes (which releases the GIL, so OpenMP threads scale on multi-core
hosts).

Each OpenMP thread takes a contiguous range ``[lo, hi)`` of the base
iteration space.  Every range but the last starts and ends on a
multiple of ``_BLOCK`` rows, so every thread count cuts the rows into
the same blocks and each row takes the same vector lane or scalar
remainder: the vector outputs are byte-identical at any thread count.
Base-domain vector outputs are written at ``i``; a ``@compress``
selects the rows of its compressed domain, whose outputs are written
compacted at ``lo + k`` with a per-thread count ``k``.  After the loop
each thread's block moves down, in thread order, to its prefix-sum
offset — so the rows and their order are exactly those of ``x[mask]``
over the whole input.

Each thread walks its range in blocks of ``_BLOCK`` rows and runs one
step at every *level* of the segment — a mask chain that a statement
is placed at or that a compacted domain's outputs live in, ``()``
being the block's rows (the selection vector of MonetDB/X100): the
loop over the parent level's rows writes a 0/1 selection byte per row,
a scalar loop with no branch lists the selected rows, and an ``omp
simd`` loop over that list runs the level's statements with gathered
reads and stores its rows densely.  A value read in a loop other than
the one that computes it is kept for the block.  A kernel that lists no
rows takes its whole range as one block.

The one placement rule: a level that updates a reduction runs inline,
under an ``if`` in its parent's loop, and that loop carries no ``omp
simd``.  Reductions keep per-thread accumulators merged by OpenMP, and
a vector reduction would reorder the float additions; gcc vectorizes a
masked in-order sum such as q6's on its own.

Where gcc can link glibc's libmvec, the prelude declares ``exp``, ``log``
and ``pow`` ``omp declare simd`` and the kernel links ``-lmvec``, so
those calls vectorize too; ``-fno-math-errno`` lets ``sqrt`` compile to
an instruction, which vectorizes.  Without libmvec the calls stay
scalar.

Eligibility (segments that don't qualify run on the Python-kernel
backend, and the kernel span says why in ``c_declined``):

* every statement is an elementwise builtin with a ``c_template``, a
  ``@compress``, or a reduction (`sum prod min max count any all`);
  vector outputs may live in the base domain or any compressed domain,
  nested masks and guarded reductions included (a broadcast output
  only where every input is a scalar, so the loop runs once);
* every statement has its declared type: compilation resolved each
  ``?`` declaration before the optimizer ran;
* runtime dtypes are numeric/bool/datetime (strings reach kernels as
  int32 dictionary codes — see :mod:`repro.core.codegen.lower`).

Kernels are specialized per (dtype, broadcast) signature at first call.
The shared objects are cached on disk in one directory per user, keyed
by a hash of the C source, the gcc version, the flags and the link
libraries, so gcc runs once per kernel per machine rather than once per
process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile

import numpy as np

from repro.core import builtins as hb
from repro.core import ir
from repro.core import types as ht
from repro.core.codegen.pygen import compress_guards, compress_length_error
from repro.core.optimizer.fusion import ANY, Segment, domain_masks
from repro.core.values import Vector
from repro.errors import BuiltinError, CodegenError, HorseRuntimeError

__all__ = ["CKernel", "c_backend_available", "gcc_version",
           "libmvec_available", "decline_reason"]

#: Per reducing builtin, in C: the OpenMP operator that merges the
#: threads' accumulators, the accumulator's start, its type over
#: integers, bools and dates (over floats it is ``double``), and its
#: update by row value ``{x}`` (``{v}``: cast to that type).  A product
#: is unsigned so it wraps like NumPy's.
_REDUCTIONS = {
    "sum": ("+", "0", "long long", "{r}_acc += {v};"),
    "count": ("+", "0", "long long", "{r}_acc += 1;"),
    "prod": ("*", "1", "unsigned long long", "{r}_acc *= {v};"),
    "min": ("min", "{top}", "long long",
            "{r}_acc = {v} < {r}_acc ? {v} : {r}_acc; {r}_n += 1;"),
    "max": ("max", "{bottom}", "long long",
            "{r}_acc = {v} > {r}_acc ? {v} : {r}_acc; {r}_n += 1;"),
    "any": ("||", "0", "long long", "{r}_acc = {r}_acc || ({x} != 0);"),
    "all": ("&&", "1", "long long", "{r}_acc = {r}_acc && ({x} != 0);"),
}

_C_TYPES = {
    "f64": "double", "f32": "float",
    "i64": "long long", "i32": "int", "i16": "short", "i8": "signed char",
    "bool": "int",
    # A date is an int64 day count (datetime64[D]).
    "date": "long long",
}


#: C storage types for output buffers: these must match NumPy's in-memory
#: layout exactly (bool is ONE byte in NumPy; loop locals may stay int).
_C_STORE_TYPES = dict(_C_TYPES, bool="unsigned char")

# Runtime dtype → C pointer element type
_DTYPE_C = {np.dtype(name): ctype for name, ctype in (
    ("float64", "double"),
    ("float32", "float"),
    ("int64", "long long"),
    ("int32", "int"),
    ("int16", "short"),
    ("int8", "signed char"),
    ("bool", "unsigned char"),
    # datetime64[D] is an int64 day count under the hood.
    ("datetime64[D]", "long long"),
)}

#: No kernel reads ``errno``; with it, ``sqrt`` stays a libm call (it
#: may set ``EDOM``) and its loop cannot vectorize.
_CFLAGS = ("-O3", "-march=native", "-fopenmp", "-fno-math-errno",
           "-shared", "-fPIC")

#: Rows per block of the selected-row loop, and the multiple every
#: thread's first row is.
_BLOCK = 512

#: SIMD variants of the libm calls a template emits, from glibc's
#: libmvec (x86-64 only); declared only when gcc can link it.
_VECTOR_MATH = """#if defined(__x86_64__)
#pragma omp declare simd notinbranch
double exp(double);
#pragma omp declare simd notinbranch
double log(double);
#pragma omp declare simd notinbranch
double pow(double, double);
#endif"""

#: Every emitted kernel defines one function of this name; each shared
#: object is loaded on its own handle, so the names never meet.
_ENTRY = "kernel"

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


def libmvec_available() -> bool:
    """Can gcc link glibc's vector math library?  ``-print-file-name``
    answers an absolute path only for a library it finds."""
    if "libmvec" not in _gcc_state:
        try:
            out = subprocess.run(["gcc", "-print-file-name=libmvec.so"],
                                 capture_output=True, text=True,
                                 timeout=30)
            _gcc_state["libmvec"] = out.returncode == 0 \
                and os.path.isabs(out.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            _gcc_state["libmvec"] = False
    return _gcc_state["libmvec"]


def _libs() -> tuple[str, ...]:
    return ("-lmvec", "-lm") if libmvec_available() else ("-lm",)


def _build_dir() -> str:
    """The kernel cache: ``<tempdir>/repro-ckernels-<euid>``, mode 0700.

    A directory of that name that another user owns, or that group or
    others may access, is never read: the process compiles into a
    private fresh directory instead."""
    if "dir" not in _gcc_state:
        euid = os.geteuid()
        path = os.path.join(tempfile.gettempdir(), f"repro-ckernels-{euid}")
        try:
            os.mkdir(path, 0o700)
        except FileExistsError:
            pass
        except OSError:
            path = None
        if path is not None:
            info = os.lstat(path)
            if not (stat.S_ISDIR(info.st_mode) and info.st_uid == euid
                    and info.st_mode & 0o077 == 0):
                path = None
        _gcc_state["dir"] = path or tempfile.mkdtemp(
            prefix="repro-ckernels-")
    return _gcc_state["dir"]


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------

def _is_string(expr: ir.Expr) -> bool:
    return isinstance(expr, ir.SymbolLit) or (
        isinstance(expr, ir.Literal) and expr.type in (ht.STR, ht.SYM))


def decline_reason(segment: Segment,
                   types: dict[str, ht.HorseType]) -> str | None:
    """Why ``segment`` cannot run as emitted C, or ``None`` when it can.

    The static half: dtypes are checked per call.  ``types`` gives each
    statement target its declared type."""
    # A broadcast output is one value: fine when the loop runs once
    # (every input is a scalar), not beside a row loop.
    looped = any(segment.domains.get(name) != ANY for name in segment.inputs)
    typed = set()  # targets whose values the C code declares or stores
    for name, role in segment.outputs:
        if role == "vector" and looped \
                and segment.domains.get(name) == ANY:
            return "broadcast vector output"
        typed.add(name)
    for stmt in segment.stmts:
        expr = stmt.expr
        if _is_string(expr):
            return "string operand"
        if isinstance(expr, ir.Cast):
            return f"cast to {expr.type}"
        if isinstance(expr, ir.BuiltinCall):
            builtin = hb.BUILTINS.get(expr.name)
            if builtin is None or builtin.kind not in (
                    "elementwise", "compress", "reduction"):
                return f"opaque builtin @{expr.name}"
            if builtin.kind == "elementwise":
                if builtin.c_template is None:
                    return f"no C template for @{expr.name}"
                if any(_is_string(a) for a in expr.args):
                    return "string operand"
                typed.add(stmt.target)
            elif builtin.kind == "reduction" \
                    and expr.name not in _REDUCTIONS:
                return f"no C reduction for @{expr.name}"
        if stmt.target in typed:
            type_ = types[stmt.target]
            if type_.kind not in _C_TYPES:
                return f"no C type for {type_}"
    return None


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------

#: NaT's day count: the int64 minimum, which has no C literal.
_C_NAT = "(-9223372036854775807LL - 1)"


def _c_literal(literal: ir.Literal) -> str:
    if literal.type == ht.BOOL:
        return "1" if literal.value else "0"
    if ht.is_integer(literal.type):
        return f"{int(literal.value)}LL"
    if literal.type == ht.DATE:
        days = hb.day_number(literal.value)
        return _C_NAT if days == hb.NAT_DAY else f"{days}LL"
    return repr(float(literal.value))


def _compacted_domains(segment: Segment) -> list[tuple]:
    """The compressed domains the segment's vector outputs live in, in
    order: each gets its own per-thread count ``k<j>`` and length
    ``lens[j]``."""
    return list(dict.fromkeys(
        segment.domains[name] for name, role in segment.outputs
        if role == "vector" and domain_masks(segment.domains[name])))


def _meet(a: tuple, b: tuple | None) -> tuple:
    """The longest common prefix of two mask chains."""
    if b is None:
        return a
    common = 0
    while common < min(len(a), len(b)) and a[common] == b[common]:
        common += 1
    return a[:common]


def _row_args(expr: ir.BuiltinCall) -> list[str]:
    """The variables ``expr`` reads per row: not a whole-value operand
    (the table of a @gather)."""
    broadcast = hb.get(expr.name).broadcast_args
    return [arg.name for position, arg in enumerate(expr.args)
            if isinstance(arg, ir.Var) and position not in broadcast]


def _row_start(t: str, threads: str) -> str:
    """The first row of thread ``t`` of ``threads``, in C: the threads
    share out whole blocks of ``_BLOCK`` rows, so every thread count cuts
    the rows into the same blocks and each row takes the same vector lane
    or scalar remainder."""
    return f"(n + {_BLOCK - 1}) / {_BLOCK} * {t} / {threads} * {_BLOCK}"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class _SourceBuilder:
    """Generates the C function for one (segment, signature) pair."""

    def __init__(self, segment: Segment, types: dict[str, ht.HorseType],
                 scalar_flags: list[bool], input_ctypes: list[str],
                 declared: dict[str, ht.HorseType]):
        self.segment = segment
        self.types = types
        self.declared = declared
        self.scalar_flags = scalar_flags
        self.input_ctypes = input_ctypes
        self._defs = {stmt.target: stmt for stmt in segment.stmts}
        self._vectors = [name for name, role in segment.outputs
                         if role == "vector"]
        #: reduction output -> its reducing builtin
        self._reductions = {name: self._defs[name].expr.name
                            for name, role in segment.outputs
                            if role != "vector"}
        #: reduction output -> the C type it accumulates in
        self._acc = {name: "double" if ht.is_float(types[name])
                     else _REDUCTIONS[reducer][2]
                     for name, reducer in self._reductions.items()}
        self._compacted = _compacted_domains(segment)
        #: compacted domain's mask chain -> its index ``j``
        self._slot = {domain_masks(domain): j
                      for j, domain in enumerate(self._compacted)}
        #: variable -> C expression of its value in the current row
        self._values: dict[str, str] = {}

    def build(self) -> str:
        segment = self.segment
        params = ["long long n", "int nt"]
        for input_name, ctype in zip(segment.inputs, self.input_ctypes):
            params.append(f"const {ctype}* restrict {input_name}_p")
        for name in self._vectors:
            params.append(f"{self._store_type(name)}* restrict {name}_o")
        for name in self._reductions:
            params.append(f"{self._acc[name]}* restrict {name}_r")
        if self._compacted:
            params.append("long long* restrict lens")

        loop = self._block_loop(self._schedule())

        lines = ["#include <limits.h>", "#include <math.h>",
                 "#include <omp.h>", "#include <string.h>"]
        if libmvec_available():
            lines.append(_VECTOR_MATH)
        lines.append("")
        lines.append(f"void {_ENTRY}({', '.join(params)}) {{")
        acc_decls, omp_reductions, finals = self._accumulators()
        lines.extend(acc_decls)
        counts = range(len(self._compacted))
        if self._compacted:
            lines.append(f"    long long cnt[nt][{len(counts)}];")
            lines.append("    int used = 1;")
        lines.append(" ".join(["    #pragma omp parallel num_threads(nt)",
                               *omp_reductions]))
        lines.append("    {")
        lines.append("        int t = omp_get_thread_num(), "
                     "T = omp_get_num_threads();")
        lines.append(f"        long long lo = {_row_start('t', 'T')}, "
                     f"hi = t == T - 1 ? n : {_row_start('(t + 1)', 'T')};")
        if self._compacted:
            lines.append("        if (t == 0) used = T;")
            lines.append("        long long "
                         + ", ".join(f"k{j} = 0" for j in counts) + ";")
        lines.extend("        " + line for line in loop)
        lines.extend(f"        cnt[t][{j}] = k{j};" for j in counts)
        lines.append("    }")
        for j, domain in enumerate(self._compacted):
            lines.extend(self._compaction(j, domain))
        lines.extend(finals)
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- the loops -----------------------------------------------------------

    def _block_loop(self, schedule: list[tuple[ir.Assign, tuple]]
                    ) -> list[str]:
        """The thread's rows in blocks, each running the loop over its
        rows and the levels under them.

        A *level* is a mask chain a statement is placed at or a
        compacted domain's outputs live in; ``()`` is the block's rows.
        Its parent is its longest proper prefix that is a level.  A
        level that updates a reduction is *inline*: it runs in its
        parent's loop (see _body); every other level is *listed* and
        runs its own loop (see _after)."""
        #: level -> the statements placed at it
        self._work: dict[tuple, list[ir.Assign]] = {(): []}
        for stmt, where in schedule:
            self._work.setdefault(where, []).append(stmt)
        for chain in self._slot:
            self._work.setdefault(chain, [])
        levels = sorted(self._work, key=len)  # a parent before its children
        self._number = {level: n for n, level in enumerate(levels[1:])}
        self._children: dict[tuple, list[tuple]] = {level: []
                                                    for level in levels}
        #: level -> the level whose loop runs its rows
        self._host = {(): ()}
        self._reducing = {where for stmt, where in schedule
                          if stmt.target in self._reductions}
        for level in levels[1:]:
            parent = max((p for p in self._children if len(p) < len(level)
                          and level[:len(p)] == p), key=len)
            self._children[parent].append(level)
            self._host[level] = self._host[parent] \
                if level in self._reducing else level
        # A value read in a loop other than the one that computes it is
        # kept for the block in ``<name>_b``.
        placed = {stmt.target: where for stmt, where in schedule}
        #: host level -> the kept values its loop reads -> their C types
        self._loads: dict[tuple, dict[str, str]] = {level: {}
                                                    for level in levels}
        for level in levels:
            loop = self._host[level]
            for name in self._reads(level):
                source = self._source(name)
                if source in placed and self._host[placed[source]] != loop:
                    self._loads[loop][source] = \
                        _C_TYPES[self.types[source].kind]
        self._kept = {name: ctype for loads in self._loads.values()
                      for name, ctype in loads.items()}
        # Each listed level's rows are listed; so are an inline level's
        # when it has listed children.
        listed = [self._number[level] for level in levels[1:]
                  if level not in self._reducing]
        indexed = [self._number[level] for level in levels[1:]
                   if level not in self._reducing or self._listed(level)]
        # A block bounds the lists; a kernel that lists no rows takes the
        # thread's range as one block (512-row blocks cost a masked sum
        # that stores its rows 2-3 %).
        block = [f"for (long long b = lo; b < hi; b += {_BLOCK}) {{",
                 f"    long long e = hi - b < {_BLOCK} ? hi : b + {_BLOCK};",
                 "    long long "
                 + ", ".join(f"m{n} = 0" for n in indexed) + ";"] \
            if indexed else ["{", "    long long b = lo, e = hi;"]
        return [*(f"unsigned char sel{n}[{_BLOCK}];" for n in listed),
                *(f"long long idx{n}[{_BLOCK}];" for n in indexed),
                *(f"{ctype} {name}_b[{_BLOCK}];"
                  for name, ctype in self._kept.items()),
                *block,
                *_indent(self._loop(())),
                *_indent(self._after(())),
                "}"]

    def _listed(self, level: tuple) -> list[tuple]:
        return [child for child in self._children[level]
                if child not in self._reducing]

    def _reads(self, level: tuple) -> list[str]:
        """The variables read per row of ``level``: its statements'
        operands, its stores and the masks its children add."""
        return [*(name for stmt in self._work[level]
                  for name in _row_args(stmt.expr)),
                *self._stored_at(level),
                *(mask for child in self._children[level]
                  for mask in child[len(level):])]

    def _rows(self, level: tuple, body: list[str]) -> list[str]:
        """``body`` run for each row ``i`` of ``level``: the block's
        rows, or the rows listed in ``idx<n>``."""
        if not level:
            return ["for (long long i = b; i < e; i++) {",
                    *_indent(body), "}"]
        n = self._number[level]
        return [f"for (long long r = 0; r < m{n}; r++) {{",
                f"    long long i = idx{n}[r];", *_indent(body), "}"]

    def _loop(self, level: tuple) -> list[str]:
        """The loop over ``level``'s rows: ``omp simd`` unless it runs a
        reduction (a vector reduction would reorder the float
        additions)."""
        simd = not {level, *self._children[level]} & self._reducing
        loads = [f"{ctype} {name}_v = {name}_b[i - b];"
                 for name, ctype in self._loads[level].items()]
        return [*(["#pragma omp simd"] if simd else []),
                *self._rows(level, loads + self._body(level))]

    def _body(self, level: tuple) -> list[str]:
        """What runs per row of ``level``: its statements, its stores,
        each listed child's selection byte ``sel<n>``, and each inline
        child under an ``if``.  An inline level stores at ``lo + k<j>``
        and, when it has listed children, lists its own rows."""
        lines = []
        for stmt in self._work[level]:
            target = stmt.target
            if target in self._reductions:
                lines.append(self._reduction_update(
                    target, self._value(stmt.expr.args[0].name)))
                continue
            ctype, value = self._assignment(stmt)
            lines.append(f"{ctype} {target}_v = {value};")
            if target in self._kept:
                lines.append(f"{target}_b[i - b] = {target}_v;")
        inline = level != () and level in self._reducing
        j = self._slot.get(level)
        at = "i" if j is None else f"lo + k{j}" if inline \
            else f"lo + k{j} + r"
        lines.extend(self._store(name, at) for name in self._stored_at(level))
        if inline and j is not None:
            lines.append(f"k{j}++;")
        for child in self._children[level]:
            selected = " && ".join(f"({self._value(mask)} != 0)"
                                   for mask in child[len(level):])
            if child in self._reducing:
                lines += [f"if ({selected}) {{", *_indent(self._body(child)),
                          "}"]
            else:
                lines.append(f"sel{self._number[child]}[i - b] = {selected};")
        if inline and self._listed(level):
            n = self._number[level]
            lines.append(f"idx{n}[m{n}++] = i;")
        return lines

    def _after(self, level: tuple) -> list[str]:
        """What runs after the loop that runs ``level``: a scalar loop
        with no branch lists each listed child's selected rows in
        ``idx<n>`` and counts them in ``m<n>``; then each child's loop
        runs over that list, storing at ``lo + k<j> + r``."""
        listed = self._listed(level)
        lines = self._rows(level, [
            line for n in (self._number[child] for child in listed)
            for line in (f"idx{n}[m{n}] = i;", f"m{n} += sel{n}[i - b];")
        ]) if listed else []
        for child in self._children[level]:
            if child in listed:
                lines += self._loop(child)
                if child in self._slot:
                    lines.append(f"k{self._slot[child]} += "
                                 f"m{self._number[child]};")
            lines += self._after(child)
        return lines

    # -- where each statement goes -------------------------------------------

    def _source(self, name: str) -> str | None:
        """The statement that sets ``name``'s row value, through aliases
        and compresses: ``None`` for an input read."""
        stmt = self._defs.get(name)
        while stmt is not None:
            expr = stmt.expr
            if isinstance(expr, ir.Var):
                stmt = self._defs.get(expr.name)
            elif isinstance(expr, ir.BuiltinCall) \
                    and hb.get(expr.name).kind == "compress":
                stmt = self._defs.get(expr.args[1].name)
            else:
                return stmt.target
        return None

    def _schedule(self) -> list[tuple[ir.Assign, tuple]]:
        """The statements that emit C, each with the level (mask chain)
        it runs at, in an order that defines every value and mask before
        its use.

        A statement goes at the deepest level holding every read of its
        value: its own domain, or deeper when it is read only under a
        mask — the option price of ``bs1`` is computed for the selected
        rows alone."""
        domains = self.segment.domains
        need: dict[str, tuple] = {}

        def require(name: str, where: tuple) -> None:
            need[name] = _meet(where, need.get(name))

        for name in self._vectors:
            require(name, domain_masks(domains[name]))
        placed: dict[int, tuple] = {}
        stmts = self.segment.stmts
        for index in reversed(range(len(stmts))):
            stmt = stmts[index]
            expr, target = stmt.expr, stmt.target
            if isinstance(expr, ir.Literal):
                continue
            if isinstance(expr, ir.Var):
                if target in need:
                    require(expr.name, need[target])
                continue
            builtin = hb.get(expr.name)
            if builtin.kind == "compress":
                mask, data = expr.args
                require(mask.name, domain_masks(domains[target])[:-1])
                if target in need:
                    require(data.name, need[target])
            elif builtin.kind == "reduction":
                arg = expr.args[0].name
                if target in self._reductions:
                    placed[index] = domain_masks(domains[arg])
                    require(arg, placed[index])
            elif target in need:
                placed[index] = need[target]
                for name in _row_args(expr):
                    require(name, placed[index])
        # Shallower levels first: a value's level, and every mask's, is
        # a prefix of the levels that read it.
        first: dict[tuple, int] = {}
        for index, where in sorted(placed.items()):
            first.setdefault(where, index)
        order = sorted(placed, key=lambda index: (
            len(placed[index]), first[placed[index]], index))
        return [(stmts[index], placed[index]) for index in order]

    # -- row values ----------------------------------------------------------

    def _value(self, name: str) -> str:
        stmt = self._defs.get(name)
        if stmt is None:
            index = self.segment.inputs.index(name)
            return f"{name}_p[0]" if self.scalar_flags[index] \
                else f"{name}_p[i]"
        if name not in self._values:
            # An alias, a compress (selection is the level a statement
            # runs at, not a value) or a literal: no code of its own.
            expr = stmt.expr
            if isinstance(expr, ir.BuiltinCall):
                if expr.name != "compress":
                    raise CodegenError(f"{name} is read before it is set")
                expr = expr.args[1]
            self._values[name] = _c_literal(expr) \
                if isinstance(expr, ir.Literal) else self._value(expr.name)
        return self._values[name]

    def _operand(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Literal):
            return _c_literal(expr)
        return self._value(expr.name)

    def _assignment(self, stmt: ir.Assign) -> tuple[str, str]:
        """The C type and row value of an elementwise statement; its
        value is the local ``<target>_v`` from here on."""
        expr, target = stmt.expr, stmt.target
        builtin = hb.get(expr.name)
        # A whole-value operand (the table of a @gather) is indexed by
        # the template, not read per row.
        args = [f"{a.name}_p" if position in builtin.broadcast_args
                else self._operand(a)
                for position, a in enumerate(expr.args)]
        ctype = _C_TYPES[self.types[target].kind]
        value = builtin.c_template.format(*args)
        # Day counts compare like NumPy's dates only with NaT guarded.
        guard = hb.nat_guard(expr) \
            if hb.compares_dates(expr, self.declared) else None
        if guard is not None:
            position, connective = guard
            value = (f"({value} && ({args[position]} != {_C_NAT}))"
                     if connective == "and" else
                     f"({value} || ({args[position]} == {_C_NAT}))")
        self._values[target] = f"{target}_v"
        return ctype, f"({ctype})({value})"

    # -- outputs -------------------------------------------------------------

    def _store_type(self, name: str) -> str:
        return _C_STORE_TYPES[self.types[name].kind]

    def _store(self, name: str, at: str) -> str:
        return (f"{name}_o[{at}] = ({self._store_type(name)})"
                f"({self._value(name)});")

    def _stored_at(self, level: tuple) -> list[str]:
        """The vector outputs whose domain's masks are ``level``."""
        return [name for name in self._vectors
                if domain_masks(self.segment.domains[name]) == level]

    def _compaction(self, j: int, domain: tuple) -> list[str]:
        """Move each thread's compacted block down to its prefix-sum
        offset, in thread order (thread 0's block is in place)."""
        lines = [f"    long long off{j} = cnt[0][{j}];",
                 "    for (int t = 1; t < used; t++) {",
                 f"        long long lo = {_row_start('t', 'used')}, "
                 f"k = cnt[t][{j}];"]
        for name in self._stored_at(domain_masks(domain)):
            lines.append(f"        memmove({name}_o + off{j}, "
                         f"{name}_o + lo, k * sizeof *{name}_o);")
        lines.append(f"        off{j} += k;")
        lines.append("    }")
        lines.append(f"    lens[{j}] = off{j};")
        return lines

    def _missing(self, name: str) -> tuple[str, str] | None:
        """How a min/max finds a missing row value, and the result one
        forces: NaN, or NaT for a date (the int64 minimum, which a max
        skips and which is its start, so a flag carries it)."""
        if ht.is_float(self.types[name]):
            return "({x} != {x})", "NAN"
        return ("({x} == %s)" % _C_NAT, _C_NAT) \
            if self.types[name] == ht.DATE else None

    def _accumulators(self):
        decls, omp, finals = [], [], []
        for name, reducer in self._reductions.items():
            op, start, _, _ = _REDUCTIONS[reducer]
            float_ = self._acc[name] == "double"
            start = start.format(top="INFINITY" if float_ else "LLONG_MAX",
                                 bottom="-INFINITY" if float_
                                 else "LLONG_MIN")
            decls.append(f"    {self._acc[name]} {name}_acc = {start};")
            omp.append(f"reduction({op}:{name}_acc)")
            result = f"{name}_acc"
            if reducer in ("min", "max"):
                # min/max over no row raises: the invoker reads the row
                # count in slot [1].
                decls.append(f"    long long {name}_n = 0;")
                omp.append(f"reduction(+:{name}_n)")
                finals.append(f"    {name}_r[1] = {name}_n;")
                missing = self._missing(name)
                if missing is not None:
                    decls.append(f"    int {name}_miss = 0;")
                    omp.append(f"reduction(||:{name}_miss)")
                    result = f"{name}_miss ? {missing[1]} : {result}"
            finals.append(f"    {name}_r[0] = {result};")
        return decls, omp, finals

    def _reduction_update(self, target: str, value: str) -> str:
        reducer = self._reductions[target]
        update = _REDUCTIONS[reducer][3].format(
            r=target, v=f"({self._acc[target]})({value})", x=value)
        missing = self._missing(target) \
            if reducer in ("min", "max") else None
        if missing is not None:
            update += f" {target}_miss |= {missing[0].format(x=value)};"
        return update


# ---------------------------------------------------------------------------
# compile + invoke
# ---------------------------------------------------------------------------

def _load(source: str, pointers: int):
    """The kernel function of ``source`` — ``(n, nt, *pointers)`` — from
    the on-disk cache or freshly compiled into it; a string says why
    there is none."""
    key = hashlib.sha256("\0".join(
        (source, gcc_version() or "", *_CFLAGS, *_libs())
    ).encode()).hexdigest()
    path = os.path.join(_build_dir(), key[:32] + ".so")
    try:
        if not os.path.exists(path):
            failure = _gcc(source, path)
            if failure is not None:
                return failure
        fn = getattr(ctypes.CDLL(path), _ENTRY)
    except OSError as exc:
        return f"kernel cache: {exc}"
    fn.argtypes = [ctypes.c_longlong, ctypes.c_int] \
        + [ctypes.c_void_p] * pointers
    fn.restype = None
    return fn


def _gcc(source: str, path: str) -> str | None:
    """Compile ``source`` into ``path``; a string says why gcc failed.

    gcc writes a unique name that is then renamed into place, so two
    processes compiling the same kernel at once each publish a complete
    file."""
    fd, partial = tempfile.mkstemp(suffix=".tmp",
                                   dir=os.path.dirname(path))
    os.close(fd)
    try:
        result = subprocess.run(
            ["gcc", *_CFLAGS, "-o", partial, "-x", "c", "-", *_libs()],
            input=source, capture_output=True, text=True)
        if result.returncode != 0:
            lines = result.stderr.strip().splitlines()
            return "gcc failed: " + (lines[0] if lines else
                                     f"exit {result.returncode}")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return None


class CKernel:
    """Per-segment native kernel with per-signature specialization."""

    def __init__(self, segment: Segment,
                 declared: dict[str, ht.HorseType] | None = None):
        """``declared`` gives the declared type of each variable of the
        segment's method (default: the segment's own statements)."""
        self.segment = segment
        self.types = {stmt.target: stmt.type for stmt in segment.stmts}
        self.declared = self.types if declared is None else declared
        self.declined = decline_reason(segment, self.types) \
            if c_backend_available() else "gcc not available"
        self.guards, dynamic = compress_guards(segment)
        if dynamic and self.declined is None:
            self.declined = "compress of a broadcast in a compressed domain"
        self._compacted = _compacted_domains(segment)
        #: signature -> kernel function, or why it could not be built
        self._variants: dict[tuple, object] = {}

    @property
    def eligible(self) -> bool:
        return self.declined is None

    # -- public ----------------------------------------------------------------

    def try_run(self, inputs: list[Vector], n_threads: int
                ) -> tuple[list[Vector] | None, str | None]:
        """Execute natively: ``(outputs, None)``, or ``(None, reason)``
        when the caller should fall back."""
        if self.declined is not None:
            return None, self.declined
        arrays = [value.data for value in inputs]
        signature = self._signature(arrays)
        if isinstance(signature, str):
            return None, signature
        n = self._base_length(arrays, signature)
        if self.guards and compress_length_error(self.guards, arrays,
                                                 n) is not None:
            # The loop would compress through a broadcast operand; the
            # Python kernel raises the interpreter's error.
            return None, "@compress operand lengths"
        if n == 0:
            return None, "empty input"  # the Python path synthesizes it
        fn = self._variants.get(signature)
        if fn is None:
            fn = self._variants[signature] = self._compile(signature)
        if isinstance(fn, str):
            return None, fn
        return self._invoke(fn, arrays, n, n_threads), None

    # -- internals ----------------------------------------------------------------

    def _signature(self, arrays) -> tuple | str:
        parts = []
        for name, arr in zip(self.segment.inputs, arrays):
            dtype = arr.dtype
            if dtype not in _DTYPE_C:
                return f"input {name} has dtype {dtype}"
            parts.append((dtype, len(arr) == 1))
        return tuple(parts)

    def _base_length(self, arrays, signature) -> int:
        n = None
        for name, arr, (_, scalar) in zip(self.segment.inputs, arrays,
                                          signature):
            if not scalar and self.segment.domains.get(name) != ANY:
                if n is not None and len(arr) != n:
                    raise HorseRuntimeError(
                        "native kernel input length mismatch")
                n = len(arr)
        return 1 if n is None else n  # all-scalar: a single iteration

    def _compile(self, signature: tuple):
        scalar_flags = [scalar for _, scalar in signature]
        input_ctypes = [_DTYPE_C[dtype] for dtype, _ in signature]
        try:
            source = _SourceBuilder(self.segment, self.types, scalar_flags,
                                    input_ctypes, self.declared).build()
        except (CodegenError, KeyError, ValueError) as exc:
            return f"codegen failed: {exc}"
        segment = self.segment
        return _load(source, len(segment.inputs) + len(segment.outputs)
                     + bool(self._compacted))

    def _invoke(self, fn, arrays, n, n_threads) -> list[Vector]:
        args = [ctypes.c_longlong(n), ctypes.c_int(n_threads)]
        keepalive = []
        for arr in arrays:
            contiguous = np.ascontiguousarray(arr)
            keepalive.append(contiguous)
            args.append(contiguous.ctypes.data_as(ctypes.c_void_p))

        # Parameter order: vector outputs, then reductions, then lens.
        buffers = {}
        for name, role in self.segment.outputs:
            if role == "vector":
                buffers[name] = np.empty(
                    n, dtype=ht.numpy_dtype(self.types[name]))
        for name, role in self.segment.outputs:
            if role != "vector":
                # min/max kernels write the selected-element count into
                # slot [1] so an empty selection can raise like the
                # interpreter instead of returning +/-INFINITY.
                combine = role.split(":", 1)[1]
                slots = 2 if hb.COMBINES[combine].identity is None else 1
                float_ = ht.is_float(self.types[name])
                buffers[name] = np.empty(
                    slots, dtype=np.float64 if float_ else np.int64)
        args.extend(buffer.ctypes.data_as(ctypes.c_void_p)
                    for buffer in buffers.values())
        compacted = self._compacted
        lens = np.zeros(len(compacted), dtype=np.int64)
        if compacted:
            args.append(lens.ctypes.data_as(ctypes.c_void_p))

        fn(*args)

        outputs: list[Vector] = []
        for name, role in self.segment.outputs:
            type_, buffer = self.types[name], buffers[name]
            if role == "vector":
                domain = self.segment.domains[name]
                if domain in compacted:
                    # Shrink to the selected rows in place (no copy).
                    buffer.resize(int(lens[compacted.index(domain)]),
                                  refcheck=False)
                outputs.append(Vector(type_, buffer))
                continue
            combine = role.split(":", 1)[1]
            if hb.COMBINES[combine].identity is None and buffer[1] == 0:
                raise BuiltinError(f"@{combine} of an empty vector")
            value = np.empty(1, dtype=ht.numpy_dtype(type_))
            value[0] = buffer[0]
            outputs.append(Vector(type_, value))
        return outputs
