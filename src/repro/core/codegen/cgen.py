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

The row loop takes one of three shapes:

* a kernel with no compacted output and no reduction writes only row
  ``i`` per iteration: one ``#pragma omp simd`` loop;
* a selection with no reduction, whose statements each sit at depth 0
  or under one compacted domain's masks, runs on its selected rows
  (the selection vector of MonetDB/X100).  Per block of ``_BLOCK``
  rows, an ``omp simd`` loop computes the depth-0 statements, the
  base-domain stores and a 0/1 selection byte per domain; a scalar loop
  with no branch lists the selected rows; then an ``omp simd`` loop
  over that list runs the statements under the domain's masks (``bs1``'s
  price) with gathered reads and stores the rows densely.  Nothing runs
  on an unselected row that an ``if`` would have skipped;
* any other kernel — one with a reduction, or with a statement between
  the masks of a nested selection — runs one scalar loop with an ``if``
  around each domain's statements.  Reductions keep per-thread
  accumulators merged by OpenMP (a vector reduction would reorder float
  additions).

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

#: A reduction combine's OpenMP operator and accumulator start, in C.
_REDUCTIONS = {
    "sum": ("+", "0"),
    "prod": ("*", "1"),
    "min": ("min", None),
    "max": ("max", None),
    "any": ("||", "0"),
    "all": ("&&", "1"),
}

_C_TYPES = {
    "f64": "double", "f32": "float",
    "i64": "long long", "i32": "int", "i16": "short", "i8": "signed char",
    "bool": "int",
    # A date is an int64 day count (datetime64[D]).
    "date": "long long",
}


def _acc_type(combine: str, type_: ht.HorseType) -> str:
    """The C type a reduction accumulates in: ``long long`` for an
    integer sum or count (exact past 2**53), else ``double``."""
    return "long long" if combine == "sum" and ht.is_integer(type_) \
        else "double"


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
                    and builtin.combine not in _REDUCTIONS:
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
        self._reductions = [(name, role.split(":", 1)[1])
                            for name, role in segment.outputs
                            if role != "vector"]
        #: reduction output -> the C type it accumulates in
        self._acc = {name: _acc_type(combine, types[name])
                     for name, combine in self._reductions}
        self._compacted = _compacted_domains(segment)
        #: variable -> C expression of its value in the current row
        self._values: dict[str, str] = {}
        #: locals assigned inside an ``if`` block -> their C types (they
        #: are declared at the top of the loop body)
        self._hoisted: dict[str, str] = {}
        self._body: list[str] = []
        #: masks of the open ``if`` blocks, outermost first
        self._open: tuple[str, ...] = ()

    def build(self) -> str:
        segment = self.segment
        params = ["long long n", "int nt"]
        for input_name, ctype in zip(segment.inputs, self.input_ctypes):
            params.append(f"const {ctype}* restrict {input_name}_p")
        for name in self._vectors:
            params.append(f"{self._store_type(name)}* restrict {name}_o")
        for name, _ in self._reductions:
            params.append(f"{self._acc[name]}* restrict {name}_r")
        if self._compacted:
            params.append("long long* restrict lens")

        schedule = self._schedule()
        loop = self._selected_row_loop(schedule) \
            if self._selected_rows(schedule) else self._row_loop(schedule)

        lines = ["#include <math.h>", "#include <omp.h>",
                 "#include <string.h>"]
        if libmvec_available():
            lines.append(_VECTOR_MATH)
        lines.append("")
        # NaN-propagating min/max combiners: np.min/np.max return NaN
        # when any element is NaN, but OpenMP's built-in min/max (and
        # fmin/fmax) silently drop it.
        if any(combine in ("min", "max") for _, combine in self._reductions):
            for red, fn, init in (("nanmin", "fmin", "INFINITY"),
                                  ("nanmax", "fmax", "-INFINITY")):
                lines.append(
                    f"#pragma omp declare reduction({red} : double : "
                    f"omp_out = ((omp_out != omp_out) || "
                    f"(omp_in != omp_in)) ? NAN : {fn}(omp_out, omp_in)) "
                    f"initializer(omp_priv = {init})")
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
        lines.extend(loop)
        lines.extend(f"        cnt[t][{j}] = k{j};" for j in counts)
        lines.append("    }")
        for j, domain in enumerate(self._compacted):
            lines.extend(self._compaction(j, domain))
        lines.extend(finals)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _row_loop(self, schedule: list[tuple[ir.Assign, tuple]]
                  ) -> list[str]:
        """One loop over the thread's rows ``[lo, hi)``, each
        ``@compress`` an ``if`` around its domain's statements and its
        stores at ``lo + k<j>``.

        A kernel whose iterations write only index ``i`` (no compacted
        output, no reduction) runs it as an ``omp simd`` loop; a kernel
        with a reduction, or with a statement between the masks of a
        nested selection, runs it scalar."""
        for stmt, where in schedule:
            self._enter(where)
            expr, target = stmt.expr, stmt.target
            if hb.get(expr.name).kind == "reduction":
                self._line(self._reduction_update(
                    target, expr.name, self._value(expr.args[0].name),
                    self._acc[target]))
            else:
                ctype, value = self._assignment(stmt)
                if self._open:
                    self._hoisted[f"{target}_v"] = ctype
                    self._line(f"{target}_v = {value};")
                else:
                    self._line(f"{ctype} {target}_v = {value};")
        for j, domain in enumerate(self._compacted):
            self._enter(domain_masks(domain))
            for name in self._stored_in(domain):
                self._line(self._store(name, f"lo + k{j}"))
            self._line(f"k{j}++;")
        self._enter(())
        for name in self._base_outputs():
            self._line(self._store(name, "i"))
        simd = [] if self._compacted or self._reductions \
            else ["        #pragma omp simd"]
        return [*simd,
                "        for (long long i = lo; i < hi; i++) {",
                *(f"            {ctype} {local};"
                  for local, ctype in self._hoisted.items()),
                *self._body,
                "        }"]

    def _selected_row_loop(self, schedule: list[tuple[ir.Assign, tuple]]
                           ) -> list[str]:
        """The thread's rows in blocks of ``_BLOCK``, three loops each.

        1. An ``omp simd`` loop computes the depth-0 statements, the
           base-domain stores and each domain's selection byte
           ``sel<j>``; a depth-0 value a domain reads is kept for the
           block in ``<name>_b``.
        2. A scalar loop with no branch lists each domain's selected
           rows in ``idx<j>`` and counts them in ``m<j>``.
        3. Per domain, an ``omp simd`` loop over the listed rows runs the
           statements under the domain's masks and stores at
           ``lo + k<j> + r``.

        Only selected rows reach a masked statement, as under an
        ``if``, and every loop vectorizes."""
        depth0: dict[str, str] = {}  # target computed at depth 0 -> C type
        phases = {(): [], **{domain_masks(d): [] for d in self._compacted}}
        reads = {domain_masks(d): [] for d in self._compacted}
        for stmt, where in schedule:
            ctype, value = self._assignment(stmt)
            phases[where].append(f"{ctype} {stmt.target}_v = {value};")
            if where:
                reads[where] += _row_args(stmt.expr)
            else:
                depth0[stmt.target] = ctype
        first = phases[()]
        first.extend(self._store(name, "i") for name in self._base_outputs())
        first.extend(f"sel{j}[i - b] = {self._selected(domain)};"
                     for j, domain in enumerate(self._compacted))
        kept: dict[str, str] = {}  # the depth-0 values a domain reads
        masked = []
        for j, domain in enumerate(self._compacted):
            chain = domain_masks(domain)
            body = phases[chain]
            body.extend(self._store(name, f"lo + k{j} + r")
                        for name in self._stored_in(domain))
            sources = {self._source(name) for name in
                       reads[chain] + self._stored_in(domain)}
            loads = [target for target in depth0 if target in sources]
            kept.update((target, depth0[target]) for target in loads)
            masked += ["            #pragma omp simd",
                       f"            for (long long r = 0; r < m{j}; r++) {{",
                       f"                long long i = idx{j}[r];",
                       *(f"                {depth0[target]} {target}_v = "
                         f"{target}_b[i - b];" for target in loads),
                       *("                " + line for line in body),
                       "            }",
                       f"            k{j} += m{j};"]
        first.extend(f"{target}_b[i - b] = {target}_v;" for target in kept)
        counts = range(len(self._compacted))
        return [*(f"        unsigned char sel{j}[{_BLOCK}];" for j in counts),
                *(f"        long long idx{j}[{_BLOCK}];" for j in counts),
                *(f"        {ctype} {target}_b[{_BLOCK}];"
                  for target, ctype in kept.items()),
                f"        for (long long b = lo; b < hi; b += {_BLOCK}) {{",
                f"            long long e = hi - b < {_BLOCK} ? hi "
                f": b + {_BLOCK};",
                "            #pragma omp simd",
                "            for (long long i = b; i < e; i++) {",
                *("                " + line for line in first),
                "            }",
                "            long long "
                + ", ".join(f"m{j} = 0" for j in counts) + ";",
                "            for (long long i = b; i < e; i++) {",
                *(line for j in counts for line in (
                    f"                idx{j}[m{j}] = i;",
                    f"                m{j} += sel{j}[i - b];")),
                "            }",
                *masked,
                "        }"]

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

    def _home(self, name: str, placed: dict[str, tuple]) -> tuple:
        """The masks of the block that computes ``name``'s row value:
        ``()`` for an input read or a literal."""
        return placed.get(self._source(name), ())

    def _selected_rows(self, schedule: list[tuple[ir.Assign, tuple]]
                       ) -> bool:
        """Can the selections run on their selected rows (see
        _selected_row_loop)?  There must be no reduction, and every
        statement must sit at depth 0 or under one compacted domain's
        masks, reading only depth-0 values and its own domain's; every
        mask, and every value a domain stores, must be computed at depth
        0 or in that domain."""
        if not self._compacted or self._reductions:
            return False
        placed = {stmt.target: where for stmt, where in schedule}
        chains = [domain_masks(domain) for domain in self._compacted]
        for stmt, where in schedule:
            if where and where not in chains:
                return False
            if any(self._home(name, placed) not in ((), where)
                   for name in _row_args(stmt.expr)):
                return False
        return all(
            not any(self._home(mask, placed) for mask in chain)
            and all(self._home(name, placed) in ((), chain)
                    for name in self._stored_in(domain))
            for domain, chain in zip(self._compacted, chains))

    def _schedule(self) -> list[tuple[ir.Assign, tuple]]:
        """The statements that emit C, each with the masks of the ``if``
        blocks around it, in an order that defines every value and mask
        before its use.

        A statement goes in the deepest block holding every read of its
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
                if target in dict(self._reductions):
                    placed[index] = domain_masks(domains[arg])
                    require(arg, placed[index])
            elif target in need:
                placed[index] = need[target]
                for name in _row_args(expr):
                    require(name, placed[index])
        # Shallower blocks first: a value's block, and every mask's, is
        # a prefix of the blocks that read it.
        first: dict[tuple, int] = {}
        for index, where in sorted(placed.items()):
            first.setdefault(where, index)
        order = sorted(placed, key=lambda index: (
            len(placed[index]), first[placed[index]], index))
        return [(stmts[index], placed[index]) for index in order]

    # -- the loop body -------------------------------------------------------

    def _line(self, text: str) -> None:
        self._body.append("    " * (3 + len(self._open)) + text)

    def _enter(self, masks: tuple) -> None:
        """Make ``masks`` the open ``if`` blocks: close the blocks they
        do not share, open the ones they add."""
        keep = len(_meet(masks, self._open))
        while len(self._open) > keep:
            self._open = self._open[:-1]
            self._line("}")
        for mask in masks[keep:]:
            self._line(f"if ({self._value(mask)}) {{")
            self._open += (mask,)

    def _value(self, name: str) -> str:
        stmt = self._defs.get(name)
        if stmt is None:
            index = self.segment.inputs.index(name)
            return f"{name}_p[0]" if self.scalar_flags[index] \
                else f"{name}_p[i]"
        if name not in self._values:
            # An alias, a compress (selection is the block a statement
            # runs in, not a value) or a literal: no code of its own.
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

    def _stored_in(self, domain: tuple) -> list[str]:
        return [name for name in self._vectors
                if self.segment.domains[name] == domain]

    def _base_outputs(self) -> list[str]:
        return [name for name in self._vectors
                if not domain_masks(self.segment.domains[name])]

    def _selected(self, domain: tuple) -> str:
        """Is the row in compressed ``domain``: 1 or 0."""
        return " && ".join(f"({self._value(mask)} != 0)"
                           for mask in domain_masks(domain))

    def _compaction(self, j: int, domain: tuple) -> list[str]:
        """Move each thread's compacted block down to its prefix-sum
        offset, in thread order (thread 0's block is in place)."""
        lines = [f"    long long off{j} = cnt[0][{j}];",
                 "    for (int t = 1; t < used; t++) {",
                 f"        long long lo = {_row_start('t', 'used')}, "
                 f"k = cnt[t][{j}];"]
        for name in self._stored_in(domain):
            lines.append(f"        memmove({name}_o + off{j}, "
                         f"{name}_o + lo, k * sizeof *{name}_o);")
        lines.append(f"        off{j} += k;")
        lines.append("    }")
        lines.append(f"    lens[{j}] = off{j};")
        return lines

    def _accumulators(self):
        decls, omp, finals = [], [], []
        for name, combine in self._reductions:
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
                decls.append(f"    {self._acc[name]} {name}_acc = "
                             f"{identity};")
                omp.append(f"reduction({op}:{name}_acc)")
            finals.append(f"    {name}_r[0] = {name}_acc;")
        return decls, omp, finals

    @staticmethod
    def _reduction_update(target: str, reducer: str, value: str,
                          acc: str) -> str:
        if reducer == "sum":
            return f"{target}_acc += ({acc})({value});"
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
                exact = _acc_type(combine, self.types[name]) != "double"
                buffers[name] = np.empty(
                    slots, dtype=np.int64 if exact else np.float64)
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
