"""The HorseIR built-in function library.

Every database operator and every MATLAB array operation the frontends emit
maps to one of these built-ins.  Each built-in carries:

* ``kind`` — its *fusion trait*, which drives the loop-fusion optimizer:

  - ``elementwise``: output element ``i`` depends only on input elements
    ``i`` (broadcasting scalars).  Freely fusable.
  - ``reduction``: folds a vector to a scalar; fusable as the *tail* of a
    segment (the paper's ``@sum`` in Figure 3).
  - ``compress``: boolean selection; fusable (becomes a mask inside the
    generated loop).
  - ``scan``: prefix computation (``@cumsum``); vectorized but executed as a
    single call because chunks carry state.
  - ``opaque``: group/join/sort/table constructors — executed as one
    vectorized call, never fused.
  - ``source``: reads state from the execution context (``@load_table``).

* ``infer`` — result-type inference from argument types;
* ``run`` — vectorized NumPy evaluation (used by the reference interpreter,
  i.e. HorsePower-Naive, and by opaque statements in compiled code);
* ``template`` — for fusable built-ins, a Python/NumPy source template used
  by the code generator, e.g. ``"({0} >= {1})"`` for ``@geq``;
* ``combine`` — for reductions, how chunk partials merge under the
  multi-threaded executor (``sum``/``min``/``max``/``any``/``all``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core import ir
from repro.core import strings
from repro.core import types as ht
from repro.core.values import (ListValue, TableValue, Value, Vector, scalar,
                               value_nbytes)
from repro.errors import BuiltinError

__all__ = ["Builtin", "EvalContext", "BUILTINS", "get", "exists",
           "run_profiled", "charges_output", "BuiltinSig",
           "SIGNATURES", "signature", "select", "selection",
           "compress_mismatch", "NAT_DAY", "day_number", "compares_dates",
           "nat_guard"]

#: Builtins whose result is a reference to existing storage (the base
#: table, one of its columns, a string vector's codes or dictionary)
#: rather than a newly materialized vector.  The allocation profiler
#: charges nothing for these in *both* execution modes, so naive-vs-opt
#: byte totals compare materialization, not how often base data is
#: referenced.
_REFERENCE_BUILTINS = frozenset({"load_table", "column_value",
                                 "str_codes", "str_dict", "str_decode"})


def charges_output(expr: ir.Expr, value: Value, evaluate) -> bool:
    """Does assigning ``value``, computed by ``expr``, materialize it?

    The profiler's one rule for a statement-level charge, shared by the
    interpreter and the compiled executor: a value that *is* a reference
    builtin's output charges nothing — a bare ``@column_value(...)``, or
    one under a ``check_cast`` that returned it unchanged (the SQL
    translator wraps every column reference that way).  A cast that
    converted charges its copy.  ``evaluate`` re-evaluates the reference
    call (a lookup) to compare identities; it runs only on this
    profiled path."""
    inner = expr.expr if isinstance(expr, ir.Cast) else expr
    if not isinstance(inner, ir.BuiltinCall) \
            or inner.name not in _REFERENCE_BUILTINS:
        return True
    return inner is not expr and evaluate(inner) is not value


class EvalContext:
    """Runtime context for builtin evaluation.

    ``tables`` maps table names to :class:`TableValue`; ``@load_table``
    resolves against it.  The interpreter and the compiled executor both
    thread one of these through evaluation.
    """

    def __init__(self, tables: dict[str, TableValue] | None = None):
        self.tables = dict(tables or {})


@dataclass(frozen=True)
class Builtin:
    """Metadata + implementation for one HorseIR built-in function."""

    name: str
    kind: str
    arity: int | None
    infer: Callable[[list[ht.HorseType]], ht.HorseType]
    run: Callable[[list[Value], EvalContext], Value]
    template: str | None = None
    combine: str | None = None
    #: NumPy ufunc spelling ("np.add") when the op maps to a ufunc with
    #: ``out=`` support; the code generator uses it to write results into
    #: reused per-chunk buffers instead of allocating a fresh temporary
    #: per statement.
    ufunc: str | None = None
    #: C expression template for the native backend (the paper's emitted
    #: C); None means segments containing this op fall back to the
    #: Python-kernel backend.
    c_template: str | None = None
    #: argument positions that receive a *whole* value rather than one
    #: element per row (e.g. @member's candidate pool, @like's pattern);
    #: fused kernels must not slice these per chunk.
    broadcast_args: tuple = ()

    @property
    def is_pure(self) -> bool:
        """True when re-evaluating is safe (everything except sources)."""
        return self.kind != "source"

    @property
    def is_fusable(self) -> bool:
        return self.kind in ("elementwise", "compress", "reduction")


BUILTINS: dict[str, Builtin] = {}


def get(name: str) -> Builtin:
    try:
        return BUILTINS[name]
    except KeyError:
        raise BuiltinError(f"unknown builtin @{name}") from None


def exists(name: str) -> bool:
    return name in BUILTINS


def run_profiled(builtin: Builtin, args: list[Value], ctx: EvalContext,
                 profile) -> Value:
    """Run ``builtin`` and feed its output size to the profile's
    per-builtin breakdown.

    The breakdown only attributes bytes the *statement-level* charge
    (interpreter assignment / opaque plan item) already counted, so it
    never touches ``bytes_allocated`` — see
    :meth:`repro.obs.prof.AllocationProfile.record_builtin`.
    Reference-returning builtins (``@load_table``, ``@column_value``)
    are skipped: handing out a view of base data materializes nothing.
    """
    result = builtin.run(args, ctx)
    if builtin.name not in _REFERENCE_BUILTINS:
        profile.record_builtin(builtin.name, value_nbytes(result))
    return result


def _register(builtin: Builtin) -> None:
    if builtin.name in BUILTINS:
        raise BuiltinError(f"duplicate builtin @{builtin.name}")
    BUILTINS[builtin.name] = builtin


def _expect_arity(name: str, args: Sequence, arity: int) -> None:
    if len(args) != arity:
        raise BuiltinError(
            f"@{name} expects {arity} argument(s), got {len(args)}")


def _as_vector(name: str, value: Value) -> Vector:
    if not isinstance(value, Vector):
        raise BuiltinError(
            f"@{name} expects a vector argument, got {type(value).__name__}")
    return value


def select(vec: Vector, index) -> Vector:
    """``vec[index]`` — a mask, an index array or a slice.  A ``str``
    vector selects its codes and keeps its dictionary."""
    if vec.type is ht.STR:
        return vec.with_codes(vec.encoding()[0][index])
    return Vector(vec.type, vec.data[index])


# ---------------------------------------------------------------------------
# Type-inference helpers
# ---------------------------------------------------------------------------

def _infer_promote(arg_types: list[ht.HorseType]) -> ht.HorseType:
    result = arg_types[0]
    for t in arg_types[1:]:
        if result.is_wildcard or t.is_wildcard:
            return ht.WILDCARD
        result = ht.promote(result, t)
    return result


def _infer_bool(_: list[ht.HorseType]) -> ht.HorseType:
    return ht.BOOL


def _infer_f64(_: list[ht.HorseType]) -> ht.HorseType:
    return ht.F64


def _infer_i64(_: list[ht.HorseType]) -> ht.HorseType:
    return ht.I64


def _infer_first(arg_types: list[ht.HorseType]) -> ht.HorseType:
    return arg_types[0]


def _infer_second(arg_types: list[ht.HorseType]) -> ht.HorseType:
    return arg_types[1]


def _infer_sum(arg_types: list[ht.HorseType]) -> ht.HorseType:
    t = arg_types[0]
    if t.is_wildcard:
        return ht.WILDCARD
    if ht.is_float(t):
        return t
    return ht.I64


def _infer_table(_: list[ht.HorseType]) -> ht.HorseType:
    return ht.TABLE


def _infer_list(arg_types: list[ht.HorseType]) -> ht.HorseType:
    kinds = set(arg_types)
    if len(kinds) == 1:
        return ht.list_of(arg_types[0])
    return ht.list_of(ht.WILDCARD)


def _infer_wild(_: list[ht.HorseType]) -> ht.HorseType:
    return ht.WILDCARD


# ---------------------------------------------------------------------------
# Elementwise builtins
# ---------------------------------------------------------------------------

def _make_elementwise(name: str, arity: int, fn, infer, template: str,
                      broadcast_args: tuple = (),
                      ufunc: str | None = None,
                      c_template: str | None = None) -> None:
    def run(args: list[Value], _: EvalContext) -> Value:
        _expect_arity(name, args, arity)
        vectors = [_as_vector(name, a) for a in args]
        try:
            if any(vec.type is ht.STR for vec in vectors):
                result = _run_on_strings(name, fn, vectors, broadcast_args)
            else:
                result = fn(*_operands(vectors, broadcast_args))
        except (TypeError, ValueError) as exc:
            raise BuiltinError(f"@{name} failed: {exc}") from exc
        result = np.asarray(result)
        if result.ndim == 0:
            result = result.reshape(1)
        arg_types = [a.type for a in args]
        out_type = infer(arg_types)
        if out_type.is_wildcard:
            out_type = ht.type_of_dtype(result.dtype)
        return Vector(out_type, result.astype(ht.numpy_dtype(out_type),
                                              copy=False))

    _register(Builtin(name, "elementwise", arity, infer, run,
                      template=template, broadcast_args=broadcast_args,
                      ufunc=ufunc, c_template=c_template))


def _operands(vectors: list[Vector], broadcast_args: tuple) -> list:
    """NumPy operands: whole arrays at whole-value positions (a
    ``@member`` pool, a ``@like`` pattern, a ``@gather`` table), and
    length-one vectors as true scalars elsewhere — NumPy's scalar fast
    paths make that measurably cheaper than 1-element arrays."""
    return [vec.data if position in broadcast_args or len(vec) != 1
            else vec.data[0]
            for position, vec in enumerate(vectors)]


_COMPARISONS = frozenset({"eq", "neq", "lt", "gt", "leq", "geq"})


def _run_on_strings(name: str, fn, vectors: list[Vector],
                    broadcast_args: tuple) -> np.ndarray:
    """An elementwise op with ``str`` operands, on dictionary codes.

    With one string operand at a row position and scalars elsewhere, the
    op runs once per dictionary entry and is gathered by code; two
    string operands of a comparison compare codes over a reconciled
    dictionary (sorted, so code order is string order).  Anything else —
    a string operand beside another row-level vector — runs on the
    decoded view."""
    positions = [position for position in range(len(vectors))
                 if position not in broadcast_args]
    rows = [position for position in positions
            if len(vectors[position]) != 1] \
        or [position for position in positions
            if vectors[position].type is ht.STR][:1]
    if not all(vectors[position].type is ht.STR for position in rows):
        return fn(*_operands(vectors, broadcast_args))
    if len(rows) == 1:
        [position] = rows
        codes, dictionary = vectors[position].encoding()
        operands = _operands(vectors, broadcast_args)

        def on_dictionary(entries):
            operands[position] = entries
            return fn(*operands)

        return strings.per_entry(on_dictionary, codes, dictionary)
    if len(rows) == 2 and name in _COMPARISONS:
        codes, _ = strings.reconcile(*(vectors[p].encoding() for p in rows))
        return fn(*codes)
    return fn(*_operands(vectors, broadcast_args))


_make_elementwise("add", 2, np.add, _infer_promote, "({0} + {1})", ufunc="np.add",
                  c_template='({0} + {1})')
_make_elementwise("sub", 2, np.subtract, _infer_promote, "({0} - {1})", ufunc="np.subtract",
                  c_template='({0} - {1})')
_make_elementwise("mul", 2, np.multiply, _infer_promote, "({0} * {1})", ufunc="np.multiply",
                  c_template='({0} * {1})')
_make_elementwise("div", 2, np.true_divide, _infer_f64, "({0} / {1})", ufunc="np.true_divide",
                  c_template='((double){0} / (double){1})')
_make_elementwise("mod", 2, np.mod, _infer_promote, "np.mod({0}, {1})", ufunc="np.mod",
                  c_template='fmod((double){0}, (double){1})')
_make_elementwise("power", 2, np.power, _infer_f64, "np.power({0}, {1})", ufunc="np.power",
                  c_template='pow((double){0}, (double){1})')
_make_elementwise("neg", 1, np.negative, _infer_first, "(-{0})", ufunc="np.negative",
                  c_template='(-{0})')
_make_elementwise("abs", 1, np.abs, _infer_first, "np.abs({0})", ufunc="np.abs",
                  c_template='fabs((double){0})')
_make_elementwise("exp", 1, np.exp, _infer_f64, "np.exp({0})", ufunc="np.exp",
                  c_template='exp((double){0})')
_make_elementwise("log", 1, np.log, _infer_f64, "np.log({0})", ufunc="np.log",
                  c_template='log((double){0})')
_make_elementwise("sqrt", 1, np.sqrt, _infer_f64, "np.sqrt({0})", ufunc="np.sqrt",
                  c_template='sqrt((double){0})')
_make_elementwise("floor", 1, np.floor, _infer_first, "np.floor({0})", ufunc="np.floor",
                  c_template='floor((double){0})')
_make_elementwise("ceil", 1, np.ceil, _infer_first, "np.ceil({0})", ufunc="np.ceil",
                  c_template='ceil((double){0})')
_make_elementwise("round", 1, np.round, _infer_first, "np.round({0})")
_make_elementwise("sign", 1, np.sign, _infer_first, "np.sign({0})", ufunc="np.sign",
                  c_template='(({0} > 0) - ({0} < 0))')

_make_elementwise("lt", 2, np.less, _infer_bool,
                  "({0} < {1})", ufunc="np.less",
                  c_template='({0} < {1})')
_make_elementwise("gt", 2, np.greater, _infer_bool,
                  "({0} > {1})", ufunc="np.greater",
                  c_template='({0} > {1})')
_make_elementwise("leq", 2, np.less_equal, _infer_bool,
                  "({0} <= {1})", ufunc="np.less_equal",
                  c_template='({0} <= {1})')
_make_elementwise("geq", 2, np.greater_equal, _infer_bool,
                  "({0} >= {1})", ufunc="np.greater_equal",
                  c_template='({0} >= {1})')
_make_elementwise("eq", 2, np.equal, _infer_bool,
                  "({0} == {1})", ufunc="np.equal",
                  c_template='({0} == {1})')
_make_elementwise("neq", 2, np.not_equal, _infer_bool,
                  "({0} != {1})", ufunc="np.not_equal",
                  c_template='({0} != {1})')

#: NaT, NumPy's missing date, as an int64 day number.
NAT_DAY = int(np.iinfo(np.int64).min)


def day_number(value) -> int:
    """The int64 day number of a date literal's value."""
    return int(np.datetime64(value, "D").astype(np.int64))


def compares_dates(expr: ir.Expr, types: dict) -> bool:
    """Is ``expr`` a comparison of two dates?  A variable's type is
    read from ``types`` (the method's declarations)."""
    return isinstance(expr, ir.BuiltinCall) and expr.name in _COMPARISONS \
        and all(arg.type == ht.DATE if isinstance(arg, ir.Literal)
                else isinstance(arg, ir.Var)
                and types.get(arg.name) == ht.DATE for arg in expr.args)


def nat_guard(expr: ir.BuiltinCall) -> tuple[int, str] | None:
    """What a comparison of two dates needs to keep NumPy's semantics
    when it runs on int64 day numbers, or None.

    NumPy compares NaT false, except under ``!=``, where it is true; as
    a day number NaT is the int64 minimum, below every date.  So ``<``
    and ``<=`` go wrong only for a NaT left operand, ``>`` and ``>=``
    for a NaT right one, and ``==`` / ``!=`` only when both are NaT.
    The guard is ``(position, connective)``: AND the result with
    ``operand != NaT``, or (``"or"``) OR it with ``operand == NaT``.  A
    literal that is not NaT needs no guard."""
    nullable = [not isinstance(arg, ir.Literal)
                or day_number(arg.value) == NAT_DAY for arg in expr.args]
    if expr.name in ("lt", "leq"):
        return (0, "and") if nullable[0] else None
    if expr.name in ("gt", "geq"):
        return (1, "and") if nullable[1] else None
    if not all(nullable):
        return None
    # Given a == b, "both are NaT" is "a is NaT".
    return (0, "and") if expr.name == "eq" else (0, "or")


_make_elementwise("and", 2, np.logical_and, _infer_bool,
                  "np.logical_and({0}, {1})", ufunc="np.logical_and",
                  c_template='({0} && {1})')
_make_elementwise("or", 2, np.logical_or, _infer_bool,
                  "np.logical_or({0}, {1})", ufunc="np.logical_or",
                  c_template='({0} || {1})')
_make_elementwise("not", 1, np.logical_not, _infer_bool,
                  "np.logical_not({0})", ufunc="np.logical_not",
                  c_template='(!{0})')
_make_elementwise("min2", 2, np.minimum, _infer_promote,
                  "np.minimum({0}, {1})", ufunc="np.minimum",
                  # NaN-propagating, like np.minimum (a plain ternary
                  # would return the non-NaN operand).
                  c_template='(({0} != {0}) ? {0} : (({1} != {1}) ? {1} '
                             ': (({0} < {1}) ? {0} : {1})))')
_make_elementwise("max2", 2, np.maximum, _infer_promote,
                  "np.maximum({0}, {1})", ufunc="np.maximum",
                  c_template='(({0} != {0}) ? {0} : (({1} != {1}) ? {1} '
                             ': (({0} > {1}) ? {0} : {1})))')
_make_elementwise("if_else", 3, lambda m, a, b: np.where(m, a, b),
                  _infer_second, "np.where({0}, {1}, {2})",
                  c_template='({0} ? {1} : {2})')


def _date_part(part: str):
    def extract(a):
        years = a.astype("datetime64[Y]")
        if part == "year":
            return years.astype(np.int64) + 1970
        months = a.astype("datetime64[M]")
        if part == "month":
            return (months.astype(np.int64) -
                    years.astype("datetime64[M]").astype(np.int64)) + 1
        return (a.astype("datetime64[D]").astype(np.int64) -
                months.astype("datetime64[D]").astype(np.int64)) + 1
    return extract


_make_elementwise("date_year", 1, _date_part("year"), _infer_i64,
                  "(({0}).astype('datetime64[Y]').astype(np.int64) + 1970)")
_make_elementwise("date_month", 1, _date_part("month"), _infer_i64, None)
_make_elementwise("date_day", 1, _date_part("day"), _infer_i64, None)


def _date_to_i64(a):
    # A datetime64[D] value is its int64 day count (NaT the int64
    # minimum): a view, not a copy.
    return np.asarray(a).astype("datetime64[D]", copy=False).view(np.int64)


_make_elementwise("date_to_i64", 1, _date_to_i64, _infer_i64,
                  "({0}).astype('datetime64[D]', copy=False)"
                  ".view(np.int64)",
                  c_template="({0})")  # a C date is its day count


# String predicates.  On a string vector they run once per dictionary
# entry (see _run_on_strings), so ``values`` here is a dictionary, not a
# column; the fused-kernel form of the same predicate is a ``@gather`` of
# that per-entry table by code (repro.core.codegen.lower).

def _scalar_operand(value):
    """The one element of a whole-value operand, or None."""
    array = np.asarray(value).reshape(-1)
    return array[0] if len(array) == 1 else None


def _np_like(values: np.ndarray, patterns) -> np.ndarray:
    pattern = _scalar_operand(patterns)
    if pattern is None:
        raise BuiltinError("@like expects a scalar pattern")
    regex = _like_regex(pattern)
    return np.array([regex.match(v) is not None for v in values],
                    dtype=np.bool_)


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """The one SQL ``LIKE`` translator: ``%`` and ``_`` become ``.*`` and
    ``.``, every other character matches itself."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


_make_elementwise("like", 2, _np_like, _infer_bool, None,
                  broadcast_args=(1,))


def _np_startswith(values: np.ndarray, prefixes) -> np.ndarray:
    prefix = _scalar_operand(prefixes)
    if prefix is None:
        raise BuiltinError("@startswith expects a scalar prefix")
    return np.array([v.startswith(prefix) for v in values],
                    dtype=np.bool_)


_make_elementwise("startswith", 2, _np_startswith, _infer_bool, None,
                  broadcast_args=(1,))


_make_elementwise("member", 2, np.isin, _infer_bool,
                  "np.isin({0}, {1})", broadcast_args=(1,))


def _gather(table: np.ndarray, codes) -> np.ndarray:
    return table[codes]


#: ``@gather(table, codes)`` is ``table[codes]``: the row-level half of a
#: string predicate lowered to codes, fusable like any elementwise op
#: (the table is a whole value, looked up once per row).
_make_elementwise("gather", 2, _gather, _infer_first, "({0})[{1}]",
                  broadcast_args=(0,), c_template="{0}[{1}]")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _make_reduction(name: str, fn, infer, template: str | None = None,
                    combine: str | None = None) -> None:
    def run(args: list[Value], _: EvalContext) -> Value:
        _expect_arity(name, args, 1)
        vec = _as_vector(name, args[0])
        out_type = infer([vec.type])
        if len(vec) == 0:
            value = _reduction_identity(name, out_type)
        elif vec.type is ht.STR and name in ("min", "max"):
            # Sorted dictionary: the extreme string has the extreme code.
            codes = vec.encoding()[0]
            return vec.with_codes(np.atleast_1d(fn(codes)))
        else:
            value = fn(vec.data)
        result = np.empty(1, dtype=ht.numpy_dtype(out_type))
        result[0] = value
        return Vector(out_type, result)

    _register(Builtin(name, "reduction", 1, infer, run,
                      template=template, combine=combine))


def _reduction_identity(name: str, out_type: ht.HorseType):
    if name in ("sum", "count"):
        return 0
    if name == "prod":
        return 1
    if name == "avg":
        return float("nan")
    if name == "any":
        return False
    if name == "all":
        return True
    raise BuiltinError(f"@{name} of an empty vector")


_make_reduction("sum", np.sum, _infer_sum, "np.sum({0})", "sum")
_make_reduction("prod", np.prod, _infer_sum, "np.prod({0})", "prod")
# No kernel form: a fused avg needs a two-part accumulator, so the
# optimizer's avg-split rewrites it to sum/count instead.
_make_reduction("avg", np.mean, _infer_f64)
# min/max chunk partials use a guarded helper: a chunk whose compressed
# selection is empty yields a None partial (dropped by the combiner)
# instead of np.min's raw ValueError on a zero-size array.
_make_reduction("min", np.min, _infer_first, "_chunk_min({0})", "min")
_make_reduction("max", np.max, _infer_first, "_chunk_max({0})", "max")
_make_reduction("count", len, _infer_i64, "np.int64(len({0}))", "sum")
_make_reduction("any", np.any, _infer_bool, "np.any({0})", "any")
_make_reduction("all", np.all, _infer_bool, "np.all({0})", "all")


# ---------------------------------------------------------------------------
# Compress / index / scan
# ---------------------------------------------------------------------------

def selection(mask: np.ndarray) -> np.ndarray:
    """The row ids (int64) where ``mask`` is true — the candidate list a
    column store filters through: every column compressed by one mask is
    then one gather through these ids, rather than a boolean index of its
    own."""
    return np.flatnonzero(mask)


def compress_mismatch(mask_len: int, data_len: int) -> BuiltinError:
    return BuiltinError(
        f"@compress length mismatch: mask {mask_len}, data {data_len}")


def _run_compress(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("compress", args, 2)
    mask = _as_vector("compress", args[0])
    data = _as_vector("compress", args[1])
    if mask.type != ht.BOOL:
        raise BuiltinError("@compress mask must be bool")
    if len(mask) != len(data):
        raise compress_mismatch(len(mask), len(data))
    return select(data, selection(mask.data))


_register(Builtin("compress", "compress", 2, _infer_second, _run_compress))


def _run_index(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("index", args, 2)
    data = _as_vector("index", args[0])
    idx = _as_vector("index", args[1])
    if not ht.is_integer(idx.type):
        raise BuiltinError("@index indices must be integers")
    return select(data, idx.data)


_register(Builtin("index", "opaque", 2, _infer_first, _run_index))


def _run_where(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("where", args, 1)
    mask = _as_vector("where", args[0])
    return Vector(ht.I64, selection(mask.data))


_register(Builtin("where", "opaque", 1, _infer_i64, _run_where))


def _run_cumsum(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("cumsum", args, 1)
    data = _as_vector("cumsum", args[0])
    out_type = _infer_sum([data.type])
    return Vector(out_type,
                  np.cumsum(data.data).astype(ht.numpy_dtype(out_type)))


_register(Builtin("cumsum", "scan", 1, _infer_sum, _run_cumsum))


# ---------------------------------------------------------------------------
# Vector constructors and reshaping
# ---------------------------------------------------------------------------

def _run_range(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("range", args, 1)
    n = _as_vector("range", args[0]).item()
    return Vector(ht.I64, np.arange(int(n), dtype=np.int64))


_register(Builtin("range", "opaque", 1, _infer_i64, _run_range))


def _run_fill(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("fill", args, 2)
    n = int(_as_vector("fill", args[0]).item())
    value = _as_vector("fill", args[1])
    return Vector(value.type,
                  np.full(n, value.data[0], dtype=value.data.dtype))


_register(Builtin("fill", "opaque", 2, _infer_second, _run_fill))


def _run_concat(args: list[Value], _: EvalContext) -> Value:
    if not args:
        raise BuiltinError("@concat expects at least one argument")
    vectors = [_as_vector("concat", a) for a in args]
    out_type = vectors[0].type
    for v in vectors[1:]:
        out_type = ht.unify(out_type, v.type)
    dtype = ht.numpy_dtype(out_type)
    return Vector(out_type, np.concatenate(
        [v.data.astype(dtype, copy=False) for v in vectors]))


_register(Builtin("concat", "opaque", None, _infer_first, _run_concat))


def _run_len(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("len", args, 1)
    value = args[0]
    if isinstance(value, Vector):
        return scalar(len(value), ht.I64)
    if isinstance(value, ListValue):
        return scalar(len(value), ht.I64)
    if isinstance(value, TableValue):
        return scalar(value.num_rows, ht.I64)
    raise BuiltinError(f"@len of {type(value).__name__}")


_register(Builtin("len", "opaque", 1, _infer_i64, _run_len))


def _run_reverse(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("reverse", args, 1)
    data = _as_vector("reverse", args[0])
    return select(data, slice(None, None, -1))


_register(Builtin("reverse", "opaque", 1, _infer_first, _run_reverse))


def _run_unique(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("unique", args, 1)
    data = _as_vector("unique", args[0])
    values = data.encoding()[0] if data.type is ht.STR else data.data
    _, first = np.unique(values, return_index=True)
    return select(data, np.sort(first))


_register(Builtin("unique", "opaque", 1, _infer_first, _run_unique))


# ---------------------------------------------------------------------------
# Database builtins: tables, grouping, joins, ordering
# ---------------------------------------------------------------------------

def _run_load_table(args: list[Value], ctx: EvalContext) -> Value:
    _expect_arity("load_table", args, 1)
    name = _as_vector("load_table", args[0]).item()
    try:
        return ctx.tables[name]
    except KeyError:
        raise BuiltinError(f"@load_table: unknown table {name!r}") from None


_register(Builtin("load_table", "source", 1, _infer_table, _run_load_table))


def _run_column_value(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("column_value", args, 2)
    table = args[0]
    if not isinstance(table, TableValue):
        raise BuiltinError("@column_value expects a table")
    name = _as_vector("column_value", args[1]).item()
    return table.column(name)


_register(Builtin("column_value", "opaque", 2, _infer_wild,
                  _run_column_value))


def _run_table(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("table", args, 2)
    names = _as_vector("table", args[0])
    columns = args[1]
    if not isinstance(columns, ListValue):
        raise BuiltinError("@table expects a list of columns")
    if len(names) != len(columns):
        raise BuiltinError(
            f"@table: {len(names)} names for {len(columns)} columns")
    return TableValue([(str(name), _as_vector("table", col))
                       for name, col in zip(names.data, columns)])


_register(Builtin("table", "opaque", 2, _infer_table, _run_table))


def _run_list(args: list[Value], _: EvalContext) -> Value:
    return ListValue(list(args))


_register(Builtin("list", "opaque", None, _infer_list, _run_list))


def _run_list_item(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("list_item", args, 2)
    lst = args[0]
    if not isinstance(lst, ListValue):
        raise BuiltinError("@list_item expects a list")
    index = int(_as_vector("list_item", args[1]).item())
    try:
        return lst[index]
    except IndexError:
        raise BuiltinError(
            f"@list_item index {index} out of range "
            f"for list of {len(lst)}") from None


_register(Builtin("list_item", "opaque", 2, _infer_wild, _run_list_item))


def _factorize(data: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes for one numeric column, in value order."""
    _, inverse = np.unique(data, return_inverse=True)
    cardinality = int(inverse.max()) + 1 if len(inverse) else 0
    return inverse.astype(np.int64, copy=False), cardinality


def _key_codes(key: Vector) -> tuple[np.ndarray, int]:
    """Codes in ``[0, cardinality)`` for a key column: a string
    column's dictionary codes as they are, a numeric column
    factorized."""
    if key.type is ht.STR:
        codes, dictionary = key.encoding()
        return codes, len(dictionary)
    return _factorize(key.data)


def _composite(columns: list[tuple[np.ndarray, int]]
               ) -> tuple[np.ndarray, int]:
    """Fold per-column dense codes into one dense int64 key."""
    combined, cardinality = columns[0]
    combined = combined.astype(np.int64, copy=False)
    for codes, width in columns[1:]:
        combined = combined * max(width, 1) + codes
        cardinality *= max(width, 1)
        if cardinality > 2 * len(combined):
            # Keep the key space no larger than the rows: refactorize
            # (which also rules out int64 overflow).
            combined, cardinality = _factorize(combined)
    return combined, cardinality


def _group_codes(keys: list[Vector]) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one or more key columns.

    Returns ``(codes, first_index)`` where ``codes[i]`` is the dense group
    id of row ``i`` (group ids ordered by first appearance) and
    ``first_index[g]`` is the row index where group ``g`` first appears.
    """
    n = len(keys[0])
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    combined, cardinality = _composite([_key_codes(key) for key in keys])
    first = np.full(cardinality, n, dtype=np.int64)
    np.minimum.at(first, combined, np.arange(n, dtype=np.int64))
    present = np.flatnonzero(first < n)
    # Re-number the present keys by first appearance.
    order = present[np.argsort(first[present], kind="stable")]
    remap = np.empty(cardinality, dtype=np.int64)
    remap[order] = np.arange(len(order), dtype=np.int64)
    return remap[combined], first[order]


def _group_keys(args: list[Value]) -> list[Vector]:
    keys: list[Vector] = []
    for arg in args:
        if isinstance(arg, ListValue):
            keys.extend(_as_vector("group", item) for item in arg)
        else:
            keys.append(_as_vector("group", arg))
    if not keys:
        raise BuiltinError("@group expects at least one key column")
    return keys


def _run_group(args: list[Value], _: EvalContext) -> Value:
    """``@group(keys...) -> list(first_index, codes)``.

    ``first_index`` selects one representative row per distinct key (in
    first-appearance order); ``codes`` assigns each row its group id.
    """
    keys = _group_keys(args)
    codes, first = _group_codes(keys)
    return ListValue([Vector(ht.I64, first), Vector(ht.I64, codes)])


_register(Builtin("group", "opaque", None,
                  lambda _: ht.list_of(ht.I64), _run_group))


def _segmented(name: str, impl):
    """``@name(values, gid, ng)``: one result row per group id in
    ``[0, ng)``.

    Bad arguments are refused here, cheaply: the lengths compare in
    O(1), ``impl`` raises ``ValueError`` on an id it cannot place (what
    ``np.bincount`` does for a negative one), and an id ``>= ng`` shows
    as a result longer than ``ng`` rows (``np.bincount`` grows to fit)."""
    def run(args: list[Value], _: EvalContext) -> Value:
        _expect_arity(name, args, 3)
        values = _as_vector(name, args[0])
        codes = _as_vector(name, args[1]).data
        ngroups = int(_as_vector(name, args[2]).item())
        if len(values) != len(codes):
            raise BuiltinError(f"@{name}: {len(values)} values for "
                               f"{len(codes)} group ids")
        bad_ids = f"@{name}: group ids outside [0, {ngroups})"
        try:
            result = impl(values, codes, ngroups)
        except ValueError as exc:
            raise BuiltinError(bad_ids) from exc
        if len(result) != ngroups:
            raise BuiltinError(bad_ids)
        return result
    return run


def _group_sum_impl(values: Vector, codes: np.ndarray,
                    ngroups: int) -> Vector:
    out_type = _infer_sum([values.type])
    if ht.is_float(out_type):
        # bincount sums float64 weights: an f64 column is read in place.
        result = np.bincount(codes, weights=values.data, minlength=ngroups)
        return Vector(out_type, result)
    # An integer sum is exact: it accumulates in int64, where float64
    # weights would round past 2**53.
    if codes.size and (codes.min() < 0 or codes.max() >= ngroups):
        raise ValueError("group id out of range")
    result = np.zeros(ngroups, dtype=np.int64)
    np.add.at(result, codes, values.data.astype(np.int64, copy=False))
    return Vector(out_type, result)


def _group_count_impl(values: Vector, codes: np.ndarray,
                      ngroups: int) -> Vector:
    return Vector(ht.I64, np.bincount(codes, minlength=ngroups))


def _group_extreme(ufunc):
    def impl(values: Vector, codes: np.ndarray, ngroups: int) -> Vector:
        # ufunc.at wraps a negative id and indexes past ngroups.
        if codes.size and (codes.min() < 0 or codes.max() >= ngroups):
            raise ValueError("group id out of range")
        if values.type is ht.STR:
            # Sorted dictionary: the extreme string has the extreme code.
            data = values.encoding()[0]
        else:
            data = values.data
        if data.dtype == object:
            raise BuiltinError("group min/max of symbol columns "
                               "unsupported")
        init = _dtype_extreme(data.dtype, high=(ufunc is np.minimum))
        out = np.full(ngroups, init, dtype=data.dtype)
        ufunc.at(out, codes, data)
        if values.type is ht.STR:
            return values.with_codes(out)
        return Vector(values.type, out)
    return impl


def _dtype_extreme(dtype: np.dtype, *, high: bool):
    if dtype.kind == "f":
        return np.inf if high else -np.inf
    if dtype.kind == "M":
        return (np.datetime64("9999-12-31") if high
                else np.datetime64("0001-01-01"))
    info = np.iinfo(dtype)
    return info.max if high else info.min


_register(Builtin("group_sum", "opaque", 3, _infer_sum,
                  _segmented("group_sum", _group_sum_impl)))
_register(Builtin("group_count", "opaque", 3, _infer_i64,
                  _segmented("group_count", _group_count_impl)))
_register(Builtin("group_min", "opaque", 3, _infer_first,
                  _segmented("group_min", _group_extreme(np.minimum))))
_register(Builtin("group_max", "opaque", 3, _infer_first,
                  _segmented("group_max", _group_extreme(np.maximum))))


def _join_keys(value: Value) -> list[Vector]:
    if isinstance(value, ListValue):
        return [_as_vector("join_index", item) for item in value]
    return [_as_vector("join_index", value)]


def _run_join_index(args: list[Value], _: EvalContext) -> Value:
    """``@join_index(left_keys, right_keys, kind) -> list(lidx, ridx)``.

    ``kind`` is a symbol: ``inner`` or ``left``.  Every key pair folds
    into one integer key per row (string keys as codes over a reconciled
    dictionary); pairs come out by left index ascending, a left row's
    matches in right-input order.  Left-outer probes that miss emit a
    right index of ``-1`` (callers pad with null surrogates).
    """
    _expect_arity("join_index", args, 3)
    left = _join_keys(args[0])
    right = _join_keys(args[1])
    kind = _as_vector("join_index", args[2]).item()
    if kind not in ("inner", "left"):
        raise BuiltinError(f"@join_index: unsupported kind {kind!r}")
    if len(left) != len(right):
        raise BuiltinError("@join_index: key column count mismatch")
    lkeys, rkeys = _join_key_codes(left, right)
    lidx, ridx = _join_single_numeric(lkeys, rkeys, kind)
    return ListValue([Vector(ht.I64, lidx), Vector(ht.I64, ridx)])


def _join_key_codes(left: list[Vector], right: list[Vector]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One integer (or single numeric) key per row on each side."""
    if len(left) == 1 and left[0].type is not ht.STR \
            and right[0].type is not ht.STR:
        return left[0].data, right[0].data
    nleft = len(left[0])
    columns = []
    for lkey, rkey in zip(left, right):
        if (lkey.type is ht.STR) != (rkey.type is ht.STR):
            raise BuiltinError(
                f"@join_index: cannot join {lkey.type} with {rkey.type}")
        if lkey.type is ht.STR:
            (lcodes, rcodes), dictionary = strings.reconcile(
                lkey.encoding(), rkey.encoding())
            codes, width = np.concatenate([lcodes, rcodes]), len(dictionary)
        else:
            codes, width = _factorize(
                np.concatenate([lkey.data, rkey.data]))
        columns.append((codes, width))
    combined, _ = _composite(columns)
    return combined[:nleft], combined[nleft:]


#: A side's integer keys are looked up directly when they are unique
#: and span at most this many slots per row: a table of ``span`` row ids
#: is then no larger than a few copies of the keys themselves.
_DIRECT_SPAN_PER_ROW = 4


def _join_single_numeric(left: np.ndarray, right: np.ndarray,
                         kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The join pairs of one numeric key per row: a direct-address
    lookup when one side's keys are unique and dense (a key to foreign
    key join), else :func:`_join_sorted`.  Both give the same pairs in
    the same order."""
    if left.dtype.kind == right.dtype.kind == "i":
        table = _direct_table(right)
        if table is not None:
            return _probe_unique_right(left, right, table, kind)
        table = _direct_table(left) if kind == "inner" else None
        if table is not None:
            return _probe_unique_left(left, right, table)
    return _join_sorted(left, right, kind)


def _direct_table(keys: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(table, base)`` with ``table[k - base]`` the row holding key
    ``k`` (``-1`` for a key no row holds), when the integer ``keys`` are
    unique over at most ``_DIRECT_SPAN_PER_ROW`` slots per row; else
    None."""
    n = len(keys)
    if n == 0:
        return None
    lo, hi = int(keys.min()), int(keys.max())
    # Fewer slots than rows means a repeated key; more than the bound, a
    # sparse range.
    if not n <= hi - lo + 1 <= _DIRECT_SPAN_PER_ROW * n:
        return None
    # Keys that start near 0 (TPC-H's start at 1) index the table as
    # they are, which spares a subtraction on both sides.
    base = 0 if 0 <= lo and hi < _DIRECT_SPAN_PER_ROW * n else lo
    table = np.full(hi - base + 1, -1, dtype=np.int64)
    table[keys - base if base else keys] = np.arange(n, dtype=np.int64)
    # A repeated key keeps one of its rows: fewer slots than rows fill.
    if np.count_nonzero(table >= 0) != n:
        return None
    return table, base


def _lookup(probe: np.ndarray, keys: np.ndarray,
            table: tuple[np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, hit)``: for each probe key, the row of ``keys`` holding
    it (meaningful where ``hit``).  ``mode="clip"`` sends a probe
    outside the table to an end slot, where the key check rejects it,
    as it does any wrap-around in ``probe - base``."""
    slots, base = table
    # Widened first: an int64 base need not fit a narrower probe's dtype.
    positions = probe.astype(np.int64, copy=False) - base if base \
        else probe
    rows = slots.take(positions, mode="clip")
    hit = (rows >= 0) & (keys.take(rows) == probe)
    return rows, hit


def _probe_unique_right(left: np.ndarray, right: np.ndarray,
                        table: tuple[np.ndarray, int], kind: str
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One gather per left row: pairs are in left-row order as they
    come, and a left-outer miss gets ``-1``."""
    rows, hit = _lookup(left, right, table)
    if kind == "left":
        return (np.arange(len(left), dtype=np.int64),
                np.where(hit, rows, -1))
    lidx = np.flatnonzero(hit)
    return lidx, rows[lidx]


def _probe_unique_left(left: np.ndarray, right: np.ndarray,
                       table: tuple[np.ndarray, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Probe the right keys, then order the matched pairs by left row,
    a left row's matches staying in right-input order (inner joins:
    a left-outer miss needs every left row, not just the matched)."""
    rows, hit = _lookup(right, left, table)
    ridx = np.flatnonzero(hit)
    lidx = rows[ridx]
    order = np.argsort(lidx, kind="stable")
    return lidx[order], ridx[order]


def _join_sorted(left: np.ndarray, right: np.ndarray,
                 kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The general join: a stable sort of the right keys, each left key
    located by binary search."""
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    lo = np.searchsorted(sorted_right, left, side="left")
    hi = np.searchsorted(sorted_right, left, side="right")
    counts = hi - lo
    lidx = np.repeat(np.arange(len(left), dtype=np.int64), counts)
    offsets = np.repeat(hi - np.cumsum(counts), counts)
    ridx = order[np.arange(len(lidx), dtype=np.int64) + offsets]
    if kind == "left":
        misses = np.flatnonzero(counts == 0)
        if len(misses):
            lidx = np.concatenate([lidx, misses])
            ridx = np.concatenate(
                [ridx, np.full(len(misses), -1, dtype=np.int64)])
            resort = np.argsort(lidx, kind="stable")
            lidx, ridx = lidx[resort], ridx[resort]
    return (lidx.astype(np.int64, copy=False),
            ridx.astype(np.int64, copy=False))


_register(Builtin("join_index", "opaque", 3,
                  lambda _: ht.list_of(ht.I64), _run_join_index))


def _run_order(args: list[Value], _: EvalContext) -> Value:
    """``@order(keys, ascending) -> i64`` sort permutation (stable).

    ``keys`` is a vector or a list of vectors (major key first);
    ``ascending`` is a bool vector with one flag per key.
    """
    _expect_arity("order", args, 2)
    keys = _join_keys(args[0])
    ascending = _as_vector("order", args[1]).data
    if len(ascending) != len(keys):
        raise BuiltinError("@order: one ascending flag per key required")
    columns = []
    # np.lexsort sorts by the *last* key first, so feed minor-to-major.
    for key, asc in zip(reversed(keys), reversed(ascending.tolist())):
        if key.type is ht.STR:
            # Sorted dictionary: code order is string order.
            codes = key.encoding()[0]
            columns.append(codes if asc else -codes)
            continue
        data = key.data
        if data.dtype.kind == "M":
            as_int = data.astype(np.int64)
            columns.append(as_int if asc else -as_int)
        else:
            columns.append(data if asc else -data.astype(np.float64))
    return Vector(ht.I64, np.lexsort(columns).astype(np.int64))


_register(Builtin("order", "opaque", 2, _infer_i64, _run_order))


def _run_take(args: list[Value], _: EvalContext) -> Value:
    _expect_arity("take", args, 2)
    data = _as_vector("take", args[0])
    n = int(_as_vector("take", args[1]).item())
    return select(data, slice(None, n))


_register(Builtin("take", "opaque", 2, _infer_first, _run_take))


# ---------------------------------------------------------------------------
# String lowering (emitted by repro.core.codegen.lower after optimization;
# never written by a frontend)
# ---------------------------------------------------------------------------

def _string_arg(name: str, value: Value) -> Vector:
    vec = _as_vector(name, value)
    if vec.type is not ht.STR:
        raise BuiltinError(f"@{name} expects a str vector, got {vec.type}")
    return vec


def _run_str_codes(args: list[Value], _: EvalContext) -> Value:
    """``@str_codes(x)`` — the int32 codes of string vector ``x``."""
    _expect_arity("str_codes", args, 1)
    return Vector(ht.I32, _string_arg("str_codes", args[0]).encoding()[0])


def _run_str_dict(args: list[Value], _: EvalContext) -> Value:
    """``@str_dict(x)`` — ``x``'s dictionary as a string vector, one row
    per entry: what a predicate runs over once per entry."""
    _expect_arity("str_dict", args, 1)
    dictionary = _string_arg("str_dict", args[0]).encoding()[1]
    return Vector.from_codes(
        np.arange(len(dictionary), dtype=strings.CODE_DTYPE), dictionary)


def _run_str_find(args: list[Value], _: EvalContext) -> Value:
    """``@str_find(x, s)`` — the code of string ``s`` in ``x``'s
    dictionary, or -1 when no row of ``x`` holds it (so ``@eq`` on codes
    is false everywhere and ``@neq`` true)."""
    _expect_arity("str_find", args, 2)
    dictionary = _string_arg("str_find", args[0]).encoding()[1]
    target = _as_vector("str_find", args[1]).item()
    try:
        code = int(np.searchsorted(dictionary, target))
    except TypeError:  # not a string: equal to no entry
        code = len(dictionary)
    if code == len(dictionary) or dictionary[code] != target:
        code = -1
    return scalar(code, ht.I32)


def _run_str_decode(args: list[Value], _: EvalContext) -> Value:
    """``@str_decode(codes, x)`` — the string vector ``codes`` spell in
    ``x``'s dictionary (codes computed from ``x``'s, e.g. compressed
    inside a fused kernel)."""
    _expect_arity("str_decode", args, 2)
    codes = _as_vector("str_decode", args[0])
    return _string_arg("str_decode", args[1]).with_codes(codes.data)


_register(Builtin("str_codes", "opaque", 1, lambda _: ht.I32,
                  _run_str_codes))
_register(Builtin("str_dict", "opaque", 1, lambda _: ht.STR,
                  _run_str_dict))
_register(Builtin("str_find", "opaque", 2, lambda _: ht.I32,
                  _run_str_find))
_register(Builtin("str_decode", "opaque", 2, lambda _: ht.STR,
                  _run_str_decode))


# ---------------------------------------------------------------------------
# Slicing (emitted by the MATLAB frontend)
# ---------------------------------------------------------------------------

def _run_subseq(args: list[Value], _: EvalContext) -> Value:
    """``@subseq(x, a, b)`` — the 1-based inclusive slice ``x(a:b)``.

    The pattern-lowered form of indexing with a unit-step range: returns a
    zero-copy view, the way compiled code would fold ``A(a:b)`` into
    pointer arithmetic instead of a gather.
    """
    _expect_arity("subseq", args, 3)
    data = _as_vector("subseq", args[0])
    start = int(round(float(_as_vector("subseq", args[1]).item())))
    stop = int(round(float(_as_vector("subseq", args[2]).item())))
    if start < 1 or stop > len(data):
        raise BuiltinError(
            f"@subseq bounds {start}:{stop} out of range for "
            f"length {len(data)}")
    return select(data, slice(start - 1, stop))


_register(Builtin("subseq", "opaque", 3, _infer_first, _run_subseq))


# ---------------------------------------------------------------------------
# Static signatures (consumed by repro.core.analysis.typeshape)
# ---------------------------------------------------------------------------

class BuiltinSig(NamedTuple):
    """Static contract of one builtin, for the type/shape checker.

    ``args`` lists one *constraint kind* per argument position (see
    :data:`CONSTRAINT_KINDS`); with ``variadic=True`` the last entry
    repeats for every extra argument.  ``shape`` names the result-shape
    rule the inference engine applies (``"elementwise"`` broadcasts the
    argument lengths, ``"reduction"`` yields a scalar, ``"same:N"``
    copies argument *N*'s shape, and so on — the full rule inventory
    lives in :mod:`repro.core.analysis.typeshape`)."""

    args: tuple
    shape: str
    variadic: bool = False


#: Constraint vocabulary.  ``any`` admits every type; the rest restrict
#: the *element* type of a vector argument (wildcards always pass —
#: they re-check at runtime, exactly as before this table existed).
CONSTRAINT_KINDS = ("any", "numeric", "numeric_or_date", "bool",
                    "integer", "comparable", "strlike", "date",
                    "table", "list", "sym", "vector")

_EW2 = ("numeric", "numeric")
_CMP2 = ("comparable", "comparable")

SIGNATURES: dict[str, BuiltinSig] = {
    # arithmetic
    "add": BuiltinSig(("numeric_or_date", "numeric_or_date"),
                      "elementwise"),
    "sub": BuiltinSig(("numeric_or_date", "numeric_or_date"),
                      "elementwise"),
    "mul": BuiltinSig(_EW2, "elementwise"),
    "div": BuiltinSig(_EW2, "elementwise"),
    "mod": BuiltinSig(_EW2, "elementwise"),
    "power": BuiltinSig(_EW2, "elementwise"),
    "neg": BuiltinSig(("numeric",), "elementwise"),
    "abs": BuiltinSig(("numeric",), "elementwise"),
    "exp": BuiltinSig(("numeric",), "elementwise"),
    "log": BuiltinSig(("numeric",), "elementwise"),
    "sqrt": BuiltinSig(("numeric",), "elementwise"),
    "floor": BuiltinSig(("numeric",), "elementwise"),
    "ceil": BuiltinSig(("numeric",), "elementwise"),
    "round": BuiltinSig(("numeric",), "elementwise"),
    "sign": BuiltinSig(("numeric",), "elementwise"),
    # comparisons (same comparability group on both sides)
    "lt": BuiltinSig(_CMP2, "elementwise"),
    "gt": BuiltinSig(_CMP2, "elementwise"),
    "leq": BuiltinSig(_CMP2, "elementwise"),
    "geq": BuiltinSig(_CMP2, "elementwise"),
    "eq": BuiltinSig(("any", "any"), "elementwise"),
    "neq": BuiltinSig(("any", "any"), "elementwise"),
    # logical
    "and": BuiltinSig(("numeric", "numeric"), "elementwise"),
    "or": BuiltinSig(("numeric", "numeric"), "elementwise"),
    "not": BuiltinSig(("numeric",), "elementwise"),
    "min2": BuiltinSig(("numeric_or_date", "numeric_or_date"),
                       "elementwise"),
    "max2": BuiltinSig(("numeric_or_date", "numeric_or_date"),
                       "elementwise"),
    "if_else": BuiltinSig(("numeric", "any", "any"), "elementwise"),
    # dates
    "date_year": BuiltinSig(("date",), "elementwise"),
    "date_month": BuiltinSig(("date",), "elementwise"),
    "date_day": BuiltinSig(("date",), "elementwise"),
    "date_to_i64": BuiltinSig(("date",), "elementwise"),
    # strings
    "like": BuiltinSig(("strlike", "strlike"), "elementwise"),
    "startswith": BuiltinSig(("strlike", "strlike"), "elementwise"),
    "member": BuiltinSig(("vector", "vector"), "elementwise"),
    # reductions
    "sum": BuiltinSig(("numeric",), "reduction"),
    "prod": BuiltinSig(("numeric",), "reduction"),
    "avg": BuiltinSig(("numeric",), "reduction"),
    "min": BuiltinSig(("comparable",), "reduction"),
    "max": BuiltinSig(("comparable",), "reduction"),
    "count": BuiltinSig(("any",), "reduction"),
    "any": BuiltinSig(("numeric",), "reduction"),
    "all": BuiltinSig(("numeric",), "reduction"),
    # selection / scan
    "compress": BuiltinSig(("bool", "vector"), "compress"),
    "index": BuiltinSig(("vector", "integer"), "index"),
    "where": BuiltinSig(("numeric",), "where"),
    "cumsum": BuiltinSig(("numeric",), "same:0"),
    # constructors / reshaping
    "range": BuiltinSig(("numeric",), "range"),
    "fill": BuiltinSig(("numeric", "any"), "fill"),
    "concat": BuiltinSig(("vector",), "vector", variadic=True),
    "len": BuiltinSig(("any",), "scalar"),
    "reverse": BuiltinSig(("vector",), "same:0"),
    "unique": BuiltinSig(("vector",), "vector"),
    "take": BuiltinSig(("vector", "numeric"), "vector"),
    "subseq": BuiltinSig(("vector", "numeric", "numeric"), "vector"),
    # database
    "load_table": BuiltinSig(("sym",), "table"),
    "column_value": BuiltinSig(("table", "sym"), "column"),
    "table": BuiltinSig(("vector", "list"), "table"),
    "list": BuiltinSig(("any",), "list", variadic=True),
    "list_item": BuiltinSig(("list", "numeric"), "list_item"),
    "group": BuiltinSig(("any",), "list", variadic=True),
    "group_sum": BuiltinSig(("numeric", "integer", "integer"),
                            "group_agg"),
    "group_count": BuiltinSig(("vector", "integer", "integer"),
                              "group_agg"),
    "group_min": BuiltinSig(("vector", "integer", "integer"),
                            "group_agg"),
    "group_max": BuiltinSig(("vector", "integer", "integer"),
                            "group_agg"),
    "join_index": BuiltinSig(("any", "any", "sym"), "join"),
    "order": BuiltinSig(("any", "bool"), "vector"),
    # string lowering (repro.core.codegen.lower)
    "str_codes": BuiltinSig(("strlike",), "same:0"),
    "str_dict": BuiltinSig(("strlike",), "vector"),
    "str_find": BuiltinSig(("strlike", "strlike"), "scalar"),
    "str_decode": BuiltinSig(("integer", "strlike"), "same:0"),
    "gather": BuiltinSig(("any", "integer"), "elementwise"),
}


def signature(name: str) -> BuiltinSig | None:
    """Static signature for ``@name``; ``None`` for builtins the
    checker treats as fully dynamic."""
    return SIGNATURES.get(name)
