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

* ``constraints`` — one constraint kind per argument (its arity), and
  ``shape`` — the result-shape rule; both read by the type/shape checker
  (:mod:`repro.core.analysis.typeshape`);
* ``infer`` — result-type inference from argument types;
* ``run`` — vectorized NumPy evaluation (used by the reference interpreter,
  i.e. HorsePower-Naive, and by opaque statements in compiled code);
* ``template`` — for fusable built-ins, a Python/NumPy source template used
  by the code generator, e.g. ``"({0} >= {1})"`` for ``@geq``;
* ``combine`` — for reductions, how chunk partials merge in the chunked
  kernel executor: a key of :data:`COMBINES`.

Each built-in is one registration: nothing else restates its signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.core import ir
from repro.core import strings
from repro.core import types as ht
from repro.core.values import (ListValue, TableValue, Value, Vector, scalar,
                               value_nbytes)
from repro.errors import BuiltinError

__all__ = ["Builtin", "EvalContext", "BUILTINS", "get", "exists",
           "run_profiled", "charges_output", "COMBINES", "COMPARISONS",
           "select", "selection", "compress_mismatch", "NAT_DAY",
           "day_number", "compares_dates", "nat_guard"]

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


#: The shape rule each fusable kind implies; every other kind states one.
_KIND_SHAPES = frozenset({"elementwise", "reduction", "compress"})

#: The argument constraint vocabulary: kind -> what it accepts, as the
#: type checker words a violation.  A registration naming any other kind
#: is refused.
CONSTRAINT_KINDS = {
    "any": "any type",
    "numeric": "a numeric type",
    "numeric_or_date": "a numeric or date type",
    "bool": "bool",
    "integer": "an integer type",
    "comparable": "a comparable type",
    "strlike": "a string or symbol type",
    "date": "date",
    "table": "a table",
    "list": "a list",
    "sym": "a symbol",
    "vector": "a vector type",
}


@dataclass(frozen=True)
class Builtin:
    """One HorseIR built-in function: its static contract and its
    implementation.

    ``constraints`` lists one *constraint kind* per argument position
    (a :data:`CONSTRAINT_KINDS` key; wildcards always pass); with
    ``variadic=True`` the last entry repeats for every extra argument.
    ``arity`` follows from them, and ``run`` refuses any other argument
    count.  ``shape`` names the result-shape rule the inference engine
    applies (``"same:N"`` copies argument *N*'s shape, and so on — the
    rule inventory lives in :mod:`repro.core.analysis.typeshape`); an
    elementwise, reduction or compress builtin takes its kind's own
    rule."""

    name: str
    kind: str
    constraints: tuple
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
    shape: str | None = None
    variadic: bool = False
    arity: int | None = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.constraints, tuple) or not self.constraints:
            raise BuiltinError(
                f"@{self.name} states no argument constraints")
        for kind in self.constraints:
            if kind not in CONSTRAINT_KINDS:
                raise BuiltinError(
                    f"@{self.name} names unknown constraint kind {kind!r}")
        if self.shape is None:
            if self.kind not in _KIND_SHAPES:
                raise BuiltinError(f"@{self.name} states no shape rule")
            object.__setattr__(self, "shape", self.kind)
        arity = None if self.variadic else len(self.constraints)
        object.__setattr__(self, "arity", arity)
        if arity is not None:
            object.__setattr__(self, "run",
                               _checked(self.name, arity, self.run))

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


def _checked(name: str, arity: int, run):
    """``run``, refusing a call with other than ``arity`` arguments."""
    def checked(args: list[Value], ctx: EvalContext) -> Value:
        if len(args) != arity:
            raise BuiltinError(
                f"@{name} expects {arity} argument(s), got {len(args)}")
        return run(args, ctx)
    return checked


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

#: Argument constraints many builtins share.
_NUMERIC = ("numeric",)
_NUMERIC2 = ("numeric", "numeric")
_NUMERIC_OR_DATE2 = ("numeric_or_date", "numeric_or_date")
_COMPARABLE2 = ("comparable", "comparable")
_DATE = ("date",)
_STRLIKE2 = ("strlike", "strlike")


def _make_elementwise(name: str, constraints: tuple, fn, infer,
                      template: str | None,
                      broadcast_args: tuple = (),
                      ufunc: str | None = None,
                      c_template: str | None = None) -> None:
    def run(args: list[Value], _: EvalContext) -> Value:
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

    _register(Builtin(name, "elementwise", constraints, infer, run,
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


COMPARISONS = frozenset({"eq", "neq", "lt", "gt", "leq", "geq"})


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
    if len(rows) == 2 and name in COMPARISONS:
        codes, _ = strings.reconcile(*(vectors[p].encoding() for p in rows))
        return fn(*codes)
    return fn(*_operands(vectors, broadcast_args))


_make_elementwise("add", _NUMERIC_OR_DATE2, np.add, _infer_promote,
                  "({0} + {1})", ufunc="np.add", c_template='({0} + {1})')
_make_elementwise("sub", _NUMERIC_OR_DATE2, np.subtract, _infer_promote,
                  "({0} - {1})", ufunc="np.subtract", c_template='({0} - {1})')
_make_elementwise("mul", _NUMERIC2, np.multiply, _infer_promote,
                  "({0} * {1})", ufunc="np.multiply", c_template='({0} * {1})')
_make_elementwise("div", _NUMERIC2, np.true_divide, _infer_f64,
                  "({0} / {1})", ufunc="np.true_divide",
                  c_template='((double){0} / (double){1})')
_make_elementwise("mod", _NUMERIC2, np.mod, _infer_promote,
                  "np.mod({0}, {1})", ufunc="np.mod",
                  c_template='fmod((double){0}, (double){1})')
_make_elementwise("power", _NUMERIC2, np.power, _infer_f64,
                  "np.power({0}, {1})", ufunc="np.power",
                  c_template='pow((double){0}, (double){1})')
_make_elementwise("neg", _NUMERIC, np.negative, _infer_first,
                  "(-{0})", ufunc="np.negative", c_template='(-{0})')
_make_elementwise("abs", _NUMERIC, np.abs, _infer_first,
                  "np.abs({0})", ufunc="np.abs",
                  c_template='fabs((double){0})')
_make_elementwise("exp", _NUMERIC, np.exp, _infer_f64,
                  "np.exp({0})", ufunc="np.exp", c_template='exp((double){0})')
_make_elementwise("log", _NUMERIC, np.log, _infer_f64,
                  "np.log({0})", ufunc="np.log", c_template='log((double){0})')
_make_elementwise("sqrt", _NUMERIC, np.sqrt, _infer_f64,
                  "np.sqrt({0})", ufunc="np.sqrt",
                  c_template='sqrt((double){0})')
_make_elementwise("floor", _NUMERIC, np.floor, _infer_first,
                  "np.floor({0})", ufunc="np.floor",
                  c_template='floor((double){0})')
_make_elementwise("ceil", _NUMERIC, np.ceil, _infer_first,
                  "np.ceil({0})", ufunc="np.ceil",
                  c_template='ceil((double){0})')
_make_elementwise("round", _NUMERIC, np.round, _infer_first,
                  "np.round({0})")
_make_elementwise("sign", _NUMERIC, np.sign, _infer_first,
                  "np.sign({0})", ufunc="np.sign",
                  c_template='(({0} > 0) - ({0} < 0))')

_make_elementwise("lt", _COMPARABLE2, np.less, _infer_bool,
                  "({0} < {1})", ufunc="np.less",
                  c_template='({0} < {1})')
_make_elementwise("gt", _COMPARABLE2, np.greater, _infer_bool,
                  "({0} > {1})", ufunc="np.greater",
                  c_template='({0} > {1})')
_make_elementwise("leq", _COMPARABLE2, np.less_equal, _infer_bool,
                  "({0} <= {1})", ufunc="np.less_equal",
                  c_template='({0} <= {1})')
_make_elementwise("geq", _COMPARABLE2, np.greater_equal, _infer_bool,
                  "({0} >= {1})", ufunc="np.greater_equal",
                  c_template='({0} >= {1})')
_make_elementwise("eq", ("any", "any"), np.equal, _infer_bool,
                  "({0} == {1})", ufunc="np.equal",
                  c_template='({0} == {1})')
_make_elementwise("neq", ("any", "any"), np.not_equal, _infer_bool,
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
    return isinstance(expr, ir.BuiltinCall) and expr.name in COMPARISONS \
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


_make_elementwise("and", _NUMERIC2, np.logical_and, _infer_bool,
                  "np.logical_and({0}, {1})", ufunc="np.logical_and",
                  c_template='({0} && {1})')
_make_elementwise("or", _NUMERIC2, np.logical_or, _infer_bool,
                  "np.logical_or({0}, {1})", ufunc="np.logical_or",
                  c_template='({0} || {1})')
_make_elementwise("not", _NUMERIC, np.logical_not, _infer_bool,
                  "np.logical_not({0})", ufunc="np.logical_not",
                  c_template='(!{0})')
_make_elementwise("min2", _NUMERIC_OR_DATE2, np.minimum, _infer_promote,
                  "np.minimum({0}, {1})", ufunc="np.minimum",
                  # NaN-propagating, like np.minimum (a plain ternary
                  # would return the non-NaN operand).
                  c_template='(({0} != {0}) ? {0} : (({1} != {1}) ? {1} '
                             ': (({0} < {1}) ? {0} : {1})))')
_make_elementwise("max2", _NUMERIC_OR_DATE2, np.maximum, _infer_promote,
                  "np.maximum({0}, {1})", ufunc="np.maximum",
                  c_template='(({0} != {0}) ? {0} : (({1} != {1}) ? {1} '
                             ': (({0} > {1}) ? {0} : {1})))')
_make_elementwise("if_else", ("numeric", "any", "any"),
                  lambda m, a, b: np.where(m, a, b), _infer_second,
                  "np.where({0}, {1}, {2})", c_template='({0} ? {1} : {2})')


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


_make_elementwise("date_year", _DATE, _date_part("year"), _infer_i64,
                  "(({0}).astype('datetime64[Y]').astype(np.int64) + 1970)")
_make_elementwise("date_month", _DATE, _date_part("month"), _infer_i64, None)
_make_elementwise("date_day", _DATE, _date_part("day"), _infer_i64, None)


def _date_to_i64(a):
    # A datetime64[D] value is its int64 day count (NaT the int64
    # minimum): a view, not a copy.
    return np.asarray(a).astype("datetime64[D]", copy=False).view(np.int64)


_make_elementwise("date_to_i64", _DATE, _date_to_i64, _infer_i64,
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


_make_elementwise("like", _STRLIKE2, _np_like, _infer_bool, None,
                  broadcast_args=(1,))


def _np_startswith(values: np.ndarray, prefixes) -> np.ndarray:
    prefix = _scalar_operand(prefixes)
    if prefix is None:
        raise BuiltinError("@startswith expects a scalar prefix")
    return np.array([v.startswith(prefix) for v in values],
                    dtype=np.bool_)


_make_elementwise("startswith", _STRLIKE2, _np_startswith, _infer_bool, None,
                  broadcast_args=(1,))


_make_elementwise("member", ("vector", "vector"), np.isin, _infer_bool,
                  "np.isin({0}, {1})", broadcast_args=(1,))


def _gather(table: np.ndarray, codes) -> np.ndarray:
    return table[codes]


#: ``@gather(table, codes)`` is ``table[codes]``: the row-level half of a
#: string predicate lowered to codes, fusable like any elementwise op
#: (the table is a whole value, looked up once per row).
_make_elementwise("gather", ("any", "integer"), _gather, _infer_first,
                  "({0})[{1}]", broadcast_args=(0,), c_template="{0}[{1}]")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

class Combine(NamedTuple):
    """How a reduction folds: ``identity`` is the value of an empty
    input (None: an empty input raises), and ``merge`` folds per-chunk
    partials already cast to the result dtype, keeping that dtype."""

    identity: object
    merge: Callable[[np.ndarray], object]


#: Every reduction combine: the builtins' empty case, and the compiled
#: executor's empty inputs and chunk merges, read this one table.
COMBINES: dict[str, Combine] = {
    "sum": Combine(0, lambda parts: np.sum(parts, dtype=parts.dtype)),
    "prod": Combine(1, lambda parts: np.prod(parts, dtype=parts.dtype)),
    "min": Combine(None, np.min),
    "max": Combine(None, np.max),
    "any": Combine(False, np.any),
    "all": Combine(True, np.all),
}


def _make_reduction(name: str, constraint: str, fn, infer,
                    template: str | None = None,
                    combine: str | None = None, *,
                    identity=None) -> None:
    """Register reduction ``@name``; an empty input yields its
    combine's identity, else ``identity`` (None: it raises)."""
    if combine is not None:
        identity = COMBINES[combine].identity

    def run(args: list[Value], _: EvalContext) -> Value:
        vec = _as_vector(name, args[0])
        out_type = infer([vec.type])
        if len(vec) == 0:
            if identity is None:
                raise BuiltinError(f"@{name} of an empty vector")
            value = identity
        elif vec.type is ht.STR and name in ("min", "max"):
            # Sorted dictionary: the extreme string has the extreme code.
            codes = vec.encoding()[0]
            return vec.with_codes(np.atleast_1d(fn(codes)))
        else:
            value = fn(vec.data)
        result = np.empty(1, dtype=ht.numpy_dtype(out_type))
        result[0] = value
        return Vector(out_type, result)

    _register(Builtin(name, "reduction", (constraint,), infer, run,
                      template=template, combine=combine))


_make_reduction("sum", "numeric", np.sum, _infer_sum, "np.sum({0})", "sum")
_make_reduction("prod", "numeric", np.prod, _infer_sum, "np.prod({0})",
                "prod")
# No kernel form: a fused avg needs a two-part accumulator, so the
# optimizer's avg-split rewrites it to sum/count instead.
_make_reduction("avg", "numeric", np.mean, _infer_f64,
                identity=float("nan"))
# min/max chunk partials use a guarded helper: a chunk whose compressed
# selection is empty yields a None partial (dropped by the combiner)
# instead of np.min's raw ValueError on a zero-size array.
_make_reduction("min", "comparable", np.min, _infer_first,
                "_chunk_min({0})", "min")
_make_reduction("max", "comparable", np.max, _infer_first,
                "_chunk_max({0})", "max")
_make_reduction("count", "any", len, _infer_i64, "np.int64(len({0}))",
                "sum")
_make_reduction("any", "numeric", np.any, _infer_bool, "np.any({0})",
                "any")
_make_reduction("all", "numeric", np.all, _infer_bool, "np.all({0})",
                "all")


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
    mask = _as_vector("compress", args[0])
    data = _as_vector("compress", args[1])
    if mask.type != ht.BOOL:
        raise BuiltinError("@compress mask must be bool")
    if len(mask) != len(data):
        raise compress_mismatch(len(mask), len(data))
    return select(data, selection(mask.data))


_register(Builtin("compress", "compress", ("bool", "vector"), _infer_second,
                  _run_compress))


def _run_index(args: list[Value], _: EvalContext) -> Value:
    data = _as_vector("index", args[0])
    idx = _as_vector("index", args[1])
    if not ht.is_integer(idx.type):
        raise BuiltinError("@index indices must be integers")
    return select(data, idx.data)


_register(Builtin("index", "opaque", ("vector", "integer"), _infer_first,
                  _run_index, shape="index"))


def _run_where(args: list[Value], _: EvalContext) -> Value:
    mask = _as_vector("where", args[0])
    return Vector(ht.I64, selection(mask.data))


_register(Builtin("where", "opaque", _NUMERIC, _infer_i64, _run_where,
                  shape="where"))


def _run_cumsum(args: list[Value], _: EvalContext) -> Value:
    data = _as_vector("cumsum", args[0])
    out_type = _infer_sum([data.type])
    return Vector(out_type,
                  np.cumsum(data.data).astype(ht.numpy_dtype(out_type)))


_register(Builtin("cumsum", "scan", _NUMERIC, _infer_sum, _run_cumsum,
                  shape="same:0"))


# ---------------------------------------------------------------------------
# Vector constructors and reshaping
# ---------------------------------------------------------------------------

def _run_range(args: list[Value], _: EvalContext) -> Value:
    n = _as_vector("range", args[0]).item()
    return Vector(ht.I64, np.arange(int(n), dtype=np.int64))


_register(Builtin("range", "opaque", _NUMERIC, _infer_i64, _run_range,
                  shape="range"))


def _run_fill(args: list[Value], _: EvalContext) -> Value:
    n = int(_as_vector("fill", args[0]).item())
    value = _as_vector("fill", args[1])
    return Vector(value.type,
                  np.full(n, value.data[0], dtype=value.data.dtype))


_register(Builtin("fill", "opaque", ("numeric", "any"), _infer_second,
                  _run_fill, shape="fill"))


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


_register(Builtin("concat", "opaque", ("vector",), _infer_first, _run_concat,
                  shape="vector", variadic=True))


def _run_len(args: list[Value], _: EvalContext) -> Value:
    value = args[0]
    if isinstance(value, Vector):
        return scalar(len(value), ht.I64)
    if isinstance(value, ListValue):
        return scalar(len(value), ht.I64)
    if isinstance(value, TableValue):
        return scalar(value.num_rows, ht.I64)
    raise BuiltinError(f"@len of {type(value).__name__}")


_register(Builtin("len", "opaque", ("any",), _infer_i64, _run_len,
                  shape="scalar"))


def _run_reverse(args: list[Value], _: EvalContext) -> Value:
    data = _as_vector("reverse", args[0])
    return select(data, slice(None, None, -1))


_register(Builtin("reverse", "opaque", ("vector",), _infer_first,
                  _run_reverse, shape="same:0"))


def _run_unique(args: list[Value], _: EvalContext) -> Value:
    data = _as_vector("unique", args[0])
    values = data.encoding()[0] if data.type is ht.STR else data.data
    _, first = np.unique(values, return_index=True)
    return select(data, np.sort(first))


_register(Builtin("unique", "opaque", ("vector",), _infer_first,
                  _run_unique, shape="vector"))


# ---------------------------------------------------------------------------
# Database builtins: tables, grouping, joins, ordering
# ---------------------------------------------------------------------------

def _run_load_table(args: list[Value], ctx: EvalContext) -> Value:
    name = _as_vector("load_table", args[0]).item()
    try:
        return ctx.tables[name]
    except KeyError:
        raise BuiltinError(f"@load_table: unknown table {name!r}") from None


_register(Builtin("load_table", "source", ("sym",), _infer_table,
                  _run_load_table, shape="table"))


def _run_column_value(args: list[Value], _: EvalContext) -> Value:
    table = args[0]
    if not isinstance(table, TableValue):
        raise BuiltinError("@column_value expects a table")
    name = _as_vector("column_value", args[1]).item()
    return table.column(name)


_register(Builtin("column_value", "opaque", ("table", "sym"), _infer_wild,
                  _run_column_value, shape="column"))


def _run_table(args: list[Value], _: EvalContext) -> Value:
    names = _as_vector("table", args[0])
    columns = args[1]
    if not isinstance(columns, ListValue):
        raise BuiltinError("@table expects a list of columns")
    if len(names) != len(columns):
        raise BuiltinError(
            f"@table: {len(names)} names for {len(columns)} columns")
    return TableValue([(str(name), _as_vector("table", col))
                       for name, col in zip(names.data, columns)])


_register(Builtin("table", "opaque", ("vector", "list"), _infer_table,
                  _run_table, shape="table"))


def _run_list(args: list[Value], _: EvalContext) -> Value:
    return ListValue(list(args))


_register(Builtin("list", "opaque", ("any",), _infer_list, _run_list,
                  shape="list", variadic=True))


def _run_list_item(args: list[Value], _: EvalContext) -> Value:
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


_register(Builtin("list_item", "opaque", ("list", "numeric"), _infer_wild,
                  _run_list_item, shape="list_item"))


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


_register(Builtin("group", "opaque", ("any",),
                  lambda _: ht.list_of(ht.I64), _run_group,
                  shape="list", variadic=True))


def _segmented(name: str, impl):
    """``@name(values, gid, ng)``: one result row per group id in
    ``[0, ng)``.

    Bad arguments are refused here, cheaply: the lengths compare in
    O(1), ``impl`` raises ``ValueError`` on an id it cannot place (what
    ``np.bincount`` does for a negative one), and an id ``>= ng`` shows
    as a result longer than ``ng`` rows (``np.bincount`` grows to fit)."""
    def run(args: list[Value], _: EvalContext) -> Value:
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


#: A grouped aggregate's last two arguments: group ids, group count.
_GROUP_IDS = ("integer", "integer")
_register(Builtin("group_sum", "opaque", ("numeric", *_GROUP_IDS), _infer_sum,
                  _segmented("group_sum", _group_sum_impl),
                  shape="group_agg"))
_register(Builtin("group_count", "opaque", ("vector", *_GROUP_IDS),
                  _infer_i64, _segmented("group_count", _group_count_impl),
                  shape="group_agg"))
_register(Builtin("group_min", "opaque", ("vector", *_GROUP_IDS),
                  _infer_first,
                  _segmented("group_min", _group_extreme(np.minimum)),
                  shape="group_agg"))
_register(Builtin("group_max", "opaque", ("vector", *_GROUP_IDS),
                  _infer_first,
                  _segmented("group_max", _group_extreme(np.maximum)),
                  shape="group_agg"))


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


_register(Builtin("join_index", "opaque", ("any", "any", "sym"),
                  lambda _: ht.list_of(ht.I64), _run_join_index,
                  shape="join"))


def _run_order(args: list[Value], _: EvalContext) -> Value:
    """``@order(keys, ascending) -> i64`` sort permutation (stable).

    ``keys`` is a vector or a list of vectors (major key first);
    ``ascending`` is a bool vector with one flag per key.
    """
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


_register(Builtin("order", "opaque", ("any", "bool"), _infer_i64, _run_order,
                  shape="vector"))


def _run_take(args: list[Value], _: EvalContext) -> Value:
    data = _as_vector("take", args[0])
    n = int(_as_vector("take", args[1]).item())
    return select(data, slice(None, n))


_register(Builtin("take", "opaque", ("vector", "numeric"), _infer_first,
                  _run_take, shape="vector"))


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
    return Vector(ht.I32, _string_arg("str_codes", args[0]).encoding()[0])


def _run_str_dict(args: list[Value], _: EvalContext) -> Value:
    """``@str_dict(x)`` — ``x``'s dictionary as a string vector, one row
    per entry: what a predicate runs over once per entry."""
    dictionary = _string_arg("str_dict", args[0]).encoding()[1]
    return Vector.from_codes(
        np.arange(len(dictionary), dtype=strings.CODE_DTYPE), dictionary)


def _run_str_find(args: list[Value], _: EvalContext) -> Value:
    """``@str_find(x, s)`` — the code of string ``s`` in ``x``'s
    dictionary, or -1 when no row of ``x`` holds it (so ``@eq`` on codes
    is false everywhere and ``@neq`` true)."""
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
    codes = _as_vector("str_decode", args[0])
    return _string_arg("str_decode", args[1]).with_codes(codes.data)


_register(Builtin("str_codes", "opaque", ("strlike",), lambda _: ht.I32,
                  _run_str_codes, shape="same:0"))
_register(Builtin("str_dict", "opaque", ("strlike",), lambda _: ht.STR,
                  _run_str_dict, shape="vector"))
_register(Builtin("str_find", "opaque", _STRLIKE2, lambda _: ht.I32,
                  _run_str_find, shape="scalar"))
_register(Builtin("str_decode", "opaque", ("integer", "strlike"),
                  lambda _: ht.STR, _run_str_decode, shape="same:0"))


# ---------------------------------------------------------------------------
# Slicing (emitted by the MATLAB frontend)
# ---------------------------------------------------------------------------

def _run_subseq(args: list[Value], _: EvalContext) -> Value:
    """``@subseq(x, a, b)`` — the 1-based inclusive slice ``x(a:b)``.

    The pattern-lowered form of indexing with a unit-step range: returns a
    zero-copy view, the way compiled code would fold ``A(a:b)`` into
    pointer arithmetic instead of a gather.
    """
    data = _as_vector("subseq", args[0])
    start = int(round(float(_as_vector("subseq", args[1]).item())))
    stop = int(round(float(_as_vector("subseq", args[2]).item())))
    if start < 1 or stop > len(data):
        raise BuiltinError(
            f"@subseq bounds {start}:{stop} out of range for "
            f"length {len(data)}")
    return select(data, slice(start - 1, stop))


_register(Builtin("subseq", "opaque", ("vector", "numeric", "numeric"),
                  _infer_first, _run_subseq, shape="vector"))
