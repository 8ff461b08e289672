"""The HorseIR type system.

HorseIR is an array-based IR: every value is a vector (a typed, ordered,
homogeneous collection), a list of values, a table (named columns), or a
dictionary-like pairing produced by grouping.  Scalars are represented as
vectors of length one, exactly as in the paper's examples (``0.05:f64``).

The concrete types supported here are the subset the paper exercises:

* ``bool`` — boolean vectors (predicates, compress masks)
* ``i8``/``i16``/``i32``/``i64`` — signed integers
* ``f32``/``f64`` — IEEE floats
* ``sym`` — interned symbols (```lineitem:sym``), used for names
* ``str`` — character strings (database VARCHAR/CHAR columns)
* ``date`` — calendar dates with day resolution
* ``list<T>`` — a list whose items are values of type ``T`` (or mixed when
  ``T`` is the wildcard)
* ``table`` — a collection of named, equal-length columns
* ``?`` — the wildcard/unknown type, used before inference completes

Types are interned: :func:`make_type` returns the same object for the same
spelling, so identity comparison is safe and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HorseTypeError

__all__ = [
    "HorseType",
    "BOOL", "I8", "I16", "I32", "I64", "F32", "F64",
    "SYM", "STR", "DATE", "TABLE", "WILDCARD",
    "list_of", "make_type", "parse_type",
    "is_numeric", "is_integer", "is_float", "is_comparable",
    "unify", "promote", "numpy_dtype", "type_of_dtype",
]


@dataclass(frozen=True)
class HorseType:
    """An interned HorseIR type.

    ``kind`` is the base spelling (``"f64"``, ``"list"``, ...).  For list
    types, ``element`` holds the element type; it is ``None`` otherwise.
    """

    kind: str
    element: "HorseType | None" = None

    def __str__(self) -> str:
        if self.kind == "list":
            return f"list<{self.element}>"
        if self.kind == "?":
            return "unknown"  # printable/parsable spelling of the wildcard
        return self.kind

    def __repr__(self) -> str:
        return f"HorseType({self})"

    @property
    def is_list(self) -> bool:
        return self.kind == "list"

    @property
    def is_table(self) -> bool:
        return self.kind == "table"

    @property
    def is_wildcard(self) -> bool:
        return self.kind == "?"


BOOL = HorseType("bool")
I8 = HorseType("i8")
I16 = HorseType("i16")
I32 = HorseType("i32")
I64 = HorseType("i64")
F32 = HorseType("f32")
F64 = HorseType("f64")
SYM = HorseType("sym")
STR = HorseType("str")
DATE = HorseType("date")
TABLE = HorseType("table")
WILDCARD = HorseType("?")

_SCALAR_TYPES = {
    t.kind: t
    for t in (BOOL, I8, I16, I32, I64, F32, F64, SYM, STR, DATE, TABLE,
              WILDCARD)
}

_LIST_CACHE: dict[HorseType, HorseType] = {}

_INTEGER_KINDS = ("i8", "i16", "i32", "i64")
_FLOAT_KINDS = ("f32", "f64")
_NUMERIC_ORDER = ("bool", "i8", "i16", "i32", "i64", "f32", "f64")


def list_of(element: HorseType) -> HorseType:
    """Return the interned ``list<element>`` type."""
    cached = _LIST_CACHE.get(element)
    if cached is None:
        cached = HorseType("list", element)
        _LIST_CACHE[element] = cached
    return cached


def make_type(kind: str, element: HorseType | None = None) -> HorseType:
    """Return the interned type for ``kind`` (and ``element`` for lists)."""
    if kind == "list":
        return list_of(element if element is not None else WILDCARD)
    try:
        return _SCALAR_TYPES[kind]
    except KeyError:
        raise HorseTypeError(f"unknown HorseIR type {kind!r}") from None


def parse_type(text: str) -> HorseType:
    """Parse a type spelling such as ``"f64"`` or ``"list<f64>"``."""
    text = text.strip()
    if text.startswith("list<") and text.endswith(">"):
        return list_of(parse_type(text[len("list<"):-1]))
    return make_type(text)


def is_integer(t: HorseType) -> bool:
    return t.kind in _INTEGER_KINDS


def is_float(t: HorseType) -> bool:
    return t.kind in _FLOAT_KINDS


def is_numeric(t: HorseType) -> bool:
    """True for types arithmetic operates on (bool promotes like 0/1)."""
    return t.kind in _NUMERIC_ORDER


def is_comparable(t: HorseType) -> bool:
    """True for types that support ordering comparisons."""
    return is_numeric(t) or t.kind in ("date", "str", "sym")


def promote(a: HorseType, b: HorseType) -> HorseType:
    """Numeric promotion: the wider of the two numeric types.

    Mirrors the paper's implicit widening (``i64 * f64 -> f64``).  Raises
    :class:`HorseTypeError` for non-numeric operands.
    """
    if not (is_numeric(a) and is_numeric(b)):
        raise HorseTypeError(f"cannot promote {a} and {b}")
    index = max(_NUMERIC_ORDER.index(a.kind), _NUMERIC_ORDER.index(b.kind))
    return _SCALAR_TYPES[_NUMERIC_ORDER[index]]


def unify(a: HorseType, b: HorseType) -> HorseType:
    """Unify two types, treating the wildcard as compatible with anything."""
    if a.is_wildcard:
        return b
    if b.is_wildcard:
        return a
    if a == b:
        return a
    if a.is_list and b.is_list:
        return list_of(unify(a.element, b.element))
    if is_numeric(a) and is_numeric(b):
        return promote(a, b)
    raise HorseTypeError(f"cannot unify {a} and {b}")


_NUMPY_DTYPES = {
    "bool": np.dtype(np.bool_),
    "i8": np.dtype(np.int8),
    "i16": np.dtype(np.int16),
    "i32": np.dtype(np.int32),
    "i64": np.dtype(np.int64),
    "f32": np.dtype(np.float32),
    "f64": np.dtype(np.float64),
    "date": np.dtype("datetime64[D]"),
    # Symbols are object arrays.  A string vector is physically int32
    # codes into a sorted dictionary (repro.core.strings); object is the
    # dtype of its decoded view, ``Vector.data`` — what result tables,
    # Python UDFs and the storage layer see.
    "sym": np.dtype(object),
    "str": np.dtype(object),
}


def numpy_dtype(t: HorseType) -> np.dtype:
    """The NumPy dtype backing vectors of HorseIR type ``t``."""
    try:
        return _NUMPY_DTYPES[t.kind]
    except KeyError:
        raise HorseTypeError(f"type {t} has no vector representation") from None


def type_of_dtype(dtype: np.dtype, *, symbolic: bool = False) -> HorseType:
    """Infer the HorseIR type of a NumPy dtype.

    ``symbolic`` selects ``sym`` over ``str`` for object arrays.
    """
    if dtype == np.bool_:
        return BOOL
    if dtype.kind == "i":
        return {1: I8, 2: I16, 4: I32, 8: I64}[dtype.itemsize]
    if dtype.kind == "f":
        return {4: F32, 8: F64}[dtype.itemsize]
    if dtype.kind == "M":
        return DATE
    if dtype.kind in ("O", "U", "S"):
        return SYM if symbolic else STR
    raise HorseTypeError(f"no HorseIR type for dtype {dtype}")
