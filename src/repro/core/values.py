"""Runtime values for HorseIR programs.

Values mirror the data model of a column store: a :class:`Vector` is one
typed column (NumPy-backed), a :class:`TableValue` is an ordered collection
of named equal-length vectors, and a :class:`ListValue` groups values (the
result of ``@list`` and the shape group/join builtins return).  Scalars are
length-one vectors.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core import strings
from repro.core import types as ht
from repro.errors import HorseRuntimeError, HorseTypeError

__all__ = ["Value", "Vector", "ListValue", "TableValue", "scalar",
           "vector", "from_numpy", "coerce", "value_nbytes"]


#: Serializes first-use encodings, so a string column shared by several
#: sessions is encoded once.  (Encoding is pure Python and holds the
#: interpreter lock throughout, so this costs no parallelism.)
_ENCODING = threading.Lock()


class Value:
    """Base class for all HorseIR runtime values."""

    #: HorseIR type of this value; set by subclasses.
    type: ht.HorseType


class Vector(Value):
    """A typed, immutable-by-convention column of values.

    ``data`` is always a 1-D NumPy array whose dtype matches
    :func:`repro.core.types.numpy_dtype` for ``type``.  Mutating ``data`` in
    place is not supported by the library (copy-on-write is handled at the
    compiler level, per the paper's pass-by-value semantics).

    A ``str`` vector is physically dictionary-encoded
    (:mod:`repro.core.strings`): :meth:`encoding` gives its ``(codes,
    dictionary)`` pair, encoding a vector built from Python strings on
    first use, and ``data`` is the decoded object array, built on first
    read for a vector made by :meth:`from_codes`.  Both are kept on the
    vector once computed; the encoding is computed once even when
    sessions race on a shared table column.
    """

    __slots__ = ("type", "_data", "_encoding")

    def __init__(self, type_: ht.HorseType, data: np.ndarray):
        if data.ndim != 1:
            raise HorseTypeError(
                f"vectors are one-dimensional, got shape {data.shape}")
        expected = ht.numpy_dtype(type_)
        if data.dtype != expected:
            data = data.astype(expected)
        self.type = type_
        self._data = data
        self._encoding = None

    @classmethod
    def from_codes(cls, codes: np.ndarray,
                   dictionary: np.ndarray) -> "Vector":
        """A ``str`` vector over ``dictionary`` (sorted, distinct)."""
        vec = cls.__new__(cls)
        vec.type = ht.STR
        vec._data = None
        vec._encoding = (codes.astype(strings.CODE_DTYPE, copy=False),
                         dictionary)
        return vec

    @property
    def data(self) -> np.ndarray:
        data = self._data
        if data is None:
            data = strings.decode(*self._encoding)
            self._data = data
        return data

    def encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, dictionary)`` of a ``str`` vector."""
        encoding = self._encoding
        if encoding is None:
            if self.type is not ht.STR:
                raise HorseTypeError(
                    f"only str vectors are dictionary-encoded, not "
                    f"{self.type}")
            with _ENCODING:
                encoding = self._encoding
                if encoding is None:
                    self._encoding = encoding = strings.encode(self._data)
        return encoding

    def with_codes(self, codes: np.ndarray) -> "Vector":
        """A ``str`` vector over this one's dictionary — what a
        selection, gather or reordering of it returns."""
        return Vector.from_codes(codes, self.encoding()[1])

    def __len__(self) -> int:
        data = self._data
        return len(data) if data is not None else len(self._encoding[0])

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def __repr__(self) -> str:
        preview = ", ".join(repr(x) for x in self.data[:6])
        if len(self) > 6:
            preview += ", ..."
        return f"Vector<{self.type}>[{len(self)}]({preview})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.type == other.type
                and len(self) == len(other)
                and bool(np.all(self.data == other.data)))

    __hash__ = None  # mutable payload; not hashable

    @property
    def is_scalar(self) -> bool:
        return len(self) == 1

    def item(self):
        """The single element of a length-one vector, as a Python object."""
        if len(self) != 1:
            raise HorseRuntimeError(
                f"expected a scalar vector, got length {len(self)}")
        value = self.data[0]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def astype(self, type_: ht.HorseType) -> "Vector":
        """A copy of this vector converted to HorseIR type ``type_``."""
        if type_ == self.type:
            return self
        return Vector(type_, self.data.astype(ht.numpy_dtype(type_)))

    def nbytes(self) -> int:
        """Payload size in bytes: the backing array's, except that a
        ``str`` vector costs its 4-byte code per row (the dictionary is
        shared by every vector derived from one column and not
        charged).  Symbols count their pointer array."""
        if self.type is ht.STR:
            return strings.CODE_DTYPE.itemsize * len(self)
        return int(self.data.nbytes)


class ListValue(Value):
    """An ordered list of HorseIR values (result of ``@list``)."""

    __slots__ = ("type", "items")

    def __init__(self, items: Sequence[Value]):
        self.items = list(items)
        element = ht.WILDCARD
        kinds = {item.type for item in self.items}
        if len(kinds) == 1:
            element = next(iter(kinds))
        self.type = ht.list_of(element)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Value:
        return self.items[index]

    def __repr__(self) -> str:
        return f"ListValue[{len(self.items)}]"

    def nbytes(self) -> int:
        """Total payload bytes across the list's items."""
        return sum(value_nbytes(item) for item in self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListValue):
            return NotImplemented
        return self.items == other.items

    __hash__ = None


class TableValue(Value):
    """An in-memory table: ordered named columns of equal length."""

    __slots__ = ("type", "_columns")

    def __init__(self, columns: "Iterable[tuple[str, Vector]] | dict[str, Vector]"):
        if isinstance(columns, dict):
            pairs = list(columns.items())
        else:
            pairs = list(columns)
        self._columns: dict[str, Vector] = {}
        length = None
        for name, column in pairs:
            if not isinstance(column, Vector):
                raise HorseTypeError(
                    f"table column {name!r} must be a Vector, "
                    f"got {type(column).__name__}")
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise HorseTypeError(
                    f"table column {name!r} has length {len(column)}, "
                    f"expected {length}")
            if name in self._columns:
                raise HorseTypeError(f"duplicate table column {name!r}")
            self._columns[name] = column
        self.type = ht.TABLE

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def column(self, name: str) -> Vector:
        try:
            return self._columns[name]
        except KeyError:
            raise HorseRuntimeError(
                f"table has no column {name!r}; "
                f"columns are {self.column_names}") from None

    def columns(self) -> Iterator[tuple[str, Vector]]:
        return iter(self._columns.items())

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        return (f"TableValue({self.num_rows} rows x "
                f"{self.num_columns} cols: {self.column_names})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableValue):
            return NotImplemented
        return (self.column_names == other.column_names
                and all(self._columns[n] == other._columns[n]
                        for n in self._columns))

    __hash__ = None

    def nbytes(self) -> int:
        """Total payload bytes across the table's columns."""
        return sum(col.nbytes() for col in self._columns.values())

    def head(self, n: int = 5) -> "TableValue":
        """The first ``n`` rows, as a new table."""
        return TableValue(
            [(name, Vector(col.type, col.data[:n]))
             for name, col in self._columns.items()])

    def to_pylist(self) -> list[dict]:
        """Rows as a list of dicts (for tests and examples)."""
        names = self.column_names
        arrays = [self._columns[n].data for n in names]
        return [
            {name: (arr[i].item() if isinstance(arr[i], np.generic)
                    else arr[i])
             for name, arr in zip(names, arrays)}
            for i in range(self.num_rows)
        ]


def scalar(value, type_: ht.HorseType | None = None) -> Vector:
    """Wrap a Python scalar as a length-one HorseIR vector."""
    if type_ is None:
        if isinstance(value, bool):
            type_ = ht.BOOL
        elif isinstance(value, int):
            type_ = ht.I64
        elif isinstance(value, float):
            type_ = ht.F64
        elif isinstance(value, str):
            type_ = ht.STR
        elif isinstance(value, np.datetime64):
            type_ = ht.DATE
        else:
            raise HorseTypeError(
                f"cannot infer HorseIR type for {type(value).__name__}")
    data = np.empty(1, dtype=ht.numpy_dtype(type_))
    data[0] = value
    return Vector(type_, data)


def vector(values: Sequence, type_: ht.HorseType) -> Vector:
    """Build a vector of HorseIR type ``type_`` from a Python sequence."""
    dtype = ht.numpy_dtype(type_)
    if dtype == np.dtype(object):
        data = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            data[i] = value
    else:
        data = np.asarray(values, dtype=dtype)
    return Vector(type_, data)


def from_numpy(array: np.ndarray, *, symbolic: bool = False) -> Vector:
    """Wrap a NumPy array as a vector, inferring the HorseIR type."""
    array = np.asarray(array)
    if array.ndim == 0:
        array = array.reshape(1)
    type_ = ht.type_of_dtype(array.dtype, symbolic=symbolic)
    if array.dtype.kind in ("U", "S"):
        array = array.astype(object)
    return Vector(type_, array)


def value_nbytes(value) -> int:
    """Payload bytes of any runtime value; 0 for non-values.

    The allocation profiler's single sizing rule: vectors report their
    NumPy buffer, containers sum their children, and anything else
    (``None``, plan metadata, Python scalars in opaque slots) costs
    nothing.
    """
    nbytes = getattr(value, "nbytes", None)
    if callable(nbytes):
        return nbytes()
    if isinstance(nbytes, (int, np.integer)):  # raw ndarray
        return int(nbytes)
    return 0


def coerce(value: Value, type_: ht.HorseType) -> Value:
    """Apply the declared type of an assignment / ``check_cast``.

    The single cast rule shared by the reference interpreter and the
    compiled runtime, so HorsePower-Naive and HorsePower-Opt accept and
    reject exactly the same conversions: wildcards pass anything through,
    vectors re-type element-wise, and a Table/List value only satisfies a
    matching container type — anything else is a runtime cast error.
    """
    if type_.is_wildcard:
        return value
    if isinstance(value, Vector) and not type_.is_list \
            and not type_.is_table:
        return value.astype(type_)
    if isinstance(value, TableValue) and type_.is_table:
        return value
    if isinstance(value, ListValue) and type_.is_list:
        return value
    if isinstance(value, (TableValue, ListValue)):
        raise HorseRuntimeError(
            f"cannot cast {type(value).__name__} to {type_}")
    return value
