"""Column tables: the storage unit of the engine."""

from __future__ import annotations

import numpy as np

from repro.core import types as ht
from repro.core.values import TableValue, Vector
from repro.errors import StorageError

__all__ = ["ColumnTable"]


class ColumnTable:
    """An in-memory column-oriented table.

    Columns are NumPy 1-D arrays of equal length; each carries a HorseIR
    type so both executors agree on semantics (dates are
    ``datetime64[D]``).  String columns are stored as object arrays of
    Python strings — what the baseline engine, CSV I/O and ``ANALYZE``
    read — and handed to HorseIR queries as one cached vector per
    column, dictionary-encoded on the first query that needs its codes
    (not at load: most string columns are never grouped or filtered)
    and shared by every session over this table from then on.
    """

    def __init__(self, name: str,
                 columns: dict[str, np.ndarray] | None = None,
                 types: dict[str, ht.HorseType] | None = None):
        self.name = name
        self._columns: dict[str, np.ndarray] = {}
        self._types: dict[str, ht.HorseType] = {}
        #: The vector each query sees per column: one object, so a
        #: string column's encoding is computed once (Vector.encoding).
        self._vectors: dict[str, Vector] = {}
        for column, array in (columns or {}).items():
            declared = (types or {}).get(column)
            self.add_column(column, array, declared)

    def add_column(self, name: str, array: np.ndarray,
                   type_: ht.HorseType | None = None) -> None:
        array = np.asarray(array)
        if array.ndim != 1:
            raise StorageError(
                f"column {name!r} must be one-dimensional")
        if self._columns and len(array) != self.num_rows:
            raise StorageError(
                f"column {name!r} has {len(array)} rows, table "
                f"{self.name!r} has {self.num_rows}")
        if type_ is None:
            type_ = ht.type_of_dtype(array.dtype)
        if array.dtype.kind in ("U", "S"):
            array = array.astype(object)
        else:
            array = array.astype(ht.numpy_dtype(type_), copy=False)
        if name in self._columns:
            raise StorageError(f"duplicate column {name!r}")
        self._columns[name] = array
        self._types[name] = type_
        self._vectors[name] = Vector(type_, array)

    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}") from None

    def column_type(self, name: str) -> ht.HorseType:
        try:
            return self._types[name]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {name!r}") from None

    def schema(self) -> list[tuple[str, ht.HorseType]]:
        return [(name, self._types[name]) for name in self._columns]

    def to_table_value(self) -> TableValue:
        """A zero-copy view as a HorseIR table value."""
        return TableValue(self._vectors)

    @classmethod
    def from_table_value(cls, name: str, value: TableValue) -> "ColumnTable":
        table = cls(name)
        for column, vector in value.columns():
            table.add_column(column, vector.data, vector.type)
        return table

    def __repr__(self) -> str:
        return (f"ColumnTable({self.name!r}, {self.num_rows} rows, "
                f"cols={self.column_names})")
