"""The in-memory database: named tables, CSV import/export, catalog
derivation."""

from __future__ import annotations

import csv

import numpy as np

from repro.core import types as ht
from repro.core.values import TableValue
from repro.engine.table import ColumnTable
from repro.errors import StorageError
from repro.sql.catalog import Catalog, TableSchema

__all__ = ["Database"]


class Database:
    """A named collection of column tables (memory-resident, like the
    paper's setup where all data is in main memory before measuring)."""

    def __init__(self):
        self._tables: dict[str, ColumnTable] = {}
        #: Bumped by every table added or dropped.
        self._version = 0
        #: ``(schema version, catalog, fingerprint)`` of the last
        #: derivation.
        self._schema: tuple | None = None

    def add_table(self, table: ColumnTable) -> None:
        if table.name in self._tables:
            raise StorageError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._version += 1

    def create_table(self, name: str, columns: dict[str, np.ndarray],
                     types: dict[str, ht.HorseType] | None = None) \
            -> ColumnTable:
        table = ColumnTable(name, columns, types)
        self.add_table(table)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise StorageError(f"unknown table {name!r}")
        del self._tables[name]
        self._version += 1

    def table(self, name: str) -> ColumnTable:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        return list(self._tables)

    def catalog(self) -> Catalog:
        """The SQL catalog derived from the stored tables.  It is derived
        once per schema version and shared: treat it as read-only."""
        return self._derived_schema()[1]

    def schema_fingerprint(self) -> tuple:
        """A hashable digest of the catalog shape — table names, column
        names, column types — used in plan-cache keys so any schema
        change (new/dropped table, different columns) makes previously
        prepared plans unreachable."""
        return self._derived_schema()[2]

    def _derived_schema(self) -> tuple:
        # A table's own version moves when a column is added to it, so
        # the tuple changes with every schema change this object can
        # see, and costs one read per table.
        version = (self._version,) + tuple(
            table.version for table in self._tables.values())
        derived = self._schema
        if derived is None or derived[0] != version:
            catalog = Catalog()
            for table in self._tables.values():
                catalog.add(TableSchema(table.name, table.schema()))
            fingerprint = tuple(sorted(
                (name, tuple((column, str(type_))
                             for column, type_ in table.schema()))
                for name, table in self._tables.items()))
            derived = self._schema = (version, catalog, fingerprint)
        return derived

    def to_table_values(self) -> dict[str, TableValue]:
        """Zero-copy views for the HorseIR execution context."""
        return {name: table.to_table_value()
                for name, table in self._tables.items()}

    def analyze_into(self, store, name: str | None = None) -> list:
        """Collect statistics for one table (or all of them) into a
        :class:`~repro.stats.StatsStore`; the storage half of
        ``ANALYZE`` (:meth:`EngineSession.analyze` adds the plan-cache
        invalidation on top).  Returns the collected
        :class:`~repro.stats.TableStats`, in table order."""
        names = [name] if name is not None else self.table_names()
        return [store.analyze(table, self.table(table))
                for table in names]

    # -- CSV I/O ---------------------------------------------------------------

    def load_csv(self, name: str, path: str,
                 types: list[tuple[str, ht.HorseType]],
                 delimiter: str = "|") -> ColumnTable:
        """Load a delimited file with a declared schema (dbgen style:
        no header row, ``|`` separated)."""
        names = [column for column, _ in types]
        raw: list[list[str]] = [[] for _ in names]
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            for row in reader:
                if not row:
                    continue
                if len(row) < len(names):
                    raise StorageError(
                        f"{path}: row has {len(row)} fields, "
                        f"expected {len(names)}")
                for index in range(len(names)):
                    raw[index].append(row[index])
        columns: dict[str, np.ndarray] = {}
        declared: dict[str, ht.HorseType] = {}
        for (column, type_), values in zip(types, raw):
            columns[column] = _parse_column(values, type_)
            declared[column] = type_
        return self.create_table(name, columns, declared)

    def save_csv(self, name: str, path: str,
                 delimiter: str = "|") -> None:
        table = self.table(name)
        arrays = [table.column(c) for c in table.column_names]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            for row in zip(*arrays):
                writer.writerow([_format_field(v) for v in row])


def _parse_column(values: list[str], type_: ht.HorseType) -> np.ndarray:
    if type_ in (ht.STR, ht.SYM):
        out = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            out[index] = value
        return out
    if type_ == ht.DATE:
        return np.array(values, dtype="datetime64[D]")
    dtype = ht.numpy_dtype(type_)
    if type_ == ht.BOOL:
        return np.array([v.strip().lower() in ("1", "true", "t")
                         for v in values], dtype=np.bool_)
    return np.array(values, dtype=np.float64).astype(dtype)


def _format_field(value) -> str:
    if isinstance(value, np.datetime64):
        return str(value)
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)
