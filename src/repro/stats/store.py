"""Table/column statistics: the ``ANALYZE`` side of ``repro.stats``.

An ``ANALYZE`` run walks a :class:`~repro.engine.table.ColumnTable`
column by column and records, per column:

* ``count`` / ``null_count`` — total rows and how many are null
  (``NaN`` for floats, ``NaT`` for dates; integer, boolean and string
  columns cannot hold nulls in this engine);
* ``min`` / ``max`` — the extreme non-null values;
* ``n_distinct`` — exact distinct count over the non-null values
  (the tables the reproduction handles fit in memory, so there is no
  need for a sketch);
* an **equi-depth histogram** over the non-null values of orderable
  numeric/date columns: ``bounds`` holds ``len(depths) + 1`` bucket
  boundaries (``bounds[0] == min``, ``bounds[-1] == max``) chosen at
  equally spaced quantiles, ``depths[i]`` counts the values that fell
  between ``bounds[i]`` and ``bounds[i + 1]``.  String columns skip the
  histogram (range predicates on strings fall back to a default
  selectivity; equality uses ``n_distinct``).

Everything lives in a per-session :class:`StatsStore`.  The store is
*off until the first analyze*: ``enabled`` is a plain ``False``
attribute, so the per-query cost with no
statistics collected is one attribute read, and
:meth:`StatsStore.fingerprint` returns ``None`` so plan-cache keys are
unchanged from the stats-free era.  Every analyze bumps an internal
version that feeds the fingerprint — re-ANALYZE therefore invalidates
previously cached plans.
"""

from __future__ import annotations

import numpy as np

from repro.core import types as ht

__all__ = ["ColumnStats", "TableStats", "StatsStore", "q_error",
           "MISESTIMATE_THRESHOLD", "DEFAULT_HISTOGRAM_BUCKETS"]

#: Default number of equi-depth histogram buckets per column.
DEFAULT_HISTOGRAM_BUCKETS = 32

#: A query whose q-error exceeds this trips ``stats.misestimates`` —
#: twice the 2.0 acceptance bar, so the counter flags *stale* stats,
#: not ordinary histogram granularity error.
MISESTIMATE_THRESHOLD = 4.0


def q_error(est: float, actual: float) -> float:
    """The symmetric ratio error ``max(est/actual, actual/est)``.

    Both sides are clamped to at least one row, so an estimate of 0 for
    an empty result is a perfect 1.0 rather than a division by zero."""
    est = max(float(est), 1.0)
    actual = max(float(actual), 1.0)
    return max(est / actual, actual / est)


def _numeric_view(values: np.ndarray) -> np.ndarray | None:
    """``values`` as float64 for histogram purposes, or ``None`` for
    types without a usable numeric order (strings/symbols)."""
    if values.dtype.kind in ("i", "u", "f", "b"):
        return values.astype(np.float64)
    if values.dtype.kind == "M":  # datetime64 -> days since epoch
        return values.astype("datetime64[D]").astype(np.int64) \
            .astype(np.float64)
    return None


def _null_mask(values: np.ndarray) -> np.ndarray | None:
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype.kind == "M":
        return np.isnat(values)
    if values.dtype.kind == "O":
        return np.array([v is None for v in values], dtype=bool)
    return None


class ColumnStats:
    """Statistics for one column (see the module docstring)."""

    __slots__ = ("name", "type", "count", "null_count", "n_distinct",
                 "min", "max", "bounds", "depths")

    def __init__(self, name: str, type_: ht.HorseType, count: int,
                 null_count: int, n_distinct: int, min_, max_,
                 bounds: np.ndarray | None,
                 depths: np.ndarray | None) -> None:
        self.name = name
        self.type = type_
        self.count = count
        self.null_count = null_count
        self.n_distinct = n_distinct
        self.min = min_
        self.max = max_
        self.bounds = bounds
        self.depths = depths

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.count if self.count else 0.0

    def fraction_le(self, value: float) -> float | None:
        """Fraction of *non-null* values ``<= value`` (numeric domain:
        dates are days since epoch).  ``None`` when the column has no
        histogram (strings, or analyzed empty)."""
        if self.bounds is None or self.depths is None:
            return None
        total = int(self.depths.sum())
        if total == 0:
            return None
        bounds, depths = self.bounds, self.depths
        if value < bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        # Bucket i spans (bounds[i], bounds[i+1]]; linear interpolation
        # inside the bucket (the classic uniform-within-bucket model).
        i = int(np.searchsorted(bounds, value, side="left")) - 1
        i = max(i, 0)
        below = float(depths[:i].sum())
        width = float(bounds[i + 1] - bounds[i])
        if width <= 0:
            inside = float(depths[i])
        else:
            inside = float(depths[i]) * (value - float(bounds[i])) / width
        return min(max((below + inside) / total, 0.0), 1.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": str(self.type),
            "count": self.count,
            "null_count": self.null_count,
            "n_distinct": self.n_distinct,
            "min": None if self.min is None else str(self.min),
            "max": None if self.max is None else str(self.max),
            "histogram_buckets": 0 if self.depths is None
            else len(self.depths),
        }


def analyze_column(name: str, values: np.ndarray, type_: ht.HorseType,
                   buckets: int = DEFAULT_HISTOGRAM_BUCKETS
                   ) -> ColumnStats:
    """Compute :class:`ColumnStats` for one numpy column."""
    count = len(values)
    mask = _null_mask(values)
    if mask is not None and mask.any():
        null_count = int(mask.sum())
        nonnull = values[~mask]
    else:
        null_count = 0
        nonnull = values
    if len(nonnull) == 0:
        return ColumnStats(name, type_, count, null_count, 0, None,
                           None, None, None)
    if nonnull.dtype.kind == "O":
        distinct = len(set(nonnull.tolist()))
        min_, max_ = min(nonnull.tolist()), max(nonnull.tolist())
        return ColumnStats(name, type_, count, null_count, distinct,
                           min_, max_, None, None)
    sorted_vals = np.sort(nonnull)
    distinct = int(1 + np.count_nonzero(sorted_vals[1:]
                                        != sorted_vals[:-1])) \
        if len(sorted_vals) > 1 else 1
    min_, max_ = sorted_vals[0], sorted_vals[-1]
    numeric = _numeric_view(sorted_vals)
    bounds, depths = _equi_depth(numeric, buckets)
    return ColumnStats(name, type_, count, null_count, distinct, min_,
                       max_, bounds, depths)


def _equi_depth(sorted_vals: np.ndarray, buckets: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Equi-depth boundaries/counts over an ascending float array."""
    n = len(sorted_vals)
    buckets = max(1, min(buckets, n))
    positions = np.linspace(0, n - 1, buckets + 1).round().astype(int)
    bounds = sorted_vals[positions]
    # Merge buckets whose boundaries collapsed (heavy duplicates).
    keep = np.ones(len(bounds), dtype=bool)
    keep[1:-1] = bounds[1:-1] > bounds[:-2]
    bounds = bounds[keep]
    if len(bounds) < 2:
        bounds = np.array([bounds[0], bounds[0]])
    # depths[i] = values in (bounds[i], bounds[i+1]], first bucket also
    # takes the values equal to bounds[0].
    upper_idx = np.searchsorted(sorted_vals, bounds[1:], side="right")
    lower_idx = np.concatenate(([0], upper_idx[:-1]))
    depths = (upper_idx - lower_idx).astype(np.int64)
    return bounds.astype(np.float64), depths


class TableStats:
    """Row count plus per-column stats for one analyzed table."""

    __slots__ = ("name", "row_count", "columns")

    def __init__(self, name: str, row_count: int,
                 columns: dict[str, ColumnStats]) -> None:
        self.name = name
        self.row_count = row_count
        self.columns = columns

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {
            "table": self.name,
            "row_count": self.row_count,
            "columns": [self.columns[c].to_dict() for c in self.columns],
        }


class StatsStore:
    """Per-session container of :class:`TableStats`.

    ``enabled`` flips to ``True`` on the first analyze and the version
    counter bumps on every one, so :meth:`fingerprint` distinguishes
    every statistics generation (re-ANALYZE ⇒ new plan-cache keys)."""

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}
        self._version = 0
        self.enabled = False

    def analyze(self, name: str, table,
                buckets: int = DEFAULT_HISTOGRAM_BUCKETS) -> TableStats:
        """Collect statistics for ``table`` (a ``ColumnTable``)."""
        columns = {
            column: analyze_column(column, table.column(column),
                                   table.column_type(column), buckets)
            for column in table.column_names
        }
        stats = TableStats(name, table.num_rows, columns)
        self._tables[name] = stats
        self._version += 1
        self.enabled = True
        return stats

    def table(self, name: str) -> TableStats | None:
        return self._tables.get(name)

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def clear(self) -> None:
        self._tables.clear()
        self._version += 1
        self.enabled = False

    def fingerprint(self) -> int | None:
        """``None`` while empty (legacy cache keys), else the analyze
        generation."""
        return self._version if self._tables else None

    def __bool__(self) -> bool:
        return bool(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)
