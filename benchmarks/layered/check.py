"""Correctness: compare a program's result with an independent reference.

Ints and strings must be equal, floats agree to ``rtol=1e-9``; row order
is normalised first, because only some of the queries carry ORDER BY.
Every execution additionally leaves a cheap order-free *fingerprint*
(per column: length and sum), so each timed sample is tied to the one
result that was compared element by element.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def columns_of(result) -> dict[str, np.ndarray]:
    """A result as ``{column: array}``: the engines return a
    ``TableValue``, the baseline a ``ColumnTable``, MATLAB programs an
    array or a scalar; a dict is already in that form."""
    if isinstance(result, dict):
        return result
    if hasattr(result, "columns"):                      # TableValue
        return {name: vec.data for name, vec in result.columns()}
    if hasattr(result, "column_names"):                 # ColumnTable
        return {name: result.column(name)
                for name in result.column_names}
    return {"result": np.atleast_1d(np.asarray(result))}


def _is_float(array: np.ndarray) -> bool:
    return array.dtype.kind == "f"


def _sort_key(array: np.ndarray) -> np.ndarray:
    if array.dtype.kind == "O":
        return array.astype(str)
    if array.dtype.kind == "M":
        return array.astype(np.int64)
    return array


def normalise(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Rows sorted by the exact (non-float) columns first, then the
    float columns, so two engines' row orders compare equal."""
    arrays = list(columns.values())
    if not arrays or len(arrays[0]) < 2:
        return columns
    keys = sorted(arrays, key=_is_float)
    order = np.lexsort([_sort_key(a) for a in reversed(keys)])
    return {name: array[order] for name, array in columns.items()}


def _differing_column(got: dict, want: dict) -> str | None:
    for name in got:
        a, b = got[name], want[name]
        if _is_float(a) or _is_float(b):
            a = a.astype(np.float64, copy=False)
            b = b.astype(np.float64, copy=False)
            # Relative to the value or, for the values near zero that
            # cancellation leaves (an option price of 1e-5 from terms of
            # 1e+2), to the column's largest magnitude: emitted C rounds
            # exp/log differently from NumPy in the last place.
            finite = np.abs(b[np.isfinite(b)])
            scale = float(finite.max()) if finite.size else 0.0
            same = np.allclose(a, b, rtol=RTOL, atol=RTOL * scale,
                               equal_nan=True)
        else:
            same = np.array_equal(_sort_key(a), _sort_key(b))
        if not same:
            return name
    return None


def mismatch(result, reference) -> str | None:
    """``None`` when ``result`` equals ``reference``, else what
    differs."""
    got, want = columns_of(result), columns_of(reference)
    if list(got) != list(want):
        return f"columns {list(got)} != {list(want)}"
    for name in got:
        if got[name].shape != want[name].shape:
            return (f"column {name}: {got[name].shape[0]} rows != "
                    f"{want[name].shape[0]}")
    # Sorting millions of rows costs more than the queries do, so rows
    # are compared as they come first and sorted only if that fails.
    if _differing_column(got, want) is None:
        return None
    name = _differing_column(normalise(got), normalise(want))
    return None if name is None else f"column {name}: values differ"


def fingerprint(result) -> tuple:
    """Order-free summary of a result — per column its length, sum and
    sum of magnitudes — cheap enough to take after every timed sample
    and comparable across engines."""
    parts = []
    for name, array in columns_of(result).items():
        if array.dtype.kind in "fiubM":
            values = _sort_key(array).astype(np.float64, copy=False)
        else:
            values = np.array([hash(str(v)) % 1000003 for v in array],
                              dtype=np.float64)
        parts.append((name, len(values), float(values.sum()),
                      float(np.abs(values).sum())))
    return tuple(parts)


def same_fingerprint(a: tuple, b: tuple) -> bool:
    if a is None or b is None or len(a) != len(b):
        return False
    for (name_a, n_a, sum_a, mag_a), (name_b, n_b, sum_b, mag_b) \
            in zip(a, b):
        if (name_a, n_a) != (name_b, n_b):
            return False
        slack = RTOL * max(mag_a, mag_b)
        if np.isnan(sum_a) != np.isnan(sum_b):
            return False
        if abs(sum_a - sum_b) > slack or abs(mag_a - mag_b) > slack:
            return False
    return True


def corrupt(result):
    """A copy of ``result`` with one value changed — the self-test's
    deliberately wrong answer."""
    columns = {name: array.copy()
               for name, array in columns_of(result).items()}
    name = next(n for n, a in columns.items() if a.dtype.kind in "fi")
    columns[name][0] += 1
    return columns
