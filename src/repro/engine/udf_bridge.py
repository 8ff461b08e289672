"""The black-box UDF bridge: the engine ↔ embedded-Python boundary.

Models MonetDB's embedded-Python UDF interface (Section 2.3 and the
Table 2/4 discussions) with *real* work, not artificial sleeps:

* integer and boolean columns cross by **zero-copy** (binary-compatible
  with NumPy — MonetDB's zero-copy optimization);
* money/measure columns are DECIMAL in the database, stored scaled — they
  cross through a **scaling conversion pass** that materializes a fresh
  double array in each direction (MonetDB's ``dec → dbl`` loop);
* string columns are **re-materialized element by element** in both
  directions: the engine-internal string heap and Python's string objects
  are incompatible, so every value is decoded into a fresh object —
  exactly the cost the paper blames for q12/q19;
* date columns cross as per-element Python date objects, flattened to
  int64 day counts for the UDF;
* the bridge is **single-threaded**: conversions and the UDF body run on
  one thread whatever ``n_threads`` the query asks for (the paper's
  q6/q12/q19 flat-with-threads behaviour).
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.errors import UDFError
from repro.sql.udf import ScalarUDF, TableUDFDef

__all__ = ["UDFBridge"]

class UDFBridge:
    """Calls Python UDF implementations across the conversion boundary."""

    def __init__(self):
        #: counters exposed for tests and the evaluation narrative.
        self.calls = 0
        self.values_converted_in = 0
        self.values_converted_out = 0

    # -- entry points ------------------------------------------------------------

    def call_scalar(self, udf: ScalarUDF,
                    arrays: list[np.ndarray]) -> np.ndarray:
        if udf.python_impl is None:
            raise UDFError(
                f"scalar UDF {udf.name!r} has no Python implementation")
        self.calls += 1
        converted = [self._convert_in(a) for a in arrays]
        result = udf.python_impl(*converted)
        return self._convert_out(np.asarray(result))

    def call_table(self, udf: TableUDFDef,
                   arrays: list[np.ndarray]) -> list[np.ndarray]:
        if udf.python_impl is None:
            raise UDFError(
                f"table UDF {udf.name!r} has no Python implementation")
        self.calls += 1
        converted = [self._convert_in(a) for a in arrays]
        results = udf.python_impl(*converted)
        if len(results) != len(udf.output_columns):
            raise UDFError(
                f"table UDF {udf.name!r} returned {len(results)} "
                f"column(s), declared {len(udf.output_columns)}")
        return [self._convert_out(np.asarray(r)) for r in results]

    # -- the conversion boundary ----------------------------------------------

    def _convert_in(self, array: np.ndarray) -> np.ndarray:
        if array.dtype.kind in ("b", "i", "u"):
            # Zero-copy: binary-compatible with NumPy.
            return array
        if array.dtype.kind == "f":
            return self._convert_decimal(array)
        if array.dtype.kind == "M":
            return self._convert_dates_in(array)
        return self._convert_strings(array)

    def _convert_out(self, array: np.ndarray) -> np.ndarray:
        if array.dtype.kind in ("b", "i", "u"):
            return array
        if array.dtype.kind == "f":
            return self._convert_decimal(array, outbound=True)
        if array.dtype.kind == "M":
            return array
        if array.dtype.kind == "O" and len(array) \
                and isinstance(array.reshape(-1)[0], datetime.date):
            self.values_converted_out += len(array)
            return np.array([np.datetime64(v, "D") for v in array],
                            dtype="datetime64[D]")
        return self._convert_strings(array, outbound=True)

    def _convert_decimal(self, array: np.ndarray,
                         outbound: bool = False) -> np.ndarray:
        """DECIMAL ↔ double: a scaling pass into a fresh array.

        The database stores money columns as scaled integers; handing them
        to a double-typed NumPy UDF (and taking doubles back) requires one
        full conversion pass per direction — never zero-copy.
        """
        if outbound:
            self.values_converted_out += len(array)
        else:
            self.values_converted_in += len(array)
        # The scaling multiply stands in for the dec<->dbl loop; the scale
        # factor itself is not applied so both systems see identical
        # values (results must match bit-for-bit in the tests).
        return np.multiply(array, 1.0)

    def _convert_strings(self, array: np.ndarray,
                         outbound: bool = False) -> np.ndarray:
        """Element-by-element string re-materialization.

        Each value round-trips through its UTF-8 byte representation: the
        engine's heap format and Python strings are incompatible, so a
        fresh object is decoded per element (the q12/q19 bottleneck)."""
        if outbound:
            self.values_converted_out += len(array)
        else:
            self.values_converted_in += len(array)
        out = np.empty(len(array), dtype=object)
        for index, value in enumerate(array):
            out[index] = str(value).encode("utf-8").decode("utf-8")
        return out

    def _convert_dates_in(self, array: np.ndarray) -> np.ndarray:
        """Dates cross as per-element Python objects (then back to an
        int64 day count the UDF can compute with)."""
        self.values_converted_in += len(array)
        days = np.empty(len(array), dtype=np.int64)
        epoch = datetime.date(1970, 1, 1)
        for index, value in enumerate(array.astype(object)):
            days[index] = (value - epoch).days
        return days
