"""Dictionary-encoded strings: the physical form of HorseIR's ``str``.

``str`` stays the logical type everywhere above the runtime; underneath,
a string vector is ``(codes, dictionary)`` — ``codes`` an ``int32``
array with one entry per row, ``dictionary`` a *sorted* object array of
the distinct values, so ``dictionary[codes]`` is the column.  Because
the dictionary is sorted, comparing codes orders rows exactly as
comparing the strings would: grouping, sorting, joining and the
min/max aggregates run on integers.  A predicate against constants is
evaluated once per dictionary entry and gathered by code
(:func:`per_entry`), never once per row.

This module is the array-level half and keeps no state of its own;
:class:`repro.core.values.Vector` holds a vector's encoding (encoding a
decoded vector on first use, decoding an encoded one when ``.data`` is
read).
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode", "decode", "reconcile", "per_entry"]

#: dtype of the per-row codes.
CODE_DTYPE = np.dtype(np.int32)


def encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)`` for an object array of strings.

    One hash pass finds the distinct values, only those are sorted, and
    a second hash pass maps every row to its value's rank.  (``np.unique``
    on an object array would sort all rows with Python comparisons —
    five to six times slower on a 600 k-row TPC-H column.)"""
    items = values.tolist()
    ranks = dict.fromkeys(items)
    dictionary = sorted(ranks)
    for rank, value in enumerate(dictionary):
        ranks[value] = rank
    codes = np.fromiter(map(ranks.__getitem__, items), dtype=CODE_DTYPE,
                        count=len(items))
    return codes, _object_array(dictionary)


def decode(codes: np.ndarray, dictionary: np.ndarray) -> np.ndarray:
    """The object array of Python strings ``codes`` stand for."""
    return dictionary.take(codes)


def reconcile(*encodings: tuple[np.ndarray, np.ndarray]
              ) -> tuple[list[np.ndarray], np.ndarray]:
    """Re-express several encodings over one shared sorted dictionary.

    Returns ``(codes per input, dictionary)``.  Inputs that already
    share a dictionary come back unchanged; otherwise the union of the
    dictionaries is sorted and each input's codes are translated through
    a dictionary-sized remap table (work per dictionary entry plus one
    integer gather per row)."""
    dictionaries = [dictionary for _, dictionary in encodings]
    first = dictionaries[0]
    if all(_same(first, other) for other in dictionaries[1:]):
        return [codes for codes, _ in encodings], first
    merged = sorted(set().union(*(d.tolist() for d in dictionaries)))
    rank = {value: index for index, value in enumerate(merged)}
    remapped = []
    for codes, dictionary in encodings:
        remap = np.fromiter(map(rank.__getitem__, dictionary.tolist()),
                            dtype=CODE_DTYPE, count=len(dictionary))
        remapped.append(remap.take(codes))
    return remapped, _object_array(merged)


def per_entry(fn, codes: np.ndarray, dictionary: np.ndarray) -> np.ndarray:
    """``fn`` applied once to the dictionary, gathered back to rows:
    the row-level result of an elementwise op whose only row-level
    operand is this string vector."""
    return np.asarray(fn(dictionary)).take(codes)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (len(a) == len(b) and bool(np.all(a == b)))


def _object_array(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out
