"""UDF registry shared by both systems.

One declaration serves both execution paths, mirroring the experiment
setup in Section 4: the *MATLAB source* is what HorsePower translates into
HorseIR and merges into the query, and the *Python implementation* is what
the MonetDB-like baseline runs through its black-box UDF bridge ("with an
effort to have similar code within the UDF").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import ir
from repro.core import types as ht
from repro.errors import UDFError

__all__ = ["ScalarUDF", "TableUDFDef", "UDFRegistry"]


@dataclass
class ScalarUDF:
    """A scalar UDF: one value per row (vectorized over columns)."""

    name: str
    #: input parameter element types, in call order.
    param_types: list[ht.HorseType]
    ret_type: ht.HorseType
    #: MATLAB source (HorsePower path); entry function computes the result.
    matlab_source: str | None = None
    #: Python/NumPy implementation (baseline path).
    python_impl: Callable | None = None
    #: The MATLAB body lowered to HorseIR, memoised on first reference
    #: (:func:`repro.horsepower.translate.build_query_module`).
    lowered: ir.Module | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def kind(self) -> str:
        return "scalar"


@dataclass
class TableUDFDef:
    """A table UDF: consumes all input columns, returns named columns."""

    name: str
    param_types: list[ht.HorseType]
    #: declared output columns: (name, type) in order.
    output_columns: list[tuple[str, ht.HorseType]] = field(
        default_factory=list)
    matlab_source: str | None = None
    #: Python impl returning a tuple/list of arrays matching
    #: ``output_columns``.
    python_impl: Callable | None = None
    #: As :attr:`ScalarUDF.lowered`.
    lowered: ir.Module | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def kind(self) -> str:
        return "table"


@dataclass
class UDFRegistry:
    _udfs: dict[str, object] = field(default_factory=dict)
    #: bumped on every registration; part of the plan-cache key so a
    #: prepared query compiled before a UDF existed can never be reused
    #: after registration changes what the planner would produce.
    _version: int = 0
    #: The last :meth:`fingerprint`, whose first item is its version.
    _fingerprint: tuple | None = field(default=None, repr=False,
                                       compare=False)

    def register(self, udf) -> None:
        key = udf.name.lower()
        if key in self._udfs:
            raise UDFError(f"UDF {udf.name!r} is already registered")
        self._udfs[key] = udf
        self._version += 1

    @property
    def version(self) -> int:
        return self._version

    def fingerprint(self) -> tuple:
        """A hashable digest of the registry's contents, for plan-cache
        keys: registration version plus the declared signatures
        (computed once per version)."""
        if self._fingerprint is None \
                or self._fingerprint[0] != self._version:
            signatures = tuple(sorted(
                (name, udf.kind, tuple(str(t) for t in udf.param_types))
                for name, udf in self._udfs.items()))
            self._fingerprint = (self._version, signatures)
        return self._fingerprint

    def get(self, name: str):
        udf = self._udfs.get(name.lower())
        if udf is None:
            raise UDFError(f"unknown UDF {name!r}")
        return udf

    def is_udf(self, name: str) -> bool:
        return name.lower() in self._udfs

    def is_scalar(self, name: str) -> bool:
        udf = self._udfs.get(name.lower())
        return isinstance(udf, ScalarUDF)

    def is_table(self, name: str) -> bool:
        udf = self._udfs.get(name.lower())
        return isinstance(udf, TableUDFDef)

    def names(self) -> list[str]:
        return [udf.name for udf in self._udfs.values()]
