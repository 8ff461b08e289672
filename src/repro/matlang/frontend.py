"""MATLAB source → HorseIR, and the program a session compiles from it.

:func:`matlab_to_module` is the Figure-5 frontend: parse → Tamer →
TameIR → HorseIR.  :meth:`repro.engine.session.EngineSession.compile_matlab`
hands its module to one of the session's HorseIR engines and wraps the
result in a :class:`MatlabProgram`, callable on NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core import types as ht
from repro.core import ir
from repro.core.compiler import CompiledProgram
from repro.core.context import QueryContext
from repro.core.values import Value, Vector, from_numpy
from repro.errors import MatlangTypeError
from repro.matlang.parser import parse_program
from repro.matlang.tamer import tame_program
from repro.matlang.to_horseir import tameir_to_module

__all__ = ["matlab_to_module", "MatlabProgram"]

_ELEMENT_NAMES = {"bool", "i64", "f64", "str", "date"}


def _normalize_specs(param_specs) -> list[tuple[str, str]] | None:
    if param_specs is None:
        return None
    normalized: list[tuple[str, str]] = []
    for spec in param_specs:
        if isinstance(spec, str):
            spec = (spec, "vector")
        elem, shape = spec
        if isinstance(elem, ht.HorseType):
            elem = elem.kind
        if elem not in _ELEMENT_NAMES:
            raise MatlangTypeError(f"unknown parameter type {elem!r}")
        if shape not in ("scalar", "vector"):
            raise MatlangTypeError(f"unknown parameter shape {shape!r}")
        normalized.append((elem, shape))
    return normalized


def matlab_to_module(source: str, param_specs=None,
                     module_name: str = "MatlabModule") -> ir.Module:
    """Translate MATLAB source to a HorseIR module (no compilation).

    ``param_specs`` types the entry function's parameters: a list of
    element-type names (``"f64"``), or (type, shape) pairs where shape is
    ``"scalar"`` or ``"vector"``.  Defaults to all-``f64`` vectors.
    """
    program = parse_program(source)
    tamed = tame_program(program, _normalize_specs(param_specs))
    return tameir_to_module(tamed, module_name=module_name)


class MatlabProgram:
    """A compiled MATLAB program with a NumPy-friendly call interface.

    ``ctx`` pins the :class:`~repro.core.context.QueryContext` runs
    report into (a session's context when compiled through
    :meth:`EngineSession.compile_matlab`); with ``None`` runs are
    untraced and unprofiled, counting into one registry the program
    keeps to itself."""

    def __init__(self, module: ir.Module, compiled: CompiledProgram,
                 ctx=None):
        self.module = module
        self.compiled = compiled
        self._ctx = ctx if ctx is not None else QueryContext()

    @property
    def report(self):
        return self.compiled.report

    def __call__(self, *args, n_threads: int = 1, **run_kwargs):
        """Run the entry function on NumPy arrays / Python scalars;
        returns a NumPy array (or scalar for 1-element results)."""
        values = [_to_value(a) for a in args]
        run_kwargs.setdefault("ctx", self._ctx)
        result = self.compiled.run(args=values, n_threads=n_threads,
                                   **run_kwargs)
        if isinstance(result, Vector):
            if len(result) == 1:
                return result.item()
            return result.data
        return result


def _to_value(arg) -> Value:
    if isinstance(arg, Value):
        return arg
    array = np.asarray(arg)
    if array.dtype.kind in ("U", "S", "O"):
        return from_numpy(np.atleast_1d(array).astype(object))
    if array.ndim == 0:
        array = array.reshape(1)
    return from_numpy(array)

