"""Randomized differential testing of the three execution paths.

Hypothesis generates random straight-line HorseIR programs (elementwise
DAGs over two input columns, boolean subexpressions, optional compress +
reduction tails) as HorseIR text, then checks that the reference
interpreter, the naive backend and the fused/buffered backend produce
identical results — including NaN/inf propagation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import from_numpy
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.parser import parse_module

_UNARY_F64 = ("abs", "sqrt", "exp", "floor", "neg")
_BINARY_F64 = ("add", "sub", "mul", "min2", "max2")
_COMPARE = ("lt", "leq", "gt", "geq")
_BOOL_BIN = ("and", "or")


@st.composite
def random_program(draw):
    """A random module plus a human-readable op trace."""
    n_ops = draw(st.integers(min_value=3, max_value=14))
    body = []
    trace = []

    def call(op, *operands, type="f64"):
        """Append ``tN:type = @op(operands)``; return ``tN``."""
        target = f"t{len(body) + 1}"
        body.append(f"{target}:{type} = @{op}({', '.join(operands)});")
        trace.append(op)
        return target

    floats = ["x", "y"]
    bools = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["unary", "binary", "compare", "boolbin", "ifelse"]))
        if kind == "unary":
            op = draw(st.sampled_from(_UNARY_F64))
            arg = draw(st.sampled_from(floats))
            floats.append(call(op, arg))
        elif kind == "binary":
            op = draw(st.sampled_from(_BINARY_F64))
            a = draw(st.sampled_from(floats))
            b = draw(st.sampled_from(floats))
            floats.append(call(op, a, b))
        elif kind == "compare":
            op = draw(st.sampled_from(_COMPARE))
            a = draw(st.sampled_from(floats))
            threshold = draw(st.floats(-2.0, 2.0, allow_nan=False))
            bools.append(call(op, a, f"{threshold!r}:f64", type="bool"))
        elif kind == "boolbin" and bools:
            op = draw(st.sampled_from(_BOOL_BIN))
            a = draw(st.sampled_from(bools))
            b = draw(st.sampled_from(bools))
            bools.append(call(op, a, b, type="bool"))
        elif kind == "ifelse" and bools:
            mask = draw(st.sampled_from(bools))
            a = draw(st.sampled_from(floats))
            b = draw(st.sampled_from(floats))
            floats.append(call("if_else", mask, a, b))

    value = draw(st.sampled_from(floats))
    if bools and draw(st.booleans()):
        mask = draw(st.sampled_from(bools))
        value = call("compress", mask, value)
    reducer = draw(st.sampled_from(["sum", "count"]))
    result = call(reducer, value, type="f64" if reducer == "sum" else "i64")
    statements = "\n".join(f"        {line}" for line in body)
    source = (f"module Fuzz {{\n"
              f"    def main(x:f64, y:f64): f64 {{\n"
              f"{statements}\n"
              f"        return {result};\n"
              f"    }}\n"
              f"}}\n")
    return parse_module(source), trace


@st.composite
def input_pair(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    elements = st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False,
                         width=64)
    x = np.asarray(draw(st.lists(elements, min_size=n, max_size=n)),
                   dtype=np.float64)
    y = np.asarray(draw(st.lists(elements, min_size=n, max_size=n)),
                   dtype=np.float64)
    return x, y


@settings(max_examples=60, deadline=None)
@given(random_program(), input_pair(),
       st.integers(min_value=5, max_value=128))
def test_backends_agree_on_random_programs(program_and_trace, inputs,
                                           chunk):
    module, trace = program_and_trace
    x, y = inputs
    args = [from_numpy(x), from_numpy(y)]

    with np.errstate(all="ignore"):
        interpreted = run_module(module, args=args)
        naive = compile_module(module, "naive").run(args=args)
        fused = compile_module(module, "opt").run(args=args,
                                                  chunk_size=chunk)

    reference = np.asarray(interpreted.data, dtype=np.float64)
    for label, result in (("naive", naive), ("opt", fused)):
        got = np.asarray(result.data, dtype=np.float64)
        assert got.shape == reference.shape, (label, trace)
        np.testing.assert_allclose(
            got, reference, rtol=1e-9, atol=1e-12, equal_nan=True,
            err_msg=f"{label} diverged; ops={trace}")


@settings(max_examples=25, deadline=None)
@given(random_program(), input_pair())
def test_threading_matches_serial_on_random_programs(program_and_trace,
                                                     inputs):
    module, trace = program_and_trace
    x, y = inputs
    args = [from_numpy(x), from_numpy(y)]
    program = compile_module(module, "opt")
    with np.errstate(all="ignore"):
        serial = program.run(args=args, n_threads=1, chunk_size=32)
        threaded = program.run(args=args, n_threads=4, chunk_size=32)
    np.testing.assert_allclose(
        np.asarray(serial.data, dtype=np.float64),
        np.asarray(threaded.data, dtype=np.float64),
        rtol=1e-9, equal_nan=True, err_msg=f"ops={trace}")


from repro.core.codegen.cgen import c_backend_available  # noqa: E402


@pytest.mark.skipif(not c_backend_available(), reason="gcc not available")
@settings(max_examples=40, deadline=None)
@given(random_program(), input_pair())
def test_c_backend_agrees_on_random_programs(program_and_trace, inputs):
    """The native backend must match the interpreter on random programs
    (with per-segment fallback for whatever it cannot compile)."""
    module, trace = program_and_trace
    x, y = inputs
    args = [from_numpy(x), from_numpy(y)]
    with np.errstate(all="ignore"):
        interpreted = run_module(module, args=args)
        native = compile_module(module, "opt", backend="c").run(args=args)
    np.testing.assert_allclose(
        np.asarray(native.data, dtype=np.float64),
        np.asarray(interpreted.data, dtype=np.float64),
        rtol=1e-9, atol=1e-12, equal_nan=True,
        err_msg=f"c backend diverged; ops={trace}")
