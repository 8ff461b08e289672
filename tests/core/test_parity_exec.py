"""Property-style parity suite: interpreter vs. compiled vs. chunked.

The three execution paths — reference interpreter (HorsePower-Naive
semantics), compiled single-chunk, and compiled chunked — must be
*bit-identical*: same values, same output dtypes, and the same errors
(type and message) on the failure paths.  Covers every reduction combine,
empty inputs, broadcast scalars in either argument order, int32 overflow
wraparound across chunk boundaries, and Table/List cast rejection.
"""

import numpy as np
import pytest

from repro.core import types as ht
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.parser import parse_module
from repro.core.values import TableValue, Vector, coerce, from_numpy
from repro.errors import BuiltinError, HorseRuntimeError

#: Forces many chunks even on small inputs.
TINY_CHUNK = 64


def _reduce_module(red: str, in_type: str, out_type: str) -> str:
    return f"""
    module P {{
        def main(x:{in_type}, t:{in_type}): {out_type} {{
            m:bool = @geq(x, t);
            c:{in_type} = @compress(m, x);
            r:{out_type} = @{red}(c);
            return r;
        }}
    }}
    """


def _all_paths(source: str, args):
    """Run all three paths; returns [(label, result_or_error), ...]."""
    module = parse_module(source)
    outcomes = []
    for label, runner in [
        ("interp", lambda: run_module(module, args=list(args))),
        ("naive", lambda: compile_module(module, "naive").run(
            args=list(args))),
        ("opt-1t", lambda: compile_module(module, "opt").run(
            args=list(args))),
        ("opt-4t", lambda: compile_module(module, "opt").run(
            args=list(args), n_threads=4, chunk_size=TINY_CHUNK)),
    ]:
        try:
            outcomes.append((label, runner()))
        except Exception as exc:  # noqa: BLE001 - parity includes errors
            outcomes.append((label, exc))
    return outcomes


def _assert_identical(outcomes):
    """Every path produced the same value+dtype, or the same error."""
    ref_label, ref = outcomes[0]
    for label, got in outcomes[1:]:
        if isinstance(ref, Exception):
            assert isinstance(got, Exception), \
                f"{ref_label} raised {ref!r} but {label} returned {got!r}"
            assert type(got) is type(ref), (label, got, ref)
            assert str(got) == str(ref), (label, got, ref)
            continue
        assert not isinstance(got, Exception), \
            f"{ref_label} returned but {label} raised {got!r}"
        assert isinstance(got, Vector) and isinstance(ref, Vector)
        assert got.type == ref.type, (label, got.type, ref.type)
        assert got.data.dtype == ref.data.dtype, \
            f"{label}: dtype {got.data.dtype} != {ref.data.dtype}"
        np.testing.assert_array_equal(got.data, ref.data, err_msg=label)


REDUCTIONS = [
    ("sum", "i32", "i64"), ("sum", "i64", "i64"),
    ("sum", "f32", "f32"), ("sum", "f64", "f64"),
    ("prod", "i64", "i64"), ("prod", "f64", "f64"),
    ("min", "i32", "i32"), ("min", "f64", "f64"),
    ("max", "i64", "i64"), ("max", "f32", "f32"),
    ("count", "f64", "i64"),
    ("avg", "f64", "f64"),
]

_NP_OF = {"i32": np.int32, "i64": np.int64,
          "f32": np.float32, "f64": np.float64}


class TestReductionCombineParity:
    @pytest.mark.parametrize("red,in_type,out_type", REDUCTIONS)
    def test_filtered_reduction_all_paths(self, red, in_type, out_type):
        rng = np.random.default_rng(11)
        data = rng.integers(-50, 50, size=1000).astype(_NP_OF[in_type])
        x = from_numpy(data)
        t = from_numpy(np.asarray([0], dtype=_NP_OF[in_type]))
        source = _reduce_module(red, in_type, out_type)
        _assert_identical(_all_paths(source, [x, t]))

    @pytest.mark.parametrize("red", ["any", "all"])
    def test_bool_reductions(self, red):
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, 1000)
        source = f"""
        module P {{
            def main(x:f64, t:f64): bool {{
                m:bool = @gt(x, t);
                r:bool = @{red}(m);
                return r;
            }}
        }}
        """
        for threshold in (-2.0, 0.0, 2.0):
            args = [from_numpy(data), from_numpy(np.asarray([threshold]))]
            _assert_identical(_all_paths(source, args))

    def test_int32_sum_wraps_identically_across_chunks(self):
        # Per-chunk partials accumulate as int64 inside the kernel;
        # the combine must truncate back to the declared i32 so chunked
        # wraparound matches the interpreter's single np.sum.
        data = np.full(1000, 2**30, dtype=np.int32)
        source = """
        module P {
            def main(x:i32, t:i32): i32 {
                m:bool = @geq(x, t);
                c:i32 = @compress(m, x);
                r:i32 = @sum(c);
                return r;
            }
        }
        """
        args = [from_numpy(data),
                from_numpy(np.asarray([0], dtype=np.int32))]
        _assert_identical(_all_paths(source, args))

    def test_bool_sum_keeps_declared_output_dtype(self):
        # Summing a bool mask: partials are ints; the declared i64
        # output must come back as i64 on every path (the old combine
        # let NumPy pick the accumulator dtype).
        data = np.arange(1000, dtype=np.float64)
        source = """
        module P {
            def main(x:f64, t:f64): i64 {
                m:bool = @geq(x, t);
                n:i64 = check_cast(@sum(m), i64);
                return n;
            }
        }
        """
        args = [from_numpy(data), from_numpy(np.asarray([500.0]))]
        _assert_identical(_all_paths(source, args))


class TestEmptyInputParity:
    def _args(self, dtype=np.float64):
        return [from_numpy(np.empty(0, dtype=dtype)),
                from_numpy(np.asarray([0], dtype=dtype))]

    @pytest.mark.parametrize("red,out_type,identity", [
        ("sum", "f64", 0.0), ("prod", "f64", 1.0), ("count", "i64", 0),
    ])
    def test_identity_reductions_on_empty(self, red, out_type, identity):
        source = _reduce_module(red, "f64", out_type)
        outcomes = _all_paths(source, self._args())
        _assert_identical(outcomes)
        assert outcomes[0][1].data[0] == identity

    @pytest.mark.parametrize("red", ["min", "max"])
    def test_min_max_on_empty_raise_builtin_error_everywhere(self, red):
        source = _reduce_module(red, "f64", "f64")
        outcomes = _all_paths(source, self._args())
        _assert_identical(outcomes)
        for label, outcome in outcomes:
            assert isinstance(outcome, BuiltinError), (label, outcome)
            assert str(outcome) == f"@{red} of an empty vector", label

    @pytest.mark.parametrize("red", ["min", "max"])
    def test_min_max_over_all_false_mask(self, red):
        # Non-empty input whose compressed selection is empty: the fused
        # per-chunk np.min used to leak a raw ValueError ("zero-size
        # array to reduction operation") instead of the builtin's error.
        source = _reduce_module(red, "f64", "f64")
        args = [from_numpy(np.full(500, -1.0)),
                from_numpy(np.asarray([0.0]))]
        outcomes = _all_paths(source, args)
        _assert_identical(outcomes)
        for label, outcome in outcomes:
            assert isinstance(outcome, BuiltinError), (label, outcome)
            assert str(outcome) == f"@{red} of an empty vector", label

    @pytest.mark.parametrize("red", ["min", "max"])
    def test_min_max_partial_chunk_emptiness_is_fine(self, red):
        # Only SOME chunks select nothing: the merge must drop the empty
        # partials and reduce over the rest, not raise.
        data = np.full(1000, -1.0)
        data[777] = 42.0
        source = _reduce_module(red, "f64", "f64")
        args = [from_numpy(data), from_numpy(np.asarray([0.0]))]
        outcomes = _all_paths(source, args)
        _assert_identical(outcomes)
        assert outcomes[0][1].data[0] == 42.0

    @pytest.mark.parametrize("red", ["min", "max"])
    def test_c_backend_min_max_over_all_false_mask(self, red):
        from repro.core.codegen.cgen import c_backend_available
        if not c_backend_available():
            pytest.skip("gcc not available")
        source = _reduce_module(red, "f64", "f64")
        module = parse_module(source)
        program = compile_module(module, "opt", backend="c")
        args = [from_numpy(np.full(500, -1.0)),
                from_numpy(np.asarray([0.0]))]
        with pytest.raises(BuiltinError,
                           match=f"@{red} of an empty vector"):
            program.run(args=list(args))

    @pytest.mark.parametrize("red,expected", [("any", False),
                                              ("all", True)])
    def test_bool_reductions_on_empty(self, red, expected):
        source = f"""
        module P {{
            def main(x:f64, t:f64): bool {{
                m:bool = @gt(x, t);
                r:bool = @{red}(m);
                return r;
            }}
        }}
        """
        outcomes = _all_paths(source, self._args())
        _assert_identical(outcomes)
        assert outcomes[0][1].data[0] == expected
        assert outcomes[0][1].data.dtype == np.bool_


BROADCAST_MODULE = """
module P {
    def main(%s): f64 {
        a:f64 = @mul(x, y);
        r:f64 = @sum(a);
        return r;
    }
}
"""


class TestBroadcastAndLengths:
    @pytest.mark.parametrize("params", ["x:f64, y:f64", "y:f64, x:f64"])
    def test_length1_broadcast_in_either_position(self, params):
        # A length-1 streamed input is a broadcast scalar no matter
        # which argument slot it occupies.
        long = from_numpy(np.arange(1000, dtype=np.float64))
        one = from_numpy(np.asarray([3.0]))
        source = BROADCAST_MODULE % params
        args = [long, one] if params.startswith("x") else [one, long]
        _assert_identical(_all_paths(source, args))

    @pytest.mark.parametrize("la,lb", [(0, 500), (500, 0), (300, 500)])
    def test_streamed_length_mismatch_raises(self, la, lb):
        # 0-vs-n used to dodge the length check entirely and surface a
        # kernel-internal NumPy broadcast error instead.
        a = np.arange(la, dtype=np.float64)
        b = np.arange(lb, dtype=np.float64)
        source = BROADCAST_MODULE % "x:f64, y:f64"
        module = parse_module(source)
        program = compile_module(module, "opt")
        with pytest.raises(HorseRuntimeError):
            program.run(args=[from_numpy(a), from_numpy(b)],
                        n_threads=2, chunk_size=TINY_CHUNK)


class TestCoerceParity:
    def test_table_to_vector_cast_fails_identically(self):
        table = TableValue([
            ("c", from_numpy(np.arange(4, dtype=np.float64)))])
        source = """
        module P {
            def main(t:table): f64 {
                x:f64 = check_cast(t, f64);
                r:f64 = @sum(x);
                return r;
            }
        }
        """
        outcomes = dict(_all_paths(source, [table]))
        # Every path rejects the cast with a HorseRuntimeError ...
        for label, outcome in outcomes.items():
            assert isinstance(outcome, HorseRuntimeError), \
                (label, outcome)
        # ... and the statement-at-a-time paths (interpreter vs compiled
        # naive, which share the coerce helper) use the exact message.
        # Fused opt mode rejects at the segment-input guard instead.
        assert str(outcomes["interp"]) == str(outcomes["naive"])
        assert "cannot cast TableValue" in str(outcomes["interp"])

    def test_shared_helper_is_used_by_both_runtimes(self):
        from repro.core import compiler, interp
        assert compiler._coerce is coerce
        assert interp.Interpreter._coerce is coerce

    def test_coerce_passes_matching_containers(self):
        table = TableValue([
            ("c", from_numpy(np.arange(2, dtype=np.float64)))])
        assert coerce(table, ht.TABLE) is table
        assert coerce(table, ht.WILDCARD) is table
        with pytest.raises(HorseRuntimeError):
            coerce(table, ht.F64)

    #: An assignment coerces to its declared type: a folded literal of
    #: another type and an alias of another type are coercions, which
    #: neither the optimizer nor a fused kernel may skip.
    COERCIONS = {
        "folded_div": ("r:i64 = @div(7:i64, 2:i64);", "r", []),
        "folded_lt": ("r:i64 = @lt(1:i64, 2:i64);", "r", []),
        "alias": ("y:f64 = @mul(x, 1.5:f64);\n"
                  "t:i64 = y;\n"
                  "u:i64 = @mul(t, 2:i64);", "u",
                  [np.array([1.0, 2.0])]),
    }

    @pytest.mark.parametrize("pipeline", ["O0", "O2"])
    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize("case", sorted(COERCIONS))
    def test_assignment_coerces_on_every_backend(self, case, backend,
                                                 pipeline):
        from repro.core.codegen.cgen import c_backend_available
        if backend == "c" and not c_backend_available():
            pytest.skip("gcc not available")
        body, result, arrays = self.COERCIONS[case]
        params = "x:f64" if arrays else ""
        source = (f"module P {{ def main({params}): i64 {{ {body} "
                  f"return {result}; }} }}")
        args = [from_numpy(a) for a in arrays]
        want = run_module(parse_module(source), args=list(args))
        got = compile_module(parse_module(source), "opt", backend=backend,
                             pipeline=pipeline).run(args=list(args))
        assert want.type == got.type == ht.I64
        assert got.data.tolist() == want.data.tolist()


class TestNaNMinMaxParity:
    """np.minimum/np.maximum/np.min/np.max propagate NaN; C's
    fmin/fmax (and a plain ternary) return the non-NaN operand, which
    silently flipped downstream comparison masks."""

    NAN_MODULE = """
    module P {
        def main(x:f64, y:f64): f64 {
            t:f64 = @%s(x, y);
            m:bool = @lt(t, y);
            c:f64 = @compress(m, t);
            r:f64 = @%s(c);
            return r;
        }
    }
    """

    @pytest.mark.parametrize("ew,red", [("min2", "sum"), ("max2", "sum"),
                                        ("min2", "min"), ("max2", "max")])
    def test_nan_operands_propagate_on_all_paths(self, ew, red):
        x = np.asarray([-1.0, float("nan"), 2.0, float("nan"), 0.5])
        y = np.asarray([1.0, 3.0, float("nan"), float("nan"), 0.25])
        source = self.NAN_MODULE % (ew, red)
        args = [from_numpy(x), from_numpy(y)]
        _assert_identical(_all_paths(source, args))

    @pytest.mark.parametrize("ew", ["min2", "max2"])
    def test_c_backend_propagates_nan(self, ew):
        from repro.core.codegen.cgen import c_backend_available
        if not c_backend_available():
            pytest.skip("gcc not available")
        # The falsifying shape from the backend fuzzer: sqrt(-1) -> NaN
        # feeding min2, whose result gates a compress into a sum.
        source = f"""
        module P {{
            def main(x:f64): f64 {{
                s:f64 = @sqrt(x);
                t:f64 = @{ew}(s, x);
                m:bool = @lt(t, x);
                c:f64 = @compress(m, s);
                r:f64 = @sum(c);
                return r;
            }}
        }}
        """
        module = parse_module(source)
        args = [from_numpy(np.asarray([-1.0, 4.0, -9.0, 0.0]))]
        ref = run_module(module, args=list(args))
        native = compile_module(module, "opt", backend="c").run(
            args=list(args))
        np.testing.assert_array_equal(native.data, ref.data)

    @pytest.mark.parametrize("red", ["min", "max"])
    def test_c_reduction_propagates_nan(self, red):
        from repro.core.codegen.cgen import c_backend_available
        if not c_backend_available():
            pytest.skip("gcc not available")
        source = f"""
        module P {{
            def main(x:f64): f64 {{
                s:f64 = @sqrt(x);
                r:f64 = @{red}(s);
                return r;
            }}
        }}
        """
        module = parse_module(source)
        args = [from_numpy(np.asarray([4.0, -1.0, 9.0]))]
        ref = run_module(module, args=list(args))
        native = compile_module(module, "opt", backend="c").run(
            args=list(args))
        assert np.isnan(ref.data[0])
        np.testing.assert_array_equal(native.data, ref.data)

