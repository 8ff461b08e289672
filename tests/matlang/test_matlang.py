"""MATLAB-subset frontend tests: lexer/parser, interpreter, Tamer, and the
MATLAB→HorseIR pipeline (compiled output must match the interpreter)."""

import numpy as np
import pytest

from repro.errors import (MatlangRuntimeError, MatlangSyntaxError,
                          MatlangTypeError)
from repro.engine import EngineSession
from repro.matlang import matlab_to_module
from repro.matlang import ast
from repro.matlang.interp import run_matlab
from repro.matlang.parser import parse_program
from repro.matlang.tamer import tame_source

#: Compiles the MATLAB programs under test (on its default engine, pygen).
SESSION = EngineSession()

SCALE_FN = """
function y = scale(x, k)
    y = x .* k;
end
"""


class TestParser:
    def test_function_header(self):
        program = parse_program(SCALE_FN)
        fn = program.entry
        assert fn.name == "scale"
        assert fn.params == ["x", "k"]
        assert fn.output == "y"
        assert len(fn.body) == 1

    def test_multiple_functions(self):
        source = """
        function r = main(x)
            r = helper(x) + 1;
        end
        function h = helper(x)
            h = x .* 2;
        end
        """
        program = parse_program(source)
        assert [fn.name for fn in program.functions] == ["main", "helper"]

    def test_if_elseif_else(self):
        source = """
        function r = f(x)
            if x > 10
                r = 1;
            elseif x > 5
                r = 2;
            else
                r = 3;
            end
        end
        """
        fn = parse_program(source).entry
        stmt = fn.body[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.branches) == 2
        assert stmt.else_body

    def test_for_loop_is_rejected_with_guidance(self):
        source = """
        function r = f(x)
            for i = 1:10
                r = i;
            end
        end
        """
        with pytest.raises(MatlangSyntaxError, match="array operations"):
            parse_program(source)

    def test_multiple_outputs_rejected(self):
        source = """
        function [a, b] = f(x)
            a = x;
            b = x;
        end
        """
        with pytest.raises(MatlangSyntaxError, match="single value"):
            parse_program(source)

    def test_comments_and_continuations(self):
        source = """
        % leading comment
        function y = f(x)  % trailing comment
            y = x + ...
                1;
        end
        """
        program = parse_program(source)
        assert isinstance(program.entry.body[0], ast.Assign)

    def test_operator_precedence(self):
        source = """
        function y = f(a, b, c)
            y = a + b .* c;
        end
        """
        assign = parse_program(source).entry.body[0]
        assert isinstance(assign.expr, ast.BinOp)
        assert assign.expr.op == "+"
        assert assign.expr.right.op == ".*"

    def test_range_binds_looser_than_plus(self):
        source = """
        function y = f(n)
            y = 1:n-1;
        end
        """
        assign = parse_program(source).entry.body[0]
        assert isinstance(assign.expr, ast.Range)
        assert isinstance(assign.expr.stop, ast.BinOp)

    def test_matrix_literal_rows_rejected(self):
        source = """
        function y = f(x)
            y = [1, 2
                 3, 4];
        end
        """
        with pytest.raises(MatlangSyntaxError, match="row vectors"):
            parse_program(source)


class TestInterpreter:
    def test_elementwise_pipeline(self):
        result = run_matlab(SCALE_FN, np.array([1.0, 2.0, 3.0]), 2.0)
        assert np.allclose(result, [2.0, 4.0, 6.0])

    def test_logical_indexing(self):
        source = """
        function y = pick(x)
            y = x(x > 2);
        end
        """
        result = run_matlab(source, np.array([1.0, 3.0, 2.0, 5.0]))
        assert np.allclose(result, [3.0, 5.0])

    def test_numeric_indexing_is_one_based(self):
        source = """
        function y = head(x)
            y = x(1:3);
        end
        """
        result = run_matlab(source, np.array([10.0, 20.0, 30.0, 40.0]))
        assert np.allclose(result, [10.0, 20.0, 30.0])

    def test_end_in_index(self):
        source = """
        function y = tail(x)
            y = x(2:end);
        end
        """
        result = run_matlab(source, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(result, [2.0, 3.0])

    def test_end_arithmetic_in_index(self):
        source = """
        function y = trim(x, n)
            y = x(1:end-n);
        end
        """
        result = run_matlab(source, np.arange(1.0, 7.0), 2.0)
        assert np.allclose(result, [1.0, 2.0, 3.0, 4.0])

    def test_vector_star_vector_guides_to_elementwise(self):
        source = """
        function y = f(a, b)
            y = a * b;
        end
        """
        with pytest.raises(MatlangRuntimeError, match="elementwise"):
            run_matlab(source, np.ones(3), np.ones(3))

    def test_user_function_call(self):
        source = """
        function r = main(x)
            r = twice(x) + 1;
        end
        function t = twice(x)
            t = x .* 2;
        end
        """
        result = run_matlab(source, np.array([1.0, 2.0]))
        assert np.allclose(result, [3.0, 5.0])

    def test_while_loop(self):
        source = """
        function total = f(n)
            total = 0;
            i = 0;
            while i < n
                total = total + i;
                i = i + 1;
            end
        end
        """
        assert run_matlab(source, 5.0) == 10.0

    def test_if_branches(self):
        source = """
        function r = f(x)
            if x > 0
                r = 1;
            elseif x < 0
                r = -1;
            else
                r = 0;
            end
        end
        """
        assert run_matlab(source, 5.0) == 1
        assert run_matlab(source, -5.0) == -1
        assert run_matlab(source, 0.0) == 0

    def test_builtins(self):
        source = """
        function r = f(x)
            r = sum(abs(x)) + max(x) - min(x) + mean(x);
        end
        """
        x = np.array([-1.0, 2.0, -3.0])
        expected = 6.0 + 2.0 - (-3.0) + np.mean(x)
        assert run_matlab(source, x) == pytest.approx(expected)

    def test_cumsum_and_concat(self):
        source = """
        function s = msum(x, n)
            c = cumsum(x);
            s = c(n:end) - [0, c(1:end-n)];
        end
        """
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        result = run_matlab(source, x, 2.0)
        expected = np.convolve(x, np.ones(2), mode="valid")
        assert np.allclose(result, expected)

    def test_string_comparison(self):
        source = """
        function r = f(s)
            r = sum(strcmp(s, 'abc'));
        end
        """
        strings = np.array(["abc", "def", "abc"], dtype=object)
        assert run_matlab(source, strings) == 2

    def test_nonscalar_condition_rejected(self):
        source = """
        function r = f(x)
            if x > 0
                r = 1;
            else
                r = 0;
            end
        end
        """
        with pytest.raises(MatlangRuntimeError, match="scalar"):
            run_matlab(source, np.array([1.0, -1.0]))

    def test_early_return(self):
        source = """
        function r = f(x)
            r = 0;
            if x > 0
                r = 1;
                return
            end
            r = 2;
        end
        """
        assert run_matlab(source, 5.0) == 1
        assert run_matlab(source, -5.0) == 2


class TestTamer:
    def test_entry_types_seed_inference(self):
        tamed = tame_source(SCALE_FN, [("f64", "vector"),
                                       ("f64", "scalar")])
        fn = tamed.entry
        assert fn.ret_type == "f64"
        assert fn.ret_shape == "vector"

    def test_comparison_produces_bool(self):
        source = """
        function m = f(x)
            m = x > 1;
        end
        """
        tamed = tame_source(source, [("f64", "vector")])
        assert tamed.entry.ret_type == "bool"

    def test_logical_index_recognized(self):
        source = """
        function y = f(x)
            y = x(x > 1);
        end
        """
        tamed = tame_source(source, [("f64", "vector")])
        ops = [s.op for s in tamed.entry.body
               if hasattr(s, "op")]
        assert "index_logical" in ops

    def test_user_function_specialized_per_signature(self):
        source = """
        function r = main(x, k)
            a = ident(x);
            b = ident(k);
            r = a .* b;
        end
        function y = ident(v)
            y = v;
        end
        """
        tamed = tame_source(source, [("f64", "vector"),
                                     ("f64", "scalar")])
        names = [fn.name for fn in tamed.functions]
        assert "main" in names
        specialized = [n for n in names if n.startswith("ident")]
        assert len(specialized) == 2

    def test_recursion_rejected(self):
        source = """
        function r = f(x)
            r = f(x);
        end
        """
        with pytest.raises(MatlangTypeError, match="recursive"):
            tame_source(source, [("f64", "vector")])

    def test_string_less_than_rejected(self):
        source = """
        function r = f(s)
            r = s < 'abc';
        end
        """
        with pytest.raises(MatlangTypeError, match="strcmp"):
            tame_source(source, [("str", "vector")])


class TestPipeline:
    """MATLAB → HorseIR: compiled results must match the interpreter."""

    def check(self, source, *args, specs=None, **kwargs):
        expected = run_matlab(source, *args)
        program = SESSION.compile_matlab(source, param_specs=specs)
        actual = program(*args, **kwargs)
        if isinstance(expected, np.ndarray) and expected.size > 1:
            assert np.allclose(np.asarray(actual, dtype=np.float64),
                               expected)
        else:
            assert float(actual) == pytest.approx(float(np.asarray(
                expected).reshape(-1)[0]))

    def test_scale(self):
        self.check(SCALE_FN, np.array([1.0, 2.0, 3.0]), 2.0,
                   specs=[("f64", "vector"), ("f64", "scalar")])

    def test_logical_indexing(self):
        source = """
        function y = pick(x)
            y = x(x > 2) .* 10;
        end
        """
        self.check(source, np.array([1.0, 3.0, 2.0, 5.0]))

    def test_numeric_indexing_and_end(self):
        source = """
        function y = mid(x)
            y = x(2:end-1);
        end
        """
        self.check(source, np.arange(1.0, 8.0))

    def test_msum_window(self):
        source = """
        function s = msum(x, n)
            c = cumsum(x);
            s = c(n:end) - [0, c(1:end-n)];
        end
        """
        self.check(source, np.arange(1.0, 20.0), 3.0,
                   specs=[("f64", "vector"), ("f64", "scalar")])

    def test_reductions(self):
        source = """
        function r = f(x)
            r = sum(x) + mean(x) + max(x) - min(x);
        end
        """
        self.check(source, np.array([4.0, -2.0, 7.5, 0.0]))

    def test_user_function_inlined_and_correct(self):
        source = """
        function r = main(x)
            r = square(x) + square(x .* 2);
        end
        function s = square(v)
            s = v .* v;
        end
        """
        self.check(source, np.array([1.0, 2.0, 3.0]))
        module = matlab_to_module(source)
        from repro.core.compiler import compile_module
        program = compile_module(module, "opt")
        # The helper is inlined away.
        assert list(program.module.methods) == ["main"]

    def test_while_loop_compiles(self):
        source = """
        function total = f(n)
            total = 0;
            i = 0;
            while i < n
                total = total + i;
                i = i + 1;
            end
        end
        """
        self.check(source, 6.0, specs=[("f64", "scalar")])

    def test_if_branches_compile(self):
        source = """
        function r = f(x)
            s = sum(x);
            if s > 0
                r = s .* 2;
            else
                r = 0 - s;
            end
        end
        """
        self.check(source, np.array([1.0, 2.0]))
        self.check(source, np.array([-1.0, -2.0]))

    def test_two_arg_min_max(self):
        source = """
        function y = clamp(x)
            y = min(max(x, 0), 1);
        end
        """
        self.check(source, np.array([-0.5, 0.25, 1.5]))

    def test_strings_flow_through(self):
        source = """
        function r = f(s, v)
            m = strcmp(s, 'keep');
            r = sum(v(m));
        end
        """
        strings = np.array(["keep", "drop", "keep"], dtype=object)
        values = np.array([1.0, 10.0, 100.0])
        expected = run_matlab(source, strings, values)
        program = SESSION.compile_matlab(
            source, param_specs=[("str", "vector"), ("f64", "vector")])
        assert program(strings, values) == pytest.approx(float(expected))

    def test_naive_and_opt_levels_agree(self):
        source = """
        function y = f(x)
            a = exp(x ./ 10);
            b = a(a > 1.05);
            y = sum(b .* b);
        end
        """
        x = np.linspace(0, 2, 500)
        naive = SESSION.compile_matlab(source, opt_level="naive")(x)
        opt = SESSION.compile_matlab(source, opt_level="opt")(x)
        assert float(naive) == pytest.approx(float(opt))


class TestExtendedBuiltins:
    """The library beyond the paper's minimum subset: sort, find, prod,
    var/std, dot, fliplr, isempty."""

    def check(self, source, *args, specs=None):
        expected = np.atleast_1d(np.asarray(
            run_matlab(source, *args), dtype=np.float64))
        program = SESSION.compile_matlab(source, param_specs=specs)
        actual = np.atleast_1d(np.asarray(program(*args),
                                          dtype=np.float64))
        assert np.allclose(actual, expected)

    def test_sort(self):
        self.check("""
        function y = f(x)
            y = sort(x);
        end
        """, np.array([3.0, 1.0, 2.0, -5.0]))

    def test_find_returns_one_based_positions(self):
        source = """
        function y = f(x)
            y = find(x > 2);
        end
        """
        result = run_matlab(source, np.array([1.0, 5.0, 0.5, 3.0]))
        assert result.tolist() == [2.0, 4.0]
        self.check(source, np.array([1.0, 5.0, 0.5, 3.0]))

    def test_prod(self):
        self.check("""
        function y = f(x)
            y = prod(x);
        end
        """, np.array([2.0, 3.0, 4.0]))

    def test_var_and_std_use_sample_normalization(self):
        x = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        source = """
        function y = f(x)
            y = var(x) + std(x);
        end
        """
        expected = np.var(x, ddof=1) + np.std(x, ddof=1)
        program = SESSION.compile_matlab(source)
        assert float(program(x)) == pytest.approx(expected)

    def test_dot(self):
        self.check("""
        function y = f(a, b)
            y = dot(a, b);
        end
        """, np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    def test_fliplr(self):
        self.check("""
        function y = f(x)
            y = fliplr(x);
        end
        """, np.array([1.0, 2.0, 3.0]))

    def test_isempty(self):
        source = """
        function y = f(x)
            e = x(x > 100);
            if isempty(e)
                y = -1;
            else
                y = sum(e);
            end
        end
        """
        assert run_matlab(source, np.array([1.0, 2.0])) == -1
        program = SESSION.compile_matlab(source)
        assert float(program(np.array([1.0, 2.0]))) == -1.0
        assert float(program(np.array([150.0, 2.0]))) == 150.0
