"""End-to-end checks of the parser + interpreter on the paper's examples."""

import numpy as np
import pytest

from repro.core import F64, I64, TableValue, Vector, from_numpy, vector
from repro.core.builtins import EvalContext
from repro.core.context import QueryContext
from repro.core.interp import Interpreter, run_module
from repro.core.limits import QueryLimits
from repro.core.parser import parse_module
from repro.core.printer import print_module
from repro.core.verify import verify_module
from repro.errors import HorseRuntimeError, HorseSyntaxError, HorseVerifyError

# The running example of the paper (Figure 2b), verbatim up to builtin
# spelling: TPC-H q6 simplified to SUM(l_extendedprice * l_discount)
# WHERE l_discount >= 0.05.
FIGURE_2B = """
module ExampleQuery {
    def main(): table {
        // load table
        t0:table = @load_table(`lineitem:sym);
        t1:f64 = check_cast(@column_value(t0, `l_extendedprice:sym), f64);
        t2:f64 = check_cast(@column_value(t0, `l_discount:sym), f64);
        // compute revenue change
        t3:bool = @geq(t2, 0.05:f64);
        t4:f64 = @compress(t3, t1);
        t5:f64 = @compress(t3, t2);
        t6:f64 = @mul(t4, t5);
        t7:f64 = @sum(t6);
        t8:sym = `RevenueChange:sym;
        t9:list<f64> = @list(t7);
        t10:table = @table(t8, t9);
        return t10;
    }
}
"""


@pytest.fixture
def lineitem():
    price = np.array([100.0, 200.0, 300.0, 400.0], dtype=np.float64)
    discount = np.array([0.01, 0.05, 0.06, 0.04], dtype=np.float64)
    return TableValue([
        ("l_extendedprice", from_numpy(price)),
        ("l_discount", from_numpy(discount)),
    ])


def test_figure_2b_parses_and_verifies():
    module = parse_module(FIGURE_2B)
    assert module.name == "ExampleQuery"
    assert list(module.methods) == ["main"]
    verify_module(module)


def test_figure_2b_executes(lineitem):
    module = parse_module(FIGURE_2B)
    result = run_module(module, {"lineitem": lineitem})
    assert isinstance(result, TableValue)
    assert result.column_names == ["RevenueChange"]
    expected = 200.0 * 0.05 + 300.0 * 0.06
    assert result.column("RevenueChange").data[0] == pytest.approx(expected)


def test_printer_round_trips():
    module = parse_module(FIGURE_2B)
    text = print_module(module)
    again = parse_module(text)
    assert print_module(again) == text


def test_udf_method_call(lineitem):
    source = """
    module WithUdf {
        def calcRevenueChangeScalar(price:f64, discount:f64): f64 {
            x0:f64 = @mul(price, discount);
            return x0;
        }
        def main(): f64 {
            t0:table = @load_table(`lineitem:sym);
            t1:f64 = check_cast(@column_value(t0, `l_extendedprice:sym), f64);
            t2:f64 = check_cast(@column_value(t0, `l_discount:sym), f64);
            t3:bool = @geq(t2, 0.05:f64);
            t4:f64 = @compress(t3, t1);
            t5:f64 = @compress(t3, t2);
            t6:f64 = @calcRevenueChangeScalar(t4, t5);
            t7:f64 = @sum(t6);
            return t7;
        }
    }
    """
    module = parse_module(source)
    verify_module(module)
    result = run_module(module, {"lineitem": lineitem})
    assert result.data[0] == pytest.approx(200.0 * 0.05 + 300.0 * 0.06)


def test_control_flow_if_else():
    source = """
    module Flow {
        def main(x:i64): i64 {
            c:bool = @gt(x, 10:i64);
            if (c) {
                r:i64 = @mul(x, 2:i64);
            } else {
                r:i64 = @add(x, 1:i64);
            }
            return r;
        }
    }
    """
    module = parse_module(source)
    verify_module(module)
    big = run_module(module, args=[vector([20], I64)])
    small = run_module(module, args=[vector([3], I64)])
    assert big.item() == 40
    assert small.item() == 4


def test_while_loop_accumulates():
    source = """
    module Loop {
        def main(n:i64): i64 {
            total:i64 = 0:i64;
            i:i64 = 0:i64;
            c:bool = @lt(i, n);
            while (c) {
                total:i64 = @add(total, i);
                i:i64 = @add(i, 1:i64);
                c:bool = @lt(i, n);
            }
            return total;
        }
    }
    """
    module = parse_module(source)
    verify_module(module)
    result = run_module(module, args=[vector([5], I64)])
    assert result.item() == 0 + 1 + 2 + 3 + 4


def test_nonscalar_condition_rejected_at_runtime():
    source = """
    module Bad {
        def main(x:bool): i64 {
            if (x) {
                r:i64 = 1:i64;
            } else {
                r:i64 = 0:i64;
            }
            return r;
        }
    }
    """
    module = parse_module(source)
    args = [Vector(__import__("repro.core.types", fromlist=["BOOL"]).BOOL,
                   np.array([True, False]))]
    with pytest.raises(HorseRuntimeError, match="scalar"):
        run_module(module, args=args)


def test_use_before_def_rejected_by_verifier():
    source = """
    module Bad {
        def main(): i64 {
            a:i64 = @add(b, 1:i64);
            b:i64 = 2:i64;
            return a;
        }
    }
    """
    with pytest.raises(HorseVerifyError, match="before assignment"):
        verify_module(parse_module(source))


def test_syntax_error_reports_location():
    with pytest.raises(HorseSyntaxError):
        parse_module("module M { def main(): i64 { return }")


def test_statement_loop_checkpoints_every_statement(lineitem):
    module = parse_module(FIGURE_2B)
    ctx = QueryContext(limits=QueryLimits())
    Interpreter(module, EvalContext({"lineitem": lineitem}), ctx).run()
    # 11 assignments and the return in Figure 2b's main.
    assert ctx.limits.checks == 12


def test_date_literals_compare():
    source = """
    module Dates {
        def main(d:date): bool {
            c:bool = @leq(d, 1998-12-01:date);
            r:bool = @all(c);
            return r;
        }
    }
    """
    module = parse_module(source)
    dates = from_numpy(np.array(["1998-01-01", "1998-11-30"],
                                dtype="datetime64[D]"))
    assert run_module(module, args=[dates]).item() is True


def test_scalar_broadcasting_in_elementwise():
    source = """
    module Broadcast {
        def main(x:f64): f64 {
            y:f64 = @mul(x, 2.0:f64);
            return y;
        }
    }
    """
    module = parse_module(source)
    result = run_module(module, args=[vector([1.0, 2.0, 3.0], F64)])
    assert np.allclose(result.data, [2.0, 4.0, 6.0])
