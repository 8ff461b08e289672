"""Tests for fusion segmentation, kernel codegen, and the compiled
executor — including naive-vs-opt equivalence."""

import numpy as np
import pytest

from repro.core import F64, I64, TableValue, from_numpy, vector
from repro.core.codegen.cgen import c_backend_available
from repro.core.compiler import compile_module
from repro.core.interp import run_module
from repro.core.optimizer.fusion import (ANY, BASE, FusedItem, OpaqueItem,
                                         segment_method, walk_plan)
from repro.core.parser import parse_method, parse_module

FIGURE_2B = """
module ExampleQuery {
    def main(): table {
        t0:table = @load_table(`lineitem:sym);
        t1:f64 = check_cast(@column_value(t0, `l_extendedprice:sym), f64);
        t2:f64 = check_cast(@column_value(t0, `l_discount:sym), f64);
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
    rng = np.random.default_rng(7)
    n = 10_000
    return TableValue([
        ("l_extendedprice", from_numpy(rng.uniform(100, 1000, n))),
        ("l_discount", from_numpy(rng.uniform(0.0, 0.1, n))),
    ])


class TestSegmentation:
    def test_figure2_fuses_predicate_compress_mul_sum(self):
        method = parse_method("""
        def main(t1:f64, t2:f64): f64 {
            t3:bool = @geq(t2, 0.05:f64);
            t4:f64 = @compress(t3, t1);
            t5:f64 = @compress(t3, t2);
            t6:f64 = @mul(t4, t5);
            t7:f64 = @sum(t6);
            return t7;
        }
        """)
        plan = segment_method(method)
        fused = [item for item in plan if isinstance(item, FusedItem)]
        assert len(fused) == 1
        assert len(fused[0].segment.stmts) == 5
        assert fused[0].segment.outputs == [("t7", "reduce:sum")]

    def test_naive_mode_produces_no_segments(self):
        module = parse_module("""
        module M {
            def main(t1:f64, t2:f64): f64 {
                t3:f64 = @mul(t1, t2);
                t4:f64 = @sum(t3);
                return t4;
            }
        }
        """)
        program = compile_module(module, "naive")
        assert program.kernel_sources == []
        assert program.report.fused_segments == 0
        args = [vector([1.0, 2.0, 3.0], F64), vector([4.0, 5.0, 6.0], F64)]
        assert program.run(args=list(args)).data.tolist() \
            == run_module(module, args=list(args)).data.tolist()

    def test_opaque_statement_breaks_segment(self):
        method = parse_method("""
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            b:f64 = @cumsum(a);
            c:f64 = @add(b, 1.0:f64);
            d:f64 = @mul(c, c);
            e:f64 = @sum(d);
            return e;
        }
        """)
        plan = segment_method(method)
        kinds = [type(item).__name__ for item in plan]
        assert "OpaqueItem" in kinds  # the cumsum
        fused = [item for item in plan if isinstance(item, FusedItem)]
        # add/mul/sum after the scan fuse together.
        assert any(len(f.segment.stmts) >= 3 for f in fused)

    def test_reduction_result_not_consumed_in_same_segment(self):
        method = parse_method("""
        def main(x:f64): f64 {
            s:f64 = @sum(x);
            y:f64 = @div(x, s);
            t:f64 = @sum(y);
            return t;
        }
        """)
        plan = segment_method(method)
        for item in plan:
            if isinstance(item, FusedItem):
                targets = {s.target for s in item.segment.stmts}
                if "s" in targets:
                    assert "y" not in targets

    def test_mismatched_mask_domains_do_not_fuse(self):
        method = parse_method("""
        def main(x:f64, y:f64): f64 {
            m1:bool = @gt(x, 0.5:f64);
            m2:bool = @lt(y, 0.5:f64);
            a:f64 = @compress(m1, x);
            b:f64 = @compress(m2, y);
            c:f64 = @mul(a, b);
            d:f64 = @sum(c);
            return d;
        }
        """)
        plan = segment_method(method)
        for item in plan:
            if isinstance(item, FusedItem):
                targets = {s.target for s in item.segment.stmts}
                # a and b live in different compressed domains; c cannot
                # join a segment containing both.
                assert not ({"a", "b", "c"} <= targets)

    def test_single_statement_stays_opaque(self):
        method = parse_method("""
        def main(x:f64): f64 {
            y:f64 = @mul(x, 2.0:f64);
            return y;
        }
        """)
        plan = segment_method(method)
        assert all(isinstance(item, OpaqueItem) or
                   not isinstance(item, FusedItem) for item in plan)


_TWO_TABLES = """
    tl:table = @load_table(`l:sym);
    lx:f64 = check_cast(@column_value(tl, `x:sym), f64);
    lk:i64 = check_cast(@column_value(tl, `k:sym), i64);
    tr:table = @load_table(`r:sym);
    ry:f64 = check_cast(@column_value(tr, `y:sym), f64);
    rk:i64 = check_cast(@column_value(tr, `k:sym), i64);
"""

#: ``(body of main, the statement sets of its fused segments)``: which
#: vectors one loop may iterate together, decided from typeshape's
#: length tokens.
FUSION_CASES = {
    # Adjacent, independent filters of both join sides, as join
    # predicate motion emits them: one kernel per table.
    "two_tables": ("""
        def main(): i64 {""" + _TWO_TABLES + """
            pl:bool = @gt(lx, 0.5:f64);
            kl:i64 = @compress(pl, lk);
            pr:bool = @lt(ry, 0.5:f64);
            kr:i64 = @compress(pr, rk);
            ji:list<i64> = @join_index(kl, kr, `inner:sym);
            li:i64 = @list_item(ji, 0:i64);
            n:i64 = @len(li);
            return n;
        }""", [{"pl", "kl"}, {"pr", "kr"}]),
    # a and b live in the domains of two masks over one table: c joins
    # neither, and a later loop cannot take both as inputs.
    "two_masks_over_one_table": ("""
        def main(): f64 {""" + _TWO_TABLES + """
            m1:bool = @gt(lx, 0.5:f64);
            m2:bool = @lt(lx, 0.7:f64);
            a:f64 = @compress(m1, lx);
            b:i64 = @compress(m2, lk);
            c:f64 = @mul(a, b);
            d:f64 = @sum(c);
            e:i64 = @cumsum(b);
            f:f64 = @mul(a, b);
            g:f64 = @add(f, 1.0:f64);
            return g;
        }""", [{"m1", "m2", "a", "b"}]),
    # Values gathered through a join have its pair count, neither
    # side's row count, and the pairs of two joins differ: each chain
    # is its own loop, and each reduction, reading a vector of another
    # length than its neighbour's, stands alone.
    "two_join_sides": ("""
        def main(): f64 {""" + _TWO_TABLES + """
            ji:list<i64> = @join_index(lk, rk, `inner:sym);
            jj:list<i64> = @join_index(rk, lk, `inner:sym);
            li:i64 = @list_item(ji, 0:i64);
            ri:i64 = @list_item(ji, 1:i64);
            si:i64 = @list_item(jj, 0:i64);
            gl:f64 = @index(lx, li);
            gr:f64 = @index(ry, ri);
            gs:f64 = @index(ry, si);
            a:f64 = @mul(gl, gr);
            b:f64 = @add(a, 1.0:f64);
            c:f64 = @mul(lx, 2.0:f64);
            d:f64 = @add(c, 1.0:f64);
            e:f64 = @mul(gs, 2.0:f64);
            f:f64 = @add(e, 1.0:f64);
            r:f64 = @max(b);
            s:f64 = @max(d);
            t:f64 = @max(f);
            return t;
        }""", [{"a", "b"}, {"c", "d"}, {"e", "f"}]),
    # Parameters are of unknown relation: they constrain nothing.
    "parameters": ("""
        def main(x:f64, y:f64, z:f64): f64 {
            a:f64 = @mul(x, y);
            b:f64 = @add(a, z);
            return b;
        }""", [{"a", "b"}]),
    # A reduction's scalar result is a broadcast input of a later loop.
    "reduction_scalar": ("""
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            s:f64 = @sum(a);
            b:f64 = @sub(x, s);
            c:f64 = @mul(b, b);
            t:f64 = @sum(c);
            return t;
        }""", [{"a", "s"}, {"b", "c", "t"}]),
}


class TestFusionCases:
    @pytest.mark.parametrize("name", sorted(FUSION_CASES))
    def test_segments(self, name):
        source, expected = FUSION_CASES[name]
        plan = segment_method(parse_method(source))
        segments = [{s.target for s in item.segment.stmts}
                    for item in walk_plan(plan)
                    if isinstance(item, FusedItem)]
        assert segments == expected

    def test_reduction_scalar_is_not_streamed(self):
        source, _ = FUSION_CASES["reduction_scalar"]
        plan = segment_method(parse_method(source))
        later = [item.segment for item in plan
                 if isinstance(item, FusedItem)][1]
        assert later.inputs == ["x", "s"]
        assert later.domains["s"] == ANY
        assert later.domains["x"] == BASE
        program = compile_module(parse_module(
            "module M {" + source + "}"), "opt")
        data = np.arange(1.0, 1001.0)
        result = program.run(args=[from_numpy(data)], chunk_size=64)
        assert result.item() == pytest.approx(
            np.sum((data - np.sum(data * 2)) ** 2))


TWO_METHODS = """
module M {
    def helper(x:f64): f64 {
        a:f64 = @mul(x, 2.0:f64);
        b:f64 = @add(a, 1.0:f64);
        return b;
    }
    def main(x:f64): f64 {
        y:f64 = @helper(x);
        m:bool = @gt(y, 3.0:f64);
        z:f64 = @compress(m, y);
        s:f64 = @sum(z);
        return s;
    }
}
"""


class TestOneInference:
    """Loop fusion infers types and shapes once per method, and only
    when it fuses."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.core.analysis import typeshape
        from repro.core.optimizer import fusion

        seen = []
        original = typeshape.infer_method

        def counting(method, *args, **kwargs):
            seen.append(method.name)
            return original(method, *args, **kwargs)

        monkeypatch.setattr(typeshape, "infer_method", counting)
        monkeypatch.setattr(fusion, "infer_method", counting)
        return seen

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_opt_compile_infers_each_method_once(self, calls, backend):
        if backend == "c" and not c_backend_available():
            pytest.skip("gcc not available")
        program = compile_module(parse_module(TWO_METHODS), "opt",
                                 backend=backend, pipeline="O0")
        assert sorted(calls) == ["helper", "main"]
        assert program.report.fused_segments == 2

    def test_naive_compile_infers_nothing(self, calls):
        compile_module(parse_module(TWO_METHODS), "naive")
        assert calls == []


class TestCompiledExecution:
    def test_opt_matches_interpreter_on_figure2(self, lineitem):
        module = parse_module(FIGURE_2B)
        expected = run_module(module, {"lineitem": lineitem})
        program = compile_module(parse_module(FIGURE_2B), "opt")
        actual = program.run({"lineitem": lineitem})
        assert actual.column("RevenueChange").data[0] == pytest.approx(
            expected.column("RevenueChange").data[0])

    def test_naive_matches_interpreter_on_figure2(self, lineitem):
        module = parse_module(FIGURE_2B)
        expected = run_module(module, {"lineitem": lineitem})
        program = compile_module(parse_module(FIGURE_2B), "naive")
        actual = program.run({"lineitem": lineitem})
        assert actual.column("RevenueChange").data[0] == pytest.approx(
            expected.column("RevenueChange").data[0])

    def test_multithreaded_matches_single_thread(self, lineitem):
        program = compile_module(parse_module(FIGURE_2B), "opt")
        t1 = program.run({"lineitem": lineitem}, n_threads=1,
                         chunk_size=512)
        t4 = program.run({"lineitem": lineitem}, n_threads=4,
                         chunk_size=512)
        assert t1.column("RevenueChange").data[0] == pytest.approx(
            t4.column("RevenueChange").data[0])

    def test_chunked_vector_outputs_concatenate_in_order(self):
        source = """
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 2.0:f64);
                b:f64 = @add(a, 1.0:f64);
                return b;
            }
        }
        """
        data = np.arange(10_000, dtype=np.float64)
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[from_numpy(data)], chunk_size=128)
        assert np.allclose(result.data, data * 2.0 + 1.0)

    def test_compressed_vector_output_across_chunks(self):
        source = """
        module M {
            def main(x:f64): f64 {
                m:bool = @gt(x, 0.5:f64);
                y:f64 = @compress(m, x);
                z:f64 = @mul(y, 10.0:f64);
                return z;
            }
        }
        """
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 1, 5000)
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[from_numpy(data)], chunk_size=64)
        expected = data[data > 0.5] * 10.0
        assert np.allclose(result.data, expected)

    def test_min_max_reductions_combine_across_chunks(self):
        source = """
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 1.0:f64);
                lo:f64 = @min(a);
                hi:f64 = @max(a);
                r:f64 = @sub(hi, lo);
                return r;
            }
        }
        """
        rng = np.random.default_rng(3)
        data = rng.normal(0, 10, 9999)
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[from_numpy(data)], chunk_size=100)
        assert result.item() == pytest.approx(data.max() - data.min())

    def test_scalar_arguments_broadcast_into_chunks(self):
        source = """
        module M {
            def main(x:f64, k:f64): f64 {
                y:f64 = @mul(x, k);
                z:f64 = @sum(y);
                return z;
            }
        }
        """
        data = np.ones(4000)
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[from_numpy(data), vector([2.5], F64)],
                             chunk_size=64)
        assert result.item() == pytest.approx(10_000.0)

    def test_empty_input_produces_identity_sum(self):
        source = """
        module M {
            def main(x:f64): f64 {
                y:f64 = @mul(x, 2.0:f64);
                z:f64 = @sum(y);
                return z;
            }
        }
        """
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[from_numpy(np.empty(0))])
        assert result.item() == 0

    def test_udf_module_compiles_with_inlining(self, lineitem):
        source = """
        module WithUdf {
            def calc(price:f64, discount:f64): f64 {
                x0:f64 = @mul(price, discount);
                return x0;
            }
            def main(): f64 {
                t0:table = @load_table(`lineitem:sym);
                t1:f64 = check_cast(
                    @column_value(t0, `l_extendedprice:sym), f64);
                t2:f64 = check_cast(
                    @column_value(t0, `l_discount:sym), f64);
                t3:bool = @geq(t2, 0.05:f64);
                t4:f64 = @compress(t3, t1);
                t5:f64 = @compress(t3, t2);
                t6:f64 = @calc(t4, t5);
                t7:f64 = @sum(t6);
                return t7;
            }
        }
        """
        expected = run_module(parse_module(source), {"lineitem": lineitem})
        program = compile_module(parse_module(source), "opt")
        assert list(program.module.methods) == ["main"]
        actual = program.run({"lineitem": lineitem})
        assert actual.item() == pytest.approx(expected.item())

    def test_compile_report_records_kernels_and_time(self, lineitem):
        program = compile_module(parse_module(FIGURE_2B), "opt")
        report = program.report
        assert report.opt_level == "opt"
        assert report.compile_seconds > 0

    def test_control_flow_executes_in_compiled_program(self):
        source = """
        module M {
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
        program = compile_module(parse_module(source), "opt")
        result = program.run(args=[vector([100], I64)])
        assert result.item() == sum(range(100))

    def test_kernel_source_is_recorded(self):
        source = """
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 2.0:f64);
                b:f64 = @add(a, 1.0:f64);
                c:f64 = @sum(b);
                return c;
            }
        }
        """
        program = compile_module(parse_module(source), "opt")
        assert program.kernel_sources
        kernel = program.kernel_sources[0]
        assert "def _kernel" in kernel
        assert "np.sum" in kernel


class TestNaiveVsOptProperty:
    """Naive and opt backends must agree on arbitrary pipelines."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_elementwise_pipelines_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        x = rng.normal(0, 1, n)
        y = rng.uniform(0.1, 2.0, n)
        source = """
        module P {
            def main(x:f64, y:f64): f64 {
                a:f64 = @mul(x, y);
                b:f64 = @abs(a);
                c:f64 = @sqrt(b);
                m:bool = @gt(c, 0.5:f64);
                d:f64 = @compress(m, c);
                e:f64 = @sum(d);
                return e;
            }
        }
        """
        args = [from_numpy(x), from_numpy(y)]
        naive = compile_module(parse_module(source), "naive").run(
            args=args)
        opt = compile_module(parse_module(source), "opt").run(
            args=args, chunk_size=256)
        assert naive.item() == pytest.approx(opt.item())
