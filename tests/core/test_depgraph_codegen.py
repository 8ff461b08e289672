"""Tests for the dependence graph and the kernel code generator
(including the buffer-reuse planner)."""

import numpy as np
import pytest

from repro.core import from_numpy
from repro.core.compiler import compile_module
from repro.core.depgraph import build_depgraph
from repro.core.optimizer.fusion import FusedItem, segment_method
from repro.core.codegen.pygen import generate_kernel
from repro.core.parser import parse_method, parse_module


def _figure2_method():
    return parse_method("""
    def main(t1:f64, t2:f64): f64 {
        t3:bool = @geq(t2, 0.05:f64);
        t4:f64 = @compress(t3, t1);
        t5:f64 = @compress(t3, t2);
        t6:f64 = @mul(t4, t5);
        t7:f64 = @sum(t6);
        return t7;
    }
    """)


class TestDepGraph:
    def test_edges_follow_def_use(self):
        method = _figure2_method()
        graph = build_depgraph(method.body)
        # S0 (t3) feeds S1 and S2; S3 (t6) feeds S4.
        assert graph.consumers(0) == {1, 2}
        assert graph.consumers(3) == {4}
        assert graph.producers(3) == {1, 2}

    def test_external_inputs_recorded(self):
        method = _figure2_method()
        graph = build_depgraph(method.body)
        assert graph.external_inputs[0] == {"t2"}
        assert graph.external_inputs[1] == {"t1"}

    def test_redefinition_rebinds_producer(self):
        method = parse_method("""
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            a:f64 = @add(a, 1.0:f64);
            b:f64 = @mul(a, a);
            return b;
        }
        """)
        graph = build_depgraph(method.body)
        # b reads the *second* definition of a.
        assert graph.producers(2) == {1}

    def test_to_dot_renders(self):
        method = _figure2_method()
        dot = build_depgraph(method.body).to_dot()
        assert dot.startswith("digraph")
        assert "s0 -> s1" in dot


def _first_segment(source: str):
    method = parse_method(source)
    plan = segment_method(method)
    for item in plan:
        if isinstance(item, FusedItem):
            return item.segment
    raise AssertionError("no fused segment")


class TestKernelCodegen:
    def test_kernel_structure_matches_figure3(self):
        segment = _first_segment("""
        def main(t1:f64, t2:f64): f64 {
            t3:bool = @geq(t2, 0.05:f64);
            t4:f64 = @compress(t3, t1);
            t5:f64 = @compress(t3, t2);
            t6:f64 = @mul(t4, t5);
            t7:f64 = @sum(t6);
            return t7;
        }
        """)
        kernel = generate_kernel(segment)
        # One selection vector for the mask, every column taken through it.
        assert kernel.source.count("selection(") == 1
        assert "_sel0 = selection(t3)" in kernel.source
        assert "t4 = np.take(t1, _sel0)" in kernel.source
        assert "t5 = np.take(t2, _sel0)" in kernel.source
        assert "np.sum(t6)" in kernel.source
        assert kernel.outputs == [("t7", "reduce:sum")]

    def test_buffers_are_reused_across_statements(self):
        segment = _first_segment("""
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            b:f64 = @add(a, 1.0:f64);
            c:f64 = @mul(b, 3.0:f64);
            d:f64 = @add(c, 4.0:f64);
            s:f64 = @sum(d);
            return s;
        }
        """)
        kernel = generate_kernel(segment)
        # Chain of 4 elementwise ops with disjoint lifetimes: at most 2
        # f64 buffers are needed (ping-pong), not 4.
        buffer_count = kernel.source.count("np.empty")
        assert 1 <= buffer_count <= 2
        assert "out=_buf" in kernel.source

    def test_output_buffer_never_reused(self):
        segment = _first_segment("""
        def main(x:f64): f64 {
            a:f64 = @mul(x, 2.0:f64);
            b:f64 = @add(a, 1.0:f64);
            c:f64 = @mul(a, b);
            return c;
        }
        """)
        kernel = generate_kernel(segment)
        module = parse_module("""
        module M {
            def main(x:f64): f64 {
                a:f64 = @mul(x, 2.0:f64);
                b:f64 = @add(a, 1.0:f64);
                c:f64 = @mul(a, b);
                return c;
            }
        }
        """)
        program = compile_module(module, "opt")
        data = np.arange(1000, dtype=np.float64)
        result = program.run(args=[from_numpy(data)], chunk_size=64)
        assert np.allclose(result.data, (data * 2) * (data * 2 + 1))

    def test_compressed_domain_statements_skip_buffers(self):
        segment = _first_segment("""
        def main(x:f64): f64 {
            m:bool = @gt(x, 0.5:f64);
            y:f64 = @compress(m, x);
            z:f64 = @mul(y, y);
            s:f64 = @sum(z);
            return s;
        }
        """)
        kernel = generate_kernel(segment)
        # z lives in the compressed domain: its length differs from the
        # base, so it must not write into a base-sized buffer.
        assert "z = (y * y)" in kernel.source

    def test_bool_and_float_buffers_are_separate(self):
        segment = _first_segment("""
        def main(x:f64, y:f64): f64 {
            a:bool = @gt(x, 0.0:f64);
            b:bool = @lt(y, 1.0:f64);
            c:bool = @and(a, b);
            d:f64 = @mul(x, y);
            e:f64 = @add(d, 1.0:f64);
            s:f64 = @sum(e);
            return s;
        }
        """)
        kernel = generate_kernel(segment)
        assert "dtype=np.bool_" in kernel.source
        assert "dtype=np.float64" in kernel.source

    def test_string_comparison_not_buffered(self):
        # @eq over strings writes into a bool out-buffer only via
        # np.equal (which supports it); @and over non-bool operands must
        # fall back — construct the risky case and check correctness.
        module = parse_module("""
        module M {
            def main(s:str, v:f64): f64 {
                m:bool = @eq(s, "keep":str);
                x:f64 = @compress(m, v);
                r:f64 = @sum(x);
                return r;
            }
        }
        """)
        program = compile_module(module, "opt")
        strings = np.empty(4, dtype=object)
        for i, value in enumerate(["keep", "drop", "keep", "drop"]):
            strings[i] = value
        values = np.array([1.0, 10.0, 100.0, 1000.0])
        result = program.run(args=[from_numpy(strings),
                                   from_numpy(values)])
        assert result.item() == pytest.approx(101.0)

    def test_scalar_chain_inputs_stay_scalar(self):
        """Reduction results flowing into later arithmetic must not be
        broadcast to base length by buffered kernels."""
        module = parse_module("""
        module M {
            def main(x:f64): f64 {
                s:f64 = @sum(x);
                c:f64 = @count(x);
                m:f64 = @div(s, c);
                lo:f64 = @min(x);
                d:f64 = @sub(m, lo);
                return d;
            }
        }
        """)
        program = compile_module(module, "opt")
        data = np.array([1.0, 2.0, 3.0, 4.0])
        result = program.run(args=[from_numpy(data)])
        assert len(result) == 1
        assert result.item() == pytest.approx(2.5 - 1.0)
