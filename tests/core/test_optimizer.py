"""Unit tests for the optimizer passes (inline, simplify, patterns, join
predicate motion)."""

import pytest

from repro.core import ir
from repro.core import types as ht
from repro.core.optimizer import optimize
from repro.core.optimizer.fusion import FusedItem, segment_method
from repro.core.optimizer.inline import can_inline, inline_methods
from repro.core.optimizer.patterns import apply_patterns
from repro.core.optimizer.simplify import (backward_slice,
                                           eliminate_dead_code, simplify)
from repro.core.parser import parse_method, parse_module
from repro.core.printer import print_method, print_module
from repro.core.verify import verify_module

# Figure 6 of the paper: the scalar-UDF version of the example query.
FIGURE_6 = """
module ExampleQuery {
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


class TestInlining:
    def test_udf_body_is_merged_into_main(self):
        module = parse_module(FIGURE_6)
        inlined = inline_methods(module)
        # The UDF is inlined at its only call site and removed.
        assert list(inlined.methods) == ["main"]
        text = print_module(inlined)
        assert "calcRevenueChangeScalar" not in text
        assert "@mul" in text
        verify_module(inlined)

    def test_inlined_module_is_semantically_identical(self):
        import numpy as np
        from repro.core import TableValue, from_numpy
        from repro.core.interp import run_module

        table = TableValue([
            ("l_extendedprice", from_numpy(
                np.array([10.0, 20.0, 30.0]))),
            ("l_discount", from_numpy(np.array([0.10, 0.02, 0.06]))),
        ])
        module = parse_module(FIGURE_6)
        inlined = inline_methods(module)
        original = run_module(module, {"lineitem": table})
        optimized = run_module(inlined, {"lineitem": table})
        assert original.item() == pytest.approx(optimized.item())

    def test_multiple_call_sites_all_inlined(self):
        source = """
        module M {
            def double(x:f64): f64 {
                y:f64 = @mul(x, 2.0:f64);
                return y;
            }
            def main(a:f64): f64 {
                b:f64 = @double(a);
                c:f64 = @double(b);
                d:f64 = @add(b, c);
                return d;
            }
        }
        """
        module = parse_module(source)
        inlined = inline_methods(module)
        assert list(inlined.methods) == ["main"]
        verify_module(inlined)

    def test_reassigned_parameter_gets_a_private_copy(self):
        source = """
        module M {
            def bump(x:f64): f64 {
                x:f64 = @add(x, 1.0:f64);
                return x;
            }
            def main(a:f64): f64 {
                b:f64 = @bump(a);
                c:f64 = @add(a, b);
                return c;
            }
        }
        """
        from repro.core import F64, vector
        from repro.core.interp import run_module

        module = parse_module(source)
        inlined = inline_methods(module)
        verify_module(inlined)
        result = run_module(inlined, args=[vector([10.0], F64)])
        # a must still be 10 after the call: 10 + 11.
        assert result.item() == pytest.approx(21.0)

    def test_control_flow_callee_is_not_inlined(self):
        source = """
        module M {
            def pick(x:i64): i64 {
                c:bool = @gt(x, 0:i64);
                if (c) {
                    r:i64 = 1:i64;
                } else {
                    r:i64 = 0:i64;
                }
                return r;
            }
            def main(a:i64): i64 {
                b:i64 = @pick(a);
                return b;
            }
        }
        """
        module = parse_module(source)
        assert not can_inline(module.methods["pick"])
        inlined = inline_methods(module)
        assert "pick" in inlined.methods

    def test_nested_calls_inline_to_fixpoint(self):
        source = """
        module M {
            def inner(x:f64): f64 {
                y:f64 = @mul(x, 3.0:f64);
                return y;
            }
            def outer(x:f64): f64 {
                y:f64 = @inner(x);
                z:f64 = @add(y, 1.0:f64);
                return z;
            }
            def main(a:f64): f64 {
                b:f64 = @outer(a);
                return b;
            }
        }
        """
        inlined = inline_methods(parse_module(source))
        assert list(inlined.methods) == ["main"]


class TestConstProp:
    def test_literal_propagates_and_folds(self):
        method = parse_method("""
        def main(): f64 {
            a:f64 = 2.0:f64;
            b:f64 = 3.0:f64;
            c:f64 = @mul(a, b);
            return c;
        }
        """)
        assert simplify(method)
        # After substitution, @mul(2.0, 3.0) folds to 6.0, which is
        # substituted into the return in the same sweep.
        assert print_method(method).splitlines()[1:-1] == \
            ["    return 6.0:f64;"]

    def test_loop_carried_variables_not_propagated(self):
        method = parse_method("""
        def main(n:i64): i64 {
            i:i64 = 0:i64;
            c:bool = @lt(i, n);
            while (c) {
                i:i64 = @add(i, 1:i64);
                c:bool = @lt(i, n);
            }
            return i;
        }
        """)
        simplify(method)
        # The loop must still reference i, not the constant 0.
        loop = method.body[2]
        assert isinstance(loop, ir.While)
        text = print_method(method)
        assert "@add(i, 1:i64)" in text


class TestCopyProp:
    def test_alias_collapses(self):
        method = parse_method("""
        def main(a:f64): f64 {
            b:f64 = a;
            c:f64 = @mul(b, b);
            return c;
        }
        """)
        assert simplify(method)
        assert "@mul(a, a)" in print_method(method)


class TestCSE:
    def test_duplicate_expression_computed_once(self):
        method = parse_method("""
        def main(a:f64, b:f64): f64 {
            x:f64 = @mul(a, b);
            y:f64 = @mul(a, b);
            z:f64 = @add(x, y);
            return z;
        }
        """)
        assert simplify(method)
        text = print_method(method)
        assert text.count("@mul(a, b)") == 1

    def test_source_builtins_never_merged(self):
        method = parse_method("""
        def main(): list<table> {
            a:table = @load_table(`t:sym);
            b:table = @load_table(`t:sym);
            r:list<table> = @list(a, b);
            return r;
        }
        """)
        assert not simplify(method)


class TestDCE:
    def test_unused_column_computation_removed(self):
        # The bs2 scenario: a computed value never reaches the return.
        method = parse_method("""
        def main(price:f64, vol:f64): f64 {
            expensive:f64 = @exp(vol);
            keep:f64 = @mul(price, 2.0:f64);
            r:f64 = @sum(keep);
            return r;
        }
        """)
        assert simplify(method)
        text = print_method(method)
        assert "@exp" not in text
        assert "@mul" in text

    def test_backward_slice_includes_transitive_deps(self):
        method = parse_method("""
        def main(a:f64): f64 {
            b:f64 = @mul(a, 2.0:f64);
            c:f64 = @add(b, 1.0:f64);
            dead:f64 = @exp(a);
            return c;
        }
        """)
        live = backward_slice(method)
        assert {"a", "b", "c"} <= live
        assert "dead" not in live

    def test_transitively_dead_chain_removed(self):
        method = parse_method("""
        def main(a:f64): f64 {
            u:f64 = @exp(a);
            v:f64 = @log(u);
            w:f64 = @sqrt(v);
            r:f64 = @mul(a, a);
            return r;
        }
        """)
        assert simplify(method)
        assert len(method.body) == 2

    def test_cleanup_sweep_deletes_without_rewriting(self):
        method = parse_method("""
        def main(a:f64): f64 {
            u:f64 = @exp(a);
            b:f64 = a;
            r:f64 = @mul(b, b);
            return r;
        }
        """)
        assert eliminate_dead_code(method)
        assert "@mul(b, b)" in print_method(method)
        assert "@exp" not in print_method(method)


class TestSimplify:
    """What the one forward sweep adds over its parts."""

    def test_a_dead_statement_is_never_the_representative(self):
        # The Morgan shape: ``a`` is dead, and ``b`` equals it only once
        # ``k2`` is forwarded to ``k``.  ``b`` is what the result reads,
        # so ``b`` survives.
        method = parse_method("""
        def main(k:f64, n:f64): f64 {
            a:f64 = @sub(k, n);
            k2:f64 = k;
            b:f64 = @sub(k2, n);
            return b;
        }
        """)
        assert simplify(method)
        assert print_method(method).splitlines()[1:-1] == [
            "    b:f64 = @sub(k, n);", "    return b;"]

    def test_a_live_statement_is_the_representative(self):
        method = parse_method("""
        def main(k:f64, n:f64): f64 {
            a:f64 = @sub(k, n);
            k2:f64 = k;
            b:f64 = @sub(k2, n);
            c:f64 = @add(a, b);
            return c;
        }
        """)
        assert simplify(method)
        assert "c:f64 = @add(a, a);" in print_method(method)

    @pytest.mark.parametrize("expr,value", [("@div(7:i64, 2:i64)", 3),
                                            ("@lt(1:i64, 2:i64)", 1)])
    def test_a_literal_of_another_type_stays_the_coercion(self, expr,
                                                          value):
        from repro.core.interp import run_module

        source = f"""
        module M {{
            def main(): i64 {{
                r:i64 = {expr};
                return r;
            }}
        }}
        """
        module = parse_module(source)
        assert simplify(module.methods["main"])
        text = print_method(module.methods["main"])
        assert "return r;" in text  # folded, but not substituted
        result = run_module(module)
        assert result.type == ht.I64 and result.data.tolist() == [value]

    def test_an_alias_of_another_type_stays_the_coercion(self):
        module = parse_module("""
        module M {
            def main(x:f64): i64 {
                y:f64 = @mul(x, 1.5:f64);
                t:i64 = y;
                u:i64 = @mul(t, 2:i64);
                return u;
            }
        }
        """)
        optimized, _ = optimize(module)
        assert "t:i64 = y;" in print_module(optimized)

    def test_an_unknown_declaration_is_no_coercion(self):
        # ``optimize`` on a module whose ``?`` declarations were not
        # resolved still forwards through them.
        method = parse_method("""
        def main(a:f64): f64 {
            b:unknown = a;
            k:unknown = 2.0:f64;
            c:f64 = @mul(b, k);
            return c;
        }
        """)
        assert simplify(method)
        assert "c:f64 = @mul(a, 2.0:f64);" in print_method(method)

    def test_availability_is_scoped_per_block(self):
        method = parse_method("""
        def main(a:f64, c:bool): f64 {
            x:f64 = @mul(a, a);
            if (c) {
                y:f64 = @mul(a, a);
                r:f64 = @add(x, y);
            } else {
                r:f64 = x;
            }
            return r;
        }
        """)
        simplify(method)
        assert print_method(method).count("@mul(a, a)") == 2


class TestPatterns:
    def test_avg_splits_into_sum_and_count(self):
        method = parse_method("""
        def main(x:f64): f64 {
            m:f64 = @avg(x);
            return m;
        }
        """)
        assert apply_patterns(method)
        text = print_method(method)
        assert "@sum" in text and "@count" in text and "@div" in text
        assert "@avg" not in text

    def test_pattern_respects_multiple_consumers(self):
        # No pattern rewrites a compress, however many reductions read it:
        # the general fusion rule takes both sums into one loop.
        method = parse_method("""
        def main(m:bool, x:f64): f64 {
            a:f64 = @compress(m, x);
            s:f64 = @sum(a);
            c:f64 = @sum(a);
            r:f64 = @add(s, c);
            return r;
        }
        """)
        before = print_method(method)
        assert not apply_patterns(method)
        assert print_method(method) == before
        fused = [item.segment for item in segment_method(method)
                 if isinstance(item, FusedItem)]
        assert [segment.outputs for segment in fused] == \
            [[("s", "reduce:sum"), ("c", "reduce:sum")]]


class TestPipeline:
    def test_full_pipeline_on_figure6(self):
        module = parse_module(FIGURE_6)
        optimized, stats = optimize(module)
        verify_module(optimized)
        assert list(optimized.methods) == ["main"]
        assert stats.inlined_methods_removed == 1
        # After inlining, the whole WHERE/SELECT pipeline — predicate,
        # both compresses, the multiply and the sum — is one loop whose
        # only output is the accumulated sum (the paper's Figure 3): the
        # mask never leaves the kernel.
        fused = [item.segment
                 for item in segment_method(optimized.methods["main"],
                                            optimized)
                 if isinstance(item, FusedItem)]
        assert len(fused) == 1
        ops = [stmt.expr.name for stmt in fused[0].stmts
               if isinstance(stmt.expr, ir.BuiltinCall)]
        assert ops == ["geq", "compress", "compress", "mul", "sum"]
        assert [role for _, role in fused[0].outputs] == ["reduce:sum"]


class TestMaskPeephole:
    """``x = @gt(@mul(c, m), 0)`` → ``x = m`` for a positive literal
    ``c`` and a ``bool`` ``m`` (the inlined ``1.0 .* mask > 0`` shape)."""

    SHAPE = """
    def main(a:f64): bool {{
        m:{mtype} = @gt(a, 1.0:f64);
        t:f64 = @mul({scale}, m);
        x:bool = @{test}(t, 0:i64);
        return x;
    }}
    """

    def _fold(self, mtype="bool", scale="1.0:f64", test="gt"):
        """What ``x`` is computed by: ``m`` when the test folded (``x``
        is then forwarded into the return and deleted)."""
        method = parse_method(self.SHAPE.format(mtype=mtype, scale=scale,
                                                test=test))
        simplify(method)
        for stmt in method.body:
            if isinstance(stmt, ir.Assign) and stmt.target == "x":
                return stmt.expr
        return method.body[-1].expr

    def test_positive_scale_of_a_bool_mask_folds_to_the_mask(self):
        assert str(self._fold()) == "m"
        assert str(self._fold(scale="3:i64")) == "m"

    def test_reversed_operands_and_an_alias_still_fold(self):
        method = parse_method("""
        def main(a:f64): bool {
            m:bool = @gt(a, 1.0:f64);
            t:f64 = @mul(m, 2.5:f64);
            u:f64 = t;
            x:bool = @gt(u, 0.0:f64);
            return x;
        }
        """)
        assert simplify(method)
        assert str(method.body[-1].expr) == "m"
        assert len(method.body) == 2  # the scaling and the alias are dead

    @pytest.mark.parametrize("scale", ["0.0:f64", "-1.0:f64", "0:i64"])
    def test_non_positive_scale_does_not_fire(self, scale):
        assert str(self._fold(scale=scale)).startswith("@gt(")

    def test_integer_mask_does_not_fire(self):
        # @mul(1.0, m) > 0 is not m when m may be 2 or -1.
        assert str(self._fold(mtype="i64")).startswith("@gt(")

    def test_geq_does_not_fire(self):
        # c .* m >= 0 holds for every row: it is not m.
        assert str(self._fold(test="geq")).startswith("@geq(")

    def test_o2_folds_the_inlined_udf_mask(self):
        from repro.data.tpch import generate_tpch
        from repro.engine import EngineSession
        from repro.workloads.tpch_queries import (UDF_QUERIES,
                                                  register_tpch_udfs)

        with EngineSession(generate_tpch(0.002, seed=1)) as session:
            register_tpch_udfs(session)
            compiled = session.compile_sql(UDF_QUERIES["q6"])
        text = print_module(compiled.program.module)
        assert "@mul(1.0:f64" not in text and "@gt(" not in text


# ---------------------------------------------------------------------------
# join predicate motion
# ---------------------------------------------------------------------------

JOIN = """
module Q {{
    def main(): list<unknown> {{
        tl:table = @load_table(`l:sym);
        lk:i64 = check_cast(@column_value(tl, `k:sym), i64);
        lk2:i64 = check_cast(@column_value(tl, `k2:sym), i64);
        lx:f64 = check_cast(@column_value(tl, `x:sym), f64);
        ls:str = check_cast(@column_value(tl, `s:sym), str);
        tr:table = @load_table(`r:sym);
        rk:i64 = check_cast(@column_value(tr, `k:sym), i64);
        rk2:i64 = check_cast(@column_value(tr, `k2:sym), i64);
        ry:f64 = check_cast(@column_value(tr, `y:sym), f64);
        rs:str = check_cast(@column_value(tr, `s:sym), str);
        ji:list<i64> = @join_index({lkeys}, {rkeys}, `inner:sym);
        li:i64 = @list_item(ji, 0:i64);
        ri:i64 = @list_item(ji, 1:i64);
        jx:f64 = @index(lx, li);
        jls:str = @index(ls, li);
        jy:f64 = @index(ry, ri);
        jrs:str = @index(rs, ri);
        {predicate}
        fx:f64 = @compress(m, jx);
        fy:f64 = @compress(m, jy);
        fs:str = @compress(m, jls);
        {extra}
        out:list<unknown> = @list(fx, fy, fs{extra_col});
        return out;
    }}
}}
"""

#: Predicates by the sides their atoms read: ``aL`` / ``bL`` left only,
#: ``aR`` / ``bR`` right only, ``both`` reads both sides.
ATOMS = """
        aL:bool = @gt(jx, 20.0:f64);
        bL:bool = @eq(jls, "b":str);
        aR:bool = @lt(jy, 60.0:f64);
        bR:bool = @neq(jrs, "c":str);
        both:bool = @lt(jx, jy);
"""


def _join_module(predicate, *, lkeys="lk", rkeys="rk", extra="",
                 extra_col=""):
    return parse_module(JOIN.format(
        lkeys=lkeys, rkeys=rkeys, predicate=ATOMS + predicate,
        extra=extra, extra_col=extra_col))


def _join_tables(seed=3, left_rows=40, right_rows=15):
    """Duplicate keys on both sides and keys without a partner."""
    import numpy as np

    from repro.core import TableValue, from_numpy, vector

    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d"]

    def table(n, x_name):
        return TableValue([
            ("k", from_numpy(rng.integers(0, 12, n).astype(np.int64))),
            ("k2", from_numpy(rng.integers(0, 2, n).astype(np.int64))),
            (x_name, from_numpy(rng.uniform(0, 100, n))),
            ("s", vector([words[i] for i in rng.integers(0, 4, n)],
                         ht.STR)),
        ])

    return {"l": table(left_rows, "x"), "r": table(right_rows, "y")}


def _columns(result):
    return [vec.data.tolist() for vec in result]


def _moved(module, tables=None):
    """Apply the pass to a copy; returns ``(changed, printed main)``
    after checking the result is bit-identical to the original's."""
    from repro.core.interp import run_module
    from repro.core.optimizer.join_motion import move_join_predicates

    tables = tables or _join_tables()
    before = _columns(run_module(module, tables))
    moved = parse_module(print_module(module))
    changed = move_join_predicates(moved.methods["main"])
    verify_module(moved)
    assert _columns(run_module(moved, tables)) == before
    again = parse_module(print_module(moved))
    assert not move_join_predicates(again.methods["main"])  # idempotent
    return changed, print_method(moved.methods["main"])


def _join_call(text):
    return next(line.strip() for line in text.splitlines()
                if "@join_index" in line)


class TestJoinPredicateMotion:
    def test_left_conjunct_filters_the_left_side_only(self):
        changed, text = _moved(_join_module("m:bool = @and(aL, both);"))
        assert changed
        assert "@join_index(lk_0, rk, `inner:sym)" in _join_call(text)
        assert "pm_0:bool = @gt(lx, 20.0:f64);" in text
        assert "lx_0:f64 = @compress(pm_0, lx);" in text
        assert "jx:f64 = @index(lx_0, li);" in text
        # The joined mask stays and re-checks the surviving pairs.
        assert "m:bool = @and(aL, both);" in text

    def test_right_conjunct_filters_the_right_side_only(self):
        # The q12_udf shape: the whole predicate reads one side.
        changed, text = _moved(_join_module("""
        t:bool = @and(aR, bR);
        m:bool = @and(both, t);"""))
        assert changed
        assert "@join_index(lk, rk_0, `inner:sym)" in _join_call(text)
        assert "@and(pm_0, pm_1)" in text

    def test_or_of_ands_projects_onto_both_sides(self):
        # The q19 shape: each side keeps the OR of its own factors.
        changed, text = _moved(_join_module("""
        c1:bool = @and(aL, aR);
        c2:bool = @and(bL, bR);
        m:bool = @or(c1, c2);"""))
        assert changed
        assert "@join_index(lk_0, rk_0, `inner:sym)" in _join_call(text)
        assert text.count("@or(") == 3  # m, plus one projection per side

    def test_two_key_join_compresses_every_key(self):
        changed, text = _moved(
            _join_module("m:bool = @and(aL, aR);",
                         lkeys="@list(lk, lk2)", rkeys="@list(rk, rk2)"))
        assert changed
        assert ("@join_index(@list(lk_0, lk2_0), @list(rk_0, rk2_0), "
                "`inner:sym)") in _join_call(text)

    def test_string_key_and_a_pool_defined_after_the_join(self):
        # The plain q19 shape: the IN list's pool is built after the
        # join, so it moves above it with the projection.
        changed, text = _moved(_join_module(
            """pool:str = @concat("a":str, "b":str);
        inl:bool = @member(jrs, pool);
        m:bool = @and(inl, both);""", lkeys="ls", rkeys="rs"))
        assert changed
        assert "@join_index(ls, rs_0, `inner:sym)" in _join_call(text)
        lines = [line.strip() for line in text.splitlines()]
        pool = lines.index('pool:str = @concat("a":str, "b":str);')
        assert pool < lines.index(_join_call(text))

    def test_empty_side_after_the_filter(self):
        changed, _ = _moved(_join_module(
            'none:bool = @eq(jrs, "zz":str);\n'
            '        m:bool = @and(none, aL);'))
        assert changed

    def test_gather_used_outside_the_mask_does_not_fire(self):
        # q14: an aggregate over every joined row.
        changed, _ = _moved(_join_module(
            "m:bool = @and(aL, aR);", extra="total:f64 = @sum(jx);",
            extra_col=", total"))
        assert not changed

    def test_not_of_a_two_sided_conjunction_does_not_fire(self):
        changed, _ = _moved(_join_module("""
        t:bool = @and(aL, aR);
        m:bool = @not(t);"""))
        assert not changed

    def test_reduction_in_the_mask_inputs_does_not_fire(self):
        changed, _ = _moved(_join_module("""
        mx:f64 = @max(jx);
        big:bool = @lt(jx, mx);
        m:bool = @and(big, aR);"""))
        assert not changed

    def test_a_second_mask_does_not_fire(self):
        changed, _ = _moved(_join_module(
            "m:bool = @and(aL, aR);", extra="gx:f64 = @compress(aL, jx);",
            extra_col=", gx"))
        assert not changed

    def test_o2_runs_it_after_the_fixed_point_group(self):
        module = _join_module("m:bool = @and(aL, aR);")
        optimized, stats = optimize(module)
        by_name = {ps.name: ps for ps in stats.pass_stats}
        assert by_name["join-predicate-motion"].rewrites == 1
        assert "lk_0" in print_module(optimized)
        _, o1 = optimize(_join_module("m:bool = @and(aL, aR);"),
                         pipeline="O1")
        assert "join-predicate-motion" not in {ps.name
                                               for ps in o1.pass_stats}
