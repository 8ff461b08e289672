"""The compile-time type/shape checker (the semantic half of
``--verify-ir``): seeded ill-typed mutations are rejected before
execution with a diagnostic naming the statement, every workload
compiles clean with verification on (bit-identical to the unverified
compile), and the per-method verdict is cached across passes."""

import numpy as np
import pytest

from repro.core import ir
from repro.core import types as ht
from repro.core.analysis import (SCALAR, broadcast_shapes, check_method,
                                 check_module, infer_method)
from repro.core.analysis.typeshape import vector_shape
from repro.core.context import QueryContext
from repro.core.parser import parse_module
from repro.core.passes import MethodPass, PassManager, Pipeline, preset
from repro.core.printer import print_module
from repro.data import generate_tpch
from repro.data.blackscholes import load_blackscholes_table
from repro.engine.storage import Database
from repro.errors import HorseTypeError, PassVerificationError
from repro.horsepower import HorsePowerSystem
from repro.sql.udf import UDFRegistry
from repro.workloads.bs_queries import (SCALAR_QUERIES, TABLE_QUERIES,
                                        register_bs_udfs)
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)


def _method(body, params=(), ret=ht.F64):
    return ir.Method("main", list(params), ret, body)


class TestSeededIllTypedMutations:
    """The acceptance gate: each mutation class is caught at compile
    time, and the diagnostic names the offending statement."""

    def test_wrong_element_type_into_arith_builtin(self):
        method = _method([
            ir.Assign("x", ht.F64, ir.BuiltinCall("mul", [
                ir.Var("s"), ir.Literal(2.0, ht.F64)])),
            ir.Return(ir.Var("x")),
        ], params=[ir.Param("s", ht.STR)])
        with pytest.raises(HorseTypeError) as exc:
            check_method(method)
        assert "@mul" in str(exc.value)
        assert "numeric" in str(exc.value)
        assert "x:f64 = @mul(s, 2.0:f64);" in str(exc.value)

    def test_broadcast_incompatible_lengths(self):
        method = _method([
            ir.Assign("a", ht.I64, ir.BuiltinCall("range", [
                ir.Literal(5, ht.I64)])),
            ir.Assign("b", ht.I64, ir.BuiltinCall("range", [
                ir.Literal(7, ht.I64)])),
            ir.Assign("c", ht.I64, ir.BuiltinCall("add", [
                ir.Var("a"), ir.Var("b")])),
            ir.Return(ir.Var("c")),
        ], ret=ht.I64)
        with pytest.raises(HorseTypeError) as exc:
            check_method(method)
        assert "5 vs 7" in str(exc.value)
        assert "c:i64 = @add(a, b);" in str(exc.value)

    def test_bad_cast_is_rejected(self):
        method = _method([
            ir.Assign("x", ht.F64, ir.Cast(ir.Var("t"), ht.F64)),
            ir.Return(ir.Var("x")),
        ], params=[ir.Param("t", ht.TABLE)])
        with pytest.raises(HorseTypeError, match="cannot cast"):
            check_method(method)

    def test_bool_constraint_on_compress_mask(self):
        method = _method([
            ir.Assign("m", ht.F64, ir.BuiltinCall("mul", [
                ir.Var("v"), ir.Literal(2.0, ht.F64)])),
            ir.Assign("c", ht.F64, ir.BuiltinCall("compress", [
                ir.Var("m"), ir.Var("v")])),
            ir.Return(ir.Var("c")),
        ], params=[ir.Param("v", ht.F64)])
        with pytest.raises(HorseTypeError, match="bool"):
            check_method(method)

    def test_comparison_across_groups_is_rejected(self):
        method = _method([
            ir.Assign("c", ht.BOOL, ir.BuiltinCall("lt", [
                ir.Var("s"), ir.Literal(1.0, ht.F64)])),
            ir.Return(ir.Var("c")),
        ], params=[ir.Param("s", ht.STR)], ret=ht.BOOL)
        with pytest.raises(HorseTypeError, match="compare"):
            check_method(method)

    def test_method_call_argument_mismatch(self):
        module = parse_module("""
        module M {
            def helper(x:f64): f64 {
                y:f64 = @mul(x, 2.0:f64);
                return y;
            }
            def main(t:table): f64 {
                b:f64 = @helper(t);
                return b;
            }
        }
        """)
        with pytest.raises(HorseTypeError, match="helper"):
            check_module(module)

    def test_clean_module_checks_silently(self):
        module = parse_module("""
        module M {
            def main(v:f64): f64 {
                m:bool = @gt(v, 1.0:f64);
                c:f64 = @compress(m, v);
                s:f64 = @sum(c);
                return s;
            }
        }
        """)
        check_module(module)


class TestShapeLattice:
    def test_scalar_broadcasts_with_anything(self):
        shape = broadcast_shapes([SCALAR, vector_shape(length=7)])
        assert shape.length == 7

    def test_equal_lengths_merge(self):
        shape = broadcast_shapes([vector_shape(length=7),
                                  vector_shape(length=7)])
        assert shape.length == 7

    def test_unequal_lengths_raise(self):
        with pytest.raises(HorseTypeError, match="3 vs 7"):
            broadcast_shapes([vector_shape(length=3),
                              vector_shape(length=7)],
                             context="@add")

    def test_matching_tokens_flow_through(self):
        a = vector_shape(token=("rows", "t"))
        b = vector_shape(token=("rows", "t"))
        assert broadcast_shapes([a, b]).token == ("rows", "t")

    def test_compressed_vectors_share_mask_token(self):
        # The Q6 fact: two compressions by the same mask agree.
        module = parse_module("""
        module M {
            def main(x:f64, y:f64): f64 {
                m:bool = @gt(x, 1.0:f64);
                a:f64 = @compress(m, x);
                b:f64 = @compress(m, y);
                p:f64 = @mul(a, b);
                s:f64 = @sum(p);
                return s;
            }
        }
        """)
        check_module(module)  # must not report a mismatch
        facts = infer_method(module.methods["main"], module)
        body = module.methods["main"].body
        shape_a = facts.stmt_facts[id(body[1])].shape
        shape_b = facts.stmt_facts[id(body[2])].shape
        assert shape_a.token == shape_b.token


class TestPassManagerIntegration:
    """verify=True runs the semantic checker after every pass and
    caches the per-method verdict."""

    def _ill_typed_module(self):
        module = parse_module("""
        module M {
            def main(s:str): f64 {
                x:f64 = @mul(s, 2.0:f64);
                return x;
            }
        }
        """)
        return module

    def test_ill_typed_input_fails_before_any_pass(self):
        manager = PassManager(preset("O2"), verify=True)
        with pytest.raises(PassVerificationError) as exc:
            manager.run_module(self._ill_typed_module(), QueryContext(),
                               entry="main")
        assert exc.value.pass_name == "input"

    def test_typecheck_is_a_registered_pass(self):
        from repro.core.passes import (registered_pass_names,
                                       resolve_pipeline)
        assert "typecheck" in registered_pass_names()
        pipeline = resolve_pipeline(["typecheck"])
        module = parse_module("""
        module M {
            def main(v:f64): f64 {
                x:f64 = @mul(v, 2.0:f64);
                return x;
            }
        }
        """)
        manager = PassManager(pipeline)
        # clean: no raise
        manager.run_module(module, QueryContext(), entry="main")

    def test_typecheck_pass_raises_on_bad_module(self):
        from repro.core.passes import resolve_pipeline
        manager = PassManager(resolve_pipeline(["typecheck"]))
        with pytest.raises(HorseTypeError):
            manager.run_module(self._ill_typed_module(), QueryContext(),
                               entry="main")

    def test_verdict_is_cached_across_passes(self):
        module = parse_module("""
        module M {
            def main(v:f64): f64 {
                x:f64 = @mul(v, 2.0:f64);
                return x;
            }
        }
        """)
        manager = PassManager(preset("O2"), verify=True)
        manager.run_module(module, QueryContext(), entry="main")
        cache = manager.analyses
        # One miss to compute main's verdict; every later pass hits.
        typecheck_misses = cache.misses
        assert typecheck_misses >= 1
        assert cache.hits > cache.misses

    def test_invalidation_forces_recheck(self):
        module = parse_module("""
        module M {
            def main(v:f64): f64 {
                x:f64 = @mul(v, 2.0:f64);
                return x;
            }
        }
        """)

        def break_types(method):
            # A buggy rewrite: retype the multiply's operand slot.
            method.body[0] = ir.Assign(
                "x", ht.F64,
                ir.BuiltinCall("mul", [ir.SymbolLit("oops"),
                                       ir.Literal(2.0, ht.F64)]))
            return True

        bad = MethodPass("buggy", break_types,
                         invalidates=("typecheck",))
        manager = PassManager(Pipeline("custom", [bad]), verify=True)
        with pytest.raises(PassVerificationError) as exc:
            manager.run_module(module, QueryContext(), entry="main")
        assert exc.value.pass_name == "buggy"

    def test_preserving_pass_keeps_verdict(self):
        module = parse_module("""
        module M {
            def main(v:f64): f64 {
                x:f64 = @mul(v, 2.0:f64);
                return x;
            }
        }
        """)
        noop = MethodPass("noop", lambda method: True, invalidates=())
        manager = PassManager(Pipeline("custom", [noop]), verify=True)
        manager.run_module(module, QueryContext(), entry="main")
        # input check missed once; the post-pass check hit the cache
        # because the pass declared it invalidates nothing.
        assert manager.analyses.hits >= 1
        assert manager.analyses.misses == 1


@pytest.fixture(scope="module")
def tpch_hp():
    db = generate_tpch(scale_factor=0.002)
    hp = HorsePowerSystem(db, UDFRegistry())
    register_tpch_udfs(hp)
    return hp


@pytest.fixture(scope="module")
def bs_hp():
    db = Database()
    load_blackscholes_table(db, 400)
    hp = HorsePowerSystem(db, UDFRegistry())
    register_bs_udfs(hp)
    return hp


class TestWorkloadsTypecheckClean:
    """Every workload compiles under ``--verify-ir`` (now structural
    *and* semantic) with output bit-identical to the unverified
    compile."""

    @pytest.mark.parametrize("name", sorted(PLAIN_QUERIES))
    def test_tpch_plain(self, tpch_hp, name):
        self._assert_identical(tpch_hp, PLAIN_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(UDF_QUERIES))
    def test_tpch_udf(self, tpch_hp, name):
        self._assert_identical(tpch_hp, UDF_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(SCALAR_QUERIES))
    def test_bs_scalar(self, bs_hp, name):
        self._assert_identical(bs_hp, SCALAR_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(TABLE_QUERIES))
    def test_bs_table(self, bs_hp, name):
        self._assert_identical(bs_hp, TABLE_QUERIES[name])

    @staticmethod
    def _assert_identical(hp, sql):
        unverified = hp.compile_sql(sql)
        verified = hp.compile_sql(sql, verify_ir=True)
        assert print_module(verified.program.module) \
            == print_module(unverified.program.module)

    def test_results_match_with_verification(self, bs_hp):
        sql = TABLE_QUERIES["bs0_base"]
        plain = bs_hp.run_sql(sql, use_cache=False)
        checked = bs_hp.run_sql(sql, verify_ir=True, use_cache=False)
        for name in plain.column_names:
            a = np.asarray(plain.column(name).data)
            b = np.asarray(checked.column(name).data)
            assert np.array_equal(a, b, equal_nan=True), name
