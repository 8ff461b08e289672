"""The inter-pass IR verifier (``--verify-ir``): seeded mutations are
rejected with the right error, and every workload module verifies
clean — before and after optimization."""

import pytest

from repro.core import ir
from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.parser import parse_module
from repro.core.passes import (MethodPass, PassManager, Pipeline,
                               custom_pipeline, preset)
from repro.core.verify_ir import verify_ir_method, verify_ir_module
from repro.data import generate_tpch
from repro.data.blackscholes import load_blackscholes_table
from repro.engine.storage import Database
from repro.errors import HorseVerifyError, PassVerificationError
from repro.horsepower import HorsePowerSystem
from repro.sql.udf import UDFRegistry
from repro.workloads.bs_queries import (SCALAR_QUERIES, TABLE_QUERIES,
                                        register_bs_udfs)
from repro.workloads.tpch_queries import (PLAIN_QUERIES, UDF_QUERIES,
                                          register_tpch_udfs)

CLEAN = """
module M {
    def helper(x:f64): f64 {
        y:f64 = @mul(x, 2.0:f64);
        return y;
    }
    def main(a:f64): f64 {
        b:f64 = @helper(a);
        c:f64 = @add(b, 1.0:f64);
        return c;
    }
}
"""


def _module():
    return parse_module(CLEAN)


class TestSeededMutations:
    def test_clean_module_verifies(self):
        verify_ir_module(_module())

    def test_use_before_def_is_rejected(self):
        module = _module()
        main = module.methods["main"]
        # Reference a variable no statement ever assigns.
        main.body[1].expr.args[0] = ir.Var("ghost")
        with pytest.raises(HorseVerifyError, match="ghost"):
            verify_ir_module(module)

    def test_wrong_builtin_arity_is_rejected(self):
        module = _module()
        main = module.methods["main"]
        main.body[1].expr = ir.BuiltinCall("add", [ir.Var("b")])
        with pytest.raises(HorseVerifyError, match="add"):
            verify_ir_method(main, module)

    def test_unknown_builtin_is_a_verify_error(self):
        module = _module()
        main = module.methods["main"]
        main.body[1].expr = ir.BuiltinCall("frobnicate", [ir.Var("b")])
        with pytest.raises(HorseVerifyError, match="unknown builtin"):
            verify_ir_method(main, module)

    def test_dangling_method_ref_is_rejected(self):
        module = _module()
        # Simulate a buggy inliner: drop the helper but keep the call.
        del module.methods["helper"]
        with pytest.raises(HorseVerifyError, match="helper"):
            verify_ir_module(module)

    def test_orphaned_statement_is_rejected(self):
        module = _module()
        helper = module.methods["helper"]
        helper.body.append(ir.Return(ir.Var("y")))
        with pytest.raises(HorseVerifyError, match="orphaned"):
            verify_ir_module(module)

    def test_literal_type_mismatch_is_rejected(self):
        module = _module()
        helper = module.methods["helper"]
        helper.body[0] = ir.Assign("y", ht.I64,
                                   ir.Literal(2.0, ht.F64))
        with pytest.raises(HorseVerifyError, match="type mismatch"):
            verify_ir_module(module)

    def test_empty_module_is_rejected(self):
        module = _module()
        module.methods.clear()
        with pytest.raises(HorseVerifyError, match="no methods"):
            verify_ir_module(module)

    def test_return_type_mismatch_is_rejected(self):
        module = _module()
        helper = module.methods["helper"]
        # Declared f64, but the returned variable is declared i64.
        helper.body[0] = ir.Assign("y", ht.I64, ir.Literal(2, ht.I64))
        with pytest.raises(HorseVerifyError,
                           match="return type mismatch"):
            verify_ir_method(helper, module)

    def test_return_literal_type_mismatch_is_rejected(self):
        module = _module()
        helper = module.methods["helper"]
        helper.body[1] = ir.Return(ir.Literal(1, ht.I64))
        with pytest.raises(HorseVerifyError,
                           match="return type mismatch"):
            verify_ir_method(helper, module)

    def test_conflicting_redeclaration_opts_out_of_return_check(self):
        # A variable declared under two different types has no single
        # static type; the return check must not guess.
        module = _module()
        helper = module.methods["helper"]
        helper.body = [
            ir.Assign("y", ht.I64, ir.BuiltinCall("sum", [ir.Var("x")])),
            ir.Assign("y", ht.F64, ir.BuiltinCall("abs", [ir.Var("y")])),
            ir.Return(ir.Var("y")),
        ]
        verify_ir_method(helper, module)


class TestPassManagerVerification:
    """``--verify-ir`` mode: the manager re-verifies after every pass
    and wraps violations in a PassVerificationError naming the pass."""

    def test_broken_pass_is_caught_and_named(self):
        def breaks_ir(method):
            if method.name == "main":
                method.body[0].expr.args[0] = ir.Var("ghost")
                return True
            return False

        pipe = Pipeline("bad", [MethodPass("breaker", breaks_ir)])
        manager = PassManager(pipe, verify=True)
        with pytest.raises(PassVerificationError) as excinfo:
            manager.run_module(_module(), QueryContext(),
                               entry="main")
        assert excinfo.value.pass_name == "breaker"
        assert excinfo.value.method == "main"
        assert "ghost" in excinfo.value.detail

    def test_broken_input_is_caught_before_any_pass(self):
        module = _module()
        del module.methods["helper"]
        manager = PassManager(custom_pipeline(["dce"]), verify=True)
        with pytest.raises(PassVerificationError) as excinfo:
            manager.run_module(module, QueryContext(), entry="main")
        assert excinfo.value.pass_name == "input"

    def test_clean_pipeline_verifies_silently(self):
        manager = PassManager(preset("O2"), verify=True)
        optimized, stats = manager.run_module(
            _module(), QueryContext(), entry="main")
        assert list(optimized.methods) == ["main"]
        assert stats.pipeline == "O2"

    def test_error_message_names_pass_and_method(self):
        err = PassVerificationError("cse", "boom", method="main")
        text = str(err)
        assert "cse" in text and "main" in text and "boom" in text


@pytest.fixture(scope="module")
def tpch_hp():
    db = generate_tpch(scale_factor=0.002)
    hp = HorsePowerSystem(db, UDFRegistry())
    register_tpch_udfs(hp)
    return hp


@pytest.fixture(scope="module")
def bs_hp():
    db = Database()
    load_blackscholes_table(db, 500)
    hp = HorsePowerSystem(db, UDFRegistry())
    register_bs_udfs(hp)
    return hp


class TestWorkloadsVerifyClean:
    """Every workload compiles under ``--verify-ir`` (the manager
    verifies the translator's input module and the state after every
    pass application), and the final module verifies standalone."""

    @pytest.mark.parametrize("name", list(PLAIN_QUERIES))
    def test_tpch_plain(self, tpch_hp, name):
        compiled = tpch_hp.compile_sql(PLAIN_QUERIES[name],
                                       verify_ir=True)
        verify_ir_module(compiled.program.module)

    @pytest.mark.parametrize("name", list(UDF_QUERIES))
    def test_tpch_udf(self, tpch_hp, name):
        compiled = tpch_hp.compile_sql(UDF_QUERIES[name],
                                       verify_ir=True)
        verify_ir_module(compiled.program.module)

    @pytest.mark.parametrize("sql", list(SCALAR_QUERIES.values())
                             + list(TABLE_QUERIES.values()))
    def test_black_scholes(self, bs_hp, sql):
        compiled = bs_hp.compile_sql(sql, verify_ir=True)
        verify_ir_module(compiled.program.module)

    def test_verified_compile_matches_unverified(self, tpch_hp):
        from repro.core.printer import print_module
        sql = PLAIN_QUERIES["q6"]
        plain = tpch_hp.compile_sql(sql)
        verified = tpch_hp.compile_sql(sql, verify_ir=True)
        assert print_module(plain.program.module) \
            == print_module(verified.program.module)
