"""The one verifier (:mod:`repro.core.verify`) at both depths: a table
of seeded mutations, each rejected with the right error class and
message; the same rejections through the pass manager (``--verify-ir``);
the manager's once-per-state verification; and one sweep over every
workload query."""

import numpy as np
import pytest

from repro.core import ir, passes
from repro.core import types as ht
from repro.core.context import QueryContext
from repro.core.parser import parse_method, parse_module
from repro.core.passes import (PassManager, Pipeline, custom_pipeline,
                               preset, registered_pass_names,
                               resolve_pipeline)
from repro.core.printer import print_method, print_module
from repro.core.verify import verify_method, verify_module
from repro.data import generate_tpch
from repro.data.blackscholes import load_blackscholes_table
from repro.engine.storage import Database
from repro.errors import (BuiltinError, HorseTypeError, HorseVerifyError,
                          PassVerificationError)
from repro.engine import EngineSession
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


def _record_verify_calls(monkeypatch) -> list:
    """Every ``verify_method`` call the pass manager makes, as
    ``(method name, full, printed method)``."""
    calls = []
    real = passes.verify_method

    def recording(method, module=None, *, full=False):
        calls.append((method.name, full, print_method(method)))
        return real(method, module, full=full)

    monkeypatch.setattr(passes, "verify_method", recording)
    return calls


def _mutated(mutate):
    """CLEAN with ``mutate(helper, main, module)`` applied."""
    def build():
        module = _module()
        mutate(module.methods.get("helper"), module.methods["main"],
               module)
        return module
    return build


def _single(body, params=(), ret=ht.F64):
    """A module holding one method ``main`` with ``body``."""
    def build():
        module = ir.Module("M")
        module.add(ir.Method("main", list(params), ret, body))
        return module
    return build


def _main(text):
    """A module whose only method is ``def main<text>``."""
    return lambda: parse_module("module M { def main" + text + " }")


def _set_expr(index, expr):
    def mutate(helper, main, module):
        main.body[index].expr = expr
    return mutate


def _set_helper(index, stmt):
    def mutate(helper, main, module):
        helper.body[index] = stmt
    return mutate


#: (id, module builder, needs full depth?, error class, substrings).
#: ``full=False`` rows are rejected at both depths; ``full=True`` rows
#: only by ``verify_module(m, full=True)`` — what ``--verify-ir`` runs.
MUTATIONS = [
    # -- structure, default depth ---------------------------------------
    ("empty-module", lambda: ir.Module("Empty"),
     False, HorseVerifyError, ["no methods"]),
    ("missing-return",
     _single([ir.Assign("a", ht.F64, ir.Literal(1.0, ht.F64))]),
     False, HorseVerifyError, ["return"]),
    ("one-armed-if-not-terminal",
     _main("(c:bool): i64 { if (c) { return 1:i64; } }"),
     False, HorseVerifyError, ["return"]),
    ("branch-local-definition",
     _main("""(c:bool): i64 {
         if (c) { x:i64 = 1:i64; } else { y:i64 = 2:i64; }
         return x; }"""),
     False, HorseVerifyError, ["before assignment"]),
    ("loop-body-definition",
     _main("(c:bool): i64 { while (c) { x:i64 = 1:i64; } return x; }"),
     False, HorseVerifyError, ["before assignment"]),
    ("use-before-def",
     _mutated(_set_expr(1, ir.BuiltinCall(
         "add", [ir.Var("ghost"), ir.Literal(1.0, ht.F64)]))),
     False, HorseVerifyError, ["'ghost' used before assignment"]),
    ("builtin-arity",
     _mutated(_set_expr(1, ir.BuiltinCall("add", [ir.Var("b")]))),
     False, HorseVerifyError, ["@add expects 2"]),
    ("dangling-method-ref",
     _mutated(lambda helper, main, module:
              module.methods.pop("helper")),
     False, HorseVerifyError, ["unknown method 'helper'"]),
    ("method-call-arity",
     _mutated(_set_expr(0, ir.MethodCall("helper",
                                         [ir.Var("a"), ir.Var("a")]))),
     False, HorseVerifyError, ["expects 1"]),
    ("duplicate-parameters",
     _single([ir.Return(ir.Var("x"))],
             params=[ir.Param("x", ht.F64), ir.Param("x", ht.F64)]),
     False, HorseVerifyError, ["duplicate"]),
    # -- structure, full depth only -------------------------------------
    ("unknown-builtin",
     _mutated(_set_expr(1, ir.BuiltinCall("frobnicate",
                                          [ir.Var("b")]))),
     True, HorseVerifyError, ["unknown builtin"]),
    ("orphaned-statement",
     _mutated(lambda helper, main, module:
              helper.body.append(ir.Return(ir.Var("y")))),
     True, HorseVerifyError, ["orphaned", "return y;"]),
    # -- the one type rule: stated types must match exactly -------------
    ("literal-type-mismatch",
     _main("(a:f64): f64 { b:i64 = 1.5:f64; return a; }"),
     True, HorseTypeError, ["type mismatch", "b:i64 = 1.5:f64;"]),
    ("cast-type-mismatch",
     _main("(a:f64): f64 { b:i64 = check_cast(a, f64); return a; }"),
     True, HorseTypeError, ["type mismatch", "declares i64"]),
    ("literal-into-wildcard-declaration",
     _single([ir.Assign("b", ht.WILDCARD, ir.Literal(1, ht.I64)),
              ir.Return(ir.Literal(1.0, ht.F64))]),
     True, HorseTypeError, ["type mismatch", "= 1:i64;"]),
    ("return-literal-mismatch",
     _mutated(_set_helper(1, ir.Return(ir.Literal(1, ht.I64)))),
     True, HorseTypeError, ["return type mismatch", "return 1:i64;"]),
    ("return-variable-mismatch",
     _mutated(_set_helper(0, ir.Assign("y", ht.I64,
                                       ir.Literal(2, ht.I64)))),
     True, HorseTypeError, ["return type mismatch", "type i64"]),
    # -- inferred types and shapes --------------------------------------
    ("element-type-into-arith",
     _main("(s:str): f64 { x:f64 = @mul(s, 2.0:f64); return x; }"),
     True, HorseTypeError,
     ["@mul", "numeric", "x:f64 = @mul(s, 2.0:f64);"]),
    ("broadcast-5-vs-7",
     _main("""(): i64 { a:i64 = @range(5:i64); b:i64 = @range(7:i64);
                        c:i64 = @add(a, b); return c; }"""),
     True, HorseTypeError, ["5 vs 7", "c:i64 = @add(a, b);"]),
    ("cast-across-containers",
     _main("(t:table): f64 { x:f64 = check_cast(t, f64); return x; }"),
     True, HorseTypeError, ["cannot cast"]),
    ("non-bool-compress-mask",
     _main("""(v:f64): f64 { m:f64 = @mul(v, 2.0:f64);
                             c:f64 = @compress(m, v); return c; }"""),
     True, HorseTypeError, ["bool"]),
    ("comparison-across-groups",
     _main("(s:str): bool { c:bool = @lt(s, 1.0:f64); return c; }"),
     True, HorseTypeError, ["compare"]),
    ("method-argument-mismatch",
     lambda: parse_module(CLEAN.replace("a:f64", "a:table")),
     True, HorseTypeError, ["@helper parameter 'x'"]),
]


def _rows(keep=lambda full: True):
    return [pytest.param(*row[1:], id=row[0]) for row in MUTATIONS
            if keep(row[2])]


def _assert_rejected(error, needles, module, **depth):
    with pytest.raises(error) as exc:
        verify_module(module, **depth)
    for needle in needles:
        assert needle in str(exc.value)


class TestMutationTable:
    @pytest.mark.parametrize("build,full,error,needles", _rows())
    def test_rejected_at_full_depth(self, build, full, error, needles):
        _assert_rejected(error, needles, build(), full=True)

    @pytest.mark.parametrize("build,full,error,needles",
                             _rows(lambda full: not full))
    def test_rejected_at_default_depth(self, build, full, error,
                                       needles):
        _assert_rejected(error, needles, build())

    @pytest.mark.parametrize("build,full,error,needles",
                             _rows(lambda full: full))
    def test_default_depth_is_structural_only(self, build, full, error,
                                              needles):
        if needles == ["unknown builtin"]:
            # Still an error, but the builtin table's own.
            with pytest.raises(BuiltinError):
                verify_module(build())
        else:
            verify_module(build())

    @pytest.mark.parametrize("build,full,error,needles", _rows())
    def test_rejected_through_the_manager(self, build, full, error,
                                          needles):
        manager = PassManager(custom_pipeline(["simplify"]), verify=True)
        with pytest.raises(PassVerificationError) as exc:
            manager.run_module(build(), QueryContext(), entry="main")
        assert exc.value.pass_name == "input"
        for needle in needles:
            assert needle in exc.value.detail

    @pytest.mark.parametrize("text", [
        CLEAN,
        """module M { def main(c:bool): i64 {
            if (c) { return 1:i64; } else { return 0:i64; } } }""",
        """module M { def main(c:bool): i64 {
            if (c) { x:i64 = 1:i64; } else { x:i64 = 2:i64; }
            return x; } }""",
        """module M { def main(v:f64): f64 {
            m:bool = @gt(v, 1.0:f64); c:f64 = @compress(m, v);
            s:f64 = @sum(c); return s; } }""",
        # A variable declared under two types has no one static type;
        # the return check must not guess.
        """module M { def main(x:f64): f64 {
            y:i64 = @sum(x); y:f64 = @abs(y); return y; } }""",
    ])
    def test_accepted_at_both_depths(self, text):
        verify_module(parse_module(text))
        verify_module(parse_module(text), full=True)

    def test_method_without_a_module(self):
        method = parse_method(
            "def m(c:bool): i64 { x:i64 = @f(c); return x; }")
        verify_method(method)  # calls resolve only against a module
        verify_method(method, full=True)


class TestManagerVerification:
    """``verify=True``: the manager verifies its input and re-verifies
    after every pass, wrapping violations in a PassVerificationError
    naming the pass; each method state is verified at full depth
    once."""

    def test_broken_pass_is_caught_and_named(self):
        def breaks_ir(method):
            if method.name == "main":
                method.body[0].expr.args[0] = ir.Var("ghost")
                return True
            return False

        pipe = Pipeline("bad", [("breaker", breaks_ir)])
        manager = PassManager(pipe, verify=True)
        with pytest.raises(PassVerificationError) as excinfo:
            manager.run_module(_module(), QueryContext(), entry="main")
        assert excinfo.value.pass_name == "breaker"
        assert excinfo.value.method == "main"
        assert "ghost" in excinfo.value.detail

    def test_clean_pipeline_verifies_silently(self, monkeypatch):
        calls = _record_verify_calls(monkeypatch)
        manager = PassManager(preset("O2"), verify=True)
        optimized, stats = manager.run_module(
            _module(), QueryContext(), entry="main")
        assert list(optimized.methods) == ["main"]
        assert stats.pipeline == "O2"
        # The input is checked once, then main once after each
        # application that rewrote it; the applications that changed
        # nothing re-check nothing.
        rewrites = sum(stat.rewrites for stat in stats.pass_stats)
        assert [name for name, _, _ in calls] \
            == ["helper", "main"] + ["main"] * rewrites
        assert all(full for _, full, _ in calls)
        assert len(set(calls)) == len(calls)

    def test_error_message_names_pass_and_method(self):
        text = str(PassVerificationError("simplify", "boom", method="main"))
        assert "simplify" in text and "main" in text and "boom" in text

    def test_typecheck_is_a_registered_pass(self):
        assert "typecheck" in registered_pass_names()
        manager = PassManager(resolve_pipeline(["typecheck"]))
        manager.run_module(_module(), QueryContext(), entry="main")
        ill_typed = parse_module(
            "module M { def main(s:str): f64 "
            "{ x:f64 = @mul(s, 2.0:f64); return x; } }")
        with pytest.raises(HorseTypeError):
            manager.run_module(ill_typed, QueryContext(), entry="main")

    @staticmethod
    def _one_method():
        return parse_module(
            "module M { def main(v:f64): f64 "
            "{ x:f64 = @mul(v, 2.0:f64); return x; } }")

    @pytest.mark.parametrize("mutate,needle", [
        (lambda m: m.body.append(ir.Return(ir.Var("x"))), "orphaned"),
        (lambda m: m.body.insert(0, ir.Assign(
            "b", ht.I64, ir.Literal(1.5, ht.F64))), "type mismatch"),
        (lambda m: m.body.__setitem__(
            -1, ir.Return(ir.Literal(1, ht.I64))), "return type mismatch"),
        (lambda m: m.body[0].expr.args.__setitem__(
            0, ir.SymbolLit("oops")), "@mul"),
    ], ids=["orphan", "literal", "return", "operand"])
    def test_any_reported_change_is_reverified(self, mutate, needle):
        # Whatever the buggy pass says it preserves: a reported change
        # drops the method's verdict, so the new state is checked at
        # full depth.
        bad = ("buggy", lambda m: mutate(m) is None)
        manager = PassManager(Pipeline("custom", [bad]), verify=True)
        with pytest.raises(PassVerificationError) as exc:
            manager.run_module(self._one_method(), QueryContext(),
                               entry="main")
        assert exc.value.pass_name == "buggy"
        assert exc.value.method == "main"
        assert needle in exc.value.detail

    def test_unchanged_method_keeps_its_verdict(self, monkeypatch):
        calls = _record_verify_calls(monkeypatch)
        noop = ("noop", lambda method: False)
        manager = PassManager(Pipeline("custom", [noop]), verify=True)
        manager.run_module(self._one_method(), QueryContext(),
                           entry="main")
        # The input is checked; the pass reported no change, so the
        # post-pass check calls nothing.
        assert [(name, full) for name, full, _ in calls] \
            == [("main", True)]

    def test_inline_rewrite_is_reported_and_rechecked(self, monkeypatch):
        # @helper is called in statement position (expanded) and in
        # expression position (kept), so no method is removed — the
        # rewrite of main must still count, and its cached verdict
        # must not outlive it.
        module = parse_module("""
        module M {
            def helper(x:f64): f64 {
                y:f64 = @mul(x, 2.0:f64);
                return y;
            }
            def main(a:f64): f64 {
                b:f64 = @helper(a);
                c:f64 = @add(b, @helper(a));
                return c;
            }
        }
        """)
        calls = _record_verify_calls(monkeypatch)
        manager = PassManager(custom_pipeline(["inline"]), verify=True)
        inlined, stats = manager.run_module(module, QueryContext(),
                                            entry="main")
        assert list(inlined.methods) == ["helper", "main"]
        assert stats.inlined_methods_removed == 0
        assert stats.pass_stats[0].rewrites == 1
        assert "inline" in stats.passes_applied
        # helper + main as input, both again after the rewrite.
        assert [(name, full) for name, full, _ in calls] == [
            ("helper", True), ("main", True),
            ("helper", True), ("main", True)]


@pytest.fixture(scope="module")
def tpch_hp():
    db = generate_tpch(scale_factor=0.002)
    hp = EngineSession(db)
    register_tpch_udfs(hp)
    return hp


@pytest.fixture(scope="module")
def bs_hp():
    db = Database()
    load_blackscholes_table(db, 400)
    hp = EngineSession(db)
    register_bs_udfs(hp)
    return hp


class TestWorkloadsVerifyClean:
    """Every workload query compiles under ``verify_ir=True`` (input
    and every pass application verified at full depth), its final
    module verifies standalone, and verification changes nothing."""

    @staticmethod
    def _check(hp, sql):
        verified = hp.compile_sql(sql, verify_ir=True)
        verify_module(verified.program.module, full=True)
        assert print_module(verified.program.module) \
            == print_module(hp.compile_sql(sql).program.module)

    @pytest.mark.parametrize("name", sorted(PLAIN_QUERIES))
    def test_tpch_plain(self, tpch_hp, name):
        self._check(tpch_hp, PLAIN_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(UDF_QUERIES))
    def test_tpch_udf(self, tpch_hp, name):
        self._check(tpch_hp, UDF_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(SCALAR_QUERIES))
    def test_bs_scalar(self, bs_hp, name):
        self._check(bs_hp, SCALAR_QUERIES[name])

    @pytest.mark.parametrize("name", sorted(TABLE_QUERIES))
    def test_bs_table(self, bs_hp, name):
        self._check(bs_hp, TABLE_QUERIES[name])

    def test_results_match_with_verification(self, bs_hp):
        sql = TABLE_QUERIES["bs0_base"]
        plain = bs_hp.run_sql(sql, use_cache=False)
        checked = bs_hp.run_sql(sql, verify_ir=True, use_cache=False)
        for name in plain.column_names:
            a = np.asarray(plain.column(name).data)
            b = np.asarray(checked.column(name).data)
            assert np.array_equal(a, b, equal_nan=True), name

    def test_each_state_is_verified_once(self, tpch_hp, monkeypatch):
        # A verify_ir compile runs the full depth once per (method,
        # state), from the manager's verify hook, and nothing else
        # verifies alongside it.
        states, active = [], []
        real = passes.verify_method
        real_verify = PassManager._verify

        def recording(method, module=None, *, full=False):
            states.append((bool(active), full, print_method(method)))
            return real(method, module, full=full)

        def recording_verify(self, *args, **kwargs):
            active.append(True)
            try:
                return real_verify(self, *args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(passes, "verify_method", recording)
        monkeypatch.setattr("repro.core.verify.verify_method", recording)
        monkeypatch.setattr(PassManager, "_verify", recording_verify)
        tpch_hp.compile_sql(UDF_QUERIES["q6"], verify_ir=True)
        # Inlining rewrites q6_udf's main: every verification came from
        # the manager, was at full depth, of a state not seen before,
        # and the optimizer produced several.
        assert all(hooked and full for hooked, full, _ in states)
        assert len(set(states)) == len(states) > 1
