"""The dataflow-analysis framework: CFG construction, the worklist
solver, and the five standard analyses (liveness, reaching
definitions, use-def/def-use chains, constants, intervals) — plus the
shape lattice of type/shape inference."""

import math

import pytest

from repro.core import ir
from repro.core import types as ht
from repro.core.analysis import (SCALAR, broadcast_shapes, build_cfg,
                                 constant_facts, def_use_chains,
                                 infer_method, interval_facts, liveness,
                                 reaching_definitions, use_def_chains)
from repro.core.analysis.dataflow import NONCONST
from repro.core.analysis.typeshape import vector_shape
from repro.core.parser import parse_module
from repro.errors import HorseTypeError


def _straight_line():
    return ir.Method("main", [ir.Param("v", ht.F64)], ht.F64, [
        ir.Assign("a", ht.F64, ir.BuiltinCall("mul", [
            ir.Var("v"), ir.Literal(2.0, ht.F64)])),
        ir.Assign("dead", ht.F64, ir.BuiltinCall("add", [
            ir.Var("v"), ir.Literal(1.0, ht.F64)])),
        ir.Assign("b", ht.F64, ir.BuiltinCall("sum", [ir.Var("a")])),
        ir.Return(ir.Var("b")),
    ])


def _loop():
    return ir.Method("main", [ir.Param("n", ht.I64)], ht.I64, [
        ir.Assign("i", ht.I64, ir.Literal(0, ht.I64)),
        ir.Assign("acc", ht.I64, ir.Literal(0, ht.I64)),
        ir.Assign("cond", ht.BOOL, ir.BuiltinCall("lt", [
            ir.Var("i"), ir.Var("n")])),
        ir.While(ir.Var("cond"), [
            ir.Assign("acc", ht.I64, ir.BuiltinCall("add", [
                ir.Var("acc"), ir.Var("i")])),
            ir.Assign("i", ht.I64, ir.BuiltinCall("add", [
                ir.Var("i"), ir.Literal(1, ht.I64)])),
            ir.Assign("cond", ht.BOOL, ir.BuiltinCall("lt", [
                ir.Var("i"), ir.Var("n")])),
        ]),
        ir.Return(ir.Var("acc")),
    ])


def _branch():
    return ir.Method("main", [ir.Param("p", ht.BOOL)], ht.I64, [
        ir.Assign("x", ht.I64, ir.Literal(1, ht.I64)),
        ir.If(ir.Var("p"), [
            ir.Assign("x", ht.I64, ir.Literal(2, ht.I64)),
        ], [
            ir.Assign("y", ht.I64, ir.Literal(3, ht.I64)),
        ]),
        ir.Return(ir.Var("x")),
    ])


class TestCFG:
    def test_straight_line_is_one_real_block(self):
        cfg = build_cfg(_straight_line())
        stmts = list(cfg.statements())
        assert len(stmts) == 4
        # Exactly one block carries statements; it flows to exit.
        carrying = [b for b in cfg.blocks if b.stmts]
        assert len(carrying) == 1
        assert cfg.exit in cfg.succs[carrying[0].index]

    def test_loop_has_back_edge(self):
        cfg = build_cfg(_loop())
        back_edges = [(b.index, s) for b in cfg.blocks
                      for s in cfg.succs[b.index] if s <= b.index]
        assert back_edges, "while loop must produce a back edge"

    def test_branch_joins(self):
        cfg = build_cfg(_branch())
        # Some block has two predecessors: the join point.
        preds = cfg.preds
        assert any(len(p) == 2 for p in preds)

    def test_every_statement_appears_once(self):
        for method in (_straight_line(), _loop(), _branch()):
            cfg = build_cfg(method)
            ids = [id(s) for s in cfg.statements()]
            assert len(ids) == len(set(ids))
            walked = [id(s) for s in method.walk_stmts()]
            assert set(ids) == set(walked)


class TestLiveness:
    def test_dead_definition_is_not_live(self):
        method = _straight_line()
        live = liveness(method)
        ret = method.body[-1]
        live_in, _ = live[id(ret)]
        assert "b" in live_in
        assert "dead" not in live_in

    def test_loop_carried_variable_stays_live(self):
        method = _loop()
        live = liveness(method)
        body_first = method.body[3].body[0]
        live_in, _ = live[id(body_first)]
        # acc and i feed the next iteration; n feeds the condition.
        assert {"acc", "i", "n"} <= live_in

    def test_def_kills_liveness(self):
        method = _straight_line()
        live = liveness(method)
        first = method.body[0]
        live_in, live_out = live[id(first)]
        assert "a" not in live_in
        assert "a" in live_out


class TestReachingDefinitions:
    def test_param_def_reaches_first_use(self):
        method = _straight_line()
        reaching = reaching_definitions(method)
        first = method.body[0]
        fact_in, _ = reaching[id(first)]
        assert ("v", ("param", "v")) in fact_in

    def test_branch_merges_both_defs(self):
        method = _branch()
        chains = use_def_chains(method)
        ret = method.body[-1]
        defs = chains[id(ret)]["x"]
        # x = 1 before the if and x = 2 inside it both reach.
        assert len(defs) == 2

    def test_loop_body_sees_two_defs(self):
        method = _loop()
        chains = use_def_chains(method)
        body_first = method.body[3].body[0]
        assert len(chains[id(body_first)]["acc"]) == 2
        assert len(chains[id(body_first)]["i"]) == 2

    def test_def_use_is_inverse_of_use_def(self):
        method = _straight_line()
        uses = def_use_chains(method)
        first = method.body[0]          # defines a
        third = method.body[2]          # uses a
        assert id(third) in uses[("stmt", id(first))]
        # The parameter feeds both the first two statements.
        assert id(first) in uses[("param", "v")]


class TestConstants:
    def test_literals_propagate(self):
        method = _straight_line()
        consts = constant_facts(method)
        third = method.body[2]
        fact_in, _ = consts[id(third)]
        assert fact_in.get("a") is NONCONST  # builtin result: unknown

    def test_branch_disagreement_is_nonconst(self):
        method = _branch()
        consts = constant_facts(method)
        ret = method.body[-1]
        fact_in, _ = consts[id(ret)]
        assert fact_in.get("x") is NONCONST

    def test_branch_agreement_stays_const(self):
        method = ir.Method("main", [ir.Param("p", ht.BOOL)], ht.I64, [
            ir.Assign("x", ht.I64, ir.Literal(7, ht.I64)),
            ir.If(ir.Var("p"), [
                ir.Assign("x", ht.I64, ir.Literal(7, ht.I64)),
            ], []),
            ir.Return(ir.Var("x")),
        ])
        consts = constant_facts(method)
        fact_in, _ = consts[id(method.body[-1])]
        assert fact_in.get("x") == 7

    def test_loop_head_is_nonconst(self):
        method = _loop()
        consts = constant_facts(method)
        fact_in, _ = consts[id(method.body[3])]
        assert fact_in.get("i") is NONCONST
        assert fact_in.get("acc") is NONCONST


class TestIntervals:
    def test_range_bounds(self):
        method = ir.Method("main", [], ht.I64, [
            ir.Assign("r", ht.I64, ir.BuiltinCall("range", [
                ir.Literal(10, ht.I64)])),
            ir.Return(ir.Var("r")),
        ])
        iv = interval_facts(method)
        fact_in, _ = iv[id(method.body[-1])]
        assert fact_in["r"] == (0.0, 9.0)

    def test_arithmetic_propagates(self):
        method = ir.Method("main", [], ht.I64, [
            ir.Assign("a", ht.I64, ir.Literal(3, ht.I64)),
            ir.Assign("b", ht.I64, ir.Literal(4, ht.I64)),
            ir.Assign("c", ht.I64, ir.BuiltinCall("add", [
                ir.Var("a"), ir.Var("b")])),
            ir.Return(ir.Var("c")),
        ])
        iv = interval_facts(method)
        fact_in, _ = iv[id(method.body[-1])]
        assert fact_in["c"] == (7.0, 7.0)

    def test_loop_widens_instead_of_diverging(self):
        method = _loop()
        iv = interval_facts(method)  # must terminate
        fact_in, _ = iv[id(method.body[-1])]
        lo, hi = fact_in["i"]
        assert hi == math.inf  # widened: the loop bound is dynamic

    def test_comparison_is_bool_interval(self):
        method = _loop()
        iv = interval_facts(method)
        _, fact_out = iv[id(method.body[2])]
        assert fact_out["cond"] == (0.0, 1.0)


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
        facts = infer_method(module.methods["main"], module,
                             strict=True)  # must not report a mismatch
        body = module.methods["main"].body
        shape_a = facts.stmt_facts[id(body[1])].shape
        shape_b = facts.stmt_facts[id(body[2])].shape
        assert shape_a.token == shape_b.token
