"""The pass pipeline: presets, resolution, the plan and IR loops,
per-pass stats, IR dumping, and pass idempotence."""

import pytest

from repro.core import builtins as hb
from repro.core import ir
from repro.core.context import QueryContext
from repro.core.limits import QueryLimits
from repro.core.optimizer.analysis import single_assignment_vars
from repro.core.optimizer.simplify import eliminate_dead_code
from repro.core.parser import parse_module
from repro.core.passes import (DEFAULT_DUMP_DIR, PRESET_NAMES, PassManager,
                               Pipeline, custom_pipeline, preset,
                               registered_pass_names, resolve_pipeline,
                               run_plan)
from repro.core.printer import print_module
from repro.errors import OptimizerError
from repro.obs.tracer import Tracer

Q6_LIKE = """
module Q {
    def scale(price:f64, discount:f64): f64 {
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
        t6:f64 = @scale(t4, t5);
        t7:f64 = @sum(t6);
        return t7;
    }
}
"""


class TestPresets:
    def test_preset_names_are_the_public_tuple(self):
        assert PRESET_NAMES == ("O0", "O1", "O2")
        for name in PRESET_NAMES:
            assert preset(name).is_preset

    def test_o0_is_plan_passes_only(self):
        pipe = preset("O0")
        assert pipe.names == ["predicate-pushdown", "column-pruning"]
        assert pipe.ir_passes == ()
        assert len(pipe.plan_passes) == 2

    def test_o1_adds_inline_and_the_fixed_point_round(self):
        # ``simplify`` is the one round: it reaches its fixed point in
        # one application.
        pipe = preset("O1")
        assert [name for name, _ in pipe.ir_passes] \
            == ["inline", "simplify"]

    def test_o2_runs_four_ir_passes(self):
        # simplify's backward slice is the only dead-code elimination:
        # no cleanup sweep follows the patterns.
        pipe = preset("O2")
        assert [name for name, _ in pipe.ir_passes] == [
            "inline", "simplify", "join-predicate-motion", "patterns"]

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(OptimizerError, match="unknown pipeline"):
            preset("O3")


class TestResolution:
    def test_none_maps_opt_level_to_preset(self):
        assert resolve_pipeline(None, opt_level="opt").fingerprint() == "O2"
        assert resolve_pipeline(None, opt_level="naive").fingerprint() \
            == "O0"

    def test_pipeline_passes_through(self):
        pipe = preset("O1")
        assert resolve_pipeline(pipe) is pipe

    def test_string_preset_and_comma_list(self):
        assert resolve_pipeline("O1").fingerprint() == "O1"
        pipe = resolve_pipeline("inline, simplify")
        assert pipe.names == ["inline", "simplify"]
        assert pipe.fingerprint() == "custom(inline,simplify)"

    def test_sequence_of_names(self):
        pipe = resolve_pipeline(["simplify", "patterns"])
        assert pipe.names == ["simplify", "patterns"]

    def test_unknown_pass_names_the_registry(self):
        with pytest.raises(OptimizerError,
                           match="unknown pass 'loopfusion'"):
            resolve_pipeline("loopfusion")
        with pytest.raises(OptimizerError, match="registered passes"):
            resolve_pipeline("loopfusion")

    @pytest.mark.parametrize("name", ["list-forwarding", "constprop",
                                      "copyprop", "cse", "dce"])
    def test_the_old_scalar_pass_names_are_gone(self, name):
        with pytest.raises(OptimizerError, match=f"unknown pass '{name}'"):
            resolve_pipeline(name)

    def test_empty_spec_is_rejected(self):
        with pytest.raises(OptimizerError, match="empty pass list"):
            custom_pipeline([])

    def test_registry_covers_both_levels(self):
        names = registered_pass_names()
        assert "predicate-pushdown" in names and "inline" in names
        for name in names:
            resolve_pipeline([name])  # every advertised name resolves


class TestPassManagerRun:
    def test_o2_inlines_and_collects_stats(self):
        module = parse_module(Q6_LIKE)
        manager = PassManager(preset("O2"))
        optimized, stats = manager.run_module(module, QueryContext(),
                                              entry="main")
        assert list(optimized.methods) == ["main"]
        assert stats.pipeline == "O2"
        assert stats.inlined_methods_removed == 1
        assert stats.rounds == 1
        by_name = {ps.name: ps for ps in stats.pass_stats}
        assert by_name["inline"].rewrites == 1
        assert (by_name["simplify"].runs, by_name["simplify"].rewrites) \
            == (1, 1)
        for ps in stats.pass_stats:
            assert ps.seconds >= 0.0

    def test_custom_pipeline_runs_only_named_passes(self):
        module = parse_module(Q6_LIKE)
        manager = PassManager(custom_pipeline(["inline", "patterns"]))
        optimized, stats = manager.run_module(module, QueryContext(),
                                              entry="main")
        assert {ps.name for ps in stats.pass_stats} == {"inline",
                                                        "patterns"}
        assert stats.rounds == 0  # no simplify
        assert list(optimized.methods) == ["main"]

    def test_pass_spans_are_emitted_under_the_active_tracer(self):
        module = parse_module(Q6_LIKE)
        tracer = Tracer()
        manager = PassManager(preset("O2"))
        with tracer.span("optimize"):
            manager.run_module(module, QueryContext(tracer=tracer),
                               entry="main")
        root = tracer.roots[0]
        names = {span.name for span in root.walk()}
        assert "pass:inline" in names
        assert "pass:simplify" in names
        # Dead code goes in simplify's slice; no dce pass runs.
        assert "pass:dce" not in names

    def test_a_fake_entry_is_a_method_pass(self):
        # A (name, fn) entry the registry does not know runs once per
        # method, through the same checkpoint, span and stats path as
        # the registered passes.
        seen = []

        def probe(method):
            seen.append(method.name)
            return False

        limits = QueryLimits(timeout=3600.0)
        tracer = Tracer()
        module = parse_module(Q6_LIKE)
        _, stats = PassManager(Pipeline("custom", [("probe", probe)])) \
            .run_module(module, QueryContext(tracer=tracer, limits=limits),
                        entry="main")
        assert seen == ["scale", "main"]
        assert limits.checks == 2
        assert [(s.name, s.level, s.runs, s.rewrites)
                for s in stats.pass_stats] == [("probe", "method", 2, 0)]
        assert stats.passes_applied == []
        assert [span.attrs["method"] for span in tracer.all_spans()
                if span.name == "pass:probe"] == ["scale", "main"]

    def test_pass_stat_dict_round_trip(self):
        module = parse_module(Q6_LIKE)
        _, stats = PassManager(preset("O2")).run_module(
            module, QueryContext(), entry="main")
        rows = [ps.to_dict() for ps in stats.pass_stats]
        # inline is the one module-level entry.
        assert [(row["name"], row["level"]) for row in rows] == [
            ("inline", "module"), ("simplify", "method"),
            ("join-predicate-motion", "method"), ("patterns", "method")]
        for row in rows:
            assert set(row) == {"name", "level", "runs", "rewrites",
                                "seconds"}


class TestDumpIR:
    def test_snapshots_are_numbered_and_labelled(self, tmp_path):
        module = parse_module(Q6_LIKE)
        dump = tmp_path / "snapshots"
        manager = PassManager(custom_pipeline(["inline", "simplify"]),
                              dump_dir=str(dump))
        manager.run_module(module, QueryContext(), entry="main")
        names = sorted(p.name for p in dump.iterdir())
        assert names == ["000-input.hir", "001-inline.hir",
                         "002-simplify.hir"]
        # The input snapshot still contains the UDF; later ones do not.
        assert "def scale" in (dump / "000-input.hir").read_text()
        assert "def scale" not in (dump / names[-1]).read_text()

    def test_o2_snapshots_end_after_patterns(self, tmp_path):
        PassManager(preset("O2"), dump_dir=str(tmp_path)).run_module(
            parse_module(Q6_LIKE), QueryContext(), entry="main")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "000-input.hir", "001-inline.hir", "002-simplify.hir",
            "003-join-predicate-motion.hir", "004-patterns.hir"]

    def test_default_dump_dir_constant(self):
        assert DEFAULT_DUMP_DIR == "ir-dump"


class TestPlanLevel:
    def test_plan_passes_run_in_order_with_udfs_and_statistics(self):
        calls = []

        def fake(tag):
            def run(plan, udfs, table_stats):
                calls.append((tag, plan, udfs, table_stats))
                return plan + [tag]
            return run

        pipe = Pipeline("custom", [("predicate-pushdown", fake("a")),
                                   ("simplify", fake("ir")),
                                   ("column-pruning", fake("b"))])
        assert [name for name, _ in pipe.plan_passes] \
            == ["predicate-pushdown", "column-pruning"]
        assert run_plan(pipe, [], "udfs", "stats") == ["a", "b"]
        assert calls == [("a", [], "udfs", "stats"),
                         ("b", ["a"], "udfs", "stats")]


def _ir_pass_names():
    """Every registered IR pass name (plan passes excluded).

    Classified per-pass through ``custom_pipeline`` (O0 no longer
    contains every plan pass: selectivity-reorder only rides at
    O1/O2)."""
    return [n for n in registered_pass_names()
            if not custom_pipeline([n]).plan_passes]


def _uses(method):
    """Every expression the statements of ``method`` evaluate."""
    for stmt in method.walk_stmts():
        yield stmt.expr if isinstance(stmt, (ir.Assign, ir.Return)) \
            else stmt.cond


def _subexprs(expr):
    yield expr
    for child in expr.children():
        yield from _subexprs(child)


def _bound(method):
    """Single-assignment name -> its assignment."""
    single = single_assignment_vars(method)
    return {s.target: s for s in method.walk_stmts()
            if isinstance(s, ir.Assign) and s.target in single}


def _forwardable_uses(method, kinds):
    """Uses of a name bound to an expression of one of ``kinds`` whose
    type equals the name's declared type (a rewrite left undone)."""
    bound = _bound(method)
    types = {name: s.type for name, s in bound.items()}
    found = []
    for expr in _uses(method):
        for node in _subexprs(expr):
            stmt = isinstance(node, ir.Var) and bound.get(node.name)
            if not stmt or not isinstance(stmt.expr, kinds):
                continue
            value = stmt.expr
            value_type = (value.type if isinstance(value, ir.Literal)
                          else types.get(value.name)
                          if isinstance(value, ir.Var) else None)
            if value_type == stmt.type:
                found.append(str(node))
    return found


def _left_list_items(method):
    bound = _bound(method)
    found = []
    for expr in _uses(method):
        for node in _subexprs(expr):
            if isinstance(node, ir.BuiltinCall) \
                    and node.name == "list_item" \
                    and isinstance(node.args[0], ir.Var):
                stmt = bound.get(node.args[0].name)
                if stmt and isinstance(stmt.expr, ir.BuiltinCall) \
                        and stmt.expr.name == "list":
                    found.append(str(node))
    return found


def _left_constants(method):
    found = _forwardable_uses(method, (ir.Literal,))
    for expr in _uses(method):
        for node in _subexprs(expr):
            if isinstance(node, ir.BuiltinCall) and node.args \
                    and hb.BUILTINS[node.name].kind in ("elementwise",
                                                        "reduction") \
                    and all(isinstance(a, ir.Literal) for a in node.args):
                found.append(str(node))
    return found


def _left_copies(method):
    return _forwardable_uses(method, (ir.Var,))


def _left_common_subexpressions(method):
    single = single_assignment_vars(method)
    found = []
    bodies = [method.body] + [b for s in method.walk_stmts()
                              for b in ((s.then_body, s.else_body)
                                        if isinstance(s, ir.If) else
                                        (s.body,) if isinstance(s, ir.While)
                                        else ())]
    for body in bodies:
        seen = set()
        for stmt in body:
            if not (isinstance(stmt, ir.Assign) and stmt.target in single
                    and isinstance(stmt.expr, (ir.BuiltinCall, ir.Cast))):
                continue
            call = stmt.expr.expr if isinstance(stmt.expr, ir.Cast) \
                else stmt.expr
            if isinstance(call, ir.BuiltinCall) \
                    and not hb.BUILTINS[call.name].is_pure:
                continue
            if not set(ir.expr_vars(stmt.expr)) <= single:
                continue
            key = (str(stmt.expr), stmt.type)
            if key in seen:
                found.append(key[0])
            seen.add(key)
    return found


def _left_dead_code(method):
    return [method.name] if eliminate_dead_code(method) else []


#: The old scalar passes ``simplify`` absorbed -> what each would still
#: find to rewrite in a method.
ABSORBED = {
    "list-forwarding": _left_list_items,
    "constprop": _left_constants,
    "copyprop": _left_copies,
    "cse": _left_common_subexpressions,
    "dce": _left_dead_code,
}


class TestIdempotence:
    """Applying any registered pass twice must equal applying it once.

    The scalar passes that ``simplify`` absorbed (``ABSORBED``) are
    checked through it: ``simplify`` twice equals ``simplify`` once,
    and after one application that pass's rewrite finds nothing left.

    Runs over the workload-shaped module above plus a Black-Scholes-
    style branching kernel — the two IR shapes the parity suites
    exercise."""

    BS_LIKE = """
    module BS {
        def main(spot:f64, strike:f64): f64 {
            a:f64 = @div(spot, strike);
            b:f64 = @log(a);
            c:f64 = @mul(b, 2.0:f64);
            d:f64 = @mul(b, 2.0:f64);
            e:f64 = @add(c, d);
            f:f64 = @mul(e, 1.0:f64);
            return f;
        }
    }
    """

    # q19_udf's shape: a predicate UDF (``1.0 .* mask``, tested ``> 0``)
    # over the columns of both join sides.
    JOIN_LIKE = """
    module J {
        def match(q:f64, b:str): f64 {
            x0:bool = @lt(q, 11.0:f64);
            x1:bool = @eq(b, "Brand#12":str);
            x2:bool = @and(x0, x1);
            x3:f64 = @mul(1.0:f64, x2);
            return x3;
        }
        def main(): f64 {
            t0:table = @load_table(`lineitem:sym);
            t1:i64 = check_cast(@column_value(t0, `l_partkey:sym), i64);
            t2:f64 = check_cast(@column_value(t0, `l_quantity:sym), f64);
            t3:table = @load_table(`part:sym);
            t4:i64 = check_cast(@column_value(t3, `p_partkey:sym), i64);
            t5:str = check_cast(@column_value(t3, `p_brand:sym), str);
            ji:list<i64> = @join_index(t1, t4, `inner:sym);
            li:i64 = @list_item(ji, 0:i64);
            ri:i64 = @list_item(ji, 1:i64);
            j6:f64 = @index(t2, li);
            j7:str = @index(t5, ri);
            j8:f64 = @match(j6, j7);
            m:bool = @gt(j8, 0:i64);
            f9:f64 = @compress(m, j6);
            s:f64 = @sum(f9);
            return s;
        }
    }
    """

    @pytest.mark.parametrize("source", [Q6_LIKE, BS_LIKE, JOIN_LIKE],
                             ids=["tpch-q6", "black-scholes", "join-udf"])
    @pytest.mark.parametrize("name", _ir_pass_names() + list(ABSORBED))
    def test_pass_twice_equals_once(self, source, name):
        applied = "simplify" if name in ABSORBED else name
        once = parse_module(source)
        twice = parse_module(source)
        once, _ = PassManager(custom_pipeline([applied])) \
            .run_module(once, QueryContext(), entry="main")
        twice, _ = PassManager(custom_pipeline([applied, applied])) \
            .run_module(twice, QueryContext(), entry="main")
        assert print_module(once) == print_module(twice)
        if name in ABSORBED:
            for method in once.methods.values():
                assert ABSORBED[name](method) == []

    # One chance for each absorbed pass.
    ABSORBED_PROBE = """
    module P {
        def main(x:f64): f64 {
            l:list<f64> = @list(x, x);
            a:f64 = @list_item(l, 0:i64);
            k:f64 = 2.0:f64;
            c:f64 = @add(1.0:f64, 2.0:f64);
            y:f64 = a;
            p:f64 = @mul(y, k);
            q:f64 = @mul(y, k);
            dead:f64 = @sub(x, c);
            r:f64 = @add(p, q);
            s:f64 = @add(r, c);
            return s;
        }
    }
    """

    @pytest.mark.parametrize("name", list(ABSORBED))
    def test_absorbed_pass_check_sees_its_rewrite(self, name):
        # The checks above are not vacuous: each finds its rewrite in
        # the probe, and none is left after one ``simplify``.
        module = parse_module(self.ABSORBED_PROBE)
        assert ABSORBED[name](module.methods["main"]) != []
        once, _ = PassManager(custom_pipeline(["simplify"])).run_module(
            parse_module(self.ABSORBED_PROBE), QueryContext(), entry="main")
        assert ABSORBED[name](once.methods["main"]) == []

    def test_whole_o2_pipeline_is_idempotent(self):
        module = parse_module(Q6_LIKE)
        once, _ = PassManager(preset("O2")).run_module(
            module, QueryContext(), entry="main")
        again, _ = PassManager(preset("O2")).run_module(
            once, QueryContext(), entry="main")
        assert print_module(once) == print_module(again)

    def test_o2_moves_the_join_predicate_once(self):
        # The sweep above is only meaningful for join-predicate-motion
        # if the join source gives it something to move.
        once, stats = PassManager(preset("O2")).run_module(
            parse_module(self.JOIN_LIKE), QueryContext(), entry="main")
        by_name = {ps.name: ps for ps in stats.pass_stats}
        assert by_name["join-predicate-motion"].rewrites == 1
        assert "@join_index(t1_0, t4_0, `inner:sym)" in print_module(once)
        again, _ = PassManager(preset("O2")).run_module(
            once, QueryContext(), entry="main")
        assert print_module(once) == print_module(again)
