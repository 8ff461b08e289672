"""The unified pass pipeline: presets, resolution, the PassManager's
fixed-point driver, per-pass stats, IR dumping, and pass idempotence."""

import pytest

from repro.core import ir
from repro.core.context import QueryContext
from repro.core.parser import parse_module
from repro.core.passes import (DEFAULT_DUMP_DIR, MAX_ROUNDS, PRESET_NAMES,
                               MethodPass, OptimizeStats, PassManager,
                               Pipeline, custom_pipeline, preset,
                               registered_pass_names, resolve_pipeline)
from repro.core.printer import print_module
from repro.errors import OptimizerError
from repro.obs.metrics import MetricsRegistry
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
        assert [p.name for p in pipe.passes] == [
            "predicate-pushdown", "column-pruning"]
        assert pipe.ir_passes == []
        assert len(pipe.plan_passes) == 2

    def test_o1_adds_inline_and_the_fixed_point_round(self):
        pipe = preset("O1")
        names = [p.name for p in pipe.ir_passes]
        assert names == ["inline", "list-forwarding", "constprop",
                         "copyprop", "cse", "dce"]
        by_name = {p.name: p for p in pipe.ir_passes}
        assert not by_name["inline"].fixed_point
        for name in names[1:]:
            assert by_name[name].fixed_point, name

    def test_o2_adds_patterns_and_a_cleanup_dce(self):
        pipe = preset("O2")
        names = [p.name for p in pipe.ir_passes]
        assert names == ["inline", "list-forwarding", "constprop",
                         "copyprop", "cse", "dce", "join-predicate-motion",
                         "patterns", "dce"]
        assert not pipe.ir_passes[6].fixed_point
        cleanup = pipe.ir_passes[-1]
        # The trailing dce is the silent cleanup variant: it neither
        # traces, records stats, nor snapshots into --dump-ir.
        assert not cleanup.traced and not cleanup.records \
            and not cleanup.checkpoint

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
        pipe = resolve_pipeline("inline, dce")
        assert [p.name for p in pipe.passes] == ["inline", "dce"]
        assert pipe.fingerprint() == "custom(inline,dce)"

    def test_sequence_of_names(self):
        pipe = resolve_pipeline(["constprop", "dce"])
        assert [p.name for p in pipe.passes] == ["constprop", "dce"]

    def test_unknown_pass_names_the_registry(self):
        with pytest.raises(OptimizerError,
                           match="unknown pass 'loopfusion'"):
            resolve_pipeline("loopfusion")
        with pytest.raises(OptimizerError, match="registered passes"):
            resolve_pipeline("loopfusion")

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
        assert not stats.fixed_point_exhausted
        by_name = {ps.name: ps for ps in stats.pass_stats}
        assert by_name["inline"].rewrites == 1
        assert by_name["dce"].runs >= 1
        for ps in stats.pass_stats:
            assert ps.seconds >= 0.0

    def test_custom_pipeline_runs_only_named_passes(self):
        module = parse_module(Q6_LIKE)
        manager = PassManager(custom_pipeline(["inline", "dce"]))
        optimized, stats = manager.run_module(module, QueryContext(),
                                              entry="main")
        assert {ps.name for ps in stats.pass_stats} == {"inline", "dce"}
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
        assert any(name.startswith("pass:dce") for name in names)

    def test_fixed_point_exhaustion_is_observable(self):
        # A pass that rewrites on every application never converges.
        def oscillate(method):
            return True

        pipe = Pipeline("wiggle",
                        [MethodPass("oscillate", oscillate,
                                    fixed_point=True)])
        module = parse_module(Q6_LIKE)
        metrics = MetricsRegistry()
        tracer = Tracer()
        manager = PassManager(pipe, max_rounds=3)
        with tracer.span("optimize"):
            _, stats = manager.run_module(
                module, QueryContext(tracer=tracer, metrics=metrics),
                entry="main")
        assert stats.fixed_point_exhausted
        assert stats.rounds == 3
        counter = metrics.counter("optimizer.fixed_point_exhausted")
        assert counter.value == 1
        root = tracer.roots[0]
        assert root.attrs["fixed_point_exhausted"] is True
        assert root.attrs["rounds"] == 3

    def test_convergent_run_does_not_flag_exhaustion(self):
        module = parse_module(Q6_LIKE)
        metrics = MetricsRegistry()
        manager = PassManager(preset("O2"), max_rounds=MAX_ROUNDS)
        _, stats = manager.run_module(
            module, QueryContext(metrics=metrics), entry="main")
        assert not stats.fixed_point_exhausted
        assert metrics.counter(
            "optimizer.fixed_point_exhausted").value == 0

    def test_pass_stat_dict_round_trip(self):
        module = parse_module(Q6_LIKE)
        _, stats = PassManager(preset("O2")).run_module(
            module, QueryContext(), entry="main")
        rows = [ps.to_dict() for ps in stats.pass_stats]
        assert {row["name"] for row in rows} \
            >= {"inline", "dce", "patterns"}
        for row in rows:
            assert set(row) == {"name", "level", "runs", "rewrites",
                                "seconds"}


class TestDumpIR:
    def test_snapshots_are_numbered_and_labelled(self, tmp_path):
        module = parse_module(Q6_LIKE)
        dump = tmp_path / "snapshots"
        manager = PassManager(custom_pipeline(["inline", "dce"]),
                              dump_dir=str(dump))
        manager.run_module(module, QueryContext(), entry="main")
        names = sorted(p.name for p in dump.iterdir())
        assert names[0] == "000-input.hir"
        assert names[1] == "001-inline.hir"
        assert any(name.endswith("-dce.hir") for name in names[2:])
        # The input snapshot still contains the UDF; later ones do not.
        assert "def scale" in (dump / "000-input.hir").read_text()
        assert "def scale" not in (dump / names[-1]).read_text()

    def test_default_dump_dir_constant(self):
        assert DEFAULT_DUMP_DIR == "ir-dump"


def _ir_pass_names():
    """Every registered IR pass name (plan passes excluded).

    Classified per-pass through ``custom_pipeline`` (O0 no longer
    contains every plan pass: selectivity-reorder only rides at
    O1/O2)."""
    return [n for n in registered_pass_names()
            if not custom_pipeline([n]).plan_passes]


class TestIdempotence:
    """Applying any registered pass twice must equal applying it once.

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
    @pytest.mark.parametrize("name", _ir_pass_names())
    def test_pass_twice_equals_once(self, source, name):
        once = parse_module(source)
        twice = parse_module(source)
        once, _ = PassManager(custom_pipeline([name])) \
            .run_module(once, QueryContext(), entry="main")
        twice, _ = PassManager(custom_pipeline([name, name])) \
            .run_module(twice, QueryContext(), entry="main")
        assert print_module(once) == print_module(twice)

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
