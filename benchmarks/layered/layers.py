"""Per-layer metrics: a staged run and a traced run.

The *staged run* calls each layer's public function one by one —
``parse_sql`` → ``plan_query`` + ``plan_to_json`` → ``build_query_module``
→ ``optimize`` → ``compile_module`` → ``CompiledQuery.run`` — under the
benchmark's own span recorder.  The *traced run* attaches the engine's
``Tracer`` (and, separately, an ``AllocationProfile``) to an explicit
query context and reads kernel, chunk and bind-tables time from the span
tree.  Neither feeds an end-to-end metric.  Timings are sums over the
workload's programs of each program's best sample (``measure.best``), so
the layers of one workload add up to its compile and execution time.

Whatever is compared is measured side by side: warm times drift by
several percent over the life of a process on this class of machine, so
a ratio against the primary phase's times would mostly show the drift.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import replace

from benchmarks.layered import check
from benchmarks.layered.measure import MIB, Primary, best, checked_run, \
    fresh_compile, geomean, timed
from benchmarks.layered.spans import SpanRecorder, self_seconds
from benchmarks.layered.workloads import Env, Program
from repro.core import ir
from repro.core.compiler import compile_module
from repro.core.optimizer import optimize
from repro.core.optimizer.fusion import IfItem, OpaqueItem, WhileItem, \
    segment_method
from repro.engine.session import CompiledQuery
from repro.horsepower.translate import build_query_module, referenced_udfs
from repro.matlang.frontend import MatlabProgram, matlab_to_module
from repro.matlang.interp import MatlabInterpreter
from repro.matlang.parser import parse_program
from repro.obs import AllocationProfile, Tracer
from repro.sql.parser import parse_sql
from repro.sql.plan import plan_to_json
from repro.sql.planner import plan_query

STAGES = ("parse", "plan", "translate", "optimize", "codegen")
PASSES = ("inline", "list-forwarding", "constprop", "copyprop", "cse",
          "dce", "patterns")
ROUNDS = 3              # direct / plain / traced / profiled rounds
SIDE_SAMPLES = 3        # T2/T1 samples per program
OTHER_ENGINE_RUNS = 2   # timed runs of naive / baseline, after one cold
CACHE_HITS = 20
_KERNEL_ENGINE = {"pygen": "python", "cgen": "c"}


def _stmts(body: list) -> int:
    count = 0
    for stmt in body:
        count += 1
        if isinstance(stmt, ir.If):
            count += _stmts(stmt.then_body) + _stmts(stmt.else_body)
        elif isinstance(stmt, ir.While):
            count += _stmts(stmt.body)
    return count


def _module_stmts(module: ir.Module) -> int:
    return sum(_stmts(m.body) for m in module.methods.values())


def _plan_nodes(node: dict) -> int:
    return 1 + sum(_plan_nodes(node[key])
                   for key in ("child", "left", "right") if key in node)


def _opaque_items(plan: list) -> int:
    count = 0
    for item in plan:
        if isinstance(item, OpaqueItem):
            count += 1
        elif isinstance(item, IfItem):
            count += _opaque_items(item.then_plan) \
                + _opaque_items(item.else_plan)
        elif isinstance(item, WhileItem):
            count += _opaque_items(item.body_plan)
    return count


def _udf_specs(udf):
    # Dates cross the UDF boundary as int64 day counts.
    return [("i64" if t.kind == "date" else t.kind, "vector")
            for t in udf.param_types]


def staged_compile(env: Env, prog: Program, rec: SpanRecorder):
    """One trip through the compile-side layers; returns ``(run, counts,
    pass_seconds)`` where ``run()`` is the direct execution of what was
    compiled."""
    session, name = env.session, prog.name
    engine = _KERNEL_ENGINE[env.workload.backend]
    threads = env.workload.n_threads
    counts = {"parse.sql_bytes": len(prog.text.encode())}
    with rec.span("staged", name):
        if prog.kind == "sql":
            with rec.span("parse", name):
                select = parse_sql(prog.text)
            with rec.span("plan", name):
                plan = plan_query(select, env.db.catalog(), session.udfs)
                plan_json = plan_to_json(plan)
            with rec.span("translate", name):
                module = build_query_module(plan_json, session.udfs)
            counts["plan.nodes"] = _plan_nodes(plan_json)
        else:
            with rec.span("translate", name), \
                    rec.span("matlang.frontend", name):
                module = matlab_to_module(prog.text, prog.specs)
        with rec.span("optimize", name):
            optimized, stats = optimize(module)
        with rec.span("codegen", name):
            # The optimized module, compiled with no IR passes: exactly
            # the segmentation + kernel generation ``prepare`` does.
            compiled = compile_module(optimized, "opt", backend=engine,
                                      pipeline="O0")
    if prog.kind == "sql":
        # The MATLAB frontend's share of ``translate``: the UDF bodies
        # lowered once more, on their own.
        with rec.span("matlang.frontend", name):
            for udf_name in referenced_udfs(plan_json, session.udfs):
                udf = session.udfs.get(udf_name)
                matlab_to_module(udf.matlab_source, _udf_specs(udf))
        query = CompiledQuery(prog.text, plan_json, module, compiled,
                              session, backend=env.workload.backend)

        def run():
            return query.run(n_threads=threads)
    else:
        program = MatlabProgram(module, compiled, ctx=session.context())

        def run():
            return program(*prog.args, n_threads=threads)
    report = compiled.report
    counts.update({
        "translate.ir_stmts": _module_stmts(module),
        "optimize.ir_stmts_after": _module_stmts(optimized),
        "optimize.rounds": stats.rounds,
        "optimize.rewrites": sum(p.rewrites for p in stats.pass_stats),
        "codegen.fused_segments": report.fused_segments,
        "codegen.fused_stmts": report.fused_statements,
        "codegen.opaque_stmts": sum(
            _opaque_items(segment_method(m))
            for m in optimized.methods.values()),
        "codegen.kernel_source_bytes": sum(
            len(src.encode()) for src in compiled.kernel_sources),
        "codegen.c_eligible_segments": report.c_eligible_segments,
    })
    pass_seconds = {p.name: p.seconds for p in stats.pass_stats}
    return run, counts, pass_seconds


def staged_run(primary: Primary, rec: SpanRecorder, repetitions: int,
               out: dict, n: dict) -> dict:
    """Fill the compile-side layer metrics; returns, per program, the
    direct execution of what the last repetition compiled.  Each
    repetition also times one fresh ``prepare``, so the share of it the
    stages do not explain is measured under the same conditions."""
    env, ops = primary.env, primary.ops
    totals: dict[str, float] = {"compile.unattributed_ms": 0.0}
    direct = {}
    for prog in env.programs:
        pass_samples: dict[str, list[float]] = {p: [] for p in PASSES}
        done = None
        for _ in range(repetitions):
            gc.collect()
            with rec.span("prepare", prog.name):
                ops.call(f"compile {prog.name}",
                         lambda: fresh_compile(env, prog))
            gc.collect()
            done = ops.call(f"staged compile {prog.name}",
                            lambda: staged_compile(env, prog, rec))
            if done is None:
                break
            for name in PASSES:
                pass_samples[name].append(done[2].get(name, 0.0))
        if done is None:
            continue
        direct[prog.name], counts, _ = done
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
        staged_ms = 0.0
        for stage in STAGES + ("matlang.frontend",):
            ms = best(rec.seconds(stage, prog.name)) * 1e3
            key = f"{stage}.ms" if stage in STAGES \
                else "matlang.frontend_ms"
            totals[key] = totals.get(key, 0.0) + ms
            staged_ms += ms if stage in STAGES else 0.0
        totals["compile.unattributed_ms"] += best(
            rec.seconds("prepare", prog.name)) * 1e3 - staged_ms
        for name in PASSES:
            key = f"optimize.pass.{name}.ms"
            totals[key] = totals.get(key, 0.0) \
                + best(pass_samples[name]) * 1e3
    for key, value in totals.items():
        out[key] = value
        n[key] = repetitions if key.endswith("ms") else len(direct)
    return direct


def _trace_of(root) -> dict:
    """Kernel, opaque and bind-tables time and the kernel/chunk counts of
    one traced run's span tree."""
    kernels = [s for s in root.walk() if s.name.startswith("kernel:")]
    chunks = 0
    for span in kernels:
        # A kernel call that took the single-chunk fast path, or ran as
        # one native call, has no chunk spans and counts as one chunk.
        chunks += sum(c.name == "chunk" for c in span.children) or 1
    return {
        "kernel_s": sum(s.seconds for s in kernels),
        "opaque_s": sum(self_seconds(s) for s in root.walk()
                        if s.name == "execute"),
        "bind_s": sum(s.seconds for s in root.walk()
                      if s.name == "bind-tables"),
        "kernel_calls": len(kernels),
        "chunks": chunks,
        "native": sum(s.attrs.get("backend") == "c" for s in kernels),
    }


def instrumented_run(primary: Primary, rec: SpanRecorder, direct: dict,
                     out: dict, n: dict) -> dict[str, float]:
    """The execute-side layer metrics.  Per program, ``ROUNDS`` rounds of
    four runs side by side — direct ``CompiledQuery.run``, plain
    ``run_sql``, ``run_sql`` with the engine's ``Tracer``, ``run_sql``
    with an ``AllocationProfile`` — so the ratios between them compare
    runs taken under the same conditions.  Returns the per-program
    best seconds of the plain runs, the denominator for every other
    engine measured after this."""
    env, ops = primary.env, primary.ops
    tracer = Tracer()
    traced_ctx = replace(env.session.context(), tracer=tracer)
    sums = {"direct": 0.0, "plain": 0.0, "traced": 0.0, "profiled": 0.0,
            "kernel_s": 0.0, "opaque_s": 0.0, "bind_s": 0.0,
            "overhead": 0.0}
    counts = {"kernel_calls": 0, "chunks": 0, "native": 0,
              "intermediates": 0, "peak_bytes": 0}
    plain_s = {}
    for prog in env.programs:
        run = primary.runners.get(prog.name)
        if run is None or prog.name not in direct:
            continue
        times = primary.times[prog.name]

        def sample(label, fn):
            with rec.span(label, prog.name):
                return checked_run(ops, times, f"{label} {prog.name}", fn)

        # The first direct run pays lazy kernel compilation (gcc on
        # cgen); the timed rounds follow it.
        sample("execute.first", direct[prog.name])
        seconds = {"direct": [], "plain": [], "traced": [], "profiled": []}
        traces = []
        profile = None
        for _ in range(ROUNDS):
            profile = AllocationProfile()
            profiled_ctx = replace(env.session.context(), profile=profile)
            tracer.reset()
            for kind, fn in (("direct", direct[prog.name]),
                             ("plain", run),
                             ("traced", lambda: run(ctx=traced_ctx)),
                             ("profiled", lambda: run(ctx=profiled_ctx))):
                took = sample("execute" if kind == "direct"
                              else f"run.{kind}", fn)
                if took is None:
                    continue
                seconds[kind].append(took)
                if kind == "traced":
                    traces.append((took, _trace_of(tracer.last_root())))
        if not all(seconds.values()):
            continue
        trace = min(traces, key=lambda pair: pair[0])[1]
        for kind, samples in seconds.items():
            sums[kind] += best(samples)
        plain_s[prog.name] = best(seconds["plain"])
        if prog.kind == "sql":
            sums["overhead"] += plain_s[prog.name] \
                - best(seconds["direct"])
        for key in ("kernel_s", "opaque_s", "bind_s"):
            sums[key] += trace[key]
        for key in ("kernel_calls", "chunks", "native"):
            counts[key] += trace[key]
        counts["intermediates"] += profile.intermediates_materialized
        counts["peak_bytes"] = max(counts["peak_bytes"],
                                   profile.peak_bytes)
    tracer.reset()
    calls = counts["kernel_calls"]
    timings = {
        "execute.ms": sums["direct"] * 1e3,
        "execute.kernel_ms": sums["kernel_s"] * 1e3,
        "execute.opaque_ms": sums["opaque_s"] * 1e3,
        "execute.bind_tables_ms": sums["bind_s"] * 1e3,
        "session.overhead_ms": sums["overhead"] * 1e3,
        "tracer.overhead_ratio": sums["traced"] / sums["plain"],
        "prof.overhead_ratio": sums["profiled"] / sums["plain"],
    }
    counted = {
        "execute.kernel_calls": calls,
        "execute.chunks": counts["chunks"],
        "cgen.native_share": counts["native"] / calls if calls else 0.0,
        "prof.intermediates": counts["intermediates"],
        "prof.peak_mib": counts["peak_bytes"] / MIB,
    }
    out.update(timings, **counted)
    n.update(dict.fromkeys(timings, ROUNDS))
    n.update(dict.fromkeys(counted, len(plain_s)))
    return plain_s


def _side_samples(primary: Primary, label: str, programs: list[Program],
                  make, runs: int,
                  first: dict | None = None) -> dict[str, float]:
    """Per-program best seconds of ``runs`` timed runs of another
    engine or configuration, after one cold run (``first`` supplies
    cold runs already taken).  ``make(prog)`` returns the callable."""
    ops = primary.ops
    seconds = {}
    for prog in programs:
        if primary.times[prog.name].fingerprint is None:
            continue
        fn = ops.call(f"{label} prepare {prog.name}", lambda: make(prog))
        if fn is None:
            continue
        samples = []
        cold = 0 if first and prog.name in first else 1
        for index in range(cold + runs):
            out = ops.call(f"{label} {prog.name}", lambda: timed(fn))
            if out is None:
                break
            if not check.same_fingerprint(
                    check.fingerprint(out[1]),
                    primary.times[prog.name].fingerprint):
                ops.fail(f"{label} {prog.name}: result differs")
                break
            if index >= cold:
                samples.append(out[0])
        if samples:
            seconds[prog.name] = best(samples)
    return seconds


def _ratio_geomean(numerator: dict, denominator: dict) -> float:
    return geomean(numerator[name] / denominator[name]
                   for name in numerator if name in denominator)


def other_engines(primary: Primary, reference_s: dict, opt_s: dict,
                  out: dict, n: dict) -> dict:
    """T2 vs T1, HorsePower-Naive, the MonetDB-like baseline and the
    MATLAB interpreter, each against ``opt_s``, the plain runs of the
    configuration under test taken just before.  Returns the
    per-program milliseconds behind the ratios, for the results file."""
    env = primary.env
    session, workload = env.session, env.workload

    sql = [prog for prog in env.programs if prog.kind == "sql"]
    matlab = [prog for prog in env.programs if prog.kind == "matlab"]

    other = 2 if workload.n_threads == 1 else 1
    side = _side_samples(
        primary, f"T{other}", env.programs,
        lambda prog: lambda: primary.runners[prog.name](n_threads=other),
        SIDE_SAMPLES)
    t2, t1 = (side, opt_s) if other == 2 else (opt_s, side)
    out["execpool.t2_over_t1"] = _ratio_geomean(t2, t1)
    n["execpool.t2_over_t1"] = SIDE_SAMPLES

    def naive(prog: Program):
        if prog.kind == "sql":
            return lambda: session.run_sql(prog.text, backend="interp",
                                           opt_level="naive")
        compiled = session.compile_matlab(
            prog.text, prog.specs, opt_level="naive", backend="interp")
        return lambda: compiled(*prog.args)

    naive_s = _side_samples(primary, "naive", env.programs, naive,
                            OTHER_ENGINE_RUNS)
    out["naive.geomean_ms"] = geomean(naive_s.values()) * 1e3
    out["naive_over_opt"] = _ratio_geomean(naive_s, opt_s)

    baseline_s = _side_samples(
        primary, "baseline", sql,
        lambda prog: lambda: session.run_sql(prog.text,
                                             backend="baseline"),
        OTHER_ENGINE_RUNS, first=reference_s)
    out["baseline.geomean_ms"] = geomean(baseline_s.values()) * 1e3
    out["baseline_over_opt"] = _ratio_geomean(baseline_s, opt_s)

    def interpreter(prog: Program):
        interp = MatlabInterpreter(parse_program(prog.text))
        return lambda: interp.run(*prog.args)

    interp_s = _side_samples(primary, "matlab-interp", matlab,
                             interpreter, OTHER_ENGINE_RUNS)
    if interp_s:
        out["matlab_interp_over_opt"] = _ratio_geomean(interp_s, opt_s)
        n["matlab_interp_over_opt"] = OTHER_ENGINE_RUNS

    plain = [name for name in opt_s if name + "_udf" in opt_s]
    if plain:
        udf = {name: opt_s[name + "_udf"] for name in plain}
        out["udf_over_plain"] = _ratio_geomean(udf, opt_s)
        out["baseline.udf_over_plain"] = _ratio_geomean(
            {name: baseline_s[name + "_udf"] for name in plain
             if name + "_udf" in baseline_s}, baseline_s)
        n["udf_over_plain"] = n["baseline.udf_over_plain"] = len(plain)
    for key in ("naive.geomean_ms", "naive_over_opt",
                "baseline.geomean_ms", "baseline_over_opt"):
        n[key] = OTHER_ENGINE_RUNS
    sides = {"opt_ms": opt_s, f"opt_t{other}_ms": side,
             "naive_ms": naive_s, "baseline_ms": baseline_s,
             "matlab_interp_ms": interp_s}
    return {name: {column: seconds[name] * 1e3
                   for column, seconds in sides.items() if name in seconds}
            for name in opt_s}


def primary_rows(primary: Primary, out: dict, n: dict) -> None:
    """What the primary (untraced) phase already holds: plan-cache and
    retry counts, the warm-sample tail, first-run cost and the
    per-program rows."""
    env, ops = primary.env, primary.ops
    session = env.session
    out["cache.hit_rate"] = session.cache_stats.hit_rate
    n["cache.hit_rate"] = session.cache_stats.lookups
    hits = []
    for prog in env.programs:
        if prog.kind != "sql":
            continue
        for _ in range(CACHE_HITS):
            # No gc.collect() here: it would cost 50 times the hit.
            start = time.perf_counter()
            hit = ops.call(f"cache hit {prog.name}",
                           lambda: session.prepare(prog.text))
            hits.append(time.perf_counter() - start)
            if hit is not None and not hit.cached:
                ops.fail(f"cache hit {prog.name}: served a miss")
    out["cache.hit_ms"] = (statistics.median(hits) if hits else 0.0) * 1e3
    n["cache.hit_ms"] = len(hits)

    ratios = []
    compile_total = first_total = warm_total = 0.0
    for prog in env.programs:
        t = primary.times[prog.name]
        if not t.warm_s or not t.compile_s or t.first_run_s is None:
            continue
        warm, compile_s = best(t.warm_s), best(t.compile_s)
        ratios.extend(sample / warm for sample in t.warm_s)
        compile_total += compile_s
        first_total += t.first_run_s
        warm_total += warm
        out[f"prog.{prog.name}.warm_ms"] = warm * 1e3
        out[f"prog.{prog.name}.compile_ms"] = compile_s * 1e3
        n[f"prog.{prog.name}.warm_ms"] = len(t.warm_s)
        n[f"prog.{prog.name}.compile_ms"] = len(t.compile_s)

    # p95, or the highest percentile that still has ten samples beyond
    # it when there are fewer than 200.
    ratios.sort()
    beyond = max(10, len(ratios) // 20)
    out["session.warm_ratio_p95"] = (
        ratios[max(len(ratios) - 1 - beyond, 0)] if ratios else 0.0)
    n["session.warm_ratio_p95"] = len(ratios)
    out["session.retries"] = session.metrics.counter(
        "query.retries").value
    n["session.retries"] = ops.attempted
    # A fresh first run is one compile plus the first execution.
    out["compile.first_run_share"] = (
        compile_total / (compile_total + first_total)
        if first_total else 0.0)
    out["cgen.first_run_extra_ms"] = (first_total - warm_total) * 1e3
    n["compile.first_run_share"] = n["cgen.first_run_extra_ms"] = \
        len(env.programs)


def per_layer(primary: Primary, reference_s: dict,
              repetitions: int) -> tuple[dict, dict, list, dict]:
    """Every per-layer metric of the workload: ``(values, n, spans,
    per-program rows)``."""
    out: dict[str, float] = {}
    n: dict[str, int] = {}
    rec = SpanRecorder()
    started = time.perf_counter()
    primary_rows(primary, out, n)
    direct = staged_run(primary, rec, repetitions, out, n)
    opt_s = instrumented_run(primary, rec, direct, out, n)
    rows = other_engines(primary, reference_s, opt_s, out, n)
    spans = [[name, round(start - started, 6), round(end - started, 6),
              parent, program]
             for name, start, end, parent, program in rec.spans]
    return out, n, spans, rows
