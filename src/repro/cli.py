"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run-sql``        — execute a SQL query against CSV/TPC-H tables,
  optionally picking the execution engine (``--backend``; ``baseline``
  is the MonetDB-like comparison engine), print the result;
* ``compile-sql``    — show the full provenance chain for a query: plan
  JSON, generated HorseIR (before/after optimization) and fused kernels;
* ``compile-matlab`` — translate a MATLAB file to HorseIR (and optionally
  run it on CSV columns);
* ``list-backends``  — print the registered execution backends, their
  capabilities and fallback chains;
* ``gen-tpch``       — write TPC-H tables as ``|``-separated files;
* ``analyze``        — collect table/column statistics (row counts,
  min/max, distinct counts, equi-depth histograms) and print them;
  ``run-sql --analyze`` collects the same statistics before running, and
  ``run-sql --explain`` prints the estimated plan without executing.
* ``lint``           — run the static-analysis rules (stable IDs
  H001…/P001…/M001…) over a SQL query's plan and compiled HorseIR, a
  MATLAB source file, or every built-in workload (``--workloads``);
  ``--format json`` emits the machine-readable schema.  Exits 0 when
  clean, 1 with findings, 2 on a compile/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import types as ht
from repro.errors import (OptimizerError, PassVerificationError,
                          QueryLimitError)

_TYPE_NAMES = {
    "bool": ht.BOOL, "i64": ht.I64, "i32": ht.I32, "f64": ht.F64,
    "f32": ht.F32, "str": ht.STR, "sym": ht.SYM, "date": ht.DATE,
}


def _parse_schema(spec: str) -> list[tuple[str, ht.HorseType]]:
    """``name:type,name:type`` → schema list."""
    schema = []
    for part in spec.split(","):
        name, _, type_name = part.partition(":")
        if type_name not in _TYPE_NAMES:
            raise SystemExit(
                f"unknown column type {type_name!r} in --table schema; "
                f"use one of {sorted(_TYPE_NAMES)}")
        schema.append((name.strip(), _TYPE_NAMES[type_name]))
    return schema


def _load_tables(args) -> "Database":
    from repro.engine.storage import Database

    db = Database()
    if args.tpch is not None:
        from repro.data.tpch import generate_tpch
        generate_tpch(scale_factor=args.tpch, db=db)
    for spec in args.table or []:
        try:
            name, path, schema_spec = spec.split("=", 1)[0], *spec.split(
                "=", 1)[1].split("@", 1)
        except ValueError:
            raise SystemExit(
                "--table expects NAME=PATH@col:type,col:type") from None
        db.load_csv(name, path, _parse_schema(schema_spec))
    return db


_BYTE_SUFFIXES = {"": 1, "k": 1 << 10, "kb": 1 << 10, "kib": 1 << 10,
                  "m": 1 << 20, "mb": 1 << 20, "mib": 1 << 20,
                  "g": 1 << 30, "gb": 1 << 30, "gib": 1 << 30}


def _parse_bytes(spec: str) -> int:
    """``--memory-budget`` values: plain bytes or ``64k``/``16MiB``."""
    text = spec.strip().lower()
    for suffix in sorted(_BYTE_SUFFIXES, key=len, reverse=True):
        if suffix and text.endswith(suffix):
            number = text[:-len(suffix)]
            break
    else:
        number, suffix = text, ""
    try:
        value = float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {spec!r} (use e.g. 1048576, 64k, "
            f"16MiB)") from None
    result = int(value * _BYTE_SUFFIXES[suffix])
    if result <= 0:
        raise argparse.ArgumentTypeError(
            f"byte size must be positive, got {spec!r}")
    return result


def _thread_count(spec: str) -> int:
    """``--threads`` values: an integer of at least 1."""
    try:
        value = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid thread count {spec!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be at least 1, got {spec!r}")
    return value


def _print_table(result, limit: int) -> None:
    names = result.column_names
    arrays = [vec.data for _, vec in result.columns()]
    total = result.num_rows
    print(" | ".join(f"{n:>18}" for n in names))
    print("-+-".join("-" * 18 for _ in names))
    for row in range(min(total, limit)):
        print(" | ".join(f"{str(a[row]):>18}" for a in arrays))
    if total > limit:
        print(f"... ({total} rows total)")


def _cmd_run_sql(args) -> int:
    from repro.engine.session import EngineSession
    from repro.obs import AllocationProfile, Tracer

    backend = args.backend
    if backend is not None:
        from repro.engine.backends import default_registry
        if backend not in default_registry():
            known = ", ".join(sorted(default_registry().names()))
            raise SystemExit(
                f"unknown backend {backend!r}; registered backends: "
                f"{known} (see `python -m repro list-backends`)")

    _validate_passes(args)

    db = _load_tables(args)
    sql = args.query if args.query else sys.stdin.read()
    repeat = max(1, args.repeat)

    if args.explain:
        return _explain_plan(args, db, sql)

    tracer = Tracer() if args.trace or args.explain_analyze else None
    profile = AllocationProfile() if args.profile else None

    session = EngineSession(db, tracer=tracer, profile=profile,
                            query_log=args.query_log)
    if args.analyze:
        session.analyze()
    use_cache = not args.no_cache
    try:
        for _ in range(repeat):
            result = session.run_sql(sql, n_threads=args.threads,
                                     use_cache=use_cache,
                                     backend=backend or "python",
                                     timeout=args.timeout,
                                     memory_budget=args.memory_budget,
                                     pipeline=args.passes,
                                     verify_ir=args.verify_ir,
                                     dump_ir=args.dump_ir)
    except PassVerificationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QueryLimitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.query_log is not None:
            print(f"-- query-log record appended to "
                  f"{args.query_log}", file=sys.stderr)
        return 2
    if args.cache_stats:
        print(f"-- plan cache: {session.cache_stats.summary()} "
              f"entries={len(session.plan_cache)}")

    _print_table(result, args.limit)
    if args.dump_ir is not None:
        print(f"-- per-pass IR snapshots written under {args.dump_ir}")
    if tracer is not None:
        _emit_trace_outputs(args, tracer)
    if profile is not None:
        _emit_profile_output(args, profile)
    if args.metrics_json:
        _write_metrics_json(args.metrics_json, session)
    if args.query_log is not None:
        emitted = session.query_log.emitted
        print(f"-- query log: {emitted} record"
              f"{'' if emitted == 1 else 's'} appended to "
              f"{args.query_log}")
    return 0


def _explain_plan(args, db, sql) -> int:
    """Classic EXPLAIN: print the (estimated) plan, don't execute."""
    from repro.engine.session import EngineSession
    from repro.obs import render_plan

    session = EngineSession(db)
    if args.analyze:
        session.analyze()
    plan, _ = session.plan_sql(sql, pipeline=args.passes)
    print("-- EXPLAIN " + "-" * 52)
    print(render_plan(plan))
    if not session.stats.enabled:
        print("-- no statistics collected; add --analyze for est_rows")
    return 0


def _cmd_analyze(args) -> int:
    """Collect and print table/column statistics."""
    from repro.engine.session import EngineSession

    db = _load_tables(args)
    session = EngineSession(db)
    collected = session.analyze(args.table_name)
    for table_stats in collected:
        print(f"table {table_stats.name}: {table_stats.row_count} rows, "
              f"{len(table_stats.columns)} columns")
        for col in table_stats.columns.values():
            info = col.to_dict()
            print(f"    {info['name']:<16} {info['type']:<6} "
                  f"ndv={info['n_distinct']:<8} "
                  f"nulls={col.null_count:<6} "
                  f"buckets={info['histogram_buckets']:<4} "
                  f"min={info['min']} max={info['max']}")
    return 0


def _emit_trace_outputs(args, tracer) -> None:
    """Print/write the trace artifacts ``run-sql`` was asked for."""
    from repro.obs import chrome_trace_json, render_explain_analyze

    if args.explain_analyze:
        root = tracer.last_root()
        if root is not None:
            # The last root is the final repeat: warm (cache-served)
            # when --repeat > 1, the full cold chain otherwise.
            print("-- EXPLAIN ANALYZE " + "-" * 44)
            print(render_explain_analyze(root))
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(chrome_trace_json(tracer.roots, indent=2))
        print(f"-- chrome trace written to {args.trace} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")


def _emit_profile_output(args, profile) -> None:
    """Write the allocation profile JSON and print a one-line summary."""
    from repro.obs.prof import format_bytes

    with open(args.profile, "w") as handle:
        json.dump(profile.to_dict(), handle, indent=2)
    print(f"-- allocation profile written to {args.profile} "
          f"({format_bytes(profile.bytes_allocated)} allocated, "
          f"{profile.intermediates_materialized} intermediates, "
          f"peak {format_bytes(profile.peak_bytes)})")


def _write_metrics_json(path: str, session) -> None:
    """Dump the session's metrics plus per-entry plan-cache stats as
    flat JSON."""
    payload = {"metrics": session.metrics.snapshot(),
               "plan_cache": session.cache_stats.to_dict()}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    print(f"-- metrics written to {path}")


def _validate_passes(args) -> None:
    """Reject a bad ``--passes`` spec before any table loads."""
    if args.passes is None:
        return
    from repro.core.passes import resolve_pipeline
    try:
        resolve_pipeline(args.passes)
    except OptimizerError as exc:
        raise SystemExit(str(exc)) from exc


def _resolve_lint_rules(args) -> "tuple[str, ...] | None":
    """``--select``/``--all`` → the rule-ID tuple the drivers take."""
    from repro.core.analysis import RULES

    if args.select:
        ids = tuple(part.strip().upper()
                    for part in args.select.split(",") if part.strip())
        unknown = [rule_id for rule_id in ids if rule_id not in RULES]
        if unknown:
            raise SystemExit(
                f"unknown rule id(s) {', '.join(unknown)}; known: "
                f"{', '.join(RULES)}")
        return ids
    if args.all:
        return tuple(RULES)
    return None  # the default-on set


def _lint_sql(args, sql: str, rules) -> list:
    """Lint one query at both layers: the planned tree and the
    optimized HorseIR module."""
    from repro.core.analysis import lint_module, lint_plan
    from repro.engine.session import EngineSession

    session = EngineSession(_load_tables(args))
    plan, _ = session.plan_sql(sql, pipeline=args.passes)
    findings = lint_plan(plan, rules)
    compiled = session.compile_sql(sql, pipeline=args.passes)
    findings.extend(lint_module(compiled.program.module, rules))
    return findings


def _lint_workloads(args, rules) -> list:
    """Lint every built-in workload: all TPC-H plain/UDF queries and
    Black-Scholes variants (plan + optimized module) plus the MATLAB
    sources they compile from.  This is the CI clean-tree gate."""
    from repro.core.analysis import lint_matlab, lint_module, lint_plan
    from repro.data.blackscholes import load_blackscholes_table
    from repro.data.tpch import generate_tpch
    from repro.engine.session import EngineSession
    from repro.engine.storage import Database
    from repro.matlang.parser import parse_program
    from repro.workloads import bs_queries, matlab_sources
    from repro.workloads.tpch_queries import (EXTENDED_PLAIN_QUERIES,
                                              PLAIN_QUERIES,
                                              UDF_QUERIES,
                                              register_tpch_udfs)

    tpch = EngineSession(generate_tpch(scale_factor=args.tpch or 0.002))
    register_tpch_udfs(tpch)
    bs_db = Database()
    load_blackscholes_table(bs_db, 500)
    bs = EngineSession(bs_db)
    bs_queries.register_bs_udfs(bs)

    work = [(tpch, f"tpch/{name}", sql) for name, sql in
            {**PLAIN_QUERIES, **EXTENDED_PLAIN_QUERIES,
             **UDF_QUERIES}.items()]
    work += [(bs, f"bs-scalar/{name}", sql)
             for name, sql in bs_queries.SCALAR_QUERIES.items()]
    work += [(bs, f"bs-table/{name}", sql)
             for name, sql in bs_queries.TABLE_QUERIES.items()]

    findings = []
    for session, tag, sql in work:
        plan, _ = session.plan_sql(sql, pipeline=args.passes)
        for finding in lint_plan(plan, rules):
            findings.append(finding._replace(
                location=f"{tag}: {finding.location}"))
        compiled = session.compile_sql(sql, pipeline=args.passes)
        for finding in lint_module(compiled.program.module, rules):
            findings.append(finding._replace(
                location=f"{tag}: {finding.location}"))
    for name in matlab_sources.__all__:
        program = parse_program(getattr(matlab_sources, name))
        for finding in lint_matlab(program, rules):
            findings.append(finding._replace(
                location=f"matlab/{name}: {finding.location}"))
    return findings


def _cmd_lint(args) -> int:
    from repro.core.analysis import lint_matlab
    from repro.errors import ReproError

    _validate_passes(args)
    rules = _resolve_lint_rules(args)
    if not (args.workloads or args.sql or args.matlab):
        raise SystemExit(
            "nothing to lint: pass --sql QUERY, --matlab FILE, or "
            "--workloads")
    findings = []
    try:
        if args.workloads:
            findings.extend(_lint_workloads(args, rules))
        if args.sql:
            findings.extend(_lint_sql(args, args.sql, rules))
        if args.matlab:
            from repro.matlang.parser import parse_program
            with open(args.matlab) as handle:
                program = parse_program(handle.read())
            findings.extend(lint_matlab(program, rules))
    except (ReproError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        from repro.core.analysis import findings_to_json
        print(json.dumps(findings_to_json(findings), indent=2))
    else:
        from repro.obs import format_lint_findings
        print(format_lint_findings(findings))
    return 1 if findings else 0


def _cmd_compile_sql(args) -> int:
    from repro.core.printer import print_module
    from repro.engine.session import EngineSession

    _validate_passes(args)
    db = _load_tables(args)
    sql = args.query if args.query else sys.stdin.read()
    session = EngineSession(db)
    try:
        compiled = session.compile_sql(sql, pipeline=args.passes,
                                       verify_ir=args.verify_ir,
                                       dump_ir=args.dump_ir)
    except PassVerificationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("-- logical plan (JSON) " + "-" * 40)
    print(json.dumps(compiled.plan_json, indent=2))
    print("-- HorseIR before optimization " + "-" * 32)
    print(print_module(compiled.module_before_opt))
    print("-- HorseIR after optimization " + "-" * 33)
    print(print_module(compiled.program.module))
    for index, source in enumerate(compiled.kernel_sources):
        print(f"-- fused kernel {index} " + "-" * 44)
        print(source)
    stats = (compiled.report.optimize_stats
             if compiled.report is not None else None)
    if stats is not None and stats.pass_stats:
        from repro.obs import format_pass_stats
        print("-- pass statistics " + "-" * 44)
        print(format_pass_stats(stats))
    if args.dump_ir is not None:
        print(f"-- per-pass IR snapshots written under {args.dump_ir}")
    print(f"-- compile time: {compiled.compile_seconds * 1000:.1f} ms")
    return 0


def _cmd_compile_matlab(args) -> int:
    from repro.core.printer import print_module
    from repro.matlang import matlab_to_module

    with open(args.file) as handle:
        source = handle.read()
    specs = None
    if args.params:
        specs = [spec.strip() for spec in args.params.split(",")]
    module = matlab_to_module(source, specs)
    print(print_module(module))
    return 0


def _cmd_list_backends(args) -> int:
    """Print every registered execution backend with its availability,
    capability set, fallback chain, and aliases."""
    from repro.engine.backends import BackendError, default_registry

    registry = default_registry()
    for name in registry.names():
        backend = registry.get(name)
        try:
            resolved = registry.resolve(name)
        except BackendError:
            resolved = backend
        status = "available" if backend.available() else (
            f"unavailable (falls back to {resolved.name})"
            if resolved is not backend else "unavailable")
        print(f"{name}  [{status}]")
        print(f"    {backend.description}")
        print("    capabilities: "
              + ", ".join(sorted(backend.capabilities)))
        if backend.fallback is not None:
            print(f"    fallback: {backend.fallback}")
        aliases = registry.aliases(name)
        if aliases:
            print("    aliases: " + ", ".join(aliases))
    return 0


def _cmd_gen_tpch(args) -> int:
    from repro.data.tpch import generate_tpch
    import os

    db = generate_tpch(scale_factor=args.scale_factor)
    os.makedirs(args.out, exist_ok=True)
    for name in db.table_names():
        path = os.path.join(args.out, f"{name}.tbl")
        db.save_csv(name, path)
        print(f"wrote {path} ({db.table(name).num_rows} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_table_args(sub):
        sub.add_argument("--table", action="append", metavar=
                         "NAME=PATH@col:type,...",
                         help="load a |-separated file as a table")
        sub.add_argument("--tpch", type=float, metavar="SF",
                         help="generate TPC-H tables at this scale "
                              "factor")

    def add_pipeline_args(sub):
        sub.add_argument("--passes", metavar="SPEC",
                         help="optimization pipeline: a preset (O0, "
                              "O1, O2) or a comma-separated pass list "
                              "run once in order, e.g. "
                              "inline,simplify (see docs/"
                              "compiler_pipeline.md for the inventory)")
        sub.add_argument("--verify-ir", action="store_true",
                         help="re-verify the IR after every optimizer "
                              "pass; exits 2 with the failing pass and "
                              "statement on a violation")
        sub.add_argument("--dump-ir", nargs="?", const="ir-dump",
                         metavar="DIR",
                         help="write numbered per-pass IR snapshots "
                              "(000-input.hir, ...) under DIR (default "
                              "ir-dump)")

    run_sql = commands.add_parser("run-sql",
                                  help="execute a SQL query")
    add_table_args(run_sql)
    add_pipeline_args(run_sql)
    run_sql.add_argument("query", nargs="?",
                         help="SQL text (reads stdin when omitted)")
    run_sql.add_argument("--backend", metavar="NAME",
                         help="execution engine (a name or alias from "
                              "`list-backends`, e.g. pygen, c, interp, "
                              "or baseline / monetdb for the "
                              "MonetDB-like engine); default pygen")
    run_sql.add_argument("--threads", type=_thread_count, default=1,
                         metavar="N",
                         help="OpenMP threads for the C backend's "
                              "kernels (cgen); the other engines run "
                              "on one thread (default 1)")
    run_sql.add_argument("--limit", type=int, default=20,
                         help="max rows to print")
    run_sql.add_argument("--repeat", type=int, default=1,
                         help="run the query N times (repeats hit the "
                              "prepared-query cache)")
    run_sql.add_argument("--no-cache", action="store_true",
                         help="bypass the plan cache (recompile every "
                              "run)")
    run_sql.add_argument("--cache-stats", action="store_true",
                         help="print plan-cache hit/miss/eviction "
                              "counters")
    run_sql.add_argument("--trace", nargs="?", const="trace.json",
                         metavar="PATH",
                         help="record spans and write a Chrome-trace "
                              "JSON (default trace.json; open in "
                              "chrome://tracing or Perfetto)")
    run_sql.add_argument("--profile", nargs="?", const="profile.json",
                         metavar="PATH",
                         help="charge materialized vectors to "
                              "statements/builtins/kernels and write "
                              "the allocation profile JSON (default "
                              "profile.json); with --explain-analyze, "
                              "spans gain alloc=/peak= byte columns")
    run_sql.add_argument("--analyze", action="store_true",
                         help="collect table statistics (ANALYZE) "
                              "before planning, enabling est_rows "
                              "annotations and the stats-driven "
                              "selectivity-reorder pass")
    run_sql.add_argument("--explain", action="store_true",
                         help="print the estimated logical plan "
                              "(est_rows per operator with --analyze) "
                              "and exit without executing")
    run_sql.add_argument("--explain-analyze", action="store_true",
                         help="print the traced span tree (per-phase "
                              "and per-kernel times, row counts) after "
                              "the result")
    run_sql.add_argument("--timeout", type=float, metavar="SECONDS",
                         help="cancel the query cooperatively past this "
                              "deadline (exits 2 with QueryTimeout)")
    run_sql.add_argument("--memory-budget", type=_parse_bytes,
                         metavar="BYTES",
                         help="fail the query once it materializes more "
                              "than this many bytes (accepts 64k / "
                              "16MiB suffixes; exits 2 with "
                              "MemoryBudgetExceeded)")
    run_sql.add_argument("--metrics-json", metavar="PATH",
                         help="write runtime metrics (plan cache, "
                              "kernels, rows) as flat JSON")
    run_sql.add_argument("--query-log", nargs="?",
                         const="query_log.jsonl", metavar="PATH",
                         help="append one structured JSONL record per "
                              "query (query id, SQL fingerprint, "
                              "backend, cache hit, per-phase times, "
                              "rows, outcome); default "
                              "query_log.jsonl")
    run_sql.set_defaults(fn=_cmd_run_sql)

    compile_sql = commands.add_parser(
        "compile-sql", help="show plan, HorseIR and fused kernels")
    add_table_args(compile_sql)
    add_pipeline_args(compile_sql)
    compile_sql.add_argument("query", nargs="?")
    compile_sql.set_defaults(fn=_cmd_compile_sql)

    compile_matlab = commands.add_parser(
        "compile-matlab", help="translate a MATLAB file to HorseIR")
    compile_matlab.add_argument("file")
    compile_matlab.add_argument(
        "--params", help="comma-separated entry parameter types, "
                         "e.g. f64,f64,str")
    compile_matlab.set_defaults(fn=_cmd_compile_matlab)

    list_backends = commands.add_parser(
        "list-backends",
        help="print registered execution backends and capabilities")
    list_backends.set_defaults(fn=_cmd_list_backends)

    gen_tpch = commands.add_parser("gen-tpch",
                                   help="write TPC-H .tbl files")
    gen_tpch.add_argument("--scale-factor", type=float, default=0.01)
    gen_tpch.add_argument("--out", default="tpch-data")
    gen_tpch.set_defaults(fn=_cmd_gen_tpch)

    analyze = commands.add_parser(
        "analyze",
        help="collect and print table/column statistics")
    add_table_args(analyze)
    analyze.add_argument("table_name", nargs="?",
                         help="analyze only this table (default: all)")
    analyze.set_defaults(fn=_cmd_analyze)

    lint = commands.add_parser(
        "lint",
        help="run static-analysis rules over IR, plans, and MATLAB")
    add_table_args(lint)
    lint.add_argument("--sql", metavar="QUERY",
                      help="lint this query's plan and compiled "
                           "HorseIR (needs --table/--tpch)")
    lint.add_argument("--matlab", metavar="FILE",
                      help="lint a MATLAB source file")
    lint.add_argument("--workloads", action="store_true",
                      help="lint every built-in TPC-H and "
                           "Black-Scholes workload plus the bundled "
                           "MATLAB sources (the CI clean-tree gate)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="output format (json follows the schema in "
                           "docs/analysis.md)")
    lint.add_argument("--select", metavar="IDS",
                      help="comma-separated rule IDs to run (e.g. "
                           "H001,P002), overriding the default-on set")
    lint.add_argument("--all", action="store_true",
                      help="enable every rule, including default-off "
                           "advisories (H004 fusion report, P003 "
                           "LIMIT-less sort)")
    lint.add_argument("--passes", metavar="SPEC",
                      help="optimization pipeline to compile under "
                           "(preset or comma-separated pass list)")
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
