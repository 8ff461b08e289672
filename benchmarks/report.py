"""Regenerate every evaluation table of the paper in one run.

Usage::

    python benchmarks/report.py [--scale S] [--threads 1,2,4] [--out FILE]

Prints Tables 1–4 in the paper's layout (execution times in milliseconds,
speedups, compile times).  Absolute numbers differ from the paper — the
substrate is NumPy on this host, not generated C on a 40-core Xeon — but
the comparisons (who wins, by what factor, where the crossovers are) are
the reproduction target; see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

# Allow running as a plain script: put the repository root on sys.path so
# `benchmarks` imports as a package.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (paper ≈ 10)")
    parser.add_argument("--threads", type=str, default="1,2,4",
                        help="comma-separated thread counts")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--tables", type=str, default="1,2,3,4,cache",
                        help="which tables to run (e.g. 1,4,cache; "
                             "'cache' is the prepared-query cold/warm "
                             "table)")
    parser.add_argument("--metrics-json", type=str, default=None,
                        help="write the metrics of every session the "
                             "harness built (kernels, rows, pool, plan "
                             "cache, per-phase compile totals) as flat "
                             "JSON after the run")
    parser.add_argument("--trace-dir", type=str, default=None,
                        help="record spans for every benchmark run and "
                             "write one Chrome-trace JSON per table "
                             "into this directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    os.environ["REPRO_BENCH_THREADS"] = args.threads
    if args.trace_dir:
        os.environ["REPRO_BENCH_TRACE"] = args.trace_dir

    # Import after the env is set: the harness reads it at call time.
    from benchmarks import tables
    from benchmarks.harness import bench_session, dump_bench_trace

    wanted = {part.strip() for part in args.tables.split(",")}
    buffer = io.StringIO()

    def emit(text: str = "") -> None:
        print(text)
        buffer.write(text + "\n")

    emit(f"# HorsePower reproduction report "
         f"(scale={args.scale}, threads={args.threads})")
    emit()
    sections = (("1", "table1", tables.report_table1),
                ("2", "table2", tables.report_table2),
                ("3", "table3", tables.report_table3),
                ("4", "table4", tables.report_table4),
                ("cache", "plan_cache", tables.report_plan_cache))
    for key, name, report_fn in sections:
        if key in wanted:
            report_fn(emit)
            path = dump_bench_trace(name)
            if path:
                emit(f"(trace written to {path})")

    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as handle:
            json.dump({"metrics": bench_session().metrics.snapshot()},
                      handle, indent=2, default=str)
        emit(f"(metrics written to {args.metrics_json})")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(buffer.getvalue())
        print(f"\nreport written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
