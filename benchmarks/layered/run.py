"""The layered benchmark's one command.

    python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is the
        JSON object the BENCHMARK.json contract asks for (end-to-end
        metrics with --trace 0, per-layer metrics with --trace 1).
    python -m benchmarks.layered.run [--workload W] [--seed N] [--smoke]
        every workload (or W), each in a fresh process, every metric by
        name with unit and n; writes one results JSON.
    python -m benchmarks.layered.run repeat -k K
        K such sets, alternating workload order; non-zero exit if two
        sets disagree by more than a metric's bound.
    python -m benchmarks.layered.run compare PARENT.json CHANGE.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: the benchmark measures the "
             f"repro package and runs from a checkout of the repository")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.layered import report  # noqa: E402
from benchmarks.layered.workloads import WORKLOADS, smoke  # noqa: E402

OUT_DIR = HERE / "out"
SMOKE_ROUNDS = 3
SMOKE_REPETITIONS = 1
STAGED_REPETITIONS = 5


def run_one(args) -> int:
    """One workload, here; prints the metrics and the contract's last
    line."""
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    # Before NumPy loads: one BLAS / OpenMP thread per engine thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(workload.n_threads)
    # The cgen backend builds its kernels under the temporary directory;
    # keep that, and gcc's own scratch files, inside the checkout.
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        os.environ["TMPDIR"] = tempfile.tempdir = scratch
        try:
            return _measure(args, workload)
        finally:
            tempfile.tempdir = None


def _measure(args, workload) -> int:
    from benchmarks.layered import measure

    contract = report.load_contract()
    primary = measure.run_primary(
        workload, args.seed, args.seconds,
        rounds=SMOKE_ROUNDS if args.smoke else None)
    reference_s = measure.verify(primary, corrupt=args.corrupt)
    per_layer, per_layer_n, spans, programs = {}, {}, [], {}
    if args.trace:
        from benchmarks.layered import layers
        per_layer, per_layer_n, spans, programs = layers.per_layer(
            primary, reference_s,
            SMOKE_REPETITIONS if args.smoke else STAGED_REPETITIONS)
    ops = primary.ops
    end_to_end = measure.end_to_end(primary)
    detail = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures[:20],
        "end_to_end": report.with_units(
            end_to_end, measure.sample_counts(primary),
            contract["end_to_end"]),
        "per_layer": report.with_units(
            per_layer, per_layer_n, contract["per_layer"]),
        "programs": programs,
        "spans": spans,
    }
    report.print_metrics(args.workload, detail)
    for reason in detail["failures"]:
        print(f"FAILED OP  {reason}")
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(json.dumps(report.contract_line(
        detail, contract["per_layer" if args.trace else "end_to_end"],
        fill_missing=bool(args.trace))))
    primary.env.session.close()
    return 0


def run_child(workload: str, args) -> dict:
    """One workload in a fresh process, traced, so one run gives both the
    end-to-end and the per-layer numbers."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json") as tmp:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "1",
                   "--detail", tmp.name]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        if done.returncode != 0:
            raise SystemExit(f"{workload}: exit code {done.returncode}")
        return json.loads(Path(tmp.name).read_text())


def run_set(names: list[str], args) -> dict:
    results = {}
    for name in names:
        started = time.perf_counter()
        results[name] = run_child(name, args)
        report.print_metrics(name, results[name])
        print(f"  ({time.perf_counter() - started:.1f} s)\n")
    return results


def environment(args) -> dict:
    import numpy
    from repro.core.codegen.cgen import gcc_version
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gcc": gcc_version(),
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S")}


def write_results(sets: list[dict], args, default_name: str) -> None:
    path = Path(args.out) if args.out else OUT_DIR / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": 1, "meta": environment(args), "sets": sets}))
    print(f"wrote {path}")


def names_of(args) -> list[str]:
    return [args.workload] if args.workload else list(WORKLOADS)


def run_all(args) -> int:
    results = run_set(names_of(args), args)
    write_results([results], args, f"results-seed{args.seed}.json")
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_repeat(args) -> int:
    sets = []
    for index in range(args.k):
        names = names_of(args)
        print(f"== set {index + 1} of {args.k} ==")
        sets.append(run_set(names if index % 2 == 0 else names[::-1],
                            args))
    write_results(sets, args, f"repeat-seed{args.seed}.json")
    return report.print_repeat(sets, report.load_contract())


def main(argv=None) -> int:
    contract = report.load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the timed phase of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run --workload here and print the "
                             "contract's last line")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, 3 samples: a self-test")
    parser.add_argument("--out", help="results JSON to write")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", metavar="PROGRAM",
                        help="self-test: spoil PROGRAM's result, which "
                             "must then count as a failed op")
    commands = parser.add_subparsers(dest="command")
    repeat = commands.add_parser("repeat")
    repeat.add_argument("-k", type=int, default=2)
    compare = commands.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return report.print_compare(
            json.loads(Path(args.parent).read_text()),
            json.loads(Path(args.change).read_text()), contract)
    if args.command == "repeat":
        return run_repeat(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
