"""Self-test of the layered benchmark: ``pytest benchmarks/layered``.

Runs the four workloads in ``--smoke`` mode (tiny data, three samples).
Not part of tier-1: ``pyproject.toml`` collects ``tests/`` only.
"""

from __future__ import annotations

import json
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def smoke(workload: str, trace: int, tmp_path: Path, *extra: str):
    """``(last line, detail)`` of one smoke run."""
    detail = tmp_path / f"{workload}-{trace}-{uuid.uuid4().hex}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke", "--detail", str(detail), *extra],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return (json.loads(done.stdout.splitlines()[-1]),
            json.loads(detail.read_text()))


def is_count(metric: dict) -> bool:
    return metric["unit"] in ("count", "bytes")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_counts_repeat(workload, tmp_path):
    runs = {trace: [smoke(workload, trace, tmp_path) for _ in range(2)]
            for trace in (0, 1)}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line, detail = runs[trace][0]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT[kind]]
        for metric in CONTRACT[kind]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        for name, measured in detail[kind].items():
            assert measured["unit"] and measured["n"] >= 1, name
    for metric in CONTRACT["end_to_end"]:
        assert runs[0][0][0]["metrics"][metric["name"]]["value"] > 0

    first, second = (run[0]["metrics"] for run in runs[1])
    for metric in CONTRACT["per_layer"]:
        if is_count(metric):
            name = metric["name"]
            assert first[name]["value"] == second[name]["value"], name
    alloc = [run[0]["metrics"]["alloc_mib_total"]["value"]
             for run in runs[0]]
    assert alloc[0] == alloc[1]


def test_a_corrupted_result_is_a_failed_op(tmp_path):
    line, detail = smoke("compile_cold", 0, tmp_path, "--corrupt", "q6")
    assert line["correct"] is False
    assert line["failed"] == 1
    assert line["metrics"]["ok_share"]["value"] < 1.0
    assert "verify q6" in detail["failures"][0]


def test_exits_non_zero_outside_a_checkout(tmp_path):
    """The contract: in a directory that holds only BENCHMARK.json and
    the benchmark's own files, fail without printing a result."""
    target = tmp_path / "benchmarks" / "layered"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload",
         "kernels", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
