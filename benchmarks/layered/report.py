"""Printing, the contract's last line, and the repeat / compare tables.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root, the one place they are
written down.  Standard library only: run.py imports this before it pins
thread counts for NumPy.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN = 2.0       # a ratio of at least this is a WIN, below it IMPROVED


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


def with_units(values: dict, counts: dict, metrics: list[dict]) -> dict:
    """``{name: {"value", "unit", "n"}}`` for every measured metric; a
    metric BENCHMARK.json does not name is a bug in the benchmark."""
    units = {m["name"]: m["unit"] for m in metrics}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: {"value": value, "unit": units[name],
                   "n": counts.get(name, 1)}
            for name, value in values.items()}


def contract_line(detail: dict, metrics: list[dict],
                  fill_missing: bool) -> dict:
    """The object the contract wants on the last line.  The contract
    asks for every per-layer metric on every run, so a layer metric the
    workload does not exercise (``cgen.*`` on pygen, ``prog.q1.*`` on
    ``kernels``) reads 0 there; the results file leaves it out."""
    kind = "per_layer" if fill_missing else "end_to_end"
    measured = detail[kind]
    line = {}
    for metric in metrics:
        name = metric["name"]
        if name in measured:
            value = measured[name]["value"]
        elif fill_missing:
            value = 0.0
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        line[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": line}


def print_metrics(workload: str, detail: dict) -> None:
    print(f"workload {workload}: {detail['attempted']} ops attempted, "
          f"{detail['failed']} failed")
    for kind in ("end_to_end", "per_layer"):
        for name, metric in detail[kind].items():
            print(f"  {name:<34}{metric['value']:>14.4f} "
                  f"{metric['unit']:<6} n={metric['n']}")


# -- repeat -----------------------------------------------------------------

def _values(sets: list[dict], workload: str, kind: str,
            name: str) -> list[float]:
    return [s[workload][kind][name]["value"] for s in sets
            if workload in s and name in s[workload][kind]]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread(values: list[float]) -> float:
    """Largest relative deviation from the median."""
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    return max(abs(v - mid) for v in values) / abs(mid)


def print_repeat(sets: list[dict], contract: dict) -> int:
    """Median, quartiles and the largest relative deviation per workload
    and end-to-end metric; 1 when a deviation exceeds the metric's bound
    or a program-made count differs between sets."""
    bad = 0
    print(f"{'workload':<17}{'metric':<21}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'max dev':>9}{'bound':>7}")
    for workload in sets[0]:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = _values(sets, workload, "end_to_end", name)
            q1, q3 = _quartiles(values)
            spread = _spread(values)
            over = spread > metric["bound"]
            bad += over
            print(f"{workload:<17}{name:<21}"
                  f"{statistics.median(values):>12.4f}{q1:>12.4f}"
                  f"{q3:>12.4f}{spread:>8.1%}{metric['bound']:>7.0%}"
                  f"{'  OVER' if over else ''}")
        counts = [("per_layer", m["name"]) for m in contract["per_layer"]
                  if m["unit"] in ("count", "bytes")]
        for kind, name in [("end_to_end", "alloc_mib_total")] + counts:
            values = _values(sets, workload, kind, name)
            if len(set(values)) > 1:
                bad += 1
                print(f"{workload:<17}{name:<21} count differs between "
                      f"sets: {values}")
    print("repeatable" if not bad else f"{bad} metric(s) not repeatable")
    return 1 if bad else 0


# -- compare ----------------------------------------------------------------

def _bucket(parent: float, change: float, spread: float,
            metric: dict) -> tuple[float, str]:
    """``(ratio, bucket)``; the ratio is parent over change for a
    lower-is-better metric, so above 1 is always better."""
    lower = metric["better"] == "lower"
    ratio = (parent / change if lower else change / parent) \
        if parent and change else 1.0
    worse = 1.0 / ratio - 1.0
    bound = metric["bound"]
    if worse > bound:
        return ratio, "REGRESSION"
    if ratio >= WIN:
        return ratio, "WIN"
    if spread > bound:
        return ratio, "UNRESOLVED"
    if ratio - 1.0 > bound:
        return ratio, "IMPROVED"
    return ratio, "NEUTRAL"


def print_compare(parent: dict, change: dict, contract: dict) -> int:
    """One row per workload and end-to-end metric, then the per-layer
    deltas by absolute milliseconds, so the layer that moved is named.
    1 when any row is a REGRESSION."""
    regressions = 0
    a, b = parent["sets"], change["sets"]
    print(f"parent: {len(a)} set(s), seed {parent['meta']['seed']}; "
          f"change: {len(b)} set(s), seed {change['meta']['seed']}")
    print(f"{'workload':<17}{'metric':<21}{'parent':>12}{'change':>12}"
          f"{'ratio':>8}{'bound':>7}  bucket")
    for workload in a[0]:
        if workload not in b[0]:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va = _values(a, workload, "end_to_end", name)
            vb = _values(b, workload, "end_to_end", name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio, bucket = _bucket(ma, mb, max(_spread(va), _spread(vb)),
                                    metric)
            regressions += bucket == "REGRESSION"
            print(f"{workload:<17}{name:<21}{ma:>12.4f}{mb:>12.4f}"
                  f"{ratio:>7.2f}x{metric['bound']:>7.0%}  {bucket}")
    print("\nper-layer deltas (change - parent), largest first; ratio "
          "is change / parent")
    for workload in a[0]:
        if workload not in b[0]:
            continue
        rows = []
        for metric in contract["per_layer"]:
            name = metric["name"]
            va = _values(a, workload, "per_layer", name)
            vb = _values(b, workload, "per_layer", name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma != mb:
                rows.append((metric["unit"] != "ms", -abs(mb - ma), name,
                             ma, mb, metric["unit"]))
        print(f"{workload}:")
        for _, _, name, ma, mb, unit in sorted(rows)[:20]:
            ratio = f"{mb / ma:.2f}x of {ma:.4f}" if ma else "new"
            print(f"  {name:<34}{mb - ma:>+14.4f} {unit:<6} {ratio}")
    return 1 if regressions else 0
