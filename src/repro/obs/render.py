"""Renderers for traces and metrics.

Three consumers, three formats:

* :func:`render_explain_analyze` — the human ``EXPLAIN ANALYZE`` view: a
  span tree annotated with wall times, percent-of-query shares, and the
  attributes instrumentation recorded (row counts, pass statistics,
  backend, cache provenance);
* :func:`chrome_trace` / :func:`chrome_trace_json` — Chrome-trace-format
  events (open ``chrome://tracing`` or https://ui.perfetto.dev and load
  the file) with one complete (``"ph": "X"``) event per span, placed on
  the thread that ran it;
* :func:`phase_coverage` — the explain tree's self-check: how much of a
  root span its children account for (the CLI prints it; the acceptance
  bar is ≥95% on a query span).
"""

from __future__ import annotations

import json
import os

from repro.obs.prof import format_bytes
from repro.obs.tracer import Span

__all__ = ["render_explain_analyze", "render_plan", "chrome_trace",
           "chrome_trace_json", "phase_coverage", "format_pass_stats",
           "format_lint_findings"]

#: Attributes whose values are unstable across runs (golden tests render
#: with ``timings=False`` and rely on the remaining attributes only).
_UNSTABLE_ATTRS = ("error",)

_MAX_ATTR_LEN = 48

#: Byte-valued span attributes recorded by the allocation profiler;
#: rendered humanized (``alloc=1.2MiB``) outside the bracketed attr
#: list's ``key=value`` form.  These attributes exist only when
#: profiling was on, so default ``EXPLAIN ANALYZE`` output (and the PR 2
#: golden files) are byte-identical with the profiler off.
_BYTE_ATTRS = {"alloc_bytes": "alloc", "peak_bytes": "peak"}

#: Attributes renamed for display.  ``rows_returned`` is set on the
#: query span only when the session has a query log, so — exactly like
#: the profiler's byte attrs — default output and the golden files are
#: byte-identical with the log off.
_RENAMED_ATTRS = {"rows_returned": "rows"}


def _format_attr(value) -> str:
    if isinstance(value, float):
        text = f"{value:g}"
    elif isinstance(value, bool):
        text = str(value)
    else:
        text = str(value)
    text = " ".join(text.split())
    if len(text) > _MAX_ATTR_LEN:
        text = text[:_MAX_ATTR_LEN - 1] + "…"
    return text


#: Attributes folded into one ``rows est=… actual=… q=…`` token when a
#: cardinality estimate is present.  ``est_rows``/``q_error`` exist
#: only after an ``ANALYZE`` populated the session's statistics, so
#: stats-free output (and the PR 2 golden files) stays byte-identical.
_EST_ACTUAL_ATTRS = ("est_rows", "q_error", "rows_out", "rows_returned")


def _est_actual_token(attrs: dict) -> str:
    """``rows est=E actual=A q=Q`` for a span carrying an estimate
    (``actual``/``q`` only when an actual row count was recorded)."""
    est = attrs["est_rows"]
    actual = attrs.get("rows_out", attrs.get("rows_returned"))
    if actual is None:
        return f"rows est={est}"
    q = attrs.get("q_error")
    if q is None:
        from repro.stats import q_error
        q = round(q_error(est, actual), 3)
    return f"rows est={est} actual={actual} q={_format_attr(q)}"


def _attr_suffix(span: Span) -> str:
    parts = []
    attrs = span.attrs
    estimated = attrs.get("est_rows") is not None
    for key, value in attrs.items():
        if estimated and key in _EST_ACTUAL_ATTRS:
            continue
        label = _BYTE_ATTRS.get(key)
        if label is not None:
            parts.append(f"{label}={format_bytes(value)}")
        else:
            key = _RENAMED_ATTRS.get(key, key)
            parts.append(f"{key}={_format_attr(value)}")
    if estimated:
        parts.append(_est_actual_token(attrs))
    return f"  [{' '.join(parts)}]" if parts else ""


def render_explain_analyze(root: Span, *, timings: bool = True) -> str:
    """The span tree as indented text (one line per span).

    ``timings=False`` drops wall times and percentages — the stable form
    golden tests compare against."""
    total = root.seconds or 0.0
    lines: list[str] = []

    def emit(span: Span, prefix: str, branch: str, last: bool) -> None:
        label = span.name
        timing = ""
        if timings:
            timing = f"  {span.seconds * 1000:.3f} ms"
            if span is not root and total > 0:
                timing += f" ({span.seconds / total * 100:.1f}%)"
        lines.append(prefix + branch + label + timing
                     + _attr_suffix(span))
        child_prefix = prefix
        if branch:
            child_prefix += "   " if last else "│  "
        for index, child in enumerate(span.children):
            child_last = index == len(span.children) - 1
            emit(child, child_prefix,
                 "└─ " if child_last else "├─ ", child_last)

    emit(root, "", "", True)
    if timings:
        covered, total_s, fraction = phase_coverage(root)
        if total_s > 0 and root.children:
            lines.append(f"-- phases cover {covered * 1000:.3f} of "
                         f"{total_s * 1000:.3f} ms "
                         f"({fraction * 100:.1f}%)")
    return "\n".join(lines)


def render_plan(plan) -> str:
    """The classic ``EXPLAIN`` view: the logical plan as an indented
    tree, one line per operator, annotated with the estimated row count
    (when the session's statistics cover the operator) and the output
    columns.

    ``plan`` is duck-typed — any tree whose nodes expose
    ``describe()``, ``children()``, ``output_names()`` and an optional
    ``est_rows`` renders, so this module needs no import of
    :mod:`repro.sql.plan`."""
    lines: list[str] = []

    def emit(node, prefix: str, branch: str, last: bool) -> None:
        parts = []
        est = getattr(node, "est_rows", None)
        if est is not None:
            parts.append(f"est_rows={est}")
        names = node.output_names()
        if names:
            parts.append("out=[" + ", ".join(names) + "]")
        suffix = f"  [{' '.join(parts)}]" if parts else ""
        lines.append(prefix + branch + node.describe() + suffix)
        child_prefix = prefix
        if branch:
            child_prefix += "   " if last else "│  "
        children = node.children()
        for index, child in enumerate(children):
            child_last = index == len(children) - 1
            emit(child, child_prefix,
                 "└─ " if child_last else "├─ ", child_last)

    emit(plan, "", "", True)
    return "\n".join(lines)


def format_pass_stats(stats) -> str:
    """The optimizer's per-pass statistics as an aligned text table.

    ``stats`` is an :class:`~repro.core.passes.OptimizeStats`; one row
    per registered :class:`~repro.core.passes.PassStat` (pipeline
    order): how many times the pass ran, how many of those runs rewrote
    something, and the total time it took.  The CLI's ``compile-sql``
    prints this under the fused kernels."""
    rows = [(ps.name, ps.level, str(ps.runs), str(ps.rewrites),
             f"{ps.seconds * 1000:.3f}")
            for ps in stats.pass_stats]
    header = ("pass", "level", "runs", "rewrites", "ms")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              if rows else len(header[i]) for i in range(5)]
    def fmt(row):
        return "  ".join(
            cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
            for i, cell in enumerate(row))
    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    lines.append(f"pipeline={stats.pipeline} rounds={stats.rounds}")
    return "\n".join(lines)


def phase_coverage(root: Span) -> tuple[float, float, float]:
    """``(children_seconds, root_seconds, fraction)`` for a root span.

    The explain tree is trustworthy only if the phases it shows account
    for (almost) all of the time it reports; this is the number the
    acceptance criterion checks (children sum within 5% of the total)."""
    covered = sum(child.seconds for child in root.children)
    total = root.seconds
    return covered, total, (covered / total if total > 0 else 0.0)


def chrome_trace(spans: list[Span]) -> dict:
    """Spans (roots or a full list of trees) as a Chrome-trace dict.

    Each span becomes one complete event: ``ph`` (phase type) ``"X"``,
    ``ts``/``dur`` in microseconds, ``tid`` the OS thread that ran the
    span — so sessions on several threads show up as separate tracks in
    Perfetto.

    Spans carrying profiler ``alloc_bytes`` additionally emit counter
    (``"ph": "C"``) samples on an ``allocated bytes`` track — a running
    memory total alongside the timing view.  Each sample adds the
    span's *self* allocation (its ``alloc_bytes`` minus what nested
    profiled spans already account for — a query span's total includes
    its kernels'), so the track's final value equals the profile's
    ``bytes_allocated``.  With profiling off no span has the attribute
    and the trace is exactly one event per span, as before."""
    all_spans: list[Span] = []
    for span in spans:
        all_spans.extend(span.walk())
    base = min((s.start for s in all_spans), default=0.0)
    pid = os.getpid()
    events = []
    alloc_running = 0
    for span in sorted(all_spans, key=lambda s: s.start):
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start - base) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": pid,
            "tid": span.thread_id,
            "args": {key: value for key, value in span.attrs.items()},
        })
        alloc = span.attrs.get("alloc_bytes")
        if alloc is not None:
            alloc_running += max(alloc - _nested_alloc(span), 0)
            events.append({
                "name": "allocated bytes",
                "cat": "repro",
                "ph": "C",
                # Sampled at span end: the span's charge is complete.
                "ts": (span.start - base + span.seconds) * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": {"allocated": alloc_running},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _nested_alloc(span: Span) -> float:
    """Bytes the nearest profiled descendants of ``span`` already
    charged (their own nested charges included in their attr)."""
    total = 0
    for child in span.children:
        alloc = child.attrs.get("alloc_bytes")
        if alloc is not None:
            total += alloc
        else:
            total += _nested_alloc(child)
    return total


def chrome_trace_json(spans: list[Span], *, indent: int | None = None
                      ) -> str:
    return json.dumps(chrome_trace(spans), indent=indent, default=str)


def format_lint_findings(findings) -> str:
    """Lint findings as an aligned text table (the ``lint`` command's
    ``--format text`` output).

    ``findings`` is a list of
    :class:`~repro.core.analysis.lint.Finding`; one row per finding
    with the stable rule ID, severity, layer, location, and message.
    An empty list renders as the single line ``no findings``."""
    if not findings:
        return "no findings"
    rows = [(f.rule, f.severity, f.layer, f.location, f.message)
            for f in findings]
    header = ("rule", "severity", "layer", "location", "message")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(4)]

    def fmt(row):
        cells = [row[i].ljust(widths[i]) for i in range(4)]
        return "  ".join(cells + [row[4]])

    lines = [fmt(header),
             fmt(tuple("-" * w for w in widths) + ("-" * 7,))]
    lines.extend(fmt(row) for row in rows)
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    summary = ", ".join(f"{n} {sev}" for sev, n in sorted(counts.items()))
    lines.append(f"{len(findings)} finding"
                 f"{'' if len(findings) == 1 else 's'} ({summary})")
    return "\n".join(lines)
