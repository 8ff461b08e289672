"""The query log: one JSON line per query, built from its root span.

The tracer already times every phase of a query and annotates its
``query`` span with the backend that ran it, retries, rows, allocation
and estimates.  :func:`query_record` reads that span into one
fixed-schema record (:data:`QUERY_LOG_FIELDS`) and :class:`QueryLog`
appends it as a JSONL line, so every ``EngineSession.run_sql`` call —
successful, refused, or failed — leaves a durable trace of what
happened.

Wired by ``EngineSession(query_log=...)`` or ``run-sql --query-log``;
off by default, when ``run_sql`` pays one ``is None`` check per query
(``benchmarks/bench_obs_overhead.py`` bounds it at <2% on warm TPC-H
Q6, the same bar as the tracer and the profiler).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time

from repro.errors import QueryLimitError
from repro.obs.tracer import Span

__all__ = ["QueryLog", "QUERY_LOG_FIELDS", "query_record",
           "sql_fingerprint", "phase_seconds"]

_log = logging.getLogger("repro.obs.telemetry")

#: SQL text longer than this is truncated in records (the fingerprint
#: identifies the full statement).
_MAX_SQL_CHARS = 500

#: Span names whose per-phase wall times a record aggregates.
_PHASES = ("parse", "plan", "translate", "compile", "optimize",
           "codegen", "execute")

#: The fixed query-log record schema, in emission order.  Every record
#: carries every key (``None`` where not applicable) so downstream
#: consumers never branch on key presence.
QUERY_LOG_FIELDS = (
    "query_id", "ts", "fingerprint", "sql", "backend_requested",
    "backend", "opt_level", "n_threads", "cache_hit", "outcome",
    "error", "retries", "retried_from", "rows", "wall_seconds",
    "phases", "alloc_bytes", "peak_bytes", "est_rows", "q_error",
)


def sql_fingerprint(sql: str) -> str:
    """A stable 16-hex-digit identity for a statement: SHA-256 over the
    whitespace-collapsed text, so reformatting never splits a query's
    history across fingerprints."""
    normalized = " ".join(sql.split())
    return hashlib.sha256(normalized.encode()).hexdigest()[:16]


def phase_seconds(root: Span | None) -> dict:
    """Per-phase wall times summed over a query's span tree (a phase
    appearing twice — e.g. ``execute`` on a retried query — sums)."""
    totals: dict[str, float] = {}
    if root is None:
        return totals
    for span in root.walk():
        if span.name in _PHASES:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    return totals


def query_record(root: Span | None, *, query_id: int, sql: str,
                 backend_requested: str, opt_level: str, n_threads: int,
                 wall_seconds: float,
                 error: BaseException | None) -> dict:
    """One query-log record from the query's root span (``None`` when
    the query was refused before its span opened).

    ``outcome`` is ``"ok"``, the :class:`~repro.errors.QueryLimitError`'s
    ``refusal`` class, or ``"error"``.  Never raises: a record that
    cannot be completed from the span keeps the fields filled so far,
    because logging must not mask (or fail) the query itself."""
    record = {
        "query_id": query_id,
        "ts": time.time() - wall_seconds,
        "fingerprint": sql_fingerprint(sql),
        "sql": (sql if len(sql) <= _MAX_SQL_CHARS
                else sql[:_MAX_SQL_CHARS] + "…"),
        "backend_requested": backend_requested,
        "backend": backend_requested,
        "opt_level": opt_level,
        "n_threads": n_threads,
        "cache_hit": None,
        "outcome": "ok",
        "error": None,
        "retries": 0,
        "retried_from": None,
        "rows": None,
        "wall_seconds": wall_seconds,
        "phases": {},
        "alloc_bytes": None,
        "peak_bytes": None,
        "est_rows": None,
        "q_error": None,
    }
    try:
        if error is not None:
            record["outcome"] = getattr(error, "refusal", "error") \
                if isinstance(error, QueryLimitError) else "error"
            record["error"] = f"{type(error).__name__}: {error}"
        if root is not None:
            attrs = root.attrs
            record["backend"] = attrs.get("backend", backend_requested)
            record["retries"] = attrs.get("retries", 0)
            record["retried_from"] = attrs.get("retried_from")
            record["rows"] = attrs.get("rows_returned")
            if "alloc_bytes" in attrs:
                record["alloc_bytes"] = attrs["alloc_bytes"]
                record["peak_bytes"] = attrs.get("peak_bytes")
            if "est_rows" in attrs:
                record["est_rows"] = attrs["est_rows"]
                record["q_error"] = attrs.get("q_error")
            record["phases"] = {
                name: round(seconds, 9) for name, seconds
                in phase_seconds(root).items()}
            for span in root.walk():
                if span.name == "prepare":
                    record["cache_hit"] = bool(
                        span.attrs.get("cached", False))
    except Exception:  # pragma: no cover - defensive
        _log.exception("query-log record incomplete")
    return record


class QueryLog:
    """A JSONL sink for query records.

    ``sink`` is a path (opened in append mode, owned and closed by the
    log) or any writable text stream (borrowed, never closed).
    Thread-safe: concurrent sessions may share one log.
    """

    def __init__(self, sink):
        self._lock = threading.Lock()
        self.emitted = 0
        if isinstance(sink, (str, os.PathLike)):
            self._stream = open(sink, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False

    def emit(self, record: dict) -> None:
        """Append one record; an I/O failure is logged, never raised."""
        line = json.dumps(record, default=str)
        try:
            with self._lock:
                self._stream.write(line + "\n")
                self._stream.flush()
                self.emitted += 1
        except Exception:
            _log.exception("query-log write failed")

    def close(self) -> None:
        with self._lock:
            if self._owns_stream and self._stream is not None:
                self._stream.close()
                self._stream = None
                self._owns_stream = False
