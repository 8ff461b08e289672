"""Prepared-query support: the plan/compilation cache.

The paper's headline economics are "pay COMP once, run the optimized
kernels many times".  This module is what lets
``EngineSession.run_sql`` pay parse → plan → optimize → codegen once
per distinct query and amortize it across calls, the way HADAD-style
systems reuse previously computed work across hybrid analytics
pipelines:

* :class:`PlanCache` — a thread-safe LRU of compiled queries keyed on
  ``(normalized SQL, opt level, backend, catalog fingerprint,
  UDF-registry fingerprint, pipeline fingerprint, statistics
  fingerprint)``.  Because the fingerprints are part of the key,
  registering a UDF, changing the schema, compiling with a different
  pass pipeline (``O0``/``O1``/``O2`` preset or a custom ``--passes``
  list) or re-running ``ANALYZE`` makes stale entries unreachable;
  registration and ``ANALYZE`` additionally clear the cache eagerly.
* :class:`PreparedQuery` — one prepare's outcome: the compiled query plus
  whether this prepare was served from cache (warm) or compiled (cold).
* :class:`CacheStats` — the one record of the cache's events: hit, miss,
  eviction and invalidation counts, surfaced by the CLI (``run-sql
  --cache-stats`` and ``--metrics-json``) and the benchmark harness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import CompiledQuery

__all__ = ["CacheStats", "PlanCache", "PreparedQuery",
           "normalize_sql", "DEFAULT_PLAN_CACHE_SIZE"]

#: Default number of prepared queries retained per session.
DEFAULT_PLAN_CACHE_SIZE = 64

def normalize_sql(sql: str) -> str:
    """Whitespace-insensitive form of a query used as the cache key.

    Deliberately conservative: ``--`` comments *outside string
    literals* drop up to their newline, runs of whitespace collapse to
    one space and trailing semicolons drop, but case and literal
    contents are preserved — two texts only share a key when the parser
    provably sees the same token stream.  Whitespace inside ``'...'``
    literals is significant and kept verbatim (collapsing it would
    alias genuinely different queries onto one cache entry).  A comment
    goes before whitespace collapses: the newline ending it is what
    separates it from the next clause, so collapsing first would fold
    that clause into the comment.
    """
    out: list[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end
        elif ch == "'":
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped ''
                        j += 2
                        continue
                    break
                j += 1
            out.append(sql[i:min(j + 1, n)])
            i = j + 1
        elif ch.isspace():
            while i < n and sql[i].isspace():
                i += 1
            if not out or out[-1] != " ":   # one run across a comment
                out.append(" ")
        else:
            out.append(ch)
            i += 1
    text = "".join(out).strip()
    while text.endswith(";"):
        text = text[:-1].rstrip()
    return text


@dataclass
class CacheStats:
    """Hit, miss, eviction and invalidation counts (the cache analog of
    ``CompileReport``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions} "
                f"invalidations={self.invalidations} "
                f"hit_rate={self.hit_rate:.1%}")

    def to_dict(self) -> dict:
        """JSON-ready form, included in the CLI's ``--metrics-json``
        dump."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """Thread-safe LRU cache of compiled queries; :attr:`stats` counts
    its events."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got "
                             f"{capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, "CompiledQuery"] = OrderedDict()
        #: Raw query text -> :func:`normalize_sql` of it, most recent
        #: last and as many as the cache holds entries.
        self._normalized: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def key_of(self, sql: str, opt_level: str, backend: str,
               catalog_fingerprint: tuple, udf_fingerprint: tuple,
               pipeline_fingerprint: str,
               stats_fingerprint: int | None) -> tuple:
        """The cache key for one compilation request.

        ``pipeline_fingerprint`` identifies the pass pipeline the
        compilation runs (``"O0"``/``"O1"``/``"O2"`` for presets,
        ``"custom(...)"`` for an explicit pass list).
        ``stats_fingerprint`` is the session's statistics generation
        (:meth:`repro.stats.StatsStore.fingerprint`): ``None`` while no
        statistics exist and a fresh integer after every ``ANALYZE``,
        so plans estimated (or reordered) under old statistics never
        serve a post-ANALYZE session.  :func:`normalize_sql` is
        remembered for the last ``capacity`` texts: a repeated query is
        normalized once."""
        return (self._normalize(sql), opt_level, backend,
                catalog_fingerprint, udf_fingerprint,
                pipeline_fingerprint, stats_fingerprint)

    def _normalize(self, sql: str) -> str:
        with self._lock:
            text = self._normalized.get(sql)
            if text is not None:
                self._normalized.move_to_end(sql)
                return text
        text = normalize_sql(sql)
        with self._lock:
            self._normalized[sql] = text
            while len(self._normalized) > self.capacity:
                self._normalized.popitem(last=False)
        return text

    def lookup(self, key: tuple) -> "CompiledQuery | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def insert(self, key: tuple, compiled: "CompiledQuery") -> None:
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (UDF registration, ``ANALYZE``, explicit
        reset)."""
        with self._lock:
            if self._entries:
                self._entries.clear()
                self.stats.invalidations += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries


@dataclass
class PreparedQuery:
    """The result of ``EngineSession.prepare``: a compiled query plus
    cache provenance.  ``cached`` is True when this prepare skipped
    parse→plan→optimize→codegen entirely (a warm hit)."""

    query: "CompiledQuery"
    cached: bool
    key: tuple = field(repr=False, default=())

    def run(self, n_threads: int = 1, **kwargs):
        return self.query.run(n_threads=n_threads, **kwargs)

    @property
    def sql(self) -> str:
        return self.query.sql

    @property
    def compile_seconds(self) -> float:
        """Cold compile cost (paid once; zero marginal cost when
        ``cached``)."""
        return self.query.compile_seconds

    @property
    def program(self):
        return self.query.program
