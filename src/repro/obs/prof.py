"""Allocation/materialization profiling (the memory side of obs).

The paper's headline claim is that inlining + fusion *eliminate
intermediate materialization*; the tracer (PR 2) only shows where the
time went.  This module charges every materialized vector to the
statement, builtin, and kernel that produced it, so the claim becomes a
measured number instead of a narrative:

* :class:`AllocationProfile` — a per-:class:`~repro.core.context.QueryContext`
  recorder.  The reference interpreter charges one entry per executed
  assignment (the naive mode's statement-at-a-time materialization),
  the compiled executor charges each fused kernel's *outputs* plus its
  reused chunk buffers **once per invocation** (the fusion payoff:
  chunk-sized temporaries written through ``out=`` never re-charge),
  and opaque statements charge like interpreter assignments.  A
  peak-footprint gauge tracks the largest live set any charge site
  observed;
* :data:`NULL_PROFILE` — the default.  Disabled profiling must be near
  free: every instrumentation site checks ``profile.enabled`` (one
  attribute read) before computing any byte count
  (``benchmarks/bench_obs_overhead.py`` bounds the disabled cost at
  <2% on warm TPC-H Q6, same bar as the tracer);
* :func:`fusion_savings` — the paper-style "intermediates eliminated"
  report comparing a naive profile against an optimized one for the
  same query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType

__all__ = ["AllocationProfile", "NullAllocationProfile", "NULL_PROFILE",
           "FusionSavings", "fusion_savings", "format_fusion_savings",
           "format_bytes"]


def format_bytes(n: float) -> str:
    """``1536`` → ``"1.5KiB"`` — the human form the renderers print."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{n:.0f}B"
            return f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


class AllocationProfile:
    """Byte-level accounting for one query (or one batch of queries).

    Thread-safe: concurrent sessions handed the same profile must not
    lose updates.

    ``events`` counts every instrumentation call (record, builtin
    breakdown, peak update) — the number the overhead benchmark
    multiplies by the disabled-site cost.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.bytes_allocated = 0
        self.intermediates_materialized = 0
        self.peak_bytes = 0
        self.events = 0
        #: site label → [count, bytes]; sites are ``stmt:<target>``
        #: (statements the statement loop runs) and ``kernel:<fn>``
        #: (fused segments).
        self.sites: dict[str, list] = {}
        #: builtin name → [count, bytes] — the per-builtin aggregate
        #: (a breakdown of the statement-level total, not added twice).
        self.builtins: dict[str, list] = {}

    def record(self, nbytes: int, site: str | None = None,
               count: int = 1) -> None:
        """Charge ``nbytes`` of materialized output to ``site`` and
        count ``count`` intermediates."""
        with self._lock:
            self.bytes_allocated += nbytes
            self.intermediates_materialized += count
            self.events += 1
            if site is not None:
                entry = self.sites.get(site)
                if entry is None:
                    self.sites[site] = [count, nbytes]
                else:
                    entry[0] += count
                    entry[1] += nbytes

    def record_builtin(self, name: str, nbytes: int) -> None:
        """Feed the per-builtin breakdown (no effect on the total —
        the owning statement already charged these bytes)."""
        with self._lock:
            self.events += 1
            entry = self.builtins.get(name)
            if entry is None:
                self.builtins[name] = [1, nbytes]
            else:
                entry[0] += 1
                entry[1] += nbytes

    def update_peak(self, live_bytes: int) -> None:
        """Report the charge site's current live-set estimate; the
        profile keeps the high-water mark."""
        with self._lock:
            self.events += 1
            if live_bytes > self.peak_bytes:
                self.peak_bytes = live_bytes

    def counters(self) -> tuple[int, int]:
        """``(bytes_allocated, intermediates_materialized)`` — snapshot
        for per-query delta computation."""
        with self._lock:
            return self.bytes_allocated, self.intermediates_materialized

    def reset(self) -> None:
        with self._lock:
            self.bytes_allocated = 0
            self.intermediates_materialized = 0
            self.peak_bytes = 0
            self.events = 0
            self.sites = {}
            self.builtins = {}

    def to_dict(self) -> dict:
        """The JSON form ``--profile`` writes."""
        with self._lock:
            return {
                "bytes_allocated": self.bytes_allocated,
                "intermediates_materialized":
                    self.intermediates_materialized,
                "peak_bytes": self.peak_bytes,
                "sites": {name: {"count": count, "bytes": nbytes}
                          for name, (count, nbytes)
                          in sorted(self.sites.items())},
                "builtins": {name: {"count": count, "bytes": nbytes}
                             for name, (count, nbytes)
                             in sorted(self.builtins.items())},
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AllocationProfile({format_bytes(self.bytes_allocated)}"
                f", {self.intermediates_materialized} intermediates, "
                f"peak {format_bytes(self.peak_bytes)})")


class NullAllocationProfile:
    """The disabled profile: allocation-free, state-free, shared."""

    __slots__ = ()
    enabled = False
    bytes_allocated = 0
    intermediates_materialized = 0
    peak_bytes = 0
    events = 0
    # Read-only so the singleton truly carries no mutable state (the
    # no-globals guard audits this).
    sites = MappingProxyType({})
    builtins = MappingProxyType({})

    def record(self, nbytes, site=None, count=1) -> None:
        pass

    def record_builtin(self, name, nbytes) -> None:
        pass

    def update_peak(self, live_bytes) -> None:
        pass

    def counters(self) -> tuple[int, int]:
        return (0, 0)

    def reset(self) -> None:
        pass

    def to_dict(self) -> dict:
        return {"bytes_allocated": 0, "intermediates_materialized": 0,
                "peak_bytes": 0, "sites": {}, "builtins": {}}


NULL_PROFILE = NullAllocationProfile()

@dataclass(frozen=True)
class FusionSavings:
    """The paper-style delta between a naive and an optimized profile
    of the same query: how much materialization fusion eliminated."""

    naive_bytes: int
    opt_bytes: int
    naive_intermediates: int
    opt_intermediates: int
    naive_peak: int
    opt_peak: int

    @property
    def bytes_saved(self) -> int:
        return self.naive_bytes - self.opt_bytes

    @property
    def intermediates_eliminated(self) -> int:
        return self.naive_intermediates - self.opt_intermediates

    @property
    def bytes_ratio(self) -> float:
        """opt/naive bytes (lower is better; 1.0 = no savings)."""
        return (self.opt_bytes / self.naive_bytes
                if self.naive_bytes else 1.0)

    def to_dict(self) -> dict:
        return {
            "naive_bytes": self.naive_bytes,
            "opt_bytes": self.opt_bytes,
            "bytes_saved": self.bytes_saved,
            "naive_intermediates": self.naive_intermediates,
            "opt_intermediates": self.opt_intermediates,
            "intermediates_eliminated": self.intermediates_eliminated,
            "naive_peak": self.naive_peak,
            "opt_peak": self.opt_peak,
            "bytes_ratio": self.bytes_ratio,
        }


def fusion_savings(naive_profile, opt_profile) -> FusionSavings:
    """Compare two profiles of the *same* query — naive (full
    materialization) vs optimized (fused) — and report the avoided
    materialization."""
    return FusionSavings(
        naive_bytes=naive_profile.bytes_allocated,
        opt_bytes=opt_profile.bytes_allocated,
        naive_intermediates=naive_profile.intermediates_materialized,
        opt_intermediates=opt_profile.intermediates_materialized,
        naive_peak=naive_profile.peak_bytes,
        opt_peak=opt_profile.peak_bytes,
    )


def format_fusion_savings(savings: FusionSavings,
                          title: str = "fusion savings") -> str:
    """The printable report (benchmarks and the worked example in
    docs/observability.md)."""
    lines = [
        f"# {title}",
        f"bytes allocated   : naive {format_bytes(savings.naive_bytes):>10}"
        f"  opt {format_bytes(savings.opt_bytes):>10}"
        f"  saved {format_bytes(savings.bytes_saved):>10}"
        f"  ({(1.0 - savings.bytes_ratio) * 100:.1f}% less)",
        f"intermediates     : naive {savings.naive_intermediates:>10}"
        f"  opt {savings.opt_intermediates:>10}"
        f"  intermediates eliminated {savings.intermediates_eliminated}",
        f"peak footprint    : naive {format_bytes(savings.naive_peak):>10}"
        f"  opt {format_bytes(savings.opt_peak):>10}",
    ]
    return "\n".join(lines)
