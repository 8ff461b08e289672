"""Runtime metrics.

A zero-dependency registry of named instruments, reported into by the
plan cache (hits/misses/evictions), the kernel executor (invocations,
rows, wall time histogram), the allocation profiler (peak bytes) and
the baseline operators (rows scanned/produced):

* :class:`Counter` — monotonically increasing total (int or float);
* :class:`Gauge` — last-set or running-maximum value (peak bytes);
* :class:`Histogram` — count/sum/min/max plus log-scale bucket counts.
  Bounds are a per-instrument constructor argument: the default
  :data:`DEFAULT_BUCKETS` is sized for kernel wall times (1µs – 10s),
  and byte-valued histograms (the allocation profiler's
  ``prof.query_bytes``) pass :data:`BYTE_BUCKETS` (1KiB – 1GiB) so
  observations don't all land in one overflow bucket.

All instruments are thread-safe.  A registry is a plain instance — each
:class:`~repro.engine.session.EngineSession` owns one and hands it to
every stage through the :class:`~repro.core.context.QueryContext`.
Instruments are created on first use and keep their identity across
:meth:`MetricsRegistry.reset` (values zero in place), so owners may
cache instrument references.

The flat JSON form (:meth:`MetricsRegistry.snapshot`) is what the CLI's
``--metrics-json`` writes and what ``benchmarks/report.py`` consumes to
split the paper's COMP column into per-phase figures.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "BYTE_BUCKETS", "QERROR_BUCKETS"]

#: Default histogram bucket upper bounds, in seconds.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Bucket upper bounds for byte-valued histograms: 1KiB … 1GiB in
#: powers of 8, plus the KiB/MiB/GiB decades in between.  Values above
#: the last bound land in the implicit overflow (``le_inf``) bucket
#: (same convention as DEFAULT_BUCKETS); count/sum/min/max record them
#: too.
BYTE_BUCKETS = (1 << 10, 1 << 13, 1 << 16, 1 << 20, 1 << 23,
                1 << 26, 1 << 30)

#: Bucket upper bounds for q-error histograms (``stats.q_error``).
#: Q-error is ``max(est/actual, actual/est)`` ≥ 1: the low buckets
#: resolve the "estimates are good" range (≤2 is the acceptance bar
#: on the TPC-H filters), the high ones the order-of-magnitude misses
#: stale statistics produce.
QERROR_BUCKETS = (1.1, 1.25, 1.5, 2.0, 4.0, 16.0, 64.0, 256.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value; ``set_max`` records high-water marks."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self):
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self):
        return self.value


class Histogram:
    """Count/sum/min/max plus log-scale bucket counts.

    Values above the last configured bound land in an implicit
    overflow bucket, so per-bucket counts always sum to ``count``.  The
    overflow bucket appears in snapshots (as ``le_inf``) only when it
    is non-empty, keeping historical snapshots byte-identical for
    distributions that never overflowed."""

    __slots__ = ("name", "_lock", "_bounds", "_buckets", "_overflow",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, bounds=DEFAULT_BUCKETS):
        self.name = name
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        self._buckets = [0] * len(self._bounds)
        self._overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._buckets[index] += 1
                    break
            else:
                self._overflow += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def _reset(self) -> None:
        with self._lock:
            self._buckets = [0] * len(self._bounds)
            self._overflow = 0
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None

    def _snapshot(self):
        with self._lock:
            buckets = {f"le_{bound:g}": count for bound, count
                       in zip(self._bounds, self._buckets)}
            if self._overflow:
                buckets["le_inf"] = self._overflow
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": self.sum / self.count if self.count else 0.0,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime —
    asking for ``counter("x")`` after ``gauge("x")`` is a programming
    error and raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a {cls.__name__}")
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    def snapshot(self) -> dict:
        """Flat ``{name: value-or-summary}`` dict, sorted by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument._snapshot()
                for name, instrument in instruments}

    def reset(self) -> None:
        """Zero every instrument in place (identities survive, so
        modules caching instrument references stay wired up)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._reset()

