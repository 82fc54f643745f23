"""Thread-safe telemetry primitives (counters, gauges, histograms).

The serving layer (:mod:`repro.serve`) publishes its runtime signals —
request latency, queue depth, batch width, cache hit-rate, fallback
counts — through these primitives so benchmarks, tests and the CLI all
read one snapshot format.  They are deliberately tiny: a production
deployment would swap them for a real metrics client, but the *shape*
of the instrumentation (what is counted, gauged and distributed) is the
part worth reproducing.

Each primitive optionally carries exposition metadata — a ``help``
string and a ``labels`` mapping — so the OpenMetrics renderer
(:mod:`repro.metrics.expo`) can emit ``# HELP``/``# TYPE`` lines and
per-lane/per-solver series straight from the objects, without a
parallel registry describing them a second time.

All primitives are safe to update from any thread: the engine's solve
work runs in a thread pool while its batching front runs on the event
loop, so every counter here may be hit from both sides concurrently.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Mapping, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing counter.

    ``value`` is a plain attribute: reading it is atomic.  Counters
    built with one shared ``lock`` let their owner fold several facts
    under a single acquisition, adding to ``value`` directly while it
    holds that lock (``ServeTelemetry.count`` does); ``inc`` takes the
    lock itself.
    """

    def __init__(
        self,
        name: str = "",
        *,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = lock if lock is not None else threading.Lock()
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, value={self.value!r})"


class Gauge:
    """A value that moves both ways, remembering its high-water mark."""

    def __init__(
        self,
        name: str = "",
        *,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value: Number = 0
        self._peak: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value
            if value > self._peak:
                self._peak = value

    def add(self, delta: Number) -> None:
        with self._lock:
            self._value += delta
            if self._value > self._peak:
                self._peak = self._value

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    @property
    def peak(self) -> Number:
        with self._lock:
            return self._peak

    def __repr__(self) -> str:
        return f"Gauge(name={self.name!r}, value={self.value!r})"


def _interpolated(ordered: list, q: float) -> float:
    """Linear-interpolation percentile over a sorted, non-empty list.

    The rank is ``q/100 * (n-1)`` with interpolation between the two
    closest observations — so the median of one element is that element
    and the median of two is their midpoint, the same estimator for
    every reservoir size (nearest-rank returned the *lower* of two
    elements, a different statistic the moment a second sample landed).
    """
    n = len(ordered)
    if n == 1:
        return ordered[0]
    rank = q / 100.0 * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


class Histogram:
    """Streaming distribution with a bounded reservoir for percentiles.

    Count, sum, min and max are exact for the full stream; percentiles
    are computed over the most recent ``reservoir`` observations (a
    simple sliding window — adequate for the serving benchmarks, and
    bounded memory by construction).
    """

    def __init__(
        self,
        name: str = "",
        *,
        reservoir: int = 4096,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if reservoir <= 0:
            raise ValueError("reservoir must be positive")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._reservoir_size = reservoir
        # deque(maxlen=...) evicts the oldest sample in O(1); the old
        # ``del list[0]`` shifted the whole reservoir on every observe
        # past capacity (O(reservoir) per request at steady state)
        self._samples: deque[float] = deque(maxlen=reservoir)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: Number) -> None:
        v = float(value)
        with self._lock:
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v
            self._samples.append(v)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated percentile over the reservoir (``q`` in [0, 100]).

        An empty histogram answers 0.0 for every ``q`` — never NaN.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        return _interpolated(ordered, q)

    def summary(self) -> dict:
        """One JSON-friendly dict: count/sum/mean/min/max/p50/p95/p99.

        Taken under one lock with one sort — a coherent snapshot (the
        per-property path could interleave with writers between fields)
        that also avoids re-sorting the reservoir per percentile.  An
        empty histogram returns all-zero fields, never NaN.
        """
        with self._lock:
            count = self._count
            if not count:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                        "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            ordered = sorted(self._samples)
            total = self._sum
            lo, hi = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": _interpolated(ordered, 50),
            "p95": _interpolated(ordered, 95),
            "p99": _interpolated(ordered, 99),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(name={self.name!r}, count={self.count!r}, "
            f"mean={self.mean!r})"
        )
