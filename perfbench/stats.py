"""Statistics derived from raw samples and spans.

Latency and throughput are computed per *slice* — a run of consecutive
completions — and reported as the interquartile mean over slices: the
slowest and fastest quarter of slices are dropped, so one transient
stall spoils one slice of a run rather than the whole run, and the mean
of the rest moves smoothly when the run switches between speed modes
(a median jumps from one mode to the other).
"""

from __future__ import annotations

import statistics

import numpy as np

__all__ = [
    "interquartile_mean",
    "percentile",
    "reference_times",
    "self_time",
    "sliced",
    "spread",
    "union_length",
]


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (``q`` in [0, 100])."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(arr, q))


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest
    quarter (``len // 4`` each); the plain mean below four values."""
    v = sorted(float(x) for x in values)
    if not v:
        raise ValueError("interquartile mean of no values")
    cut = len(v) // 4
    return statistics.fmean(v[cut: len(v) - cut])


def sliced(starts, ends, t_begin: float, slice_len: int) -> dict:
    """Per-slice latency percentiles and throughput, and their
    interquartile means over slices.

    ``starts``/``ends`` are the call and completion times of every
    request (seconds); ``t_begin`` is when the measured loop started.
    Requests are ordered by completion and cut into slices of
    ``slice_len``; a trailing partial slice is dropped unless there is
    no full one.  A slice's throughput is its size over the time from
    the previous slice's last completion (or ``t_begin``) to its own.
    """
    if slice_len <= 0:
        raise ValueError("slice_len must be positive")
    order = np.argsort(np.asarray(ends, dtype=np.float64), kind="stable")
    s = np.asarray(starts, dtype=np.float64)[order]
    e = np.asarray(ends, dtype=np.float64)[order]
    n = len(e)
    if n == 0:
        raise ValueError("no samples")
    n_slices = n // slice_len
    if n_slices == 0:
        n_slices, slice_len = 1, n
    lat_ms = (e - s) * 1e3
    p50, p90, rps = [], [], []
    prev = t_begin
    for j in range(n_slices):
        lo, hi = j * slice_len, (j + 1) * slice_len
        p50.append(percentile(lat_ms[lo:hi], 50))
        p90.append(percentile(lat_ms[lo:hi], 90))
        rps.append(slice_len / (e[hi - 1] - prev))
        prev = e[hi - 1]
    return {
        "latency_p50_ms": interquartile_mean(p50),
        "latency_p90_ms": interquartile_mean(p90),
        "throughput_rps": interquartile_mean(rps),
        "samples": n_slices * slice_len,
        "slices": n_slices,
        "slice_len": slice_len,
    }


def reference_times(times, windows) -> np.ndarray:
    """Map wall-clock ``times`` onto a clock that runs only inside
    ``windows`` and, in each, at its speed.

    ``windows`` is a list of ``(t_begin, t_end, speed)`` in time order;
    the reference clock starts at 0 at the first window's begin, runs at
    ``speed`` times the wall-clock rate inside a window and stands still
    between windows.  A duration inside one window is therefore scaled
    by that window's speed: what it would have been at speed 1.0.  Every
    time must fall inside a window.
    """
    begins = np.array([w[0] for w in windows], dtype=np.float64)
    ends = np.array([w[1] for w in windows], dtype=np.float64)
    speeds = np.array([w[2] for w in windows], dtype=np.float64)
    offsets = np.concatenate(([0.0], np.cumsum((ends - begins) * speeds)))
    t = np.asarray(times, dtype=np.float64)
    idx = np.searchsorted(begins, t, side="right") - 1
    if np.any(idx < 0) or np.any(t > ends[np.maximum(idx, 0)]):
        raise ValueError("a time falls outside every window")
    return offsets[idx] + (t - begins[idx]) * speeds[idx]


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(parent: tuple, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    lo, hi = parent
    return (hi - lo) - union_length(children, lo, hi)


def spread(values) -> dict:
    """Median, quartiles and spreads of repeated measurements.

    ``iqr_share`` is the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) over the median;
    ``range_share`` is max minus min over the median.
    """
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("inf"),
        "range_share": (max(values) - min(values)) / med if med else float("inf"),
    }
