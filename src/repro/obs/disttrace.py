"""Distributed request tracing across the sharded serve tier.

One request through the cluster crosses three clocks and at least two
processes: the router enqueues and frames it, a shard worker decodes it,
looks up the plan, solves, and replies.  None of the per-process tools
(:class:`~repro.obs.tracelog.TraceLog`, the profiler) can say *which
hop* made a slow request slow — this module can, by propagating **span
context** through the :mod:`repro.serve.shardproto` frame headers and
reassembling the pieces on the router side:

* :class:`SpanContext` — the versioned wire form of "you are part of
  trace T, under parent span S".  Older peers ignore the extra header
  key; newer versions than we speak simply read as "no context", so the
  protocol stays backward- and forward-compatible.
* :class:`SpanRecorder` — per-process span factory.  A worker buffers
  its finished spans for shipment and piggybacks the buffer on reply
  frames and health-check (ping) replies — there is no extra RPC for
  traces; the router's own spans go straight to its collector.
* :class:`ClockAligner` — workers stamp spans with their own
  ``time.time()``; the router estimates each worker's clock offset
  NTP-style from ping request/reply pairs (offset = worker wall clock
  minus the midpoint of send/receive, best = minimum-RTT sample) and
  the collector shifts remote spans onto the router's clock.
* :class:`TraceCollector` — reassembles spans into causal trees, keeps
  per-hop latency reservoirs (p50/p99 per hop), and captures **slow
  request exemplars**: full span trees for requests over an
  SLO-derived threshold (explicit ``slow_ms``, or adaptive = the p95 of
  root durations seen so far), in a bounded ring.  Exemplars export as
  ``tracelog/2`` JSONL that ``repro-sptrsv replay`` accepts.

The single multi-process Chrome/Perfetto export (one ``pid`` row per
process, flow arrows router→worker) lives in
:func:`repro.obs.chrome.spans_chrome_trace`; the collector's
:meth:`~TraceCollector.chrome_trace` hands it the aligned spans.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Optional, Union

from repro.obs.tracelog import new_id, write_tracelog

__all__ = [
    "SPAN_CONTEXT_VERSION",
    "SpanContext",
    "Span",
    "SpanRecorder",
    "ClockAligner",
    "TraceCollector",
    "span_event",
]

#: Version stamped into the wire form of a span context.  Receivers
#: ignore contexts from a future major version instead of guessing.
SPAN_CONTEXT_VERSION = 1


class SpanContext:
    """The propagated part of a span: trace id + parent span id."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self) -> dict:
        """Versioned JSON-header form (rides in shardproto headers)."""
        return {
            "v": SPAN_CONTEXT_VERSION,
            "trace": self.trace_id,
            "span": self.span_id,
        }

    @classmethod
    def from_wire(cls, doc) -> Optional["SpanContext"]:
        """Decode a header field; ``None`` for absent, malformed, or
        newer-than-supported contexts (backward/forward compatible)."""
        if not isinstance(doc, dict):
            return None
        if doc.get("v", 0) > SPAN_CONTEXT_VERSION:
            return None
        trace, span = doc.get("trace"), doc.get("span")
        if not isinstance(trace, str) or not isinstance(span, str):
            return None
        return cls(trace, span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


class Span:
    """One timed hop of one request in one process.

    Mutable until :meth:`finish`; the recorder turns finished spans into
    plain dicts (the only form that crosses process boundaries).
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "process",
        "start", "end", "attrs",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        process: str,
        start: float,
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.process = process
        self.start = start
        self.end: Optional[float] = None
        self.attrs = dict(attrs or {})

    @property
    def context(self) -> SpanContext:
        """Context for children of this span (local or remote)."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
        }


def span_event(span: dict) -> dict:
    """A finished span dict (:meth:`Span.to_dict`) as one TraceLog
    ``span`` event: the span's name under ``span``, its attrs flattened
    beside the span fields (a span field wins a name clash).  The one
    form every span takes in a TraceLog or a ``tracelog/2`` file."""
    event = dict(span.get("attrs") or {})
    event.update(
        kind="span",
        trace_id=span.get("trace_id"),
        span=span.get("name"),
        span_id=span.get("span_id"),
        parent_id=span.get("parent_id"),
        process=span.get("process"),
        start=span.get("start"),
        end=span.get("end"),
        duration_ms=span.get("duration_ms"),
    )
    return event


class SpanRecorder:
    """Per-process span factory and buffer.

    ``sink`` (router side) receives each finished span dict immediately
    — typically :meth:`TraceCollector.record`.  Without a sink (worker
    side) finished spans accumulate in a bounded buffer until
    :meth:`drain` ships them piggybacked on a reply frame.
    Thread-safe.
    """

    def __init__(
        self,
        process: str,
        *,
        sink: Optional[Callable[[dict], None]] = None,
        capacity: int = 4096,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.process = process
        self.sink = sink
        self.clock = clock
        self._lock = threading.Lock()
        self._buffer: deque[dict] = deque(maxlen=capacity)
        self._started = 0
        self._finished = 0

    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        """Open a span; mints a fresh trace id when none is given."""
        with self._lock:
            self._started += 1
        return Span(
            name,
            trace_id=trace_id or new_id(),
            span_id=new_id(),
            parent_id=parent_id,
            process=self.process,
            start=self.clock(),
            attrs=attrs,
        )

    def finish(self, span: Span, **attrs) -> dict:
        """Close a span: stamp the end time, buffer or sink it."""
        if span.end is None:
            span.end = self.clock()
        span.attrs.update(attrs)
        record = span.to_dict()
        with self._lock:
            self._finished += 1
        if self.sink is not None:
            self.sink(record)
        else:
            with self._lock:
                self._buffer.append(record)
        return record

    @contextmanager
    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[dict] = None,
    ):
        """Context manager: open on entry, finish on exit (errors are
        recorded as an ``error`` attr and re-raised)."""
        sp = self.start(
            name, trace_id=trace_id, parent_id=parent_id, attrs=attrs
        )
        try:
            yield sp
        except BaseException as exc:
            self.finish(sp, error=type(exc).__name__)
            raise
        self.finish(sp)

    def drain(self, limit: Optional[int] = None) -> list[dict]:
        """Pop buffered finished spans (oldest first) for shipment."""
        out: list[dict] = []
        with self._lock:
            while self._buffer and (limit is None or len(out) < limit):
                out.append(self._buffer.popleft())
        return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "process": self.process,
                "started": self._started,
                "finished": self._finished,
                "buffered": len(self._buffer),
            }


# ---------------------------------------------------------------------------
# clock alignment
# ---------------------------------------------------------------------------


class ClockAligner:
    """Per-node wall-clock offset estimation from request/reply pairs.

    For a ping sent at local time ``t_send``, answered with the node's
    wall clock ``t_node`` and received at local ``t_recv``, the classic
    NTP estimate is ``offset = t_node - (t_send + t_recv) / 2`` with
    uncertainty bounded by the round trip ``t_recv - t_send``.  The
    aligner keeps the minimum-RTT sample per node — the least-queued
    exchange gives the tightest bound.  Thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # node -> (offset_s, rtt_s, samples)
        self._best: dict[str, tuple[float, float, int]] = {}

    def observe(
        self, node: str, t_send: float, t_node: float, t_recv: float
    ) -> float:
        """Fold one exchange in; returns the offset estimate used."""
        rtt = max(0.0, t_recv - t_send)
        offset = t_node - (t_send + t_recv) / 2.0
        with self._lock:
            prev = self._best.get(node)
            if prev is None or rtt < prev[1]:
                self._best[node] = (offset, rtt, (prev[2] + 1) if prev else 1)
            else:
                self._best[node] = (prev[0], prev[1], prev[2] + 1)
        return offset

    def offset(self, node: Optional[str]) -> float:
        """Estimated ``node clock - local clock`` (0.0 when unknown)."""
        if node is None:
            return 0.0
        with self._lock:
            best = self._best.get(node)
        return best[0] if best else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                node: {
                    "offset_s": offset,
                    "rtt_s": rtt,
                    "samples": samples,
                }
                for node, (offset, rtt, samples) in sorted(self._best.items())
            }


# ---------------------------------------------------------------------------
# collection and reassembly
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an unsorted list (q in 0..1)."""
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: list[float], q: float) -> float:
    """:func:`_percentile` of an already ascending list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class TraceCollector:
    """Router-side reassembly of local and remote spans.

    Feeds three consumers: :meth:`tree` (one causal timeline per trace),
    :meth:`hop_stats` (p50/p99 per hop name, the tail-latency
    attribution dataset), and the slow-request exemplar ring.  Remote
    spans are shifted onto the local clock via the ``aligner`` before
    anything downstream sees them.  Thread-safe.
    """

    #: Root-duration reservoir size for the adaptive slow threshold.
    _ROOT_RESERVOIR = 512
    #: Per-hop duration reservoir size.
    _HOP_RESERVOIR = 2048

    def __init__(
        self,
        *,
        aligner: Optional[ClockAligner] = None,
        slow_ms: Optional[float] = None,
        exemplar_capacity: int = 32,
        max_traces: int = 1024,
    ) -> None:
        if exemplar_capacity <= 0:
            raise ValueError("exemplar_capacity must be positive")
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.aligner = aligner or ClockAligner()
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[dict]]" = OrderedDict()
        self._max_traces = max_traces
        self._hops: dict[str, deque] = {}
        self._roots: deque = deque(maxlen=self._ROOT_RESERVOIR)
        # the same durations kept ascending, so the adaptive threshold
        # is an O(1) read instead of a sort per root span
        self._roots_sorted: list[float] = []
        self._exemplars: deque = deque(maxlen=exemplar_capacity)
        self._span_count = 0
        self._dropped_traces = 0

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def record(self, span: dict) -> None:
        """Ingest one finished local span dict."""
        self._ingest(dict(span))

    def record_remote(
        self, spans: Iterable[dict], *, node: Optional[str] = None
    ) -> int:
        """Ingest spans shipped from ``node``, shifted onto the local
        clock by the aligner's offset estimate; returns the count."""
        offset = self.aligner.offset(node)
        count = 0
        for span in spans or ():
            if not isinstance(span, dict):
                continue
            adjusted = dict(span)
            for field in ("start", "end"):
                value = adjusted.get(field)
                if isinstance(value, (int, float)):
                    adjusted[field] = value - offset
            if offset:
                adjusted["clock_offset_s"] = offset
            self._ingest(adjusted)
            count += 1
        return count

    def _ingest(self, span: dict) -> None:
        trace_id = span.get("trace_id")
        if not trace_id:
            return
        name = span.get("name", "?")
        duration = float(span.get("duration_ms") or 0.0)
        with self._lock:
            self._span_count += 1
            bucket = self._traces.get(trace_id)
            if bucket is None:
                bucket = self._traces[trace_id] = []
                while len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
                    self._dropped_traces += 1
            bucket.append(span)
            reservoir = self._hops.get(name)
            if reservoir is None:
                reservoir = self._hops[name] = deque(
                    maxlen=self._HOP_RESERVOIR
                )
            reservoir.append(duration)
            is_root = span.get("parent_id") is None
            if is_root:
                self._add_root(duration)
        if is_root:
            self._maybe_capture(trace_id, duration)

    def _add_root(self, duration: float) -> None:
        """Append to the root reservoir and its ascending copy (caller
        holds the lock): the evicted oldest value leaves both."""
        roots, ordered = self._roots, self._roots_sorted
        if len(roots) == roots.maxlen:
            old = roots[0]
            i = bisect_left(ordered, old)
            if i < len(ordered) and ordered[i] == old:
                del ordered[i]
            else:  # a NaN compares unequal to itself: drop the object
                ordered.remove(old)
        roots.append(duration)
        insort(ordered, duration)

    # ------------------------------------------------------------------
    # slow-request exemplars
    # ------------------------------------------------------------------
    def slow_threshold_ms(self) -> float:
        """The active slow-request threshold: the explicit ``slow_ms``
        when configured, else the p95 of observed root durations (the
        SLO tracker's tail percentile, derived from live data), read
        from the reservoir's ascending copy without a sort."""
        if self.slow_ms is not None:
            return float(self.slow_ms)
        with self._lock:
            return _sorted_percentile(self._roots_sorted, 0.95)

    def _maybe_capture(self, trace_id: str, total_ms: float) -> None:
        threshold = self.slow_threshold_ms()
        if total_ms < threshold:
            return
        spans = self.spans(trace_id)
        exemplar = {
            "trace_id": trace_id,
            "total_ms": total_ms,
            "threshold_ms": threshold,
            "dominant_hop": self.dominant_hop(trace_id),
            "spans": spans,
        }
        with self._lock:
            self._exemplars.append(exemplar)

    def exemplars(self) -> list[dict]:
        """Captured slow-request exemplars, oldest first."""
        with self._lock:
            return [dict(e) for e in self._exemplars]

    def export_exemplars(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write the exemplar ring as ``tracelog/2`` JSONL.

        Each exemplar contributes one synthetic ``enqueue``/``publish``
        event pair (so ``repro-sptrsv replay`` re-drives the slow
        requests and its completion check balances) followed by its
        spans as :func:`span_event` records; returns the exemplar count.
        """
        exemplars = self.exemplars()
        events = []
        for ex in exemplars:
            root = next(
                (s for s in ex["spans"] if s.get("parent_id") is None),
                None,
            ) or {}
            attrs = root.get("attrs", {})
            events.append({
                "kind": "enqueue",
                "ts": root.get("start", 0.0),
                "trace_id": ex["trace_id"],
                "matrix": attrs.get("matrix", "exemplar"),
                "n_rhs": int(attrs.get("n_rhs", 1)),
                "total_ms": ex["total_ms"],
                "dominant_hop": ex["dominant_hop"],
            })
            events.append({
                "kind": "publish",
                "ts": root.get("end", 0.0),
                "trace_id": ex["trace_id"],
                "latency_ms": ex["total_ms"],
            })
            events.extend(span_event(span) for span in ex["spans"])
        write_tracelog(path_or_file, events)
        return len(exemplars)

    # ------------------------------------------------------------------
    # reassembly
    # ------------------------------------------------------------------
    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def spans(self, trace_id: str) -> list[dict]:
        """All collected spans of one trace, ordered by start time."""
        with self._lock:
            bucket = [dict(s) for s in self._traces.get(trace_id, ())]
        return sorted(bucket, key=lambda s: (s.get("start") or 0.0))

    def all_spans(self) -> list[dict]:
        """Every collected span (for the multi-process Chrome export)."""
        with self._lock:
            out = [
                dict(s) for bucket in self._traces.values() for s in bucket
            ]
        return sorted(out, key=lambda s: (s.get("start") or 0.0))

    def tree(self, trace_id: str) -> Optional[dict]:
        """The trace reassembled as one causal tree (children ordered by
        start time).  ``None`` when the trace is unknown or has no root;
        orphans (parent not collected) attach under the root."""
        spans = self.spans(trace_id)
        if not spans:
            return None
        nodes = {
            s["span_id"]: dict(s, children=[])
            for s in spans
            if s.get("span_id")
        }
        root = None
        for span in spans:
            node = nodes.get(span.get("span_id"))
            if node is None:
                continue
            parent = nodes.get(span.get("parent_id"))
            if span.get("parent_id") is None and root is None:
                root = node
            elif parent is not None and parent is not node:
                parent["children"].append(node)
        if root is None:
            return None
        claimed = set()

        def mark(node):
            claimed.add(node["span_id"])
            for child in node["children"]:
                mark(child)

        mark(root)
        for span_id, node in nodes.items():
            if span_id not in claimed:
                root["children"].append(node)
                mark(node)
        return root

    def dominant_hop(self, trace_id: str) -> Optional[str]:
        """Name of the longest non-root span of the trace — the hop to
        blame for a slow request."""
        spans = self.spans(trace_id)
        hops = [s for s in spans if s.get("parent_id") is not None]
        if not hops:
            return None
        worst = max(hops, key=lambda s: float(s.get("duration_ms") or 0.0))
        return worst.get("name")

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def hop_stats(self) -> dict:
        """Per-hop latency attribution: count, p50/p99, mean, max (ms)."""
        with self._lock:
            hops = {name: list(res) for name, res in self._hops.items()}
        out = {}
        for name in sorted(hops):
            values = hops[name]
            out[name] = {
                "count": len(values),
                "p50_ms": _percentile(values, 0.50),
                "p99_ms": _percentile(values, 0.99),
                "mean_ms": sum(values) / len(values) if values else 0.0,
                "max_ms": max(values) if values else 0.0,
            }
        return out

    def stats(self) -> dict:
        with self._lock:
            traces = len(self._traces)
            spans = self._span_count
            exemplars = len(self._exemplars)
            dropped = self._dropped_traces
        return {
            "traces": traces,
            "spans": spans,
            "dropped_traces": dropped,
            "exemplars": exemplars,
            "slow_threshold_ms": self.slow_threshold_ms(),
            "hops": self.hop_stats(),
            "clocks": self.aligner.snapshot(),
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """All collected spans as one multi-process Chrome trace doc."""
        from repro.obs.chrome import spans_chrome_trace

        return spans_chrome_trace(
            self.all_spans(), clocks=self.aligner.snapshot()
        )
