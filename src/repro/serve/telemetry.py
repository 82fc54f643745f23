"""Serving-layer telemetry: one object, one snapshot.

Built from the generic primitives in :mod:`repro.metrics.telemetry`
(thread-safe counters, gauges, reservoir histograms) so the engine can
update them from both the event loop and its worker threads.  The
:meth:`ServeTelemetry.snapshot` dict is the single source every
consumer reads: tests assert on it, ``benchmarks/bench_serving.py``
prints it, and ``repro-sptrsv serve-stats`` renders it.

Every primitive is constructed with exposition metadata (``help`` text,
and ``labels`` for the per-lane families) and registered in one list, so
the OpenMetrics renderer (:mod:`repro.metrics.expo`) walks
:meth:`metrics` instead of reflecting over attribute names.  The
engine's SLO view — per-lane latency percentiles plus error-budget burn
— lives in :attr:`slo` (an :class:`repro.serve.slo.SLOTracker`) and is
folded into the snapshot under ``"slo"``.
"""

from __future__ import annotations

import functools
import threading

from repro.metrics.telemetry import Counter, Gauge, Histogram
from repro.serve.slo import SLOTracker

__all__ = ["ServeTelemetry"]


class ServeTelemetry:
    """Counters and distributions for one :class:`SolveEngine`."""

    def __init__(self) -> None:
        #: the one lock of every counter below and of the per-solver
        #: tallies: :meth:`count` folds an event under one acquisition
        self._lock = threading.Lock()
        counter = functools.partial(Counter, lock=self._lock)
        self.requests_total = counter(
            "requests_total", help="Requests admitted to the engine."
        )
        self.requests_completed = counter(
            "requests_completed", help="Requests that returned a solution."
        )
        self.requests_failed = counter(
            "requests_failed", help="Requests that raised after admission."
        )
        self.requests_timed_out = counter(
            "requests_timed_out", help="Requests that hit their deadline."
        )
        self.requests_rejected = counter(
            "requests_rejected",
            help="Requests refused at admission (queue full / unknown matrix).",
        )
        self.batches_total = counter(
            "batches_total", help="Coalesced batches flushed to a solver."
        )
        self.batch_width = Histogram(
            "batch_width", help="Right-hand sides per flushed batch."
        )
        self.latency_ms = Histogram(
            "latency_ms",
            help="End-to-end request latency, admission to response "
            "(milliseconds).",
        )
        self.queue_depth = Gauge(
            "queue_depth", help="Requests waiting in the batching queue."
        )
        self.fallback_solves = counter(
            "fallback_solves",
            help="Requests served by a fallback solver instead of their "
            "primary.",
        )
        self.kernel_failures = counter(
            "kernel_failures",
            help="Kernel launches that raised (solver quarantined for the "
            "matrix).",
        )
        self.sim_cycles = counter(
            "sim_cycles", help="Modeled SIMT cycles across simulator launches."
        )
        self.sim_exec_ms = counter(
            "sim_exec_ms",
            help="Host wall-clock spent inside simulator launches "
            "(milliseconds).",
        )
        # execution lanes: which path served each flushed block.  The
        # per-lane counters share family names and differ by label, so
        # the exposition renders them as one labelled series each.
        self.host_lane_batches = counter(
            "lane_batches",
            help="Flushed blocks served, by execution lane.",
            labels={"lane": "host"},
        )
        self.host_lane_rhs = counter(
            "lane_rhs",
            help="Right-hand sides served, by execution lane.",
            labels={"lane": "host"},
        )
        self.host_exec_ms = counter(
            "lane_exec_ms",
            help="Host wall-clock spent executing, by lane (milliseconds; "
            "the sim lane's modeled cost is sim_cycles/sim_exec_ms).",
            labels={"lane": "host"},
        )
        self.sim_lane_batches = counter(
            "lane_batches",
            help="Flushed blocks served, by execution lane.",
            labels={"lane": "sim"},
        )
        self.sim_lane_rhs = counter(
            "lane_rhs",
            help="Right-hand sides served, by execution lane.",
            labels={"lane": "sim"},
        )
        self.slo = SLOTracker()
        #: kinds that count one request each
        self._request_counters = {
            "enqueue": self.requests_total,
            "reject": self.requests_rejected,
            "timeout": self.requests_timed_out,
            "fail": self.requests_failed,
        }
        self._fallback_by_solver: dict[str, int] = {}
        self._failures_by_solver: dict[str, int] = {}

    # ------------------------------------------------------------------
    # the event fold
    # ------------------------------------------------------------------
    def count(self, event: dict) -> None:
        """Fold one lifecycle event (a TraceLog record) into the counters.

        The engine counts only what it traces (``SolveEngine._emit``) and
        replay folds a recording the same way.  Each event takes the
        counters' one lock once and adds to their values directly; the
        launch and publish folds go through the :meth:`record_lane` and
        :meth:`record_lane_latency` sinks, and histograms observe under
        their own locks.  Kinds that count nothing (``span``, older
        recordings' ``batch``) are skipped; fields older recordings lack
        read as defaults.
        """
        kind = event.get("kind")
        counter = self._request_counters.get(kind)
        if counter is not None:
            with self._lock:
                counter.value += 1
        elif kind == "launch":
            trace_ids = event.get("trace_ids", ())
            self.record_lane(
                event.get("lane", "sim"),
                event.get("n_rhs", len(trace_ids)),
                exec_ms=event.get("exec_ms", 0.0),
                cycles=event.get("cycles", 0),
                # a solve_multi block launches under its own trace id
                # and is not a flushed batch
                batch_width=0
                if event.get("batch_id") in trace_ids
                else len(trace_ids),
            )
        elif kind == "publish":
            latency = event["latency_ms"]
            with self._lock:
                self.requests_completed.value += 1
            self.latency_ms.observe(latency)
            self.record_lane_latency(event.get("lane", "sim"), latency)
        elif kind == "kernel-failure":
            solver = event["solver"]
            with self._lock:
                self.kernel_failures.value += 1
                by_name = self._failures_by_solver
                by_name[solver] = by_name.get(solver, 0) + 1
        elif kind == "fallback":
            # one event per block: count the requests it served (an
            # older event without trace_ids counts as one)
            n = len(event["trace_ids"]) if "trace_ids" in event else 1
            transition = f"{event['fallback_from']}->{event['solver']}"
            with self._lock:
                self.fallback_solves.value += n
                by_name = self._fallback_by_solver
                by_name[transition] = by_name.get(transition, 0) + n

    def record_lane(
        self,
        lane: str,
        n_rhs: int,
        *,
        exec_ms: float = 0.0,
        cycles: int = 0,
        batch_width: int = 0,
    ) -> None:
        """One block of ``n_rhs`` columns served by ``lane`` (``"host"``
        or ``"sim"``), taking ``exec_ms`` of host wall-clock and, on the
        sim lane, ``cycles`` modeled cycles.  ``batch_width`` > 0 marks
        a flushed batch of that many requests."""
        with self._lock:
            if lane == "host":
                self.host_lane_batches.value += 1
                self.host_lane_rhs.value += n_rhs
                self.host_exec_ms.value += exec_ms
            else:
                self.sim_lane_batches.value += 1
                self.sim_lane_rhs.value += n_rhs
                self.sim_cycles.value += cycles
                self.sim_exec_ms.value += exec_ms
            if batch_width:
                self.batches_total.value += 1
        if batch_width:
            self.batch_width.observe(batch_width)

    def record_lane_latency(self, lane: str, latency_ms: float) -> None:
        """One completed request's end-to-end latency, attributed to the
        lane that served it (feeds the per-lane SLO percentiles)."""
        self.slo.record(lane, latency_ms)

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def metrics(self) -> tuple:
        """Every primitive this object owns, for the OpenMetrics renderer.

        Stable order: the construction order above, then the SLO
        tracker's per-lane latency histograms (lane-sorted).
        """
        return (
            self.requests_total,
            self.requests_completed,
            self.requests_failed,
            self.requests_timed_out,
            self.requests_rejected,
            self.batches_total,
            self.batch_width,
            self.latency_ms,
            self.queue_depth,
            self.fallback_solves,
            self.kernel_failures,
            self.sim_cycles,
            self.sim_exec_ms,
            self.host_lane_batches,
            self.host_lane_rhs,
            self.host_exec_ms,
            self.sim_lane_batches,
            self.sim_lane_rhs,
        ) + self.slo.metrics()

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def _slo_snapshot(self) -> dict:
        # a rejected request never enqueues, so the attempt
        # denominator is admitted + rejected
        rejected = self.requests_rejected.value
        attempts = self.requests_total.value + rejected
        errors = {
            "rejected": rejected,
            "timed_out": self.requests_timed_out.value,
            "kernel_failures": self.kernel_failures.value,
        }
        return self.slo.snapshot(attempts=attempts, errors=errors)

    def snapshot(self) -> dict:
        """JSON-friendly view of every signal.  Per-failure detail lives
        in the engine's TraceLog (``kernel-failure`` / ``fallback``
        events), not here."""
        return {
            "requests": {
                "total": self.requests_total.value,
                "completed": self.requests_completed.value,
                "failed": self.requests_failed.value,
                "timed_out": self.requests_timed_out.value,
                "rejected": self.requests_rejected.value,
            },
            "batches": {
                "total": self.batches_total.value,
                "width": self.batch_width.summary(),
            },
            "latency_ms": self.latency_ms.summary(),
            "queue": {
                "depth": self.queue_depth.value,
                "peak": self.queue_depth.peak,
            },
            "fallbacks": {
                "solves": self.fallback_solves.value,
                "by_transition": self.fallbacks_by_transition(),
                "kernel_failures": self.kernel_failures.value,
                "failures_by_solver": self.failures_by_solver(),
            },
            "sim": {
                "cycles": self.sim_cycles.value,
                "exec_ms": self.sim_exec_ms.value,
            },
            "lanes": {
                "host": {
                    "batches": self.host_lane_batches.value,
                    "rhs": self.host_lane_rhs.value,
                    "exec_ms": self.host_exec_ms.value,
                },
                "sim": {
                    "batches": self.sim_lane_batches.value,
                    "rhs": self.sim_lane_rhs.value,
                },
            },
            "slo": self._slo_snapshot(),
        }

    # internal views the exposition layer needs beyond the primitives
    def failures_by_solver(self) -> dict:
        with self._lock:
            return dict(self._failures_by_solver)

    def fallbacks_by_transition(self) -> dict:
        with self._lock:
            return dict(self._fallback_by_solver)
