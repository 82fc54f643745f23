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

import threading
from typing import Optional

from repro.metrics.telemetry import Counter, Gauge, Histogram
from repro.serve.slo import SLOTracker

__all__ = ["ServeTelemetry"]


class ServeTelemetry:
    """Counters and distributions for one :class:`SolveEngine`."""

    def __init__(self, *, slo: Optional[SLOTracker] = None) -> None:
        self.requests_total = Counter(
            "requests_total", help="Requests admitted to the engine."
        )
        self.requests_completed = Counter(
            "requests_completed", help="Requests that returned a solution."
        )
        self.requests_failed = Counter(
            "requests_failed", help="Requests that raised after admission."
        )
        self.requests_timed_out = Counter(
            "requests_timed_out", help="Requests that hit their deadline."
        )
        self.requests_rejected = Counter(
            "requests_rejected",
            help="Requests refused at admission (queue full / unknown matrix).",
        )
        self.batches_total = Counter(
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
        self.fallback_solves = Counter(
            "fallback_solves",
            help="Requests served by a fallback solver instead of their "
            "primary.",
        )
        self.kernel_failures = Counter(
            "kernel_failures",
            help="Kernel launches that raised (solver quarantined for the "
            "matrix).",
        )
        self.sim_cycles = Counter(
            "sim_cycles", help="Modeled SIMT cycles across simulator launches."
        )
        self.sim_exec_ms = Counter(
            "sim_exec_ms",
            help="Host wall-clock spent inside simulator launches "
            "(milliseconds).",
        )
        # execution lanes: which path served each flushed block.  The
        # per-lane counters share family names and differ by label, so
        # the exposition renders them as one labelled series each.
        self.host_lane_batches = Counter(
            "lane_batches",
            help="Flushed blocks served, by execution lane.",
            labels={"lane": "host"},
        )
        self.host_lane_rhs = Counter(
            "lane_rhs",
            help="Right-hand sides served, by execution lane.",
            labels={"lane": "host"},
        )
        self.host_exec_ms = Counter(
            "lane_exec_ms",
            help="Host wall-clock spent executing, by lane (milliseconds; "
            "the sim lane's modeled cost is sim_cycles/sim_exec_ms).",
            labels={"lane": "host"},
        )
        self.sim_lane_batches = Counter(
            "lane_batches",
            help="Flushed blocks served, by execution lane.",
            labels={"lane": "sim"},
        )
        self.sim_lane_rhs = Counter(
            "lane_rhs",
            help="Right-hand sides served, by execution lane.",
            labels={"lane": "sim"},
        )
        self.slo = slo if slo is not None else SLOTracker()
        self._lock = threading.Lock()
        self._fallback_by_solver: dict[str, int] = {}
        self._failures_by_solver: dict[str, int] = {}

    # ------------------------------------------------------------------
    # event recording
    # ------------------------------------------------------------------
    def record_kernel_failure(
        self, matrix_key: str, solver_name: str, error: BaseException
    ) -> None:
        """One kernel raised on one matrix (it will be quarantined).

        Only counted here; the matrix and error are in the engine's
        ``kernel-failure`` trace event."""
        self.kernel_failures.inc()
        with self._lock:
            self._failures_by_solver[solver_name] = (
                self._failures_by_solver.get(solver_name, 0) + 1
            )

    def record_fallback_solve(
        self, matrix_key: str, from_solver: str, to_solver: str
    ) -> None:
        """A request was served by a fallback instead of its primary."""
        self.fallback_solves.inc()
        with self._lock:
            key = f"{from_solver}->{to_solver}"
            self._fallback_by_solver[key] = (
                self._fallback_by_solver.get(key, 0) + 1
            )

    def record_lane(
        self, lane: str, n_rhs: int, *, exec_ms: float = 0.0
    ) -> None:
        """One block (batch or multi-RHS request) served by ``lane``.

        ``lane`` is ``"host"`` (the registry's fast-lane plan) or
        ``"sim"`` (cycle-level simulator); ``exec_ms`` is host
        wall-clock and only meaningful for the host lane — the
        simulator's modeled cost is tracked separately by
        :attr:`sim_cycles` / :attr:`sim_exec_ms`.
        """
        if lane == "host":
            self.host_lane_batches.inc()
            self.host_lane_rhs.inc(n_rhs)
            self.host_exec_ms.inc(exec_ms)
        else:
            self.sim_lane_batches.inc()
            self.sim_lane_rhs.inc(n_rhs)

    def record_solve(self, resp) -> None:
        """One completed request (a
        :class:`~repro.serve.requests.SolveResponse`): its latency, in
        aggregate and for the lane that served it."""
        self.latency_ms.observe(resp.latency_ms)
        self.record_lane_latency(resp.lane, resp.latency_ms)
        self.requests_completed.inc()

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
        # _admit raises *before* requests_total.inc on a reject, so the
        # attempt denominator is admitted + rejected
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
