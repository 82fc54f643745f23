"""Service-level objective tracking for the solve engine.

An :class:`SLOTracker` answers the two questions a serving deployment
asks of its telemetry on every scrape: *how slow are we* (per-lane
latency percentiles — the host fast lane and the simulator lane have
wall-clock distributions orders of magnitude apart, so one merged
histogram would hide a lane-routing bug behind a bimodal blur) and
*how broken are we* (error-budget burn, computed from the engine's
reject / timeout / kernel-failure counters against an availability
objective).

The tracker owns one labelled :class:`~repro.metrics.telemetry.Histogram`
per lane, created lazily as lanes appear, so the OpenMetrics renderer
(:mod:`repro.metrics.expo`) picks the per-lane series up from the same
registry as every other metric.  :meth:`snapshot` folds the counters
into a JSON-friendly health verdict — ``"ok"``, ``"at_risk"`` or
``"breached"`` — surfaced as ``SolveEngine.snapshot()["slo"]``.
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional

from repro.metrics.telemetry import Histogram

__all__ = ["SLOTracker"]

#: Latency quantiles every lane reports.
_QUANTILES = ("p50", "p95", "p99")


class SLOTracker:
    """Per-lane latency percentiles + error-budget accounting.

    Parameters
    ----------
    availability_objective:
        Fraction of attempted requests that must succeed (strictly
        between 0 and 1; the error budget is ``1 - objective``).
    latency_objectives_ms:
        Optional ``{lane: p95_ms}`` targets; a lane whose observed p95
        exceeds its target counts as a latency breach.
    at_risk_burn:
        Error-budget burn fraction above which the verdict degrades
        from ``"ok"`` to ``"at_risk"`` (burn ≥ 1.0 is ``"breached"``:
        the whole budget is spent).
    """

    def __init__(
        self,
        *,
        availability_objective: float = 0.999,
        latency_objectives_ms: Optional[Mapping[str, float]] = None,
        at_risk_burn: float = 0.5,
        reservoir: int = 4096,
    ) -> None:
        if not 0.0 < availability_objective < 1.0:
            raise ValueError(
                "availability_objective must be strictly between 0 and 1, "
                f"got {availability_objective}"
            )
        if at_risk_burn <= 0:
            raise ValueError("at_risk_burn must be positive")
        self.availability_objective = availability_objective
        self.latency_objectives_ms = dict(latency_objectives_ms or {})
        self.at_risk_burn = at_risk_burn
        self._reservoir = reservoir
        self._lock = threading.Lock()
        self._lanes: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, lane: str, latency_ms: float) -> None:
        """One completed request's wall-clock latency on ``lane``."""
        # lock-free on the hot path: a lane, once added, stays
        hist = self._lanes.get(lane)
        if hist is None:
            with self._lock:
                hist = self._lanes.get(lane)
                if hist is None:
                    hist = self._lanes[lane] = Histogram(
                        "slo_latency_ms",
                        reservoir=self._reservoir,
                        help="Completed-request latency by execution lane "
                        "(milliseconds).",
                        labels={"lane": lane},
                    )
        hist.observe(latency_ms)

    def metrics(self) -> tuple:
        """The per-lane histograms, lane-sorted (for exposition)."""
        with self._lock:
            return tuple(
                self._lanes[lane] for lane in sorted(self._lanes)
            )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def lane_percentiles(self) -> dict:
        """``{lane: {count, p50, p95, p99}}`` over current reservoirs."""
        with self._lock:
            lanes = dict(self._lanes)
        out = {}
        for lane in sorted(lanes):
            summary = lanes[lane].summary()
            out[lane] = {"count": summary["count"]}
            out[lane].update({q: summary[q] for q in _QUANTILES})
        return out

    def snapshot(self, *, attempts: int, errors: Mapping[str, int]) -> dict:
        """Health verdict from the engine's counters.

        ``attempts`` is everything the engine was asked to do (admitted
        + rejected); ``errors`` maps error kinds (reject / timeout /
        kernel-failure) to counts.  Burn is the fraction of the error
        budget already spent: ``(bad/attempts) / (1 - objective)``.
        """
        bad = sum(errors.values())
        if attempts > 0:
            availability = max(0.0, 1.0 - bad / attempts)
        else:
            availability = 1.0
        budget = 1.0 - self.availability_objective
        burn = ((bad / attempts) / budget) if attempts > 0 else 0.0
        lanes = self.lane_percentiles()
        latency_breaches = sorted(
            lane
            for lane, target_ms in self.latency_objectives_ms.items()
            if lanes.get(lane, {}).get("count", 0) > 0
            and lanes[lane]["p95"] > target_ms
        )
        if burn >= 1.0 or latency_breaches:
            verdict = "breached"
        elif burn >= self.at_risk_burn:
            verdict = "at_risk"
        else:
            verdict = "ok"
        return {
            "objective": self.availability_objective,
            "attempts": attempts,
            "errors": dict(errors),
            "error_total": bad,
            "availability": availability,
            "error_budget_burn": burn,
            "latency_objectives_ms": dict(self.latency_objectives_ms),
            "latency_breaches": latency_breaches,
            "lanes": lanes,
            "verdict": verdict,
        }
