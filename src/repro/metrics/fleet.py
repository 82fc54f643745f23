"""Fleet-wide aggregation of per-shard serving snapshots.

A :class:`~repro.serve.cluster.ShardRouter` runs one
:class:`~repro.serve.engine.SolveEngine` per worker process, each with
its own telemetry.  Operators want one answer, not N: this module rolls
per-worker ``engine.snapshot()`` dicts up into a single fleet snapshot
(:func:`fleet_rollup`) and renders the fleet in the same byte-
deterministic OpenMetrics text format as a single engine
(:func:`fleet_openmetrics`), with per-worker series distinguished by a
``worker`` label.

Aggregation semantics, stated rather than implied:

* Counters sum.  Gauges sum for additive quantities (queue depth) —
  peak sums are an *upper bound* on the fleet peak, since per-worker
  peaks need not coincide in time.
* Histogram summaries merge approximately: count/sum/min/max are exact,
  the mean is recomputed from the merged sums, and quantiles are
  count-weighted averages of the per-worker quantiles — the honest
  best available without shipping reservoirs across process
  boundaries.  Fields that say ``p95`` in a fleet snapshot mean
  "weighted average of shard p95s".
* Ratios (hit rate, availability) are recomputed from the summed
  numerators and denominators, never averaged.
* The SLO verdict is the worst across shards (``breached`` >
  ``at_risk`` > ``ok``): one unhealthy shard makes an unhealthy fleet.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.metrics.telemetry import Counter, Gauge
from repro.metrics.expo import render_metrics

__all__ = ["fleet_rollup", "fleet_openmetrics"]

#: Verdict severity order for worst-of aggregation.
_VERDICT_RANK = {"ok": 0, "at_risk": 1, "breached": 2}


def _sum_field(snaps, *path) -> float:
    total = 0
    for snap in snaps:
        node = snap
        for key in path:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            total += node
    return total


def _merge_summaries(summaries) -> dict:
    """Merge histogram ``summary()`` dicts (see module docstring)."""
    summaries = [s for s in summaries if s and s.get("count")]
    if not summaries:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    count = sum(s["count"] for s in summaries)
    total = sum(s["sum"] for s in summaries)
    merged = {
        "count": count,
        "sum": total,
        "mean": total / count,
        "min": min(s["min"] for s in summaries),
        "max": max(s["max"] for s in summaries),
    }
    for q in ("p50", "p95", "p99"):
        merged[q] = sum(s[q] * s["count"] for s in summaries) / count
    return merged


def _merge_count_dicts(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for key, value in (d or {}).items():
            out[key] = out.get(key, 0) + value
    return {k: out[k] for k in sorted(out)}


def _worst_verdict(verdicts) -> str:
    worst = "ok"
    for v in verdicts:
        if _VERDICT_RANK.get(v, 0) > _VERDICT_RANK[worst]:
            worst = v
    return worst


def fleet_rollup(workers: Mapping[str, dict]) -> dict:
    """Aggregate per-worker engine snapshots into one fleet snapshot.

    ``workers`` maps a worker name to its ``engine.snapshot()`` dict.
    The result mirrors the single-engine snapshot shape where summing
    makes sense, and adds fleet-only fields (``workers``, per-shard
    registry totals).
    """
    snaps = [workers[name] for name in sorted(workers)]
    requests = {
        field: _sum_field(snaps, "requests", field)
        for field in ("total", "completed", "failed", "timed_out", "rejected")
    }
    registries = [s.get("registry") or {} for s in snaps]
    reg_hits = _sum_field(registries, "hits")
    reg_misses = _sum_field(registries, "misses")
    reg_lookups = reg_hits + reg_misses
    slos = [s.get("slo", {}) for s in snaps]
    attempts = _sum_field(slos, "attempts")
    error_total = _sum_field(slos, "error_total")
    objectives = [
        s.get("objective") for s in slos if s.get("objective") is not None
    ]
    objective = min(objectives) if objectives else None
    availability = (
        max(0.0, 1.0 - error_total / attempts) if attempts else 1.0
    )
    burn = (
        (error_total / attempts) / (1.0 - objective)
        if attempts and objective is not None and objective < 1.0
        else 0.0
    )
    return {
        "workers": len(snaps),
        "requests": requests,
        "batches": {
            "total": _sum_field(snaps, "batches", "total"),
            "width": _merge_summaries(
                s.get("batches", {}).get("width") for s in snaps
            ),
        },
        "latency_ms": _merge_summaries(s.get("latency_ms") for s in snaps),
        "queue": {
            "depth": _sum_field(snaps, "queue", "depth"),
            "peak": _sum_field(snaps, "queue", "peak"),
        },
        "fallbacks": {
            "solves": _sum_field(snaps, "fallbacks", "solves"),
            "kernel_failures": _sum_field(
                snaps, "fallbacks", "kernel_failures"
            ),
            "by_transition": _merge_count_dicts(
                s.get("fallbacks", {}).get("by_transition") for s in snaps
            ),
            "failures_by_solver": _merge_count_dicts(
                s.get("fallbacks", {}).get("failures_by_solver")
                for s in snaps
            ),
        },
        "sim": {
            "cycles": _sum_field(snaps, "sim", "cycles"),
            "exec_ms": _sum_field(snaps, "sim", "exec_ms"),
        },
        "lanes": {
            "host": {
                "batches": _sum_field(snaps, "lanes", "host", "batches"),
                "rhs": _sum_field(snaps, "lanes", "host", "rhs"),
                "exec_ms": _sum_field(snaps, "lanes", "host", "exec_ms"),
            },
            "sim": {
                "batches": _sum_field(snaps, "lanes", "sim", "batches"),
                "rhs": _sum_field(snaps, "lanes", "sim", "rhs"),
            },
        },
        "registry": {
            "entries": _sum_field(registries, "entries"),
            "resident_bytes": _sum_field(registries, "resident_bytes"),
            "hits": reg_hits,
            "misses": reg_misses,
            "hit_rate": (reg_hits / reg_lookups) if reg_lookups else None,
            "evictions": _sum_field(registries, "evictions"),
            "registrations": _sum_field(registries, "registrations"),
            "artifact_builds": _sum_field(registries, "artifact_builds"),
        },
        "slo": {
            "objective": objective,
            "attempts": attempts,
            "error_total": error_total,
            "availability": availability,
            "error_budget_burn": burn,
            "verdict": _worst_verdict(s.get("verdict") for s in slos),
        },
        # per-shard solve journals (absent when journaling is off):
        # counters sum; segment_bytes sums resident open-segment bytes
        # and flush lag reports the worst (oldest unflushed) shard
        "journal": {
            "shards": sum(1 for s in snaps if s.get("journal")),
            "records_written": _sum_field(
                snaps, "journal", "records_written"
            ),
            "records_dropped": _sum_field(
                snaps, "journal", "records_dropped"
            ),
            "segments_rotated": _sum_field(
                snaps, "journal", "segments_rotated"
            ),
            "incidents": _sum_field(snaps, "journal", "incidents"),
            "bytes_written": _sum_field(snaps, "journal", "bytes_written"),
            "segment_bytes": _sum_field(snaps, "journal", "segment_bytes"),
            "buffered_records": _sum_field(
                snaps, "journal", "buffered_records"
            ),
            "flush_lag_s": max(
                (
                    (s.get("journal") or {}).get("flush_lag_s", 0.0)
                    for s in snaps
                ),
                default=0.0,
            ),
        },
    }


def fleet_openmetrics(
    workers: Mapping[str, dict],
    *,
    router: Optional[dict] = None,
    prefix: str = "repro_fleet_",
) -> str:
    """Render the fleet in OpenMetrics text: per-worker labelled series
    for the headline counters, fleet-aggregate gauges, and (when given)
    the router's own accounting from ``ShardRouter.router_stats()``.
    """
    metrics: list = []

    def counter(name, help_, value, **labels):
        c = Counter(name, help=help_, labels=labels or None)
        c.inc(value)
        metrics.append(c)

    def gauge(name, help_, value, **labels):
        g = Gauge(name, help=help_, labels=labels or None)
        g.set(value)
        metrics.append(g)

    for name in sorted(workers):
        snap = workers[name]
        req = snap.get("requests", {})
        counter("requests", "Requests admitted, by worker.",
                req.get("total", 0), worker=name)
        counter("requests_completed", "Requests completed, by worker.",
                req.get("completed", 0), worker=name)
        counter("requests_failed", "Requests failed, by worker.",
                req.get("failed", 0), worker=name)
        lanes = snap.get("lanes", {})
        counter("lane_rhs",
                "Right-hand sides served, by worker and lane.",
                lanes.get("host", {}).get("rhs", 0),
                worker=name, lane="host")
        counter("lane_rhs",
                "Right-hand sides served, by worker and lane.",
                lanes.get("sim", {}).get("rhs", 0),
                worker=name, lane="sim")
        gauge("latency_p95_ms",
              "Observed p95 request latency, by worker (milliseconds).",
              (snap.get("latency_ms") or {}).get("p95", 0.0), worker=name)
        registry = snap.get("registry") or {}
        gauge("registry_entries",
              "Registry entries resident, by worker.",
              registry.get("entries", 0), worker=name)
        journal = snap.get("journal")
        if journal:
            counter("journal_records_written",
                    "Solve-journal records written, by worker.",
                    journal.get("records_written", 0), worker=name)
            counter("journal_records_dropped",
                    "Solve-journal records dropped, by worker.",
                    journal.get("records_dropped", 0), worker=name)

    fleet = fleet_rollup(workers)
    gauge("workers", "Live shard workers.", fleet["workers"])
    gauge("availability",
          "Fleet availability (1 - errors/attempts).",
          fleet["slo"]["availability"])
    gauge("error_budget_burn",
          "Fleet error-budget burn fraction.",
          fleet["slo"]["error_budget_burn"])
    counter("rhs_served", "Right-hand sides served fleet-wide.",
            fleet["lanes"]["host"]["rhs"] + fleet["lanes"]["sim"]["rhs"])
    if fleet["journal"]["shards"]:
        jnl = fleet["journal"]
        counter("journal_records_written",
                "Solve-journal records written fleet-wide.",
                jnl["records_written"])
        counter("journal_records_dropped",
                "Solve-journal records dropped fleet-wide.",
                jnl["records_dropped"])
        counter("journal_segments_rotated",
                "Solve-journal segment rotations fleet-wide.",
                jnl["segments_rotated"])
        counter("journal_incidents",
                "Black-box incident dumps written fleet-wide.",
                jnl["incidents"])
        gauge("journal_segment_bytes",
              "Bytes resident in open journal segments fleet-wide.",
              jnl["segment_bytes"])
        gauge("journal_flush_lag_seconds",
              "Worst per-shard journal flush lag (seconds).",
              jnl["flush_lag_s"])

    if router is not None:
        counter("router_requests", "Solve requests routed.",
                router.get("requests", 0))
        counter("router_worker_deaths", "Worker deaths observed.",
                router.get("worker_deaths", 0))
        counter("router_respawns", "Workers respawned.",
                router.get("respawns", 0))
        arena = router.get("arena", {})
        gauge("arena_segments", "Matrix segments resident in the arena.",
              arena.get("resident", 0))
        gauge("arena_bytes", "Bytes resident in arena matrix segments.",
              arena.get("resident_bytes", 0))
        slabs = router.get("slabs", {})
        gauge("slab_segments", "Slab segments owned by the router.",
              slabs.get("segments", 0))
        counter("slab_reuses", "Slab acquisitions served from the pool.",
                slabs.get("reused", 0))
        # distributed-tracing attribution: one series pair per hop name
        # (ShardRouter.router_stats()["spans"], absent with tracing off)
        spans = router.get("spans") or {}
        for hop in sorted(spans.get("hops") or {}):
            hs = spans["hops"][hop]
            counter("hop_spans", "Trace spans collected, by hop.",
                    hs.get("count", 0), hop=hop)
            for q in ("p50", "p99"):
                gauge("hop_latency_ms",
                      "Per-hop span latency, by hop and quantile "
                      "(milliseconds).",
                      hs.get(f"{q}_ms", 0.0), hop=hop, quantile=q)
        if spans:
            counter("trace_spans", "Trace spans collected in total.",
                    spans.get("spans", 0))
            gauge("slow_exemplars",
                  "Slow-request exemplars currently captured.",
                  spans.get("exemplars", 0))
            gauge("slow_threshold_ms",
                  "Active slow-request threshold (milliseconds).",
                  spans.get("slow_threshold_ms", 0.0))

    return render_metrics(metrics, prefix=prefix)
