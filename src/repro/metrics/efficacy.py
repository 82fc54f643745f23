"""Lane-efficacy analytics over the persistent solve journal.

Turns the accumulated :mod:`repro.obs.journal` record stream into the
evidence the ROADMAP's adaptive-lane-policy item needs: which way of
solving actually wins for which *granularity class* of matrix.  Solves
are binned by *route* — the fast-lane plan's schedule variant
(``"level"`` or ``"sequential"``, from the record's ``schedule`` field)
or ``"sim"`` — and the recommendations are the lane-hint values
(:data:`repro.serve.registry.LANE_HINTS`) the registry caches.  Class
binning follows the exact thresholds the sequential rule uses — the
paper's Eq. 1 granularity indicator δ against
:data:`~repro.analysis.granularity.HIGH_GRANULARITY_THRESHOLD` and the
level depth against
:data:`~repro.solvers.compiled.DEEP_LEVEL_COUNT` — so the recommended-
route table is directly comparable to (and a drop-in replacement for)
the static rule.  Journals written before the fast lanes were folded
into one plan still count their ``host`` records, which ran the level
schedule.  Records of kernels that no longer exist — the ``merged``
schedule, and the pre-fold ``compiled`` lane that ran it — get no
route: their latencies say nothing about today's kernels.

The aggregate is fully deterministic: classes, lanes, matrices and
anomalies all sort, percentiles use nearest-rank on the sorted sample,
and the EWMA anomaly scan walks records in journal merge order.  Same
journal in, same report out — byte for byte — which is what lets the
``journal report`` CLI gate CI.

Anomaly flagging is per ``(matrix fingerprint, lane)``: an exponential
moving average tracks the expected latency and an exponential moving
absolute deviation tracks its spread; after a warmup, any solve slower
than ``mean + k·deviation`` is flagged.  The EWMA pair (rather than a
global percentile) makes the detector per-series and O(1) per record —
a matrix that is *always* slow is not anomalous, a matrix that suddenly
doubles is.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.analysis.granularity import HIGH_GRANULARITY_THRESHOLD
from repro.solvers.compiled import COMPILED_SCHEDULES, DEEP_LEVEL_COUNT

__all__ = [
    "EFFICACY_SCHEMA",
    "GRANULARITY_CLASSES",
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_EWMA_ALPHA",
    "DEFAULT_EWMA_K",
    "DEFAULT_EWMA_WARMUP",
    "granularity_class",
    "route_of",
    "aggregate",
    "lane_recommendations",
    "apply_lane_hints",
    "healthy",
    "render_report",
]

#: Schema tag of the report document (and the cached artifact file).
EFFICACY_SCHEMA = "efficacy/1"

#: The four bins: level depth × Eq. 1 granularity, thresholds shared
#: with the sequential rule (``prefers_compiled`` picks the sequential
#: schedule for exactly the ``deep-fine`` class today).
GRANULARITY_CLASSES = (
    "deep-fine", "deep-coarse", "shallow-fine", "shallow-coarse",
)

#: A lane needs this many solves in a class before it can be
#: recommended (or win a per-matrix comparison).
DEFAULT_MIN_SAMPLES = 3

#: EWMA smoothing factor for the per-(matrix, lane) latency tracker.
DEFAULT_EWMA_ALPHA = 0.3

#: Flag a solve when it exceeds ``mean + k * deviation``.
DEFAULT_EWMA_K = 4.0

#: Solves per (matrix, lane) before the anomaly detector arms.
DEFAULT_EWMA_WARMUP = 3

#: Deviation floor (ms): a perfectly steady series still tolerates
#: sub-millisecond jitter instead of flagging every solve.
_DEVIATION_FLOOR_MS = 0.5


def granularity_class(n_levels: int, granularity: float) -> str:
    """Bin one matrix by level depth and Eq. 1 granularity δ.

    ``deep`` means ``n_levels >= DEEP_LEVEL_COUNT`` and ``fine`` means
    ``granularity <= HIGH_GRANULARITY_THRESHOLD`` — the same predicate
    pair :func:`repro.solvers.compiled.prefers_compiled` evaluates, so
    class ``deep-fine`` is precisely the sequential schedule's
    population.
    """
    depth = "deep" if n_levels >= DEEP_LEVEL_COUNT else "shallow"
    grain = (
        "fine" if granularity <= HIGH_GRANULARITY_THRESHOLD else "coarse"
    )
    return f"{depth}-{grain}"


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile on an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def _lane_summary(latencies: list) -> dict:
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "mean_ms": round(sum(ordered) / len(ordered), 4),
        "p50_ms": round(_percentile(ordered, 50.0), 4),
        "p95_ms": round(_percentile(ordered, 95.0), 4),
        "p99_ms": round(_percentile(ordered, 99.0), 4),
    }


def route_of(record: dict) -> Optional[str]:
    """The lane-hint value one solve record ran on, or ``None``.

    A host-lane record's route is the schedule variant of the plan
    that served it; a sim-lane record's is ``"sim"``.  A ``host``
    record from before the fast lanes were folded into one plan has no
    ``schedule`` field and ran the level schedule.  A record of a
    schedule that no longer exists (``merged``, or the pre-fold
    ``compiled`` lane) has no route.
    """
    lane = record.get("lane")
    if lane == "sim":
        return "sim"
    if lane != "host":
        return None
    schedule = record.get("schedule") or "level"
    return schedule if schedule in COMPILED_SCHEDULES else None


def _usable_solve(record: dict) -> bool:
    return (
        record.get("kind") == "solve"
        and route_of(record) is not None
        and isinstance(record.get("latency_ms"), (int, float))
        and isinstance(record.get("n_levels"), int)
        and isinstance(record.get("granularity"), (int, float))
    )


def aggregate(
    records: Iterable[dict],
    *,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ewma_k: float = DEFAULT_EWMA_K,
    ewma_warmup: int = DEFAULT_EWMA_WARMUP,
    skipped: int = 0,
) -> dict:
    """One efficacy report from a journal record stream.

    ``records`` is typically ``JournalReader(dir).scan()["records"]``
    (pass that scan's ``skipped`` count through so the report carries
    the damage accounting).  Returns a JSON-ready document::

        {"schema": "efficacy/1", "solves": N, "skipped": S,
         "classes": {class: {"solves", "matrices", "lanes": {route:
             {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}},
             "win_rates": {route: frac}, "recommended": route|None}},
         "matrices": {fingerprint: {"class", "recommended",
             "lanes": {route: {...}}}},
         "recommendations": {class: route},
         "anomalies": [{matrix, lane, ts, latency_ms, expected_ms,
             threshold_ms}, ...]}

    Each ``"lanes"`` map and each anomaly's ``lane`` is keyed by
    :func:`route_of`.  A route is *recommended* for a class when it has
    at least ``min_samples`` solves and the lowest median latency (ties
    break toward the lexicographically first route name —
    deterministic).  ``win_rates`` is the share of the class's matrices
    whose own fastest-median route is this one.
    """
    stream = list(records)
    solves = [r for r in stream if _usable_solve(r)]
    ignored = (
        sum(1 for r in stream if r.get("kind") == "solve") - len(solves)
    )

    # class -> lane -> latencies; matrix -> lane -> latencies
    class_lat: dict[str, dict[str, list]] = {}
    matrix_lat: dict[str, dict[str, list]] = {}
    matrix_class: dict[str, str] = {}
    for rec in solves:
        cls = granularity_class(rec["n_levels"], rec["granularity"])
        lane = route_of(rec)
        latency = float(rec["latency_ms"])
        class_lat.setdefault(cls, {}).setdefault(lane, []).append(latency)
        key = rec.get("matrix")
        if isinstance(key, str):
            matrix_lat.setdefault(key, {}).setdefault(lane, []).append(
                latency
            )
            matrix_class[key] = cls

    def recommend(by_lane: dict[str, list]) -> Optional[str]:
        eligible = [
            (sorted(vals), lane)
            for lane, vals in by_lane.items()
            if len(vals) >= min_samples
        ]
        if not eligible:
            return None
        return min(
            eligible, key=lambda item: (_percentile(item[0], 50.0), item[1])
        )[1]

    matrices = {
        key: {
            "class": matrix_class[key],
            "recommended": recommend(by_lane),
            "lanes": {
                lane: _lane_summary(vals)
                for lane, vals in sorted(by_lane.items())
            },
        }
        for key, by_lane in sorted(matrix_lat.items())
    }

    classes: dict[str, dict] = {}
    for cls in GRANULARITY_CLASSES:
        by_lane = class_lat.get(cls)
        if not by_lane:
            continue
        members = sorted(
            k for k, c in matrix_class.items() if c == cls
        )
        decided = [
            matrices[k]["recommended"]
            for k in members
            if matrices[k]["recommended"] is not None
        ]
        classes[cls] = {
            "solves": sum(len(v) for v in by_lane.values()),
            "matrices": len(members),
            "lanes": {
                lane: _lane_summary(vals)
                for lane, vals in sorted(by_lane.items())
            },
            "win_rates": {
                lane: round(decided.count(lane) / len(decided), 4)
                for lane in sorted(by_lane)
            } if decided else {},
            "recommended": recommend(by_lane),
        }

    # EWMA latency-anomaly scan, per (matrix, lane), in stream order
    anomalies: list[dict] = []
    trackers: dict[tuple, list] = {}  # (matrix, lane) -> [mean, dev, n]
    for rec in solves:
        key = rec.get("matrix")
        if not isinstance(key, str):
            continue
        lane = route_of(rec)
        latency = float(rec["latency_ms"])
        state = trackers.get((key, lane))
        if state is None:
            trackers[(key, lane)] = [latency, 0.0, 1]
            continue
        mean, dev, n = state
        if n >= ewma_warmup:
            threshold = mean + ewma_k * max(dev, _DEVIATION_FLOOR_MS)
            if latency > threshold:
                anomalies.append({
                    "matrix": key,
                    "lane": lane,
                    "ts": rec.get("ts"),
                    "latency_ms": round(latency, 4),
                    "expected_ms": round(mean, 4),
                    "threshold_ms": round(threshold, 4),
                })
        state[1] = (1.0 - ewma_alpha) * dev + ewma_alpha * abs(
            latency - mean
        )
        state[0] = (1.0 - ewma_alpha) * mean + ewma_alpha * latency
        state[2] = n + 1

    return {
        "schema": EFFICACY_SCHEMA,
        "solves": len(solves),
        "unusable_solves": ignored,
        "skipped": skipped,
        "min_samples": min_samples,
        "classes": classes,
        "matrices": matrices,
        "recommendations": {
            cls: info["recommended"]
            for cls, info in classes.items()
            if info["recommended"] is not None
        },
        "anomalies": anomalies,
    }


def lane_recommendations(report: dict) -> dict:
    """``{granularity class: recommended lane}`` from a report."""
    return dict(report.get("recommendations", {}))


def apply_lane_hints(registry, report: dict) -> int:
    """Cache per-matrix recommendations on the registry; returns count.

    Each matrix in the report with a decided fastest route gets a
    ``lane_hint`` artifact next to its plan (``MatrixRegistry.
    set_lane_hint``) — a schedule variant overrides the sequential
    rule, closing the ROADMAP's measure → recommend → route loop.  Matrices
    no longer registered are skipped.
    """
    applied = 0
    for key, info in report.get("matrices", {}).items():
        lane = info.get("recommended")
        if lane is None or key not in registry:
            continue
        registry.set_lane_hint(key, lane)
        applied += 1
    return applied


def healthy(report: dict) -> bool:
    """``journal report`` exit-0 condition: no latency anomalies."""
    return not report.get("anomalies")


def render_report(report: dict) -> str:
    """Human-readable efficacy verdict (the ``journal report`` body)."""
    lines = [
        f"solve journal efficacy: {report['solves']} solve(s), "
        f"{len(report.get('matrices', {}))} matrix(es), "
        f"{report.get('skipped', 0)} damaged line(s) skipped"
    ]
    for cls, info in sorted(report.get("classes", {}).items()):
        rec = info.get("recommended") or "-"
        lines.append(
            f"  class {cls}: {info['solves']} solve(s) over "
            f"{info['matrices']} matrix(es), recommended lane: {rec}"
        )
        for lane, summary in sorted(info.get("lanes", {}).items()):
            win = info.get("win_rates", {}).get(lane)
            win_text = f", win-rate {win:.0%}" if win is not None else ""
            lines.append(
                f"    {lane:<9} n={summary['count']:<5} "
                f"p50={summary['p50_ms']:.3f}ms "
                f"p95={summary['p95_ms']:.3f}ms "
                f"p99={summary['p99_ms']:.3f}ms{win_text}"
            )
    anomalies = report.get("anomalies", [])
    if anomalies:
        lines.append(f"  {len(anomalies)} latency anomaly(ies):")
        for a in anomalies[:10]:
            lines.append(
                f"    ANOMALY {a['matrix'][:12]} lane={a['lane']} "
                f"{a['latency_ms']:.3f}ms > {a['threshold_ms']:.3f}ms "
                f"(expected {a['expected_ms']:.3f}ms)"
            )
        if len(anomalies) > 10:
            lines.append(f"    ... and {len(anomalies) - 10} more")
    else:
        lines.append("  no latency anomalies")
    return "\n".join(lines)
