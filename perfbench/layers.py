"""Per-layer attribution for traced runs.

Spans come from timing wrappers around the public callables each layer
exposes, installed at the names their callers resolve (see
:mod:`perfbench.spans`), plus the router's own ``hop_stats()`` and the
fields of ``ClusterResponse``.  Kernel and analysis figures come from
unloaded direct calls on the workload's matrices.  Bytes are computed
from array sizes, not measured.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import Counter

import numpy as np

import repro.serve.cluster as cluster_mod
import repro.serve.registry as registry_mod
from repro.analysis.levels import compute_levels, merge_levels
from repro.metrics.telemetry import Histogram
from repro.obs.tracelog import TraceLog
from repro.serve.registry import MatrixRegistry
from repro.serve.telemetry import ServeTelemetry
from repro.solvers.compiled import CompiledPlan, build_compiled_plan
from repro.solvers.host_parallel import ExecutionPlan, build_plan

from perfbench.stats import percentile, self_time, union_length

__all__ = [
    "LANES",
    "PER_LAYER",
    "cluster_metrics",
    "engine_metrics",
    "kernel_metrics",
    "wrap_builds",
    "wrap_cluster",
    "wrap_engine",
]

LANES = ("host", "compiled", "sim")
HOPS = ("request", "enqueue", "send", "deserialize", "plan", "solve", "reply")

#: Every per-layer metric a traced run prints: (unit, better).
PER_LAYER = {
    "engine.pre_kernel_ms": ("ms", "lower"),
    "engine.post_kernel_ms": ("ms", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.overhead_share": ("share", "lower"),
    "engine.batch_width_mean": ("rhs", "higher"),
    "engine.sink_us_per_request": ("us", "lower"),
    "engine.sink_calls_per_request": ("count", "lower"),
    **{f"engine.lane_share.{lane}": ("share", "higher") for lane in LANES},
    "engine.fallbacks": ("count", "lower"),
    "registry.lookup_us": ("us", "lower"),
    "registry.hit_ratio": ("share", "higher"),
    "registry.build_s": ("s", "lower"),
    "registry.resident_mb": ("MiB", "lower"),
    "levels.compute_s": ("s", "lower"),
    "levels.merge_s": ("s", "lower"),
    "levels.merge_compression": ("ratio", "higher"),
    "compiled.solve_ms.k1": ("ms", "lower"),
    "compiled.solve_ms.k2": ("ms", "lower"),
    "compiled.redundant_ratio": ("ratio", "lower"),
    "compiled.build_s": ("s", "lower"),
    "host.solve_ms.k1": ("ms", "lower"),
    "host.solve_ms.k8": ("ms", "lower"),
    "host.gbytes_per_s.k8": ("GB/s", "higher"),
    "host.build_s": ("s", "lower"),
    "cluster.submit_ms": ("ms", "lower"),
    "cluster.submit_self_ms": ("ms", "lower"),
    "cluster.worker_exec_ms": ("ms", "lower"),
    "cluster.transport_ms": ("ms", "lower"),
    **{f"cluster.hop.{hop}_ms": ("ms", "lower") for hop in HOPS},
    "cluster.spawn_s": ("s", "lower"),
    "cluster.register_s": ("s", "lower"),
    "cluster.busiest_share": ("share", "lower"),
    "cluster.slab_mb_per_request": ("MiB", "lower"),
    **{f"cluster.lane_share.{lane}": ("share", "higher") for lane in LANES},
    "trace.overhead": ("share", "lower"),
}


# ---------------------------------------------------------------------------
# wrapper targets: (owner, attribute, span name)
# ---------------------------------------------------------------------------

#: In-process engine path: plan lookup and kernel on the worker thread,
#: sink calls on both threads.
_ENGINE = (
    (MatrixRegistry, "plan", "registry.lookup"),
    (MatrixRegistry, "compiled_plan", "registry.lookup"),
    (ExecutionPlan, "solve_many", "kernel"),
    (CompiledPlan, "solve_many", "kernel"),
    (TraceLog, "emit", "sink"),
    (ServeTelemetry, "record_lane", "sink"),
    (ServeTelemetry, "record_lane_latency", "sink"),
    (Histogram, "observe", "sink"),
)

#: Registry artifact builds, as ``MatrixRegistry`` resolves them.
_BUILDS = (
    (registry_mod, "extract_features", "registry.build"),
    (registry_mod, "build_plan", "registry.build"),
    (registry_mod, "build_compiled_plan", "registry.build"),
)

#: Router side of ``ShardRouter.submit``: registry lookup and frame send.
_CLUSTER = (
    (MatrixRegistry, "get", "registry.get"),
    (cluster_mod, "send_frame", "cluster.send"),
)


def _wrap_all(log, targets) -> None:
    for owner, attr, name in targets:
        log.wrap(owner, attr, name)


def wrap_engine(log) -> None:
    _wrap_all(log, _ENGINE)


def wrap_builds(log) -> None:
    _wrap_all(log, _BUILDS)


def wrap_cluster(log) -> None:
    _wrap_all(log, _CLUSTER)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _per_thread_union(spans) -> tuple:
    """(total covered seconds, outermost call count), nesting merged."""
    by_thread: dict = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append((s.start, s.end))
    total = 0.0
    calls = 0
    for intervals in by_thread.values():
        intervals.sort()
        end = None
        for a, b in intervals:
            if end is None or a >= end:
                calls += 1
                end = b
            else:
                end = max(end, b)
        total += union_length(intervals, intervals[0][0], end)
    return total, calls


def _within(spans, starts, lo: float, hi: float) -> list:
    """Spans starting in ``[lo, hi]`` and ending by ``hi``."""
    i = bisect.bisect_left(starts, lo)
    out = []
    while i < len(spans) and spans[i].start <= hi:
        if spans[i].end <= hi:
            out.append(spans[i])
        i += 1
    return out


def _lane_shares(samples, prefix: str) -> dict:
    counts = Counter(s.lane for s in samples)
    return {
        f"{prefix}.lane_share.{lane}": counts.get(lane, 0) / len(samples)
        for lane in LANES
    }


def _ok(samples) -> list:
    ok = [s for s in samples if s.ok]
    if not ok:
        raise RuntimeError("no correct answers to attribute")
    return ok


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def engine_metrics(samples, log, registry_window, resident_bytes, builds) -> dict:
    """Engine and registry metrics from one traced engine window.

    Per request: the kernel span inside its interval, and the plan
    lookup that precedes that kernel.  ``pre_kernel`` runs from the
    call to the lookup's start, ``post_kernel`` from the kernel's end to
    the answer; ``self`` is the request minus every lookup, kernel and
    sink span it covers.  ``registry_window`` holds the registry's hit
    and miss counts over the traced window.
    """
    ok = _ok(samples)
    kernels = log.named("kernel")
    lookups = log.named("registry.lookup")
    sinks = log.named("sink")
    children = log.named("kernel", "registry.lookup", "sink")
    k_starts = [s.start for s in kernels]
    l_starts = [s.start for s in lookups]
    c_starts = [s.start for s in children]
    pre, post, share, own = [], [], [], []
    for s in ok:
        ks = _within(kernels, k_starts, s.start, s.end)
        if not ks:
            continue
        kern = ks[0]
        looks = _within(lookups, l_starts, s.start, kern.start)
        if looks:
            pre.append((looks[-1].start - s.start) * 1e3)
        post.append((s.end - kern.end) * 1e3)
        lat = s.end - s.start
        share.append((lat - kern.duration) / lat)
        covered = [
            (c.start, c.end) for c in _within(children, c_starts, s.start, s.end)
        ]
        own.append(self_time((s.start, s.end), covered) * 1e3)
    if not pre or not post:
        raise RuntimeError("no request matched a lookup and a kernel span")
    sink_s, sink_calls = _per_thread_union(sinks) if sinks else (0.0, 0)
    hits, misses = registry_window["hits"], registry_window["misses"]
    build_s = _per_thread_union(builds.named("registry.build"))[0]
    return {
        "engine.pre_kernel_ms": percentile(pre, 50),
        "engine.post_kernel_ms": percentile(post, 50),
        "engine.self_ms": percentile(own, 50),
        "engine.overhead_share": percentile(share, 50),
        "engine.batch_width_mean": statistics.fmean(s.batch_width for s in ok),
        "engine.sink_us_per_request": sink_s * 1e6 / len(samples),
        "engine.sink_calls_per_request": sink_calls / len(samples),
        **_lane_shares(ok, "engine"),
        "engine.fallbacks": sum(s.fallback for s in samples),
        "registry.lookup_us": percentile([s.duration for s in lookups], 50) * 1e6,
        "registry.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "registry.build_s": build_s,
        "registry.resident_mb": resident_bytes / 2**20,
    }


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def cluster_metrics(
    samples, log, hop_stats, spawn_s, register_s, owner_of, inline_max
) -> dict:
    """Router-side, transport and worker metrics of one cluster window."""
    ok = _ok(samples)
    submits = log.named("cluster.submit")
    children = log.named("registry.get", "cluster.send")
    c_starts = [c.start for c in children]
    submit_self = [
        self_time(
            (s.start, s.end),
            [(c.start, c.end) for c in _within(children, c_starts, s.start, s.end)],
        )
        * 1e3
        for s in submits
    ]
    missing = [h for h in HOPS if h not in hop_stats]
    if missing:
        raise RuntimeError(f"router reported no spans for hops {missing}")
    owners = Counter(owner_of[s.name] for s in samples)
    slab_bytes = [2 * s.nbytes if s.nbytes > inline_max else 0 for s in ok]
    return {
        "cluster.submit_ms": percentile([s.duration for s in submits], 50) * 1e3,
        "cluster.submit_self_ms": percentile(submit_self, 50),
        "cluster.worker_exec_ms": percentile([s.exec_ms for s in ok], 50),
        "cluster.transport_ms": percentile(
            [s.latency_ms - s.exec_ms for s in ok], 50
        ),
        **{
            f"cluster.hop.{hop}_ms": float(hop_stats[hop]["p50_ms"])
            for hop in HOPS
        },
        "cluster.spawn_s": spawn_s,
        "cluster.register_s": register_s,
        "cluster.busiest_share": max(owners.values()) / len(samples),
        "cluster.slab_mb_per_request": statistics.fmean(slab_bytes) / 2**20,
        **_lane_shares(ok, "cluster"),
    }


# ---------------------------------------------------------------------------
# kernels and analysis, unloaded
# ---------------------------------------------------------------------------


def _median_time(fn) -> float:
    """Median seconds of 3 to 7 calls; no fourth call after 0.5 s."""
    times = []
    t_stop = time.perf_counter() + 0.5
    while len(times) < 7 and (len(times) < 3 or time.perf_counter() < t_stop):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _host_bytes(L, k: int) -> int:
    """Computed bytes one host solve moves: values and indices once,
    one gathered ``x`` entry per dependency and column, ``B`` read and
    ``X`` written once."""
    deps = L.nnz - L.n_rows
    return L.nnz * 16 + deps * 8 * k + 2 * L.n_rows * 8 * k


def kernel_metrics(matrices, seed: int) -> dict:
    """Direct, unloaded calls on each matrix (one instance per spec).

    Times are summed over the matrices for one-off work (analysis,
    builds) and averaged for solves.
    """
    rng = np.random.default_rng([seed, 7])
    compute = merge = c_build = h_build = 0.0
    compression, c_k1, c_k2, h_k1, h_k8 = [], [], [], [], []
    redundant = coeffs = 0
    h_bytes = h_time = 0.0
    for L in matrices:
        B = rng.standard_normal((L.n_rows, 8))
        schedule = compute_levels(L)
        compute += _median_time(lambda: compute_levels(L))
        merge += _median_time(lambda: merge_levels(L, schedule))
        compression.append(merge_levels(L, schedule).compression())
        c_build += _median_time(lambda: build_compiled_plan(L, base=schedule))
        cplan = build_compiled_plan(L, base=schedule)
        redundant += cplan.redundant_nnz
        coeffs += cplan.coeff_nnz
        c_k1.append(_median_time(lambda: cplan.solve_many(B[:, :1])))
        c_k2.append(_median_time(lambda: cplan.solve_many(B[:, :2])))
        h_build += _median_time(lambda: build_plan(L, schedule=schedule))
        hplan = build_plan(L, schedule=schedule)
        h_k1.append(_median_time(lambda: hplan.solve_many(B[:, :1])))
        t8 = _median_time(lambda: hplan.solve_many(B))
        h_k8.append(t8)
        h_bytes += _host_bytes(L, 8)
        h_time += t8
    return {
        "levels.compute_s": compute,
        "levels.merge_s": merge,
        "levels.merge_compression": statistics.fmean(compression),
        "compiled.solve_ms.k1": statistics.fmean(c_k1) * 1e3,
        "compiled.solve_ms.k2": statistics.fmean(c_k2) * 1e3,
        "compiled.redundant_ratio": redundant / coeffs,
        "compiled.build_s": c_build,
        "host.solve_ms.k1": statistics.fmean(h_k1) * 1e3,
        "host.solve_ms.k8": statistics.fmean(h_k8) * 1e3,
        "host.gbytes_per_s.k8": h_bytes / h_time / 1e9,
        "host.build_s": h_build,
    }
