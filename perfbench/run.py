#!/usr/bin/env python3
"""Closed-loop wall-clock benchmark of the serve tier.

    python3 perfbench/run.py --workload shallow-serial --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics, at a reference machine speed that a probe between windows of
requests measures (``perfbench/probe.py``); ``--trace 1`` splits the measured time into alternating
untraced and traced windows and prints the per-layer metrics plus the
tracing overhead.  A human-readable table goes first; the last line of
standard output is one JSON object.  Exits 1 when any answer is wrong
or any operation failed, 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Untimed closed-loop seconds between set-up and measurement, so
#: caches fill and lazy set-up finishes first.
WARMUP_S = 1.0

#: Requests per stream in the short probe of the tier a workload does
#: not go through (traced runs only).
PROBE_REQUESTS = 10

#: Workloads served by an in-process engine.  They run on one CPU: on a
#: small VM a thread hand-off between CPUs waits on a cross-CPU wake-up
#: whose cost follows other tenants' load, and it swamped everything
#: else (see README.md, "Steadiness").  For the same reason each shard
#: worker runs on a CPU of its own.
ENGINE_WORKLOADS = ("shallow-serial", "deep-pair")

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Tally:
    """Attempted and failed operations of the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, samples, errors=()) -> list:
        self.attempted += len(samples)
        for s in samples:
            if not s.ok:
                self.failed += 1
                if s.lane:  # answered, but wrongly
                    self.errors.append(f"{s.name}: wrong answer")
        self.errors.extend(errors)
        return samples

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _throughput(windows) -> float:
    """Correct answers per second over a list of (samples, t_begin)."""
    n = sum(sum(s.ok for s in samples) for samples, _ in windows)
    dur = sum(max(s.end for s in samples) - t0 for samples, t0 in windows)
    return n / dur


def _trace_overhead(untraced, traced) -> float:
    return 1.0 - _throughput(traced) / _throughput(untraced)


# ---------------------------------------------------------------------------
# engine workloads
# ---------------------------------------------------------------------------


async def _engine_setup(wl, tally):
    """Construct an engine and wait for one correct answer per matrix."""
    from repro.serve import SolveEngine

    from perfbench.loops import engine_loop

    t0 = time.perf_counter()
    engine = SolveEngine()
    for name, L in wl.matrices.items():
        engine.register(L, name=name)
    for req in wl.first_requests():
        samples, errors, _ = await engine_loop(
            engine, [[req]], math.inf, max_requests=1
        )
        tally.add(samples, errors)
    return engine, time.perf_counter() - t0


async def _engine_phase(wl, seconds, trace, tally, logs):
    from perfbench.probe import SpeedProbe

    probe = SpeedProbe()
    try:
        return await _engine_measure(wl, seconds, trace, tally, logs, probe)
    finally:
        probe.close()


async def _engine_measure(wl, seconds, trace, tally, logs, probe):
    """Set-ups, warm-up and the measured loop of an engine workload.

    Set-up times and the untraced loop are taken at the probe's
    reference speed; the traced loop is not.
    """
    from perfbench import layers
    from perfbench.loops import engine_loop, probed_engine_loop
    from perfbench.spans import SpanLog

    setups = []
    builds = SpanLog()
    for rep in range(wl.setup_reps):
        last = rep == wl.setup_reps - 1
        if trace and last:
            layers.wrap_builds(builds)
        before = probe.speed()
        try:
            engine, dt = await _engine_setup(wl, tally)
        finally:
            builds.restore()
        setups.append(dt * (before + probe.speed()) / 2)
        if not last:
            await engine.close()
            del engine
            gc.collect()  # the next set-up must not overlap this one's memory
    try:
        tally.add(*(await engine_loop(engine, wl.streams, WARMUP_S))[:2])
        if not trace:
            log = await probed_engine_loop(
                engine, wl.streams, seconds, wl.window, probe
            )
            tally.add(log.samples, log.errors)
            return {"setups": setups, "log": log}
        untraced, traced = [], []
        spans = SpanLog()
        window = None
        for phase in range(4):
            if phase % 2 == 0:
                samples, errors, t_begin = await engine_loop(
                    engine, wl.streams, seconds / 4
                )
                untraced.append((samples, t_begin))
            else:
                before = engine.registry.stats()
                layers.wrap_engine(spans)
                try:
                    samples, errors, t_begin = await engine_loop(
                        engine, wl.streams, seconds / 4
                    )
                finally:
                    spans.restore()
                window = _merge_window(window, before, engine.registry.stats())
                traced.append((samples, t_begin))
            tally.add(samples, errors)
        traced_samples = [s for samples, _ in traced for s in samples]
        metrics = layers.engine_metrics(
            traced_samples,
            spans,
            window,
            engine.registry.resident_bytes,
            builds,
        )
        metrics["trace.overhead"] = _trace_overhead(untraced, traced)
        logs.extend([builds, spans])
        return {"metrics": metrics}
    finally:
        await engine.close()


def _merge_window(acc, before, after) -> dict:
    """Accumulate hit/miss deltas over several traced windows."""
    acc = acc or {"hits": 0, "misses": 0}
    return {
        key: acc[key] + after[key] - before[key] for key in ("hits", "misses")
    }


async def _engine_probe(wl, tally, logs) -> dict:
    """Engine and registry metrics for a workload served by the router:
    the same requests, a fixed number per stream, one client."""
    from perfbench import layers
    from perfbench.loops import engine_loop
    from perfbench.spans import SpanLog

    builds = SpanLog()
    layers.wrap_builds(builds)
    try:
        engine, _ = await _engine_setup(wl, tally)
    finally:
        builds.restore()
    try:
        spans = SpanLog()
        before = engine.registry.stats()
        samples = []
        layers.wrap_engine(spans)
        try:
            for stream in wl.streams:
                s, errors, _ = await engine_loop(
                    engine, [stream], math.inf, max_requests=PROBE_REQUESTS
                )
                samples += tally.add(s, errors)
        finally:
            spans.restore()
        window = _merge_window(None, before, engine.registry.stats())
        logs.extend([builds, spans])
        return layers.engine_metrics(
            samples,
            spans,
            window,
            engine.registry.resident_bytes,
            builds,
        )
    finally:
        await engine.close()


# ---------------------------------------------------------------------------
# cluster workload
# ---------------------------------------------------------------------------


def _spawn_router():
    """A default ``ShardRouter`` whose worker ``i`` runs on CPU ``i``.

    Workers inherit the spawning thread's CPU set, so the spawn point
    (``_start_worker``) is wrapped to narrow it per worker; the worker's
    reader thread in this process is created there and gets the same
    CPU.  Everything else in this process keeps every CPU.
    """
    from repro.serve import ShardRouter

    cpus = sorted(os.sched_getaffinity(0))
    start_worker = ShardRouter._start_worker

    def pinned(router, handle):
        os.sched_setaffinity(0, {cpus[handle.wid % len(cpus)]})
        try:
            start_worker(router, handle)
        finally:
            os.sched_setaffinity(0, cpus)

    ShardRouter._start_worker = pinned
    try:
        return ShardRouter()
    finally:
        ShardRouter._start_worker = start_worker


def _cluster_setup(wl, tally):
    """Construct a router and wait for one correct answer per matrix.

    Returns ``(router, setup_s, spawn_s, register_s)``.
    """
    from perfbench.loops import cluster_loop

    t0 = time.perf_counter()
    router = _spawn_router()
    t_spawned = time.perf_counter()
    try:
        for name, L in wl.matrices.items():
            router.register(L, name=name)
        t_registered = time.perf_counter()
        for req in wl.first_requests():
            samples, errors, _ = cluster_loop(
                router, [[req]], math.inf, max_requests=1
            )
            tally.add(samples, errors)
        t1 = time.perf_counter()
    except BaseException:
        router.close()
        raise
    return router, t1 - t0, t_spawned - t0, t_registered - t_spawned


def _close_router(router, tally) -> None:
    """Close, then count worker deaths and leaked segments as failures."""
    from repro.serve.arena import leaked_segments

    deaths = router.router_stats()["worker_deaths"]
    router.close()
    for _ in range(deaths):
        tally.fail("a shard worker died")
    for name in leaked_segments(pid=os.getpid()):
        tally.fail(f"leaked shared-memory segment {name}")


def _owner_streams(router, wl) -> list:
    """The workload's requests grouped by owning worker, one stream each."""
    by_node: dict = {}
    for stream in wl.streams:
        for req in stream:
            by_node.setdefault(router.worker_for(req.name), []).append(req)
    return [by_node[node] for node in sorted(by_node)]


def _cluster_window(router, streams, seconds, tally, spans=None, max_requests=None):
    """One closed-loop window; with ``spans``, the router side is traced."""
    from perfbench import layers
    from perfbench.loops import cluster_loop

    if spans is None:
        samples, errors, t_begin = cluster_loop(
            router, streams, seconds, max_requests=max_requests
        )
    else:
        layers.wrap_cluster(spans)
        try:
            samples, errors, t_begin = cluster_loop(
                router, streams, seconds, max_requests=max_requests, spans=spans
            )
        finally:
            spans.restore()
    tally.add(samples, errors)
    return samples, t_begin


def _cluster_metrics(router, samples, spans, spawn_s, register_s, wl) -> dict:
    from perfbench import layers

    owner_of = {name: router.worker_for(name) for name in wl.matrices}
    return layers.cluster_metrics(
        samples,
        spans,
        router.hop_stats(),
        spawn_s,
        register_s,
        owner_of,
        router.inline_max,
    )


def _cluster_phase(wl, seconds, trace, tally, logs):
    from perfbench.probe import SpeedProbe

    probe = SpeedProbe()
    try:
        return _cluster_measure(wl, seconds, trace, tally, logs, probe)
    finally:
        probe.close()


def _cluster_measure(wl, seconds, trace, tally, logs, probe):
    """Set-ups, warm-up and the measured loop of the cluster workload,
    timed as :func:`_engine_measure` times an engine workload."""
    from perfbench.loops import probed_cluster_loop
    from perfbench.spans import SpanLog

    setups = []
    for rep in range(wl.setup_reps):
        before = probe.speed()
        router, dt, spawn_s, register_s = _cluster_setup(wl, tally)
        setups.append(dt * (before + probe.speed()) / 2)
        if rep < wl.setup_reps - 1:
            _close_router(router, tally)
            del router
            gc.collect()
    try:
        for name, node in wl.placement.items():
            if router.worker_for(name) != node:
                tally.fail(f"{name} is not on {node}")
        _cluster_window(router, wl.streams, WARMUP_S, tally)
        if not trace:
            log = probed_cluster_loop(
                router, wl.streams, seconds, wl.window, probe
            )
            tally.add(log.samples, log.errors)
            return {"setups": setups, "log": log}
        untraced, traced = [], []
        spans = SpanLog()
        for phase in range(4):
            window = _cluster_window(
                router, wl.streams, seconds / 4, tally,
                spans if phase % 2 else None,
            )
            (traced if phase % 2 else untraced).append(window)
        traced_samples = [s for samples, _ in traced for s in samples]
        metrics = _cluster_metrics(
            router, traced_samples, spans, spawn_s, register_s, wl
        )
        metrics["trace.overhead"] = _trace_overhead(untraced, traced)
        logs.append(spans)
        return {"metrics": metrics}
    finally:
        _close_router(router, tally)


def _cluster_probe(wl, tally, logs) -> dict:
    """Cluster metrics for a workload served by the engine: its
    requests through a default router, a fixed number per worker."""
    from perfbench.spans import SpanLog

    router, _, spawn_s, register_s = _cluster_setup(wl, tally)
    try:
        spans = SpanLog()
        samples, _ = _cluster_window(
            router, _owner_streams(router, wl), math.inf, tally, spans,
            max_requests=PROBE_REQUESTS,
        )
        logs.append(spans)
        return _cluster_metrics(router, samples, spans, spawn_s, register_s, wl)
    finally:
        _close_router(router, tally)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _kernel_matrices(wl) -> list:
    """One matrix per spec: instances of a spec differ only by seed."""
    seen = {}
    for name, L in wl.matrices.items():
        seen.setdefault(wl.label_of[name], L)
    return list(seen.values())


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns ``(metrics, units, notes, tally)``.

    ``metrics`` is ``None`` when the measured window has no correct
    answer to derive them from.
    """
    cpus = os.sched_getaffinity(0)
    if workload in ENGINE_WORKLOADS:
        # before numpy or any thread starts, so every thread inherits it
        os.sched_setaffinity(0, {min(cpus)})
    from perfbench import layers
    from perfbench.inputs import build_workload
    from perfbench.stats import reference_times, sliced

    tally = Tally()
    wl = build_workload(workload, seed)
    logs: list = []
    if wl.target == "engine":
        out = asyncio.run(_engine_phase(wl, seconds, trace, tally, logs))
    else:
        out = _cluster_phase(wl, seconds, trace, tally, logs)
    notes = {}
    if not trace:
        windows = out["log"].windows
        samples = [s for s in out["log"].samples if s.ok]
        if not samples:
            return None, E2E_UNITS, notes, tally
        starts = [s.start for s in samples]
        ends = [s.end for s in samples]

        def on_clock(clock):
            return sliced(
                reference_times(starts, clock),
                reference_times(ends, clock),
                0.0,
                wl.slice_len,
            )

        summary = on_clock(windows)  # at the probe's reference speed
        raw = on_clock([(t0, t1, 1.0) for t0, t1, _ in windows])
        speeds = [w[2] for w in windows]
        notes["speed"] = (
            f"probe speed median {statistics.median(speeds):.3f}, "
            f"{min(speeds):.3f}-{max(speeds):.3f} over {len(windows)} windows"
        )
        metrics = {
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p90_ms": summary["latency_p90_ms"],
            "throughput_rps": summary["throughput_rps"],
            "setup_s": statistics.median(out["setups"]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        per_slice = (
            f"{summary['samples']} samples in {summary['slices']} slices "
            f"of {summary['slice_len']}"
        )
        for name in ("latency_p50_ms", "latency_p90_ms", "throughput_rps"):
            notes[name] = f"{per_slice}; {raw[name]:.6g} before normalizing"
        notes["setup_s"] = (
            f"median of {len(out['setups'])} set-ups at the probe's speed"
        )
        notes["peak_rss_mb"] = "benchmark process + largest worker"
        return metrics, E2E_UNITS, notes, tally
    metrics = dict(out["metrics"])
    if wl.target == "engine":
        os.sched_setaffinity(0, cpus)  # the router's workers use every CPU
        metrics.update(_cluster_probe(wl, tally, logs))
    else:
        metrics.update(asyncio.run(_engine_probe(wl, tally, logs)))
    metrics.update(layers.kernel_metrics(_kernel_matrices(wl), seed))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for log in logs:
            log.write_jsonl(fh)
    units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    return metrics, units, notes, tally


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker.

    The router's spawn context starts it as a child of this process.
    Left alone it exits only after this process has, is re-parented,
    and can stay behind as a process of its own; stopping it here waits
    until it has ended.  A no-op when it was never started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=ENGINE_WORKLOADS + ("cluster-block",)
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        metrics, units, notes, tally = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        _stop_resource_tracker()
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    for name in units if metrics is not None else ():
        note = notes.get(name, "")
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]:6s} {note}")
    if "speed" in notes:
        print(f"  {notes['speed']}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}")
    for err in tally.errors[:20]:
        print(f"  failure: {err}")
    if metrics is None:
        print("error: no correct answer in the measured window", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
