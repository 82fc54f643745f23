"""Bench: serving-layer request coalescing and execution lanes.

Two measurements:

* **Coalescing** (simulator lane): ``N`` concurrent single-RHS requests
  against one registered matrix are coalesced by the
  :class:`~repro.serve.engine.SolveEngine` into batched
  ``capellini_sptrsm`` launches, so the dependency machinery (flags,
  polls, level structure) is paid once per batch instead of once per
  request.  Compared on total *simulated* cycles against ``N``
  independent Writing-First solves.
* **Host vs sim lanes**: the same serving session run once through the
  host fast lane (``execution="host"`` — the registry's cached
  inspector-executor plan) and once through the cycle-level simulator
  (``execution="sim"``), compared on host wall-clock solves/sec.  The
  host lane must clear 10x at batch width >= 4 with residuals <= 1e-10;
  the comparison is written as a JSON artifact
  (``benchmarks/_output/serving_host_vs_sim.json``, stable keys and
  ordering) that CI uploads.

* **Cluster scaling**: the same pipelined multi-RHS workload pushed
  through an N-worker :class:`~repro.serve.cluster.ShardRouter` for
  each N in ``REPRO_BENCH_CLUSTER_WORKERS`` (default ``1,2,4``),
  compared on solves/sec against the 1-worker cluster (so process/pipe
  overhead is priced into both sides).  Residuals must stay <= 1e-10
  and no shared-memory segment may leak at any size.  The scaling
  floors (>= 1.6x at 2 workers, >= 2.5x at 4) only apply when the host
  actually has that many cores — on a 1-CPU container the workers
  time-slice one core and no speedup is possible, so the floors are
  gated on ``os.cpu_count()``.  Artifact:
  ``benchmarks/_output/serving_cluster_scaling.json``.

* **Engine overhead**: one warm single-RHS ``engine.solve`` at
  concurrency 1 against the raw ``plan.solve_many`` it wraps, on a
  fixed circuit-2000 (seed 1) that no size knob scales.  Interleaved
  best-of-40, pinned to one CPU where ``os.sched_setaffinity`` exists
  (the thread hop an idle engine skips is priced as it is on a busy
  one-CPU host).  ``engine_over_raw`` must stay <= 2.3; the artifact
  also records ``engine_self_us``, the engine's own microseconds per
  solve (engine minus raw best), and ``block_kernel_us``: pinned
  best-of-40 kernel microseconds on the deep chain-4000 and fem-20000,
  in the variant the registry picks, of a width-2 block given as its
  columns (a coalesced batch) against two width-1 solves, and of the
  ``solve_multi`` array path at k = 2 and k = 8 (no bound on these).
  Artifact: ``benchmarks/_output/serving_engine_overhead.json``.

Smoke-sized by default; scale with ``REPRO_BENCH_SERVE_ROWS`` /
``REPRO_BENCH_SERVE_REQUESTS`` and ``REPRO_BENCH_LANE_DOMAINS`` /
``REPRO_BENCH_LANE_REQUESTS`` / ``REPRO_BENCH_LANE_ROWS`` and
``REPRO_BENCH_CLUSTER_WORKERS`` / ``REPRO_BENCH_CLUSTER_ROWS`` /
``REPRO_BENCH_CLUSTER_REQUESTS`` / ``REPRO_BENCH_CLUSTER_RHS``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from contextlib import contextmanager

import numpy as np

from benchmarks.conftest import run_once
from repro.datasets import generate
from repro.gpu.device import SIM_SMALL
from repro.serve import MatrixRegistry, SolveEngine
from repro.solvers import WritingFirstCapelliniSolver
from repro.sparse import lower_triangular_system

N_ROWS = int(os.environ.get("REPRO_BENCH_SERVE_ROWS", "600"))
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "12"))
#: Domains of the host-vs-sim lane comparison (the "standard suite").
LANE_DOMAINS = tuple(
    os.environ.get("REPRO_BENCH_LANE_DOMAINS", "circuit,graph,lp").split(",")
)
#: Concurrent requests per lane-comparison session (batch width).
LANE_REQUESTS = int(os.environ.get("REPRO_BENCH_LANE_REQUESTS", "8"))
#: Rows of the lane-comparison matrices.  Deliberately NOT tied to
#: ``REPRO_BENCH_SERVE_ROWS``: the 10x acceptance bound is calibrated
#: here — at toy sizes the engine's fixed per-request overhead (asyncio
#: machinery, thread handoff) dominates the host lane's wall clock and
#: the comparison measures the harness, not the solvers.
LANE_ROWS = int(os.environ.get("REPRO_BENCH_LANE_ROWS", "600"))
#: Worker counts of the cluster-scaling sweep.
CLUSTER_WORKERS = tuple(
    int(w)
    for w in os.environ.get("REPRO_BENCH_CLUSTER_WORKERS", "1,2,4").split(",")
)
CLUSTER_ROWS = int(os.environ.get("REPRO_BENCH_CLUSTER_ROWS", "600"))
#: Pipelined multi-RHS submits per matrix per sweep point.
CLUSTER_REQUESTS = int(os.environ.get("REPRO_BENCH_CLUSTER_REQUESTS", "8"))
CLUSTER_RHS = int(os.environ.get("REPRO_BENCH_CLUSTER_RHS", "8"))
#: Distinct matrices (shard keys) of the cluster workload.
CLUSTER_MATRICES = int(os.environ.get("REPRO_BENCH_CLUSTER_MATRICES", "4"))
#: Engine-overhead gate: fixed matrix and repeats, deliberately not
#: scaled by any knob — the bound is a ratio calibrated on this size.
OVERHEAD_ROWS = 2000
OVERHEAD_REPEATS = 40
#: Ceiling on warm engine latency over the raw plan solve it serves.
ENGINE_OVER_RAW_MAX = 2.3
#: Deep matrices of the block-kernel timings: (label, domain, rows,
#: generator parameters), as perfbench's deep-pair workload builds them.
BLOCK_KERNEL_MATRICES = (
    ("chain-4000", "chain", 4000, {}),
    ("fem-20000", "fem", 20000, {"bandwidth": 4}),
)


def _serving_session():
    L = generate("circuit", N_ROWS, 0)
    system = lower_triangular_system(L)

    async def serve():
        # simulator lane: this benchmark measures simulated cycles, which
        # only exist when the batch actually runs on the simulator
        engine = SolveEngine(
            device=SIM_SMALL, max_batch=N_REQUESTS, execution="sim"
        )
        engine.register(system.L, name="bench")
        responses = await asyncio.gather(
            *[engine.solve("bench", system.b) for _ in range(N_REQUESTS)]
        )
        snapshot = engine.snapshot()
        await engine.close()
        return responses, snapshot

    responses, snapshot = asyncio.run(serve())
    for resp in responses:
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)

    solver = WritingFirstCapelliniSolver()
    independent_cycles = sum(
        solver.solve(system.L, system.b, device=SIM_SMALL).stats.cycles
        for _ in range(N_REQUESTS)
    )
    return system, responses, snapshot, independent_cycles


def test_serving_coalescing(benchmark, output_dir):
    system, responses, snapshot, independent_cycles = run_once(
        benchmark, _serving_session
    )
    batched_cycles = snapshot["sim"]["cycles"]
    width = snapshot["batches"]["width"]
    cache = snapshot["registry"]
    hit_rate = cache["hit_rate"]

    lines = [
        "serving coalescing benchmark",
        f"matrix: circuit n={system.L.n_rows} nnz={system.L.nnz}",
        f"requests: {N_REQUESTS} concurrent single-RHS",
        f"batches: {snapshot['batches']['total']} "
        f"(width mean {width['mean']:.1f}, max {width['max']:.0f})",
        f"simulated cycles, coalesced  : {batched_cycles}",
        f"simulated cycles, independent: {independent_cycles}",
        f"cycle ratio (coalesced/independent): "
        f"{batched_cycles / independent_cycles:.3f}",
        f"cache hit rate: "
        f"{'n/a' if hit_rate is None else f'{hit_rate:.1%}'} "
        f"({cache['hits']} hits, {cache['misses']} misses)",
        f"fallbacks: {snapshot['fallbacks']['solves']}",
    ]
    report = "\n".join(lines)
    print()
    print(report)
    (output_dir / "serving.txt").write_text(report + "\n")

    # the point of the exercise: one batched launch per coalesced group
    # must beat N independent launches on total simulated cycles
    assert batched_cycles < independent_cycles
    # telemetry must actually show coalescing happened
    assert width["max"] >= 2
    assert snapshot["batches"]["total"] < N_REQUESTS
    # the sim lane served everything (execution="sim" was honoured)
    assert snapshot["lanes"]["host"]["batches"] == 0
    assert snapshot["lanes"]["sim"]["batches"] >= 1

    benchmark.extra_info["coalesced_cycles"] = batched_cycles
    benchmark.extra_info["independent_cycles"] = independent_cycles
    benchmark.extra_info["batch_width_mean"] = width["mean"]
    benchmark.extra_info["cache_hit_rate"] = hit_rate


def _lane_session(execution: str):
    """One serving session per domain through one execution lane.

    Returns ``{domain: {wall_s, solves_per_sec, residual, solver,
    lane, batch_width_max}}`` — residual is the max-norm of
    ``x - x_true`` over every response, deterministic per lane.
    """
    out = {}
    for domain in LANE_DOMAINS:
        L = generate(domain, LANE_ROWS, 0)
        system = lower_triangular_system(L)

        async def serve():
            engine = SolveEngine(
                device=SIM_SMALL, max_batch=LANE_REQUESTS,
                execution=execution,
            )
            engine.register(system.L, name=domain)
            t0 = time.perf_counter()
            responses = await asyncio.gather(
                *[engine.solve(domain, system.b)
                  for _ in range(LANE_REQUESTS)]
            )
            wall = time.perf_counter() - t0
            snapshot = engine.snapshot()
            await engine.close()
            return responses, snapshot, wall

        responses, snapshot, wall = asyncio.run(serve())
        residual = max(
            float(np.max(np.abs(r.x - system.x_true))) for r in responses
        )
        out[domain] = {
            "wall_s": wall,
            "solves_per_sec": LANE_REQUESTS / wall,
            "residual": residual,
            "solver": responses[0].solver,
            "lane": responses[0].lane,
            "batch_width_max": int(snapshot["batches"]["width"]["max"]),
        }
    return out


def _host_vs_sim():
    host = _lane_session("host")
    sim = _lane_session("sim")
    return host, sim


def test_host_vs_sim_lanes(benchmark, output_dir):
    """The host fast lane must serve >= 10x the simulator's throughput
    at batch width >= 4 while matching the reference solution."""
    host, sim = run_once(benchmark, _host_vs_sim)

    doc = {
        "config": {
            "device": "SimSmall",
            "domains": list(LANE_DOMAINS),
            "n_rows": LANE_ROWS,
            "requests": LANE_REQUESTS,
        },
        "domains": {},
    }
    lines = ["host-vs-sim execution lanes", ""]
    for domain in LANE_DOMAINS:
        h, s = host[domain], sim[domain]
        speedup = h["solves_per_sec"] / s["solves_per_sec"]
        doc["domains"][domain] = {
            "equivalence": {
                "host_lane": h["lane"],
                "host_residual": f"{h['residual']:.3e}",
                "host_solver": h["solver"],
                "sim_lane": s["lane"],
                "sim_residual": f"{s['residual']:.3e}",
                "sim_solver": s["solver"],
            },
            "measured": {
                "host_solves_per_sec": round(h["solves_per_sec"], 1),
                "sim_solves_per_sec": round(s["solves_per_sec"], 1),
                "speedup": round(speedup, 1),
            },
        }
        lines.append(
            f"{domain:>14}: host {h['solves_per_sec']:9.1f} solves/s "
            f"({h['residual']:.1e} resid) | "
            f"sim {s['solves_per_sec']:7.1f} solves/s "
            f"({s['residual']:.1e} resid) | {speedup:7.1f}x"
        )

        # proof obligations (ISSUE 4 acceptance criteria)
        assert h["lane"] == "host" and s["lane"] == "sim"
        assert h["batch_width_max"] >= 4, "batch width >= 4 required"
        assert h["residual"] <= 1e-10
        assert s["residual"] <= 1e-10
        assert speedup >= 10.0, (
            f"{domain}: host lane only {speedup:.1f}x over sim"
        )

    report = "\n".join(lines)
    print()
    print(report)
    (output_dir / "serving_lanes.txt").write_text(report + "\n")
    (output_dir / "serving_host_vs_sim.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )

    benchmark.extra_info["speedups"] = {
        d: doc["domains"][d]["measured"]["speedup"] for d in LANE_DOMAINS
    }


def _cluster_session(n_workers: int) -> dict:
    """One pipelined workload through an ``n_workers`` cluster.

    Every matrix gets ``CLUSTER_REQUESTS`` pipelined ``CLUSTER_RHS``-wide
    submits; wall clock covers submit-to-drain (registration and warmup
    excluded).  Returns throughput, worst residual and leak audit.
    """
    from repro.serve.arena import leaked_segments
    from repro.serve.cluster import ShardRouter

    systems = [
        lower_triangular_system(generate("circuit", CLUSTER_ROWS, seed))
        for seed in range(CLUSTER_MATRICES)
    ]
    total_rhs = CLUSTER_MATRICES * CLUSTER_REQUESTS * CLUSTER_RHS
    with ShardRouter(
        n_workers=n_workers, execution="host", request_timeout=300.0
    ) as router:
        keys = [
            router.register(s.L, name=f"bench-{i}")
            for i, s in enumerate(systems)
        ]
        shards = {router.worker_for(k) for k in keys}
        work = []
        for key, s in zip(keys, systems):
            B = np.column_stack(
                [(r + 1.0) * s.b for r in range(CLUSTER_RHS)]
            )
            X_true = np.column_stack(
                [(r + 1.0) * s.x_true for r in range(CLUSTER_RHS)]
            )
            work.append((key, B, X_true))
        # warmup: every worker JITs its plan path before the clock runs
        for key, B, _ in work:
            router.solve_multi(key, B)
        t0 = time.perf_counter()
        futs = [
            (router.submit(key, B), X_true)
            for _ in range(CLUSTER_REQUESTS)
            for key, B, X_true in work
        ]
        residual = 0.0
        for fut, X_true in futs:
            resp = fut.result(timeout=300.0)
            residual = max(residual, float(np.max(np.abs(resp.x - X_true))))
        wall = time.perf_counter() - t0
    return {
        "workers": n_workers,
        "shards_used": len(shards),
        "wall_s": wall,
        "solves_per_sec": total_rhs / wall,
        "residual": residual,
        "leaked_segments": leaked_segments(),
    }


def test_cluster_scaling(benchmark, output_dir):
    """Sharded-cluster throughput sweep over worker counts.

    Correctness (residual, zero leaked segments) is asserted at every
    size unconditionally; the scaling floors only where the host has
    enough cores for the workers to actually run in parallel.
    """
    results = run_once(
        benchmark,
        lambda: [_cluster_session(w) for w in CLUSTER_WORKERS],
    )
    by_workers = {r["workers"]: r for r in results}
    base = by_workers[min(by_workers)]

    doc = {
        "config": {
            "domain": "circuit",
            "matrices": CLUSTER_MATRICES,
            "n_rows": CLUSTER_ROWS,
            "requests_per_matrix": CLUSTER_REQUESTS,
            "rhs_per_request": CLUSTER_RHS,
            "cpu_count": os.cpu_count(),
        },
        "sweep": [],
    }
    lines = ["sharded-cluster scaling", ""]
    for r in results:
        speedup = r["solves_per_sec"] / base["solves_per_sec"]
        doc["sweep"].append({
            "workers": r["workers"],
            "shards_used": r["shards_used"],
            "solves_per_sec": round(r["solves_per_sec"], 1),
            "speedup_vs_1": round(speedup, 2),
            "residual": f"{r['residual']:.3e}",
            "leaked_segments": len(r["leaked_segments"]),
        })
        lines.append(
            f"{r['workers']:>2} worker(s): {r['solves_per_sec']:9.1f} "
            f"solves/s ({speedup:5.2f}x vs 1) | "
            f"resid {r['residual']:.1e} | "
            f"{len(r['leaked_segments'])} leaked"
        )

        # unconditional proof obligations
        assert r["residual"] <= 1e-10
        assert not r["leaked_segments"], (
            f"{r['workers']} workers leaked {r['leaked_segments']}"
        )

    cores = os.cpu_count() or 1
    floors = {2: 1.6, 4: 2.5}
    for workers, floor in floors.items():
        r = by_workers.get(workers)
        if r is None or cores < workers:
            continue  # sweep skipped the size, or host can't parallelize
        speedup = r["solves_per_sec"] / base["solves_per_sec"]
        assert speedup >= floor, (
            f"{workers} workers only {speedup:.2f}x vs 1 "
            f"(floor {floor}x, {cores} cores)"
        )

    report = "\n".join(lines)
    print()
    print(report)
    (output_dir / "serving_cluster.txt").write_text(report + "\n")
    (output_dir / "serving_cluster_scaling.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )

    benchmark.extra_info["scaling"] = {
        str(r["workers"]): round(
            r["solves_per_sec"] / base["solves_per_sec"], 2
        )
        for r in results
    }


@contextmanager
def _one_cpu():
    """Pin the calling thread, and the threads it starts meanwhile, to
    one of its CPUs; restore its mask after."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _engine_overhead() -> dict:
    """Interleaved best-of-N seconds: raw plan solve vs. engine solve."""
    system = lower_triangular_system(generate("circuit", OVERHEAD_ROWS, 1))
    b = system.b
    B = b.reshape(-1, 1)

    async def measure():
        async with SolveEngine() as engine:
            key = engine.register(system.L, name="overhead")
            plan = engine.registry.plan(key)
            resp = await engine.solve(key, b)
            np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
            # warm both paths (allocator, caches, branch history): the
            # first few dozen engine solves run well above steady state
            for _ in range(OVERHEAD_REPEATS):
                plan.solve_many(B)
                await engine.solve(key, b)
            clock = time.perf_counter
            best_raw = best_engine = float("inf")
            for _ in range(OVERHEAD_REPEATS):
                t0 = clock()
                plan.solve_many(B)
                best_raw = min(best_raw, clock() - t0)
                t0 = clock()
                await engine.solve(key, b)
                best_engine = min(best_engine, clock() - t0)
            return best_raw, best_engine, resp.lane

    with _one_cpu():
        raw_s, engine_s, lane = asyncio.run(measure())
    return {"raw_s": raw_s, "engine_s": engine_s, "lane": lane}


def _block_kernels() -> dict:
    """Interleaved best-of-N kernel µs of the engine's block forms.

    ``columns_k2`` is a coalesced width-2 block as the engine passes it
    (its two columns), ``two_k1`` two width-1 solves of the same
    columns, ``multi_k2``/``multi_k8`` the ``solve_multi`` path, which
    hands the plan an ``(n, k)`` array.
    """
    doc = {}
    rng = np.random.default_rng(0)
    for label, domain, n_rows, params in BLOCK_KERNEL_MATRICES:
        registry = MatrixRegistry()
        plan = registry.plan(registry.register(generate(domain, n_rows, 1,
                                                        **params)))
        B8 = rng.standard_normal((n_rows, 8))
        cols = [np.ascontiguousarray(B8[:, c]) for c in range(2)]
        runs = {
            "columns_k2": lambda: plan.solve_many(cols),
            "two_k1": lambda: (plan.solve_many(cols[:1]),
                               plan.solve_many(cols[1:])),
            "multi_k2": lambda: plan.solve_many(B8[:, :2]),
            "multi_k8": lambda: plan.solve_many(B8),
        }
        best = dict.fromkeys(runs, float("inf"))
        for _ in range(OVERHEAD_REPEATS):
            for name, fn in runs.items():
                t0 = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - t0)
        doc[label] = {
            "schedule": plan.schedule,
            **{name: round(t * 1e6, 2) for name, t in best.items()},
        }
    return doc


def test_engine_overhead(benchmark, output_dir):
    """A warm, idle engine's solve takes at most 2.3x its kernel's time."""
    r = run_once(benchmark, _engine_overhead)
    with _one_cpu():
        blocks = _block_kernels()
    ratio = r["engine_s"] / r["raw_s"]
    doc = {
        "config": {
            "domain": "circuit",
            "n_rows": OVERHEAD_ROWS,
            "seed": 1,
            "repeats": OVERHEAD_REPEATS,
            "concurrency": 1,
            "pinned_one_cpu": hasattr(os, "sched_setaffinity"),
        },
        "raw_best_ms": round(r["raw_s"] * 1e3, 4),
        "engine_best_ms": round(r["engine_s"] * 1e3, 4),
        "engine_over_raw": round(ratio, 3),
        # the engine's own time per solve, beside the ratio it moves
        "engine_self_us": round((r["engine_s"] - r["raw_s"]) * 1e6, 2),
        "bound": ENGINE_OVER_RAW_MAX,
        # kernel µs of the block forms; recorded, not gated
        "block_kernel_us": blocks,
    }
    (output_dir / "serving_engine_overhead.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print()
    print(
        f"engine overhead: raw {doc['raw_best_ms']} ms, engine "
        f"{doc['engine_best_ms']} ms, engine/raw {doc['engine_over_raw']}, "
        f"engine self {doc['engine_self_us']} us"
    )
    for label, t in blocks.items():
        print(
            f"{label} ({t['schedule']}) kernel us: columns k=2 "
            f"{t['columns_k2']}, two k=1 {t['two_k1']}, solve_multi k=2 "
            f"{t['multi_k2']}, k=8 {t['multi_k8']}"
        )
    benchmark.extra_info["engine_over_raw"] = doc["engine_over_raw"]

    assert r["lane"] == "host"
    assert ratio <= ENGINE_OVER_RAW_MAX, (
        f"engine/raw {ratio:.2f} exceeds {ENGINE_OVER_RAW_MAX}"
    )
