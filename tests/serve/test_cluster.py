"""ShardRouter: multi-process sharded serving over zero-copy matrices.

Spawning workers is the expensive part (a fresh interpreter imports
numpy per worker), so most tests share one module-scoped router; the
chaos/respawn and shutdown-audit tests build their own so they can
kill and close freely.
"""

import asyncio
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ClusterError,
    InvalidRequestError,
    UnknownMatrixError,
    WorkerDiedError,
)
from repro.serve.arena import PlanArena, leaked_segments
from repro.serve.cluster import ShardRouter, _worker_serve
from repro.serve.shardproto import (
    OP_CLOSE,
    OP_REGISTER,
    OP_SOLVE,
    recv_frame,
    send_frame,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower

N = 120


def distinct_shard_systems(router, count=2, max_candidates=24):
    """Register candidate systems until ``count`` distinct shard owners
    are covered (two keys can legitimately hash onto one worker).
    Returns ``[(key, system), ...]`` with pairwise-distinct owners."""
    picked = {}
    for seed in range(max_candidates):
        L = random_unit_lower(N, 0.1, seed=seed)
        system = lower_triangular_system(L)
        key = router.register(L, name=f"sys-{seed}")
        owner = router.worker_for(key)
        if owner not in picked:
            picked[owner] = (key, system)
        if len(picked) >= count:
            return [picked[node] for node in sorted(picked)]
    raise AssertionError(
        f"no {count} distinct shards among {max_candidates} candidates"
    )


@pytest.fixture(scope="module")
def router():
    with ShardRouter(n_workers=2, execution="host",
                     request_timeout=60.0) as r:
        yield r


@pytest.fixture(scope="module")
def sharded(router):
    return distinct_shard_systems(router)


class TestRoutingAndSolving:
    def test_matrices_land_on_distinct_shards(self, router, sharded):
        owners = {router.worker_for(key) for key, _ in sharded}
        assert len(owners) == 2
        assert owners <= set(router.nodes)

    def test_register_is_idempotent(self, router, sharded):
        key, system = sharded[0]
        assert router.register(system.L) == key

    def test_single_rhs_solve_each_shard(self, router, sharded):
        for key, system in sharded:
            resp = router.solve(key, system.b)
            assert resp.x.shape == system.b.shape
            np.testing.assert_allclose(
                resp.x, system.x_true, rtol=1e-9, atol=1e-12
            )
            assert resp.worker == router.worker_for(key)
            assert resp.n_rhs == 1
            assert resp.lane == "host"

    def test_multi_rhs_solve(self, router, sharded):
        key, system = sharded[0]
        k = 3
        B = np.column_stack([(r + 1.0) * system.b for r in range(k)])
        X_true = np.column_stack(
            [(r + 1.0) * system.x_true for r in range(k)]
        )
        resp = router.solve_multi(key, B)
        assert resp.x.shape == (N, k)
        np.testing.assert_allclose(resp.x, X_true, rtol=1e-9, atol=1e-12)

    def test_large_rhs_travels_by_slab(self, router, sharded):
        key, system = sharded[0]
        k = 1 + router.inline_max // (N * 8)  # force the slab path
        B = np.column_stack([(r + 1.0) * system.b for r in range(k)])
        X_true = np.column_stack(
            [(r + 1.0) * system.x_true for r in range(k)]
        )
        def slab_traffic():
            s = router.router_stats()["slabs"]
            return s["created"] + s["reused"]

        before = slab_traffic()
        resp = router.solve_multi(key, B)
        np.testing.assert_allclose(resp.x, X_true, rtol=1e-9, atol=1e-12)
        assert slab_traffic() > before

    def test_pipelined_submits_across_shards(self, router, sharded):
        futs = [
            (router.submit(key, system.b, single=True), system)
            for _ in range(8)
            for key, system in sharded
        ]
        for fut, system in futs:
            np.testing.assert_allclose(
                fut.result(timeout=60.0).x, system.x_true,
                rtol=1e-9, atol=1e-12,
            )

    def test_unknown_matrix_rejected_router_side(self, router):
        with pytest.raises(UnknownMatrixError):
            router.solve("never-registered", np.ones(N))

    def test_bad_shape_rejected(self, router, sharded):
        key, _ = sharded[0]
        with pytest.raises(InvalidRequestError, match="shape"):
            router.submit(key, np.ones((N + 1, 1)))

    def test_non_finite_rhs_rejected_by_worker(self, router, sharded):
        key, system = sharded[0]
        before = router.snapshot()["fleet"]["requests"]["rejected"]
        b = system.b.copy()
        b[3] = np.nan
        with pytest.raises(InvalidRequestError, match="non-finite"):
            router.solve(key, b)
        B = np.column_stack([system.b, system.b])
        B[5, 1] = np.inf
        with pytest.raises(InvalidRequestError, match="non-finite"):
            router.solve_multi(key, B)
        after = router.snapshot()["fleet"]["requests"]["rejected"]
        assert after - before == 2
        resp = router.solve(key, system.b)
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)

    def test_unsolvable_matrix_rejected_before_publish(self, router):
        # the router checks what it shares; the worker builds the plan
        from repro.errors import NotTriangularError
        from repro.sparse.convert import dense_to_csr

        upper = dense_to_csr(np.triu(np.ones((4, 4))))
        before = router.router_stats()["arena"]["published"]
        with pytest.raises(NotTriangularError):
            router.register(upper)
        assert router.router_stats()["arena"]["published"] == before

    def test_failed_registration_can_be_retried(self, router, monkeypatch):
        L = random_unit_lower(N, 0.1, seed=41)
        system = lower_triangular_system(L)
        before = set(leaked_segments())
        real = router._register_with
        calls = []

        def fails_once(worker, handle, name):
            calls.append(worker.node)
            if len(calls) == 1:
                raise WorkerDiedError("injected registration failure")
            return real(worker, handle, name)

        monkeypatch.setattr(router, "_register_with", fails_once)
        with pytest.raises(WorkerDiedError, match="injected"):
            router.register(L, name="flaky")
        # unpublished: no segment outlives the failed registration
        assert set(leaked_segments()) - before == set()
        key = router.register(L, name="flaky")
        assert len(calls) == 2  # the retry reached a worker
        resp = router.solve(key, system.b)
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.matrix == key

    def test_ping_all_workers(self, router):
        replies = router.ping()
        assert set(replies) == set(router.nodes)


class TestTelemetry:
    def test_snapshot_shape_and_rollup(self, router, sharded):
        for key, system in sharded:
            router.solve(key, system.b)
        snap = router.snapshot()
        assert set(snap) == {"workers", "fleet", "router"}
        assert set(snap["workers"]) == set(router.nodes)
        fleet = snap["fleet"]
        assert fleet["workers"] == 2
        assert fleet["requests"]["total"] >= 2
        assert fleet["requests"]["total"] == sum(
            w["requests"]["total"] for w in snap["workers"].values()
        )
        # each worker built features and a plan for its own matrices
        assert fleet["registry"]["artifact_builds"] >= 4
        rt = snap["router"]
        assert rt["workers"] == 2
        assert rt["arena"]["resident"] >= 2
        assert sum(rt["shard_keys"].values()) >= 2

    def test_worker_snapshot_has_shard_id(self, router):
        snaps = router.worker_snapshots()
        shards = {
            s["registry"]["shard"] for s in snaps.values()
        }
        assert shards == {0, 1}

    def test_openmetrics_renders_fleet_series(self, router):
        text = router.openmetrics()
        assert "repro_fleet_workers 2" in text
        assert 'worker="shard-0"' in text
        assert "repro_fleet_router_requests_total" in text


class TestFailureRecovery:
    def test_kill_mid_stream_respawns_and_recovers(self):
        with ShardRouter(n_workers=2, execution="host",
                         request_timeout=60.0) as router:
            (key, system), _ = distinct_shard_systems(router)
            victim = router.worker_for(key)

            # enough in-flight work (wide multi-rhs batches) that the
            # SIGKILL reliably lands while requests are still pending,
            # not after the worker has drained the whole burst
            k = 4
            B = np.column_stack(
                [(r + 1.0) * system.b for r in range(k)]
            )
            X_true = np.column_stack(
                [(r + 1.0) * system.x_true for r in range(k)]
            )
            futs = [router.submit(key, B) for _ in range(48)]
            router.kill_worker(victim)
            outcomes = {"ok": 0, "died": 0}
            for fut in futs:
                try:
                    resp = fut.result(timeout=60.0)
                except WorkerDiedError:
                    outcomes["died"] += 1
                else:
                    outcomes["ok"] += 1
                    np.testing.assert_allclose(
                        resp.x, X_true, rtol=1e-9, atol=1e-12
                    )
            # the kill landed mid-stream: something must have died
            assert outcomes["died"] >= 1

            # respawn happens in the reader thread; retry until it lands
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    resp = router.solve(key, system.b)
                    break
                except WorkerDiedError:
                    if time.monotonic() > deadline:  # pragma: no cover
                        raise
                    time.sleep(0.1)
            np.testing.assert_allclose(
                resp.x, system.x_true, rtol=1e-9, atol=1e-12
            )
            assert resp.worker == victim  # same node name, new process
            stats = router.router_stats()
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
            assert set(router.nodes) == {"shard-0", "shard-1"}

    def test_no_respawn_retires_worker_and_rehomes_keys(self):
        with ShardRouter(n_workers=2, execution="host",
                         request_timeout=60.0, respawn=False) as router:
            (key, system), _ = distinct_shard_systems(router)
            victim = router.worker_for(key)
            router.kill_worker(victim)
            deadline = time.monotonic() + 60.0
            while victim in router.nodes:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError("worker never retired")
                time.sleep(0.05)
            # the survivor inherited the dead shard's keys
            resp = router.solve(key, system.b)
            np.testing.assert_allclose(
                resp.x, system.x_true, rtol=1e-9, atol=1e-12
            )
            assert resp.worker != victim
            assert len(router.nodes) == 1

    def test_close_leaves_no_shared_memory(self):
        # other routers (the module fixture) may be live: audit only
        # the segments this router adds
        before = set(leaked_segments())
        with ShardRouter(n_workers=2, execution="host",
                         request_timeout=60.0) as router:
            L = random_unit_lower(N, 0.1, seed=3)
            system = lower_triangular_system(L)
            key = router.register(L)
            # exercise both inline and slab payloads before closing
            router.solve(key, system.b)
            router.solve_multi(key, np.column_stack([system.b] * 8))
            assert set(leaked_segments()) - before  # segments existed
        assert set(leaked_segments()) - before == set()

    def test_submit_after_close_rejected(self):
        router = ShardRouter(n_workers=1, execution="host")
        L = random_unit_lower(N, 0.1, seed=4)
        key = router.register(L)
        router.close()
        with pytest.raises(ClusterError):
            router.submit(key, np.ones(N))

    def test_zero_workers_rejected(self):
        with pytest.raises(ClusterError):
            ShardRouter(n_workers=0)


class TestWorkerLoop:
    """A worker reads and writes its frames on its event loop: one
    writer per pipe, so no reply can interleave with another."""

    def test_reply_larger_than_the_pipe_buffer_among_pipelined_solves(
        self,
    ):
        import json

        # ~1,500 solves fill the worker's 4,096-event TraceLog with
        # their enqueue/launch/publish trails, so the OP_TRACE reply is
        # about 1 MB: many times the 64 KiB pipe buffer, so it goes out
        # in many partial writes while the solves before and after it
        # are in flight.  The warm-up goes in one burst, past the
        # engine's max_queue of 1,024: the worker stops reading while it
        # holds that many solves, so the rest wait in the pipe
        system = lower_triangular_system(random_unit_lower(N, 0.1, seed=21))
        with ShardRouter(n_workers=1, execution="host",
                         request_timeout=30.0) as router:
            key = router.register(system.L)
            warm = [router.submit(key, system.b, single=True)
                    for _ in range(1500)]
            for fut in warm:
                fut.result(timeout=30.0)
            futs = [router.submit(key, system.b, single=True)
                    for _ in range(16)]
            (events,) = router.trace_events().values()
            futs += [router.submit(key, system.b, single=True)
                     for _ in range(16)]
            for fut in futs:
                np.testing.assert_allclose(
                    fut.result(timeout=30.0).x, system.x_true,
                    rtol=1e-9, atol=1e-12,
                )
        assert len(json.dumps(events)) > 12 * 64 * 1024
        assert sum(e["kind"] == "publish" for e in events) > 500

    def test_pipelined_submits_over_two_matrices_on_one_worker(self):
        systems = [
            lower_triangular_system(random_unit_lower(N, 0.1, seed=seed))
            for seed in (31, 32)
        ]
        with ShardRouter(n_workers=1, execution="host",
                         request_timeout=60.0) as router:
            keys = [router.register(s.L) for s in systems]
            futs = []
            for i in range(64):
                key, system = keys[i % 2], systems[i % 2]
                scale = float(i + 1)
                if i % 4 < 2:
                    fut = router.submit(key, scale * system.b, single=True)
                else:
                    fut = router.submit(
                        key, np.column_stack([system.b, scale * system.b])
                    )
                futs.append((fut, scale, system))
            for fut, scale, system in futs:
                x = fut.result(timeout=60.0).x
                expect = scale * system.x_true
                if x.ndim == 2:
                    np.testing.assert_allclose(
                        x[:, 0], system.x_true, rtol=1e-9, atol=1e-12
                    )
                    x = x[:, 1]
                np.testing.assert_allclose(x, expect, rtol=1e-9, atol=1e-9)

    def test_close_ends_every_worker_cleanly(self):
        before = set(leaked_segments())
        router = ShardRouter(n_workers=2, execution="host",
                             request_timeout=60.0)
        system = lower_triangular_system(random_unit_lower(N, 0.1, seed=5))
        key = router.register(system.L)
        futs = [router.submit(key, np.column_stack([system.b] * 8))
                for _ in range(8)]
        for fut in futs:
            fut.result(timeout=60.0)
        processes = [w.process for w in router._workers.values()]
        router.close()
        assert [p.exitcode for p in processes] == [0, 0]
        assert set(leaked_segments()) - before == set()

    def test_burst_past_max_queue_waits_in_the_pipe(self):
        """A pipelined burst larger than the worker engine's
        ``max_queue`` is throttled, not refused: every frame is in the
        pipe before the worker reads its first, so a worker that read
        on regardless would hold the whole burst at once and its engine
        would refuse all but ``max_queue`` of it with ``QueueFullError``."""
        system = lower_triangular_system(random_unit_lower(N, 0.1, seed=7))
        key = system.L.content_fingerprint()
        arena = PlanArena()
        router_end, worker_end = multiprocessing.Pipe()
        burst = 12
        try:
            handle = arena.publish(key, system.L)
            send_frame(router_end, {
                "op": OP_REGISTER, "rid": 0, "handle": handle.to_json(),
            })
            for rid in range(1, burst + 1):
                send_frame(
                    router_end,
                    {"op": OP_SOLVE, "rid": rid, "key": key,
                     "shape": [N, 1], "single": True},
                    (float(rid) * system.b).tobytes(),
                )
            worker = threading.Thread(
                target=asyncio.run,
                args=(_worker_serve(worker_end, 0, {"max_queue": 4}),),
                daemon=True,
            )
            worker.start()
            replies = [recv_frame(router_end, timeout=30.0)
                       for _ in range(burst + 1)]
            send_frame(router_end, {"op": OP_CLOSE, "rid": burst + 1})
            recv_frame(router_end, timeout=30.0)
            worker.join(timeout=30.0)
        finally:
            router_end.close()
            worker_end.close()
            arena.close()
        assert not worker.is_alive()
        registered, _ = replies[0]
        assert registered["ok"] and registered["key"] == key
        assert [h.get("error") for h, _ in replies[1:] if not h["ok"]] == []
        for header, body in replies[1:]:
            np.testing.assert_allclose(
                np.frombuffer(body), header["rid"] * system.x_true,
                rtol=1e-9, atol=1e-9,
            )


class TestOnePlanType:
    """Workers serve the router's rule-picked plan variant zero-copy."""

    def test_unknown_execution_rejected_before_spawn(self, monkeypatch):
        spawned = []
        monkeypatch.setattr(
            ShardRouter, "_start_worker",
            lambda self, handle: spawned.append(handle),
        )
        with pytest.raises(ValueError, match="execution"):
            ShardRouter(n_workers=1, execution="bogus")
        assert spawned == []

    def test_first_blocks_run_worker_built_plans_of_the_rules_variant(self):
        from repro.datasets import generate

        deep = lower_triangular_system(
            generate("chain", 300, seed=3), rng=np.random.default_rng(3)
        )
        shallow = lower_triangular_system(random_unit_lower(N, 0.1, seed=5))
        with ShardRouter(n_workers=1, execution="auto",
                         request_timeout=60.0) as router:
            keys = {
                "sequential": router.register(deep.L, name="deep"),
                "level": router.register(shallow.L, name="shallow"),
            }
            for system, key in ((deep, keys["sequential"]),
                                (shallow, keys["level"])):
                B = np.column_stack([system.b, 2.0 * system.b])
                resp = router.solve_multi(key, B)
                np.testing.assert_allclose(
                    resp.x[:, 1], 2.0 * system.x_true, rtol=1e-9
                )
                assert resp.lane == "host"
            (events,) = router.trace_events().values()
            (snap,) = router.worker_snapshots().values()
        launches = [e for e in events if e["kind"] == "launch"]
        assert {e["matrix"]: e["schedule"] for e in launches} == {
            key: schedule for schedule, key in keys.items()
        }
        # the worker built each matrix's features and plan once, at
        # registration, so even the first block ran warm and inline
        assert snap["registry"]["artifact_builds"] == 4
        assert {e["dispatch"] for e in launches} == {"inline"}

    def test_one_request_counts_registry_hits_like_in_process(self):
        # the worker's "plan" span only peeks at the registry; the solve
        # makes the one counted lookup, as an in-process solve does
        import asyncio

        from repro.serve.engine import SolveEngine

        system = lower_triangular_system(random_unit_lower(N, 0.1, seed=9))

        async def in_process_hits():
            async with SolveEngine(execution="host") as engine:
                key = engine.register(system.L)
                await engine.solve(key, system.b)  # warm
                before = engine.registry.stats()["hits"]
                await engine.solve(key, system.b)
                return engine.registry.stats()["hits"] - before

        expected = asyncio.run(in_process_hits())
        assert expected >= 1

        def worker_hits(router):
            (snap,) = router.worker_snapshots().values()
            return snap["registry"]["hits"]

        with ShardRouter(n_workers=1, execution="host",
                         request_timeout=60.0) as router:
            key = router.register(system.L)
            router.solve(key, system.b)  # warm
            before = worker_hits(router)
            router.solve(key, system.b)
            assert worker_hits(router) - before == expected


def _loaded_after(module: str, prefix: str) -> str:
    """Modules under ``prefix`` that a fresh interpreter holds after
    importing ``module``, as the printed sorted list."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        f"import sys, {module}; print(sorted(m for m in "
        f"sys.modules if m.startswith({prefix!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestBootImports:
    def test_cluster_import_leaves_scipy_sparse_linalg_unloaded(self):
        # every worker boots by importing this module; the fast lane's
        # kernel comes from scipy.sparse._sparsetools, and pulling in
        # the sparse linalg stack would add to each boot's import time
        assert _loaded_after("repro.serve.cluster", "scipy.sparse.linalg") == "[]"

    def test_serve_import_leaves_networkx_unloaded(self):
        # networkx (~285 modules, ~0.1 s) serves only the DAG view and
        # RCM reordering; no worker or engine needs it to boot
        assert _loaded_after("repro.serve", "networkx") == "[]"
