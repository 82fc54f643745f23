"""Request-scoped tracing through the solve engine."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analysis.hazards import RACE, Hazard
from repro.errors import HazardError, QueueFullError
from repro.datasets.suite import generate
from repro.serve import SolveEngine
from repro.solvers import (
    LevelSetSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.sparse.triangular import lower_triangular_system


def circuit_system(n=200, seed=3):
    return lower_triangular_system(generate("circuit", n, seed))


class TestHappyPath:
    def test_single_request_timeline(self):
        async def run():
            system = circuit_system()
            async with SolveEngine() as engine:
                key = engine.register(system.L)
                resp = await engine.solve(key, system.b)
                assert resp.trace_id
                kinds = [
                    e["kind"]
                    for e in engine.trace_log.request_timeline(resp.trace_id)
                ]
                assert kinds == ["enqueue", "launch", "publish"]
                assert engine.snapshot()["trace"]["emitted"] == 3

        asyncio.run(run())

    def test_coalesced_requests_share_batch_and_launch(self):
        async def run():
            system = circuit_system()
            async with SolveEngine() as engine:
                key = engine.register(system.L)
                resps = await asyncio.gather(
                    *[engine.solve(key, system.b) for _ in range(4)]
                )
                ids = {r.trace_id for r in resps}
                assert len(ids) == 4  # one id per request
                launches = engine.trace_log.events(kind="launch")
                assert len(launches) == 1
                assert set(launches[0]["trace_ids"]) == ids
                assert launches[0]["width"] == 4
                assert launches[0]["batch_id"] not in ids

        asyncio.run(run())

    def test_solve_multi_gets_trace_id(self):
        async def run():
            system = circuit_system()
            async with SolveEngine() as engine:
                key = engine.register(system.L)
                B = np.stack([system.b, 2 * system.b], axis=1)
                resp = await engine.solve_multi(key, B)
                assert resp.trace_id
                kinds = [
                    e["kind"]
                    for e in engine.trace_log.request_timeline(resp.trace_id)
                ]
                assert kinds[0] == "enqueue"
                assert "launch" in kinds and "publish" in kinds

        asyncio.run(run())


class TestProfileDigests:
    def test_sim_launch_events_carry_cycle_digest(self):
        async def run():
            system = circuit_system()
            async with SolveEngine(profile=True, execution="sim") as engine:
                key = engine.register(system.L)
                await engine.solve(key, system.b)
                (launch,) = engine.trace_log.events(kind="launch")
                digest = launch["profile"]
                assert digest["cycles"] > 0
                assert abs(sum(digest["phases"].values()) - 1.0) < 1e-3

        asyncio.run(run())

    def test_host_launch_events_carry_no_digest(self):
        # profile=True does not change lanes: the default (auto) engine
        # stays on the host fast path, whose time is its exec_ms
        async def run():
            system = circuit_system()
            async with SolveEngine(profile=True) as engine:
                key = engine.register(system.L)
                resp = await engine.solve(key, system.b)
                assert resp.lane == "host"
                (launch,) = engine.trace_log.events(kind="launch")
                assert "profile" not in launch
                assert launch["exec_ms"] > 0

        asyncio.run(run())

    def test_profiling_does_not_change_answers(self):
        async def run():
            system = circuit_system()
            for execution in ("auto", "sim"):
                async with SolveEngine(
                    profile=False, execution=execution
                ) as bare:
                    key = bare.register(system.L)
                    plain = await bare.solve(key, system.b)
                async with SolveEngine(
                    profile=True, execution=execution
                ) as engine:
                    key = engine.register(system.L)
                    profiled = await engine.solve(key, system.b)
                assert np.array_equal(plain.x, profiled.x)

        asyncio.run(run())

    def test_no_digest_by_default(self):
        async def run():
            system = circuit_system()
            async with SolveEngine() as engine:
                key = engine.register(system.L)
                await engine.solve(key, system.b)
                (launch,) = engine.trace_log.events(kind="launch")
                assert "profile" not in launch

        asyncio.run(run())


class TestUnhappyPaths:
    def test_reject_event_on_full_queue(self):
        async def run():
            system = circuit_system()
            engine = SolveEngine(max_queue=1)
            key = engine.register(system.L)
            results = await asyncio.gather(
                *[engine.solve(key, system.b) for _ in range(3)],
                return_exceptions=True,
            )
            rejected = [r for r in results if isinstance(r, QueueFullError)]
            assert len(rejected) == 2
            rejects = engine.trace_log.events(kind="reject")
            assert len(rejects) == 2
            assert all(e["reason"] == "queue-full" for e in rejects)
            await engine.close()

        asyncio.run(run())

    def test_kernel_failure_and_fallback_events(self, monkeypatch):
        def explode(self, L, b, device):
            raise HazardError(Hazard(kind=RACE, message="injected"))

        monkeypatch.setattr(WritingFirstCapelliniSolver, "_solve", explode)

        # restrict candidates so the chain head is deterministically the
        # (sabotaged) Writing-First kernel, as in test_engine.py
        ladder = (
            WritingFirstCapelliniSolver,
            TwoPhaseCapelliniSolver,
            LevelSetSolver,
        )

        async def run():
            system = circuit_system(n=100, seed=12)
            async with SolveEngine(
                candidates=ladder, execution="sim"
            ) as engine:
                key = engine.register(system.L)
                resp = await engine.solve(key, system.b)
                assert resp.used_fallback
                timeline = engine.trace_log.request_timeline(resp.trace_id)
                kinds = [e["kind"] for e in timeline]
                assert "kernel-failure" in kinds
                assert "fallback" in kinds
                failure = next(
                    e for e in timeline if e["kind"] == "kernel-failure"
                )
                assert failure["error"] == "HazardError"
                fallback = next(
                    e for e in timeline if e["kind"] == "fallback"
                )
                assert fallback["fallback_from"] == "Capellini"

        asyncio.run(run())

    def test_timeout_event(self):
        async def run():
            system = circuit_system()
            engine = SolveEngine()
            key = engine.register(system.L)
            from repro.errors import RequestTimeoutError

            with pytest.raises(RequestTimeoutError):
                await engine.solve(key, system.b, timeout=0.0)
            timeouts = engine.trace_log.events(kind="timeout")
            assert len(timeouts) == 1
            assert timeouts[0]["trace_id"]
            # let the orphaned worker finish before shutdown
            await engine.close()

        asyncio.run(run())

    def test_closed_engine_emits_reject(self):
        async def run():
            system = circuit_system()
            engine = SolveEngine()
            key = engine.register(system.L)
            await engine.close()
            with pytest.raises(QueueFullError):
                await engine.solve(key, system.b)
            (reject,) = engine.trace_log.events(kind="reject")
            assert reject["reason"] == "closed"

        asyncio.run(run())
