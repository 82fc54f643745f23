"""SolveEngine under the deterministic interleaving scheduler.

Real-clock engine tests (tests/serve/test_engine.py) race wall time;
here every await point and worker completion is an explicitly scheduled
virtual event, so timeout/fallback/quarantine transitions and the
close() drain are exercised deterministically and replayably.
"""

import asyncio

import numpy as np
import pytest

from repro.analysis.hazards import RACE, Hazard
from repro.analysis.interleave import explore, run_schedule
from repro.errors import HazardError, RequestTimeoutError
from repro.serve import SolveEngine
from repro.serve.scenarios import (
    SCENARIOS,
    engine_invariants,
    scenario_matrix,
)
from repro.solvers import (
    LevelSetSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower

THREAD_LADDER = (
    WritingFirstCapelliniSolver,
    TwoPhaseCapelliniSolver,
    LevelSetSolver,
)


def make_system(n=60, density=0.05, seed=3):
    return lower_triangular_system(random_unit_lower(n, density, seed=seed))


def injected_hazard() -> HazardError:
    return HazardError(Hazard(kind=RACE, message="injected for test"))


class TestTimeoutFallbackQuarantine:
    def test_transitions_under_virtual_time(self, monkeypatch):
        """timeout -> fallback -> quarantine, all on scheduled events.

        The primary kernel hazards on the worker; a 1.0s virtual worker
        blows a 0.5s deadline.  Request 1 times out exactly at virtual
        t=0.5; its late ladder solve quarantines the primary; request 2
        then falls back immediately, never retrying the failed kernel.
        """
        system = make_system()
        calls = {"n": 0}

        def explode(self, L, b, device):
            calls["n"] += 1
            raise injected_hazard()

        monkeypatch.setattr(WritingFirstCapelliniSolver, "_solve", explode)

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    candidates=THREAD_LADDER,
                    execution="sim",
                    batch_window=0.0,
                    clock=sched.clock,
                    executor=sched.executor(cost=1.0),
                )
                engine.register(system.L, name="m")
                with pytest.raises(RequestTimeoutError):
                    await engine.solve("m", system.b, timeout=0.5)
                t_timeout = sched.clock.now()
                r2 = await engine.solve("m", system.b, timeout=30.0)
                snap = engine.snapshot()
                await engine.close()
                return t_timeout, r2, snap

            return scenario()

        async def main():
            from repro.analysis.interleave import InterleaveScheduler

            sched = InterleaveScheduler(seed=0)
            return await sched.run(lambda: scenario_factory(sched))

        t_timeout, r2, snap = asyncio.run(main())
        assert t_timeout == 0.5  # virtual deadline, not wall time
        assert calls["n"] == 1  # quarantined after the first failure
        assert r2.solver == "Capellini-TwoPhase"
        assert r2.fallback_from == "Capellini"
        np.testing.assert_allclose(r2.x, system.x_true, rtol=1e-9)
        assert snap["quarantined"] == {r2.matrix: ["Capellini"]}
        req = snap["requests"]
        assert req["total"] == 2
        assert req["timed_out"] == 1
        assert req["completed"] == 1
        assert req["failed"] == 0  # late publishes never double-count

    def test_ladder_exhaustion_after_timeout_keeps_counters(
        self, monkeypatch
    ):
        """A request that times out and *then* fails on the worker is
        counted once (timed_out), not twice."""
        system = make_system(seed=9)

        def explode(self, L, b, device):
            raise injected_hazard()

        monkeypatch.setattr(WritingFirstCapelliniSolver, "_solve", explode)

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    candidates=(WritingFirstCapelliniSolver,),
                    execution="sim",
                    batch_window=0.0,
                    clock=sched.clock,
                    executor=sched.executor(cost=1.0),
                )
                engine.register(system.L, name="m")
                with pytest.raises(RequestTimeoutError):
                    await engine.solve("m", system.b, timeout=0.5)
                await engine.close()
                return engine

            return scenario()

        def counters_consistent(sched, engine):
            t = engine.telemetry
            assert t.requests_total.value == 1
            assert t.requests_timed_out.value == 1
            assert t.requests_failed.value == 0
            assert t.requests_completed.value == 0

        result = run_schedule(
            scenario_factory, seed=0, invariants=[counters_consistent]
        )
        assert not result.failed, result.error


class TestCloseDrain:
    def test_close_waits_for_inflight_work(self):
        """close() racing live requests drains without polling."""
        report = explore(
            SCENARIOS["close-drain"],
            schedules=10,
            seed=0,
            invariants=engine_invariants(),
        )
        assert report.ok, report.summary()

    def test_close_drains_timed_out_pending_group(self):
        """A request that times out before its batch window flushes
        leaves its group pending with depth 0; close() must still
        return once the flush sweeps it (the drain hole the
        event-based rewrite had to cover)."""
        matrix = scenario_matrix()

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    batch_window=5.0,  # flush long after the deadline
                    execution="host",
                    clock=sched.clock,
                    executor=sched.executor(cost=0.1),
                )
                key = engine.register(matrix, name="m")
                b = np.ones(matrix.n_rows)
                with pytest.raises(RequestTimeoutError):
                    await engine.solve(key, b, timeout=0.5)
                await engine.close()  # must not hang
                return engine

            return scenario()

        result = run_schedule(scenario_factory, seed=0)
        assert not result.failed, result.error

    def test_close_without_work_is_immediate(self):
        async def main():
            engine = SolveEngine()
            await engine.close()
            await engine.close()  # idempotent

        asyncio.run(main())


class TestScenarioSuite:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invariants_hold_across_schedules(self, name):
        report = explore(
            SCENARIOS[name],
            schedules=8,
            seed=3,
            invariants=engine_invariants(),
        )
        assert report.ok, report.summary()

    def test_coalesce_scenario_deterministic(self):
        a = run_schedule(SCENARIOS["coalesce"], seed=5)
        b = run_schedule(SCENARIOS["coalesce"], seed=5)
        assert a.trace == b.trace
        assert not a.failed

    def test_trail_invariant_flags_a_second_terminal_event(self):
        from types import SimpleNamespace

        from repro.obs.tracelog import TraceLog

        (trail_ends_once,) = [
            f for f in engine_invariants() if f.__name__ == "trail_ends_once"
        ]
        log = TraceLog()
        log.emit("enqueue", trace_id="t1")
        log.emit("publish", trace_id="t1")
        log.emit("reject", trace_id="t2")  # never admitted: no terminal
        value = {"engine": SimpleNamespace(trace_log=log)}
        trail_ends_once(None, value)
        # a late failure of a timed-out request must add no second end
        log.emit("enqueue", trace_id="t3")
        log.emit("timeout", trace_id="t3")
        log.emit("fail", trace_id="t3")
        with pytest.raises(AssertionError, match="t3"):
            trail_ends_once(None, value)
