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
from repro.errors import HazardError, RequestTimeoutError, SolverError
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
        log.emit("enqueue", {"trace_id": "t1"})
        log.emit("publish", {"trace_id": "t1"})
        log.emit("reject", {"trace_id": "t2"})  # never admitted: no terminal
        value = {"engine": SimpleNamespace(trace_log=log)}
        trail_ends_once(None, value)
        # a late failure of a timed-out request must add no second end
        log.emit("enqueue", {"trace_id": "t3"})
        log.emit("timeout", {"trace_id": "t3"})
        log.emit("fail", {"trace_id": "t3"})
        with pytest.raises(AssertionError, match="t3"):
            trail_ends_once(None, value)


def run_armed(scenario_factory):
    """Run ``scenario_factory`` on the default schedule; return its
    value, the labels of the fired waiters and the labels of every
    timer armed on the virtual clock, in order."""
    from repro.analysis.interleave import InterleaveScheduler

    sched = InterleaveScheduler(seed=None)
    armed = []
    arm = sched.clock.call_later

    def recording(delay, callback, *args, label="timer"):
        armed.append(label)
        return arm(delay, callback, *args, label=label)

    sched.clock.call_later = recording
    value = asyncio.run(sched.run(lambda: scenario_factory(sched)))
    fired = [
        line.split("fire=")[1].split("#")[0]
        for line in sched.trace_text().splitlines()
    ]
    return value, fired, armed


class TestTimersAreScheduledEvents:
    def test_deadline_and_flush_are_labelled_waiters(self):
        result = run_schedule(SCENARIOS["timeout"], seed=0)
        assert not result.failed, result.error
        fired = [
            line.split("fire=")[1].split()[0]
            for line in result.trace.splitlines()
        ]
        assert any(label.startswith("flush#") for label in fired)
        assert any(label.startswith("deadline#") for label in fired)

    def test_served_request_leaves_no_live_waiter(self):
        matrix = scenario_matrix()
        seen = {}

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    execution="host",
                    clock=sched.clock,
                    executor=sched.executor(cost=0.1),
                )
                key = engine.register(matrix, name="m")
                await engine.solve(key, np.ones(matrix.n_rows), timeout=5.0)
                seen["due"] = sched.clock.due()
                await engine.close()

            return scenario()

        result = run_schedule(scenario_factory, seed=0)
        assert not result.failed, result.error
        # the flush and the worker fired; the deadline was withdrawn
        assert [ln.split("fire=")[1].split()[0].split("#")[0]
                for ln in result.trace.splitlines()] == ["flush", "worker"]
        assert seen["due"] == []

    def test_windowed_request_arms_its_deadline_at_admission(self):
        """A request whose group waits for a batch window arms its
        deadline at admission: it fires inside the window, and the
        flush that hands the group to the pool arms no second one."""
        matrix = scenario_matrix()

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    batch_window=5.0,
                    execution="host",
                    clock=sched.clock,
                    executor=sched.executor(cost=1.0),
                )
                key = engine.register(matrix, name="m")
                with pytest.raises(RequestTimeoutError):
                    await engine.solve(key, np.ones(matrix.n_rows),
                                       timeout=0.5)
                at = sched.clock.now()
                await engine.close()
                return at

            return scenario()

        at, fired, armed = run_armed(scenario_factory)
        assert at == 0.5
        assert armed == ["deadline", "flush"]
        assert fired == ["deadline", "flush"]

    def test_inline_request_arms_no_deadline_waiter(self):
        """A warm idle engine serves a block inline, where a deadline
        timer could not fire before the late-result check: no deadline
        waiter is armed, and a block that overruns still ends its
        request in one timeout."""
        matrix = scenario_matrix()

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    execution="host",
                    clock=sched.clock,
                    executor=sched.executor(cost=1.0, inline=True),
                )
                key = engine.register(matrix, name="m")
                engine.registry.plan(key)  # warm: served inline
                b = np.ones(matrix.n_rows)
                served = await engine.solve(key, b, timeout=5.0)
                with pytest.raises(RequestTimeoutError):
                    await engine.solve(key, b, timeout=0.5)
                at = sched.clock.now()
                await engine.close()
                return engine, served, at

            return scenario()

        (engine, served, at), fired, armed = run_armed(scenario_factory)
        assert served.dispatch == "inline"
        assert at == 2.0  # the late result, read after the second block
        assert armed == fired == ["flush", "flush"]
        assert len(engine.trace_log.events(kind="timeout")) == 1
        assert len(engine.trace_log.events(kind="publish")) == 1

    def test_pool_leg_arms_the_time_left(self, monkeypatch):
        """A pool-bound request arms its deadline at dispatch, for the
        time left: after an inline host step that fails at t=0.3, the
        pool leg's timer fires at the admission deadline 0.5, not at
        0.8 and not when the worker lands at 0.6."""
        from repro.solvers.compiled import CompiledPlan

        def broken(self, B, **kw):
            raise SolverError("injected for test")

        monkeypatch.setattr(CompiledPlan, "solve_many", broken)
        matrix = scenario_matrix()

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    clock=sched.clock,
                    executor=sched.executor(cost=0.3, inline=True),
                )
                key = engine.register(matrix, name="m")
                engine.registry.plan(key)  # warm: served inline
                with pytest.raises(RequestTimeoutError):
                    await engine.solve(key, np.ones(matrix.n_rows),
                                       timeout=0.5)
                at = sched.clock.now()
                await engine.close()
                return engine, at

            return scenario()

        (engine, at), fired, armed = run_armed(scenario_factory)
        assert at == 0.5
        assert armed == ["flush", "deadline"]
        assert fired == ["flush", "deadline"]  # before the worker
        (failure,) = engine.trace_log.events(kind="kernel-failure")
        assert failure["lane"] == "host"

    def test_full_group_timer_leaves_the_next_group_its_window(self):
        """A group that reached ``max_batch`` was dispatched without its
        flush timer; when that timer fires it must not flush the group
        that formed after it, whose own window ends later."""
        matrix = scenario_matrix()

        def scenario_factory(sched):
            async def scenario():
                engine = SolveEngine(
                    batch_window=1.0,
                    max_batch=2,
                    execution="host",
                    clock=sched.clock,
                    executor=sched.executor(cost=0.0),
                )
                key = engine.register(matrix, name="m")
                b = np.ones(matrix.n_rows)

                async def third():
                    await sched.clock.sleep(0.5)
                    resp = await engine.solve(key, b)
                    return sched.clock.now(), resp.batch_width

                *_, late = await asyncio.gather(
                    engine.solve(key, b), engine.solve(key, b), third()
                )
                await engine.close()
                return late

            return scenario()

        async def main():
            from repro.analysis.interleave import InterleaveScheduler

            sched = InterleaveScheduler(seed=None)
            return await sched.run(lambda: scenario_factory(sched))

        assert asyncio.run(main()) == (1.5, 1)
