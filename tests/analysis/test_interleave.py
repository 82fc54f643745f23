"""Deterministic interleaving explorer: clocks, schedules, bug hunting."""

import asyncio

import pytest

from repro.analysis.interleave import (
    DeferredExecutor,
    InterleaveScheduler,
    ScheduleHang,
    VirtualClock,
    explore,
    minimize_schedule,
    run_schedule,
)


def run(coro):
    return asyncio.run(coro)


class TestVirtualClock:
    def test_auto_mode_fast_forwards_deadline_order(self):
        async def main():
            clock = VirtualClock()
            order = []

            async def napper(label, dt):
                await clock.sleep(dt, label=label)
                order.append((label, clock.now()))

            await asyncio.gather(
                napper("late", 5.0), napper("early", 1.0),
                napper("mid", 2.5),
            )
            return order

        order = run(main())
        assert order == [("early", 1.0), ("mid", 2.5), ("late", 5.0)]

    def test_call_later_fires_at_virtual_deadline(self):
        async def main():
            clock = VirtualClock()
            fired = asyncio.get_running_loop().create_future()
            clock.call_later(0.5, fired.set_result, "late", label="deadline")
            assert await fired == "late"
            assert clock.now() == 0.5

        run(main())

    def test_cancelled_call_later_never_fires(self):
        async def main():
            clock = VirtualClock()
            fired = []
            timer = clock.call_later(10.0, fired.append, "deadline")
            await clock.sleep(0.1)
            timer.cancel()
            await clock.sleep(20.0)
            assert fired == []
            assert clock.now() == pytest.approx(20.1)

        run(main())

    def test_call_later_is_a_labelled_schedulable_waiter(self):
        async def main():
            clock = VirtualClock(auto=False)
            fired = []
            timer = clock.call_later(0.0, fired.append, 1, label="flush")
            (due,) = clock.due()
            assert due is timer and timer.label.startswith("flush#")
            clock.fire(due)
            assert fired == [1]
            clock.call_later(0.0, fired.append, 2).cancel()
            assert clock.due() == []

        run(main())

    def test_call_later_runs_in_the_callers_context(self):
        import contextvars

        var = contextvars.ContextVar("var", default="unset")

        async def main():
            clock = VirtualClock(auto=False)
            seen = []
            var.set("caller")
            clock.call_later(0.0, lambda: seen.append(var.get()))
            var.set("scheduler")
            clock.fire(clock.due()[0])
            assert seen == ["caller"]

        run(main())

    def test_cancelled_sleep_leaves_no_waiter(self):
        async def main():
            clock = VirtualClock(auto=False)
            task = asyncio.ensure_future(clock.sleep(1.0))
            await asyncio.sleep(0)
            assert clock.due()
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            assert clock.due() == []

        run(main())


class TestDeferredExecutor:
    def test_work_completes_at_virtual_cost(self):
        async def main():
            clock = VirtualClock()
            pool = DeferredExecutor(clock, cost=2.0)
            loop = asyncio.get_running_loop()
            value = await loop.run_in_executor(pool, lambda: 7 * 6)
            assert value == 42
            assert clock.now() == 2.0

        run(main())

    def test_worker_exceptions_propagate(self):
        async def main():
            clock = VirtualClock()
            pool = DeferredExecutor(clock, cost=0.1)
            loop = asyncio.get_running_loop()

            def boom():
                raise ValueError("worker failed")

            with pytest.raises(ValueError, match="worker failed"):
                await loop.run_in_executor(pool, boom)

        run(main())


class TestScheduler:
    def test_runs_scenario_to_completion(self):
        async def main():
            sched = InterleaveScheduler(seed=0)

            async def scenario():
                await sched.clock.sleep(0.5, label="a")
                await sched.clock.sleep(0.5, label="b")
                return "done"

            return await sched.run(scenario)

        assert run(main()) == "done"

    def test_hang_detected_with_trace(self):
        async def main():
            sched = InterleaveScheduler(seed=0)

            async def scenario():
                fut = asyncio.get_running_loop().create_future()
                await sched.clock.sleep(0.1, label="warmup")
                await fut  # nobody ever resolves this

            with pytest.raises(ScheduleHang) as err:
                await sched.run(scenario)
            return err.value

        hang = run(main())
        assert "lost wakeup" in str(hang)
        assert "fire=warmup" in hang.trace

    def test_preset_choices_are_obeyed(self):
        async def main(choices):
            sched = InterleaveScheduler(seed=None, choices=choices)
            order = []

            async def napper(label):
                await sched.clock.sleep(1.0, label=label)
                order.append(label)

            async def scenario():
                await asyncio.gather(napper("first"), napper("second"))

            await sched.run(scenario)
            return order, sched.decisions

        order, decisions = run(main([1]))
        assert order[0] == "second"
        assert decisions[0] == (1, 2)
        order, decisions = run(main([0]))
        assert order[0] == "first"


# ---------------------------------------------------------------------------
# the planted concurrency bug (acceptance regression)
# ---------------------------------------------------------------------------


def lost_wakeup_scenario(sched):
    """A toy engine with a seeded lost-wakeup race.

    Two workers race to claim publication of one future at the same
    virtual instant.  The claim-then-fail worker takes ownership and
    then bails on its failure path *without resolving the future* —
    the exact bug class serve-lint SL003 flags statically.  Only
    schedules where the faulty worker's sleep fires first hit the bug;
    the default schedule (creation order) is healthy.
    """

    async def scenario():
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        state = {"claimed": False}

        async def worker(label, fail):
            await sched.clock.sleep(0.5, label=label)
            if state["claimed"]:
                return
            state["claimed"] = True
            await sched.clock.sleep(0.1, label=label + "-work")
            if fail:
                return  # BUG: claimed publication, then dropped it
            if not fut.done():
                fut.set_result("solved")

        good = asyncio.ensure_future(worker("good", fail=False))
        bad = asyncio.ensure_future(worker("bad", fail=True))
        value = await fut
        await asyncio.gather(good, bad)
        return value

    return scenario()


class TestPlantedLostWakeup:
    def test_default_schedule_is_healthy(self):
        result = run_schedule(lost_wakeup_scenario, seed=None)
        assert not result.failed

    def test_random_exploration_finds_the_bug(self):
        report = explore(lost_wakeup_scenario, schedules=20, seed=0)
        assert not report.ok
        assert any(f.hung for f in report.failures)
        assert report.minimal_choices is not None

    def test_systematic_exploration_finds_the_bug(self):
        report = explore(
            lost_wakeup_scenario, schedules=20, mode="systematic"
        )
        assert not report.ok

    def test_minimal_schedule_is_the_single_bad_choice(self):
        report = explore(lost_wakeup_scenario, schedules=20, seed=0)
        # shrinking strips every decision except "fire the faulty
        # worker before the good one" at the first branch point
        assert report.minimal_choices == (1,)
        assert "fire=bad" in report.minimal_trace

    def test_minimal_schedule_replays_byte_identical(self):
        report = explore(lost_wakeup_scenario, schedules=20, seed=0)
        replays = [
            run_schedule(
                lost_wakeup_scenario, seed=None,
                choices=report.minimal_choices,
            )
            for _ in range(2)
        ]
        assert all(r.failed and r.hung for r in replays)
        assert replays[0].trace == replays[1].trace
        assert replays[0].trace == report.minimal_trace

    def test_same_seed_same_schedule_trace(self):
        a = run_schedule(lost_wakeup_scenario, seed=11)
        b = run_schedule(lost_wakeup_scenario, seed=11)
        assert a.trace == b.trace
        assert a.decisions == b.decisions
        assert a.failed == b.failed


class TestMinimize:
    def test_schedule_independent_failure_shrinks_to_empty(self):
        def always_fails(sched):
            async def scenario():
                await sched.clock.sleep(0.1, label="tick")
                raise AssertionError("fails on every schedule")

            return scenario()

        failing = run_schedule(always_fails, seed=5)
        assert failing.failed
        minimal = minimize_schedule(always_fails, failing)
        assert minimal.failed
        assert minimal.choices == ()


class TestExploreAPI:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            explore(lost_wakeup_scenario, mode="bogus")

    def test_report_summary_mentions_minimal_schedule(self):
        report = explore(lost_wakeup_scenario, schedules=20, seed=0)
        text = report.summary()
        assert "FAILED" in text
        assert "minimal reproducing schedule" in text
