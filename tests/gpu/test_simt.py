"""SIMT engine tests: lock-step semantics, scheduling, deadlock.

These pin down exactly the execution properties the paper's arguments
rest on (see DESIGN.md): lock-step lane advancement, warp-wide blocking
on busy-waits, productive polling, the warp barrier, grid-order
admission under bounded residency, DRAM-latency parking, and deadlock
detection for intra-warp busy-wait dependencies (Challenge 1).
"""

import numpy as np
import pytest

from repro.errors import DeadlockError, LaunchConfigError, SimulationError
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import ALU, WARP_SYNC, Poll, SpinWait
from repro.gpu.simt import SIMTEngine

NO_LATENCY = DeviceSpec(
    name="NoLat", sm_count=2, warp_size=4, max_resident_warps=2,
    issue_width=1, clock_ghz=1.0, dram_latency_cycles=0,
)


def make_engine(device=NO_LATENCY, **kw):
    return SIMTEngine(device, **kw)


class TestBasicExecution:
    def test_square_kernel(self):
        eng = make_engine()
        n = 13  # not a multiple of warp size
        eng.memory.alloc("in", np.arange(n, dtype=np.float64))
        eng.memory.alloc("out", np.zeros(n))

        def kern(ctx):
            i = ctx.global_id
            v = ctx.load("in", i)
            yield ALU
            ctx.store("out", i, v * v)
            yield ALU

        stats = eng.launch(kern, n)
        assert np.array_equal(eng.memory.array("out"), np.arange(n) ** 2.0)
        assert stats.warps_launched == 4  # ceil(13/4)

    def test_thread_ids(self):
        eng = make_engine()
        n = 8
        eng.memory.alloc("gid", np.zeros(n))
        eng.memory.alloc("wid", np.zeros(n))
        eng.memory.alloc("lid", np.zeros(n))

        def kern(ctx):
            ctx.store("gid", ctx.global_id, ctx.global_id)
            ctx.store("wid", ctx.global_id, ctx.warp_id)
            ctx.store("lid", ctx.global_id, ctx.lane_id)
            yield ALU

        eng.launch(kern, n)
        assert eng.memory.array("gid").tolist() == list(range(8))
        assert eng.memory.array("wid").tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert eng.memory.array("lid").tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_zero_threads_rejected(self):
        with pytest.raises(LaunchConfigError):
            make_engine().launch(lambda ctx: iter(()), 0)

    def test_unknown_instruction_rejected(self):
        eng = make_engine()

        def kern(ctx):
            yield "bogus"

        with pytest.raises(SimulationError, match="unknown instruction"):
            eng.launch(kern, 1)

    def test_immediate_return_lane(self):
        eng = make_engine()
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            if ctx.global_id != 0:
                return
            ctx.store("out", 0, 1.0)
            yield ALU

        eng.launch(kern, 4)
        assert eng.memory.array("out")[0] == 1.0


class TestSpinWait:
    def test_cross_warp_producer_consumer(self):
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)
        eng.memory.alloc("val", np.zeros(2))

        def kern(ctx):
            i = ctx.global_id
            if i == 0:  # consumer, warp 0
                yield SpinWait("flag", 0, 1)
                v = ctx.load("val", 0)
                yield ALU
                ctx.store("val", 1, v + 1)
                yield ALU
            elif i == 4:  # producer, warp 1
                for _ in range(6):
                    yield ALU
                ctx.store("val", 0, 41.0)
                ctx.threadfence()
                yield ALU
                ctx.store("flag", 0, 1)
                yield ALU

        stats = eng.launch(kern, 8)
        assert eng.memory.array("val")[1] == 42.0
        assert stats.spin_instructions > 0
        assert stats.stall_cycles > 0

    def test_already_satisfied_spin_does_not_block(self):
        eng = make_engine()
        eng.memory.alloc("flag", np.ones(1, dtype=np.int8), flags=True)
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            yield SpinWait("flag", 0, 1)
            ctx.store("out", 0, 1.0)
            yield ALU

        stats = eng.launch(kern, 1)
        assert eng.memory.array("out")[0] == 1.0
        assert stats.spin_instructions == 0

    def test_spin_blocks_whole_warp(self):
        """Lock-step: while one lane spins, its warp-mates do not advance.

        Lane 1 spins on a flag only lane 0 of the same warp would set —
        but lane 0 cannot run while the warp is blocked: deadlock.
        """
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)

        def kern(ctx):
            if ctx.global_id == 0:
                yield ALU
                ctx.store("flag", 0, 1)
                yield ALU
            elif ctx.global_id == 1:
                yield SpinWait("flag", 0, 1)

        with pytest.raises(DeadlockError) as exc_info:
            eng.launch(kern, 4)
        assert exc_info.value.blocked_warps == (0,)

    def test_wake_hint_revalidates_expected_value(self):
        """A store of a non-matching value must not unblock the spin."""
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            i = ctx.global_id
            if i == 0:
                yield SpinWait("flag", 0, 2)
                ctx.store("out", 0, 1.0)
                yield ALU
            elif i == 4:
                ctx.store("flag", 0, 1)  # wrong value: no wake
                yield ALU
                ctx.store("flag", 0, 2)  # correct value
                yield ALU

        eng.launch(kern, 8)
        assert eng.memory.array("out")[0] == 1.0


class TestPoll:
    def test_poll_does_not_block_warp_mates(self):
        """Productive polling: lane 1 polls while lane 0 (same warp!)
        produces the flag — this must complete, unlike the SpinWait case."""
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            if ctx.global_id == 0:
                yield ALU
                yield ALU
                ctx.store("flag", 0, 1)
                yield ALU
            elif ctx.global_id == 1:
                yield Poll("flag", 0, 1)
                ctx.store("out", 0, 7.0)
                yield ALU

        eng.launch(kern, 4)
        assert eng.memory.array("out")[0] == 7.0

    def test_all_lanes_polling_sleeps_and_wakes(self):
        """A warp whose live lanes all fail their polls sleeps; a store to
        any watched flag wakes it; slept cycles become spin instructions."""
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(4, dtype=np.int8), flags=True)
        eng.memory.alloc("out", np.zeros(4))

        def kern(ctx):
            i = ctx.global_id
            if i < 4:  # warp 0: all poll
                yield Poll("flag", i, 1)
                ctx.store("out", i, 1.0)
                yield ALU
            else:  # warp 1: slow producer for all flags
                if ctx.lane_id == 0:
                    for _ in range(20):
                        yield ALU
                    for k in range(4):
                        ctx.store("flag", k, 1)
                        yield ALU

        stats = eng.launch(kern, 8)
        assert np.all(eng.memory.array("out") == 1.0)
        assert stats.spin_instructions > 0

    def test_poll_already_satisfied(self):
        eng = make_engine()
        eng.memory.alloc("flag", np.ones(1, dtype=np.int8), flags=True)
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            yield Poll("flag", 0, 1)
            ctx.store("out", 0, 2.0)
            yield ALU

        eng.launch(kern, 1)
        assert eng.memory.array("out")[0] == 2.0


class TestWarpSync:
    def test_barrier_orders_shared_memory(self):
        """Without WARP_SYNC this reduction would read unwritten slots."""
        eng = make_engine()
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            lane = ctx.lane_id
            # lanes do different amounts of pre-work (divergence)
            for _ in range(lane * 3):
                yield ALU
            ctx.shared_write(lane, float(lane + 1))
            yield WARP_SYNC
            if lane == 0:
                total = sum(ctx.shared_read(k) for k in range(4))
                ctx.store("out", 0, total)
                yield ALU

        eng.launch(kern, 4, shared_per_warp=4)
        assert eng.memory.array("out")[0] == 10.0  # 1+2+3+4

    def test_done_lanes_do_not_block_barrier(self):
        eng = make_engine()
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            if ctx.lane_id >= 2:
                return  # exits immediately
            yield WARP_SYNC
            if ctx.lane_id == 0:
                ctx.store("out", 0, 5.0)
                yield ALU

        eng.launch(kern, 4)
        assert eng.memory.array("out")[0] == 5.0


class TestScheduling:
    def test_residency_bounds_admission(self):
        """With 1 SM x 1 resident warp, warps run strictly one at a time,
        and admission is in grid order."""
        dev = DeviceSpec(
            name="OneSlot", sm_count=1, warp_size=2, max_resident_warps=1,
            issue_width=1, clock_ghz=1.0, dram_latency_cycles=0,
        )
        eng = SIMTEngine(dev)
        eng.memory.alloc("order", np.zeros(6))
        eng.memory.alloc("clock", np.zeros(1))

        def kern(ctx):
            if ctx.lane_id == 0:
                t = ctx.load("clock", 0)
                ctx.store("clock", 0, t + 1)
                ctx.store("order", ctx.warp_id, t)
            yield ALU

        eng.launch(kern, 12)
        # completion order equals warp id order
        assert eng.memory.array("order").tolist() == [0, 1, 2, 3, 4, 5]

    def test_issue_width_contention_counts_stalls(self):
        dev = DeviceSpec(
            name="Narrow", sm_count=1, warp_size=1, max_resident_warps=8,
            issue_width=1, clock_ghz=1.0, dram_latency_cycles=0,
        )
        eng = SIMTEngine(dev)

        def kern(ctx):
            for _ in range(4):
                yield ALU

        stats = eng.launch(kern, 8)
        assert stats.stall_cycles > 0

    def test_dram_latency_parks_warps(self):
        lat = DeviceSpec(
            name="Lat", sm_count=1, warp_size=2, max_resident_warps=2,
            issue_width=1, clock_ghz=1.0, dram_latency_cycles=50,
        )
        eng = SIMTEngine(lat)
        eng.memory.alloc("a", np.arange(4.0))

        def kern(ctx):
            ctx.load("a", ctx.global_id)
            yield ALU
            yield ALU

        stats = eng.launch(kern, 4)
        assert stats.mem_stall_cycles >= 50
        assert stats.cycles > 50  # the park is on the critical path

    def test_alu_only_kernel_has_no_mem_stalls(self):
        eng = make_engine()

        def kern(ctx):
            yield ALU
            yield ALU

        stats = eng.launch(kern, 4)
        assert stats.mem_stall_cycles == 0


class TestCounters:
    def test_lane_utilization_full_warp(self):
        eng = make_engine()

        def kern(ctx):
            yield ALU

        stats = eng.launch(kern, 4)  # warp size 4, fully populated
        assert stats.lane_utilization == 1.0

    def test_idle_lanes_counted(self):
        eng = make_engine()

        def kern(ctx):
            if ctx.lane_id == 0:
                yield ALU
                yield ALU
                yield ALU

        stats = eng.launch(kern, 4)
        assert stats.idle_lane_slots > 0
        assert stats.lane_utilization < 1.0

    def test_fences_counted(self):
        eng = make_engine()

        def kern(ctx):
            ctx.threadfence()
            yield ALU

        stats = eng.launch(kern, 4)
        assert stats.fences == 4

    def test_stats_merge(self):
        eng = make_engine()

        def kern(ctx):
            yield ALU

        s1 = eng.launch(kern, 4)
        s2 = eng.launch(kern, 4)
        merged = s1.merged_with(s2)
        assert merged.cycles == s1.cycles + s2.cycles
        assert merged.warp_instructions == (
            s1.warp_instructions + s2.warp_instructions
        )

    def test_stall_fraction_range(self):
        eng = make_engine()

        def kern(ctx):
            yield ALU

        stats = eng.launch(kern, 4)
        assert 0.0 <= stats.stall_fraction <= 1.0


class TestSafetyLimits:
    def test_livelock_hits_max_cycles(self):
        eng = make_engine(max_cycles=500)
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)

        def kern(ctx):
            while True:  # polls forever; flag never stored
                f = ctx.load("flag", 0)
                yield ALU
                if f == 1:
                    break

        with pytest.raises(SimulationError, match="max_cycles"):
            eng.launch(kern, 1)

    def test_deadlock_error_reports_cycle(self):
        eng = make_engine()
        eng.memory.alloc("flag", np.zeros(1, dtype=np.int8), flags=True)

        def kern(ctx):
            yield SpinWait("flag", 0, 1)

        with pytest.raises(DeadlockError) as exc_info:
            eng.launch(kern, 1)
        assert exc_info.value.cycle is not None
