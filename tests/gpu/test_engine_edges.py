"""Engine edge cases: multi-launch, counters across launches, tiny grids."""

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import ALU
from repro.gpu.simt import SIMTEngine

DEV = DeviceSpec(
    name="Edge", sm_count=1, warp_size=4, max_resident_warps=2,
    issue_width=1, clock_ghz=1.0, dram_latency_cycles=0,
)


class TestMultiLaunch:
    def test_memory_persists_across_launches(self):
        eng = SIMTEngine(DEV)
        eng.memory.alloc("acc", np.zeros(4))

        def bump(ctx):
            i = ctx.global_id
            v = ctx.load("acc", i)
            yield ALU
            ctx.store("acc", i, v + 1)
            yield ALU

        eng.launch(bump, 4)
        eng.launch(bump, 4)
        assert eng.memory.array("acc").tolist() == [2.0] * 4

    def test_stats_are_per_launch_deltas(self):
        eng = SIMTEngine(DEV)
        eng.memory.alloc("a", np.arange(4.0))

        def loader(ctx):
            ctx.load("a", ctx.global_id)
            yield ALU

        s1 = eng.launch(loader, 4)
        s2 = eng.launch(loader, 4)
        # second launch's traffic must not include the first's
        assert s2.dram_bytes <= s1.dram_bytes
        assert s1.dram_bytes > 0

    def test_launch_sequence_of_different_kernels(self):
        eng = SIMTEngine(DEV)
        eng.memory.alloc("x", np.zeros(4))

        def writer(ctx):
            ctx.store("x", ctx.global_id, float(ctx.global_id))
            yield ALU

        def doubler(ctx):
            v = ctx.load("x", ctx.global_id)
            yield ALU
            ctx.store("x", ctx.global_id, 2 * v)
            yield ALU

        eng.launch(writer, 4)
        eng.launch(doubler, 4)
        assert eng.memory.array("x").tolist() == [0.0, 2.0, 4.0, 6.0]


class TestGridShapes:
    def test_single_thread_grid(self):
        eng = SIMTEngine(DEV)
        eng.memory.alloc("out", np.zeros(1))

        def kern(ctx):
            ctx.store("out", 0, 9.0)
            yield ALU

        stats = eng.launch(kern, 1)
        assert stats.warps_launched == 1
        assert eng.memory.array("out")[0] == 9.0

    def test_grid_much_larger_than_residency(self):
        # 2 resident warps, 40 warps of work: admission must cycle
        eng = SIMTEngine(DEV)
        n = 160
        eng.memory.alloc("out", np.zeros(n))

        def kern(ctx):
            ctx.store("out", ctx.global_id, 1.0)
            yield ALU

        stats = eng.launch(kern, n)
        assert stats.warps_launched == 40
        assert np.all(eng.memory.array("out") == 1.0)

    def test_all_lanes_early_return(self):
        eng = SIMTEngine(DEV)

        def kern(ctx):
            return
            yield ALU  # pragma: no cover - unreachable

        stats = eng.launch(kern, 8)
        assert stats.warps_launched == 2
