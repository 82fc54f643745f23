"""Host-lane wall-clock profiler tests.

The contract under test: attaching a :class:`HostProfiler` through the
ambient ``profiling()`` context makes every ``CompiledPlan`` solve
record a launch profile whose gather/reduce/scatter attribution adds up,
without changing a single bit of the answer — and without being mistaken
for the simulator's cycle profiler by either side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.suite import generate
from repro.obs import (
    HOST_PHASES,
    HostLaunchProfile,
    HostLevelSample,
    HostProfiler,
    Profiler,
    active_host_profiler,
    host_phase_digest,
    profiling,
)
from repro.solvers.compiled import COMPILED_SCHEDULES, build_compiled_plan
from repro.sparse.triangular import lower_triangular_system


def make_plan(n=200, seed=3, domain="circuit"):
    system = lower_triangular_system(generate(domain, n, seed))
    plan = build_compiled_plan(system.L, schedule="level")
    return system, plan


class TestHostProfilerRecording:
    def test_solve_many_records_one_launch(self):
        system, plan = make_plan()
        B = np.column_stack([system.b, 2.0 * system.b])
        prof = HostProfiler()
        with profiling(prof):
            X = plan.solve_many(B)
        assert len(prof.launches) == 1
        launch = prof.launches[0]
        assert launch.n_rows == system.L.n_rows
        assert launch.n_rhs == 2
        assert launch.n_levels == plan.n_levels
        assert len(launch.levels) == plan.n_levels
        assert launch.wall_s > 0
        # off-diagonals + one diagonal divide per row
        assert launch.nnz == system.L.nnz

    def test_profiled_solve_is_bit_identical(self):
        # the profiled executor runs the unprofiled one's operations,
        # on both variants and at every width; a sequential solve is
        # one csr_matvec call, recorded as one launch of one step
        system, _ = make_plan(n=300, seed=9)
        for schedule in COMPILED_SCHEDULES:
            plan = build_compiled_plan(system.L, schedule=schedule)
            for k in (1, 2, 4, 8):
                B = np.column_stack(
                    [(r + 1.0) * system.b for r in range(k)]
                )
                plain = plan.solve_many(B)
                prof = HostProfiler()
                with profiling(prof):
                    profiled = plan.solve_many(B)
                assert np.array_equal(plain, profiled)
                assert len(prof.launches) == 1
                if schedule == "sequential":
                    assert len(prof.launches[0].levels) == 1
                    assert prof.launches[0].nnz == system.L.nnz

    def test_phase_seconds_add_up_to_wall(self):
        system, plan = make_plan()
        prof = HostProfiler()
        with profiling(prof):
            plan.solve_many(system.b.reshape(-1, 1))
        launch = prof.launches[0]
        seconds = launch.phase_seconds()
        assert set(seconds) == set(HOST_PHASES)
        assert all(v >= 0.0 for v in seconds.values())
        assert sum(seconds.values()) == pytest.approx(launch.wall_s)
        fractions = launch.phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_per_level_rows_cover_matrix(self):
        system, plan = make_plan()
        prof = HostProfiler()
        with profiling(prof):
            plan.solve_many(system.b.reshape(-1, 1))
        launch = prof.launches[0]
        assert sum(s.rows for s in launch.levels) == system.L.n_rows
        assert sum(s.nnz for s in launch.levels) == launch.nnz

    def test_multiple_solves_accumulate(self):
        system, plan = make_plan(n=120)
        prof = HostProfiler()
        with profiling(prof):
            plan.solve_many(system.b.reshape(-1, 1))
            plan.solve_many(system.b.reshape(-1, 1))
        assert len(prof.launches) == 2
        assert prof.wall_s == pytest.approx(
            sum(l.wall_s for l in prof.launches)
        )
        prof.reset()
        assert prof.launches == []

    def test_no_recording_without_context(self):
        system, plan = make_plan(n=100)
        prof = HostProfiler()
        plan.solve_many(system.b.reshape(-1, 1))  # detached
        assert prof.launches == []


class TestKindDiscrimination:
    def test_active_host_profiler_ignores_sim_profiler(self):
        with profiling(Profiler()):
            assert active_host_profiler() is None

    def test_active_host_profiler_finds_host_profiler(self):
        prof = HostProfiler()
        with profiling(prof):
            assert active_host_profiler() is prof
        assert active_host_profiler() is None

    def test_sim_engines_ignore_host_profiler(self):
        from repro.gpu.device import SIM_TINY
        from repro.solvers._sim import instrumentation_active, make_engine

        with profiling(HostProfiler()):
            assert not instrumentation_active()
            assert make_engine(SIM_TINY).profiler is None
        with profiling(Profiler()):
            assert instrumentation_active()

    def test_host_executor_ignores_sim_profiler(self):
        system, plan = make_plan(n=100)
        sim_prof = Profiler()
        with profiling(sim_prof):
            plan.solve_many(system.b.reshape(-1, 1))
        # nothing recorded on either side: no simulated launch ran, and
        # the host executor must not feed a cycle profiler
        assert sim_prof.launches == []


class TestDigest:
    def test_digest_shape(self):
        system, plan = make_plan()
        prof = HostProfiler()
        with profiling(prof):
            plan.solve_many(system.b.reshape(-1, 1))
        digest = prof.digest(solver_name="CompiledFused")
        assert digest["solver"] == "CompiledFused"
        assert digest["lane"] == "host"
        assert digest["launches"] == 1
        assert digest["wall_ms"] > 0
        assert set(digest["phases"]) == set(HOST_PHASES)
        assert sum(digest["phases"].values()) == pytest.approx(1.0, abs=1e-3)

    def test_empty_digest(self):
        digest = host_phase_digest(())
        assert digest["launches"] == 0
        assert digest["wall_ms"] == 0.0
        assert all(v == 0.0 for v in digest["phases"].values())

    def test_level_sample_throughput(self):
        s = HostLevelSample(
            level=0, rows=10, nnz=30,
            gather_s=0.5, reduce_s=0.3, scatter_s=0.2,
        )
        assert s.busy_s == pytest.approx(1.0)
        assert s.rows_per_s == pytest.approx(10.0)
        assert s.nnz_per_s == pytest.approx(30.0)
        empty = HostLevelSample(
            level=1, rows=0, nnz=0,
            gather_s=0.0, reduce_s=0.0, scatter_s=0.0,
        )
        assert empty.rows_per_s == 0.0

    def test_launch_throughput(self):
        launch = HostLaunchProfile(
            n_rows=100, n_rhs=4, n_levels=1, nnz=300, wall_s=2.0,
            levels=(),
        )
        t = launch.throughput()
        assert t["rows_per_s"] == pytest.approx(200.0)
        assert t["nnz_per_s"] == pytest.approx(600.0)
