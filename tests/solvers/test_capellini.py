"""Capellini-specific behaviour (Algorithms 4 and 5)."""

import pytest

from repro.gpu.device import DeviceSpec, SIM_SMALL, SIM_TINY
from repro.solvers import (
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.sparse.triangular import lower_triangular_system
from repro.datasets.synthetic import chain

from tests.solvers.conftest import assert_solves_exactly


class TestNoPreprocessing:
    @pytest.mark.parametrize(
        "solver_cls", [TwoPhaseCapelliniSolver, WritingFirstCapelliniSolver]
    )
    def test_preprocessing_is_none(self, solver_cls, fig1_system):
        r = solver_cls().solve(fig1_system.L, fig1_system.b, device=SIM_SMALL)
        assert r.preprocess.modeled_ms == 0.0
        assert "none" in r.preprocess.description

    def test_table2_metadata(self):
        s = WritingFirstCapelliniSolver()
        assert s.storage_format == "CSR"
        assert s.preprocessing_overhead == "none"
        assert not s.requires_synchronization
        assert s.processing_granularity == "thread"


class TestIntraWarpDependencies:
    """The scenarios Challenge 1 / the two-phase design are about."""

    def test_full_chain_inside_one_warp(self):
        # every row depends on its predecessor: maximal intra-warp coupling
        L = chain(32)
        system = lower_triangular_system(L)
        for solver_cls in (TwoPhaseCapelliniSolver,
                           WritingFirstCapelliniSolver):
            assert_solves_exactly(solver_cls(), system, SIM_SMALL)

    def test_dependency_on_immediately_previous_lane(self):
        # warp of 3 (SIM_TINY): rows 1 and 2 depend on the previous lane
        L = chain(9)
        system = lower_triangular_system(L)
        assert_solves_exactly(WritingFirstCapelliniSolver(), system, SIM_TINY)
        assert_solves_exactly(TwoPhaseCapelliniSolver(), system, SIM_TINY)

    def test_two_phase_bound_never_exceeded(self):
        """Algorithm 4's WARP_SIZE outer bound must always suffice — on a
        matrix engineered so every lane depends on every earlier lane of
        its warp (the worst case for the bound)."""
        n = 64
        entries = {}
        for i in range(n):
            entries[(i, i)] = 1.0
            warp_begin = (i // 32) * 32
            for j in range(warp_begin, i):
                entries[(i, j)] = 0.01
        from tests.conftest import build_csr

        L = build_csr(entries, n)
        system = lower_triangular_system(L)
        assert_solves_exactly(TwoPhaseCapelliniSolver(), system, SIM_SMALL)


class TestWritingFirstAdvantage:
    """Section 4.3: Writing-First must dominate Two-Phase."""

    def test_faster_on_high_granularity(self):
        from repro.datasets.domains import circuit

        L = circuit(600, seed=3, avg_nnz_per_row=3.5)
        system = lower_triangular_system(L)
        wf = WritingFirstCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        tp = TwoPhaseCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        assert wf.exec_ms < tp.exec_ms
        assert wf.stats.total_instructions < tp.stats.total_instructions

    def test_fewer_instructions_than_syncfree_on_thin_rows(self):
        from repro.datasets.domains import circuit

        L = circuit(600, seed=3, avg_nnz_per_row=3.5)
        system = lower_triangular_system(L)
        wf = WritingFirstCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        sf = SyncFreeSolver().solve(system.L, system.b, device=SIM_SMALL)
        assert wf.stats.total_instructions < sf.stats.total_instructions
        # stall ordering of Figure 8(b)
        assert wf.stats.stall_fraction < sf.stats.stall_fraction


class TestGridShape:
    def test_grid_rounds_up_to_whole_warps(self, fig1_system):
        r = WritingFirstCapelliniSolver().solve(
            fig1_system.L, fig1_system.b, device=SIM_TINY
        )
        # 8 rows, warp size 3 -> 3 warps
        assert r.stats.warps_launched == 3

    def test_warp_size_one_device(self, fig1_system):
        dev = DeviceSpec(
            name="W1", sm_count=1, warp_size=1, max_resident_warps=4,
            issue_width=2, clock_ghz=1.0, dram_latency_cycles=10,
        )
        for solver_cls in (TwoPhaseCapelliniSolver,
                           WritingFirstCapelliniSolver):
            assert_solves_exactly(solver_cls(), fig1_system, dev)
