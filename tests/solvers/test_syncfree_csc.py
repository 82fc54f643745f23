"""CSC-native SyncFree (Liu et al. formulation) tests."""

import numpy as np

from repro.gpu.device import SIM_SMALL, SIM_TINY
from repro.solvers import (
    SyncFreeCSCSolver,
    SyncFreeSolver,
    WritingFirstCapelliniSolver,
)
from repro.sparse.triangular import lower_triangular_system
from repro.datasets.domains import circuit

from tests.solvers.conftest import assert_solves_exactly


class TestCorrectness:
    def test_zoo_sim_small(self, zoo_system):
        _name, system = zoo_system
        assert_solves_exactly(SyncFreeCSCSolver(), system, SIM_SMALL)

    def test_zoo_tiny_warp3(self, zoo_system):
        _name, system = zoo_system
        assert_solves_exactly(SyncFreeCSCSolver(), system, SIM_TINY)


class TestBaselineFidelity:
    def test_metadata_matches_table2(self):
        s = SyncFreeCSCSolver()
        assert s.storage_format == "CSC"
        assert s.preprocessing_overhead == "low"
        assert s.processing_granularity == "warp"

    def test_preprocessing_charged(self, fig1_system):
        r = SyncFreeCSCSolver().solve(fig1_system.L, fig1_system.b,
                                      device=SIM_SMALL)
        assert r.preprocess.modeled_ms > 0
        assert "CSC" in r.preprocess.description

    def test_same_warp_level_regime_as_csr_rendition(self):
        """Both SyncFree renditions are warp-per-component: on a thin-row
        wide-level matrix, both lose to thread-level Capellini."""
        L = circuit(800, seed=5, avg_nnz_per_row=3.0, rail_prob=0.85)
        system = lower_triangular_system(L)
        t_csc = SyncFreeCSCSolver().solve(system.L, system.b,
                                          device=SIM_SMALL)
        t_csr = SyncFreeSolver().solve(system.L, system.b, device=SIM_SMALL)
        t_cap = WritingFirstCapelliniSolver().solve(system.L, system.b,
                                                    device=SIM_SMALL)
        np.testing.assert_allclose(t_csc.x, system.x_true, rtol=1e-9)
        assert t_cap.exec_ms < t_csc.exec_ms
        assert t_cap.exec_ms < t_csr.exec_ms

    def test_atomic_traffic_present(self, fig1_system):
        """The scatter phase must actually use atomics (write traffic to
        left_sum/counter beyond the x stores)."""
        r = SyncFreeCSCSolver().solve(fig1_system.L, fig1_system.b,
                                      device=SIM_SMALL)
        # 8 x-stores + per-off-diagonal-element (8) one left_sum and one
        # counter update
        assert r.stats.dram_bytes > 0
        assert r.stats.fences >= fig1_system.n
