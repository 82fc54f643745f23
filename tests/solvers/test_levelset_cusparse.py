"""LevelSet and cuSPARSE-proxy specific behaviour."""

from repro.gpu.device import SIM_SMALL
from repro.solvers import CuSparseProxySolver, LevelSetSolver
from repro.perfmodel.calibration import Calibration
from repro.datasets.synthetic import chain, diagonal
from repro.sparse.triangular import lower_triangular_system


class TestLevelSet:
    def test_preprocessing_charged(self, fig1_system):
        r = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                   device=SIM_SMALL)
        assert r.preprocess.modeled_ms > 0
        assert r.preprocess.host_seconds > 0
        assert "level-set" in r.preprocess.description

    def test_sync_cost_scales_with_levels(self):
        deep = lower_triangular_system(chain(60))
        flat = lower_triangular_system(diagonal(60))
        r_deep = LevelSetSolver().solve(deep.L, deep.b, device=SIM_SMALL)
        r_flat = LevelSetSolver().solve(flat.L, flat.b, device=SIM_SMALL)
        assert r_deep.extra["n_levels"] == 60
        assert r_flat.extra["n_levels"] == 1
        assert r_deep.exec_ms > r_flat.exec_ms * 10

    def test_no_flag_traffic(self, fig1_system):
        r = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                   device=SIM_SMALL)
        assert r.stats.flag_polls == 0

    def test_custom_calibration(self, fig1_system):
        cal = Calibration(levelset_sync_cycles=0.0)
        r0 = LevelSetSolver(calibration=cal).solve(
            fig1_system.L, fig1_system.b, device=SIM_SMALL
        )
        r1 = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                    device=SIM_SMALL)
        assert r0.exec_ms < r1.exec_ms

    def test_synchronization_counted_as_stall_and_instructions(
        self, fig1_system
    ):
        cal0 = Calibration(levelset_sync_cycles=0.0)
        r0 = LevelSetSolver(calibration=cal0).solve(
            fig1_system.L, fig1_system.b, device=SIM_SMALL
        )
        r1 = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                    device=SIM_SMALL)
        assert r1.stats.stall_cycles > r0.stats.stall_cycles
        assert r1.stats.total_instructions > r0.stats.total_instructions


class TestCuSparseProxy:
    def test_analysis_cheaper_than_levelset(self, fig1_system):
        lv = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                    device=SIM_SMALL)
        cu = CuSparseProxySolver().solve(fig1_system.L, fig1_system.b,
                                         device=SIM_SMALL)
        # Table 1's headline contrast at matched structure
        assert cu.preprocess.modeled_ms < lv.preprocess.modeled_ms

    def test_table2_metadata(self):
        s = CuSparseProxySolver()
        assert s.storage_format == "CSR"
        assert s.preprocessing_overhead == "low"
        assert s.processing_granularity == "unknown"

    def test_higher_sync_cost_than_levelset_execution(self, fig1_system):
        lv = LevelSetSolver().solve(fig1_system.L, fig1_system.b,
                                    device=SIM_SMALL)
        cu = CuSparseProxySolver().solve(fig1_system.L, fig1_system.b,
                                         device=SIM_SMALL)
        assert cu.exec_ms > lv.exec_ms
