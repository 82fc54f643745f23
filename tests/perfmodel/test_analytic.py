"""Analytic performance model tests.

The model's job is to reproduce the paper's *comparative* claims; these
tests pin the claims down as invariants on synthetic structures whose
regime is known by construction, and check ranking agreement against the
cycle simulator.
"""

import pytest

from repro.analysis.features import extract_features
from repro.datasets.domains import circuit, linear_programming
from repro.datasets.synthetic import banded
from repro.errors import SolverError
from repro.gpu.device import PASCAL_GTX1080, PLATFORMS, SIM_SMALL
from repro.perfmodel.analytic import AlgorithmProfile, AnalyticModel
from repro.perfmodel.calibration import DEFAULT_CALIBRATION


@pytest.fixture(scope="module")
def model():
    return AnalyticModel()


@pytest.fixture(scope="module")
def wide_thin_features():
    """High-granularity regime: wide levels, thin rows (Capellini's home)."""
    return extract_features(circuit(120_000, seed=5, rail_prob=0.85))


@pytest.fixture(scope="module")
def deep_dense_features():
    """Low-granularity regime: dense banded rows, full-depth levels."""
    return extract_features(banded(3_000, bandwidth=28, fill=0.95, seed=5))


class TestEstimates:
    def test_all_algorithms_estimable(self, model, wide_thin_features):
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        assert set(ests) == {
            "Capellini", "Capellini-TwoPhase", "SyncFree", "LevelSet",
            "cuSPARSE",
        }
        for est in ests.values():
            assert est.exec_ms > 0
            assert est.gflops > 0
            assert est.instructions > 0
            assert 0.0 <= est.stall_fraction <= 1.0

    def test_unknown_algorithm(self, model, wide_thin_features):
        with pytest.raises(SolverError):
            model.estimate(wide_thin_features, "nope", PASCAL_GTX1080)

    def test_profile_resolution(self):
        p = AlgorithmProfile.for_algorithm("SyncFree", DEFAULT_CALIBRATION)
        assert not p.thread_level and p.pipelined
        p = AlgorithmProfile.for_algorithm("cuSPARSE", DEFAULT_CALIBRATION)
        assert p.sync_cycles_per_level > 0


class TestPaperClaims:
    def test_capellini_wins_wide_thin(self, model, wide_thin_features):
        """Section 5.2: several-fold speedup on high granularity."""
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        speedup = ests["SyncFree"].exec_ms / ests["Capellini"].exec_ms
        assert speedup > 2.0

    def test_syncfree_wins_deep_dense(self, model, deep_dense_features):
        """Figure 6's SyncFree corner: dense rows, no level parallelism."""
        ests = model.estimate_all(deep_dense_features, PASCAL_GTX1080)
        assert ests["SyncFree"].exec_ms < ests["Capellini"].exec_ms

    def test_capellini_beats_cusparse_on_wide_thin(
        self, model, wide_thin_features
    ):
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        assert ests["Capellini"].exec_ms < ests["cuSPARSE"].exec_ms

    def test_writing_first_beats_two_phase_everywhere(
        self, model, wide_thin_features, deep_dense_features
    ):
        """Section 4.3: the 28.9x ablation direction."""
        for features in (wide_thin_features, deep_dense_features):
            ests = model.estimate_all(features, PASCAL_GTX1080)
            assert (
                ests["Capellini"].exec_ms
                < ests["Capellini-TwoPhase"].exec_ms
            )

    def test_stall_ordering(self, model, wide_thin_features):
        """Figure 8(b): Capellini < SyncFree < cuSPARSE."""
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        assert (
            ests["Capellini"].stall_fraction
            < ests["SyncFree"].stall_fraction
            < ests["cuSPARSE"].stall_fraction
        )

    def test_instruction_ordering(self, model, wide_thin_features):
        """Figure 8(a): Capellini executes far fewer instructions."""
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        assert ests["Capellini"].instructions < ests["SyncFree"].instructions

    def test_lp_structure_maximizes_speedup(self, model):
        """Figure 5: LP structures peak the speedup curve."""
        lp = extract_features(
            linear_programming(150_000, seed=1, basis_fraction=0.01,
                               chain_prob=0.1)
        )
        mid = extract_features(circuit(60_000, seed=1, rail_prob=0.7))
        def speedup(f):
            ests = model.estimate_all(f, PASCAL_GTX1080)
            return ests["SyncFree"].exec_ms / ests["Capellini"].exec_ms
        assert speedup(lp) > speedup(mid)

    def test_preprocessing_in_estimates(self, model, wide_thin_features):
        ests = model.estimate_all(wide_thin_features, PASCAL_GTX1080)
        assert ests["LevelSet"].preprocess_ms > ests["cuSPARSE"].preprocess_ms
        assert ests["Capellini"].preprocess_ms == 0.0

    def test_bandwidth_below_peak(self, model, wide_thin_features):
        for est in model.estimate_all(
            wide_thin_features, PASCAL_GTX1080
        ).values():
            assert est.bandwidth_gbps <= PASCAL_GTX1080.dram_bandwidth_gbps

    def test_platforms_all_work(self, model, wide_thin_features):
        for dev in PLATFORMS.values():
            est = model.estimate(wide_thin_features, "Capellini", dev)
            assert est.platform == dev.name
            assert est.exec_ms > 0


class TestSimulatorAgreement:
    """On small matrices, the analytic ranking must match the simulator's
    measured ranking for the central comparison (Capellini vs SyncFree)."""

    @pytest.mark.parametrize(
        "builder,expect_capellini_wins",
        [
            (lambda: circuit(1200, seed=7, rail_prob=0.85,
                             avg_nnz_per_row=3.0), True),
        ],
    )
    def test_ranking_agreement(self, model, builder, expect_capellini_wins):
        from repro.solvers import SyncFreeSolver, WritingFirstCapelliniSolver
        from repro.sparse.triangular import lower_triangular_system

        L = builder()
        features = extract_features(L)
        ests = model.estimate_all(features, SIM_SMALL)
        analytic_cap_wins = (
            ests["Capellini"].exec_ms < ests["SyncFree"].exec_ms
        )

        system = lower_triangular_system(L)
        sim_cap = WritingFirstCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        sim_syn = SyncFreeSolver().solve(system.L, system.b, device=SIM_SMALL)
        sim_cap_wins = sim_cap.exec_ms < sim_syn.exec_ms

        assert analytic_cap_wins == sim_cap_wins == expect_capellini_wins
