"""Figure 2 walkthrough test."""

from repro.analysis.levels import compute_levels
from repro.experiments import fig2


class TestFig2:
    def test_matrix_matches_figure1(self):
        L = fig2.figure1_matrix()
        sched = compute_levels(L)
        assert sched.n_levels == 4
        assert sched.level_sizes().tolist() == [2, 2, 2, 2]

    def test_walkthrough_claims(self):
        r = fig2.run()
        assert r.data["capellini_fastest"]
        assert "Deadlock" in r.data["naive_outcome"]
        # SyncFree beats LevelSet here too (synchronization overhead)
        assert r.data["cycles"]["SyncFree"] < r.data["cycles"]["LevelSet"]
