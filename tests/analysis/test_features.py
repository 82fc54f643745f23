"""MatrixFeatures extraction tests."""

import numpy as np
import pytest

from repro.analysis.features import extract_features
from repro.analysis.levels import compute_levels
from repro.datasets.synthetic import banded, chain


class TestExtractFeatures:
    def test_fig1_features(self, fig1):
        f = extract_features(fig1)
        assert f.n_rows == 8
        assert f.nnz == 16
        assert f.avg_nnz_per_row == 2.0
        assert f.max_nnz_per_row == 3
        assert f.n_levels == 4
        assert f.avg_rows_per_level == 2.0
        assert f.max_level_width == 2
        assert f.critical_path_length == 3
        assert np.array_equal(f.row_lengths, fig1.row_lengths())

    def test_precomputed_schedule_reused(self, fig1):
        sched = compute_levels(fig1)
        f = extract_features(fig1, schedule=sched)
        assert f.schedule is sched

    def test_summary_contains_key_stats(self, fig1):
        s = extract_features(fig1).summary()
        assert "n=8" in s and "levels=4" in s and "delta" in s

    def test_chain_critical_path(self):
        f = extract_features(chain(32))
        assert f.critical_path_length == 31
        assert f.max_level_width == 1

    def test_banded_alpha(self):
        f = extract_features(banded(64, bandwidth=8, fill=1.0))
        # full band: rows near the top are truncated, later rows have 9
        assert f.max_nnz_per_row == 9
        assert f.avg_nnz_per_row == pytest.approx(f.nnz / 64)

    def test_granularity_matches_direct_computation(self, fig1):
        from repro.analysis.granularity import parallel_granularity

        f = extract_features(fig1)
        assert f.granularity == pytest.approx(parallel_granularity(fig1))
