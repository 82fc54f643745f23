"""Parallel-granularity (Equation 1) tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.granularity import (
    GranularityParams,
    HIGH_GRANULARITY_THRESHOLD,
    parallel_granularity,
    parallel_granularity_from_stats,
)
from repro.datasets.synthetic import chain, diagonal


class TestEquation1:
    def test_default_formula_value(self):
        # granularity = log10(log10(n_level) / log10(nnz_row + 0.01) + 0.01)
        n_level, nnz_row = 100.0, 10.0
        expected = math.log10(
            math.log10(100.0) / math.log10(10.01) + 0.01
        )
        got = parallel_granularity_from_stats(n_level, nnz_row)
        assert got == pytest.approx(expected)

    def test_higher_n_level_raises_granularity(self):
        low = parallel_granularity_from_stats(100, 5)
        high = parallel_granularity_from_stats(10_000, 5)
        assert high > low

    def test_higher_nnz_row_lowers_granularity(self):
        thin = parallel_granularity_from_stats(1_000, 3)
        dense = parallel_granularity_from_stats(1_000, 30)
        assert thin > dense

    def test_sequential_chain_is_very_low(self):
        # n_level = 1: numerator 0 -> log10(0.01) = -2 with defaults
        got = parallel_granularity_from_stats(1.0, 2.0)
        assert got == pytest.approx(-2.0)

    def test_custom_bases(self):
        params = GranularityParams(c1=2.0, c2=2.0, c3=2.0)
        got = parallel_granularity_from_stats(64, 4, params)
        expected = math.log2(math.log2(64) / math.log2(4.01) + 0.01)
        assert got == pytest.approx(expected)

    def test_diagonal_only_rows_clamped(self):
        # nnz_row <= 1: denominator would be <= 0; result stays finite
        got = parallel_granularity_from_stats(1_000, 0.5)
        assert math.isfinite(got)

    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError):
            parallel_granularity_from_stats(0.5, 3.0)
        with pytest.raises(ValueError):
            parallel_granularity_from_stats(10.0, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        n_level=st.floats(1.0, 1e7),
        nnz_row=st.floats(1.5, 1e4),
    )
    def test_always_finite_property(self, n_level, nnz_row):
        assert math.isfinite(
            parallel_granularity_from_stats(n_level, nnz_row)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n_level=st.floats(2.0, 1e6),
        a=st.floats(2.0, 100.0),
        b=st.floats(2.0, 100.0),
    )
    def test_monotone_in_nnz_row_property(self, n_level, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        g_lo = parallel_granularity_from_stats(n_level, lo)
        g_hi = parallel_granularity_from_stats(n_level, hi)
        assert g_lo >= g_hi


class TestParams:
    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            GranularityParams(c1=1.0)

    def test_invalid_bias_rejected(self):
        with pytest.raises(ValueError, match="bias"):
            GranularityParams(b1=0.0)

    def test_threshold_constant(self):
        assert HIGH_GRANULARITY_THRESHOLD == 0.7


class TestOnMatrices:
    def test_fig1(self, fig1):
        # n_level = 2, nnz_row = 2: log10(2)/log10(2.01) + 0.01
        expected = math.log10(
            math.log10(2.0) / math.log10(2.01) + 0.01
        )
        assert parallel_granularity(fig1) == pytest.approx(expected)

    def test_diagonal_much_higher_than_chain(self):
        assert parallel_granularity(diagonal(256)) > parallel_granularity(
            chain(256)
        )
