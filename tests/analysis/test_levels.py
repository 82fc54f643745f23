"""Level-set computation tests (Section 2.1/2.2 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.levels import _levels_serial, compute_levels
from repro.datasets.synthetic import banded, chain, diagonal
from repro.errors import NotTriangularError
from repro.sparse.convert import dense_to_csr

from tests.conftest import build_csr, random_unit_lower


class TestFig1:
    """The paper's Figure 1 example has exactly four level-sets."""

    def test_levels_of_rows(self, fig1):
        sched = compute_levels(fig1)
        assert sched.level_of_row.tolist() == [0, 0, 1, 2, 1, 2, 3, 3]

    def test_four_level_sets(self, fig1):
        sched = compute_levels(fig1)
        assert sched.n_levels == 4
        assert sched.level_sizes().tolist() == [2, 2, 2, 2]

    def test_rows_in_level(self, fig1):
        sched = compute_levels(fig1)
        assert sched.rows_in_level(0).tolist() == [0, 1]
        assert sched.rows_in_level(1).tolist() == [2, 4]
        assert sched.rows_in_level(2).tolist() == [3, 5]
        assert sched.rows_in_level(3).tolist() == [6, 7]

    def test_avg_rows_per_level(self, fig1):
        assert compute_levels(fig1).avg_rows_per_level() == 2.0

    def test_max_level_width(self, fig1):
        assert compute_levels(fig1).max_level_width() == 2


class TestStructures:
    def test_diagonal_one_level(self):
        sched = compute_levels(diagonal(50))
        assert sched.n_levels == 1
        assert sched.max_level_width() == 50

    def test_chain_n_levels(self):
        sched = compute_levels(chain(64))
        assert sched.n_levels == 64
        assert np.array_equal(sched.level_of_row, np.arange(64))

    def test_banded_full_depth(self):
        # offset-1 band is always kept, so depth equals n
        sched = compute_levels(banded(40, bandwidth=4, fill=0.5))
        assert sched.n_levels == 40

    def test_level_of_dependency_strictly_smaller(self):
        L = random_unit_lower(80, 0.1, seed=4)
        sched = compute_levels(L)
        rows = np.repeat(np.arange(80), L.row_lengths())
        strict = L.col_idx < rows
        assert np.all(
            sched.level_of_row[L.col_idx[strict]]
            < sched.level_of_row[rows[strict]]
        )

    def test_order_is_permutation_stable_within_level(self):
        L = random_unit_lower(60, 0.08, seed=1)
        sched = compute_levels(L)
        assert sorted(sched.order.tolist()) == list(range(60))
        for k in range(sched.n_levels):
            rows = sched.rows_in_level(k)
            assert np.all(np.diff(rows) > 0)  # ascending row order

    def test_level_ptr_consistent(self):
        L = random_unit_lower(60, 0.08, seed=2)
        sched = compute_levels(L)
        assert sched.level_ptr[0] == 0
        assert sched.level_ptr[-1] == 60
        assert np.array_equal(
            np.diff(sched.level_ptr),
            np.bincount(sched.level_of_row, minlength=sched.n_levels),
        )

    def test_rows_in_level_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            compute_levels(fig1).rows_in_level(4)

    def test_upper_triangular_rejected(self):
        m = build_csr({(0, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0}, 2)
        with pytest.raises(NotTriangularError):
            compute_levels(m)

    def test_non_square_rejected(self):
        m = dense_to_csr(np.tril(np.ones((2, 3))))
        with pytest.raises(NotTriangularError):
            compute_levels(m)


class TestRelaxationEquivalence:
    """The vectorized relaxation and the serial sweep must agree exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 99_999),
    )
    def test_agreement_property(self, n, density, seed):
        L = random_unit_lower(n, density, seed=seed)
        sched = compute_levels(L)
        assert np.array_equal(sched.level_of_row, _levels_serial(L))

    def test_deep_matrix_falls_back_to_serial(self):
        # > _RELAXATION_LIMIT levels forces the serial path
        L = chain(200)
        sched = compute_levels(L)
        assert sched.n_levels == 200
        assert np.array_equal(sched.level_of_row, _levels_serial(L))


class TestMergeLevels:
    """Invariants of the level-merged schedule (input of the merged plan variant)."""

    def _merged(self, L, **kw):
        from repro.analysis.levels import compute_levels, merge_levels

        base = compute_levels(L)
        return base, merge_levels(L, base, **kw)

    def test_row_order_and_counts_preserved(self):
        L = chain(150)
        base, merged = self._merged(L)
        assert merged.n_rows == base.n_rows
        assert np.array_equal(merged.order, base.order)
        assert merged.n_levels <= base.n_levels
        assert merged.level_sizes().sum() == L.n_rows

    def test_level_ptr_monotone_and_covers(self):
        L = random_unit_lower(120, 0.1, seed=7)
        _, merged = self._merged(L)
        ptr = merged.level_ptr
        assert ptr[0] == 0 and ptr[-1] == L.n_rows
        assert np.all(np.diff(ptr) > 0)

    def test_redundant_nnz_accounting(self):
        L = chain(100)
        _, merged = self._merged(L)
        assert merged.direct_nnz == L.nnz
        assert merged.expanded_nnz >= merged.direct_nnz
        assert merged.redundant_nnz == (
            merged.expanded_nnz - merged.direct_nnz
        )

    def test_chain_collapses_under_group_cap(self):
        # a pure chain is all width-1 levels: with the work budget out
        # of the way, groups close exactly at max_group
        base, merged = self._merged(
            chain(128), max_group=16, budget=1e9
        )
        assert base.n_levels == 128
        assert merged.n_levels == 8
        assert merged.compression() == pytest.approx(16.0)

    def test_wide_levels_never_merge(self):
        L = diagonal(64)  # one level of width 64
        base, merged = self._merged(L, max_width=8)
        assert base.n_levels == merged.n_levels == 1
        assert merged.redundant_nnz == 0

    def test_budget_one_forbids_expansion(self):
        # budget=1.0 allows merging only when substitution adds no work
        L = random_unit_lower(150, 0.15, seed=3)
        _, merged = self._merged(L, budget=1.0)
        assert merged.expanded_nnz <= merged.direct_nnz * 1.0 + 1e-9

    def test_invalid_knobs_raise(self):
        from repro.analysis.levels import merge_levels

        L = chain(10)
        with pytest.raises(ValueError):
            merge_levels(L, budget=0.5)
        with pytest.raises(ValueError):
            merge_levels(L, max_width=0)
        with pytest.raises(ValueError):
            merge_levels(L, max_group=0)
