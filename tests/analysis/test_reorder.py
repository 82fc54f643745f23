"""Reordering tests."""

import numpy as np
import pytest

from repro.analysis.levels import compute_levels
from repro.analysis.reorder import (
    apply_inverse_permutation,
    permute_symmetric,
    reorder_by_levels,
    reorder_reverse_cuthill_mckee,
)
from repro.errors import NotTriangularError
from repro.solvers.reference import serial_sptrsv
from repro.sparse.convert import csr_to_dense, dense_to_csr
from repro.sparse.triangular import is_lower_triangular

from tests.conftest import random_unit_lower


class TestPermuteSymmetric:
    def test_identity(self, fig1):
        p = np.arange(8)
        out = permute_symmetric(fig1, p)
        assert np.allclose(csr_to_dense(out), csr_to_dense(fig1))

    def test_values_follow(self, fig1):
        p = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        out = permute_symmetric(fig1, p)
        dense = csr_to_dense(fig1)
        expected = np.zeros_like(dense)
        for i in range(8):
            for j in range(8):
                expected[p[i], p[j]] = dense[i, j]
        assert np.allclose(csr_to_dense(out), expected)

    def test_invalid_perm(self, fig1):
        with pytest.raises(ValueError):
            permute_symmetric(fig1, np.zeros(8, dtype=int))

    def test_non_square(self):
        m = dense_to_csr(np.ones((2, 3)))
        with pytest.raises(NotTriangularError):
            permute_symmetric(m, np.array([0, 1]))


class TestLevelReorder:
    def test_stays_lower_triangular(self):
        L = random_unit_lower(60, 0.08, seed=3)
        L2, _ = reorder_by_levels(L)
        assert is_lower_triangular(L2)

    def test_levels_become_contiguous(self):
        L = random_unit_lower(60, 0.08, seed=4)
        L2, _ = reorder_by_levels(L)
        levels = compute_levels(L2).level_of_row
        assert np.all(np.diff(levels) >= 0)  # sorted: contiguous blocks

    def test_level_structure_preserved(self):
        L = random_unit_lower(60, 0.08, seed=5)
        before = compute_levels(L)
        L2, _ = reorder_by_levels(L)
        after = compute_levels(L2)
        assert after.n_levels == before.n_levels
        assert np.array_equal(after.level_sizes(), before.level_sizes())

    def test_solution_maps_back(self):
        L = random_unit_lower(50, 0.1, seed=6)
        rng = np.random.default_rng(0)
        x_true = rng.uniform(0.5, 1.5, 50)
        b = L.matvec(x_true)
        L2, perm = reorder_by_levels(L)
        y = serial_sptrsv(L2, _permute_vec(b, perm))
        x = apply_inverse_permutation(y, perm)
        np.testing.assert_allclose(x, x_true, rtol=1e-9)


class TestRCM:
    def test_stays_lower_triangular(self):
        L = random_unit_lower(60, 0.06, seed=7)
        L2, _ = reorder_reverse_cuthill_mckee(L)
        assert is_lower_triangular(L2)

    def test_reduces_bandwidth_on_shuffled_band(self):
        from repro.analysis.reorder import permute_symmetric
        from repro.datasets.synthetic import banded

        L = banded(80, bandwidth=4, fill=1.0)
        rng = np.random.default_rng(1)
        shuffled = permute_symmetric(L, rng.permutation(80))
        # re-triangularize the shuffled pattern
        from repro.sparse.triangular import make_unit_lower_triangular

        shuffled = make_unit_lower_triangular(shuffled)
        rcm, _ = reorder_reverse_cuthill_mckee(shuffled)
        assert _bandwidth(rcm) < _bandwidth(shuffled)

    def test_nnz_preserved(self):
        L = random_unit_lower(40, 0.1, seed=8)
        L2, _ = reorder_reverse_cuthill_mckee(L)
        assert L2.nnz == L.nnz


def _permute_vec(v, perm):
    out = np.empty_like(v)
    out[perm] = v
    return out


def _bandwidth(L):
    rows = np.repeat(np.arange(L.n_rows), L.row_lengths())
    return int(np.max(rows - L.col_idx))
