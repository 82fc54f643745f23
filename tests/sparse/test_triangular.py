"""Tests for lower-triangular utilities and system manufacture."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotTriangularError, SingularMatrixError
from repro.sparse.convert import csr_to_dense, dense_to_csr
from repro.sparse.triangular import (
    check_solvable,
    is_lower_triangular,
    is_unit_diagonal,
    lower_triangular_system,
    make_unit_lower_triangular,
    strict_lower_part,
)

from tests.conftest import build_csr, random_unit_lower


class TestPredicates:
    def test_fig1_is_unit_lower(self, fig1):
        assert is_lower_triangular(fig1)
        assert is_unit_diagonal(fig1)

    def test_upper_entry_fails(self):
        m = build_csr({(0, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0}, 2)
        assert not is_lower_triangular(m)

    def test_missing_diagonal_fails_with_require(self):
        m = build_csr({(0, 0): 1.0, (1, 0): 2.0}, 2)
        assert not is_lower_triangular(m, require_diagonal=True)
        assert is_lower_triangular(m, require_diagonal=False)

    def test_non_square_fails(self):
        m = dense_to_csr(np.tril(np.ones((2, 3))))
        assert not is_lower_triangular(m)

    def test_non_unit_diagonal(self):
        m = build_csr({(0, 0): 2.0}, 1)
        assert is_lower_triangular(m)
        assert not is_unit_diagonal(m)


class TestTransforms:
    def test_strict_lower_part(self, fig1):
        strict = strict_lower_part(fig1)
        assert strict.nnz == fig1.nnz - 8  # drops the 8 diagonal entries
        rows = np.repeat(np.arange(8), strict.row_lengths())
        assert np.all(strict.col_idx < rows)

    def test_make_unit_lower_from_full(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(10, 10))
        L = make_unit_lower_triangular(dense_to_csr(dense))
        assert is_unit_diagonal(L)
        # strict-lower pattern preserved
        expect = np.tril(dense, -1) != 0
        got = csr_to_dense(L)
        np.fill_diagonal(got, 0.0)
        assert np.array_equal(got != 0, expect)

    def test_make_unit_lower_rejects_non_square(self):
        m = dense_to_csr(np.ones((2, 3)))
        with pytest.raises(NotTriangularError):
            make_unit_lower_triangular(m)

    def test_idempotent_on_pattern(self):
        L = random_unit_lower(30, 0.1, seed=1)
        L2 = make_unit_lower_triangular(L)
        assert np.array_equal(L2.col_idx, L.col_idx)


class TestCheckSolvable:
    def test_fig1_passes(self, fig1):
        check_solvable(fig1)

    def test_non_square(self):
        with pytest.raises(NotTriangularError, match="square"):
            check_solvable(dense_to_csr(np.tril(np.ones((2, 3)))))

    def test_upper_element(self):
        m = build_csr({(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}, 2)
        with pytest.raises(NotTriangularError):
            check_solvable(m)

    def test_zero_diagonal(self):
        m = build_csr({(0, 0): 0.0, (1, 1): 1.0}, 2)
        with pytest.raises(SingularMatrixError, match="row 0"):
            check_solvable(m)

    def test_missing_diagonal(self):
        m = build_csr({(0, 0): 1.0, (1, 0): 1.0}, 2)
        with pytest.raises(NotTriangularError):
            check_solvable(m)


class TestSystemManufacture:
    def test_b_equals_Lx(self, fig1):
        sys_ = lower_triangular_system(fig1)
        assert np.allclose(fig1.matvec(sys_.x_true), sys_.b)
        assert sys_.n == 8

    def test_explicit_x_true(self, fig1):
        x = np.arange(1.0, 9.0)
        sys_ = lower_triangular_system(fig1, x_true=x)
        assert np.array_equal(sys_.x_true, x)

    def test_explicit_x_true_shape_check(self, fig1):
        with pytest.raises(ValueError, match="shape"):
            lower_triangular_system(fig1, x_true=np.ones(3))

    def test_deterministic_given_rng(self, fig1):
        a = lower_triangular_system(fig1, rng=np.random.default_rng(5))
        b = lower_triangular_system(fig1, rng=np.random.default_rng(5))
        assert np.array_equal(a.b, b.b)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.4),
        seed=st.integers(0, 10_000),
    )
    def test_solvable_systems_property(self, n, density, seed):
        L = random_unit_lower(n, density, seed=seed)
        sys_ = lower_triangular_system(L, rng=np.random.default_rng(seed))
        # the manufactured system is exactly consistent
        assert np.allclose(L.matvec(sys_.x_true), sys_.b)
