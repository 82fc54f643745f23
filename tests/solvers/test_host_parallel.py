"""Level-variant plan tests.

The host lane's level-scheduled executor is the ``schedule="level"``
variant of :class:`~repro.solvers.compiled.CompiledPlan`; these cases
pin its packing, its RHS handling and the content-keyed plan cache of
:class:`~repro.solvers.compiled.CompiledFusedSolver`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate
from repro.errors import SolverError
from repro.analysis.levels import compute_levels
from repro.solvers.compiled import CompiledFusedSolver, build_compiled_plan
from repro.solvers.multirhs import serial_sptrsm
from repro.solvers.reference import serial_sptrsv
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower
from tests.solvers.conftest import assert_solves_exactly


def build_plan(L):
    return build_compiled_plan(L, schedule="level")


def level_solver(**kwargs):
    return CompiledFusedSolver(schedule="level", **kwargs)


class TestCorrectness:
    def test_zoo(self, zoo_system):
        from repro.gpu.device import SIM_SMALL

        _name, system = zoo_system
        assert_solves_exactly(level_solver(), system, SIM_SMALL)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 99_999),
    )
    def test_agrees_with_serial_property(self, n, density, seed):
        L = random_unit_lower(n, density, seed=seed)
        system = lower_triangular_system(L, rng=np.random.default_rng(seed))
        r = level_solver().solve(L, system.b)
        np.testing.assert_allclose(
            r.x, serial_sptrsv(L, system.b), rtol=1e-9, atol=1e-12
        )


class TestPlan:
    def test_plan_packs_all_off_diagonals(self):
        L = random_unit_lower(50, 0.1, seed=1)
        plan = build_plan(L)
        # the off-diagonals plus each row's leading 1 / L[i,i]
        assert len(plan.vals) == L.nnz
        assert plan.coeff_nnz == L.nnz
        assert sorted(plan.rows.tolist()) == list(range(50))

    def test_plan_rows_grouped_by_level(self):
        L = random_unit_lower(50, 0.1, seed=2)
        plan = build_plan(L)
        levels_in_plan = compute_levels(L).level_of_row[plan.rows]
        assert np.all(np.diff(levels_in_plan) >= 0)
        assert plan.n_levels == plan.base_levels

    def test_plan_diag_matches(self):
        # 1 / L[i,i] by original row; idx holds only original rows
        L = random_unit_lower(30, 0.2, seed=3)
        plan = build_plan(L)
        diag = L.values[L.row_ptr[1:] - 1]
        np.testing.assert_array_equal(plan.inv_diag, 1.0 / diag)
        assert np.all(plan.idx < 30)

    def test_plan_reuse_skips_inspection(self):
        L = generate("circuit", 3000, seed=4)
        system = lower_triangular_system(L)
        solver = level_solver()
        solver.solve(L, system.b)
        plan_a = solver.plan_for(L)
        solver.solve(L, system.b)
        assert solver.plan_for(L) is plan_a  # cached, not rebuilt

    def test_empty_offdiag_levels(self):
        from repro.datasets.synthetic import diagonal

        L = diagonal(16)
        plan = build_plan(L)
        x = plan.solve(np.arange(16.0))
        np.testing.assert_allclose(x, np.arange(16.0))

    def test_plan_nbytes_positive(self):
        plan = build_plan(random_unit_lower(40, 0.2, seed=6))
        assert plan.nbytes > 0


class TestSolveMany:
    def test_matches_serial_sptrsm(self):
        L = generate("circuit", 400, seed=7)
        system = lower_triangular_system(L)
        B = np.column_stack([(r + 1.0) * system.b for r in range(5)])
        X = build_plan(L).solve_many(B)
        np.testing.assert_allclose(
            X, serial_sptrsm(L, B), rtol=1e-9, atol=1e-12
        )

    def test_promotes_1d(self):
        L = random_unit_lower(60, 0.1, seed=8)
        system = lower_triangular_system(L)
        X = build_plan(L).solve_many(system.b)
        assert X.shape == (60, 1)
        np.testing.assert_allclose(X[:, 0], system.x_true, rtol=1e-9)

    def test_accepts_fortran_order_and_float32(self):
        L = random_unit_lower(80, 0.1, seed=9)
        system = lower_triangular_system(L)
        B = np.column_stack([system.b, 3.0 * system.b])
        plan = build_plan(L)
        X_ref = plan.solve_many(B)
        np.testing.assert_allclose(
            plan.solve_many(np.asfortranarray(B)), X_ref, rtol=1e-12
        )
        np.testing.assert_allclose(
            plan.solve_many(B.astype(np.float32)), X_ref,
            rtol=1e-5, atol=1e-5,
        )
        # sliced (non-contiguous) input
        wide = np.column_stack([B[:, 0], system.b, B[:, 1], system.b])
        np.testing.assert_allclose(
            plan.solve_many(wide[:, 0::2]), X_ref, rtol=1e-12
        )

    def test_agrees_with_single_rhs_solve(self):
        L = random_unit_lower(70, 0.2, seed=10)
        plan = build_plan(L)
        rng = np.random.default_rng(10)
        B = rng.standard_normal((70, 3))
        X = plan.solve_many(B)
        for r in range(3):
            np.testing.assert_allclose(
                X[:, r], plan.solve(B[:, r]), rtol=1e-12
            )

    def test_rejects_bad_shapes(self):
        plan = build_plan(random_unit_lower(20, 0.2, seed=11))
        with pytest.raises(SolverError):
            plan.solve_many(np.zeros((21, 2)))
        with pytest.raises(SolverError):
            plan.solve_many(np.zeros((20, 0)))
        with pytest.raises(SolverError):
            plan.solve(np.zeros(19))

    def test_result_independent_of_scratch_reuse(self):
        # repeated calls with different widths must not leak state
        L = generate("graph", 300, seed=12)
        system = lower_triangular_system(L)
        plan = build_plan(L)
        wide = plan.solve_many(
            np.column_stack([system.b] * 6)
        )
        narrow = plan.solve_many(system.b.reshape(-1, 1))
        np.testing.assert_allclose(narrow[:, 0], system.x_true, rtol=1e-9)
        np.testing.assert_allclose(wide[:, 5], system.x_true, rtol=1e-9)


class TestPlanCache:
    def test_keyed_by_content_not_identity(self):
        """Regression for the stale-plan bug: the cache used to key by
        ``id(L)``, so a freed matrix whose id was reused by a *different*
        matrix silently served the wrong plan.  Content keys make two
        equal-content containers share a plan and distinct-content
        containers never share one, regardless of object lifecycle."""
        solver = level_solver()
        L1 = random_unit_lower(50, 0.15, seed=20)
        L1_copy = random_unit_lower(50, 0.15, seed=20)  # same content
        L2 = random_unit_lower(50, 0.15, seed=21)       # different content
        assert solver.plan_for(L1) is solver.plan_for(L1_copy)
        assert solver.plan_for(L1) is not solver.plan_for(L2)

    def test_id_reuse_lifecycle_never_shares_a_plan(self):
        """Allocate/free matrices in a loop — the id()-reuse pattern that
        used to poison the cache — and check every solve stays exact."""
        solver = level_solver(plan_cache_size=1)
        for seed in range(12):
            L = random_unit_lower(40, 0.2, seed=seed)
            system = lower_triangular_system(L)
            r = solver.solve(L, system.b)
            np.testing.assert_allclose(
                r.x, system.x_true, rtol=1e-9, atol=1e-12
            )
            del L  # free before the next iteration can reuse the id

    def test_lru_keeps_alternating_matrices(self):
        """Alternating between a working set within the cache bound must
        not rebuild plans (the old single-slot cache thrashed here)."""
        solver = level_solver(plan_cache_size=2)
        La = random_unit_lower(40, 0.2, seed=30)
        Lb = random_unit_lower(40, 0.2, seed=31)
        pa, pb = solver.plan_for(La), solver.plan_for(Lb)
        for _ in range(3):
            assert solver.plan_for(La) is pa
            assert solver.plan_for(Lb) is pb

    def test_lru_evicts_least_recently_used(self):
        solver = level_solver(plan_cache_size=2)
        La = random_unit_lower(40, 0.2, seed=32)
        Lb = random_unit_lower(40, 0.2, seed=33)
        Lc = random_unit_lower(40, 0.2, seed=34)
        pa = solver.plan_for(La)
        solver.plan_for(Lb)
        assert solver.plan_for(La) is pa   # refresh recency of a
        solver.plan_for(Lc)                # evicts b, not a
        assert solver.plan_for(La) is pa
        assert len(solver._plan_cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            level_solver(plan_cache_size=0)


class TestScale:
    def test_large_matrix_fast_and_exact(self):
        L = generate("graph", 60_000, seed=5)
        system = lower_triangular_system(L)
        r = level_solver().solve(L, system.b)
        np.testing.assert_allclose(r.x, system.x_true, rtol=1e-8)
        assert r.exec_ms < 2_000  # vectorized, not per-row Python
