"""Compiled fast-lane equivalence suite.

Mirror of ``test_host_equivalence.py`` for the
:class:`~repro.solvers.compiled.CompiledPlan`: the fast-lane plan must
agree with the cycle-level simulator on every synthetic domain, both
triangular orientations, and every right-hand-side layout — under both
the level executor of one ``csr_matvec`` per level
(``schedule="level"``) and the in-place ``csr_matvec`` sweep
(``schedule="sequential"``), which must equal each other bit for bit,
and :func:`scipy.sparse.linalg.spsolve_triangular` bit for bit on these
unit-diagonal factors.

Matrices are kept small (n = 80) because each comparison runs the SIMT
simulator — the point is agreement, not throughput.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.datasets import DOMAINS, generate
from repro.gpu.device import SIM_SMALL
from repro.errors import SolverError
from repro.solvers import WritingFirstCapelliniSolver
from repro.solvers.compiled import (
    COMPILED_SCHEDULES,
    CompiledFusedSolver,
    build_compiled_plan,
    pick_schedule,
)
from repro.solvers.multirhs import capellini_sptrsm
from repro.solvers.upper import reverse_matrix, solve_upper
from repro.sparse.convert import dense_to_csr
from repro.sparse.triangular import lower_triangular_system

N = 80
TOL = {"rtol": 1e-9, "atol": 1e-12}


@pytest.fixture(scope="module", params=sorted(DOMAINS))
def domain_system(request):
    L = generate(request.param, N, seed=13)
    return lower_triangular_system(L, rng=np.random.default_rng(13))


@pytest.fixture(scope="module", params=sorted(COMPILED_SCHEDULES))
def schedule(request):
    return request.param


class TestLower:
    def test_single_rhs_matches_simulator(self, domain_system, schedule):
        system = domain_system
        plan = build_compiled_plan(system.L, schedule=schedule)
        x = plan.solve(system.b)
        r_sim = WritingFirstCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        np.testing.assert_allclose(x, r_sim.x, **TOL)
        assert np.max(np.abs(x - system.x_true)) <= 1e-10

    def test_multi_rhs_matches_capellini_sptrsm(
        self, domain_system, schedule
    ):
        system = domain_system
        B = np.column_stack([(r + 1.0) * system.b for r in range(3)])
        X = build_compiled_plan(system.L, schedule=schedule).solve_many(B)
        r_sim = capellini_sptrsm(system.L, B, device=SIM_SMALL)
        np.testing.assert_allclose(X, r_sim.X, **TOL)

    def test_matches_host_plan(self, domain_system, schedule):
        # the level variant is the former host executor
        system = domain_system
        x_host = build_compiled_plan(system.L, schedule="level").solve(
            system.b
        )
        x_comp = build_compiled_plan(
            system.L, schedule=schedule
        ).solve(system.b)
        np.testing.assert_allclose(x_comp, x_host, **TOL)


class TestLevelEqualsSweep:
    """Both variants sum each row as ``csr_matvec`` does — start value,
    then the dependencies in ``idx`` order — so they agree exactly."""

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_level_equals_sequential_bit_for_bit(self, domain_system, k):
        L = domain_system.L
        B = np.random.default_rng(k).standard_normal((L.n_rows, k))
        X_level = build_compiled_plan(L, schedule="level").solve_many(B)
        X_seq = build_compiled_plan(L, schedule="sequential").solve_many(B)
        assert np.array_equal(X_level, X_seq)

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_signed_zeros_agree_byte_for_byte(self, domain_system, k):
        # the level variant starts each row's sum at -0.0 and adds the
        # scaled b_i; the sweep starts at the scaled b_i itself.  Only
        # the additive identity -0.0 keeps a -0.0 answer's sign bit
        L = domain_system.L
        rng = np.random.default_rng(k)
        B = rng.standard_normal((L.n_rows, k))
        B[rng.random(B.shape) < 0.5] = 0.0
        B[rng.random(B.shape) < 0.5] *= -1.0
        B[:, 0] = -0.0
        X_level = build_compiled_plan(L, schedule="level").solve_many(B)
        X_seq = build_compiled_plan(L, schedule="sequential").solve_many(B)
        assert X_level.tobytes() == X_seq.tobytes()
        assert np.signbit(X_seq[:, 0]).any()

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_float32_and_fortran_inputs_agree_byte_for_byte(
        self, domain_system, k
    ):
        L = domain_system.L
        B = np.random.default_rng(k).standard_normal((L.n_rows, k))
        level = build_compiled_plan(L, schedule="level")
        seq = build_compiled_plan(L, schedule="sequential")
        for rhs in (B.astype(np.float32), np.asfortranarray(B)):
            X_level = level.solve_many(rhs)
            assert X_level.flags.c_contiguous
            assert X_level.tobytes() == seq.solve_many(rhs).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("domain", ["combinatorial", "random", "road"])
    def test_level_mixing_rows_with_and_without_dependencies(
        self, domain, k
    ):
        # each dependency-free row moves as late as its dependents
        # allow: still a valid order, and a later level now holds rows
        # with and without dependencies
        from repro.analysis.levels import LevelSchedule, compute_levels

        L = generate(domain, N, seed=13)
        base = compute_levels(L)
        level = base.level_of_row.copy()
        rows = np.repeat(np.arange(L.n_rows), np.diff(L.row_ptr))
        off = L.col_idx != rows
        latest = np.full(L.n_rows, base.n_levels - 1)
        np.minimum.at(latest, L.col_idx[off], level[rows[off]] - 1)
        free = level == 0
        level[free] = latest[free]
        order = np.lexsort((np.arange(L.n_rows), level))
        level_ptr = np.searchsorted(
            level[order], np.arange(base.n_levels + 1)
        )
        mixed = LevelSchedule(level, level_ptr, order)

        plan = build_compiled_plan(L, schedule="level", base=mixed)
        # each level-plan row leads with its own diagonal entry
        has_deps = np.diff(plan.row_ptr) > 1
        levels = np.split(has_deps, plan.level_ptr[1:-1])
        assert any(lv.any() and not lv.all() for lv in levels)
        B = np.random.default_rng(5).standard_normal((L.n_rows, k))
        X = plan.solve_many(B)
        assert np.array_equal(
            X, build_compiled_plan(L, schedule="sequential").solve_many(B)
        )
        for c in range(k):
            np.testing.assert_allclose(L.matvec(X[:, c]), B[:, c], **TOL)


class TestColumnForm:
    """A block given as its columns is written once into the kernel's
    start form and answers byte for byte like the stacked block."""

    @staticmethod
    def _columns(L, k):
        rng = np.random.default_rng(k)
        B = rng.standard_normal((L.n_rows, k))
        B[rng.random(B.shape) < 0.3] = 0.0
        B[rng.random(B.shape) < 0.5] *= -1.0
        B[:, 0] = -0.0
        return [B[:, c].copy() for c in range(k)]

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_columns_equal_the_stacked_block(self, domain_system, schedule, k):
        plan = build_compiled_plan(domain_system.L, schedule=schedule)
        columns = self._columns(domain_system.L, k)
        X = plan.solve_many(columns)
        assert X.shape == (domain_system.L.n_rows, k)
        assert X.flags.c_contiguous
        assert X.tobytes() == plan.solve_many(np.stack(columns, 1)).tobytes()
        assert X.tobytes() == plan.solve_many(tuple(columns)).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_level_columns_equal_the_sweep(self, domain_system, k):
        L = domain_system.L
        columns = self._columns(L, k)
        X_level = build_compiled_plan(L, schedule="level").solve_many(columns)
        X_seq = build_compiled_plan(L, schedule="sequential").solve_many(
            columns
        )
        assert X_level.tobytes() == X_seq.tobytes()
        assert np.signbit(X_seq[:, 0]).any()

    def test_columns_are_left_untouched(self, schedule):
        L = generate("chain", N, seed=13)
        columns = self._columns(L, 2)
        before = [c.tobytes() for c in columns]
        build_compiled_plan(L, schedule=schedule).solve_many(columns)
        assert [c.tobytes() for c in columns] == before

    @pytest.mark.parametrize(
        "columns",
        [[], [np.zeros(N - 1)], [np.zeros(N), np.zeros((N, 1))]],
        ids=["none", "short", "2d"],
    )
    def test_rejects_bad_columns(self, schedule, columns):
        plan = build_compiled_plan(generate("chain", N, seed=13),
                                   schedule=schedule)
        with pytest.raises(SolverError):
            plan.solve_many(columns)


class TestUpper:
    def test_upper_matches_simulator(self, domain_system, schedule):
        system = domain_system
        U = reverse_matrix(system.L)
        x_comp = solve_upper(
            CompiledFusedSolver(schedule=schedule), U, system.b,
            device=SIM_SMALL,
        )
        x_sim = solve_upper(
            WritingFirstCapelliniSolver(), U, system.b, device=SIM_SMALL
        )
        np.testing.assert_allclose(x_comp, x_sim, **TOL)


class TestRHSLayouts:
    def test_1d_2d_and_fortran_order_agree(self, domain_system, schedule):
        system = domain_system
        plan = build_compiled_plan(system.L, schedule=schedule)
        B = np.column_stack([system.b, -2.0 * system.b])

        x_1d = plan.solve(system.b)
        X_c = plan.solve_many(B)
        X_f = plan.solve_many(np.asfortranarray(B))
        X_1d = plan.solve_many(system.b)

        np.testing.assert_array_equal(X_c[:, 0], x_1d)
        np.testing.assert_array_equal(X_f, X_c)
        np.testing.assert_array_equal(X_1d[:, 0], x_1d)
        assert X_c.flags["C_CONTIGUOUS"] and X_f.flags["C_CONTIGUOUS"]

    def test_noncontiguous_rhs(self, domain_system, schedule):
        system = domain_system
        plan = build_compiled_plan(system.L, schedule=schedule)
        wide = np.column_stack(
            [(r + 1.0) * system.b for r in range(6)]
        )
        B = wide[:, ::2]  # non-contiguous view, k=3
        assert not B.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            plan.solve_many(B), plan.solve_many(np.ascontiguousarray(B))
        )

    def test_float32_rhs_upcasts(self, domain_system, schedule):
        system = domain_system
        plan = build_compiled_plan(system.L, schedule=schedule)
        x = plan.solve(system.b.astype(np.float32))
        assert x.dtype == np.float64
        # float32 input quantizes b itself; agreement is to f32 accuracy
        np.testing.assert_allclose(
            x, plan.solve(system.b), rtol=5e-5, atol=5e-6
        )


class TestColumnIndependence:
    """Coalesced requests must not see each other: column ``c`` of a
    ``k``-column solve is bit-identical to the one-column solve of that
    column, whatever ``k`` and layout."""

    @staticmethod
    def _block(system, k):
        rng = np.random.default_rng(k)
        return np.column_stack(
            [system.b * rng.uniform(-2.0, 2.0) for _ in range(k)]
        )

    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_columns_equal_single_solves(
        self, domain_system, schedule, k, layout
    ):
        plan = build_compiled_plan(domain_system.L, schedule=schedule)
        B = self._block(domain_system, k)
        if layout == "F":
            B = np.asfortranarray(B)
        elif layout == "strided":
            B = np.repeat(B, 2, axis=1)[:, ::2]
            assert not B.flags["C_CONTIGUOUS"]
            assert not B.flags["F_CONTIGUOUS"]
        X = plan.solve_many(B)
        for c in range(k):
            np.testing.assert_array_equal(
                X[:, c], plan.solve_many(B[:, [c]])[:, 0]
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_nonfinite_column_leaves_others_intact(
        self, domain_system, schedule, bad, k
    ):
        plan = build_compiled_plan(domain_system.L, schedule=schedule)
        B = self._block(domain_system, k)
        clean = plan.solve_many(B)
        poisoned = B.copy()
        poisoned[:: 7, k // 2] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in that column
            X = plan.solve_many(poisoned)
        assert not np.all(np.isfinite(X[:, k // 2]))
        others = [c for c in range(k) if c != k // 2]
        np.testing.assert_array_equal(X[:, others], clean[:, others])


class TestSequentialVariant:
    """Cases ``test_host_parallel.py`` runs on the level variant, on the
    sequential one (the builder's default)."""

    @pytest.mark.parametrize(
        "shape", [(N + 1, 2), (N, 0), (N, 2, 1)], ids=["rows", "k0", "3d"]
    )
    def test_rejects_bad_shapes(self, shape):
        plan = build_compiled_plan(generate("chain", N, seed=13))
        with pytest.raises(SolverError):
            plan.solve_many(np.zeros(shape))
        with pytest.raises(SolverError):
            plan.solve(np.zeros(N - 1))

    def test_threads_share_one_plan(self):
        from concurrent.futures import ThreadPoolExecutor

        system = lower_triangular_system(
            generate("graph", 300, seed=12), rng=np.random.default_rng(12)
        )
        plan = build_compiled_plan(system.L)
        assert plan.schedule == "sequential"
        widths = [1, 6, 2, 1, 8, 3] * 4

        def run(k):
            X = plan.solve_many(np.column_stack([system.b] * k))
            return np.max(np.abs(X - system.x_true[:, None]))

        with ThreadPoolExecutor(max_workers=4) as pool:
            errors = list(pool.map(run, widths))
        assert max(errors) <= 1e-9

    def test_cache_keyed_by_content(self):
        from tests.conftest import random_unit_lower

        solver = CompiledFusedSolver(plan_cache_size=2)
        L1 = random_unit_lower(50, 0.15, seed=20)
        L1_copy = random_unit_lower(50, 0.15, seed=20)  # same content
        L2 = random_unit_lower(50, 0.15, seed=21)
        assert solver.plan_for(L1) is solver.plan_for(L1_copy)
        assert solver.plan_for(L1) is not solver.plan_for(L2)
        assert solver.plan_for(L1).schedule == "sequential"


class TestSequentialArrays:
    """The sequential variant owns plain arrays and answers exactly as
    :func:`scipy.sparse.linalg.spsolve_triangular`: on a unit diagonal
    both run ``x_i = b_i - sum_j L[i, j] x_j`` with the same products
    added in the same order."""

    @staticmethod
    def _scipy_csc(L):
        return sp.csr_array(
            (L.values, L.col_idx, L.row_ptr), shape=L.shape
        ).tocsc()

    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("layout", ["1d", "C", "F", "float32"])
    def test_bit_identical_to_spsolve_triangular(
        self, domain_system, k, layout
    ):
        L = domain_system.L
        plan = build_compiled_plan(L, schedule="sequential")
        B = TestColumnIndependence._block(domain_system, k)
        if layout == "1d":
            B = B[:, 0]
        elif layout == "F":
            B = np.asfortranarray(B)
        elif layout == "float32":
            B = B.astype(np.float32)
        ref = spsolve_triangular(self._scipy_csc(L), B)
        X = plan.solve_many(B)
        assert X.dtype == np.float64 and X.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(X, ref.reshape(L.n_rows, -1))

    def test_csc_is_canonical(self, domain_system):
        # the plan's CSR arrays of L are the CSC arrays of L^T: canonical
        # (sorted, no duplicates), so each row adds its products in
        # ascending column order, as spsolve_triangular does
        L = domain_system.L
        n = L.n_rows
        plan = build_compiled_plan(L, schedule="sequential")
        T = sp.csc_array(
            (plan.vals, plan.idx, plan.row_ptr), shape=(n, n)
        )
        assert T.has_canonical_format
        # the diagonal is split out as its reciprocal, the rest scaled by it
        dense = sp.csr_array(
            (L.values, L.col_idx, L.row_ptr), shape=L.shape
        ).toarray()
        np.testing.assert_array_equal(plan.inv_diag, 1.0 / np.diag(dense))
        np.testing.assert_array_equal(
            T.toarray().T, -np.tril(dense, -1) * plan.inv_diag[:, None]
        )

    def test_csr_arrays_feed_the_in_place_sweep(self, domain_system):
        L = domain_system.L
        plan = build_compiled_plan(L, schedule="sequential")
        ptr, idx = plan.row_ptr, plan.idx
        assert ptr.dtype == idx.dtype  # csr_matvec takes one index type
        assert ptr[0] == 0 and ptr[-1] == len(idx) == len(plan.vals)
        assert np.all(np.diff(ptr) >= 0)
        # the aliased sweep reads only rows it has already finished
        row_of = np.repeat(np.arange(L.n_rows), np.diff(ptr))
        assert np.all(idx < row_of)
        assert plan.coeff_nnz == L.nnz
        assert plan.nbytes == sum(
            a.nbytes for a in (plan.inv_diag, ptr, idx, plan.vals)
        )
        assert len(plan.rows) == len(plan.level_ptr) == 0

    def test_three_row_chain_is_substitution_not_one_jacobi_step(self):
        # x = [1, -1, 1] needs row 2 to read row 1's finished answer; a
        # sweep that read a copy of its input would leave x[2] == 0
        L = dense_to_csr(
            np.array([[1.0, 0, 0], [1.0, 1.0, 0], [0, 1.0, 1.0]])
        )
        plan = build_compiled_plan(L, schedule="sequential")
        e0 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(plan.solve(e0), [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(
            plan.solve_many(np.column_stack([e0, 2 * e0])),
            [[1.0, 2.0], [-1.0, -2.0], [1.0, 2.0]],
        )

    def test_repeated_solves_hold_no_memory(self):
        # SciPy's SuperLU gstrs kept ~100 B per call in a per-thread
        # registry until the thread exited (~440 KiB over this loop)
        import tracemalloc

        plan = build_compiled_plan(generate("chain", 200, seed=13))
        b = np.ones(200)
        plan.solve(b)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5000):
                plan.solve(b)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024

    def test_nbytes_and_coeff_nnz_come_from_arrays(
        self, domain_system, schedule
    ):
        from dataclasses import fields

        L = domain_system.L
        plan = build_compiled_plan(L, schedule=schedule)
        values = [getattr(plan, f.name) for f in fields(plan)]
        assert all(isinstance(v, (np.ndarray, int, str)) for v in values)
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert plan.nbytes == sum(a.nbytes for a in arrays)
        assert plan.coeff_nnz == L.nnz
        assert plan.n_rows == L.n_rows


class TestFallback:
    """What the serve tier's fallback ladder relies on: the solver
    interface reports the variant it ran (a failed sweep is
    ``test_engine.py::TestCompiledLane::test_failed_sweep_is_quarantined``)."""

    def test_solver_extra_reports_schedule(self, domain_system, schedule):
        system = domain_system
        solver = CompiledFusedSolver(schedule=schedule)
        result = solver.solve(system.L, system.b, device=SIM_SMALL)
        assert result.extra["schedule"] == schedule
        assert result.extra["base_levels"] >= result.extra["n_levels"]
        np.testing.assert_allclose(result.x, system.x_true, **TOL)


class TestLaneSelection:
    def test_pick_schedule_needs_deep_and_fine(self):
        from repro.analysis import extract_features

        deep = extract_features(generate("chain", 200, seed=0))
        wide = extract_features(generate("graph", 400, seed=0))
        assert deep.n_levels >= 64
        assert pick_schedule(deep) == "sequential"
        assert pick_schedule(wide) == "level"
