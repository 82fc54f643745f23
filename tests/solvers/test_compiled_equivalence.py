"""Compiled fast-lane equivalence suite.

Mirror of ``test_host_equivalence.py`` for the
:class:`~repro.solvers.compiled.CompiledPlan`: the fast-lane plan must
agree with the cycle-level simulator on every synthetic domain, both
triangular orientations, and every right-hand-side layout — under both
the level-scheduled numpy executor (``schedule="level"``) and the
SuperLU sweep (``schedule="sequential"``).

Matrices are kept small (n = 80) because each comparison runs the SIMT
simulator — the point is agreement, not throughput.
"""

import numpy as np
import pytest

from repro.datasets import DOMAINS, generate
from repro.gpu.device import SIM_SMALL
from repro.errors import SolverError
from repro.solvers import WritingFirstCapelliniSolver
from repro.solvers.compiled import (
    COMPILED_SCHEDULES,
    CompiledFusedSolver,
    build_compiled_plan,
    pick_schedule,
    prefers_compiled,
)
from repro.solvers.multirhs import capellini_sptrsm
from repro.solvers.upper import reverse_matrix, solve_upper
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


class TestFallback:
    """What the serve tier's fallback ladder relies on: a factor the
    sequential kernel cannot serve in natural order without fill is
    refused with :class:`SolverError` (the error the ladder absorbs),
    and the solver interface reports the variant it ran."""

    @staticmethod
    def _patch_splu(monkeypatch, doctor):
        import repro.solvers.compiled as compiled
        from types import SimpleNamespace

        real = compiled.splu

        def fake(A, **kw):
            f = real(A, **kw)
            fields = dict(
                perm_r=f.perm_r, perm_c=f.perm_c, L=f.L, U=f.U,
                shape=f.shape, solve=f.solve,
            )
            doctor(fields)
            return SimpleNamespace(**fields)

        monkeypatch.setattr(compiled, "splu", fake)

    def test_permuted_factor_is_refused(self, monkeypatch):
        self._patch_splu(
            monkeypatch,
            lambda f: f.update(perm_r=f["perm_r"][::-1].copy()),
        )
        with pytest.raises(SolverError, match="natural order"):
            build_compiled_plan(generate("chain", N, seed=13))

    def test_factor_with_fill_is_refused(self, monkeypatch):
        def add_fill(f):
            U = f["U"].tolil()
            U[0, N - 1] = 1.0
            f["U"] = U.tocsc()

        self._patch_splu(monkeypatch, add_fill)
        with pytest.raises(SolverError, match="fill"):
            build_compiled_plan(generate("chain", N, seed=13))
        # the level variant needs no factor
        assert build_compiled_plan(
            generate("chain", N, seed=13), schedule="level"
        ).schedule == "level"

    def test_solver_extra_reports_schedule(self, domain_system, schedule):
        system = domain_system
        solver = CompiledFusedSolver(schedule=schedule)
        result = solver.solve(system.L, system.b, device=SIM_SMALL)
        assert result.extra["schedule"] == schedule
        assert result.extra["base_levels"] >= result.extra["n_levels"]
        np.testing.assert_allclose(result.x, system.x_true, **TOL)


class TestLaneSelection:
    def test_prefers_compiled_needs_deep_and_fine(self):
        from repro.analysis import extract_features

        deep = extract_features(generate("chain", 200, seed=0))
        wide = extract_features(generate("graph", 400, seed=0))
        assert prefers_compiled(deep)
        assert deep.n_levels >= 64
        assert not prefers_compiled(wide)
        assert pick_schedule(deep) == "sequential"
        assert pick_schedule(wide) == "level"
