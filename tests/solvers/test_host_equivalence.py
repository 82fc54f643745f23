"""Host fast-lane equivalence suite.

The :class:`~repro.solvers.compiled.CompiledPlan` is what the serving
engine's host lane runs in production mode, in either schedule variant,
while the cycle-level simulator solvers are the measurement instrument.
The two must agree bit-for-bit in substance: every synthetic domain,
both triangular orientations (upper via anti-transpose reversal), and
every right-hand-side layout the multi-RHS API accepts (1-D, 2-D,
Fortran-ordered) — each case checked on both variants.

Matrices are kept small (n = 80) because each comparison runs the SIMT
simulator, which is orders of magnitude slower than the host lane — the
point of this suite is agreement, not throughput.
"""

import numpy as np
import pytest

from repro.datasets import DOMAINS, generate
from repro.gpu.device import SIM_SMALL
from repro.solvers import WritingFirstCapelliniSolver
from repro.solvers.compiled import (
    COMPILED_SCHEDULES,
    CompiledFusedSolver,
    build_compiled_plan,
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


class TestLower:
    def test_single_rhs_matches_writing_first(self, domain_system):
        system = domain_system
        r_sim = WritingFirstCapelliniSolver().solve(
            system.L, system.b, device=SIM_SMALL
        )
        for schedule in COMPILED_SCHEDULES:
            plan = build_compiled_plan(system.L, schedule=schedule)
            x_host = plan.solve(system.b)
            np.testing.assert_allclose(x_host, r_sim.x, **TOL)
            assert np.max(np.abs(x_host - system.x_true)) <= 1e-10

    def test_multi_rhs_matches_capellini_sptrsm(self, domain_system):
        system = domain_system
        B = np.column_stack(
            [(r + 1.0) * system.b for r in range(3)]
        )
        r_sim = capellini_sptrsm(system.L, B, device=SIM_SMALL)
        for schedule in COMPILED_SCHEDULES:
            plan = build_compiled_plan(system.L, schedule=schedule)
            np.testing.assert_allclose(plan.solve_many(B), r_sim.X, **TOL)


class TestUpper:
    def test_upper_matches_simulator(self, domain_system):
        system = domain_system
        U = reverse_matrix(system.L)
        x_sim = solve_upper(
            WritingFirstCapelliniSolver(), U, system.b, device=SIM_SMALL
        )
        for schedule in COMPILED_SCHEDULES:
            x_host = solve_upper(
                CompiledFusedSolver(schedule=schedule), U, system.b,
                device=SIM_SMALL,
            )
            np.testing.assert_allclose(x_host, x_sim, **TOL)


class TestRHSLayouts:
    def test_1d_2d_and_fortran_order_agree(self, domain_system):
        system = domain_system
        B = np.column_stack([system.b, -2.0 * system.b])
        for schedule in COMPILED_SCHEDULES:
            plan = build_compiled_plan(system.L, schedule=schedule)
            x_1d = plan.solve(system.b)
            X_c = plan.solve_many(B)
            X_f = plan.solve_many(np.asfortranarray(B))

            np.testing.assert_allclose(X_c[:, 0], x_1d, rtol=1e-12)
            np.testing.assert_allclose(X_f, X_c, rtol=1e-12)
            assert X_f.flags["C_CONTIGUOUS"]
            np.testing.assert_allclose(
                plan.solve_many(system.b)[:, 0], x_1d, rtol=1e-12
            )
