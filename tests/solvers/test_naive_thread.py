"""The naive thread-level kernel: Challenge 1 deadlock demonstration."""

import pytest

from repro.datasets.synthetic import chain, diagonal
from repro.errors import DeadlockError
from repro.gpu.device import SIM_SMALL, SIM_TINY
from repro.solvers.naive_thread import (
    NaiveThreadSolver,
    has_intra_warp_dependency,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import build_csr, random_unit_lower
from tests.solvers.conftest import assert_solves_exactly


class TestPredicate:
    def test_chain_has_intra_warp_deps(self):
        assert has_intra_warp_dependency(chain(64), warp_size=32)

    def test_diagonal_has_none(self):
        assert not has_intra_warp_dependency(diagonal(64), warp_size=32)

    def test_warp_aligned_deps_only(self):
        # row 32 depends on row 0: different warps at ws=32 -> safe
        L = build_csr({(0, 0): 1.0, **{(i, i): 1.0 for i in range(1, 33)},
                       (32, 0): 0.5}, 33)
        assert not has_intra_warp_dependency(L, warp_size=32)
        # ...but the same edge IS intra-warp at ws=64
        assert has_intra_warp_dependency(L, warp_size=64)


class TestDeadlock:
    def test_deadlocks_on_chain(self):
        system = lower_triangular_system(chain(64))
        with pytest.raises(DeadlockError):
            NaiveThreadSolver().solve(system.L, system.b, device=SIM_SMALL)

    def test_deadlocks_on_paper_figure1(self, fig1_system):
        # at warp size 3, row 2's dependency on row 1 is intra-warp
        assert has_intra_warp_dependency(fig1_system.L, warp_size=3)
        with pytest.raises(DeadlockError):
            NaiveThreadSolver().solve(
                fig1_system.L, fig1_system.b, device=SIM_TINY
            )

    def test_succeeds_without_intra_warp_deps(self):
        system = lower_triangular_system(diagonal(64))
        assert_solves_exactly(NaiveThreadSolver(), system, SIM_SMALL)

    def test_succeeds_on_cross_warp_only_deps(self):
        # every dependency jumps a full warp: ws=32 -> all external
        n = 96
        entries = {(i, i): 1.0 for i in range(n)}
        for i in range(32, n):
            entries[(i, i - 32)] = 0.5
        L = build_csr(entries, n)
        assert not has_intra_warp_dependency(L, warp_size=32)
        system = lower_triangular_system(L)
        assert_solves_exactly(NaiveThreadSolver(), system, SIM_SMALL)

    def test_deadlock_iff_predicate(self):
        """The predicate exactly characterizes the deadlock (sampled)."""
        for seed in range(6):
            L = random_unit_lower(48, 0.05, seed=seed)
            system = lower_triangular_system(L)
            expects_deadlock = has_intra_warp_dependency(L, 32)
            if expects_deadlock:
                with pytest.raises(DeadlockError):
                    NaiveThreadSolver().solve(
                        system.L, system.b, device=SIM_SMALL
                    )
            else:  # pragma: no cover - depends on sampling
                assert_solves_exactly(NaiveThreadSolver(), system, SIM_SMALL)
