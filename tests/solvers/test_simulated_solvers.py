"""Correctness of every simulated solver over the structure zoo.

The central guarantee: every kernel, on every structure, on devices with
different warp sizes, reproduces the manufactured exact solution.
"""

import pytest

from repro.gpu.device import SIM_SMALL, SIM_TINY
from repro.solvers import (
    AdaptiveCapelliniSolver,
    CuSparseProxySolver,
    LevelSetSolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)

from tests.solvers.conftest import assert_solves_exactly

SIM_SOLVERS = [
    LevelSetSolver,
    CuSparseProxySolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
    AdaptiveCapelliniSolver,
]


@pytest.mark.parametrize("solver_cls", SIM_SOLVERS)
class TestZooCorrectness:
    def test_solves_zoo_on_sim_small(self, solver_cls, zoo_system):
        _name, system = zoo_system
        result = assert_solves_exactly(solver_cls(), system, SIM_SMALL)
        assert result.stats is not None
        assert result.exec_ms > 0

    def test_solves_zoo_on_tiny_warp3_device(self, solver_cls, zoo_system):
        """The paper's Figure 2 device: 2 warps of 3 threads.

        Odd warp sizes exercise every intra-warp boundary case (the
        two-phase ``warp_begin`` split, the adaptive block planner...).
        """
        _name, system = zoo_system
        assert_solves_exactly(solver_cls(), system, SIM_TINY)


@pytest.mark.parametrize("solver_cls", SIM_SOLVERS)
def test_stats_are_consistent(solver_cls, fig1_system):
    r = solver_cls().solve(fig1_system.L, fig1_system.b, device=SIM_SMALL)
    s = r.stats
    assert s.cycles > 0
    assert s.warp_instructions > 0
    assert 0.0 <= s.stall_fraction <= 1.0
    assert 0.0 < s.lane_utilization <= 1.0
    assert s.dram_bytes > 0
    assert r.exec_ms == pytest.approx(SIM_SMALL.cycles_to_ms(s.cycles))


@pytest.mark.parametrize("solver_cls", SIM_SOLVERS)
def test_publishing_is_fenced(solver_cls, fig1_system):
    """Every flag-publishing kernel must fence between the value store
    and the flag store (Algorithm 3 line 21 / Algorithm 5 line 15)."""
    r = solver_cls().solve(fig1_system.L, fig1_system.b, device=SIM_SMALL)
    if solver_cls in (LevelSetSolver, CuSparseProxySolver):
        return  # no flags, no fences needed
    assert r.stats.fences >= fig1_system.n
