"""Reference solver tests (Algorithm 1 + scipy oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotTriangularError, SolverError
from repro.gpu.device import SIM_SMALL
from repro.solvers.base import sptrsv_flops
from repro.solvers.reference import (
    ScipyReferenceSolver,
    SerialReferenceSolver,
    serial_sptrsv,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import build_csr, random_unit_lower
from tests.solvers.conftest import assert_solves_exactly


class TestSerial:
    def test_zoo(self, zoo_system):
        _name, system = zoo_system
        assert_solves_exactly(SerialReferenceSolver(), system, SIM_SMALL)

    def test_agrees_with_scipy(self):
        L = random_unit_lower(150, 0.08, seed=21)
        system = lower_triangular_system(L)
        ours = SerialReferenceSolver().solve(L, system.b)
        scipy_x = ScipyReferenceSolver().solve(L, system.b)
        np.testing.assert_allclose(ours.x, scipy_x.x, rtol=1e-12)

    def test_non_unit_diagonal(self):
        L = build_csr({(0, 0): 2.0, (1, 0): 1.0, (1, 1): 4.0}, 2)
        x = serial_sptrsv(L, np.array([2.0, 9.0]))
        assert x.tolist() == [1.0, 2.0]

    def test_result_metadata(self, fig1_system):
        r = SerialReferenceSolver().solve(fig1_system.L, fig1_system.b)
        assert r.solver_name == "Serial"
        assert r.exec_ms > 0
        assert r.stats is None
        assert r.preprocess.modeled_ms == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 50),
        density=st.floats(0.0, 0.4),
        seed=st.integers(0, 9_999),
    )
    def test_recovers_manufactured_solution_property(self, n, density, seed):
        L = random_unit_lower(n, density, seed=seed)
        system = lower_triangular_system(L, rng=np.random.default_rng(seed))
        x = serial_sptrsv(L, system.b)
        np.testing.assert_allclose(x, system.x_true, rtol=1e-9)


class TestValidationLayer:
    def test_wrong_b_shape(self, fig1):
        with pytest.raises(SolverError, match="shape"):
            SerialReferenceSolver().solve(fig1, np.zeros(5))

    def test_non_triangular_rejected(self):
        m = build_csr({(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}, 2)
        with pytest.raises(NotTriangularError):
            SerialReferenceSolver().solve(m, np.zeros(2))


class TestFlops:
    def test_flop_count(self, fig1):
        assert sptrsv_flops(fig1) == 32  # 2 * nnz

    def test_gflops_requires_positive_time(self, fig1_system):
        from repro.solvers.base import PreprocessInfo, SolveResult

        r = SolveResult(
            x=np.zeros(8), solver_name="x", exec_ms=0.0,
            preprocess=PreprocessInfo(description="none"),
        )
        with pytest.raises(SolverError):
            r.gflops(fig1_system.L)

    def test_bandwidth_zero_without_stats(self, fig1_system):
        r = SerialReferenceSolver().solve(fig1_system.L, fig1_system.b)
        assert r.bandwidth_gbps() == 0.0
