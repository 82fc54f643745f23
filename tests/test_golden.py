"""Golden-value regression tests on the paper's Figure 1 example.

These pin exact numeric outputs (not just invariants), so a silent
change in solve order, value handling, or the Figure 1 fixture shows up
immediately.
"""

import numpy as np

from repro.gpu.device import SIM_TINY
from repro.solvers import WritingFirstCapelliniSolver
from repro.solvers.reference import serial_sptrsv

from tests.conftest import fig1_matrix


class TestGoldenFig1:
    def test_solution_for_unit_rhs(self):
        """L x = 1 on the Figure 1 matrix, forward substitution by hand:

        x0 = 1, x1 = 1,
        x2 = 1 - 0.5*x1                   = 0.5
        x3 = 1 - 0.25*x1 - 0.25*x2        = 0.625
        x4 = 1 - 0.5*x0 - 0.25*x1         = 0.25
        x5 = 1 - 0.5*x2                   = 0.75
        x6 = 1 - 0.5*x3                   = 0.6875
        x7 = 1 - 0.5*x5                   = 0.625
        """
        L = fig1_matrix()
        x = serial_sptrsv(L, np.ones(8))
        expected = [1.0, 1.0, 0.5, 0.625, 0.25, 0.75, 0.6875, 0.625]
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-15)

    def test_simulated_solver_exact_same_values(self):
        L = fig1_matrix()
        r = WritingFirstCapelliniSolver().solve(L, np.ones(8),
                                                device=SIM_TINY)
        expected = [1.0, 1.0, 0.5, 0.625, 0.25, 0.75, 0.6875, 0.625]
        np.testing.assert_allclose(r.x, expected, rtol=0, atol=1e-15)

    def test_matrix_pattern_is_stable(self):
        L = fig1_matrix()
        assert L.nnz == 16
        assert L.row_ptr.tolist() == [0, 1, 2, 4, 7, 10, 12, 14, 16]
        assert L.col_idx.tolist() == [
            0, 1, 1, 2, 1, 2, 3, 0, 1, 4, 2, 5, 3, 6, 5, 7,
        ]
