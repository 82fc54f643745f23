"""Cross-module integration tests: the full pipeline on one matrix."""

import numpy as np

from repro.analysis import compute_levels, extract_features
from repro.datasets import generate
from repro.gpu.device import SIM_SMALL
from repro.solvers import (
    ALL_SIMULATED_SOLVERS,
    SerialReferenceSolver,
    select_solver,
)
from repro.sparse import (
    lower_triangular_system,
    read_matrix_market,
    write_matrix_market,
)


class TestFullPipeline:
    """generate -> persist -> reload -> analyze -> solve -> verify."""

    def test_roundtrip_pipeline(self, tmp_path):
        L = generate("circuit", 500, seed=42)
        path = tmp_path / "circuit.mtx"
        write_matrix_market(L, path)
        L2 = read_matrix_market(path)
        assert np.allclose(L2.values, L.values)

        features = extract_features(L2)
        assert features.n_rows == 500

        system = lower_triangular_system(L2)
        solver = select_solver(features)
        result = solver.solve(system.L, system.b, device=SIM_SMALL)
        np.testing.assert_allclose(result.x, system.x_true, rtol=1e-9)

    def test_all_solvers_agree_pairwise(self):
        """Every simulated solver and the serial reference produce the
        same solution vector on one shared system."""
        L = generate("combinatorial", 300, seed=3)
        system = lower_triangular_system(L)
        reference = SerialReferenceSolver().solve(system.L, system.b)
        for solver_cls in ALL_SIMULATED_SOLVERS:
            result = solver_cls().solve(system.L, system.b, device=SIM_SMALL)
            np.testing.assert_allclose(
                result.x, reference.x, rtol=1e-9, atol=1e-12,
                err_msg=solver_cls.__name__,
            )

    def test_level_schedule_consistency_with_solve_order(self):
        """Solving level-by-level respects every dependency: a solver
        that consumed a component before its level would be wrong, so
        exact agreement already implies it — this asserts the schedule
        invariant directly as well."""
        L = generate("graph", 400, seed=8)
        sched = compute_levels(L)
        seen = np.zeros(L.n_rows, dtype=bool)
        for k in range(sched.n_levels):
            rows = sched.rows_in_level(k)
            for i in rows:
                cols, _ = L.row(int(i))
                deps = cols[cols < i]
                assert seen[deps].all() if deps.size else True
            seen[rows] = True
        assert seen.all()
