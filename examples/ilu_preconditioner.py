"""The full pipeline the paper's introduction motivates: ILU(0)
preconditioning of an iterative solver, with the triangular solves done
by this library.

Pipeline:

1. assemble a general sparse system ``A x = b`` (convection-diffusion
   style stencil);
2. factor ``A ≈ L U`` with ILU(0) (`repro.factorization`);
3. run preconditioned Richardson iteration, applying ``(LU)^{-1}`` via
   two triangular solves per step — through the fused fast-lane solver
   (production path) and once through the simulated Capellini kernel to
   show they agree.

Run:  python examples/ilu_preconditioner.py
"""

import numpy as np

from repro.factorization import ilu0
from repro.gpu import SIM_SMALL
from repro.solvers import (
    CompiledFusedSolver,
    WritingFirstCapelliniSolver,
    solve_upper,
)
from repro.sparse import COOMatrix, coo_to_csr


def convection_diffusion(nx: int = 24) -> "tuple":
    """5-point convection-diffusion operator on an nx*nx grid."""
    n = nx * nx
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for iy in range(nx):
        for ix in range(nx):
            i = iy * nx + ix
            add(i, i, 4.2)
            if ix > 0:
                add(i, i - 1, -1.1)   # convection skews west
            if ix < nx - 1:
                add(i, i + 1, -0.9)
            if iy > 0:
                add(i, i - nx, -1.0)
            if iy < nx - 1:
                add(i, i + nx, -1.0)
    A = coo_to_csr(COOMatrix(n, n, np.array(rows), np.array(cols),
                             np.array(vals)))
    x_true = np.random.default_rng(0).uniform(-1, 1, n)
    return A, A.matvec(x_true), x_true


def main() -> None:
    A, b, x_true = convection_diffusion()
    print(f"system: n={A.n_rows}, nnz={A.nnz}")

    factors = ilu0(A)
    print(f"ILU(0): pattern residual = "
          f"{factors.residual_pattern_norm(A):.2e} (exact on A's pattern)")

    # --- preconditioned Richardson with host-vectorized solves --------
    host = CompiledFusedSolver(schedule="level")

    def apply_preconditioner(r):
        y = host.solve(factors.L, r).x
        return solve_upper(host, factors.U, y)

    x = np.zeros(A.n_rows)
    print("\npreconditioned Richardson (host vectorized SpTRSV):")
    for it in range(1, 31):
        r = b - A.matvec(x)
        if np.linalg.norm(r) / np.linalg.norm(b) < 1e-12:
            break
        x = x + apply_preconditioner(r)
        if it <= 5 or it % 5 == 0:
            err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
            print(f"  iter {it:2d}: rel. error = {err:9.3e}")
    final = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    print(f"converged to {final:.3e} in {it} iterations")

    # --- cross-check one application on the simulated GPU -------------
    r0 = b.copy()
    host_apply = apply_preconditioner(r0)
    sim_apply = factors.apply(
        r0, solver=WritingFirstCapelliniSolver(), device=SIM_SMALL
    )
    print(
        "\nsimulated-Capellini preconditioner application agrees with the "
        f"host path: {np.allclose(sim_apply, host_apply, rtol=1e-9)}"
    )


if __name__ == "__main__":
    main()
