"""SpTRSV solver implementations.

Every algorithm the paper discusses is implemented here behind one
interface (:class:`~repro.solvers.base.SpTRSVSolver`):

===============================  =========================================
Solver                           Paper reference
===============================  =========================================
:class:`SerialReferenceSolver`   Algorithm 1 (basic SpTRSV, host)
:class:`ScipyReferenceSolver`    external correctness oracle
:class:`LevelSetSolver`          Algorithm 2 + preprocessing (Section 2.2)
:class:`SyncFreeSolver`          Algorithm 3, warp-level (Section 2.3)
:class:`CuSparseProxySolver`     Section 2.4 black-box model
:class:`NaiveThreadSolver`       Section 3.3, Challenge 1 (deadlocks!)
:class:`TwoPhaseCapelliniSolver` Algorithm 4 (Section 4.2)
:class:`WritingFirstCapelliniSolver`  Algorithm 5 (Section 4.3)
:class:`AdaptiveCapelliniSolver` Section 4.4 warp/thread fusion
===============================  =========================================

plus :func:`select_solver`, the granularity-driven auto-selection the
paper's Figure 6 motivates.
"""

from repro.solvers.base import PreprocessInfo, SolveResult, SpTRSVSolver
from repro.solvers.reference import ScipyReferenceSolver, SerialReferenceSolver
from repro.solvers.levelset import LevelSetSolver
from repro.solvers.syncfree import SyncFreeSolver
from repro.solvers.syncfree_csc import SyncFreeCSCSolver
from repro.solvers.capellini import (
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.solvers.naive_thread import NaiveThreadSolver
from repro.solvers.cusparse_proxy import CuSparseProxySolver
from repro.solvers.adaptive import AdaptiveCapelliniSolver
from repro.solvers.select import (
    ALL_SIMULATED_SOLVERS,
    FALLBACK_LADDER,
    select_solver,
    solver_chain,
)
from repro.solvers.upper import is_upper_triangular, reverse_matrix, solve_upper
from repro.solvers.compiled import (
    CompiledFusedSolver,
    CompiledPlan,
    build_compiled_plan,
    pick_schedule,
)
from repro.solvers.multirhs import (
    MultiRHSResult,
    capellini_sptrsm,
    serial_sptrsm,
)

__all__ = [
    "PreprocessInfo",
    "SolveResult",
    "SpTRSVSolver",
    "SerialReferenceSolver",
    "ScipyReferenceSolver",
    "LevelSetSolver",
    "SyncFreeSolver",
    "SyncFreeCSCSolver",
    "CuSparseProxySolver",
    "NaiveThreadSolver",
    "TwoPhaseCapelliniSolver",
    "WritingFirstCapelliniSolver",
    "AdaptiveCapelliniSolver",
    "select_solver",
    "solver_chain",
    "ALL_SIMULATED_SOLVERS",
    "FALLBACK_LADDER",
    "is_upper_triangular",
    "reverse_matrix",
    "solve_upper",
    "CompiledFusedSolver",
    "CompiledPlan",
    "build_compiled_plan",
    "pick_schedule",
    "MultiRHSResult",
    "capellini_sptrsm",
    "serial_sptrsm",
]
