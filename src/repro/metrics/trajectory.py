"""The perf-trajectory suite: per-solver cycles + phase breakdown.

This is the measurement half of the perf-regression sentinel.  It runs
every simulator-backed solver over a small fixed matrix suite and
returns a deterministic document — simulated cycles, instruction
counts, launch counts and cycle-phase attribution per (matrix, solver)
pair.  Matrices, seeds and the simulator are all deterministic, so two
runs of the same code produce byte-identical documents; any difference
is a real behavioural change in a kernel, the scheduler or the
selection logic.

Two consumers:

* ``benchmarks/bench_trajectory.py`` writes the committed baseline
  (``BENCH_solvers.json`` at the repository root) — the trajectory of
  the repo's performance over time.
* ``repro-sptrsv regress`` (:mod:`repro.metrics.regression`) re-runs
  the suite and diffs it against that baseline with explicit
  tolerances.

Schema version 2 adds a ``compiled`` section: one entry per (matrix,
schedule variant) describing the fast lane's ``CompiledPlan``
*structure* — base and executed level counts (``merged_levels``),
coefficient counts, redundant work.  Structure only, deliberately:
these are exact integers derived from the deterministic schedule and
factor, so the sentinel can hold them to zero tolerance on any
machine.

No timestamps and no host timings on purpose: the output must be
byte-stable across machines for the diff to mean anything.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.suite import generate
from repro.gpu.device import SIM_SMALL
from repro.obs import PHASES, profile_solve
from repro.solvers import (
    LevelSetSolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.solvers.compiled import COMPILED_SCHEDULES, build_compiled_plan
from repro.sparse.triangular import lower_triangular_system

__all__ = ["MATRICES", "SOLVERS", "SCHEMA_VERSION", "run_suite"]

#: (name, domain, n_rows, seed) — one high-granularity matrix (many
#: rows per level: the paper's Writing-First sweet spot), one
#: dependency-chain-heavy KKT system, one in between.
MATRICES = (
    ("circuit-600", "circuit", 600, 3),
    ("optimization-400", "optimization", 400, 5),
    ("combinatorial-500", "combinatorial", 500, 7),
)

#: Engine-backed solvers only: host reference solvers and the cuSPARSE
#: proxy have no per-cycle schedule to attribute.
SOLVERS = (
    LevelSetSolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)

SCHEMA_VERSION = 2


class SuiteError(RuntimeError):
    """A solver produced a wrong answer while measuring the suite."""


def run_suite(matrices=MATRICES) -> dict:
    """Measure the suite; returns the trajectory document (JSON-ready)."""
    entries = []
    compiled_entries = []
    for name, domain, n_rows, seed in matrices:
        system = lower_triangular_system(generate(domain, n_rows, seed))
        for schedule in sorted(COMPILED_SCHEDULES):
            plan = build_compiled_plan(system.L, schedule=schedule)
            x = plan.solve(system.b)
            err = float(np.max(np.abs(x - system.x_true)))
            if err > 1e-8:
                raise SuiteError(
                    f"compiled[{schedule}] wrong on {name}: "
                    f"error {err:.3e}"
                )
            compiled_entries.append({
                "matrix": name,
                "schedule": schedule,
                "base_levels": plan.base_levels,
                "merged_levels": plan.n_levels,
                "coeff_nnz": plan.coeff_nnz,
                "redundant_nnz": plan.redundant_nnz,
            })
        for solver_cls in SOLVERS:
            result, prof = profile_solve(
                solver_cls(), system.L, system.b,
                device=SIM_SMALL, slices=False,
            )
            err = float(np.max(np.abs(result.x - system.x_true)))
            if err > 1e-8:
                raise SuiteError(
                    f"{solver_cls.name} wrong on {name}: error {err:.3e}"
                )
            fractions = prof.phase_fractions()
            entries.append({
                "matrix": name,
                "solver": result.solver_name,
                "sim_cycles": prof.cycles,
                "stats_cycles": result.stats.cycles,
                "instructions": result.stats.total_instructions,
                "launches": len(prof.launches),
                "phases": {p: round(fractions[p], 6) for p in PHASES},
            })
    entries.sort(key=lambda e: (e["matrix"], e["solver"]))
    compiled_entries.sort(key=lambda e: (e["matrix"], e["schedule"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "device": SIM_SMALL.name,
        "matrices": [
            {"name": n, "domain": d, "n_rows": r, "seed": s}
            for n, d, r, s in matrices
        ],
        "results": entries,
        "compiled": compiled_entries,
    }
