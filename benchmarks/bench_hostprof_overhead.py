"""Bench: wall-clock overhead of the host-lane profiler.

Guards the tentpole budget of ``repro.obs.hostprof``: attaching a
:class:`HostProfiler` to a :class:`CompiledPlan` solve must cost less
than 5% wall time, across batch widths, and must not change a single
bit of the answer.  The profiler adds two ``perf_counter`` reads per
timed numpy segment (three segments per level), so its cost
is O(levels) while the work is O(nnz × k) — the overhead fraction
*shrinks* as the batch widens, which the per-width ``extra_info``
ratios make visible.

Timing protocol: *interleaved* best-of-N — every repeat times the
bare loop and the profiled loop back-to-back, and each path keeps its
own best.  Interleaving matters: timing all bare repeats first and
all profiled repeats after lets slow system drift (frequency scaling,
a neighbour landing on the core) masquerade as profiler overhead.
Best-of rather than median because at millisecond solve times on
shared CI boxes the minimum is the least-contended estimate of each
path's true cost.  The 5% budget is then checked against an envelope
(budget + noise margin), not a single sample.  Each width also records
``profiler_us_per_solve``, the profiler's own microseconds per solve,
so a profiler cost that holds still is told apart from a kernel that
got faster under it.

Writes ``benchmarks/_output/hostprof_overhead.json``, holding this run's
header and only the widths this run measured.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.datasets.domains import circuit
from repro.obs import HostProfiler, profiling
from repro.solvers.compiled import build_compiled_plan
from repro.sparse.triangular import lower_triangular_system

#: Matrix size and repeat count (override for a sterner run).  The
#: profiler's cost is O(levels) while the solve is O(nnz x k), so the
#: budget is stated — and checked — at a production-shaped size: wide
#: levels with real numpy work per level, not toy matrices whose level
#: steps are microseconds of fixed interpreter cost either way.
N_ROWS = int(os.environ.get("REPRO_BENCH_HOSTPROF_ROWS", "20000"))
REPEATS = int(os.environ.get("REPRO_BENCH_HOSTPROF_REPEATS", "20"))

#: The contract under test.
OVERHEAD_BUDGET = 0.05
#: Assertion envelope: best-of-N still jitters on shared machines, so
#: the hard failure threshold is budget + margin; the recorded JSON
#: carries the raw ratio for trend-watching.
NOISE_MARGIN = 0.05

BATCH_WIDTHS = (1, 4, 16)


@pytest.fixture(scope="module")
def plan_and_system():
    system = lower_triangular_system(
        circuit(N_ROWS, seed=17, avg_nnz_per_row=3.5, rail_prob=0.85)
    )
    plan = build_compiled_plan(system.L, schedule="level")
    return plan, system


@pytest.fixture(scope="module")
def artifact(plan_and_system):
    """This run's artifact: its header, and the widths it measures as
    they finish — never a document left by an earlier run."""
    plan, system = plan_and_system
    return {
        "budget": OVERHEAD_BUDGET,
        "noise_margin": NOISE_MARGIN,
        "n_rows": system.L.n_rows,
        "n_levels": plan.n_levels,
        "repeats": REPEATS,
        "widths": {},
    }


def _interleaved_best(repeats, bare_fn, profiled_fn):
    """Best-of-N for both paths, alternating bare/profiled each repeat.

    Back-to-back timing means any environmental drift hits both paths
    equally instead of being attributed to whichever ran second.
    """
    clock = time.perf_counter
    best_bare = best_profiled = float("inf")
    for _ in range(repeats):
        t0 = clock()
        bare_fn()
        best_bare = min(best_bare, clock() - t0)
        t0 = clock()
        profiled_fn()
        best_profiled = min(best_profiled, clock() - t0)
    return best_bare, best_profiled


@pytest.mark.parametrize("width", BATCH_WIDTHS)
def test_hostprof_overhead(
    benchmark, output_dir, plan_and_system, artifact, width
):
    plan, system = plan_and_system
    B = np.column_stack(
        [(r + 1.0) * system.b for r in range(width)]
    )

    # answers first: profiled must be bit-identical to unprofiled
    bare_X = plan.solve_many(B)
    profiler = HostProfiler()
    with profiling(profiler):
        profiled_X = plan.solve_many(B)
    assert np.array_equal(bare_X, profiled_X)
    assert len(profiler.launches) == 1

    # both paths are warm (the bit-identity check above ran each once);
    # interleave-measure best-of-N inside a single benchmark round
    def bare_solve():
        plan.solve_many(B)

    def profiled_solve():
        with profiling(HostProfiler()):
            plan.solve_many(B)

    def measured():
        return _interleaved_best(REPEATS, bare_solve, profiled_solve)

    bare_s, profiled_s = benchmark.pedantic(
        measured, rounds=1, iterations=1, warmup_rounds=0
    )
    overhead = profiled_s / bare_s - 1.0 if bare_s > 0 else 0.0

    benchmark.extra_info["n_rows"] = system.L.n_rows
    benchmark.extra_info["n_levels"] = plan.n_levels
    benchmark.extra_info["batch_width"] = width
    benchmark.extra_info["bare_best_s"] = round(bare_s, 6)
    benchmark.extra_info["profiled_best_s"] = round(profiled_s, 6)
    benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
    # the absolute cost beside the ratio (see the module docstring)
    profiler_us = (profiled_s - bare_s) * 1e6
    benchmark.extra_info["profiler_us_per_solve"] = round(profiler_us, 2)

    artifact["widths"][str(width)] = {
        "bare_best_s": bare_s,
        "profiled_best_s": profiled_s,
        "overhead_fraction": overhead,
        "profiler_us_per_solve": profiler_us,
    }
    (output_dir / "hostprof_overhead.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True)
    )

    assert overhead < OVERHEAD_BUDGET + NOISE_MARGIN, (
        f"host profiler overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget (+{NOISE_MARGIN:.0%} noise margin) "
        f"at batch width {width}"
    )
