"""Bench: merged vs level schedule of the fast-lane plan on deep matrices.

The merged schedule exists for structures where per-level dispatch
dominates: thousands of skinny levels, each a handful of rows.  This
bench builds the two deep cases it targets —

* ``circuit-deep`` — a rail-dominated circuit factor
  (``rail_prob=0.02, local_window=2, rail_count=4``), ~2.5k levels at
  the default 16k rows;
* ``chain`` — the degenerate deep path graph, one level per row —

verifies the level-set depth is actually >= 1000 (a shallow matrix
here means the generator drifted and the bench is measuring nothing),
then times single-RHS solves through the ``schedule="level"`` and
``schedule="merged"`` variants of
:class:`~repro.solvers.compiled.CompiledPlan`
(best-of-``REPRO_BENCH_COMPILED_REPEATS``).  Acceptance: the merged
variant clears **5x** over the level variant on every deep case with
residuals <= 1e-10 against the manufactured solution, on whichever
backend is present (the numpy fallback must clear the bar on its own —
numba is a bonus, not a prerequisite).  The ``host`` keys of the
artifact name the level variant, the per-level plan the host lane ran
before the two plan types were folded into one.  Artifact:
``benchmarks/_output/compiled_vs_host.json`` (stable keys/ordering),
fed to CI's regression-sentinel job.

Scale with ``REPRO_BENCH_COMPILED_ROWS`` /
``REPRO_BENCH_COMPILED_REPEATS``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.datasets import generate
from repro.solvers.compiled import HAVE_NUMBA, build_compiled_plan
from repro.sparse import lower_triangular_system

N_ROWS = int(os.environ.get("REPRO_BENCH_COMPILED_ROWS", "16000"))
REPEATS = int(os.environ.get("REPRO_BENCH_COMPILED_REPEATS", "5"))
#: Acceptance floor: merged-variant speedup over the level variant.
SPEEDUP_FLOOR = 5.0
#: A "deep" case must actually be deep or the bench measures nothing.
MIN_LEVELS = 1000

#: The deep cases the merged schedule targets.  Wide-shallow domains
#: (graph, road, social) are deliberately absent: the merge rule keeps
#: those on the level schedule, and their speedup here is ~1x by design.
DEEP_CASES = (
    (
        "circuit-deep",
        lambda n: generate(
            "circuit", n, 0, rail_prob=0.02, local_window=2, rail_count=4
        ),
    ),
    ("chain", lambda n: generate("chain", n, 0)),
)


def _best_of(fn, repeats: int) -> float:
    fn()  # warmup: JIT compilation / cache fills stay off the clock
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compiled_session():
    out = {}
    for name, make in DEEP_CASES:
        L = make(N_ROWS)
        system = lower_triangular_system(L)
        host_plan = build_compiled_plan(system.L, schedule="level")
        compiled = build_compiled_plan(system.L, schedule="merged")

        host_s = _best_of(lambda: host_plan.solve(system.b), REPEATS)
        comp_s = _best_of(lambda: compiled.solve(system.b), REPEATS)
        residual = float(
            np.max(np.abs(compiled.solve(system.b) - system.x_true))
        )
        out[name] = {
            "n_rows": system.L.n_rows,
            "nnz": int(system.L.nnz),
            "base_levels": compiled.base_levels,
            "merged_levels": compiled.n_levels,
            "redundant_nnz": compiled.redundant_nnz,
            "backend": compiled.backend,
            "host_s": host_s,
            "compiled_s": comp_s,
            "speedup": host_s / comp_s,
            "residual": residual,
        }
    return out


def test_compiled_vs_host(benchmark, output_dir):
    """The merged schedule must clear 5x over the level schedule on
    every deep case, with residuals <= 1e-10."""
    results = run_once(benchmark, _compiled_session)

    doc = {
        "config": {
            "n_rows": N_ROWS,
            "repeats": REPEATS,
            "have_numba": HAVE_NUMBA,
            "schedule": "merged",
        },
        "cases": {},
    }
    lines = ["merged vs level schedule of the fast-lane plan", ""]
    for name, r in results.items():
        doc["cases"][name] = {
            "schedule": {
                "base_levels": r["base_levels"],
                "merged_levels": r["merged_levels"],
                "redundant_nnz": r["redundant_nnz"],
            },
            "measured": {
                "backend": r["backend"],
                "host_ms": round(r["host_s"] * 1e3, 3),
                "compiled_ms": round(r["compiled_s"] * 1e3, 3),
                "speedup": round(r["speedup"], 1),
                "residual": f"{r['residual']:.3e}",
            },
        }
        lines.append(
            f"{name:>13}: {r['base_levels']:>6} -> "
            f"{r['merged_levels']:>4} levels | "
            f"host {r['host_s'] * 1e3:8.2f} ms | "
            f"compiled[{r['backend']}] {r['compiled_s'] * 1e3:7.2f} ms | "
            f"{r['speedup']:5.1f}x | resid {r['residual']:.1e}"
        )

        # proof obligations (ISSUE 9 acceptance criteria)
        assert r["base_levels"] >= MIN_LEVELS, (
            f"{name}: only {r['base_levels']} levels — not a deep case"
        )
        assert r["merged_levels"] < r["base_levels"]
        assert r["residual"] <= 1e-10
        assert r["speedup"] >= SPEEDUP_FLOOR, (
            f"{name}: merged only {r['speedup']:.1f}x over level"
        )

    report = "\n".join(lines)
    print()
    print(report)
    (output_dir / "compiled_lanes.txt").write_text(report + "\n")
    (output_dir / "compiled_vs_host.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )

    benchmark.extra_info["speedups"] = {
        name: round(r["speedup"], 1) for name, r in results.items()
    }
    benchmark.extra_info["backend"] = (
        "numba" if HAVE_NUMBA else "numpy"
    )
