"""Bench: sequential vs level schedule of the fast-lane plan on deep matrices.

The sequential schedule — one in-place ``csr_matvec`` sweep, no level
barriers — exists for structures where per-level dispatch dominates:
thousands of skinny levels, each a handful of rows.  This bench builds
the two deep cases it targets —

* ``circuit-deep`` — a rail-dominated circuit factor
  (``rail_prob=0.02, local_window=2, rail_count=4``), ~2.5k levels at
  the default 16k rows;
* ``chain`` — the degenerate deep path graph, one level per row —

verifies the level-set depth is actually >= 1000 (a shallow matrix
here means the generator drifted and the bench is measuring nothing),
then times single-RHS solves through the ``schedule="level"`` and
``schedule="sequential"`` variants of
:class:`~repro.solvers.compiled.CompiledPlan`
(best-of-``REPRO_BENCH_COMPILED_REPEATS``, the timed calls
interleaved so drift hits every variant alike).  Acceptance: the
sequential variant clears **5x** over the level variant on every deep
case with residuals <= 1e-10 against the manufactured solution.

It also times the sequential plan at k = 1, 2 and 8 right-hand sides
and records ``batched_over_serial`` — ``t(k=2) / (2 t(k=1))`` and
``t(k=8) / (8 t(k=1))`` — the cost of one coalesced solve relative to
the single solves it replaces.  The serve tier coalesces concurrent
requests into such blocks, so the k = 2 ratio is gated at
**<= 1.5**: a width-2 batch may not cost much more than the two
solves it stands for.  The ``host`` keys of the
artifact name the level variant, the per-level plan the host lane ran
before the two plan types were folded into one; ``merged_levels`` is
the plan's executed step count (1 for the sequential sweep).
Artifact: ``benchmarks/_output/compiled_vs_host.json`` (stable
keys/ordering), fed to CI's regression-sentinel job.

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
from repro.solvers.compiled import build_compiled_plan
from repro.sparse import lower_triangular_system

N_ROWS = int(os.environ.get("REPRO_BENCH_COMPILED_ROWS", "16000"))
REPEATS = int(os.environ.get("REPRO_BENCH_COMPILED_REPEATS", "15"))
#: Acceptance floor: sequential-variant speedup over the level variant.
SPEEDUP_FLOOR = 5.0
#: A "deep" case must actually be deep or the bench measures nothing.
MIN_LEVELS = 1000
#: Ceiling of t(k=2) / (2 t(k=1)) on the sequential plan.
BATCHED_OVER_SERIAL_K2_MAX = 1.5
#: Block widths of the batched/serial ratios.
BATCH_WIDTHS = (2, 8)

#: The deep cases the sequential schedule targets.  Wide-shallow domains
#: (graph, road, social) are deliberately absent: the sequential rule
#: keeps those on the level schedule.
DEEP_CASES = (
    (
        "circuit-deep",
        lambda n: generate(
            "circuit", n, 0, rail_prob=0.02, local_window=2, rail_count=4
        ),
    ),
    ("chain", lambda n: generate("chain", n, 0)),
)


def _best_of(fns, repeats: int) -> list[float]:
    """Best-of-``repeats`` seconds of each callable, one call of each
    per round so slow patches of a shared machine hit them alike."""
    for fn in fns:
        fn()  # warmup: cache fills stay off the clock
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _compiled_session():
    out = {}
    for name, make in DEEP_CASES:
        L = make(N_ROWS)
        system = lower_triangular_system(L)
        host_plan = build_compiled_plan(system.L, schedule="level")
        compiled = build_compiled_plan(system.L, schedule="sequential")

        host_s, comp_s = _best_of(
            [lambda: host_plan.solve(system.b),
             lambda: compiled.solve(system.b)],
            REPEATS,
        )
        blocks = [
            np.column_stack([(c + 1.0) * system.b for c in range(k)])
            for k in BATCH_WIDTHS
        ]
        batch_s = _best_of(
            [lambda: compiled.solve_many(system.b)]
            + [lambda B=B: compiled.solve_many(B) for B in blocks],
            REPEATS,
        )
        residual = float(
            np.max(np.abs(compiled.solve(system.b) - system.x_true))
        )
        out[name] = {
            "n_rows": system.L.n_rows,
            "nnz": int(system.L.nnz),
            "base_levels": compiled.base_levels,
            "merged_levels": compiled.n_levels,
            "redundant_nnz": compiled.redundant_nnz,
            "host_s": host_s,
            "compiled_s": comp_s,
            "speedup": host_s / comp_s,
            "residual": residual,
            "batch_ms": {
                f"k{k}": t * 1e3
                for k, t in zip((1,) + BATCH_WIDTHS, batch_s)
            },
            "batched_over_serial": {
                f"k{k}": t / (k * batch_s[0])
                for k, t in zip(BATCH_WIDTHS, batch_s[1:])
            },
        }
    return out


def test_compiled_vs_host(benchmark, output_dir):
    """The sequential schedule must clear 5x over the level schedule on
    every deep case, with residuals <= 1e-10, and a width-2 block may
    cost at most 1.5x the two single solves it replaces."""
    results = run_once(benchmark, _compiled_session)

    doc = {
        "config": {
            "n_rows": N_ROWS,
            "repeats": REPEATS,
            "schedule": "sequential",
        },
        "cases": {},
    }
    lines = ["sequential vs level schedule of the fast-lane plan", ""]
    for name, r in results.items():
        doc["cases"][name] = {
            "schedule": {
                "base_levels": r["base_levels"],
                "merged_levels": r["merged_levels"],
                "redundant_nnz": r["redundant_nnz"],
            },
            "measured": {
                "host_ms": round(r["host_s"] * 1e3, 3),
                "compiled_ms": round(r["compiled_s"] * 1e3, 3),
                "speedup": round(r["speedup"], 1),
                "residual": f"{r['residual']:.3e}",
                "batch_ms": {
                    k: round(t, 3) for k, t in r["batch_ms"].items()
                },
                "batched_over_serial": {
                    k: round(v, 3)
                    for k, v in r["batched_over_serial"].items()
                },
            },
        }
        lines.append(
            f"{name:>13}: {r['base_levels']:>6} -> "
            f"{r['merged_levels']:>4} levels | "
            f"host {r['host_s'] * 1e3:8.2f} ms | "
            f"sequential {r['compiled_s'] * 1e3:7.2f} ms | "
            f"{r['speedup']:5.1f}x | resid {r['residual']:.1e} | "
            "batched/serial "
            + " ".join(
                f"{k} {v:.2f}"
                for k, v in r["batched_over_serial"].items()
            )
        )

        # acceptance: a deep case, solved exactly, 5x, k2 gate
        assert r["base_levels"] >= MIN_LEVELS, (
            f"{name}: only {r['base_levels']} levels — not a deep case"
        )
        assert r["merged_levels"] < r["base_levels"]
        assert r["residual"] <= 1e-10
        assert r["speedup"] >= SPEEDUP_FLOOR, (
            f"{name}: sequential only {r['speedup']:.1f}x over level"
        )
        k2 = r["batched_over_serial"]["k2"]
        assert k2 <= BATCHED_OVER_SERIAL_K2_MAX, (
            f"{name}: a width-2 block costs {k2:.2f}x two single solves"
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
    benchmark.extra_info["batched_over_serial"] = {
        name: {k: round(v, 3) for k, v in r["batched_over_serial"].items()}
        for name, r in results.items()
    }
