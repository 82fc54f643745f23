"""Bench: wall-clock overhead of the persistent solve journal.

Guards the flight recorder's budget: a :class:`SolveEngine` serving
with a :class:`~repro.obs.journal.JournalWriter` attached must cost
less than 5% wall time versus the same engine journaling nothing.
The journal adds one canonical-JSON encode, a crc32, and a buffered
write + flush per solve — O(1) per request against a solve that is
O(nnz) numpy work — so the fraction shrinks as matrices grow; the
budget is checked at a serving-shaped size, not on toy systems.

Timing protocol: *interleaved* best-of-N — every repeat times a bare
burst and a journaled burst back-to-back so machine drift hits both
paths equally, and each path keeps its own best.  The assertion envelope is
budget + noise margin; the JSON artifact carries the raw ratio for
trend-watching, next to ``journal_us_per_solve``, the journal's own
microseconds per solve in the burst.

Writes ``benchmarks/_output/journal_overhead.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.datasets.domains import circuit
from repro.obs.journal import JournalWriter
from repro.serve import SolveEngine
from repro.sparse.triangular import lower_triangular_system

N_ROWS = int(os.environ.get("REPRO_BENCH_JOURNAL_ROWS", "20000"))
REPEATS = int(os.environ.get("REPRO_BENCH_JOURNAL_REPEATS", "10"))

#: Solves fired (and coalesced) per timed burst.
BURST = 16

#: The contract under test.
OVERHEAD_BUDGET = 0.05
#: Best-of-N still jitters on shared machines; hard-fail only past
#: budget + margin, record the raw ratio either way.
NOISE_MARGIN = 0.05


def test_journal_overhead(benchmark, output_dir, tmp_path):
    system = lower_triangular_system(
        circuit(N_ROWS, seed=17, avg_nnz_per_row=3.5, rail_prob=0.85)
    )

    async def measure():
        journal = JournalWriter(tmp_path, shard="bench")
        bare = SolveEngine(execution="host", default_timeout=None)
        journaled = SolveEngine(
            execution="host", default_timeout=None, journal=journal
        )
        bare.register(system.L, name="m")
        journaled.register(system.L, name="m")

        async def burst(engine):
            await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(BURST)]
            )

        # warm both paths (plan artifacts, first segment + header)
        await burst(bare)
        await burst(journaled)

        clock = time.perf_counter
        best_bare = best_journaled = float("inf")
        for _ in range(REPEATS):
            t0 = clock()
            await burst(bare)
            best_bare = min(best_bare, clock() - t0)
            t0 = clock()
            await burst(journaled)
            best_journaled = min(best_journaled, clock() - t0)

        await bare.close()
        await journaled.close()
        stats = journal.stats()
        journal.close()
        return best_bare, best_journaled, stats

    def measured():
        return asyncio.run(measure())

    bare_s, journaled_s, stats = benchmark.pedantic(
        measured, rounds=1, iterations=1, warmup_rounds=0
    )
    overhead = journaled_s / bare_s - 1.0 if bare_s > 0 else 0.0
    # the absolute cost beside the ratio: a journal cost that holds
    # still reads as a larger fraction once the kernel under it speeds up
    us_per_solve = (journaled_s - bare_s) / BURST * 1e6

    # the journaled path must actually have journaled every solve
    assert stats["records_written"] == (REPEATS + 1) * BURST
    assert stats["records_dropped"] == 0

    benchmark.extra_info["n_rows"] = system.L.n_rows
    benchmark.extra_info["burst"] = BURST
    benchmark.extra_info["bare_best_s"] = round(bare_s, 6)
    benchmark.extra_info["journaled_best_s"] = round(journaled_s, 6)
    benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
    benchmark.extra_info["journal_us_per_solve"] = round(us_per_solve, 2)
    benchmark.extra_info["bytes_per_solve"] = round(
        stats["bytes_written"] / stats["records_written"], 1
    )

    doc_path = output_dir / "journal_overhead.json"
    doc_path.write_text(json.dumps({
        "budget": OVERHEAD_BUDGET,
        "noise_margin": NOISE_MARGIN,
        "n_rows": system.L.n_rows,
        "burst": BURST,
        "repeats": REPEATS,
        "bare_best_s": bare_s,
        "journaled_best_s": journaled_s,
        "overhead_fraction": overhead,
        "journal_us_per_solve": us_per_solve,
        "bytes_per_solve": stats["bytes_written"] / stats["records_written"],
    }, indent=2, sort_keys=True))

    assert overhead < OVERHEAD_BUDGET + NOISE_MARGIN, (
        f"solve journal overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget (+{NOISE_MARGIN:.0%} noise margin)"
    )
