"""Request-serving layer on top of the solver library.

The paper's kernels amortize per-matrix analysis over one solve; a
serving deployment amortizes it over *every* solve against that matrix.
This package provides the three pieces that make that real:

* :class:`~repro.serve.registry.MatrixRegistry` — register a
  :class:`~repro.sparse.csr.CSRMatrix` once; features, level schedule,
  static schedule verdicts and the CSC conversion are derived lazily,
  cached behind an LRU with a configurable memory budget, and shared by
  every request (hit/miss counters included).
* :class:`~repro.serve.engine.SolveEngine` — an asyncio front over a
  thread-pool executor.  Concurrent single-RHS requests against the
  same matrix are coalesced into one batched
  :func:`~repro.solvers.multirhs.capellini_sptrsm` launch (the SpTRSM
  amortization, applied across requests); failures fall back down the
  :func:`~repro.solvers.select.solver_chain` ladder with the failing
  kernel quarantined per matrix, never silently retried.
* :class:`~repro.serve.telemetry.ServeTelemetry` — latency, queue
  depth, batch width, cache hit-rate, fallback counts; one
  JSON-friendly snapshot consumed by tests, benchmarks and the
  ``repro-sptrsv serve-stats`` CLI.
* :class:`~repro.serve.cluster.ShardRouter` — a multi-process sharded
  tier on top of the engine: matrices are consistent-hash-sharded onto
  worker processes, matrices are shared zero-copy through
  :class:`~repro.serve.arena.PlanArena` shared-memory segments and each
  worker builds its own plans,
  dead workers respawn with their shard replayed from the published
  handles (``repro-sptrsv serve-cluster``).

Concurrency correctness is checked from two sides: the async-hazard
lint (``repro-sptrsv analyze --serve-lint``) statically flags engine
anti-patterns, and the deterministic interleaving explorer
(``repro-sptrsv check-interleavings``, scenarios in
:mod:`repro.serve.scenarios`) replays seeded schedules against the
engine's clock/executor seams.  Recorded trace logs can be re-driven
with :mod:`repro.serve.replay` (``repro-sptrsv replay``).

See ``docs/serving.md`` for the architecture and tuning knobs.
"""

from repro.serve.arena import PlanArena, PlanHandle, SlabPool
from repro.serve.cluster import ClusterResponse, ShardRouter
from repro.serve.engine import SolveEngine
from repro.serve.registry import (
    DEFAULT_MEMORY_BUDGET,
    MatrixRegistry,
    RegisteredMatrix,
    matrix_fingerprint,
)
from repro.serve.requests import SolveResponse
from repro.serve.shardproto import HashRing
from repro.serve.slo import SLOTracker
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "ClusterResponse",
    "HashRing",
    "MatrixRegistry",
    "PlanArena",
    "PlanHandle",
    "RegisteredMatrix",
    "ShardRouter",
    "SlabPool",
    "matrix_fingerprint",
    "SolveEngine",
    "SolveResponse",
    "SLOTracker",
    "ServeTelemetry",
]
