"""Matrix registry: register once, reuse every derived artifact.

Every solver-side cost that is a function of the matrix alone —
feature extraction (including the level schedule), the static
schedule-verifier verdict, the CSR→CSC conversion the SyncFree baseline
needs, the :class:`~repro.solvers.compiled.CompiledPlan` the serve
engine's fast lane runs —
is paid at most once per registered matrix and shared by every
subsequent request.  Entries live behind an LRU keyed on a content
fingerprint, bounded by a configurable memory budget, with hit/miss
counters so the serving telemetry can report cache effectiveness.

Thread-safety: a single re-entrant lock guards the table, the LRU order
and the byte accounting.  The engine's worker threads and its asyncio
front both go through it; the artifact builders (level scheduling, CSC
counting sort) run *inside* the lock, which serializes duplicate
builds — two tasks registering or deriving the same matrix concurrently
produce one entry and one build, never two.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.analysis.features import MatrixFeatures, extract_features
from repro.analysis.levels import LevelSchedule
from repro.analysis.schedule import ScheduleReport, verify_schedule
from repro.errors import ServeError, UnknownMatrixError
from repro.gpu.device import SIM_SMALL, DeviceSpec
from repro.solvers.compiled import (
    CompiledPlan,
    build_compiled_plan,
    pick_schedule,
)
# Kept for perfbench/layers.py, which wraps this module-global name.
from repro.solvers.host_parallel import build_plan  # noqa: F401
from repro.sparse.convert import csr_to_csc
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "matrix_fingerprint",
    "RegisteredMatrix",
    "MatrixRegistry",
]

#: Default LRU budget: generous for the simulator-scale matrices the
#: tests and benchmarks use, small enough to be hit in production sizes.
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024


def matrix_fingerprint(L: CSRMatrix) -> str:
    """Content hash of a CSR matrix (shape + all three arrays).

    Registering the same matrix twice — from two tasks, two clients, or
    a client that lost its handle — lands on one cache entry.  Delegates
    to :meth:`~repro.sparse.csr.CSRMatrix.content_fingerprint`, the same
    key the host solver's plan cache uses, so every content-addressed
    cache in the system agrees on identity.
    """
    return L.content_fingerprint()


class RegisteredMatrix:
    """One registry entry: the matrix plus its lazily derived artifacts.

    Do not construct directly — obtain via
    :meth:`MatrixRegistry.register` / :meth:`MatrixRegistry.get`.  The
    artifact accessors live on :class:`MatrixRegistry` so byte
    accounting and LRU recency stay consistent.
    """

    __slots__ = (
        "key", "name", "matrix", "_features", "_csc", "_verdicts", "_plan",
    )

    def __init__(self, key: str, name: str, matrix: CSRMatrix) -> None:
        self.key = key
        self.name = name
        self.matrix = matrix
        self._features: Optional[MatrixFeatures] = None
        self._csc: Optional[CSCMatrix] = None
        self._verdicts: dict[str, ScheduleReport] = {}
        # the fast-lane plan, in the variant the sequential rule picks
        self._plan: Optional[CompiledPlan] = None

    @property
    def nbytes(self) -> int:
        """Resident bytes: CSR arrays plus every built artifact."""
        total = (
            self.matrix.row_ptr.nbytes
            + self.matrix.col_idx.nbytes
            + self.matrix.values.nbytes
        )
        if self._features is not None:
            s = self._features.schedule
            total += (
                s.level_of_row.nbytes + s.level_ptr.nbytes + s.order.nbytes
            )
            total += self._features.row_lengths.nbytes
        if self._csc is not None:
            total += (
                self._csc.col_ptr.nbytes
                + self._csc.row_idx.nbytes
                + self._csc.values.nbytes
            )
        if self._plan is not None:
            total += self._plan.nbytes
        return total


class MatrixRegistry:
    """LRU-bounded registry of matrices and their derived artifacts."""

    def __init__(
        self,
        *,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        device: DeviceSpec = SIM_SMALL,
        shard_id: Optional[int] = None,
    ) -> None:
        if memory_budget <= 0:
            raise ServeError("memory_budget must be positive")
        self.memory_budget = memory_budget
        self.device = device
        self.shard_id = shard_id
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, RegisteredMatrix]" = OrderedDict()
        self._names: dict[str, str] = {}  # display name -> key
        # counters
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._registrations = 0
        self._dedup_hits = 0
        self._artifact_builds = 0

    # ------------------------------------------------------------------
    # registration and lookup
    # ------------------------------------------------------------------
    def register(self, matrix: CSRMatrix, *, name: Optional[str] = None) -> str:
        """Insert ``matrix`` (idempotent by content) and return its key."""
        key = matrix_fingerprint(matrix)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._dedup_hits += 1
                self._entries.move_to_end(key)
                if name:
                    entry.name = name
                    self._names[name] = key
                return key
            self._registrations += 1
            entry = RegisteredMatrix(key, name or key[:12], matrix)
            self._entries[key] = entry
            if name:
                self._names[name] = key
            self._enforce_budget(keep=key)
            return key

    def get(self, ref: str) -> RegisteredMatrix:
        """Look up by key or by registration name (counts hit/miss)."""
        with self._lock:
            entry = self._lookup(ref, count_miss=True)
            self._hits += 1
            return entry

    def _lookup(self, ref: str, *, count_miss: bool = False) -> RegisteredMatrix:
        """Resolve a key/name to its entry and refresh LRU recency.

        Raises :class:`UnknownMatrixError` when absent (optionally
        counting the miss); never counts a hit — callers decide whether
        the access was an entry hit or an artifact hit.
        """
        key = self._names.get(ref, ref)
        entry = self._entries.get(key)
        if entry is None:
            if count_miss:
                self._misses += 1
            raise UnknownMatrixError(
                f"matrix {ref!r} is not registered (or was evicted); "
                f"{len(self._entries)} entr(y/ies) resident"
            )
        self._entries.move_to_end(key)
        return entry

    def __contains__(self, ref: str) -> bool:
        with self._lock:
            return self._names.get(ref, ref) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # derived artifacts (lazy, cached, accounted)
    # ------------------------------------------------------------------
    def features(self, ref: str) -> MatrixFeatures:
        """Features incl. level schedule and Eq. 1 granularity (cached).

        The first access per matrix is a *miss* (the artifact is built
        and accounted); every later access is a *hit*.
        """
        with self._lock:
            entry = self._lookup(ref, count_miss=True)
            if entry._features is not None:
                self._hits += 1
            return self._built_features(entry)

    def _built_features(self, entry: RegisteredMatrix) -> MatrixFeatures:
        """``entry``'s features, built (and counted a miss) if absent."""
        if entry._features is None:
            self._misses += 1
            self._artifact_builds += 1
            entry._features = extract_features(entry.matrix)
            self._enforce_budget(keep=entry.key)
        return entry._features

    def schedule(self, ref: str) -> LevelSchedule:
        """The level schedule (shared with :meth:`features`)."""
        return self.features(ref).schedule

    def csc(self, ref: str) -> CSCMatrix:
        """The CSC conversion the SyncFree-CSC baseline consumes."""
        with self._lock:
            entry = self._lookup(ref, count_miss=True)
            if entry._csc is None:
                self._misses += 1
                self._artifact_builds += 1
                entry._csc = csr_to_csc(entry.matrix)
                self._enforce_budget(keep=entry.key)
            else:
                self._hits += 1
            return entry._csc

    def plan(self, ref: str) -> CompiledPlan:
        """The fast-lane plan (inspector output, one per matrix).

        The engine and every cluster worker serve through this one
        accessor.  The first call builds the variant the sequential
        rule (:func:`~repro.solvers.compiled.pick_schedule`) names for
        the matrix's cached features — the inspector never recomputes
        levels the :meth:`features` artifact already paid for — and
        accounts it against the LRU byte budget like every other
        artifact.  Every later call is a hit: repeated solves of one
        matrix are pure executor work.
        """
        with self._lock:
            entry = self._lookup(ref, count_miss=True)
            if entry._plan is not None:
                self._hits += 1
                return entry._plan
            features = self._built_features(entry)
            self._misses += 1
            self._artifact_builds += 1
            entry._plan = build_compiled_plan(
                entry.matrix,
                schedule=pick_schedule(features),
                base=features.schedule,
            )
            self._enforce_budget(keep=entry.key)
            return entry._plan

    # Kept for perfbench/layers.py, which wraps this name.
    compiled_plan = plan

    def has_plan(self, ref: str) -> bool:
        """Whether :meth:`plan` would be served without a build.

        A peek: it never builds, counts no hit or miss and leaves the
        LRU order alone; an unknown or evicted ``ref`` is simply
        ``False``.  The engine uses it to keep plan builds off its
        event loop.
        """
        with self._lock:
            entry = self._entries.get(self._names.get(ref, ref))
            return entry is not None and entry._plan is not None

    def verdict(self, ref: str, solver: str = "capellini") -> ScheduleReport:
        """Static schedule-verifier report for one solver family."""
        with self._lock:
            entry = self._lookup(ref, count_miss=True)
            report = entry._verdicts.get(solver)
            if report is None:
                self._misses += 1
                self._artifact_builds += 1
                report = verify_schedule(
                    entry.matrix, solver, device=self.device
                )
                entry._verdicts[solver] = report
            else:
                self._hits += 1
            return report

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def stats(self) -> dict:
        """Cache statistics (merged into the serving snapshot)."""
        with self._lock:
            hits, misses = self._hits, self._misses
            lookups = hits + misses
            stats = {
                "entries": len(self._entries),
                "resident_bytes": sum(
                    e.nbytes for e in self._entries.values()
                ),
                "memory_budget": self.memory_budget,
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else None,
                "evictions": self._evictions,
                "registrations": self._registrations,
                "dedup_hits": self._dedup_hits,
                "artifact_builds": self._artifact_builds,
            }
            if self.shard_id is not None:
                stats["shard"] = self.shard_id
            return stats

    def _enforce_budget(self, *, keep: str) -> None:
        """Evict least-recently-used entries until within budget.

        The entry named by ``keep`` (the one just inserted or grown) is
        never evicted, so a single matrix larger than the budget still
        serves — it just pins the cache to one entry.
        """
        while (
            len(self._entries) > 1
            and sum(e.nbytes for e in self._entries.values())
            > self.memory_budget
        ):
            victim_key = next(
                k for k in self._entries if k != keep
            )
            victim = self._entries.pop(victim_key)
            self._names = {
                n: k for n, k in self._names.items() if k != victim_key
            }
            self._evictions += 1
            del victim
