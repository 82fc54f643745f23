"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SparseFormatError",
    "NotTriangularError",
    "SingularMatrixError",
    "SimulationError",
    "DeadlockError",
    "LaunchConfigError",
    "HazardError",
    "SolverError",
    "ExperimentError",
    "DatasetError",
    "ServeError",
    "UnknownMatrixError",
    "QueueFullError",
    "RequestTimeoutError",
    "InvalidRequestError",
    "TraceSchemaError",
    "ClusterError",
    "WorkerDiedError",
    "JournalError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SparseFormatError(ReproError):
    """A sparse matrix container was constructed from inconsistent arrays."""


class NotTriangularError(SparseFormatError):
    """An operation required a (unit) lower triangular matrix and got
    something else — e.g. an upper-triangular entry, or a missing diagonal."""


class SingularMatrixError(ReproError):
    """A triangular solve encountered a zero (or missing) diagonal entry."""


class SimulationError(ReproError):
    """Base class for failures inside the SIMT GPU simulator."""


class DeadlockError(SimulationError):
    """Every resident warp is blocked and no external event can unblock them.

    This is the error the paper's Challenge 1 (Section 3.3) is about: a
    naive thread-level kernel that busy-waits on a value produced by another
    lane of the *same* warp can never make progress under lock-step
    execution.  The simulator detects that condition instead of hanging.
    """

    def __init__(self, message: str, *, cycle: int | None = None,
                 blocked_warps: tuple[int, ...] = ()):  # pragma: no cover - trivial
        super().__init__(message)
        self.cycle = cycle
        self.blocked_warps = blocked_warps


class LaunchConfigError(SimulationError):
    """A kernel launch was configured with impossible parameters."""


class HazardError(SimulationError):
    """A dynamic sanitizer observed a synchronization hazard.

    Raised by :class:`repro.analysis.sanitize.Sanitizer` in ``raise``
    mode the moment a kernel violates the sync-free publication protocol
    (flag store without a fenced value store, racy ``x`` load, double
    publish, ...).  Carries the offending :class:`repro.analysis.hazards.
    Hazard` — which records the lane, warp, cycle and array location —
    plus the tail of the warp's tracer timeline when a tracer was active.
    """

    def __init__(self, hazard, *, trace_tail: tuple = ()):
        super().__init__(hazard.format())
        self.hazard = hazard
        self.trace_tail = trace_tail


class SolverError(ReproError):
    """A solver failed to produce a solution."""


class ExperimentError(ReproError):
    """An experiment harness was mis-configured or failed to run."""


class DatasetError(ReproError):
    """A synthetic dataset generator was given invalid parameters."""


class ServeError(ReproError):
    """Base class for failures in the serving layer (:mod:`repro.serve`)."""


class UnknownMatrixError(ServeError):
    """A solve request referenced a matrix the registry does not hold
    (never registered, or evicted by the LRU memory budget)."""


class QueueFullError(ServeError):
    """The engine's bounded request queue is full (backpressure).

    Callers should shed load or retry later; the engine never buffers
    unboundedly."""


class RequestTimeoutError(ServeError):
    """A solve request did not complete within its deadline.

    The underlying executor work is not interrupted (threads cannot be
    cancelled); the result is discarded when it arrives."""


class InvalidRequestError(ServeError):
    """A solve request was rejected at admission because its right-hand
    side cannot yield a meaningful answer (NaN or Inf entries).

    Shape mismatches keep raising :class:`SolverError`; this class marks
    the values themselves as unusable, before any kernel runs."""


class TraceSchemaError(ServeError):
    """A TraceLog JSONL dump declares a schema this build cannot read.

    Raised by :func:`repro.serve.replay.load_events` when the header
    line's ``schema`` tag is unknown — a clear signal to upgrade (or
    re-record) instead of a ``KeyError`` deep inside replay."""


class ClusterError(ServeError):
    """Base class for failures in the multi-worker serve cluster
    (:mod:`repro.serve.cluster`): protocol violations, arena segment
    corruption, a worker pool that cannot be (re)started."""


class WorkerDiedError(ClusterError):
    """A shard worker process died with requests in flight.

    In-flight requests on the dead worker fail with this error; the
    router respawns the worker (re-attaching its shard's shared-memory
    plans, never rebuilding them) and subsequent requests are served
    normally.  Callers may simply retry."""


class JournalError(ReproError):
    """A solve journal cannot be opened at all.

    Raised by :class:`repro.obs.journal.JournalReader` only when the
    journal *as a whole* is missing (no directory, no segment files) —
    the ``journal report`` exit-2 condition.  Damaged segment *content*
    (torn tails, corrupt lines) never raises; it is skipped and counted
    so a crash during journaling still yields every intact record."""
