"""Request/response records exchanged with the solve engine."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["SolveResponse", "PendingSolve", "BlockOutcome"]


@dataclass(frozen=True)
class SolveResponse:
    """What the engine hands back for one completed request.

    ``x`` is 1-D for :meth:`~repro.serve.engine.SolveEngine.solve` and
    2-D ``(n, k)`` for ``solve_multi``.  ``exec_ms`` / ``cycles`` are
    *simulated-device* costs of the launch this request rode on (shared
    by every request coalesced into the same batch); ``latency_ms`` is
    the host wall-clock from submission to completion.
    """

    x: np.ndarray
    solver_name: str
    matrix_key: str
    n_rhs: int
    batch_width: int
    exec_ms: float
    cycles: int
    latency_ms: float
    #: name of the solver that *should* have served this request but was
    #: skipped or failed (None when the primary served it)
    fallback_from: Optional[str] = None
    #: request-scoped trace id; key into the engine's
    #: :class:`repro.obs.TraceLog` (``request_timeline(trace_id)``)
    trace_id: Optional[str] = None
    #: which execution lane served this request: ``"host"`` (registry
    #: execution plan, production fast path) or ``"sim"`` (cycle-level
    #: simulator — the measurement instrument)
    lane: str = "sim"

    @property
    def used_fallback(self) -> bool:
        return self.fallback_from is not None


@dataclass
class PendingSolve:
    """One enqueued single-RHS request awaiting its batch (internal)."""

    b: np.ndarray
    future: "asyncio.Future"
    submitted_at: float
    trace_id: str = ""
    #: absolute deadline on the engine clock, stamped before the
    #: request's await; ``None`` when the request has no deadline
    deadline: Optional[float] = None
    #: set when the caller gave up (deadline) but the worker is still
    #: running; late publishes to an abandoned request must not count
    #: it failed/completed a second time after ``requests_timed_out``
    abandoned: bool = False


@dataclass(frozen=True)
class BlockOutcome:
    """Result of executing one block (batch or multi-RHS) on a worker.

    ``X`` has one column per right-hand side, in request order.
    """

    X: np.ndarray
    solver_name: str
    exec_ms: float
    cycles: int
    batch_width: int
    fallback_from: Optional[str] = None
    failures: tuple[str, ...] = field(default=())
    #: execution lane that produced ``X`` ("host" or "sim")
    lane: str = "sim"
    #: schedule variant of the host-lane plan that produced ``X``
    #: ("level" or "merged"); ``None`` on the sim lane
    schedule: Optional[str] = None
