"""Request/response records exchanged with the solve engine."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["SolveResponse", "PendingSolve", "BlockOutcome", "solve_fields"]


@dataclass(frozen=True)
class SolveResponse:
    """The one record of a completed request.

    ``x`` is 1-D for :meth:`~repro.serve.engine.SolveEngine.solve` and
    2-D ``(n, k)`` for ``solve_multi``.  ``exec_ms`` / ``cycles`` are
    the costs of the launch this request rode on (shared by every
    request coalesced into the same batch): simulated-device time on
    the sim lane, host wall-clock on the host lane.  ``latency_ms`` is
    the host wall-clock from submission to completion.  Every sink
    renders this record with :func:`solve_fields`.
    """

    x: np.ndarray
    solver: str
    matrix: str
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
    #: schedule variant of the host-lane plan ("level" or "sequential");
    #: ``None`` on the sim lane
    schedule: Optional[str] = None
    #: where the serving block ran: ``"inline"`` on the event loop or
    #: ``"pool"`` on a worker thread
    dispatch: str = "pool"
    #: ``latency_ms`` split at ``perf_counter`` stamps: submission →
    #: block start (``queue_ms``) → first ladder step (``handoff_ms``) →
    #: ladder end (``kernel_ms``, failed steps included) → response
    #: (``publish_ms``)
    phases: dict = field(default_factory=dict)

    @property
    def used_fallback(self) -> bool:
        return self.fallback_from is not None


def solve_fields(resp: SolveResponse) -> dict:
    """``resp`` without ``x``: the ``publish`` event, a cluster worker's
    reply ``meta`` and, with features and an outcome, the journal line.
    Every value is a JSON type (the engine builds records from Python
    numbers)."""
    return {
        "solver": resp.solver,
        "matrix": resp.matrix,
        "n_rhs": resp.n_rhs,
        "batch_width": resp.batch_width,
        "exec_ms": resp.exec_ms,
        "cycles": resp.cycles,
        "latency_ms": resp.latency_ms,
        "fallback_from": resp.fallback_from,
        "trace_id": resp.trace_id,
        "lane": resp.lane,
        "schedule": resp.schedule,
        "dispatch": resp.dispatch,
        "phases": dict(resp.phases),
    }


@dataclass
class PendingSolve:
    """One enqueued single-RHS request awaiting its batch (internal)."""

    b: np.ndarray
    future: "asyncio.Future"
    submitted_at: float
    trace_id: str = ""
    #: the request's deadline in seconds, and as an absolute time on
    #: the engine clock; both ``None`` when the request has none
    timeout_s: Optional[float] = None
    deadline: Optional[float] = None
    #: the armed deadline timer, if any (``SolveEngine._arm``)
    timer: Optional[object] = None


@dataclass
class BlockOutcome:
    """Result of executing one block (batch or multi-RHS) on a worker.

    ``X`` has one column per right-hand side, in request order; the
    ``*_at`` stamps (block start, first ladder step, ladder end) are
    shared by every request that rode the block.
    """

    X: np.ndarray
    solver_name: str
    exec_ms: float
    cycles: int
    batch_width: int
    fallback_from: Optional[str] = None
    #: execution lane that produced ``X`` ("host" or "sim")
    lane: str = "sim"
    #: schedule variant of the host-lane plan that produced ``X``
    #: ("level" or "sequential"); ``None`` on the sim lane
    schedule: Optional[str] = None
    #: "inline" (event loop) or "pool" (worker thread)
    dispatch: str = "pool"
    block_at: float = 0.0
    ladder_at: float = 0.0
    done_at: float = 0.0
