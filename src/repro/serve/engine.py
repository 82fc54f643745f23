"""Fault-tolerant async solve engine with cross-request batching.

The engine is the serving counterpart of the paper's SpTRSM
amortization: ``capellini_sptrsm`` guards all ``k`` right-hand sides
with one per-row flag, so ``k`` solves against one matrix cost far less
than ``k`` independent launches.  Here the ``k`` comes from *traffic* —
concurrent single-RHS requests against the same registered matrix are
coalesced into one batched launch.

Execution model
---------------
* The asyncio front enqueues requests per matrix.  The first request of
  a group arms a flush after ``batch_window`` seconds (one event-loop
  tick when 0); a group reaching ``max_batch`` flushes immediately.
* Each flushed batch (and each ``solve_multi`` block) runs either
  **inline** on the event loop or on a thread-pool worker.  It runs
  inline only when nothing else could run beside it and nothing slow
  can hold the loop: the engine is idle (every in-flight request rides
  this block, no other group is pending, no block is on the pool), the
  host lane would serve it (``execution != "sim"``, no sim-forcing
  instrumentation, the host lane not quarantined for the matrix), the
  registry already holds the matrix's plan, and the engine owns its
  executor (an injected ``executor=`` receives every block).  That
  skips the thread hand-off, which at fine granularity costs as much
  as the kernel.  Only the host step runs inline: if it fails, the
  failure is quarantined as below and the rest of the ladder runs on
  the pool.  Concurrent blocks, cold plan builds, simulator steps and
  fallbacks all stay on the pool.
* Each block runs through one of two
  **execution lanes** (``execution=`` constructor parameter):

  - ``"host"`` — the registry's cached
    :class:`~repro.solvers.compiled.CompiledPlan`, solved with
    ``solve_many`` over the whole block.  This is the production fast
    path: one SuperLU sweep or a few numpy operations per level,
    instead of thousands of interpreter-stepped simulated cycles.  The
    plan's schedule variant is the registry's choice, not the caller's
    (:meth:`~repro.serve.registry.MatrixRegistry.schedule_for`):
    ``"sequential"`` for deep, skinny level structures
    (:func:`~repro.solvers.compiled.prefers_compiled`: many levels,
    Eq. 1 granularity at or below the paper's 0.7 threshold), where
    per-level dispatch would dominate, ``"level"`` otherwise, and a
    cached efficacy hint overrides the rule.
  - ``"sim"`` — the cycle-level SIMT simulator: batched
    ``capellini_sptrsm`` for width ≥ 2, the granularity-selected solver
    chain for width 1 and multi-RHS fallbacks.  This is the measurement
    instrument; it is the only lane that produces cycle counts, phase
    profiles, and warp traces.
  - ``"auto"`` (default) — the host lane, degrading to the simulator
    ladder; every step of the ladder is a ``(name, runner)`` pair and a
    failed step is quarantined for that matrix like any kernel failure.
    An ambient tracer, sanitizer, or *cycle* profiler forces the
    simulator, because cycle attribution requires actually simulating.
    ``profile=True`` does **not** change lanes: host-lane launches get
    a wall-clock phase digest from a
    :class:`~repro.obs.hostprof.HostProfiler` (gather/reduce/scatter
    attribution), sim-lane launches a cycle digest — the same
    ``profile`` field in both trace events, the lane decided by the
    execution policy alone.  A profiled host block runs the same
    operations as an unprofiled one, so its answers are bit-identical.
* Robustness: a kernel that raises ``HazardError``/``SolverError`` on a
  matrix is recorded in telemetry and *quarantined for that matrix* —
  later requests walk the :func:`~repro.solvers.select.solver_chain`
  ladder starting past it, never silently retrying the failed kernel.
  A step whose answer holds NaN or Inf is quarantined only once a later
  step answers the same block finitely, which shows the kernel was at
  fault; if no step does, the right-hand side overflows float64 and
  only that request fails (``NonFiniteAnswerError``).
  Bounded queueing (``QueueFullError``) and per-request deadlines
  (``RequestTimeoutError``) keep the engine shedding load instead of
  buffering it; a right-hand side of the wrong shape or with NaN or Inf
  entries is refused at admission (``InvalidRequestError``).
* Deadlines: a block cannot be interrupted, and one running inline
  holds the loop, so the deadline timer cannot fire while it runs.  On
  both paths a result that reaches its request after the deadline (read
  on the engine clock) therefore counts as a timeout: the request
  raises ``RequestTimeoutError`` and no answer is served.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Iterable, Optional

import numpy as np

from repro.analysis.interleave import AsyncioClock
from repro.errors import (
    DeadlockError,
    HazardError,
    InvalidRequestError,
    NonFiniteAnswerError,
    QueueFullError,
    RequestTimeoutError,
    SolverError,
    UnknownMatrixError,
)
from repro.gpu.device import SIM_SMALL, DeviceSpec
from repro.obs.hostprof import (
    HostProfiler,
    active_host_profiler,
    host_phase_digest,
)
from repro.obs.profiler import Profiler, profiling
from repro.obs.report import phase_digest
from repro.obs.tracelog import TraceLog, new_trace_id
from repro.serve.registry import MatrixRegistry, RegisteredMatrix
from repro.serve.requests import (
    BlockOutcome,
    PendingSolve,
    SolveResponse,
    solve_fields,
)
from repro.serve.telemetry import ServeTelemetry
from repro.solvers._sim import instrumentation_active
from repro.solvers.base import SpTRSVSolver
from repro.solvers.capellini import WritingFirstCapelliniSolver
from repro.solvers.compiled import CompiledFusedSolver
from repro.solvers.multirhs import capellini_sptrsm
from repro.solvers.select import solver_chain
from repro.sparse.csr import CSRMatrix

__all__ = ["EXECUTION_MODES", "SolveEngine"]

#: Telemetry/quarantine name of the batched SpTRSM path.  It runs the
#: Writing-First kernel, so it shares quarantine state with the
#: single-RHS Writing-First solver: if one hazards on a matrix, the
#: other is not a safe retry.
BATCHED_KERNEL = WritingFirstCapelliniSolver.name

#: Telemetry/quarantine name of the host fast lane (the registry-cached
#: :class:`~repro.solvers.compiled.CompiledPlan`).
HOST_LANE = CompiledFusedSolver.name

#: Valid values of ``SolveEngine(execution=...)``.
EXECUTION_MODES = ("auto", "host", "sim")

#: Errors the fallback ladder absorbs.  Anything else (simulator bugs,
#: validation errors) propagates to the caller unchanged.
FALLBACK_ERRORS = (HazardError, SolverError, DeadlockError)


def _check_finite(solver_name: str, X: np.ndarray) -> None:
    """Raise :class:`NonFiniteAnswerError` if ``X`` holds NaN or Inf.

    Every ladder step checks its answer here, on the inline and the
    pool path alike, before the launch is recorded, so a rejected
    answer is never counted as served.  Admission refuses non-finite
    right-hand sides, so such an answer means the kernel broke down or
    the solve overflows for this right-hand side; the ladder walk
    (``SolveEngine._execute_block``) tells the two apart.
    """
    if not np.isfinite(X).all():
        raise NonFiniteAnswerError(
            f"{solver_name} returned a non-finite answer"
        )


def _discard_outcome(future: "asyncio.Future") -> None:
    """Swallow the result/exception of an abandoned request's future."""
    if not future.cancelled():
        future.exception()


class SolveEngine:
    """Asyncio solve service over a :class:`MatrixRegistry`."""

    def __init__(
        self,
        registry: Optional[MatrixRegistry] = None,
        *,
        device: DeviceSpec = SIM_SMALL,
        max_queue: int = 64,
        max_batch: int = 32,
        batch_window: float = 0.0,
        default_timeout: Optional[float] = 30.0,
        max_workers: int = 4,
        candidates: Optional[Iterable[type[SpTRSVSolver]]] = None,
        telemetry: Optional[ServeTelemetry] = None,
        trace_log: Optional[TraceLog] = None,
        profile: bool = False,
        execution: str = "auto",
        clock=None,
        executor=None,
        journal=None,
    ) -> None:
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {execution!r}"
            )
        self.registry = registry if registry is not None else MatrixRegistry()
        self.device = device
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.default_timeout = default_timeout
        self.telemetry = telemetry if telemetry is not None else ServeTelemetry()
        #: bounded structured event log; every request gets a trace id
        #: and an enqueue → launch → publish event trail
        self.trace_log = trace_log if trace_log is not None else TraceLog()
        #: when True, every launch event carries a phase digest native
        #: to its lane: wall-clock gather/reduce/scatter for host-lane
        #: launches, aggregate cycle phases (no slices, O(warps)
        #: overhead) for simulator launches.  Does not affect lane
        #: choice — only ambient sim-kind instrumentation forces the
        #: simulator.
        self.profile = profile
        #: execution lane policy: "auto" | "host" | "sim"
        self.execution = execution
        #: optional :class:`~repro.obs.journal.JournalWriter` — the
        #: flight recorder.  When set, every completed request appends
        #: one durable per-solve record and every kernel failure dumps
        #: a black-box incident file.  The engine never owns it: the
        #: caller (CLI session, shard worker) opens and closes it.
        self.journal = journal
        #: per-fingerprint journal feature fields — matrix features are
        #: immutable once registered, so the dict is built once per key
        #: instead of once per solve (keeps the journal inside its <5%
        #: overhead budget)
        self._journal_features: dict[str, dict] = {}
        self._candidates = tuple(candidates) if candidates is not None else None
        #: time source for batch windows and request deadlines.  The
        #: default is real time; the deterministic interleaving harness
        #: (:mod:`repro.analysis.interleave`) injects a virtual clock so
        #: every wait becomes an explicitly scheduled event.
        self._clock = clock if clock is not None else AsyncioClock()
        self._owns_executor = executor is None
        self._executor = (
            executor
            if executor is not None
            else ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-serve"
            )
        )
        self._pending: dict[str, list[PendingSolve]] = {}
        self._depth = 0
        #: blocks currently running on the worker pool; an inline block
        #: needs this at zero (see :meth:`_serves_inline`)
        self._pool_blocks = 0
        #: background flush/dispatch tasks.  The event loop keeps only
        #: weak references to tasks (serve-lint SL005), so the engine
        #: retains every handle until the task completes.
        self._tasks: set["asyncio.Task"] = set()
        self._quarantine_lock = threading.Lock()
        self._quarantined: dict[str, set[str]] = {}
        self._closed = False
        #: set when the engine goes idle while draining; created lazily
        #: in :meth:`close` because ``asyncio.Event()`` binds the
        #: running loop on Python 3.9 and engines are often constructed
        #: before any loop exists.
        self._drained: Optional["asyncio.Event"] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def register(self, matrix: CSRMatrix, *, name: Optional[str] = None) -> str:
        """Register a matrix (delegates to the registry)."""
        return self.registry.register(matrix, name=name)

    async def solve(
        self,
        ref: str,
        b: np.ndarray,
        *,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> SolveResponse:
        """Solve ``L x = b`` for one right-hand side.

        Concurrent calls against the same matrix coalesce into one
        batched SpTRSM launch; the response reports the width of the
        batch this request rode on.  ``trace_id`` adopts a caller-minted
        id (the cluster router propagates its own through the frame
        header, so one id joins router spans, this engine's trace log,
        and the response); by default a fresh id is minted here.
        """
        trace_id = trace_id or new_trace_id()
        try:
            entry = self.registry.get(ref)
        except UnknownMatrixError:
            self._reject(trace_id, ref, "unknown-matrix")
            raise
        b = np.ascontiguousarray(b, dtype=np.float64)
        self._admit(b, 1, trace_id, entry)
        self._emit(
            "enqueue", trace_id=trace_id, matrix=entry.key, n_rhs=1,
            queue_depth=self._depth,
        )
        req = PendingSolve(
            b=b,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=time.perf_counter(),
            trace_id=trace_id,
        )
        group = self._pending.setdefault(entry.key, [])
        group.append(req)
        if len(group) >= self.max_batch:
            batch = self._pending.pop(entry.key)
            self._spawn(self._dispatch(entry, batch))
        elif len(group) == 1:
            self._spawn(self._flush_after_window(entry))
        try:
            outcome, col = await self._await_request(req, timeout)
        finally:
            self._depth -= 1
            self.telemetry.queue_depth.set(self._depth)
            self._notify_if_drained()
        return self._response(entry, req, outcome, col, n_rhs=1)

    async def solve_multi(
        self,
        ref: str,
        B: np.ndarray,
        *,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> SolveResponse:
        """Solve ``L X = B`` for a block of right-hand sides.

        Dispatched immediately (a multi-RHS request is already a batch);
        rides the same fallback ladder and telemetry as ``solve``.
        ``trace_id`` adopts a caller-minted id (see :meth:`solve`).
        """
        trace_id = trace_id or new_trace_id()
        try:
            entry = self.registry.get(ref)
        except UnknownMatrixError:
            self._reject(trace_id, ref, "unknown-matrix")
            raise
        B = np.ascontiguousarray(B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        self._admit(B, 2, trace_id, entry)
        self._emit(
            "enqueue", trace_id=trace_id, matrix=entry.key,
            n_rhs=B.shape[1], queue_depth=self._depth,
        )
        req = PendingSolve(
            b=B,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=time.perf_counter(),
            trace_id=trace_id,
        )

        async def run() -> None:
            try:
                outcome = await self._run_block(
                    entry, B, False, trace_id, (trace_id,)
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                if not req.future.done():
                    req.future.set_exception(exc)
                    self._failed(entry, req, exc)
            else:
                if not req.future.done():
                    req.future.set_result((outcome, slice(None)))

        self._spawn(run())
        try:
            outcome, _ = await self._await_request(req, timeout)
        finally:
            self._depth -= 1
            self.telemetry.queue_depth.set(self._depth)
            self._notify_if_drained()
        return self._response(
            entry, req, outcome, slice(None), n_rhs=B.shape[1]
        )

    def quarantined(self, ref: str) -> frozenset[str]:
        """Solver names that have failed on this matrix (never retried)."""
        entry = self.registry.get(ref)
        with self._quarantine_lock:
            return frozenset(self._quarantined.get(entry.key, ()))

    def snapshot(self) -> dict:
        """Telemetry + registry statistics + quarantine state, one dict."""
        snap = self.telemetry.snapshot()
        snap["registry"] = self.registry.stats()
        with self._quarantine_lock:
            snap["quarantined"] = {
                key: sorted(names)
                for key, names in self._quarantined.items()
                if names
            }
        snap["trace"] = self.trace_log.summary()
        if self.journal is not None:
            snap["journal"] = self.journal.stats()
        return snap

    async def close(self) -> None:
        """Drain: wait for enqueued work, then stop the worker pool.

        The wait is event-driven: the last in-flight request sets
        ``_drained`` on its way out (via :meth:`_notify_if_drained`)
        rather than close() polling shared state on a sleep loop — the
        busy-wait pattern serve-lint SL004 exists to flag.
        """
        self._closed = True
        if self._pending or self._depth:
            if self._drained is None:
                self._drained = asyncio.Event()
            await self._drained.wait()
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    def _spawn(self, coro) -> "asyncio.Task":
        """Start background work, retaining the task handle."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _notify_if_drained(self) -> None:
        """Wake a draining :meth:`close` once the engine is idle."""
        if (
            self._drained is not None
            and not self._pending
            and not self._depth
        ):
            self._drained.set()

    async def __aenter__(self) -> "SolveEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # batching front (runs on the event loop)
    # ------------------------------------------------------------------
    def _admit(
        self, B: np.ndarray, ndim: int, trace_id: str, entry: RegisteredMatrix
    ) -> None:
        """Admit one request, or reject it (counted, traced, raised)
        before it queues.  ``B`` must be ``(n,)`` (``ndim`` 1) or
        ``(n, k>=1)`` (``ndim`` 2) for the matrix's ``n`` rows."""
        matrix_key = entry.key
        n = entry.matrix.n_rows
        if B.ndim != ndim or B.shape[0] != n or B.size == 0:
            self._reject(trace_id, matrix_key, "shape")
            expected = f"({n},)" if ndim == 1 else f"({n}, k>=1)"
            raise InvalidRequestError(
                f"right-hand side has shape {B.shape}, expected {expected}"
            )
        if not np.isfinite(B).all():
            self._reject(trace_id, matrix_key, "non-finite")
            raise InvalidRequestError(
                "right-hand side has non-finite entries (NaN or Inf)"
            )
        if self._closed:
            self._reject(trace_id, matrix_key, "closed")
            raise QueueFullError("engine is closed")
        if self._depth >= self.max_queue:
            self._reject(
                trace_id, matrix_key, "queue-full", queue_depth=self._depth
            )
            raise QueueFullError(
                f"queue full: {self._depth} in flight, limit {self.max_queue}"
            )
        self._depth += 1
        self.telemetry.queue_depth.set(self._depth)

    def _reject(
        self, trace_id: str, matrix_key: str, reason: str, **fields
    ) -> None:
        self._emit(
            "reject", trace_id=trace_id, matrix=matrix_key, reason=reason,
            **fields,
        )

    def _emit(self, kind: str, **fields) -> None:
        """The one exit of a lifecycle fact: traced, then counted."""
        self.telemetry.count(self.trace_log.emit(kind, **fields))

    def _failed(
        self, entry: RegisteredMatrix, req: PendingSolve, exc: BaseException
    ) -> None:
        """A raised block's ``fail`` event for ``req``, unless a
        ``timeout`` already ended its trail."""
        if not req.abandoned:
            self._emit(
                "fail", trace_id=req.trace_id, matrix=entry.key,
                error=type(exc).__name__,
            )

    async def _await_request(
        self, req: PendingSolve, timeout: Optional[float]
    ):
        deadline = self.default_timeout if timeout is None else timeout
        if deadline is None:
            return await req.future
        req.deadline = self._clock.now() + deadline
        try:
            result = await self._clock.wait_for(
                asyncio.shield(req.future), deadline
            )
        except asyncio.TimeoutError:
            raise self._timed_out(req, deadline) from None
        # an inline block holds the loop, so the timer above cannot fire
        # while it runs: a result that lands late is a timeout all the same
        if self._clock.now() > req.deadline:
            raise self._timed_out(req, deadline)
        return result

    def _timed_out(
        self, req: PendingSolve, deadline: float
    ) -> RequestTimeoutError:
        self._emit("timeout", trace_id=req.trace_id, deadline_s=deadline)
        # the worker may still resolve the future; mark the request
        # abandoned so a late failure adds no second terminal event,
        # and consume its outcome so an eventual failure is not "never
        # retrieved"
        req.abandoned = True
        req.future.add_done_callback(_discard_outcome)
        return RequestTimeoutError(
            f"solve did not complete within {deadline} s "
            "(worker continues; result discarded)"
        )

    async def _flush_after_window(self, entry: RegisteredMatrix) -> None:
        if self.batch_window > 0:
            await self._clock.sleep(self.batch_window)
        else:
            # one full event-loop tick: everything already scheduled
            # (e.g. the rest of an asyncio.gather) gets to enqueue first
            await self._clock.sleep(0)
        batch = self._pending.pop(entry.key, [])
        if batch:
            await self._dispatch(entry, batch)
        # a batch of fully timed-out requests drops depth to zero while
        # its group is still pending; the pop above is then the last
        # step of the drain
        self._notify_if_drained()

    async def _dispatch(
        self, entry: RegisteredMatrix, batch: list[PendingSolve]
    ) -> None:
        width = len(batch)
        batch_id = new_trace_id()
        trace_ids = tuple(r.trace_id for r in batch)
        B = (
            batch[0].b.reshape(-1, 1)
            if width == 1
            else np.stack([r.b for r in batch], axis=1)
        )
        try:
            outcome = await self._run_block(
                entry, B, width > 1, batch_id, trace_ids
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
                    self._failed(entry, req, exc)
            return
        for col, req in enumerate(batch):
            if not req.future.done():
                req.future.set_result((outcome, col))

    def _response(
        self,
        entry: RegisteredMatrix,
        req: PendingSolve,
        outcome: BlockOutcome,
        col,
        *,
        n_rhs: int,
    ) -> SolveResponse:
        """Build the request's record and render it to every sink."""
        now = time.perf_counter()
        x = outcome.X[:, col]
        if isinstance(col, int):
            x = x.copy()
        resp = SolveResponse(
            x=x,
            solver=outcome.solver_name,
            matrix=entry.key,
            n_rhs=n_rhs,
            batch_width=outcome.batch_width,
            exec_ms=outcome.exec_ms,
            cycles=outcome.cycles,
            latency_ms=(now - req.submitted_at) * 1e3,
            fallback_from=outcome.fallback_from,
            trace_id=req.trace_id,
            lane=outcome.lane,
            schedule=outcome.schedule,
            dispatch=outcome.dispatch,
            phases={
                "queue_ms": (outcome.block_at - req.submitted_at) * 1e3,
                "handoff_ms": (outcome.ladder_at - outcome.block_at) * 1e3,
                "kernel_ms": (outcome.done_at - outcome.ladder_at) * 1e3,
                "publish_ms": (now - outcome.done_at) * 1e3,
            },
        )
        fields = solve_fields(resp)
        self._emit("publish", **fields)
        if self.journal is not None:
            self._journal_solve(fields)
        return resp

    def _journal_solve(self, fields: dict) -> None:
        """One durable flight-recorder record per completed request:
        the rendered record plus the matrix's features and an outcome.

        Features come from the registry cache (the lane policy already
        built them for every served matrix) and are rendered once per
        key, so the record costs one dict merge and one buffered write —
        the <5% budget ``bench_journal_overhead.py`` enforces.
        """
        key = fields["matrix"]
        feature_fields = self._journal_features.get(key)
        if feature_fields is None:
            feats = self.registry.features(key)
            feature_fields = self._journal_features[key] = {
                "n_rows": feats.n_rows,
                "nnz": feats.nnz,
                "n_levels": feats.n_levels,
                "granularity": round(float(feats.granularity), 6),
                "avg_nnz_per_row": round(float(feats.avg_nnz_per_row), 6),
            }
        self.journal.record_solve(
            **fields,
            **feature_fields,
            outcome="fallback" if fields["fallback_from"] else "ok",
        )

    def _incident(
        self, key: str, solver_name: str, lane: Optional[str], exc
    ) -> None:
        """Black-box dump on kernel failure/quarantine (if journaling).

        Runs on the thread that caught the failure (a pool worker, or
        the event loop for an inline host block), *after* the
        quarantine and telemetry bookkeeping released their locks —
        ``snapshot()`` re-acquires them.
        """
        if self.journal is None:
            return
        self.journal.record_event(
            "kernel-failure", matrix=key, solver=solver_name, lane=lane,
            error=type(exc).__name__,
        )
        self.journal.incident(
            "kernel-failure",
            matrix=key,
            solver=solver_name,
            lane=lane,
            error=f"{type(exc).__name__}: {exc}",
            trace_events=self.trace_log.events(),
            snapshot=self.snapshot(),
        )

    # ------------------------------------------------------------------
    # execution (on worker threads; the host step also inline)
    # ------------------------------------------------------------------
    def _quarantined_names(self, key: str) -> frozenset[str]:
        with self._quarantine_lock:
            return frozenset(self._quarantined.get(key, ()))

    def _quarantine(self, key: str, solver_name: str) -> None:
        with self._quarantine_lock:
            self._quarantined.setdefault(key, set()).add(solver_name)

    def _profiler(self) -> Optional[Profiler]:
        """Fresh aggregate-only profiler when profiling is enabled."""
        return Profiler(slices=False) if self.profile else None

    def _emit_launch(
        self,
        entry: RegisteredMatrix,
        outcome: BlockOutcome,
        batch_id: str,
        trace_ids: tuple,
        profile: Optional[dict],
        **extra,
    ) -> BlockOutcome:
        """The one ``launch`` event of the kernel launch that served a
        block (``width`` requests, ``n_rhs`` columns); returns
        ``outcome``."""
        fields = {
            "batch_id": batch_id,
            "matrix": entry.key,
            "solver": outcome.solver_name,
            "lane": outcome.lane,
            "dispatch": outcome.dispatch,
            "cycles": outcome.cycles,
            "exec_ms": outcome.exec_ms,
            "n_rhs": outcome.X.shape[1],
            "width": len(trace_ids),
            "trace_ids": list(trace_ids),
            **extra,
        }
        if profile is not None:
            fields["profile"] = profile
        self._emit("launch", **fields)
        return outcome

    async def _run_block(
        self,
        entry: RegisteredMatrix,
        B: np.ndarray,
        coalesced: bool,
        batch_id: str,
        trace_ids: tuple,
    ) -> BlockOutcome:
        """Serve one block inline on the event loop or on the pool.

        The one dispatch point of the engine.  An idle engine runs a
        warm host-lane block right here (:meth:`_serves_inline`); every
        other block runs ``_execute_block`` on the worker pool inside a
        copy of this task's context — ambient instrumentation
        (tracer/sanitizer/profiler ContextVars) would otherwise be
        invisible on the worker thread, and the lane policy must see it
        to force the simulator.
        """
        block_at = time.perf_counter()
        ladder_at = outcome = None
        suspects: dict = {}
        if self._serves_inline(entry, len(trace_ids)):
            # only the host step runs here: after a failure, the one
            # failure handler quarantines it and the pool runs the rest
            # of the ladder, where the skipped step is ``fallback_from``
            ladder_at = time.perf_counter()
            try:
                outcome = self._run_plan(
                    entry, B, coalesced, batch_id, trace_ids,
                    dispatch="inline",
                )
                outcome.done_at = time.perf_counter()
            except FALLBACK_ERRORS as exc:
                if self.execution == "host":
                    raise  # forced host lane: failures propagate
                if isinstance(exc, NonFiniteAnswerError):
                    suspects = {HOST_LANE: ("host", exc)}
                else:
                    self._kernel_failed(
                        entry, HOST_LANE, "host", exc, batch_id, trace_ids
                    )
        if outcome is None:
            ctx = contextvars.copy_context()
            self._pool_blocks += 1
            try:
                outcome = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    lambda: ctx.run(
                        self._execute_block, entry, B, coalesced, batch_id,
                        trace_ids, suspects,
                    ),
                )
            finally:
                self._pool_blocks -= 1
        if ladder_at is not None:
            # the ladder walk began with the inline host step, even one
            # that failed over to the pool
            outcome.ladder_at = ladder_at
        outcome.block_at = block_at
        return outcome

    def _serves_inline(self, entry: RegisteredMatrix, n_requests: int) -> bool:
        """Whether a block of ``n_requests`` runs on the event loop.

        Only when nothing could run beside it — every in-flight request
        rides this block, no group is pending, no block is on the pool —
        and the host lane would serve it from a plan that is already
        built, so neither a simulation nor a plan build ever holds the
        loop.  An injected executor receives every block.
        """
        return (
            self._owns_executor
            and self._depth == n_requests
            and not self._pending
            and not self._pool_blocks
            and self.execution != "sim"
            and not self._sim_forced()
            and HOST_LANE not in self._quarantined_names(entry.key)
            and self.registry.has_plan(entry.key)
        )

    def _sim_forced(self) -> bool:
        """Ambient cycle-level instrumentation (tracer, sanitizer, or a
        sim-kind profiler) — only the simulator can serve it.  Note that
        ``profile=True`` is *not* a forcing condition: the host lane
        profiles itself at wall-clock resolution."""
        return instrumentation_active()

    def _run_plan(
        self,
        entry: RegisteredMatrix,
        B: np.ndarray,
        coalesced: bool,
        batch_id: str,
        trace_ids: tuple,
        dispatch: str = "pool",
    ) -> BlockOutcome:
        """Host fast lane: the registry's cached plan, in the schedule
        variant the registry picked for this matrix.  ``dispatch``
        ("inline" or "pool") says where the block ran, for its launch
        event."""
        # an ambient host profiler (caller-attached) keeps collecting
        # across blocks; otherwise profile=True gets a fresh per-launch
        # one so the trace digest covers exactly this block
        ambient = active_host_profiler()
        profiler = ambient
        if profiler is None and self.profile:
            profiler = HostProfiler()
        first_new = len(profiler.launches) if profiler is not None else 0
        t0 = time.perf_counter()
        plan = self.registry.plan(entry.key)
        fresh = ambient is None and profiler is not None
        with profiling(profiler) if fresh else nullcontext():
            X = plan.solve_many(B)
        _check_finite(HOST_LANE, X)
        exec_ms = (time.perf_counter() - t0) * 1e3
        launches = profiler.launches[first_new:] if profiler is not None else []
        outcome = BlockOutcome(
            X=X,
            solver_name=HOST_LANE,
            exec_ms=exec_ms,
            cycles=0,
            batch_width=B.shape[1] if coalesced else 1,
            lane="host",
            schedule=plan.schedule,
            dispatch=dispatch,
        )
        return self._emit_launch(
            entry, outcome, batch_id, trace_ids,
            host_phase_digest(launches, solver_name=HOST_LANE)
            if launches else None,
            n_levels=plan.n_levels,
            base_levels=plan.base_levels, schedule=plan.schedule,
        )

    def _run_batched(
        self,
        entry: RegisteredMatrix,
        B: np.ndarray,
        coalesced: bool,
        batch_id: str,
        trace_ids: tuple,
    ) -> BlockOutcome:
        """Sim lane, width ≥ 2: one batched Writing-First SpTRSM."""
        profiler = self._profiler()
        with profiling(profiler) if profiler is not None else nullcontext():
            res = capellini_sptrsm(entry.matrix, B, device=self.device)
        return self._sim_outcome(
            entry, f"{BATCHED_KERNEL}-SpTRSM", res.X, res.exec_ms,
            res.stats.cycles, coalesced, profiler, batch_id, trace_ids,
        )

    def _run_solver(
        self,
        solver: SpTRSVSolver,
        entry: RegisteredMatrix,
        B: np.ndarray,
        coalesced: bool,
        batch_id: str,
        trace_ids: tuple,
    ) -> BlockOutcome:
        """Sim lane: one ladder solver, column by column."""
        profiler = self._profiler()
        with profiling(profiler) if profiler is not None else nullcontext():
            results = [
                solver.solve(entry.matrix, B[:, r], device=self.device)
                for r in range(B.shape[1])
            ]
        return self._sim_outcome(
            entry, solver.name, np.stack([r.x for r in results], axis=1),
            sum(r.exec_ms for r in results),
            sum(r.stats.cycles for r in results if r.stats is not None),
            coalesced, profiler, batch_id, trace_ids,
        )

    def _sim_outcome(
        self, entry, name, X, exec_ms, cycles, coalesced, profiler,
        batch_id, trace_ids,
    ) -> BlockOutcome:
        _check_finite(name, X)
        outcome = BlockOutcome(
            X=X,
            solver_name=name,
            exec_ms=exec_ms,
            cycles=cycles,
            batch_width=X.shape[1] if coalesced else 1,
        )
        return self._emit_launch(
            entry, outcome, batch_id, trace_ids,
            phase_digest(
                profiler.profile(solver_name=name, device_name=self.device.name)
            )
            if profiler is not None and profiler.launches else None,
        )

    def _kernel_failed(
        self,
        entry: RegisteredMatrix,
        name: str,
        lane: str,
        exc: BaseException,
        batch_id: str,
        trace_ids: tuple,
    ) -> None:
        """The one failure handler: quarantine ``name`` for this matrix,
        trace and count the failure, dump an incident."""
        self._quarantine(entry.key, name)
        self._emit(
            "kernel-failure", batch_id=batch_id, matrix=entry.key,
            solver=name, lane=lane, error=type(exc).__name__,
            trace_ids=list(trace_ids),
        )
        self._incident(entry.key, name, lane, exc)

    def _ladder(self, entry: RegisteredMatrix, k: int):
        """``(name, lane, runner)`` steps in preference order.

        The host lane when the policy allows it, then the batched
        SpTRSM for blocks, then the granularity-selected solver chain
        (shared with :func:`select_solver` — one code path).  Lazy, so
        features for the chain are only built once a step reaches it.
        """
        if self.execution != "sim" and not self._sim_forced():
            yield HOST_LANE, "host", self._run_plan
        if k > 1 and (
            self._candidates is None
            or WritingFirstCapelliniSolver in self._candidates
        ):
            yield BATCHED_KERNEL, "sim", self._run_batched
        features = self.registry.features(entry.key)
        for solver in solver_chain(features, candidates=self._candidates):
            yield solver.name, "sim", functools.partial(
                self._run_solver, solver
            )

    def _execute_block(
        self,
        entry: RegisteredMatrix,
        B: np.ndarray,
        coalesced: bool,
        batch_id: str = "",
        trace_ids: tuple = (),
        suspects: Optional[dict] = None,
    ) -> BlockOutcome:
        """Solve a block on the first ladder step that succeeds.

        Quarantined steps are skipped up front rather than retried; a
        step that raises one of :data:`FALLBACK_ERRORS` is quarantined
        for this matrix by the one failure handler below, and the
        first skipped or failed step becomes ``fallback_from``.

        A step whose answer is non-finite (:func:`_check_finite`) is a
        *suspect*: the walk goes on without it, and it is quarantined
        only when a later step answers finitely, which shows the kernel
        rather than the right-hand side was at fault.  ``suspects``
        carries ``{name: (lane, exc)}`` from the inline host step.  If
        no step answers finitely, the request fails with
        :class:`NonFiniteAnswerError` and nothing is quarantined.
        """
        ladder_at = time.perf_counter()
        if self.execution == "host" and not self._sim_forced():
            # forced host lane: failures propagate to the caller
            outcome = self._run_plan(entry, B, coalesced, batch_id, trace_ids)
            outcome.ladder_at, outcome.done_at = ladder_at, time.perf_counter()
            return outcome
        quarantined = self._quarantined_names(entry.key)
        suspects = dict(suspects or {})
        failures: list[str] = list(suspects)
        for name, lane, runner in self._ladder(entry, B.shape[1]):
            if name in quarantined or name in failures:
                if name not in failures:
                    failures.append(name)
                continue
            try:
                outcome = runner(entry, B, coalesced, batch_id, trace_ids)
            except FALLBACK_ERRORS as exc:
                if isinstance(exc, NonFiniteAnswerError):
                    suspects[name] = (lane, exc)
                else:
                    self._kernel_failed(
                        entry, name, lane, exc, batch_id, trace_ids
                    )
                failures.append(name)
                continue
            for suspect, (s_lane, s_exc) in suspects.items():
                self._kernel_failed(
                    entry, suspect, s_lane, s_exc, batch_id, trace_ids
                )
            if failures:
                self._emit(
                    "fallback", batch_id=batch_id, matrix=entry.key,
                    fallback_from=failures[0], solver=outcome.solver_name,
                    trace_ids=list(trace_ids),
                )
                outcome.fallback_from = failures[0]
            outcome.ladder_at, outcome.done_at = ladder_at, time.perf_counter()
            return outcome
        if suspects:
            raise NonFiniteAnswerError(
                f"every usable solver returned a non-finite answer for "
                f"this right-hand side on matrix {entry.name!r}: "
                f"{sorted(suspects)}"
            )
        raise SolverError(
            f"no usable solver left for matrix {entry.name!r}: "
            f"failed/quarantined {sorted(set(failures) | quarantined)}"
        )
