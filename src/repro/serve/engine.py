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
  a group arms a flush timer on the engine clock, ``batch_window``
  seconds out (the next event-loop turn when 0); a group reaching
  ``max_batch`` flushes immediately, and a ``solve_multi`` block is
  dispatched as it is admitted.
* Each flushed batch (and each ``solve_multi`` block) runs either
  **inline** on the event loop or on a thread-pool worker.  It runs
  inline only when nothing else could run beside it and nothing slow
  can hold the loop: the engine is idle (every in-flight request rides
  this block, no other group is pending, no block is on the pool), the
  host lane would serve it (``execution != "sim"``, no sim-forcing
  instrumentation, the host lane not quarantined for the matrix), the
  registry already holds the matrix's plan, and the engine owns its
  executor (an injected ``executor=`` receives every block, unless it
  offers ``run_inline`` with a true ``inline`` flag, as the
  interleaving explorer's ``DeferredExecutor(inline=True)`` does).  That
  skips the thread hand-off, which at fine granularity costs as much
  as the kernel.  Only the host step runs inline: if it fails, the
  failure is quarantined as below and the rest of the ladder runs on
  the pool.  Concurrent blocks, cold plan builds, simulator steps and
  fallbacks all stay on the pool.
* Each block runs through one of two
  **execution lanes** (``execution=`` constructor parameter):

  - ``"host"`` — the registry's cached
    :class:`~repro.solvers.compiled.CompiledPlan`, solved with
    ``solve_many`` over the whole block: a coalesced batch as its
    columns, which the plan writes once into its kernel's start form,
    a ``solve_multi`` block as its ``(n, k)`` array.  Only a simulator
    step stacks a batch's columns.  This is the production fast
    path: one native ``csr_matvec`` sweep, or one native call per
    level, instead of thousands of interpreter-stepped simulated
    cycles.  The plan's schedule variant is a property of the matrix,
    decided once by the registry
    (:meth:`~repro.serve.registry.MatrixRegistry.plan`):
    ``"sequential"`` for deep, skinny level structures
    (:func:`~repro.solvers.compiled.pick_schedule`: many levels,
    Eq. 1 granularity at or below the paper's 0.7 threshold), where
    per-level dispatch would dominate, ``"level"`` otherwise.
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
    ``profile=True`` does **not** change lanes: sim-lane launches get
    a cycle digest in their trace event's ``profile`` field, and a
    host-lane launch's time is its ``exec_ms``.
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
* Deadlines: a result that reaches its request after the deadline
  (read on the engine clock) counts as a timeout (one ``timeout``
  event), and no answer is served.  Where the wait can outlast the
  deadline, a timer on the engine clock fails the request's own future
  on time: it is armed at admission when ``batch_window > 0``, and at
  dispatch, for the time left, when a block goes to the pool (the pool
  leg after a failed inline host step included).  The block's outcome
  then finds the future done and adds no second terminal event.  An
  inline block holds the loop, so no timer could fire before its
  result is checked: an inline request arms none.
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
from repro.obs.journal import feature_fragment
from repro.obs.profiler import Profiler, profiling
from repro.obs.report import phase_digest
from repro.obs.tracelog import TraceLog, new_id
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


def _call(fn, *args):
    """Run an inline block directly: the engine's own executor has no
    inline hook."""
    return fn(*args)


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
        self.telemetry = ServeTelemetry()
        #: bounded structured event log; every request gets a trace id
        #: and an enqueue → launch → publish event trail
        self.trace_log = trace_log if trace_log is not None else TraceLog()
        #: when True, every simulator launch event carries a digest of
        #: its aggregate cycle phases (no slices, O(warps) overhead);
        #: host launches carry their ``exec_ms`` alone.  Does not
        #: affect lane choice — only ambient cycle-level
        #: instrumentation forces the simulator.
        self.profile = profile
        #: execution lane policy: "auto" | "host" | "sim"
        self.execution = execution
        #: optional :class:`~repro.obs.journal.JournalWriter` — the
        #: flight recorder.  When set, every completed request appends
        #: one durable per-solve record and every kernel failure dumps
        #: a black-box incident file.  The engine never owns it: the
        #: caller (CLI session, shard worker) opens and closes it.
        self.journal = journal
        #: per-fingerprint journal feature fields, JSON-encoded — matrix
        #: features are immutable once registered, so they are encoded
        #: once per key instead of once per solve
        self._journal_features: dict[str, bytes] = {}
        self._candidates = tuple(candidates) if candidates is not None else None
        #: time source and timers for batch windows and request
        #: deadlines (``now``/``sleep``/``call_later``).  The default is
        #: real time; the deterministic interleaving harness
        #: (:mod:`repro.analysis.interleave`) injects a virtual clock so
        #: every timer becomes an explicitly scheduled event.
        self._clock = clock if clock is not None else AsyncioClock()
        self._owns_executor = executor is None
        #: runs an inline block on the loop thread, or None when every
        #: block goes to the executor (see :meth:`_serves_inline`)
        if executor is None:
            self._run_inline = _call
        elif getattr(executor, "inline", False):
            self._run_inline = executor.run_inline
        else:
            self._run_inline = None
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
        #: pool-dispatch tasks.  The event loop keeps only weak
        #: references to tasks (serve-lint SL005), so the engine retains
        #: every handle until the task completes.
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
        trace_id = trace_id or new_id()
        try:
            entry = self.registry.get(ref)
        except UnknownMatrixError:
            self._reject(trace_id, ref, "unknown-matrix")
            raise
        b = np.ascontiguousarray(b, dtype=np.float64)
        self._admit(b, 1, trace_id, entry)
        self._emit("enqueue", {
            "trace_id": trace_id, "matrix": entry.key, "n_rhs": 1,
            "queue_depth": self._depth,
        })
        req = self._pending_solve(b, trace_id, timeout)
        if self.batch_window > 0:
            self._arm(req)  # the deadline can pass while its group waits
        group = self._pending.setdefault(entry.key, [])
        group.append(req)
        if len(group) >= self.max_batch:
            self._dispatch_batch(entry, self._pending.pop(entry.key))
        elif len(group) == 1:
            self._clock.call_later(
                self.batch_window, self._flush, entry, group, label="flush"
            )
        return await self._settled(entry, req, 1)

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
        trace_id = trace_id or new_id()
        try:
            entry = self.registry.get(ref)
        except UnknownMatrixError:
            self._reject(trace_id, ref, "unknown-matrix")
            raise
        B = np.ascontiguousarray(B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        self._admit(B, 2, trace_id, entry)
        self._emit("enqueue", {
            "trace_id": trace_id, "matrix": entry.key, "n_rhs": B.shape[1],
            "queue_depth": self._depth,
        })
        req = self._pending_solve(B, trace_id, timeout)
        self._dispatch(entry, B, trace_id, (req,), (slice(None),))
        return await self._settled(entry, req, B.shape[1])

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
        self._emit("reject", {
            "trace_id": trace_id, "matrix": matrix_key, "reason": reason,
            **fields,
        })

    def _emit(self, kind: str, record: dict) -> None:
        """The one exit of a lifecycle fact: ``record``, built once by
        the caller, is traced as it is, then counted."""
        self.telemetry.count(self.trace_log.emit(kind, record))

    def _pending_solve(
        self, B: np.ndarray, trace_id: str, timeout: Optional[float]
    ) -> PendingSolve:
        """An admitted request's :class:`PendingSolve`, its deadline set
        but no timer armed yet (see :meth:`_arm`)."""
        timeout_s = self.default_timeout if timeout is None else timeout
        req = PendingSolve(
            b=B,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=time.perf_counter(),
            trace_id=trace_id,
            timeout_s=timeout_s,
        )
        if timeout_s is not None:
            req.deadline = self._clock.now() + timeout_s
        return req

    def _arm(self, req: PendingSolve) -> None:
        """Arm ``req``'s deadline timer for the time it has left, where
        it can fire before :meth:`_settled`'s late-result check: in a
        batch window or on the pool.  None without a deadline, twice,
        or once the request is settled."""
        if req.deadline is None or req.timer is not None or req.future.done():
            return
        req.timer = self._clock.call_later(
            max(req.deadline - self._clock.now(), 0.0), self._expire, req,
            label="deadline",
        )

    def _expire(self, req: PendingSolve) -> None:
        """Deadline timer: fail the request's own future, unless its
        block's outcome already settled it (then the awaiting request
        applies the late-result rule in :meth:`_settled`)."""
        if not req.future.done():
            req.future.set_exception(self._timed_out(req))

    async def _settled(
        self, entry: RegisteredMatrix, req: PendingSolve, n_rhs: int
    ) -> SolveResponse:
        """Await the request's ``(outcome, col)``, withdraw its timer if
        one was armed, release its queue slot and build its response."""
        try:
            outcome, col = await req.future
            # an inline block holds the loop and arms no timer: a result
            # that lands after the deadline is a timeout all the same
            if req.deadline is not None and self._clock.now() > req.deadline:
                raise self._timed_out(req)
        finally:
            if req.timer is not None:
                req.timer.cancel()
            self._depth -= 1
            self.telemetry.queue_depth.set(self._depth)
            self._notify_if_drained()
        return self._response(entry, req, outcome, col, n_rhs=n_rhs)

    def _timed_out(self, req: PendingSolve) -> RequestTimeoutError:
        """The request's one ``timeout`` event and error.  The future is
        settled by now (by the timer, or by a late outcome), so the
        block's eventual outcome adds no second terminal event."""
        self._emit(
            "timeout", {"trace_id": req.trace_id, "deadline_s": req.timeout_s}
        )
        return RequestTimeoutError(
            f"solve did not complete within {req.timeout_s} s "
            "(worker continues; result discarded)"
        )

    def _flush(
        self, entry: RegisteredMatrix, group: list[PendingSolve]
    ) -> None:
        """Flush timer: dispatch ``group`` if it is still the matrix's
        pending group; one that reached ``max_batch`` went already, and
        the group after it keeps its own window."""
        if self._pending.get(entry.key) is group:
            del self._pending[entry.key]
            self._dispatch_batch(entry, group)
        # a batch of fully timed-out requests drops depth to zero while
        # its group is still pending; the flush above is then the last
        # step of the drain
        self._notify_if_drained()

    def _dispatch_batch(
        self, entry: RegisteredMatrix, batch: list[PendingSolve]
    ) -> None:
        """One coalesced block, passed as its columns: column ``i`` is
        request ``i``'s right-hand side and answer.  The host step
        writes the columns straight into its kernel's start form; only
        a simulator step stacks them (:meth:`_execute_block`)."""
        self._dispatch(
            entry, [r.b for r in batch], new_id(), batch, range(len(batch))
        )

    def _settle(
        self,
        entry: RegisteredMatrix,
        reqs,
        cols,
        outcome: Optional[BlockOutcome] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Resolve each request's future with ``(outcome, col)``, or
        fail it with ``exc`` (one ``fail`` event each).  A request whose
        deadline already settled its future is skipped."""
        for req, col in zip(reqs, cols):
            if not req.future.done():
                if exc is None:
                    req.future.set_result((outcome, col))
                else:
                    req.future.set_exception(exc)
                    self._emit("fail", {
                        "trace_id": req.trace_id, "matrix": entry.key,
                        "error": type(exc).__name__,
                    })

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
        record = solve_fields(resp)
        if self.journal is not None:
            # before the trace stamps kind/seq/ts into the record
            self._journal_solve(record)
        self._emit("publish", record)
        return resp

    def _journal_solve(self, fields: dict) -> None:
        """One durable flight-recorder record per completed request:
        the rendered record plus an outcome and the matrix's features.

        Features come from the registry cache (the lane policy already
        built them for every served matrix) and are encoded once per
        key (:func:`~repro.obs.journal.feature_fragment`), so the record
        costs one encode of the per-solve fields and one buffered
        write.  ``bench_journal_overhead.py`` measures it: about 18–20
        µs per solve in a 16-solve circuit-20000 burst on a 2-vCPU
        host, 8.0–8.5% of the burst, over its 5% budget and inside the
        10% the gate allows (budget plus noise margin).
        """
        key = fields["matrix"]
        features = self._journal_features.get(key)
        if features is None:
            feats = self.registry.features(key)
            features = self._journal_features[key] = feature_fragment({
                "n_rows": feats.n_rows,
                "nnz": feats.nnz,
                "n_levels": feats.n_levels,
                "granularity": round(float(feats.granularity), 6),
                "avg_nnz_per_row": round(float(feats.avg_nnz_per_row), 6),
            })
        self.journal.append_solve(
            fields,
            outcome="fallback" if fields["fallback_from"] else "ok",
            features=features,
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
        self._emit("launch", fields)
        return outcome

    def _dispatch(
        self,
        entry: RegisteredMatrix,
        B,
        batch_id: str,
        reqs,
        cols,
    ) -> None:
        """Serve one block inline on the event loop or on the pool, and
        settle each of ``reqs`` with its column in ``cols``.  ``B`` is
        an ``(n, k)`` array (a ``solve_multi`` block) or a list of ``k``
        columns (a coalesced batch).

        The one dispatch point of the engine.  An idle engine runs a
        warm host-lane block right here (:meth:`_serves_inline`), before
        returning; every other block goes to :meth:`_on_pool`, and
        each of its requests gets its deadline timer (:meth:`_arm`)
        here, as it is handed over.
        """
        block_at = time.perf_counter()
        trace_ids = tuple(r.trace_id for r in reqs)
        ladder_at = None
        suspects: dict = {}
        if self._serves_inline(entry, len(reqs)):
            # only the host step runs here: after a failure, the one
            # failure handler quarantines it and the pool runs the rest
            # of the ladder, where the skipped step is ``fallback_from``
            ladder_at = time.perf_counter()
            try:
                outcome = self._run_inline(
                    self._run_plan, entry, B, batch_id, trace_ids, "inline"
                )
            except FALLBACK_ERRORS as exc:
                if self.execution == "host":
                    # forced host lane: failures propagate
                    self._settle(entry, reqs, cols, exc=exc)
                    return
                if isinstance(exc, NonFiniteAnswerError):
                    suspects = {HOST_LANE: ("host", exc)}
                else:
                    self._kernel_failed(
                        entry, HOST_LANE, "host", exc, batch_id, trace_ids
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to callers
                self._settle(entry, reqs, cols, exc=exc)
                return
            else:
                outcome.block_at, outcome.ladder_at = block_at, ladder_at
                outcome.done_at = time.perf_counter()
                self._settle(entry, reqs, cols, outcome)
                return
        # a pool block can outlast its requests' deadlines
        for req in reqs:
            self._arm(req)
        # counted now, not when the task starts, so a flush later in
        # this loop turn sees the block and stays off the loop
        self._pool_blocks += 1
        self._spawn(
            self._on_pool(
                entry, B, batch_id, trace_ids, reqs, cols, suspects,
                block_at, ladder_at,
            )
        )

    async def _on_pool(
        self, entry, B, batch_id, trace_ids, reqs, cols, suspects,
        block_at, ladder_at,
    ) -> None:
        """Run ``_execute_block`` on the worker pool inside a copy of
        this task's context — ambient instrumentation (tracer/sanitizer/
        profiler ContextVars) would otherwise be invisible on the worker
        thread, and the lane policy must see it to force the simulator.
        Ends the block's ``_pool_blocks`` count that ``_dispatch`` began."""
        ctx = contextvars.copy_context()
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                lambda: ctx.run(
                    self._execute_block, entry, B, batch_id, trace_ids,
                    suspects,
                ),
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            self._settle(entry, reqs, cols, exc=exc)
            return
        finally:
            self._pool_blocks -= 1
        if ladder_at is not None:
            # the ladder walk began with the inline host step that
            # failed over to the pool
            outcome.ladder_at = ladder_at
        outcome.block_at = block_at
        self._settle(entry, reqs, cols, outcome)

    def _serves_inline(self, entry: RegisteredMatrix, n_requests: int) -> bool:
        """Whether a block of ``n_requests`` runs on the event loop.

        Only when nothing could run beside it — every in-flight request
        rides this block, no group is pending, no block is on the pool —
        and the host lane would serve it from a plan that is already
        built, so neither a simulation nor a plan build ever holds the
        loop.  An injected executor receives every block unless it
        offers ``run_inline`` (``self._run_inline``).
        """
        return (
            self._run_inline is not None
            and self._depth == n_requests
            and not self._pending
            and not self._pool_blocks
            and self.execution != "sim"
            and not self._sim_forced()
            # a lock-free peek: a name is only ever added, and the pool
            # leg re-reads the set under the lock
            and HOST_LANE not in self._quarantined.get(entry.key, ())
            and self.registry.has_plan(entry.key)
        )

    def _sim_forced(self) -> bool:
        """Ambient cycle-level instrumentation (tracer, sanitizer, or
        profiler) — only the simulator can serve it.  Note that
        ``profile=True`` is *not* a forcing condition: it digests only
        the launches that run on the simulator anyway."""
        return instrumentation_active()

    def _run_plan(
        self,
        entry: RegisteredMatrix,
        B,
        batch_id: str,
        trace_ids: tuple,
        dispatch: str = "pool",
    ) -> BlockOutcome:
        """Host fast lane: the registry's cached plan, in the schedule
        variant the registry picked for this matrix, given the block in
        either form (:meth:`CompiledPlan.solve_many
        <repro.solvers.compiled.CompiledPlan.solve_many>`).  ``dispatch``
        ("inline" or "pool") says where the block ran, for its launch
        event."""
        t0 = time.perf_counter()
        plan = self.registry.plan(entry.key)
        X = plan.solve_many(B)
        _check_finite(HOST_LANE, X)
        exec_ms = (time.perf_counter() - t0) * 1e3
        outcome = BlockOutcome(
            X=X,
            solver_name=HOST_LANE,
            exec_ms=exec_ms,
            cycles=0,
            batch_width=len(trace_ids),
            lane="host",
            schedule=plan.schedule,
            dispatch=dispatch,
        )
        return self._emit_launch(
            entry, outcome, batch_id, trace_ids, None,
            n_levels=plan.n_levels,
            base_levels=plan.base_levels, schedule=plan.schedule,
        )

    def _run_batched(
        self,
        entry: RegisteredMatrix,
        B: np.ndarray,
        batch_id: str,
        trace_ids: tuple,
    ) -> BlockOutcome:
        """Sim lane, width ≥ 2: one batched Writing-First SpTRSM."""
        profiler = self._profiler()
        with profiling(profiler) if profiler is not None else nullcontext():
            res = capellini_sptrsm(entry.matrix, B, device=self.device)
        return self._sim_outcome(
            entry, f"{BATCHED_KERNEL}-SpTRSM", res.X, res.exec_ms,
            res.stats.cycles, profiler, batch_id, trace_ids,
        )

    def _run_solver(
        self,
        solver: SpTRSVSolver,
        entry: RegisteredMatrix,
        B: np.ndarray,
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
            profiler, batch_id, trace_ids,
        )

    def _sim_outcome(
        self, entry, name, X, exec_ms, cycles, profiler, batch_id,
        trace_ids,
    ) -> BlockOutcome:
        _check_finite(name, X)
        outcome = BlockOutcome(
            X=X,
            solver_name=name,
            exec_ms=exec_ms,
            cycles=cycles,
            batch_width=len(trace_ids),
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
        self._emit("kernel-failure", {
            "batch_id": batch_id, "matrix": entry.key, "solver": name,
            "lane": lane, "error": type(exc).__name__,
            "trace_ids": list(trace_ids),
        })
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
        B,
        batch_id: str,
        trace_ids: tuple,
        suspects: Optional[dict] = None,
    ) -> BlockOutcome:
        """Solve a block on the first ladder step that succeeds.

        ``B`` is the block as :meth:`_dispatch` got it.  The host step
        takes it as it is; the first simulator step stacks a block given
        as its columns into one ``(n, k)`` array, once.

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
            outcome = self._run_plan(entry, B, batch_id, trace_ids)
            outcome.ladder_at, outcome.done_at = ladder_at, time.perf_counter()
            return outcome
        quarantined = self._quarantined_names(entry.key)
        suspects = dict(suspects or {})
        failures: list[str] = list(suspects)
        k = len(B) if isinstance(B, list) else B.shape[1]
        for name, lane, runner in self._ladder(entry, k):
            if name in quarantined or name in failures:
                if name not in failures:
                    failures.append(name)
                continue
            if lane == "sim" and isinstance(B, list):
                B = np.stack(B, axis=1)
            try:
                outcome = runner(entry, B, batch_id, trace_ids)
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
                self._emit("fallback", {
                    "batch_id": batch_id, "matrix": entry.key,
                    "fallback_from": failures[0],
                    "solver": outcome.solver_name,
                    "trace_ids": list(trace_ids),
                })
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
