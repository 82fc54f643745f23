"""Multi-worker sharded serve tier with zero-copy matrix sharing.

One :class:`SolveEngine` saturates around a single process: the host
lane's kernels hold the GIL for much of a solve, and a single Python
event loop fronts every request.  The cluster breaks that ceiling the
way the paper breaks the warp-level ceiling — by going *finer*: a
front-end :class:`ShardRouter` consistent-hash-shards matrices onto a
pool of worker *processes*, each owning its shard of the registry and
running its own engine on the host lane.

Matrices cross process boundaries once, as shared pages: the router
publishes each registered matrix's CSR arrays into a
:class:`~repro.serve.arena.PlanArena` shared-memory segment and ships
the owning worker a small JSON handle.  The worker maps the segment,
registers the zero-copy matrix with its own registry, and builds the
fast-lane plan right there, through the same
:meth:`~repro.serve.registry.MatrixRegistry.plan` accessor an
in-process engine uses, so its first solve is already warm.  A plan
build costs milliseconds (one vectorized rewrite of ``L``'s rows, in
natural order for deep matrices and level order for shallow ones), and
the router builds no plan at all.  Request and response payloads above an inline
threshold travel through pooled :class:`~repro.serve.arena.SlabPool`
segments; the solution is written
back into the request's slab (the shapes match), so a large solve moves
bytes through shared pages in both directions and through the pipe only
as a header.

Failure model: each worker's pipe has a dedicated reader thread; EOF
means the worker died.  In-flight requests on that worker fail fast
with :class:`~repro.errors.WorkerDiedError`, and the router respawns
the worker and replays its shard's registrations from the published
handles; the new worker rebuilds its plans.  If respawn itself fails,
the worker's node is removed from the hash ring and its keys
re-register onto the surviving workers — consistent hashing moves only
the dead node's arc.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.errors as _errors
from repro.errors import (
    ClusterError,
    InvalidRequestError,
    ReproError,
    RequestTimeoutError,
    SolverError,
    WorkerDiedError,
)
from repro.metrics.fleet import fleet_openmetrics, fleet_rollup
from repro.obs.disttrace import (
    ClockAligner,
    SpanContext,
    SpanRecorder,
    TraceCollector,
    span_event,
)
from repro.obs.tracelog import new_id, write_tracelog
from repro.serve.arena import PlanArena, PlanHandle, SegmentCache, Slab, SlabPool
from repro.serve.engine import EXECUTION_MODES
from repro.serve.registry import MatrixRegistry
from repro.serve.requests import SolveResponse, solve_fields
from repro.serve.shardproto import (
    OP_CLOSE,
    OP_PING,
    OP_REGISTER,
    OP_RESULT,
    OP_SNAPSHOT,
    OP_SOLVE,
    OP_TRACE,
    SPAN_CONTEXT_KEY,
    SPANS_KEY,
    HashRing,
    send_frame,
    unpack_frame,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import check_solvable

__all__ = ["ClusterResponse", "ShardRouter"]

#: Payloads at or below this many bytes ride inline in the frame body;
#: larger ones go through a shared-memory slab.  A pipe write of a few
#: KB is cheaper than a segment round-trip; a pipe write of a few MB is
#: two avoidable copies.
DEFAULT_INLINE_MAX = 2048

#: A worker allowed to die this many times stops being respawned and is
#: retired from the ring instead — a crash *loop* (bad worker host,
#: poisoned shard) must not become an infinite respawn storm.
_MAX_DEATHS = 5

#: Seconds a worker has to answer its boot ping, and a replayed
#: registration to be acknowledged.
_SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class ClusterResponse(SolveResponse):
    """Result of one cluster solve: the worker engine's
    :class:`~repro.serve.requests.SolveResponse`, rebuilt from its
    rendered reply ``meta``, plus the node that served it.
    ``latency_ms`` and ``phases`` are the worker engine's."""

    worker: str = ""


def _jsonable(obj):
    """Coerce a snapshot-ish structure to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return str(obj)


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _worker_main(conn, worker_id: int, config: dict) -> None:
    """Entry point of one shard worker process."""
    import asyncio

    try:
        asyncio.run(_worker_serve(conn, worker_id, config))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


async def _worker_serve(conn, worker_id: int, config: dict) -> None:
    """The worker's asyncio serve loop.

    One engine, one shard of the registry, and one thread: frames are
    read and written on the event loop itself, with no thread hand-off
    per frame.  The pipe's descriptor is registered with
    ``loop.add_reader``, which sets an :class:`asyncio.Event`; the loop
    reads every frame the pipe holds (``conn.poll()``, then
    ``recv_bytes``) and waits on the event only once the pipe is empty.
    Replies go out through a direct :func:`send_frame` call, and since
    the loop thread is the pipe's only writer, no two frames can
    interleave.  A reply larger than the pipe buffer holds the loop
    until the router's reader thread, which always drains, has read it.
    Solve requests run as retained tasks (serve-lint SL005) so slow
    solves never block the read loop — pipelined requests keep the
    engine's coalescing fed.  While the worker holds the engine's
    ``max_queue`` solve tasks it reads no further frame until one of
    them finishes, so a burst larger than the queue waits in the pipe,
    and the router's blocking :func:`send_frame` throttles it, instead
    of being refused with ``QueueFullError``.  EOF ends the worker;
    ``OP_CLOSE`` drains the in-flight solves first.
    """
    import asyncio

    from repro.serve.engine import SolveEngine

    loop = asyncio.get_running_loop()
    registry = MatrixRegistry(shard_id=worker_id)
    journal = None
    if config.get("journal_dir"):
        from repro.obs.journal import JournalWriter

        # one shard name per worker id: a respawned worker opens fresh
        # segments past its predecessor's (never appends to a torn tail)
        journal = JournalWriter(
            config["journal_dir"], shard=f"shard-{worker_id}"
        )
    max_queue = config.get("max_queue", 1024)
    engine = SolveEngine(
        registry=registry,
        execution=config.get("execution", "host"),
        max_batch=config.get("max_batch", 32),
        batch_window=config.get("batch_window", 0.0),
        max_queue=max_queue,
        default_timeout=None,  # the router owns request deadlines
        journal=journal,
    )
    arena = PlanArena()
    slabs = SegmentCache()
    recorder = SpanRecorder(f"shard-{worker_id}")
    tasks: set = set()

    def reply(header: dict, body: bytes = b"") -> None:
        # every reply piggybacks whatever finished spans are buffered —
        # traces ship on existing frames, never on their own RPC
        header.setdefault(SPANS_KEY, recorder.drain())
        send_frame(conn, header, body)

    async def handle_solve(header: dict, body: bytes) -> None:
        rid = header["rid"]
        ctx = SpanContext.from_wire(header.get(SPAN_CONTEXT_KEY))
        trace_id = ctx.trace_id if ctx else None
        parent_id = ctx.span_id if ctx else None
        try:
            key = header["key"]
            n, k = header["shape"]
            slab_name = header.get("slab")
            with recorder.span(
                "deserialize", trace_id=trace_id, parent_id=parent_id,
                attrs={"inline": slab_name is None, "n_rhs": k},
            ) as sp:
                if slab_name is not None:
                    B = slabs.ndarray(slab_name, (n, k))
                else:
                    B = np.frombuffer(body, dtype=np.float64).reshape(n, k)
                trace_id = sp.trace_id  # minted here if the router sent none
            with recorder.span(
                "plan", trace_id=trace_id, parent_id=parent_id,
                attrs={"matrix": key[:12]},
            ) as plan_span:
                # a non-counting peek: the solve below makes the one
                # counted lookup, as an in-process solve does
                plan_span.attrs["warm"] = engine.registry.has_plan(key)
            with recorder.span(
                "solve", trace_id=trace_id, parent_id=parent_id,
            ) as solve_span:
                if header.get("single") and k == 1:
                    resp = await engine.solve(
                        key, np.ascontiguousarray(B[:, 0]),
                        trace_id=trace_id,
                    )
                    X = resp.x.reshape(n, 1)
                else:
                    resp = await engine.solve_multi(
                        key, B, trace_id=trace_id
                    )
                    X = resp.x.reshape(n, k)
                solve_span.attrs.update(
                    lane=resp.lane, solver=resp.solver,
                    batch_width=resp.batch_width,
                )
            out = {"op": OP_RESULT, "rid": rid, "ok": True,
                   "meta": solve_fields(resp)}
            payload = b""
            # the reply span covers serialization / slab write-back and
            # finishes *before* the frame is sent so it ships with this
            # very reply (the pipe flight itself is the remainder of the
            # router's root span)
            with recorder.span(
                "reply", trace_id=trace_id, parent_id=parent_id,
                attrs={"via": "inline" if slab_name is None else "slab"},
            ):
                if slab_name is not None:
                    # B has been fully consumed: reuse the request slab
                    # for the solution (same shape) — zero new segments
                    slabs.ndarray(slab_name, (n, k))[...] = X
                    out["slab"] = slab_name
                else:
                    payload = np.ascontiguousarray(X).tobytes()
            reply(out, payload)
        except BaseException as exc:  # noqa: BLE001 - forwarded to router
            reply({
                "op": OP_RESULT, "rid": rid, "ok": False,
                "error": type(exc).__name__, "message": str(exc),
            })

    readable = asyncio.Event()
    fd = conn.fileno()
    loop.add_reader(fd, readable.set)
    try:
        running = True
        while running:
            readable.clear()
            try:
                if not conn.poll():
                    await readable.wait()
                    continue
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break  # router died or closed the pipe; exit with it
            header, body = unpack_frame(data)
            op = header.get("op")
            rid = header.get("rid")
            if op == OP_SOLVE:
                task = asyncio.ensure_future(handle_solve(header, body))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # each task holds at most one engine request, so the
                # engine's queue never fills from this pipe
                while len(tasks) >= max_queue:
                    await asyncio.wait(
                        tasks, return_when=asyncio.FIRST_COMPLETED
                    )
            elif op == OP_REGISTER:
                ctx = SpanContext.from_wire(header.get(SPAN_CONTEXT_KEY))
                reg_trace = ctx.trace_id if ctx else None
                reg_parent = ctx.span_id if ctx else None
                try:
                    with recorder.span(
                        "arena-attach", trace_id=reg_trace,
                        parent_id=reg_parent,
                    ) as sp:
                        matrix = arena.attach(
                            PlanHandle.from_json(header["handle"])
                        )
                        reg_trace = sp.trace_id
                    with recorder.span(
                        "registry-plan", trace_id=reg_trace,
                        parent_id=reg_parent,
                    ):
                        key = engine.register(
                            matrix, name=header.get("name") or None
                        )
                        try:
                            registry.plan(key)
                        except SolverError:
                            # no host plan for this matrix: the engine's
                            # ladder quarantines the host step at its
                            # first solve, as it would in process
                            pass
                    reply({"op": OP_RESULT, "rid": rid, "ok": True,
                           "key": key})
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    reply({
                        "op": OP_RESULT, "rid": rid, "ok": False,
                        "error": type(exc).__name__, "message": str(exc),
                    })
            elif op == OP_PING:
                # the reply's wall-clock stamp is the worker half of the
                # router's NTP-style offset estimate; buffered spans drain
                # on the same frame (health checks double as trace
                # flushes)
                reply({"op": OP_RESULT, "rid": rid, "ok": True,
                       "pong": True, "pid": os.getpid(),
                       "worker_id": worker_id, "wall": time.time()})
            elif op == OP_SNAPSHOT:
                reply({"op": OP_RESULT, "rid": rid, "ok": True,
                       "snapshot": _jsonable(engine.snapshot())})
            elif op == OP_TRACE:
                log = engine.trace_log
                reply({"op": OP_RESULT, "rid": rid, "ok": True,
                       "events": _jsonable(log.events()),
                       "summary": _jsonable(log.summary())})
            elif op == OP_CLOSE:
                running = False
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
                await engine.close()
                reply({"op": OP_RESULT, "rid": rid, "ok": True})
            else:
                reply({
                    "op": OP_RESULT, "rid": rid, "ok": False,
                    "error": "ClusterError",
                    "message": f"unknown op {op!r}",
                })
    finally:
        loop.remove_reader(fd)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    if journal is not None:
        journal.close()
    arena.detach_all()
    slabs.close_all()


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Router-side state for one shard worker."""

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.node = f"shard-{wid}"
        self.process = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.pending_lock = threading.Lock()
        # rid -> (future, slab-or-None, shape, single, root-span-or-None)
        self.pending: dict = {}
        self.keys: set = set()  # fingerprints registered on this worker
        self.closing = False
        self.respawning = False
        self.deaths = 0


class ShardRouter:
    """Front end of the sharded serve tier.

    Synchronous, thread-safe API (the router lives on the caller's
    side of the process boundary; there is no event loop here —
    concurrency comes from pipelined :meth:`submit` futures and the
    per-worker reader threads).  Use as a context manager, or call
    :meth:`close` — it is what unlinks every shared-memory segment.
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        start_method: str = "spawn",
        execution: str = "host",
        max_batch: int = 32,
        batch_window: float = 0.0,
        inline_max: int = DEFAULT_INLINE_MAX,
        request_timeout: Optional[float] = 30.0,
        respawn: bool = True,
        tracing: bool = True,
        slow_ms: Optional[float] = None,
        journal_dir: Optional[str] = None,
    ) -> None:
        if n_workers <= 0:
            raise ClusterError("n_workers must be positive")
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {execution!r}"
            )
        import multiprocessing

        self.n_workers = n_workers
        self.execution = execution
        self.inline_max = inline_max
        self.request_timeout = request_timeout
        self.respawn = respawn
        self._ctx = multiprocessing.get_context(start_method)
        self._config = {
            "execution": execution,
            "max_batch": max_batch,
            "batch_window": batch_window,
            # flight recorder: each worker journals to per-shard segment
            # files inside this shared directory (merged at read time by
            # JournalReader — the filesystem is the merge point)
            "journal_dir": str(journal_dir) if journal_dir else None,
        }
        self._registry = MatrixRegistry()  # router-side: keys and names
        self._arena = PlanArena()
        self._slabs = SlabPool()
        self._ring = HashRing()
        self._workers: dict[str, _WorkerHandle] = {}
        self._published: dict[str, tuple[PlanHandle, Optional[str]]] = {}
        self._lock = threading.Lock()  # workers table / ring / published
        self._rid_lock = threading.Lock()
        self._next_rid = 0
        self._closing = False
        self._respawns = 0
        self._worker_deaths = 0
        self._requests = 0
        # distributed tracing: the aligner always runs (ping exchanges
        # feed it either way); the recorder/collector pair only with
        # tracing on, so `tracing=False` is the zero-overhead baseline
        # the overhead benchmark compares against
        self.tracing = tracing
        self._aligner = ClockAligner()
        self._collector: Optional[TraceCollector] = None
        self._recorder: Optional[SpanRecorder] = None
        if tracing:
            self._collector = TraceCollector(
                aligner=self._aligner,
                slow_ms=slow_ms,
            )
            self._recorder = SpanRecorder(
                "router", sink=self._collector.record
            )
        try:
            handles = [_WorkerHandle(wid) for wid in range(n_workers)]
            # every worker boots (imports numpy and scipy) at once
            for handle in handles:
                self._start_worker(handle)
                with self._lock:
                    self._workers[handle.node] = handle
                    self._ring.add(handle.node)
            for handle in handles:
                self._handshake(handle)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_worker(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, handle.wid, self._config),
            name=f"repro-{handle.node}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.closing = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"repro-router-read-{handle.node}",
            daemon=True,
        )
        handle.reader = reader
        reader.start()

    def _handshake(self, handle: _WorkerHandle) -> None:
        """Wait for a started worker to answer a ping: a worker that
        cannot import/boot fails here, not on the first real request."""
        try:
            self._request(handle, {"op": OP_PING}, timeout=_SPAWN_TIMEOUT)
        except ReproError as exc:
            raise ClusterError(
                f"worker {handle.node} failed to start: {exc}"
            ) from exc

    def close(self) -> None:
        """Drain workers, reap processes, unlink every shared segment."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
        for handle in workers:
            handle.closing = True
            try:
                self._request(handle, {"op": OP_CLOSE}, timeout=10.0)
            except ReproError:
                pass  # dead or wedged; terminate below
        for handle in workers:
            process = handle.process
            if process is not None:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.terminate()
                    process.join(timeout=5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._fail_pending(handle, ClusterError("router closed"))
        self._slabs.close()
        self._arena.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, matrix: CSRMatrix, *, name: Optional[str] = None
    ) -> str:
        """Register a matrix fleet-wide: publish its CSR arrays to
        shared memory and hand the owning shard worker the zero-copy
        handle; the worker builds the plan.  Idempotent by content."""
        key = self._registry.register(matrix, name=name)
        with self._lock:
            already = key in self._published
        if already:
            return key
        check_solvable(matrix)  # refuse bad input before sharing it
        handle = self._arena.publish(key, matrix)
        with self._lock:
            self._published[key] = (handle, name)
            worker = self._workers[self._ring.node_for(key)]
        try:
            self._register_with(worker, handle, name)
        except BaseException:
            # unpublish, so a retry registers afresh instead of
            # returning a key no worker holds
            with self._lock:
                self._published.pop(key, None)
            self._arena.unlink(key)
            raise
        return key

    def _register_with(
        self,
        worker: _WorkerHandle,
        handle: PlanHandle,
        name: Optional[str],
    ) -> None:
        header = {
            "op": OP_REGISTER, "handle": handle.to_json(), "name": name,
        }
        root = None
        if self._recorder is not None:
            root = self._recorder.start(
                "register",
                attrs={"matrix": handle.key[:12], "worker": worker.node},
            )
            header[SPAN_CONTEXT_KEY] = root.context.to_wire()
        try:
            self._request(worker, header, timeout=_SPAWN_TIMEOUT)
        except BaseException as exc:
            if root is not None:
                self._recorder.finish(root, error=type(exc).__name__)
            raise
        if root is not None:
            self._recorder.finish(root, ok=True)
        worker.keys.add(handle.key)

    def worker_for(self, ref: str) -> str:
        """Node name of the shard worker owning ``ref``."""
        key = self._registry.get(ref).key
        with self._lock:
            return self._ring.node_for(key)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def submit(
        self, ref: str, B: np.ndarray, *, single: bool = False
    ) -> "Future[ClusterResponse]":
        """Enqueue a solve on the owning shard; returns a future.

        Pipelined: submit many before resulting any — each worker's
        read loop keeps its engine's coalescing window full.
        """
        entry = self._registry.get(ref)
        B = np.ascontiguousarray(B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != entry.matrix.n_rows or B.shape[1] == 0:
            raise InvalidRequestError(
                f"right-hand side has shape {B.shape}, expected "
                f"({entry.matrix.n_rows}, k>=1)"
            )
        with self._lock:
            if self._closing:
                raise ClusterError("router is closed")
            worker = self._workers.get(self._ring.node_for(entry.key))
        if worker is None:  # pragma: no cover - no workers left
            raise ClusterError("no live workers")
        if worker.respawning:
            # the replacement process is up but its shard registrations
            # have not been replayed yet; routing now would surface a
            # spurious UnknownMatrixError instead of a retryable signal
            raise WorkerDiedError(
                f"worker {worker.node} is respawning; retry shortly"
            )
        with self._rid_lock:
            self._next_rid += 1
            rid = self._next_rid
            self._requests += 1
        header = {
            "op": OP_SOLVE,
            "rid": rid,
            "key": entry.key,
            "shape": [int(B.shape[0]), int(B.shape[1])],
            "single": bool(single),
        }
        # root span of the whole request: minted here, propagated to the
        # worker in the frame header, finished when the reply lands (or
        # the request fails) — its duration is the end-to-end latency
        root = None
        if self._recorder is not None:
            root = self._recorder.start(
                "request",
                trace_id=new_id(),
                attrs={
                    "matrix": entry.key[:12],
                    "n_rhs": int(B.shape[1]),
                    "worker": worker.node,
                },
            )
            header[SPAN_CONTEXT_KEY] = root.context.to_wire()
        body = b""
        slab: Optional[Slab] = None
        enq = None
        if root is not None:
            enq = self._recorder.start(
                "enqueue", trace_id=root.trace_id, parent_id=root.span_id
            )
        if B.nbytes <= self.inline_max:
            body = B.tobytes()
            via = "inline"
        else:
            slab = self._slabs.acquire(B.nbytes)
            slab.ndarray(B.shape)[...] = B
            header["slab"] = slab.name
            via = "slab"
        if enq is not None:
            self._recorder.finish(enq, via=via, bytes=int(B.nbytes))
        fut: "Future[ClusterResponse]" = Future()
        with worker.pending_lock:
            worker.pending[rid] = (fut, slab, B.shape, single, root)
        try:
            if root is not None:
                with self._recorder.span(
                    "send", trace_id=root.trace_id, parent_id=root.span_id
                ):
                    with worker.send_lock:
                        send_frame(worker.conn, header, body)
            else:
                with worker.send_lock:
                    send_frame(worker.conn, header, body)
        except (OSError, BrokenPipeError) as exc:
            with worker.pending_lock:
                worker.pending.pop(rid, None)
            if slab is not None:
                self._slabs.release(slab)
            if root is not None:
                self._recorder.finish(root, error="WorkerDiedError")
            raise WorkerDiedError(
                f"worker {worker.node} pipe is down: {exc}"
            ) from exc
        return fut

    def solve(
        self,
        ref: str,
        b: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> ClusterResponse:
        """Solve ``L x = b`` for one RHS on the owning shard (blocking)."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        return self._result(
            self.submit(ref, b, single=single), timeout
        )

    def solve_multi(
        self,
        ref: str,
        B: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> ClusterResponse:
        """Solve ``L X = B`` for a block of RHS on the owning shard."""
        return self._result(self.submit(ref, B), timeout)

    def _result(
        self, fut: "Future[ClusterResponse]", timeout: Optional[float]
    ) -> ClusterResponse:
        deadline = self.request_timeout if timeout is None else timeout
        try:
            return fut.result(timeout=deadline)
        except FutureTimeoutError:
            raise RequestTimeoutError(
                f"cluster solve did not complete within {deadline} s"
            ) from None

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def _read_loop(self, worker: _WorkerHandle) -> None:
        conn = worker.conn
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                header, body = unpack_frame(data)
            except ClusterError:  # pragma: no cover - corrupt frame
                continue
            self._complete(worker, header, body)
        self._on_worker_exit(worker)

    def _complete(
        self, worker: _WorkerHandle, header: dict, body: bytes
    ) -> None:
        # piggybacked worker spans ride on *every* reply (solve results,
        # control-plane acks, ping drains); ingest them even when nobody
        # waits on the rid anymore
        spans = header.pop(SPANS_KEY, None)
        if spans and self._collector is not None:
            self._collector.record_remote(spans, node=worker.node)
        rid = header.get("rid")
        with worker.pending_lock:
            pending = worker.pending.pop(rid, None)
        if pending is None:
            return  # reply to a request nobody is waiting on anymore
        fut, slab, shape, single, root = pending
        if not header.get("ok"):
            if slab is not None:
                self._slabs.release(slab)
            exc = self._rebuild_error(
                header.get("error", "ClusterError"),
                header.get("message", "worker error"),
            )
            if root is not None:
                self._recorder.finish(
                    root, error=header.get("error", "ClusterError")
                )
            if not fut.done():
                fut.set_exception(exc)
            return
        if "meta" not in header:  # control-plane reply (register/ping/...)
            if not fut.done():
                fut.set_result(header)
            return
        meta = header["meta"]
        if slab is not None:
            X = slab.ndarray(shape).copy()
            self._slabs.release(slab)
        else:
            X = np.frombuffer(body, dtype=np.float64).reshape(shape).copy()
        if root is not None:
            self._recorder.finish(
                root, ok=True, lane=meta["lane"], solver=meta["solver"]
            )
        response = ClusterResponse(
            x=X[:, 0] if single else X, worker=worker.node, **meta
        )
        if not fut.done():
            fut.set_result(response)

    def _rebuild_error(self, error: str, message: str) -> Exception:
        cls = getattr(_errors, error, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                return cls(message)
            except TypeError:  # pragma: no cover - rich-ctor error class
                pass
        return ClusterError(f"{error}: {message}")

    def _fail_pending(self, worker: _WorkerHandle, exc: Exception) -> None:
        with worker.pending_lock:
            pending = list(worker.pending.values())
            worker.pending.clear()
        for fut, slab, _shape, _single, root in pending:
            if slab is not None:
                self._slabs.release(slab)
            if root is not None and self._recorder is not None:
                self._recorder.finish(root, error=type(exc).__name__)
            if not fut.done():
                fut.set_exception(exc)

    # ------------------------------------------------------------------
    # death and respawn
    # ------------------------------------------------------------------
    def _on_worker_exit(self, worker: _WorkerHandle) -> None:
        if worker.closing or self._closing:
            self._fail_pending(worker, ClusterError("router closed"))
            return
        with self._lock:
            pooled = self._workers.get(worker.node) is worker
        if not pooled:
            # died during its startup handshake, before joining the
            # pool: the spawner surfaces the failure; nothing to respawn
            self._fail_pending(
                worker,
                WorkerDiedError(f"worker {worker.node} died while starting"),
            )
            return
        worker.deaths += 1
        with self._rid_lock:
            self._worker_deaths += 1
        self._fail_pending(
            worker,
            WorkerDiedError(
                f"worker {worker.node} died with requests in flight"
            ),
        )
        process = worker.process
        if process is not None:
            process.join(timeout=5.0)
        if not self.respawn or worker.deaths > _MAX_DEATHS:
            self._retire(worker)
            return
        worker.respawning = True  # submit() refuses until replay is done
        try:
            self._start_worker(worker)
            self._handshake(worker)
            # replay the shard's registrations from the published
            # handles: zero array copies, one plan build per matrix
            for key in sorted(worker.keys):
                with self._lock:
                    handle, name = self._published[key]
                self._register_with(worker, handle, name)
            with self._rid_lock:
                self._respawns += 1
        except (ReproError, OSError):  # pragma: no cover - respawn failed
            self._retire(worker)
        finally:
            worker.respawning = False

    def _retire(self, worker: _WorkerHandle) -> None:
        """Remove a worker from the ring and re-home its shard."""
        with self._lock:
            self._ring.remove(worker.node)
            self._workers.pop(worker.node, None)
            survivors = bool(self._workers)
        if not survivors:
            return
        for key in sorted(worker.keys):
            with self._lock:
                handle, name = self._published[key]
                heir = self._workers.get(self._ring.node_for(key))
            if heir is not None:
                try:
                    self._register_with(heir, handle, name)
                except ReproError:  # pragma: no cover - heir died too
                    continue

    def kill_worker(self, node: str) -> None:
        """Chaos hook: SIGKILL one worker (tests/CI exercise respawn)."""
        with self._lock:
            worker = self._workers.get(node)
        if worker is None:
            raise ClusterError(f"no such worker {node!r}")
        if worker.process is not None:
            worker.process.kill()

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _request(
        self, worker: _WorkerHandle, header: dict, *, timeout: float
    ) -> dict:
        """Send one control frame and wait for its correlated reply."""
        with self._rid_lock:
            self._next_rid += 1
            rid = self._next_rid
        header = dict(header, rid=rid)
        fut: Future = Future()
        with worker.pending_lock:
            worker.pending[rid] = (fut, None, (0, 0), False, None)
        try:
            with worker.send_lock:
                send_frame(worker.conn, header)
        except (OSError, BrokenPipeError) as exc:
            with worker.pending_lock:
                worker.pending.pop(rid, None)
            raise WorkerDiedError(
                f"worker {worker.node} pipe is down: {exc}"
            ) from exc
        try:
            return fut.result(timeout=timeout)
        except FutureTimeoutError:
            with worker.pending_lock:
                worker.pending.pop(rid, None)
            raise RequestTimeoutError(
                f"worker {worker.node} did not answer "
                f"{header.get('op')!r} within {timeout} s"
            ) from None

    def ping(self, node: Optional[str] = None) -> dict:
        """Health-check one worker (or all when ``node`` is None)."""
        with self._lock:
            workers = (
                list(self._workers.values())
                if node is None
                else [w for n, w in self._workers.items() if n == node]
            )
        if not workers:
            raise ClusterError(f"no such worker {node!r}")
        out = {}
        for w in workers:
            t_send = time.time()
            reply = self._request(w, {"op": OP_PING}, timeout=5.0)
            t_recv = time.time()
            # each exchange is one NTP-style clock sample; the reply
            # also drained the worker's buffered spans (see _complete)
            wall = reply.get("wall")
            if isinstance(wall, (int, float)):
                self._aligner.observe(w.node, t_send, float(wall), t_recv)
            out[w.node] = reply
        return out

    @property
    def nodes(self) -> tuple:
        with self._lock:
            return tuple(sorted(self._workers))

    # ------------------------------------------------------------------
    # distributed tracing
    # ------------------------------------------------------------------
    @property
    def collector(self) -> Optional[TraceCollector]:
        """The router-side trace collector (``None`` with tracing off)."""
        return self._collector

    def _require_tracing(self) -> TraceCollector:
        if self._collector is None:
            raise ClusterError(
                "distributed tracing is disabled "
                "(construct ShardRouter with tracing=True)"
            )
        return self._collector

    def hop_stats(self) -> dict:
        """Per-hop latency attribution (p50/p99/... per span name)."""
        return self._require_tracing().hop_stats()

    def span_tree(self, trace_id: str) -> Optional[dict]:
        """One request's reassembled causal span tree (or ``None``)."""
        return self._require_tracing().tree(trace_id)

    def exemplars(self) -> list:
        """Captured slow-request exemplars (full span trees)."""
        return self._require_tracing().exemplars()

    def chrome_trace(self) -> dict:
        """Every collected span as one multi-process Chrome trace doc
        (one ``pid`` row per process, flow arrows router→worker)."""
        return self._require_tracing().chrome_trace()

    def write_chrome_trace(self, path) -> dict:
        """Write :meth:`chrome_trace` to ``path``; returns the doc."""
        from repro.obs.chrome import write_trace_doc

        return write_trace_doc(self.chrome_trace(), path)

    def trace_events(self, node: Optional[str] = None) -> dict:
        """Each worker's raw TraceLog events, keyed by node name."""
        with self._lock:
            workers = (
                list(self._workers.values())
                if node is None
                else [w for n, w in self._workers.items() if n == node]
            )
        if not workers:
            raise ClusterError(f"no such worker {node!r}")
        out = {}
        for w in workers:
            try:
                reply = self._request(w, {"op": OP_TRACE}, timeout=10.0)
            except ReproError:  # pragma: no cover - dead mid-drain
                continue
            out[w.node] = reply.get("events", [])
        return out

    def write_trace_jsonl(self, path) -> int:
        """Merged fleet trace as one ``tracelog/2`` JSONL file.

        Every span the collector holds first, on the router's aligned
        clock: router spans (``process == "router"``; a root
        ``request`` span keeps its ``worker`` attr, the shard that
        served it) and worker spans, each tagged ``worker`` = its
        process, which is the node name.  Then every worker's TraceLog
        events tagged with their node name — one file ``repro-sptrsv
        replay`` and offline tooling can read end to end.  Returns the
        number of event lines written (header excluded).
        """
        # fetched first: the replies drain the workers' buffered spans
        # into the collector
        worker_events = sorted(self.trace_events().items())
        events = []
        if self._collector is not None:
            for span in self._collector.all_spans():
                event = span_event(span)
                if event["process"] != "router":
                    event["worker"] = event["process"]
                events.append(event)
        for node, node_events in worker_events:
            events.extend(dict(e, worker=node) for e in node_events)
        return write_tracelog(path, events)

    def router_stats(self) -> dict:
        with self._rid_lock:
            requests = self._requests
            deaths = self._worker_deaths
            respawns = self._respawns
        with self._lock:
            n_workers = len(self._workers)
            shard_keys = {
                w.node: len(w.keys) for w in self._workers.values()
            }
        stats = {
            "workers": n_workers,
            "requests": requests,
            "worker_deaths": deaths,
            "respawns": respawns,
            "shard_keys": shard_keys,
            "registry": self._registry.stats(),
            "arena": self._arena.stats(),
            "slabs": self._slabs.stats(),
        }
        if self._collector is not None:
            stats["spans"] = self._collector.stats()
        return stats

    def worker_snapshots(self) -> dict:
        """Per-worker engine snapshots, keyed by node name."""
        with self._lock:
            workers = list(self._workers.values())
        snaps = {}
        for w in workers:
            try:
                snaps[w.node] = self._request(
                    w, {"op": OP_SNAPSHOT}, timeout=10.0
                )["snapshot"]
            except ReproError:  # pragma: no cover - dead mid-snapshot
                continue
        return snaps

    def snapshot(self) -> dict:
        """Fleet-wide snapshot: per-shard engine snapshots, their
        roll-up, and the router's own accounting."""
        workers = self.worker_snapshots()
        return {
            "workers": workers,
            "fleet": fleet_rollup(workers),
            "router": self.router_stats(),
        }

    def openmetrics(self) -> str:
        """The fleet snapshot in OpenMetrics text format."""
        return fleet_openmetrics(
            self.worker_snapshots(), router=self.router_stats()
        )
