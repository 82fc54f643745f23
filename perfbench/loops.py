"""Closed loops: each caller waits for ``x`` before it sends the next RHS.

Latency runs from just before the call until the answer is available
and excludes the benchmark's own answer check; every answer is checked
against its precomputed reference.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

from repro.errors import ReproError

from perfbench.inputs import answer_ok

__all__ = [
    "Sample",
    "WindowLog",
    "cluster_loop",
    "engine_loop",
    "probed_cluster_loop",
    "probed_engine_loop",
]


@dataclass
class Sample:
    """One completed (or failed) request."""

    start: float
    end: float
    name: str
    ok: bool
    lane: str = ""
    batch_width: int = 1
    fallback: bool = False
    exec_ms: float = 0.0
    nbytes: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


async def _engine_client(
    engine, stream, stop_at, max_requests, offset, out, errors
):
    i = 0
    while time.perf_counter() < stop_at and (
        max_requests is None or i < max_requests
    ):
        req = stream[(offset + i) % len(stream)]
        i += 1
        t0 = time.perf_counter()
        try:
            if req.b.ndim == 1:
                resp = await engine.solve(req.name, req.b)
            else:
                resp = await engine.solve_multi(req.name, req.b)
        except ReproError as exc:
            errors.append(f"{req.name}: {type(exc).__name__}: {exc}")
            out.append(Sample(t0, time.perf_counter(), req.name, False))
            continue
        t1 = time.perf_counter()
        out.append(
            Sample(
                t0,
                t1,
                req.name,
                answer_ok(resp.x, req.ref),
                lane=resp.lane,
                batch_width=resp.batch_width,
                fallback=resp.fallback_from is not None,
                exec_ms=resp.exec_ms,
                nbytes=req.b.nbytes,
            )
        )


async def engine_loop(
    engine, streams, seconds: float, *, max_requests=None, offset: int = 0
):
    """Drive ``engine`` with one concurrent client per stream.

    Each client starts at position ``offset`` of its stream and stops
    after ``seconds`` or ``max_requests`` requests.
    Clients start together; two clients stepping through the same
    matrices therefore coalesce into width-2 batches.  Returns
    ``(samples, errors, t_begin)``.
    """
    out: list = []
    errors: list = []
    t_begin = time.perf_counter()
    stop_at = t_begin + seconds
    await asyncio.gather(
        *(
            _engine_client(
                engine, s, stop_at, max_requests, offset, out, errors
            )
            for s in streams
        )
    )
    return out, errors, t_begin


class WindowLog:
    """Samples of consecutive loop windows, with a
    :class:`~perfbench.probe.SpeedProbe` before and after each.

    ``windows`` lists ``(t_begin, t_end, speed)`` per window, its speed
    the mean of the probes on either side.
    """

    def __init__(self, probe) -> None:
        self.probe = probe
        self.samples: list = []
        self.errors: list = []
        self.windows: list = []
        self._before = probe.speed()

    def add(self, samples, errors, t_begin: float) -> None:
        """Record the window that began at ``t_begin`` and just ended."""
        t_end = time.perf_counter()
        after = self.probe.speed()
        self.windows.append((t_begin, t_end, (self._before + after) / 2))
        self._before = after
        self.samples += samples
        self.errors += errors


async def probed_engine_loop(engine, streams, seconds: float, window: int, probe):
    """:func:`engine_loop` in windows of ``window`` requests per client
    until ``seconds`` have passed; each window continues the streams
    where the last one stopped.  Returns a :class:`WindowLog`."""
    log = WindowLog(probe)
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        log.add(
            *await engine_loop(
                engine,
                streams,
                math.inf,
                max_requests=window,
                offset=window * len(log.windows),
            )
        )
    return log


def probed_cluster_loop(router, streams, seconds: float, window: int, probe):
    """:func:`cluster_loop` in windows, as :func:`probed_engine_loop`."""
    log = WindowLog(probe)
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        log.add(
            *cluster_loop(
                router,
                streams,
                math.inf,
                max_requests=window,
                offset=window * len(log.windows),
            )
        )
    return log


def cluster_loop(
    router,
    streams,
    seconds: float,
    *,
    max_requests=None,
    offset: int = 0,
    spans=None,
):
    """Keep one pipelined ``submit`` future in flight per stream.

    Each stream starts at position ``offset`` and stops after
    ``seconds`` or ``max_requests`` requests.

    Each stream holds the requests of one shard worker, so both workers
    stay busy.  The completion time is taken in the router's reader
    thread when the future resolves.  With ``spans`` set, every
    ``submit`` call is recorded as a ``cluster.submit`` span.  Returns
    ``(samples, errors, t_begin)``.
    """
    out: list = []
    errors: list = []
    in_flight: dict = {}
    sent = [0] * len(streams)
    t_begin = time.perf_counter()
    stop_at = t_begin + seconds

    def send(slot: int) -> None:
        stream = streams[slot]
        req = stream[(offset + sent[slot]) % len(stream)]
        sent[slot] += 1
        done_at: list = []
        t0 = time.perf_counter()
        try:
            fut = router.submit(req.name, req.b, single=req.b.ndim == 1)
        except ReproError as exc:
            errors.append(f"{req.name}: {type(exc).__name__}: {exc}")
            out.append(Sample(t0, time.perf_counter(), req.name, False))
            return
        if spans is not None:
            spans.record("cluster.submit", t0, time.perf_counter())
        fut.add_done_callback(lambda _f: done_at.append(time.perf_counter()))
        in_flight[fut] = (slot, req, t0, done_at)

    for slot in range(len(streams)):
        send(slot)
    while in_flight:
        done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
        for fut in done:
            slot, req, t0, done_at = in_flight.pop(fut)
            while not done_at:  # wait() can return before callbacks ran
                time.sleep(0)
            if time.perf_counter() < stop_at and (
                max_requests is None or sent[slot] < max_requests
            ):
                send(slot)  # refill first; the check below is ours
            try:
                resp = fut.result()
            except ReproError as exc:
                errors.append(f"{req.name}: {type(exc).__name__}: {exc}")
                out.append(Sample(t0, done_at[0], req.name, False))
                continue
            out.append(
                Sample(
                    t0,
                    done_at[0],
                    req.name,
                    answer_ok(resp.x, req.ref),
                    lane=resp.lane,
                    batch_width=resp.batch_width,
                    exec_ms=resp.exec_ms,
                    nbytes=req.b.nbytes,
                )
            )
    return out, errors, t_begin
