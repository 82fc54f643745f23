"""Canned engine scenarios for the deterministic interleaving explorer.

Each scenario is a :data:`repro.analysis.interleave.ScenarioFactory`:
it receives the fresh :class:`~repro.analysis.interleave.InterleaveScheduler`
of one schedule, builds a :class:`~repro.serve.engine.SolveEngine` on
the scheduler's virtual clock and deferred executor, drives a small
traffic pattern, and returns ``{"engine": ..., "results": [...]}`` for
the invariant checks in :func:`engine_invariants`.

These are the fixtures behind ``repro-sptrsv check-interleavings`` and
the CI interleaving smoke; the concurrency-bug regression tests in
``tests/analysis/test_interleave.py`` use their own seeded-bug toys.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.errors import (
    NonFiniteAnswerError,
    QueueFullError,
    RequestTimeoutError,
)
from repro.serve.engine import SolveEngine
from repro.serve.requests import SolveResponse
from repro.sparse.convert import dense_to_csr

__all__ = [
    "SCENARIOS",
    "TERMINAL_EVENTS",
    "close_drain_scenario",
    "coalesce_scenario",
    "engine_invariants",
    "late_failure_scenario",
    "scenario_matrix",
    "timeout_scenario",
]

#: Event kinds that end an admitted request's own TraceLog trail.
TERMINAL_EVENTS = ("publish", "timeout", "fail")

#: The ways a scenario request may end: served, timed out, shed, or
#: refused as overflowing.
OUTCOMES = (
    SolveResponse, RequestTimeoutError, QueueFullError, NonFiniteAnswerError
)


def scenario_matrix():
    """A fixed 6×6 unit-lower-triangular system (no RNG: scenarios must
    be bit-deterministic under replay)."""
    dense = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -0.25, 1.0, 0.0, 0.0, 0.0],
            [0.75, 0.0, 0.5, 1.0, 0.0, 0.0],
            [0.0, 0.0, -0.5, 0.25, 1.0, 0.0],
            [0.125, 0.0, 0.0, 0.0, -0.75, 1.0],
        ]
    )
    return dense_to_csr(dense)


def _rhs(n: int, i: int) -> np.ndarray:
    return np.linspace(1.0, 2.0, n) + float(i)


async def coalesce_scenario(sched) -> dict:
    """Concurrent single-RHS solves against one matrix coalesce into
    batches; every request must come back correct on every schedule."""
    matrix = scenario_matrix()
    engine = SolveEngine(
        batch_window=0.01,
        max_batch=4,
        execution="host",
        clock=sched.clock,
        executor=sched.executor(cost=0.005),
    )
    key = engine.register(matrix, name="interleave-coalesce")
    n = matrix.n_rows
    tasks = [
        asyncio.ensure_future(engine.solve(key, _rhs(n, i)))
        for i in range(6)
    ]
    results = await asyncio.gather(*tasks, return_exceptions=True)
    await engine.close()
    for i, res in enumerate(results):
        if not isinstance(res, SolveResponse):
            raise AssertionError(f"request {i} failed: {res!r}")
        if not np.allclose(matrix.matvec(res.x), _rhs(n, i)):
            raise AssertionError(f"request {i} returned a wrong solution")
    return {"engine": engine, "results": list(results), "n_requests": 6}


async def timeout_scenario(sched) -> dict:
    """A slow worker blows a request deadline; a later request (and the
    engine's counters) must be unharmed on every schedule."""
    matrix = scenario_matrix()
    engine = SolveEngine(
        batch_window=0.0,
        execution="host",
        clock=sched.clock,
        executor=sched.executor(cost=1.0),
    )
    key = engine.register(matrix, name="interleave-timeout")
    n = matrix.n_rows
    results: list = []
    try:
        await engine.solve(key, _rhs(n, 0), timeout=0.5)
        raise AssertionError("deadline did not fire under a 1.0s worker")
    except RequestTimeoutError as exc:
        results.append(exc)
    second = await engine.solve(key, _rhs(n, 1), timeout=30.0)
    results.append(second)
    if not np.allclose(matrix.matvec(second.x), _rhs(n, 1)):
        raise AssertionError("post-timeout request returned a wrong solution")
    await engine.close()
    return {"engine": engine, "results": results, "n_requests": 2}


async def close_drain_scenario(sched) -> dict:
    """close() racing in-flight work: it must drain (never hang, never
    strand a request) and admit nothing afterwards."""
    matrix = scenario_matrix()
    engine = SolveEngine(
        batch_window=0.01,
        execution="host",
        clock=sched.clock,
        executor=sched.executor(cost=0.02),
    )
    key = engine.register(matrix, name="interleave-close")
    n = matrix.n_rows
    tasks = [
        asyncio.ensure_future(engine.solve(key, _rhs(n, i)))
        for i in range(3)
    ]
    closer = asyncio.ensure_future(engine.close())
    results = await asyncio.gather(*tasks, return_exceptions=True)
    await closer
    for i, res in enumerate(results):
        if not isinstance(res, SolveResponse):
            raise AssertionError(
                f"in-flight request {i} was stranded by close(): {res!r}"
            )
    try:
        await engine.solve(key, _rhs(n, 0))
        raise AssertionError("engine accepted a request after close()")
    except QueueFullError:
        pass
    return {"engine": engine, "results": list(results), "n_requests": 3}


async def late_failure_scenario(sched) -> dict:
    """A block that fails after its request's deadline (a late failure),
    one that fails in time, then a served request on the same matrix:
    ``b = ones`` overflows the ``1e-200`` diagonal on the forced host
    lane (``NonFiniteAnswerError``), ``b = zeros`` solves to zero."""
    matrix = dense_to_csr(
        np.tril(np.full((4, 4), 0.5), -1) + np.eye(4) * 1e-200
    )
    engine = SolveEngine(
        batch_window=0.0,
        execution="host",
        clock=sched.clock,
        executor=sched.executor(cost=1.0),
    )
    key = engine.register(matrix, name="interleave-late-failure")
    results: list = []
    with np.errstate(all="ignore"):
        for b, timeout in ((1.0, 0.5), (1.0, 30.0), (0.0, 30.0)):
            try:
                results.append(
                    await engine.solve(key, np.full(4, b), timeout=timeout)
                )
            except (RequestTimeoutError, NonFiniteAnswerError) as exc:
                results.append(exc)
    await engine.close()
    kinds = [type(r) for r in results]
    if kinds != [RequestTimeoutError, NonFiniteAnswerError, SolveResponse]:
        raise AssertionError(f"unexpected outcomes: {results!r}")
    if results[2].x.any():
        raise AssertionError("a zero right-hand side solved to nonzero")
    return {"engine": engine, "results": results, "n_requests": 3}


#: name → scenario factory, as exposed by ``check-interleavings``.
SCENARIOS = {
    "coalesce": coalesce_scenario,
    "timeout": timeout_scenario,
    "close-drain": close_drain_scenario,
    "late-failure": late_failure_scenario,
}


def engine_invariants():
    """The invariant suite every scenario run must satisfy."""

    def resolved_exactly_once(sched, value):
        results = value["results"]
        if len(results) != value["n_requests"]:
            raise AssertionError(
                f"expected {value['n_requests']} outcomes, "
                f"got {len(results)}"
            )
        for i, res in enumerate(results):
            if not isinstance(res, OUTCOMES):
                raise AssertionError(
                    f"request {i} ended in an unexpected state: {res!r}"
                )

    def engine_idle(sched, value):
        engine = value["engine"]
        if engine._pending:
            raise AssertionError(
                f"pending groups survived the scenario: "
                f"{sorted(engine._pending)}"
            )
        if engine._depth:
            raise AssertionError(
                f"queue depth is {engine._depth} after drain, expected 0"
            )

    def telemetry_consistent(sched, value):
        t = value["engine"].telemetry
        total = t.requests_total.value
        settled = (
            t.requests_completed.value
            + t.requests_failed.value
            + t.requests_timed_out.value
        )
        if total != settled:
            raise AssertionError(
                "telemetry inconsistent: "
                f"admitted={total} but completed+failed+timed_out={settled}"
            )
        if t.queue_depth.value != 0:
            raise AssertionError(
                f"queue_depth gauge stuck at {t.queue_depth.value}"
            )

    def trail_ends_once(sched, value):
        # a request's own trail: the events carrying its trace id (a
        # launch names its requests in trace_ids, not trace_id)
        trails: dict = {}
        for e in value["engine"].trace_log.events():
            trails.setdefault(e.get("trace_id"), []).append(e["kind"])
        for trace_id, kinds in trails.items():
            if "enqueue" not in kinds:
                continue  # rejected at admission: never admitted
            ends = [k for k in kinds if k in TERMINAL_EVENTS]
            if len(ends) != 1 or kinds[-1] != ends[0]:
                raise AssertionError(
                    f"request {trace_id}'s trail {kinds} does not end in "
                    f"exactly one of {TERMINAL_EVENTS}"
                )

    return [
        resolved_exactly_once,
        engine_idle,
        telemetry_consistent,
        trail_ends_once,
    ]
