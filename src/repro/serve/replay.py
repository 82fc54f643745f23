"""Trace replay: feed a recorded TraceLog back through a solve engine.

A serving session records a structured event trail (``repro-sptrsv
serve-stats --trace-out trace.jsonl`` or any
:meth:`~repro.obs.tracelog.TraceLog.write_jsonl` dump).  This module
re-drives an engine with the same request pattern — one ``solve`` /
``solve_multi`` per recorded ``enqueue`` event, inter-arrival gaps
preserved and scaled by a speed multiplier — and checks the replayed
telemetry against counts recovered from the recording.

Two pacing modes, both built on the interleave harness's clock seam:

* **virtual** (default) — a self-pumping
  :class:`~repro.analysis.interleave.VirtualClock`: gaps advance
  virtual time only, so replay is deterministic and runs as fast as
  the solves themselves regardless of the recorded span.
* **wall** — :class:`~repro.analysis.interleave.AsyncioClock` with
  gaps divided by ``speed``: a 60 s recording replayed at
  ``--speed 30`` takes ~2 s of real time, preserving arrival shape for
  load-shaped experiments.

The recorded matrices themselves are not in the trace (only their
registry keys), so replay registers one deterministic stand-in system
per distinct key under the recorded key as its registration *name* —
request routing, coalescing, and batch shapes are reproduced; numeric
content is synthetic.

A recording can also be replayed through the sharded cluster
(``replay_file(..., workers=N)`` / ``repro-sptrsv replay --workers N``):
the same stand-ins register through a
:class:`~repro.serve.cluster.ShardRouter`, requests fan out to the
shard workers as pipelined submits, and the replayed counts come from
the fleet roll-up instead of one engine's telemetry.  Cluster replay is
always wall-paced (worker processes share no virtual clock); ``speed``
still scales the recorded gaps.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from repro.analysis.interleave import AsyncioClock, VirtualClock
from repro.errors import TraceSchemaError
from repro.metrics.fleet import fleet_rollup
from repro.serve.engine import SolveEngine
from repro.sparse.csr import CSRMatrix

__all__ = [
    "KNOWN_SCHEMAS",
    "ReplayReport",
    "load_events",
    "replay_events",
    "replay_events_cluster",
    "replay_file",
    "stand_in_matrix",
    "trace_counts",
]

#: JSONL schema tags this build can replay.  ``tracelog/1`` is the
#: original headerless format (a dump with no ``schema`` line is read
#: as /1); ``tracelog/2`` added the header and ``span`` events.
KNOWN_SCHEMAS = frozenset({"tracelog/1", "tracelog/2"})


def load_events(path: str | Path) -> list[dict]:
    """Parse a TraceLog JSONL dump (blank lines ignored).

    A leading ``{"schema": ...}`` header line is validated against
    :data:`KNOWN_SCHEMAS` and stripped from the returned events; an
    unknown schema raises :class:`~repro.errors.TraceSchemaError` with
    the offending tag, instead of a ``KeyError`` later in replay.
    Headerless dumps (pre-``tracelog/2`` recordings) stay accepted.
    """
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and "schema" in record:
                schema = record["schema"]
                if schema not in KNOWN_SCHEMAS:
                    raise TraceSchemaError(
                        f"{path}: unknown trace schema {schema!r}; this "
                        "build reads " + ", ".join(sorted(KNOWN_SCHEMAS))
                    )
                continue  # header line, not an event
            events.append(record)
    return events


def trace_counts(events: Iterable[dict]) -> dict:
    """Request-level counts recovered from a recorded event trail."""
    counts = {
        "requests": 0,
        "rhs": 0,
        "published": 0,
        "timeouts": 0,
        "rejects": 0,
        "batches": 0,
    }
    for e in events:
        kind = e.get("kind")
        if kind == "enqueue":
            counts["requests"] += 1
            counts["rhs"] += int(e.get("n_rhs", 1))
        elif kind == "publish":
            counts["published"] += 1
        elif kind == "timeout":
            counts["timeouts"] += 1
        elif kind == "reject":
            counts["rejects"] += 1
        elif kind == "launch" and e.get("batch_id") not in e.get(
            "trace_ids", ()
        ):
            # a solve_multi block launches under its own trace id
            counts["batches"] += 1
    return counts


def stand_in_matrix(n: int, index: int) -> CSRMatrix:
    """Deterministic unit-lower-triangular stand-in for recorded key
    number ``index``: unit diagonal plus one sub-diagonal whose value
    varies with the key index, so distinct keys stay distinct under the
    registry's content fingerprinting."""
    sub = 0.25 + 0.5 / (index + 2)
    row_ptr = [0]
    col_idx: list[int] = []
    values: list[float] = []
    for i in range(n):
        if i > 0:
            col_idx.append(i - 1)
            values.append(sub)
        col_idx.append(i)
        values.append(1.0)
        row_ptr.append(len(col_idx))
    return CSRMatrix(
        n_rows=n,
        n_cols=n,
        row_ptr=np.asarray(row_ptr, dtype=np.int64),
        col_idx=np.asarray(col_idx, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
    )


@dataclass
class ReplayReport:
    """Recorded counts vs. the replayed engine's final telemetry."""

    recorded: dict
    replayed: dict
    speed: float
    virtual: bool
    n_matrices: int
    mismatches: list[str] = field(default_factory=list)
    workers: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.workers:
            mode = f"cluster of {self.workers} worker(s), wall x{self.speed:g}"
        else:
            mode = "virtual clock" if self.virtual else f"wall x{self.speed:g}"
        lines = [
            f"replayed {self.recorded['requests']} request(s) "
            f"({self.recorded['rhs']} rhs) over {self.n_matrices} "
            f"matrix key(s) [{mode}]",
            f"recorded: {self.recorded}",
            f"replayed: {self.replayed}",
        ]
        if self.ok:
            lines.append("replay telemetry matches the recording")
        else:
            lines.append("MISMATCH:")
            lines.extend("  " + m for m in self.mismatches)
        return "\n".join(lines)


def _compare(recorded: dict, replayed: dict) -> list[str]:
    mismatches = []
    if replayed["total"] != recorded["requests"]:
        mismatches.append(
            f"admitted {replayed['total']} request(s), "
            f"recording has {recorded['requests']}"
        )
    settled = (
        replayed["completed"] + replayed["failed"] + replayed["timed_out"]
    )
    if settled != replayed["total"]:
        mismatches.append(
            f"replay telemetry inconsistent: admitted {replayed['total']} "
            f"but settled {settled}"
        )
    # every request the recording saw published must complete on
    # replay: replay runs without deadlines, so recorded timeouts come
    # back as completions
    expect_completed = recorded["published"] + recorded["timeouts"]
    if replayed["completed"] != expect_completed:
        mismatches.append(
            f"completed {replayed['completed']} request(s), recording "
            f"implies {expect_completed} "
            "(published + timed-out, replay runs deadline-free)"
        )
    return mismatches


async def replay_events(
    events: list[dict],
    engine: SolveEngine,
    clock,
    *,
    speed: float = 1.0,
) -> dict:
    """Re-issue the recorded enqueues against ``engine``; returns the
    final request-level telemetry values."""
    enqueues = [e for e in events if e.get("kind") == "enqueue"]
    tasks = []
    prev_ts: Optional[float] = None
    for e in enqueues:
        ts = float(e.get("ts", 0.0))
        if prev_ts is not None and ts > prev_ts:
            await clock.sleep((ts - prev_ts) / speed)
        prev_ts = ts
        key = e["matrix"]
        n_rhs = int(e.get("n_rhs", 1))
        n = engine.registry.get(key).matrix.n_rows
        if n_rhs > 1:
            coro = engine.solve_multi(
                key, np.ones((n, n_rhs)), timeout=None
            )
        else:
            coro = engine.solve(key, np.ones(n), timeout=None)
        tasks.append(asyncio.ensure_future(coro))
    await asyncio.gather(*tasks, return_exceptions=True)
    await engine.close()
    t = engine.telemetry
    return {
        "total": t.requests_total.value,
        "completed": t.requests_completed.value,
        "failed": t.requests_failed.value,
        "timed_out": t.requests_timed_out.value,
        "rejected": t.requests_rejected.value,
        "batches": t.batches_total.value,
    }


def replay_events_cluster(
    events: list[dict],
    router,
    *,
    speed: float = 1.0,
) -> dict:
    """Re-issue the recorded enqueues through a
    :class:`~repro.serve.cluster.ShardRouter` as pipelined submits;
    returns fleet-level request telemetry (roll-up across workers)."""
    import time

    enqueues = [e for e in events if e.get("kind") == "enqueue"]
    futures = []
    prev_ts: Optional[float] = None
    for e in enqueues:
        ts = float(e.get("ts", 0.0))
        if prev_ts is not None and ts > prev_ts:
            time.sleep((ts - prev_ts) / speed)
        prev_ts = ts
        key = e["matrix"]
        n_rhs = int(e.get("n_rhs", 1))
        n = router._registry.get(key).matrix.n_rows
        futures.append(
            router.submit(
                key, np.ones((n, n_rhs)), single=n_rhs == 1
            )
        )
    for fut in futures:
        try:
            fut.result(timeout=router.request_timeout)
        except Exception:  # noqa: BLE001 - accounted in worker telemetry
            pass
    fleet = fleet_rollup(router.worker_snapshots())
    counts = dict(fleet["requests"])
    counts["batches"] = fleet["batches"]["total"]
    return counts


def replay_file(
    path: str | Path,
    *,
    speed: float = 1.0,
    virtual: bool = True,
    n: int = 32,
    batch_window: float = 0.0,
    execution: str = "host",
    workers: int = 0,
    journal_dir: Optional[str | Path] = None,
) -> ReplayReport:
    """Replay a TraceLog JSONL recording end to end.

    ``workers=0`` (default) replays through one in-process engine;
    ``workers=N`` replays through an ``N``-worker sharded cluster.
    With ``journal_dir`` the replayed solves are journaled like live
    traffic (single-engine replay journals as shard ``"replay"``,
    cluster replay as the workers' own shards) — a recorded trace is
    enough to regenerate an efficacy report, no live traffic needed.
    """
    events = load_events(path)
    recorded = trace_counts(events)
    keys = []
    for e in events:
        if e.get("kind") == "enqueue" and e["matrix"] not in keys:
            keys.append(e["matrix"])

    if workers > 0:
        from repro.serve.cluster import ShardRouter

        with ShardRouter(
            n_workers=workers,
            execution=execution,
            batch_window=batch_window,
            request_timeout=None,
            journal_dir=str(journal_dir) if journal_dir else None,
        ) as router:
            for i, key in enumerate(keys):
                router.register(stand_in_matrix(n, i), name=key)
            replayed = replay_events_cluster(events, router, speed=speed)
        return ReplayReport(
            recorded=recorded,
            replayed=replayed,
            speed=speed,
            virtual=False,
            n_matrices=len(keys),
            mismatches=_compare(recorded, replayed),
            workers=workers,
        )

    async def run() -> dict:
        clock = VirtualClock() if virtual else AsyncioClock()
        journal = None
        if journal_dir is not None:
            from repro.obs.journal import JournalWriter

            journal = JournalWriter(journal_dir, shard="replay")
        engine = SolveEngine(
            batch_window=batch_window,
            default_timeout=None,
            execution=execution,
            clock=clock,
            max_queue=max(64, recorded["requests"] + 1),
            journal=journal,
        )
        for i, key in enumerate(keys):
            engine.register(stand_in_matrix(n, i), name=key)
        try:
            return await replay_events(events, engine, clock, speed=speed)
        finally:
            if journal is not None:
                journal.close()

    replayed = asyncio.run(run())
    return ReplayReport(
        recorded=recorded,
        replayed=replayed,
        speed=speed,
        virtual=virtual,
        n_matrices=len(keys),
        mismatches=_compare(recorded, replayed),
    )
