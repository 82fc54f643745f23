"""Bounded structured event log with request-scoped trace ids.

The serving layer answers "*why* was this request slow" by emitting one
structured event per lifecycle step — ``enqueue`` → ``launch`` →
``publish``, or ``timeout``/``fail``, plus ``reject``/``kernel-failure``/
``fallback`` — all carrying the request's trace id, so one grep over
the JSONL output reconstructs a request's journey.  A ``launch`` names
its block (``batch_id``, ``width`` requests, their ``trace_ids``) and
``lane``; a ``publish`` is the rendered
:class:`~repro.serve.requests.SolveResponse`.  The engine's counters
are a fold of these events (``ServeTelemetry.count``).

The log is a fixed-capacity ring: appends are O(1), memory is bounded
by construction, and the count of events dropped at the head is
reported in :meth:`TraceLog.summary` instead of silently vanishing.
Thread-safe — the engine emits from both the event loop and its worker
threads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import deque
from typing import IO, Iterable, Optional, Union

__all__ = ["TraceLog", "TRACELOG_SCHEMA", "new_trace_id", "write_tracelog"]

#: Schema tag stamped as the first line of every JSONL export.  ``/2``
#: added the header itself plus distributed ``span`` events; readers
#: (``repro.serve.replay.load_events``) accept headerless ``/1`` dumps
#: for backward compatibility and reject unknown versions loudly.
TRACELOG_SCHEMA = "tracelog/2"


def new_trace_id() -> str:
    """A fresh request-scoped trace id (12 hex chars, collision-safe)."""
    return uuid.uuid4().hex[:12]


class TraceLog:
    """Fixed-capacity structured event log."""

    def __init__(self, *, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._emitted = 0

    # ------------------------------------------------------------------
    def emit(
        self, kind: str, *, trace_id: Optional[str] = None, **fields
    ) -> dict:
        """Append one event; returns the stored record."""
        record = {
            "seq": next(self._seq),
            "ts": time.time(),
            "kind": kind,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        record.update(fields)
        with self._lock:
            self._events.append(record)
            self._emitted += 1
        return record

    # ------------------------------------------------------------------
    def events(
        self,
        *,
        kind: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> list[dict]:
        """Retained events in emission order, optionally filtered."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if trace_id is not None:
            out = [e for e in out if e.get("trace_id") == trace_id]
        return out

    def request_timeline(self, trace_id: str) -> list[dict]:
        """Every retained event of one request, plus the launch (and
        failure/fallback) events of the block it rode on (matched via
        ``trace_ids``)."""
        with self._lock:
            out = [
                e
                for e in self._events
                if e.get("trace_id") == trace_id
                or trace_id in e.get("trace_ids", ())
            ]
        return out

    def summary(self) -> dict:
        """Counts by kind + retention accounting (for ``serve-stats``)."""
        with self._lock:
            events = list(self._events)
            emitted = self._emitted
        by_kind: dict[str, int] = {}
        for e in events:
            by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
        return {
            "emitted": emitted,
            "retained": len(events),
            "dropped": emitted - len(events),
            "capacity": self.capacity,
            "by_kind": dict(sorted(by_kind.items())),
        }

    # ------------------------------------------------------------------
    def write_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write the retained events with :func:`write_tracelog`."""
        return write_tracelog(path_or_file, self.events())


def write_tracelog(
    path_or_file: Union[str, IO[str]], events: Iterable[dict]
) -> int:
    """The one ``tracelog/2`` JSONL writer: the ``{"schema": ...}``
    header line, then one sorted-key JSON line per event, to a path or
    an open text file.  Returns the event count (the header is not an
    event)."""
    lines = [json.dumps({"schema": TRACELOG_SCHEMA}, sort_keys=True)]
    lines.extend(json.dumps(e, sort_keys=True, default=str) for e in events)
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines) - 1
