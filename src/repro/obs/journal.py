"""Crash-safe, append-only per-solve journal (the flight recorder).

Every observability surface the serving tier has — profiler digests,
trace rings, telemetry counters, OpenMetrics — is *ephemeral*: it dies
with the process.  The journal is the durable complement: one
checksummed record per solve (matrix content fingerprint, the Eq. 1
granularity indicator and level depth from ``features()``, execution
lane, schedule variant, batch width, queue delay, per-phase latency
digest, outcome, trace id), appended to rotating segment files that
survive the process and accumulate across runs.  The analytics that
turn the accumulated evidence into lane-routing recommendations live in
:mod:`repro.metrics.efficacy`.

Durability model
----------------
The journal defends against **process death** (kill -9, OOM-kill,
crash), not power loss: every record is flushed to the OS page cache
(``file.flush()``) before :meth:`JournalWriter.append` returns with the
default ``flush_records=1``, so a killed process loses at most the one
record being written when the signal landed.  ``fsync`` is deliberately
not issued: the host's page cache outlives the process, and a solve
line already costs about 18–20 µs, 8.0–8.5% of a 16-solve
circuit-20000 burst on a 2-vCPU host, against the 5% budget (10% with
its noise margin) that ``benchmarks/bench_journal_overhead.py`` gates.

Line format
-----------
Each line is self-verifying: ``<canonical JSON>\\t<crc32 hex>\\n``.  A
solve line is canonical by construction: ``kind``, ``ts``, the
rendered request's fields in the order
:func:`repro.serve.requests.solve_fields` builds them, ``outcome``,
then the matrix's feature fields, whose JSON is encoded once per matrix
by :func:`feature_fragment` (:func:`encode_solve`).  Every other record
is canonical by sorted keys (:func:`encode_record`).  Readers parse the
JSON, so they read both, and every older journal, alike.

Torn-tail tolerance
-------------------
The reader validates every line independently — missing newline,
truncated payload, bit-flipped byte, or malformed JSON all fail the
checksum and the line is *skipped and counted*, never raised.
Truncating a segment at any byte offset therefore loses at most the
one record the cut landed in; every earlier record still reads back
intact.

Sharding
--------
Segment files are named ``journal-<shard>-<seq>.jsnl``.  A single
engine journals as shard ``"main"``; cluster workers journal as
``shard-<id>`` into the *same* directory, and :class:`JournalReader`
merges all shards into one time-ordered stream — the router never has
to copy worker records, the filesystem is the merge point.

Incidents
---------
:meth:`JournalWriter.incident` is the black box: on kernel failure or
quarantine the engine dumps the last N :class:`~repro.obs.tracelog.
TraceLog` events plus its full snapshot to ``incident-<shard>-<n>.json``
next to the segments, and appends a pointer record to the journal.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import JournalError

__all__ = [
    "JOURNAL_SCHEMA",
    "SEGMENT_GLOB",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_SEGMENT_AGE_S",
    "INCIDENT_TRACE_EVENTS",
    "encode_record",
    "encode_solve",
    "feature_fragment",
    "decode_line",
    "JournalWriter",
    "JournalReader",
]

#: Schema tag carried by every segment's header record.
JOURNAL_SCHEMA = "journal/1"

#: Glob matching journal segment files (all shards) in a directory.
SEGMENT_GLOB = "journal-*.jsnl"

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Default segment rotation threshold (age in seconds).
DEFAULT_SEGMENT_AGE_S = 600.0

#: Trace-ring tail length captured into an incident dump.
INCIDENT_TRACE_EVENTS = 64


#: The compact encoder of solve lines and feature fragments: keys in
#: the dict's own order, not sorted.
_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode


def _line(payload: bytes) -> bytes:
    """``payload`` framed as a line: a tab, its crc32 in hex, newline."""
    return b"%s\t%08x\n" % (payload, zlib.crc32(payload))


def encode_record(record: dict) -> bytes:
    """One self-verifying journal line: canonical JSON + crc32 + newline.

    The checksum covers exactly the JSON payload bytes, so the reader
    can validate a line without any surrounding context — the property
    the torn-tail guarantee rests on.
    """
    return _line(json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8"))


def feature_fragment(features: dict) -> bytes:
    """A matrix's feature fields as the members of a JSON object, the
    tail of every solve line of that matrix: encoded once per matrix,
    not once per solve."""
    return _encode(features)[1:-1].encode("utf-8")


def encode_solve(
    fields: dict, *, ts: float, outcome: str, features: bytes = b""
) -> bytes:
    """One solve line: ``kind`` and ``ts``, the rendered request's
    ``fields`` in their own order
    (:func:`repro.serve.requests.solve_fields` owns it) and
    ``outcome``, then the pre-encoded ``features``
    (:func:`feature_fragment`) spliced in as bytes, with no key
    sorted."""
    payload = _encode(
        {"kind": "solve", "ts": ts, **fields, "outcome": outcome}
    ).encode("utf-8")
    if features:
        payload = b"%s,%s}" % (payload[:-1], features)
    return _line(payload)


def decode_line(line: bytes) -> Optional[dict]:
    """Decode one segment line; ``None`` if torn/corrupt (never raises).

    A valid line is newline-terminated JSON-object payload, a tab, and
    eight hex digits of crc32 over the payload.  Anything else — a tail
    cut short of its newline, a flipped byte anywhere, a checksum that
    matches non-JSON — is rejected.
    """
    if not line.endswith(b"\n"):
        return None  # torn tail: the write never completed
    body = line[:-1]
    payload, sep, crc_text = body.rpartition(b"\t")
    if not sep or len(crc_text) != 8:
        return None
    try:
        crc = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _segment_name(shard: str, seq: int) -> str:
    return f"journal-{shard}-{seq:06d}.jsnl"


def _parse_segment_name(name: str) -> Optional[tuple[str, int]]:
    """``journal-<shard>-<seq>.jsnl`` -> ``(shard, seq)`` or ``None``."""
    if not (name.startswith("journal-") and name.endswith(".jsnl")):
        return None
    stem = name[len("journal-"):-len(".jsnl")]
    shard, sep, seq_text = stem.rpartition("-")
    if not sep or not seq_text.isdigit():
        return None
    return shard, int(seq_text)


class JournalWriter:
    """Buffered, rotating, thread-safe segment writer.

    ``flush_records`` trades durability for throughput: with the default
    ``1`` every appended record reaches the OS before ``append``
    returns (kill -9 loses at most the in-flight record); larger values
    flush every N records and on :meth:`close`/rotation, widening the
    loss window to N records.  I/O errors never propagate into the
    serve path — a failed write is counted in ``records_dropped`` and
    the solve proceeds.

    ``clock`` is a seam for the age-rotation and flush-lag tests; it
    must return seconds like :func:`time.time`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        shard: str = "main",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_age_s: float = DEFAULT_SEGMENT_AGE_S,
        flush_records: int = 1,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if segment_age_s <= 0:
            raise ValueError("segment_age_s must be positive")
        if flush_records <= 0:
            raise ValueError("flush_records must be positive")
        if "/" in shard or "\\" in shard or not shard:
            raise ValueError(f"shard must be a bare name, got {shard!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard = shard
        self.segment_bytes = segment_bytes
        self.segment_age_s = segment_age_s
        self.flush_records = flush_records
        self._clock = clock
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False
        # never append to a pre-existing segment (its tail may be torn);
        # resume past the highest sequence this shard already wrote
        existing = [
            parsed[1]
            for p in self.directory.glob(SEGMENT_GLOB)
            if (parsed := _parse_segment_name(p.name)) is not None
            and parsed[0] == shard
        ]
        self._next_seq = max(existing) + 1 if existing else 0
        self._segment_opened_at = 0.0
        self._segment_len = 0
        # counters (exposed via stats() -> OpenMetrics journal families)
        self._records_written = 0
        self._records_dropped = 0
        self._bytes_written = 0
        self._segments_rotated = 0
        self._incidents = 0
        self._unflushed = 0
        self._last_flush = self._clock()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> bool:
        """Append one record; returns ``False`` if it was dropped.

        Stamps ``ts`` (wall-clock seconds) when the record lacks one.
        Safe from any thread; safe after :meth:`close` (drops, never
        raises) — the engine's worker threads may still be finishing a
        block while the owner tears the journal down.
        """
        with self._lock:
            if self._closed:
                self._records_dropped += 1
                return False
            if "ts" not in record:
                record = dict(record, ts=self._clock())
            return self._write(encode_record(record))

    def append_solve(
        self, fields: dict, *, outcome: str, features: bytes = b""
    ) -> bool:
        """Append one solve line from a rendered request (the engine's
        path): ``fields`` as :func:`encode_solve` takes them, ``features``
        pre-encoded by :func:`feature_fragment`.  Same guarantees and
        accounting as :meth:`append`."""
        with self._lock:
            if self._closed:
                self._records_dropped += 1
                return False
            return self._write(encode_solve(
                fields, ts=self._clock(), outcome=outcome, features=features
            ))

    def _write(self, line: bytes) -> bool:
        """Write one encoded line (under the lock): rotate if due, flush
        every ``flush_records``, count it written or dropped."""
        try:
            self._ensure_segment(len(line))
            self._fh.write(line)
            self._unflushed += 1
            if self._unflushed >= self.flush_records:
                self._fh.flush()
                self._unflushed = 0
                self._last_flush = self._clock()
        except OSError:
            self._records_dropped += 1
            return False
        self._records_written += 1
        self._bytes_written += len(line)
        self._segment_len += len(line)
        return True

    def record_event(self, kind: str, **fields) -> bool:
        """Append one record of ``kind`` with sorted keys (e.g. kernel
        failures; the engine's solve lines go through
        :meth:`append_solve`)."""
        return self.append({"kind": kind, **fields})

    def incident(
        self,
        reason: str,
        *,
        matrix: Optional[str] = None,
        solver: Optional[str] = None,
        lane: Optional[str] = None,
        error: Optional[str] = None,
        trace_events: Iterable[dict] = (),
        snapshot: Optional[dict] = None,
    ) -> Optional[Path]:
        """Write a black-box incident dump; returns its path.

        The dump is a standalone pretty-printed JSON file (the segments
        stay single-purpose and compact); a pointer record lands in the
        journal so ``journal query --kind incident`` finds it.  I/O
        failures are swallowed and counted like dropped records.
        """
        events = list(trace_events)[-INCIDENT_TRACE_EVENTS:]
        with self._lock:
            if self._closed:
                self._records_dropped += 1
                return None
            seq = self._incidents
            path = self.directory / f"incident-{self.shard}-{seq:04d}.json"
            doc = {
                "schema": JOURNAL_SCHEMA,
                "kind": "incident",
                "ts": self._clock(),
                "shard": self.shard,
                "reason": reason,
                "matrix": matrix,
                "solver": solver,
                "lane": lane,
                "error": error,
                "trace_tail": events,
                "snapshot": snapshot,
            }
            try:
                path.write_text(
                    json.dumps(doc, indent=2, sort_keys=True, default=str),
                    encoding="utf-8",
                )
            except OSError:
                self._records_dropped += 1
                return None
            self._incidents += 1
        self.record_event(
            "incident", reason=reason, matrix=matrix, solver=solver,
            lane=lane, error=error, incident_file=path.name,
        )
        return path

    def _ensure_segment(self, incoming: int) -> None:
        """Open the first segment, or rotate when size/age says so.

        Called under the lock.  The size check is pre-write (a segment
        never *exceeds* the threshold by more than one record) and the
        header record counts toward segment bytes but not toward
        ``records_written`` — it is framing, not payload.
        """
        now = self._clock()
        if self._fh is not None and (
            self._segment_len + incoming > self.segment_bytes
            or now - self._segment_opened_at >= self.segment_age_s
        ):
            self._fh.flush()
            self._fh.close()
            self._fh = None
            self._segments_rotated += 1
        if self._fh is None:
            path = self.directory / _segment_name(self.shard, self._next_seq)
            header = encode_record({
                "kind": "header",
                "schema": JOURNAL_SCHEMA,
                "shard": self.shard,
                "segment": self._next_seq,
                "ts": now,
            })
            self._fh = open(path, "ab")
            self._fh.write(header)
            self._fh.flush()
            self._next_seq += 1
            self._segment_opened_at = now
            self._segment_len = len(header)
            self._bytes_written += len(header)
            self._last_flush = now

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Health counters (journal OpenMetrics families feed on this)."""
        with self._lock:
            return {
                "shard": self.shard,
                "records_written": self._records_written,
                "records_dropped": self._records_dropped,
                "bytes_written": self._bytes_written,
                "segment_bytes": self._segment_len,
                "segments_rotated": self._segments_rotated,
                "incidents": self._incidents,
                "buffered_records": self._unflushed,
                "flush_lag_s": (
                    self._clock() - self._last_flush
                    if self._unflushed
                    else 0.0
                ),
            }

    def flush(self) -> None:
        """Push any buffered records to the OS (no-op when unbuffered)."""
        with self._lock:
            if self._fh is not None and not self._closed:
                self._fh.flush()
                self._unflushed = 0
                self._last_flush = self._clock()

    def close(self) -> None:
        """Flush and close the current segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None
                self._unflushed = 0

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JournalReader:
    """Merge every shard's segments into one validated record stream.

    Content damage never raises: torn tails, flipped bytes and
    malformed lines are skipped and counted in the scan stats.  Only a
    *missing* journal — the directory does not exist or holds no
    segment files — raises :class:`~repro.errors.JournalError`, which
    is exactly the ``journal report`` exit-2 condition.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def segments(self) -> list[Path]:
        """Segment files across all shards, in (shard, seq) order."""
        if not self.directory.is_dir():
            raise JournalError(
                f"journal directory not found: {self.directory}"
            )
        found = [
            (parsed, p)
            for p in self.directory.glob(SEGMENT_GLOB)
            if (parsed := _parse_segment_name(p.name)) is not None
        ]
        if not found:
            raise JournalError(
                f"no journal segments in {self.directory} "
                f"(expected {SEGMENT_GLOB})"
            )
        return [p for _, p in sorted(found, key=lambda item: item[0])]

    def scan(self) -> dict:
        """Read everything; returns records + damage accounting.

        The result dict carries ``records`` (payload records across all
        shards, time-ordered, each stamped with its source ``shard``),
        ``headers`` (segment header records), ``segments``, ``shards``,
        and ``skipped`` (torn/corrupt line count).  Record order is
        deterministic: sorted by ``(ts, shard, segment seq, line no)``,
        so interleaved shards merge stably.
        """
        segments = self.segments()
        records: list[tuple[tuple, dict]] = []
        headers: list[dict] = []
        shards: set[str] = set()
        skipped = 0
        for path in segments:
            parsed = _parse_segment_name(path.name)
            shard, seq = parsed if parsed is not None else ("?", 0)
            shards.add(shard)
            try:
                data = path.read_bytes()
            except OSError:
                skipped += 1
                continue
            for lineno, raw in enumerate(data.splitlines(keepends=True)):
                record = decode_line(raw)
                if record is None:
                    skipped += 1
                    continue
                if record.get("kind") == "header":
                    headers.append(record)
                    continue
                record.setdefault("shard", shard)
                ts = record.get("ts")
                sort_ts = ts if isinstance(ts, (int, float)) else 0.0
                records.append(((sort_ts, shard, seq, lineno), record))
        records.sort(key=lambda item: item[0])
        return {
            "records": [r for _, r in records],
            "headers": headers,
            "segments": len(segments),
            "shards": sorted(shards),
            "skipped": skipped,
        }

    def records(
        self,
        *,
        kind: Optional[str] = None,
        matrix: Optional[str] = None,
        lane: Optional[str] = None,
    ) -> list[dict]:
        """Filtered view over :meth:`scan` (same merge order)."""
        out = self.scan()["records"]
        if kind is not None:
            out = [r for r in out if r.get("kind") == kind]
        if matrix is not None:
            out = [
                r for r in out
                if isinstance(r.get("matrix"), str)
                and r["matrix"].startswith(matrix)
            ]
        if lane is not None:
            out = [r for r in out if r.get("lane") == lane]
        return out

    def tail(self, n: int = 10) -> list[dict]:
        """The last ``n`` records of the merged stream."""
        out = self.scan()["records"]
        return out[-n:] if n >= 0 else out
