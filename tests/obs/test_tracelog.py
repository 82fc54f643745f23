"""TraceLog (bounded structured event log) tests."""

from __future__ import annotations

import io
import json
import multiprocessing
import re
import threading

import pytest

from repro.obs import TRACELOG_SCHEMA, TraceLog, new_id
from repro.obs.tracelog import write_tracelog

ID_FORMAT = re.compile(r"[0-9a-f]{12}")


def mint(n):
    """``n`` fresh ids."""
    return [new_id() for _ in range(n)]


def _mint_into(conn, n):
    conn.send(mint(n))
    conn.close()


def start_minting(method, n):
    """Start a ``method`` child process minting ``n`` ids; returns a
    function that collects them."""
    ctx = multiprocessing.get_context(method)
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_mint_into, args=(child_end, n))
    child.start()

    def collect():
        assert parent_end.poll(60), f"the {method} child sent no ids"
        ids = parent_end.recv()
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
        return ids

    return collect


class TestTraceIds:
    def test_shape_and_uniqueness(self):
        ids = {new_id() for _ in range(256)}
        assert len(ids) == 256
        assert all(ID_FORMAT.fullmatch(t) for t in ids)

    def test_hundred_thousand_ids_are_unique(self):
        ids = mint(100_000)
        assert len(set(ids)) == len(ids)
        assert all(ID_FORMAT.fullmatch(t) for t in ids[::997])

    def test_spawned_processes_do_not_collide(self):
        first, second = (start_minting("spawn", 2_000) for _ in range(2))
        a, b = first(), second()
        assert all(ID_FORMAT.fullmatch(t) for t in a + b)
        assert not set(a) & set(b)
        assert not set(a + b) & set(mint(2_000))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork",
    )
    def test_forked_child_reseeds(self):
        """Without the at-fork reseed the child would mint exactly the
        ids its parent mints next."""
        child_ids = start_minting("fork", 500)()
        assert all(ID_FORMAT.fullmatch(t) for t in child_ids)
        assert not set(child_ids) & set(mint(500))


class TestRing:
    def test_capacity_bounds_memory_and_reports_drops(self):
        log = TraceLog(capacity=8)
        for i in range(20):
            log.emit("tick", {"n": i})
        s = log.summary()
        assert s == {
            "emitted": 20, "retained": 8, "dropped": 12, "capacity": 8,
            "by_kind": {"tick": 8},
        }
        # the ring keeps the newest events
        assert [e["n"] for e in log.events()] == list(range(12, 20))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_seq_is_monotonic(self):
        log = TraceLog()
        for _ in range(5):
            log.emit("a", {})
        seqs = [e["seq"] for e in log.events()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5


class TestQueries:
    def test_filter_by_kind_and_trace_id(self):
        log = TraceLog()
        t1, t2 = new_id(), new_id()
        log.emit("enqueue", {"trace_id": t1})
        log.emit("enqueue", {"trace_id": t2})
        log.emit("publish", {"trace_id": t1})
        assert len(log.events(kind="enqueue")) == 2
        assert [e["kind"] for e in log.events(trace_id=t1)] == [
            "enqueue", "publish"
        ]

    def test_request_timeline_includes_batch_events(self):
        log = TraceLog()
        t1, t2 = new_id(), new_id()
        log.emit("enqueue", {"trace_id": t1})
        log.emit("enqueue", {"trace_id": t2})
        log.emit(
            "launch", {"batch_id": "b1", "width": 2, "trace_ids": [t1, t2]}
        )
        log.emit("publish", {"trace_id": t1})
        kinds = [e["kind"] for e in log.request_timeline(t1)]
        assert kinds == ["enqueue", "launch", "publish"]
        # t2's timeline shares the launch but not t1's publish
        assert [e["kind"] for e in log.request_timeline(t2)] == [
            "enqueue", "launch"
        ]


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        log = TraceLog()
        log.emit("enqueue", {"trace_id": "abc", "n_rhs": 1})
        log.emit("publish", {"trace_id": "abc", "latency_ms": 1.5})
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 2  # header is not an event
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == {"schema": TRACELOG_SCHEMA}
        parsed = [json.loads(line) for line in lines[1:]]
        assert parsed[0]["kind"] == "enqueue"
        assert parsed[1]["latency_ms"] == 1.5
        buf = io.StringIO()
        assert write_tracelog(buf, log.events()) == 2
        assert buf.getvalue() == path.read_text()

    def test_empty_log_writes_header_only_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert TraceLog().write_jsonl(str(path)) == 0
        assert json.loads(path.read_text()) == {"schema": TRACELOG_SCHEMA}


class TestThreadSafety:
    def test_concurrent_emit_keeps_exact_counts(self):
        log = TraceLog(capacity=100_000)
        n_threads, per_thread = 8, 500

        def worker(k: int) -> None:
            for i in range(per_thread):
                log.emit("tick", {"thread": k, "n": i})

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s = log.summary()
        assert s["emitted"] == n_threads * per_thread
        assert s["retained"] == n_threads * per_thread
        seqs = [e["seq"] for e in log.events()]
        assert len(set(seqs)) == n_threads * per_thread
