"""Trace replay: recorded TraceLog JSONL re-driven through an engine."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import SolveEngine
from repro.serve.replay import (
    load_events,
    replay_file,
    stand_in_matrix,
    trace_counts,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower


def record_session(path, *, requests=6, rhs=3, timeout_one=False):
    """Run a real serving session and dump its trace log."""
    system = lower_triangular_system(random_unit_lower(80, 0.05, seed=4))

    async def session():
        engine = SolveEngine(execution="host", batch_window=0.0)
        engine.register(system.L, name="rec")
        await asyncio.gather(
            *[engine.solve("rec", system.b) for _ in range(requests)]
        )
        if rhs:
            B = np.column_stack([system.b] * rhs)
            await engine.solve_multi("rec", B)
        engine.trace_log.write_jsonl(path)
        await engine.close()

    asyncio.run(session())


class TestTraceCounts:
    def test_counts_by_kind(self):
        events = [
            {"kind": "enqueue", "n_rhs": 1},
            {"kind": "enqueue", "n_rhs": 4},
            # a coalesced batch launches under a fresh batch id; a
            # solve_multi block under its request's own trace id
            {"kind": "launch", "batch_id": "b1", "trace_ids": ["t1"]},
            {"kind": "launch", "batch_id": "t2", "trace_ids": ["t2"]},
            {"kind": "publish"},
            {"kind": "publish"},
            {"kind": "timeout"},
            {"kind": "reject"},
        ]
        counts = trace_counts(events)
        assert counts == {
            "requests": 2, "rhs": 5, "published": 2, "timeouts": 1,
            "rejects": 1, "batches": 1,
        }


class TestStandInMatrix:
    def test_unit_lower_and_distinct_per_index(self):
        a = stand_in_matrix(16, 0)
        b = stand_in_matrix(16, 1)
        assert a.n_rows == 16
        assert np.all(a.diagonal() == 1.0)
        assert a.content_fingerprint() != b.content_fingerprint()


class TestReplayFile:
    def test_round_trip_matches_recording(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=6, rhs=3)
        report = replay_file(trace)
        assert report.ok, report.summary()
        assert report.recorded["requests"] == 7
        assert report.recorded["rhs"] == 9
        assert report.replayed["total"] == 7
        assert report.replayed["completed"] == 7
        assert report.n_matrices == 1
        assert "matches the recording" in report.summary()

    def test_replay_is_deterministic(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=4, rhs=0)
        a = replay_file(trace)
        b = replay_file(trace)
        assert a.replayed == b.replayed

    def test_wall_mode_with_speedup(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=3, rhs=0)
        report = replay_file(trace, virtual=False, speed=1000.0)
        assert report.ok, report.summary()
        assert not report.virtual
        assert report.speed == 1000.0

    def test_mismatch_reported_for_truncated_log(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=4, rhs=0)
        events = load_events(trace)
        # drop one publish: the recording now claims fewer completions
        # than a deadline-free replay will produce
        pruned = [e for e in events if e["kind"] != "publish"][:-1] + [
            e for e in events if e["kind"] == "publish"
        ][:-1]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(json.dumps(e) for e in pruned) + "\n"
        )
        report = replay_file(bad)
        assert not report.ok
        assert any("completed" in m for m in report.mismatches)

    def test_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        report = replay_file(trace)
        assert report.ok
        assert report.recorded["requests"] == 0
        assert report.replayed["total"] == 0


class TestClusterReplay:
    def test_replay_through_sharded_cluster(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=5, rhs=2)
        report = replay_file(trace, workers=2, speed=1000.0)
        assert report.workers == 2
        assert not report.virtual  # cluster replay is wall-paced only
        assert report.ok, report.summary()
        assert report.replayed["total"] == report.recorded["requests"]
        assert "cluster of 2 worker(s)" in report.summary()

    def test_cluster_replay_leaves_no_shared_memory(self, tmp_path):
        from repro.serve.arena import leaked_segments

        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=3, rhs=0)
        before = set(leaked_segments())
        replay_file(trace, workers=1, speed=1000.0)
        assert set(leaked_segments()) - before == set()


class TestSchemaValidation:
    """The ``tracelog/2`` header: validated on load, stripped from the
    events, and unknown versions refused with a named error instead of
    a ``KeyError`` deep inside replay."""

    def test_v2_header_accepted_and_stripped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record_session(str(path), requests=2, rhs=0)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"schema": "tracelog/2"}
        events = load_events(path)
        assert events
        assert all("schema" not in e for e in events)
        report = replay_file(path)
        assert report.ok, report.summary()

    def test_headerless_legacy_dump_still_loads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps({"kind": "enqueue", "matrix": "m", "ts": 0.0,
                        "n_rhs": 2}) + "\n"
        )
        events = load_events(path)
        assert len(events) == 1
        assert trace_counts(events)["rhs"] == 2

    def test_unknown_schema_raises_named_error(self, tmp_path):
        from repro.errors import TraceSchemaError

        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"schema": "tracelog/99"}) + "\n"
            + json.dumps({"kind": "enqueue", "matrix": "m", "ts": 0.0})
            + "\n"
        )
        with pytest.raises(TraceSchemaError) as excinfo:
            load_events(path)
        message = str(excinfo.value)
        assert "tracelog/99" in message
        assert "tracelog/1" in message and "tracelog/2" in message

    def test_trace_schema_error_is_a_serve_error(self):
        from repro.errors import ReproError, ServeError, TraceSchemaError

        assert issubclass(TraceSchemaError, ServeError)
        assert issubclass(TraceSchemaError, ReproError)
