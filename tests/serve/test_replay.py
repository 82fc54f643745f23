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
            {"kind": "publish", "lane": "host", "latency_ms": 1.0},
            {"kind": "publish", "lane": "host", "latency_ms": 2.0},
            {"kind": "timeout"},
            {"kind": "fail"},
            {"kind": "reject"},
        ]
        # the recording's events folded through ServeTelemetry.count,
        # under the snapshot's names
        counts = trace_counts(events)
        assert counts == {
            "total": 2, "completed": 2, "failed": 1, "timed_out": 1,
            "rejected": 1, "batches": 1,
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
        assert report.recorded["total"] == 7
        assert report.recorded["batches"] == 1  # the 6 singles coalesce
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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_recorded_failure_replays_ok(self, tmp_path):
        from repro.errors import NonFiniteAnswerError
        from repro.sparse.convert import dense_to_csr

        # a 1e-200 diagonal: b = ones overflows on every lane
        tiny = dense_to_csr(
            np.tril(np.full((6, 6), 0.5), -1) + np.eye(6) * 1e-200
        )
        system = lower_triangular_system(random_unit_lower(40, 0.05, seed=5))
        trace = tmp_path / "events.jsonl"

        async def session():
            engine = SolveEngine(execution="host")
            engine.register(system.L, name="ok")
            engine.register(tiny, name="tiny")
            await asyncio.gather(
                *[engine.solve("ok", system.b) for _ in range(3)]
            )
            with pytest.raises(NonFiniteAnswerError):
                await engine.solve("tiny", np.ones(6))
            engine.trace_log.write_jsonl(trace)
            await engine.close()

        asyncio.run(session())
        report = replay_file(trace)
        assert report.recorded["failed"] == 1
        # the stand-in matrix serves the failed request, and its block
        # is one more batch than the recording counted
        assert report.replayed["completed"] == 4
        assert report.replayed["batches"] == report.recorded["batches"] + 1
        assert report.ok, report.summary()
        assert "batches not gated" in report.summary()

    def test_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        report = replay_file(trace)
        assert report.ok
        assert report.recorded["total"] == 0
        assert report.replayed["total"] == 0


class TestReplayCoalescing:
    """A virtual replay issues the requests of one recorded coalesced
    launch in one tick, so it serves the recording's batches, and a
    batch-count mismatch fails the replay."""

    @staticmethod
    def record_cli(path, capsys):
        from repro.cli import main

        rc = main(["serve-stats", "--n-rows", "200", "--requests", "8",
                   "--rhs", "2", "--execution", "host",
                   "--trace-log", str(path)])
        assert rc == 0
        capsys.readouterr()

    def test_coalesced_batch_replays_as_one(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        self.record_cli(trace, capsys)
        report = replay_file(trace)
        assert report.recorded["batches"] == 1
        assert report.replayed["batches"] == 1
        assert report.ok, report.summary()

    def test_split_launch_reports_batch_mismatch(self, tmp_path, capsys):
        from repro.obs.tracelog import write_tracelog

        trace = tmp_path / "events.jsonl"
        self.record_cli(trace, capsys)
        events = load_events(trace)
        (launch,) = [
            e for e in events
            if e["kind"] == "launch" and e["batch_id"] not in e["trace_ids"]
        ]
        # the block's 8 requests recorded as two launches of 4: the
        # recording now counts 2 batches, the replay still serves the
        # block's requests as one
        ids = launch["trace_ids"]
        launch.update(trace_ids=ids[:4], width=4)
        events.insert(
            events.index(launch) + 1, dict(launch, trace_ids=ids[4:])
        )
        split = tmp_path / "split.jsonl"
        write_tracelog(split, events)
        report = replay_file(split)
        assert report.recorded["batches"] == 2
        assert report.replayed["batches"] == 1
        assert not report.ok
        assert any("coalesced batch" in m for m in report.mismatches)
        # wall replays report batches without gating on them
        assert replay_file(split, virtual=False, speed=1000.0).ok


class TestClusterReplay:
    def test_replay_through_sharded_cluster(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        record_session(str(trace), requests=5, rhs=2)
        report = replay_file(trace, workers=2, speed=1000.0)
        assert report.workers == 2
        assert not report.virtual  # cluster replay is wall-paced only
        assert report.ok, report.summary()
        assert report.replayed["total"] == report.recorded["total"]
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
        assert trace_counts(events)["total"] == 1

    @pytest.mark.parametrize("name", [
        # a headerless /1 dump: batch events, launches without lane,
        # width, n_rhs or exec_ms, publishes without lane
        "tracelog1_headerless.jsonl",
        # a sim-lane tracelog/2 recording from before fail events and
        # the launch's n_rhs/exec_ms fields
        "tracelog2_sim_before_fail.jsonl",
    ])
    def test_older_recordings_fold_and_replay(self, name):
        from pathlib import Path

        report = replay_file(Path(__file__).parent / "golden" / name)
        assert report.ok, report.summary()
        assert report.recorded == report.replayed
        assert report.recorded["total"] == 5
        assert report.recorded["batches"] == 1

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
