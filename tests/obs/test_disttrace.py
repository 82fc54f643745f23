"""Distributed-tracing primitives: span context, recorder, clock
alignment, and router-side trace reassembly.

Everything here is single-process — deterministic fake clocks, hand-fed
span dicts.  The end-to-end cluster path (real workers, piggybacked
span shipment) lives in ``tests/serve/test_cluster_trace.py``.
"""

import json

import numpy as np
import pytest

from repro.errors import TraceSchemaError
from repro.obs.chrome import spans_chrome_trace
from repro.obs.disttrace import (
    SPAN_CONTEXT_VERSION,
    ClockAligner,
    SpanContext,
    SpanRecorder,
    TraceCollector,
)
from repro.obs.tracelog import new_id
from repro.serve.replay import load_events, replay_file


class FakeClock:
    """Deterministic clock: starts at ``t0``, advances on demand."""

    def __init__(self, t0=100.0):
        self.now = t0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt
        return self.now


def make_span(name, trace, *, span_id=None, parent=None, process="router",
              start=0.0, dur_ms=1.0, **attrs):
    """Hand-built finished-span dict (the wire form)."""
    return {
        "name": name,
        "trace_id": trace,
        "span_id": span_id or new_id(),
        "parent_id": parent,
        "process": process,
        "start": start,
        "end": start + dur_ms / 1000.0,
        "duration_ms": dur_ms,
        "attrs": attrs,
    }


class TestSpanContext:
    def test_wire_round_trip(self):
        ctx = SpanContext("trace-abc", "span-def")
        wire = ctx.to_wire()
        assert wire == {
            "v": SPAN_CONTEXT_VERSION,
            "trace": "trace-abc",
            "span": "span-def",
        }
        back = SpanContext.from_wire(json.loads(json.dumps(wire)))
        assert back.trace_id == "trace-abc"
        assert back.span_id == "span-def"

    @pytest.mark.parametrize("doc", [
        None,
        "not-a-dict",
        {},
        {"trace": "t"},                     # missing span id
        {"trace": 7, "span": "s"},          # wrong type
        {"v": SPAN_CONTEXT_VERSION + 1, "trace": "t", "span": "s"},
    ])
    def test_absent_malformed_or_future_reads_as_none(self, doc):
        assert SpanContext.from_wire(doc) is None

    def test_versionless_context_accepted(self):
        # a peer that forgot the version field still parses (v=0 <= 1)
        ctx = SpanContext.from_wire({"trace": "t", "span": "s"})
        assert ctx is not None and ctx.trace_id == "t"


class TestSpanRecorder:
    def test_start_mints_trace_id_when_absent(self):
        rec = SpanRecorder("router", clock=FakeClock())
        root = rec.start("request")
        assert root.trace_id and root.span_id
        child = rec.start("send", trace_id=root.trace_id,
                          parent_id=root.span_id)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_finish_buffers_and_drain_ships_oldest_first(self):
        clock = FakeClock()
        rec = SpanRecorder("shard-0", clock=clock)
        a = rec.start("deserialize")
        clock.tick(0.002)
        rec.finish(a)
        b = rec.start("solve", trace_id=a.trace_id, parent_id=a.span_id)
        clock.tick(0.005)
        rec.finish(b, lane="host")
        shipped = rec.drain()
        assert [s["name"] for s in shipped] == ["deserialize", "solve"]
        assert shipped[0]["duration_ms"] == pytest.approx(2.0)
        assert shipped[1]["attrs"] == {"lane": "host"}
        assert rec.drain() == []
        assert rec.stats()["finished"] == 2
        assert rec.stats()["buffered"] == 0

    def test_sink_mode_bypasses_buffer(self):
        seen = []
        rec = SpanRecorder("router", sink=seen.append, clock=FakeClock())
        rec.finish(rec.start("request"))
        assert len(seen) == 1 and seen[0]["name"] == "request"
        assert rec.drain() == []

    def test_context_manager_records_error_and_reraises(self):
        rec = SpanRecorder("router", clock=FakeClock())
        with pytest.raises(ValueError):
            with rec.span("solve"):
                raise ValueError("boom")
        (record,) = rec.drain()
        assert record["attrs"]["error"] == "ValueError"


class TestClockAligner:
    def test_symmetric_exchange_recovers_offset(self):
        aligner = ClockAligner()
        # worker clock runs 4.9s ahead: send 10.0, recv 10.2, worker
        # answered 15.0 at the midpoint 10.1
        aligner.observe("shard-0", 10.0, 15.0, 10.2)
        assert aligner.offset("shard-0") == pytest.approx(4.9)
        snap = aligner.snapshot()["shard-0"]
        assert snap["rtt_s"] == pytest.approx(0.2)
        assert snap["samples"] == 1

    def test_minimum_rtt_sample_wins(self):
        aligner = ClockAligner()
        aligner.observe("shard-0", 10.0, 15.0, 10.2)    # rtt 0.2
        aligner.observe("shard-0", 20.0, 26.0, 20.02)   # rtt 0.02: better
        assert aligner.offset("shard-0") == pytest.approx(5.99)
        aligner.observe("shard-0", 30.0, 40.0, 31.0)    # rtt 1.0: ignored
        assert aligner.offset("shard-0") == pytest.approx(5.99)
        assert aligner.snapshot()["shard-0"]["samples"] == 3

    def test_unknown_node_reads_as_zero(self):
        aligner = ClockAligner()
        assert aligner.offset("shard-9") == 0.0
        assert aligner.offset(None) == 0.0
        assert aligner.snapshot() == {}


def fed_collector(*, slow_ms=None, offset=None):
    """Collector with one two-process trace: router root + send, worker
    deserialize/solve/reply (worker clock offset optional)."""
    collector = TraceCollector(slow_ms=slow_ms)
    shift = 0.0
    if offset is not None:
        # teach the aligner the offset exactly, via a zero-RTT exchange
        collector.aligner.observe("shard-0", 50.0, 50.0 + offset, 50.0)
        shift = offset
    root = make_span("request", "t1", span_id="r", start=10.0,
                     dur_ms=30.0, matrix="m0", n_rhs=1)
    send = make_span("send", "t1", parent="r", start=10.001, dur_ms=2.0)
    collector.record(root)
    collector.record(send)
    worker = [
        make_span("deserialize", "t1", parent="r", process="shard-0",
                  start=10.004 + shift, dur_ms=1.0),
        make_span("solve", "t1", span_id="sv", parent="r",
                  process="shard-0", start=10.006 + shift,
                  dur_ms=20.0, lane="host"),
        make_span("reply", "t1", parent="sv", process="shard-0",
                  start=10.027 + shift, dur_ms=1.5),
    ]
    assert collector.record_remote(worker, node="shard-0") == 3
    return collector


class TestTraceCollector:
    def test_tree_reassembles_across_processes(self):
        collector = fed_collector()
        tree = collector.tree("t1")
        assert tree["name"] == "request"
        children = {c["name"]: c for c in tree["children"]}
        assert set(children) == {"send", "deserialize", "solve"}
        assert [c["name"] for c in children["solve"]["children"]] == [
            "reply"
        ]
        assert children["solve"]["process"] == "shard-0"

    def test_remote_spans_shift_onto_local_clock(self):
        collector = fed_collector(offset=4.0)
        spans = {s["name"]: s for s in collector.spans("t1")}
        assert spans["solve"]["start"] == pytest.approx(10.006)
        assert spans["solve"]["clock_offset_s"] == pytest.approx(4.0)
        # local spans are untouched
        assert spans["request"]["start"] == pytest.approx(10.0)
        assert "clock_offset_s" not in spans["request"]

    def test_orphans_attach_under_root(self):
        collector = TraceCollector()
        collector.record(make_span("request", "t2", span_id="r",
                                   start=0.0, dur_ms=5.0))
        collector.record(make_span("lost", "t2", parent="gone",
                                   start=0.001, dur_ms=1.0))
        tree = collector.tree("t2")
        assert [c["name"] for c in tree["children"]] == ["lost"]

    def test_dominant_hop_is_longest_non_root_span(self):
        collector = fed_collector()
        assert collector.dominant_hop("t1") == "solve"
        assert collector.dominant_hop("unknown") is None

    def test_hop_stats_percentiles(self):
        collector = TraceCollector()
        for i, dur in enumerate([1.0, 2.0, 3.0, 4.0]):
            collector.record(make_span("solve", f"t{i}", parent="p",
                                       start=float(i), dur_ms=dur))
        stats = collector.hop_stats()["solve"]
        assert stats["count"] == 4
        assert stats["p50_ms"] == pytest.approx(2.5)
        assert stats["p99_ms"] == pytest.approx(3.97)
        assert stats["mean_ms"] == pytest.approx(2.5)
        assert stats["max_ms"] == pytest.approx(4.0)

    def test_explicit_slow_threshold_captures_exemplars(self):
        collector = TraceCollector(slow_ms=10.0)
        collector.record(make_span("request", "fast", start=0.0,
                                   dur_ms=5.0))
        collector.record(make_span("request", "slow", span_id="r",
                                   start=1.0, dur_ms=50.0))
        collector.record_remote(
            [make_span("solve", "slow", parent="r", process="shard-0",
                       start=1.001, dur_ms=45.0)],
            node="shard-0",
        )
        exemplars = collector.exemplars()
        assert [e["trace_id"] for e in exemplars] == ["slow"]
        ex = exemplars[0]
        assert ex["total_ms"] == pytest.approx(50.0)
        assert ex["threshold_ms"] == pytest.approx(10.0)
        # remote spans arrived after the root: capture is root-time,
        # so the exemplar holds what was collected at that point
        assert any(s["name"] == "request" for s in ex["spans"])

    def test_adaptive_threshold_tracks_root_p95(self):
        collector = TraceCollector()   # slow_ms=None -> adaptive
        for i in range(20):
            collector.record(make_span("request", f"t{i}", start=float(i),
                                       dur_ms=1.0 + i))
        # p95 of 1..20 ms root durations
        assert collector.slow_threshold_ms() == pytest.approx(19.05)
        # the slowest request is always >= the running p95 -> captured
        assert any(e["trace_id"] == "t19" for e in collector.exemplars())

    def test_adaptive_threshold_equals_a_full_sort_under_eviction(self):
        # the threshold reads a sorted copy of the root reservoir kept
        # beside it: after every ingest it must equal the sort-based
        # p95 of the last 512 roots, to the bit, and capture the same
        # exemplars that threshold selects
        from repro.obs.disttrace import _percentile

        rng = np.random.default_rng(3)
        durations = (rng.integers(0, 60, size=2100) / 8.0).tolist()
        collector = TraceCollector(exemplar_capacity=4096)
        expected = []
        for i, dur in enumerate(durations):
            collector.record(make_span("request", f"t{i}", start=float(i),
                                       dur_ms=dur))
            roots = list(collector._roots)
            assert len(roots) == min(i + 1, 512)
            assert roots[-1] == dur
            threshold = _percentile(roots, 0.95)
            assert collector.slow_threshold_ms() == threshold
            if dur >= threshold:
                expected.append((f"t{i}", dur, threshold))
        got = [(e["trace_id"], e["total_ms"], e["threshold_ms"])
               for e in collector.exemplars()]
        assert got == expected
        assert len(set(durations)) < 100  # repeated durations throughout

    def test_nan_root_leaves_the_sorted_copy_with_the_reservoir(self):
        collector = TraceCollector()
        collector.record(make_span("request", "nan", dur_ms=float("nan")))
        for i in range(600):
            collector.record(make_span("request", f"t{i}", start=float(i),
                                       dur_ms=float(i % 7)))
        assert collector._roots_sorted == sorted(collector._roots)

    def test_exemplar_ring_is_bounded(self):
        collector = TraceCollector(slow_ms=0.0, exemplar_capacity=3)
        for i in range(8):
            collector.record(make_span("request", f"t{i}", start=float(i),
                                       dur_ms=1.0))
        exemplars = collector.exemplars()
        assert len(exemplars) == 3
        assert [e["trace_id"] for e in exemplars] == ["t5", "t6", "t7"]

    def test_max_traces_eviction_counts_drops(self):
        collector = TraceCollector(max_traces=2)
        for i in range(5):
            collector.record(make_span("request", f"t{i}", start=float(i),
                                       dur_ms=1.0))
        assert collector.trace_ids() == ["t3", "t4"]
        stats = collector.stats()
        assert stats["dropped_traces"] == 3
        assert stats["spans"] == 5

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TraceCollector(exemplar_capacity=0)
        with pytest.raises(ValueError):
            TraceCollector(max_traces=0)


class TestChromeExport:
    def test_one_pid_row_per_process_with_flow_arrows(self):
        collector = fed_collector()
        doc = collector.chrome_trace()
        procs = doc["otherData"]["processes"]
        assert procs["router"] == 0          # router is always pid 0
        assert set(procs) == {"router", "shard-0"}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        named = {
            (e["pid"], e["args"]["name"])
            for e in meta if e["name"] == "process_name"
        }
        assert (0, "router") in named
        assert (procs["shard-0"], "shard-0") in named
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {
            "request", "send", "deserialize", "solve", "reply",
        }
        # flow arrows bind the router->worker process crossings
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert starts and finishes
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_clock_alignment_noted_in_doc(self):
        collector = fed_collector(offset=4.0)
        doc = collector.chrome_trace()
        offsets = doc["otherData"]["clock_offsets"]
        assert offsets["shard-0"]["offset_s"] == pytest.approx(4.0)

    def test_spans_chrome_trace_skips_unfinished_spans(self):
        doc = spans_chrome_trace([
            make_span("request", "t1", start=0.0, dur_ms=1.0),
            {"name": "open", "trace_id": "t1", "span_id": "x",
             "parent_id": None, "process": "router", "start": 0.0,
             "end": None, "duration_ms": 0.0, "attrs": {}},
        ])
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in slices] == ["request"]


class TestExemplarExport:
    def _slow_collector(self):
        collector = TraceCollector(slow_ms=0.0)   # capture everything
        for i in range(2):
            root = make_span("request", f"t{i}", span_id=f"r{i}",
                             start=float(i), dur_ms=20.0,
                             matrix=f"mat-{i}", n_rhs=1 + i)
            collector.record(root)
        return collector

    def test_export_is_versioned_jsonl(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        collector = self._slow_collector()
        assert collector.export_exemplars(str(path)) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": "tracelog/2"}
        kinds = [json.loads(l)["kind"] for l in lines[1:]]
        assert kinds == ["enqueue", "publish", "span"] * 2

    def test_export_replays_clean(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        self._slow_collector().export_exemplars(str(path))
        events = load_events(path)
        assert all("schema" not in e for e in events)
        report = replay_file(path, virtual=True)
        assert report.ok, report.summary()
        assert report.recorded["total"] == 2
        assert report.replayed["completed"] == 2

    def test_unknown_future_schema_refused(self, tmp_path):
        bad = tmp_path / "future.jsonl"
        bad.write_text(
            json.dumps({"schema": "tracelog/99"}) + "\n"
            + json.dumps({"kind": "enqueue", "matrix": "m", "ts": 0.0})
            + "\n"
        )
        with pytest.raises(TraceSchemaError) as excinfo:
            load_events(bad)
        assert "tracelog/99" in str(excinfo.value)
        assert "tracelog/2" in str(excinfo.value)
