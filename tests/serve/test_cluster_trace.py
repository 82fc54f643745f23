"""End-to-end distributed tracing through the sharded serve tier.

One module-scoped traced router (``slow_ms=0`` so every request is a
slow exemplar), two workers: requests fan out, workers piggyback their
spans on reply frames, ping drains stragglers and feeds the clock
aligner, and the router reassembles one causal timeline per request.
"""

import json

import numpy as np
import pytest

from repro.errors import ClusterError
from repro.serve.arena import leaked_segments
from repro.serve.cluster import ShardRouter
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower
from tests.serve.test_cluster import distinct_shard_systems

#: Every hop one request crosses, router side and worker side.
REQUEST_HOPS = {
    "request", "enqueue", "send", "deserialize", "solve", "reply",
}


@pytest.fixture(scope="module")
def router():
    with ShardRouter(n_workers=2, execution="host",
                     request_timeout=60.0, slow_ms=0.0) as r:
        yield r


@pytest.fixture(scope="module")
def sharded(router):
    return distinct_shard_systems(router)


@pytest.fixture(scope="module")
def responses(router, sharded):
    """One solved request per shard, span buffers drained via ping."""
    out = []
    for key, system in sharded:
        resp = router.solve(key, system.b)
        np.testing.assert_allclose(
            resp.x, system.x_true, rtol=1e-9, atol=1e-12
        )
        out.append((key, resp))
    router.ping()   # drains leftover worker spans, feeds the aligner
    return out


class TestSpanJoin:
    def test_response_carries_router_minted_trace_id(
        self, router, responses
    ):
        for _, resp in responses:
            assert resp.trace_id
            assert resp.trace_id in router.collector.trace_ids()

    def test_tree_covers_every_hop_across_both_processes(
        self, router, sharded, responses
    ):
        for (key, system), (_, resp) in zip(sharded, responses):
            tree = router.span_tree(resp.trace_id)
            assert tree is not None
            assert tree["name"] == "request"
            assert tree["process"] == "router"
            names = {tree["name"]}
            procs = {tree["process"]}

            def walk(node):
                for child in node["children"]:
                    names.add(child["name"])
                    procs.add(child["process"])
                    walk(child)

            walk(tree)
            assert REQUEST_HOPS <= names
            assert procs == {"router", router.worker_for(key)}

    def test_worker_tracelog_carries_router_trace_id(
        self, router, sharded, responses
    ):
        (key, _), (_, resp) = sharded[0], responses[0]
        owner = router.worker_for(key)
        events = router.trace_events(owner)[owner]
        assert resp.trace_id in {e.get("trace_id") for e in events}

    def test_registration_is_traced_too(self, router, responses):
        hops = router.hop_stats()
        for hop in ("register", "registry-plan", "arena-attach"):
            assert hops.get(hop, {}).get("count", 0) >= 1


class TestAttribution:
    def test_hop_stats_cover_request_hops(self, router, responses):
        hops = router.hop_stats()
        for hop in REQUEST_HOPS:
            stats = hops[hop]
            assert stats["count"] >= len(responses)
            assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0
            assert stats["max_ms"] >= stats["p99_ms"]

    def test_clock_offsets_learned_from_ping(self, router, responses):
        clocks = router.router_stats()["spans"]["clocks"]
        assert set(clocks) == set(router.nodes)
        for snap in clocks.values():
            assert snap["samples"] >= 1
            assert snap["rtt_s"] >= 0.0

    def test_slow_exemplars_captured_with_dominant_hop(
        self, router, responses
    ):
        exemplars = router.exemplars()   # slow_ms=0: everything captured
        assert len(exemplars) >= len(responses)
        trace_ids = {ex["trace_id"] for ex in exemplars}
        assert {resp.trace_id for _, resp in responses} <= trace_ids
        for ex in exemplars:
            assert ex["total_ms"] > 0.0
            assert ex["dominant_hop"]

    def test_router_stats_expose_span_accounting(self, router, responses):
        spans = router.router_stats()["spans"]
        assert spans["traces"] >= len(responses)
        assert spans["spans"] > spans["traces"]
        assert spans["exemplars"] >= len(responses)


class TestExports:
    def test_chrome_trace_one_pid_row_per_worker(self, router, responses):
        doc = router.chrome_trace()
        procs = doc["otherData"]["processes"]
        assert procs["router"] == 0
        assert set(procs) == {"router"} | set(router.nodes)
        meta = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert meta == set(procs)
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert any(e["ph"] == "s" for e in flows)
        assert any(e["ph"] == "f" for e in flows)

    def test_write_chrome_trace_is_loadable_json(
        self, router, responses, tmp_path
    ):
        path = tmp_path / "fleet-trace.json"
        doc = router.write_chrome_trace(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(doc)
        )

    def test_write_trace_jsonl_merges_router_and_workers(
        self, router, responses, tmp_path
    ):
        path = tmp_path / "fleet-events.jsonl"
        count = router.write_trace_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": "tracelog/2"}
        events = [json.loads(line) for line in lines[1:]]
        assert len(events) == count
        router_lines = [e for e in events if e.get("process") == "router"]
        worker_lines = [e for e in events if e.get("process") != "router"]
        assert router_lines
        assert {e["worker"] for e in worker_lines} == set(router.nodes)
        # span join on disk: router-minted root trace ids appear in
        # worker-side events too
        router_roots = {
            e["trace_id"] for e in router_lines if e.get("span") == "request"
        }
        worker_ids = {e.get("trace_id") for e in worker_lines}
        assert {resp.trace_id for _, resp in responses} <= router_roots
        assert router_roots & worker_ids

    def test_merged_trace_root_spans_name_their_shard(
        self, router, responses, tmp_path
    ):
        path = tmp_path / "fleet-events.jsonl"
        router.write_trace_jsonl(str(path))
        events = [
            json.loads(line) for line in path.read_text().splitlines()[1:]
        ]
        roots = {
            e["trace_id"]: e for e in events
            if e.get("process") == "router" and e.get("span") == "request"
        }
        assert roots
        assert all(e["worker"] in router.nodes for e in roots.values())
        for _, resp in responses:
            assert roots[resp.trace_id]["worker"] == resp.worker

    def test_exemplar_export_replays_clean(
        self, router, responses, tmp_path
    ):
        from repro.serve.replay import replay_file

        path = tmp_path / "exemplars.jsonl"
        n = router.collector.export_exemplars(str(path))
        assert n >= len(responses)
        report = replay_file(str(path), virtual=True)
        assert report.ok, report.summary()


class TestTracingDisabled:
    def test_untraced_router_solves_and_declines_trace_queries(self):
        L = random_unit_lower(60, 0.1, seed=37)
        system = lower_triangular_system(L)
        before = set(leaked_segments())   # module router is still live
        with ShardRouter(n_workers=1, execution="host",
                         request_timeout=60.0, tracing=False) as r:
            key = r.register(L)
            resp = r.solve(key, system.b)
            np.testing.assert_allclose(
                resp.x, system.x_true, rtol=1e-9, atol=1e-12
            )
            assert resp.trace_id   # the worker engine still mints one
            assert r.collector is None
            assert "spans" not in r.router_stats()
            with pytest.raises(ClusterError, match="tracing"):
                r.hop_stats()
            with pytest.raises(ClusterError, match="tracing"):
                r.chrome_trace()
        assert set(leaked_segments()) <= before


class TestWorkerRing:
    def test_worker_spans_leave_the_engine_ring_to_requests(self):
        # a worker ships its spans to the router and keeps only its
        # engine's enqueue/launch/publish trail in the 4,096-event
        # ring, so 1,200 width-1 solves keep every publish event there
        system = lower_triangular_system(random_unit_lower(60, 0.1, seed=9))
        with ShardRouter(n_workers=1, execution="host",
                         request_timeout=60.0) as router:
            key = router.register(system.L)
            trace_ids = {router.solve(key, system.b).trace_id
                         for _ in range(1200)}
            (events,) = router.trace_events().values()
        published = {e["trace_id"] for e in events if e["kind"] == "publish"}
        assert len(trace_ids) == 1200
        assert trace_ids <= published
