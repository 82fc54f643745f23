"""Fleet roll-up of per-shard serving snapshots."""

from repro.metrics import parse_openmetrics
from repro.metrics.fleet import fleet_openmetrics, fleet_rollup


def worker_snap(
    *,
    total=10,
    completed=10,
    failed=0,
    p95=4.0,
    count=10,
    hits=8,
    misses=2,
    verdict="ok",
    objective=0.99,
    errors=0,
    host_rhs=10,
):
    summary = {
        "count": count, "sum": p95 * count, "mean": p95,
        "min": p95 / 2, "max": p95 * 2,
        "p50": p95 / 2, "p95": p95, "p99": p95 * 1.5,
    }
    return {
        "requests": {
            "total": total, "completed": completed, "failed": failed,
            "timed_out": 0, "rejected": 0,
        },
        "batches": {"total": 4, "width": dict(summary)},
        "latency_ms": dict(summary),
        "queue": {"depth": 1, "peak": 3},
        "fallbacks": {
            "solves": 1, "kernel_failures": 0,
            "by_transition": {"Capellini->LevelSet": 1},
            "failures_by_solver": {},
        },
        "sim": {"cycles": 100, "exec_ms": 0.5},
        "lanes": {
            "host": {"batches": 4, "rhs": host_rhs, "exec_ms": 1.0},
            "sim": {"batches": 0, "rhs": 0},
        },
        "registry": {
            "entries": 2, "resident_bytes": 1000, "hits": hits,
            "misses": misses, "evictions": 0, "registrations": 2,
            "artifact_builds": 0,
        },
        "slo": {
            "objective": objective, "attempts": total,
            "error_total": errors, "verdict": verdict,
        },
    }


class TestRollup:
    def test_counters_sum(self):
        fleet = fleet_rollup({
            "shard-0": worker_snap(total=10, completed=9, failed=1),
            "shard-1": worker_snap(total=6, completed=6),
        })
        assert fleet["workers"] == 2
        assert fleet["requests"]["total"] == 16
        assert fleet["requests"]["completed"] == 15
        assert fleet["requests"]["failed"] == 1
        assert fleet["batches"]["total"] == 8
        assert fleet["lanes"]["host"]["rhs"] == 20
        assert fleet["registry"]["registrations"] == 4
        assert fleet["fallbacks"]["by_transition"] == {
            "Capellini->LevelSet": 2
        }

    def test_ratios_recomputed_not_averaged(self):
        # one shard all hits, one all misses with 3x the lookups: a
        # naive mean of hit rates would say 50%, the truth is 25%
        fleet = fleet_rollup({
            "a": worker_snap(hits=10, misses=0),
            "b": worker_snap(hits=0, misses=30),
        })
        assert fleet["registry"]["hit_rate"] == 10 / 40

    def test_quantiles_count_weighted(self):
        fleet = fleet_rollup({
            "a": worker_snap(p95=10.0, count=30),
            "b": worker_snap(p95=2.0, count=10),
        })
        assert fleet["latency_ms"]["p95"] == (10.0 * 30 + 2.0 * 10) / 40
        assert fleet["latency_ms"]["count"] == 40
        assert fleet["latency_ms"]["max"] == 20.0

    def test_slo_worst_verdict_and_recomputed_availability(self):
        fleet = fleet_rollup({
            "a": worker_snap(total=90, errors=0, verdict="ok"),
            "b": worker_snap(total=10, errors=5, verdict="breached"),
        })
        assert fleet["slo"]["verdict"] == "breached"
        assert fleet["slo"]["availability"] == 1.0 - 5 / 100
        assert fleet["slo"]["error_budget_burn"] > 0

    def test_empty_fleet(self):
        fleet = fleet_rollup({})
        assert fleet["workers"] == 0
        assert fleet["requests"]["total"] == 0
        assert fleet["latency_ms"]["count"] == 0
        assert fleet["slo"]["verdict"] == "ok"
        assert fleet["slo"]["availability"] == 1.0


class TestOpenMetrics:
    def test_per_worker_series_and_fleet_gauges(self):
        text = fleet_openmetrics({
            "shard-0": worker_snap(total=10),
            "shard-1": worker_snap(total=6),
        })
        families = parse_openmetrics(text)
        req = families["repro_fleet_requests"]
        assert req['repro_fleet_requests_total{worker="shard-0"}'] == 10
        assert req['repro_fleet_requests_total{worker="shard-1"}'] == 6
        workers = families["repro_fleet_workers"]
        assert workers["repro_fleet_workers"] == 2

    def test_router_block_rendered_when_given(self):
        router = {
            "requests": 16, "worker_deaths": 1, "respawns": 1,
            "arena": {"resident": 2, "resident_bytes": 4096},
            "slabs": {"segments": 3, "reused": 5},
        }
        text = fleet_openmetrics(
            {"shard-0": worker_snap()}, router=router
        )
        families = parse_openmetrics(text)
        assert families["repro_fleet_router_respawns"][
            "repro_fleet_router_respawns_total"
        ] == 1
        assert families["repro_fleet_arena_bytes"][
            "repro_fleet_arena_bytes"
        ] == 4096
        assert families["repro_fleet_slab_reuses"][
            "repro_fleet_slab_reuses_total"
        ] == 5

    def test_deterministic_rendering(self):
        workers = {"b": worker_snap(), "a": worker_snap(total=3)}
        assert fleet_openmetrics(workers) == fleet_openmetrics(
            dict(reversed(list(workers.items())))
        )


def router_stats_with_spans():
    """Router stats dict shaped like ``ShardRouter.router_stats()``
    with tracing on (the ``spans`` block the hop series render from)."""
    return {
        "requests": 16, "worker_deaths": 1, "respawns": 1,
        "arena": {"resident": 2, "resident_bytes": 4096},
        "slabs": {"segments": 3, "reused": 5},
        "spans": {
            "traces": 4, "spans": 20, "dropped_traces": 0,
            "exemplars": 1, "slow_threshold_ms": 7.25,
            "hops": {
                "solve": {"count": 4, "p50_ms": 1.5, "p99_ms": 3.75,
                          "mean_ms": 2.0, "max_ms": 4.0},
                "send": {"count": 4, "p50_ms": 0.5, "p99_ms": 0.75,
                         "mean_ms": 0.5, "max_ms": 1.0},
            },
            "clocks": {},
        },
    }


class TestHopSeries:
    def test_hop_attribution_rendered_from_spans_block(self):
        text = fleet_openmetrics(
            {"shard-0": worker_snap()}, router=router_stats_with_spans()
        )
        families = parse_openmetrics(text)
        hop = families["repro_fleet_hop_spans"]
        assert hop['repro_fleet_hop_spans_total{hop="solve"}'] == 4
        assert hop['repro_fleet_hop_spans_total{hop="send"}'] == 4
        lat = families["repro_fleet_hop_latency_ms"]
        assert lat[
            'repro_fleet_hop_latency_ms{hop="solve",quantile="p50"}'
        ] == 1.5
        assert lat[
            'repro_fleet_hop_latency_ms{hop="solve",quantile="p99"}'
        ] == 3.75
        assert families["repro_fleet_slow_exemplars"][
            "repro_fleet_slow_exemplars"
        ] == 1
        assert families["repro_fleet_slow_threshold_ms"][
            "repro_fleet_slow_threshold_ms"
        ] == 7.25

    def test_tracing_off_renders_no_hop_series(self):
        router = router_stats_with_spans()
        del router["spans"]
        text = fleet_openmetrics({"shard-0": worker_snap()}, router=router)
        families = parse_openmetrics(text)
        assert "repro_fleet_hop_spans" not in families
        assert "repro_fleet_slow_exemplars" not in families


class TestExpositionRoundTrip:
    """The full parser inverts the renderer byte-for-byte — what a
    remote scraper reconstructs is exactly what the fleet exported."""

    def test_parse_render_round_trip_is_byte_identical(self):
        from repro.metrics import parse_openmetrics_full, render_parsed

        text = fleet_openmetrics(
            {
                "shard-0": worker_snap(total=10, failed=1, p95=4.5),
                "shard-1": worker_snap(total=6),
            },
            router=router_stats_with_spans(),
        )
        families = parse_openmetrics_full(text)
        assert render_parsed(families) == text

    def test_full_parse_preserves_labels_and_types(self):
        from repro.metrics import parse_openmetrics_full

        text = fleet_openmetrics(
            {"shard-0": worker_snap(total=10, p95=4.5)},
            router=router_stats_with_spans(),
        )
        families = parse_openmetrics_full(text)
        lat = families["repro_fleet_hop_latency_ms"]
        assert lat["kind"] == "gauge"
        samples = {
            (suffix, tuple(sorted(labels.items()))): value
            for suffix, labels, value in lat["samples"]
        }
        key = ("", (("hop", "solve"), ("quantile", "p50")))
        assert samples[key] == 1.5
        assert isinstance(samples[key], float)
        hop = families["repro_fleet_hop_spans"]
        counts = {
            tuple(sorted(labels.items())): value
            for suffix, labels, value in hop["samples"]
            if suffix == "_total"
        }
        assert counts[(("hop", "solve"),)] == 4
        assert isinstance(counts[(("hop", "solve"),)], int)

    def test_round_trip_survives_label_escaping(self):
        from repro.metrics import parse_openmetrics_full, render_parsed
        from repro.metrics.telemetry import Gauge

        from repro.metrics.expo import render_metrics

        g = Gauge(
            "odd", help='values with "quotes" and \\ slashes',
            labels={"path": 'a\\b "c"\nd'},
        )
        g.set(1.25)
        text = render_metrics([g], prefix="repro_fleet_")
        families = parse_openmetrics_full(text)
        assert render_parsed(families) == text
        ((_, labels, value),) = [
            s for s in families["repro_fleet_odd"]["samples"]
            if s[0] == ""
        ]
        assert labels == {"path": 'a\\b "c"\nd'}
        assert value == 1.25


class TestJournalRollup:
    @staticmethod
    def snap_with_journal(written=10, dropped=0, lag=0.0):
        snap = worker_snap()
        snap["journal"] = {
            "shard": "shard-x", "records_written": written,
            "records_dropped": dropped, "bytes_written": written * 100,
            "segment_bytes": 512, "segments_rotated": 1, "incidents": 0,
            "buffered_records": 0, "flush_lag_s": lag,
        }
        return snap

    def test_counters_sum_and_lag_is_worst_case(self):
        fleet = fleet_rollup({
            "shard-0": self.snap_with_journal(written=10, lag=0.1),
            "shard-1": self.snap_with_journal(written=6, lag=0.7),
        })
        j = fleet["journal"]
        assert j["shards"] == 2
        assert j["records_written"] == 16
        assert j["segments_rotated"] == 2
        assert j["flush_lag_s"] == 0.7

    def test_workers_without_journal_roll_up_to_zero(self):
        fleet = fleet_rollup({"shard-0": worker_snap()})
        assert fleet["journal"]["shards"] == 0
        assert fleet["journal"]["records_written"] == 0

    def test_exposition_gated_on_journaling_workers(self):
        plain = fleet_openmetrics({"shard-0": worker_snap()})
        assert "journal" not in plain
        text = fleet_openmetrics({
            "shard-0": self.snap_with_journal(written=10),
            "shard-1": worker_snap(),  # journaling off on this worker
        })
        families = parse_openmetrics(text)
        assert families["repro_fleet_journal_records_written"][
            'repro_fleet_journal_records_written_total{worker="shard-0"}'
        ] == 10
        # unlabeled fleet-wide total shares the family
        assert families["repro_fleet_journal_records_written"][
            "repro_fleet_journal_records_written_total"
        ] == 10

    def test_journal_exposition_round_trips(self):
        from repro.metrics import parse_openmetrics_full, render_parsed

        text = fleet_openmetrics({
            "shard-0": self.snap_with_journal(written=10, dropped=1),
            "shard-1": self.snap_with_journal(written=4, lag=0.5),
        })
        assert render_parsed(parse_openmetrics_full(text)) == text
