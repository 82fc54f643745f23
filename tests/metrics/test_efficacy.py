"""Lane-efficacy aggregator: binning, recommendations, EWMA anomalies.

The deterministic-recommendation test is the acceptance criterion from
the journal issue: on a synthetic mix of deep (>= DEEP_LEVEL_COUNT
levels) and shallow matrices, the report must recommend the measured-
fastest route (schedule variant or simulator) for every granularity
class, same journal in -> same report out.
"""

from repro.analysis.granularity import HIGH_GRANULARITY_THRESHOLD
from repro.metrics.efficacy import (
    DEFAULT_MIN_SAMPLES,
    EFFICACY_SCHEMA,
    GRANULARITY_CLASSES,
    aggregate,
    granularity_class,
    healthy,
    render_report,
    route_of,
)
from repro.solvers.compiled import DEEP_LEVEL_COUNT, pick_schedule


def solve(matrix, route, latency, *, n_levels=100, granularity=0.3, ts=0.0):
    """A current-format solve record served on ``route``."""
    return {
        "kind": "solve",
        "matrix": matrix,
        "lane": "sim" if route == "sim" else "host",
        "schedule": None if route == "sim" else route,
        "latency_ms": latency,
        "n_levels": n_levels,
        "granularity": granularity,
        "ts": ts,
    }


class TestBinning:
    def test_thresholds_match_auto_policy(self):
        deep = DEEP_LEVEL_COUNT
        fine = HIGH_GRANULARITY_THRESHOLD
        assert granularity_class(deep, fine) == "deep-fine"
        assert granularity_class(deep - 1, fine) == "shallow-fine"
        assert granularity_class(deep, fine + 0.01) == "deep-coarse"
        assert granularity_class(deep - 1, fine + 0.01) == "shallow-coarse"

    def test_deep_fine_is_exactly_the_sequential_rule(self):
        # the class repeats pick_schedule's predicate; pin the two
        # together on a grid around both thresholds
        from math import nextafter
        from types import SimpleNamespace

        fine = HIGH_GRANULARITY_THRESHOLD
        grains = (0.0, nextafter(fine, 0.0), fine, nextafter(fine, 1.0),
                  fine + 0.01, 1.0, 5.0)
        for n_levels in (1, DEEP_LEVEL_COUNT - 1, DEEP_LEVEL_COUNT,
                         DEEP_LEVEL_COUNT + 1, 10 * DEEP_LEVEL_COUNT):
            for g in grains:
                features = SimpleNamespace(n_levels=n_levels, granularity=g)
                assert (granularity_class(n_levels, g) == "deep-fine") == (
                    pick_schedule(features) == "sequential"
                ), (n_levels, g)

    def test_all_classes_enumerated(self):
        assert set(GRANULARITY_CLASSES) == {
            granularity_class(n, g)
            for n in (1, DEEP_LEVEL_COUNT)
            for g in (0.0, 1.0)
        }


class TestAggregate:
    def test_recommends_measured_fastest_lane_per_class(self):
        records = []
        # deep-fine: sequential measures faster than level
        for i in range(4):
            records.append(solve("deep0", "sequential", 1.0 + 0.01 * i,
                                 n_levels=128, granularity=0.2, ts=i))
            records.append(solve("deep0", "level", 3.0 + 0.01 * i,
                                 n_levels=128, granularity=0.2, ts=i))
        # shallow-coarse: level measures faster than sim
        for i in range(4):
            records.append(solve("shal0", "level", 0.5 + 0.01 * i,
                                 n_levels=8, granularity=0.9, ts=i))
            records.append(solve("shal0", "sim", 9.0 + 0.01 * i,
                                 n_levels=8, granularity=0.9, ts=i))
        report = aggregate(records)
        assert report["schema"] == EFFICACY_SCHEMA
        assert report["recommendations"] == {
            "deep-fine": "sequential",
            "shallow-coarse": "level",
        }
        assert report["classes"]["deep-fine"]["win_rates"] == {
            "sequential": 1.0, "level": 0.0,
        }
        # determinism: same records -> identical report
        assert aggregate(records) == report

    def test_min_samples_gates_recommendation(self):
        records = [solve("m", "level", 1.0, ts=i) for i in range(2)]
        report = aggregate(records, min_samples=3)
        assert report["recommendations"] == {}
        assert report["classes"]["deep-fine"]["recommended"] is None
        report = aggregate(records, min_samples=2)
        assert report["recommendations"] == {"deep-fine": "level"}

    def test_tie_breaks_lexicographically(self):
        records = []
        for i in range(DEFAULT_MIN_SAMPLES):
            records.append(solve("m", "level", 2.0, ts=i))
            records.append(solve("m", "sequential", 2.0, ts=i))
        report = aggregate(records)
        assert report["recommendations"]["deep-fine"] == "level"

    def test_win_rates_across_matrices(self):
        records = []
        # two matrices in the same class; each wins on a different lane
        for i in range(3):
            records.append(solve("a", "sequential", 1.0, ts=i))
            records.append(solve("a", "level", 2.0, ts=i))
            records.append(solve("b", "sequential", 2.0, ts=i))
            records.append(solve("b", "level", 1.0, ts=i))
        report = aggregate(records)
        cls = report["classes"]["deep-fine"]
        assert cls["matrices"] == 2
        assert cls["win_rates"] == {"sequential": 0.5, "level": 0.5}
        assert report["matrices"]["a"]["recommended"] == "sequential"
        assert report["matrices"]["b"]["recommended"] == "level"

    def test_unusable_records_counted_not_crashed(self):
        records = [
            solve("m", "level", 1.0),
            {"kind": "solve", "lane": "host"},  # no latency/features
            {"kind": "batch"},
        ]
        report = aggregate(records, skipped=2)
        assert report["solves"] == 1
        assert report["unusable_solves"] == 1
        assert report["skipped"] == 2


class TestAnomalies:
    def test_steady_series_flags_spike_after_warmup(self):
        records = [solve("m", "level", 1.0, ts=i) for i in range(5)]
        records.append(solve("m", "level", 50.0, ts=9))
        report = aggregate(records)
        assert len(report["anomalies"]) == 1
        a = report["anomalies"][0]
        assert a["matrix"] == "m" and a["lane"] == "level"
        assert a["latency_ms"] == 50.0
        assert a["ts"] == 9
        assert not healthy(report)
        assert "ANOMALY" in render_report(report)

    def test_no_flag_during_warmup(self):
        records = [solve("m", "level", 1.0, ts=0), solve("m", "level", 50.0, ts=1)]
        report = aggregate(records)
        assert report["anomalies"] == []
        assert healthy(report)

    def test_consistently_slow_series_is_not_anomalous(self):
        records = [solve("m", "sim", 80.0 + (i % 2), ts=i) for i in range(20)]
        assert aggregate(records)["anomalies"] == []

    def test_trackers_are_per_matrix_and_lane(self):
        records = [solve("m", "level", 1.0, ts=i) for i in range(5)]
        # a different lane at 50 ms is its own fresh series, not a spike
        records.append(solve("m", "sim", 50.0, ts=9))
        assert aggregate(records)["anomalies"] == []


class TestLegacyJournals:
    """Journals written while there were two fast lanes still report
    their ``host`` records, which ran the level schedule (with or
    without a ``schedule`` field).  ``compiled`` records, and records of
    the ``merged`` schedule, measured a kernel that no longer exists:
    they get no route."""

    @staticmethod
    def legacy(matrix, lane, latency, *, schedule, ts):
        return {
            "kind": "solve", "matrix": matrix, "lane": lane,
            "solver": {
                "compiled": "CompiledFused",
                "host": "HostVectorized",
                "sim": "SyncFree",
            }[lane],
            "schedule": schedule, "latency_ms": latency,
            "n_levels": 128, "granularity": 0.2, "ts": ts,
        }

    def test_old_format_records_yield_recommendations(self):
        records = []
        for i in range(3):
            for lane, latency, schedule in (
                ("compiled", 1.0, "merged"),
                ("host", 4.0, "level"),
                ("host", 4.5, None),
                ("sim", 90.0, None),
            ):
                records.append(
                    self.legacy("d", lane, latency, schedule=schedule, ts=i)
                )
        assert [route_of(r) for r in records[:4]] == [
            None, "level", "level", "sim",
        ]
        assert route_of(solve("d", "merged", 1.0)) is None
        report = aggregate(records)
        assert report["solves"] == len(records) - 3
        assert report["unusable_solves"] == 3
        assert report["recommendations"] == {"deep-fine": "level"}
        assert set(report["matrices"]["d"]["lanes"]) == {"level", "sim"}
        assert report["matrices"]["d"]["lanes"]["level"]["count"] == 6
        assert report["matrices"]["d"]["recommended"] == "level"
