"""Telemetry primitives and the serving snapshot format."""

import threading

import pytest

from repro.metrics import Counter, Gauge, Histogram
from repro.serve import ServeTelemetry


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_add_and_peak(self):
        g = Gauge()
        g.set(3)
        g.add(2)
        g.add(-4)
        assert g.value == 1
        assert g.peak == 5


class TestHistogram:
    def test_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 1.0 and s["max"] == 4.0
        # linear interpolation: rank 50/100*(4-1)=1.5 between 2 and 3
        assert s["p50"] == pytest.approx(2.5)
        assert s["p95"] == pytest.approx(3.85)

    def test_empty(self):
        s = Histogram().summary()
        assert s["count"] == 0
        assert s["p50"] == 0.0

    def test_percentile_bounds(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_reservoir_is_bounded(self):
        h = Histogram(reservoir=10)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000       # exact totals survive
        assert h.max == 999.0
        assert h.percentile(50) >= 990.0  # window holds the latest values

    def test_concurrent_observes_keep_exact_totals(self):
        h = Histogram(reservoir=64)  # far smaller than the stream
        n_threads, per_thread = 8, 2000

        def worker():
            for v in range(per_thread):
                h.observe(float(v))

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = n_threads * per_thread
        assert h.count == expected
        assert h.mean == pytest.approx((per_thread - 1) / 2.0)
        assert h.min == 0.0 and h.max == float(per_thread - 1)
        s = h.summary()
        assert s["count"] == expected
        assert 0.0 <= s["p50"] <= s["p95"] <= float(per_thread - 1)

    def test_summary_is_single_snapshot(self):
        h = Histogram()
        for v in (5.0, 1.0, 9.0, 3.0):
            h.observe(v)
        s = h.summary()
        # one lock, one sort: fields must be mutually consistent
        assert s["min"] <= s["p50"] <= s["p95"] <= s["max"]
        # sorted reservoir [1, 3, 5, 9]: interpolated ranks 1.5 and 2.85
        assert s["p50"] == pytest.approx(4.0)
        assert s["p95"] == pytest.approx(8.4)


class TestServeTelemetry:
    def test_snapshot_shape(self):
        t = ServeTelemetry()
        t.requests_total.inc(3)
        t.batch_width.observe(2)
        t.record_kernel_failure("k1", "Capellini", RuntimeError("boom"))
        t.record_fallback_solve("k1", "Capellini", "LevelSet")
        snap = t.snapshot()
        assert snap["requests"]["total"] == 3
        assert snap["batches"]["width"]["count"] == 1
        assert snap["fallbacks"]["kernel_failures"] == 1
        assert snap["fallbacks"]["failures_by_solver"] == {"Capellini": 1}
        assert snap["fallbacks"]["by_transition"] == {
            "Capellini->LevelSet": 1
        }
        # per-failure detail lives in the engine's TraceLog
        # (kernel-failure / fallback events; see test_engine), and the
        # registry's stats are the engine snapshot's "registry" key
        assert "events" not in snap and "cache" not in snap

    def test_snapshot_without_cache(self):
        snap = ServeTelemetry().snapshot()
        assert "cache" not in snap

    def test_snapshot_is_json_serializable(self):
        import json

        t = ServeTelemetry()
        t.latency_ms.observe(1.25)
        t.record_kernel_failure("k", "S", ValueError("x"))
        json.dumps(t.snapshot())
