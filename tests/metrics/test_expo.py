"""OpenMetrics exposition tests, including the byte-stable golden.

The golden fixture is a hand-built :class:`ServeTelemetry` state — every
counter increment, histogram observation and SLO latency sample is a
fixed literal, so the rendering must be byte-identical run to run.  A
diff here means the exposition format changed on purpose and the golden
needs a deliberate refresh::

    PYTHONPATH=src:. python - <<'PY'
    from pathlib import Path
    from repro.metrics.expo import render_openmetrics
    from tests.metrics.test_expo import build_reference_telemetry, REF_CACHE
    text = render_openmetrics(build_reference_telemetry(), cache=REF_CACHE)
    Path("tests/metrics/golden/serve_telemetry.om.txt").write_text(text)
    PY
"""

from __future__ import annotations

import urllib.request
from pathlib import Path

import pytest

from repro.metrics.expo import (
    CONTENT_TYPE,
    OpenMetricsExporter,
    parse_openmetrics,
    render_metrics,
    render_openmetrics,
)
from repro.metrics.telemetry import Counter, Gauge, Histogram
from repro.serve.telemetry import ServeTelemetry

GOLDEN = Path(__file__).parent / "golden" / "serve_telemetry.om.txt"

#: Deterministic registry-cache stats for the golden rendering.
REF_CACHE = {
    "entries": 2,
    "hits": 7,
    "misses": 3,
    "hit_rate": 0.7,
    "evictions": 1,
    "artifact_builds": 4,
}


def build_reference_telemetry() -> ServeTelemetry:
    """A fully deterministic telemetry state exercising every family."""
    t = ServeTelemetry()
    t.requests_total.inc(10)
    t.requests_completed.inc(8)
    t.requests_failed.inc(1)
    t.requests_timed_out.inc(1)
    t.requests_rejected.inc(2)
    t.batches_total.inc(3)
    for width in (1, 2, 4):
        t.batch_width.observe(width)
    for ms in (1.5, 2.5, 10.0):
        t.latency_ms.observe(ms)
    t.queue_depth.set(5)
    t.queue_depth.set(2)
    t.count({"kind": "kernel-failure", "matrix": "m1", "solver": "Capellini"})
    t.count({"kind": "fallback", "matrix": "m1",
             "fallback_from": "Capellini", "solver": "LevelSet"})
    t.record_lane("host", 4, exec_ms=1.25)
    t.record_lane("host", 2, exec_ms=0.75)
    t.record_lane("sim", 1)
    t.sim_cycles.inc(1234)
    t.sim_exec_ms.inc(5.5)
    for ms in (1.0, 2.0, 3.0):
        t.record_lane_latency("host", ms)
    t.record_lane_latency("sim", 40.0)
    return t


class TestRenderMetrics:
    def test_counter_gauge_histogram_shapes(self):
        c = Counter("hits", help="hits so far")
        c.inc(3)
        g = Gauge("depth", help="queue depth")
        g.set(4)
        h = Histogram("lat", help="latency")
        h.observe(2.0)
        text = render_metrics([c, g, h])
        assert "# HELP hits hits so far" in text
        assert "# TYPE hits counter" in text
        assert "hits_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert "depth_peak 4" in text
        assert "# TYPE lat summary" in text
        assert 'lat{quantile="0.5"} 2.0' in text
        assert "lat_count 1" in text
        assert "lat_sum 2.0" in text
        assert text.endswith("# EOF\n")

    def test_labelled_series_merge_into_one_family(self):
        a = Counter("lane_batches", help="by lane", labels={"lane": "host"})
        b = Counter("lane_batches", labels={"lane": "sim"})
        a.inc(2)
        b.inc(5)
        text = render_metrics([a, b])
        assert text.count("# TYPE lane_batches counter") == 1
        assert 'lane_batches_total{lane="host"} 2' in text
        assert 'lane_batches_total{lane="sim"} 5' in text
        # deterministic order: host before sim
        assert text.index('lane="host"') < text.index('lane="sim"')

    def test_kind_conflict_rejected(self):
        with pytest.raises(ValueError):
            render_metrics([Counter("x"), Gauge("x")])

    def test_label_escaping(self):
        c = Counter("c", labels={"k": 'a"b\\c'})
        c.inc()
        text = render_metrics([c])
        assert 'c_total{k="a\\"b\\\\c"} 1' in text

    def test_prefix(self):
        c = Counter("hits")
        text = render_metrics([c], prefix="repro_")
        assert "repro_hits_total 0" in text

    def test_render_is_deterministic(self):
        t = build_reference_telemetry()
        assert render_openmetrics(t) == render_openmetrics(t)


class TestGolden:
    def test_byte_stable_rendering(self):
        text = render_openmetrics(build_reference_telemetry(), cache=REF_CACHE)
        assert text == GOLDEN.read_text(), (
            "OpenMetrics rendering drifted from the golden; if the "
            "format change is intentional, refresh per the module "
            "docstring"
        )

    def test_golden_parses_back(self):
        families = parse_openmetrics(GOLDEN.read_text())
        assert families["repro_serve_requests"][
            "repro_serve_requests_total"
        ] == 10
        assert families["repro_serve_lane_batches"][
            'repro_serve_lane_batches_total{lane="host"}'
        ] == 2
        assert families["repro_serve_slo_latency_ms"][
            'repro_serve_slo_latency_ms_count{lane="sim"}'
        ] == 1
        assert families["repro_serve_kernel_failures_by_solver"][
            'repro_serve_kernel_failures_by_solver_total{solver="Capellini"}'
        ] == 1
        assert families["repro_serve_cache_hits"][
            "repro_serve_cache_hits"
        ] == 7
        burn = families["repro_serve_slo_error_budget_burn"][
            "repro_serve_slo_error_budget_burn"
        ]
        assert burn > 0

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")


class TestExporter:
    def test_scrape_over_http(self):
        t = build_reference_telemetry()
        with OpenMetricsExporter(lambda: render_openmetrics(t)) as exporter:
            assert exporter.port > 0
            with urllib.request.urlopen(exporter.url, timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode("utf-8")
        assert body == render_openmetrics(t)

    def test_other_paths_404(self):
        with OpenMetricsExporter(lambda: "# EOF\n") as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{exporter.host}:{exporter.port}/other",
                    timeout=5,
                )
            assert err.value.code == 404
