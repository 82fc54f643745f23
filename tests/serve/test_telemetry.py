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
        t.count({"kind": "kernel-failure", "matrix": "k1",
                 "solver": "Capellini"})
        t.count({"kind": "fallback", "matrix": "k1",
                 "fallback_from": "Capellini", "solver": "LevelSet"})
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
        t.count({"kind": "kernel-failure", "matrix": "k", "solver": "S"})
        json.dumps(t.snapshot())


class TestEventFold:
    """The engine counts only what it traces: its telemetry equals its
    own TraceLog folded through a fresh ``ServeTelemetry.count``."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_folded_trace_equals_engine_telemetry(self, monkeypatch):
        import asyncio

        import numpy as np

        from repro.errors import (
            InvalidRequestError,
            NonFiniteAnswerError,
            RequestTimeoutError,
            SolverError,
        )
        from repro.serve import SolveEngine
        from repro.solvers.compiled import CompiledPlan
        from repro.sparse.convert import dense_to_csr
        from repro.sparse.triangular import lower_triangular_system

        from tests.conftest import random_unit_lower

        healthy = lower_triangular_system(random_unit_lower(60, 0.05, seed=1))
        flaky = lower_triangular_system(random_unit_lower(40, 0.05, seed=2))
        # a 1e-200 diagonal: b = ones overflows on every lane
        tiny = dense_to_csr(
            np.tril(np.full((6, 6), 0.5), -1) + np.eye(6) * 1e-200
        )
        real = CompiledPlan.solve_many

        def host_fails_on_flaky(self, B, **kw):
            if B.shape[0] == flaky.L.n_rows:
                raise SolverError("injected host-lane failure")
            return real(self, B, **kw)

        monkeypatch.setattr(CompiledPlan, "solve_many", host_fails_on_flaky)

        async def session():
            engine = SolveEngine()  # execution="auto"
            engine.register(healthy.L, name="ok")
            engine.register(flaky.L, name="flaky")
            engine.register(tiny, name="tiny")
            # completions: one coalesced batch of 4, one multi-RHS block
            await asyncio.gather(
                *[engine.solve("ok", healthy.b) for _ in range(4)]
            )
            await engine.solve_multi("ok", np.column_stack([healthy.b] * 3))
            # a kernel failure with fallback, then a quarantined skip
            await engine.solve("flaky", flaky.b)
            await engine.solve("flaky", flaky.b)
            with pytest.raises(InvalidRequestError):
                await engine.solve("ok", np.full(60, np.nan))
            with pytest.raises(RequestTimeoutError):
                await engine.solve("ok", healthy.b, timeout=0.0)
            with pytest.raises(NonFiniteAnswerError):
                await engine.solve("tiny", np.ones(6))
            await engine.close()
            return engine

        engine = asyncio.run(session())
        folded = ServeTelemetry()
        for event in engine.trace_log.events():
            folded.count(event)
        expected = engine.telemetry.snapshot()
        got = folded.snapshot()
        # the queue gauge is state the engine sets directly, not an event
        del expected["queue"], got["queue"]
        assert got == expected
        # ... and the session reached every counter the fold feeds
        assert expected["requests"] == {
            "total": 9, "completed": 7, "failed": 1, "timed_out": 1,
            "rejected": 1,
        }
        # the coalesced 4, two flaky singles and the timed-out single
        # (served late); the failed request's block was never served
        assert expected["batches"]["total"] == 4
        assert expected["fallbacks"]["kernel_failures"] == 1
        assert expected["fallbacks"]["solves"] == 2
        assert expected["lanes"]["host"]["batches"] == 3
        assert expected["lanes"]["host"]["rhs"] == 8
        assert expected["lanes"]["sim"]["batches"] == 2
        assert expected["sim"]["cycles"] > 0

    def test_fallback_solves_count_requests_not_blocks(self, monkeypatch):
        import asyncio

        from repro.errors import SolverError
        from repro.serve import SolveEngine
        from repro.solvers.compiled import CompiledPlan
        from repro.sparse.triangular import lower_triangular_system

        from tests.conftest import random_unit_lower

        system = lower_triangular_system(random_unit_lower(50, 0.05, seed=3))

        def host_fails(self, B, **kw):
            raise SolverError("injected host-lane failure")

        monkeypatch.setattr(CompiledPlan, "solve_many", host_fails)

        async def session():
            engine = SolveEngine()  # execution="auto": host, then the sim
            engine.register(system.L, name="m")
            await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(4)]
            )
            await engine.close()
            return engine

        engine = asyncio.run(session())
        (fallback,) = engine.trace_log.events(kind="fallback")
        assert len(fallback["trace_ids"]) == 4  # one coalesced block
        fb = engine.telemetry.snapshot()["fallbacks"]
        assert fb["solves"] == 4
        assert sum(fb["by_transition"].values()) == 4
