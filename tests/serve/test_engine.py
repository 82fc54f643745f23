"""SolveEngine: coalescing, fallback ladder, timeouts, backpressure."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.hazards import RACE, Hazard
from repro.errors import (
    HazardError,
    InvalidRequestError,
    NonFiniteAnswerError,
    QueueFullError,
    RequestTimeoutError,
    SolverError,
    UnknownMatrixError,
)
from repro.serve import MatrixRegistry, SolveEngine
from repro.solvers import (
    LevelSetSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower

#: Restricting candidates to the thread-level ladder makes the chain
#: head deterministic (Writing-First) regardless of matrix granularity.
THREAD_LADDER = (
    WritingFirstCapelliniSolver,
    TwoPhaseCapelliniSolver,
    LevelSetSolver,
)


def make_system(n=120, density=0.05, seed=3):
    return lower_triangular_system(random_unit_lower(n, density, seed=seed))


def run(coro):
    return asyncio.run(coro)


def injected_hazard() -> HazardError:
    return HazardError(Hazard(kind=RACE, message="injected for test"))


class TestSingleSolve:
    def test_solve_matches_truth(self):
        system = make_system()

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            resp = await engine.solve("m", system.b)
            await engine.close()
            return resp

        resp = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.batch_width == 1
        assert resp.n_rhs == 1
        assert resp.fallback_from is None
        assert resp.latency_ms > 0

    def test_unknown_matrix(self):
        async def main():
            engine = SolveEngine()
            with pytest.raises(UnknownMatrixError):
                await engine.solve("ghost", np.zeros(3))
            rejects = engine.trace_log.events(kind="reject")
            snap = engine.snapshot()
            with pytest.raises(UnknownMatrixError):
                await engine.solve_multi("ghost", np.zeros((3, 2)))
            multi_rejected = engine.snapshot()["requests"]["rejected"]
            await engine.close()
            return rejects, snap, multi_rejected

        rejects, snap, multi_rejected = run(main())
        # rejected before admission: traced and counted, never enqueued
        (reject,) = rejects
        assert reject["reason"] == "unknown-matrix"
        assert reject["matrix"] == "ghost"
        assert snap["requests"]["rejected"] == 1
        assert snap["requests"]["total"] == 0
        assert multi_rejected == 2

    def test_bad_rhs_shape(self):
        system = make_system()

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            with pytest.raises(InvalidRequestError, match="shape"):
                await engine.solve("m", np.zeros(7))
            await engine.close()

        run(main())


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self):
        system = make_system(n=150, seed=5)
        n_req = 6

        async def main():
            engine = SolveEngine(max_batch=32, execution="sim")
            engine.register(system.L, name="m")
            resps = await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(n_req)]
            )
            snap = engine.snapshot()
            await engine.close()
            return resps, snap

        resps, snap = run(main())
        for r in resps:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            assert r.batch_width == n_req
            assert r.solver == "Capellini-SpTRSM"
        assert snap["batches"]["total"] == 1
        assert snap["batches"]["width"]["max"] == n_req
        assert snap["requests"]["completed"] == n_req

    def test_batched_beats_independent_on_cycles(self):
        system = make_system(n=150, seed=6)
        n_req = 5

        async def main():
            engine = SolveEngine(max_batch=32, execution="sim")
            engine.register(system.L, name="m")
            await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(n_req)]
            )
            snap = engine.snapshot()
            await engine.close()
            return snap

        snap = run(main())
        solver = WritingFirstCapelliniSolver()
        independent = sum(
            solver.solve(system.L, system.b).stats.cycles
            for _ in range(n_req)
        )
        assert snap["sim"]["cycles"] < independent

    def test_max_batch_caps_width(self):
        system = make_system(n=100, seed=7)

        async def main():
            engine = SolveEngine(max_batch=2)
            engine.register(system.L, name="m")
            resps = await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(4)]
            )
            snap = engine.snapshot()
            await engine.close()
            return resps, snap

        resps, snap = run(main())
        assert all(r.batch_width <= 2 for r in resps)
        assert snap["batches"]["total"] >= 2

    def test_requests_on_different_matrices_do_not_coalesce(self):
        sys_a = make_system(n=90, seed=8)
        sys_b = make_system(n=90, seed=9)

        async def main():
            engine = SolveEngine()
            engine.register(sys_a.L, name="a")
            engine.register(sys_b.L, name="b")
            ra, rb = await asyncio.gather(
                engine.solve("a", sys_a.b), engine.solve("b", sys_b.b)
            )
            await engine.close()
            return ra, rb

        ra, rb = run(main())
        np.testing.assert_allclose(ra.x, sys_a.x_true, rtol=1e-9)
        np.testing.assert_allclose(rb.x, sys_b.x_true, rtol=1e-9)
        assert ra.batch_width == rb.batch_width == 1


class TestMultiRHS:
    def test_solve_multi(self):
        system = make_system(n=100, seed=10)
        X_true = np.column_stack(
            [system.x_true, 2.0 * system.x_true, -system.x_true]
        )
        B = np.column_stack([system.b, 2.0 * system.b, -system.b])

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            resp = await engine.solve_multi("m", B)
            await engine.close()
            return resp

        resp = run(main())
        np.testing.assert_allclose(resp.x, X_true, rtol=1e-9)
        assert resp.n_rhs == 3

    def test_solve_multi_promotes_1d(self):
        system = make_system(n=80, seed=11)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            resp = await engine.solve_multi("m", system.b)
            await engine.close()
            return resp

        resp = run(main())
        assert resp.x.shape == (80, 1)
        np.testing.assert_allclose(resp.x[:, 0], system.x_true, rtol=1e-9)


class TestFallbackLadder:
    def test_hazard_in_primary_falls_back_and_is_recorded(self, monkeypatch):
        """The ISSUE acceptance test: inject a HazardError into the
        primary solver; the request completes via the fallback ladder
        and the telemetry snapshot records it."""
        system = make_system(n=100, seed=12)

        def explode(self, L, b, device):
            raise injected_hazard()

        monkeypatch.setattr(WritingFirstCapelliniSolver, "_solve", explode)

        async def main():
            engine = SolveEngine(candidates=THREAD_LADDER, execution="sim")
            engine.register(system.L, name="m")
            resp = await engine.solve("m", system.b)
            snap = engine.snapshot()
            failures = engine.trace_log.events(kind="kernel-failure")
            fallbacks = engine.trace_log.events(kind="fallback")
            await engine.close()
            return resp, snap, failures, fallbacks

        resp, snap, failures, fallbacks = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.solver == "Capellini-TwoPhase"
        assert resp.fallback_from == "Capellini"
        assert resp.used_fallback
        fb = snap["fallbacks"]
        assert fb["kernel_failures"] == 1
        assert fb["failures_by_solver"] == {"Capellini": 1}
        assert fb["solves"] == 1
        assert fb["by_transition"] == {"Capellini->Capellini-TwoPhase": 1}
        (failure,) = failures
        assert failure["solver"] == "Capellini"
        assert failure["error"] == "HazardError"
        (fallback,) = fallbacks
        assert fallback["fallback_from"] == "Capellini"
        assert fallback["solver"] == "Capellini-TwoPhase"
        assert snap["quarantined"] == {resp.matrix: ["Capellini"]}

    def test_failed_kernel_is_never_silently_retried(self, monkeypatch):
        system = make_system(n=100, seed=13)
        calls = {"n": 0}

        def explode(self, L, b, device):
            calls["n"] += 1
            raise injected_hazard()

        monkeypatch.setattr(WritingFirstCapelliniSolver, "_solve", explode)

        async def main():
            engine = SolveEngine(candidates=THREAD_LADDER, execution="sim")
            engine.register(system.L, name="m")
            r1 = await engine.solve("m", system.b)
            r2 = await engine.solve("m", system.b)
            snap = engine.snapshot()
            await engine.close()
            return r1, r2, snap

        r1, r2, snap = run(main())
        assert calls["n"] == 1  # quarantined after the first failure
        assert snap["fallbacks"]["kernel_failures"] == 1
        assert r2.solver == "Capellini-TwoPhase"
        assert r2.fallback_from == "Capellini"
        np.testing.assert_allclose(r2.x, system.x_true, rtol=1e-9)

    def test_batched_kernel_failure_falls_back_per_request(self, monkeypatch):
        system = make_system(n=100, seed=14)

        def explode_batch(L, B, *, device):
            raise injected_hazard()

        monkeypatch.setattr(
            "repro.serve.engine.capellini_sptrsm", explode_batch
        )

        async def main():
            engine = SolveEngine(candidates=THREAD_LADDER, execution="sim")
            engine.register(system.L, name="m")
            resps = await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(3)]
            )
            snap = engine.snapshot()
            await engine.close()
            return resps, snap

        resps, snap = run(main())
        for r in resps:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            # batched SpTRSM shares quarantine with Writing-First, so
            # the per-request retry starts at Two-Phase
            assert r.solver == "Capellini-TwoPhase"
            assert r.fallback_from == "Capellini"
        assert snap["fallbacks"]["kernel_failures"] == 1
        assert snap["quarantined"] == {resps[0].matrix: ["Capellini"]}

    def test_ladder_exhaustion_raises(self, monkeypatch):
        system = make_system(n=60, seed=15)

        def explode(self, L, b, device):
            raise injected_hazard()

        for cls in THREAD_LADDER:
            monkeypatch.setattr(cls, "_solve", explode)

        async def main():
            engine = SolveEngine(candidates=THREAD_LADDER, execution="sim")
            engine.register(system.L, name="m")
            with pytest.raises(SolverError, match="no usable solver"):
                await engine.solve("m", system.b)
            snap = engine.snapshot()
            await engine.close()
            return snap

        snap = run(main())
        assert snap["fallbacks"]["kernel_failures"] == 3
        assert snap["requests"]["failed"] == 1


class TestRobustness:
    def test_timeout(self):
        system = make_system(n=60, seed=16)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            original = engine._execute_block

            def slow(entry, B, coalesced, *trace_args):
                time.sleep(0.25)
                return original(entry, B, coalesced, *trace_args)

            engine._execute_block = slow
            with pytest.raises(RequestTimeoutError):
                await engine.solve("m", system.b, timeout=0.02)
            snap = engine.snapshot()
            await engine.close()
            return snap

        snap = run(main())
        assert snap["requests"]["timed_out"] == 1

    def test_backpressure_rejects_over_limit(self):
        system = make_system(n=60, seed=17)

        async def main():
            engine = SolveEngine(max_queue=2, batch_window=0.05)
            engine.register(system.L, name="m")
            results = await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(4)],
                return_exceptions=True,
            )
            snap = engine.snapshot()
            await engine.close()
            return results, snap

        results, snap = run(main())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        completed = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) == 2
        assert len(completed) == 2
        assert snap["requests"]["rejected"] == 2
        for r in completed:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)

    def test_closed_engine_rejects(self):
        system = make_system(n=40, seed=18)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            await engine.close()
            with pytest.raises(QueueFullError, match="closed"):
                await engine.solve("m", system.b)

        run(main())

    def test_context_manager(self):
        system = make_system(n=40, seed=19)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                resp = await engine.solve("m", system.b)
            return resp

        resp = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)


class TestSharedRegistry:
    def test_engine_uses_external_registry_artifacts(self):
        system = make_system(n=90, seed=20)
        registry = MatrixRegistry()

        async def main():
            engine = SolveEngine(registry, execution="sim")
            key = engine.register(system.L)
            # width-1 solves walk the chain, which pulls cached features
            await engine.solve(key, system.b)
            await engine.solve(key, system.b)
            snap = engine.snapshot()
            await engine.close()
            return snap

        snap = run(main())
        cache = snap["registry"]
        assert cache["artifact_builds"] == 1  # features built once
        assert cache["hits"] > 0
        assert cache["hit_rate"] > 0.5


class TestExecutionLanes:
    def test_invalid_execution_mode_raises(self):
        with pytest.raises(ValueError, match="execution"):
            SolveEngine(execution="bogus")

    def test_auto_serves_on_host_lane(self):
        system = make_system(n=120, seed=21)
        n_req = 4

        async def main():
            engine = SolveEngine(max_batch=32)  # execution="auto"
            engine.register(system.L, name="m")
            resps = await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(n_req)]
            )
            snap = engine.snapshot()
            await engine.close()
            return resps, snap

        resps, snap = run(main())
        for r in resps:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            assert r.lane == "host"
            assert r.solver == "CompiledFused"
            assert r.fallback_from is None
        lanes = snap["lanes"]
        assert lanes["host"]["batches"] >= 1
        assert lanes["host"]["rhs"] == n_req
        assert lanes["sim"]["batches"] == 0
        assert snap["sim"]["cycles"] == 0  # nothing was simulated

    def test_auto_builds_plan_artifact_once(self):
        system = make_system(n=90, seed=22)
        registry = MatrixRegistry()

        async def main():
            engine = SolveEngine(registry)
            key = engine.register(system.L)
            await engine.solve(key, system.b)
            await engine.solve(key, system.b)
            snap = engine.snapshot()
            await engine.close()
            return snap

        snap = run(main())
        # features + plan, each built exactly once across both requests
        assert snap["registry"]["artifact_builds"] == 2
        assert snap["registry"]["hits"] > 0

    def test_profile_keeps_host_lane(self):
        # profile=True must NOT push traffic off the fast path: the
        # host lane profiles itself at wall-clock resolution
        system = make_system(n=80, seed=23)

        async def main():
            engine = SolveEngine(profile=True)
            engine.register(system.L, name="m")
            resp = await engine.solve("m", system.b)
            snap = engine.snapshot()
            events = engine.trace_log.events()
            await engine.close()
            return resp, snap, events

        resp, snap, events = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.lane == "host"
        assert snap["lanes"]["host"]["batches"] == 1
        assert snap["lanes"]["sim"]["batches"] == 0
        launches = [e for e in events if e["kind"] == "launch"]
        assert launches and all("profile" in e for e in launches)
        digest = launches[0]["profile"]
        assert digest["lane"] == "host"
        assert set(digest["phases"]) == {
            "gather", "reduce", "scatter", "other"
        }

    def test_ambient_tracer_forces_sim_lane(self):
        from repro.gpu.trace import Tracer
        from repro.solvers._sim import tracing

        system = make_system(n=80, seed=24)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            with tracing(Tracer()):
                traced = await engine.solve("m", system.b)
            plain = await engine.solve("m", system.b)
            await engine.close()
            return traced, plain

        traced, plain = run(main())
        assert traced.lane == "sim"
        assert plain.lane == "host"

    def test_auto_falls_back_to_sim_on_host_failure(self, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=100, seed=25)

        def explode(self, B, **kw):
            raise injected_hazard()

        monkeypatch.setattr(CompiledPlan, "solve_many", explode)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            r1 = await engine.solve("m", system.b)
            r2 = await engine.solve("m", system.b)
            snap = engine.snapshot()
            await engine.close()
            return r1, r2, snap

        r1, r2, snap = run(main())
        for r in (r1, r2):
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            assert r.lane == "sim"
            assert r.used_fallback
            assert r.fallback_from == "CompiledFused"
        # one failure, then quarantined — never silently retried
        assert snap["fallbacks"]["kernel_failures"] == 1
        assert "CompiledFused" in snap["quarantined"][r1.matrix]
        assert snap["lanes"]["host"]["batches"] == 0
        assert snap["lanes"]["sim"]["batches"] == 2

    def test_host_mode_propagates_failure(self, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=80, seed=26)

        def explode(self, B, **kw):
            raise injected_hazard()

        monkeypatch.setattr(CompiledPlan, "solve_many", explode)

        async def main():
            engine = SolveEngine(execution="host")
            engine.register(system.L, name="m")
            with pytest.raises(HazardError):
                await engine.solve("m", system.b)
            await engine.close()

        run(main())

    def test_launch_events_carry_lane(self):
        system = make_system(n=80, seed=27)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            await engine.solve("m", system.b)
            launches = engine.trace_log.events(kind="launch")
            await engine.close()
            return launches

        launches = run(main())
        assert launches and all(e["lane"] == "host" for e in launches)


class TestSnapshotRegistry:
    def test_snapshot_includes_registry_stats(self):
        """snapshot() exposes the registry's stats() under "registry"
        (the one key; the old "cache" alias is gone), so fleet roll-ups
        see shard cache behaviour."""
        system = make_system(n=80, seed=33)

        async def main():
            engine = SolveEngine(execution="host")
            engine.register(system.L, name="m")
            await engine.solve("m", system.b)
            snap = engine.snapshot()
            stats = engine.registry.stats()
            await engine.close()
            return snap, stats

        snap, stats = run(main())
        assert snap["registry"] == stats
        assert "cache" not in snap
        assert snap["registry"]["entries"] == 1
        assert "artifact_builds" in snap["registry"]


class TestCompiledLane:
    """The one host lane runs the compiled plan; the registry picks its
    schedule variant."""

    @staticmethod
    def deep_system(n=200, seed=0):
        from repro.datasets import generate

        return lower_triangular_system(
            generate("chain", n, seed=seed),
            rng=np.random.default_rng(seed),
        )

    def test_auto_prefers_compiled_for_deep_matrices(self):
        # the sequential rule (prefers_compiled) picks the SuperLU sweep
        system = self.deep_system()

        async def main():
            engine = SolveEngine()  # execution="auto"
            engine.register(system.L, name="deep")
            resp = await engine.solve("deep", system.b)
            snap = engine.snapshot()
            launches = engine.trace_log.events(kind="launch")
            await engine.close()
            return resp, snap, launches

        resp, snap, launches = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.lane == "host"
        assert resp.fallback_from is None
        assert launches[0]["schedule"] == "sequential"
        assert set(snap["lanes"]) == {"host", "sim"}

    def test_auto_keeps_host_for_shallow_matrices(self):
        system = make_system(n=120, seed=31)  # well under 64 levels

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="wide")
            resp = await engine.solve("wide", system.b)
            launches = engine.trace_log.events(kind="launch")
            await engine.close()
            return resp, launches

        resp, launches = run(main())
        assert resp.lane == "host"
        assert launches[0]["schedule"] == "level"

    def test_launch_events_carry_schedule(self):
        system = self.deep_system(seed=4)

        async def main():
            engine = SolveEngine(execution="host")
            engine.register(system.L, name="m")
            await engine.solve("m", system.b)
            launches = engine.trace_log.events(kind="launch")
            await engine.close()
            return launches

        launches = run(main())
        assert launches
        event = launches[0]
        assert event["lane"] == "host"
        assert event["schedule"] == "sequential"
        assert "backend" not in event  # one executor per variant
        assert event["n_levels"] == 1 <= event["base_levels"]

    def test_batched_sim_fallback_records_transition(self, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=90, seed=32)

        def explode(self, B, **kw):
            raise injected_hazard()

        monkeypatch.setattr(CompiledPlan, "solve_many", explode)

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            B = np.column_stack([system.b, 2.0 * system.b])
            resp = await engine.solve_multi("m", B)
            snap = engine.snapshot()
            await engine.close()
            return resp, snap

        resp, snap = run(main())
        np.testing.assert_allclose(resp.x[:, 1], 2.0 * system.x_true,
                                   rtol=1e-9)
        assert resp.lane == "sim"
        assert resp.fallback_from == "CompiledFused"
        assert snap["fallbacks"]["by_transition"] == {
            f"CompiledFused->{resp.solver}": 1
        }

    def test_compiled_execution_mode_is_gone(self):
        with pytest.raises(ValueError, match="execution"):
            SolveEngine(execution="compiled")
        with pytest.raises(TypeError):
            SolveEngine(compiled_schedule="merged")


class TestNonFiniteOutput:
    """A step whose answer holds NaN or Inf is quarantined only when a
    later step answers the same block finitely (the kernel was at
    fault).  A right-hand side that overflows every step fails its own
    request with a typed error, never with an Inf answer, and leaves
    the matrix servable for everyone else."""

    @staticmethod
    def overflowing_chain(n=100):
        # deep chain (the sequential variant) with a tiny diagonal: any
        # nonzero b overflows within two rows, on every float64 kernel
        from repro.sparse.coo import COOMatrix
        from repro.sparse.convert import coo_to_csr

        rows = np.concatenate([np.arange(n), np.arange(1, n)])
        cols = np.concatenate([np.arange(n), np.arange(n - 1)])
        vals = np.concatenate([np.full(n, 1e-200), np.ones(n - 1)])
        return coo_to_csr(COOMatrix(n, n, rows, cols, vals))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("warm", [False, True])
    def test_overflowing_rhs_fails_only_its_request(self, warm):
        L = self.overflowing_chain()

        async def main():
            engine = SolveEngine()  # execution="auto"
            engine.register(L, name="tiny")
            if warm:
                # b = 0 solves to 0 and builds the plan, so the next
                # block runs inline
                await engine.solve("tiny", np.zeros(L.n_rows))
            with pytest.raises(NonFiniteAnswerError, match="non-finite"):
                await engine.solve("tiny", np.ones(L.n_rows))
            quarantined = engine.quarantined("tiny")
            failures = engine.trace_log.events(kind="kernel-failure")
            lanes = engine.snapshot()["lanes"]
            # a benign request afterwards is still served on the host
            ok = await engine.solve("tiny", np.zeros(L.n_rows))
            launches = engine.trace_log.events(kind="launch")
            await engine.close()
            return quarantined, failures, lanes, ok, launches

        quarantined, failures, lanes, ok, launches = run(main())
        assert quarantined == frozenset()
        assert failures == []
        # rejected answers are not counted as served
        assert lanes["host"]["batches"] == int(warm)
        assert lanes["sim"]["batches"] == 0
        assert not ok.x.any() and ok.lane == "host"
        assert ok.fallback_from is None
        assert launches[-1]["schedule"] == "sequential"
        assert launches[-1]["dispatch"] == "inline"

    @pytest.mark.parametrize("warm", [False, True])
    def test_faulty_kernel_is_quarantined(self, warm, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=90, seed=33)
        real = CompiledPlan.solve_many

        def poisoned(self, B, **kw):
            X = real(self, B, **kw)
            X[0] = np.nan
            return X

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            if warm:
                await engine.solve("m", system.b)
            monkeypatch.setattr(CompiledPlan, "solve_many", poisoned)
            resp = await engine.solve("m", system.b)
            quarantined = engine.quarantined("m")
            launches = engine.trace_log.events(kind="launch")
            failures = engine.trace_log.events(kind="kernel-failure")
            await engine.close()
            return resp, quarantined, launches, failures

        resp, quarantined, launches, failures = run(main())
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)
        assert resp.lane == "sim"
        assert resp.fallback_from == "CompiledFused"
        assert quarantined == {"CompiledFused"}
        assert [(f["solver"], f["lane"], f["error"]) for f in failures] == [
            ("CompiledFused", "host", "NonFiniteAnswerError")
        ]
        # no launch event for the rejected host answer
        assert [e["lane"] for e in launches] == ["host"] * warm + ["sim"]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_forced_host_lane_propagates_solver_error(self):
        L = self.overflowing_chain()

        async def main():
            engine = SolveEngine(execution="host")
            engine.register(L, name="tiny")
            # the first block runs on the pool, the second inline
            for _ in range(2):
                with pytest.raises(SolverError, match="non-finite"):
                    await engine.solve("tiny", np.ones(L.n_rows))
            launches = engine.trace_log.events(kind="launch")
            snap = engine.snapshot()
            await engine.close()
            return launches, snap

        launches, snap = run(main())
        assert launches == []
        assert snap["lanes"]["host"]["batches"] == 0
        assert snap["fallbacks"]["kernel_failures"] == 0


class TestAdmissionValidation:
    """Non-finite right-hand sides are refused before they queue."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("multi", [False, True])
    def test_non_finite_rhs_rejected(self, bad, multi):
        system = make_system(n=60, seed=50)
        b = system.b.copy()
        b[7] = bad

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                with pytest.raises(InvalidRequestError, match="non-finite"):
                    if multi:
                        await engine.solve_multi(
                            "m", np.column_stack([system.b, b])
                        )
                    else:
                        await engine.solve("m", b)
                # the engine is unharmed: the next request is served
                ok = await engine.solve("m", system.b)
                rejects = engine.trace_log.events(kind="reject")
                snap = engine.snapshot()
            return ok, rejects, snap

        ok, rejects, snap = run(main())
        np.testing.assert_allclose(ok.x, system.x_true, rtol=1e-9)
        assert [e["reason"] for e in rejects] == ["non-finite"]
        assert snap["requests"]["rejected"] == 1
        assert snap["requests"]["total"] == 1
        assert snap["requests"]["completed"] == 1

    def test_shape_errors_keep_their_type(self):
        """A shape mismatch is refused at admission like a non-finite
        right-hand side: InvalidRequestError (never a SolverError, which
        the fallback ladder absorbs), counted and traced as a reject."""
        system = make_system(n=60, seed=51)
        n = system.L.n_rows

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                # shape is checked first: the NaNs never matter
                for call, bad in (
                    (engine.solve, np.full(7, np.nan)),
                    (engine.solve, np.ones((n, 1))),
                    (engine.solve_multi, np.ones((n + 1, 2))),
                    (engine.solve_multi, np.ones((n, 0))),
                ):
                    with pytest.raises(InvalidRequestError, match="shape"):
                        await call("m", bad)
                rejects = engine.trace_log.events(kind="reject")
                snap = engine.snapshot()
            return rejects, snap

        rejects, snap = run(main())
        assert [e["reason"] for e in rejects] == ["shape"] * 4
        assert snap["requests"]["rejected"] == 4
        assert snap["requests"]["total"] == 0
        assert not issubclass(InvalidRequestError, SolverError)


class TestSolveRecord:
    """One record per request: stamped phases, rendered to every sink."""

    @staticmethod
    def assert_phases(resp):
        assert set(resp.phases) == {
            "queue_ms", "handoff_ms", "kernel_ms", "publish_ms",
        }
        assert min(resp.phases.values()) >= 0
        assert sum(resp.phases.values()) == pytest.approx(
            resp.latency_ms, abs=0.01
        )

    def test_phases_sum_to_latency_inline_and_pool(self):
        system = make_system(n=100, seed=60)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                cold = await engine.solve("m", system.b)
                warm = await engine.solve("m", system.b)
                multi = await engine.solve_multi(
                    "m", np.column_stack([system.b, system.b])
                )
            async with SolveEngine(execution="sim") as engine:
                engine.register(system.L, name="m")
                sim = await engine.solve("m", system.b)
            return cold, warm, multi, sim

        cold, warm, multi, sim = run(main())
        assert (cold.dispatch, warm.dispatch) == ("pool", "inline")
        assert (multi.dispatch, sim.dispatch) == ("inline", "pool")
        assert warm.schedule == "level" and sim.schedule is None
        for resp in (cold, warm, multi, sim):
            self.assert_phases(resp)
        # no thread hop on the inline path
        assert warm.phases["handoff_ms"] < cold.phases["handoff_ms"]

    def test_inline_failover_phases_sum_to_latency(self, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=100, seed=61)
        original = CompiledPlan.solve_many
        calls = {"n": 0}

        def second_call_fails(self, B, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise injected_hazard()
            return original(self, B, **kw)

        monkeypatch.setattr(CompiledPlan, "solve_many", second_call_fails)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                await engine.solve("m", system.b)  # cold, on the pool
                return await engine.solve("m", system.b)

        resp = run(main())
        # the inline host step failed; the pool's sim ladder served it
        assert resp.fallback_from == "CompiledFused"
        assert (resp.lane, resp.dispatch) == ("sim", "pool")
        self.assert_phases(resp)

    def test_publish_event_and_journal_line_render_the_record(
        self, tmp_path
    ):
        from repro.obs.journal import JournalReader, JournalWriter
        from repro.serve.requests import solve_fields

        system = make_system(n=100, seed=62)

        async def main():
            journal = JournalWriter(tmp_path)
            async with SolveEngine(journal=journal) as engine:
                engine.register(system.L, name="m")
                resp = await engine.solve("m", system.b)
                (publish,) = engine.trace_log.events(kind="publish")
            journal.close()
            return resp, publish

        resp, publish = run(main())
        fields = solve_fields(resp)
        assert {k: publish[k] for k in fields} == fields
        assert set(publish) == set(fields) | {"seq", "ts", "kind"}
        (line,) = JournalReader(tmp_path).records(kind="solve")
        assert {k: line[k] for k in fields} == fields
        assert line["outcome"] == "ok"
        assert {"n_rows", "nnz", "n_levels"} <= set(line)


class TestInlineDispatch:
    """An idle engine serves a warm host-lane block on the event loop;
    every other block runs on the worker pool."""

    @staticmethod
    def plan_threads(monkeypatch, before=None):
        """Record the thread of every plan solve (``before`` runs first
        inside the wrapper, e.g. to fail or stall the kernel)."""
        from repro.solvers.compiled import CompiledPlan

        seen = []
        original = CompiledPlan.solve_many

        def recording(self, B, **kw):
            seen.append(threading.get_ident())
            if before is not None:
                before()
            return original(self, B, **kw)

        monkeypatch.setattr(CompiledPlan, "solve_many", recording)
        return seen

    @staticmethod
    def pool_threads(engine):
        """Record the thread of every ``_execute_block`` (pool) call."""
        seen = []
        original = engine._execute_block

        def recording(*args):
            seen.append(threading.get_ident())
            return original(*args)

        engine._execute_block = recording
        return seen

    def test_warm_idle_request_runs_on_loop(self, monkeypatch):
        system = make_system(n=100, seed=40)
        seen = self.plan_threads(monkeypatch)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                cold = await engine.solve("m", system.b)
                warm = await engine.solve("m", system.b)
                launches = engine.trace_log.events(kind="launch")
            return threading.get_ident(), (cold, warm), launches

        loop_thread, resps, launches = run(main())
        # the cold first request builds its plan on a pool thread
        assert seen[0] != loop_thread
        assert seen[1] == loop_thread
        assert [e["dispatch"] for e in launches] == ["pool", "inline"]
        for r in resps:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            assert r.lane == "host"

    def test_coalesced_pair_runs_inline(self, monkeypatch):
        system = make_system(n=100, seed=41)
        seen = self.plan_threads(monkeypatch)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                await engine.solve("m", system.b)
                pair = await asyncio.gather(
                    engine.solve("m", system.b),
                    engine.solve("m", 2.0 * system.b),
                )
            return threading.get_ident(), pair

        loop_thread, pair = run(main())
        assert len(seen) == 2 and seen[1] == loop_thread
        assert [r.batch_width for r in pair] == [2, 2]
        np.testing.assert_allclose(pair[1].x, 2.0 * system.x_true,
                                   rtol=1e-9)

    def test_two_matrices_run_on_pool(self, monkeypatch):
        s1, s2 = make_system(n=100, seed=42), make_system(n=110, seed=43)
        seen = self.plan_threads(monkeypatch)

        async def main():
            async with SolveEngine() as engine:
                engine.register(s1.L, name="a")
                engine.register(s2.L, name="b")
                await engine.solve("a", s1.b)
                await engine.solve("b", s2.b)
                both = await asyncio.gather(
                    engine.solve("a", s1.b), engine.solve("b", s2.b)
                )
                launches = engine.trace_log.events(kind="launch")
            return threading.get_ident(), both, launches

        loop_thread, both, launches = run(main())
        assert len(seen) == 4
        assert loop_thread not in seen
        assert [e["dispatch"] for e in launches] == ["pool"] * 4
        np.testing.assert_allclose(both[0].x, s1.x_true, rtol=1e-9)
        np.testing.assert_allclose(both[1].x, s2.x_true, rtol=1e-9)

    def test_sim_execution_never_runs_inline(self):
        system = make_system(n=60, seed=44)

        async def main():
            async with SolveEngine(execution="sim") as engine:
                key = engine.register(system.L, name="m")
                engine.registry.plan(key)  # a warm plan changes nothing
                blocks = self.pool_threads(engine)
                for _ in range(2):
                    await engine.solve("m", system.b)
                launches = engine.trace_log.events(kind="launch")
            return threading.get_ident(), blocks, launches

        loop_thread, blocks, launches = run(main())
        assert len(blocks) == 2 and loop_thread not in blocks
        assert {e["dispatch"] for e in launches} == {"pool"}
        assert {e["lane"] for e in launches} == {"sim"}

    def test_ambient_sim_tracer_never_runs_inline(self):
        from repro.gpu.trace import Tracer
        from repro.solvers._sim import tracing

        system = make_system(n=60, seed=45)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                await engine.solve("m", system.b)  # warm the plan
                blocks = self.pool_threads(engine)
                with tracing(Tracer()):
                    traced = await engine.solve("m", system.b)
            return threading.get_ident(), blocks, traced

        loop_thread, blocks, traced = run(main())
        assert traced.lane == "sim"
        assert len(blocks) == 1 and blocks[0] != loop_thread

    def test_inline_host_failure_falls_back_on_pool(self, monkeypatch):
        system = make_system(n=100, seed=46)

        def explode():
            raise injected_hazard()

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                await engine.solve("m", system.b)  # warm the plan
                failed = self.plan_threads(monkeypatch, before=explode)
                blocks = self.pool_threads(engine)
                resps = [await engine.solve("m", system.b) for _ in range(2)]
                failures = engine.trace_log.events(kind="kernel-failure")
                snap = engine.snapshot()
            return threading.get_ident(), failed, blocks, resps, failures, snap

        loop_thread, failed, blocks, resps, failures, snap = run(main())
        # the host step failed once, inline; then it was quarantined
        assert failed == [loop_thread]
        assert len(failures) == 1 and failures[0]["lane"] == "host"
        assert snap["fallbacks"]["kernel_failures"] == 1
        assert "CompiledFused" in snap["quarantined"][resps[0].matrix]
        # the rest of the ladder ran on the pool, for both requests
        assert len(blocks) == 2 and loop_thread not in blocks
        for r in resps:
            np.testing.assert_allclose(r.x, system.x_true, rtol=1e-9)
            assert r.lane == "sim"
            assert r.fallback_from == "CompiledFused"

    def test_injected_executor_receives_every_block(self):
        system = make_system(n=80, seed=47)

        class CountingExecutor(ThreadPoolExecutor):
            submitted = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submitted += 1
                return super().submit(fn, *args, **kwargs)

        executor = CountingExecutor(max_workers=1)

        async def main():
            async with SolveEngine(executor=executor) as engine:
                engine.register(system.L, name="m")
                for _ in range(3):
                    await engine.solve("m", system.b)
                await engine.solve_multi("m", system.b)
                launches = engine.trace_log.events(kind="launch")
            return launches

        try:
            launches = run(main())
        finally:
            executor.shutdown(wait=True)
        assert executor.submitted == 4
        assert [e["dispatch"] for e in launches] == ["pool"] * 4

    def test_late_inline_result_times_out(self, monkeypatch):
        system = make_system(n=60, seed=48)

        async def main():
            async with SolveEngine() as engine:
                engine.register(system.L, name="m")
                await engine.solve("m", system.b)  # warm the plan
                stalled = self.plan_threads(
                    monkeypatch, before=lambda: time.sleep(0.1)
                )
                with pytest.raises(RequestTimeoutError):
                    await engine.solve("m", system.b, timeout=0.02)
                snap = engine.snapshot()
                timeouts = engine.trace_log.events(kind="timeout")
                # a request with time to spare still gets its answer
                ok = await engine.solve("m", system.b, timeout=30.0)
            return threading.get_ident(), stalled, snap, timeouts, ok

        loop_thread, stalled, snap, timeouts, ok = run(main())
        assert stalled[0] == loop_thread  # the block ran inline
        assert snap["requests"]["timed_out"] == 1
        assert snap["requests"]["completed"] == 1  # the warm-up only
        assert len(timeouts) == 1
        np.testing.assert_allclose(ok.x, system.x_true, rtol=1e-9)
