"""MatrixRegistry: caching, LRU memory budget, counters, concurrency."""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import ServeError, UnknownMatrixError
from repro.serve import MatrixRegistry, matrix_fingerprint
from repro.sparse.convert import csr_to_dense

from tests.conftest import random_unit_lower


def entry_cost(registry: MatrixRegistry, ref: str) -> int:
    return registry.get(ref).nbytes


class TestRegistration:
    def test_register_and_get(self):
        reg = MatrixRegistry()
        L = random_unit_lower(50, 0.1, seed=1)
        key = reg.register(L, name="m1")
        assert key == matrix_fingerprint(L)
        assert reg.get(key).matrix is L
        assert reg.get("m1").matrix is L  # name lookup
        assert "m1" in reg and key in reg
        assert len(reg) == 1

    def test_register_is_idempotent_by_content(self):
        reg = MatrixRegistry()
        L = random_unit_lower(40, 0.1, seed=2)
        # same content, distinct container object
        L2 = random_unit_lower(40, 0.1, seed=2)
        k1 = reg.register(L)
        k2 = reg.register(L2)
        assert k1 == k2
        assert len(reg) == 1
        stats = reg.stats()
        assert stats["registrations"] == 1
        assert stats["dedup_hits"] == 1

    def test_unknown_matrix_raises_and_counts_miss(self):
        reg = MatrixRegistry()
        with pytest.raises(UnknownMatrixError):
            reg.get("nope")
        assert reg.stats()["misses"] == 1
        assert reg.stats()["hits"] == 0

    def test_invalid_budget(self):
        with pytest.raises(ServeError):
            MatrixRegistry(memory_budget=0)


class TestArtifacts:
    def test_features_cached_hit_miss(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=3))
        before = reg.stats()
        f1 = reg.features(key)  # build: a miss
        f2 = reg.features(key)  # reuse: a hit
        assert f1 is f2
        stats = reg.stats()
        assert stats["misses"] == before["misses"] + 1
        assert stats["hits"] == before["hits"] + 1
        assert stats["artifact_builds"] == before["artifact_builds"] + 1

    def test_schedule_shared_with_features(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=4))
        assert reg.schedule(key) is reg.features(key).schedule

    def test_csc_conversion_cached(self):
        reg = MatrixRegistry()
        L = random_unit_lower(30, 0.2, seed=5)
        key = reg.register(L)
        csc = reg.csc(key)
        assert reg.csc(key) is csc
        # the conversion is loss-free
        from repro.sparse.convert import csc_to_csr

        assert np.allclose(
            csr_to_dense(csc_to_csr(csc)), csr_to_dense(L)
        )

    def test_verdict_cached_per_solver(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(80, 0.08, seed=6))
        r1 = reg.verdict(key, "capellini")
        assert reg.verdict(key, "capellini") is r1
        assert r1.verdict == "SAFE"
        r2 = reg.verdict(key, "naive-thread")
        assert r2 is not r1

    def test_artifacts_grow_accounted_bytes(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(100, 0.1, seed=7))
        base = reg.resident_bytes
        reg.features(key)
        after_features = reg.resident_bytes
        assert after_features > base
        reg.csc(key)
        assert reg.resident_bytes > after_features


class TestPlanArtifact:
    def test_plan_built_once_then_hits(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=8))
        before = reg.stats()
        p1 = reg.plan(key)  # builds features then the plan: two misses
        p2 = reg.plan(key)  # reuse: a hit
        assert p1 is p2
        stats = reg.stats()
        assert stats["misses"] == before["misses"] + 2
        assert stats["hits"] == before["hits"] + 1
        assert stats["artifact_builds"] == before["artifact_builds"] + 2

    def test_has_plan_peeks_without_building_or_counting(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=12))
        before = reg.stats()
        assert not reg.has_plan(key)
        assert not reg.has_plan("never-registered")
        assert reg.stats() == before  # no build, no hit, no miss
        reg.plan(key)
        built = reg.stats()
        assert reg.has_plan(key)
        assert reg.stats() == built
        # a lane hint naming the other variant makes the peek cold again
        other = (
            "sequential" if reg.schedule_for(key) == "level" else "level"
        )
        reg.set_lane_hint(key, other)
        assert not reg.has_plan(key)
        reg.plan(key)
        assert reg.has_plan(key)

    def test_plan_reuses_cached_schedule(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=9))
        plan = reg.plan(key)
        schedule = reg.features(key).schedule
        np.testing.assert_array_equal(plan.rows, schedule.order)
        assert plan.base_levels == schedule.n_levels
        # features + plan: the inspector never recomputed the levels
        assert reg.stats()["artifact_builds"] == 2

    def test_plan_bytes_enter_lru_budget(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(100, 0.1, seed=10))
        reg.features(key)
        before = reg.resident_bytes
        plan = reg.plan(key)
        assert plan.nbytes > 0
        assert reg.resident_bytes == before + plan.nbytes

    def test_plan_solves_the_registered_matrix(self):
        from repro.sparse.triangular import lower_triangular_system

        reg = MatrixRegistry()
        L = random_unit_lower(80, 0.1, seed=11)
        system = lower_triangular_system(L)
        plan = reg.plan(reg.register(L))
        np.testing.assert_allclose(
            plan.solve(system.b), system.x_true, rtol=1e-9, atol=1e-12
        )


class TestLRUEviction:
    def test_eviction_under_small_budget(self):
        probe = MatrixRegistry()
        mats = [random_unit_lower(80, 0.1, seed=s) for s in (10, 11, 12)]
        costs = [
            entry_cost(probe, probe.register(m)) for m in mats
        ]
        # room for the last two matrices, not all three
        budget = costs[1] + costs[2] + costs[0] - 1
        reg = MatrixRegistry(memory_budget=budget)
        k0, k1, k2 = (reg.register(m) for m in mats)
        assert k0 not in reg  # least recently used, evicted
        assert k1 in reg and k2 in reg
        assert reg.stats()["evictions"] == 1
        with pytest.raises(UnknownMatrixError):
            reg.get(k0)

    def test_recency_protects_touched_entries(self):
        probe = MatrixRegistry()
        mats = [random_unit_lower(80, 0.1, seed=s) for s in (20, 21, 22)]
        costs = [entry_cost(probe, probe.register(m)) for m in mats]
        budget = costs[0] + costs[2] + costs[1] - 1
        reg = MatrixRegistry(memory_budget=budget)
        k0 = reg.register(mats[0])
        k1 = reg.register(mats[1])
        reg.get(k0)  # touch: k1 becomes the LRU entry
        k2 = reg.register(mats[2])
        assert k0 in reg and k2 in reg
        assert k1 not in reg

    def test_single_oversized_entry_is_kept(self):
        L = random_unit_lower(60, 0.1, seed=30)
        reg = MatrixRegistry(memory_budget=1)
        key = reg.register(L)
        assert key in reg  # pinned: evicting the only entry helps nobody
        assert reg.stats()["evictions"] == 0


class TestConcurrentRegistration:
    def test_two_threads_register_same_matrix(self):
        reg = MatrixRegistry()
        L = random_unit_lower(100, 0.08, seed=40)
        keys: list[str] = []
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            keys.append(reg.register(L))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert keys[0] == keys[1]
        assert len(reg) == 1
        stats = reg.stats()
        assert stats["registrations"] == 1
        assert stats["dedup_hits"] == 1

    def test_two_async_tasks_register_same_matrix(self):
        reg = MatrixRegistry()
        L = random_unit_lower(100, 0.08, seed=41)

        async def main():
            loop = asyncio.get_running_loop()
            return await asyncio.gather(
                loop.run_in_executor(None, reg.register, L),
                loop.run_in_executor(None, reg.register, L),
            )

        k1, k2 = asyncio.run(main())
        assert k1 == k2
        assert len(reg) == 1
        assert reg.stats()["artifact_builds"] == 0

    def test_concurrent_feature_builds_build_once(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(150, 0.05, seed=42))
        results = []

        def worker():
            results.append(reg.features(key))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(f is results[0] for f in results)
        assert reg.stats()["artifact_builds"] == 1


class TestShardStats:
    def test_sharded_stats_carry_shard_id(self):
        reg = MatrixRegistry(shard_id=3)
        reg.plan(reg.register(random_unit_lower(60, 0.1, seed=50)))
        stats = reg.stats()
        assert stats["shard"] == 3
        assert stats["artifact_builds"] == 2  # features + plan
        assert "adopted_plans" not in stats

    def test_unsharded_stats_omit_shard_key(self):
        assert "shard" not in MatrixRegistry().stats()


class TestEvictionRacingPlan:
    """ISSUE 7 satellite: LRU eviction racing plan(ref).

    A shard worker resolves plans while registrations on the same
    registry evict old entries.  Every plan() call must either return
    a usable plan or raise UnknownMatrixError — never corrupt state,
    deadlock, or hand out a half-built artifact.
    """

    def test_plan_after_eviction_raises_unknown(self):
        probe = MatrixRegistry()
        mats = [random_unit_lower(80, 0.1, seed=s) for s in (60, 61, 62)]
        costs = [entry_cost(probe, probe.register(m)) for m in mats]
        budget = costs[1] + costs[2] + costs[0] - 1
        reg = MatrixRegistry(memory_budget=budget)
        k0 = reg.register(mats[0])
        plan0 = reg.plan(k0)  # built while resident
        reg.register(mats[1])
        reg.register(mats[2])  # k0 (and its plan) evicted
        assert k0 not in reg
        with pytest.raises(UnknownMatrixError):
            reg.plan(k0)
        # the already-returned plan object stays usable after eviction
        from repro.sparse.triangular import lower_triangular_system

        system = lower_triangular_system(mats[0])
        np.testing.assert_allclose(
            plan0.solve(system.b), system.x_true, rtol=1e-9, atol=1e-12
        )

    def test_concurrent_plan_and_evicting_registrations(self):
        from repro.sparse.triangular import lower_triangular_system

        target = random_unit_lower(80, 0.1, seed=70)
        system = lower_triangular_system(target)
        fillers = [
            random_unit_lower(80, 0.1, seed=s) for s in range(71, 87)
        ]
        probe = MatrixRegistry()
        cost = entry_cost(probe, probe.register(target))
        # room for ~3 entries: filler churn keeps evicting the target
        reg = MatrixRegistry(memory_budget=3 * cost + 1)
        key = reg.register(target)
        outcomes = {"plan": 0, "unknown": 0}
        errors: list[BaseException] = []
        stop = threading.Event()
        barrier = threading.Barrier(3)

        def solver_thread():
            barrier.wait()
            for _ in range(200):
                try:
                    plan = reg.plan(key)
                except UnknownMatrixError:
                    outcomes["unknown"] += 1
                    reg.register(target)  # re-admit, as a worker would
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                else:
                    outcomes["plan"] += 1
                    np.testing.assert_allclose(
                        plan.solve(system.b), system.x_true,
                        rtol=1e-9, atol=1e-12,
                    )

        def churn_thread():
            barrier.wait()
            i = 0
            while not stop.is_set():
                reg.register(fillers[i % len(fillers)])
                i += 1

        threads = [
            threading.Thread(target=solver_thread),
            threading.Thread(target=churn_thread),
        ]
        for t in threads:
            t.start()
        barrier.wait()
        threads[0].join(timeout=120)
        stop.set()
        threads[1].join(timeout=120)
        assert not any(t.is_alive() for t in threads), "deadlocked"
        assert errors == []
        assert outcomes["plan"] >= 1  # made progress despite churn
        stats = reg.stats()
        assert stats["evictions"] >= 1  # churn actually evicted
        # settled accounting: resident bytes within budget afterwards
        assert reg.resident_bytes <= reg.memory_budget or len(reg) == 1


class TestCompiledPlanArtifact:
    def test_built_once_then_hits(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=9))
        before = reg.stats()["artifact_builds"]
        p1 = reg.compiled_plan(key)
        mid = reg.stats()
        p2 = reg.compiled_plan(key)
        after = reg.stats()
        assert p1 is p2
        # first call builds features (schedule) + the compiled plan
        assert mid["artifact_builds"] == before + 2
        assert after["artifact_builds"] == mid["artifact_builds"]
        assert after["hits"] == mid["hits"] + 1

    def test_variants_cached_independently(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(60, 0.1, seed=9))
        reg.set_lane_hint(key, "sequential")
        sequential = reg.plan(key)
        reg.set_lane_hint(key, "level")
        level = reg.plan(key)
        assert sequential is not level
        assert sequential.schedule == "sequential"
        assert level.schedule == "level"
        assert level is reg.plan(key)
        reg.set_lane_hint(key, "sequential")
        assert sequential is reg.plan(key)

    def test_plan_bytes_enter_lru_budget(self):
        reg = MatrixRegistry()
        key = reg.register(random_unit_lower(80, 0.1, seed=9))
        before = reg.stats()["resident_bytes"]
        reg.compiled_plan(key)
        assert reg.stats()["resident_bytes"] > before

    def test_plan_solves_the_registered_matrix(self):
        from repro.sparse.triangular import lower_triangular_system

        system = lower_triangular_system(
            random_unit_lower(70, 0.08, seed=11)
        )
        reg = MatrixRegistry()
        key = reg.register(system.L)
        x = reg.compiled_plan(key).solve(system.b)
        np.testing.assert_allclose(x, system.x_true, rtol=1e-9)
