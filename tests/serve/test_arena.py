"""PlanArena / SlabPool: zero-copy matrix sharing over shared memory."""

import numpy as np
import pytest

from repro.errors import ClusterError
from repro.serve.arena import (
    SEGMENT_PREFIX,
    PlanArena,
    PlanHandle,
    SegmentCache,
    SlabPool,
    _size_class,
    leaked_segments,
)
from repro.serve.registry import MatrixRegistry, matrix_fingerprint
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower


def published_matrix(n=60, seed=1):
    """(key, matrix) pair the way the router produces them."""
    L = random_unit_lower(n, 0.1, seed=seed)
    return MatrixRegistry().register(L), L


def worker_plan(matrix, schedule=None):
    """The plan a shard worker builds from an attached matrix."""
    reg = MatrixRegistry()
    key = reg.register(matrix)
    if schedule is not None:
        reg.set_lane_hint(key, schedule)
    return reg.plan(key)


class TestPublishAttach:
    def test_round_trip_reconstructs_matrix_and_plan(self):
        key, L = published_matrix()
        system = lower_triangular_system(L)
        with PlanArena() as arena:
            handle = arena.publish(key, L)
            assert handle.key == key
            assert handle.segment.startswith(SEGMENT_PREFIX)
            attached = arena.attach(handle)
            # the reconstruction is views, not copies: a plan built from
            # it must solve the original system
            np.testing.assert_array_equal(attached.values, L.values)
            np.testing.assert_array_equal(attached.row_ptr, L.row_ptr)
            np.testing.assert_array_equal(attached.col_idx, L.col_idx)
            np.testing.assert_allclose(
                worker_plan(attached).solve(system.b), system.x_true,
                rtol=1e-9, atol=1e-12,
            )
            # fingerprint pinned from the handle, not re-hashed
            assert matrix_fingerprint(attached) == key
            arena.detach(handle)
        assert leaked_segments() == []

    def test_both_variants_survive_publish_attach_bit_identically(self):
        from repro.datasets import generate

        L = generate("chain", 300, seed=2)
        reg = MatrixRegistry()
        key = reg.register(L)
        assert reg.schedule_for(key) == "sequential"  # deep and skinny
        B = np.random.default_rng(2).standard_normal((L.n_rows, 3))
        for schedule in ("sequential", "level"):
            plan = worker_plan(L, schedule)
            with PlanArena() as arena:
                handle = arena.publish(key, L)
                attached = worker_plan(arena.attach(handle), schedule)
                assert attached.schedule == schedule
                assert attached.base_levels == plan.base_levels
                assert attached.coeff_nnz == plan.coeff_nnz
                assert np.array_equal(
                    attached.solve_many(B), plan.solve_many(B)
                )
                arena.detach(handle)
        assert leaked_segments() == []

    def test_attached_views_are_read_only(self):
        key, L = published_matrix()
        with PlanArena() as arena:
            attached = arena.attach(arena.publish(key, L))
            for name in ("row_ptr", "col_idx", "values"):
                with pytest.raises((ValueError, RuntimeError)):
                    getattr(attached, name)[0] = 99

    def test_publish_is_idempotent_per_key(self):
        key, L = published_matrix()
        with PlanArena() as arena:
            h1 = arena.publish(key, L)
            h2 = arena.publish(key, L)
            assert h1 is h2
            assert arena.stats()["published"] == 1
            assert arena.stats()["resident"] == 1

    def test_handle_json_round_trip(self):
        key, L = published_matrix()
        with PlanArena() as arena:
            handle = arena.publish(key, L)
            doc = handle.to_json()
            clone = PlanHandle.from_json(doc)
            assert clone == handle
            # the wire form is what crosses the pipe: plain JSON types
            import json

            json.dumps(doc)

    def test_attach_refcounting_shares_one_mapping(self):
        key, L = published_matrix()
        with PlanArena() as arena:
            handle = arena.publish(key, L)
            a1 = arena.attach(handle)
            a2 = arena.attach(handle)
            assert a2 is a1  # cached reconstruction, not a second map
            stats = arena.stats()
            assert stats["attaches"] == 1
            assert stats["attach_reuses"] == 1
            arena.detach(handle)
            assert arena.stats()["attached"] == 1  # one ref still out
            arena.detach(handle)
            assert arena.stats()["attached"] == 0

    def test_attach_after_unlink_raises_cluster_error(self):
        key, L = published_matrix()
        arena = PlanArena()
        handle = arena.publish(key, L)
        arena.unlink(key)
        with pytest.raises(ClusterError):
            arena.attach(handle)
        arena.close()
        assert leaked_segments() == []

    def test_handle_lookup(self):
        key, L = published_matrix()
        with PlanArena() as arena:
            handle = arena.publish(key, L)
            assert arena.handle(key) is handle
            with pytest.raises(ClusterError):
                arena.handle("missing")

    def test_close_unlinks_everything(self):
        keys = []
        arena = PlanArena()
        for seed in (1, 2, 3):
            key, L = published_matrix(seed=seed)
            arena.publish(key, L)
            keys.append(key)
        assert arena.stats()["resident"] == 3
        arena.close()
        assert arena.stats()["resident"] == 0
        assert leaked_segments() == []


class TestSlabPool:
    def test_size_classes_are_powers_of_two(self):
        assert _size_class(1) == 4096
        assert _size_class(4096) == 4096
        assert _size_class(4097) == 8192
        assert _size_class(100_000) == 131072

    def test_acquire_release_reuses_segment(self):
        pool = SlabPool()
        s1 = pool.acquire(5000)
        assert s1.capacity == 8192
        name = s1.name
        pool.release(s1)
        s2 = pool.acquire(6000)  # same size class
        assert s2.name == name
        stats = pool.stats()
        assert stats["created"] == 1
        assert stats["reused"] == 1
        pool.close()
        assert leaked_segments() == []

    def test_slab_ndarray_round_trip(self):
        pool = SlabPool()
        slab = pool.acquire(64 * 3 * 8)
        arr = slab.ndarray((64, 3))
        arr[...] = np.arange(192).reshape(64, 3)
        again = slab.ndarray((64, 3))
        np.testing.assert_array_equal(again, arr)
        pool.close()

    def test_pool_cap_unlinks_excess(self):
        pool = SlabPool(max_pooled_per_class=1)
        s1, s2 = pool.acquire(100), pool.acquire(100)
        pool.release(s1)
        pool.release(s2)  # over the cap: unlinked, not pooled
        stats = pool.stats()
        assert stats["pooled"] == 1
        assert stats["segments"] == 1
        pool.close()
        assert leaked_segments() == []

    def test_acquire_after_close_raises(self):
        pool = SlabPool()
        pool.close()
        with pytest.raises(ClusterError):
            pool.acquire(100)


class TestSegmentCache:
    def test_cached_attach_and_drop(self):
        pool = SlabPool()
        slab = pool.acquire(4096)
        slab.ndarray((8,))[...] = np.arange(8.0)
        cache = SegmentCache()
        view = cache.ndarray(slab.name, (8,))
        np.testing.assert_array_equal(view, np.arange(8.0))
        # second lookup is a dict hit on the same buffer
        assert cache.buffer(slab.name) is cache.buffer(slab.name)
        del view
        cache.close_all()
        pool.close()
        assert leaked_segments() == []


class TestInstrumentedRefcounts:
    """Ambient observability contexts (the tracer the engines pick up,
    the cycle/host profilers) must not perturb the arena's attach/detach
    refcounting or leak shared-memory segments — the shm-leak audit,
    re-run with every instrumentation layer switched on."""

    def test_attach_detach_refcounts_under_ambient_contexts(self):
        from repro.gpu.trace import Tracer
        from repro.obs.profiler import profiling
        from repro.solvers._sim import tracing

        key, L = published_matrix()
        system = lower_triangular_system(L)
        with PlanArena() as arena:
            handle = arena.publish(key, L)
            with tracing(Tracer()), profiling():
                a1 = arena.attach(handle)
                a2 = arena.attach(handle)
                assert a2 is a1
                stats = arena.stats()
                assert stats["attaches"] == 1
                assert stats["attach_reuses"] == 1
                # a plan built from the attached matrix still solves
                # correctly while both ambient contexts are live
                np.testing.assert_allclose(
                    worker_plan(a1).solve(system.b), system.x_true,
                    rtol=1e-9, atol=1e-12,
                )
                arena.detach(handle)
                assert arena.stats()["attached"] == 1
            # contexts exited with one ref still out: nothing dropped
            assert arena.stats()["attached"] == 1
            arena.detach(handle)
            assert arena.stats()["attached"] == 0
        assert leaked_segments() == []

    def test_slab_pool_reuse_under_ambient_contexts(self):
        from repro.obs.profiler import profiling

        pool = SlabPool()
        with profiling():
            s1 = pool.acquire(4096)
            name = s1.name
            pool.release(s1)
            s2 = pool.acquire(4096)
            assert s2.name == name   # served from the pool, not a new map
            pool.release(s2)
        assert pool.stats()["reused"] == 1
        pool.close()
        assert leaked_segments() == []
