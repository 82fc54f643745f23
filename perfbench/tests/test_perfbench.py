"""Tests of the benchmark's own parts (inputs, statistics, spans)."""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import generate
from repro.serve import HashRing, matrix_fingerprint

from perfbench import inputs, layers, run, spans as spans_mod
from perfbench.stats import (
    interquartile_mean,
    percentile,
    reference_times,
    self_time,
    sliced,
    spread,
    union_length,
)

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _flatten(wl):
    return [(r.name, r.b, r.ref) for stream in wl.streams for r in stream]


def test_same_seed_gives_identical_inputs_and_references():
    a = inputs.build_workload("shallow-serial", 11)
    b = inputs.build_workload("shallow-serial", 11)
    assert list(a.matrices) == list(b.matrices)
    for name in a.matrices:
        for attr in ("row_ptr", "col_idx", "values"):
            assert np.array_equal(
                getattr(a.matrices[name], attr), getattr(b.matrices[name], attr)
            )
    for (na, ba, ra), (nb, bb, rb) in zip(_flatten(a), _flatten(b)):
        assert na == nb
        assert np.array_equal(ba, bb)
        assert np.array_equal(ra, rb)


def test_other_seed_gives_other_inputs():
    a = inputs.build_workload("shallow-serial", 1)
    b = inputs.build_workload("shallow-serial", 2)
    assert not np.array_equal(a.streams[0][0].b, b.streams[0][0].b)
    name = next(iter(a.matrices))
    assert matrix_fingerprint(a.matrices[name]) != matrix_fingerprint(
        b.matrices[name]
    )


def test_references_solve_the_system():
    wl = inputs.build_workload("shallow-serial", 3)
    for req in wl.streams[0][:3]:
        L = wl.matrices[req.name]
        rows = np.repeat(np.arange(L.n_rows), np.diff(L.row_ptr))
        Lx = np.zeros(L.n_rows)
        np.add.at(Lx, rows, L.values * req.ref[L.col_idx])
        assert np.allclose(Lx, req.b, rtol=0, atol=1e-10)


def test_deep_pair_clients_step_through_the_same_matrices():
    wl = inputs.build_workload("deep-pair", 4)
    first, second = wl.streams
    assert [r.name for r in first] == [r.name for r in second]
    assert not np.array_equal(first[0].b, second[0].b)
    assert set(wl.label_of.values()) == {"chain-4000", "fem-20000"}


def test_cluster_places_one_instance_of_each_spec_per_worker():
    wl = inputs.build_workload("cluster-block", 5)
    ring = HashRing(inputs.CLUSTER_NODES)
    for name, node in wl.placement.items():
        assert ring.node_for(matrix_fingerprint(wl.matrices[name])) == node
    for node, stream in zip(inputs.CLUSTER_NODES, wl.streams):
        assert {wl.placement[r.name] for r in stream} == {node}
        assert {r.b.shape[1] for r in stream} == {8}


def test_first_requests_cover_every_matrix_once():
    wl = inputs.build_workload("shallow-serial", 6)
    assert [r.name for r in wl.first_requests()] == list(wl.matrices)


def test_level_count_from_raw_arrays():
    assert inputs.level_count(generate("chain", 300, seed=0)) == 300
    assert inputs.level_count(generate("diagonal", 50, seed=0)) == 1
    # 5-point stencil on an nx-by-ny grid: its anti-diagonals
    L = generate("stencil", 400, seed=0)
    assert inputs.level_count(L) == 20 + 20 - 1


def test_check_class_accepts_and_rejects():
    chain = generate("chain", 300, seed=0)
    levels, gran = inputs.check_class(chain, "deep")
    assert levels == 300 and gran == pytest.approx(-2.0)
    with pytest.raises(ValueError, match="not shallow"):
        inputs.check_class(chain, "shallow")
    wide = generate("lp", 2000, seed=0)
    inputs.check_class(wide, "shallow")
    with pytest.raises(ValueError, match="not deep"):
        inputs.check_class(wide, "deep")


def test_answer_error_flags_wrong_and_misshapen_answers():
    ref = np.array([1.0, -2.0, 4.0])
    assert inputs.answer_ok(ref.copy(), ref)
    assert not inputs.answer_ok(ref + 1e-6, ref)
    assert not inputs.answer_ok(ref.reshape(-1, 1), ref)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_sliced_percentiles_and_throughput():
    # 30 requests, one every 10 ms, each taking 2 ms except every tenth
    # (11 ms): every slice of 10 has the same p50, p90 and throughput
    starts, ends = [], []
    for i in range(30):
        t = 0.010 * (i + 1)
        lat = 0.011 if i % 10 == 9 else 0.002
        starts.append(t - lat)
        ends.append(t)
    out = sliced(starts, ends, 0.0, 10)
    assert out["slices"] == 3 and out["samples"] == 30
    assert out["latency_p50_ms"] == pytest.approx(2.0)
    assert out["latency_p90_ms"] == pytest.approx(2.0 + 0.1 * 9.0)
    assert out["throughput_rps"] == pytest.approx(100.0)


def test_sliced_confines_a_stall_to_one_slice():
    ends = list(np.arange(1, 81) * 0.01)
    ends[35:] = [e + 1.0 for e in ends[35:]]  # a 1 s stall in slice 4 of 8
    starts = [e - 0.001 for e in ends]
    starts[35] -= 1.0  # the request caught in the stall
    out = sliced(starts, ends, 0.0, 10)
    assert out["slices"] == 8
    assert out["throughput_rps"] == pytest.approx(100.0)
    assert out["latency_p50_ms"] == pytest.approx(1.0)


def test_interquartile_mean_drops_outer_quarters():
    assert interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert interquartile_mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_sliced_orders_by_completion_and_keeps_a_short_run():
    out = sliced([0.0, 0.0, 0.0], [0.03, 0.01, 0.02], 0.0, 10)
    assert out["slices"] == 1 and out["slice_len"] == 3
    assert out["throughput_rps"] == pytest.approx(100.0)


def test_reference_clock_scales_windows_and_skips_gaps():
    windows = [(10.0, 11.0, 2.0), (11.5, 12.5, 0.5)]
    got = reference_times([10.0, 10.5, 11.0, 11.5, 12.5], windows)
    assert got == pytest.approx([0.0, 1.0, 2.0, 2.0, 2.5])
    with pytest.raises(ValueError):
        reference_times([11.2], windows)  # in the gap between windows
    with pytest.raises(ValueError):
        reference_times([9.0], windows)


def test_sliced_on_the_reference_clock_normalizes_latency_and_rate():
    # one request per 100 ms, 20 ms each, on a machine at twice the speed
    windows = [(0.0, 1.0, 2.0), (2.0, 3.0, 2.0)]
    ends = [w0 + 0.1 * (i + 1) for w0, _, _ in windows for i in range(10)]
    starts = [e - 0.02 for e in ends]
    out = sliced(
        reference_times(starts, windows),
        reference_times(ends, windows),
        0.0,
        10,
    )
    assert out["latency_p50_ms"] == pytest.approx(40.0)
    assert out["throughput_rps"] == pytest.approx(5.0)


def test_union_and_self_time_of_nested_spans():
    parent = (0.0, 10.0)
    children = [(1.0, 3.0), (2.0, 4.0), (2.5, 3.5), (6.0, 7.0), (9.0, 12.0)]
    assert union_length(children, *parent) == pytest.approx(5.0)
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    assert self_time(parent, [(11.0, 12.0)]) == pytest.approx(10.0)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.0, 11.5, 8.0, 10.2]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = spread(values)
    assert s["median"] == pytest.approx(statistics.median(values))
    assert s["iqr_share"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert s["range_share"] == pytest.approx(4.0 / statistics.median(values))


def test_per_thread_union_merges_nesting_but_not_threads():
    S = spans_mod.Span
    spans = [S("sink", 0.0, 1.0, 1), S("sink", 0.2, 0.5, 1), S("sink", 2.0, 3.0, 1),
             S("sink", 0.0, 1.0, 2)]
    total, calls = layers._per_thread_union(spans)
    assert total == pytest.approx(3.0)
    assert calls == 3


# ---------------------------------------------------------------------------
# span wrappers
# ---------------------------------------------------------------------------


class _Base:
    def inherited(self, x):
        return x + 1


class _Target(_Base):
    def own(self, x):
        return x * 2

    def boom(self):
        raise RuntimeError("boom")


def test_wrappers_record_spans_and_restore_originals():
    own, inherited = _Target.__dict__["own"], _Base.__dict__["inherited"]
    log = spans_mod.SpanLog()
    with log:
        log.wrap(_Target, "own", "own")
        log.wrap(_Target, "inherited", "inherited")
        log.wrap(_Target, "boom", "boom")
        t = _Target()
        assert t.own(3) == 6
        assert t.inherited(3) == 4
        with pytest.raises(RuntimeError):
            t.boom()
        assert _Target.__dict__["own"] is not own
    assert _Target.__dict__["own"] is own
    assert "inherited" not in _Target.__dict__
    assert _Target.inherited is inherited
    assert [s.name for s in log.spans] == ["own", "inherited", "boom"]
    assert all(s.end >= s.start for s in log.spans)


def test_wrappers_restore_module_functions():
    import repro.serve.registry as registry_mod

    original = registry_mod.build_plan
    log = spans_mod.SpanLog()
    layers.wrap_builds(log)
    try:
        assert registry_mod.build_plan is not original
        registry_mod.build_plan(generate("chain", 20, seed=0))
    finally:
        log.restore()
    assert registry_mod.build_plan is original
    assert [s.name for s in log.spans] == ["registry.build"]


def test_every_wrapper_target_restores():
    from perfbench.layers import _BUILDS, _CLUSTER, _ENGINE

    targets = _ENGINE + _BUILDS + _CLUSTER
    before = [getattr(owner, attr) for owner, attr, _ in targets]
    log = spans_mod.SpanLog()
    layers.wrap_engine(log)
    layers.wrap_builds(log)
    layers.wrap_cluster(log)
    log.restore()
    after = [getattr(owner, attr) for owner, attr, _ in targets]
    assert all(a is b or a == b for a, b in zip(before, after))


def test_speed_probe_reports_a_positive_rate():
    from perfbench.probe import SpeedProbe

    probe = SpeedProbe()
    try:
        assert probe.speed() > 0.0
        assert probe.cpus == sorted(os.sched_getaffinity(0))
    finally:
        probe.close()


def test_resource_tracker_is_stopped_and_reaped():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run._stop_resource_tracker()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # reaped, not a zombie
    run._stop_resource_tracker()  # a second stop is a no-op


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_lists_every_metric_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == layers.PER_LAYER
