"""Journal wiring through SolveEngine, the cluster, replay and the CLI.

The end-to-end class is the issue's acceptance test: serve a synthetic
deep (>= 64-level) + shallow matrix mix on different lanes into one
journal directory and check ``journal report`` deterministically
recommends the measured-fastest lane for every class it saw.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.metrics.efficacy import aggregate, apply_lane_hints
from repro.obs.journal import JournalReader, JournalWriter
from repro.serve import SolveEngine
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower
from tests.serve.test_engine import injected_hazard, make_system


def run(coro):
    return asyncio.run(coro)


def deep_system(n=200, seed=0):
    from repro.datasets import generate

    return lower_triangular_system(
        generate("chain", n, seed=seed), rng=np.random.default_rng(seed)
    )


class TestEngineJournaling:
    def test_solves_recorded_with_features_and_phases(self, tmp_path):
        system = make_system()

        async def main():
            journal = JournalWriter(tmp_path, shard="main")
            engine = SolveEngine(journal=journal)
            key = engine.register(system.L, name="m")
            await engine.solve("m", system.b)
            B = np.column_stack([system.b, 2.0 * system.b])
            await engine.solve_multi("m", B)
            snap = engine.snapshot()
            await engine.close()
            journal.close()
            return key, snap

        key, snap = run(main())
        records = JournalReader(tmp_path).records(kind="solve")
        assert len(records) == 2
        single, multi = records
        for rec in records:
            assert rec["matrix"] == key
            assert rec["lane"] == "host"
            assert rec["outcome"] == "ok"
            assert rec["schedule"] == "level"
            assert rec["latency_ms"] >= rec["exec_ms"] >= 0
            assert rec["queue_ms"] == pytest.approx(
                rec["latency_ms"] - rec["exec_ms"], abs=1e-3
            )
            assert rec["phases"] == {
                "queue_ms": rec["queue_ms"], "exec_ms": rec["exec_ms"],
            }
            assert rec["n_levels"] >= 1
            assert isinstance(rec["granularity"], float)
            assert rec["trace_id"]
        assert single["n_rhs"] == 1
        assert multi["n_rhs"] == 2
        # journal health rides the snapshot (and OpenMetrics families)
        assert snap["journal"]["records_written"] == 2
        assert snap["journal"]["records_dropped"] == 0

    def test_engine_without_journal_snapshot_unchanged(self):
        system = make_system()

        async def main():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            await engine.solve("m", system.b)
            snap = engine.snapshot()
            await engine.close()
            return snap

        assert "journal" not in run(main())

    def test_kernel_failure_writes_incident(self, tmp_path, monkeypatch):
        from repro.solvers.compiled import CompiledPlan

        system = make_system(n=100, seed=25)

        def explode(self, B, **kw):
            raise injected_hazard()

        monkeypatch.setattr(CompiledPlan, "solve_many", explode)

        async def main():
            journal = JournalWriter(tmp_path)
            engine = SolveEngine(journal=journal)
            engine.register(system.L, name="m")
            resp = await engine.solve("m", system.b)  # falls back to sim
            await engine.close()
            journal.close()
            return resp

        resp = run(main())
        assert resp.used_fallback
        reader = JournalReader(tmp_path)
        failures = reader.records(kind="kernel-failure")
        assert len(failures) == 1
        assert failures[0]["error"] == "HazardError"
        pointers = reader.records(kind="incident")
        assert len(pointers) == 1
        dump = json.loads(
            (tmp_path / pointers[0]["incident_file"]).read_text()
        )
        assert dump["reason"] == "kernel-failure"
        assert dump["solver"] == "CompiledFused"
        assert dump["lane"] == "host"
        assert dump["snapshot"]["fallbacks"]["kernel_failures"] == 1
        assert any(
            e.get("kind") == "kernel-failure" for e in dump["trace_tail"]
        )
        # the recovered solve still journaled, marked as a fallback
        solves = reader.records(kind="solve")
        assert len(solves) == 1
        assert solves[0]["outcome"] == "fallback"
        assert solves[0]["fallback_from"] == "CompiledFused"
        assert solves[0]["lane"] == "sim"
        assert solves[0]["schedule"] is None


async def solve_schedule(engine, name, b):
    """One solve, plus the schedule variant of the plan that served it."""
    resp = await engine.solve(name, b)
    return resp, engine.trace_log.events(kind="launch")[-1]["schedule"]


class TestLaneHintRouting:
    def test_hint_overrides_static_rule(self, tmp_path):
        deep = deep_system()  # the rule picks the sequential schedule

        async def main():
            engine = SolveEngine()
            key = engine.register(deep.L, name="m")
            r_auto = await solve_schedule(engine, "m", deep.b)
            engine.registry.set_lane_hint(key, "level")
            r_hint = await solve_schedule(engine, "m", deep.b)
            engine.registry.set_lane_hint(key, "sim")  # rule stays
            r_sim = await solve_schedule(engine, "m", deep.b)
            engine.registry.set_lane_hint(key, None)
            r_back = await solve_schedule(engine, "m", deep.b)
            await engine.close()
            return r_auto, r_hint, r_sim, r_back

        r_auto, r_hint, r_sim, r_back = run(main())
        assert r_auto[1] == "sequential"
        assert r_hint[1] == "level"
        assert r_sim[1] == "sequential"
        assert r_back[1] == "sequential"
        assert {r.lane for r, _ in (r_auto, r_hint, r_sim, r_back)} == {
            "host"
        }
        np.testing.assert_allclose(r_hint[0].x, deep.x_true, rtol=1e-9)

    def test_hint_promotes_shallow_matrix_to_compiled(self):
        system = make_system(n=120, seed=31)  # the rule keeps "level"

        async def main():
            engine = SolveEngine()
            key = engine.register(system.L, name="m")
            engine.registry.set_lane_hint(key, "sequential")
            result = await solve_schedule(engine, "m", system.b)
            await engine.close()
            return result

        resp, schedule = run(main())
        assert resp.lane == "host"
        assert schedule == "sequential"
        np.testing.assert_allclose(resp.x, system.x_true, rtol=1e-9)


class TestEndToEndEfficacy:
    def test_report_recommends_measured_fastest_per_class(self, tmp_path):
        """Acceptance: deep + shallow mix -> measured-fastest lane."""
        deep = deep_system(n=200)
        shallow = make_system(n=120, seed=7)

        async def serve(execution, system, name, solves, hint=None):
            journal = JournalWriter(
                tmp_path, shard=f"lane-{execution}-{hint}"
            )
            engine = SolveEngine(execution=execution, journal=journal)
            key = engine.register(system.L, name=name)
            engine.registry.set_lane_hint(key, hint)
            for _ in range(solves):
                await engine.solve(name, system.b)
            await engine.close()
            journal.close()

        async def main():
            # the same deep matrix on both schedule variants, and the
            # same shallow matrix on the level plan and the simulator
            await serve("host", deep, "deep", 4, hint="sequential")
            await serve("host", deep, "deep", 4, hint="level")
            await serve("host", shallow, "shal", 4)
            await serve("sim", shallow, "shal", 4)

        run(main())
        scan = JournalReader(tmp_path).scan()
        assert scan["skipped"] == 0
        report = aggregate(scan["records"], skipped=scan["skipped"])
        assert aggregate(scan["records"]) == aggregate(scan["records"])

        # the recommendation must equal the argmin of the recorded
        # medians — the report never contradicts its own measurements
        for cls, info in report["classes"].items():
            lanes = {
                lane: s["p50_ms"] for lane, s in info["lanes"].items()
                if s["count"] >= report["min_samples"]
            }
            best = min(sorted(lanes), key=lambda lane: (lanes[lane], lane))
            assert info["recommended"] == best
            assert report["recommendations"][cls] == best
        deep_cls = [
            c for c, i in report["classes"].items() if c.startswith("deep")
        ]
        shal_cls = [
            c for c, i in report["classes"].items()
            if c.startswith("shallow")
        ]
        assert deep_cls and shal_cls
        assert set(report["classes"][deep_cls[0]]["lanes"]) == {
            "level", "sequential",
        }
        assert set(report["classes"][shal_cls[0]]["lanes"]) == {
            "level", "sim",
        }

    def test_hints_close_the_loop(self, tmp_path):
        """journal -> report -> apply_lane_hints -> auto routing."""
        deep = deep_system(n=200)

        async def main():
            journal = JournalWriter(tmp_path)
            engine = SolveEngine(journal=journal)
            key = engine.register(deep.L, name="m")
            for _ in range(3):
                await engine.solve("m", deep.b)
            await engine.close()
            journal.close()
            return key

        key = run(main())
        report = aggregate(JournalReader(tmp_path).scan()["records"])

        async def again():
            engine = SolveEngine()
            engine.register(deep.L, name="m")
            applied = apply_lane_hints(engine.registry, report)
            result = await solve_schedule(engine, "m", deep.b)
            await engine.close()
            return applied, result

        applied, (resp, schedule) = run(again())
        assert applied == 1
        assert schedule == report["matrices"][key]["recommended"]


class TestClusterJournaling:
    def test_workers_journal_per_shard_segments(self, tmp_path):
        from repro.serve.cluster import ShardRouter

        systems = [
            lower_triangular_system(random_unit_lower(60, 0.08, seed=s))
            for s in (1, 2, 3)
        ]
        with ShardRouter(
            n_workers=2, execution="host", journal_dir=str(tmp_path)
        ) as router:
            keys = [
                router.register(s.L, name=f"m{i}")
                for i, s in enumerate(systems)
            ]
            futs = [
                router.submit(key, s.b, single=True)
                for key, s in zip(keys, systems)
            ]
            for fut, s in zip(futs, systems):
                np.testing.assert_allclose(
                    fut.result(timeout=60.0).x, s.x_true, rtol=1e-9
                )
            snaps = router.worker_snapshots()

        scan = JournalReader(tmp_path).scan()
        assert len(scan["records"]) == len(systems)
        assert scan["skipped"] == 0
        # records carry their worker's shard name; the reader merges
        # the per-shard segment files without any router copying
        by_shard = {r["shard"] for r in scan["records"]}
        assert by_shard <= {"shard-0", "shard-1"}
        from repro.metrics.fleet import fleet_rollup

        fleet = fleet_rollup(snaps)
        assert fleet["journal"]["shards"] == 2
        assert fleet["journal"]["records_written"] == len(systems)

    def test_cluster_without_journal_dir_writes_nothing(self, tmp_path):
        from repro.serve.cluster import ShardRouter

        system = lower_triangular_system(random_unit_lower(40, 0.1, seed=4))
        with ShardRouter(n_workers=1, execution="host") as router:
            key = router.register(system.L, name="m")
            router.submit(key, system.b, single=True).result(timeout=60.0)
            fleet = fleet_rollup_of(router)
        assert fleet["journal"]["shards"] == 0
        assert list(tmp_path.iterdir()) == []


def fleet_rollup_of(router):
    from repro.metrics.fleet import fleet_rollup

    return fleet_rollup(router.worker_snapshots())


class TestReplayJournaling:
    def test_replay_regenerates_a_journal(self, tmp_path):
        from repro.serve.replay import replay_file

        system = make_system(n=80, seed=9)
        trace = tmp_path / "trace.jsonl"

        async def record():
            engine = SolveEngine()
            engine.register(system.L, name="m")
            await asyncio.gather(
                *[engine.solve("m", system.b) for _ in range(3)]
            )
            engine.trace_log.write_jsonl(trace)
            await engine.close()

        run(record())
        journal_dir = tmp_path / "journal"
        report = replay_file(
            trace, execution="host", journal_dir=journal_dir
        )
        assert report.ok
        records = JournalReader(journal_dir).records(kind="solve")
        assert len(records) == 3
        assert all(r["shard"] == "replay" for r in records)
        # replayed journals are report-grade: same aggregator applies
        assert aggregate(records)["solves"] == 3
