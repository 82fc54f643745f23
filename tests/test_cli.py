"""CLI tests (argument parsing + command behaviour)."""

import numpy as np
import pytest

from repro.cli import EXPERIMENT_IDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_ids_cover_all_paper_artifacts(self):
        for required in ("table1", "table2", "table4", "table5", "table6",
                         "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                         "ablation"):
            assert required in EXPERIMENT_IDS

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.domain == "circuit"
        assert args.solver == "auto"

    _OUTPUTS = {"json": False, "openmetrics": False, "trace_log": None,
                "journal_dir": None}

    @pytest.mark.parametrize("argv,expected", [
        (["solve"], {"domain": "circuit", "n_rows": 2000, "seed": 0,
                     "device": "SimSmall"}),
        (["analyze"], {"matrix": None, "domain": None, "n_rows": 10000,
                       "seed": 0, "json": False}),
        (["profile"], {"matrix": None, "domain": None, "n_rows": 1000,
                       "seed": 0, "device": "SimSmall", "json": False}),
        (["serve-stats"], {"domain": "circuit", "n_rows": 800, "seed": 0,
                           "device": "SimSmall", "requests": 16, "rhs": 4,
                           "max_batch": 32, "execution": "auto",
                           **_OUTPUTS}),
        (["serve-cluster"], {"workers": 2, "matrices": 3,
                             "domain": "circuit", "n_rows": 400, "seed": 0,
                             "requests": 8, "rhs": 4, "max_batch": 32,
                             "execution": "host", "spans": False,
                             "slow_ms": None, **_OUTPUTS}),
        (["serve-top"], {"workers": 2, "matrices": 2, "domain": "circuit",
                         "n_rows": 250, "seed": 0, "requests": 4}),
        (["replay", "t.jsonl"], {"execution": "host", "workers": 0,
                                 "json": False, "journal_dir": None}),
        (["journal", "report", "d"], {"json": False}),
        (["check-interleavings"], {"json": False, "seed": 0}),
    ])
    def test_shared_option_defaults_per_verb(self, argv, expected):
        args = vars(build_parser().parse_args(argv))
        assert {k: args[k] for k in expected} == expected

    @pytest.mark.parametrize("argv", [
        ["analyze", "--matrix", "m.mtx", "--domain", "lp"],
        ["profile", "--matrix", "m.mtx", "--domain", "lp"],
    ])
    def test_matrix_and_domain_are_exclusive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_solve_named_solver(self, capsys):
        rc = main(["solve", "--domain", "circuit", "--n-rows", "300",
                   "--solver", "Capellini"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Capellini" in out
        assert "max error" in out

    def test_solve_auto_selection(self, capsys):
        rc = main(["solve", "--domain", "fem", "--n-rows", "200",
                   "--solver", "auto"])
        assert rc == 0
        assert "SyncFree" in capsys.readouterr().out

    def test_analyze_generated(self, capsys):
        rc = main(["analyze", "--domain", "lp", "--n-rows", "5000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta" in out and "recommended solver" in out

    def test_generate_then_analyze_file(self, tmp_path, capsys):
        path = str(tmp_path / "m.mtx")
        rc = main(["generate", "--domain", "circuit", "--n-rows", "400",
                   "--out", path])
        assert rc == 0
        rc = main(["analyze", "--matrix", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=400" in out

    def test_analyze_solver_naive_thread_reports_deadlock(self, capsys):
        # the acceptance scenario: intra-warp backward dependencies make
        # the naive thread kernel statically DEADLOCK, no simulation run
        rc = main(["analyze", "--solver", "naive-thread",
                   "--domain", "circuit", "--n-rows", "400"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DEADLOCK" in out
        assert "intra-warp-blocking-spin" in out

    def test_analyze_solver_capellini_is_safe(self, capsys):
        rc = main(["analyze", "--solver", "capellini",
                   "--domain", "circuit", "--n-rows", "400"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SAFE" in out and "DEADLOCK" not in out

    def test_analyze_solver_all_renders_full_table(self, capsys):
        rc = main(["analyze", "--solver", "all",
                   "--domain", "circuit", "--n-rows", "400"])
        out = capsys.readouterr().out
        assert rc == 1  # the table includes the naive kernel's DEADLOCK
        for name in ("NaiveThread", "Capellini", "SyncFree", "LevelSet"):
            assert name in out

    def test_analyze_solver_on_matrix_file(self, tmp_path, capsys):
        path = str(tmp_path / "m.mtx")
        assert main(["generate", "--domain", "circuit", "--n-rows", "300",
                     "--out", path]) == 0
        rc = main(["analyze", "--matrix", path, "--solver", "capellini"])
        assert rc == 0
        assert "SAFE" in capsys.readouterr().out

    def test_analyze_lint_clean(self, capsys):
        rc = main(["analyze", "--lint"])
        assert rc == 0
        assert "kernel lint: clean" in capsys.readouterr().out

    def test_analyze_default_domain(self, capsys):
        # --domain is optional now; the default matrix still analyzes
        rc = main(["analyze", "--n-rows", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "circuit" in out and "recommended solver" in out

    def test_experiments_list(self, capsys):
        rc = main(["experiments", "--list"])
        assert rc == 0
        assert "table4" in capsys.readouterr().out

    def test_experiments_unknown_id(self, capsys):
        rc = main(["experiments", "nope"])
        assert rc == 2

    def test_experiments_table2(self, capsys):
        rc = main(["experiments", "table2"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out


class TestAnalyzeJson:
    def test_analyze_json_schema(self, capsys):
        import json

        rc = main(["analyze", "--domain", "circuit", "--n-rows", "400",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)  # the human table is suppressed
        assert doc["matrix"] == "circuit"
        f = doc["features"]
        assert f["n_rows"] == 400
        for field in ("n_rows", "nnz", "granularity", "n_levels",
                      "avg_rows_per_level", "critical_path_length"):
            assert field in f
        assert doc["recommended_solver"] in ("Capellini", "SyncFree")

    def test_analyze_json_verdicts_and_exit_code(self, capsys):
        import json

        rc = main(["analyze", "--solver", "naive-thread",
                   "--domain", "circuit", "--n-rows", "400", "--json"])
        out = capsys.readouterr().out
        assert rc == 1  # non-SAFE verdict keeps the failing exit code
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert report["verdict"] == "DEADLOCK"
        assert report["certified"] is False
        assert any(
            h["kind"] == "intra-warp-blocking-spin"
            for h in report["hazards"]
        )
        assert report["edges"]["total"] > 0

    def test_analyze_json_with_lint(self, capsys):
        import json

        rc = main(["analyze", "--lint", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lint"]["count"] == 0


class TestServeStats:
    def test_serve_stats_happy_path(self, capsys):
        rc = main(["serve-stats", "--n-rows", "300", "--requests", "6",
                   "--rhs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache" in out
        assert "batch" in out
        assert "max error" in out

    def test_serve_stats_json(self, capsys):
        import json

        rc = main(["serve-stats", "--n-rows", "300", "--requests", "6",
                   "--rhs", "2", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        snap = doc["snapshot"]
        assert snap["requests"]["completed"] == 7  # 6 singles + 1 multi
        assert snap["registry"]["entries"] == 1
        assert snap["batches"]["width"]["max"] >= 2
        assert doc["max_error"] < 1e-8

    def test_serve_stats_renders_lane_counters(self, capsys):
        rc = main(["serve-stats", "--n-rows", "300", "--requests", "6",
                   "--rhs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lanes" in out
        assert "host" in out and "sim" in out

    def test_serve_stats_execution_host(self, capsys):
        import json

        rc = main(["serve-stats", "--n-rows", "300", "--requests", "6",
                   "--rhs", "2", "--execution", "host", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        lanes = doc["snapshot"]["lanes"]
        assert lanes["host"]["batches"] >= 1
        assert lanes["host"]["rhs"] >= 6
        assert lanes["sim"]["batches"] == 0
        assert doc["max_error"] < 1e-8

    def test_serve_stats_execution_sim(self, capsys):
        import json

        rc = main(["serve-stats", "--n-rows", "300", "--requests", "6",
                   "--rhs", "2", "--execution", "sim", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        lanes = doc["snapshot"]["lanes"]
        assert lanes["host"]["batches"] == 0
        assert lanes["sim"]["batches"] >= 1
        assert doc["snapshot"]["sim"]["cycles"] > 0
        assert doc["max_error"] < 1e-8


class TestJsonExport:
    def test_experiments_json_written(self, tmp_path, capsys):
        rc = main(["experiments", "table2", "--json", str(tmp_path)])
        assert rc == 0
        import json

        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["experiment_id"] == "table2"
        assert "rows" in payload["data"]

    def test_to_json_dict_handles_numpy(self):
        import json

        import numpy as np

        from repro.experiments.harness import ExperimentResult

        r = ExperimentResult(
            experiment_id="x",
            title="t",
            text="body",
            data={
                "arr": np.arange(3),
                "scalar": np.float64(1.5),
                "nan": float("nan"),
                "nested": {"obj": object()},
            },
        )
        payload = json.dumps(r.to_json_dict())
        assert '"arr": [0, 1, 2]' in payload


class TestProfileCommand:
    def test_profile_flame_summary(self, capsys):
        rc = main(["profile", "--solver", "writing_first",
                   "--domain", "circuit", "--n-rows", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase profile — Capellini" in out
        assert "spin-wait (cross-warp)" in out
        assert "max error" in out

    def test_profile_chrome_trace_is_loadable(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "trace.json")
        rc = main(["profile", "--solver", "writing_first",
                   "--domain", "circuit", "--n-rows", "300",
                   "--chrome-trace", path])
        assert rc == 0
        doc = json.loads(open(path).read())
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in kinds and "M" in kinds
        assert doc["otherData"]["solver"] == "Capellini"

    def test_profile_json_fractions_sum_to_one(self, capsys):
        import json

        rc = main(["profile", "--solver", "two_phase",
                   "--domain", "circuit", "--n-rows", "300", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["solver"] == "Capellini-TwoPhase"
        for launch in doc["launches"]:
            for w in launch["warps"]:
                assert abs(sum(w["fractions"].values()) - 1.0) <= 1e-9
        assert doc["max_error"] < 1e-8

    def test_profile_multi_launch_levelset(self, capsys):
        rc = main(["profile", "--solver", "levelset",
                   "--domain", "circuit", "--n-rows", "200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "launch(es)" in out

    def test_profile_unknown_solver(self, capsys):
        rc = main(["profile", "--solver", "definitely-not-a-solver",
                   "--domain", "circuit", "--n-rows", "100"])
        assert rc == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_profile_host_only_solver_rejected(self, capsys):
        rc = main(["profile", "--solver", "serial",
                   "--domain", "circuit", "--n-rows", "100"])
        assert rc == 2
        assert "does not run on the simulator" in capsys.readouterr().err


class TestAnalyzeTrace:
    def test_trace_renders_timeline(self, capsys):
        rc = main(["analyze", "--domain", "circuit", "--n-rows", "120",
                   "--solver", "syncfree", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warp timeline" in out
        assert "w0" in out

    def test_trace_json_carries_timeline(self, capsys):
        import json

        rc = main(["analyze", "--domain", "circuit", "--n-rows", "120",
                   "--solver", "writing_first", "--trace", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["trace"]["solver"] == "Capellini"
        assert doc["trace"]["events"] > 0
        assert "warp timeline" in doc["trace"]["timeline"]


class TestServeStatsTrace:
    def test_trace_log_written(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "events.jsonl")
        rc = main(["serve-stats", "--domain", "circuit", "--n-rows", "200",
                   "--requests", "4", "--rhs", "0", "--profile",
                   "--trace-log", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace" in out
        lines = [json.loads(line) for line in open(path)]
        assert lines[0] == {"schema": "tracelog/2"}
        events = lines[1:]
        kinds = {e["kind"] for e in events}
        assert {"enqueue", "launch", "publish"} <= kinds
        assert "batch" not in kinds  # the launch carries the batch
        host = [e for e in events
                if e["kind"] == "launch" and e["lane"] == "host"]
        assert host and all("profile" not in e for e in host)

    def test_snapshot_json_includes_trace_summary(self, capsys):
        import json

        rc = main(["serve-stats", "--domain", "circuit", "--n-rows", "200",
                   "--requests", "3", "--rhs", "0", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        trace = doc["snapshot"]["trace"]
        assert trace["emitted"] > 0
        assert trace["dropped"] == 0


class TestServeStatsOpenMetrics:
    def test_openmetrics_output(self, capsys):
        from repro.metrics.expo import parse_openmetrics

        rc = main(["serve-stats", "--domain", "circuit", "--n-rows", "200",
                   "--requests", "4", "--rhs", "0", "--openmetrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("# EOF\n")
        families = parse_openmetrics(out)
        assert families["repro_serve_requests"][
            "repro_serve_requests_total"
        ] == 4
        assert families["repro_serve_lane_batches"][
            'repro_serve_lane_batches_total{lane="host"}'
        ] >= 1
        assert "repro_serve_slo_error_budget_burn" in families
        assert "repro_serve_cache_hits" in families


class TestRegressCommand:
    def test_regress_help_lists_command(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["--help"])
        assert "regress" in capsys.readouterr().out

    def test_regress_clean_against_doctored_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        import repro.metrics.trajectory as trajectory

        doc = {
            "schema_version": 1,
            "device": "SimSmall",
            "results": [{
                "matrix": "m", "solver": "S", "sim_cycles": 10,
                "stats_cycles": 12, "instructions": 40, "launches": 1,
                "phases": {"compute": 1.0},
            }],
        }
        monkeypatch.setattr(
            trajectory, "run_suite", lambda matrices=None: doc
        )
        path = tmp_path / "BENCH_solvers.json"
        path.write_text(json.dumps(doc))
        rc = main(["regress", "--baseline", str(path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_regress_quick_against_committed_baseline(self, capsys):
        # the real thing, smallest matrix only: measures the suite and
        # diffs it against the repo's committed baseline
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[1] / "BENCH_solvers.json"
        rc = main(["regress", "--quick", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "within tolerance" in out


class TestServeLint:
    def test_analyze_serve_lint_clean(self, capsys):
        rc = main(["analyze", "--serve-lint"])
        assert rc == 0
        assert "serve lint: clean" in capsys.readouterr().out

    def test_analyze_both_lints_json(self, capsys):
        import json

        rc = main(["analyze", "--lint", "--serve-lint", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lint"]["count"] == 0
        assert doc["serve_lint"]["count"] == 0


class TestCheckInterleavings:
    def test_all_scenarios_pass(self, capsys):
        rc = main(["check-interleavings", "--scenario", "all",
                   "--schedules", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all invariants held" in out
        assert "[coalesce]" in out and "[timeout]" in out

    def test_systematic_mode_json(self, capsys):
        import json

        rc = main(["check-interleavings", "--scenario", "timeout",
                   "--mode", "systematic", "--schedules", "5", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["timeout"]["ok"] is True
        assert doc["timeout"]["mode"] == "systematic"

    def test_unknown_scenario_rejected(self, capsys):
        rc = main(["check-interleavings", "--scenario", "bogus"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestReplayCommand:
    def test_record_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        rc = main(["serve-stats", "--n-rows", "200", "--requests", "4",
                   "--rhs", "2", "--execution", "host",
                   "--trace-log", str(trace)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["replay", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "matches the recording" in out

    def test_replay_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "events.jsonl"
        main(["serve-stats", "--n-rows", "200", "--requests", "3",
              "--rhs", "0", "--execution", "host",
              "--trace-log", str(trace)])
        capsys.readouterr()
        rc = main(["replay", str(trace), "--json", "--speed", "8"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["recorded"]["total"] == 3
        assert doc["replayed"]["total"] == 3


class TestServeCluster:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-cluster"])
        assert args.workers == 2
        assert args.matrices == 3
        assert not args.chaos_kill

    def test_session_round_trip(self, capsys):
        rc = main([
            "serve-cluster", "--workers", "1", "--matrices", "2",
            "--n-rows", "150", "--requests", "2", "--rhs", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "workers       : 1" in out
        assert "leaked shm    : 0" in out

    def test_json_document(self, capsys):
        import json

        rc = main([
            "serve-cluster", "--workers", "1", "--matrices", "1",
            "--n-rows", "120", "--requests", "1", "--rhs", "0",
            "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["leaked_segments"] == []
        assert doc["max_error"] < 1e-8
        assert doc["snapshot"]["fleet"]["workers"] == 1

    def test_spans_prints_hop_table(self, capsys):
        rc = main([
            "serve-cluster", "--spans", "--workers", "2", "--matrices", "2",
            "--requests", "2", "--n-rows", "150",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hop" in out and "p50 ms" in out and "p99 ms" in out
        for hop in ("deserialize", "solve", "reply"):
            assert f"\n{hop} " in out
        assert "slow threshold: " in out and "(adaptive p95)" in out
        assert "exemplars     : " in out

    def test_spans_json_document(self, capsys):
        import json

        rc = main([
            "serve-cluster", "--spans", "--workers", "2", "--matrices", "2",
            "--requests", "2", "--n-rows", "150", "--slow-ms", "0",
            "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"deserialize", "solve", "reply"} <= set(doc["hops"])
        assert doc["spans"]["slow_threshold_ms"] == 0.0
        # every request is over a zero threshold: exemplars without
        # their span trees
        assert doc["exemplars"]
        assert all("spans" not in ex for ex in doc["exemplars"])
        assert doc["max_error"] < 1e-8
        assert doc["leaked_segments"] == []

    def test_serve_stats_spans_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-stats", "--spans"])
        assert exc.value.code == 2
        assert "--spans" in capsys.readouterr().err

    def test_serve_top_demo(self, capsys):
        rc = main([
            "serve-top", "--demo", "--iterations", "1", "--interval", "0",
            "--workers", "1", "--n-rows", "150",
        ])
        assert rc == 0
        assert capsys.readouterr().out

    def test_replay_workers_flag(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        rc = main([
            "serve-stats", "--n-rows", "150", "--requests", "3",
            "--rhs", "0", "--execution", "host",
            "--trace-log", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        rc = main([
            "replay", str(trace), "--workers", "1", "--speed", "1000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cluster of 1 worker(s)" in out


class TestJournalCLI:
    """serve-stats/replay --journal-dir and the journal verbs."""

    @staticmethod
    def fill(tmp_path, capsys, requests=6):
        rc = main([
            "serve-stats", "--n-rows", "200", "--requests",
            str(requests), "--rhs", "0", "--execution", "host",
            "--journal-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert rc == 0

    def test_serve_stats_journals_and_reports_health(self, tmp_path, capsys):
        rc = main([
            "serve-stats", "--n-rows", "200", "--requests", "4",
            "--rhs", "0", "--journal-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "journal       : 4 record(s)" in out
        assert list(tmp_path.glob("journal-serve-*.jsnl"))

    def test_tail_prints_jsonl(self, tmp_path, capsys):
        import json

        self.fill(tmp_path, capsys)
        rc = main(["journal", "tail", str(tmp_path), "-n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(li)["kind"] == "solve" for li in lines)

    def test_query_filters_by_lane(self, tmp_path, capsys):
        import json

        self.fill(tmp_path, capsys)
        rc = main(["journal", "query", str(tmp_path), "--lane", "host"])
        captured = capsys.readouterr()
        assert rc == 0
        assert all(
            json.loads(li)["lane"] == "host"
            for li in captured.out.strip().splitlines()
        )
        assert "skipped line(s)" in captured.err
        rc = main(["journal", "query", str(tmp_path), "--lane", "sim"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == ""

    def test_report_healthy_exit_zero_writes_nothing(self, tmp_path, capsys):
        import json

        self.fill(tmp_path, capsys)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["journal", "report", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recommended lane: level" in out
        # the report only reads the journal
        assert sorted(tmp_path.rglob("*")) == before
        rc = main(["journal", "report", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["recommendations"] == {"shallow-fine": "level"}

    def test_report_json_document(self, tmp_path, capsys):
        import json

        self.fill(tmp_path, capsys)
        rc = main(["journal", "report", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["schema"] == "efficacy/1"
        assert doc["anomalies"] == []

    def test_report_unreadable_journal_exits_two(self, tmp_path, capsys):
        rc = main(["journal", "report", str(tmp_path / "missing")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "journal:" in captured.err

    def test_report_anomaly_exits_one(self, tmp_path, capsys):
        from repro.obs.journal import JournalWriter

        with JournalWriter(tmp_path) as w:
            for i in range(5):
                w.record_event(
                    "solve", matrix="m", lane="host", latency_ms=1.0,
                    n_levels=10, granularity=0.5, ts=float(i),
                )
            w.record_event(
                "solve", matrix="m", lane="host", latency_ms=99.0,
                n_levels=10, granularity=0.5, ts=9.0,
            )
        rc = main(["journal", "report", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ANOMALY" in out

    def test_replay_journal_dir(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        rc = main([
            "serve-stats", "--n-rows", "150", "--requests", "3",
            "--rhs", "0", "--execution", "host",
            "--trace-log", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        journal_dir = tmp_path / "journal"
        rc = main([
            "replay", str(trace), "--journal-dir", str(journal_dir),
        ])
        capsys.readouterr()
        assert rc == 0
        rc = main(["journal", "query", str(journal_dir), "--kind", "solve"])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.strip().splitlines()) == 3

    def test_serve_stats_openmetrics_journal_families(self, tmp_path, capsys):
        rc = main([
            "serve-stats", "--n-rows", "150", "--requests", "2",
            "--rhs", "0", "--journal-dir", str(tmp_path),
            "--openmetrics",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro_serve_journal_records_written_total 2" in out
        assert "# TYPE repro_serve_journal_flush_lag_seconds gauge" in out
