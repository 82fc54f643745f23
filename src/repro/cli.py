"""Command-line interface.

Usage::

    repro-sptrsv experiments --list
    repro-sptrsv experiments table4 fig5 --n-matrices 36
    repro-sptrsv solve --domain circuit --n-rows 2000 --solver Capellini
    repro-sptrsv analyze --matrix path/to/file.mtx
    repro-sptrsv analyze --solver naive-thread --domain circuit --json
    repro-sptrsv analyze --solver syncfree --domain circuit --n-rows 200 --trace
    repro-sptrsv analyze --levels --domain circuit --n-rows 16000
    repro-sptrsv analyze --lint
    repro-sptrsv analyze --serve-lint
    repro-sptrsv check-interleavings --scenario all --schedules 50
    repro-sptrsv check-interleavings --scenario timeout --mode systematic
    repro-sptrsv replay events.jsonl --speed 10
    repro-sptrsv replay events.jsonl --wall --speed 30
    repro-sptrsv profile --solver writing_first --domain circuit --n-rows 600
    repro-sptrsv profile --solver two_phase --chrome-trace trace.json
    repro-sptrsv generate --domain lp --n-rows 5000 --out lp.mtx
    repro-sptrsv serve-stats --domain circuit --n-rows 800 --requests 16
    repro-sptrsv serve-stats --execution host --requests 32
    repro-sptrsv serve-stats --profile --trace-log events.jsonl
    repro-sptrsv serve-stats --openmetrics
    repro-sptrsv serve-cluster --spans --workers 2 --matrices 2 --requests 8
    repro-sptrsv serve-cluster --workers 2 --matrices 3 --requests 8
    repro-sptrsv serve-cluster --workers 2 --chaos-kill --openmetrics
    repro-sptrsv serve-cluster --chrome-trace fleet.json --trace-log fleet.jsonl
    repro-sptrsv serve-top --demo --iterations 3
    repro-sptrsv serve-top --url http://127.0.0.1:9100/metrics
    repro-sptrsv replay events.jsonl --workers 2
    repro-sptrsv serve-stats --journal-dir /tmp/journal --requests 32
    repro-sptrsv serve-cluster --workers 2 --journal-dir /tmp/journal
    repro-sptrsv journal tail /tmp/journal -n 5
    repro-sptrsv journal query /tmp/journal --lane host
    repro-sptrsv journal report /tmp/journal
    repro-sptrsv regress
    repro-sptrsv regress --quick --cycles-tol 0.01
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

#: experiment-id -> module name under repro.experiments
EXPERIMENT_IDS = (
    "table1",
    "table2",
    "fig2",
    "fig3",
    "table4",
    "fig4",
    "fig5",
    "table5",
    "fig6",
    "fig7",
    "fig8",
    "table6",
    "ablation",
    "amortization",
)

_SOLVERS: dict[str, Callable] = {}


def _solver_registry() -> dict[str, Callable]:
    if not _SOLVERS:
        from repro import solvers

        _SOLVERS.update(
            {
                "Serial": solvers.SerialReferenceSolver,
                "LevelSet": solvers.LevelSetSolver,
                "SyncFree": solvers.SyncFreeSolver,
                "cuSPARSE": solvers.CuSparseProxySolver,
                "Capellini": solvers.WritingFirstCapelliniSolver,
                "Capellini-TwoPhase": solvers.TwoPhaseCapelliniSolver,
                "Adaptive": solvers.AdaptiveCapelliniSolver,
                "auto": None,  # granularity-driven selection
            }
        )
    return _SOLVERS


#: schedule-policy key -> simulator-backed solver class name (for the
#: ``profile`` and ``analyze --trace`` commands, which accept the same
#: spellings as the static verifier: writing_first, two_phase, ...)
_POLICY_SOLVER_NAMES = {
    "naive-thread": "NaiveThreadSolver",
    "capellini": "WritingFirstCapelliniSolver",
    "capellini-two-phase": "TwoPhaseCapelliniSolver",
    "syncfree": "SyncFreeSolver",
    "syncfree-csc": "SyncFreeCSCSolver",
    "adaptive": "AdaptiveCapelliniSolver",
    "levelset": "LevelSetSolver",
}


def _resolve_sim_solver(name: str, L):
    """Solver instance for simulator-backed commands.

    Returns ``(solver, None)`` or ``(None, error_message)``.  ``auto``
    delegates to granularity selection; anything else goes through
    :func:`repro.analysis.schedule.resolve_policy`, so every alias the
    static verifier accepts works here too.
    """
    from repro import solvers

    if name == "auto":
        return solvers.select_solver(L), None
    from repro.analysis.schedule import resolve_policy

    try:
        key = resolve_policy(name).key
    except Exception as exc:  # unknown policy name
        return None, f"unknown solver {name!r}: {exc}"
    cls_name = _POLICY_SOLVER_NAMES.get(key)
    if cls_name is None:
        return None, (
            f"solver {name!r} (policy {key!r}) does not run on the "
            "simulator; choose one of: "
            + ", ".join(sorted(_POLICY_SOLVER_NAMES)) + ", auto"
        )
    return getattr(solvers, cls_name)(), None


#: every option more than one verb takes, declared once; a verb adds the
#: ones it takes with :func:`_options`, which also sets its defaults
_OPTIONS: dict[str, dict] = {
    "--matrix": dict(default=None, help="Matrix Market file to load"),
    "--domain": dict(default="circuit",
                     help="generate a matrix of this domain "
                     "(default: circuit)"),
    "--n-rows": dict(type=int, help="rows of the generated matrix "
                     "(default: %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="generator seed (matrix i of a cluster session "
                   "uses seed + i)"),
    "--device": dict(default="SimSmall", choices=["SimSmall", "SimTiny"],
                     help="simulated GPU"),
    "--requests": dict(type=int,
                       help="single-RHS solves fired per matrix "
                       "(concurrently into one engine, pipelined through "
                       "a cluster, or per refresh for serve-top --demo; "
                       "default: %(default)s)"),
    "--rhs": dict(type=int, default=4,
                  help="width of the one multi-RHS solve per matrix "
                  "(0 to skip)"),
    "--max-batch": dict(type=int, default=32,
                        help="widest coalesced batch an engine launches"),
    "--execution": dict(choices=["auto", "host", "sim"],
                        help="execution lane: 'host' runs the registry's "
                        "plan (one SuperLU sweep for deep-and-skinny "
                        "matrices, per-level otherwise), 'sim' the "
                        "cycle-level simulator, 'auto' the host lane with "
                        "a simulator fallback (default: %(default)s)"),
    "--workers": dict(type=int, default=2,
                      help="shard worker processes to spawn (default: "
                      "%(default)s; replay: 0 replays through one "
                      "in-process engine instead, and a cluster replay is "
                      "always wall-paced)"),
    "--matrices": dict(type=int,
                       help="distinct matrices to register (sharded by "
                       "content fingerprint; default: %(default)s)"),
    "--json": dict(action="store_true",
                   help="emit the result as one JSON document on stdout"),
    "--openmetrics": dict(action="store_true",
                          help="print the telemetry (a cluster's fleet "
                          "roll-up) in OpenMetrics/Prometheus text format "
                          "instead of the snapshot"),
    "--trace-log": dict(metavar="PATH", default=None,
                        help="write the session's structured event log "
                        "(tracelog/2 JSONL) to PATH: the engine's "
                        "enqueue/launch/publish events, or in a cluster "
                        "the router spans merged with every worker's log; "
                        "each publish event is the request's solve record "
                        "with its four wall-clock phases"),
    "--journal-dir": dict(metavar="DIR", default=None,
                          help="journal every solve (checksummed JSONL "
                          "segments, one series per shard worker in a "
                          "cluster) into DIR; inspect with 'repro-sptrsv "
                          "journal'"),
}
_MATRIX = ("--domain", "--n-rows", "--seed")
_SESSION = ("--requests", "--rhs", "--max-batch", "--execution")
_OUTPUTS = ("--json", "--openmetrics", "--trace-log", "--journal-dir")


def _options(p: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add the shared ``flags`` to ``p`` with this verb's ``defaults``.

    ``--matrix`` and ``--domain`` are two sources of one input, so a
    verb that takes both gets them as mutually exclusive.
    """
    source = p.add_mutually_exclusive_group() if "--matrix" in flags else p
    for flag in flags:
        target = source if flag in ("--matrix", "--domain") else p
        target.add_argument(flag, **_OPTIONS[flag])
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sptrsv",
        description="CapelliniSpTRSV reproduction: solvers, analysis and "
        "paper experiments on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.set_defaults(func=_cmd_experiments)
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--list", action="store_true", help="list experiment ids")
    p_exp.add_argument("--n-matrices", type=int, default=None,
                       help="suite size for the sweep experiments")
    p_exp.add_argument("--scale", type=float, default=0.5,
                       help="stand-in matrix scale for cycle-sim experiments")
    p_exp.add_argument("--json", metavar="DIR", default=None,
                       help="also write each result as JSON into DIR")

    p_solve = sub.add_parser("solve", help="solve one generated system")
    _options(p_solve, *_MATRIX, "--device", n_rows=2000, func=_cmd_solve)
    p_solve.add_argument("--solver", default="auto",
                         choices=sorted(_solver_registry()))

    p_an = sub.add_parser(
        "analyze",
        help="level/granularity analysis, static schedule verification "
        "and kernel lint",
    )
    _options(p_an, "--matrix", *_MATRIX, "--json", n_rows=10000,
             domain=None, func=_cmd_analyze)
    p_an.add_argument("--solver", default=None, metavar="NAME",
                      help="statically verify deadlock-freedom of NAME "
                      "(e.g. naive-thread, capellini, syncfree) on the "
                      "matrix; 'all' checks every solver family")
    p_an.add_argument("--levels", action="store_true",
                      help="level-structure view: schedule depth, "
                      "level-width histogram, Eq. 1 granularity against "
                      "the paper's threshold, the schedule variant the "
                      "serve tier would pick, and a level-merge preview "
                      "(merged depth, redundant-work ratio)")
    p_an.add_argument("--lint", action="store_true",
                      help="run the kernel lint over repro.solvers "
                      "(no matrix needed)")
    p_an.add_argument("--serve-lint", action="store_true",
                      help="run the async-hazard lint (SL001-SL005) over "
                      "repro.serve (no matrix needed)")
    p_an.add_argument("--trace", action="store_true",
                      help="run --solver (default: auto) on the simulator "
                      "with the warp tracer attached and render the "
                      "ASCII timeline (use small --n-rows)")

    p_prof = sub.add_parser(
        "profile",
        help="cycle-level phase attribution of one simulated solve: "
        "flame summary, Chrome/Perfetto trace, JSON report",
    )
    _options(p_prof, "--matrix", *_MATRIX, "--device", "--json",
             n_rows=1000, domain=None, func=_cmd_profile)
    p_prof.add_argument("--solver", default="auto",
                        help="solver/policy name (writing_first, "
                        "two_phase, syncfree, syncfree_csc, levelset, "
                        "adaptive, naive_thread or auto)")
    p_prof.add_argument("--chrome-trace", metavar="PATH", default=None,
                        help="write a Perfetto-loadable trace "
                        "(chrome://tracing / ui.perfetto.dev) to PATH")
    p_prof.add_argument("--top", type=int, default=8,
                        help="wait-heavy warps/levels to list")

    p_srv = sub.add_parser(
        "serve-stats",
        help="run a synthetic serving session through repro.serve and "
        "print the telemetry snapshot",
    )
    _options(p_srv, *_MATRIX, "--device", *_SESSION, *_OUTPUTS,
             n_rows=800, requests=16, execution="auto",
             func=_cmd_serve_stats)
    p_srv.add_argument("--profile", action="store_true",
                       help="attach the per-lane profiler: every launch "
                       "event in the trace log carries a phase digest "
                       "(wall-clock gather/reduce/scatter on the host "
                       "lane, cycle phases on the simulator lane)")

    p_cl = sub.add_parser(
        "serve-cluster",
        help="run a synthetic session through the multi-process sharded "
        "serve tier (ShardRouter + shard workers, zero-copy plans) and "
        "print the fleet snapshot",
    )
    _options(p_cl, "--workers", "--matrices", *_MATRIX, *_SESSION,
             *_OUTPUTS, matrices=3, n_rows=400, requests=8,
             execution="host", func=_cmd_serve_cluster)
    p_cl.add_argument("--chaos-kill", action="store_true",
                      help="SIGKILL one worker mid-session and verify "
                      "the router respawns it and answers stay correct")
    p_cl.add_argument("--timeout", type=float, default=60.0,
                      help="per-request deadline (s)")
    p_cl.add_argument("--chrome-trace", metavar="PATH", default=None,
                      help="write the session's distributed spans as one "
                      "multi-process Chrome/Perfetto trace (one pid row "
                      "per worker, flow arrows router->worker) to PATH")
    p_cl.add_argument("--spans", action="store_true",
                      help="also print per-hop latency attribution "
                      "(p50/p99 per hop: router enqueue/send, worker "
                      "deserialize/plan/solve/reply) plus the captured "
                      "slow-request exemplars")
    p_cl.add_argument("--slow-ms", type=float, default=None,
                      help="explicit slow-request threshold for exemplar "
                      "capture (default: adaptive p95 of root durations)")

    p_top = sub.add_parser(
        "serve-top",
        help="live terminal dashboard over a fleet OpenMetrics "
        "exposition ('top' for the sharded serve tier)",
    )
    _options(p_top, "--workers", "--matrices", *_MATRIX, "--requests",
             matrices=2, n_rows=250, requests=4, func=_cmd_serve_top)
    p_top.add_argument("--url", default=None,
                       help="scrape this /metrics endpoint (e.g. an "
                       "OpenMetricsExporter in front of a router)")
    p_top.add_argument("--demo", action="store_true",
                       help="spawn a small in-process demo cluster and "
                       "dashboard it (no endpoint needed)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0,
                       help="frames to render before exiting "
                       "(0 = until interrupted)")

    p_reg = sub.add_parser(
        "regress",
        help="perf-regression sentinel: re-run the deterministic "
        "trajectory suite and diff it against the committed "
        "BENCH_solvers.json (exit 1 on regressions)",
    )
    from repro.metrics.regression import add_arguments as _regress_args
    from repro.metrics.regression import run as _regress_run

    _regress_args(p_reg)
    p_reg.set_defaults(func=_regress_run)

    p_il = sub.add_parser(
        "check-interleavings",
        help="run the serve-engine scenarios under the deterministic "
        "interleaving explorer (seeded, replayable schedules); exit 1 "
        "on any invariant violation or hang, printing the minimal "
        "reproducing schedule",
    )
    _options(p_il, "--json", func=_cmd_check_interleavings)
    p_il.add_argument("--scenario", default="all",
                      help="scenario name or 'all' (see repro.serve."
                      "scenarios.SCENARIOS)")
    p_il.add_argument("--schedules", type=int, default=25,
                      help="schedules to explore per scenario")
    p_il.add_argument("--seed", type=int, default=0,
                      help="base seed (random mode explores seeds "
                      "seed..seed+schedules-1)")
    p_il.add_argument("--mode", default="random",
                      choices=["random", "systematic"],
                      help="'random': independent seeded schedules; "
                      "'systematic': bounded breadth-first enumeration "
                      "of decision prefixes")

    p_rep = sub.add_parser(
        "replay",
        help="feed a recorded trace-log JSONL back through a solve "
        "engine and check the replayed telemetry against the recording",
    )
    _options(p_rep, "--execution", "--workers", "--json", "--journal-dir",
             execution="host", workers=0, func=_cmd_replay)
    p_rep.add_argument("trace", help="TraceLog JSONL file (e.g. from "
                       "serve-stats --trace-log)")
    p_rep.add_argument("--speed", type=float, default=1.0,
                       help="inter-arrival speed multiplier (wall mode)")
    p_rep.add_argument("--wall", action="store_true",
                       help="pace arrivals in real time (scaled by "
                       "--speed) instead of the default virtual clock")
    p_rep.add_argument("--n", type=int, default=32,
                       help="rows of the stand-in matrices")
    p_rep.add_argument("--batch-window", type=float, default=0.0,
                       help="replay engine's coalescing window (s)")

    p_j = sub.add_parser(
        "journal",
        help="inspect a solve journal: tail recent records, query by "
        "matrix/lane/kind, or build the lane-efficacy report",
    )
    p_j.set_defaults(func=_cmd_journal)
    jsub = p_j.add_subparsers(dest="verb", required=True)
    j_tail = jsub.add_parser("tail", help="print the newest records")
    j_tail.add_argument("dir", help="journal directory")
    j_tail.add_argument("-n", type=int, default=10,
                        help="records to print (newest last)")
    j_query = jsub.add_parser("query", help="filter solve records")
    j_query.add_argument("dir", help="journal directory")
    j_query.add_argument("--kind", default=None,
                         help="record kind (solve, incident, ...)")
    j_query.add_argument("--matrix", default=None,
                         help="matrix fingerprint (prefix match)")
    j_query.add_argument("--lane", default=None,
                         choices=["host", "sim"])
    j_query.add_argument("--limit", type=int, default=0,
                         help="cap printed records (0 = all)")
    j_report = jsub.add_parser(
        "report",
        help="lane-efficacy analytics: per-granularity-class lane "
        "win-rates, latency percentiles, recommended-lane table, EWMA "
        "latency anomalies; exits 0 healthy / 1 anomalies / 2 "
        "unreadable journal",
    )
    _options(j_report, "--json")
    j_report.add_argument("dir", help="journal directory")
    j_report.add_argument("--min-samples", type=int, default=None,
                          help="samples a lane needs per class before "
                          "it can be recommended")
    j_report.add_argument("--out", metavar="PATH", default=None,
                          help="write the recommended-lane artifact "
                          "here (default: DIR/lane_recommendations."
                          "json)")

    p_gen = sub.add_parser("generate", help="write a synthetic matrix to .mtx")
    p_gen.set_defaults(func=_cmd_generate)
    p_gen.add_argument("--domain", required=True)
    p_gen.add_argument("--n-rows", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def _device(args):
    """The simulated device ``--device`` names."""
    from repro.gpu.device import SIM_SMALL, SIM_TINY

    return SIM_SMALL if args.device == "SimSmall" else SIM_TINY


def _load_matrix(args):
    """``(L, name)``: the ``--matrix`` file when the verb takes one and it
    is given, else a generated ``--domain`` matrix (circuit by default)."""
    if getattr(args, "matrix", None):
        from repro.sparse import make_unit_lower_triangular, read_matrix_market

        return (
            make_unit_lower_triangular(read_matrix_market(args.matrix)),
            args.matrix,
        )
    from repro.datasets import generate

    domain = args.domain or "circuit"
    return generate(domain, args.n_rows, args.seed), domain


def _block(system, k: int):
    """``(B, X)``: a ``k``-wide right-hand side (column ``r`` is
    ``(r + 1) * b``) and its manufactured solution."""
    scale = np.arange(1.0, k + 1.0)
    return np.outer(system.b, scale), np.outer(system.x_true, scale)


def _max_error(x, truth) -> float:
    return float(np.max(np.abs(x - truth)))


def _cluster_systems(router, args, prefix: str):
    """Register ``--matrices`` synthetic systems (seeds ``--seed + i``)
    with ``router``; returns ``(keys, systems)``."""
    from repro.datasets import generate
    from repro.sparse import lower_triangular_system

    systems = [
        lower_triangular_system(
            generate(args.domain, args.n_rows, args.seed + i)
        )
        for i in range(max(args.matrices, 1))
    ]
    keys = [
        router.register(s.L, name=f"{prefix}-{i}")
        for i, s in enumerate(systems)
    ]
    return keys, systems


def _fire(router, keys, systems, requests: int, rhs: int) -> list:
    """Pipeline ``requests`` single-RHS solves and one ``rhs``-wide block
    (if ``rhs > 0``) per matrix; returns ``(future, truth)`` pairs."""
    futs = []
    for key, s in zip(keys, systems):
        for _ in range(max(requests, 0)):
            futs.append((router.submit(key, s.b, single=True), s.x_true))
        if rhs > 0:
            B, X_true = _block(s, rhs)
            futs.append((router.submit(key, B), X_true))
    return futs


def _verify(futs: list, timeout: float, *, tolerate=()) -> tuple[float, int]:
    """Wait for every ``(future, truth)`` pair; returns the worst error
    and how many futures raised one of the ``tolerate`` errors."""
    worst, lost = 0.0, 0
    for fut, truth in futs:
        try:
            resp = fut.result(timeout=timeout)
        except tolerate:
            lost += 1
            continue
        worst = max(worst, _max_error(resp.x, truth))
    return worst, lost


def _cmd_experiments(args) -> int:
    import importlib

    if args.list:
        print("\n".join(EXPERIMENT_IDS))
        return 0
    ids = args.ids or list(EXPERIMENT_IDS)
    unknown = [i for i in ids if i not in EXPERIMENT_IDS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for exp_id in ids:
        module = importlib.import_module(f"repro.experiments.{exp_id}")
        kwargs = {}
        import inspect

        params = inspect.signature(module.run).parameters
        if args.n_matrices is not None and "n_matrices" in params:
            kwargs["n_matrices"] = args.n_matrices
        if "scale" in params:
            kwargs["scale"] = args.scale
        result = module.run(**kwargs)
        print(result.text)
        print()
        if args.json:
            import json
            from pathlib import Path

            out_dir = Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{result.experiment_id}.json"
            path.write_text(json.dumps(result.to_json_dict(), indent=2))
    return 0


def _cmd_solve(args) -> int:
    from repro.solvers import select_solver
    from repro.sparse import lower_triangular_system

    L, name = _load_matrix(args)
    system = lower_triangular_system(L)
    solver_cls = _solver_registry()[args.solver]
    solver = select_solver(L) if solver_cls is None else solver_cls()
    result = solver.solve(system.L, system.b, device=_device(args))
    err = _max_error(result.x, system.x_true)
    print(f"solver    : {result.solver_name}")
    print(f"matrix    : {name}, n={L.n_rows}, nnz={L.nnz}")
    print(f"exec (sim): {result.exec_ms:.4f} ms "
          f"({result.gflops(L):.3f} GFLOPS)")
    print(f"preprocess: {result.preprocess.modeled_ms:.4f} ms modeled — "
          f"{result.preprocess.description}")
    if result.stats:
        s = result.stats
        print(f"instr     : {s.total_instructions} "
              f"(stall {s.stall_fraction:.1%}, "
              f"lane util {s.lane_utilization:.1%})")
    print(f"max error : {err:.3e}")
    return 0 if err < 1e-8 else 1


def _features_json(f) -> dict:
    return {
        "n_rows": f.n_rows,
        "nnz": f.nnz,
        "avg_nnz_per_row": f.avg_nnz_per_row,
        "max_nnz_per_row": f.max_nnz_per_row,
        "n_levels": f.n_levels,
        "avg_rows_per_level": f.avg_rows_per_level,
        "max_level_width": f.max_level_width,
        "granularity": f.granularity,
        "critical_path_length": f.critical_path_length,
    }


def _report_json(r) -> dict:
    return {
        "solver": r.policy.solver_name,
        "policy": r.policy.key,
        "wait": r.policy.wait,
        "verdict": r.verdict,
        "certified": r.certified,
        "hazards": [
            {
                "kind": h.kind,
                "severity": h.severity,
                "message": h.message,
            }
            for h in r.hazards
        ],
        "notes": list(r.notes),
        "edges": {
            "total": r.edges.n_edges,
            "cross_warp": r.edges.cross_warp,
            "intra_warp_backward": r.edges.intra_warp_backward,
            "intra_warp_forward": r.edges.intra_warp_forward,
            "max_intra_warp_chain": r.edges.max_intra_warp_chain,
        },
        "n_levels": r.n_levels,
        "granularity": r.granularity,
    }


def _lint_doc(label: str, findings: list, emit) -> dict:
    """Print one lint's findings and summary; returns its JSON fragment."""
    for finding in findings:
        emit(finding.format())
    emit(f"{label}: {len(findings)} finding(s)" if findings
         else f"{label}: clean")
    return {
        "count": len(findings),
        "findings": [f.to_json_dict() for f in findings],
    }


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis import extract_features

    doc: dict = {}
    emit = (lambda *a, **k: None) if args.json else print
    if args.lint:
        from repro.analysis.lint import lint_paths, solver_package_paths

        doc["lint"] = _lint_doc(
            "kernel lint", lint_paths(solver_package_paths()), emit
        )
    if args.serve_lint:
        from repro.analysis.asynclint import lint_paths, serve_package_paths

        doc["serve_lint"] = _lint_doc(
            "serve lint", lint_paths(serve_package_paths()), emit
        )
    rc = 1 if any(lint["count"] for lint in doc.values()) else 0
    if args.lint or args.serve_lint:
        if args.matrix is None and args.domain is None and args.solver is None:
            if args.json:
                print(json.dumps(doc, indent=2))
            return rc

    L, name = _load_matrix(args)
    f = extract_features(L)
    emit(f"{name}: {f.summary()}")
    doc["matrix"] = name
    doc["features"] = _features_json(f)

    if args.levels:
        doc["levels"] = _analyze_levels_view(L, f, emit)

    if args.trace:
        from repro.errors import DeadlockError, SolverError
        from repro.gpu.device import SIM_SMALL
        from repro.gpu.trace import Tracer, render_timeline
        from repro.solvers._sim import tracing
        from repro.sparse import lower_triangular_system

        solver, err_msg = _resolve_sim_solver(args.solver or "auto", L)
        if solver is None:
            print(err_msg, file=sys.stderr)
            return 2
        system = lower_triangular_system(L)
        tracer = Tracer()
        try:
            with tracing(tracer):
                solver.solve(system.L, system.b, device=SIM_SMALL)
        except (DeadlockError, SolverError) as exc:
            # still render: the frozen timeline is the diagnosis
            emit(f"traced solve failed: {exc}")
            rc = max(rc, 1)
        timeline = render_timeline(tracer)
        emit()
        emit(timeline)
        doc["trace"] = {
            "solver": solver.name,
            "events": len(tracer.events),
            "timeline": timeline,
        }
    elif args.solver:
        from repro.analysis.schedule import (
            render_verdict_table,
            verify_all,
            verify_schedule,
        )

        if args.solver.lower() == "all":
            reports = verify_all(L)
        else:
            reports = [verify_schedule(L, args.solver)]
        emit()
        emit(render_verdict_table(reports, title=f"schedule verification — {name}"))
        doc["reports"] = [_report_json(r) for r in reports]
        if any(r.verdict != "SAFE" for r in reports):
            rc = max(rc, 1)
    elif not args.levels:
        from repro.solvers import select_solver

        recommended = select_solver(f).name
        emit(f"recommended solver: {recommended}")
        doc["recommended_solver"] = recommended
    if args.json:
        print(json.dumps(doc, indent=2))
    return rc


def _analyze_levels_view(L, f, emit) -> dict:
    """Render the ``analyze --levels`` view; returns the JSON fragment.

    Three panels: the level-width histogram (how skinny is the DAG?),
    the Eq. 1 granularity indicator against the paper's threshold with
    the schedule variant the serve tier would pick, and a preview of
    what :func:`~repro.analysis.levels.merge_levels` would do with
    default knobs — merged depth and the redundant-work ratio the merge
    would pay for fewer barriers.
    """
    from repro.analysis.granularity import HIGH_GRANULARITY_THRESHOLD
    from repro.analysis.levels import compute_levels, merge_levels
    from repro.solvers.compiled import DEEP_LEVEL_COUNT, pick_schedule

    schedule = compute_levels(L)
    widths = schedule.level_sizes()
    merged = merge_levels(L, schedule)

    # power-of-two width buckets: [1], [2,3], [4,7], ... up to max width
    buckets = []
    lo = 1
    max_w = int(widths.max()) if len(widths) else 0
    while lo <= max_w:
        hi = lo * 2
        count = int(np.sum((widths >= lo) & (widths < hi)))
        buckets.append({"lo": lo, "hi": hi - 1, "levels": count})
        lo = hi

    deep = schedule.n_levels >= DEEP_LEVEL_COUNT
    fine = f.granularity <= HIGH_GRANULARITY_THRESHOLD
    variant = pick_schedule(f)
    barrier_ratio = (
        schedule.n_levels / merged.n_levels if merged.n_levels else 1.0
    )
    redundant_pct = (
        100.0 * merged.redundant_nnz / merged.direct_nnz
        if merged.direct_nnz
        else 0.0
    )

    emit()
    emit(f"level structure: {schedule.n_levels} level(s), "
         f"{schedule.n_rows} rows, "
         f"max width {max_w}, beta(rows/level) "
         f"{schedule.avg_rows_per_level():.2f}")
    emit("width histogram (levels per power-of-two width bucket):")
    peak = max((b["levels"] for b in buckets), default=1)
    for b in buckets:
        label = (str(b["lo"]) if b["lo"] == b["hi"]
                 else f"{b['lo']}-{b['hi']}")
        bar = "#" * max(1, round(40 * b["levels"] / peak)) \
            if b["levels"] else ""
        emit(f"  {label:>11} {b['levels']:>7}  {bar}")
    emit(f"granularity    : delta={f.granularity:.3f} "
         f"({'<=' if fine else '>'} threshold "
         f"{HIGH_GRANULARITY_THRESHOLD}) -> "
         f"{'fine-grained' if fine else 'coarse-grained'}")
    emit(f"depth          : {schedule.n_levels} "
         f"({'>=' if deep else '<'} deep cutoff {DEEP_LEVEL_COUNT})")
    emit(f"schedule       : {variant}")
    emit(f"merge preview  : {merged.n_levels} merged level(s) "
         f"({barrier_ratio:.1f}x fewer barriers), "
         f"redundant nnz {merged.redundant_nnz} "
         f"(+{redundant_pct:.1f}% over direct {merged.direct_nnz})")
    return {
        "n_levels": schedule.n_levels,
        "max_width": max_w,
        "avg_rows_per_level": schedule.avg_rows_per_level(),
        "width_histogram": buckets,
        "granularity": f.granularity,
        "granularity_threshold": HIGH_GRANULARITY_THRESHOLD,
        "deep_level_count": DEEP_LEVEL_COUNT,
        "schedule": variant,
        "merged": {
            "n_levels": merged.n_levels,
            "n_groups": len(merged.group_sizes()),
            "direct_nnz": merged.direct_nnz,
            "expanded_nnz": merged.expanded_nnz,
            "redundant_nnz": merged.redundant_nnz,
            "barrier_reduction": barrier_ratio,
        },
    }


def _cmd_profile(args) -> int:
    """Profile one simulated solve: where do the cycles go?

    Runs the chosen solver under :func:`repro.obs.profile_solve` (the
    profiled solve is bit-identical to an unprofiled one), verifies the
    answer against the manufactured solution, then renders the phase
    attribution — terminal flame summary by default, ``--json`` for the
    full machine-readable report, ``--chrome-trace`` for a
    Perfetto-loadable per-warp timeline.
    """
    import json

    from repro.analysis import extract_features
    from repro.errors import DeadlockError, SolverError
    from repro.obs import (
        profile_json,
        profile_solve,
        render_flame,
        write_chrome_trace,
    )
    from repro.sparse import lower_triangular_system

    device = _device(args)
    L, name = _load_matrix(args)
    system = lower_triangular_system(L)
    solver, err_msg = _resolve_sim_solver(args.solver, system.L)
    if solver is None:
        print(err_msg, file=sys.stderr)
        return 2
    try:
        result, prof = profile_solve(
            solver, system.L, system.b, device=device
        )
    except (DeadlockError, SolverError) as exc:
        print(f"profiled solve failed: {exc}", file=sys.stderr)
        return 1
    err = _max_error(result.x, system.x_true)

    # level attribution holds only for single-launch kernels with a
    # static row->warp mapping (LevelSet re-numbers warps per launch)
    level_of_row = None
    rows_per_warp = None
    if len(prof.launches) == 1:
        gran = getattr(solver, "processing_granularity", "")
        if gran == "thread":
            rows_per_warp = device.warp_size
        elif gran == "warp":
            rows_per_warp = 1
        if rows_per_warp is not None:
            level_of_row = extract_features(system.L).schedule.level_of_row

    if args.chrome_trace:
        write_chrome_trace(prof, args.chrome_trace)
    if args.json:
        doc = profile_json(
            prof, level_of_row=level_of_row, rows_per_warp=rows_per_warp
        )
        doc["matrix"] = {"name": name, "n_rows": L.n_rows, "nnz": L.nnz}
        doc["max_error"] = err
        print(json.dumps(doc, indent=2))
    else:
        print(
            render_flame(
                prof,
                top=args.top,
                level_of_row=level_of_row,
                rows_per_warp=rows_per_warp,
            )
        )
        print()
        if result.stats is not None:
            print(f"stats     : {result.stats.cycles} cycles "
                  f"(incl. modeled overheads), "
                  f"{result.stats.total_instructions} instr")
        print(f"exec (sim): {result.exec_ms:.4f} ms")
        print(f"max error : {err:.3e}")
        if args.chrome_trace:
            print(f"chrome trace -> {args.chrome_trace} "
                  "(load in ui.perfetto.dev or chrome://tracing)")
    return 0 if err < 1e-8 else 1


def _cmd_serve_stats(args) -> int:
    """Drive a short serving session and print its telemetry snapshot.

    Registers one synthetic matrix with the serve layer, fires
    ``--requests`` concurrent single-RHS solves (they coalesce into
    batched SpTRSM launches) plus one ``--rhs``-wide multi-RHS solve,
    verifies every answer against the manufactured solution, and prints
    the engine snapshot — the same dict the programmatic
    ``SolveEngine.snapshot()`` API returns.
    """
    import asyncio
    import json

    from repro.serve import SolveEngine
    from repro.sparse import lower_triangular_system

    L, _ = _load_matrix(args)
    system = lower_triangular_system(L)

    async def session() -> tuple[dict, float, str | None]:
        journal = None
        if args.journal_dir:
            from repro.obs.journal import JournalWriter

            journal = JournalWriter(args.journal_dir, shard="serve")
        engine = SolveEngine(
            device=_device(args), max_batch=args.max_batch,
            profile=args.profile, execution=args.execution, journal=journal,
        )
        engine.register(system.L, name="cli-demo")
        responses = await asyncio.gather(
            *[engine.solve("cli-demo", system.b)
              for _ in range(max(args.requests, 0))]
        )
        err = max(
            (_max_error(r.x, system.x_true) for r in responses),
            default=0.0,
        )
        if args.rhs > 0:
            B, X_true = _block(system, args.rhs)
            multi = await engine.solve_multi("cli-demo", B)
            err = max(err, _max_error(multi.x, X_true))
        snap = engine.snapshot()
        om = None
        if args.openmetrics:
            from repro.metrics.expo import render_openmetrics

            om = render_openmetrics(
                engine.telemetry, cache=engine.registry.stats(),
                journal=journal.stats() if journal is not None else None,
            )
        if args.trace_log:
            engine.trace_log.write_jsonl(args.trace_log)
        await engine.close()
        if journal is not None:
            journal.close()
        return snap, err, om

    snap, err, om = asyncio.run(session())
    if args.openmetrics:
        sys.stdout.write(om)
    elif args.json:
        print(json.dumps({
            "matrix": {"domain": args.domain, "n_rows": L.n_rows,
                       "nnz": L.nnz},
            "snapshot": snap,
            "max_error": err,
        }, indent=2))
    else:
        req, width = snap["requests"], snap["batches"]["width"]
        lat, cache = snap["latency_ms"], snap["registry"]
        hit_rate = cache["hit_rate"]
        print(f"matrix        : {args.domain}, n={L.n_rows}, nnz={L.nnz}")
        print(f"requests      : {req['total']} total, "
              f"{req['completed']} completed, {req['failed']} failed, "
              f"{req['timed_out']} timed out, {req['rejected']} rejected")
        print(f"batches       : {snap['batches']['total']} "
              f"(width mean {width['mean']:.1f}, max {width['max']:.0f})")
        print(f"latency (host): p50 {lat['p50']:.2f} ms, "
              f"p95 {lat['p95']:.2f} ms")
        lanes = snap["lanes"]
        print(f"lanes         : host {lanes['host']['batches']} batch(es) "
              f"/ {lanes['host']['rhs']} rhs "
              f"({lanes['host']['exec_ms']:.3f} ms), "
              f"sim {lanes['sim']['batches']} batch(es) "
              f"/ {lanes['sim']['rhs']} rhs")
        print(f"sim cost      : {snap['sim']['cycles']} cycles, "
              f"{snap['sim']['exec_ms']:.4f} ms")
        print(f"cache         : {cache['entries']} entr(y/ies), "
              f"hit rate {'n/a' if hit_rate is None else f'{hit_rate:.1%}'}, "
              f"{cache['evictions']} eviction(s)")
        print(f"fallbacks     : {snap['fallbacks']['solves']} solve(s), "
              f"{snap['fallbacks']['kernel_failures']} kernel failure(s)")
        tr = snap["trace"]
        kinds = ", ".join(f"{k} {v}" for k, v in tr["by_kind"].items())
        print(f"trace         : {tr['emitted']} event(s) "
              f"[{kinds or 'none'}], {tr['dropped']} dropped")
        if args.trace_log:
            print(f"trace log     : {tr['retained']} event(s) -> "
                  f"{args.trace_log}")
        if "journal" in snap:
            js = snap["journal"]
            print(f"journal       : {js['records_written']} record(s), "
                  f"{js['records_dropped']} dropped, "
                  f"{js['segments_rotated']} rotation(s), "
                  f"{js['incidents']} incident(s) -> {args.journal_dir}")
        print(f"max error     : {err:.3e}")
    return 0 if err < 1e-8 else 1


def _cmd_serve_cluster(args) -> int:
    """Drive the sharded multi-process serve tier end to end.

    Registers ``--matrices`` distinct synthetic systems with a
    :class:`~repro.serve.cluster.ShardRouter` (each matrix published to
    shared memory once, mapped zero-copy by its shard worker, which
    builds its plan),
    fires pipelined single- and multi-RHS solves against every matrix,
    verifies every answer against the manufactured solution, and prints
    the fleet-wide roll-up.  ``--chaos-kill`` SIGKILLs one worker
    mid-session and asserts the router respawns it and keeps answering
    correctly.  ``--spans`` adds tail-latency attribution — which hop
    makes slow requests slow: per-hop latency percentiles (router
    enqueue/send, worker deserialize/plan/solve/reply) and the captured
    slow-request exemplars with their dominant hop.  Exits non-zero on a
    bad residual or a leaked shared-memory segment.
    """
    import json

    from repro.errors import WorkerDiedError
    from repro.serve.arena import leaked_segments
    from repro.serve.cluster import ShardRouter

    emit = (lambda *a, **k: None) if (args.json or args.openmetrics) else print
    deaths_seen = 0
    with ShardRouter(
        n_workers=args.workers,
        execution=args.execution,
        max_batch=args.max_batch,
        request_timeout=args.timeout,
        slow_ms=args.slow_ms,
        journal_dir=args.journal_dir,
    ) as router:
        keys, systems = _cluster_systems(router, args, "cli")
        for i, key in enumerate(keys):
            emit(f"matrix {i}     : {key[:12]}… -> {router.worker_for(key)}")

        def fire() -> list:
            return _fire(router, keys, systems, args.requests, args.rhs)

        err, _ = _verify(fire(), args.timeout)
        if args.chaos_kill:
            import time

            victim = router.worker_for(keys[0])
            futs = fire()
            router.kill_worker(victim)
            # in-flight requests on the victim fail with WorkerDiedError;
            # the router respawns the shard, so a retry must succeed
            # (the respawn runs in the reader thread — poll briefly)
            worst, deaths_seen = _verify(
                futs, args.timeout, tolerate=WorkerDiedError
            )
            err = max(err, worst)
            for _ in range(100):
                try:
                    err = max(err, _verify(fire(), args.timeout)[0])
                    break
                except WorkerDiedError:
                    time.sleep(0.2)
            else:  # pragma: no cover - respawn never landed
                raise WorkerDiedError(
                    f"cluster did not recover after killing {victim}"
                )
            emit(f"chaos         : killed {victim}, {deaths_seen} "
                 f"request(s) failed in flight, retries all correct")
        # ping before snapshotting: drains every worker's buffered
        # spans and feeds the clock aligner, so the exported traces and
        # the spans block in router_stats() cover the whole session
        router.ping()
        if args.trace_log:
            n_events = router.write_trace_jsonl(args.trace_log)
            emit(f"trace log     : {n_events} event(s) -> {args.trace_log}")
        if args.chrome_trace:
            doc = router.write_chrome_trace(args.chrome_trace)
            emit(f"chrome trace  : {doc['otherData']['spans']} span(s), "
                 f"{len(doc['otherData']['processes'])} process row(s) -> "
                 f"{args.chrome_trace}")
        snap = router.snapshot()
        om = router.openmetrics() if args.openmetrics else None
        spans = {
            "hops": router.hop_stats(),
            "exemplars": [
                {k: v for k, v in ex.items() if k != "spans"}
                for ex in router.exemplars()
            ],
            "spans": snap["router"]["spans"],
        } if args.spans else {}
    leaked = leaked_segments()

    if args.openmetrics:
        sys.stdout.write(om)
    elif args.json:
        print(json.dumps({
            "snapshot": snap,
            "max_error": err,
            "chaos_kill": bool(args.chaos_kill),
            "in_flight_failures": deaths_seen,
            "leaked_segments": leaked,
            **spans,
        }, indent=2))
    else:
        fleet, rt = snap["fleet"], snap["router"]
        req = fleet["requests"]
        print(f"workers       : {rt['workers']} "
              f"({', '.join(sorted(snap['workers']))})")
        print(f"requests      : {req['total']} total, "
              f"{req['completed']} completed, {req['failed']} failed")
        print(f"batches       : {fleet['batches']['total']} "
              f"(width mean {fleet['batches']['width']['mean']:.1f})")
        print(f"latency (p95) : {fleet['latency_ms']['p95']:.2f} ms "
              "(count-weighted across workers)")
        print(f"deaths        : {rt['worker_deaths']} worker death(s), "
              f"{rt['respawns']} respawn(s)")
        print(f"arena         : {rt['arena']['resident']} matrix segment(s), "
              f"{rt['arena']['resident_bytes']} bytes shared")
        print(f"slabs         : {rt['slabs']['created']} created, "
              f"{rt['slabs']['reused']} reused")
        if args.journal_dir:
            fj = fleet["journal"]
            print(f"journal       : {fj['records_written']} record(s) "
                  f"across {fj['shards']} shard(s), "
                  f"{fj['records_dropped']} dropped -> {args.journal_dir}")
        if spans:
            _print_spans(spans, explicit=args.slow_ms is not None)
        print(f"leaked shm    : {len(leaked)}")
        print(f"max error     : {err:.3e}")
    return 0 if err < 1e-8 and not leaked else 1


def _print_spans(report: dict, *, explicit: bool) -> None:
    """The ``serve-cluster --spans`` hop table and exemplar list."""
    hops, span_stats = report["hops"], report["spans"]
    print(f"spans         : {span_stats['spans']} across "
          f"{span_stats['traces']} trace(s)")
    name_w = max((len(h) for h in hops), default=3)
    print(f"{'hop'.ljust(name_w)}  {'count':>6}  {'p50 ms':>9}  "
          f"{'p99 ms':>9}  {'max ms':>9}")
    for hop in sorted(hops):
        hs = hops[hop]
        print(f"{hop.ljust(name_w)}  {hs['count']:>6}  "
              f"{hs['p50_ms']:>9.3f}  {hs['p99_ms']:>9.3f}  "
              f"{hs['max_ms']:>9.3f}")
    print(f"slow threshold: {span_stats['slow_threshold_ms']:.3f} ms "
          f"({'explicit' if explicit else 'adaptive p95'})")
    if report["exemplars"]:
        print(f"exemplars     : {len(report['exemplars'])} captured")
        for ex in report["exemplars"]:
            print(f"  {ex['trace_id']}  {ex['total_ms']:9.3f} ms  "
                  f"dominant hop: {ex['dominant_hop']}")
    else:
        print("exemplars     : none captured")


def _cmd_serve_top(args) -> int:
    """Live fleet dashboard (``top`` for the sharded serve tier).

    Two sources: ``--url`` scrapes any OpenMetrics endpoint that
    renders the fleet exposition; ``--demo`` spawns a small in-process
    cluster, fires a trickle of solves each refresh, and dashboards its
    own exposition.  Frames repaint in place on a TTY and print
    sequentially when piped.
    """
    import time
    from itertools import count

    from repro.metrics.dashboard import render_dashboard
    from repro.metrics.expo import parse_openmetrics

    if not args.url and not args.demo:
        print("serve-top needs --url URL or --demo", file=sys.stderr)
        return 2

    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

    def run(scrape: Callable[[], str]) -> None:
        """Render one frame per ``scrape()`` exposition, ``--interval``
        apart, until ``--iterations`` frames or an interrupt."""
        frames = range(args.iterations) if args.iterations > 0 else count()
        try:
            for frame in frames:
                if frame:
                    time.sleep(args.interval)
                dashboard = render_dashboard(parse_openmetrics(scrape()))
                if clear:
                    sys.stdout.write(clear + dashboard)
                else:
                    if frame:
                        sys.stdout.write("\n")
                    sys.stdout.write(dashboard)
                sys.stdout.flush()
        except KeyboardInterrupt:
            pass

    if args.url:
        from urllib.request import urlopen

        def scrape() -> str:
            with urlopen(args.url) as resp:
                return resp.read().decode("utf-8")

        run(scrape)
        return 0

    from repro.serve.cluster import ShardRouter

    err = 0.0
    with ShardRouter(n_workers=max(args.workers, 1)) as router:
        keys, systems = _cluster_systems(router, args, "top")

        def demo() -> str:
            nonlocal err
            futs = _fire(router, keys, systems, max(args.requests, 1), rhs=0)
            err = max(err, _verify(futs, 60.0)[0])
            router.ping()  # span drain + clock samples
            return router.openmetrics()

        run(demo)
    return 0 if err < 1e-8 else 1


def _cmd_check_interleavings(args) -> int:
    """Explore serve-engine schedules under the deterministic scheduler.

    Every scenario must satisfy the engine invariant suite (each
    request resolved exactly once, engine idle after drain, telemetry
    counters consistent) on every explored schedule.  A failure prints
    the minimal reproducing choice list and its schedule trace —
    rerunning with the same seed/choices reproduces it byte for byte.
    """
    import json

    from repro.analysis.interleave import explore
    from repro.serve.scenarios import SCENARIOS, engine_invariants

    if args.scenario != "all" and args.scenario not in SCENARIOS:
        print(
            f"unknown scenario {args.scenario!r}; choose from: "
            + ", ".join(sorted(SCENARIOS)) + ", all",
            file=sys.stderr,
        )
        return 2
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    invariants = engine_invariants()
    rc = 0
    doc = {}
    for name in names:
        report = explore(
            SCENARIOS[name],
            schedules=args.schedules,
            seed=args.seed,
            mode=args.mode,
            invariants=invariants,
        )
        doc[name] = {
            "mode": report.mode,
            "n_schedules": report.n_schedules,
            "ok": report.ok,
            "failures": len(report.failures),
            "minimal_choices": (
                list(report.minimal_choices)
                if report.minimal_choices is not None
                else None
            ),
        }
        if not args.json:
            print(f"[{name}] {report.summary()}")
        if not report.ok:
            rc = 1
    if args.json:
        print(json.dumps(doc, indent=2))
    return rc


def _cmd_replay(args) -> int:
    """Replay a recorded trace log through a fresh engine."""
    import json

    from repro.serve.replay import replay_file

    report = replay_file(
        args.trace,
        speed=args.speed,
        virtual=not args.wall,
        n=args.n,
        batch_window=args.batch_window,
        execution=args.execution,
        workers=args.workers,
        journal_dir=args.journal_dir,
    )
    if args.json:
        print(json.dumps({
            "recorded": report.recorded,
            "replayed": report.replayed,
            "speed": report.speed,
            "virtual": report.virtual,
            "n_matrices": report.n_matrices,
            "workers": report.workers,
            "ok": report.ok,
            "mismatches": report.mismatches,
        }, indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_journal(args) -> int:
    """Inspect a solve journal directory.

    ``tail`` and ``query`` print matching records as JSONL; ``report``
    runs the lane-efficacy aggregator and uses regress-style exit
    codes — 0 healthy, 1 anomalies flagged, 2 journal unreadable — so
    CI can gate on it the same way it gates on ``regress``.
    """
    import json
    from pathlib import Path

    from repro.errors import JournalError
    from repro.obs.journal import JournalReader

    reader = JournalReader(args.dir)
    try:
        scan = reader.scan()
    except JournalError as exc:
        print(f"journal: {exc}", file=sys.stderr)
        return 2

    if args.verb == "tail":
        for record in scan["records"][-max(args.n, 0):]:
            print(json.dumps(record, sort_keys=True, default=str))
        return 0

    if args.verb == "query":
        records = scan["records"]
        if args.kind is not None:
            records = [r for r in records if r.get("kind") == args.kind]
        if args.matrix is not None:
            records = [
                r for r in records
                if str(r.get("matrix", "")).startswith(args.matrix)
            ]
        if args.lane is not None:
            records = [r for r in records if r.get("lane") == args.lane]
        if args.limit > 0:
            records = records[-args.limit:]
        for record in records:
            print(json.dumps(record, sort_keys=True, default=str))
        print(
            f"{len(records)} record(s) from {scan['segments']} segment(s), "
            f"{scan['skipped']} skipped line(s)",
            file=sys.stderr,
        )
        return 0

    # report
    from repro.metrics.efficacy import (
        DEFAULT_MIN_SAMPLES,
        aggregate,
        healthy,
        lane_recommendations,
        render_report,
    )

    report = aggregate(
        scan["records"],
        min_samples=(
            DEFAULT_MIN_SAMPLES if args.min_samples is None
            else args.min_samples
        ),
        skipped=scan["skipped"],
    )
    out = Path(args.out) if args.out else Path(args.dir) / (
        "lane_recommendations.json"
    )
    out.write_text(json.dumps({
        "schema": report["schema"],
        "recommendations": lane_recommendations(report),
        "min_samples": report["min_samples"],
        "solves": report["solves"],
    }, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_report(report))
        print(f"recommendations -> {out}")
    return 0 if healthy(report) else 1


def _cmd_generate(args) -> int:
    from repro.datasets import generate
    from repro.sparse import write_matrix_market

    L = generate(args.domain, args.n_rows, args.seed)
    write_matrix_market(
        L, args.out,
        comment=f"repro synthetic domain={args.domain} n={args.n_rows} "
        f"seed={args.seed}",
    )
    print(f"wrote {args.out}: n={L.n_rows}, nnz={L.nnz}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
