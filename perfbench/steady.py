#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each in a fresh process.

    python3 perfbench/steady.py --workload deep-pair --runs 10 --seconds 20

Each run gets its own seed (``--first-seed``, then consecutive).  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile and max/min
spreads as shares of the median, and the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged;
``setup_s`` is exempt, as only its median is compared between runs.
Exits 1 if any run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def _run_once(workload: str, seed: int, seconds: float) -> tuple:
    """One fresh-process run: (result JSON, wall seconds)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or doc["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    values: dict = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, wall = _run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        row = []
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.4g}")
        print(f"seed {seed} ({wall:.0f} s): " + "  ".join(row), flush=True)
    print(
        f"\n{args.workload}: {args.runs} runs of {seconds:g} s\n"
        f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
        f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}"
    )
    ok = True
    for name, vals in values.items():
        s = spread(vals)
        exempt = name == "setup_s"
        flag = ""
        if not exempt and s["iqr_share"] > bounds[name]:
            flag, ok = "  OVER BOUND", False
        elif not exempt and s["iqr_share"] > bounds[name] / 3:
            flag = "  over a third of bound"
        print(
            f"  {name:16s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
            f"{s['iqr_share']:8.3f} {s['range_share']:9.3f} "
            f"{bounds[name]:6.3f}{flag}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
