"""Perf-regression sentinel: diff the trajectory suite against baseline.

The committed baseline (``BENCH_solvers.json``) records what every
simulator-backed solver *used to* cost — simulated cycles, instruction
counts, launch counts, cycle-phase fractions — on the deterministic
matrix suite of :mod:`repro.metrics.trajectory`.  This module re-runs
the suite and compares, entry by entry, with **explicit tolerances**:

* ``sim_cycles`` / ``stats_cycles`` / ``instructions`` / ``launches``
  default to *exact* (relative tolerance 0.0): the simulator is
  deterministic, so any drift is a real behavioural change.
* phase fractions get a small absolute tolerance (they are rounded to
  6 digits in the document; the default 5e-4 absorbs re-rounding noise
  without hiding a real schedule shift).
* the ``compiled`` section (schema v2: per-matrix ``CompiledPlan``
  structure — level and coefficient counts) is always *exact*: these
  are integers derived from the deterministic schedule and factor,
  identical on every machine.

Every comparison failure is a :class:`Regression` with the entry key,
the field, both values, and the drift — enough for the CI log alone to
say what moved.  ``repro-sptrsv regress`` is the CLI face; exit codes:
0 clean, 1 regressions found, 2 the baseline itself is unusable
(missing file, schema mismatch, missing/extra entries with
``require_all``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# repro.metrics.trajectory (imported lazily in run()) pulls in the
# solver stack; keeping it off the module top keeps `repro-sptrsv
# --help` and the comparison-only API (compare / format_report) light.

__all__ = [
    "Regression",
    "BaselineError",
    "DEFAULT_BASELINE",
    "DEFAULT_PHASES_TOL",
    "add_arguments",
    "compare",
    "format_report",
    "load_baseline",
    "main",
    "run",
]

#: Baseline filename the sentinel looks for at the repository root.
DEFAULT_BASELINE = "BENCH_solvers.json"

#: Absolute tolerance on phase fractions (rounded to 6 digits in the
#: document; this absorbs rounding, not schedule changes).
DEFAULT_PHASES_TOL = 5e-4

#: Entry fields compared with a *relative* tolerance.
COUNTER_FIELDS = ("sim_cycles", "stats_cycles", "instructions", "launches")

#: ``compiled`` entry fields; always exact (deterministic structure).
COMPILED_FIELDS = (
    "base_levels", "merged_levels", "coeff_nnz", "redundant_nnz",
)


class BaselineError(RuntimeError):
    """The baseline document cannot be compared against (exit code 2)."""


@dataclass(frozen=True)
class Regression:
    """One field of one (matrix, solver) entry outside tolerance."""

    matrix: str
    solver: str
    field: str
    baseline: float
    current: float
    drift: float  # relative for counters, absolute for phases

    def describe(self) -> str:
        kind = "abs" if self.field.startswith("phases.") else "rel"
        return (
            f"{self.matrix} / {self.solver} / {self.field}: "
            f"{self.baseline} -> {self.current} "
            f"({kind} drift {self.drift:.6g})"
        )


def _rel_drift(baseline: float, current: float) -> float:
    if baseline == current:
        return 0.0
    if baseline == 0:
        return float("inf")
    return abs(current - baseline) / abs(baseline)


def compare(
    baseline: dict,
    current: dict,
    *,
    cycles_tol: float = 0.0,
    instructions_tol: float = 0.0,
    phases_tol: float = DEFAULT_PHASES_TOL,
    require_all: bool = True,
) -> list[Regression]:
    """Diff two trajectory documents; returns the out-of-tolerance list.

    ``cycles_tol`` covers ``sim_cycles``/``stats_cycles``/``launches``,
    ``instructions_tol`` covers ``instructions`` (both relative);
    ``phases_tol`` is absolute on each phase fraction.  With
    ``require_all`` (the default), an entry present on one side only is
    a :class:`BaselineError` — the suites must measure the same grid
    for the diff to gate anything.
    """
    if baseline.get("schema_version") != current.get("schema_version"):
        raise BaselineError(
            f"schema mismatch: baseline "
            f"{baseline.get('schema_version')!r} vs current "
            f"{current.get('schema_version')!r} — regenerate the "
            f"baseline (python benchmarks/bench_trajectory.py)"
        )
    base_entries = {
        (e["matrix"], e["solver"]): e for e in baseline.get("results", ())
    }
    cur_entries = {
        (e["matrix"], e["solver"]): e for e in current.get("results", ())
    }
    if require_all:
        missing = sorted(set(base_entries) - set(cur_entries))
        extra = sorted(set(cur_entries) - set(base_entries))
        if missing or extra:
            raise BaselineError(
                f"entry grids differ: missing from current {missing}, "
                f"not in baseline {extra} — regenerate the baseline"
            )
    tolerances = {
        "sim_cycles": cycles_tol,
        "stats_cycles": cycles_tol,
        "launches": cycles_tol,
        "instructions": instructions_tol,
    }
    regressions: list[Regression] = []
    for key in sorted(set(base_entries) & set(cur_entries)):
        base, cur = base_entries[key], cur_entries[key]
        matrix, solver = key
        for field in COUNTER_FIELDS:
            drift = _rel_drift(base[field], cur[field])
            if drift > tolerances[field]:
                regressions.append(
                    Regression(
                        matrix, solver, field,
                        base[field], cur[field], drift,
                    )
                )
        for phase in sorted(set(base["phases"]) | set(cur["phases"])):
            b = base["phases"].get(phase, 0.0)
            c = cur["phases"].get(phase, 0.0)
            drift = abs(c - b)
            if drift > phases_tol:
                regressions.append(
                    Regression(
                        matrix, solver, f"phases.{phase}", b, c, drift
                    )
                )

    # CompiledPlan structure (schema v2) — exact, no knobs: the
    # schedule is deterministic, so any drift is a real change in the
    # level-merge policy or the plan builder
    base_compiled = {
        (e["matrix"], e["schedule"]): e
        for e in baseline.get("compiled", ())
    }
    cur_compiled = {
        (e["matrix"], e["schedule"]): e
        for e in current.get("compiled", ())
    }
    if require_all:
        missing = sorted(set(base_compiled) - set(cur_compiled))
        extra = sorted(set(cur_compiled) - set(base_compiled))
        if missing or extra:
            raise BaselineError(
                f"compiled entry grids differ: missing from current "
                f"{missing}, not in baseline {extra} — regenerate the "
                f"baseline"
            )
    for key in sorted(set(base_compiled) & set(cur_compiled)):
        base, cur = base_compiled[key], cur_compiled[key]
        matrix, schedule = key
        for field in COMPILED_FIELDS:
            b, c = base[field], cur[field]
            if b != c:
                regressions.append(
                    Regression(
                        matrix, f"compiled[{schedule}]", field,
                        b, c, _rel_drift(b, c),
                    )
                )
    return regressions


def format_report(
    regressions: list,
    *,
    n_entries: int,
    baseline_path: Optional[str] = None,
) -> str:
    """Human-readable sentinel verdict for CI logs."""
    lines = []
    where = f" vs {baseline_path}" if baseline_path else ""
    if not regressions:
        lines.append(
            f"perf-regression sentinel: OK — {n_entries} entries within "
            f"tolerance{where}"
        )
    else:
        lines.append(
            f"perf-regression sentinel: {len(regressions)} regression(s) "
            f"across {n_entries} entries{where}"
        )
        for reg in regressions:
            lines.append(f"  REGRESSION {reg.describe()}")
        lines.append(
            "  (intentional change? regenerate the baseline: "
            "python benchmarks/bench_trajectory.py)"
        )
    return "\n".join(lines)


def load_baseline(path: Path) -> dict:
    if not path.is_file():
        raise BaselineError(
            f"baseline not found: {path} — generate it with "
            f"python benchmarks/bench_trajectory.py"
        )
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "results" not in doc:
        raise BaselineError(f"baseline {path} has no 'results' section")
    return doc


def add_arguments(parser) -> None:
    """Install the sentinel's options on ``parser`` (shared between the
    standalone entry point and the ``repro-sptrsv regress`` subparser)."""
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline document (default: ./{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="first matrix only (compares just its entries)",
    )
    parser.add_argument(
        "--cycles-tol", type=float, default=0.0,
        help="relative tolerance on cycle/launch counts (default 0: exact)",
    )
    parser.add_argument(
        "--instructions-tol", type=float, default=0.0,
        help="relative tolerance on instruction counts (default 0: exact)",
    )
    parser.add_argument(
        "--phases-tol", type=float, default=DEFAULT_PHASES_TOL,
        help="absolute tolerance on phase fractions "
        f"(default {DEFAULT_PHASES_TOL})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable verdict on stdout",
    )


def run(args) -> int:
    """Sentinel body: 0 clean, 1 regressions, 2 baseline unusable."""
    from repro.metrics.trajectory import MATRICES, SCHEMA_VERSION, run_suite

    try:
        baseline = load_baseline(Path(args.baseline))
        matrices = MATRICES[:1] if args.quick else MATRICES
        current = run_suite(matrices)
        if args.quick:
            # compare only the measured subset of the committed grid
            names = {m[0] for m in matrices}
            baseline = dict(
                baseline,
                results=[
                    e for e in baseline["results"] if e["matrix"] in names
                ],
                compiled=[
                    e for e in baseline.get("compiled", ())
                    if e["matrix"] in names
                ],
            )
        regressions = compare(
            baseline,
            current,
            cycles_tol=args.cycles_tol,
            instructions_tol=args.instructions_tol,
            phases_tol=args.phases_tol,
        )
    except BaselineError as exc:
        print(f"perf-regression sentinel: baseline error: {exc}",
              file=sys.stderr)
        return 2
    n_entries = len(current["results"])
    if args.json:
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "baseline": args.baseline,
            "entries": n_entries,
            "regressions": [
                {
                    "matrix": r.matrix,
                    "solver": r.solver,
                    "field": r.field,
                    "baseline": r.baseline,
                    "current": r.current,
                    "drift": r.drift,
                }
                for r in regressions
            ],
            "ok": not regressions,
        }, indent=2, sort_keys=True))
    else:
        print(format_report(
            regressions, n_entries=n_entries, baseline_path=args.baseline
        ))
    return 1 if regressions else 0


def main(argv=None) -> int:
    """CLI entry shared by ``repro-sptrsv regress`` and
    ``benchmarks/bench_regression.py``."""
    parser = argparse.ArgumentParser(
        prog="repro-sptrsv regress",
        description="Re-run the perf-trajectory suite and diff it "
        "against the committed baseline.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
