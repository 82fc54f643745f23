"""Wall-clock profiler for the host execution lane.

The cycle-level profiler (:mod:`repro.obs.profiler`) attributes
*simulated* cycles; it only exists when a kernel actually runs on the
SIMT simulator, which made the serving stack's fastest path — the
fused :class:`~repro.solvers.compiled.CompiledPlan` — its least
observable one.  This module gives the host lane the same
first-class treatment at wall-clock resolution: every
``solve_many``/``solve`` call executed while a :class:`HostProfiler` is
ambient records one :class:`HostLaunchProfile`, attributing each
level's time to the three numpy segments of the executor —

* ``gather``  — forming the ``(nnz, k)`` contribution block
  (``vals * X[idx]``),
* ``reduce``  — the segmented sum (``np.add.reduceat``),
* ``scatter`` — writing the level's solution rows,

with ``other`` absorbing loop overhead outside the timed segments, and
records rows/s and nnz/s throughput per level.

Activation mirrors the simulator profiler exactly — the same ambient
:func:`~repro.obs.profiler.profiling` context::

    from repro.obs import HostProfiler, profiling

    with profiling(HostProfiler()) as prof:
        X = plan.solve_many(B)
    prof.digest()          # compact phase digest, launch-event shaped

A :class:`HostProfiler` is distinguished from the simulator
:class:`~repro.obs.profiler.Profiler` by its ``kind`` attribute
(``"host"`` vs ``"sim"``): the serving lane policy only forces the
simulator for ``kind == "sim"`` instrumentation, so profiling the host
lane never pushes traffic off it.  The executor pays one ContextVar
read per call when detached, and the profiled solve is bit-identical to
an unprofiled one — timing is observed around the numpy calls, never
inside them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.obs.profiler import active_profiler

__all__ = [
    "HOST_PHASES",
    "HostLevelSample",
    "HostLaunchProfile",
    "HostProfiler",
    "active_host_profiler",
    "host_phase_digest",
]

#: Wall-clock phases of one host-lane level step.  ``other`` is the
#: remainder of the launch wall time not inside a timed numpy segment
#: (interpreter loop overhead, slicing, the profiler's own clock reads).
HOST_PHASES = ("gather", "reduce", "scatter", "other")


@dataclass(frozen=True)
class HostLevelSample:
    """Timing of one level of one host-lane launch."""

    level: int
    rows: int
    nnz: int
    gather_s: float
    reduce_s: float
    scatter_s: float

    @property
    def busy_s(self) -> float:
        """Seconds inside this level's timed numpy segments."""
        return self.gather_s + self.reduce_s + self.scatter_s

    @property
    def rows_per_s(self) -> float:
        busy = self.busy_s
        return self.rows / busy if busy > 0 else 0.0

    @property
    def nnz_per_s(self) -> float:
        busy = self.busy_s
        return self.nnz / busy if busy > 0 else 0.0


class HostLaunchProfile:
    """One ``CompiledPlan`` execution under the host profiler.

    ``nnz`` counts the coefficients touched per right-hand side: the
    off-diagonal elements plus one ``b`` term per row.

    Construct with either ``levels=`` (a tuple of
    :class:`HostLevelSample`) or ``raw=`` (per-level ``(rows, nnz,
    gather_s, reduce_s, scatter_s)`` tuples, as the executor emits
    them).  The ``raw`` path exists for overhead: building a frozen
    dataclass per level costs microseconds, which at 5% budget is real
    money on a sub-millisecond solve — so the executor hands over raw
    tuples and :attr:`levels` materializes samples only when read.
    """

    __slots__ = ("n_rows", "n_rhs", "n_levels", "nnz", "wall_s",
                 "_raw", "_levels")

    def __init__(
        self,
        *,
        n_rows: int,
        n_rhs: int,
        n_levels: int,
        nnz: int,
        wall_s: float,
        levels: Optional[tuple] = None,
        raw: Optional[tuple] = None,
    ) -> None:
        if (levels is None) == (raw is None):
            raise ValueError("exactly one of levels= or raw= is required")
        self.n_rows = n_rows
        self.n_rhs = n_rhs
        self.n_levels = n_levels
        self.nnz = nnz
        self.wall_s = wall_s
        if levels is not None:
            self._levels = tuple(levels)
            self._raw = tuple(
                (s.rows, s.nnz, s.gather_s, s.reduce_s, s.scatter_s)
                for s in self._levels
            )
        else:
            self._levels = None
            self._raw = tuple(raw)

    @property
    def levels(self) -> tuple:
        """Per-level samples, materialized on first access."""
        if self._levels is None:
            self._levels = tuple(
                HostLevelSample(
                    level=i, rows=r, nnz=z,
                    gather_s=g, reduce_s=m, scatter_s=s,
                )
                for i, (r, z, g, m, s) in enumerate(self._raw)
            )
        return self._levels

    def __repr__(self) -> str:
        return (
            f"HostLaunchProfile(n_rows={self.n_rows}, n_rhs={self.n_rhs}, "
            f"n_levels={self.n_levels}, nnz={self.nnz}, "
            f"wall_s={self.wall_s!r})"
        )

    def phase_seconds(self) -> dict:
        """Wall seconds per phase; ``other`` absorbs the remainder."""
        gather = reduce = scatter = 0.0
        for _, _, g, m, s in self._raw:
            gather += g
            reduce += m
            scatter += s
        other = max(0.0, self.wall_s - gather - reduce - scatter)
        return {"gather": gather, "reduce": reduce,
                "scatter": scatter, "other": other}

    def phase_fractions(self) -> dict:
        seconds = self.phase_seconds()
        total = self.wall_s
        if total <= 0:
            return {p: 0.0 for p in HOST_PHASES}
        return {p: seconds[p] / total for p in HOST_PHASES}

    def throughput(self) -> dict:
        """Launch-level rates: solution rows/s and nnz/s across all RHS."""
        if self.wall_s <= 0:
            return {"rows_per_s": 0.0, "nnz_per_s": 0.0}
        return {
            "rows_per_s": self.n_rows * self.n_rhs / self.wall_s,
            "nnz_per_s": self.nnz * self.n_rhs / self.wall_s,
        }


class HostProfiler:
    """Collects host-lane launch profiles (thread-safe).

    The ``kind`` attribute is the lane-policy discriminator: ambient
    instrumentation with ``kind == "sim"`` forces the serve engine onto
    the simulator (cycle attribution requires simulating); a ``"host"``
    profiler is served by the host lane itself.
    """

    kind = "host"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.launches: list[HostLaunchProfile] = []

    # -- executor integration ------------------------------------------
    def record(self, launch: HostLaunchProfile) -> None:
        with self._lock:
            self.launches.append(launch)

    # -- consumption ---------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.launches.clear()

    @property
    def wall_s(self) -> float:
        with self._lock:
            return sum(l.wall_s for l in self.launches)

    def phase_seconds(self) -> dict:
        with self._lock:
            launches = tuple(self.launches)
        totals = {p: 0.0 for p in HOST_PHASES}
        for launch in launches:
            for phase, seconds in launch.phase_seconds().items():
                totals[phase] += seconds
        return totals

    def phase_fractions(self) -> dict:
        seconds = self.phase_seconds()
        total = sum(seconds.values())
        if total <= 0:
            return {p: 0.0 for p in HOST_PHASES}
        return {p: seconds[p] / total for p in HOST_PHASES}

    def digest(
        self, *, solver_name: str = "CompiledFused", digits: int = 6
    ) -> dict:
        with self._lock:
            launches = tuple(self.launches)
        return host_phase_digest(
            launches, solver_name=solver_name, digits=digits
        )


def host_phase_digest(
    launches: Iterable[HostLaunchProfile],
    *,
    solver_name: str = "CompiledFused",
    lane: str = "host",
    digits: int = 6,
) -> dict:
    """Compact digest for launch trace events.

    Same shape as the simulator's
    :func:`~repro.obs.report.phase_digest` — solver name, launch count,
    one cost scalar, and a phase→fraction map — with host phases and
    wall-clock milliseconds where the sim digest has cycle phases and
    cycle counts.  ``lane`` labels the lane that produced the samples.
    """
    launches = tuple(launches)
    totals = {p: 0.0 for p in HOST_PHASES}
    wall = 0.0
    for launch in launches:
        wall += launch.wall_s
        for phase, seconds in launch.phase_seconds().items():
            totals[phase] += seconds
    fractions = (
        {p: totals[p] / wall for p in HOST_PHASES}
        if wall > 0
        else {p: 0.0 for p in HOST_PHASES}
    )
    return {
        "solver": solver_name,
        "lane": lane,
        "wall_ms": round(wall * 1e3, 6),
        "launches": len(launches),
        "phases": {p: round(fractions[p], digits) for p in HOST_PHASES},
    }


def active_host_profiler() -> Optional[HostProfiler]:
    """The ambient profiler, if it records host launches.

    Returns ``None`` when nothing is attached *or* when the ambient
    profiler is the simulator kind — the host executor must never feed
    wall-clock samples into a cycle profiler.
    """
    profiler = active_profiler()
    if profiler is not None and getattr(profiler, "kind", "sim") == "host":
        return profiler
    return None
