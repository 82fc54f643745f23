"""Cycle-level profiler for the SIMT engine.

A :class:`Profiler` attached to an engine (directly via
``engine.profiler`` or ambiently via the :func:`profiling` context
manager, which every :func:`repro.solvers._sim.make_engine` call
honours) receives per-warp scheduling events from
:meth:`repro.gpu.simt.SIMTEngine.launch` and folds them into
:class:`~repro.obs.profile.LaunchProfile` objects — O(warps) memory for
the totals, plus an optionally bounded slice buffer for trace export.
When no profiler is attached the engine pays a single ``is None`` check
per hook site, the same zero-overhead contract as the tracer and
sanitizer.

Usage::

    from repro.obs import Profiler, profiling

    with profiling() as prof:
        result = solver.solve(L, b, device=SIM_SMALL)
    profile = prof.profile()
    print(profile.phase_fractions())
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from repro.obs.profile import (
    COMPUTE,
    INTRA_WARP_WAIT,
    MEM_STALL,
    SPIN_WAIT,
    LaunchProfile,
    Slice,
    SolveProfile,
    WarpProfile,
)

__all__ = ["Profiler", "profiling", "active_profiler", "profile_solve"]

#: Profiler picked up by every engine created while a ``profiling``
#: block is active (mirrors ``tracing``/``sanitizing`` in
#: :mod:`repro.solvers._sim`).
_ACTIVE_PROFILER: ContextVar = ContextVar("repro_active_profiler", default=None)


def active_profiler() -> Optional["Profiler"]:
    """The ambient profiler of the current context, if any."""
    return _ACTIVE_PROFILER.get()


@contextmanager
def profiling(profiler: Optional["Profiler"] = None):
    """Attach ``profiler`` (or a fresh cycle profiler) to every engine
    built inside the block.  Yields the profiler."""
    if profiler is None:
        profiler = Profiler()
    token = _ACTIVE_PROFILER.set(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE_PROFILER.reset(token)


class _LaunchRecorder:
    """Accumulates one launch's per-warp phase intervals.

    The engine drives it through five hooks (admit/issue/park/unpark/
    done); :meth:`finish` freezes the totals into a
    :class:`LaunchProfile`.  Interval accounting: the step that parks a
    warp at cycle ``c`` already issued (compute), so a park episode
    woken at cycle ``w`` is charged ``max(0, w - c - 1)`` cycles —
    disjoint from every issue cycle, which keeps phase sums ≤ the launch
    length and lets ``idle`` absorb the exact remainder.
    """

    __slots__ = (
        "n_warps",
        "_compute",
        "_spin",
        "_intra",
        "_mem",
        "_park_start",
        "_park_kind",
        "_park_lanes",
        "_admit",
        "_done",
        "_record_slices",
        "_max_slices",
        "_slices",
        "_run_start",
        "_run_end",
        "truncated",
    )

    def __init__(
        self, n_warps: int, *, record_slices: bool, max_slices: int
    ) -> None:
        self.n_warps = n_warps
        self._compute = [0] * n_warps
        self._spin = [0] * n_warps
        self._intra = [0] * n_warps
        self._mem = [0] * n_warps
        self._park_start = [-1] * n_warps
        self._park_kind = [""] * n_warps
        self._park_lanes = [0] * n_warps
        self._admit = [-1] * n_warps
        self._done = [-1] * n_warps
        self._record_slices = record_slices
        self._max_slices = max_slices
        self._slices: list[Slice] = []
        # open compute run per warp: [start, end) in cycles
        self._run_start = [-1] * n_warps
        self._run_end = [-1] * n_warps
        self.truncated = False

    # -- engine hooks --------------------------------------------------
    def admit(self, cycle: int, warp_id: int) -> None:
        self._admit[warp_id] = cycle

    def issue(self, cycle: int, warp_id: int) -> None:
        self._compute[warp_id] += 1
        if self._record_slices:
            if self._run_end[warp_id] == cycle:
                self._run_end[warp_id] = cycle + 1
            else:
                self._close_run(warp_id)
                self._run_start[warp_id] = cycle
                self._run_end[warp_id] = cycle + 1

    def park(self, cycle: int, warp_id: int, kind: str, lanes: int) -> None:
        self._park_start[warp_id] = cycle
        self._park_kind[warp_id] = kind
        self._park_lanes[warp_id] = lanes

    def unpark(self, cycle: int, warp_id: int) -> None:
        start = self._park_start[warp_id]
        if start < 0:  # spurious wake (already unparked another way)
            return
        kind = self._park_kind[warp_id]
        duration = max(0, cycle - start - 1)
        if kind == SPIN_WAIT:
            self._spin[warp_id] += duration
        elif kind == INTRA_WARP_WAIT:
            self._intra[warp_id] += duration
        elif kind == MEM_STALL:
            self._mem[warp_id] += duration
        if self._record_slices and duration > 0:
            self._append_slice(
                Slice(warp_id, kind, start + 1, cycle,
                      self._park_lanes[warp_id])
            )
        self._park_start[warp_id] = -1

    def done(self, cycle: int, warp_id: int) -> None:
        self._done[warp_id] = cycle

    # -- finalization --------------------------------------------------
    def _close_run(self, warp_id: int) -> None:
        if self._run_start[warp_id] >= 0:
            self._append_slice(
                Slice(warp_id, COMPUTE, self._run_start[warp_id],
                      self._run_end[warp_id])
            )
            self._run_start[warp_id] = -1

    def _append_slice(self, s: Slice) -> None:
        if len(self._slices) < self._max_slices:
            self._slices.append(s)
        else:
            self.truncated = True

    def finish(self, cycles: int) -> LaunchProfile:
        warps = []
        for w in range(self.n_warps):
            if self._record_slices:
                self._close_run(w)
            warps.append(
                WarpProfile(
                    warp_id=w,
                    admit_cycle=self._admit[w],
                    done_cycle=self._done[w],
                    launch_cycles=cycles,
                    compute=self._compute[w],
                    spin_wait=self._spin[w],
                    intra_warp_wait=self._intra[w],
                    mem_stall=self._mem[w],
                )
            )
        slices = tuple(
            sorted(self._slices, key=lambda s: (s.warp_id, s.start, s.phase))
        )
        return LaunchProfile(
            cycles=cycles,
            warps=tuple(warps),
            slices=slices,
            slices_truncated=self.truncated,
        )


class Profiler:
    """Collects launch profiles from every engine it is attached to.

    Parameters
    ----------
    slices:
        Record per-warp phase slices for trace export.  Totals are
        always exact; slices cost memory proportional to the number of
        phase transitions and can be disabled for aggregate-only use
        (e.g. serving digests).
    max_slices:
        Bound on retained slices per launch; beyond it the launch is
        flagged ``slices_truncated`` and totals remain exact.
    """

    def __init__(self, *, slices: bool = True, max_slices: int = 200_000) -> None:
        self.record_slices = slices
        self.max_slices = max_slices
        self.launches: list[LaunchProfile] = []

    # -- engine integration --------------------------------------------
    def begin_launch(self, n_warps: int) -> _LaunchRecorder:
        return _LaunchRecorder(
            n_warps,
            record_slices=self.record_slices,
            max_slices=self.max_slices,
        )

    def end_launch(self, recorder: _LaunchRecorder, cycles: int) -> None:
        self.launches.append(recorder.finish(cycles))

    # -- consumption ---------------------------------------------------
    def reset(self) -> None:
        self.launches.clear()

    def profile(
        self,
        solver_name: str = "unknown",
        device_name: str = "unknown",
        **extra,
    ) -> SolveProfile:
        """Freeze the collected launches into a :class:`SolveProfile`."""
        return SolveProfile(
            solver_name=solver_name,
            device_name=device_name,
            launches=tuple(self.launches),
            extra=dict(extra),
        )


def profile_solve(solver, L, b, *, device=None, slices: bool = True):
    """Run ``solver.solve(L, b)`` under a fresh profiler.

    Returns ``(SolveResult, SolveProfile)``.  The profiled solve is
    bit-identical to an unprofiled one — the profiler only observes
    scheduling events, it never perturbs them.
    """
    profiler = Profiler(slices=slices)
    with profiling(profiler):
        if device is None:
            result = solver.solve(L, b)
        else:
            result = solver.solve(L, b, device=device)
    return result, profiler.profile(
        solver_name=result.solver_name,
        device_name=result.device.name if result.device is not None else "unknown",
        n_rows=L.n_rows,
        nnz=L.nnz,
    )
