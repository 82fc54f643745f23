"""Shared plumbing for solvers that run on the SIMT simulator."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.errors import SolverError
from repro.gpu.device import DeviceSpec
from repro.gpu.simt import SIMTEngine
from repro.obs.profiler import active_profiler
from repro.sparse.csr import CSRMatrix

__all__ = [
    "make_engine",
    "alloc_system",
    "assert_all_solved",
    "instrumentation_active",
    "tracing",
    "sanitizing",
]

# ``repro.obs.profiling`` is the third ambient-attachment context: every
# engine built here also picks up the active cycle profiler.

#: Tracer picked up by every engine created while a `tracing` block is
#: active (lets callers trace a solve without touching solver APIs).
_ACTIVE_TRACER: ContextVar = ContextVar("repro_active_tracer", default=None)


@contextmanager
def tracing(tracer):
    """Attach ``tracer`` to every engine built inside the block.

    >>> from repro.gpu.trace import Tracer, render_timeline
    >>> tracer = Tracer()
    >>> with tracing(tracer):
    ...     solver.solve(L, b, device=SIM_TINY)    # doctest: +SKIP
    >>> print(render_timeline(tracer))             # doctest: +SKIP
    """
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


#: Sanitizer picked up by every engine created while a `sanitizing` block
#: is active (see :mod:`repro.analysis.sanitize`).
_ACTIVE_SANITIZER: ContextVar = ContextVar("repro_active_sanitizer", default=None)


@contextmanager
def sanitizing(sanitizer=None):
    """Attach a dynamic sanitizer to every engine built inside the block.

    >>> from repro.analysis.sanitize import Sanitizer
    >>> san = Sanitizer(mode="record")
    >>> with sanitizing(san):
    ...     solver.solve(L, b, device=SIM_TINY)    # doctest: +SKIP
    >>> san.summary()                              # doctest: +SKIP
    {}
    """
    if sanitizer is None:
        from repro.analysis.sanitize import Sanitizer

        sanitizer = Sanitizer()
    token = _ACTIVE_SANITIZER.set(sanitizer)
    try:
        yield sanitizer
    finally:
        _ACTIVE_SANITIZER.reset(token)


def instrumentation_active() -> bool:
    """True when an ambient tracer, sanitizer, or cycle profiler would
    attach to the next simulated launch.

    The serving layer uses this to force the simulator lane: cycle-level
    attribution only exists when the kernel actually runs on the
    simulator, so a host fast-path solve would silently produce an empty
    trace/profile.
    """
    return (
        _ACTIVE_TRACER.get() is not None
        or _ACTIVE_SANITIZER.get() is not None
        or active_profiler() is not None
    )


def _env_sanitizer():
    """Fresh sanitizer when ``REPRO_SANITIZE=1`` is exported (opt-in CI
    hardening: the whole solver suite runs under the dynamic checks)."""
    if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
        from repro.analysis.sanitize import Sanitizer

        return Sanitizer()
    return None


#: Memory array names shared by every SpTRSV kernel in this package.
ROW_PTR = "row_ptr"
COL_IDX = "col_idx"
VALUES = "values"
RHS = "b"
X = "x"
GET_VALUE = "get_value"


def make_engine(device: DeviceSpec, *, max_cycles: int | None = None) -> SIMTEngine:
    """One fresh engine per solve (counters and memory start clean)."""
    if max_cycles is None:
        engine = SIMTEngine(device)
    else:
        engine = SIMTEngine(device, max_cycles=max_cycles)
    engine.tracer = _ACTIVE_TRACER.get()
    engine.profiler = active_profiler()
    sanitizer = _ACTIVE_SANITIZER.get()
    if sanitizer is None:
        sanitizer = _env_sanitizer()
    if sanitizer is not None:
        if engine.tracer is None:
            # hazard reports carry a timeline tail; give them one
            from repro.gpu.trace import Tracer

            engine.tracer = Tracer()
        sanitizer.tracer = engine.tracer
        engine.sanitizer = sanitizer
    return engine


def alloc_system(
    engine: SIMTEngine,
    L: CSRMatrix,
    b: np.ndarray,
    *,
    with_flags: bool = True,
) -> None:
    """Place the CSR arrays, RHS, solution vector and flag array in device
    memory under the conventional names."""
    mem = engine.memory
    mem.alloc(ROW_PTR, L.row_ptr)
    mem.alloc(COL_IDX, L.col_idx)
    mem.alloc(VALUES, L.values)
    mem.alloc(RHS, np.array(b, dtype=np.float64, copy=True))
    mem.alloc(X, np.zeros(L.n_rows, dtype=np.float64))
    if with_flags:
        # one byte per row, as in the reference CUDA implementations
        mem.alloc(GET_VALUE, np.zeros(L.n_rows, dtype=np.int8), flags=True)


def assert_all_solved(engine: SIMTEngine, n_rows: int, solver_name: str) -> None:
    """Post-launch invariant: every component published its flag.

    Guards the Two-Phase bound (Algorithm 4's ``WARP_SIZE`` outer loop is
    *assumed* sufficient; if it ever were not, the kernel would exit with
    unsolved rows and this check turns that into a loud error instead of
    a silently wrong solution).
    """
    flags = engine.memory.array(GET_VALUE)
    unsolved = np.nonzero(flags[:n_rows] == 0)[0]
    if unsolved.size:
        raise SolverError(
            f"{solver_name}: {unsolved.size} component(s) left unsolved "
            f"(first: row {int(unsolved[0])})"
        )
