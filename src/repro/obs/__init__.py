"""Unified observability for the reproduction (``repro.obs``).

Three lenses over one solve pipeline:

* **Phase attribution** — :class:`Profiler` / :func:`profiling` /
  :func:`profile_solve` attribute every simulated cycle of every warp to
  compute, cross-warp spin-wait, intra-warp poll wait, memory stall or
  idle, producing :class:`SolveProfile` objects (the measurable form of
  the paper's Writing-First-vs-busy-wait argument).
* **Exporters** — :func:`write_chrome_trace` (Perfetto/chrome://tracing),
  :func:`render_flame` (terminal), :func:`profile_json` /
  :func:`phase_digest` (machine-readable, shared with ``analyze --json``).
* **Request tracing** — :class:`TraceLog` + :func:`new_id`, the
  bounded structured event log the serving layer threads trace ids
  through (see :mod:`repro.serve.engine`).

See ``docs/observability.md`` for the end-to-end walkthrough.
"""

from repro.obs.profile import (
    COMPUTE,
    IDLE,
    INTRA_WARP_WAIT,
    MEM_STALL,
    PHASES,
    SPIN_WAIT,
    WAIT_PHASES,
    LaunchProfile,
    Slice,
    SolveProfile,
    WarpProfile,
    merge_profiles,
)
from repro.obs.profiler import (
    Profiler,
    active_profiler,
    profile_solve,
    profiling,
)
from repro.obs.chrome import (
    PHASE_COLORS,
    chrome_trace,
    spans_chrome_trace,
    write_chrome_trace,
    write_trace_doc,
)
from repro.obs.flame import phase_bar, render_flame
from repro.obs.report import phase_digest, profile_json
from repro.obs.tracelog import TRACELOG_SCHEMA, TraceLog, new_id
from repro.obs.disttrace import (
    ClockAligner,
    Span,
    SpanContext,
    SpanRecorder,
    TraceCollector,
)
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    JournalReader,
    JournalWriter,
)

__all__ = [
    "COMPUTE",
    "SPIN_WAIT",
    "INTRA_WARP_WAIT",
    "MEM_STALL",
    "IDLE",
    "PHASES",
    "WAIT_PHASES",
    "Slice",
    "WarpProfile",
    "LaunchProfile",
    "SolveProfile",
    "merge_profiles",
    "Profiler",
    "profiling",
    "active_profiler",
    "profile_solve",
    "chrome_trace",
    "write_chrome_trace",
    "spans_chrome_trace",
    "write_trace_doc",
    "PHASE_COLORS",
    "render_flame",
    "phase_bar",
    "profile_json",
    "phase_digest",
    "TraceLog",
    "TRACELOG_SCHEMA",
    "new_id",
    "SpanContext",
    "Span",
    "SpanRecorder",
    "ClockAligner",
    "TraceCollector",
    "JOURNAL_SCHEMA",
    "JournalWriter",
    "JournalReader",
]
