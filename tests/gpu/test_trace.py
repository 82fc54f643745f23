"""Tracer and timeline-rendering tests."""

import numpy as np

from repro.gpu import SIM_TINY, SIMTEngine, Tracer, render_timeline
from repro.gpu.kernel import ALU, Poll, SpinWait
from repro.gpu.trace import TraceEvent
from repro.solvers import SyncFreeSolver, WritingFirstCapelliniSolver
from repro.solvers._sim import tracing


class TestTracer:
    def test_records_issue_and_done(self):
        eng = SIMTEngine(SIM_TINY)
        eng.tracer = Tracer()

        def kern(ctx):
            yield ALU

        eng.launch(kern, 3)
        kinds = eng.tracer.summary()
        assert kinds["admit"] == 1
        assert kinds["issue"] >= 1
        assert kinds["done"] == 1

    def test_records_block_and_wake(self):
        eng = SIMTEngine(SIM_TINY)
        eng.tracer = Tracer()
        eng.memory.alloc("f", np.zeros(1), flags=True)

        def kern(ctx):
            i = ctx.global_id
            if i == 0:
                yield SpinWait("f", 0, 1)
            elif i == 3:  # other warp produces
                yield ALU
                ctx.store("f", 0, 1)
                yield ALU

        eng.launch(kern, 6)
        kinds = eng.tracer.summary()
        assert kinds.get("block", 0) == 1
        assert kinds.get("wake", 0) == 1

    def test_records_sleep(self):
        eng = SIMTEngine(SIM_TINY)
        eng.tracer = Tracer()
        eng.memory.alloc("f", np.zeros(1), flags=True)

        def kern(ctx):
            i = ctx.global_id
            if i < 3:  # whole warp 0 polls
                yield Poll("f", 0, 1)
            elif i == 3:
                for _ in range(8):
                    yield ALU
                ctx.store("f", 0, 1)
                yield ALU

        eng.launch(kern, 6)
        assert eng.tracer.summary().get("sleep", 0) >= 1

    def test_event_cap(self):
        t = Tracer(max_events=2)
        for k in range(5):
            t.record(k, 0, "issue")
        assert len(t.events) == 2

    def test_no_tracer_means_no_overhead_path(self):
        eng = SIMTEngine(SIM_TINY)
        assert eng.tracer is None

        def kern(ctx):
            yield ALU

        eng.launch(kern, 3)  # must not raise


class TestRenderTimeline:
    def test_empty(self):
        assert "no trace events" in render_timeline(Tracer())

    def test_symbols_present(self):
        t = Tracer()
        t.events.extend(
            [
                TraceEvent(0, 0, "admit"),
                TraceEvent(1, 0, "issue"),
                TraceEvent(2, 0, "block"),
                TraceEvent(10, 0, "wake"),
                TraceEvent(11, 0, "issue"),
                TraceEvent(12, 0, "done"),
            ]
        )
        out = render_timeline(t, width=16)
        assert "w0" in out
        assert "#" in out and "s" in out

    def test_max_warps_truncation(self):
        t = Tracer()
        for w in range(30):
            t.record(0, w, "issue")
        out = render_timeline(t, width=8, max_warps=4)
        assert "more warps" in out


class TestTracingContext:
    def test_solver_trace_capture(self, fig1_system):
        tracer = Tracer()
        with tracing(tracer):
            r = WritingFirstCapelliniSolver().solve(
                fig1_system.L, fig1_system.b, device=SIM_TINY
            )
        assert np.allclose(r.x, fig1_system.x_true, rtol=1e-9)
        assert tracer.summary()["done"] == r.stats.warps_launched

    def test_context_resets(self, fig1_system):
        tracer = Tracer()
        with tracing(tracer):
            pass
        before = len(tracer.events)
        SyncFreeSolver().solve(fig1_system.L, fig1_system.b, device=SIM_TINY)
        assert len(tracer.events) == before  # outside the block: untraced
