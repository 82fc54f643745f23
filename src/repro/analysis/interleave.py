"""Deterministic interleaving explorer for asyncio services.

The serve engine's coalescing/timeout/fallback logic is only as correct
as its behaviour under *every* interleaving of its await points — and
live asyncio timing explores approximately one of them, nondeterministically.
This module provides the controlled half of the static/dynamic pair
whose static half is :mod:`repro.analysis.asynclint` (the simsched
approach, applied to our engine):

* The clock protocol the engine codes against: ``now()``, ``await
  sleep(delay)`` and ``call_later(delay, callback, *args, label=...)``
  returning a handle with ``cancel()``.  :class:`AsyncioClock` is real
  time over ``loop.call_later``; :class:`VirtualClock` is virtual time,
  where ``sleep`` and ``call_later`` park labelled waiters on a
  deadline list instead of the loop's timer wheel and firing a waiter
  is an explicit, schedulable event.  In ``auto`` mode the clock pumps
  itself in earliest-deadline order (deterministic fast-forward, used
  by trace replay); under a scheduler, *which* due waiter fires next is
  the exploration decision.
* :class:`DeferredExecutor` — an ``Executor`` whose submissions
  complete at a scheduled virtual instant (``cost`` seconds after
  submission) instead of on a real worker thread, so "the worker
  finished before/after the deadline" becomes a schedulable ordering,
  not a race against the wall clock.  Built with ``inline=True`` it
  also lets the engine run a block inline on the loop
  (:meth:`DeferredExecutor.run_inline`), a non-yielding step that holds
  virtual time for ``cost`` seconds.
* :class:`InterleaveScheduler` — runs one scenario coroutine over a
  real event loop, but every time the loop quiesces it picks which due
  virtual event fires next: seeded-random, or dictated by an explicit
  choice list (replay / systematic mode).  Records every decision and
  a byte-stable schedule trace; detects hangs (no runnable event while
  the scenario is unfinished — the dynamic signature of a lost
  wakeup).
* :func:`explore` — schedule search: N seeded random schedules, or
  bounded systematic enumeration of all decision prefixes.  Failures
  are shrunk to a minimal reproducing choice list whose replay is
  byte-identical run to run.

The clock/executor seams plug straight into
``SolveEngine(clock=..., executor=...)``; canned engine scenarios live
in :mod:`repro.serve.scenarios`, and ``repro-sptrsv
check-interleavings`` drives them from the CLI.  See
``docs/analysis.md`` for a worked lost-wakeup example.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Iterable, Optional

__all__ = [
    "AsyncioClock",
    "DeferredExecutor",
    "ExplorationReport",
    "InterleaveScheduler",
    "InvariantViolation",
    "ScheduleHang",
    "ScheduleResult",
    "VirtualClock",
    "explore",
    "minimize_schedule",
    "run_schedule",
]

#: Event-loop rounds the scheduler yields between decisions, letting
#: chained callbacks/wakeups drain.  Each round processes the loop's
#: whole ready queue, so this bounds the *dependency depth* between two
#: virtual events, not the number of callbacks.
SETTLE_TICKS = 25

#: Runaway guard: virtual events fired in one schedule.
MAX_STEPS = 10_000


class ScheduleHang(Exception):
    """The scenario cannot finish: no virtual event is runnable while
    the scenario task is still pending — a lost wakeup (or a wait on
    something outside the harness's control)."""

    def __init__(self, message: str, *, trace: str = "") -> None:
        super().__init__(message)
        self.trace = trace


class InvariantViolation(AssertionError):
    """An invariant check failed after a schedule completed."""


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


class AsyncioClock:
    """The engine's default clock: real time, stock asyncio timers."""

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def call_later(
        self, delay: float, callback: Callable, *args, label: str = ""
    ) -> "asyncio.Handle":
        """Run ``callback(*args)`` on the loop after ``delay`` seconds
        (on the next loop turn when ``delay <= 0``); the handle's
        ``cancel()`` withdraws it.  ``label`` names the timer in a
        virtual clock's schedule trace; real time ignores it."""
        loop = asyncio.get_running_loop()
        if delay <= 0:
            return loop.call_soon(callback, *args)
        return loop.call_later(delay, callback, *args)


@dataclass
class _Waiter:
    """One parked virtual event; ``cancel()`` withdraws it."""

    deadline: float
    seq: int
    label: str
    action: Callable[[], None]
    #: the future a ``sleep`` resolves; None for posted actions
    future: Optional["asyncio.Future"] = None
    cancelled: bool = False

    @property
    def live(self) -> bool:
        return not self.cancelled and (
            self.future is None or not self.future.done()
        )

    def cancel(self) -> None:
        self.cancelled = True


class VirtualClock:
    """Virtual time: waits become explicit, schedulable events.

    ``auto=True`` (standalone, e.g. instant trace replay) self-pumps:
    whenever waiters exist, the earliest-deadline one fires after
    ``settle_hops`` event-loop rounds, giving a deterministic
    fast-forward through virtual time.  The settle delay between fires
    lets the chain of wakeups from one event run to quiescence — in
    particular, a served request must get to cancel its deadline timer
    before the pump would fire it.  ``auto=False`` leaves firing to an
    :class:`InterleaveScheduler`, which picks *which* due waiter fires
    — the exploration decision.
    """

    def __init__(
        self,
        *,
        start: float = 0.0,
        auto: bool = True,
        settle_hops: int = 10,
    ) -> None:
        self._now = float(start)
        self._auto = auto
        self._seq = itertools.count()
        self._waiters: list[_Waiter] = []
        self._pump_scheduled = False
        self.settle_hops = settle_hops
        self._hops = settle_hops

    # -- Clock protocol ------------------------------------------------
    def now(self) -> float:
        return self._now

    async def sleep(self, delay: float, *, label: str = "") -> None:
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        seq = next(self._seq)
        waiter = _Waiter(
            deadline=self._now + max(float(delay), 0.0),
            seq=seq,
            label=label or f"sleep#{seq}",
            action=lambda: (None if fut.done() else fut.set_result(None)),
            future=fut,
        )
        self._park(waiter)
        try:
            await fut
        except asyncio.CancelledError:
            self._discard(waiter)
            raise

    def call_later(
        self, delay: float, callback: Callable, *args, label: str = "timer"
    ) -> _Waiter:
        """A labelled waiter that runs ``callback(*args)`` when fired,
        in the context current at this call (as asyncio's handles do);
        its ``cancel()`` withdraws it."""
        ctx = contextvars.copy_context()
        waiter = self.post(label, delay, lambda: ctx.run(callback, *args))
        waiter.label = f"{label}#{waiter.seq}"
        return waiter

    # -- event posting (DeferredExecutor, schedulers) ------------------
    def advance(self, delay: float) -> None:
        """Move virtual time forward by ``delay`` without firing
        anything: a step that holds the loop (an inline block) for that
        long.  Waiters it overruns fire, late, when next chosen."""
        self._now += max(float(delay), 0.0)

    def post(
        self, label: str, delay: float, action: Callable[[], None]
    ) -> _Waiter:
        """Register an arbitrary action to run at ``now + delay``."""
        waiter = _Waiter(
            deadline=self._now + max(float(delay), 0.0),
            seq=next(self._seq),
            label=label,
            action=action,
        )
        self._park(waiter)
        return waiter

    def _park(self, waiter: _Waiter) -> None:
        self._waiters.append(waiter)
        if self._auto:
            self._schedule_pump(asyncio.get_running_loop())

    # -- firing --------------------------------------------------------
    def due(self) -> list[_Waiter]:
        """Live waiters sharing the earliest deadline, in creation
        order — the scheduler's decision candidates."""
        self._waiters = [w for w in self._waiters if w.live]
        if not self._waiters:
            return []
        dmin = min(w.deadline for w in self._waiters)
        return sorted(
            (w for w in self._waiters if w.deadline == dmin),
            key=lambda w: w.seq,
        )

    def fire(self, waiter: _Waiter) -> None:
        """Advance virtual time to the waiter's deadline and run it."""
        self._discard(waiter)
        self._now = max(self._now, waiter.deadline)
        waiter.action()

    def _discard(self, waiter: _Waiter) -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass

    # -- auto pump -----------------------------------------------------
    def _schedule_pump(self, loop: "asyncio.AbstractEventLoop") -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            loop.call_soon(self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._hops > 0:
            self._hops -= 1
        else:
            due = self.due()
            if due:
                self.fire(due[0])
            self._hops = self.settle_hops
        if self._waiters:
            self._schedule_pump(asyncio.get_running_loop())


# ---------------------------------------------------------------------------
# deferred executor
# ---------------------------------------------------------------------------


class DeferredExecutor:
    """Executor whose submissions complete at a virtual instant.

    Work submitted here runs *inline on the event-loop thread* when the
    scheduler fires its completion event, ``cost`` virtual seconds
    after submission — so "worker finished before/after the request
    deadline" is an explored ordering, not a thread race.

    ``inline=True`` offers the engine its inline path as well: a
    ``SolveEngine`` runs an idle engine's warm host block through
    :meth:`run_inline` instead of submitting it, so the explorer
    reaches inline dispatch and its late-result deadline rule.
    """

    def __init__(
        self, clock: VirtualClock, *, cost: float = 0.0, inline: bool = False
    ) -> None:
        self.clock = clock
        self.cost = cost
        self.inline = inline
        self._seq = itertools.count()

    def run_inline(self, fn, *args):
        """Run ``fn(*args)`` now, as a block that holds the loop for
        ``cost`` virtual seconds: no other event fires meanwhile."""
        self.clock.advance(self.cost)
        return fn(*args)

    def submit(self, fn, *args, **kwargs) -> "concurrent.futures.Future":
        cf: concurrent.futures.Future = concurrent.futures.Future()

        def complete() -> None:
            if not cf.set_running_or_notify_cancel():
                return
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                cf.set_exception(exc)
            else:
                cf.set_result(result)

        self.clock.post(f"worker#{next(self._seq)}", self.cost, complete)
        return cf

    def shutdown(self, wait: bool = True, **_kwargs) -> None:
        """Nothing to tear down: work runs on the loop thread."""


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


class InterleaveScheduler:
    """Drives one scenario under an explicit, replayable schedule.

    Decisions come from ``choices`` while it lasts (replay/systematic
    prefix), then from the seeded RNG (``seed`` given) or the first
    candidate (``seed=None`` — the deterministic default schedule).
    """

    def __init__(
        self,
        *,
        seed: Optional[int] = 0,
        choices: Optional[Iterable[int]] = None,
        settle_ticks: int = SETTLE_TICKS,
        max_steps: int = MAX_STEPS,
    ) -> None:
        self.clock = VirtualClock(auto=False)
        self.rng = random.Random(seed) if seed is not None else None
        self.preset = list(choices or [])
        self.settle_ticks = settle_ticks
        self.max_steps = max_steps
        #: ``(chosen_index, n_candidates)`` per decision, in order
        self.decisions: list[tuple[int, int]] = []
        self._trace_lines: list[str] = []

    def executor(
        self, *, cost: float = 0.0, inline: bool = False
    ) -> DeferredExecutor:
        """A worker lane under this scheduler's clock (``inline``: see
        :class:`DeferredExecutor`)."""
        return DeferredExecutor(self.clock, cost=cost, inline=inline)

    # ------------------------------------------------------------------
    def trace_text(self) -> str:
        """The schedule trace: one line per fired event, byte-stable
        for a given (choices, seed) pair."""
        return "\n".join(self._trace_lines)

    async def run(self, scenario: Callable[[], Awaitable]) -> Any:
        """Run ``scenario()`` to completion under this schedule."""
        main = asyncio.ensure_future(scenario())
        steps = 0
        while True:
            await self._settle()
            if main.done():
                break
            candidates = self.clock.due()
            if not candidates:
                trace = self.trace_text()
                main.cancel()
                await asyncio.gather(main, return_exceptions=True)
                raise ScheduleHang(
                    "scenario cannot finish: no virtual event is runnable "
                    "but the scenario task is still pending — a waiter was "
                    "never resolved (lost wakeup)",
                    trace=trace,
                )
            idx = self._choose(len(candidates))
            waiter = candidates[idx]
            self._trace_lines.append(
                f"step={steps:04d} t={waiter.deadline:.6f} "
                f"fire={waiter.label} choice={idx + 1}/{len(candidates)}"
            )
            self.clock.fire(waiter)
            steps += 1
            if steps > self.max_steps:
                main.cancel()
                await asyncio.gather(main, return_exceptions=True)
                raise ScheduleHang(
                    f"schedule exceeded {self.max_steps} events",
                    trace=self.trace_text(),
                )
        return main.result()

    async def _settle(self) -> None:
        for _ in range(self.settle_ticks):
            await asyncio.sleep(0)

    def _choose(self, n: int) -> int:
        if self.preset:
            idx = min(self.preset.pop(0), n - 1)
        elif self.rng is not None and n > 1:
            idx = self.rng.randrange(n)
        else:
            idx = 0
        self.decisions.append((idx, n))
        return idx


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

#: A scenario factory takes the fresh scheduler of one run and returns
#: the coroutine to execute under it.
ScenarioFactory = Callable[[InterleaveScheduler], Awaitable]
#: An invariant receives ``(scheduler, scenario_return_value)`` and
#: raises :class:`InvariantViolation` / ``AssertionError`` on breach.
Invariant = Callable[[InterleaveScheduler, Any], None]


@dataclass
class ScheduleResult:
    """Outcome of one schedule."""

    seed: Optional[int]
    choices: tuple[int, ...]
    decisions: tuple[tuple[int, int], ...]
    trace: str
    error: Optional[str] = None
    hung: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExplorationReport:
    """What :func:`explore` found across all schedules."""

    mode: str
    n_schedules: int
    failures: list[ScheduleResult] = field(default_factory=list)
    #: shrunk choice list reproducing the first failure (replayable via
    #: ``run_schedule(factory, choices=minimal_choices)``)
    minimal_choices: Optional[tuple[int, ...]] = None
    minimal_trace: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return (
                f"interleavings: {self.n_schedules} {self.mode} "
                "schedule(s) explored, all invariants held"
            )
        first = self.failures[0]
        lines = [
            f"interleavings: {len(self.failures)} of {self.n_schedules} "
            f"{self.mode} schedule(s) FAILED",
            f"first failure: {first.error}",
        ]
        if self.minimal_choices is not None:
            lines.append(
                f"minimal reproducing schedule: "
                f"choices={list(self.minimal_choices)}"
            )
            if self.minimal_trace:
                lines.append("schedule trace:")
                lines.extend("  " + ln for ln in
                             self.minimal_trace.splitlines())
        return "\n".join(lines)


def run_schedule(
    scenario_factory: ScenarioFactory,
    *,
    seed: Optional[int] = None,
    choices: Optional[Iterable[int]] = None,
    invariants: Iterable[Invariant] = (),
    settle_ticks: int = SETTLE_TICKS,
) -> ScheduleResult:
    """Execute one schedule (fresh loop, fresh scheduler) and check
    invariants.  Failures are captured, never raised."""
    choice_list = tuple(choices or ())
    sched = InterleaveScheduler(
        seed=seed, choices=choice_list, settle_ticks=settle_ticks
    )
    error: Optional[str] = None
    hung = False
    trace = ""
    try:
        value = asyncio.run(sched.run(lambda: scenario_factory(sched)))
    except ScheduleHang as exc:
        error = f"hang: {exc}"
        hung = True
        trace = exc.trace
    except (InvariantViolation, AssertionError) as exc:
        error = f"invariant: {exc}"
    except Exception as exc:  # noqa: BLE001 - scenario bug, reported
        error = f"{type(exc).__name__}: {exc}"
    else:
        trace = sched.trace_text()
        for check in invariants:
            try:
                check(sched, value)
            except (InvariantViolation, AssertionError) as exc:
                error = f"invariant: {exc}"
                break
    if not trace:
        trace = sched.trace_text()
    return ScheduleResult(
        seed=seed,
        choices=choice_list,
        decisions=tuple(sched.decisions),
        trace=trace,
        error=error,
        hung=hung,
    )


def minimize_schedule(
    scenario_factory: ScenarioFactory,
    failing: ScheduleResult,
    *,
    invariants: Iterable[Invariant] = (),
) -> ScheduleResult:
    """Greedy shrink of a failing schedule to a minimal choice list.

    The failing run's decision sequence is replayed as an explicit
    choice list (making it seed-independent), then each decision is
    zeroed left-to-right when the failure survives, and trailing zeros
    are dropped (zero is the scheduler's default choice).
    """

    def attempt(choice_list: tuple[int, ...]) -> ScheduleResult:
        return run_schedule(
            scenario_factory, seed=None, choices=choice_list,
            invariants=invariants,
        )

    best = attempt(tuple(idx for idx, _n in failing.decisions))
    if not best.failed:  # schedule-independent failure: empty repro
        empty = attempt(())
        return empty if empty.failed else best
    choices = list(best.choices)
    for i, value in enumerate(choices):
        if value == 0:
            continue
        trial = choices.copy()
        trial[i] = 0
        result = attempt(tuple(trial))
        if result.failed:
            choices = trial
            best = result
    while choices and choices[-1] == 0:
        choices.pop()
        best = attempt(tuple(choices))
    return best


def explore(
    scenario_factory: ScenarioFactory,
    *,
    schedules: int = 50,
    seed: int = 0,
    mode: str = "random",
    max_depth: int = 8,
    invariants: Iterable[Invariant] = (),
    settle_ticks: int = SETTLE_TICKS,
) -> ExplorationReport:
    """Search schedules for invariant violations and hangs.

    ``mode="random"`` runs ``schedules`` independent seeded schedules
    (seeds ``seed .. seed+schedules-1``).  ``mode="systematic"``
    enumerates decision prefixes breadth-first up to ``max_depth``
    decision points, bounded by ``schedules`` runs — exhaustive when
    the bound is not hit.
    """
    invariants = tuple(invariants)
    failures: list[ScheduleResult] = []
    n_run = 0

    def note(result: ScheduleResult) -> None:
        if result.failed:
            failures.append(result)

    if mode == "random":
        for i in range(schedules):
            result = run_schedule(
                scenario_factory, seed=seed + i, invariants=invariants,
                settle_ticks=settle_ticks,
            )
            n_run += 1
            note(result)
    elif mode == "systematic":
        pending: list[tuple[int, ...]] = [()]
        visited: set[tuple[int, ...]] = set()
        while pending and n_run < schedules:
            prefix = pending.pop(0)
            if prefix in visited:
                continue
            visited.add(prefix)
            result = run_schedule(
                scenario_factory, seed=None, choices=prefix,
                invariants=invariants, settle_ticks=settle_ticks,
            )
            n_run += 1
            note(result)
            for pos in range(len(prefix), min(len(result.decisions),
                                              max_depth)):
                _idx, n_candidates = result.decisions[pos]
                for alt in range(1, n_candidates):
                    sibling = result.decisions[:pos]
                    pending.append(
                        tuple(i for i, _n in sibling) + (alt,)
                    )
    else:
        raise ValueError(f"mode must be 'random' or 'systematic', got {mode!r}")

    report = ExplorationReport(
        mode=mode, n_schedules=n_run, failures=failures
    )
    if failures:
        minimal = minimize_schedule(
            scenario_factory, failures[0], invariants=invariants
        )
        if minimal.failed:
            report.minimal_choices = minimal.choices
            report.minimal_trace = minimal.trace
    return report
