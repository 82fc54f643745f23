"""Machine-speed probe.

On a shared virtual machine the same code runs at speeds up to about
1.5 times apart, in periods that last from half a second to several
minutes (a bare pure-Python loop moves between two rates on either
CPU), so a 30-s run lands in whichever periods it meets.  The benchmark
therefore stops for a few milliseconds between windows of requests and
measures how fast the machine is right then: :class:`SpeedProbe` times
a fixed hand-off from the calling thread to a pool thread carrying a
small numpy task (the serve tier's own pattern, with none of its code)
on every CPU the benchmark uses, and reports the mean rate relative to
:data:`REFERENCE_RATE`.  Latency, throughput and set-up time are then
expressed at that reference speed (see
:func:`perfbench.stats.reference_times`).

The probe runs no program code, so a change to the program moves the
normalized figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["PROBE_S", "REFERENCE_RATE", "SpeedProbe"]

#: Hand-offs per second that count as speed 1.0.
REFERENCE_RATE = 30_000.0

#: Length of one probe on one CPU, seconds.
PROBE_S = 0.005


def _pin(cpus) -> None:
    os.sched_setaffinity(0, cpus)  # 0: the calling thread only


class SpeedProbe:
    """Hand-off rate on the CPUs this process may use, relative to the
    reference.  Construct it after the process's CPU set is final."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="perfbench-probe")
        self._vec = np.linspace(0.0, 1.0, 2000)

    def _task(self) -> float:
        y = self._vec * 0.5
        y += self._vec
        return float(y[-1])

    def _rate(self) -> float:
        n = 0
        t0 = time.perf_counter()
        stop_at = t0 + PROBE_S
        while True:
            self._pool.submit(self._task).result()
            n += 1
            now = time.perf_counter()
            if now >= stop_at:
                return n / (now - t0)

    def speed(self) -> float:
        """Mean over the CPUs, each probed with both threads on it."""
        if len(self.cpus) == 1:
            return self._rate() / REFERENCE_RATE
        rates = []
        try:
            for cpu in self.cpus:
                _pin({cpu})
                self._pool.submit(_pin, {cpu}).result()
                rates.append(self._rate())
        finally:
            _pin(self.cpus)
            self._pool.submit(_pin, self.cpus).result()
        return sum(rates) / len(rates) / REFERENCE_RATE

    def close(self) -> None:
        self._pool.shutdown(wait=True)
