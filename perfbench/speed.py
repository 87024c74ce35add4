"""Host speed probe: how fast the benchmark's CPU runs while it works.

A VM's CPU changes speed from second to second and from minute to
minute with what else its host runs: the same serial check set took
15-20 s from run to run on a 2-CPU x86 VM.  ``run.py`` pins itself and
every process it starts to one CPU, and each workload process runs a
:class:`SpeedProbe`: a thread that times a fixed unit of interpreter
work, in thread CPU seconds, every :data:`PERIOD_S` seconds on that
same CPU.  The mean unit time over a span divided by
:data:`REFERENCE_UNIT_S` is the span's *slowdown*; the span's host
seconds divided by it are its seconds at the reference speed.

Over 150 s of back-to-back 57 ms simulations on that VM, the mean
simulation time of 5-20 s windows spread 8-16% (interquartile range
over median) and correlated 0.95-0.99 with the mean unit time of the
same windows.  The probe takes 3-5% of the CPU, in every timed
operation alike.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Seconds between two probe units.
PERIOD_S = 0.1
#: Iterations of :func:`reference_unit` in one probe unit.
UNIT_ITERATIONS = 12_000
#: Thread CPU seconds of one probe unit at the reference speed.  Its
#: mean was 3.5-5 ms in the workload processes on a 2-CPU x86 VM; it
#: differs between workloads, so scaled seconds compare runs of one
#: workload.
REFERENCE_UNIT_S = 0.0033


class _Entry:
    __slots__ = ("key", "count", "ready")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0
        self.ready = False

    def touch(self, cycle: int) -> bool:
        self.count += 1
        self.ready = (cycle + self.key) % 3 == 0
        return self.ready


def reference_unit(iterations: int) -> int:
    """Fixed interpreter-bound work shaped like the simulator's: method
    calls, attribute updates, dict look-ups and a bounded queue.  It
    does not touch the program, so no change to the program moves it."""
    table = {}
    queue: List[_Entry] = []
    ready = 0
    for cycle in range(iterations):
        key = (cycle * 7) & 63
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        if entry.touch(cycle):
            ready += 1
        queue.append(entry)
        if len(queue) > 16:
            queue.pop(0)
    return ready + sum(e.count for e in queue)


def pin_to_one_cpu() -> int:
    """Restrict this process (and every process it starts later) to the
    last CPU it may run on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def slowdown(units: List[float]) -> Optional[float]:
    """Mean probe unit time over the reference; None without units."""
    if not units:
        return None
    return statistics.fmean(units) / REFERENCE_UNIT_S


class SpeedProbe:
    """A daemon thread that times one probe unit at once and then every
    :data:`PERIOD_S` seconds; samples are (wall time, CPU seconds)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-speed-probe")

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            start = time.thread_time()
            reference_unit(UNIT_ITERATIONS)
            self.samples.append((time.time(),
                                 time.thread_time() - start))
            if self._stop.wait(PERIOD_S):
                return

    def window(self, start: float, end: float
               ) -> List[Tuple[float, float]]:
        """The samples taken between wall times ``start`` and ``end``."""
        return [(ts, cpu) for ts, cpu in list(self.samples)
                if start <= ts <= end]
