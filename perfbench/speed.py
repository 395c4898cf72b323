"""Machine-speed probe: rescale measured times to a reference speed.

On the shared 2-vCPU virtual machine this benchmark was built on, the
effective CPU speed swings by up to 2x over seconds (neighbours on the
host), which moves raw wall-clock figures by 10-20% between otherwise
identical runs.  The swings are per CPU (the two
vCPUs do not move together), so the speed must be read on the CPU that
runs the loops.  A short fixed piece of pure-Python work — sharing no
code with the program under test, so no change to the program can
speed it up — is timed before every in-process op, and every
:data:`INTERVAL_S` on the serve daemon's CPU.  Each measured time is
multiplied by ``REFERENCE_S / probe``, with ``probe`` taken from the
samples around it: the result is the time the work would have taken
had the machine run the probe in exactly :data:`REFERENCE_S`.  Every reported ms and s is in these
reference-speed units; the raw wall-clock figures are printed beside
them.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from contextlib import contextmanager

#: the probe's time at the reference speed (about its median here).
REFERENCE_S = 5e-4
#: background sampling period (served workload).
INTERVAL_S = 0.02
#: probe runs per sample; the fastest is kept, which drops samples a
#: preemption or a garbage collection inflated.
REPEATS = 2


def probe(clock=time.perf_counter) -> float:
    """Seconds the fixed probe work takes right now, by ``clock``."""
    best = float("inf")
    for _ in range(REPEATS):
        tick = clock()
        table = {}
        acc = 0
        for i in range(2500):
            table[i & 63] = acc
            acc = (acc + i * 3) % 1000003
            str(i)
        best = min(best, clock() - tick)
    return best


class SpeedLog:
    """Probe samples ``(time, seconds)`` taken along a timed phase."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, clock=time.perf_counter) -> None:
        now = time.perf_counter()
        value = probe(clock)
        self.times.append(now)
        self.values.append(value)

    @contextmanager
    def sampling(self, cpu: int | None = None):
        """Sample from a background thread for the duration of the block.

        With ``cpu`` the thread pins itself there (the serve daemon's
        CPU) and times the probe in thread CPU time, so sharing the CPU
        with the daemon does not count as slowness.
        """
        stop = threading.Event()

        def loop() -> None:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            while True:
                self.sample(time.thread_time)
                if stop.wait(INTERVAL_S):
                    return

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def factor(self, at: float) -> float:
        """``REFERENCE_S / probe`` from the samples bracketing ``at``."""
        k = bisect.bisect(self.times, at)
        near = self.values[max(0, k - 1):k + 1]
        return REFERENCE_S / statistics.fmean(near)

    def scale(self, start: float, seconds: float) -> float:
        """A duration that began at ``start``, in reference seconds."""
        return seconds * self.factor(start)

    def scale_span(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds, rescaled
        piecewise between samples."""
        edges = [start] + [t for t in self.times if start < t < end] + [end]
        return sum(
            (b - a) * self.factor(a) for a, b in zip(edges, edges[1:])
        )
