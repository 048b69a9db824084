"""Machine speed measured alongside a workload, so that its time can be rescaled.

The benchmark runs on shared machines whose speed drifts with the load of
their other tenants: on a 2-CPU VM a fixed loop took 1.8 s in one minute and
3.0 s in the next, with swings of 20% from one second to the next as well.
Process CPU time drifts the same way, so it is no remedy. A run's wall time
then says as much about the neighbours as about the program.

The calibrator interrupts the workload every ``PERIOD_S`` seconds (SIGALRM,
handled in the main thread between bytecodes), runs a fixed reference kernel
and times it. The workload's time is cut into the stretches between two
interruptions. Each stretch is divided by the median time of the kernels
around it and multiplied by ``REF_KERNEL_S``: that gives reference seconds, the time
the stretch would take on a machine where the kernel takes ``REF_KERNEL_S``.
The kernels' own time is left out. Spans too short to be interrupted, such
as a process's set-up, are rescaled by ``kernel_seconds`` taken just before
and after them.

The kernel mixes the work passband does most: interpreted Python, calls and
small objects, numpy on short arrays. On the VM above, rescaling cut the
coefficient of variation of one workload's repetitions from 10-15% to 2-3%;
kernels that stream through megabytes of memory tracked the workload worse.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.05
# A stretch is rescaled by the median of this many kernels on each side of
# it, so that one kernel slowed by an interrupt does not move it.
WINDOW = 3
# About the kernel's time on a 2-CPU Xeon VM, so that reference seconds read
# close to the seconds of that machine when it is not slowed down.
REF_KERNEL_S = 1e-3


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b


def _scale(p: _Point, k: int) -> float:
    return p.a * k + p.b


def kernel() -> float:
    """A fixed amount of interpreter, call and small-array numpy work."""
    x = 0
    for i in range(5000):
        x += i * i % 7
    a = np.arange(32.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    acc = []
    for i in range(1000):
        acc.append(_scale(_Point(i, 2.0), 3))
    return x + float(a[0]) + sum(acc)


def kernel_seconds(n: int = 5, work=kernel, clock=time.perf_counter) -> float:
    """Median time of n kernels, after one untimed warm-up run."""
    work()
    times = []
    for _ in range(n):
        t0 = clock()
        work()
        times.append(clock() - t0)
    return statistics.median(times)


class Calibrator:
    """Context manager that times ``kernel`` every ``period_s`` seconds.

    Kernel k_0 runs on entry and k_j at the j-th interruption; the workload
    stretch i lies between k_i and k_(i+1), or between k_i and the exit for
    the last one. Use it in the main thread of a process that installs no
    SIGALRM handler of its own.
    """

    def __init__(self, period_s: float = PERIOD_S, work=kernel, clock=time.perf_counter):
        self.period_s = period_s
        self._work = work
        self._clock = clock
        self.kernel_s = array("d")
        self.starts = array("d")
        self.ends = array("d")
        self._previous = None

    def _run_kernel(self) -> None:
        t0 = self._clock()
        self._work()
        t1 = self._clock()
        if self.starts:
            self.ends.append(t0)
        self.kernel_s.append(t1 - t0)
        self.starts.append(t1)

    def _tick(self, signum, frame) -> None:
        self._run_kernel()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def __enter__(self) -> Calibrator:
        self._work()  # warm caches before the first timed kernel
        self._run_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ends.append(self._clock())

    def stretches(self):
        """(start, end, kernel seconds around it) of every workload stretch."""
        ks = self.kernel_s
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            around = statistics.median(ks[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            yield start, end, around

    def work_seconds(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent outside the kernels."""
        return sum(max(0.0, min(end, b) - max(start, a)) for start, end, _ in self.stretches())

    def reference_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the workload time in [a, b]."""
        return sum(
            max(0.0, min(end, b) - max(start, a)) * REF_KERNEL_S / around
            for start, end, around in self.stretches()
        )

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
