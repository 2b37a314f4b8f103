"""Machine-speed samples, taken while a workload runs, to normalise its times.

On a shared host the speed of pure-Python code drifts by a quarter and more
from second to second and from minute to minute, and CPU time drifts with
wall time, so neither is steady enough to compare two runs. A ``Sampler``
times a fixed pure-Python kernel (dict, tuple, list and set work, like the
package's own) every ``INTERVAL_S`` of wall time from a SIGALRM handler,
which Python runs between bytecodes of the workload, so the samples cover
the same seconds as the work they normalise. A time ``t`` measured with
samples of mean ``m`` is reported as ``t * NOMINAL_S / m``: seconds at the
speed at which one kernel call takes ``NOMINAL_S``. The time spent in the
handler is kept in ``stolen_wall`` / ``stolen_cpu`` so that callers can take
it out of what they measure.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter, process_time

INTERVAL_S = 0.05
KERNEL_LOOPS = 2000
# the kernel's wall (and CPU) time on an unloaded 2-vCPU x86-64 VM with
# CPython 3.11; normalised seconds are seconds at that speed
NOMINAL_S = 0.0012


def kernel(loops=KERNEL_LOOPS):
    seen = {}
    stack = []
    total = 0
    for i in range(loops):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        stack.append(key)
        if len(stack) > 16:
            total += sum(stack.pop())
    return total + len(frozenset(seen) & frozenset(stack))


class Sampler:
    """Context manager that samples the kernel's time while it is open."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.wall = []
        self.cpu = []
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        # no collection inside the kernel: it would scan the workload's heap
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = perf_counter(), process_time()
        kernel()
        c1, w1 = process_time(), perf_counter()
        if collecting:
            gc.enable()
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)
        self.stolen_cpu += process_time() - c0
        self.stolen_wall += perf_counter() - w0

    def mark(self):
        """Position to pass to ``factor`` and ``stolen_since``."""
        return len(self.wall), self.stolen_wall, self.stolen_cpu

    def stolen_since(self, mark):
        return self.stolen_wall - mark[1], self.stolen_cpu - mark[2]

    def factor(self, start=None, end=None):
        """(wall, cpu) normalising factors from the samples between two marks."""
        lo = start[0] if start else 0
        hi = end[0] if end else len(self.wall)
        if hi - lo < 1:  # a phase shorter than one interval: sample it once now
            self._sample(None, None)
            lo, hi = len(self.wall) - 1, len(self.wall)
        wall, cpu = self.wall[lo:hi], self.cpu[lo:hi]
        return NOMINAL_S * len(wall) / sum(wall), NOMINAL_S * len(cpu) / sum(cpu)

    def __enter__(self):
        kernel()  # warm the kernel's code before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
