"""The reference clock the suite's timings are read against.

The host the suite was measured on changes speed in spells of seconds
to a minute, by a third or more, and process CPU time moves with wall
time, so no statistic of raw times taken over a run holds still from
one run to the next (see README.md).  A fixed piece of pure-Python work
timed at the same moment slows down with the operation, though, so the
ratio of the two holds still much better.

:class:`RefClock` runs that reference loop from a ``SIGALRM`` handler
every :data:`PERIOD_S`, on the main thread, while the workload runs,
and records when each sample ended and the loop's CPU time on that
thread (so a sample the workload's other processes preempted is not
read as a slow host).  :meth:`RefClock.ref` is the mean sample over an
interval, and an operation's time in *refs* is its seconds over that
mean: the number of reference loops it is worth.  One ref took
0.5-0.9 ms on the 2.1 GHz Xeon VM the baseline was measured on.

The handler interrupts whatever the main thread runs, between two
bytecodes; interval timers are not inherited across ``fork``, so a
workload's child processes are never sampled.  :attr:`RefClock.spent`
is the wall time the handler took, for callers to leave out of their
timings.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between samples; one sample takes ~1 ms, about 1% of a run.
PERIOD_S = 0.1
#: Iterations of the reference loop.
ITERATIONS = 5000


def reference_loop() -> int:
    """Fixed interpreter work: dictionary reads and writes, integer
    arithmetic.  Never changes, or refs stop comparing across commits."""
    table: dict = {}
    for i in range(ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + i
    return len(table)


class RefClock:
    """Samples of the reference loop taken every :data:`PERIOD_S`."""

    def __init__(self):
        self.at: list = []      # time.monotonic() at the end of each sample
        self.cpu_s: list = []   # the sample's thread CPU seconds
        self.spent = 0.0        # wall seconds spent in the handler
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        wall, cpu = time.monotonic(), time.thread_time()
        reference_loop()
        cpu = time.thread_time() - cpu
        end = time.monotonic()
        self.at.append(end)
        self.cpu_s.append(cpu)
        self.spent += end - wall

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; idempotent."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def ref(self, start: float, end: float) -> float:
        """Mean sample, in seconds, from ``start - PERIOD_S`` to ``end +
        PERIOD_S`` (monotonic times); when none falls in that window,
        the first sample after it (the last one, if none follows)."""
        if not self.at:
            raise RuntimeError("the reference clock took no sample")
        low = bisect.bisect_left(self.at, start - PERIOD_S)
        high = bisect.bisect_right(self.at, end + PERIOD_S)
        if high <= low:
            low = min(low, len(self.at) - 1)
            high = low + 1
        return statistics.fmean(self.cpu_s[low:high])

    def median_ms(self) -> float:
        """The median sample in milliseconds: how fast the host ran."""
        return statistics.median(self.cpu_s) * 1e3 if self.cpu_s else 0.0
