"""Host-speed calibration: a fixed kernel timed while the work runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to half over a minute, in CPU time as much as in wall time, because the
work itself runs slower, not because it waits.  No plain time of the
program repeats under that.  So the benchmark times ``kernel``, a fixed
piece of work of the same kind as statdisc's (dictionaries of occupation
tuples with complex amplitudes, tuple and set enumeration, small numpy
fancy indexing and an eigendecomposition), every ``INTERVAL`` seconds while
the work runs, and scales each stretch of work by ``REFERENCE_S`` over the
kernel's time at its start.  The result is the time the work would take on
a host that runs the kernel in ``REFERENCE_S``: a program change moves it,
host drift mostly does not.

The kernel is defined here and does not change with the program.  It runs
with the garbage collector off, so the size of the program's heap does not
reach it, and its own time is left out of the work's.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import defaultdict
from itertools import islice, permutations, product
from time import perf_counter

import numpy as np

# The kernel's median time on the host the seed baseline was measured on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.x).  Only a fixed scale:
# it turns the ratio of work to kernel back into seconds.
REFERENCE_S = 0.007
# Kernel timings per ``measure``; their median is the result.
REPEATS = 5
# Seconds of work between two kernel timings of a ``Clock``; the kernel
# adds about a twentieth to the run's time, none to the work's.
INTERVAL = 0.1
# A clock's factor comes from the median of its last SMOOTH kernel timings.
SMOOTH = 3

_ROW = [complex(0.5, 0.1 * k) for k in range(4)]
_BITS = (np.arange(128)[:, None] >> np.arange(6, -1, -1)[None, :]) & 1
_PLACE = 1 << np.arange(6, -1, -1)
_HERM = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7 + np.eye(16)


def kernel() -> float:
    """One fixed piece of work; returns a number so none of it is skipped."""
    working = {(0,) * 8: 1 + 0j}
    for step in range(6):
        grown: dict = defaultdict(complex)
        spin = step & 1
        for cfg, amp in working.items():
            for arm in range(4):
                mode = 2 * arm + spin
                if cfg[mode] > 2:
                    continue
                new = cfg[:mode] + (cfg[mode] + 1,) + cfg[mode + 1:]
                grown[new] += amp * _ROW[arm] * 1.5
        working = grown
    total = sum(abs(amp) * sum(cfg) for cfg, amp in working.items())
    distinct = 0
    for routing in product(range(4), repeat=6):
        if len(set(routing[:3] + routing[3:])) == 4:
            distinct += 1
    counts = np.zeros((128, 128))
    cols = np.arange(128)
    for perm in islice(permutations(range(7)), 120):
        counts[_BITS[:, list(perm)] @ _PLACE, cols] += 1.0
    total += float(np.linalg.eigvalsh(_HERM + counts[:16, :16])[-1])
    return total + distinct


def _time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure() -> float:
    """Seconds the kernel takes now: the median of ``REPEATS`` timings."""
    return statistics.median(_time_kernel() for _ in range(REPEATS))


class Clock:
    """Time of the work in reference seconds.

    Between ``start`` and ``stop`` a timer signal times the kernel every
    ``INTERVAL`` seconds, in this process.  Each stretch of work between
    two kernel timings is scaled by the factor the earlier one gave, and
    the kernel's own time is left out, so ``read`` moves only while the
    work runs.  Only one clock may run in a process at a time.
    """

    def __init__(self) -> None:
        self.factor = 1.0
        self.raw = self.scaled = 0.0
        self.mark = perf_counter()
        self.ticks = 0
        self.recent: list[float] = []
        self._handler = None

    def start(self) -> None:
        self.recent = [measure()]
        self.factor = REFERENCE_S / self.recent[0]
        self.mark = perf_counter()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._close()

    def _close(self) -> None:
        now = perf_counter()
        self.raw += now - self.mark
        self.scaled += (now - self.mark) * self.factor
        self.mark = now

    def _tick(self, signum, frame) -> None:
        self._close()
        self.recent = [*self.recent[1 - SMOOTH:], _time_kernel()]
        self.factor = REFERENCE_S / statistics.median(self.recent)
        self.mark = perf_counter()
        # last, so that ``read`` can tell that a tick came in between
        self.ticks += 1

    def read(self) -> float:
        """Reference seconds of work since ``start``."""
        while True:
            ticks = self.ticks
            value = self.scaled + (perf_counter() - self.mark) * self.factor
            if ticks == self.ticks:
                return value
