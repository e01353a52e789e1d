"""A clock that counts time at a fixed reference speed of the machine.

On a shared host the speed of a vCPU moves by up to 1.7x between stretches
of a few seconds to minutes, as other tenants load the host.  Wall time and
CPU time both follow it, so runs of the same code at different moments
differ by more than any useful regression bound.

RefClock samples the current speed every INTERVAL_S: a SIGALRM handler
times a fixed reference kernel (Python bytecode and small numpy table
lookups, the kind of work bglab does).  now() advances by wall time scaled
by REF_S over the median of the last few kernel times, cpu() likewise by
CPU time, and both leave out the handler's own time; an interval therefore
reads as the time it would have taken at the speed where the kernel takes
REF_S.  A change to bglab moves these times as it moves wall time; a change
in the host's load mostly does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 0.35e-3     # the kernel's time at the reference speed
INTERVAL_S = 0.02   # between speed samples
WINDOW = 5          # samples per speed estimate

_TABLE = (np.arange(64 * 64, dtype=np.int32).reshape(64, 64) * 7) % 64
_ROW = np.arange(64, dtype=np.int32)


def reference_kernel() -> int:
    acc, seen = 0, {}
    for i in range(1200):
        acc += (i * 7) % 13
        seen[i & 31] = (acc, i)
    row = _ROW
    for _ in range(24):
        row = _TABLE[row, row[::-1]]
        acc += int(row[3])
    return acc


class RefClock:
    """Reference-speed time for one process.  Disabled, it is plain wall
    and CPU time (traced runs use it so, the tracer times raw spans)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []
        self._norm = self._cpu_norm = 0.0
        self._last, self._cpu_last = time.perf_counter(), time.process_time()
        self._scale = 1.0
        self._ticks = 0
        self._busy = False
        self._origin = (0.0, 0.0)

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        at, cpu = time.perf_counter(), time.process_time()
        reference_kernel()
        self.samples.append(time.perf_counter() - at)
        self._norm += (at - self._last) * self._scale
        self._cpu_norm += (cpu - self._cpu_last) * self._scale
        self._scale = REF_S / statistics.median(self.samples[-WINDOW:])
        self._ticks += 1
        self._last, self._cpu_last = time.perf_counter(), time.process_time()
        self._busy = False

    def start(self) -> None:
        if not self.enabled:
            return
        for _ in range(WINDOW):
            self._sample()
        self._origin = (self.now(), time.perf_counter())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Wall seconds at the reference speed, from an arbitrary origin."""
        if not self.enabled:
            return time.perf_counter()
        return self._read(lambda: self._norm
                          + (time.perf_counter() - self._last) * self._scale)

    def cpu(self) -> float:
        """Process CPU seconds at the reference speed."""
        if not self.enabled:
            return time.process_time()
        return self._read(lambda: self._cpu_norm
                          + (time.process_time() - self._cpu_last) * self._scale)

    def _read(self, value):
        # a sample taken between the reads would mix two states: read again
        while True:
            ticks = self._ticks
            result = value()
            if ticks == self._ticks:
                return result

    def scale(self) -> float:
        """Reference-speed time over wall time since start(): converts a
        wall interval of this process that the clock did not time itself."""
        if not self.enabled:
            return 1.0
        norm, raw = self._origin
        return (self.now() - norm) / (time.perf_counter() - raw)
