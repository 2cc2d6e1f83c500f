"""Host-speed calibration: time operations at a reference speed.

The benchmark runs on shared machines whose speed changes by tens of percent
from one tenth of a second to the next (other tenants on the same cores), in
CPU time as much as in wall time.  Over a run those phases do not average
out well enough for a steady median.  So the benchmark measures the speed of
the host while it times: it runs a fixed kernel of scalar float math and
float formatting in Python before a timed block, every ``TICK_S`` during it
and after it.  Each kernel run gives a rate, ``REFERENCE_S`` over the
kernel's time; the block's wall time, less the kernel runs, times the mean
rate is its time at the reference speed, the speed at which the kernel takes
``REFERENCE_S``.  A change to the program moves that time as it moves the
wall time; a change in the speed of the host mostly does not.

The module uses only the standard library, so that a set-up process can
calibrate the import of numpy and scipy without importing them first.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Optional

# The kernel's time at the reference speed, close to its time in the fast
# phases of the 2-vCPU Xeon VM the benchmark was written on, so that times at
# the reference speed read about as wall times there.
REFERENCE_S = 0.0015
# Wall time between two kernel runs inside a timed block.
TICK_S = 0.01

_paused_s = 0.0  # wall time spent in kernel runs so far


class OpTimeout(BaseException):
    """Raised into an operation that exceeds its latency limit.

    A BaseException, so that no ``except Exception`` in the program or in the
    workload swallows it.
    """


def _kernel() -> float:
    acc = 0.0
    cells = []
    for i in range(1, 2500):
        x = i * 1e-3
        acc += math.sqrt(x) * math.sin(x) / (1.0 + x)
        if i % 4 == 0:
            cells.append(f"{acc:.17g}")
    return acc + len(",".join(cells))


def rate() -> float:
    """Run the kernel once: the host's speed over the reference speed.

    The kernel's own time is kept out of ``now()``.
    """
    global _paused_s
    t0 = time.perf_counter()
    _kernel()
    took = time.perf_counter() - t0
    _paused_s += took
    return REFERENCE_S / took


def now() -> float:
    """``time.perf_counter()`` less the time spent in the kernel."""
    return time.perf_counter() - _paused_s


class Stopwatch:
    """Times a ``with`` block at the reference speed.

    With ``limit_s`` the block is interrupted by :class:`OpTimeout` once its
    time at the reference speed exceeds that limit.
    """

    def __init__(self, limit_s: Optional[float] = None) -> None:
        self.limit_s = limit_s
        self.rates: list[float] = []
        self.wall_s = 0.0
        self._running = False
        self._in_tick = False

    def __enter__(self) -> "Stopwatch":
        self.rates.append(rate())
        signal.signal(signal.SIGALRM, self._tick)
        self._t0 = now()
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> bool:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = now() - self._t0
        self.rates.append(rate())
        return False

    def _tick(self, signum, frame) -> None:
        if not self._running or self._in_tick:
            return
        self._in_tick = True
        try:
            self.rates.append(rate())
        finally:
            self._in_tick = False
        if self.limit_s is not None and self.reference_s(now() - self._t0) > self.limit_s:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raise OpTimeout()

    def speed(self) -> float:
        """Mean rate of the kernel runs so far."""
        return sum(self.rates) / len(self.rates)

    def reference_s(self, wall_s: Optional[float] = None) -> float:
        """Wall time (by default the block's) at the reference speed."""
        return (self.wall_s if wall_s is None else wall_s) * self.speed()


rate()  # the first run warms the interpreter's caches
