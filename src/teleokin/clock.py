"""Injected time sources.

The control loop and every timestamp in the pipeline go through one of
these, never through the time module directly (the UDP source reads the
wall time only to move kernel receive stamps onto the loop's clock).  That
is what lets the whole system run under a virtual clock for
bit-deterministic tests and under the monotonic wall clock in live mode.
"""

from __future__ import annotations

import time


class VirtualClock:
    """Deterministic clock: time advances only when someone sleeps."""

    def __init__(self, start_us: int = 0):
        self._now = int(start_us)

    def now_us(self) -> int:
        return self._now

    def sleep_until(self, deadline_us: int) -> None:
        if deadline_us > self._now:
            self._now = int(deadline_us)


class WallClock:
    """Monotonic wall clock with a hybrid sleep/spin wait.

    Plain ``time.sleep`` wakes a few hundred microseconds late; sleeping
    short of the deadline and spinning the rest keeps cycle timing well
    inside a millisecond without pinning the CPU for whole periods.
    """

    SPIN_WINDOW_US = 300

    def __init__(self):
        self._origin = time.monotonic_ns()

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._origin) // 1000

    def sleep_until(self, deadline_us: int) -> None:
        while True:
            remaining = deadline_us - self.now_us()
            if remaining <= 0:
                return
            if remaining > self.SPIN_WINDOW_US:
                time.sleep((remaining - self.SPIN_WINDOW_US) / 1e6)
            # else: spin down the last stretch
