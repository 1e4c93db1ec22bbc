"""Injected time sources.

The control loop and every timestamp in the pipeline go through one of
these, never through the time module directly (the UDP source reads the
wall time only to move kernel receive stamps onto the loop's clock).  That
is what lets the whole system run under a virtual clock for
bit-deterministic tests and under the monotonic wall clock in live mode.
Each clock's ``sleep_until`` only waits; it runs no code of the caller's.
"""

from __future__ import annotations

import select
import time


class VirtualClock:
    """Deterministic clock: time advances only when someone sleeps.

    ``sleep_until`` ignores ``readable`` and always returns False: a virtual
    run never waits on a socket, so no command goes before its tick.
    """

    def __init__(self, start_us: int = 0):
        self._now = int(start_us)

    def now_us(self) -> int:
        return self._now

    def sleep_until(self, deadline_us: int, readable=None) -> bool:
        if deadline_us > self._now:
            self._now = int(deadline_us)
        return False


class WallClock:
    """Monotonic wall clock with a hybrid sleep/spin wait.

    Plain ``time.sleep`` wakes a few hundred microseconds late; sleeping
    short of the deadline and spinning the rest keeps cycle timing well
    inside a millisecond without pinning the CPU for whole periods.
    Given a ``readable`` socket, the sleep is a ``select`` on it instead:
    the wait returns True as soon as data arrives before the last
    ``SPIN_WINDOW_US``, and False at the deadline.
    """

    SPIN_WINDOW_US = 300

    def __init__(self):
        self._origin = time.monotonic_ns()

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._origin) // 1000

    def sleep_until(self, deadline_us: int, readable=None) -> bool:
        while True:
            remaining = deadline_us - self.now_us()
            if remaining <= 0:
                return False
            if remaining > self.SPIN_WINDOW_US:
                timeout = (remaining - self.SPIN_WINDOW_US) / 1e6
                if readable is None:
                    time.sleep(timeout)
                elif select.select((readable,), (), (), timeout)[0]:
                    return True
            # else: spin down the last stretch
