"""Injected time sources.

The control loop and every timestamp in the pipeline go through one of
these, never through the time module directly (the UDP source reads the
wall time only to move kernel receive stamps onto the loop's clock).  That
is what lets the whole system run under a virtual clock for
bit-deterministic tests and under the monotonic wall clock in live mode.
"""

from __future__ import annotations

import select
import time


class VirtualClock:
    """Deterministic clock: time advances only when someone sleeps.

    ``sleep_until`` ignores ``readable`` and ``on_readable``: a virtual run
    never waits on a socket, so a live source is only read by the loop's
    own poll at each tick, and no command goes before its tick.
    """

    def __init__(self, start_us: int = 0):
        self._now = int(start_us)

    def now_us(self) -> int:
        return self._now

    def sleep_until(self, deadline_us: int, readable=None, on_readable=None) -> None:
        if deadline_us > self._now:
            self._now = int(deadline_us)


class WallClock:
    """Monotonic wall clock with a hybrid sleep/spin wait.

    Plain ``time.sleep`` wakes a few hundred microseconds late; sleeping
    short of the deadline and spinning the rest keeps cycle timing well
    inside a millisecond without pinning the CPU for whole periods.

    Given a ``readable`` socket, the sleep is a ``select`` on it instead:
    whenever data arrives before the last ``SPIN_WINDOW_US``,
    ``on_readable`` runs (it must read the socket dry) and the wait goes
    on.  The loop steps and sends a frame's command there, so that work
    can end past the spin window, and a wake-up can be late by as much.
    """

    SPIN_WINDOW_US = 300

    def __init__(self):
        self._origin = time.monotonic_ns()

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._origin) // 1000

    def sleep_until(self, deadline_us: int, readable=None, on_readable=None) -> None:
        while True:
            remaining = deadline_us - self.now_us()
            if remaining <= 0:
                return
            if remaining > self.SPIN_WINDOW_US:
                timeout = (remaining - self.SPIN_WINDOW_US) / 1e6
                if readable is None:
                    time.sleep(timeout)
                elif select.select((readable,), (), (), timeout)[0]:
                    on_readable()
            # else: spin down the last stretch
