"""Fixed-rate control loop with latest-frame semantics and pluggable sinks.

The loop holds no queue: a single slot carries at most one pending frame,
and a write replaces whatever is there.  Each cycle consumes the newest
frame if one arrived and emits exactly one command — a fresh one, or a hold
command repeating the last posture when the source went quiet.

The sinks write ``wire``'s command formats (a trace file, or one datagram
per command) or audit the commands as they stream (``validator_sink``).

``LoopMetrics`` times the loop with ``Histogram``s, which keep one count per
distinct microsecond value, so the dump's memory does not grow with the run.
"""

from __future__ import annotations

import logging
import socket
from dataclasses import dataclass, field

from .clock import WallClock
from .errors import SinkBackpressure
from .retarget import Pipeline
from .validate import IncrementalValidator
from .wire import TRACE_MAGIC, JointCommand, encode_command_datagram, encode_command_record

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Latest-frame slot


class LatestFrameSlot:
    """Single-frame mailbox with replace/take semantics.

    ``take`` returns ``(frame, arrival_us)`` for the newest frame written
    since the last take, or None.

    ``written = consumed + overwritten (+1 if a frame is pending)`` at all
    times; ``drain`` folds a leftover pending frame into ``overwritten`` so
    the equality is exact once the loop stops.

    Every source fills the slot the same way: its ``start`` sets ``poll``,
    which writes whatever frames the source has by now.  The loop calls
    ``poll`` once at each tick, after the wait.  A live source also sets
    ``socket`` to the socket its ``poll`` drains; the loop waits on it and
    calls ``poll`` as soon as it is readable.  A source whose frames run
    out sets ``ended``; a live source never does.  The loop sets
    ``segment_count`` to the count its map expects; a live source drops a
    frame of another count as undecodable (None accepts any count).
    """

    def __init__(self):
        self._frame = None
        self._arrival_us = 0
        self.poll = None
        self.socket = None
        self.ended = False
        self.segment_count = None
        self.written = 0
        self.overwritten = 0
        self.consumed = 0

    def write(self, frame, arrival_us: int) -> None:
        if self._frame is not None:
            self.overwritten += 1
        self._frame, self._arrival_us = frame, arrival_us
        self.written += 1

    def take(self):
        if self._frame is None:
            return None
        taken = (self._frame, self._arrival_us)
        self._frame = None
        self.consumed += 1
        return taken

    @property
    def pending(self) -> bool:
        return self._frame is not None

    def drain(self) -> None:
        if self._frame is not None:
            self._frame = None
            self.overwritten += 1


# ---------------------------------------------------------------------------
# Loop metrics


class Histogram:
    """Exact counts per distinct integer microsecond value: memory grows with their range, not with ``len()``."""

    def __init__(self):
        self.counts: dict[int, int] = {}

    def record(self, value_us: int) -> None:
        value = int(value_us)
        self.counts[value] = self.counts.get(value, 0) + 1

    def __len__(self) -> int:
        return sum(self.counts.values())

    def bucket_counts(self) -> dict[int, int]:
        """Counts per power-of-two upper bound ``n`` (values in ``[n/2, n)``; 1 holds zeros), ascending."""
        buckets: dict[int, int] = {}
        for value, count in sorted(self.counts.items()):
            upper = 1 << value.bit_length() if value > 0 else 1
            buckets[upper] = buckets.get(upper, 0) + count
        return buckets

    def percentile(self, p: float) -> int:
        """The sample of rank ``round(p/100 * (n-1))`` in ascending order, ``p`` in [0, 100]; 0 when empty."""
        n = len(self)
        rank = max(0, min(n - 1, int(round(p / 100.0 * (n - 1)))))
        for value, count in sorted(self.counts.items()):
            rank -= count
            if rank < 0:
                return value
        return 0

    def maximum(self) -> int:
        return max(self.counts, default=0)


@dataclass
class LoopMetrics:
    period_us: int = 0
    cycles: int = 0
    commands: int = 0
    holds: int = 0
    frames_written: int = 0
    frames_consumed: int = 0
    frames_overwritten: int = 0
    clamped_joints: int = 0  # joints the soft-limit clamp changed, summed over fresh commands
    worst_excursion_rad: float = 0.0  # largest distance beyond a soft bound before clamping
    gimbal_warnings: int = 0
    early_commands: int = 0  # fresh commands sent during the wait, before their tick
    compute_us: Histogram = field(default_factory=Histogram)
    fresh_compute_us: Histogram = field(default_factory=Histogram)  # compute_us of fresh cycles
    frame_age_us: Histogram = field(default_factory=Histogram)
    jitter_us: Histogram = field(default_factory=Histogram)

    def headroom_ratio(self) -> float:
        """Period over ``fresh_compute_us_p99``; 0.0 when no fresh cycle took measurable time."""
        p99 = self.fresh_compute_us.percentile(99)
        return self.period_us / p99 if p99 else 0.0

    def format(self) -> str:
        scalars = ("cycles", "commands", "holds", "frames_written", "frames_consumed", "frames_overwritten",
                   "clamped_joints", "worst_excursion_rad", "gimbal_warnings", "early_commands")
        lines = [f"{name}={getattr(self, name)}" for name in scalars]  # str of a float is its repr
        lines.append(f"headroom_ratio={self.headroom_ratio():.2f}")
        for name in ("compute_us", "fresh_compute_us", "frame_age_us", "jitter_us"):
            hist = getattr(self, name)
            lines.append(f"{name}_p50={hist.percentile(50)}")
            lines.append(f"{name}_p99={hist.percentile(99)}")
            lines.append(f"{name}_max={hist.maximum()}")
            lines.extend(f"{name}_lt_{upper}us={count}" for upper, count in hist.bucket_counts().items())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sinks


class NullSink:
    """Discards commands; the benchmark destination."""

    def emit(self, cmd: JointCommand) -> None:
        pass

    def close(self) -> None:
        pass


class TraceSink:
    """Writes the binary command-trace file format."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "wb")
        self._fh.write(TRACE_MAGIC)
        self.count = 0

    def emit(self, cmd: JointCommand) -> None:
        self._fh.write(encode_command_record(cmd))
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


trace_sink = TraceSink


class DatagramSink:
    """One datagram per command to ``address``, a ``(host, port)`` pair; send failures are counted, never fatal."""

    def __init__(self, address: tuple[str, int]):
        self.address = address
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.connect(address)
        except OSError:
            self._sock.close()
            raise
        self.sent = 0
        self.send_errors = 0

    def counters(self) -> dict[str, int]:
        return {"datagram_sent": self.sent, "datagram_send_errors": self.send_errors}

    def emit(self, cmd: JointCommand) -> None:
        try:
            self._sock.send(encode_command_datagram(cmd))
            self.sent += 1
        except OSError:
            self.send_errors += 1

    def close(self) -> None:
        self._sock.close()


datagram_sink = DatagramSink
validator_sink = IncrementalValidator


class MultiSink:
    """Fans one command stream out to several sinks, in order."""

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def emit(self, cmd: JointCommand) -> None:
        for sink in self.sinks:
            sink.emit(cmd)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# The loop


BACKPRESSURE_LIMIT = 8  # consecutive sink calls longer than a period before aborting


def loop_period_us(rate_hz: float) -> int:
    """The loop period at ``rate_hz``, in whole microseconds (at least 1)."""
    return max(1, round(1e6 / rate_hz))


def run_loop(
    source,
    pipeline: Pipeline,
    sink,
    rate_hz: float,
    *,
    max_cycles: int | None = None,
    duration_s: float | None = None,
    clock=None,
) -> LoopMetrics:
    """Drive the pipeline at a fixed rate until the budget or source ends.

    ``source`` has ``start(slot, clock)`` and ``stop()``: ``start`` sets the
    slot's ``poll`` (and, for a live source, its ``socket``).  ``schedule``
    builds one from recorded or synthetic frames, deterministic under a
    virtual clock; ``DatagramSource`` is the live one.  The loop stops at
    its budget, or, without one, at the first tick after the source has
    ended with no frame left in the slot.

    Cycle k's tick is at ``start + k * period``, its window is the wait
    before it, and each window sends exactly one command, ``seq = k``.
    Live, a wall clock's wait returns as a datagram arrives: the loop polls
    it into the slot, and if window k has not sent its command, steps the
    frame and sends it at once (tick k then sends nothing), and waits again.
    That work can end past the spin window; tick k then wakes late by as much.
    A frame still pending when a window opens (it came after the last
    window's command) goes at once too.  Every tick polls, for scheduled
    frames due by now and live ones that came in the spin window or under a
    virtual clock; if window k has not sent its command, tick k sends the
    newest pending frame's, or a hold repeating the last fresh angles (model
    defaults before the first frame).  A hold copies nothing: it shares the
    last fresh command's ``angles`` tuple and one all-False ``clamped``
    tuple.  A fresh frame is smoothed with ``dt`` equal to the loop time
    since the previous fresh cycle, in whole periods (one for the first;
    never 0, since a window sends one command), so the filter's time
    constant holds whatever the source and loop rates.

    ``jitter_us`` records every tick's wake-up, a silent one's too.  A
    tick's ``compute_us`` starts after its poll, so it leaves out making a
    scheduled frame and draining the socket; an early command's runs from
    the wake-up: drain, decode, step and sinks.

    Raises SinkBackpressure (metrics attached) after BACKPRESSURE_LIMIT
    consecutive sink calls that each took longer than one period.
    """
    if not (rate_hz > 0):
        raise ValueError("rate_hz must be positive")
    clk = clock if clock is not None else WallClock()
    period_us = loop_period_us(rate_hz)

    slot = LatestFrameSlot()
    slot.segment_count = pipeline.rmap.segment_count
    metrics = LoopMetrics(period_us=period_us)
    defaults = pipeline.rmap.default_angles
    unclamped = (False,) * len(defaults)
    last = JointCommand(0, 0, 0, 0, defaults, unclamped)  # the last fresh command; holds repeat it
    over_period = 0
    last_fresh_cycle = -1
    cycle = 0  # window `cycle` has sent its command once metrics.commands > cycle

    source.start(slot, clk)

    def send(taken, work_start: int) -> None:
        """Emit cycle ``cycle``'s command: the taken frame's, or a hold without one."""
        nonlocal last, last_fresh_cycle, over_period
        if taken is not None:
            frame, arrival_us = taken
            # integer us, so equal spans give bit-equal dt
            periods = cycle - last_fresh_cycle if last_fresh_cycle >= 0 else 1
            command, diag = pipeline.step(frame, periods * period_us / 1e6, clk)
            last, last_fresh_cycle = command, cycle
            command.seq = cycle  # the step's command is this loop's own
            metrics.clamped_joints += diag.clamped_count
            metrics.worst_excursion_rad = max(metrics.worst_excursion_rad, diag.worst_excursion)
            metrics.gimbal_warnings += diag.gimbal_warnings
            metrics.frame_age_us.record(command.emission_timestamp_us - arrival_us)
        else:
            command = JointCommand(
                cycle, last.source_seq, last.source_timestamp_us, clk.now_us(), last.angles, unclamped, hold=True
            )
            metrics.holds += 1
        sink_start = clk.now_us()
        sink.emit(command)
        done = clk.now_us()
        metrics.compute_us.record(done - work_start)
        if taken is not None:
            metrics.fresh_compute_us.record(done - work_start)
        metrics.cycles += 1
        metrics.commands += 1
        over_period = over_period + 1 if done - sink_start > period_us else 0
        if over_period >= BACKPRESSURE_LIMIT:
            raise SinkBackpressure(
                f"sink exceeded the {period_us} us period for {over_period} consecutive cycles",
                metrics=metrics,
            )

    def arrived():
        woke = clk.now_us()
        slot.poll()
        if metrics.commands == cycle and slot.pending:
            metrics.early_commands += 1
            send(slot.take(), woke)

    start_us = clk.now_us()
    try:
        while True:
            if max_cycles is not None and cycle >= max_cycles:
                break
            target_us = start_us + cycle * period_us
            if duration_s is not None and cycle * period_us >= duration_s * 1e6:
                break
            if slot.pending:  # came after the last window's command: this window's goes at once
                arrived()
            while clk.sleep_until(target_us, slot.socket):  # a datagram came before the spin window
                arrived()
            now = clk.now_us()
            slot.poll()
            if slot.ended and not slot.pending and max_cycles is None and duration_s is None:
                break  # source end; an explicit budget keeps the loop holding instead
            metrics.jitter_us.record(abs(now - target_us))
            if metrics.commands == cycle:
                send(slot.take(), clk.now_us())
            cycle += 1
    finally:
        source.stop()
        slot.drain()
        metrics.frames_written = slot.written
        metrics.frames_consumed = slot.consumed
        metrics.frames_overwritten = slot.overwritten
        log.info(
            "loop finished: %d cycles, %d holds, %d frames consumed, %d overwritten",
            metrics.cycles,
            metrics.holds,
            metrics.frames_consumed,
            metrics.frames_overwritten,
        )
    return metrics
