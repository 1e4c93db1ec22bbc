"""The arithmetic the benchmark reports with.

Pure functions with no I/O, so that the rules behind every reported number
can be tested on their own: nearest-rank percentiles, the tail-percentile
rule, span self time, open-loop due-time latency and CPU steal share.
"""

from __future__ import annotations

import math

import numpy as np

# Percentiles in hundredths of a percent, highest first.  Integer units keep
# the "samples beyond" count exact (99.9 is not exact in binary floating point).
_TAIL_CANDIDATES = (9999, 9990, 9900, 9000, 5000)
MIN_BEYOND = 10


def percentile(values, p: float):
    """Nearest-rank percentile of ``values`` for ``0 < p <= 100``; None when empty."""
    if len(values) == 0:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int):
    """Highest reported percentile with at least ten of ``n`` samples beyond it.

    Candidates are p99.99, p99.9, p99, p90 and p50.  Returns the percentile
    as a float, or None when not even the median has ten samples above it.
    """
    for hundredths in _TAIL_CANDIDATES:
        if n * (10000 - hundredths) // 10000 >= MIN_BEYOND:
            return hundredths / 100.0
    return None


def timing_summary(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    n = len(values)
    tail = tail_percentile(n)
    return {
        "p50": percentile(values, 50),
        "tail_percentile": tail,
        "tail": percentile(values, tail) if tail is not None else None,
        "samples": n,
    }


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: its duration minus the time its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Children of
    one span are calls made one after another from the same thread, so they
    never overlap and the covered time is the sum of their durations.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = (ends - starts).astype(float)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=len(durations))
    return durations - covered


def due_latencies(due_us: dict, commands) -> dict:
    """Open-loop latency per frame, measured from when the frame was due.

    ``due_us`` maps each sent frame's seq to its due time.  ``commands`` is
    an iterable of ``(receive_us, source_seq, hold)``.  The first non-hold
    command carrying a frame's seq answers it; its latency is receive time
    minus due time, so a generator that sends late adds its lateness to the
    latency instead of hiding it.  Frames that no fresh command answered are
    absent from the result (they count as failed).
    """
    answered: dict = {}
    for receive_us, source_seq, hold in commands:
        if hold or source_seq in answered or source_seq not in due_us:
            continue
        answered[source_seq] = receive_us - due_us[source_seq]
    return answered


def steal_share(before, after):
    """Share of CPU time stolen by the hypervisor between two ``/proc/stat`` reads.

    Each argument is the list of counters on the aggregate ``cpu`` line:
    user nice system idle iowait irq softirq steal [guest guest_nice].  Guest
    time is already inside user time, so only the first eight fields count.
    """
    delta = [int(a) - int(b) for a, b in zip(after[:8], before[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0
