"""Core-speed probe: a fixed kernel timed next to each measured pass.

The reference machine is a shared 2-vCPU VM whose core speed changes by up
to 2x with other tenants' load, in stretches from a tenth of a second to
minutes, while steal stays at zero and thread CPU time equals wall time.
The program's unpaced passes slow down with the core, and so does this
probe: like the program's hot paths, it is a loop of small-array numpy
calls (norm, matmul, cross, arctan2) between Python float arithmetic.  A
pure-Python loop does not track the slowdown (correlation 0.4-0.5 with
pass times, against 0.7-0.85 for this probe; README.md, "Noise").

Each pass's time is scaled by ``NOMINAL_NS / probe_ns``, with ``probe_ns``
the mean of the probes just before and just after the pass: the time the
pass would take on a core on which the probe takes ``NOMINAL_NS``.  That is
about the probe's time in this machine's fast regime, so scaled values read
close to the fastest passes the machine gives.  Raw times are kept next to
them in the report.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_NS = 2_000_000

_ROTATION = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])
_QUATS = np.random.default_rng(20240601).normal(size=(64, 4))
_QUATS /= np.linalg.norm(_QUATS, axis=1, keepdims=True)


def probe_ns() -> int:
    """Wall time of one pass of the fixed kernel, in ns (about 2-4 ms)."""
    start = time.perf_counter_ns()
    acc = 0.0
    for w, x, y, z in _QUATS:
        v = np.array([x, y, z])
        m = _ROTATION @ v
        c = np.cross(v, m)
        acc += float(np.arctan2(np.linalg.norm(v), w)) + float(np.dot(m, v)) + float(np.clip(acc, -1.0, 1.0))
        acc += float(c.sum()) + abs(acc) ** 0.5
    return time.perf_counter_ns() - start


def scaled(value: float, probe: float) -> float:
    """``value`` as it would be on a core on which the probe takes ``NOMINAL_NS``."""
    return value * NOMINAL_NS / probe
