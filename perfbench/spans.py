"""Spans at the program's layer boundaries, and the per-layer metrics made from them.

A traced session swaps timing wrappers in at the public calls that cross
each layer boundary: module globals the program calls through (such as
``teleokin.stream.decode_frame``), and methods of the objects the benchmark
builds (``Pipeline.step``, each sink's ``emit``, ``clock.sleep_until``).
No program source changes.  Spans stay in memory, one list per thread, and
are written out once when the session ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from arith import percentile, self_times

# Layers are the program's modules; a span's name is "<layer>.<call>".
LAYERS = ("stream", "geometry", "retarget", "runtime", "clock", "validate", "model")

_FIELDS = 6  # name id, start ns, end ns, parent index (-1 for none), request id, work count


class Tracer:
    """In-memory span recorder: name, start, end, parent span and request id."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self._threads: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.values: dict[str, list] = defaultdict(list)
        self.last_wake_ns = 0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # spans, stack of (index, request id)
            with self._lock:
                self._threads.append(state[0])
        return state

    def wrap(self, name, fn, *, request_id=None, count=None, after=None):
        """Wrap ``fn`` so that every call records one span.

        ``request_id(args)`` gives the frame seq the call serves; without it
        the span inherits its parent's.  ``count(args, result)`` gives the
        units of work done (default 1).  ``after(args, result, start, end)``
        records extra observations.
        """
        with self._lock:
            name_id = self._names.setdefault(name, len(self._names))

        def traced(*args, **kwargs):
            spans, stack = self._state()
            parent, parent_rid = stack[-1] if stack else (-1, -1)
            rid = request_id(args) if request_id is not None else parent_rid
            index = len(spans)
            spans.append(None)
            stack.append((index, rid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, rid, 1)
            if count is not None:
                spans[index] = (name_id, start, end, parent, rid, int(count(args, result)))
            if after is not None:
                after(args, result, start, end)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every thread's spans and the extra observations to one .npz file."""
        blocks, offset = [], 0
        for spans in self._threads:
            block = np.array([s for s in spans if s is not None], dtype=np.int64).reshape(-1, _FIELDS)
            block[:, 3] = np.where(block[:, 3] >= 0, block[:, 3] + offset, -1)
            blocks.append(block)
            offset += len(block)
        names = sorted(self._names, key=self._names.get)
        arrays = {f"value:{k}": np.asarray(v, dtype=float) for k, v in self.values.items()}
        spans = np.concatenate(blocks) if blocks else np.empty((0, _FIELDS), np.int64)
        np.savez(path, names=np.array(names), spans=spans, **arrays)


def install_modules(tracer: Tracer) -> None:
    """Swap timing wrappers in at the module globals the program calls through.

    A global the program no longer calls through (say, once the retarget map
    stops calling ``swing_twist``) is skipped, and its metrics read 0.
    """
    from teleokin import retarget, stream, validate

    boundaries = [
        (stream, "decode_frame", "stream.decode", None),
        (retarget, "swing_twist", "geometry.swing_twist", None),
        (retarget, "euler_decompose", "geometry.euler_decompose", None),
        (retarget, "smooth", "retarget.smooth", None),
        (retarget, "enforce_limits", "retarget.clamp", None),
        (validate, "forward_kinematics", "model.fk", None),
        (validate, "forward_kinematics_batch", "model.fk_batch", lambda a, r: len(a[1])),
    ]
    for module, attribute, name, count in boundaries:
        if hasattr(module, attribute):
            setattr(module, attribute, tracer.wrap(name, getattr(module, attribute), count=count))


def install_objects(tracer: Tracer, tk, *, pipeline, clock, sink) -> None:
    """Wrap the methods of the pipeline, clock and sinks one loop will use."""

    def after_step(args, result, start, end):
        command, diagnostics = result
        tracer.values["retarget.clamped_joints"].append(int(np.count_nonzero(command.clamped)))
        tracer.values["retarget.gimbal_warnings"].append(getattr(diagnostics, "gimbal_warnings", 0))

    pipeline.step = tracer.wrap(
        "retarget.step", pipeline.step, request_id=lambda a: a[0].seq, after=after_step
    )

    virtual = isinstance(clock, tk.VirtualClock)

    def after_sleep(args, result, start, end):
        # Under the virtual clock the deadline is reached on entry, so the
        # lateness is the wall time the call itself took.
        late = (end - start) / 1000 if virtual else clock.now_us() - args[0]
        tracer.values["clock.wake_late_us"].append(late)
        tracer.last_wake_ns = end

    clock.sleep_until = tracer.wrap("clock.sleep_until", clock.sleep_until, after=after_sleep)

    def after_emit(args, result, start, end):
        if args[0].hold:
            tracer.values["runtime.hold_cycle_us"].append((end - tracer.last_wake_ns) / 1000)

    def by_seq(args):
        return args[0].source_seq

    leaves = list(getattr(sink, "sinks", [sink]))
    for leaf in leaves:
        # A lone sink is also the top-level one: it observes hold cycles itself.
        hold_hook = after_emit if leaf is sink else None
        if hasattr(leaf, "report"):
            # The validator sink: time the validator's update where it is reachable.
            owner = getattr(leaf, "validator", leaf)
            method = "update" if owner is not leaf else "emit"
            setattr(owner, method, tracer.wrap(
                "validate.update", getattr(owner, method), request_id=by_seq, after=hold_hook
            ))
        elif hasattr(leaf, "path"):
            leaf.emit = tracer.wrap("runtime.trace_emit", leaf.emit, request_id=by_seq, after=hold_hook)
        elif hasattr(leaf, "address"):
            leaf.emit = tracer.wrap("runtime.datagram_emit", leaf.emit, request_id=by_seq, after=hold_hook)
    if sink not in leaves:
        sink.emit = tracer.wrap("runtime.emit", sink.emit, request_id=by_seq, after=after_emit)


# ---------------------------------------------------------------------------
# Per-layer metrics


def load(paths) -> list[dict]:
    sessions = []
    for path in paths:
        with np.load(path) as data:
            sessions.append(
                {
                    "names": [str(n) for n in data["names"]],
                    "spans": data["spans"],
                    "values": {k[6:]: data[k] for k in data.files if k.startswith("value:")},
                }
            )
    return sessions


class SpanSet:
    """All traced sessions' spans, indexed by span name."""

    def __init__(self, sessions):
        self.durations_us: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.self_us: dict[str, float] = defaultdict(float)
        self.map_self_us: list = []
        self.values: dict[str, list] = defaultdict(list)
        for session in sessions:
            names, spans = session["names"], session["spans"]
            for key, value in session["values"].items():
                self.values[key].extend(value.tolist())
            if len(spans) == 0:
                continue
            name_of = np.array(names)[spans[:, 0]]
            durations = (spans[:, 2] - spans[:, 1]) / 1000.0
            own = self_times(spans[:, 1], spans[:, 2], spans[:, 3]) / 1000.0
            for i, name in enumerate(names):
                mask = spans[:, 0] == i
                self.durations_us[name].extend(durations[mask].tolist())
                self.counts[name] += int(mask.sum())
                self.work[name] += int(spans[mask, 5].sum())
                self.self_us[name.split(".")[0]] += float(own[mask].sum())
            # map self time: a step span minus its smooth and clamp children.
            step = names.index("retarget.step") if "retarget.step" in names else -1
            if step >= 0:
                stage = np.isin(name_of, ("retarget.smooth", "retarget.clamp")) & (spans[:, 3] >= 0)
                stage_us = np.bincount(spans[stage, 3], weights=durations[stage], minlength=len(spans))
                is_step = spans[:, 0] == step
                self.map_self_us.extend((durations[is_step] - stage_us[is_step]).tolist())

    def p(self, name, q):
        return _pct(self.durations_us.get(name, []), q)

    def per(self, name, denominator):
        return _ratio(sum(self.durations_us.get(name, [])), denominator)


def layer_metrics(s: SpanSet, loops, stream_counts, audits, commands) -> dict:
    """Every per-layer metric, from the traced sessions of one run.

    ``loops`` holds one dict per ``run_loop`` call (cycles, holds,
    frames_overwritten, histogram_samples); ``stream_counts`` sums frames
    received and decode errors; ``audits`` holds one dict per audited trace
    (commands, violation counts by kind); ``commands`` is the number of loop
    commands the traced sessions emitted.  A path the workload does not
    exercise reports 0.
    """
    steps = s.counts.get("retarget.step", 0)
    updates = s.counts.get("validate.update", 0)
    audited = sum(a["commands"] for a in audits)
    step_p99 = s.p("retarget.step", 99)
    update_us = s.durations_us.get("validate.update", [])
    out = {
        "stream.decode_us_p50": s.p("stream.decode", 50),
        "stream.decode_us_p99": s.p("stream.decode", 99),
        "stream.frames_received": stream_counts["received"],
        "stream.decode_errors": stream_counts["decode_errors"],
        "stream.frames_overwritten": sum(l["frames_overwritten"] for l in loops),
        "geometry.swing_twist_calls_per_frame": _ratio(s.counts.get("geometry.swing_twist", 0), steps),
        "geometry.euler_decompose_calls_per_frame": _ratio(s.counts.get("geometry.euler_decompose", 0), steps),
        "geometry.decompose_us_per_frame": (
            s.per("geometry.swing_twist", steps) + s.per("geometry.euler_decompose", steps)
        ),
        "retarget.step_us_p50": s.p("retarget.step", 50),
        "retarget.step_us_p99": step_p99,
        "retarget.smooth_us_p50": s.p("retarget.smooth", 50),
        "retarget.clamp_us_p50": s.p("retarget.clamp", 50),
        "retarget.map_self_us_p50": _pct(s.map_self_us, 50),
        "retarget.clamped_joints_per_frame": _mean(s.values.get("retarget.clamped_joints", [])),
        "retarget.gimbal_warnings": _mean(s.values.get("retarget.gimbal_warnings", [])),
        "retarget.headroom_ratio": 2000.0 / step_p99 if step_p99 else 0.0,
        "runtime.fresh_cycles": sum(l["cycles"] - l["holds"] for l in loops),
        "runtime.hold_cycles": sum(l["holds"] for l in loops),
        "runtime.hold_cycle_us_p50": _pct(s.values.get("runtime.hold_cycle_us", []), 50),
        "runtime.trace_emit_us_p50": s.p("runtime.trace_emit", 50),
        "runtime.trace_emit_us_p99": s.p("runtime.trace_emit", 99),
        "runtime.datagram_emit_us_p50": s.p("runtime.datagram_emit", 50),
        "runtime.datagram_emit_us_p99": s.p("runtime.datagram_emit", 99),
        "runtime.read_trace_us_per_command": s.per("runtime.read_trace", s.work.get("runtime.read_trace", 0)),
        "clock.wake_late_us_p50": _pct(s.values.get("clock.wake_late_us", []), 50),
        "clock.wake_late_us_p99": _pct(s.values.get("clock.wake_late_us", []), 99),
        "validate.update_us_p50": s.p("validate.update", 50),
        "validate.update_us_p99": s.p("validate.update", 99),
        "validate.over_budget_share": (
            sum(1 for d in update_us if d > 2000.0) / len(update_us) if update_us else 0.0
        ),
        "validate.audit_us_per_command": s.per("validate.audit", s.work.get("validate.audit", 0)),
        "model.fk_calls_per_command": _ratio(s.counts.get("model.fk", 0), updates),
        "model.fk_us_p50": s.p("model.fk", 50),
        "model.fk_batch_us_per_command": s.per("model.fk_batch", s.work.get("model.fk_batch", 0)),
        "metrics.histogram_samples_retained": float(
            np.median([l["histogram_samples"] for l in loops]) if loops else 0.0
        ),
    }
    for kind in ("limit", "velocity", "acceleration", "self-collision"):
        found = sum(a["violations"].get(kind, 0) for a in audits)
        out[f"validate.violations_{kind}"] = _ratio(found, audited)
    for layer in LAYERS:
        out[f"{layer}.self_us_per_command"] = _ratio(s.self_us.get(layer, 0.0), commands)
    return out


def _pct(values, q) -> float:
    value = percentile(values, q)
    return float(value) if value is not None else 0.0


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
