"""The loop process: sets the program up, runs one session of a workload, reports.

``run.py`` starts one of these per session and reads its standard output:
``READY <monotonic ns>`` once the program is ready for its first frame
(offline workloads; on live-udp the first command datagram marks it),
``PORT <n>`` (live-udp) once the frame socket is bound, and a final
``RESULT <json>``.  A traced session also writes its spans to
``<work>/spans.npz``.  Times inside the process come from
``time.perf_counter_ns``; the ready stamp uses CLOCK_MONOTONIC so the
benchmark process can compare it with its own spawn time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from inputs import LOOP_RATE_HZ, PERIOD_US, TAU_S
from speed import probe_ns

AUDIT_REPEATS_LIVE = 6


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _retained_samples(metrics) -> int:
    """Samples the loop's histograms hold: the sum of their ``len()``."""
    histograms = (getattr(metrics, name, None) for name in ("compute_us", "frame_age_us", "jitter_us"))
    return sum(len(h) for h in histograms if hasattr(h, "__len__"))


def _count_result(args, result):
    return len(result)


def _count_trace(args, result):
    return len(args[1])


class _AnnouncedSource:
    """Starts the program's UDP source and reports which port it bound."""

    def __init__(self, inner):
        self.inner = inner

    def start(self, slot, clock):
        self.inner.start(slot, clock)
        _say(f"PORT {self.inner.port}")

    def stop(self):
        self.inner.stop()


class Session:
    """The program's objects for one session, and what the session observed."""

    def __init__(self, args):
        import teleokin as tk

        self.tk = tk
        self.args = args
        self.model = tk.load_robot_model(tk.sample_text("g1_sample.cfg"))
        self.skeleton = tk.load_skeleton(tk.sample_text("human_sample.cfg"))
        self.rmap = tk.load_retarget_map(tk.sample_text("g1_sample.map"), self.skeleton, self.model)
        self.thresholds = tk.Thresholds(acceleration_limit=None)
        self.trace_path = Path(args.work) / "commands.trc"
        self.tracer = None
        if args.trace:
            from spans import Tracer, install_modules

            self.tracer = Tracer()
            install_modules(self.tracer)
        self.result = {"passes": [], "loops": [], "audits": [], "stream": {"received": 0, "decode_errors": 0}}

    def call(self, name, fn, *args, count=None, **kwargs):
        """Call a public entry point the benchmark drives, as a span when traced."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.wrap(name, fn, count=count)(*args, **kwargs)

    def loop_parts(self, clock, sink):
        """A fresh pipeline; with tracing, wrap the objects this loop will use."""
        tk = self.tk
        pipeline = tk.Pipeline(self.skeleton, self.rmap, self.model, tk.FilterState.create(len(self.model), tau=TAU_S))
        if self.tracer is not None:
            from spans import install_objects

            install_objects(self.tracer, tk, pipeline=pipeline, clock=clock, sink=sink)
        return pipeline

    def run_loop(self, *args, **kwargs):
        metrics = self.call("runtime.run_loop", self.tk.run_loop, *args, rate_hz=LOOP_RATE_HZ, **kwargs)
        self.result["loops"].append(
            {
                "cycles": metrics.cycles,
                "holds": metrics.holds,
                "commands": metrics.commands,
                "frames_overwritten": metrics.frames_overwritten,
                "histogram_samples": _retained_samples(metrics),
            }
        )
        return metrics

    def read_recording(self):
        frames = self.call("stream.read_recording", self.tk.read_recording, self.args.recording, count=_count_result)
        self.result["stream"]["received"] += len(frames)
        return frames

    def audit(self):
        """read_trace + validate_trace of the session's trace file, timed."""
        start = time.perf_counter_ns()
        commands = self.call("runtime.read_trace", self.tk.read_trace, self.trace_path, count=_count_result)
        report = self.call(
            "validate.audit", self.tk.validate_trace, self.model, commands,
            thresholds=self.thresholds, period_us=PERIOD_US, count=_count_trace,
        )
        seconds = (time.perf_counter_ns() - start) / 1e9
        self.result["audits"].append({"commands": len(commands), "violations": dict(report.counts)})
        return commands, report, {
            "audit_commands": len(commands),
            "audit_seconds": seconds,
            "violations": dict(report.counts),
        }

    # -- workloads ----------------------------------------------------------

    def live(self):
        """500 Hz wall-clock loop between the program's UDP source and datagram sink."""
        tk = self.tk
        source = _AnnouncedSource(tk.DatagramSource(0))
        sink = tk.MultiSink([tk.datagram_sink(("127.0.0.1", self.args.cmd_port)), tk.trace_sink(self.trace_path)])
        clock = tk.WallClock()
        pipeline = self.loop_parts(clock, sink)
        self.run_loop(source, pipeline, sink, duration_s=self.args.loop_seconds, clock=clock)
        sink.close()
        self.result["stream"] = {
            "received": getattr(getattr(source.inner, "stats", None), "received", 0),
            "decode_errors": sum(getattr(source.inner, "decode_errors", {}).values()),
        }
        before = probe_ns()
        for _ in range(AUDIT_REPEATS_LIVE):
            audited = self.audit()[2]
            after = probe_ns()
            audited["audit_probe_ns"] = (before + after) / 2
            self.result["passes"].append(audited)
            before = after

    def offline(self):
        """Timed passes until the session's seconds are spent, each followed by an audit.

        The speed probe runs between every pass and audit, so each timed
        stretch has a probe just before and just after it.
        """
        _say(f"READY {time.monotonic_ns()}")
        validating = self.args.workload == "online-validate"
        frames = self.read_recording() if validating else None
        deadline = time.perf_counter() + self.args.seconds
        before = probe_ns()
        while True:
            entry = self.validate_pass(frames) if validating else self.retarget_pass()
            middle = probe_ns()
            commands, report, audited = self.audit()
            after = probe_ns()
            entry.update(audited, digest=hashlib.sha256(self.trace_path.read_bytes()).hexdigest())
            entry.update(probe_ns=(before + middle) / 2, audit_probe_ns=(middle + after) / 2)
            before = after
            if validating:
                entry.update(_compare_streaming(entry.pop("streaming"), report), audit_cycles=report.cycles)
            self.result["passes"].append(entry)
            if time.perf_counter() >= deadline:
                break
        if validating:
            self.result["findings"] = self.period_finding(commands)

    def retarget_pass(self) -> dict:
        """Recording file -> read -> retarget every frame -> trace file, timed."""
        clock = self.tk.VirtualClock()
        sink = self.tk.trace_sink(self.trace_path)
        pipeline = self.loop_parts(clock, sink)
        start = time.perf_counter_ns()
        frames = self.read_recording()
        metrics = self.run_loop(self.tk.schedule(frames), pipeline, sink, clock=clock)
        sink.close()
        seconds = (time.perf_counter_ns() - start) / 1e9
        return {"items": len(frames), "seconds": seconds, "frames": len(frames),
                "cycles": metrics.cycles, "holds": metrics.holds, "commands": sink.count}

    def validate_pass(self, frames) -> dict:
        """Frames -> loop -> online validator (and a trace file for the audit), timed."""
        tk = self.tk
        clock = tk.VirtualClock()
        validator = tk.validator_sink(self.model, self.thresholds, period_us=PERIOD_US)
        trace = tk.trace_sink(self.trace_path)
        sink = tk.MultiSink([validator, trace])
        pipeline = self.loop_parts(clock, sink)
        start = time.perf_counter_ns()
        metrics = self.run_loop(tk.schedule(frames), pipeline, sink, max_cycles=self.args.cycles, clock=clock)
        seconds = (time.perf_counter_ns() - start) / 1e9
        trace.close()
        streaming = validator.report()
        return {"items": metrics.commands, "seconds": seconds, "cycles": metrics.cycles,
                "commands": trace.count, "validated": streaming.cycles, "streaming": streaming}

    def period_finding(self, commands) -> dict:
        """The period the streaming report states when it had to infer it."""
        validator = self.tk.validator_sink(self.model, self.thresholds)
        for cmd in commands[:3]:
            validator.emit(cmd)
        return {"inferred_period_header_us": validator.report().period_us}


def _compare_streaming(streaming, offline) -> dict:
    """Streaming and batch violations as multisets of (cycle, kind, identifier, value)."""
    def keyed(report):
        return sorted((v.cycle, v.kind, v.identifier, v.value) for v in report.violations)

    a, b = keyed(streaming), keyed(offline)
    same = len(a) == len(b) and all(
        x[:3] == y[:3] and abs(x[3] - y[3]) <= 1e-9 * max(1.0, abs(y[3])) for x, y in zip(a, b)
    )
    order = [(v.cycle, v.kind, v.identifier) for v in streaming.violations]
    return {
        "streaming_matches_offline": same,
        "order_differs": order != [(v.cycle, v.kind, v.identifier) for v in offline.violations],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of this session")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True, help="directory for this session's files")
    parser.add_argument("--recording", help="input MOCREC01 file (offline workloads)")
    parser.add_argument("--cycles", type=int, help="loop cycles per pass (online-validate)")
    parser.add_argument("--loop-seconds", type=float, help="loop duration (live-udp)")
    parser.add_argument("--cmd-port", type=int, help="benchmark's command port (live-udp)")
    args = parser.parse_args(argv)

    session = Session(args)
    if args.workload == "live-udp":
        session.live()
    else:
        session.offline()
    session.result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if session.tracer is not None:
        session.tracer.dump(Path(args.work) / "spans.npz")
    _say("RESULT " + json.dumps(session.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
