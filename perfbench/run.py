"""teleokin benchmark: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload live-udp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a checkout.  The program is imported from the
checkout's ``src`` directory and runs in child processes (``child.py``), one
per session; this process generates the inputs, drives live-udp's frame
generator, and checks every output.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import speed
from arith import due_latencies, steal_share, timing_summary
from inputs import (
    Reference,
    decode_command_datagram,
    encode_frame,
    random_poses,
    read_recording_orientations,
    read_trace_records,
    write_recording,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("live-udp", "offline-retarget", "online-validate")
UNTRACED_SESSIONS = 5
TRACED_PLAN = (False, True, False, True)  # traced runs alternate: untraced, traced

# live-udp
FRAME_RATE_HZ = 120
DITHER_US = 2000  # one loop period of seeded send-time dither; see README
WARMUP_S = 0.25
TAIL_S = 0.2
SPIN_NS = 150_000
# offline-retarget: frames in the recording; online-validate: loop cycles per pass
RETARGET_FRAMES = 1000
VALIDATE_CYCLES = 250
VALIDATE_SOURCE_HZ = 100

ORACLE_TOLERANCE = 1e-9


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "teleokin" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC / 'teleokin'}; run from a teleokin checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


# ---------------------------------------------------------------------------
# One run


class Run:
    """Shared state of one run: workload inputs, work directory, child processes."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        import teleokin as tk

        self.tk = tk
        self.workload = workload
        self.seed = seed
        self.plan = TRACED_PLAN if traced else (False,) * UNTRACED_SESSIONS
        self.session_seconds = seconds / len(self.plan)
        self.ref = Reference(
            tk.sample_text("g1_sample.cfg"), tk.sample_text("human_sample.cfg"), tk.sample_text("g1_sample.map")
        )
        self.work = HERE / ".work" / f"run-{os.getpid()}-{workload}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def session_dir(self, index: int) -> Path:
        path = self.work / f"session-{index}"
        path.mkdir(exist_ok=True)
        return path

    def spawn(self, index: int, traced: bool, *extra: str):
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seconds", repr(self.session_seconds), "--trace", str(int(traced)),
            "--work", str(self.session_dir(index)), *extra,
        ]
        spawned_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        return proc, spawned_ns


def _parse_child(lines: list[str], proc) -> tuple[dict, int | None]:
    result, ready = None, None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[7:])
        elif line.startswith("READY "):
            ready = int(line.split()[1])
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"loop process exited with {proc.returncode} and no result")
    return result, ready


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    run = Run(workload, seed, seconds, traced)
    stat_before, speed_before = _cpu_counters(), _probe_us()
    try:
        measure = _live if workload == "live-udp" else _offline
        outcome = measure(run)
        stat_after, speed_after = _cpu_counters(), _probe_us()
        outcome["context"] = _context(steal_share(stat_before, stat_after) if stat_before and stat_after else None)
        outcome["context"]["speed_probe_us"] = {"start": speed_before, "end": speed_after}
        return _report(run, outcome, spec, traced)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------------------
# live-udp


def _live(run: Run) -> dict:
    frames_per_session = round(run.session_seconds * FRAME_RATE_HZ)
    motion = run.tk.synth_motion(
        "walk-cycle", rate=FRAME_RATE_HZ, duration=frames_per_session / FRAME_RATE_HZ,
        noise_std=0.01, seed=run.seed,
    )
    orientations = [f.orientations for f in motion]
    sessions, lateness = [], []
    attempted = failed = 0
    for index, traced in enumerate(run.plan):
        dither = np.random.default_rng([run.seed, index]).integers(0, DITHER_US, size=len(orientations))
        session = _live_session(run, index, traced, orientations, dither)
        sessions.append(session)
        lateness.extend(session.pop("lateness_us"))
        attempted += session["sent"]
        failed += session["lost"]
    return {
        "sessions": sessions, "attempted": attempted, "failed": failed,
        "superseded": sum(s["superseded"] for s in sessions), "generator_lateness_us": lateness,
    }


def _live_session(run: Run, index: int, traced: bool, orientations, dither) -> dict:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    loop_seconds = WARMUP_S + run.session_seconds + TAIL_S
    proc, spawned_ns = run.spawn(
        index, traced, "--loop-seconds", repr(loop_seconds), "--cmd-port", str(sock.getsockname()[1])
    )
    received: list = []  # (receive ns, datagram)
    lines: list[str] = []
    pending = b""
    frame_port = first_ns = None
    schedule: list = []  # (due ns, seq, encoded frame)
    sent_ns: list = []
    out_fd = proc.stdout.fileno()
    deadline = time.monotonic() + loop_seconds + 120

    def drain():
        while True:
            try:
                data = sock.recv(4096)
            except BlockingIOError:
                return
            received.append((time.monotonic_ns(), data))

    gc.disable()
    try:
        eof = False
        while not eof:
            if time.monotonic() > deadline:
                raise RuntimeError("live session did not finish in time")
            timeout = 0.05
            if not schedule and first_ns is not None and frame_port is not None:
                start_ns = first_ns + int(WARMUP_S * 1e9)
                for k, quats in enumerate(orientations):
                    due_ns = start_ns + round(k * 1e9 / FRAME_RATE_HZ) + int(dither[k]) * 1000
                    schedule.append((due_ns, k + 1, encode_frame(k + 1, due_ns // 1000, quats)))
            if len(sent_ns) < len(schedule):
                due_ns, _, frame = schedule[len(sent_ns)]
                wait = due_ns - time.monotonic_ns()
                if wait <= SPIN_NS:
                    while time.monotonic_ns() < due_ns:
                        drain()
                    sent_ns.append(time.monotonic_ns())
                    sock.sendto(frame, ("127.0.0.1", frame_port))
                    continue
                timeout = (wait - SPIN_NS) / 1e9
            readable, _, _ = select.select([sock, out_fd], [], [], timeout)
            if sock in readable:
                drain()
                if first_ns is None and received:
                    first_ns = received[0][0]
            if out_fd in readable:
                chunk = os.read(out_fd, 65536)
                eof = not chunk
                pending += chunk
                *done, pending = pending.split(b"\n")
                for line in done:
                    lines.append(line.decode())
                    if line.startswith(b"PORT "):
                        frame_port = int(line.split()[1])
        drain()
        proc.wait(timeout=30)
    finally:
        gc.enable()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        sock.close()
    result, _ = _parse_child(lines, proc)
    if len(sent_ns) < len(schedule) or first_ns is None:
        raise RuntimeError("live session ended before every frame was sent")

    due_us = {seq: due_ns // 1000 for due_ns, seq, _ in schedule}
    decoded = [(ns / 1000.0, decode_command_datagram(data)) for ns, data in received]
    commands = [c for _, c in decoded if c is not None]
    run.check("live: every CMD1 datagram decodes with a valid CRC", len(commands) == len(decoded))
    seqs = sorted(c[0] for c in commands)
    run.check("live: command seq has no gaps at the receiver", seqs == list(range(len(seqs))))
    run.check(
        "live: every command the loop emitted arrived",
        len(seqs) == sum(loop["commands"] for loop in result["loops"]),
    )
    run.check("live: angles inside the soft limits", all(run.ref.within_limits(c[3]) for c in commands))
    run.check(
        "live: fresh commands echo their frame's due time",
        all(c[2] == due_us[c[1]] for c in commands if not c[4] and c[1] in due_us),
    )
    latencies = due_latencies(due_us, ((recv_us, c[1], c[4]) for recv_us, c in decoded if c is not None))
    # Latest-frame slot: a frame replaced by a newer one before the loop's
    # next cycle is dropped by design and counted by the loop.  A frame that
    # was neither answered nor superseded is lost.
    superseded = sum(loop["frames_overwritten"] for loop in result["loops"])
    unanswered = len(schedule) - len(latencies)
    run.check("live: no answered frame is also counted as superseded", superseded <= unanswered)
    return {
        "traced": traced,
        "setup_s": (first_ns - spawned_ns) / 1e9,
        "peak_rss_mb": result["peak_rss_mb"],
        "frame_to_command_us": list(latencies.values()),
        **_audit_times(result["passes"]),
        "child": result,
        "sent": len(schedule),
        "superseded": superseded,
        "lost": max(0, unanswered - superseded),
        "lateness_us": [(sent - due) / 1000.0 for sent, (due, _, _) in zip(sent_ns, schedule)],
    }


# ---------------------------------------------------------------------------
# offline-retarget and online-validate


def _offline(run: Run) -> dict:
    recording = run.work / "input.rec"
    if run.workload == "offline-retarget":
        motion = run.tk.synth_motion(
            "walk-cycle", rate=500, duration=RETARGET_FRAMES / 500, noise_std=0.01, seed=run.seed
        )
        write_recording(recording, ((f.seq, f.timestamp_us, f.orientations) for f in motion))
        extra = ()
    else:
        count = VALIDATE_CYCLES * VALIDATE_SOURCE_HZ // 500
        poses = random_poses(count, len(run.ref.segments), run.seed)
        write_recording(recording, ((i, i * 1_000_000 // VALIDATE_SOURCE_HZ, q) for i, q in enumerate(poses)))
        extra = ("--cycles", str(VALIDATE_CYCLES))
    sessions = []
    for index, traced in enumerate(run.plan):
        proc, spawned_ns = run.spawn(index, traced, "--recording", str(recording), *extra)
        try:
            out, _ = proc.communicate(timeout=run.session_seconds + 150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result, ready_ns = _parse_child(out.decode().splitlines(), proc)
        passes = result["passes"]
        sessions.append(
            {
                "traced": traced,
                "setup_s": (ready_ns - spawned_ns) / 1e9,
                "peak_rss_mb": result["peak_rss_mb"],
                "frame_to_command_us": [speed.scaled(p["seconds"] * 1e6 / p["items"], p["probe_ns"]) for p in passes],
                "raw_frame_to_command_us": [p["seconds"] * 1e6 / p["items"] for p in passes],
                **_audit_times(passes),
                "child": result,
            }
        )
    passes = [p for s in sessions for p in s["child"]["passes"]]
    run.check("byte-identical trace from every pass at this seed", len({p["digest"] for p in passes}) == 1)
    last_trace = run.session_dir(len(run.plan) - 1) / "commands.trc"
    records = read_trace_records(last_trace)
    run.check("angles inside the soft limits", all(run.ref.within_limits(r[3]) for r in records))
    outcome = {"sessions": sessions}
    if run.workload == "offline-retarget":
        for p in passes:
            run.check(
                "commands == cycles == frames, no holds",
                p["commands"] == p["cycles"] == p["frames"] and p["holds"] == 0,
            )
            run.check("audit reports zero violations", sum(p["violations"].values()) == 0)
        expected = run.ref.expected_trace(
            read_recording_orientations(recording), run.tk.swing_twist, run.tk.euler_decompose
        )
        actual = np.array([r[3] for r in records])
        error = float(np.max(np.abs(actual - expected))) if actual.shape == expected.shape else float("inf")
        run.check(
            f"every frame matches the scalar swing_twist/euler_decompose oracle to {ORACLE_TOLERANCE:g}",
            error <= ORACLE_TOLERANCE,
        )
        outcome["oracle_max_abs_error"] = error
        outcome["attempted"] = sum(p["frames"] for p in passes)
        outcome["failed"] = sum(max(0, p["frames"] - p["commands"]) for p in passes)
    else:
        for p in passes:
            run.check(
                "commands == cycles == validated == audited",
                p["commands"] == p["cycles"] == p["validated"] == p["audit_cycles"] == VALIDATE_CYCLES,
            )
            run.check("streaming violations == validate_trace violations (multiset)", p["streaming_matches_offline"])
        findings = []
        if any(p["order_differs"] for p in passes):
            findings.append(
                "streaming and offline reports order a cycle's violations differently "
                "(streaming by joint index, offline by name)"
            )
        header = sessions[-1]["child"]["findings"]["inferred_period_header_us"]
        if header != 2000:
            findings.append(f"IncrementalValidator.report() states period_us={header:g} when the period is inferred")
        outcome["findings"] = findings
        outcome["violations_per_command"] = {
            kind: sum(p["violations"][kind] for p in passes) / sum(p["audit_commands"] for p in passes)
            for kind in passes[0]["violations"]
        }
        outcome["attempted"] = sum(p["cycles"] for p in passes)
        outcome["failed"] = sum(p["cycles"] - p["validated"] for p in passes)
    return outcome


def _audit_times(passes: list) -> dict:
    """Audit time per command of each pass, scaled by the speed probe, and raw."""
    raw = [p["audit_seconds"] * 1e6 / p["audit_commands"] for p in passes]
    return {
        "audit_us_per_command": [speed.scaled(v, p["audit_probe_ns"]) for v, p in zip(raw, passes)],
        "raw_audit_us_per_command": raw,
    }


# ---------------------------------------------------------------------------
# Reporting


def _median(values):
    return statistics.median(values) if values else None


def _end_to_end(sessions: list) -> dict:
    """End-to-end values of a set of sessions.

    live-udp reports the median latency over every frame.  Pass times (the
    unpaced workloads' frame_to_command_us, every audit) are scaled by the
    speed probe run next to each pass, and the median over passes is
    reported: this shared VM's core speed changes by up to 2x with other
    tenants' load, unseen by steal accounting (speed.py, README.md "Noise").
    """
    ftc = [v for s in sessions for v in s["frame_to_command_us"]]
    return {
        "frame_to_command_us": statistics.median(ftc),
        "audit_us_per_command": statistics.median(v for s in sessions for v in s["audit_us_per_command"]),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }


def _report(run: Run, outcome: dict, spec: dict, traced: bool) -> dict:
    sessions = outcome["sessions"]
    plain = [s for s in sessions if not s["traced"]]
    pooled = {
        key: [v for s in plain for v in s.get(key, [])]
        for key in ("frame_to_command_us", "audit_us_per_command", "raw_frame_to_command_us", "raw_audit_us_per_command")
    }
    end_to_end = _end_to_end(plain)
    samples = {
        "frame_to_command_us": len(pooled["frame_to_command_us"]),
        "audit_us_per_command": len(pooled["audit_us_per_command"]),
        "setup_s": len(plain),
        "peak_rss_mb": len(plain),
    }
    named = _named_metrics(run.workload, end_to_end, samples, pooled, outcome)
    detail = {
        "workload": run.workload,
        "seed": run.seed,
        "metrics": named,
        "sessions": [
            {
                "traced": s["traced"],
                "setup_s": s["setup_s"],
                "peak_rss_mb": s["peak_rss_mb"],
                "frame_to_command_us": {
                    "median": _median(s["frame_to_command_us"]),
                    "raw_median": _median(s.get("raw_frame_to_command_us", [])),
                    "raw_best": min(s.get("raw_frame_to_command_us", []), default=None),
                    "samples": len(s["frame_to_command_us"]),
                },
                "audit_us_per_command": {
                    "median": _median(s["audit_us_per_command"]),
                    "raw_median": _median(s["raw_audit_us_per_command"]),
                    "raw_best": min(s["raw_audit_us_per_command"], default=None),
                },
            }
            for s in sessions
        ],
        "checks": run.checks,
        "context": outcome["context"],
    }
    for key in ("findings", "oracle_max_abs_error", "violations_per_command"):
        if key in outcome:
            detail[key] = outcome[key]
    if "generator_lateness_us" in outcome:
        detail["context"]["generator_lateness_us"] = timing_summary(outcome["generator_lateness_us"])
    if traced:
        metrics = _per_layer(run, outcome, end_to_end, detail)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end
        wanted = spec["end_to_end"]
    for name, entry in named.items():
        print(f"{run.workload:>16}  {name:<34} {_fmt(entry['value']):>14} {entry['unit']:<10} n={entry['samples']}")
    for name, ok in run.checks.items():
        print(f"{run.workload:>16}  check {'ok  ' if ok else 'FAIL'} {name}")
    for finding in outcome.get("findings", []):
        print(f"{run.workload:>16}  known finding: {finding}")
    print("DETAIL " + json.dumps(detail))
    return {
        "correct": all(run.checks.values()),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _named_metrics(workload, end_to_end, samples, pooled, outcome) -> dict:
    """The workload's metrics under the names users know, each with unit and sample count."""
    def entry(value, unit, n):
        return {"value": value, "unit": unit, "samples": n}

    n_ftc, n_audit = samples["frame_to_command_us"], samples["audit_us_per_command"]
    out = {}
    if workload == "live-udp":
        latency = timing_summary(pooled["frame_to_command_us"])
        out["motion_to_command_us_p50"] = entry(end_to_end["frame_to_command_us"], "us", n_ftc)
        if latency["tail"] is not None:
            out[f"motion_to_command_us_p{latency['tail_percentile']:g}"] = entry(latency["tail"], "us", n_ftc)
        out["failed_share"] = entry(outcome["failed"] / outcome["attempted"], "share", outcome["attempted"])
        out["superseded_share"] = entry(outcome["superseded"] / outcome["attempted"], "share", outcome["attempted"])
    else:
        name = "retarget_frames_per_s" if workload == "offline-retarget" else "validated_commands_per_s"
        out[name] = entry(1e6 / end_to_end["frame_to_command_us"], "1/s", n_ftc)
        out[name + "_raw_median"] = entry(1e6 / statistics.median(pooled["raw_frame_to_command_us"]), "1/s", n_ftc)
        out[name + "_raw_best"] = entry(1e6 / min(pooled["raw_frame_to_command_us"]), "1/s", n_ftc)
    out["audit_commands_per_s"] = entry(1e6 / end_to_end["audit_us_per_command"], "1/s", n_audit)
    out["audit_commands_per_s_raw_median"] = entry(
        1e6 / statistics.median(pooled["raw_audit_us_per_command"]), "1/s", n_audit
    )
    out["setup_s"] = entry(end_to_end["setup_s"], "s", samples["setup_s"])
    out["peak_rss_mb"] = entry(end_to_end["peak_rss_mb"], "MB", samples["peak_rss_mb"])
    return out


def _per_layer(run: Run, outcome: dict, end_to_end: dict, detail: dict) -> dict:
    traced = [s for s in outcome["sessions"] if s["traced"]]
    paths = [run.session_dir(i) / "spans.npz" for i, t in enumerate(run.plan) if t]
    span_set = spans.SpanSet(spans.load(paths))
    children = [s["child"] for s in traced]
    loops = [loop for c in children for loop in c["loops"]]
    stream_counts = {k: sum(c["stream"][k] for c in children) for k in ("received", "decode_errors")}
    audits = [a for c in children for a in c["audits"]]
    commands = sum(loop["commands"] for loop in loops)
    out = spans.layer_metrics(span_set, loops, stream_counts, audits, commands)
    traced_end_to_end = _end_to_end(traced)
    for key in ("frame_to_command_us", "audit_us_per_command"):
        out[f"tracing.overhead_{key}"] = traced_end_to_end[key] - end_to_end[key]
    detail["span_counts"] = dict(span_set.counts)
    detail["step_accounting_us"] = {
        "step_p50": out["retarget.step_us_p50"],
        "map_self_plus_smooth_plus_clamp_p50": (
            out["retarget.map_self_us_p50"] + out["retarget.smooth_us_p50"] + out["retarget.clamp_us_p50"]
        ),
        "tracing_overhead_per_frame": out["tracing.overhead_frame_to_command_us"],
    }
    return out


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


# ---------------------------------------------------------------------------
# Run-quality context


def _cpu_counters():
    try:
        with open("/proc/stat") as fh:
            first = fh.readline().split()
    except OSError:
        return None
    return first[1:] if first and first[0] == "cpu" else None


def _probe_us() -> float:
    """Median of five speed probes: the core's speed at the start or end of a run."""
    return statistics.median(speed.probe_ns() for _ in range(5)) / 1000


def _context(steal) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "teleokin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg", ".map"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_steal_share": steal,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
