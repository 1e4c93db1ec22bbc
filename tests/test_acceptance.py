"""Acceptance battery.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each test pins its tolerances; seeded generators make every
run identical.
"""

import math
import socket
import threading
import time

import numpy as np

from teleokin.clock import VirtualClock, WallClock
from teleokin.data import sample_text
from teleokin.errors import (
    BadMagic,
    CrcMismatch,
    DegenerateQuaternion,
    TruncatedFrame,
    UnsupportedVersion,
)
from teleokin.geometry import (
    EULER_ORDERS,
    euler_decompose,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    swing_twist,
)
from teleokin.model import (
    forward_kinematics,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
)
from teleokin.retarget import FilterState, Pipeline, smooth
from teleokin.runtime import (
    MultiSink,
    NullSink,
    datagram_sink,
    run_loop,
    trace_sink,
)
from teleokin.stream import DatagramSource, StreamStats, schedule, synth_motion
from teleokin.validate import Thresholds, collision_pairs, validate_trace
from teleokin.wire import (
    MocapFrame,
    decode_command_datagram,
    decode_frame,
    encode_frame,
    identity_frame,
    read_trace,
)

from test_model import oracle_fk
from test_retarget import _measured_phase_lag


def _pass(n, message):
    print(f"ACCEPTANCE PASS [{n}] {message}")


def load_sample():
    model = load_robot_model(sample_text("g1_sample.cfg"))
    skel = load_skeleton(sample_text("human_sample.cfg"))
    rmap = load_retarget_map(sample_text("g1_sample.map"), skel, model)
    return model, skel, rmap


def random_unit_rows(rng, count=23):
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    q[q[:, 0] < 0] *= -1.0  # canonical sign, as the frame type requires
    return q


class _Capture:
    def __init__(self):
        self.commands = []

    def emit(self, cmd):
        self.commands.append(cmd)

    def close(self):
        pass


def test_criterion_1_safety_battery():
    """10^5 random valid frames: zero soft-limit violations, audit passes, < 30 s.

    tau = 0.4 s bounds each EMA output step by alpha * 2pi = 0.155 rad, i.e.
    15.5 rad/s at 100 Hz, under every joint's velocity limit, so the
    velocity check passes deterministically.  The acceleration check is off;
    the core battery is limits, velocity, and self-collision.
    """
    model, skel, rmap = load_sample()
    alpha = 1.0 - math.exp(-0.01 / 0.4)
    assert alpha * 2.0 * math.pi / 0.01 < model.velocity_limits.min()

    pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.4))
    clock = VirtualClock()
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    commands = []
    for i in range(100_000):
        frame = MocapFrame(i, i * 10_000, random_unit_rows(rng))
        cmd, _ = pipeline.step(frame, 0.010, clock)
        commands.append(cmd)
    angles = np.stack([c.angles for c in commands])
    assert (angles >= model.soft_lower[None, :]).all()
    assert (angles <= model.soft_upper[None, :]).all()
    report = validate_trace(
        model, commands, thresholds=Thresholds(acceleration_limit=None), period_us=10_000
    )
    assert report.passed, report.format()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(1, f"safety battery: 100000 random frames, 0 violations, {elapsed:.1f}s")


def test_criterion_2_sim2sim_battery():
    """All four synth patterns, 10 s at 100 Hz source / 500 Hz loop: audit passes, < 60 s."""
    model, skel, rmap = load_sample()
    started = time.perf_counter()
    for seed, pattern in enumerate(("static", "arm-wave", "squat", "walk-cycle")):
        frames = synth_motion(pattern, rate=100, duration=10.0, noise_std=0.01, seed=seed)
        pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
        capture = _Capture()
        run_loop(
            schedule(frames), pipeline, capture, rate_hz=500, max_cycles=5000, clock=VirtualClock()
        )
        assert len(capture.commands) == 5000
        report = validate_trace(
            model,
            capture.commands,
            thresholds=Thresholds(acceleration_limit=None),
            period_us=2000,
        )
        assert report.passed, f"{pattern}:\n{report.format()}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(2, f"sim2sim battery: 4 patterns x 10 s pass limit/velocity/collision, {elapsed:.1f}s")


def test_criterion_3_sim2real_parity(tmp_path):
    """Same deterministic run through trace and datagram sinks: equal at tol 0."""
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(2.0)
    captured = []

    def drain():
        while len(captured) < 400:
            try:
                captured.append(decode_command_datagram(receiver.recv(65535)))
            except socket.timeout:
                return

    class Throttle:
        """Capture-harness pacing so the kernel socket buffer cannot overflow.

        Sleeps wall time only; the loop's virtual clock never sees it, so
        the emitted trace stays bit-deterministic."""

        def emit(self, cmd):
            time.sleep(0.0004)

        def close(self):
            pass

    def one_run(trace_path, with_datagram):
        model, skel, rmap = load_sample()
        pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
        frames = synth_motion("walk-cycle", rate=100, duration=0.8, noise_std=0.01, seed=5)
        sinks = [trace_sink(trace_path)]
        if with_datagram:
            sinks.append(datagram_sink(receiver.getsockname()))
            sinks.append(Throttle())
        run_loop(
            schedule(frames),
            pipeline,
            MultiSink(sinks),
            rate_hz=500,
            max_cycles=400,
            clock=VirtualClock(),
        )
        for s in sinks:
            s.close()

    reader = threading.Thread(target=drain)
    reader.start()
    one_run(tmp_path / "a.trc", with_datagram=True)
    reader.join()
    receiver.close()
    assert len(captured) == 400
    from_file = read_trace(tmp_path / "a.trc")
    assert len(from_file) == 400
    assert [c.seq for c in captured] == [c.seq for c in from_file]
    assert all(np.array_equal(a.angles, b.angles) for a, b in zip(from_file, captured))

    one_run(tmp_path / "b.trc", with_datagram=False)
    assert (tmp_path / "a.trc").read_bytes() == (tmp_path / "b.trc").read_bytes()
    _pass(3, "sim2real parity: trace and datagram routes identical at tol 0, reruns byte-identical")


def test_criterion_4_one_command_per_frame():
    """Matched 100 Hz source and loop, 1000 frames: 1000 commands, 0 overwritten."""
    model, skel, rmap = load_sample()
    pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
    frames = list(synth_motion("arm-wave", rate=100, duration=10.0, noise_std=0.01, seed=8))
    assert len(frames) == 1000
    capture = _Capture()
    metrics = run_loop(schedule(frames), pipeline, capture, rate_hz=100, clock=VirtualClock())
    assert metrics.commands == 1000
    assert metrics.frames_overwritten == 0
    assert metrics.holds == 0
    for cmd in capture.commands:
        assert cmd.source_seq == cmd.seq
    _pass(4, "one command per frame: 1000 frames -> 1000 commands, 0 overwritten, seqs aligned")


def test_criterion_5_ema_step_and_phase_lag():
    """Step response matches 1 - exp(-t/tau) within 1e-9; lag within 5% of arctan(2 pi f tau)."""
    tau, dt = 0.020, 0.002
    state = FilterState.create(1, tau=tau)
    smooth(state, [0.0], dt=dt)
    for n in range(1, 500):
        out = smooth(state, [1.0], dt=dt)[0]
        assert abs(out - (1.0 - math.exp(-n * dt / tau))) < 1e-9
    lags = {}
    for freq in (0.5, 1.0, 2.0):
        predicted = math.atan(2.0 * math.pi * freq * tau)
        measured = _measured_phase_lag(freq, tau, rate=1000.0)
        assert abs(measured - predicted) / predicted < 0.05
        lags[freq] = (measured, predicted)
    detail = ", ".join(f"{f} Hz: {m:.4f}/{p:.4f}" for f, (m, p) in lags.items())
    _pass(5, f"EMA: step response exact to 1e-9; phase lag within 5% ({detail})")


def test_criterion_6_latency_bound(capsys):
    """teleokin bench, 23-joint model, 500 Hz: p99 per-cycle compute < 1 ms."""
    from teleokin.cli import main

    code = main(["bench", "--rate", "500", "--frames", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    stats = dict(line.split("=", 1) for line in out.strip().splitlines())
    p50 = int(stats["compute_us_p50"])
    p99 = int(stats["compute_us_p99"])
    assert "compute_us_max" in stats
    assert p99 < 1000, f"p99 per-cycle compute {p99} us exceeds the 2 ms cycle's 1 ms half"
    _pass(6, f"latency: p50 {p50} us, p99 {p99} us < 1000 us at 500 Hz on the 23-joint model")


def test_criterion_7a_swing_twist_recomposition():
    rng = np.random.default_rng(70)
    for _ in range(10_000):
        q = quat_normalize(rng.normal(size=4))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        swing, angle = swing_twist(q, axis)
        recomposed = quat_multiply(swing, quat_from_axis_angle(axis, angle))
        assert np.abs(recomposed - q).max() < 1e-9
        assert abs(float(np.dot(swing[1:], axis))) < 1e-9
    _pass("7a", "swing-twist recomposition: 10000 cases within 1e-9")


def test_criterion_7b_euler_recomposition():
    rng = np.random.default_rng(71)
    axes = {"X": np.array([1.0, 0, 0]), "Y": np.array([0, 1.0, 0]), "Z": np.array([0, 0, 1.0])}
    checked = 0
    for _ in range(10_000):
        q = quat_normalize(rng.normal(size=4))
        order = EULER_ORDERS[int(rng.integers(len(EULER_ORDERS)))]
        angles, gimbal = euler_decompose(q, order)
        if gimbal:
            continue
        recomposed = quat_from_axis_angle(axes[order[0]], float(angles[0]))
        recomposed = quat_multiply(recomposed, quat_from_axis_angle(axes[order[1]], float(angles[1])))
        recomposed = quat_multiply(recomposed, quat_from_axis_angle(axes[order[2]], float(angles[2])))
        assert np.abs(recomposed - q).max() < 1e-9
        checked += 1
    assert checked > 9900
    _pass("7b", f"euler recomposition: {checked} off-gimbal cases within 1e-9")


def test_criterion_7c_fk_oracle():
    rng = np.random.default_rng(72)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        lines = []
        parent = "base"
        for i in range(n):
            t = rng.uniform(-0.5, 0.5, size=3).tolist()
            q = rng.normal(size=4)
            q = (q / np.linalg.norm(q)).tolist()
            a = rng.normal(size=3)
            a = (a / np.linalg.norm(a)).tolist()
            lines.append(
                f"joint j{i} parent={parent} child=l{i}"
                f" origin={t[0]!r},{t[1]!r},{t[2]!r};{q[0]!r},{q[1]!r},{q[2]!r},{q[3]!r}"
                f" axis={a[0]!r},{a[1]!r},{a[2]!r} limits=-3.2,3.2 soft=0 vmax=10 default=0"
            )
            parent = f"l{i}"
        model = load_robot_model("\n".join(lines))
        angles = rng.uniform(-math.pi, math.pi, size=n)
        poses = forward_kinematics(model, angles)
        mats = oracle_fk(model, angles)
        for link, pose in poses.items():
            assert np.abs(pose.position - mats[link][:3, 3]).max() < 1e-9
    _pass("7c", "forward kinematics vs matrix oracle: 1000 random chains within 1e-9")


def test_criterion_7d_collision_brute_force():
    model, _, _ = load_sample()
    pairs = collision_pairs(model)
    by_ref = {}
    per_link = {}
    for s in model.spheres:
        idx = per_link.get(s.link, 0)
        per_link[s.link] = idx + 1
        by_ref[(s.link, idx)] = s
    rng = np.random.default_rng(73)
    rows = rng.uniform(model.soft_lower, model.soft_upper, size=(1000, len(model)))
    from teleokin.wire import JointCommand

    trace = [
        JointCommand(i, i, i * 10_000, i * 10_000, rows[i], np.zeros(len(model), dtype=bool))
        for i in range(1000)
    ]
    report = validate_trace(
        model, trace, thresholds=Thresholds(acceleration_limit=None), period_us=10_000
    )
    got = {(v.cycle, v.identifier) for v in report.violations if v.kind == "self-collision"}
    expected = set()
    for i in range(1000):
        mats = oracle_fk(model, rows[i])
        for (la, ia), (lb, ib) in pairs:
            sa, sb = by_ref[(la, ia)], by_ref[(lb, ib)]
            pa = mats[la][:3, :3] @ sa.center + mats[la][:3, 3]
            pb = mats[lb][:3, :3] @ sb.center + mats[lb][:3, 3]
            if np.linalg.norm(pa - pb) < sa.radius + sb.radius:
                expected.add((i, f"{la}/{ia},{lb}/{ib}"))
    assert got == expected
    assert expected  # unfiltered soft-box poses do collide; agreement is the point
    _pass("7d", f"self-collision vs brute force: 1000 configs, {len(expected)} hits, exact agreement")


def test_criterion_7e_codec_fuzz():
    """10^6 arbitrary inputs never abort; valid-frame round trips are exact
    at float32 precision (the wire stores float32; re-normalization on decode
    keeps quaternions unit to 1e-9)."""
    rng = np.random.default_rng(74)
    codec_errors = (BadMagic, UnsupportedVersion, TruncatedFrame, CrcMismatch, DegenerateQuaternion)
    valid = encode_frame(identity_frame(23, seq=3, timestamp_us=987654))

    blobs = rng.integers(0, 256, size=(800_000,), dtype=np.uint8).tobytes()
    lengths = rng.integers(0, 48, size=180_000)
    offset = 0
    attempts = 0
    for n in lengths:
        try:
            decode_frame(blobs[offset : offset + int(n)])
        except codec_errors:
            pass
        offset = (offset + int(n)) % (len(blobs) - 64)
        attempts += 1
    head = np.frombuffer(valid, dtype=np.uint8)
    for _ in range(800_000):
        data = head.copy()
        pos = int(rng.integers(len(data)))
        data[pos] ^= int(rng.integers(1, 256))
        try:
            decode_frame(data.tobytes())
        except codec_errors:
            pass
        attempts += 1
    for _ in range(20_000):
        cut = int(rng.integers(0, len(valid) + 8))
        try:
            decode_frame(valid[:cut] + b"\x00" * max(0, cut - len(valid)))
        except codec_errors:
            pass
        attempts += 1
    assert attempts >= 1_000_000

    for i in range(10_000):
        frame = MocapFrame(i, i * 997, random_unit_rows(rng, count=23))
        decoded = decode_frame(encode_frame(frame))
        assert decoded.seq == frame.seq
        assert decoded.timestamp_us == frame.timestamp_us
        assert np.abs(decoded.orientations - frame.orientations).max() < 2.4e-7
        assert np.abs(np.linalg.norm(decoded.orientations, axis=1) - 1.0).max() < 1e-9
    _pass("7e", f"codec fuzz: {attempts} arbitrary inputs, no aborts; 10000 round trips float32-exact")


def test_criterion_8a_source_silence_holds():
    model, skel, rmap = load_sample()
    pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
    frames = synth_motion("arm-wave", rate=100, duration=0.01, noise_std=0.0)  # one frame
    capture = _Capture()
    metrics = run_loop(
        schedule(frames), pipeline, capture, rate_hz=100, max_cycles=11, clock=VirtualClock()
    )
    assert metrics.holds == 10
    holds = [c for c in capture.commands if c.hold]
    assert len(holds) == 10
    reference = capture.commands[0]
    for h in holds:
        assert np.array_equal(h.angles, reference.angles)
    _pass("8a", "source silence: 10 cycles without frames -> 10 identical hold commands")


def test_criterion_8b_crc_corruption_is_counted_not_fatal():
    model, skel, rmap = load_sample()
    pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
    source = DatagramSource(port=0)

    def send_frames():
        while source.port == 0:
            time.sleep(0.002)
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        time.sleep(0.05)
        for seq in range(60):
            frame = identity_frame(23, seq=seq, timestamp_us=seq * 5000)
            data = bytearray(encode_frame(frame))
            if 40 <= seq < 48:
                data[25] ^= 0xFF  # corrupt a payload byte; CRC must catch it
            out.sendto(bytes(data), ("127.0.0.1", source.port))
            time.sleep(0.003)
        out.close()

    sender = threading.Thread(target=send_frames)
    sender.start()
    metrics = run_loop(source, pipeline, NullSink(), rate_hz=100, duration_s=0.6, clock=WallClock())
    sender.join()
    assert metrics.cycles == 60
    assert metrics.commands == 60  # loop never stalled
    assert source.decode_errors.get("CrcMismatch", 0) == 8
    stats = source.stats
    assert stats.received == 52
    assert stats.dropped == 8  # the corrupted sequence numbers never arrived
    assert metrics.frames_consumed + metrics.frames_overwritten == 52
    _pass("8b", "CRC corruption: 8 bad datagrams counted as drops, loop emitted every cycle")


def test_criterion_8c_sequence_gap_accounting():
    stats = StreamStats()
    script = [0, 1, 2, 5, 6, 6, 3, 10]
    for seq in script:
        stats.observe(seq)
    assert stats.received == 8
    assert stats.duplicates == 1  # second 6
    assert stats.out_of_order == 1  # the late 3
    assert stats.dropped == 4  # 4, 7, 8, 9 never arrived
    assert stats.received + stats.dropped >= stats.span
    _pass("8c", "stream stats: scripted gaps, duplicates, reordering accounted exactly")
