"""Control loop, latest-frame slot, sinks, and command codecs."""

import math
import random
import select
import socket
import struct
import threading
import time
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from teleokin import clock as clock_module
from teleokin.clock import VirtualClock, WallClock
from teleokin.data import sample_text
from teleokin.errors import (
    BadMagic,
    CrcMismatch,
    DegenerateQuaternion,
    SinkBackpressure,
    TruncatedFrame,
    UnsupportedVersion,
)
from teleokin.geometry import quat_from_axis_angle
from teleokin.model import load_retarget_map, load_robot_model, load_skeleton
from teleokin.retarget import FilterState, Pipeline
from teleokin.runtime import (
    Histogram,
    LatestFrameSlot,
    LoopMetrics,
    MultiSink,
    NullSink,
    datagram_sink,
    run_loop,
    trace_sink,
    validator_sink,
)
from teleokin import stream
from teleokin.stream import DatagramSource, schedule, synth_motion
from teleokin.validate import Thresholds, validate_trace
from teleokin.wire import (
    JointCommand,
    MocapFrame,
    decode_command_datagram,
    encode_command_datagram,
    encode_command_record,
    encode_frame,
    identity_frame,
    read_trace,
)


def sample_pipeline(tau=0.020):
    model = load_robot_model(sample_text("g1_sample.cfg"))
    skel = load_skeleton(sample_text("human_sample.cfg"))
    rmap = load_retarget_map(sample_text("g1_sample.map"), skel, model)
    return Pipeline(skel, rmap, model, FilterState.create(len(model), tau=tau))


def make_command(seq=0, n=3, hold=False, emission=1000):
    return JointCommand(
        seq=seq,
        source_seq=seq,
        source_timestamp_us=seq * 10,
        emission_timestamp_us=emission,
        angles=np.linspace(-1.0, 1.0, n),
        clamped=np.zeros(n, dtype=bool),
        hold=hold,
    )


def _seeded(seed, n, spread, shift=0):
    rng = random.Random(seed)
    return [int(rng.lognormvariate(0, spread)) - shift for _ in range(n)]


class TestHistogram:
    @pytest.mark.parametrize(
        "samples",
        [
            [],
            [42],
            [0] * 100,
            [3, 3, 3, 9, 9, 1, 1_000] * 30,
            [120] * 999 + [2_000_000],  # one outlier above the rest
            _seeded(1, 1_000, 2.0),
            _seeded(2, 5_000, 4.0),
            _seeded(3, 7, 1.0),
            _seeded(4, 300, 1.0, shift=3),  # some values below zero
        ],
        ids=["empty", "single", "all-zero", "repeated", "outlier", "seed1", "seed2", "seed3-few", "seed4-negatives"],
    )
    def test_matches_the_sorted_list_rule(self, samples):
        hist = Histogram()
        for value in samples:
            hist.record(value)
        ordered = sorted(samples)

        def at(p):  # the exact rule: the sample of rank round(p/100 * (n-1)), clamped
            return ordered[max(0, min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1)))))] if ordered else 0

        buckets = {}
        for value in ordered:
            upper = 1 << value.bit_length() if value > 0 else 1
            buckets[upper] = buckets.get(upper, 0) + 1
        assert [hist.percentile(p) for p in (0, 1, 50, 99, 100)] == [at(p) for p in (0, 1, 50, 99, 100)]
        assert hist.maximum() == (ordered[-1] if ordered else 0)
        assert list(hist.bucket_counts().items()) == sorted(buckets.items())
        assert len(hist) == len(samples)


class TestLatestFrameSlot:
    def test_take_empty(self):
        slot = LatestFrameSlot()
        assert slot.take() is None

    def test_write_take(self):
        slot = LatestFrameSlot()
        slot.write("f0", 100)
        assert slot.take() == ("f0", 100)
        assert slot.take() is None
        assert (slot.written, slot.consumed, slot.overwritten) == (1, 1, 0)
        slot.write("f1", 200)
        assert slot.pending
        assert slot.take() == ("f1", 200)
        assert not slot.pending and slot.take() is None

    def test_overwrite_keeps_newest(self):
        slot = LatestFrameSlot()
        slot.write("f0", 100)
        slot.write("f1", 200)
        assert slot.take() == ("f1", 200)
        assert (slot.written, slot.consumed, slot.overwritten) == (2, 1, 1)

    def test_drain_folds_a_pending_frame_into_overwritten(self):
        slot = LatestFrameSlot()
        slot.drain()  # nothing pending, nothing counted
        slot.write("f0", 100)
        slot.drain()
        assert not slot.pending and slot.take() is None
        slot.write("f1", 200)
        assert slot.take() == ("f1", 200)
        assert (slot.written, slot.consumed, slot.overwritten) == (2, 1, 1)

    def test_accounting_under_scripted_interleavings(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            slot = LatestFrameSlot()
            newest = None
            for op in rng.integers(0, 2, size=60):
                if op == 0:
                    newest = int(rng.integers(1000))
                    slot.write(newest, newest + 1)
                else:
                    got = slot.take()
                    if got is not None:
                        assert got == (newest, newest + 1)  # freshness, with its own arrival
                pendin = 1 if slot.pending else 0
                assert slot.written == slot.consumed + slot.overwritten + pendin
            slot.drain()
            assert slot.written == slot.consumed + slot.overwritten


class TestCommandCodec:
    def test_datagram_length_for_23_joints(self):
        cmd = make_command(n=23)
        assert len(encode_command_datagram(cmd)) == 219

    def test_record_length(self):
        cmd = make_command(n=23)
        assert len(encode_command_record(cmd)) == 214

    def test_datagram_round_trip(self):
        cmd = make_command(seq=42, n=5, hold=True)
        out = decode_command_datagram(encode_command_datagram(cmd))
        assert out.seq == 42 and out.hold
        assert np.array_equal(out.angles, cmd.angles)
        assert out.source_timestamp_us == cmd.source_timestamp_us

    def test_datagram_crc_checked(self):
        data = bytearray(encode_command_datagram(make_command(n=4)))
        data[10] ^= 0xFF
        with pytest.raises(CrcMismatch):
            decode_command_datagram(bytes(data))

    def test_datagram_truncation_checked(self):
        data = encode_command_datagram(make_command(n=4))
        with pytest.raises(TruncatedFrame):
            decode_command_datagram(data[:11])

    def test_datagram_bad_magic(self):
        data = b"XMD1" + encode_command_datagram(make_command(n=4))[4:]
        with pytest.raises(BadMagic):
            decode_command_datagram(data)

    def test_datagram_bad_version(self):
        data = bytearray(encode_command_datagram(make_command(n=4)))
        data[4] = 2
        with pytest.raises(UnsupportedVersion):
            decode_command_datagram(bytes(data))

    def test_datagram_decoder_raises_only_codec_errors(self):
        codec_errors = (BadMagic, UnsupportedVersion, TruncatedFrame, CrcMismatch, DegenerateQuaternion)
        rng = np.random.default_rng(5)
        valid = encode_command_datagram(make_command(n=23))
        prefix = valid[:5]
        for i in range(100_000):
            if i % 2:
                # a valid datagram with 1-3 bytes flipped, sometimes cut or extended
                data = bytearray(valid)
                for pos in rng.integers(len(data), size=int(rng.integers(1, 4))):
                    data[pos] ^= int(rng.integers(1, 256))
                if i % 7 == 1:
                    data = data[: int(rng.integers(len(data)))]
                elif i % 7 == 3:
                    data += bytes(int(rng.integers(1, 9)))
            else:
                # noise, half of it behind a valid magic and version
                data = rng.integers(0, 256, size=int(rng.integers(0, 260)), dtype=np.uint8).tobytes()
                if i % 4 == 0:
                    data = prefix + data
            try:
                decode_command_datagram(bytes(data))
            except codec_errors:
                pass


def reference_record(seq, source_seq, source_ts, emission_ts, angle_bits, hold, prefix=b""):
    """README's command layout, field by field, with each angle given as its u64 bit pattern:
    seq u32, source seq u32, source timestamp u64, emission timestamp u64, joint count u8,
    angles float64, hold flag u8, then CRC-32 over every preceding byte, ``prefix`` included."""
    body = prefix + struct.pack("<IIQQB", seq % 2**32, source_seq % 2**32, source_ts, emission_ts, len(angle_bits))
    body += b"".join(struct.pack("<Q", bits) for bits in angle_bits) + bytes([1 if hold else 0])
    return body + struct.pack("<I", zlib.crc32(body))


# quiet NaNs with payloads of both signs, both infinities, both zeros, a subnormal and the largest float
EDGE_BITS = [
    0x7FF8_0000_0000_1234, 0xFFF8_0000_00AB_CDEF, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x8000_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0001, 0x7FEF_FFFF_FFFF_FFFF,
    0x3FF8_0000_0000_0000, 0xC002_0000_0000_0000,
]


class TestCommandEncodersAgainstTheWireFormat:
    """Both encoders, byte for byte, against README's layout built in the test with ``struct`` and ``zlib``."""

    CASES = [  # seq, source seq, source timestamp, emission timestamp, angle bits, hold
        (7, 9, 123_456, 130_000, EDGE_BITS, False),
        (7, 9, 123_456, 130_000, EDGE_BITS, True),
        (2**32 + 5, 2**40 + 3, 2**64 - 1, 2**63, EDGE_BITS[::-1], True),  # seqs past u32 are masked
        (0, 0, 0, 0, [], False),
        (1, 2, 3, 4, [0x3FB9_9999_9999_999A + k for k in range(255)], False),  # the largest joint count
    ]

    @staticmethod
    def as_tuple(angle_bits):
        return tuple(struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in angle_bits)

    @staticmethod
    def as_trace_row(angle_bits):
        # a row of a float64 block, as read_trace and decode_command_datagram return
        block = np.frombuffer(struct.pack(f"<{2 * len(angle_bits)}Q", *angle_bits, *angle_bits), "<f8")
        return block.reshape(2, len(angle_bits)).astype(float)[1]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("form", ["tuple", "trace-row"])
    def test_bytes_match_the_readme_layout(self, case, form):
        seq, source_seq, source_ts, emission_ts, bits, hold = self.CASES[case]
        angles = self.as_tuple(bits) if form == "tuple" else self.as_trace_row(bits)
        cmd = JointCommand(seq, source_seq, source_ts, emission_ts, angles, (False,) * len(bits), hold)
        record = reference_record(seq, source_seq, source_ts, emission_ts, bits, hold)
        assert encode_command_record(cmd) == record
        datagram = reference_record(seq, source_seq, source_ts, emission_ts, bits, hold, prefix=b"CMD1\x01")
        assert encode_command_datagram(cmd) == datagram
        assert len(datagram) == len(record) + 5

    @pytest.mark.parametrize("form", ["tuple", "trace-row"])
    def test_256_joints_do_not_fit_the_u8_count(self, form):
        bits = [0] * 256
        angles = self.as_tuple(bits) if form == "tuple" else self.as_trace_row(bits)
        cmd = JointCommand(0, 0, 0, 0, angles, (False,) * 256)
        for encode in (encode_command_record, encode_command_datagram):
            with pytest.raises(struct.error, match="<= 255"):
                encode(cmd)


class TestTraceSink:
    def test_empty_trace_is_just_the_header(self, tmp_path):
        path = tmp_path / "empty.trc"
        sink = trace_sink(path)
        sink.close()
        assert path.read_bytes() == b"CMDTRC01"

    def test_file_length_is_header_plus_records(self, tmp_path):
        path = tmp_path / "n.trc"
        sink = trace_sink(path)
        for i in range(7):
            sink.emit(make_command(seq=i, n=23))
        sink.close()
        assert path.stat().st_size == 8 + 7 * 214

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.trc"
        sink = trace_sink(path)
        cmds = [make_command(seq=i, n=23, emission=1000 + i) for i in range(10)]
        for c in cmds:
            sink.emit(c)
        sink.close()
        loaded = read_trace(path)
        assert len(loaded) == 10
        for a, b in zip(loaded, cmds):
            assert a.seq == b.seq
            assert a.emission_timestamp_us == b.emission_timestamp_us
            assert np.array_equal(a.angles, b.angles)
            assert a.hold == b.hold

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_bytes(b"CMDTRC02" + encode_command_record(make_command(n=23)))
        with pytest.raises(BadMagic):
            read_trace(path)

    def test_truncated_tail_raises(self, tmp_path):
        # unlike a recording, whose truncated final frame is dropped
        path = tmp_path / "cut.trc"
        record = encode_command_record(make_command(n=23))
        path.write_bytes(b"CMDTRC01" + record + record[:-1])
        with pytest.raises(TruncatedFrame):
            read_trace(path)


def decode_trace_records(data):
    """Independent trace decoder: one record at a time with ``struct`` and ``zlib.crc32``.

    Returns ``(seq, source seq, source ts, emission ts, angle bytes, hold)``
    per record; raises ValueError naming the first record whose CRC fails.
    """
    assert data[:8] == b"CMDTRC01"
    records, offset = [], 8
    while offset < len(data):
        *fields, count = struct.unpack_from("<IIQQB", data, offset)
        end = offset + 25 + 8 * count + 1
        (crc,) = struct.unpack_from("<I", data, end)
        if crc != zlib.crc32(data[offset:end]):
            raise ValueError(f"record {len(records)} fails its CRC")
        angles = struct.unpack_from(f"<{count}d", data, offset + 25)
        records.append((*fields, angles, data[end - 1] != 0))
        offset = end + 4
    return records


class TestWholeTraceDecode:
    """``read_trace`` converts runs of records at once; ``decode_trace_records`` is its oracle."""

    def records(self, counts, seed=41):
        rng = np.random.default_rng(seed)
        records = []
        for i, n in enumerate(counts):
            cmd = make_command(seq=i, n=n, hold=bool(rng.integers(0, 2)), emission=int(rng.integers(0, 2**40)))
            cmd.angles = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
            cmd.angles[rng.random(n) < 0.1] = -0.0
            records.append(encode_command_record(cmd))
        return records

    def test_equals_record_by_record_decode(self, tmp_path):
        path = tmp_path / "mixed.trc"
        data = b"CMDTRC01" + b"".join(self.records([23] * 30 + [5] * 4 + [0] + [23] * 10 + [1]))
        path.write_bytes(data)
        loaded, expected = read_trace(path), decode_trace_records(data)
        assert len(loaded) == len(expected) == 46
        for a, (seq, source_seq, source_ts, emission_ts, angles, hold) in zip(loaded, expected):
            assert (a.seq, a.source_seq, a.source_timestamp_us, a.emission_timestamp_us, a.hold) == (
                seq, source_seq, source_ts, emission_ts, hold
            )
            assert a.angles.dtype == np.float64 and a.angles.tobytes() == np.array(angles).tobytes()
            assert a.clamped == (False,) * len(a.angles)

    def test_bad_crc_in_a_middle_record_raises(self, tmp_path):
        records = self.records([23] * 5 + [7] * 5)
        records[6] = records[6][:-1] + bytes([records[6][-1] ^ 0x01])
        data = b"CMDTRC01" + b"".join(records)
        with pytest.raises(ValueError, match="record 6 "):
            decode_trace_records(data)
        path = tmp_path / "crc.trc"
        path.write_bytes(data)
        with pytest.raises(CrcMismatch, match="command record"):
            read_trace(path)
        path.write_bytes(b"CMDTRC01" + b"".join(records[:6]))  # the records before it are sound
        assert len(read_trace(path)) == 6


def frames_at_rate(n, rate_hz, pattern="arm-wave", noise=0.0, seed=0):
    return list(synth_motion(pattern, rate=rate_hz, duration=n / rate_hz, noise_std=noise, seed=seed))


class TestRunLoop:
    def test_matched_rates_one_command_per_frame(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(200, 100)
        metrics = run_loop(
            schedule(frames), pipeline, NullSink(), rate_hz=100, clock=VirtualClock()
        )
        assert metrics.cycles == 200
        assert metrics.commands == 200
        assert metrics.frames_consumed == 200
        assert metrics.frames_overwritten == 0
        assert metrics.holds == 0

    def test_double_rate_source_overwrites_half(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(399, 200)  # 200 Hz source into a 100 Hz loop
        capture = _CaptureSink()
        metrics = run_loop(
            schedule(frames), pipeline, capture, rate_hz=100, clock=VirtualClock()
        )
        assert metrics.frames_written == 399
        assert abs(metrics.frames_overwritten - metrics.frames_consumed) <= 1
        # every consumed frame is the newest at its cycle: the 2nd of each pair
        seqs = [c.source_seq for c in capture.commands if not c.hold]
        assert seqs == sorted(seqs)
        assert all(s % 2 == 0 for s in seqs)

    def test_silent_source_emits_holds(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(1, 100)
        capture = _CaptureSink()
        metrics = run_loop(
            schedule(frames),
            pipeline,
            capture,
            rate_hz=100,
            max_cycles=11,
            clock=VirtualClock(),
        )
        assert metrics.cycles == 11
        assert metrics.holds == 10
        holds = [c for c in capture.commands if c.hold]
        assert len(holds) == 10
        first_real = capture.commands[0]
        for h in holds:
            assert np.array_equal(h.angles, first_real.angles)
            assert h.source_seq == first_real.source_seq

    def test_hold_before_first_frame_uses_defaults(self):
        pipeline = sample_pipeline()
        frame = identity_frame(23, seq=0, timestamp_us=50_000)

        class FirstFrameLate:  # one frame, due 50 ms after the start, then the source ends
            def start(self, slot, clock):
                def poll():
                    if clock.now_us() >= 50_000 and not slot.ended:
                        slot.write(frame, 50_000)
                        slot.ended = True

                slot.poll = poll

            def stop(self):
                pass

        capture = _CaptureSink()
        metrics = run_loop(FirstFrameLate(), pipeline, capture, rate_hz=100, clock=VirtualClock())
        assert capture.commands[0].hold
        assert np.array_equal(capture.commands[0].angles, pipeline.model.default_angles)
        assert [c.hold for c in capture.commands] == [True] * 5 + [False]
        assert metrics.cycles == 6  # the source ended and its frame went: the loop stops

    def test_a_hold_shares_the_read_only_arrays_of_the_last_fresh_command(self):
        pipeline = sample_pipeline()
        capture = _CaptureSink()
        run_loop(schedule(frames_at_rate(4, 100)), pipeline, capture, rate_hz=500, max_cycles=25, clock=VirtualClock())
        fresh = [c for c in capture.commands if not c.hold]
        holds = [c for c in capture.commands if c.hold]
        assert len(fresh) == 4 and len(holds) == 21
        last = None
        for cmd in capture.commands:
            last = last if cmd.hold else cmd
            assert type(cmd.angles) is tuple and type(cmd.clamped) is tuple
            if cmd.hold:
                assert cmd.angles is last.angles
                assert cmd.clamped is holds[0].clamped and not any(cmd.clamped)
        with pytest.raises(TypeError, match="does not support item assignment"):
            fresh[0].angles[0] = 1.0
        with pytest.raises(TypeError, match="does not support item assignment"):
            holds[0].clamped[0] = True

    def test_scheduled_frames_are_read_one_past_the_newest_due(self):
        frames = frames_at_rate(50, 100)
        read = []

        def counted():
            for frame in frames:
                read.append(frame.seq)
                yield frame

        class CheckReads(_CaptureSink):
            def emit(self, cmd):
                newest_due = cmd.emission_timestamp_us // 10_000  # frame k is due at k * 10 ms
                assert len(read) <= newest_due + 2
                super().emit(cmd)

        sink = CheckReads()
        run_loop(schedule(counted()), sample_pipeline(), sink, rate_hz=500, clock=VirtualClock())
        assert len(read) == 50 and len(sink.commands) == 246

    def test_sink_sees_strictly_increasing_order(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(100, 100)
        capture = _CaptureSink()
        run_loop(schedule(frames), pipeline, capture, rate_hz=500, clock=VirtualClock())
        emissions = [c.emission_timestamp_us for c in capture.commands]
        seqs = [c.seq for c in capture.commands]
        assert all(b > a for a, b in zip(emissions, emissions[1:]))
        assert seqs == list(range(len(seqs)))

    def test_source_end_terminates(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(10, 100)
        metrics = run_loop(
            schedule(frames), pipeline, NullSink(), rate_hz=100, clock=VirtualClock()
        )
        assert metrics.cycles == 10

    def test_duration_budget(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(1000, 100)
        metrics = run_loop(
            schedule(frames),
            pipeline,
            NullSink(),
            rate_hz=100,
            duration_s=0.5,
            clock=VirtualClock(),
        )
        assert metrics.cycles == 50

    def test_virtual_clock_runs_are_byte_identical(self, tmp_path):
        outs = []
        for run in range(2):
            pipeline = sample_pipeline()
            frames = frames_at_rate(300, 100, noise=0.01, seed=11)
            path = tmp_path / f"run{run}.trc"
            sink = trace_sink(path)
            run_loop(schedule(frames), pipeline, sink, rate_hz=500, clock=VirtualClock())
            sink.close()
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) > 8

    def test_backpressure_aborts_with_metrics(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(200, 100)

        class SlowSink:
            def emit(self, cmd):
                time.sleep(0.002)

            def close(self):
                pass

        with pytest.raises(SinkBackpressure) as exc:
            run_loop(
                schedule(frames),
                pipeline,
                SlowSink(),
                rate_hz=1000,
                clock=WallClock(),
            )
        metrics = exc.value.metrics
        assert metrics.cycles == 8
        assert metrics.frames_written == metrics.frames_consumed + metrics.frames_overwritten

    def test_validator_sink_matches_offline_validation(self):
        from teleokin.validate import validate_trace

        pipeline = sample_pipeline()
        frames = frames_at_rate(200, 100, pattern="walk-cycle", noise=0.01, seed=3)
        capture = _CaptureSink()
        vsink = validator_sink(pipeline.model, period_us=2000)
        run_loop(
            schedule(frames),
            pipeline,
            MultiSink([capture, vsink]),
            rate_hz=500,
            clock=VirtualClock(),
        )
        online = vsink.report()
        offline = validate_trace(pipeline.model, capture.commands, period_us=2000)
        assert online.passed == offline.passed
        assert online.counts == offline.counts
        assert online.cycles == offline.cycles

    def test_fresh_commands_do_not_depend_on_loop_rate(self):
        frames = frames_at_rate(100, 100, pattern="walk-cycle", noise=0.01, seed=5)
        fresh = {}
        for rate in (100, 500, 1000):
            capture = _CaptureSink()
            run_loop(schedule(frames), sample_pipeline(), capture, rate_hz=rate, clock=VirtualClock())
            fresh[rate] = np.array([c.angles for c in capture.commands if not c.hold])
        assert len(fresh[100]) == 100
        assert np.array_equal(fresh[100], fresh[500])
        assert np.array_equal(fresh[100], fresh[1000])

    def test_step_from_slow_source_honours_tau(self):
        tau = 0.020
        poses = frames_at_rate(40, 100)
        steps = [poses[0]] + [
            MocapFrame(seq=k, timestamp_us=k * 10_000, orientations=poses[30].orientations)
            for k in range(1, 30)
        ]
        raw0, raw1 = (np.asarray(sample_pipeline(tau=0.0).step(f, 0.01, VirtualClock())[0].angles)
                      for f in (poses[0], poses[30]))
        capture = _CaptureSink()
        run_loop(schedule(steps), sample_pipeline(tau), capture, rate_hz=500, clock=VirtualClock())
        fresh = [c for c in capture.commands if not c.hold]
        assert len(fresh) == len(steps)
        assert not any(any(c.clamped) for c in fresh)
        assert np.abs(raw1 - raw0).max() > 0.1
        for k, cmd in enumerate(fresh):
            expected = raw0 + (raw1 - raw0) * (1.0 - math.exp(-k * 0.010 / tau))
            assert np.abs(cmd.angles - expected).max() < 1e-12

    def test_dead_live_source_stops_the_loop(self, monkeypatch):
        def broken_decode(data):
            raise RuntimeError("bug in the decoder")

        class SendOnStart:  # forwards only start/stop, like a wrapping harness
            def __init__(self):
                self.inner = DatagramSource(port=0)

            def start(self, slot, clock):
                self.inner.start(slot, clock)
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                    out.sendto(encode_frame(identity_frame(23)), ("127.0.0.1", self.inner.port))

            def stop(self):
                self.inner.stop()

        monkeypatch.setattr(stream, "decode_frame", broken_decode)
        source = SendOnStart()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="bug in the decoder"):
            run_loop(source, sample_pipeline(), NullSink(), rate_hz=500,
                     duration_s=10.0, clock=WallClock())
        assert time.monotonic() - started < 5.0
        assert source.inner.decode_errors == {}

    def test_frame_age_counts_the_wait_in_the_socket(self):
        # The frame is sent during cycle 1's emit, after that cycle polled.
        # This clock never wakes on the socket, so the datagram waits there
        # until tick 2 polls it, 20 ms later; the age counts from the
        # kernel's receive stamp.  Cycle 1, not 0: the kernel may switch
        # receive stamps on a little after the socket asks for them, and
        # stamps at recvmsg until then.
        class Deaf(WallClock):
            def sleep_until(self, deadline_us, readable=None):
                return super().sleep_until(deadline_us)

        clock = Deaf()
        source = DatagramSource(port=0)
        sink = _SendOnEmit(source, clock, {2: [identity_frame(23)]})
        metrics = run_loop(source, sample_pipeline(), sink, rate_hz=50, max_cycles=4, clock=clock)
        fresh = [c for c in sink.commands if not c.hold]
        assert len(fresh) == 1 and len(metrics.frame_age_us) == 1
        assert fresh[0].seq == 2 and metrics.early_commands == 0
        waited = fresh[0].emission_timestamp_us - sink.sent_us[0]
        assert waited >= 10_000
        # the arrival is the kernel's receive stamp just after the send, not the poll
        assert waited - 2_000 <= metrics.frame_age_us.maximum() <= waited + 50

    def test_frame_sent_early_is_mapped_before_its_tick(self):
        # Sent during cycle 1's emit, the frame reaches the socket ~20 ms
        # before tick 2: the wait wakes, maps, smooths and clamps it, and
        # sends the command at once as cycle 2's.  Tick 2 sends nothing.
        clock = WallClock()
        source = DatagramSource(port=0)
        frame = frames_at_rate(40, 100)[25]
        pipeline = sample_pipeline()
        steps = _recorded_steps(pipeline)
        sink = _SendOnEmit(source, clock, {2: [frame]})
        metrics = run_loop(source, pipeline, sink, rate_hz=50, max_cycles=4, clock=clock)
        assert [c.seq for c in sink.commands] == [0, 1, 2, 3]
        (fresh,) = [c for c in sink.commands if not c.hold]
        assert fresh.seq == 2 and metrics.early_commands == 1
        # tick 2 is ~20 ms after the send; the command went well before it
        assert fresh.emission_timestamp_us - sink.sent_us[0] < 5_000
        ((decoded, dt),) = steps
        assert decoded.seq == frame.seq and dt == 0.020
        reference, _ = sample_pipeline().step(decoded, 0.020, VirtualClock())
        assert np.asarray(fresh.angles).tobytes() == np.asarray(reference.angles).tobytes()
        assert np.array_equal(fresh.clamped, reference.clamped)

    def test_overwritten_frame_does_not_lend_its_map(self):
        # Frames A and B land after tick 2's wait, as if in the spin window:
        # the tick drains both, B replaces A, and B's command goes out at
        # the tick, made from B alone.
        source = DatagramSource(port=0)
        frames = frames_at_rate(40, 100)
        frame_a, frame_b = frames[10], frames[30]
        pipeline = sample_pipeline()
        steps = _recorded_steps(pipeline)

        class LateArrivals(WallClock):
            waits = 0

            def sleep_until(self, deadline_us, readable=None):
                woke = super().sleep_until(deadline_us, readable)
                self.waits += 1
                if self.waits == 3:
                    _send(source, frame_a, frame_b)
                    assert select.select([readable], [], [], 5.0)[0]  # queued, not yet read
                return woke

        sink = _CaptureSink()
        metrics = run_loop(source, pipeline, sink, rate_hz=50, max_cycles=4, clock=LateArrivals())
        (fresh,) = [c for c in sink.commands if not c.hold]
        assert fresh.seq == 2 and fresh.source_seq == frame_b.seq
        assert metrics.frames_overwritten == 1 and metrics.early_commands == 0
        assert [f.seq for f, _ in steps] == [frame_b.seq]
        reference, _ = sample_pipeline().step(steps[0][0], 0.020, VirtualClock())
        assert np.asarray(fresh.angles).tobytes() == np.asarray(reference.angles).tobytes()
        lent, _ = sample_pipeline().step(frame_a, 0.020, VirtualClock())
        assert not np.array_equal(fresh.angles, lent.angles)  # A's map would show

    def test_two_frames_queued_before_one_drain_give_one_map(self):
        # Both datagrams are in the socket before window 2's wait drains
        # it: the newer frame replaces the older one in the slot, and only
        # the newer one is mapped, once, and sent at once as cycle 2's.
        source = DatagramSource(port=0)
        frames = frames_at_rate(40, 100)
        older, newer = frames[10], frames[30]
        pipeline = sample_pipeline()
        steps = _recorded_steps(pipeline)
        clock = WallClock()
        sink = _SendOnEmit(source, clock, {2: [older, newer]})
        metrics = run_loop(source, pipeline, sink, rate_hz=50, max_cycles=4, clock=clock)
        assert [c.seq for c in sink.commands] == [0, 1, 2, 3]
        (fresh,) = [c for c in sink.commands if not c.hold]
        assert [(f.seq, dt) for f, dt in steps] == [(newer.seq, 0.020)]
        assert metrics.frames_overwritten == 1 and metrics.early_commands == 1
        assert fresh.seq == 2 and fresh.source_seq == newer.seq
        reference, _ = sample_pipeline().step(steps[0][0], 0.020, VirtualClock())
        assert np.asarray(fresh.angles).tobytes() == np.asarray(reference.angles).tobytes()

    def test_frames_after_a_windows_command_go_in_the_next_window(self):
        # Two frames land back to back right after window 2's early command.
        # Window 2 has sent its command, so they wait in the slot (the newer
        # replaces the older), tick 2 sends nothing, and the newer frame
        # goes as soon as window 3 opens, with dt of one whole period.
        source = DatagramSource(port=0)
        frames = frames_at_rate(40, 100)
        pipeline = sample_pipeline()
        steps = _recorded_steps(pipeline)
        clock = WallClock()
        sink = _SendOnEmit(source, clock, {2: [frames[5]], 3: [frames[10], frames[30]]})
        metrics = run_loop(source, pipeline, sink, rate_hz=50, max_cycles=5, clock=clock)
        assert [c.seq for c in sink.commands] == [0, 1, 2, 3, 4]
        fresh = [c for c in sink.commands if not c.hold]
        assert [(c.seq, c.source_seq) for c in fresh] == [(2, frames[5].seq), (3, frames[30].seq)]
        assert [dt for _, dt in steps] == [0.020, 0.020]
        assert metrics.early_commands == 2 and metrics.frames_overwritten == 1
        # window 3 opens at tick 2, ~20 ms after the send; tick 3 is ~40 ms after it
        assert fresh[1].emission_timestamp_us - sink.sent_us[1] < 30_000

    def test_an_older_frame_in_a_later_window_is_not_stepped(self):
        # Frame k + 1 goes as window 2's command; frame k lands in window 3,
        # late.  The drain drops it, so windows 3 and 4 hold instead of
        # stepping the robot back.
        source = DatagramSource(port=0)
        frames = frames_at_rate(40, 100)
        clock = WallClock()
        sink = _SendOnEmit(source, clock, {2: [frames[30]], 3: [frames[29]]})
        run_loop(source, sample_pipeline(), sink, rate_hz=50, max_cycles=5, clock=clock)
        fresh = [c for c in sink.commands if not c.hold]
        assert [(c.seq, c.source_seq) for c in fresh] == [(2, frames[30].seq)]
        assert (source.stats.received, source.stats.out_of_order) == (2, 1)

    def test_a_restarted_sender_is_stepped_from_its_second_frame(self):
        # Window 2 takes frames 0..149 but 10 and 11; in window 3, 10 and 11
        # land late, 139 numbers behind: not stepped.  In window 4 the
        # sender restarts its count at 0: 0 and 1 were both seen 100 or more
        # numbers behind the newest, so 1 confirms the restart and is
        # stepped; the loop goes back to it, as the sender did.
        source = DatagramSource(port=0)
        frames = frames_at_rate(150, 100)
        clock = WallClock()
        sent = {2: [f for f in frames if f.seq not in (10, 11)], 3: frames[10:12], 4: frames[:2]}
        sink = _SendOnEmit(source, clock, sent)
        run_loop(source, sample_pipeline(), sink, rate_hz=50, max_cycles=6, clock=clock)
        fresh = [c for c in sink.commands if not c.hold]
        assert [(c.seq, c.source_seq) for c in fresh] == [(2, 149), (4, 1)]
        stats = source.stats
        assert (stats.received, stats.restarts, stats.out_of_order, stats.duplicates) == (152, 1, 2, 0)

    def test_a_host_stall_keeps_one_command_per_cycle(self):
        # A sender streams 120 Hz frames while the host takes the CPU from
        # the loop for ~15 ms once; the sender stalls for ~30 ms once too,
        # then sends its overdue frames back to back.  However the loop
        # catches up, it must not raise, its commands and frame accounting
        # must stay whole, and every step's dt is whole periods.
        source = DatagramSource(port=0)
        stop = threading.Event()

        def send():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                start = time.monotonic()
                for k, frame in enumerate(frames_at_rate(120, 120)):
                    if k == 30 and stop.wait(0.030):
                        return
                    if stop.wait(max(0.0, start + k / 120 - time.monotonic())):
                        return
                    out.sendto(encode_frame(frame), ("127.0.0.1", source.port))

        class StallOnce(WallClock):
            waits = 0

            def sleep_until(self, deadline_us, readable=None):
                woke = super().sleep_until(deadline_us, readable)
                self.waits += 1
                if self.waits == 100:
                    time.sleep(0.015)
                return woke

        pipeline = sample_pipeline()
        steps = _recorded_steps(pipeline)
        sender = threading.Thread(target=send)
        sender.start()
        sink = _CaptureSink()
        try:
            metrics = run_loop(source, pipeline, sink, rate_hz=500, duration_s=0.5, clock=StallOnce())
        finally:
            stop.set()
            sender.join()
        assert metrics.commands == metrics.cycles == len(sink.commands) > 100
        assert [c.seq for c in sink.commands] == list(range(len(sink.commands)))
        assert metrics.frames_written == metrics.frames_consumed + metrics.frames_overwritten
        assert metrics.frames_consumed == len(steps) > 0
        assert all(dt >= 0.002 and dt * 500 == round(dt * 500) for _, dt in steps)

    def test_live_source_under_virtual_clock_never_waits_on_its_socket(self, monkeypatch):
        def no_select(*args):
            raise AssertionError("select called under the virtual clock")

        monkeypatch.setattr(clock_module, "select", SimpleNamespace(select=no_select))

        class SendOnStart:
            def __init__(self):
                self.inner = DatagramSource(port=0)

            def start(self, slot, clock):
                self.inner.start(slot, clock)
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                    out.sendto(encode_frame(frames_at_rate(2, 100)[1]), ("127.0.0.1", self.inner.port))

            def stop(self):
                self.inner.stop()

        sink = _CaptureSink()
        metrics = run_loop(SendOnStart(), sample_pipeline(), sink, rate_hz=500, max_cycles=50, clock=VirtualClock())
        assert metrics.cycles == 50 and metrics.frames_consumed == 1
        assert metrics.early_commands == 0
        assert [c.seq for c in sink.commands if not c.hold] == [0]

    def test_live_frame_of_another_segment_count_is_a_counted_drop(self):
        class SendOnStart:  # a 5-segment frame between two 23-segment ones
            def __init__(self):
                self.inner = DatagramSource(port=0)

            def start(self, slot, clock):
                self.inner.start(slot, clock)
                good = frames_at_rate(3, 100)
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                    for frame in (good[0], identity_frame(5, seq=1), good[2]):
                        out.sendto(encode_frame(frame), ("127.0.0.1", self.inner.port))

            def stop(self):
                self.inner.stop()

        source, sink = SendOnStart(), _CaptureSink()
        metrics = run_loop(source, sample_pipeline(), sink, rate_hz=500, max_cycles=50, clock=WallClock())
        counters = source.inner.counters()
        assert counters["stream_decode_errors"] == counters["stream_decode_errors_DimensionMismatch"] == 1
        assert counters["stream_received"] == metrics.frames_written == 2
        assert {c.source_seq for c in sink.commands if not c.hold} <= {0, 2}
        assert metrics.cycles == 50 and metrics.frames_consumed >= 1

    def test_metrics_dump_format(self):
        pipeline = sample_pipeline()
        frames = frames_at_rate(50, 100)
        metrics = run_loop(
            schedule(frames), pipeline, NullSink(), rate_hz=100, clock=VirtualClock()
        )
        dump = metrics.format()
        for key in (
            "cycles=",
            "commands=",
            "holds=",
            "frames_written=",
            "frames_consumed=",
            "frames_overwritten=",
            "clamped_joints=",
            "worst_excursion_rad=",
            "gimbal_warnings=",
            "compute_us_p50=",
            "compute_us_p99=",
            "fresh_compute_us_p50=",
            "fresh_compute_us_p99=",
            "fresh_compute_us_max=",
            "frame_age_us_max=",
            "jitter_us_p50=",
            "early_commands=",
            "headroom_ratio=",
        ):
            assert key in dump
        parsed = dict(line.split("=", 1) for line in dump.strip().splitlines())
        assert parsed["cycles"] == "50"
        # a virtual clock sends every command at its tick and times it at 0 us
        assert parsed["early_commands"] == "0"
        assert parsed["headroom_ratio"] == "0.00"
        timed = LoopMetrics(period_us=2000)
        timed.fresh_compute_us.record(250)
        assert "headroom_ratio=8.00\n" in timed.format()

    def test_metrics_memory_is_flat_in_run_length(self):
        def retained(cycles):
            """Bytes still held after a virtual-clock arm-wave run of ``cycles``, its metrics kept."""
            source = schedule(synth_motion("arm-wave", rate=100, duration=cycles / 500))
            pipeline = sample_pipeline()
            tracemalloc.start()
            try:
                metrics = run_loop(source, pipeline, NullSink(), rate_hz=500, max_cycles=cycles, clock=VirtualClock())
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert metrics.cycles == len(metrics.compute_us) == cycles
            return held

        retained(100)  # the first run sets up what any run shares
        short, long = retained(500), retained(5_000)
        assert long - short < 16_000

    def test_metrics_carry_retarget_diagnostics(self):
        pipeline = sample_pipeline(tau=0.0)
        skel = pipeline.skeleton
        frames = []
        # left knee = 0.8 * twist of the left shank about y; its soft interval
        # starts at -0.05, so twists of -0.5 and -1.0 are clamped by 0.35 and 0.75.
        for seq, (segment, axis, angle) in enumerate(
            [
                ("left_shank", [0, 1, 0], 0.0),
                ("left_shank", [0, 1, 0], -0.5),
                ("left_shank", [0, 1, 0], -1.0),
                ("left_thigh", [1, 0, 0], math.pi / 2),  # ZXY middle angle at the singularity
                ("left_shank", [0, 1, 0], 0.5),
            ]
        ):
            frame = identity_frame(len(skel), seq=seq, timestamp_us=seq * 10_000)
            frame.orientations[skel.index(segment)] = quat_from_axis_angle(axis, angle)
            frames.append(frame)
        metrics = run_loop(schedule(frames), pipeline, NullSink(), rate_hz=100, clock=VirtualClock())
        assert metrics.holds == 0
        assert metrics.clamped_joints == 2
        assert metrics.worst_excursion_rad == pytest.approx(0.75, abs=1e-12)
        assert metrics.gimbal_warnings == 1
        parsed = dict(line.split("=", 1) for line in metrics.format().strip().splitlines())
        assert parsed["clamped_joints"] == "2"
        assert float(parsed["worst_excursion_rad"]) == metrics.worst_excursion_rad
        assert parsed["gimbal_warnings"] == "1"
        assert len(metrics.fresh_compute_us) == len(frames)


class _CaptureSink:
    def __init__(self):
        self.commands = []

    def emit(self, cmd):
        self.commands.append(cmd)

    def close(self):
        pass


def _send(source, *frames):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
        for frame in frames:
            out.sendto(encode_frame(frame), ("127.0.0.1", source.port))


class _SendOnEmit(_CaptureSink):
    """Captures commands; after the n-th one it sends ``frames[n]`` to ``source``, back to back."""

    def __init__(self, source, clock, frames):
        super().__init__()
        self.source, self.clock, self.frames = source, clock, frames
        self.sent_us = []

    def emit(self, cmd):
        super().emit(cmd)
        if len(self.commands) in self.frames:
            self.sent_us.append(self.clock.now_us())
            _send(self.source, *self.frames[len(self.commands)])


def _recorded_steps(pipeline):
    """Wrap ``pipeline.step`` on the object, as a tracer does; the list of ``(frame, dt)`` it saw."""
    steps = []
    inner = pipeline.step

    def step(frame, dt, clock):
        steps.append((frame, dt))
        return inner(frame, dt, clock)

    pipeline.step = step
    return steps


class TestDatagramSink:
    def test_loopback_echo_is_byte_identical(self):
        recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv.bind(("127.0.0.1", 0))
        recv.settimeout(2.0)
        sink = datagram_sink(recv.getsockname())
        sent = []
        for i in range(5):
            cmd = make_command(seq=i, n=23)
            sink.emit(cmd)
            sent.append(encode_command_datagram(cmd))
        got = [recv.recv(65535) for _ in range(5)]
        sink.close()
        recv.close()
        assert got == sent
        for blob, cmd_bytes in zip(got, sent):
            decoded = decode_command_datagram(blob)
            assert encode_command_datagram(decoded)[:25] == cmd_bytes[:25]

    def test_failed_connect_closes_the_socket(self, monkeypatch):
        tried = []

        def unresolvable(sock, address):  # stands in for the resolver: no lookup leaves the machine
            tried.append(sock)
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket.socket, "connect", unresolvable)
        with pytest.raises(socket.gaierror):
            datagram_sink(("no.such.host.invalid", 9100))
        assert len(tried) == 1 and tried[0].fileno() == -1  # closed

    def test_unreachable_address_counts_errors_and_continues(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()
        probe.close()  # nothing listens here now
        sink = datagram_sink(addr)
        for i in range(20):
            sink.emit(make_command(seq=i, n=4))
            time.sleep(0.001)
        sink.close()
        assert sink.sent + sink.send_errors == 20
        assert sink.send_errors > 0


@pytest.mark.parametrize("acceleration_limit", [None, 200.0], ids=["acc-off", "acc-on"])
def test_the_per_command_path_builds_no_numpy_array(tmp_path, monkeypatch, acceleration_limit):
    # Fresh and hold cycles from the step through the trace, datagram and
    # streaming-validator sinks; only the setup before the loop may build arrays.
    pipeline = sample_pipeline()
    frames = frames_at_rate(6, 100)
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(2.0)
    thresholds = Thresholds(acceleration_limit=acceleration_limit)
    validator = validator_sink(pipeline.model, thresholds, period_us=2000)
    trace = trace_sink(tmp_path / "loop.trc")
    sink = MultiSink([trace, datagram_sink(receiver.getsockname()), validator])
    source = schedule(frames)

    def forbidden(*args, **kwargs):
        raise AssertionError("the per-command path called a numpy constructor")

    with monkeypatch.context() as patched:
        for name in ("frombuffer", "ascontiguousarray", "zeros", "array"):
            patched.setattr(np, name, forbidden)
        metrics = run_loop(source, pipeline, sink, rate_hz=500, max_cycles=40, clock=VirtualClock())
    sink.close()
    datagrams = [receiver.recv(65535) for _ in range(40)]
    receiver.close()
    assert metrics.holds and metrics.commands - metrics.holds == len(frames)
    commands = read_trace(trace.path)
    assert [encode_command_datagram(c) for c in commands] == datagrams
    offline = validate_trace(pipeline.model, commands, thresholds=thresholds, period_us=2000)
    assert validator.report().format() == offline.format()


def test_run_loop_rejects_a_rate_that_is_not_positive():
    with pytest.raises(ValueError, match="rate_hz must be positive"):
        run_loop(schedule([identity_frame(23)]), sample_pipeline(), NullSink(), rate_hz=0, clock=VirtualClock())


def test_multi_sink_closes_every_sink(tmp_path):
    traces = [trace_sink(tmp_path / name) for name in ("a.trc", "b.trc")]
    MultiSink(traces).close()
    assert [read_trace(t.path) for t in traces] == [[], []]  # each file's magic was flushed by its close
