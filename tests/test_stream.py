"""Wire codec, stream accounting, recordings, scheduling, synthesis, UDP source."""

import hashlib
import math
import socket
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from teleokin import stream, wire
from teleokin.clock import VirtualClock, WallClock
from teleokin.errors import (
    BadMagic,
    CrcMismatch,
    DegenerateQuaternion,
    EmptyRecording,
    TeleokinError,
    TruncatedFrame,
    UnsupportedVersion,
)
from teleokin.geometry import swing_twist
from teleokin.model import canonical_skeleton
from teleokin.runtime import LatestFrameSlot
from teleokin.stream import SYNTH_PATTERNS, DatagramSource, StreamStats, schedule, synth_motion
from teleokin.wire import (
    FRAME_MAGIC,
    MocapFrame,
    decode_frame,
    encode_frame,
    identity_frame,
    read_recording,
    write_recording,
)


def crc32_oracle(data: bytes) -> int:
    """Bitwise CRC-32 (IEEE 802.3, reflected), independent of zlib."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 * (crc & 1))
    return crc ^ 0xFFFFFFFF


def random_frame(rng, count=23):
    quats = rng.normal(size=(count, 4))
    quats /= np.linalg.norm(quats, axis=1)[:, None]
    flip = quats[:, 0] < 0
    quats[flip] *= -1
    return MocapFrame(
        seq=int(rng.integers(0, 2**32)),
        timestamp_us=int(rng.integers(0, 2**48)),
        orientations=quats,
    )


class TestCodec:
    def test_identity_frame_header_bytes(self):
        encoded = encode_frame(identity_frame(23))
        assert encoded[:19] == bytes.fromhex("4d4f4331 0100 00000000 0000000000000000 17".replace(" ", ""))

    def test_23_segments_is_391_bytes(self):
        assert len(encode_frame(identity_frame(23))) == 391

    def test_crc_matches_bitwise_oracle(self):
        encoded = encode_frame(identity_frame(23, seq=7, timestamp_us=123456))
        assert int.from_bytes(encoded[-4:], "little") == crc32_oracle(encoded[:-4])

    def test_round_trip_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            frame = random_frame(rng, count=int(rng.integers(1, 30)))
            out = decode_frame(encode_frame(frame))
            assert out.seq == frame.seq
            assert out.timestamp_us == frame.timestamp_us
            # float32 quantization, then re-normalization
            assert np.allclose(out.orientations, frame.orientations, atol=2e-7)
            norms = np.linalg.norm(out.orientations, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-9

    def test_injective_on_distinct_frames(self):
        rng = np.random.default_rng(1)
        seen = {encode_frame(random_frame(rng)) for _ in range(2000)}
        assert len(seen) == 2000

    def test_truncated_input(self):
        with pytest.raises(TruncatedFrame):
            decode_frame(b"\x00" * 10)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TruncatedFrame):
            decode_frame(encode_frame(identity_frame(23)) + b"\x00")

    def test_bad_magic(self):
        data = bytearray(encode_frame(identity_frame(23)))
        data[0] ^= 0xFF
        with pytest.raises(BadMagic):
            decode_frame(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_frame(identity_frame(23)))
        data[4] = 9
        with pytest.raises(UnsupportedVersion):
            decode_frame(bytes(data))

    def test_crc_mismatch_on_flipped_last_byte(self):
        data = bytearray(encode_frame(identity_frame(23)))
        data[-1] ^= 0x01
        with pytest.raises(CrcMismatch):
            decode_frame(bytes(data))

    def test_degenerate_segment(self):
        # build the bytes directly: a well-formed frame whose segment 1 is
        # (w, 0, 0, 0), a zero or non-finite quaternion
        for w in (0.0, math.nan, math.inf):
            frame = identity_frame(3)
            frame.orientations[1, 0] = w
            quats = np.ascontiguousarray(frame.orientations, dtype="<f4")
            header = struct.pack("<4sBBIQB", FRAME_MAGIC, 1, 0, 0, 0, 3)
            payload = header + quats.tobytes()
            data = payload + struct.pack("<I", zlib.crc32(payload))
            with pytest.raises(DegenerateQuaternion, match="segment 1"):
                decode_frame(data)

    def test_decoder_never_crashes_on_noise(self):
        rng = np.random.default_rng(2)
        valid = encode_frame(identity_frame(23))
        for _ in range(20_000):
            n = int(rng.integers(0, 64))
            blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            try:
                decode_frame(blob)
            except Exception as exc:
                assert isinstance(
                    exc,
                    (BadMagic, UnsupportedVersion, TruncatedFrame, CrcMismatch, DegenerateQuaternion),
                )
        # structured corruption of a valid frame
        for _ in range(5000):
            data = bytearray(valid)
            pos = int(rng.integers(len(data)))
            data[pos] ^= int(rng.integers(1, 256))
            try:
                decode_frame(bytes(data))
            except Exception as exc:
                assert isinstance(
                    exc,
                    (BadMagic, UnsupportedVersion, TruncatedFrame, CrcMismatch, DegenerateQuaternion),
                )


class TestStreamStats:
    def test_clean_sequence(self):
        stats = StreamStats()
        for seq in range(10):
            stats.observe(seq)
        assert stats.received == 10
        assert stats.dropped == 0
        assert stats.duplicates == 0
        assert stats.out_of_order == 0

    def test_gap_counts_as_drops(self):
        stats = StreamStats()
        for seq in (0, 1, 5, 6):
            stats.observe(seq)
        assert stats.dropped == 3  # 2, 3, 4

    def test_duplicates_and_reordering(self):
        stats = StreamStats()
        for seq in (0, 2, 2, 1, 3):
            stats.observe(seq)
        assert stats.duplicates == 1
        assert stats.out_of_order == 1  # the late 1
        assert stats.dropped == 0

    def test_accounting_invariant_under_scripted_interleavings(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            stats = StreamStats()
            seqs = rng.integers(0, 40, size=rng.integers(1, 80))
            for seq in seqs:
                stats.observe(int(seq))
            assert stats.received + stats.dropped >= stats.span

    def test_matches_unbounded_accounting_inside_the_window(self):
        # Reference: every number seen in the current span kept in a set (the
        # accounting before the window), with the restart rule applied to it:
        # two consecutive numbers repeated MAX_MISORDER or more behind the
        # newest open a new span.
        rng = np.random.default_rng(4)
        total_restarts = 0
        for _ in range(50):
            base = int(rng.integers(0, 1 << 32))
            offsets = np.arange(3000)[rng.random(3000) > 0.1]  # drops
            offsets = np.concatenate([offsets, offsets[rng.random(len(offsets)) < 0.05]])  # duplicates
            # each arrives at most 300 numbers behind the newest before it
            offsets = offsets[np.argsort(offsets + rng.uniform(0, 300, len(offsets)))]
            stats = StreamStats()
            seen, dup, ooo, newest = set(), 0, 0, None
            restarts, earlier_drops, candidate = 0, 0, None
            for off in offsets.tolist():
                stats.observe((base + off) % (1 << 32))
                previous, candidate = candidate, None
                if off in seen and newest - off >= StreamStats.MAX_MISORDER:
                    if previous == off - 1:  # a restart: the previous frame opens the new span
                        dup -= 1
                        restarts += 1
                        earlier_drops += max(seen) - min(seen) + 1 - len(seen)
                        seen, newest = {off - 1, off}, off
                        continue
                    candidate = off
                if off in seen:
                    dup += 1
                    continue
                ooo += newest is not None and off < newest
                seen.add(off)
                newest = off if newest is None else max(newest, off)
            assert (stats.received, stats.duplicates, stats.out_of_order) == (len(offsets), dup, ooo)
            assert stats.restarts == restarts
            assert stats.span == max(seen) - min(seen) + 1
            assert stats.dropped == earlier_drops + stats.span - len(seen)
            assert stats.received + stats.dropped >= stats.span
            total_restarts += restarts
        assert total_restarts > 0  # the draw reaches the restart rule

    def test_wraparound_is_not_a_drop(self):
        stats = StreamStats()
        for seq in (0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF, 0, 1, 3, 2):
            stats.observe(seq)
        assert (stats.span, stats.dropped) == (7, 0)
        assert (stats.duplicates, stats.out_of_order) == (0, 1)  # the late 2
        stats.observe(0xFFFFFFFF)  # a repeat from before the wrap
        stats.observe(0xFFFFFFFC)  # a late frame from before the first
        assert (stats.duplicates, stats.out_of_order) == (1, 2)
        assert (stats.span, stats.dropped) == (8, 0)

    def test_long_silence_then_a_far_jump(self):
        # The sender kept counting through an hour without frames (120 Hz).
        stats = StreamStats()
        for seq in range(100):
            stats.observe(seq)
        gap = 3600 * 120
        for seq in range(100 + gap, 200 + gap):
            stats.observe(seq & 0xFFFFFFFF)
        assert stats.dropped == gap
        stats.observe(99)  # a straggler from before the silence: too late to place
        assert (stats.duplicates, stats.out_of_order, stats.dropped) == (0, 1, gap)
        assert stats.received + stats.dropped >= stats.span

    def test_sender_restart_resynchronises(self):
        stats = StreamStats()
        for seq in range(5000):
            stats.observe(seq)
        for seq in range(200):  # the sender restarted its count
            stats.observe(seq)
        assert (stats.restarts, stats.out_of_order, stats.duplicates, stats.dropped) == (1, 0, 0, 0)
        assert (stats.received, stats.span) == (5200, 200)

    def test_restart_keeps_the_old_span_drops(self):
        stats = StreamStats()
        for seq in (0, 1, 5, 6, 3000):  # 2..4 and 7..2999 missing
            stats.observe(seq)
        for seq in (10, 11, 13, 2000):  # restarted at 10; 12 and 14..1999 missing
            stats.observe(seq)
        assert (stats.restarts, stats.out_of_order) == (1, 0)
        assert stats.dropped == 3 + 2993 + 1 + 1986
        for seq in (100, 101):  # and again at 100
            stats.observe(seq)
        assert (stats.restarts, stats.out_of_order, stats.span) == (2, 0, 2)
        assert stats.dropped == 3 + 2993 + 1 + 1986

    def test_a_far_frame_not_followed_by_its_successor_is_no_restart(self):
        stats = StreamStats()
        for seq in range(3000):
            stats.observe(seq)
        for seq in (5, 3000, 7, 9):  # stragglers, never two in a row
            stats.observe(seq)
        assert (stats.restarts, stats.out_of_order, stats.dropped) == (0, 3, 0)
        stats.observe(10)  # 9 then 10: read as a restart at 9
        assert (stats.restarts, stats.out_of_order, stats.span) == (1, 2, 2)

    def test_a_restart_within_the_window_is_accepted_from_its_second_frame(self):
        stats = StreamStats()
        for seq in range(600):
            stats.observe(seq)
        newest = [stats.observe(seq) for seq in range(700)]  # the sender restarted its count
        assert newest == [False] + [True] * 699
        assert (stats.restarts, stats.duplicates, stats.out_of_order, stats.dropped) == (1, 0, 0, 0)
        assert (stats.received, stats.span) == (1300, 700)
        assert stats.received + stats.dropped >= stats.span

    def test_late_frames_far_behind_are_no_restart(self):
        stats = StreamStats()
        for seq in (*range(100), *range(110, 600)):  # 100..109 missing
            stats.observe(seq)
        # late frames that had not arrived, each after a repeat of the number before it
        assert [stats.observe(seq) for seq in (99, 100, 101, 499, 102)] == [False] * 5
        assert (stats.restarts, stats.out_of_order, stats.duplicates, stats.dropped) == (0, 3, 2, 7)
        assert stats.observe(600)

    def test_a_repeated_pair_far_behind_reads_as_a_restart(self):
        stats = StreamStats()
        for seq in (*range(100), *range(110, 600)):  # 100..109 missing
            stats.observe(seq)
        # 450 and 451 repeated: read as a sender restarted at 450
        assert [stats.observe(seq) for seq in (450, 451, 600)] == [False, True, True]
        assert (stats.restarts, stats.out_of_order, stats.duplicates) == (1, 0, 0)
        assert stats.span == 151 and stats.dropped == 10 + 148  # 452..599 count as the new span's drops
        assert stats.received + stats.dropped >= stats.span

    def test_observe_tells_whether_the_frame_is_the_newest(self):
        stats = StreamStats()
        newest = [stats.observe(seq) for seq in (5, 7, 6, 7, 8, 0xFFFFFFFF, 9)]
        assert newest == [True, True, False, False, True, False, True]
        restart = [stats.observe(seq) for seq in (5000, 0, 1, 2)]  # 0 and 1 confirm a restart at 0
        assert restart == [True, False, True, True] and stats.restarts == 1

    def test_memory_is_bounded(self):
        import tracemalloc

        stats = StreamStats()
        for seq in range(StreamStats.SEQ_WINDOW * 2):
            stats.observe(seq)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seq in range(StreamStats.SEQ_WINDOW * 2, 200_000, 2):
                stats.observe(seq)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 4096
        assert stats.dropped == (200_000 - StreamStats.SEQ_WINDOW * 2) // 2 - 1


class TestRecording:
    def test_round_trip(self, tmp_path):
        frames = list(synth_motion("arm-wave", rate=50, duration=0.5, noise_std=0.01, seed=9))
        path = tmp_path / "wave.rec"
        assert write_recording(path, frames) == 25
        loaded = read_recording(path)
        assert len(loaded) == 25
        for a, b in zip(loaded, frames):
            assert a.seq == b.seq and a.timestamp_us == b.timestamp_us
            assert np.allclose(a.orientations, b.orientations, atol=2e-7)

    def test_truncated_tail_dropped_with_warning(self, tmp_path, caplog):
        frames = list(synth_motion("static", rate=50, duration=0.2))
        path = tmp_path / "cut.rec"
        write_recording(path, frames)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with caplog.at_level("WARNING"):
            loaded = read_recording(path)
        assert len(loaded) == len(frames) - 1
        assert "truncated" in caplog.text

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rec"
        path.write_bytes(b"NOTAREC1")
        with pytest.raises(BadMagic):
            read_recording(path)


def wire_frame(rng, seq, count):
    """An encoded frame of raw wire quaternions: random scales from 1e-3 to 1e3,
    w == 0 sign ties down to one nonzero of x/y/z, and -0.0 components."""
    quats = rng.normal(size=(count, 4)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1))
    for row in range(count):
        kind = rng.integers(0, 5)
        if kind == 1:
            quats[row, 0] = 0.0
        elif kind == 2:
            quats[row, :3] = (-0.0, 0.0, -0.0)
        elif kind == 3:
            quats[row, rng.integers(0, 4)] = -0.0
    return encode_frame(MocapFrame(seq, int(rng.integers(0, 2**48)), quats))


def degenerate(encoded: bytes, segment: int = 0) -> bytes:
    """``encoded`` with one segment zeroed and the CRC recomputed."""
    body = bytearray(encoded[: -wire.CRC_SIZE])
    start = wire.HEADER_SIZE + 16 * segment
    body[start : start + 16] = bytes(16)
    return wire.append_crc(bytes(body))


def corrupt(encoded: bytes) -> bytes:
    """``encoded`` with its last CRC byte flipped."""
    return encoded[:-1] + bytes([encoded[-1] ^ 0xFF])


def same_bits(a: MocapFrame, b: MocapFrame) -> bool:
    return (
        a.seq == b.seq
        and a.timestamp_us == b.timestamp_us
        and a.orientations.shape == b.orientations.shape
        and a.orientations.dtype == b.orientations.dtype
        and a.orientations.tobytes() == b.orientations.tobytes()
    )


class TestWholeFileDecode:
    """``read_recording`` decodes runs of frames at once; ``decode_frame`` is its oracle."""

    def write(self, path, encoded):
        path.write_bytes(wire.RECORDING_MAGIC + b"".join(encoded))

    def test_equals_frame_by_frame_decode(self, tmp_path, caplog):
        rng = np.random.default_rng(31)
        counts = [23] * 40 + [5] * 7 + [23] * 3 + [1] + [0] * 2 + [23] * 20
        encoded = [wire_frame(rng, seq, count) for seq, count in enumerate(counts)]
        path = tmp_path / "mixed.rec"
        tail = encoded[0][:100]
        self.write(path, encoded + [tail])
        with caplog.at_level("WARNING"):
            loaded = read_recording(path)
        assert "dropping truncated final frame (100 of 391 bytes)" in caplog.text
        expected = [decode_frame(e) for e in encoded]
        assert len(loaded) == len(expected)
        assert all(same_bits(a, b) for a, b in zip(loaded, expected))
        assert any((e.orientations[:, 0] == 0).any() for e in expected)  # ties were exercised

    @pytest.mark.parametrize("tail, error", [
        (b"XXXX" + bytes(14) + bytes([200]) + bytes(20), BadMagic),  # would need 3223 bytes
        (b"XXXX" + bytes(14) + bytes([0]) + bytes(20), BadMagic),
        (b"MX", BadMagic),
        (b"MOC1" + bytes([7]) + bytes(34), UnsupportedVersion),
        (b"MOC1" + bytes([7]), UnsupportedVersion),
        (b"MOC", None),
        (b"MOC1" + bytes([1]), None),
    ])
    def test_a_short_tail_with_a_wrong_magic_or_version_raises(self, tmp_path, caplog, tail, error):
        rng = np.random.default_rng(32)
        path = tmp_path / "tail.rec"
        self.write(path, [wire_frame(rng, seq, 23) for seq in range(5)] + [tail])
        if error is not None:
            with pytest.raises(error):
                read_recording(path)
            return
        with caplog.at_level("WARNING"):
            assert len(read_recording(path)) == 5
        assert f"dropping truncated final frame ({len(tail)} trailing bytes)" in caplog.text

    def test_many_random_frames(self, tmp_path):
        rng = np.random.default_rng(32)
        encoded = [wire_frame(rng, seq, 23) for seq in range(1000)]
        path = tmp_path / "many.rec"
        self.write(path, encoded)
        loaded = read_recording(path)
        assert all(same_bits(a, decode_frame(e)) for a, e in zip(loaded, encoded))
        assert len(loaded) == len(encoded)

    def first_error(self, encoded):
        for e in encoded:
            try:
                decode_frame(e)
            except TeleokinError as exc:
                return exc
        raise AssertionError("no faulty frame")

    @pytest.mark.parametrize(
        "faults, error",
        [
            ({3: degenerate, 9: corrupt}, DegenerateQuaternion),
            ({3: corrupt, 9: degenerate}, CrcMismatch),
            ({12: lambda e: degenerate(e, 3), 13: lambda e: degenerate(e, 1)}, DegenerateQuaternion),
            ({200: lambda e: degenerate(e, 2), 290: corrupt}, DegenerateQuaternion),  # a later pass
        ],
    )
    def test_first_faulty_frame_raises(self, tmp_path, faults, error):
        rng = np.random.default_rng(33)
        encoded = [wire_frame(rng, seq, 23 if seq < 10 else 4) for seq in range(300)]
        for index, fault in faults.items():
            encoded[index] = fault(encoded[index])
        path = tmp_path / "faulty.rec"
        self.write(path, encoded)
        expected = self.first_error(encoded)
        assert type(expected) is error
        with pytest.raises(error) as raised:
            read_recording(path)
        assert str(raised.value) == str(expected)


def raw_frame(rows, seq=0) -> bytes:
    """An encoded frame of the float32 ``rows`` exactly as given: no normalisation, no sign fix."""
    quats = np.asarray(rows, dtype="<f4").reshape(-1, 4)
    header = struct.pack("<4sBBIQB", FRAME_MAGIC, 1, 0, seq, 0, len(quats))
    return wire.append_crc(header + quats.tobytes())


_F32 = np.finfo(np.float32)
_SUBNORMAL = float(_F32.smallest_subnormal)
_BELOW_CUT = float(np.float32(1e-6))  # 9.99999997e-07: the largest float32 below the cut
_ABOVE_CUT = float(np.nextafter(np.float32(1e-6), np.float32(1)))
_TO_CUT = np.float32(7.105993571343561e-11)  # (_BELOW_CUT, _TO_CUT, 0, 0) has norm 1e-6 exactly


class TestDecodeRule:
    """``decode_frame`` (plain floats) and ``read_recording`` (numpy passes) follow one rule.

    The edge cases are here; ``TestWholeFileDecode`` compares the two on
    random frames, where a sum of squares in another order rounds some rows
    differently.
    """

    def both(self, tmp_path, encoded):
        """``decode_frame``'s and ``read_recording``'s frame, or the error each raised."""
        path = tmp_path / "one.rec"
        path.write_bytes(wire.RECORDING_MAGIC + encoded)
        results = []
        for decode in (lambda: decode_frame(encoded), lambda: read_recording(path)[0]):
            try:
                results.append(decode())
            except TeleokinError as exc:
                results.append(exc)
        return results

    def assert_same_bits(self, tmp_path, rows):
        live, recorded = self.both(tmp_path, raw_frame(rows))
        assert same_bits(live, recorded)
        return live.orientations

    def test_sign_ties_at_every_level(self, tmp_path):
        # every nonzero sign pattern of w, x, y, z over -1, -0.0, +0.0, +1, each at two scales
        levels = (-1.0, -0.0, 0.0, 1.0)
        rows = [(w, x, y, z) for w in levels for x in levels for y in levels for z in levels if (w, x, y, z) != (0, 0, 0, 0)]
        assert len(rows) == 240
        for scale in (1.0, 3e-3):
            quats = self.assert_same_bits(tmp_path, [[scale * c for c in row] for row in rows])
            first = [next(c for c in q if c != 0) for q in quats]
            assert all(c > 0 for c in first)  # canonical: the first nonzero component is positive

    def test_norms_at_and_just_above_the_degenerate_cut(self, tmp_path):
        assert math.sqrt(_BELOW_CUT * _BELOW_CUT + float(_TO_CUT) ** 2) == 1e-6
        for a in (_ABOVE_CUT, -_ABOVE_CUT):
            quats = self.assert_same_bits(tmp_path, [[1, 0, 0, 0], [a, 0, 0, 0], [0, a, 0, 0], [0, 0, 0, a]])
            assert quats[1:].tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        above = float(np.nextafter(_TO_CUT, np.float32(1)))
        self.assert_same_bits(tmp_path, [[_BELOW_CUT, above, 0, 0], [0, -above, 0, _BELOW_CUT]])
        for row in ([_BELOW_CUT, 0, 0, 0], [0, 0, -_BELOW_CUT, 0], [_BELOW_CUT, _TO_CUT, 0, 0], [0, _TO_CUT, 0, -_BELOW_CUT]):
            live, recorded = self.both(tmp_path, raw_frame([[1, 0, 0, 0], row]))
            assert type(live) is type(recorded) is DegenerateQuaternion
            assert str(live) == str(recorded) == "segment 1 has norm 1.000e-06"
        # four equal components whose norm lands either side of the cut
        half = np.float32(5e-7)
        for a, kind in ((np.nextafter(half, np.float32(0)), DegenerateQuaternion), (half, DegenerateQuaternion),
                        (np.nextafter(half, np.float32(1)), MocapFrame)):
            live, recorded = self.both(tmp_path, raw_frame([[a, -a, a, -a]]))
            assert type(live) is type(recorded) is kind
            assert same_bits(live, recorded) if kind is MocapFrame else str(live) == str(recorded)

    def test_float32_max_and_subnormal_components(self, tmp_path):
        big, tiny = float(_F32.max), _SUBNORMAL
        quats = self.assert_same_bits(tmp_path, [
            [big, 0, 0, 0], [-big, big, -big, big], [0, -big, 0, 0], [big, tiny, -tiny, 0],
            [1, tiny, 0, 0], [-tiny, 1, 0, 0], [tiny, 0, 0, -1], [0, -tiny, 1, 0],
        ])
        assert np.all(np.isfinite(quats))
        live, recorded = self.both(tmp_path, raw_frame([[1, 0, 0, 0], [tiny, -tiny, tiny, tiny]]))
        assert str(live) == str(recorded) == "segment 1 has norm 2.803e-45"

    @pytest.mark.parametrize("bad, message", [
        (0.0, "segment 2 has norm 0.000e+00"),
        (math.nan, "segment 2 has norm nan"),
        (math.inf, "segment 2 has norm inf"),
        (-math.inf, "segment 2 has norm inf"),
    ])
    def test_a_degenerate_segment_raises_the_same_error_from_both(self, tmp_path, bad, message):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [bad, 0, 0, 0], [math.nan, 0, 0, 0]]  # the first bad segment is named
        live, recorded = self.both(tmp_path, raw_frame(rows))
        assert type(live) is type(recorded) is DegenerateQuaternion
        assert str(live) == str(recorded) == message

    @pytest.mark.parametrize("count", [0, 1, 23])
    def test_the_frame_owns_a_writeable_c_contiguous_float64_array(self, count):
        quats = decode_frame(encode_frame(identity_frame(count))).orientations
        assert (quats.shape, quats.dtype) == ((count, 4), np.float64)
        assert quats.flags.c_contiguous and quats.flags.writeable
        quats[:] = 0.5  # callers may write to it


class _LoggedSlot(LatestFrameSlot):
    """A slot that keeps ``(arrival_us, seq)`` of every frame written to it."""

    def __init__(self):
        super().__init__()
        self.log = []

    def write(self, frame, arrival_us):
        self.log.append((arrival_us, frame.seq))
        super().write(frame, arrival_us)


def polled(source, at_us, start_us=0):
    """The slot ``source`` fills when started on a virtual clock at ``start_us`` and polled at each of ``at_us``."""
    clock = VirtualClock(start_us)
    slot = _LoggedSlot()
    source.start(slot, clock)
    for t in at_us:
        clock.sleep_until(t)
        slot.poll()
    return slot


class TestReplay:
    def test_empty_recording(self):
        with pytest.raises(EmptyRecording):
            schedule([], speed=1.0)
        with pytest.raises(EmptyRecording):
            schedule(iter([]))

    def test_infinite_speed_is_immediate_and_ordered(self):
        frames = [identity_frame(3, seq=i, timestamp_us=i * 10_000) for i in range(5)]
        slot = polled(schedule(frames, speed=math.inf), [0])
        assert slot.log == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        assert slot.ended and slot.take()[0].seq == 4

    def test_schedule_offsets(self):
        frames = [identity_frame(3, seq=i, timestamp_us=i * 10_000) for i in range(3)]
        arrivals = {speed: [at for at, _ in polled(schedule(frames, speed), [100_000]).log]
                    for speed in (1.0, 2.0, math.inf)}
        assert arrivals == {1.0: [0, 10_000, 20_000], 2.0: [0, 5_000, 10_000], math.inf: [0, 0, 0]}
        # due times count from the source's start, on the loop's clock
        assert [at for at, _ in polled(schedule(frames), [100_000], start_us=7).log] == [7, 10_007, 20_007]

    def test_a_frame_is_written_when_due_and_not_before(self):
        frames = [identity_frame(3, seq=i, timestamp_us=500 + i * 10_000) for i in range(3)]
        clock = VirtualClock()
        slot = _LoggedSlot()
        schedule(frames).start(slot, clock)
        seen = []
        for t in (0, 9_999, 10_000, 19_999, 20_000, 30_000):
            clock.sleep_until(t)
            slot.poll()
            seen.append((len(slot.log), slot.ended))
        assert seen == [(1, False), (1, False), (2, False), (2, False), (3, True), (3, True)]

    def test_an_hour_of_synth_is_built_and_started_in_under_a_megabyte(self):
        skeleton = canonical_skeleton()

        def started(duration):
            source = schedule(synth_motion("arm-wave", rate=100, duration=duration, noise_std=0.01, skeleton=skeleton))
            slot = LatestFrameSlot()
            source.start(slot, VirtualClock())
            slot.poll()
            return slot

        started(0.01)  # numpy's first draws import and set up its generator code
        tracemalloc.start()
        try:
            slot = started(3600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slot.written == 1
        assert peak < 1_000_000


class TestSynth:
    def test_static_is_identity(self):
        frames = list(synth_motion("static", rate=100, duration=0.5))
        assert len(frames) == 50
        for f in frames:
            assert np.array_equal(f.orientations, identity_frame(23).orientations)

    def test_arm_wave_amplitude_and_rate(self):
        frames = list(synth_motion("arm-wave", rate=100, duration=1.0))
        assert len(frames) == 100
        skel = canonical_skeleton()
        idx = skel.index("left_upper_arm")
        angles = []
        for i, f in enumerate(frames):
            _, twist = swing_twist(f.orientations[idx], [0.0, 1.0, 0.0])
            angles.append(twist)
            expected = 0.5 * math.sin(2.0 * math.pi * i / 100.0)
            assert math.isclose(twist, expected, abs_tol=1e-12)
        assert math.isclose(max(angles), 0.5, abs_tol=1e-3)

    def test_walk_cycle_period(self):
        frames = list(synth_motion("walk-cycle", rate=100, duration=2.0))
        assert len(frames) == 200
        skel = canonical_skeleton()
        idx = skel.index("left_thigh")
        angles = np.array(
            [swing_twist(f.orientations[idx], [0.0, 1.0, 0.0])[1] for f in frames]
        )
        assert np.allclose(angles[:100], angles[100:], atol=1e-12)  # period is 1 s
        assert not np.allclose(angles[:50], angles[50:100], atol=1e-3)

    def test_seeded_noise_is_byte_identical(self):
        a = synth_motion("static", rate=100, duration=0.3, noise_std=0.01, seed=5)
        b = synth_motion("static", rate=100, duration=0.3, noise_std=0.01, seed=5)
        assert b"".join(encode_frame(f) for f in a) == b"".join(encode_frame(f) for f in b)

    def test_different_seeds_differ(self):
        a = synth_motion("static", rate=100, duration=0.1, noise_std=0.01, seed=5)
        b = synth_motion("static", rate=100, duration=0.1, noise_std=0.01, seed=6)
        assert encode_frame(next(a)) != encode_frame(next(b))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            synth_motion("static", rate=0, duration=1)
        with pytest.raises(ValueError):
            synth_motion("static", rate=100, duration=-1)
        with pytest.raises(ValueError):
            synth_motion("static", rate=100, duration=1, noise_std=-0.1)
        with pytest.raises(ValueError):
            synth_motion("moonwalk", rate=100, duration=1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth_motion("static", rate=100, duration=1, seed=-1)


# SHA-256 of each frame's seq and timestamp (u32, u64) and float64
# orientations, over 6 s of frames at 120 Hz with seed 3.  Unlike the
# golden trace digests, these see ``static`` and every segment, mapped or not.
SYNTH_SHA256 = {
    ("static", 0.0): "f53e89b38866414492d3ed9d6bf6f041e6058b9ce72f86a29107eb9ee46907ed",
    ("static", 0.01): "0b0f5c841ded8ac8391705346097a500b3e1e661ed114c1e6c28fb24cf84e494",
    ("arm-wave", 0.0): "9c6590e141ba1949654dea510e8f4634c80c39056c8171afd95ac8c633963fd7",
    ("arm-wave", 0.01): "3ea860326a02a982eecd15b4b0e23259834d10ce5ea38f1b7951572cb36ab802",
    ("squat", 0.0): "dff907cab069da4f4d81190c65c2e8f575054c5fae13cd37cc445d3c00d192e1",
    ("squat", 0.01): "ddffdfd77e8ca5744655e0c48ed655ee620ede17586ed20a44ec2b0021c99801",
    ("walk-cycle", 0.0): "153dcbc1433eeccc365b449565ab9b808b544d01d510450654a2f475626bce95",
    ("walk-cycle", 0.01): "4b443b253cf746a299ecd9d9702d6c9aba4ecbff2d9fac4b229efde0e478b2ea",
}


@pytest.mark.parametrize("pattern, noise", sorted(SYNTH_SHA256))
def test_synth_frames_match_pinned_digest(pattern, noise):
    digest = hashlib.sha256()
    for f in synth_motion(pattern, rate=120, duration=6.0, noise_std=noise, seed=3):
        digest.update(struct.pack("<IQ", f.seq, f.timestamp_us))
        digest.update(f.orientations.astype("<f8").tobytes())
    assert digest.hexdigest() == SYNTH_SHA256[pattern, noise]


def test_every_synth_pattern_is_pinned():
    assert {pattern for pattern, _ in SYNTH_SHA256} == set(SYNTH_PATTERNS)


def send_and_drain(source, slot, *seqs):
    """Send frames of ``seqs`` over loopback, then poll until the source has received them all."""
    received = source.stats.received + len(seqs)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
        for seq in seqs:
            out.sendto(encode_frame(identity_frame(3, seq=seq)), ("127.0.0.1", source.port))
    deadline = time.monotonic() + 5.0
    while source.stats.received < received and time.monotonic() < deadline:
        slot.poll()
    assert source.stats.received == received


def taken_seq(slot):
    taken = slot.take()
    return None if taken is None else taken[0].seq


class TestDatagramSource:
    @pytest.fixture
    def live(self):
        source = DatagramSource(port=0)
        slot = LatestFrameSlot()
        source.start(slot, WallClock())
        yield source, slot
        source.stop()

    def test_an_older_frame_in_the_same_drain_does_not_replace_the_newer(self, live):
        source, slot = live
        send_and_drain(source, slot, 10, 9)
        assert taken_seq(slot) == 10
        assert (source.stats.out_of_order, slot.written) == (1, 1)

    def test_an_older_frame_after_a_take_is_not_taken(self, live):
        source, slot = live
        send_and_drain(source, slot, 20)
        assert taken_seq(slot) == 20
        send_and_drain(source, slot, 19)
        assert taken_seq(slot) is None
        assert source.stats.out_of_order == 1

    def test_a_repeated_frame_is_not_taken_again(self, live):
        source, slot = live
        send_and_drain(source, slot, 20)
        assert taken_seq(slot) == 20
        send_and_drain(source, slot, 20)
        assert taken_seq(slot) is None
        assert source.stats.duplicates == 1

    def test_a_restarted_sender_is_taken_from_its_second_frame(self, live):
        source, slot = live
        send_and_drain(source, slot, 5000)
        assert taken_seq(slot) == 5000
        send_and_drain(source, slot, 0)  # far behind: a straggler until the next frame says otherwise
        assert taken_seq(slot) is None
        send_and_drain(source, slot, 1)
        assert taken_seq(slot) == 1
        send_and_drain(source, slot, 2)
        assert taken_seq(slot) == 2
        assert (source.stats.restarts, source.stats.out_of_order) == (1, 0)

    def test_counters_name_the_stream_statistics_then_the_decode_errors(self):
        source = DatagramSource(port=0)
        assert list(source.counters()) == ["stream_received", "stream_dropped", "stream_duplicates",
                                           "stream_out_of_order", "stream_restarts", "stream_decode_errors"]
        slot = LatestFrameSlot()
        source.start(slot, WallClock())
        try:
            good = encode_frame(identity_frame(3, seq=4))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                for data in (good[:10], encode_frame(identity_frame(3, seq=1)), b"JUNK" + good[4:],
                             degenerate(encode_frame(identity_frame(3, seq=2)), 1), good):
                    out.sendto(data, ("127.0.0.1", source.port))
            deadline = time.monotonic() + 5.0
            while slot.written < 2 and time.monotonic() < deadline:
                slot.poll()
        finally:
            source.stop()
        assert source.counters() == {
            "stream_received": 2, "stream_dropped": 2, "stream_duplicates": 0, "stream_out_of_order": 0,
            "stream_restarts": 0, "stream_decode_errors": 3, "stream_decode_errors_BadMagic": 1,
            "stream_decode_errors_DegenerateQuaternion": 1, "stream_decode_errors_TruncatedFrame": 1,
        }

    def test_programming_error_is_not_counted_as_a_decode_error(self, monkeypatch):
        def broken_decode(data):
            raise RuntimeError("bug in the decoder")

        monkeypatch.setattr(stream, "decode_frame", broken_decode)
        source = DatagramSource(port=0)
        slot = LatestFrameSlot()
        source.start(slot, WallClock())
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                out.sendto(encode_frame(identity_frame(3)), ("127.0.0.1", source.port))
            deadline = time.monotonic() + 5.0
            with pytest.raises(RuntimeError, match="bug in the decoder"):
                while time.monotonic() < deadline:
                    slot.poll()
        finally:
            source.stop()
        assert source.decode_errors == {}
        assert slot.written == 0


def test_input_checks():
    with pytest.raises(ValueError, match="speed must be positive"):
        schedule([identity_frame(3)], speed=0)
    with pytest.raises(ValueError, match="segment count 256 exceeds"):
        encode_frame(identity_frame(256))
