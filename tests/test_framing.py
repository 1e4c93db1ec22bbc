"""The record rule all three wire formats share, and both file readers on damaged files."""

import numpy as np
import pytest

from teleokin.errors import BadMagic, CrcMismatch, DegenerateQuaternion, TruncatedFrame, UnsupportedVersion
from teleokin.retarget import JointCommand
from teleokin.runtime import (
    TRACE_MAGIC,
    decode_command_datagram,
    encode_command_datagram,
    encode_command_record,
    read_trace,
)
from teleokin.stream import RECORDING_MAGIC, MocapFrame, decode_frame, encode_frame, read_recording

CODEC_ERRORS = (BadMagic, UnsupportedVersion, TruncatedFrame, CrcMismatch, DegenerateQuaternion)
RUN_COUNTS = [23] * 6 + [5] * 3 + [0] + [23] * 3  # segment or joint counts: four runs


def frame(rng, seq, count):
    quats = rng.normal(size=(count, 4))
    return MocapFrame(seq, 1000 * seq, quats / np.linalg.norm(quats, axis=1)[:, None])


def command(rng, seq, count):
    return JointCommand(seq, seq, 1000 * seq, 1000 * seq + 7, tuple(rng.uniform(-1, 1, count)), (False,) * count,
                        hold=bool(seq % 2))


def flip_crc(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def one_record(fmt, tmp_path):
    """(the format's name in its error messages, a valid record, a decoder of one record's bytes)"""
    rng = np.random.default_rng(41)
    if fmt == "frame datagram":
        return "frame", encode_frame(frame(rng, 3, 23)), decode_frame
    if fmt == "command datagram":
        return "command datagram", encode_command_datagram(command(rng, 3, 23)), decode_command_datagram
    record = encode_command_record(command(rng, 3, 23))

    def decode(data):  # after a valid record, so the damaged one is a trace file's tail
        (tmp_path / "one.trc").write_bytes(TRACE_MAGIC + record + data)
        return read_trace(tmp_path / "one.trc")

    return "command record", record, decode


DATAGRAMS = ["frame datagram", "command datagram"]
FORMATS = DATAGRAMS + ["command record"]


CASES = [  # case, damage, the error it raises, the formats it applies to
    ("cut inside the head", lambda data: data[:12], TruncatedFrame, FORMATS),
    ("one byte short", lambda data: data[:-1], TruncatedFrame, FORMATS),
    ("one byte long", lambda data: data + b"\x00", TruncatedFrame, DATAGRAMS),
    ("CRC flipped", flip_crc, CrcMismatch, FORMATS),
    ("one byte long with the CRC flipped", lambda data: flip_crc(data) + b"\x00", TruncatedFrame, DATAGRAMS),
]


@pytest.mark.parametrize("fmt, damage, error", [
    pytest.param(fmt, damage, error, id=f"{fmt}: {case}") for case, damage, error, formats in CASES for fmt in formats
])
def test_the_record_rule_for_each_format(tmp_path, fmt, damage, error):
    """A head ending in a u8 count, count items, a tail and a CRC-32.

    A datagram must end where its record does, a trace record must fit in
    its file, and the length is checked before the CRC, so a long datagram
    with a bad CRC is a length fault.
    """
    what, valid, decode = one_record(fmt, tmp_path)
    decode(valid)
    damaged = damage(valid)
    with pytest.raises(error) as raised:
        decode(damaged)
    if error is TruncatedFrame:  # the message names the format and the bytes it got
        assert what in str(raised.value) and str(len(damaged)) in str(raised.value)


class TestDamagedFiles:
    """Both file readers on valid files of four runs, damaged at random: a list, or one of the codec errors."""

    FILES = 3000

    def damaged(self, rng, records: bytes, magic: bytes) -> bytes:
        data = bytearray(magic + records)
        kind = int(rng.integers(3))
        if kind == 0:  # flip 1-3 bytes
            for pos in rng.integers(len(data), size=int(rng.integers(1, 4))):
                data[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:  # cut at a random offset
            data = data[: int(rng.integers(len(data)))]
        else:  # append random bytes
            data += rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8).tobytes()
        return bytes(data)

    def outcomes(self, tmp_path, magic, records, read, check_read):
        rng = np.random.default_rng(42)
        path = tmp_path / "damaged"
        counts: dict[str, int] = {}
        for _ in range(self.FILES):
            data = self.damaged(rng, records, magic)
            path.write_bytes(data)
            try:
                result = read(path)
            except CODEC_ERRORS as exc:
                name = type(exc).__name__
            else:
                assert isinstance(result, list)
                check_read(data, result)
                name = "read"
            counts[name] = counts.get(name, 0) + 1
        return counts

    def test_read_recording(self, tmp_path):
        rng = np.random.default_rng(43)
        records = b"".join(encode_frame(frame(rng, seq, count)) for seq, count in enumerate(RUN_COUNTS))

        def check_read(data, frames):
            # the frames read are the file's leading frames; what follows them is a truncated tail
            offset = len(RECORDING_MAGIC)
            for got in frames:
                length = len(encode_frame(got))
                expected = decode_frame(data[offset : offset + length])
                assert got.seq == expected.seq and got.timestamp_us == expected.timestamp_us
                assert got.orientations.tobytes() == expected.orientations.tobytes()
                offset += length
            if offset < len(data):
                with pytest.raises(TruncatedFrame):
                    decode_frame(data[offset:])

        counts = self.outcomes(tmp_path, RECORDING_MAGIC, records, read_recording, check_read)
        assert counts["read"] > 0 and counts["CrcMismatch"] > 0 and counts["BadMagic"] > 0

    def test_read_trace(self, tmp_path):
        rng = np.random.default_rng(44)
        records = b"".join(encode_command_record(command(rng, seq, count)) for seq, count in enumerate(RUN_COUNTS))

        def check_read(data, commands):
            # a trace that reads is read whole: its commands encode back to the file
            assert TRACE_MAGIC + b"".join(encode_command_record(c) for c in commands) == data

        counts = self.outcomes(tmp_path, TRACE_MAGIC, records, read_trace, check_read)
        assert counts["TruncatedFrame"] > 0 and counts["CrcMismatch"] > 0
