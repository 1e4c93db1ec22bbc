"""The two records, ``MocapFrame`` and ``JointCommand``, and every byte of the
three wire formats that carry them.  All integers are little-endian; every
record ends in a CRC-32 (IEEE 802.3, reflected) over all preceding bytes.

A motion frame (one per datagram, and back-to-back after the 8-byte magic
``MOCREC01`` in a recording file):

====================  ========================================
magic                 ``4D 4F 43 31`` ("MOC1")
version               u8, currently 1
flags                 u8, written as 0, ignored on decode
sequence number       u32
timestamp             u64, sender-clock microseconds
segment count         u8
per segment           4 x float32: w, x, y, z
checksum              CRC-32 as u32
====================  ========================================

A 23-segment frame is therefore 19 + 23*16 + 4 = 391 bytes.  Orientations
are float32 on the wire and float64 in memory; each segment quaternion is
relative to its parent segment, so the calibration pose is all identities.

A command record is seq u32, source seq u32, source timestamp u64,
emission timestamp u64, joint count u8, angles float64 each, hold flag u8,
CRC-32.  A command datagram is magic ``43 4D 44 31`` ("CMD1") and version
u8=1, then a record, its CRC over the prefix too; a trace file is the
8-byte magic ``CMDTRC01`` followed by back-to-back records (no per-record
magic or version).

All three formats' decoders raise the same errors (see ``errors``).  A
record of any of the three is a head ending in a u8 item count, count
items, a tail and a CRC-32 (``record_length``): a frame's head is 19 bytes,
its items 16 per segment and its tail empty; a trace record's head is 25
bytes, a command datagram's 30 (the 5-byte prefix, then a trace record's
head), their items 8 per angle and their tail the 1-byte hold flag.
``check_record`` checks a record's length, then its CRC; ``scan_records``
checks a file's records in order, into runs of equal length.  Both file
readers share that scan and keep their own tail policy: a recording drops a
truncated final frame, a trace file raises.

``read_recording`` decodes a file whole, not frame by frame, in numpy
passes; ``decode_frame`` decodes its one live frame in plain floats.  The
two follow one normalisation and sign rule (``_unit_quats``), and tests pin
them to the same bits.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BadMagic,
    CrcMismatch,
    DegenerateQuaternion,
    TeleokinError,
    TruncatedFrame,
    UnsupportedVersion,
)
from .geometry import canonicalize_rows

log = logging.getLogger(__name__)

FRAME_MAGIC = b"MOC1"
RECORDING_MAGIC = b"MOCREC01"
PROTOCOL_VERSION = 1
TRACE_MAGIC = b"CMDTRC01"
COMMAND_MAGIC = b"CMD1"
COMMAND_VERSION = 1

_HEADER = struct.Struct("<4sBBIQB")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size  # 19
CRC_SIZE = _CRC.size  # 4
_SEGMENT_SIZE = 16
_DGRAM_PREFIX = struct.Struct("<4sB")
_RECORD_HEAD = struct.Struct("<IIQQB")  # seq, source seq, source ts, emission ts, joint count

# A decoded segment whose float32 norm falls at or below this is corrupt.
_WIRE_DEGENERATE_NORM = 1e-6

# Recording frames per decode pass: keeps a pass's float64 temporaries small,
# so reading a recording peaks near the size of its decoded frames.
_DECODE_ROWS = 128


# ---------------------------------------------------------------------------
# CRC-32 framing shared by all three wire formats


def append_crc(body: bytes) -> bytes:
    """``body`` followed by the CRC-32 of ``body`` as u32."""
    return body + _CRC.pack(zlib.crc32(body))


def unpack_prefix(
    header: struct.Struct, data: bytes, magic: bytes, version: int, what: str, offset: int = 0
) -> tuple:
    """The fields after magic and version of the header at ``offset``.

    Raises TruncatedFrame, BadMagic or UnsupportedVersion.
    """
    if len(data) - offset < header.size:
        raise TruncatedFrame(f"{len(data) - offset} bytes is shorter than the {header.size}-byte {what} header")
    fields = header.unpack_from(data, offset)
    if fields[0] != magic:
        raise BadMagic(f"expected {magic!r}, got {fields[0]!r}")
    if fields[1] != version:
        raise UnsupportedVersion(f"{what} version {fields[1]}")
    return fields[2:]


def read_magic_file(path, magic: bytes, what: str) -> bytes:
    """The bytes of the file at ``path``; raises BadMagic unless they start with ``magic``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(magic)] != magic:
        raise BadMagic(f"not a {magic.decode()} {what}")
    return data


def record_length(data: bytes, offset: int, head: int, item: int, tail: int) -> int | None:
    """Bytes in the record at ``offset``: ``head`` bytes ending in a u8 item count, count *
    ``item`` bytes, ``tail`` bytes and the CRC; None if the head does not fit in ``data``."""
    if len(data) - offset < head:
        return None
    return head + data[offset + head - 1] * item + tail + CRC_SIZE


def check_record(data: bytes, offset: int, head: int, item: int, tail: int, what: str, whole: bool = False) -> int:
    """Bytes in the record at ``offset`` (see ``record_length``), after checking its length and CRC.

    A ``whole`` record must end where ``data`` does, any other must fit in
    it; if not, raises TruncatedFrame before the CRC is read, then
    CrcMismatch unless the u32 after the record is the CRC-32 of its bytes.
    """
    have = len(data) - offset
    length = record_length(data, offset, head, item, tail)
    if length is None:
        raise TruncatedFrame(f"{what} has {have} bytes, fewer than its {head}-byte head")
    if have < length or whole and have != length:
        raise TruncatedFrame(f"{what} has {have} bytes, its head declares {length}")
    end = offset + length - CRC_SIZE
    if _CRC.unpack_from(data, end)[0] != zlib.crc32(data[offset:end]):
        raise CrcMismatch(f"{what} checksum mismatch")
    return length


def scan_records(data: bytes, offset: int, check, *args) -> tuple[list, int, TeleokinError | None]:
    """Check the records from ``offset`` to the end of ``data`` in order.

    ``check(data, at, *args)`` checks the record at ``at`` and returns its
    length.  Returns the runs, ``[offset, records, length]`` for each stretch
    of back-to-back records of equal length (one ``record_rows`` view reads
    a run's fields without per-record bookkeeping); the offset where the
    scan stopped; and the error ``check`` raised there, or None at the end.
    """
    runs: list = []
    while offset < len(data):
        try:
            length = check(data, offset, *args)
        except TeleokinError as exc:
            return runs, offset, exc
        if runs and runs[-1][2] == length:
            runs[-1][1] += 1
        else:
            runs.append([offset, 1, length])
        offset += length
    return runs, offset, None


def record_rows(data: bytes, offset: int, rows: int, stride: int, start: int, stop: int, dtype: str) -> np.ndarray:
    """Bytes ``start:stop`` of ``rows`` records, ``stride`` bytes apart from ``offset``, as ``dtype``.

    One row per record, viewed in place: nothing is copied, and the rows may
    be unaligned.  The records must lie inside ``data``.
    """
    raw = np.frombuffer(data, np.uint8, count=rows * stride, offset=offset).reshape(rows, stride)
    return raw[:, start:stop].view(dtype)


@dataclass(eq=False)
class MocapFrame:
    """One timestamped snapshot of per-segment orientations.

    ``orientations`` is (n_segments, 4) float64, rows ``w, x, y, z``, unit
    and canonical-sign, ordered by the canonical skeleton layout.
    """

    seq: int
    timestamp_us: int
    orientations: np.ndarray

    @property
    def segment_count(self) -> int:
        return len(self.orientations)


def identity_frame(segment_count: int, seq: int = 0, timestamp_us: int = 0) -> MocapFrame:
    quats = np.zeros((segment_count, 4))
    quats[:, 0] = 1.0
    return MocapFrame(seq, timestamp_us, quats)


@dataclass(eq=False)
class JointCommand:
    """One synchronized vector of target angles, traceable to one frame.

    ``seq`` is the emission sequence number assigned by the control loop;
    ``hold`` marks commands that repeat the previous posture because no
    fresh frame was available.  ``angles`` is a tuple of floats from the
    loop, a float64 row from ``read_trace`` and ``decode_command_datagram``.
    ``clamped``, a tuple of bools, flags the joints the soft clamp changed
    (all False once decoded: flags are not on the wire); only perfbench's
    traced step span reads it.
    """

    seq: int
    source_seq: int
    source_timestamp_us: int
    emission_timestamp_us: int
    angles: tuple
    clamped: tuple
    hold: bool = False


# ---------------------------------------------------------------------------
# Motion-frame codec and recordings


def encode_frame(frame: MocapFrame) -> bytes:
    """Serialize a frame, bit-exact to the format above."""
    quats = np.ascontiguousarray(frame.orientations, dtype="<f4")
    count = len(quats)
    if count > 255:
        raise ValueError(f"segment count {count} exceeds the wire format's u8 field")
    header = _HEADER.pack(
        FRAME_MAGIC, PROTOCOL_VERSION, 0, frame.seq & 0xFFFFFFFF, frame.timestamp_us, count
    )
    return append_crc(header + quats.tobytes())


def _frame_length(data: bytes, offset: int) -> int:
    """Bytes in the frame at ``offset``; checks the magic, version, length and CRC, in that order."""
    unpack_prefix(_HEADER, data, FRAME_MAGIC, PROTOCOL_VERSION, "frame", offset)
    return check_record(data, offset, HEADER_SIZE, _SEGMENT_SIZE, 0, "frame")


def _unit_quats(wire: np.ndarray) -> np.ndarray:
    """Unit, canonical-sign float64 quaternions from ``(..., segments, 4)`` float32 wire data.

    The rule both decoders follow: each row is divided by its norm, the
    square root of ``((w*w + x*x) + y*y) + z*z`` (the order in which
    ``np.linalg.norm`` sums a row), then canonical-signed by
    ``canonicalize_rows``.  Raises DegenerateQuaternion for the first
    segment, in row order, whose norm is near zero or not finite.
    """
    quats = wire.astype(np.float64)
    norms = np.linalg.norm(quats, axis=-1)
    usable = (norms > _WIRE_DEGENERATE_NORM) & (norms < np.inf)  # False for NaN too
    if not usable.all():
        bad = np.unravel_index(np.argmin(usable), usable.shape)
        raise DegenerateQuaternion(f"segment {bad[-1]} has norm {norms[bad]:.3e}")
    quats /= norms[..., None]
    return canonicalize_rows(quats)


def decode_frame(data: bytes) -> MocapFrame:
    """Parse and validate one encoded frame.

    Every failure raises a specific error (BadMagic, UnsupportedVersion,
    TruncatedFrame, CrcMismatch, DegenerateQuaternion); callers treat any of
    them as "discard this frame".  A quaternion whose norm is near zero or
    not finite is degenerate; the rest are re-normalized from their float32
    quantization and canonical-signed.

    The quaternions are decoded in plain floats, with one array built at
    the end: a live frame arrives after an idle gap, when each numpy call
    runs cold.  ``_unit_quats``'s rule is written out per segment, so this
    gives ``read_recording``'s bits.
    """
    _flags, seq, timestamp_us, count = unpack_prefix(_HEADER, data, FRAME_MAGIC, PROTOCOL_VERSION, "frame")
    check_record(data, 0, HEADER_SIZE, _SEGMENT_SIZE, 0, "frame", whole=True)
    values = iter(struct.unpack_from(f"<{4 * count}f", data, HEADER_SIZE))
    rows = []
    for segment, (w, x, y, z) in enumerate(zip(values, values, values, values)):
        norm = math.sqrt(((w * w + x * x) + y * y) + z * z)
        if not _WIRE_DEGENERATE_NORM < norm < math.inf:  # False for NaN too
            raise DegenerateQuaternion(f"segment {segment} has norm {norm:.3e}")
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        if w < 0 or w == 0 and (x < 0 or x == 0 and (y < 0 or y == 0 and z < 0)):
            w, x, y, z = -w, -x, -y, -z
        rows.append((w, x, y, z))
    return MocapFrame(seq, timestamp_us, np.array(rows).reshape(count, 4))


def write_recording(path, frames: Iterable[MocapFrame]) -> int:
    """Write a MOCREC01 file; returns the number of frames written."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(RECORDING_MAGIC)
        for frame in frames:
            fh.write(encode_frame(frame))
            count += 1
    return count


def _tail_fault(data: bytes, offset: int) -> TeleokinError | None:
    """The BadMagic or UnsupportedVersion shown by whatever magic and version
    bytes the short tail at ``offset`` has, else None."""
    magic = data[offset : offset + len(FRAME_MAGIC)]
    if magic != FRAME_MAGIC[: len(magic)]:
        return BadMagic(f"expected {FRAME_MAGIC!r}, got {magic!r}")
    version = data[offset + len(FRAME_MAGIC) : offset + len(FRAME_MAGIC) + 1]
    if version and version[0] != PROTOCOL_VERSION:
        return UnsupportedVersion(f"frame version {version[0]}")
    return None


def read_recording(path) -> list[MocapFrame]:
    """Read a MOCREC01 file; a truncated final frame is dropped with a warning.

    A short tail whose magic or version bytes are wrong is a corrupt frame,
    not a truncated one, and raises BadMagic or UnsupportedVersion.

    ``scan_records`` checks each frame's framing and CRC in file order; then
    the frames of each run of equal segment counts are decoded together by
    ``_unit_quats``, up to ``_DECODE_ROWS`` per numpy pass, and every
    frame's ``orientations`` is a row view of its pass's block.  A file
    with several faults raises the first faulty frame's error, as decoding
    frame by frame would.
    """
    data = read_magic_file(path, RECORDING_MAGIC, "recording")
    runs, end, fault = scan_records(data, len(RECORDING_MAGIC), _frame_length)
    dropped = None  # the truncated tail's warning
    if isinstance(fault, TruncatedFrame):  # a frame runs past the end: a truncated tail
        fault = _tail_fault(data, end)  # a corrupt tail is no truncated frame
        remaining, frame_len = len(data) - end, record_length(data, end, HEADER_SIZE, _SEGMENT_SIZE, 0)
        size = f"{remaining} trailing bytes" if frame_len is None else f"{remaining} of {frame_len} bytes"
        dropped = f"dropping truncated final frame ({size})"
    frames = []
    for offset, count_frames, stride in runs:
        wire = record_rows(data, offset, count_frames, stride, HEADER_SIZE, stride - CRC_SIZE, "<f4")
        wire = wire.reshape(count_frames, -1, 4)
        for start in range(0, count_frames, _DECODE_ROWS):
            quats = _unit_quats(wire[start : start + _DECODE_ROWS])  # raises before a later fault
            for at, q in zip(range(offset + start * stride, len(data), stride), quats):
                _magic, _version, _flags, seq, timestamp_us, _count = _HEADER.unpack_from(data, at)
                frames.append(MocapFrame(seq, timestamp_us, q))
    if fault is not None:
        raise fault
    if dropped is not None:
        log.warning("%s", dropped)
    return frames


# ---------------------------------------------------------------------------
# Command codec and trace files


@functools.lru_cache(maxsize=256)  # one per joint count the u8 field can hold
def _record_struct(count: int) -> struct.Struct:
    return struct.Struct(f"{_RECORD_HEAD.format}{count}d?")  # "?" packs the hold flag's truth as 1 or 0


def _record_body(cmd: JointCommand) -> bytes:
    """The record's fields before its CRC, in one pack; 256 joints or more raise struct.error."""
    count = len(cmd.angles)
    return _record_struct(count).pack(
        cmd.seq & 0xFFFFFFFF, cmd.source_seq & 0xFFFFFFFF, cmd.source_timestamp_us, cmd.emission_timestamp_us,
        count, *cmd.angles, cmd.hold,
    )


def encode_command_record(cmd: JointCommand) -> bytes:
    """Trace-file record: fields + CRC, no magic/version."""
    return append_crc(_record_body(cmd))


def encode_command_datagram(cmd: JointCommand) -> bytes:
    """Datagram: CMD1 magic + version + fields + CRC over everything before it."""
    return append_crc(_DGRAM_PREFIX.pack(COMMAND_MAGIC, COMMAND_VERSION) + _record_body(cmd))


def _commands(data: bytes, offset: int, records: int, stride: int) -> list[JointCommand]:
    """The ``records`` checked, back-to-back records of ``stride`` bytes each from ``offset``.

    Their angles are converted in one go, and every command holds a row of
    them; all share one all-False ``clamped`` tuple (flags are not on the
    wire).
    """
    head, hold_at = _RECORD_HEAD.size, stride - CRC_SIZE - 1  # the hold byte ends the body
    angles = record_rows(data, offset, records, stride, head, hold_at, "<f8").astype(float)
    unclamped = (False,) * angles.shape[1]
    commands = []
    for at, row in zip(range(offset, len(data), stride), angles):
        seq, source_seq, source_ts, emission_ts, _ = _RECORD_HEAD.unpack_from(data, at)
        commands.append(JointCommand(seq, source_seq, source_ts, emission_ts, row, unclamped, data[at + hold_at] != 0))
    return commands


def decode_command_datagram(data: bytes) -> JointCommand:
    """Parse one CMD1 datagram; every fault raises one of the codec errors."""
    unpack_prefix(_DGRAM_PREFIX, data, COMMAND_MAGIC, COMMAND_VERSION, "command datagram")
    length = check_record(data, 0, _DGRAM_PREFIX.size + _RECORD_HEAD.size, 8, 1, "command datagram", whole=True)
    return _commands(data, _DGRAM_PREFIX.size, 1, length - _DGRAM_PREFIX.size)[0]


def read_trace(path) -> list[JointCommand]:
    """Read a CMDTRC01 file back into commands (clamp flags come back False).

    Every record's head and CRC are checked, in file order, before any angle
    is converted; the first faulty record raises.  Each command's ``angles``
    is a float64 row of one block per run of equal joint counts, which
    ``validate_trace`` stacks faster than tuples; its ``clamped`` is one
    all-False tuple the run's commands share.
    """
    data = read_magic_file(path, TRACE_MAGIC, "trace file")
    runs, _, fault = scan_records(
        data, len(TRACE_MAGIC), check_record, _RECORD_HEAD.size, 8, 1, "command record"
    )
    if fault is not None:  # a truncated tail too
        raise fault
    return [cmd for run in runs for cmd in _commands(data, *run)]
