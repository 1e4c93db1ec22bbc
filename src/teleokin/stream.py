"""Motion-frame wire codec, recordings, scheduling, synthetic motion, UDP source.

Wire format (all integers little-endian):

====================  ========================================
magic                 ``4D 4F 43 31`` ("MOC1")
version               u8, currently 1
flags                 u8, written as 0, ignored on decode
sequence number       u32
timestamp             u64, sender-clock microseconds
segment count         u8
per segment           4 x float32: w, x, y, z
checksum              CRC-32 (IEEE 802.3, reflected) over all
                      preceding bytes, as u32
====================  ========================================

A 23-segment frame is therefore 19 + 23*16 + 4 = 391 bytes.  Orientations
are float32 on the wire and float64 in memory; each segment quaternion is
relative to its parent segment, so the calibration pose is all identities.

A recording file is the 8-byte magic ``MOCREC01`` followed by back-to-back
encoded frames.

The framing helpers below also frame ``runtime``'s command datagrams and
trace files, so all three formats' decoders raise the same errors (see
``errors``).  A record of any of the three is a head ending in a u8 item
count, count items, a tail and a CRC-32 (``record_length``): a frame's head
is 19 bytes, its items 16 per segment and its tail empty; a trace record's
head is 25 bytes, a command datagram's 30 (the 5-byte prefix, then a trace
record's head), their items 8 per angle and their tail the 1-byte hold flag.
``check_record`` checks a record's length, then its CRC; ``scan_records``
checks a file's records in order, into runs of equal length.  Both file
readers share that scan and keep their own tail policy: a recording drops a
truncated final frame, a trace file raises.

``read_recording`` decodes a file whole, not frame by frame, in numpy
passes; ``decode_frame`` decodes its one live frame in plain floats.  The
two follow one normalisation and sign rule (``_unit_quats``), and tests pin
them to the same bits.

A synthetic motion pattern is data: rows of ``(segment, axis, shape,
amplitude rad, frequency Hz, phase rad)`` in ``_PATTERNS``.  Each driven
segment turns about its axis by ``amplitude * shape(2.0 * math.pi *
frequency * t + phase)``, where ``shape`` is ``math.sin`` or the
half-cosine lift ``0.5 * (1.0 - math.cos(x))``.
"""

from __future__ import annotations

import logging
import math
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadMagic,
    CrcMismatch,
    DegenerateQuaternion,
    DimensionMismatch,
    EmptyRecording,
    TeleokinError,
    TruncatedFrame,
    UnorderedTimestamps,
    UnsupportedVersion,
)
from .geometry import canonicalize_rows, quat_multiply_rows
from .model import canonical_skeleton

log = logging.getLogger(__name__)

FRAME_MAGIC = b"MOC1"
RECORDING_MAGIC = b"MOCREC01"
PROTOCOL_VERSION = 1

_HEADER = struct.Struct("<4sBBIQB")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size  # 19
CRC_SIZE = _CRC.size  # 4
_SEGMENT_SIZE = 16

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


def _frame_length(data: bytes, offset: int = 0, whole: bool = False) -> int:
    """Bytes in the frame at ``offset``; checks the magic, version, length and CRC, in that order."""
    unpack_prefix(_HEADER, data, FRAME_MAGIC, PROTOCOL_VERSION, "frame", offset)
    return check_record(data, offset, HEADER_SIZE, _SEGMENT_SIZE, 0, "frame", whole)


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
    _frame_length(data, whole=True)
    _magic, _version, _flags, seq, timestamp_us, count = _HEADER.unpack_from(data)
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


# ---------------------------------------------------------------------------
# Stream accounting


class StreamStats:
    """Sequence accounting for a live frame stream, in bounded memory.

    Wire sequence numbers are u32.  Each is extended past wraps as in
    RFC 3550 §A.1: it is read as the number nearest the newest one seen, so
    any step of less than 2^31 either way counts at face value, a wrap
    included.  Arrivals are remembered for the newest ``SEQ_WINDOW``
    numbers only, one bit each.

    ``received`` counts every observed frame including duplicates;
    ``duplicates`` counts repeats of a number inside the window;
    ``out_of_order`` counts the other frames older than the newest one.
    ``dropped`` is the count of numbers inside the observed spans that never
    arrived, so ``received + dropped >= span`` always holds.  A frame more
    than the window behind the newest cannot be told from a duplicate: it
    counts as out of order, and its number stays dropped.

    A sender that restarted its count re-sends numbers already seen, or
    numbers too far behind to place.  So a frame ``MAX_MISORDER`` or more
    behind the newest whose number already arrived, or any frame the window
    or more behind, is a restart candidate.  As in RFC 3550 §A.1, if the
    very next frame follows it by one and is a candidate too, the two open a
    new span: the old span's drops are kept, the first frame's count as a
    duplicate or out of order is undone, and ``restarts`` counts the
    resynchronisation.  ``span`` is then the current span's.  A late frame
    inside the window that had not arrived is never a candidate, so late
    frames alone cannot fake a restart; two consecutive numbers repeated
    that far behind read as one.  ``observe`` tells whether a frame became
    the newest: it was the first, moved the newest number forward, or
    confirmed a restart.
    """

    SEQ_WINDOW = 1024
    MAX_MISORDER = 100

    def __init__(self):
        self.received = 0
        self.duplicates = 0
        self.out_of_order = 0
        self.restarts = 0
        self._arrived = 0  # distinct numbers counted in the current span
        self._first: int | None = None  # extended numbers, lowest counted and newest
        self._newest: int | None = None
        self._window = 0  # bit i set: number _newest - i arrived
        self._earlier_drops = 0  # dropped in spans before the last restart
        # (the number that would confirm a restart, whether the candidate before it
        # was a duplicate), or None
        self._restart: tuple[int, bool] | None = None

    def observe(self, seq: int) -> bool:
        """Count one received frame; True if it is now the newest one seen."""
        self.received += 1
        restart, self._restart = self._restart, None
        if self._newest is None:
            self._start(seq)
            return True
        step = (seq - self._newest) % _SEQ_MODULUS
        if 0 < step < _SEQ_MODULUS // 2:  # ahead of the newest, across a wrap or not
            return self._advance(step)
        behind = -step % _SEQ_MODULUS
        duplicate = behind < self.SEQ_WINDOW and bool(self._window >> behind & 1)
        if duplicate and behind >= self.MAX_MISORDER or behind >= self.SEQ_WINDOW:  # a restart candidate
            if restart is not None and seq == restart[0]:  # the sender restarted its count one frame ago
                if restart[1]:  # that frame opens the new span
                    self.duplicates -= 1
                else:
                    self.out_of_order -= 1
                self.restarts += 1
                self._earlier_drops += self.span - self._arrived
                self._start((seq - 1) % _SEQ_MODULUS)
                return self._advance(1)
            self._restart = ((seq + 1) % _SEQ_MODULUS, duplicate)
        if duplicate:
            self.duplicates += 1
            return False
        if behind < self.SEQ_WINDOW:
            self._window |= 1 << behind
            self._arrived += 1
            self._first = min(self._first, self._newest - behind)
        self.out_of_order += 1
        return False

    def _advance(self, step: int) -> bool:
        self._newest += step
        self._window = (self._window << step | 1) & _SEQ_MASK if step < self.SEQ_WINDOW else 1
        self._arrived += 1
        return True

    def _start(self, seq: int) -> None:
        self._first = self._newest = seq
        self._window, self._arrived = 1, 1

    @property
    def dropped(self) -> int:
        return self._earlier_drops + self.span - self._arrived

    @property
    def span(self) -> int:
        if self._first is None:
            return 0
        return self._newest - self._first + 1


_SEQ_MODULUS = 1 << 32
_SEQ_MASK = (1 << StreamStats.SEQ_WINDOW) - 1


# ---------------------------------------------------------------------------
# Recordings and scheduling


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


class ScheduledSource:
    """A recording (or synthetic motion) played to the control loop; ``schedule`` builds it.

    Due times are the recorded timestamp gaps divided by ``speed``; at
    ``speed=math.inf`` every frame is due at 0, in order.  ``start`` sets the
    slot's ``poll`` to write each frame due by now, stamped ``start + due``.
    ``frames`` is read one frame past the newest due one; when it runs out,
    ``poll`` sets the slot's ``ended``.  An empty ``frames`` raises
    EmptyRecording at once; a frame stamped before its predecessor raises
    UnorderedTimestamps when it is read.
    """

    def __init__(self, frames: Iterable[MocapFrame], speed: float = 1.0):
        if not (speed > 0):
            raise ValueError("speed must be positive")
        self._frames, self._speed = iter(frames), speed
        self._next = next(self._frames, None)  # the frame read ahead; None once they ran out
        if self._next is None:
            raise EmptyRecording("no frames to schedule")
        self._t0 = self._next.timestamp_us

    def start(self, slot, clock) -> None:
        self._slot, self._clock, self._start_us = slot, clock, clock.now_us()
        slot.poll = self._feed

    def _feed(self) -> None:
        now = self._clock.now_us()
        while self._next is not None:
            frame = self._next
            arrival_us = self._start_us + round((frame.timestamp_us - self._t0) / self._speed)  # gap / inf == 0
            if arrival_us > now:
                break
            self._slot.write(frame, arrival_us)
            self._next = after = next(self._frames, None)
            if after is not None and after.timestamp_us < frame.timestamp_us:
                raise UnorderedTimestamps(f"frame seq {after.seq} is stamped {after.timestamp_us} us,"
                                          f" before its predecessor's {frame.timestamp_us} us")
        self._slot.ended = self._next is None

    def stop(self) -> None:
        pass


schedule = ScheduledSource


# ---------------------------------------------------------------------------
# Synthetic motion

_AXIS_Y = (0.0, 1.0, 0.0)
_AXIS_Z = (0.0, 0.0, 1.0)


def _lift(x: float) -> float:
    """The half-cosine lift: 0 at x = 0, rising to 1 at x = pi."""
    return 0.5 * (1.0 - math.cos(x))


# Rows of (segment, axis, shape, amplitude rad, frequency Hz, phase rad), shape
# math.sin or _lift (see the module docstring); unnamed segments stay at identity.
_PATTERNS = {
    "static": (),
    "arm-wave": (  # upper arms swing 0.5 rad at 1 Hz, forearms flex, hands twist
        ("left_upper_arm", _AXIS_Y, math.sin, 0.5, 1.0, 0.0),
        ("right_upper_arm", _AXIS_Y, math.sin, 0.5, 1.0, 0.0),
        ("left_forearm", _AXIS_Y, _lift, 0.6, 1.0, 0.0),
        ("right_forearm", _AXIS_Y, _lift, 0.6, 1.0, 0.0),
        ("left_hand", _AXIS_Z, math.sin, 0.4, 1.0, 0.0),
        ("right_hand", _AXIS_Z, math.sin, -0.4, 1.0, 0.0),
    ),
    "squat": (  # 0.5 Hz crouch: thighs -0.5, shanks +1.0, feet -0.5
        ("left_thigh", _AXIS_Y, _lift, -0.5, 0.5, 0.0),
        ("right_thigh", _AXIS_Y, _lift, -0.5, 0.5, 0.0),
        ("left_shank", _AXIS_Y, _lift, 1.0, 0.5, 0.0),
        ("right_shank", _AXIS_Y, _lift, 1.0, 0.5, 0.0),
        ("left_foot", _AXIS_Y, _lift, -0.5, 0.5, 0.0),
        ("right_foot", _AXIS_Y, _lift, -0.5, 0.5, 0.0),
    ),
    "walk-cycle": (  # 1 s stride: antiphase thighs and shank lifts, counter-swinging arms
        ("left_thigh", _AXIS_Y, math.sin, 0.3, 1.0, 0.0),
        ("right_thigh", _AXIS_Y, math.sin, -0.3, 1.0, 0.0),
        ("left_shank", _AXIS_Y, _lift, 0.2, 1.0, 0.0),
        ("right_shank", _AXIS_Y, _lift, 0.2, 1.0, math.pi),
        ("left_upper_arm", _AXIS_Y, math.sin, -0.2, 1.0, 0.0),
        ("right_upper_arm", _AXIS_Y, math.sin, 0.2, 1.0, 0.0),
    ),
}
SYNTH_PATTERNS = tuple(_PATTERNS)


def synth_motion(
    pattern: str,
    rate: float,
    duration: float,
    noise_std: float = 0.0,
    seed: int = 0,
    skeleton=None,
) -> Iterator[MocapFrame]:
    """Deterministic synthetic motion on the canonical skeleton, made frame by frame.

    A pattern is its rows in ``_PATTERNS`` above.  Noise adds
    an independent per-segment small-angle rotation about a random unit axis
    with angle ~ Normal(0, noise_std); identical seeds give byte-identical
    frame sequences.  The arguments are checked at the call; each frame is
    made, and its noise drawn, when the returned iterator is advanced.
    """
    if not (rate > 0):
        raise ValueError("rate must be positive")
    if not (duration > 0):
        raise ValueError("duration must be positive")
    if not (rate * duration < math.inf):
        raise ValueError(f"rate * duration must be finite, got rate={rate!r} and duration={duration!r}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    skel = skeleton if skeleton is not None else canonical_skeleton()
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {SYNTH_PATTERNS}")
    rng = np.random.default_rng(seed)  # here, so a bad seed is rejected at the call
    return _synth_frames(pattern, rate, int(round(rate * duration)), noise_std, rng, skel)


def _synth_frames(pattern: str, rate: float, n_frames: int, noise_std: float, rng, skel) -> Iterator[MocapFrame]:
    index = {s.name: i for i, s in enumerate(skel.segments)}
    # 2.0 * math.pi * frequency, so each angle takes the table's order of operations
    rows = [(index[segment], axis, shape, amplitude, 2.0 * math.pi * frequency, phase)
            for segment, axis, shape, amplitude, frequency, phase in _PATTERNS[pattern]
            if segment in index]  # a pattern drives only the segments the skeleton has
    for i in range(n_frames):
        t = i / rate
        quats = np.zeros((len(skel.segments), 4))
        quats[:, 0] = 1.0
        for row, axis, shape, amplitude, omega, phase in rows:
            half = 0.5 * (amplitude * shape(omega * t + phase))
            s = math.sin(half)
            quats[row] = (math.cos(half), s * axis[0], s * axis[1], s * axis[2])
        if noise_std > 0:
            axes = rng.normal(size=(len(skel.segments), 3))
            axes /= np.linalg.norm(axes, axis=1)[:, None]
            angles = rng.normal(0.0, noise_std, size=len(skel.segments))
            half = 0.5 * angles
            noise = np.empty((len(skel.segments), 4))
            noise[:, 0] = np.cos(half)
            noise[:, 1:] = np.sin(half)[:, None] * axes
            quats = canonicalize_rows(quat_multiply_rows(quats, noise))
        yield MocapFrame(seq=i, timestamp_us=round(i * 1e6 / rate), orientations=quats)


# ---------------------------------------------------------------------------
# Live transport


# Linux's SO_TIMESTAMPNS (asm-generic/socket.h), which Python's socket module
# does not name: each datagram carries its kernel receive time as a timespec.
_SO_TIMESTAMPNS = 35
_TIMESPEC = struct.Struct("@qq")  # tv_sec, tv_nsec
_STAMP_SPACE = socket.CMSG_SPACE(_TIMESPEC.size)
_MAX_DATAGRAM = 65535


class DatagramSource:
    """UDP frame source: one encoded frame per datagram, polled by the loop.

    The constructor binds a non-blocking socket, so a port in use fails at
    setup, and ``port`` is the bound one (a free port for 0).  ``start``
    hands the socket to the slot as ``socket``, with its drain as ``poll``:
    the loop waits on the socket, drains it when a datagram arrives, and
    drains it again at each tick, after the wait.  The drain decodes every
    waiting datagram and writes each valid frame that is the newest seen to
    the slot, stamped with its kernel receive time on the loop's clock, so
    ``frame_age_us`` counts from the kernel's receipt, whenever the loop
    reads the datagram.  A late or repeated frame is counted in the stats
    (out of order, duplicate) and not written, so the robot never steps
    back toward an older pose.  A sender that restarts its count loses its
    first frame: it looks far behind until the next one confirms the restart.
    Undecodable datagrams, and frames whose segment count is not the slot's
    ``segment_count``, are counted (by error type) and dropped; the loop
    never sees them, and the resulting sequence gaps show up in the stats.
    Any other exception is a bug and propagates out of the loop.
    """

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.stats = StreamStats()
        self.decode_errors: dict[str, int] = {}
        self._sock: socket.socket | None = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError:
            self._sock.close()
            raise
        self._sock.setblocking(False)
        self._sock.setsockopt(socket.SOL_SOCKET, _SO_TIMESTAMPNS, 1)
        self.port = self._sock.getsockname()[1]

    def start(self, slot, clock) -> None:
        self._slot, self._clock = slot, clock
        slot.poll, slot.socket = self._drain, self._sock

    def counters(self) -> dict[str, int]:
        """The stream statistics, then the decode errors: all of them, then by reason."""
        counts = {f"stream_{name}": getattr(self.stats, name)
                  for name in ("received", "dropped", "duplicates", "out_of_order", "restarts")}
        counts["stream_decode_errors"] = sum(self.decode_errors.values())
        counts.update((f"stream_decode_errors_{name}", n) for name, n in sorted(self.decode_errors.items()))
        return counts

    def _drain(self) -> None:
        """Decode every datagram waiting on the socket into the slot."""
        expected = self._slot.segment_count
        while True:
            try:
                data, ancdata, _flags, _addr = self._sock.recvmsg(_MAX_DATAGRAM, _STAMP_SPACE)
            except BlockingIOError:
                return
            try:
                frame = decode_frame(data)
                if expected is not None and frame.segment_count != expected:
                    raise DimensionMismatch(f"frame has {frame.segment_count} segments, map expects {expected}")
            except TeleokinError as exc:  # decode errors are counted drops
                name = type(exc).__name__
                self.decode_errors[name] = self.decode_errors.get(name, 0) + 1
                continue
            if self.stats.observe(frame.seq):
                self._slot.write(frame, self._arrival_us(ancdata))

    def _arrival_us(self, ancdata) -> int:
        """The datagram's kernel receive stamp (wall time) on the loop's clock."""
        sec, nsec = _TIMESPEC.unpack(ancdata[0][2])
        return self._clock.now_us() - (time.time_ns() - (sec * 1_000_000_000 + nsec)) // 1000

    def stop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
