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

The framing helpers below (CRC trailer, magic + version prefix, magic-checked
file read, a strided view of equal records' payloads) also frame
``runtime``'s command datagrams and trace files, so all three formats'
decoders raise the same errors (see ``errors``).

``read_recording`` decodes a file whole, not frame by frame, with the same
quaternion kernel that ``decode_frame`` runs on its one frame.
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


def check_crc(data: bytes, start: int, end: int, what: str) -> None:
    """Raise CrcMismatch unless the u32 at ``end`` is the CRC-32 of ``data[start:end]``."""
    (crc,) = _CRC.unpack_from(data, end)
    if crc != zlib.crc32(data[start:end]):
        raise CrcMismatch(f"{what} checksum mismatch")


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


def extend_runs(runs: list, offset: int, length: int) -> None:
    """Add the ``length``-byte record at ``offset`` to ``runs``.

    ``runs`` lists ``[offset, records, length]`` for each stretch of
    back-to-back records of equal length, whose fields one ``record_rows``
    view can read without per-record bookkeeping.
    """
    if runs and runs[-1][2] == length:
        runs[-1][1] += 1
    else:
        runs.append([offset, 1, length])


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


def _frame_head(data: bytes, offset: int, length: int) -> tuple[int, int, int]:
    """``(seq, timestamp_us, segment count)`` of the ``length``-byte frame at ``offset``.

    Checks the magic, version, length and CRC, in that order.
    """
    _flags, seq, timestamp_us, count = unpack_prefix(
        _HEADER, data, FRAME_MAGIC, PROTOCOL_VERSION, "frame", offset
    )
    expected = HEADER_SIZE + count * _SEGMENT_SIZE + CRC_SIZE
    if length != expected:
        raise TruncatedFrame(f"expected {expected} bytes for {count} segments, got {length}")
    check_crc(data, offset, offset + expected - CRC_SIZE, "frame")
    return seq, timestamp_us, count


def _unit_quats(wire: np.ndarray) -> np.ndarray:
    """Unit, canonical-sign float64 quaternions from ``(..., segments, 4)`` float32 wire data.

    Raises DegenerateQuaternion for the first segment, in row order, whose
    norm is near zero or not finite.
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
    """
    seq, timestamp_us, count = _frame_head(data, 0, len(data))
    wire = np.frombuffer(data, dtype="<f4", count=count * 4, offset=HEADER_SIZE).reshape(count, 4)
    return MocapFrame(seq, timestamp_us, _unit_quats(wire))


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

    Such a frame may also be the first of a sender that restarted its count.
    As in RFC 3550 §A.1, if the very next frame follows it by one, the two
    open a new span: the old span's drops are kept, the first frame is no
    longer out of order, and ``restarts`` counts the resynchronisation.
    ``span`` is then the current span's.  ``observe`` tells whether a frame
    became the newest: it was the first, moved the newest number forward,
    or confirmed a restart.
    """

    SEQ_WINDOW = 1024

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
        self._restart_seq: int | None = None  # the number that would confirm a restart

    def observe(self, seq: int) -> bool:
        """Count one received frame; True if it is now the newest one seen."""
        self.received += 1
        restart_seq, self._restart_seq = self._restart_seq, None
        if seq == restart_seq:  # the sender restarted its count one frame ago
            self.restarts += 1
            self.out_of_order -= 1  # that frame opens the new span
            self._earlier_drops += self.span - self._arrived
            self._start((seq - 1) % _SEQ_MODULUS)
        elif self._newest is None:
            self._start(seq)
            return True
        step = (seq - self._newest) % _SEQ_MODULUS
        if 0 < step < _SEQ_MODULUS // 2:  # ahead of the newest, across a wrap or not
            self._newest += step
            self._window = (self._window << step | 1) & _SEQ_MASK if step < self.SEQ_WINDOW else 1
            self._arrived += 1
            return True
        behind = -step % _SEQ_MODULUS
        if behind < self.SEQ_WINDOW:
            if self._window >> behind & 1:
                self.duplicates += 1
                return False
            self._window |= 1 << behind
            self._arrived += 1
            self._first = min(self._first, self._newest - behind)
        else:
            self._restart_seq = (seq + 1) % _SEQ_MODULUS
        self.out_of_order += 1
        return False

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


def read_recording(path) -> list[MocapFrame]:
    """Read a MOCREC01 file; a truncated final frame is dropped with a warning.

    Each frame's framing and CRC are checked in file order; then the frames
    of each run of equal segment counts are decoded together, up to
    ``_DECODE_ROWS`` per numpy pass, and every frame's ``orientations`` is a
    row view of its pass's block.  A file with several faults raises the
    first faulty frame's error, as decoding frame by frame would.
    """
    data = read_magic_file(path, RECORDING_MAGIC, "recording")
    runs: list = []
    fault = None  # the framing error that stopped the scan
    dropped = None  # the truncated tail's warning
    offset = len(RECORDING_MAGIC)
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < HEADER_SIZE:
            dropped = f"dropping truncated final frame ({remaining} trailing bytes)"
            break
        count = data[offset + HEADER_SIZE - 1]
        frame_len = HEADER_SIZE + count * _SEGMENT_SIZE + CRC_SIZE
        if remaining < frame_len:
            dropped = f"dropping truncated final frame ({remaining} of {frame_len} bytes)"
            break
        try:
            _frame_head(data, offset, frame_len)
        except TeleokinError as exc:
            fault = exc
            break
        extend_runs(runs, offset, frame_len)
        offset += frame_len
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

SYNTH_PATTERNS = ("static", "arm-wave", "squat", "walk-cycle")

# Documented joint programs (segment, axis, amplitude rad, frequency Hz).
# arm-wave: upper arms swing 0.5 rad at 1 Hz, forearms flex, hands twist.
# squat: 0.5 Hz crouch: thighs -0.5, shanks +1.0, feet -0.5 (half-cosine).
# walk-cycle: 1 s period: antiphase thighs 0.3 rad, shank flexion, arm swing.
_AXIS_Y = (0.0, 1.0, 0.0)
_AXIS_Z = (0.0, 0.0, 1.0)

ARM_WAVE_AMPLITUDE = 0.5  # rad, upper-arm swing
ARM_WAVE_FREQ = 1.0  # Hz
SQUAT_FREQ = 0.5  # Hz
WALK_PERIOD = 1.0  # s


def _pattern_angles(pattern: str, t: float) -> list[tuple[str, tuple, float]]:
    two_pi = 2.0 * math.pi
    if pattern == "static":
        return []
    if pattern == "arm-wave":
        swing = ARM_WAVE_AMPLITUDE * math.sin(two_pi * ARM_WAVE_FREQ * t)
        flex = 0.6 * 0.5 * (1.0 - math.cos(two_pi * ARM_WAVE_FREQ * t))
        twist = 0.4 * math.sin(two_pi * ARM_WAVE_FREQ * t)
        return [
            ("left_upper_arm", _AXIS_Y, swing),
            ("right_upper_arm", _AXIS_Y, swing),
            ("left_forearm", _AXIS_Y, flex),
            ("right_forearm", _AXIS_Y, flex),
            ("left_hand", _AXIS_Z, twist),
            ("right_hand", _AXIS_Z, -twist),
        ]
    if pattern == "squat":
        crouch = 0.5 * (1.0 - math.cos(two_pi * SQUAT_FREQ * t))
        return [
            ("left_thigh", _AXIS_Y, -0.5 * crouch),
            ("right_thigh", _AXIS_Y, -0.5 * crouch),
            ("left_shank", _AXIS_Y, 1.0 * crouch),
            ("right_shank", _AXIS_Y, 1.0 * crouch),
            ("left_foot", _AXIS_Y, -0.5 * crouch),
            ("right_foot", _AXIS_Y, -0.5 * crouch),
        ]
    if pattern == "walk-cycle":
        phase = two_pi * t / WALK_PERIOD
        stride = 0.3 * math.sin(phase)
        left_lift = 0.2 * 0.5 * (1.0 - math.cos(phase))
        right_lift = 0.2 * 0.5 * (1.0 - math.cos(phase + math.pi))
        arm = 0.2 * math.sin(phase)
        return [
            ("left_thigh", _AXIS_Y, stride),
            ("right_thigh", _AXIS_Y, -stride),
            ("left_shank", _AXIS_Y, left_lift),
            ("right_shank", _AXIS_Y, right_lift),
            ("left_upper_arm", _AXIS_Y, -arm),
            ("right_upper_arm", _AXIS_Y, arm),
        ]
    raise ValueError(f"unknown pattern {pattern!r}; expected one of {SYNTH_PATTERNS}")


def synth_motion(
    pattern: str,
    rate: float,
    duration: float,
    noise_std: float = 0.0,
    seed: int = 0,
    skeleton=None,
) -> Iterator[MocapFrame]:
    """Deterministic synthetic motion on the canonical skeleton, made frame by frame.

    Patterns are the documented sinusoidal joint programs above.  Noise adds
    an independent per-segment small-angle rotation about a random unit axis
    with angle ~ Normal(0, noise_std); identical seeds give byte-identical
    frame sequences.  The arguments are checked at the call; each frame is
    made, and its noise drawn, when the returned iterator is advanced.
    """
    from .model import canonical_skeleton  # local import to avoid cycles

    if not (rate > 0):
        raise ValueError("rate must be positive")
    if not (duration > 0):
        raise ValueError("duration must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    skel = skeleton if skeleton is not None else canonical_skeleton()
    _pattern_angles(pattern, 0.0)  # validate the pattern name up front
    rng = np.random.default_rng(seed)  # here, so a bad seed is rejected at the call
    return _synth_frames(pattern, rate, int(round(rate * duration)), noise_std, rng, skel)


def _synth_frames(pattern: str, rate: float, n_frames: int, noise_std: float, rng, skel) -> Iterator[MocapFrame]:
    index = {s.name: i for i, s in enumerate(skel.segments)}
    for i in range(n_frames):
        t = i / rate
        quats = np.zeros((len(skel.segments), 4))
        quats[:, 0] = 1.0
        for segment, axis, angle in _pattern_angles(pattern, t):
            row = index.get(segment)
            if row is None:
                continue  # pattern only drives segments the skeleton has
            half = 0.5 * angle
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
