"""Benchmark inputs and reference checks, kept independent of the program.

The wire codecs here are written from the format description in the
README, not imported from ``teleokin``, so that the generator's cost does
not change when the program's encoder does, and so that the checks on the
program's outputs do not trust the program's own decoder.  The retarget
oracle re-derives every joint angle from the map file with the scalar
``swing_twist`` / ``euler_decompose`` functions.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

FRAME_MAGIC = b"MOC1"
RECORDING_MAGIC = b"MOCREC01"
COMMAND_MAGIC = b"CMD1"
TRACE_MAGIC = b"CMDTRC01"

_FRAME_HEAD = struct.Struct("<4sBBIQB")
_COMMAND_PREFIX = struct.Struct("<4sB")
_RECORD_HEAD = struct.Struct("<IIQQB")
_CRC = struct.Struct("<I")

LOOP_RATE_HZ = 500
PERIOD_US = 2000
TAU_S = 0.020


# ---------------------------------------------------------------------------
# Wire formats


def encode_frame(seq: int, timestamp_us: int, quats: np.ndarray) -> bytes:
    """One MOC1 frame: header, float32 w x y z per segment, CRC-32."""
    body = _FRAME_HEAD.pack(FRAME_MAGIC, 1, 0, seq & 0xFFFFFFFF, timestamp_us, len(quats))
    body += np.ascontiguousarray(quats, dtype="<f4").tobytes()
    return body + _CRC.pack(zlib.crc32(body))


def write_recording(path, frames) -> None:
    """``frames``: iterable of (seq, timestamp_us, quats)."""
    with open(path, "wb") as fh:
        fh.write(RECORDING_MAGIC)
        for seq, ts, quats in frames:
            fh.write(encode_frame(seq, ts, quats))


def read_recording_orientations(path) -> list[np.ndarray]:
    """Decode a MOCREC01 file to unit, canonical-sign float64 orientations."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != RECORDING_MAGIC:
        raise ValueError("not a recording")
    out = []
    offset = 8
    while offset < len(data):
        count = data[offset + _FRAME_HEAD.size - 1]
        end = offset + _FRAME_HEAD.size + 16 * count
        quats = np.frombuffer(data, "<f4", count * 4, offset + _FRAME_HEAD.size)
        quats = quats.reshape(count, 4).astype(np.float64)
        quats /= np.linalg.norm(quats, axis=1)[:, None]
        quats[quats[:, 0] < 0] *= -1.0
        out.append(quats)
        offset = end + _CRC.size
    return out


def decode_command_datagram(data: bytes):
    """Decode one CMD1 datagram; None when its framing or CRC is wrong.

    Returns (seq, source_seq, source_timestamp_us, angles, hold).
    """
    if len(data) < _COMMAND_PREFIX.size + _RECORD_HEAD.size + _CRC.size:
        return None
    magic, version = _COMMAND_PREFIX.unpack_from(data)
    if magic != COMMAND_MAGIC or version != 1:
        return None
    record = _decode_record(data, _COMMAND_PREFIX.size)
    if record is None or record[1] != len(data):
        return None
    return record[0]


def read_trace_records(path) -> list:
    """Decode a CMDTRC01 file; raises ValueError on any framing or CRC fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != TRACE_MAGIC:
        raise ValueError("not a command trace")
    records, offset = [], 8
    while offset < len(data):
        decoded = _decode_record(data, offset, covered_from=offset)
        if decoded is None:
            raise ValueError(f"bad trace record at byte {offset}")
        records.append(decoded[0])
        offset = decoded[1]
    return records


def _decode_record(data: bytes, offset: int, covered_from: int = 0):
    if len(data) - offset < _RECORD_HEAD.size:
        return None
    seq, source_seq, source_ts, _emission, count = _RECORD_HEAD.unpack_from(data, offset)
    angles_at = offset + _RECORD_HEAD.size
    end = angles_at + 8 * count + 1
    if len(data) < end + _CRC.size:
        return None
    (crc,) = _CRC.unpack_from(data, end)
    if crc != zlib.crc32(data[covered_from:end]):
        return None
    angles = np.frombuffer(data, "<f8", count, angles_at).copy()
    return (seq, source_seq, source_ts, angles, data[end - 1] != 0), end + _CRC.size


# ---------------------------------------------------------------------------
# Configuration, read from the bundled sample files' documented grammar


def _directives(text: str):
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            keys = dict(t.split("=", 1) for t in tokens[2:] if "=" in t)
            yield tokens[0], tokens[1], keys


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


class Reference:
    """Joint limits and map rules as the configuration files state them."""

    def __init__(self, robot_text: str, skeleton_text: str, map_text: str):
        joints = [(name, keys) for kind, name, keys in _directives(robot_text) if kind == "joint"]
        self.joint_names = [name for name, _ in joints]
        limits = np.array([_floats(keys["limits"]) for _, keys in joints])
        soft = np.array([float(keys["soft"]) for _, keys in joints])
        self.soft_lower = limits[:, 0] + soft
        self.soft_upper = limits[:, 1] - soft
        self.default_angles = np.array([float(keys["default"]) for _, keys in joints])
        self.segments = segments = [name for kind, name, _ in _directives(skeleton_text) if kind == "segment"]
        joint_at = {name: i for i, name in enumerate(self.joint_names)}
        self.twist_rules = []  # (joint, segment, axis, sign, scale, offset)
        self.triple_rules = []  # (joints, segment, order, signs, scales, offsets)
        for kind, name, keys in _directives(map_text):
            segment = segments.index(keys.get("segment", ""))
            if kind == "map":
                axis = np.array(_floats(keys["axis"]))
                self.twist_rules.append(
                    (joint_at[name], segment, axis / np.linalg.norm(axis),
                     float(keys["sign"]), float(keys["scale"]), float(keys["offset"]))
                )
            elif kind == "map3":
                self.triple_rules.append(
                    (tuple(joint_at[j] for j in name.split(",")), segment, keys["order"].upper(),
                     _floats(keys["signs"]), _floats(keys["scales"]), _floats(keys["offsets"]))
                )

    def map_angles(self, quats: np.ndarray, swing_twist, euler_decompose) -> np.ndarray:
        """Raw joint angles for one frame, computed with the scalar oracles."""
        angles = self.default_angles.copy()
        for joint, segment, axis, sign, scale, offset in self.twist_rules:
            _, twist = swing_twist(quats[segment], axis)
            angles[joint] = sign * scale * twist + offset
        for joints, segment, order, signs, scales, offsets in self.triple_rules:
            decomposed, _ = euler_decompose(quats[segment], order)
            for slot, joint in enumerate(joints):
                angles[joint] = signs[slot] * scales[slot] * float(decomposed[slot]) + offsets[slot]
        return angles

    def expected_trace(self, orientations, swing_twist, euler_decompose) -> np.ndarray:
        """Map -> exponential smoothing -> soft-limit clamp, one row per frame."""
        alpha = 1.0 - math.exp(-(PERIOD_US / 1e6) / TAU_S)
        rows, previous = [], None
        for quats in orientations:
            raw = self.map_angles(quats, swing_twist, euler_decompose)
            previous = raw if previous is None else alpha * raw + (1.0 - alpha) * previous
            rows.append(np.clip(previous, self.soft_lower, self.soft_upper))
        return np.array(rows)

    def within_limits(self, angles: np.ndarray) -> bool:
        return bool(np.all((angles >= self.soft_lower) & (angles <= self.soft_upper)))


# ---------------------------------------------------------------------------
# Generated motion


def random_poses(count: int, segments: int, seed: int) -> list[np.ndarray]:
    """Independent uniformly random unit orientations for every segment."""
    rng = np.random.default_rng(seed)
    quats = rng.normal(size=(count, segments, 4))
    quats /= np.linalg.norm(quats, axis=2)[:, :, None]
    return list(quats)
