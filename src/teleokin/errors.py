"""Exception types shared across the package.

Decode errors (``BadMagic``, ``UnsupportedVersion``, ``TruncatedFrame``,
``CrcMismatch``, ``DegenerateQuaternion``) mean discard this frame, datagram,
record or file, never a crash; all three wire formats raise only these.
Loaders raise ``ParseError`` / ``ValidationError`` with enough context to
point at the offending line.
"""

from __future__ import annotations


class TeleokinError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateQuaternion(TeleokinError):
    """Quaternion norm too small, or not finite, to represent a rotation (corrupt data)."""


class DimensionMismatch(TeleokinError):
    """A vector's length does not match the model's joint count."""


class NonFiniteAngle(TeleokinError):
    """A joint angle is NaN or infinite, so no soft interval can hold it."""


class ParseError(TeleokinError):
    """Syntax error in a config document or binary stream."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, col {column}: {message}")


class ValidationError(TeleokinError):
    """A named semantic constraint was violated in a loaded document."""


class CoverageError(ValidationError):
    """Retarget map does not cover the robot's joints exactly once."""


class UnknownReference(ValidationError):
    """A document refers to a segment, link, joint, or sphere that does not exist."""


class BadMagic(TeleokinError):
    """Frame, datagram or file does not start with the expected magic bytes."""


class UnsupportedVersion(TeleokinError):
    """Frame or datagram carries a protocol version this codec does not speak."""


class TruncatedFrame(TeleokinError):
    """Frame, datagram or record is shorter (or longer) than its header declares."""


class CrcMismatch(TeleokinError):
    """Frame, datagram or record checksum does not match its payload."""


class EmptyRecording(TeleokinError):
    """A recording with zero frames cannot be scheduled."""


class UnorderedTimestamps(TeleokinError):
    """A scheduled frame is stamped earlier than the frame before it."""


class SinkBackpressure(TeleokinError):
    """A sink took longer than the loop period for too many consecutive cycles.

    Carries the loop metrics collected up to the abort in ``metrics``.
    """

    def __init__(self, message: str, metrics=None):
        self.metrics = metrics
        super().__init__(message)


class EmptyTrace(TeleokinError):
    """A trace with zero commands cannot be validated."""
