"""Kinematic audit of command traces: limits, continuity, self-collisions.

The checks split by what each reads: a row's own checks (soft limits, and
sphere self-collision on forward kinematics) read that row alone; its rate
checks (backward-difference velocity and acceleration) read the rows before
it.  Velocity is judged against each joint's configured velocity limit using
backward differences at the nominal period — the report header names that
proxy so results can be re-thresholded.

The offline checker, ``validate_trace``, runs each check over the whole
trace in numpy: a limit mask, ``np.diff`` for the rates, and the batch FK
with numpy sphere distances in blocks for self-collision.  The streaming
validator judges one command per call in plain floats, so it fits in a
500 Hz control loop: the row's limits against the model's float bounds, its
self-collision on the plain-float row FK, which gives the batch FK's bits
(see ``forward_kinematics_row``), each pair near its limit measured by the
batch arithmetic, and its rates against the last two rows kept as float
lists, with ``np.diff``'s IEEE arithmetic.  ``validate_trace`` is its
oracle: both report the same violations, bit for bit, in the same order.
Both FKs live in ``model`` and read the chain, sphere and pair tables the
model compiles once at load; this module adds the collision margin to each
pair's radius sum, once per validator and per ``validate_trace`` call, and
writes nothing on the model.  A 500 Hz loop fed at 100-120 Hz repeats most
commands as holds, so the streaming validator keeps the last row's own
violations, and a row bit-identical to it gets them back stamped with its
cycle; it skips each rate whose rows are all bit-identical, which could not
fire.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyTrace
from .geometry import _quat_rotate, quat_rotate_rows
from .model import RobotModel, forward_kinematics_batch, forward_kinematics_row
from .wire import JointCommand

KINDS = ("limit", "velocity", "acceleration", "self-collision")

# Trace rows per self-collision block: keeps the (rows, pairs) temporaries
# small, so an audit's peak memory stays near that of its FK poses.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class Thresholds:
    """Audit thresholds beyond the per-joint limits carried by the model.

    The acceleration check is off by default (``acceleration_limit=None``),
    leaving the core battery: limits, velocity, and self-collision.  A loop
    faster than its source holds between fresh frames, so its own output
    fails any finite limit.  Frozen, because a validator adds the
    collision margin to its pair limits once.
    """

    acceleration_limit: float | None = None  # rad/s^2
    collision_margin: float = 0.0  # meters of required extra clearance

    def __post_init__(self):
        if self.acceleration_limit is not None and not (self.acceleration_limit > 0):
            raise ValueError("acceleration_limit must be positive or None")
        # NaN fails this too: every distance would compare False, so no pair could collide.
        if not (0 <= self.collision_margin < math.inf):
            raise ValueError(f"collision_margin must be finite and non-negative, got {self.collision_margin}")


@dataclass
class Violation:
    kind: str
    cycle: int
    identifier: str  # joint name, or "linkA/i,linkB/j" for sphere pairs
    value: float
    threshold: float

    def line(self) -> str:
        return f"{self.kind} {self.cycle} {self.identifier} {self.value:.9g} {self.threshold:.9g}"


@dataclass
class ValidationReport:
    violations: list[Violation]
    cycles: int
    period_us: float
    thresholds: Thresholds
    counts: dict[str, int] = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.counts = {kind: 0 for kind in KINDS}
        for v in self.violations:
            self.counts[v.kind] += 1
        self.passed = not self.violations

    def format(self) -> str:
        acc = self.thresholds.acceleration_limit
        lines = [
            "# kinematic trace audit",
            f"# cycles={self.cycles} period_us={self.period_us:.9g}",
            "# velocity threshold: per-joint vmax from the robot model",
            f"# acceleration_limit={'off' if acc is None else acc}"
            f" collision_margin={self.thresholds.collision_margin}",
            f"verdict={'pass' if self.passed else 'fail'}",
            " ".join(f"{kind}={self.counts[kind]}" for kind in KINDS),
        ]
        lines.extend(v.line() for v in self.violations)
        return "\n".join(lines) + "\n"


def collision_pairs(model: RobotModel) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """All sphere pairs that must be checked: different links, not excluded."""
    refs = model.sphere_refs
    return [(refs[a], refs[b]) for a, b, _, _ in model.sphere_pairs]


def _pair_limits(model: RobotModel, margin: float) -> list[float]:
    """The distance each checked pair must keep: ``(ra + rb) + margin``."""
    return [reach + margin for _, _, _, reach in model.sphere_pairs]


def _collisions(model: RobotModel, limits: list[float], angles: np.ndarray) -> list[Violation]:
    """Self-collision violations of an (n, joints) trace, row i being cycle i.

    The batch FK, with sphere distances in blocks.  Infinite angles become
    NaN first: the limit check already flags them.  A NaN distance is no
    collision.
    """
    angles = np.where(np.isinf(angles), np.nan, angles)
    links, local = map(np.array, zip(*model.sphere_centers))
    a, b, ids, _ = zip(*model.sphere_pairs)
    a, b, limits = np.array(a), np.array(b), np.array(limits)[:, None]
    found = []
    positions, rotations = forward_kinematics_batch(model, angles)
    for block in range(0, len(angles), _BLOCK_ROWS):
        rows = slice(block, block + _BLOCK_ROWS)
        centers = positions[links, rows] + quat_rotate_rows(rotations[links, rows], local[:, None])  # (spheres, m, 3)
        # Per coordinate: gathering whole (pairs, m, 3) rows is several times slower.
        dist = np.sqrt(sum((centers[a, :, c] - centers[b, :, c]) ** 2 for c in range(3)))
        for k, i in zip(*np.nonzero(dist < limits)):
            found.append(Violation("self-collision", block + int(i), ids[k], float(dist[k, i]), float(limits[k, 0])))
    return found


def _row_collisions(model: RobotModel, limits: list[float], row: list) -> list[Violation]:
    """Self-collision violations of one row of finite or NaN floats, as cycle 0:
    the plain-float row FK, sphere centres and pair distances.

    ``math.dist`` screens the pairs; one under its limit, or less than a
    relative 1e-12 above it, is measured again as ``_collisions`` measures
    it, so both validators judge one distance.
    """
    poses = forward_kinematics_row(model, row)
    centers = []
    for link, center in model.sphere_centers:
        (px, py, pz), q = poses[link]
        dx, dy, dz = _quat_rotate(q, center)
        centers.append((px + dx, py + dy, pz + dz))
    found = []
    for (a, b, pair, _), limit in zip(model.sphere_pairs, limits):
        if math.dist(centers[a], centers[b]) < limit * (1 + 1e-12):
            (ax, ay, az), (bx, by, bz) = centers[a], centers[b]
            dx, dy, dz = ax - bx, ay - by, az - bz
            d = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if d < limit:
                found.append(Violation("self-collision", 0, pair, d, limit))
    return found


def _pose_violations(model: RobotModel, limits: list[float], angles: np.ndarray) -> list[Violation]:
    """Limit and self-collision violations of an (n, joints) trace, row i being
    cycle i: the checks that read each row alone."""
    names = model.joint_names
    found: list[Violation] = []
    inside = (angles >= model.soft_lower) & (angles <= model.soft_upper)  # False for NaN
    for i, j in zip(*np.nonzero(~inside)):
        value = angles[i, j]
        bound = model.soft_upper[j] if value > model.soft_upper[j] else model.soft_lower[j]
        found.append(Violation("limit", int(i), names[j], float(value), float(bound)))
    if limits:
        found.extend(_collisions(model, limits, angles))
    return found


def _rate_violations(model: RobotModel, thresholds: Thresholds, angles: np.ndarray, dt: float) -> list[Violation]:
    """Velocity and acceleration violations of an (n, joints) trace, row i
    being cycle i: the checks that read the rows before.  A rate of order k
    is first judged at row k."""
    names = model.joint_names
    found: list[Violation] = []
    rates = [("velocity", 1, dt, model.velocity_limits)]
    if thresholds.acceleration_limit is not None:
        limit = np.full(len(names), thresholds.acceleration_limit)
        rates.append(("acceleration", 2, dt * dt, limit))
    for kind, order, scale, limit in rates:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, no rate violation; the limit check flags inf
            rate = np.abs(np.diff(angles, n=order, axis=0)) / scale
        for i, j in zip(*np.nonzero(rate > limit)):
            found.append(Violation(kind, order + int(i), names[j], float(rate[i, j]), float(limit[j])))
    return found


def _report_order(v: Violation) -> tuple:
    return v.cycle, KINDS.index(v.kind), v.identifier


def _length_mismatch(angles, n_joints: int) -> DimensionMismatch:
    return DimensionMismatch(f"command has {len(angles)} angles, model has {n_joints} joints")


def _angles_matrix(model: RobotModel, trace) -> np.ndarray:
    if not trace:
        raise EmptyTrace("no commands to validate")
    n_joints = len(model)
    for cmd in trace:
        if len(cmd.angles) != n_joints:
            raise _length_mismatch(cmd.angles, n_joints)
    return np.array([cmd.angles for cmd in trace], dtype=float)


def _checked_period_us(period_us: float) -> float:
    # A negative period makes every rate negative, so no rate check could trip;
    # one whose square in seconds underflows to 0 leaves the acceleration a
    # zero divisor.
    if not (0 < period_us < math.inf) or (period_us / 1e6) ** 2 == 0:
        raise ValueError(f"period_us must be positive and finite, with a non-zero square, got {period_us}")
    return period_us


def _infer_period_us(trace) -> float:
    """The emission span over the seq span from the first to the last command; 1.0 unless positive."""
    first, last = trace[0], trace[-1]
    seqs = last.seq - first.seq
    period = (last.emission_timestamp_us - first.emission_timestamp_us) / seqs if seqs else 0.0
    return period if period > 0 else 1.0


def validate_trace(
    model: RobotModel,
    trace,
    thresholds: Thresholds | None = None,
    period_us: float | None = None,
) -> ValidationReport:
    """Audit a command sequence against the model.

    Per sample: angles against the soft intervals (a non-finite angle is
    outside them); backward-difference velocity against each joint's vmax;
    optional second-difference acceleration; and sphere self-collision on
    forward kinematics.  Hold commands participate like any other sample.
    ``period_us`` must be positive and finite; it defaults to the trace's
    emission-timestamp span over its seq span.
    """
    trace = list(trace)
    thresholds = thresholds or Thresholds()
    angles = _angles_matrix(model, trace)
    period_us = _infer_period_us(trace) if period_us is None else _checked_period_us(period_us)
    found = _pose_violations(model, _pair_limits(model, thresholds.collision_margin), angles)
    found += _rate_violations(model, thresholds, angles, period_us / 1e6)
    violations = sorted(found, key=_report_order)
    return ValidationReport(violations, cycles=len(trace), period_us=period_us, thresholds=thresholds)


class IncrementalValidator:
    """Streaming validator with the sink protocol (``emit``/``close``/``report``).

    Each command is judged by the same checks as ``validate_trace``, in
    plain floats: its own (limit, self-collision) on its row, its rates
    against the last two rows.  Each angle is taken as the Python float
    ``float(angle)`` gives, whatever its type, as ``validate_trace`` takes it.  The
    arithmetic is ``validate_trace``'s (a value outside ``lo <= v <= hi``
    breaks its limit; see ``_rate`` for the rates), so both report the same
    violations, bit for bit, in the same order.  A row bit-identical to the previous one (its packed doubles:
    ``-0.0`` is not ``0.0``, and NaN payloads count) reuses that row's own
    violations, stamped with the new cycle, and a rate of order k is skipped
    when the k rows before the new one are bit-identical to it: its
    differences are 0 or NaN, under any positive limit.  So a hold with the
    acceleration check off does no rate work, and with it on only the first
    hold after a fresh row computes its acceleration.  Without ``period_us`` the period is
    inferred as ``validate_trace`` infers it, from the first two commands,
    and holds for the rest of the stream.  A live stream should pass
    ``period_us``: its first two commands can be 0-4 ms apart.
    """

    def __init__(
        self,
        model: RobotModel,
        thresholds: Thresholds | None = None,
        period_us: float | None = None,
    ):
        self.model = model
        self.thresholds = thresholds or Thresholds()
        self.period_us = period_us if period_us is None else _checked_period_us(period_us)
        self.violations: list[Violation] = []
        self._limits = _pair_limits(model, self.thresholds.collision_margin)
        self._names = model.joint_names
        self._rates = [("velocity", model.velocity_limits.tolist())]  # (kind, per-joint limits) by order
        if self.thresholds.acceleration_limit is not None:
            self._rates.append(("acceleration", [float(self.thresholds.acceleration_limit)] * len(model)))
        row_struct = struct.Struct(f"<{len(model)}d")
        self._pack, self._unpack = row_struct.pack, row_struct.unpack
        self._tail: list[list] = []  # the last two rows, oldest first
        self._cycle = 0
        self._first = None
        self._pose = (None, [])  # (row bytes, that row's pose violations)
        self._repeats = 0  # rows just before the last one bit-identical to it, at most 2

    def _period_us(self) -> float:
        return self.period_us if self.period_us is not None else 1.0

    def emit(self, cmd: JointCommand) -> None:
        angles = cmd.angles
        if len(angles) != len(self._names):
            raise _length_mismatch(angles, len(self._names))
        key = self._pack(*angles)
        row = list(self._unpack(key))  # each item as the Python float float(item) gives
        if self._cycle == 0:
            self._first = cmd
        elif self.period_us is None:
            self.period_us = _infer_period_us([self._first, cmd])
        if self._pose[0] == key:
            self._repeats = min(self._repeats + 1, 2)
        else:
            self._repeats = 0
            self._pose = (key, self._own_violations(row))
        found = [Violation(v.kind, self._cycle, v.identifier, v.value, v.threshold) for v in self._pose[1]]
        if self._repeats < 2:  # else no rate can fire, and the tail already holds the row twice
            window = self._tail + [row]
            for order in range(self._repeats + 1, len(self._rates) + 1):
                found += self._rate(order, window)
            self._tail = window[-2:]
        self.violations.extend(sorted(found, key=_report_order))
        self._cycle += 1

    def _own_violations(self, row: list) -> list[Violation]:
        """The row's limit and self-collision violations, as cycle 0."""
        found = [
            Violation("limit", 0, name, v, hi if v > hi else lo)
            for name, v, (lo, hi) in zip(self._names, row, self.model.soft_bounds)
            if not lo <= v <= hi  # False for NaN
        ]
        if self._limits:
            if any(math.isinf(v.value) for v in found):  # only a value off its limits can be infinite
                row = [math.nan if math.isinf(v) else v for v in row]  # sin cannot take inf
            found += _row_collisions(self.model, self._limits, row)
        return found

    def _rate(self, order: int, window: list) -> list[Violation]:
        """The violations of one rate at the last of ``window``'s rows (oldest
        first), as ``np.diff`` computes it: velocity ``abs(c - b) / dt`` at
        order 1, acceleration ``abs((c - b) - (b - a)) / (dt*dt)`` at order 2;
        none while the window has ``order`` rows or fewer."""
        if len(window) <= order:
            return []
        dt = self._period_us() / 1e6
        if order == 1:
            b, c = window[-2:]
            rates = [abs(y - x) / dt for x, y in zip(b, c)]
        else:
            a, b, c = window
            scale = dt * dt
            rates = [abs((z - y) - (y - x)) / scale for x, y, z in zip(a, b, c)]
        kind, limits = self._rates[order - 1]
        hits = zip(self._names, rates, limits)
        return [Violation(kind, self._cycle, name, rate, limit) for name, rate, limit in hits if rate > limit]

    def close(self) -> None:
        pass

    def report(self) -> ValidationReport:
        if self._cycle == 0:
            raise EmptyTrace("no commands were streamed into the validator")
        return ValidationReport(
            list(self.violations), cycles=self._cycle, period_us=self._period_us(), thresholds=self.thresholds
        )
