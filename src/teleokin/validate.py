"""Kinematic audit of command traces: limits, continuity, self-collisions.

One core judges the rows of an (n, joints) angle window, split by what
each check reads: a row's own checks (soft limits, and sphere self-collision
on forward kinematics) read that row alone; its rate checks
(backward-difference velocity and acceleration) read the rows before it.
The offline checker runs both over the whole trace; the streaming
validator runs the row's own checks on the new command and the rate checks
on a 3-row window of the last two samples plus the new command, so both
report the same violations in the same order.  Velocity is judged against
each joint's configured velocity limit using backward differences at the
nominal period — the report header names that proxy so results can be
re-thresholded.

Self-collision of many rows takes the batch FK and numpy sphere distances in
blocks.  Self-collision of one row (each streamed command) takes the
plain-float row FK, sphere centres and pair distances, so the streaming
validator fits in a 500 Hz control loop.  Both FKs live in ``model`` and
read the chain, sphere and pair tables the model compiles once at load;
this module adds the collision margin to each pair's radius sum, once per
validator and per ``validate_trace`` call, and writes nothing on the
model.  A 500 Hz loop fed at 100-120 Hz repeats most commands as holds, so
the streaming validator keeps the last row's own violations, and a row
bit-identical to it gets them back stamped with its cycle; it skips each
rate whose rows are all bit-identical, which could not fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyTrace
from .geometry import _quat_rotate, quat_rotate_rows
from .model import RobotModel, forward_kinematics_batch, forward_kinematics_row
from .retarget import JointCommand

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


def _collisions(model: RobotModel, limits: list[float], angles: np.ndarray, cycle: int) -> list[Violation]:
    """Self-collision violations of an (n, joints) window whose row 0 is ``cycle``.

    One row takes the plain-float row FK, many rows the batch FK, with
    sphere distances in blocks.  Infinite angles become NaN first: the
    limit check already flags them, and ``sin`` cannot take them.  A NaN
    distance is no collision.
    """
    angles = np.where(np.isinf(angles), np.nan, angles)
    pairs = model.sphere_pairs
    if len(angles) == 1:
        poses = forward_kinematics_row(model, angles[0].tolist())
        centers = []
        for link, center in model.sphere_centers:
            (px, py, pz), q = poses[link]
            dx, dy, dz = _quat_rotate(q, center)
            centers.append((px + dx, py + dy, pz + dz))
        dist = [math.dist(centers[a], centers[b]) for a, b, _, _ in pairs]
        hits = zip(pairs, dist, limits)
        return [Violation("self-collision", cycle, pair, d, limit) for (_, _, pair, _), d, limit in hits if d < limit]
    links, local = map(np.array, zip(*model.sphere_centers))
    a, b, ids, _ = zip(*pairs)
    a, b, limits = np.array(a), np.array(b), np.array(limits)[:, None]
    found = []
    positions, rotations = forward_kinematics_batch(model, angles)
    for block in range(0, len(angles), _BLOCK_ROWS):
        rows = slice(block, block + _BLOCK_ROWS)
        centers = positions[links, rows] + quat_rotate_rows(rotations[links, rows], local[:, None])  # (spheres, m, 3)
        # Per coordinate: gathering whole (pairs, m, 3) rows is several times slower.
        dist = np.sqrt(sum((centers[a, :, c] - centers[b, :, c]) ** 2 for c in range(3)))
        for k, i in zip(*np.nonzero(dist < limits)):
            found.append(
                Violation("self-collision", cycle + block + int(i), ids[k], float(dist[k, i]), float(limits[k, 0]))
            )
    return found


def _pose_violations(model: RobotModel, limits: list[float], angles: np.ndarray, cycle: int) -> list[Violation]:
    """Limit and self-collision violations of an (n, joints) window whose row 0
    is ``cycle``: the checks that read each row alone."""
    names = model.joint_names
    found: list[Violation] = []
    inside = (angles >= model.soft_lower) & (angles <= model.soft_upper)  # False for NaN
    for i, j in zip(*np.nonzero(~inside)):
        value = angles[i, j]
        bound = model.soft_upper[j] if value > model.soft_upper[j] else model.soft_lower[j]
        found.append(Violation("limit", cycle + int(i), names[j], float(value), float(bound)))
    if limits:
        found.extend(_collisions(model, limits, angles, cycle))
    return found


def _rate_violations(
    model: RobotModel, thresholds: Thresholds, angles: np.ndarray, dt: float, first: int, cycle: int, settled: int = 0
) -> list[Violation]:
    """Velocity and acceleration violations of rows ``first:`` of an (n, joints)
    window: the checks that read the rows before.

    Row ``first`` is cycle ``cycle``; earlier rows only feed the backward
    differences.  Rates of order ``settled`` or lower are skipped: the
    caller knows that the rows they read are bit-identical, so every
    difference is 0 or NaN, and no positive limit is exceeded.
    """
    names = model.joint_names
    found: list[Violation] = []
    rates = [("velocity", 1, dt, model.velocity_limits)]
    if thresholds.acceleration_limit is not None:
        limit = np.full(len(names), thresholds.acceleration_limit)
        rates.append(("acceleration", 2, dt * dt, limit))
    for kind, order, scale, limit in rates[settled:]:  # ordered by order, 1 then 2
        start = max(first - order, 0)  # difference row k judges window row start + order + k
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, no rate violation; the limit check flags inf
            rate = np.abs(np.diff(angles[start:], n=order, axis=0)) / scale
        for i, j in zip(*np.nonzero(rate > limit)):
            at = cycle + start + order - first + int(i)
            found.append(Violation(kind, at, names[j], float(rate[i, j]), float(limit[j])))
    return found


def _report_order(v: Violation) -> tuple:
    return v.cycle, KINDS.index(v.kind), v.identifier


def _angles_matrix(model: RobotModel, trace) -> np.ndarray:
    if not trace:
        raise EmptyTrace("no commands to validate")
    n_joints = len(model)
    for cmd in trace:
        if len(cmd.angles) != n_joints:
            raise DimensionMismatch(
                f"command has {len(cmd.angles)} angles, model has {n_joints} joints"
            )
    return np.array([cmd.angles for cmd in trace], dtype=float)


def _checked_period_us(period_us: float) -> float:
    # A negative period makes every rate negative, so no rate check could trip.
    if not (0 < period_us < math.inf):
        raise ValueError(f"period_us must be positive and finite, got {period_us}")
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
    found = _pose_violations(model, _pair_limits(model, thresholds.collision_margin), angles, 0)
    found += _rate_violations(model, thresholds, angles, period_us / 1e6, 0, 0)
    violations = sorted(found, key=_report_order)
    return ValidationReport(violations, cycles=len(trace), period_us=period_us, thresholds=thresholds)


class IncrementalValidator:
    """Streaming validator with the sink protocol (``emit``/``close``/``report``).

    Each command is judged by the same checks as ``validate_trace``: its
    own (limit, self-collision) on its row, its rates on a window of the
    last two samples plus the new one.  A row bit-identical to the previous
    one reuses that row's own violations, stamped with the new cycle, and a
    rate of order k is skipped when the k rows before the new one are
    bit-identical to it: its differences are 0 or NaN, under any positive
    limit.  So a hold with the acceleration check off does no rate work,
    and with it on only the first hold after a fresh row computes its
    acceleration.  Without ``period_us`` the period is inferred as
    ``validate_trace`` infers it, from the first two commands, and holds for
    the rest of the stream.  A live stream should pass ``period_us``: its
    first two commands can be 0-4 ms apart.
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
        self._tail = np.empty((0, len(model)))
        self._cycle = 0
        self._first = None
        self._pose = (None, [])  # (row bytes, that row's pose violations)
        self._repeats = 0  # rows just before the last one bit-identical to it, at most 2

    def _period_us(self) -> float:
        return self.period_us if self.period_us is not None else 1.0

    def emit(self, cmd: JointCommand) -> None:
        row = _angles_matrix(self.model, [cmd])
        if self._cycle == 0:
            self._first = cmd
        elif self.period_us is None:
            self.period_us = _infer_period_us([self._first, cmd])
        key = row.tobytes()
        if self._pose[0] == key:
            self._repeats = min(self._repeats + 1, 2)
        else:
            self._repeats = 0
            self._pose = (key, _pose_violations(self.model, self._limits, row, 0))
        found = [Violation(v.kind, self._cycle, v.identifier, v.value, v.threshold) for v in self._pose[1]]
        if self._repeats < 2:  # else no rate can fire, and the tail already holds the row twice
            window = np.concatenate([self._tail, row])
            dt = self._period_us() / 1e6
            found += _rate_violations(self.model, self.thresholds, window, dt, len(window) - 1, self._cycle, self._repeats)
            self._tail = window[-2:]
        self.violations.extend(sorted(found, key=_report_order))
        self._cycle += 1

    def close(self) -> None:
        pass

    def report(self) -> ValidationReport:
        if self._cycle == 0:
            raise EmptyTrace("no commands were streamed into the validator")
        return ValidationReport(
            list(self.violations), cycles=self._cycle, period_us=self._period_us(), thresholds=self.thresholds
        )
