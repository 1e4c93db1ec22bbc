"""Kinematic audit of command traces: limits, continuity, self-collisions.

One core judges the rows of an (n, joints) angle window: soft limits,
backward-difference velocity and acceleration, and sphere self-collision on
forward kinematics.  The offline checker runs it once over the whole trace;
the streaming validator keeps the last two samples and runs it on a 3-row
window whose last row is the new command, so both report the same
violations in the same order and the streaming one is safe to call from a
control loop.  Velocity is judged against each joint's configured velocity
limit using backward differences at the nominal period — the report header
names that proxy so results can be re-thresholded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyTrace
from .geometry import quat_rotate_rows
from .model import LinkPose, RobotModel, forward_kinematics, forward_kinematics_batch
from .retarget import JointCommand

KINDS = ("limit", "velocity", "acceleration", "self-collision")

# Trace rows per self-collision block: keeps the (rows, pairs) temporaries
# small, so an audit's peak memory stays near that of its FK poses.
_BLOCK_ROWS = 128


@dataclass
class Thresholds:
    """Audit thresholds beyond the per-joint limits carried by the model.

    ``acceleration_limit=None`` disables the acceleration check, leaving the
    core battery: limits, velocity, and self-collision.
    """

    acceleration_limit: float | None = 200.0  # rad/s^2
    collision_margin: float = 0.0  # meters of required extra clearance

    def __post_init__(self):
        if self.acceleration_limit is not None and not (self.acceleration_limit > 0):
            raise ValueError("acceleration_limit must be positive or None")
        if self.collision_margin < 0:
            raise ValueError("collision_margin must be non-negative")


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


class _SphereTable:
    """A model's collision spheres and the pairs to check, as index arrays."""

    def __init__(self, model: RobotModel):
        per_link: dict[str, int] = {}
        self.refs = []  # (link, index within the link) of every sphere
        for s in model.spheres:
            per_link[s.link] = per_link.get(s.link, 0) + 1
            self.refs.append((s.link, per_link[s.link] - 1))
        excluded = {frozenset(pair) for pair in model.exclusions}
        pairs = [
            (i, j)
            for i, a in enumerate(self.refs)
            for j, b in enumerate(self.refs[i + 1 :], start=i + 1)
            if a[0] != b[0] and frozenset([a, b]) not in excluded
        ]
        self.a = np.array([i for i, _ in pairs], dtype=np.intp)
        self.b = np.array([j for _, j in pairs], dtype=np.intp)
        self.ids = ["{}/{},{}/{}".format(*self.refs[i], *self.refs[j]) for i, j in pairs]
        self.links = [s.link for s in model.spheres]
        self.centers = np.array([s.center for s in model.spheres]).reshape(-1, 3)
        radii = np.array([s.radius for s in model.spheres])
        self.radii = radii[self.a] + radii[self.b]

    def distances(self, poses: dict[str, LinkPose], rows: slice) -> np.ndarray:
        """(m, pairs) sphere-centre distances for ``rows`` of batch-shaped poses."""
        position = np.stack([poses[link].position[rows] for link in self.links], axis=1)
        rotation = np.stack([poses[link].rotation[rows] for link in self.links], axis=1)
        centers = position + quat_rotate_rows(rotation, self.centers)
        # Per coordinate: gathering whole (m, pairs, 3) rows is several times slower.
        return np.sqrt(sum((centers[:, self.a, c] - centers[:, self.b, c]) ** 2 for c in range(3)))


def collision_pairs(model: RobotModel) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """All sphere pairs that must be checked: different links, not excluded."""
    table = _SphereTable(model)
    return [(table.refs[i], table.refs[j]) for i, j in zip(table.a, table.b)]


def _link_poses(model: RobotModel, angles: np.ndarray) -> dict[str, LinkPose]:
    """FK of an (n, joints) window as (n, 3) positions and (n, 4) rotations.

    One row takes the scalar FK, which is several times faster than the
    batch FK at n=1.  Infinite angles become NaN first: the limit check
    already flags them, and the scalar FK cannot take them.
    """
    angles = np.where(np.isinf(angles), np.nan, angles)
    if len(angles) > 1:
        return forward_kinematics_batch(model, angles)
    poses = forward_kinematics(model, angles[0])
    return {link: LinkPose(p[None], q[None]) for link, (p, q) in poses.items()}


def _judge(
    model: RobotModel,
    spheres: _SphereTable,
    thresholds: Thresholds,
    angles: np.ndarray,
    dt: float,
    first: int,
    cycle: int,
) -> list[Violation]:
    """The four checks on rows ``first:`` of an (n, joints) angle window.

    Row ``first`` is cycle ``cycle``; earlier rows only feed the backward
    differences.  Returns violations sorted by cycle, kind, identifier.
    """
    names = model.joint_names
    judged = angles[first:]
    found: list[Violation] = []

    inside = (judged >= model.soft_lower) & (judged <= model.soft_upper)  # False for NaN
    for i, j in zip(*np.nonzero(~inside)):
        value = judged[i, j]
        bound = model.soft_upper[j] if value > model.soft_upper[j] else model.soft_lower[j]
        found.append(Violation("limit", cycle + int(i), names[j], float(value), float(bound)))

    rates = [("velocity", 1, dt, model.velocity_limits)]
    if thresholds.acceleration_limit is not None:
        limit = np.full(len(names), thresholds.acceleration_limit)
        rates.append(("acceleration", 2, dt * dt, limit))
    for kind, order, scale, limit in rates:
        start = max(first - order, 0)  # difference row k judges window row start + order + k
        rate = np.abs(np.diff(angles[start:], n=order, axis=0)) / scale
        for i, j in zip(*np.nonzero(rate > limit)):
            found.append(
                Violation(
                    kind,
                    cycle + start + order - first + int(i),
                    names[j],
                    float(rate[i, j]),
                    float(limit[j]),
                )
            )

    if spheres.ids:
        poses = _link_poses(model, judged)
        limit = spheres.radii + thresholds.collision_margin
        for block in range(0, len(judged), _BLOCK_ROWS):
            dist = spheres.distances(poses, slice(block, block + _BLOCK_ROWS))
            for i, k in zip(*np.nonzero(dist < limit)):
                found.append(
                    Violation(
                        "self-collision",
                        cycle + block + int(i),
                        spheres.ids[k],
                        float(dist[i, k]),
                        float(limit[k]),
                    )
                )

    found.sort(key=lambda v: (v.cycle, KINDS.index(v.kind), v.identifier))
    return found


def _angles_matrix(model: RobotModel, trace) -> np.ndarray:
    if not trace:
        raise EmptyTrace("no commands to validate")
    n_joints = len(model)
    for cmd in trace:
        if len(cmd.angles) != n_joints:
            raise DimensionMismatch(
                f"command has {len(cmd.angles)} angles, model has {n_joints} joints"
            )
    return np.stack([np.asarray(cmd.angles, dtype=float) for cmd in trace])


def _checked_period_us(period_us: float) -> float:
    # A negative period makes every rate negative, so no rate check could trip.
    if not (0 < period_us < math.inf):
        raise ValueError(f"period_us must be positive and finite, got {period_us}")
    return period_us


def _infer_period_us(trace) -> float:
    if len(trace) < 2:
        return 1.0
    deltas = np.diff([cmd.emission_timestamp_us for cmd in trace])
    period = float(np.median(deltas))
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
    ``period_us`` must be positive and finite; it defaults to the median
    emission-timestamp delta of the trace.
    """
    trace = list(trace)
    thresholds = thresholds or Thresholds()
    angles = _angles_matrix(model, trace)
    period_us = _infer_period_us(trace) if period_us is None else _checked_period_us(period_us)
    violations = _judge(model, _SphereTable(model), thresholds, angles, period_us / 1e6, 0, 0)
    return ValidationReport(violations, cycles=len(trace), period_us=period_us, thresholds=thresholds)


class IncrementalValidator:
    """Streaming validator with the sink protocol (``emit``/``close``/``report``).

    Each command is judged by the same checks as ``validate_trace``, on a
    window of the last two samples plus the new one.  Without ``period_us``
    the first emission-timestamp delta (at least 1 us) sets the period for
    the rest of the stream.
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
        self._spheres = _SphereTable(model)
        self._tail = np.empty((0, len(model)))
        self._cycle = 0
        self._first_emission_us = 0

    def _period_us(self) -> float:
        return self.period_us if self.period_us is not None else 1.0

    def emit(self, cmd: JointCommand) -> None:
        row = _angles_matrix(self.model, [cmd])
        if self._cycle == 0:
            self._first_emission_us = cmd.emission_timestamp_us
        elif self.period_us is None:
            self.period_us = float(max(cmd.emission_timestamp_us - self._first_emission_us, 1))
        window = np.concatenate([self._tail, row])
        dt = self._period_us() / 1e6
        found = _judge(self.model, self._spheres, self.thresholds, window, dt, len(window) - 1, self._cycle)
        self.violations.extend(found)
        self._tail = window[-2:]
        self._cycle += 1

    def close(self) -> None:
        pass

    def report(self) -> ValidationReport:
        if self._cycle == 0:
            raise EmptyTrace("no commands were streamed into the validator")
        return ValidationReport(
            list(self.violations), cycles=self._cycle, period_us=self._period_us(), thresholds=self.thresholds
        )
