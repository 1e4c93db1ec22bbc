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
blocks.  Self-collision of one row (each streamed command) takes a
plain-float FK, sphere centres and pair distances over tables compiled from
the model, so the streaming validator fits in a 500 Hz control loop.  The
scalar ``forward_kinematics`` is its test oracle.  A 500 Hz loop fed at
100-120 Hz repeats most commands as holds, so the streaming validator keeps
the last row's own violations, and a row bit-identical to it gets them back
stamped with its cycle.  The tables are compiled once per model and
collision margin, kept on the model and never written again, so validators
and ``validate_trace`` calls share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyTrace
from .geometry import _quat_mul, _quat_rotate, quat_rotate_rows
from .model import LinkPose, RobotModel, forward_kinematics_batch
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
    fails any finite limit.  Frozen, because a validator compiles the
    collision margin into its pair limits once.
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


class _SphereTable:
    """A model's collision spheres and the pairs to check, compiled twice.

    Index arrays serve a window of rows: ``distances`` on the batch FK.
    Plain-float tuples serve one row, which ``row_distances`` runs through
    its own forward kinematics without building arrays.  Nothing is written
    after ``__init__``, so one table serves any number of validators:

    - ``joints``: ``(parent, origin translation, *r, *u)``, with links numbered
      as in ``link_names`` (the base, then each joint's child), ``r`` the
      origin rotation and ``u = r * (0, axis)`` (see ``row_poses``);
    - ``spheres``: ``(link, centre)``;
    - ``pairs``: ``(a, b, id, limit)``, sphere indices and ``ra + rb + margin``.
    """

    def __init__(self, model: RobotModel, margin: float = 0.0):
        per_link: dict[str, int] = {}
        self.refs = []  # (link, index within the link) of every sphere
        for s in model.spheres:
            per_link[s.link] = per_link.get(s.link, 0) + 1
            self.refs.append((s.link, per_link[s.link] - 1))
        number = {ref: k for k, ref in enumerate(self.refs)}
        excluded = {tuple(sorted((number[tuple(a)], number[tuple(b)]))) for a, b in model.exclusions}
        pairs = [
            (i, j)
            for i, (link, _) in enumerate(self.refs)
            for j in range(i + 1, len(self.refs))
            if link != self.refs[j][0] and (i, j) not in excluded
        ]
        self.a = np.array([i for i, _ in pairs], dtype=np.intp)
        self.b = np.array([j for _, j in pairs], dtype=np.intp)
        labels = [f"{link}/{k}" for link, k in self.refs]
        self.ids = [f"{labels[i]},{labels[j]}" for i, j in pairs]
        self.sphere_links = [s.link for s in model.spheres]
        self.centers = np.array([s.center for s in model.spheres]).reshape(-1, 3)
        radii = np.array([s.radius for s in model.spheres])
        self.limits = radii[self.a] + radii[self.b] + margin

        self.link_names = [model.base_link] + [j.child_link for j in model.joints]
        index = {link: i for i, link in enumerate(self.link_names)}
        joints = []
        for j in model.joints:
            r = tuple(j.origin_rotation.tolist())
            u = _quat_mul(r, (0.0, *j.axis.tolist()))
            joints.append((index[j.parent_link], tuple(j.origin_translation.tolist()), *r, *u))
        self.joints = tuple(joints)
        self.spheres = tuple((index[s.link], tuple(s.center.tolist())) for s in model.spheres)
        self.pairs = tuple(zip(self.a.tolist(), self.b.tolist(), self.ids, self.limits.tolist()))

    def distances(self, poses: dict[str, LinkPose], rows: slice) -> np.ndarray:
        """(m, pairs) sphere-centre distances for ``rows`` of batch-shaped poses."""
        position = np.stack([poses[link].position[rows] for link in self.sphere_links], axis=1)
        rotation = np.stack([poses[link].rotation[rows] for link in self.sphere_links], axis=1)
        centers = position + quat_rotate_rows(rotation, self.centers)
        # Per coordinate: gathering whole (m, pairs, 3) rows is several times slower.
        return np.sqrt(sum((centers[:, self.a, c] - centers[:, self.b, c]) ** 2 for c in range(3)))

    def row_poses(self, angles) -> list[tuple[tuple, tuple]]:
        """``(position, rotation)`` float tuples of every link in ``link_names``
        for one row of finite or NaN angles.

        A joint turns its child by ``r * (cos(a/2), sin(a/2) * axis)``, which
        is ``cos(a/2) * r + sin(a/2) * u`` for the compiled ``r`` and
        ``u = r * (0, axis)``.  Like the batch FK, rotations are composed
        without renormalisation.
        """
        poses = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]
        for (parent, origin, rw, rx, ry, rz, uw, ux, uy, uz), angle in zip(self.joints, angles):
            (px, py, pz), q = poses[parent]
            dx, dy, dz = _quat_rotate(q, origin)
            c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
            turn = (c * rw + s * uw, c * rx + s * ux, c * ry + s * uy, c * rz + s * uz)
            poses.append(((px + dx, py + dy, pz + dz), _quat_mul(q, turn)))
        return poses

    def row_distances(self, angles) -> list[float]:
        """Sphere-centre distance of every pair for one row of finite or NaN angles."""
        poses = self.row_poses(angles)
        centers = []
        for link, center in self.spheres:
            (px, py, pz), q = poses[link]
            dx, dy, dz = _quat_rotate(q, center)
            centers.append((px + dx, py + dy, pz + dz))
        return [math.dist(centers[a], centers[b]) for a, b, _, _ in self.pairs]


def _sphere_table(model: RobotModel, margin: float = 0.0) -> _SphereTable:
    """The model's sphere table for ``margin``: compiled once, then kept on the model."""
    table = model._sphere_tables.get(margin)
    if table is None:
        table = model._sphere_tables[margin] = _SphereTable(model, margin)
    return table


def collision_pairs(model: RobotModel) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """All sphere pairs that must be checked: different links, not excluded."""
    table = _sphere_table(model)
    return [(table.refs[i], table.refs[j]) for i, j in zip(table.a, table.b)]


def _collisions(model: RobotModel, spheres: _SphereTable, angles: np.ndarray, cycle: int) -> list[Violation]:
    """Self-collision violations of an (n, joints) window whose row 0 is ``cycle``.

    One row takes the compiled plain-float FK, many rows the batch FK in
    blocks.  Infinite angles become NaN first: the limit check already flags
    them, and ``sin`` cannot take them.  A NaN distance is no collision.
    """
    angles = np.where(np.isinf(angles), np.nan, angles)
    if len(angles) == 1:
        hits = zip(spheres.pairs, spheres.row_distances(angles[0].tolist()))
        return [Violation("self-collision", cycle, pair, d, limit) for (_, _, pair, limit), d in hits if d < limit]
    found = []
    poses = forward_kinematics_batch(model, angles)
    for block in range(0, len(angles), _BLOCK_ROWS):
        dist = spheres.distances(poses, slice(block, block + _BLOCK_ROWS))
        for i, k in zip(*np.nonzero(dist < spheres.limits)):
            found.append(
                Violation(
                    "self-collision",
                    cycle + block + int(i),
                    spheres.ids[k],
                    float(dist[i, k]),
                    float(spheres.limits[k]),
                )
            )
    return found


def _pose_violations(model: RobotModel, spheres: _SphereTable, angles: np.ndarray, cycle: int) -> list[Violation]:
    """Limit and self-collision violations of an (n, joints) window whose row 0
    is ``cycle``: the checks that read each row alone."""
    names = model.joint_names
    found: list[Violation] = []
    inside = (angles >= model.soft_lower) & (angles <= model.soft_upper)  # False for NaN
    for i, j in zip(*np.nonzero(~inside)):
        value = angles[i, j]
        bound = model.soft_upper[j] if value > model.soft_upper[j] else model.soft_lower[j]
        found.append(Violation("limit", cycle + int(i), names[j], float(value), float(bound)))
    if spheres.pairs:
        found.extend(_collisions(model, spheres, angles, cycle))
    return found


def _rate_violations(
    model: RobotModel, thresholds: Thresholds, angles: np.ndarray, dt: float, first: int, cycle: int
) -> list[Violation]:
    """Velocity and acceleration violations of rows ``first:`` of an (n, joints)
    window: the checks that read the rows before.

    Row ``first`` is cycle ``cycle``; earlier rows only feed the backward
    differences.
    """
    names = model.joint_names
    found: list[Violation] = []
    rates = [("velocity", 1, dt, model.velocity_limits)]
    if thresholds.acceleration_limit is not None:
        limit = np.full(len(names), thresholds.acceleration_limit)
        rates.append(("acceleration", 2, dt * dt, limit))
    for kind, order, scale, limit in rates:
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
    return np.stack([np.asarray(cmd.angles, dtype=float) for cmd in trace])


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
    spheres = _sphere_table(model, thresholds.collision_margin)
    found = _pose_violations(model, spheres, angles, 0)
    found += _rate_violations(model, thresholds, angles, period_us / 1e6, 0, 0)
    violations = sorted(found, key=_report_order)
    return ValidationReport(violations, cycles=len(trace), period_us=period_us, thresholds=thresholds)


class IncrementalValidator:
    """Streaming validator with the sink protocol (``emit``/``close``/``report``).

    Each command is judged by the same checks as ``validate_trace``: its
    own (limit, self-collision) on its row, its rates on a window of the
    last two samples plus the new one.  A row bit-identical to the previous
    one reuses that row's own violations, stamped with the new cycle; the
    rates are judged every command.  Without ``period_us`` the period is
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
        self._spheres = _sphere_table(model, self.thresholds.collision_margin)
        self._tail = np.empty((0, len(model)))
        self._cycle = 0
        self._first = None
        self._pose = (None, [])  # (row bytes, that row's pose violations)

    def _period_us(self) -> float:
        return self.period_us if self.period_us is not None else 1.0

    def emit(self, cmd: JointCommand) -> None:
        row = _angles_matrix(self.model, [cmd])
        if self._cycle == 0:
            self._first = cmd
        elif self.period_us is None:
            self.period_us = _infer_period_us([self._first, cmd])
        key = row.tobytes()
        if self._pose[0] != key:
            self._pose = (key, _pose_violations(self.model, self._spheres, row, 0))
        found = [Violation(v.kind, self._cycle, v.identifier, v.value, v.threshold) for v in self._pose[1]]
        window = np.concatenate([self._tail, row])
        dt = self._period_us() / 1e6
        found += _rate_violations(self.model, self.thresholds, window, dt, len(window) - 1, self._cycle)
        self.violations.extend(sorted(found, key=_report_order))
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
