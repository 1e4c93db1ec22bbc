"""Robot model, human skeleton, and retarget-map configuration.

All three documents share one line-oriented grammar: UTF-8 text, ``#`` starts
a comment, tokens are whitespace-separated, reals are decimal with optional
exponent, radians and meters throughout.

- robot file:    ``joint``, ``sphere``, ``exclude`` directives
- skeleton file: ``segment`` directives
- map file:      ``map``, ``map3``, ``unmapped`` directives

Document order is significant: the joint order of the robot file is the
command-vector order, and a joint's parent link must already exist when the
joint is declared.  Loaded objects are immutable by convention and safe to
share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .data import SAMPLE_SKELETON, sample_text
from .errors import (
    CoverageError,
    DegenerateQuaternion,
    DimensionMismatch,
    ParseError,
    UnknownReference,
    ValidationError,
)
from .geometry import (
    EULER_ORDERS,
    _euler_axes,
    quat_from_axis_angle,
    quat_identity,
    quat_multiply,
    quat_multiply_rows,
    quat_normalize,
    quat_rotate_rows,
    quat_rotate_vector,
)


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Segment:
    name: str
    parent: int  # index into the segment list, -1 for the root


class HumanSkeleton:
    """Ordered segment tree; index 0 is the root and parents precede children."""

    def __init__(self, segments: list[Segment]):
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate segment names")
        roots = [s for s in segments if s.parent == -1]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root segment, found {len(roots)}")
        for i, s in enumerate(segments):
            if s.parent >= i:
                raise ValidationError(f"segment {s.name!r} declared before its parent")
            if s.parent < -1 or s.parent >= len(segments):
                raise ValidationError(f"segment {s.name!r} has an invalid parent index")
        self.segments = tuple(segments)
        self._index = {s.name: i for i, s in enumerate(segments)}

    def __len__(self) -> int:
        return len(self.segments)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownReference(f"unknown segment {name!r}") from None


def canonical_skeleton() -> HumanSkeleton:
    """The 23-segment full-body layout every motion frame is ordered by.

    Loaded from the bundled ``human_sample.cfg``, the one place it is written.
    """
    return load_skeleton(sample_text(SAMPLE_SKELETON))


@dataclass(eq=False)
class RobotJoint:
    name: str
    parent_link: str
    child_link: str
    origin_translation: np.ndarray  # meters, parent link frame
    origin_rotation: np.ndarray  # unit quaternion wxyz
    axis: np.ndarray  # unit, child joint frame
    limit_min: float
    limit_max: float
    soft_margin: float
    velocity_limit: float
    default_angle: float


@dataclass(eq=False)
class CollisionSphere:
    link: str
    center: np.ndarray  # link frame, meters
    radius: float


class RobotModel:
    """Validated robot joint tree plus collision geometry.

    ``joints`` keeps document order, which is also the command-vector order.
    """

    def __init__(
        self,
        joints: list[RobotJoint],
        spheres: list[CollisionSphere] | None = None,
        exclusions: list[tuple[tuple[str, int], tuple[str, int]]] | None = None,
    ):
        spheres = list(spheres or [])
        exclusions = list(exclusions or [])
        if not joints:
            raise ValidationError("robot model declares no joints")
        names = [j.name for j in joints]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate joint names")

        children: set[str] = set()
        parents: set[str] = set()
        for j in joints:
            if j.child_link in children:
                raise ValidationError(f"link {j.child_link!r} is the child of two joints")
            if j.child_link == j.parent_link:
                raise ValidationError(f"joint {j.name!r} connects link {j.child_link!r} to itself")
            children.add(j.child_link)
            parents.add(j.parent_link)
        bases = parents - children
        if len(bases) != 1:
            raise ValidationError(
                f"link graph must be a tree with one base link, found base candidates {sorted(bases)}"
            )
        self.base_link = bases.pop()
        known = {self.base_link}
        for j in joints:
            if j.parent_link not in known:
                raise ValidationError(
                    f"joint {j.name!r} attaches to link {j.parent_link!r} before it is defined"
                )
            known.add(j.child_link)

        for j in joints:
            if not (j.limit_min < j.limit_max):
                raise ValidationError(f"min >= max on joint {j.name}")
            if j.soft_margin < 0:
                raise ValidationError(f"negative soft margin on joint {j.name}")
            if j.limit_min + j.soft_margin > j.limit_max - j.soft_margin:
                raise ValidationError(f"soft margin empties the soft interval on joint {j.name}")
            if not (j.velocity_limit > 0):
                raise ValidationError(f"non-positive velocity limit on joint {j.name}")
            if not (
                j.limit_min + j.soft_margin <= j.default_angle <= j.limit_max - j.soft_margin
            ):
                raise ValidationError(f"default angle outside the soft interval on joint {j.name}")

        per_link_counts: dict[str, int] = {}
        for s in spheres:
            if s.link not in known:
                raise UnknownReference(f"collision sphere references unknown link {s.link!r}")
            if not (s.radius > 0):
                raise ValidationError(f"non-positive sphere radius on link {s.link}")
            per_link_counts[s.link] = per_link_counts.get(s.link, 0) + 1
        for (la, ia), (lb, ib) in exclusions:
            for link, idx in ((la, ia), (lb, ib)):
                if per_link_counts.get(link, 0) <= idx:
                    raise UnknownReference(f"exclusion references missing sphere {link}/{idx}")

        self.joints = list(joints)
        self.spheres = spheres
        self.exclusions = exclusions
        self._joint_index = {j.name: i for i, j in enumerate(joints)}
        self.soft_lower = np.array([j.limit_min + j.soft_margin for j in joints])
        self.soft_upper = np.array([j.limit_max - j.soft_margin for j in joints])
        # (lower, upper) per joint as floats, for the per-frame clamp
        self.soft_bounds = tuple(zip(self.soft_lower.tolist(), self.soft_upper.tolist()))
        # collision margin -> the validator's compiled sphere table, built on first use
        self._sphere_tables: dict = {}
        self.velocity_limits = np.array([j.velocity_limit for j in joints])
        self.default_angles = np.array([j.default_angle for j in joints])

    def __len__(self) -> int:
        return len(self.joints)

    @property
    def joint_names(self) -> list[str]:
        return [j.name for j in self.joints]

    def joint_index(self, name: str) -> int:
        try:
            return self._joint_index[name]
        except KeyError:
            raise UnknownReference(f"unknown joint {name!r}") from None


@dataclass(eq=False)
class TwistRule:
    """Map one robot joint from the twist of one segment about an axis."""

    joint: str
    segment: str
    axis: np.ndarray
    sign: float
    scale: float
    offset: float
    joint_index: int = field(default=-1)
    segment_index: int = field(default=-1)


@dataclass(eq=False)
class TripleRule:
    """Map three robot joints from a three-angle decomposition of one segment."""

    joints: tuple[str, str, str]
    segment: str
    order: str
    signs: tuple[float, float, float]
    scales: tuple[float, float, float]
    offsets: tuple[float, float, float]
    joint_indices: tuple[int, int, int] = field(default=(-1, -1, -1))
    segment_index: int = field(default=-1)


class RetargetMap:
    """Total, validated human-segment to robot-joint projection rules.

    Joint and segment references are resolved to indices at load time, and
    the rules are compiled into plain-float tuples the per-frame mapping
    unpacks directly:

    - ``twist_rules``: ``(segment, ax, ay, az, gain, offset, joint)``;
    - ``triple_rules``: ``(segment, order, i, j, k, s, ((joint, gain, offset) x 3))``,
      with the axis indices and permutation sign of ``order``.

    ``gain`` is ``sign * scale``, the product the angle is multiplied by.
    """

    def __init__(self, rules: list, unmapped: list[str], skeleton: HumanSkeleton, model: RobotModel):
        seen: dict[str, str] = {}

        def claim(joint: str, where: str):
            model.joint_index(joint)  # raises UnknownReference
            if joint in seen:
                raise CoverageError(f"joint {joint!r} referenced twice ({seen[joint]} and {where})")
            seen[joint] = where

        for r in rules:
            if isinstance(r, TwistRule):
                claim(r.joint, "map")
                r.joint_index = model.joint_index(r.joint)
                r.segment_index = skeleton.index(r.segment)
            elif isinstance(r, TripleRule):
                for j in r.joints:
                    claim(j, "map3")
                r.joint_indices = tuple(model.joint_index(j) for j in r.joints)
                r.segment_index = skeleton.index(r.segment)
            else:  # pragma: no cover - construction bug, not user input
                raise TypeError(f"unknown rule type {type(r)!r}")
        for j in unmapped:
            claim(j, "unmapped")
        missing = [n for n in model.joint_names if n not in seen]
        if missing:
            raise CoverageError(f"joints not covered by the map: {missing}")

        self.rules = list(rules)
        self.twist_rules = tuple(
            (r.segment_index, *(float(c) for c in r.axis), r.sign * r.scale, r.offset, r.joint_index)
            for r in rules
            if isinstance(r, TwistRule)
        )
        self.triple_rules = tuple(
            (
                r.segment_index,
                r.order,
                *_euler_axes(r.order),
                tuple(zip(r.joint_indices, (g * c for g, c in zip(r.signs, r.scales)), r.offsets)),
            )
            for r in rules
            if isinstance(r, TripleRule)
        )
        self.joint_count = len(model)
        self.default_angles = model.default_angles.copy()
        self.segment_count = len(skeleton)


class LinkPose(NamedTuple):
    position: np.ndarray
    rotation: np.ndarray


# ---------------------------------------------------------------------------
# Config grammar


_TOKEN = re.compile(r"\S+")


def _content_lines(text: str) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]
        if tokens:
            yield lineno, tokens


class _Directive:
    """One parsed config line: a keyword, positional tokens, and key=value pairs."""

    def __init__(self, lineno: int, tokens: list[tuple[int, str]]):
        self.lineno = lineno
        self.keyword = tokens[0][1]
        self.keyword_col = tokens[0][0]
        self.positional: list[tuple[int, str]] = []
        self.pairs: dict[str, tuple[int, str]] = {}
        for col, tok in tokens[1:]:
            if "=" in tok:
                key, _, value = tok.partition("=")
                if key in self.pairs:
                    raise ParseError(lineno, col, f"duplicate key {key!r}")
                self.pairs[key] = (col, value)
            else:
                if self.pairs:
                    raise ParseError(lineno, col, f"positional token {tok!r} after key=value pairs")
                self.positional.append((col, tok))

    def arg(self, position: int, what: str) -> tuple[int, str]:
        if position >= len(self.positional):
            raise ParseError(self.lineno, self.keyword_col, f"missing {what}")
        return self.positional[position]

    def value(self, key: str) -> tuple[int, str]:
        if key not in self.pairs:
            raise ParseError(self.lineno, self.keyword_col, f"missing {key}=")
        return self.pairs[key]

    def finish(self, n_positional: int, keys: set[str]):
        if len(self.positional) > n_positional:
            col, tok = self.positional[n_positional]
            raise ParseError(self.lineno, col, f"unexpected token {tok!r}")
        for key, (col, _) in self.pairs.items():
            if key not in keys:
                raise ParseError(self.lineno, col, f"unknown key {key!r}")

    def real(self, key: str) -> float:
        col, text = self.value(key)
        return _parse_real(self.lineno, col, text)

    def reals(self, key: str, n: int) -> tuple[float, ...]:
        col, text = self.value(key)
        parts = text.split(",")
        if len(parts) != n:
            raise ParseError(self.lineno, col, f"{key}= expects {n} comma-separated values")
        return tuple(_parse_real(self.lineno, col, p) for p in parts)


def _parse_real(lineno: int, col: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(lineno, col, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(lineno, col, f"non-finite number {text!r}")
    return value


def _directives(text: str) -> Iterator[_Directive]:
    for lineno, tokens in _content_lines(text):
        yield _Directive(lineno, tokens)


def _unit_axis(lineno: int, col: int, xyz: tuple[float, ...]) -> np.ndarray:
    v = np.array(xyz)
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise ParseError(lineno, col, "axis has zero norm")
    return v / n


# ---------------------------------------------------------------------------
# Loaders


def load_skeleton(text: str) -> HumanSkeleton:
    """Parse a skeleton document (``segment <name> parent=<name|->`` lines)."""
    segments: list[Segment] = []
    index: dict[str, int] = {}
    for d in _directives(text):
        if d.keyword != "segment":
            raise ParseError(d.lineno, d.keyword_col, f"unknown directive {d.keyword!r}")
        _, name = d.arg(0, "segment name")
        pcol, parent = d.value("parent")
        d.finish(1, {"parent"})
        if parent == "-":
            pidx = -1
        elif parent in index:
            pidx = index[parent]
        else:
            raise ParseError(d.lineno, pcol, f"parent segment {parent!r} not defined yet")
        if name in index:
            raise ParseError(d.lineno, d.positional[0][0], f"duplicate segment {name!r}")
        index[name] = len(segments)
        segments.append(Segment(name, pidx))
    if not segments:
        raise ValidationError("skeleton document declares no segments")
    return HumanSkeleton(segments)


def load_robot_model(text: str) -> RobotModel:
    """Parse and validate a robot document (``joint``/``sphere``/``exclude``)."""
    joints: list[RobotJoint] = []
    spheres: list[CollisionSphere] = []
    exclusions: list[tuple[tuple[str, int], tuple[str, int]]] = []
    for d in _directives(text):
        if d.keyword == "joint":
            _, name = d.arg(0, "joint name")
            ocol, origin = d.value("origin")
            parts = origin.split(";")
            if len(parts) != 2:
                raise ParseError(d.lineno, ocol, "origin= expects <tx,ty,tz;qw,qx,qy,qz>")
            txyz = tuple(_parse_real(d.lineno, ocol, p) for p in _split_n(d, ocol, parts[0], 3))
            qwxyz = tuple(_parse_real(d.lineno, ocol, p) for p in _split_n(d, ocol, parts[1], 4))
            try:
                rotation = quat_normalize(qwxyz)
            except DegenerateQuaternion:
                raise ParseError(d.lineno, ocol, "origin rotation has zero norm") from None
            acol, _ = d.value("axis")
            axis = _unit_axis(d.lineno, acol, d.reals("axis", 3))
            lmin, lmax = d.reals("limits", 2)
            joint = RobotJoint(
                name=name,
                parent_link=d.value("parent")[1],
                child_link=d.value("child")[1],
                origin_translation=np.array(txyz),
                origin_rotation=rotation,
                axis=axis,
                limit_min=lmin,
                limit_max=lmax,
                soft_margin=d.real("soft"),
                velocity_limit=d.real("vmax"),
                default_angle=d.real("default"),
            )
            d.finish(1, {"parent", "child", "origin", "axis", "limits", "soft", "vmax", "default"})
            joints.append(joint)
        elif d.keyword == "sphere":
            _, link = d.arg(0, "link name")
            center = np.array(d.reals("center", 3))
            radius = d.real("radius")
            d.finish(1, {"center", "radius"})
            spheres.append(CollisionSphere(link, center, radius))
        elif d.keyword == "exclude":
            refs = []
            for pos in range(2):
                col, tok = d.arg(pos, "sphere reference <link>/<index>")
                link, sep, idx = tok.rpartition("/")
                if not sep or not idx.isdigit():
                    raise ParseError(d.lineno, col, f"expected <link>/<sphere-index>, got {tok!r}")
                refs.append((link, int(idx)))
            d.finish(2, set())
            exclusions.append((refs[0], refs[1]))
        else:
            raise ParseError(d.lineno, d.keyword_col, f"unknown directive {d.keyword!r}")
    return RobotModel(joints, spheres, exclusions)


def _split_n(d: _Directive, col: int, text: str, n: int) -> list[str]:
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(d.lineno, col, f"expected {n} comma-separated values")
    return parts


def load_retarget_map(text: str, skeleton: HumanSkeleton, model: RobotModel) -> RetargetMap:
    """Parse a map document and resolve it against a skeleton and a model."""
    rules: list = []
    unmapped: list[str] = []
    for d in _directives(text):
        if d.keyword == "map":
            _, joint = d.arg(0, "joint name")
            acol, _ = d.value("axis")
            axis = _unit_axis(d.lineno, acol, d.reals("axis", 3))
            sign = d.real("sign")
            scol, stext = d.value("sign")
            if sign not in (1.0, -1.0):
                raise ParseError(d.lineno, scol, f"sign must be +1 or -1, got {stext!r}")
            rule = TwistRule(
                joint=joint,
                segment=d.value("segment")[1],
                axis=axis,
                sign=sign,
                scale=d.real("scale"),
                offset=d.real("offset"),
            )
            d.finish(1, {"segment", "axis", "sign", "scale", "offset"})
            rules.append(rule)
        elif d.keyword == "map3":
            jcol, jtok = d.arg(0, "joint names <j1>,<j2>,<j3>")
            names = jtok.split(",")
            if len(names) != 3:
                raise ParseError(d.lineno, jcol, "map3 expects three comma-separated joint names")
            ocol, order = d.value("order")
            if order.upper() not in EULER_ORDERS:
                raise ParseError(d.lineno, ocol, f"unknown axis order {order!r}")
            signs = d.reals("signs", 3)
            scol, stext = d.value("signs")
            if any(s not in (1.0, -1.0) for s in signs):
                raise ParseError(d.lineno, scol, f"signs must be +1 or -1, got {stext!r}")
            rule = TripleRule(
                joints=tuple(names),
                segment=d.value("segment")[1],
                order=order.upper(),
                signs=signs,
                scales=d.reals("scales", 3),
                offsets=d.reals("offsets", 3),
            )
            d.finish(1, {"segment", "order", "signs", "scales", "offsets"})
            rules.append(rule)
        elif d.keyword == "unmapped":
            _, joint = d.arg(0, "joint name")
            d.finish(1, set())
            unmapped.append(joint)
        else:
            raise ParseError(d.lineno, d.keyword_col, f"unknown directive {d.keyword!r}")
    return RetargetMap(rules, unmapped, skeleton, model)


# ---------------------------------------------------------------------------
# Forward kinematics


def forward_kinematics(model: RobotModel, angles) -> dict[str, LinkPose]:
    """World pose of every link, root at the origin with identity rotation."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (len(model.joints),):
        raise DimensionMismatch(
            f"expected {len(model.joints)} joint angles, got shape {angles.shape}"
        )
    poses = {model.base_link: LinkPose(np.zeros(3), quat_identity())}
    for joint, angle in zip(model.joints, angles):
        parent = poses[joint.parent_link]
        position = parent.position + quat_rotate_vector(parent.rotation, joint.origin_translation)
        rotation = quat_multiply(
            quat_multiply(parent.rotation, joint.origin_rotation),
            quat_from_axis_angle(joint.axis, float(angle)),
        )
        poses[joint.child_link] = LinkPose(position, rotation)
    return poses


def forward_kinematics_batch(model: RobotModel, angles) -> dict[str, LinkPose]:
    """Vectorized FK over a whole trace: ``angles`` is (n_samples, n_joints).

    Returns per-link ``LinkPose`` tuples of stacked arrays, positions
    (n_samples, 3) and rotations (n_samples, 4).  Rotations are composed
    without per-step renormalization; drift over realistic tree depths stays
    far below validation tolerances.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(model.joints):
        raise DimensionMismatch(
            f"expected (n, {len(model.joints)}) joint angles, got shape {angles.shape}"
        )
    n = angles.shape[0]
    poses = {model.base_link: LinkPose(np.zeros((n, 3)), np.tile(quat_identity(), (n, 1)))}
    for idx, joint in enumerate(model.joints):
        parent = poses[joint.parent_link]
        position = parent.position + quat_rotate_rows(parent.rotation, joint.origin_translation)
        rotation = quat_multiply_rows(parent.rotation, joint.origin_rotation)
        half = 0.5 * angles[:, idx]
        jq = np.empty((n, 4))
        jq[:, 0] = np.cos(half)
        jq[:, 1:] = np.sin(half)[:, None] * joint.axis[None, :]
        poses[joint.child_link] = LinkPose(position, quat_multiply_rows(rotation, jq))
    return poses
