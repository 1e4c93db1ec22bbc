"""Robot model, human skeleton, and retarget-map configuration.

All three documents share one line-oriented grammar: UTF-8 text, ``#`` starts
a comment, tokens are whitespace-separated, reals are decimal with optional
exponent, radians and meters throughout.  A directive's keys are all
required, in any order; a ``ParseError`` names the offending line and column.

- robot file:    ``joint``, ``sphere``, ``exclude`` directives
- skeleton file: ``segment`` directives
- map file:      ``map``, ``map3``, ``unmapped`` directives

Document order is significant: the joint order of the robot file is the
command-vector order, and a joint's parent link must already exist when the
joint is declared.  Loaded objects are immutable by convention and safe to
share across threads.

``RobotModel`` compiles its kinematic chain, sphere centres and checked
sphere pairs once, into plain floats, which ``forward_kinematics_batch``
(a whole trace) and ``forward_kinematics_row`` (one command, the same
rule) read.  ``forward_kinematics``, their test oracle, composes each
joint's origin and axis rotations directly.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
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
    _quat_mul,
    _quat_rotate,
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


def _joint_fault(j: RobotJoint) -> tuple[str, str] | None:
    """The first fault in one joint's own values: (the robot-file key that
    holds it, message), or None."""
    lower, upper = j.limit_min + j.soft_margin, j.limit_max - j.soft_margin
    if not (j.limit_min < j.limit_max):
        return "limits", f"min >= max on joint {j.name}"
    if j.soft_margin < 0:
        return "soft", f"negative soft margin on joint {j.name}"
    if lower > upper:
        return "soft", f"soft margin empties the soft interval on joint {j.name}"
    if not (j.velocity_limit > 0):
        return "vmax", f"non-positive velocity limit on joint {j.name}"
    if not (lower <= j.default_angle <= upper):
        return "default", f"default angle outside the soft interval on joint {j.name}"
    return None


def _sphere_fault(s: CollisionSphere) -> tuple[str, str] | None:
    """A fault in one sphere's own values, as ``_joint_fault`` gives it, or None."""
    return None if s.radius > 0 else ("radius", f"non-positive sphere radius on link {s.link}")


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
            fault = _joint_fault(j)
            if fault:
                raise ValidationError(fault[1])

        refs: list[tuple[str, int]] = []  # (link, index within the link) of each sphere
        per_link: dict[str, int] = {}
        for s in spheres:
            if s.link not in known:
                raise UnknownReference(f"collision sphere references unknown link {s.link!r}")
            fault = _sphere_fault(s)
            if fault:
                raise ValidationError(fault[1])
            refs.append((s.link, per_link.get(s.link, 0)))
            per_link[s.link] = refs[-1][1] + 1
        number = {ref: k for k, ref in enumerate(refs)}
        excluded = set()
        for pair in exclusions:
            for link, idx in pair:
                if (link, idx) not in number:
                    raise UnknownReference(f"exclusion references missing sphere {link}/{idx}")
            excluded.add(tuple(sorted(number[(link, idx)] for link, idx in pair)))

        self.joints = list(joints)
        self.spheres = spheres
        self.exclusions = exclusions
        self._joint_index = {j.name: i for i, j in enumerate(joints)}
        self.soft_lower = np.array([j.limit_min + j.soft_margin for j in joints])
        self.soft_upper = np.array([j.limit_max - j.soft_margin for j in joints])
        # (lower, upper) per joint as floats, for the per-frame clamp
        self.soft_bounds = tuple(zip(self.soft_lower.tolist(), self.soft_upper.tolist()))
        self.velocity_limits = np.array([j.velocity_limit for j in joints])
        self.default_angles = np.array([j.default_angle for j in joints])

        # Compiled once, in plain floats, for the row and batch FK and the
        # collision check.  Links are numbered as in ``link_names``: the base,
        # then each joint's child.
        self.link_names = [self.base_link] + [j.child_link for j in joints]
        link_index = {link: i for i, link in enumerate(self.link_names)}
        # (parent link, origin translation, r, u) per joint: r is the origin
        # rotation and u = r * (0, axis), so the joint turns its child by
        # r * (cos(a/2), sin(a/2) * axis) = cos(a/2) * r + sin(a/2) * u.
        chain = []
        for j in joints:
            r = tuple(j.origin_rotation.tolist())
            u = _quat_mul(r, (0.0, *j.axis.tolist()))
            chain.append((link_index[j.parent_link], tuple(j.origin_translation.tolist()), r, u))
        self.chain = tuple(chain)
        self.sphere_refs = refs
        self.sphere_centers = tuple((link_index[s.link], tuple(s.center.tolist())) for s in spheres)
        # (a, b, id, ra + rb) of each pair checked: spheres on different links, not excluded
        labels = [f"{link}/{k}" for link, k in refs]
        self.sphere_pairs = tuple(
            (a, b, f"{labels[a]},{labels[b]}", spheres[a].radius + spheres[b].radius)
            for a in range(len(refs))
            for b in range(a + 1, len(refs))
            if refs[a][0] != refs[b][0] and (a, b) not in excluded
        )

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
class RetargetMap:
    """Total, validated human-segment to robot-joint projection rules.

    The loader resolves joint and segment references to indices and compiles
    each rule into a plain-float tuple the per-frame mapping unpacks directly:

    - ``twist_rules``: ``(segment, ax, ay, az, gain, offset, joint)``;
    - ``triple_rules``: ``(segment, order, i, j, k, s, ((joint, gain, offset) x 3))``,
      with the axis indices and permutation sign of ``order``.

    ``gain`` is ``sign * scale``, the product the angle is multiplied by.
    ``default_angles`` is the model's default angle per joint, as a tuple of
    floats: the row a frame's mapping starts from, and the loop's hold
    before its first frame.
    """

    twist_rules: tuple
    triple_rules: tuple
    joint_count: int
    default_angles: tuple[float, ...]
    segment_count: int


class LinkPose(NamedTuple):
    position: np.ndarray
    rotation: np.ndarray


# ---------------------------------------------------------------------------
# Config grammar


_TOKEN = re.compile(r"\S+")


class _Directive:
    """One config line: a keyword, positional tokens (``arg``) and key=value pairs (``fields``)."""

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

    def error(self, kind: type[ValidationError], col: int, message: str) -> ValidationError:
        """A ``kind`` error whose message names this line and ``col``, as a ParseError's does."""
        return kind(f"line {self.lineno}, col {col}: {message}")

    def check(self, fault: tuple[str, str] | None) -> None:
        """Raise ``fault``, a (key, message) pair, as a ValidationError at that key's token; None passes."""
        if fault:
            raise self.error(ValidationError, self.pairs[fault[0]][0], fault[1])

    def resolve(self, lookup, col: int, name: str):
        """``lookup(name)``; an UnknownReference it raises names this line and ``col``."""
        try:
            return lookup(name)
        except UnknownReference as exc:
            raise self.error(UnknownReference, col, str(exc)) from None

    def fields(self, n_positional: int, **parsers) -> dict:
        """Each key's value, converted by its parser, in the order given.

        A missing key is reported at the keyword, a value its parser rejects
        at the key; then a token past ``n_positional`` or an unknown key at
        that token.
        """
        values = {}
        for key, parse in parsers.items():
            if key not in self.pairs:
                raise ParseError(self.lineno, self.keyword_col, f"missing {key}=")
            col, text = self.pairs[key]
            try:
                values[key] = parse(key, text)
            except ValueError as exc:
                raise ParseError(self.lineno, col, str(exc)) from None
        if len(self.positional) > n_positional:
            col, tok = self.positional[n_positional]
            raise ParseError(self.lineno, col, f"unexpected token {tok!r}")
        for key, (col, _) in self.pairs.items():
            if key not in parsers:
                raise ParseError(self.lineno, col, f"unknown key {key!r}")
        return values


def _directives(text: str, keywords: tuple[str, ...]) -> Iterator[_Directive]:
    """The document's directives, in order; a keyword not in ``keywords`` is a ParseError."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(raw.split("#", 1)[0])]
        if tokens and tokens[0][1] not in keywords:
            raise ParseError(lineno, tokens[0][0], f"unknown directive {tokens[0][1]!r}")
        if tokens:
            yield _Directive(lineno, tokens)


# Field parsers: ``parse(key, text)`` returns the value or raises ValueError with the message.


def _text(key: str, text: str) -> str:
    return text


def _real(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _reals(n: int, miscount: str = "{key}= expects {n} comma-separated values"):
    """The parser of ``n`` comma-separated reals; ``miscount`` is the message for another count."""
    def parse(key: str, text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != n:
            raise ValueError(miscount.format(key=key, n=n))
        return tuple(_real(key, p) for p in parts)

    return parse


def _axis(key: str, text: str) -> np.ndarray:
    v = np.array(_reals(3)(key, text))
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise ValueError("axis has zero norm")
    return v / n


def _origin(key: str, text: str) -> tuple[np.ndarray, np.ndarray]:
    """``<tx,ty,tz;qw,qx,qy,qz>`` as (translation, unit quaternion)."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError("origin= expects <tx,ty,tz;qw,qx,qy,qz>")
    txyz, qwxyz = (_reals(n, "expected {n} comma-separated values")(key, p) for p, n in zip(parts, (3, 4)))
    try:
        return np.array(txyz), quat_normalize(qwxyz)
    except DegenerateQuaternion:
        raise ValueError("origin rotation has zero norm") from None


def _signs(parse):
    """``parse``, then reject any value other than +1 and -1."""
    def parse_signs(key: str, text: str):
        value = parse(key, text)
        if any(s not in (1.0, -1.0) for s in np.atleast_1d(value)):
            raise ValueError(f"{key} must be +1 or -1, got {text!r}")
        return value

    return parse_signs


def _order(key: str, text: str) -> str:
    if text.upper() not in EULER_ORDERS:
        raise ValueError(f"unknown axis order {text!r}")
    return text.upper()


# ---------------------------------------------------------------------------
# Loaders


def load_skeleton(text: str) -> HumanSkeleton:
    """Parse a skeleton document (``segment <name> parent=<name|->`` lines, parents first)."""
    segments: list[Segment] = []
    index: dict[str, int] = {}

    def parent_index(key: str, parent: str) -> int:
        if parent != "-" and parent not in index:
            raise ValueError(f"parent segment {parent!r} not defined yet")
        return index.get(parent, -1)

    for d in _directives(text, ("segment",)):
        ncol, name = d.arg(0, "segment name")
        parent = d.fields(1, parent=parent_index)["parent"]
        if name in index:
            raise ParseError(d.lineno, ncol, f"duplicate segment {name!r}")
        index[name] = len(segments)
        segments.append(Segment(name, parent))
    if not segments:
        raise ValidationError("skeleton document declares no segments")
    return HumanSkeleton(segments)


def load_robot_model(text: str) -> RobotModel:
    """Parse and validate a robot document (``joint``/``sphere``/``exclude``).

    A joint's or sphere's own faults (a repeated joint name, limits out of
    order, a default outside the soft interval, a non-positive radius, ...)
    are raised as the directive is read, naming its line and the offending
    token.  A sphere may name a link, and an exclusion a sphere, declared
    further down, so those references are checked once the document is
    read: the first unknown one, in document order, names its line and
    token.  Faults of the link tree as a whole name no line.
    """
    joints: list[RobotJoint] = []
    spheres: list[CollisionSphere] = []
    exclusions: list[tuple[tuple[str, int], tuple[str, int]]] = []
    references: list[tuple[_Directive, int, str, int | None]] = []  # (directive, col, link, sphere index or None)
    names: set[str] = set()
    for d in _directives(text, ("joint", "sphere", "exclude")):
        if d.keyword == "joint":
            ncol, name = d.arg(0, "joint name")
            f = d.fields(1, origin=_origin, axis=_axis, limits=_reals(2), parent=_text, child=_text,
                         soft=_real, vmax=_real, default=_real)
            if name in names:
                raise d.error(ValidationError, ncol, "duplicate joint names")
            names.add(name)
            joint = RobotJoint(name, f["parent"], f["child"], *f["origin"], f["axis"], *f["limits"],
                               f["soft"], f["vmax"], f["default"])
            d.check(_joint_fault(joint))
            joints.append(joint)
        elif d.keyword == "sphere":
            col, link = d.arg(0, "link name")
            f = d.fields(1, center=_reals(3), radius=_real)
            references.append((d, col, link, None))
            sphere = CollisionSphere(link, np.array(f["center"]), f["radius"])
            d.check(_sphere_fault(sphere))
            spheres.append(sphere)
        elif d.keyword == "exclude":
            refs = []
            for pos in range(2):
                col, tok = d.arg(pos, "sphere reference <link>/<index>")
                link, sep, idx = tok.rpartition("/")
                if not sep or not idx.isdigit():
                    raise ParseError(d.lineno, col, f"expected <link>/<sphere-index>, got {tok!r}")
                refs.append((link, int(idx)))
                references.append((d, col, link, int(idx)))
            d.fields(2)
            exclusions.append((refs[0], refs[1]))
    links = {link for j in joints for link in (j.parent_link, j.child_link)}
    per_link = Counter(s.link for s in spheres)
    for d, col, link, idx in references:
        if idx is None and link not in links:
            raise d.error(UnknownReference, col, f"collision sphere references unknown link {link!r}")
        if idx is not None and idx >= per_link[link]:
            raise d.error(UnknownReference, col, f"exclusion references missing sphere {link}/{idx}")
    return RobotModel(joints, spheres, exclusions)


def load_retarget_map(text: str, skeleton: HumanSkeleton, model: RobotModel) -> RetargetMap:
    """Parse a map document, resolving and compiling each rule as it is read.

    Faults are raised in document order; once the whole document is read,
    every joint of ``model`` must have been claimed by exactly one directive.
    """
    seen: dict[str, str] = {}  # joint name -> the directive that claimed it

    def claim(d: _Directive, col: int, joint: str) -> int:
        index = d.resolve(model.joint_index, col, joint)
        if joint in seen:
            raise d.error(CoverageError, col, f"joint {joint!r} referenced twice ({seen[joint]} and {d.keyword})")
        seen[joint] = d.keyword
        return index

    def segment(d: _Directive, name: str) -> int:
        return d.resolve(skeleton.index, d.pairs["segment"][0], name)

    twist_rules: list[tuple] = []
    triple_rules: list[tuple] = []
    for d in _directives(text, ("map", "map3", "unmapped")):
        if d.keyword == "map":
            jcol, joint = d.arg(0, "joint name")
            f = d.fields(1, axis=_axis, sign=_signs(_real), segment=_text, scale=_real, offset=_real)
            joint_index = claim(d, jcol, joint)
            twist_rules.append((segment(d, f["segment"]), *f["axis"].tolist(),
                                f["sign"] * f["scale"], f["offset"], joint_index))
        elif d.keyword == "map3":
            jcol, jtok = d.arg(0, "joint names <j1>,<j2>,<j3>")
            names = jtok.split(",")
            if len(names) != 3:
                raise ParseError(d.lineno, jcol, "map3 expects three comma-separated joint names")
            f = d.fields(1, order=_order, signs=_signs(_reals(3)), segment=_text, scales=_reals(3), offsets=_reals(3))
            joints = [claim(d, jcol, name) for name in names]
            gains = [s * c for s, c in zip(f["signs"], f["scales"])]
            triple_rules.append((segment(d, f["segment"]), f["order"], *_euler_axes(f["order"]),
                                 tuple(zip(joints, gains, f["offsets"]))))
        elif d.keyword == "unmapped":
            jcol, joint = d.arg(0, "joint name")
            d.fields(1)
            claim(d, jcol, joint)
    missing = [n for n in model.joint_names if n not in seen]
    if missing:
        raise CoverageError(f"joints not covered by the map: {missing}")
    return RetargetMap(tuple(twist_rules), tuple(triple_rules), len(model), tuple(model.default_angles.tolist()), len(skeleton))


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


def forward_kinematics_row(model: RobotModel, angles) -> list[tuple[tuple, tuple]]:
    """``(position, rotation)`` float tuples of every link in ``link_names``
    for one row of finite or NaN angles.

    The batch FK's rule in plain floats, with no array built, for one
    streamed command.  Like the batch FK, rotations are composed without
    renormalisation.  Each float operation is the batch FK's, in its order,
    so the poses are its bits wherever ``math.cos`` and ``math.sin`` return
    numpy's (they agreed on 200000 of 200000 samples under numpy 2.4.6).
    """
    poses = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]
    for (parent, origin, (rw, rx, ry, rz), (uw, ux, uy, uz)), angle in zip(model.chain, angles):
        (px, py, pz), q = poses[parent]
        dx, dy, dz = _quat_rotate(q, origin)
        c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
        turn = (c * rw + s * uw, c * rx + s * ux, c * ry + s * uy, c * rz + s * uz)
        poses.append(((px + dx, py + dy, pz + dz), _quat_mul(q, turn)))
    return poses


def forward_kinematics_batch(model: RobotModel, angles) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized FK over a whole trace: ``angles`` is (n_samples, n_joints).

    Returns ``(positions, rotations)``, stacked per link in ``link_names``
    order: (links, n_samples, 3) and (links, n_samples, 4).  Each joint
    applies the row FK's rule, ``parent * (cos(a/2) * r + sin(a/2) * u)``.
    Rotations are composed without per-step renormalization; drift over
    realistic tree depths stays far below validation tolerances.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(model.joints):
        raise DimensionMismatch(
            f"expected (n, {len(model.joints)}) joint angles, got shape {angles.shape}"
        )
    n = angles.shape[0]
    positions = np.zeros((len(model.link_names), n, 3))
    rotations = np.zeros((len(model.link_names), n, 4))
    rotations[0, :, 0] = 1.0
    for link, ((parent, origin, r, u), column) in enumerate(zip(model.chain, angles.T), start=1):
        half = 0.5 * column
        q = rotations[parent]
        positions[link] = positions[parent] + quat_rotate_rows(q, np.array(origin))
        rotations[link] = quat_multiply_rows(q, np.cos(half)[:, None] * r + np.sin(half)[:, None] * u)
    return positions, rotations
