"""Config loading, validation, and forward kinematics.

The FK oracle composes 4x4 homogeneous matrices built from the Rodrigues
formula, sharing no code with the library's quaternion chain.
"""

import dataclasses
import math

import numpy as np
import pytest

from teleokin.data import sample_text
from teleokin.errors import (
    CoverageError,
    DimensionMismatch,
    ParseError,
    UnknownReference,
    ValidationError,
)
from teleokin.geometry import quat_from_axis_angle, quat_rotate_vector
from teleokin.model import (
    CollisionSphere,
    HumanSkeleton,
    RobotModel,
    Segment,
    canonical_skeleton,
    forward_kinematics,
    forward_kinematics_batch,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
)

MINIMAL_ROBOT = "joint j1 parent=base child=link1 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,1 soft=0.05 vmax=10 default=0\n"

# Planar three-revolute chain: two 1 m links along x plus a fixed tip joint.
PLANAR_CHAIN = """
joint shoulder parent=base  child=link1 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-3.2,3.2 soft=0 vmax=10 default=0
joint elbow    parent=link1 child=link2 origin=1,0,0;1,0,0,0 axis=0,0,1 limits=-3.2,3.2 soft=0 vmax=10 default=0
joint wrist    parent=link2 child=tip   origin=1,0,0;1,0,0,0 axis=0,0,1 limits=-3.2,3.2 soft=0 vmax=10 default=0
"""


def homogeneous(axis, angle, translation):
    """4x4 transform oracle: rotation from the Rodrigues formula."""
    ux, uy, uz = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    cc = 1.0 - c
    m = np.eye(4)
    m[:3, :3] = [
        [c + ux * ux * cc, ux * uy * cc - uz * s, ux * uz * cc + uy * s],
        [uy * ux * cc + uz * s, c + uy * uy * cc, uy * uz * cc - ux * s],
        [uz * ux * cc - uy * s, uz * uy * cc + ux * s, c + uz * uz * cc],
    ]
    m[:3, 3] = translation
    return m


def oracle_fk(model, angles):
    """Independent FK: compose 4x4 matrices down the tree."""
    mats = {model.base_link: np.eye(4)}
    for joint, angle in zip(model.joints, angles):
        fixed = np.eye(4)
        w, x, y, z = joint.origin_rotation
        # quaternion -> matrix via axis-angle to stay independent of _matrix
        half = math.acos(max(-1.0, min(1.0, w)))
        vec_norm = math.sqrt(x * x + y * y + z * z)
        if vec_norm > 1e-12:
            fixed = homogeneous((x, y, z), 2.0 * half, joint.origin_translation)
        else:
            fixed[:3, 3] = joint.origin_translation
        spin = homogeneous(joint.axis, angle, (0.0, 0.0, 0.0))
        mats[joint.child_link] = mats[joint.parent_link] @ fixed @ spin
    return mats


J1 = MINIMAL_ROBOT.strip()
TWO_SEGMENTS = "segment root parent=-\nsegment limb parent=root\n"
MAP1 = "map j1 segment=limb axis=0,0,1 sign=1 scale=1 offset=0"
MAP3 = "map3 j1,j2,j3 segment=limb order=ZXY signs=1,1,1 scales=1,1,1 offsets=0,0,0"


def load(kind, text):
    if kind == "robot":
        return load_robot_model(text)
    if kind == "skeleton":
        return load_skeleton(text)
    return load_retarget_map(text, load_skeleton(TWO_SEGMENTS), load_robot_model(MINIMAL_ROBOT))


# (case, document kind, document, error, (line, the token the column points at) or None, message).  A
# ParseError carries its line and column; any other error with a location starts "line L, col C: ".
MALFORMED = [
    ("unknown key", "robot", J1 + " wat=1", ParseError, (1, "wat=1"), "unknown key 'wat'"),
    ("duplicate key", "robot", J1.replace("soft=0.05", "soft=0.05 soft=0.1"), ParseError, (1, "soft=0.1"),
     "duplicate key 'soft'"),
    ("positional after key=value", "robot", J1 + " stray", ParseError, (1, "stray"),
     "positional token 'stray' after key=value pairs"),
    ("missing joint name", "robot", J1.replace("joint j1 ", "joint "), ParseError, (1, "joint"),
     "missing joint name"),
    ("missing key", "robot", "# robot\n" + J1.replace(" vmax=10", ""), ParseError, (2, "joint"), "missing vmax="),
    ("axis of two values", "robot", J1.replace("axis=0,0,1", "axis=0,1"), ParseError, (1, "axis="),
     "axis= expects 3 comma-separated values"),
    ("translation of two values", "robot", J1.replace("origin=0,0,0;", "origin=0,0;"), ParseError, (1, "origin="),
     "expected 3 comma-separated values"),
    ("rotation of three values", "robot", J1.replace(";1,0,0,0", ";1,0,0"), ParseError, (1, "origin="),
     "expected 4 comma-separated values"),
    ("origin without rotation", "robot", J1.replace("origin=0,0,0;1,0,0,0", "origin=0,0,0"), ParseError, (1, "origin="),
     "origin= expects <tx,ty,tz;qw,qx,qy,qz>"),
    ("non-finite number", "robot", J1.replace("vmax=10", "vmax=inf"), ParseError, (1, "vmax="),
     "non-finite number 'inf'"),
    ("zero-norm axis", "robot", J1.replace("axis=0,0,1", "axis=0,0,0"), ParseError, (1, "axis="),
     "axis has zero norm"),
    ("zero-norm origin rotation", "robot", J1.replace(";1,0,0,0", ";0,0,0,0"), ParseError, (1, "origin="),
     "origin rotation has zero norm"),
    ("bad exclusion reference", "robot", J1 + "\nsphere link1 center=0,0,0 radius=0.1\nexclude link1 link1/0",
     ParseError, (3, "link1"), "expected <link>/<sphere-index>, got 'link1'"),
    ("missing exclusion reference", "robot", J1 + "\nexclude link1/0", ParseError, (2, "exclude"),
     "missing sphere reference <link>/<index>"),
    ("sphere center of two values", "robot", J1 + "\nsphere link1 center=0,0 radius=0.1", ParseError, (2, "center="),
     "center= expects 3 comma-separated values"),
    ("exclusion with a key", "robot", J1 + "\nsphere link1 center=0,0,0 radius=0.1\nexclude link1/0 link1/0 near=1",
     ParseError, (3, "near=1"), "unknown key 'near'"),
    ("no joints", "robot", "# no joints\n", ValidationError, None, "robot model declares no joints"),
    ("duplicate joint names", "robot", J1 + "\n" + J1.replace("child=link1", "child=link2"), ValidationError,
     (2, "j1"), "duplicate joint names"),
    ("joint linking a link to itself", "robot", J1.replace("parent=base", "parent=link1"), ValidationError, None,
     "joint 'j1' connects link 'link1' to itself"),
    ("limits out of order", "robot", J1.replace("limits=-1,1", "limits=1,-1"), ValidationError, (1, "limits="),
     "min >= max on joint j1"),
    ("negative soft margin", "robot", J1.replace("soft=0.05", "soft=-0.05"), ValidationError, (1, "soft="),
     "negative soft margin on joint j1"),
    ("soft margin emptying the interval", "robot", J1.replace("soft=0.05", "soft=1.5"), ValidationError,
     (1, "soft="), "soft margin empties the soft interval on joint j1"),
    ("non-positive vmax", "robot", J1.replace("vmax=10", "vmax=0"), ValidationError, (1, "vmax="),
     "non-positive velocity limit on joint j1"),
    ("default outside the soft interval", "robot", J1.replace("default=0", "default=0.99"), ValidationError,
     (1, "default="), "default angle outside the soft interval on joint j1"),
    ("non-positive sphere radius", "robot", J1 + "\nsphere link1 center=0,0,0 radius=0", ValidationError,
     (2, "radius="), "non-positive sphere radius on link link1"),
    ("empty skeleton", "skeleton", "# no segments\n", ValidationError, None,
     "skeleton document declares no segments"),
    ("two roots", "skeleton", "segment a parent=-\nsegment b parent=-\n", ValidationError, None,
     "expected exactly one root segment, found 2"),
    ("undefined parent segment", "skeleton", "segment a parent=-\nsegment b parent=c\n", ParseError, (2, "parent="),
     "parent segment 'c' not defined yet"),
    ("unknown skeleton directive", "skeleton", "segmnt a parent=-\n", ParseError, (1, "segmnt"),
     "unknown directive 'segmnt'"),
    ("map sign of two values", "map", MAP1.replace("sign=1", "sign=1,1"), ParseError, (1, "sign="),
     "expected a number, got '1,1'"),
    ("map sign of 2", "map", MAP1.replace("sign=1", "sign=2"), ParseError, (1, "sign="),
     "sign must be +1 or -1, got '2'"),
    ("map3 of two joints", "map", MAP3.replace("j1,j2,j3", "j1,j2"), ParseError, (1, "j1,j2"),
     "map3 expects three comma-separated joint names"),
    ("unknown axis order", "map", MAP3.replace("order=ZXY", "order=XYZW"), ParseError, (1, "order="),
     "unknown axis order 'XYZW'"),
    ("map3 sign of 2", "map", MAP3.replace("signs=1,1,1", "signs=1,2,1"), ParseError, (1, "signs="),
     "signs must be +1 or -1, got '1,2,1'"),
    ("unknown map directive", "map", "unmapped j1\nmapp j1\n", ParseError, (2, "mapp"), "unknown directive 'mapp'"),
    ("unmapped with a key", "map", "unmapped j1 why=spare\n", ParseError, (1, "why=spare"), "unknown key 'why'"),
    ("extra unmapped token", "map", "unmapped j1 j2\n", ParseError, (1, "j2"), "unexpected token 'j2'"),
]


@pytest.mark.parametrize("kind, text, error, where, message", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_document_raises_its_error(kind, text, error, where, message):
    with pytest.raises(error) as exc:
        load(kind, text)
    assert type(exc.value) is error
    if where is None:
        assert str(exc.value) == message
    else:
        line, token = where
        column = text.splitlines()[line - 1].index(token) + 1
        if error is ParseError:
            assert (exc.value.line, exc.value.column) == (line, column)
            assert exc.value.message == message
        else:
            assert str(exc.value) == f"line {line}, col {column}: {message}"


class TestLoadRobotModel:
    def test_minimal_document(self):
        model = load_robot_model(MINIMAL_ROBOT)
        assert len(model) == 1
        assert model.base_link == "base"
        assert model.joints[0].limit_min == -1

    def test_min_equals_max_names_the_joint(self):
        bad = MINIMAL_ROBOT.replace("limits=-1,1", "limits=1,1")
        with pytest.raises(ValidationError, match="min >= max on joint j1"):
            load_robot_model(bad)

    def test_soft_margin_cannot_empty_interval(self):
        bad = MINIMAL_ROBOT.replace("soft=0.05", "soft=1.5")
        with pytest.raises(ValidationError, match="soft margin"):
            load_robot_model(bad)

    def test_default_outside_soft_interval(self):
        bad = MINIMAL_ROBOT.replace("default=0", "default=0.99")
        with pytest.raises(ValidationError, match="default angle"):
            load_robot_model(bad)

    def test_parse_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            load_robot_model("# comment\njoint j1 parent=base child=l1 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,x soft=0 vmax=1 default=0")
        assert exc.value.line == 2
        assert exc.value.column > 1

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            load_robot_model("jiont j1\n")

    def test_duplicate_child_link_rejected(self):
        doc = MINIMAL_ROBOT + "joint j2 parent=base child=link1 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,1 soft=0 vmax=1 default=0\n"
        with pytest.raises(ValidationError, match="child of two joints"):
            load_robot_model(doc)

    def test_dangling_parent_rejected(self):
        doc = MINIMAL_ROBOT + "joint j2 parent=nowhere child=link2 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,1 soft=0 vmax=1 default=0\n"
        with pytest.raises(ValidationError, match="tree"):
            load_robot_model(doc)

    def test_sphere_unknown_link(self):
        # the message names the sphere's line and its link token's column
        with pytest.raises(UnknownReference,
                           match=r"^line 2, col 9: collision sphere references unknown link 'ghost'$"):
            load_robot_model(MINIMAL_ROBOT + "sphere  ghost center=0,0,0 radius=0.1\n")

    def test_exclusion_missing_sphere(self):
        doc = MINIMAL_ROBOT + "sphere link1 center=0,0,0 radius=0.1\nexclude link1/0 link1/4\n"
        with pytest.raises(UnknownReference, match=r"^line 3, col 17: exclusion references missing sphere link1/4$"):
            load_robot_model(doc)

    def test_references_resolve_against_the_whole_document(self):
        # a sphere may precede the joint that declares its link, and an exclusion the sphere
        doc = ("exclude link1/0 base/0\nsphere link1 center=0,0,0 radius=0.1\n"
               + MINIMAL_ROBOT + "sphere base center=0,0,1 radius=0.1\n")
        assert load_robot_model(doc).exclusions == [(("link1", 0), ("base", 0))]
        with pytest.raises(UnknownReference, match=r"^line 1, col 17: exclusion references missing sphere base/1$"):
            load_robot_model("exclude link1/0 base/1\nsphere ghost center=0,0,0 radius=0.1\n" + doc)

    def test_a_model_built_in_code_checks_its_references(self):
        joints = load_robot_model(MINIMAL_ROBOT).joints
        with pytest.raises(UnknownReference, match=r"^collision sphere references unknown link 'ghost'$"):
            RobotModel(joints, [CollisionSphere("ghost", np.zeros(3), 0.1)])
        with pytest.raises(UnknownReference, match=r"^exclusion references missing sphere link1/1$"):
            RobotModel(joints, [CollisionSphere("link1", np.zeros(3), 0.1)], [(("link1", 0), ("link1", 1))])

    def test_a_model_built_in_code_checks_each_part_without_a_location(self):
        joint = load_robot_model(MINIMAL_ROBOT).joints[0]
        with pytest.raises(ValidationError, match=r"^min >= max on joint j1$"):
            RobotModel([dataclasses.replace(joint, limit_min=1.0, limit_max=-1.0)])
        with pytest.raises(ValidationError, match=r"^default angle outside the soft interval on joint j1$"):
            RobotModel([dataclasses.replace(joint, default_angle=0.99)])
        with pytest.raises(ValidationError, match=r"^duplicate joint names$"):
            RobotModel([joint, dataclasses.replace(joint, child_link="link2")])
        with pytest.raises(ValidationError, match=r"^non-positive sphere radius on link link1$"):
            RobotModel([joint], [CollisionSphere("link1", np.zeros(3), 0.0)])

    def test_sample_config_counts(self):
        model = load_robot_model(sample_text("g1_sample.cfg"))
        assert len(model) == 23
        assert len(model.spheres) == 14


class TestLoadSkeleton:
    def test_canonical_layout(self):
        skel = canonical_skeleton()
        assert len(skel) == 23
        assert skel.segments[0].name == "pelvis"
        assert skel.segments[0].parent == -1

    def test_parent_must_precede_child(self):
        with pytest.raises(ParseError, match="not defined yet"):
            load_skeleton("segment a parent=b\nsegment b parent=-\n")

    def test_duplicate_segment(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_skeleton("segment a parent=-\nsegment a parent=a\n")


class TestLoadRetargetMap:
    def setup_method(self):
        self.model = load_robot_model(MINIMAL_ROBOT)
        self.skel = load_skeleton("segment root parent=-\nsegment limb parent=root\n")

    def test_single_twist_rule_covers_model(self):
        rmap = load_retarget_map(
            "map j1 segment=limb axis=0,0,1 sign=+1 scale=1 offset=0\n", self.skel, self.model
        )
        assert len(rmap.twist_rules) == 1 and rmap.triple_rules == ()
        assert rmap.joint_count == 1

    def test_missing_joint_is_coverage_error(self):
        with pytest.raises(CoverageError, match="j1"):
            load_retarget_map("", self.skel, self.model)

    def test_duplicate_joint_is_coverage_error(self):
        doc = (
            "map j1 segment=limb axis=0,0,1 sign=+1 scale=1 offset=0\n"
            "unmapped j1\n"
        )
        with pytest.raises(CoverageError, match=r"^line 2, col 10: joint 'j1' referenced twice \(map and unmapped\)$"):
            load_retarget_map(doc, self.skel, self.model)

    def test_unknown_segment(self):
        # the message names the directive's line and the token's column
        with pytest.raises(UnknownReference, match=r"^line 1, col 8: unknown segment 'ghost'$"):
            load_retarget_map(
                "map j1 segment=ghost axis=0,0,1 sign=+1 scale=1 offset=0\n", self.skel, self.model
            )
        with pytest.raises(UnknownReference, match=r"^line 3, col 21: unknown segment 'ghost'$"):
            load_retarget_map(
                "# comment\n\n  map j1 axis=0,0,1 segment=ghost sign=+1 scale=1 offset=0\n", self.skel, self.model
            )

    def test_unknown_joint(self):
        with pytest.raises(UnknownReference, match=r"^line 1, col 5: unknown joint 'ghost'$"):
            load_retarget_map(
                "map ghost segment=limb axis=0,0,1 sign=+1 scale=1 offset=0\nunmapped j1\n",
                self.skel,
                self.model,
            )
        with pytest.raises(UnknownReference, match=r"^line 2, col 10: unknown joint 'ghost'$"):
            load_retarget_map("unmapped j1\nunmapped ghost\n", self.skel, self.model)

    def test_first_fault_in_document_order_wins(self):
        rule = "map j1 segment=limb axis=0,0,1 sign=+1 scale=1 offset=0"
        with pytest.raises(UnknownReference, match="ghost"):  # line 3's bad token is not reached
            load_retarget_map(f"{rule.replace('j1', 'ghost')}\nunmapped j1\n{rule} stray=1\n", self.skel, self.model)
        with pytest.raises(CoverageError, match=r"referenced twice \(unmapped and map\)"):
            load_retarget_map(f"unmapped j1\n{rule}\n{rule} stray=1\n", self.skel, self.model)
        with pytest.raises(ParseError, match="unknown key 'stray'"):
            load_retarget_map(f"{rule} stray=1\nunmapped ghost\n", self.skel, self.model)

    def test_bad_sign_rejected(self):
        with pytest.raises(ParseError, match="sign"):
            load_retarget_map(
                "map j1 segment=limb axis=0,0,1 sign=2 scale=1 offset=0\n", self.skel, self.model
            )

    def test_sample_map_loads(self):
        model = load_robot_model(sample_text("g1_sample.cfg"))
        skel = load_skeleton(sample_text("human_sample.cfg"))
        rmap = load_retarget_map(sample_text("g1_sample.map"), skel, model)
        assert rmap.joint_count == 23
        orders = {rule[1] for rule in rmap.triple_rules}
        assert orders == {"ZXY", "YXZ"}


class TestForwardKinematics:
    def test_zero_configuration_accumulates_fixed_transforms(self):
        model = load_robot_model(PLANAR_CHAIN)
        poses = forward_kinematics(model, [0.0, 0.0, 0.0])
        assert np.allclose(poses["link1"].position, [0, 0, 0])
        assert np.allclose(poses["link2"].position, [1, 0, 0])
        assert np.allclose(poses["tip"].position, [2, 0, 0])

    def test_planar_right_angles(self):
        model = load_robot_model(PLANAR_CHAIN)
        poses = forward_kinematics(model, [math.pi / 2, math.pi / 2, 0.0])
        assert np.allclose(poses["tip"].position, [-1, 1, 0], atol=1e-12)

    def test_dimension_mismatch(self):
        model = load_robot_model(PLANAR_CHAIN)
        with pytest.raises(DimensionMismatch):
            forward_kinematics(model, [0.0, 0.0])

    def test_matches_matrix_oracle_on_random_chains(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            lines = []
            parent = "base"
            for i in range(n):
                t = rng.uniform(-0.5, 0.5, size=3).tolist()
                q = rng.normal(size=4)
                q = (q / np.linalg.norm(q)).tolist()
                a = rng.normal(size=3)
                a = (a / np.linalg.norm(a)).tolist()
                lines.append(
                    f"joint j{i} parent={parent} child=l{i}"
                    f" origin={t[0]!r},{t[1]!r},{t[2]!r};{q[0]!r},{q[1]!r},{q[2]!r},{q[3]!r}"
                    f" axis={a[0]!r},{a[1]!r},{a[2]!r} limits=-3.2,3.2 soft=0 vmax=10 default=0"
                )
                parent = f"l{i}"
            model = load_robot_model("\n".join(lines))
            angles = rng.uniform(-math.pi, math.pi, size=n)
            poses = forward_kinematics(model, angles)
            mats = oracle_fk(model, angles)
            for link, pose in poses.items():
                assert np.allclose(pose.position, mats[link][:3, 3], atol=1e-9)
                # compare rotations by their action on a probe vector
                probe = np.array([0.3, -0.4, 0.5])
                assert np.allclose(
                    quat_rotate_vector(pose.rotation, probe), mats[link][:3, :3] @ probe, atol=1e-9
                )

    def test_rigid_body_distances_invariant_under_root_rotation(self):
        model = load_robot_model(sample_text("g1_sample.cfg"))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            angles = rng.uniform(model.soft_lower, model.soft_upper)
            poses = forward_kinematics(model, angles)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            names = list(poses)
            a, b = (names[int(i)] for i in rng.integers(len(names), size=2))
            d = np.linalg.norm(poses[a].position - poses[b].position)
            ra = quat_rotate_vector(q, poses[a].position)
            rb = quat_rotate_vector(q, poses[b].position)
            assert math.isclose(np.linalg.norm(ra - rb), d, rel_tol=0, abs_tol=1e-9)

    def test_batch_agrees_with_single(self):
        model = load_robot_model(sample_text("g1_sample.cfg"))
        rng = np.random.default_rng(3)
        angles = rng.uniform(model.soft_lower, model.soft_upper, size=(50, len(model)))
        positions, rotations = forward_kinematics_batch(model, angles)
        for i in range(50):
            single = forward_kinematics(model, angles[i])
            assert model.link_names == list(single)
            for k, link in enumerate(model.link_names):
                assert np.allclose(positions[k, i], single[link].position, atol=1e-12)
                bq = rotations[k, i]
                sq = single[link].rotation
                # same rotation regardless of sign convention
                assert min(np.abs(bq - sq).max(), np.abs(bq + sq).max()) < 1e-12

    def test_batch_shape_checked(self):
        model = load_robot_model(PLANAR_CHAIN)
        with pytest.raises(DimensionMismatch):
            forward_kinematics_batch(model, np.zeros((5, 2)))


def test_joint_axis_example_sanity():
    # quat_from_axis_angle and the loaders agree on axis normalization
    model = load_robot_model(MINIMAL_ROBOT.replace("axis=0,0,1", "axis=0,0,2"))
    assert np.allclose(model.joints[0].axis, [0, 0, 1])
    q = quat_from_axis_angle(model.joints[0].axis, 0.5)
    assert np.allclose(q, quat_from_axis_angle([0, 0, 1], 0.5))


def test_a_joint_before_the_joint_that_defines_its_parent_link_is_rejected():
    doc = "joint j2 parent=link1 child=link2 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,1 soft=0 vmax=1 default=0\n"
    with pytest.raises(ValidationError, match="^joint 'j2' attaches to link 'link1' before it is defined$"):
        load_robot_model(doc + MINIMAL_ROBOT)


@pytest.mark.parametrize("segments, message", [
    ([Segment("root", -1), Segment("root", 0)], "^duplicate segment names$"),
    ([Segment("root", -1), Segment("arm", 2), Segment("hand", 0)], "^segment 'arm' declared before its parent$"),
    ([Segment("root", -1), Segment("arm", -2)], "^segment 'arm' has an invalid parent index$"),
], ids=["duplicate", "parent after", "bad index"])
def test_a_skeleton_built_in_code_checks_its_tree(segments, message):
    with pytest.raises(ValidationError, match=message):
        HumanSkeleton(segments)
