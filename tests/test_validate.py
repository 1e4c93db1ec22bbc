"""Trace audit: limit/velocity/acceleration checks, collisions, the streaming validator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from teleokin.clock import VirtualClock
from teleokin.data import sample_text
from teleokin.errors import DimensionMismatch, EmptyTrace
from teleokin.geometry import canonicalize_rows
from teleokin.model import (
    forward_kinematics,
    forward_kinematics_batch,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
)
from teleokin import validate
from teleokin.retarget import FilterState, JointCommand, Pipeline
from teleokin.runtime import run_loop, validator_sink
from teleokin.stream import schedule, synth_motion
from teleokin.validate import KINDS, Thresholds, _SphereTable, collision_pairs, validate_trace

from test_model import oracle_fk


def sample_model():
    return load_robot_model(sample_text("g1_sample.cfg"))


def command_trace(model, angle_rows, period_us=10_000):
    cmds = []
    for i, row in enumerate(angle_rows):
        cmds.append(
            JointCommand(
                seq=i,
                source_seq=i,
                source_timestamp_us=i * period_us,
                emission_timestamp_us=i * period_us,
                angles=np.asarray(row, dtype=float),
                clamped=np.zeros(len(model), dtype=bool),
            )
        )
    return cmds


def pipeline_trace(pattern, seconds=1.0, noise=0.01, seed=2):
    model = sample_model()
    skel = load_skeleton(sample_text("human_sample.cfg"))
    rmap = load_retarget_map(sample_text("g1_sample.map"), skel, model)
    pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
    frames = synth_motion(pattern, rate=100, duration=seconds, noise_std=noise, seed=seed)

    captured = []

    class Capture:
        def emit(self, cmd):
            captured.append(cmd)

        def close(self):
            pass

    run_loop(schedule(frames), pipeline, Capture(), rate_hz=500, clock=VirtualClock())
    return model, captured


class TestValidateTrace:
    def test_compliant_pipeline_trace_passes(self):
        # The core battery under default thresholds: limits, velocity,
        # self-collision.  (No acceleration check by default: a 100 Hz source
        # consumed at 500 Hz alternates fresh and held samples, and the second
        # difference legitimately spikes at each boundary.)
        for pattern in ("walk-cycle", "arm-wave", "squat"):
            model, trace = pipeline_trace(pattern)
            report = validate_trace(model, trace, period_us=2000)
            assert report.passed, (pattern, report.counts)
            assert report.violations == []
            assert report.counts == {k: 0 for k in report.counts}

    def test_single_limit_violation_at_index(self):
        model, trace = pipeline_trace("static", seconds=0.2, noise=0.0)
        j = model.joint_index("left_knee")
        doctored = trace[37].angles.copy()
        doctored[j] = model.joints[j].limit_max + 0.1
        trace[37].angles = doctored
        report = validate_trace(
            model, trace, thresholds=Thresholds(acceleration_limit=None), period_us=2000
        )
        limit_violations = [v for v in report.violations if v.kind == "limit"]
        assert len(limit_violations) == 1
        assert limit_violations[0].cycle == 37
        assert limit_violations[0].identifier == "left_knee"
        # the step also breaks the velocity check, but the limit entry is the
        # one this fixture pins down
        assert not report.passed

    def test_velocity_violation_on_jump(self):
        model = sample_model()
        n = len(model)
        rows = np.zeros((10, n))
        rows[5, model.joint_index("waist_yaw")] = 0.5  # 0.5 rad in one 10 ms step
        trace = command_trace(model, rows)
        report = validate_trace(
            model, trace, thresholds=Thresholds(acceleration_limit=None), period_us=10_000
        )
        vel = [v for v in report.violations if v.kind == "velocity"]
        assert {v.cycle for v in vel} == {5, 6}  # into and out of the spike
        assert all(v.identifier == "waist_yaw" for v in vel)
        assert vel[0].value == pytest.approx(50.0)
        assert vel[0].threshold == model.joints[model.joint_index("waist_yaw")].velocity_limit

    @pytest.mark.parametrize("period_us", [-2000, 0, math.nan, math.inf])
    def test_period_must_be_positive_and_finite(self, period_us):
        # A negative period would make every rate negative, so no rate check could
        # trip on this 0.5 rad jump.
        model = sample_model()
        rows = np.zeros((4, len(model)))
        rows[2, model.joint_index("waist_yaw")] = 0.5
        trace = command_trace(model, rows, period_us=2000)
        with pytest.raises(ValueError, match="period_us"):
            validate_trace(model, trace, period_us=period_us)
        with pytest.raises(ValueError, match="period_us"):
            validator_sink(model, period_us=period_us)

    def test_velocity_check_is_translation_invariant(self):
        model, trace = pipeline_trace("arm-wave", seconds=0.5)
        report_before = validate_trace(
            model, trace, thresholds=Thresholds(acceleration_limit=None), period_us=2000
        )
        j = model.joint_index("waist_yaw")
        for cmd in trace:
            shifted = cmd.angles.copy()
            shifted[j] += 0.2
            cmd.angles = shifted
        report_after = validate_trace(
            model, trace, thresholds=Thresholds(acceleration_limit=None), period_us=2000
        )
        assert report_before.counts["velocity"] == report_after.counts["velocity"]

    def test_acceleration_check_and_disable(self):
        model = sample_model()
        n = len(model)
        rows = np.zeros((6, n))
        j = model.joint_index("waist_yaw")
        rows[3, j] = 0.02  # small jump: velocity 2 rad/s passes, accel 400 rad/s^2 fails
        trace = command_trace(model, rows)
        strict = validate_trace(model, trace, thresholds=Thresholds(200.0), period_us=10_000)
        assert strict.counts["velocity"] == 0
        assert strict.counts["acceleration"] > 0
        literal = validate_trace(model, trace, thresholds=Thresholds(None), period_us=10_000)
        assert literal.passed

    def test_two_sphere_fixture_margin(self):
        # One revolute joint carries a sphere past a fixed one: centers meet
        # at 0.15 m. Radii 0.05 + 0.05: clear at margin 0, flagged at 0.06.
        doc = (
            "joint spin parent=base child=arm origin=0,0,0;1,0,0,0 axis=0,0,1"
            " limits=-3.2,3.2 soft=0 vmax=10 default=0\n"
            "sphere base center=0,0,0 radius=0.05\n"
            "sphere arm center=0.15,0,0 radius=0.05\n"
        )
        model = load_robot_model(doc)
        trace = command_trace(model, [[0.0]])
        clear = validate_trace(model, trace, thresholds=Thresholds(collision_margin=0.0))
        assert clear.passed
        flagged = validate_trace(model, trace, thresholds=Thresholds(collision_margin=0.06))
        assert flagged.counts["self-collision"] == 1
        assert flagged.violations[0].identifier == "base/0,arm/0"
        assert flagged.violations[0].value == pytest.approx(0.15)

    @pytest.mark.parametrize("margin", [-0.01, math.nan, math.inf])
    def test_collision_margin_must_be_finite_and_non_negative(self, margin):
        # Every distance compares False against a NaN limit, so a NaN margin
        # would turn the self-collision check off.
        with pytest.raises(ValueError, match="collision_margin"):
            Thresholds(collision_margin=margin)

    def test_thresholds_are_frozen(self):
        # A validator bakes the margin into its pair limits when it is built.
        with pytest.raises(dataclasses.FrozenInstanceError):
            Thresholds().collision_margin = 1.0

    def test_collisions_agree_with_brute_force(self):
        model = sample_model()
        pairs = collision_pairs(model)
        by_ref = {}
        per_link = {}
        for s in model.spheres:
            idx = per_link.get(s.link, 0)
            per_link[s.link] = idx + 1
            by_ref[(s.link, idx)] = s
        rng = np.random.default_rng(21)
        rows = rng.uniform(model.soft_lower, model.soft_upper, size=(200, len(model)))
        trace = command_trace(model, rows)
        report = validate_trace(
            model,
            trace,
            thresholds=Thresholds(acceleration_limit=None),
            period_us=10_000,
        )
        got = {(v.cycle, v.identifier) for v in report.violations if v.kind == "self-collision"}
        expected = set()
        for i, angles in enumerate(rows):
            mats = oracle_fk(model, angles)
            for (la, ia), (lb, ib) in pairs:
                sa, sb = by_ref[(la, ia)], by_ref[(lb, ib)]
                pa = mats[la][:3, :3] @ sa.center + mats[la][:3, 3]
                pb = mats[lb][:3, :3] @ sb.center + mats[lb][:3, 3]
                if np.linalg.norm(pa - pb) < sa.radius + sb.radius:
                    expected.add((i, f"{la}/{ia},{lb}/{ib}"))
        assert got == expected
        assert expected  # random soft-interval poses do collide sometimes

    def test_hold_commands_participate(self):
        model = sample_model()
        rows = np.zeros((4, len(model)))
        trace = command_trace(model, rows)
        for cmd in trace[2:]:
            cmd.hold = True
        report = validate_trace(model, trace, period_us=10_000)
        assert report.cycles == 4
        assert report.passed

    def test_empty_trace(self):
        with pytest.raises(EmptyTrace):
            validate_trace(sample_model(), [])

    def test_dimension_mismatch(self):
        model = sample_model()
        bad = command_trace(model, np.zeros((2, len(model))))
        bad[1].angles = np.zeros(3)
        with pytest.raises(DimensionMismatch):
            validate_trace(model, bad)

    def test_report_format(self):
        model = sample_model()
        rows = np.zeros((3, len(model)))
        rows[1, 0] = 9.0
        report = validate_trace(
            model,
            command_trace(model, rows),
            thresholds=Thresholds(acceleration_limit=None),
            period_us=10_000,
        )
        text = report.format()
        assert "verdict=fail" in text
        body = [l for l in text.splitlines() if l and not l.startswith(("#", "verdict", "limit="))]
        for line in body:
            kind, cycle, ident, value, threshold = line.split()
            assert kind in ("limit", "velocity", "acceleration", "self-collision")
            int(cycle)
            float(value)
            float(threshold)


def streamed(model, trace, **kwargs):
    validator = validator_sink(model, **kwargs)
    for cmd in trace:
        validator.emit(cmd)
    return validator.report()


@st.composite
def angle_traces(draw):
    """Rows that hold, creep, or jump anywhere in [-3.5, 3.5] rad: the jumps
    leave the soft limits, break the velocity check and collide spheres."""
    n_joints = len(sample_model())
    rows = [np.zeros(n_joints)]
    for _ in range(draw(st.integers(0, 7))):
        move = draw(st.sampled_from(["hold", "creep", "jump"]))
        if move == "hold":
            rows.append(rows[-1].copy())
        elif move == "creep":
            rows.append(rows[-1] + draw(arrays(float, n_joints, elements=st.floats(-0.02, 0.02))))
        else:
            rows.append(draw(arrays(float, n_joints, elements=st.floats(-3.5, 3.5))))
    return np.array(rows)


class TestStreamingValidator:
    def test_non_finite_angle_is_a_limit_violation(self):
        model = sample_model()
        j = model.joint_index("left_knee")
        for bad in (math.nan, math.inf):
            rows = np.zeros((3, len(model)))
            rows[1, j] = bad
            trace = command_trace(model, rows)
            offline = validate_trace(model, trace, period_us=10_000)
            online = streamed(model, trace, period_us=10_000)
            limit = [v for v in offline.violations if v.kind == "limit"]
            assert [(v.cycle, v.identifier) for v in limit] == [(1, "left_knee")]
            assert [v.line() for v in online.violations] == [v.line() for v in offline.violations]

    def test_inferred_period_is_reported(self):
        model = sample_model()
        rows = np.zeros((4, len(model)))
        rows[2, model.joint_index("waist_yaw")] = 0.5
        trace = command_trace(model, rows, period_us=2000)
        online = streamed(model, trace)
        offline = validate_trace(model, trace)
        assert online.period_us == offline.period_us == 2000
        assert "period_us=2000\n" in online.format()
        assert online.format() == offline.format()
        assert streamed(model, trace[:1]).period_us == validate_trace(model, trace[:1]).period_us == 1.0
        same_stamp = command_trace(model, rows[:2], period_us=0)
        assert streamed(model, same_stamp).period_us == validate_trace(model, same_stamp).period_us == 1.0

    def test_inferred_period_is_the_emission_span_over_the_seq_span(self):
        # Live commands go early, up to a period before their tick, so their
        # emission deltas spread over 0-4 ms around the period; here they are
        # 1400 us three times in four, so their median reads 30% low.
        model = sample_model()
        trace = command_trace(model, np.zeros((41, len(model))), period_us=2000)
        for cmd in trace:
            cmd.emission_timestamp_us -= (cmd.seq % 4) * 600
        deltas = np.diff([cmd.emission_timestamp_us for cmd in trace])
        assert (deltas.min(), np.median(deltas), deltas.max()) == (1400, 1400, 3800)
        assert validate_trace(model, trace).period_us == 2000
        assert validate_trace(model, trace[4:]).period_us == 2000  # the span counts from seq 4
        assert validate_trace(model, trace[3:]).period_us == (80_000 - 4200) / 37  # 1800 us early at seq 3

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rows=angle_traces(),
        acceleration_limit=st.sampled_from([None, 200.0]),
        margin=st.sampled_from([0.0, 0.05]),
        period_us=st.sampled_from([2000, 10_000]),
    )
    def test_streaming_equals_offline(self, rows, acceleration_limit, margin, period_us):
        assert_streaming_equals_offline(rows, Thresholds(acceleration_limit, margin), period_us)

    def test_streaming_equals_offline_on_infinite_angles(self):
        model = sample_model()
        rows = np.random.default_rng(5).uniform(-3.5, 3.5, size=(8, len(model)))
        rows[2, model.joint_index("left_knee")] = math.inf
        rows[2, model.joint_index("waist_yaw")] = -math.inf
        rows[5, model.joint_index("left_shoulder_pitch")] = -math.inf
        report = assert_streaming_equals_offline(rows, Thresholds(acceleration_limit=200.0), 2000)
        assert all(report.counts[kind] for kind in KINDS)


def assert_streaming_equals_offline(rows, thresholds, period_us):
    model = sample_model()
    trace = command_trace(model, rows, period_us=period_us)
    offline = validate_trace(model, trace, thresholds=thresholds, period_us=period_us)
    online = streamed(model, trace, thresholds=thresholds, period_us=period_us)
    assert online.cycles == offline.cycles
    assert [(v.kind, v.cycle, v.identifier) for v in online.violations] == [
        (v.kind, v.cycle, v.identifier) for v in offline.violations
    ]
    for a, b in zip(online.violations, offline.violations):
        assert a.threshold == b.threshold
        if a.kind == "self-collision":
            # one streamed row takes the compiled plain-float FK, a trace the batch FK
            assert a.value == pytest.approx(b.value, rel=0, abs=1e-9)
        else:
            assert a.value == b.value
    return offline


def random_tree_model(seed=3, n_joints=12):
    """A branching joint tree with random origin rotations, axes and spheres;
    the sample robot's origin rotations are all the identity."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_joints):
        parent = "base" if i == 0 else f"l{rng.integers(i)}"
        t = ",".join(repr(v) for v in rng.uniform(-0.3, 0.3, size=3).tolist())
        q = ",".join(repr(v) for v in rng.normal(size=4).tolist())
        a = ",".join(repr(v) for v in rng.normal(size=3).tolist())
        lines.append(
            f"joint j{i} parent={parent} child=l{i} origin={t};{q} axis={a}"
            " limits=-3.2,3.2 soft=0 vmax=10 default=0"
        )
    for link in ["base"] + [f"l{i}" for i in range(n_joints)]:
        c = ",".join(repr(v) for v in rng.uniform(-0.1, 0.1, size=3).tolist())
        lines.append(f"sphere {link} center={c} radius=0.05")
    return load_robot_model("\n".join(lines))


@pytest.mark.parametrize("make_model", [sample_model, random_tree_model], ids=["sample", "random-tree"])
class TestRowKernel:
    """The validator's one-row FK and pair distances against the numpy oracles."""

    @staticmethod
    def rows(model):
        rng = np.random.default_rng(11)
        rows = rng.uniform(-3.5, 3.5, size=(60, len(model)))
        for start in range(2):  # a NaN angle makes its joint's subtree NaN
            rows[start::6, rng.integers(len(model))] = math.nan
        return rows

    def test_row_poses_match_the_scalar_fk(self, make_model):
        model = make_model()
        spheres = _SphereTable(model)
        for row in self.rows(model):
            reference = forward_kinematics(model, row)
            poses = spheres.row_poses(row.tolist())
            assert spheres.link_names == list(reference)
            for link, (position, rotation) in zip(spheres.link_names, poses):
                np.testing.assert_allclose(position, reference[link].position, rtol=0, atol=1e-12)
                # q and -q are one rotation; the scalar FK returns the canonical sign
                rotation = canonicalize_rows(np.array(rotation))
                np.testing.assert_allclose(rotation, reference[link].rotation, rtol=0, atol=1e-12)

    def test_row_distances_match_the_batch_distances(self, make_model):
        model = make_model()
        spheres = _SphereTable(model)
        for row in self.rows(model):
            batch = spheres.distances(forward_kinematics_batch(model, row[None]), slice(0, 1))[0]
            row_distances = spheres.row_distances(row.tolist())
            np.testing.assert_allclose(row_distances, batch, rtol=0, atol=1e-12)


def colliding_row(model):
    """A soft-interval pose with at least one self-collision."""
    rows = np.random.default_rng(21).uniform(model.soft_lower, model.soft_upper, size=(200, len(model)))
    table = _SphereTable(model)
    return next(row for row in rows if (np.array(table.row_distances(row.tolist())) < table.limits).any())


class TestRowMemo:
    """A streamed row bit-identical to the previous one reuses its limit and
    self-collision violations; its rates are judged afresh."""

    @staticmethod
    def count_row_poses(monkeypatch):
        calls = []
        row_poses = _SphereTable.row_poses

        def counting(self, angles):
            calls.append(list(angles))
            return row_poses(self, angles)

        monkeypatch.setattr(_SphereTable, "row_poses", counting)
        return calls

    def test_each_run_of_identical_rows_is_computed_once(self, monkeypatch):
        calls = self.count_row_poses(monkeypatch)
        model = sample_model()
        rng = np.random.default_rng(4)
        runs = [5, 1, 3, 4]
        rows = np.concatenate([np.tile(rng.uniform(-1, 1, len(model)), (n, 1)) for n in runs])
        trace = command_trace(model, rows, period_us=2000)
        for thresholds in (Thresholds(), Thresholds(acceleration_limit=200.0)):
            calls.clear()
            online = streamed(model, trace, thresholds=thresholds)
            assert len(calls) == len(runs)
            offline = validate_trace(model, trace, thresholds=thresholds)
            assert [v.line() for v in online.violations] == [v.line() for v in offline.violations]

    def test_a_repeated_colliding_pose_reports_at_every_cycle(self):
        model = sample_model()
        trace = command_trace(model, np.tile(colliding_row(model), (5, 1)), period_us=2000)
        online = [v for v in streamed(model, trace).violations if v.kind == "self-collision"]
        offline = [v for v in validate_trace(model, trace).violations if v.kind == "self-collision"]
        per_cycle = len(online) // 5
        assert per_cycle and [v.cycle for v in online] == [c for c in range(5) for _ in range(per_cycle)]
        assert len({id(v) for v in online}) == len(online)
        assert [v.line() for v in online] == [v.line() for v in offline]

    def test_a_signed_zero_or_one_ulp_is_recomputed(self, monkeypatch):
        calls = self.count_row_poses(monkeypatch)
        model = sample_model()
        zero = np.zeros(len(model))
        negative = zero.copy()
        negative[3] = -0.0
        ulp = zero.copy()
        ulp[3] = np.nextafter(0.0, 1.0)
        rows = [zero, zero, negative, negative, ulp, zero]
        trace = command_trace(model, rows, period_us=2000)
        assert streamed(model, trace).format() == validate_trace(model, trace).format()
        assert len(calls) == 4
        assert math.copysign(1.0, calls[1][3]) == -1.0 and calls[2][3] == np.nextafter(0.0, 1.0)

    def test_two_validators_of_one_model_report_as_they_do_alone(self):
        model = sample_model()
        hit = colliding_row(model)
        ours = command_trace(model, [hit, hit, np.zeros(len(model)), hit, hit], period_us=2000)
        theirs = command_trace(model, [np.zeros(len(model))] * 2 + [hit] * 3, period_us=2000)
        alone = [streamed(model, ours).format(), streamed(model, theirs).format()]
        a, b = validator_sink(model), validator_sink(model)
        for x, y in zip(ours, theirs):
            a.emit(x)
            b.emit(y)
        assert [a.report().format(), b.report().format()] == alone
        assert alone[0] != alone[1]

    def test_a_repeated_row_with_nan_or_inf_matches_the_offline_audit(self):
        model = sample_model()
        row = colliding_row(model)
        row[model.joint_index("waist_yaw")] = math.nan
        row[model.joint_index("left_shoulder_pitch")] = math.inf
        trace = command_trace(model, np.tile(row, (3, 1)), period_us=2000)
        for thresholds in (Thresholds(), Thresholds(acceleration_limit=200.0)):
            offline = validate_trace(model, trace, thresholds=thresholds)
            assert streamed(model, trace, thresholds=thresholds).format() == offline.format()
            assert offline.counts["limit"] == 6 and offline.counts["self-collision"] == 3

    def test_the_sphere_table_keeps_no_stream_state(self):
        model = sample_model()
        table = validate._sphere_table(model)
        before = dict(vars(table))
        hit = colliding_row(model)
        trace = command_trace(model, [hit, hit, np.zeros(len(model)), hit, hit], period_us=2000)
        a, b = validator_sink(model), validator_sink(model)
        for x, y in zip(trace, trace[::-1]):
            a.emit(x)
            b.emit(y)
        assert a._spheres is b._spheres is table
        assert a.report().counts["self-collision"] and b.report().counts["self-collision"]
        assert vars(table) == before


def test_sphere_table_is_compiled_once_per_model_and_margin(monkeypatch):
    compiled = []

    class Counting(_SphereTable):
        def __init__(self, model, margin=0.0):
            compiled.append(margin)
            super().__init__(model, margin)

    monkeypatch.setattr(validate, "_SphereTable", Counting)
    model = sample_model()
    trace = command_trace(model, np.tile(model.default_angles, (5, 1)))
    for _ in range(3):
        validate_trace(model, trace)
        validator_sink(model).emit(trace[0])
        collision_pairs(model)
    wide = Thresholds(collision_margin=0.01)
    validate_trace(model, trace, wide)
    validator_sink(model, wide).emit(trace[0])
    assert compiled == [0.0, 0.01]
    validate_trace(sample_model(), trace)  # an equal but distinct model compiles its own
    assert compiled == [0.0, 0.01, 0.0]
