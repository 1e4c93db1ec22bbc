"""Mapping, clamping, smoothing, and the composed retargeting step."""

import math

import numpy as np
import pytest

from teleokin.clock import VirtualClock
from teleokin.data import sample_text
from teleokin.errors import DimensionMismatch, NonFiniteAngle
from teleokin.geometry import (
    GIMBAL_MARGIN,
    canonicalize_rows,
    euler_decompose,
    quat_from_axis_angle,
    quat_multiply,
    quat_multiply_rows,
    swing_twist,
)
from teleokin import retarget
from teleokin.model import load_retarget_map, load_robot_model, load_skeleton
from teleokin.retarget import (
    FilterState,
    Pipeline,
    _map_frame,
    enforce_limits,
    map_frame,
    smooth,
)
from teleokin.stream import synth_motion
from teleokin.wire import MocapFrame, identity_frame


def sample_setup():
    model = load_robot_model(sample_text("g1_sample.cfg"))
    skel = load_skeleton(sample_text("human_sample.cfg"))
    rmap = load_retarget_map(sample_text("g1_sample.map"), skel, model)
    return model, skel, rmap


def small_setup(default=0.25):
    model = load_robot_model(
        f"joint bend parent=base child=l1 origin=0,0,0;1,0,0,0 axis=0,1,0 limits=-3,3 soft=0.1 vmax=10 default=0\n"
        f"joint idle parent=l1 child=l2 origin=0,0,0;1,0,0,0 axis=0,0,1 limits=-1,1 soft=0.1 vmax=10 default={default}\n"
    )
    skel = load_skeleton("segment root parent=-\nsegment limb parent=root\n")
    rmap = load_retarget_map(
        "map bend segment=limb axis=0,1,0 sign=+1 scale=1 offset=0\nunmapped idle\n",
        skel,
        model,
    )
    return model, skel, rmap


class TestMapFrame:
    def test_identity_frame_gives_zeros_and_defaults(self):
        model, skel, rmap = small_setup(default=0.25)
        angles = map_frame(rmap, identity_frame(2))
        assert np.array_equal(angles, [0.0, 0.25])

    def test_pure_twist_passthrough(self):
        model, skel, rmap = small_setup()
        frame = identity_frame(2)
        frame.orientations[1] = quat_from_axis_angle([0, 1, 0], math.pi / 2)
        angles = map_frame(rmap, frame)
        assert math.isclose(angles[0], math.pi / 2, abs_tol=1e-12)

    def test_sign_scale_offset(self):
        model = load_robot_model(
            "joint j parent=base child=l1 origin=0,0,0;1,0,0,0 axis=0,1,0 limits=-9,9 soft=0 vmax=10 default=0\n"
        )
        skel = load_skeleton("segment root parent=-\nsegment limb parent=root\n")
        rmap = load_retarget_map(
            "map j segment=limb axis=0,1,0 sign=-1 scale=0.5 offset=0.1\n", skel, model
        )
        frame = identity_frame(2)
        frame.orientations[1] = quat_from_axis_angle([0, 1, 0], 0.8)
        angles = map_frame(rmap, frame)
        assert math.isclose(angles[0], -1.0 * 0.5 * 0.8 + 0.1, abs_tol=1e-12)

    def test_triple_rule_matches_decomposition(self):
        model, skel, rmap = sample_setup()
        frame = identity_frame(23)
        q = quat_multiply(
            quat_from_axis_angle([0, 0, 1], 0.4),
            quat_multiply(
                quat_from_axis_angle([1, 0, 0], 0.2), quat_from_axis_angle([0, 1, 0], -0.3)
            ),
        )
        frame.orientations[skel.index("left_thigh")] = q
        angles = map_frame(rmap, frame)
        decomposed, gimbal = euler_decompose(q, "ZXY")
        assert not gimbal
        assert np.allclose(decomposed, [0.4, 0.2, -0.3], atol=1e-9)
        kind, joints, _, order, signs, scales, offsets = next(
            r for r in _map_rules(sample_text("g1_sample.map")) if r[2] == "left_thigh"
        )
        assert (kind, order) == ("map3", "ZXY")
        for slot, joint in enumerate(joints):
            expected = signs[slot] * scales[slot] * decomposed[slot] + offsets[slot]
            assert angles[model.joint_index(joint)] == pytest.approx(expected, abs=1e-12)

    def test_segment_count_checked(self):
        model, skel, rmap = small_setup()
        with pytest.raises(DimensionMismatch):
            map_frame(rmap, identity_frame(5))


def _map_rules(text):
    """A map document's rules as its text states them, read without the loader.

    ``("map", joint, segment, unit axis, sign, scale, offset)`` and
    ``("map3", joints, segment, order, signs, scales, offsets)``, by name.
    """
    rules = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens or tokens[0] == "unmapped":
            continue
        keys = dict(token.split("=", 1) for token in tokens[2:])
        if tokens[0] == "map":
            axis = np.array([float(v) for v in keys["axis"].split(",")])
            rules.append(("map", tokens[1], keys["segment"], axis / np.linalg.norm(axis),
                          float(keys["sign"]), float(keys["scale"]), float(keys["offset"])))
        else:
            reals = [[float(v) for v in keys[key].split(",")] for key in ("signs", "scales", "offsets")]
            rules.append(("map3", tokens[1].split(","), keys["segment"], keys["order"].upper(), *reals))
    return rules


def _reference_map(model, skel, rules, quats):
    """Rule by rule, by joint and segment name, through the scalar swing_twist / euler_decompose."""
    angles = model.default_angles.copy()
    gimbal_warnings = 0
    for kind, joints, segment, *rest in rules:
        q = quats[skel.index(segment)]
        if kind == "map":
            axis, sign, scale, offset = rest
            _, twist = swing_twist(q, axis)
            angles[model.joint_index(joints)] = sign * scale * twist + offset
        else:
            order, signs, scales, offsets = rest
            decomposed, gimbal = euler_decompose(q, order)
            gimbal_warnings += gimbal
            for slot, joint in enumerate(joints):
                angles[model.joint_index(joint)] = signs[slot] * scales[slot] * float(decomposed[slot]) + offsets[slot]
    return angles, gimbal_warnings


def _axis_rows(axis: str, angles: np.ndarray) -> np.ndarray:
    rows = np.zeros((len(angles), 4))
    rows[:, 0] = np.cos(angles / 2)
    rows[:, 1 + "XYZ".index(axis)] = np.sin(angles / 2)
    return rows


def _intrinsic_rows(order: str, a1, a2, a3) -> np.ndarray:
    q = quat_multiply_rows(_axis_rows(order[0], a1), _axis_rows(order[1], a2))
    return quat_multiply_rows(q, _axis_rows(order[2], a3))


def test_compiled_map_matches_scalar_rules():
    """10^5 seeded frames: the compiled map equals the per-rule scalar path bit for bit."""
    model, skel, rmap = sample_setup()
    rules = _map_rules(sample_text("g1_sample.map"))
    rng = np.random.default_rng(2024)
    n = 100_000
    quats = rng.normal(size=(n, len(skel), 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    # Every 7th frame: both ZXY thighs and both YXZ upper arms within twice
    # GIMBAL_MARGIN of the singularity, so the flag goes both ways.
    near = np.arange(0, n, 7)
    for segment, order in (
        ("left_thigh", "ZXY"), ("right_thigh", "ZXY"),
        ("left_upper_arm", "YXZ"), ("right_upper_arm", "YXZ"),
    ):
        middle = rng.choice([-1.0, 1.0], len(near)) * (
            math.pi / 2 - rng.uniform(0.0, 2 * GIMBAL_MARGIN, len(near))
        )
        outer = rng.uniform(-math.pi, math.pi, (2, len(near)))
        quats[near, skel.index(segment)] = _intrinsic_rows(order, outer[0], middle, outer[1])
    # Every 11th frame: the left shank (twist about y) has w = 0 and a vector
    # part orthogonal to y, so it has no twist component.
    flat = np.arange(0, n, 11)
    shank = np.zeros((len(flat), 4))
    shank[:, [1, 3]] = rng.normal(size=(len(flat), 2))
    shank /= np.linalg.norm(shank, axis=-1, keepdims=True)
    quats[flat, skel.index("left_shank")] = shank
    canonicalize_rows(quats)

    got = np.empty((n, len(model)))
    expected = np.empty((n, len(model)))
    got_gimbal = np.empty(n, dtype=int)
    expected_gimbal = np.empty(n, dtype=int)
    for f in range(n):
        got[f], got_gimbal[f] = _map_frame(rmap, MocapFrame(f, f, quats[f]))
        expected[f], expected_gimbal[f] = _reference_map(model, skel, rules, quats[f])
    assert np.array_equal(got, expected)
    assert np.array_equal(got_gimbal, expected_gimbal)
    # The near-gimbal and degenerate inputs reached their branches.
    assert 0 < expected_gimbal[near].sum() < 4 * len(near)
    assert np.all(got[flat, model.joint_index("left_knee")] == 0.0)


class TestEnforceLimits:
    def setup_method(self):
        lines = []
        parent = "base"
        for i, (lo, hi) in enumerate([(-1, 1), (-2, 0.5), (0, 3), (-0.5, 0.5), (-2, 2)]):
            lines.append(
                f"joint j{i} parent={parent} child=l{i} origin=0,0,0;1,0,0,0 axis=0,0,1"
                f" limits={lo},{hi} soft=0.1 vmax=10 default={(lo + hi) / 2}"
            )
            parent = f"l{i}"
        self.model = load_robot_model("\n".join(lines))

    def test_inside_unchanged(self):
        raw = np.array([0.0, -1.0, 1.5, 0.0, 0.3])
        clamped, flags = enforce_limits(self.model, raw)
        assert np.array_equal(clamped, raw)
        assert not flags.any()

    def test_above_max_clamps_to_soft_bound(self):
        raw = np.array([5.0, 0.0, 1.0, 0.0, 0.0])
        clamped, flags = enforce_limits(self.model, raw)
        assert clamped[0] == 0.9  # max - soft
        assert flags[0] and not flags[1:].any()

    def test_element_wise_against_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            raw = rng.uniform(-4, 4, size=5)
            clamped, flags = enforce_limits(self.model, raw)
            for i, joint in enumerate(self.model.joints):
                lo = joint.limit_min + joint.soft_margin
                hi = joint.limit_max - joint.soft_margin
                ref = min(max(raw[i], lo), hi)
                assert clamped[i] == ref
                assert flags[i] == (ref != raw[i])

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=5)
            y = x + rng.uniform(0, 3, size=5)  # y >= x elementwise
            cx, _ = enforce_limits(self.model, x)
            cy, _ = enforce_limits(self.model, y)
            cxx, _ = enforce_limits(self.model, cx)
            assert np.array_equal(cxx, cx)
            assert (cx <= cy).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            enforce_limits(self.model, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, bad):
        with pytest.raises(NonFiniteAngle, match="joint 3"):
            enforce_limits(self.model, [0.0, 0.0, 1.0, bad, 0.0])


class TestSmooth:
    def test_zero_tau_is_passthrough(self):
        state = FilterState.create(3, tau=0.0)
        smooth(state, [1.0, 2.0, 3.0], dt=0.01)
        out = smooth(state, [4.0, 5.0, 6.0], dt=0.01)
        assert np.array_equal(out, [4.0, 5.0, 6.0])

    def test_first_frame_passes_through(self):
        state = FilterState.create(2, tau=1.0)
        out = smooth(state, [0.7, -0.7], dt=0.01)
        assert np.array_equal(out, [0.7, -0.7])

    def test_step_response_matches_closed_form(self):
        # y_n = 1 - exp(-n dt / tau) for a unit step from a zero-initialized
        # filter; at t = tau exactly 1 - 1/e.
        state = FilterState.create(1, tau=0.020)
        smooth(state, [0.0], dt=0.002)  # initialize at rest
        out = 0.0
        for n in range(1, 11):
            out = smooth(state, [1.0], dt=0.002)[0]
            assert math.isclose(out, 1.0 - math.exp(-n * 0.002 / 0.020), abs_tol=1e-9)
        assert math.isclose(out, 1.0 - math.exp(-1.0), abs_tol=1e-9)

    def test_rate_independence(self):
        # Two different step sizes reach the same level at equal elapsed time.
        fine = FilterState.create(1, tau=0.05)
        coarse = FilterState.create(1, tau=0.05)
        smooth(fine, [0.0], dt=0.001)
        smooth(coarse, [0.0], dt=0.005)
        for _ in range(50):
            y_fine = smooth(fine, [1.0], dt=0.001)[0]
        for _ in range(10):
            y_coarse = smooth(coarse, [1.0], dt=0.005)[0]
        assert math.isclose(y_fine, y_coarse, abs_tol=1e-12)

    def test_phase_lag_tracks_first_order_prediction(self):
        # Spot-check of the EMA's frequency response; the acceptance suite
        # repeats this at all three stated frequencies.
        assert _measured_phase_lag(1.0, 0.020, rate=1000.0) == pytest.approx(
            math.atan(2 * math.pi * 1.0 * 0.020), rel=0.05
        )

    def test_bad_dt(self):
        state = FilterState.create(1, tau=0.02)
        with pytest.raises(ValueError):
            smooth(state, [0.0], dt=0.0)

    def test_dimension_mismatch(self):
        state = FilterState.create(2, tau=0.02)
        with pytest.raises(DimensionMismatch):
            smooth(state, [0.0, 1.0, 2.0], dt=0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises_and_keeps_state(self, bad):
        for tau in (0.0, 0.02):  # pass-through and smoothing
            fresh = FilterState.create(2, tau=tau)
            with pytest.raises(NonFiniteAngle, match="joint 1"):
                smooth(fresh, [0.5, bad], dt=0.01)
            assert not fresh.initialized and fresh.previous == [0.0, 0.0]
            state, reference = FilterState.create(2, tau=tau), FilterState.create(2, tau=tau)
            smooth(state, [0.5, -0.5], dt=0.01)
            smooth(reference, [0.5, -0.5], dt=0.01)
            with pytest.raises(NonFiniteAngle, match="joint 0"):
                smooth(state, [bad, 0.0], dt=0.01)
            assert state.previous == [0.5, -0.5]
            got, want = smooth(state, [0.5, 0.25], dt=0.01), smooth(reference, [0.5, 0.25], dt=0.01)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, [0.5, 0.25]) == (tau == 0.0)

    @pytest.mark.parametrize("tau", [[0.02, 0.0], np.array([0.02, 0.02]), -0.01, math.nan, math.inf])
    def test_tau_is_one_finite_non_negative_number(self, tau):
        with pytest.raises(ValueError, match="tau"):
            FilterState.create(2, tau=tau)


def _measured_phase_lag(freq: float, tau: float, rate: float) -> float:
    """Drive the filter with a sinusoid and fit the steady-state phase."""
    state = FilterState.create(1, tau=tau)
    dt = 1.0 / rate
    n = int(4.0 * rate)  # 4 s total, fit over the last 2 s
    t = np.arange(n) * dt
    x = np.sin(2 * math.pi * freq * t)
    y = np.empty(n)
    for i in range(n):
        y[i] = smooth(state, [x[i]], dt=dt)[0]
    window = t >= 2.0
    basis = np.column_stack(
        [np.sin(2 * math.pi * freq * t[window]), np.cos(2 * math.pi * freq * t[window])]
    )
    coeff, *_ = np.linalg.lstsq(basis, y[window], rcond=None)
    return -math.atan2(coeff[1], coeff[0])


class TestRetargetStep:
    def test_identity_composition(self):
        model, skel, rmap = small_setup(default=0.25)
        pipeline = Pipeline(skel, rmap, model, FilterState.create(2, tau=0.0))
        cmd, diag = pipeline.step(identity_frame(2), 0.01, VirtualClock())
        assert np.array_equal(cmd.angles, map_frame(rmap, identity_frame(2)))
        assert cmd.clamped == (False, False)
        assert not cmd.hold
        assert diag.clamped_count == 0
        assert diag.worst_excursion == 0.0

    def test_limit_breach_is_clamped_and_diagnosed(self):
        model, skel, rmap = small_setup()
        pipeline = Pipeline(skel, rmap, model, FilterState.create(2, tau=0.0))
        frame = identity_frame(2)
        frame.orientations[1] = quat_from_axis_angle([0, 1, 0], 3.0)  # past the 2.9 soft bound
        cmd, diag = pipeline.step(frame, 0.01, VirtualClock())
        assert cmd.angles[0] == 2.9
        assert cmd.clamped[0]
        assert diag.clamped_count == 1
        assert diag.worst_excursion == pytest.approx(0.1, abs=1e-9)

    def test_command_carries_frame_identity_and_clock_time(self):
        model, skel, rmap = small_setup()
        clock = VirtualClock(start_us=5000)
        frame = identity_frame(2, seq=17, timestamp_us=424242)
        cmd, _ = Pipeline(skel, rmap, model).step(frame, 0.01, clock)
        assert cmd.source_seq == 17
        assert cmd.source_timestamp_us == 424242
        assert cmd.emission_timestamp_us == 5000

    def test_matches_stage_composition_on_arm_wave(self):
        model, skel, rmap = sample_setup()
        frames = list(synth_motion("arm-wave", rate=100, duration=1.0, noise_std=0.01, seed=4))

        pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
        clock = VirtualClock()
        stepped = []
        for f in frames:
            cmd, _ = pipeline.step(f, 0.010, clock)
            stepped.append(cmd.angles)

        ref_state = FilterState.create(len(model), tau=0.020)
        for f, got in zip(frames, stepped):
            raw = map_frame(rmap, f)
            smoothed = smooth(ref_state, raw, 0.010)
            expected, _ = enforce_limits(model, smoothed)
            assert np.array_equal(got, expected)

    def test_safety_on_random_frames(self):
        model, skel, rmap = sample_setup()
        pipeline = Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020))
        clock = VirtualClock()
        rng = np.random.default_rng(12)
        for i in range(1000):
            quats = rng.normal(size=(23, 4))
            quats /= np.linalg.norm(quats, axis=1)[:, None]
            frame = MocapFrame(i, i * 10_000, quats)
            cmd, _ = pipeline.step(frame, 0.010, clock)
            assert (cmd.angles >= model.soft_lower).all()
            assert (cmd.angles <= model.soft_upper).all()

    def test_identity_transparency(self):
        # One-to-one map, tau = 0, wide-open limits: output twist angles
        # equal input twist angles.
        n = 4
        lines = []
        parent = "base"
        for i in range(n):
            lines.append(
                f"joint j{i} parent={parent} child=l{i} origin=0,0,0;1,0,0,0 axis=0,0,1"
                " limits=-6.3,6.3 soft=0 vmax=100 default=0"
            )
            parent = f"l{i}"
        model = load_robot_model("\n".join(lines))
        skel_lines = ["segment s0 parent=-"] + [f"segment s{i} parent=s{i-1}" for i in range(1, n)]
        skel = load_skeleton("\n".join(skel_lines))
        map_lines = [
            f"map j{i} segment=s{i} axis=0,0,1 sign=+1 scale=1 offset=0" for i in range(n)
        ]
        rmap = load_retarget_map("\n".join(map_lines), skel, model)
        pipeline = Pipeline(skel, rmap, model, FilterState.create(n, tau=0.0))
        rng = np.random.default_rng(13)
        clock = VirtualClock()
        for i in range(200):
            inputs = rng.uniform(-math.pi + 1e-6, math.pi, size=n)
            quats = np.stack([quat_from_axis_angle([0, 0, 1], a) for a in inputs])
            cmd, _ = pipeline.step(MocapFrame(i, i, quats), 0.01, clock)
            assert np.allclose(cmd.angles, inputs, atol=1e-9)

    def test_gimbal_warning_counted(self):
        model, skel, rmap = sample_setup()
        frame = identity_frame(23)
        # drive the left thigh's middle (X) angle to the ZXY singularity
        frame.orientations[skel.index("left_thigh")] = quat_from_axis_angle(
            [1, 0, 0], math.pi / 2
        )
        _, diag = Pipeline(skel, rmap, model).step(frame, 0.01, VirtualClock())
        assert diag.gimbal_warnings >= 1

    def test_float_tail_matches_numpy_reference(self, monkeypatch):
        # The smoothing rule, clamp, flags, excursion and clamp count run on
        # floats; this numpy reference is the arithmetic they replaced.  The
        # last joint's soft interval is [0, 0]; with tau 0 a raw -0.0 reaches
        # the clamp and ties with both bounds.
        lines = [
            f"joint j{i} parent={'base' if i == 0 else f'l{i - 1}'} child=l{i} origin=0,0,0;1,0,0,0"
            f" axis=0,0,1 limits={lo},{hi} soft={soft} vmax=10 default={(lo + hi) / 2}"
            for i, (lo, hi, soft) in enumerate(
                [(-1, 1, 0.1), (-2, 0.5, 0.2), (0, 3, 0.05), (-0.5, 0.5, 0.0), (-3, 3, 0.5), (-0.1, 0.1, 0.1)]
            )
        ]
        model = load_robot_model("\n".join(lines))
        skel = load_skeleton("segment root parent=-\n")
        rmap = load_retarget_map("".join(f"unmapped j{i}\n" for i in range(len(model))), skel, model)
        lower, upper = model.soft_lower, model.soft_upper
        for tau in (0.0, 0.02):  # pass-through and smoothing
            rng = np.random.default_rng(21)
            state = FilterState.create(len(model), tau=tau)
            pipeline = Pipeline(skel, rmap, model, state)
            previous = None
            for step in range(400):
                raw = rng.uniform(lower - 1.0, upper + 1.0)
                ties = rng.random(len(raw))
                raw[ties < 0.05] = lower[ties < 0.05]
                raw[ties > 0.95] = upper[ties > 0.95]
                raw[(ties > 0.45) & (ties < 0.5)] = -0.0
                # at tau 0.02, math.exp's alpha for 24 ms differs from numpy's in the last bit
                dt = 0.002 if step < 150 or step >= 300 else 0.024
                monkeypatch.setattr(retarget, "_map_frame", lambda rmap, frame: (raw.tolist(), 0))
                if step == 390:
                    # no soft interval holds a NaN: the step raises and the filter keeps its state
                    raw[2] = math.nan
                    before = list(state.previous)
                    with pytest.raises(NonFiniteAngle, match="joint 2"):
                        pipeline.step(identity_frame(1), dt, VirtualClock())
                    assert np.array(state.previous).tobytes() == np.array(before).tobytes()
                    continue
                cmd, diag = pipeline.step(identity_frame(1), dt, VirtualClock())

                if previous is None:
                    smoothed = raw.copy()
                else:
                    # exp over an array: the rule's scalar exp must match it bit for bit
                    alpha = 1.0 - np.exp(-dt / np.full(len(raw), tau)) if tau > 0 else np.ones(len(raw))
                    smoothed = alpha * raw + (1.0 - alpha) * previous
                previous = smoothed
                angles = np.clip(smoothed, lower, upper)
                flags = angles != smoothed
                excursion = max(0.0, float(np.max(np.abs(angles - smoothed))))

                assert type(cmd.angles) is tuple and all(type(a) is float for a in cmd.angles)
                assert np.array(cmd.angles).tobytes() == angles.tobytes()
                assert type(cmd.clamped) is tuple and cmd.clamped == tuple(flags.tolist())
                assert all(type(f) is bool for f in cmd.clamped)
                assert repr(diag.worst_excursion) == repr(excursion)
                assert diag.clamped_count == np.count_nonzero(flags)
                assert np.array(state.previous).tobytes() == smoothed.tobytes()

    def test_non_finite_first_angle_leaves_the_filter_uninitialized(self, monkeypatch):
        model, skel, rmap = small_setup()
        state = FilterState.create(len(model))
        monkeypatch.setattr(retarget, "_map_frame", lambda rmap, frame: ([math.inf, 0.0], 0))
        with pytest.raises(NonFiniteAngle, match="joint 0"):
            Pipeline(skel, rmap, model, state).step(identity_frame(2), 0.002, VirtualClock())
        assert not state.initialized and state.previous == [0.0, 0.0]

    @pytest.mark.parametrize("rehearsed_dt", [0.008, 0.004], ids=["cached-dt", "other-dt"])
    def test_rehearse_leaves_the_filter_bit_for_bit(self, rehearsed_dt):
        # Between two steps at dt 0.008, a rehearsal at that dt (the cached
        # gain's) or at another; the step after it sends the bytes of a
        # pipeline that never rehearsed.
        model, skel, rmap = sample_setup()
        frames = list(synth_motion("arm-wave", rate=100, duration=0.05, noise_std=0.01, seed=5))
        rehearsed, plain = (Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020)) for _ in range(2))
        clock = VirtualClock()
        for pipeline in (rehearsed, plain):
            for frame in frames[:2]:
                pipeline.step(frame, 0.008, clock)
        state = rehearsed.filter_state
        before = repr((state.previous, state.initialized))  # a float's repr is its bits
        rehearsed.rehearse(frames[1], rehearsed_dt)
        assert repr((state.previous, state.initialized)) == before
        for frame, dt in ((frames[2], 0.004), (frames[3], 0.010)):
            got, got_diag = rehearsed.step(frame, dt, clock)
            expected, expected_diag = plain.step(frame, dt, clock)
            assert np.array(got.angles).tobytes() == np.array(expected.angles).tobytes()
            assert got.clamped == expected.clamped and got_diag == expected_diag

    def test_rehearsals_between_alternating_dts_change_no_command(self):
        # A 120 Hz source into a 500 Hz loop steps at 4 and 5 periods in
        # turn; each step is rehearsed as the loop does, its frame at its dt.
        model, skel, rmap = sample_setup()
        frames = list(synth_motion("walk-cycle", rate=120, duration=0.2, noise_std=0.01, seed=3))
        rehearsed, plain = (Pipeline(skel, rmap, model, FilterState.create(len(model), tau=0.020)) for _ in range(2))
        clock = VirtualClock()
        for n, frame in enumerate(frames):
            dt = (0.008, 0.010)[n % 2]
            got, got_diag = rehearsed.step(frame, dt, clock)
            rehearsed.rehearse(frame, dt)
            expected, expected_diag = plain.step(frame, dt, clock)
            assert np.array(got.angles).tobytes() == np.array(expected.angles).tobytes()
            assert got.clamped == expected.clamped and got_diag == expected_diag
        assert repr(rehearsed.filter_state) == repr(plain.filter_state)

    def test_pipeline_wrapper(self):
        model, skel, rmap = sample_setup()
        pipeline = Pipeline(skel, rmap, model)
        cmd, _ = pipeline.step(identity_frame(23), 0.002, VirtualClock())
        assert np.array_equal(cmd.angles, model.default_angles)

    def test_pipeline_rejects_a_skeleton_the_map_was_not_loaded_against(self):
        model, _, rmap = sample_setup()
        _, two_segments, _ = small_setup()
        with pytest.raises(DimensionMismatch):
            Pipeline(two_segments, rmap, model)

    def test_pipeline_rejects_a_model_the_map_was_not_loaded_against(self):
        _, skel, rmap = sample_setup()
        two_joints, _, _ = small_setup()
        with pytest.raises(DimensionMismatch, match="model"):
            Pipeline(skel, rmap, two_joints)

    def test_pipeline_rejects_a_filter_of_another_joint_count(self):
        # Accepted, it would raise at the first step, ending a loop on its first fresh frame.
        model, skel, rmap = sample_setup()
        with pytest.raises(DimensionMismatch, match="filter has 5 joints, model has 23"):
            Pipeline(skel, rmap, model, FilterState.create(5))


def test_enforce_limits_takes_one_row():
    model, _, _ = sample_setup()
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 23\)"):
        enforce_limits(model, np.zeros((2, len(model))))
