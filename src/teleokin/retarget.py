"""Per-frame retargeting: geometric mapping, smoothing, soft-limit clamping.

One call to ``Pipeline.step`` turns one motion frame into one synchronized
joint command: every output angle comes from the same source frame, and the
stages run in the fixed order map -> smooth -> clamp.  Clamping last is what
makes the safety property unconditional: even if the filter overshoots, the
emitted vector never leaves the soft interval.  A NaN or infinite angle
cannot be clamped into it, so the step raises ``NonFiniteAngle`` and leaves
the filter state as it was.

The three stages run on the Python floats the compiled map builds, and the
command carries them as tuples: no array is built per step.  The smoothing
rule and the soft clamp each live once, as float kernels; the public
``smooth`` and ``enforce_limits`` are array wrappers around them.  The
frame and command records are ``wire``'s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteAngle
from .geometry import _euler_angles, _twist_angle, euler_decompose
from .model import HumanSkeleton, RetargetMap, RobotModel
from .wire import JointCommand, MocapFrame

@dataclass
class FilterState:
    """First-order low-pass state, with one time constant for every joint.

    ``tau`` is the time constant in seconds (0 disables smoothing).  The
    first smoothed frame passes through unchanged, so there is no startup
    transient from an arbitrary initial state.  ``previous``, the last
    output, is a list of floats; a step commits it only once the clamp has
    accepted the step's angles.  The gain for the last ``dt`` is kept (one
    entry, so memory is bounded however many distinct steps a run sees).
    """

    previous: list
    tau: float
    initialized: bool = False
    # (dt, alpha, 1 - alpha) for the last dt the smoothing rule saw
    _gains: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    @classmethod
    def create(cls, joint_count: int, tau: float = 0.020) -> "FilterState":
        if not isinstance(tau, numbers.Real) or not 0 <= tau < math.inf:
            raise ValueError(f"tau must be one finite number >= 0, got {tau!r}")
        return cls(previous=[0.0] * joint_count, tau=float(tau))


@dataclass
class RetargetDiagnostics:
    clamped_count: int
    worst_excursion: float  # rad beyond a soft bound, before clamping
    gimbal_warnings: int


def _map_frame(rmap: RetargetMap, frame: MocapFrame) -> tuple[list, int]:
    # Runs the map's compiled rules on the frame's floats; a triple rule near
    # gimbal lock takes euler_decompose's tie-break.
    if frame.segment_count != rmap.segment_count:
        raise DimensionMismatch(
            f"frame has {frame.segment_count} segments, map expects {rmap.segment_count}"
        )
    quats = frame.orientations.tolist()
    out = list(rmap.default_angles)
    for segment, ax, ay, az, gain, offset, joint in rmap.twist_rules:
        w, x, y, z = quats[segment]
        twist = _twist_angle(w, x, y, z, ax, ay, az)
        out[joint] = gain * (0.0 if twist is None else twist) + offset
    gimbal_warnings = 0
    for segment, order, i, j, k, s, slots in rmap.triple_rules:
        w, x, y, z = quats[segment]
        a1, a2, a3, gimbal = _euler_angles(w, x, y, z, i, j, k, s)
        if gimbal:
            a1, a2, a3 = euler_decompose(quats[segment], order)[0].tolist()
            gimbal_warnings += 1
        for (joint, gain, offset), angle in zip(slots, (a1, a2, a3)):
            out[joint] = gain * angle + offset
    return out, gimbal_warnings


def map_frame(rmap: RetargetMap, frame: MocapFrame) -> np.ndarray:
    """Project one frame onto raw joint angles (no limit clamping here).

    Twist rules read the rotation component about their axis; triple rules
    read a three-angle decomposition in their configured order; unmapped
    joints sit at their default angle.
    """
    return np.array(_map_frame(rmap, frame)[0])


def _smoothed(state: FilterState, raw: list, dt: float) -> list:
    """The smoothing rule on floats: the filter's next output for ``raw``.

    ``alpha * x + (1 - alpha) * previous`` per joint, with ``alpha`` of
    ``dt`` computed once per distinct ``dt``.  The caller stores the output
    in ``state`` once it has been accepted.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if len(raw) != len(state.previous):
        raise DimensionMismatch(f"expected {len(state.previous)} angles, got shape ({len(raw)},)")
    if state.initialized:
        cached_dt, alpha, keep = state._gains
        if cached_dt != dt:
            # numpy's exp, not math.exp: the two can differ in the last bit
            alpha = float(1.0 - np.exp(-dt / state.tau)) if state.tau > 0 else 1.0
            keep = 1.0 - alpha
            state._gains = (dt, alpha, keep)
        return [alpha * x + keep * p for x, p in zip(raw, state.previous)]
    return list(raw)


def _clamped(model: RobotModel, values: list) -> tuple[list, list, float]:
    """The soft clamp on floats: clamped angles, changed-joint flags, worst excursion.

    Each value is clamped as ``np.clip`` does it: at or below the lower soft
    bound it becomes that bound, then at or above the upper one it becomes
    that bound.  The excursion is the largest distance the clamp moved a
    joint, 0.0 if it moved none.  A NaN or infinite value raises
    NonFiniteAngle, since no bound can hold it.  It is caught where the
    clamp moved a value (a NaN counts as moved, since NaN != NaN), by its
    distance, which is not finite; values the clamp leaves alone are not
    checked.
    """
    bounds = model.soft_bounds
    if len(values) != len(bounds):
        raise DimensionMismatch(f"expected {len(bounds)} angles, got shape ({len(values)},)")
    angles = []
    flags = []
    worst = 0.0
    for v, (lower, upper) in zip(values, bounds):
        a = lower if v <= lower else v
        if a >= upper:
            a = upper
        angles.append(a)
        moved = a != v
        flags.append(moved)
        if moved:
            d = abs(a - v)
            if not d <= worst:  # larger, or NaN
                if not d < math.inf:
                    raise NonFiniteAngle(f"joint {len(flags) - 1} angle is {v!r}")
                worst = d
    return angles, flags, worst


def _row(values, length: int) -> list:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DimensionMismatch(f"expected {length} angles, got shape {values.shape}")
    return values.tolist()


def enforce_limits(model: RobotModel, raw) -> tuple[np.ndarray, np.ndarray]:
    """Clamp to the soft interval [min+soft, max-soft]; flag changed joints.

    A NaN or infinite angle raises NonFiniteAngle.
    """
    angles, flags, _ = _clamped(model, _row(raw, len(model)))
    return np.array(angles), np.array(flags, dtype=bool)


def smooth(state: FilterState, angles, dt: float) -> np.ndarray:
    """One step of the exponential moving average, joint by joint.

    alpha = 1 - exp(-dt/tau), the exact discretization of a first-order
    low-pass, so behavior is independent of the sampling rate; tau = 0 gives
    alpha = 1 (pass-through).  The first call returns the input unchanged.
    A NaN or infinite output raises NonFiniteAngle and leaves ``state`` as
    it was.
    """
    out = _smoothed(state, _row(angles, len(state.previous)), dt)
    for joint, value in enumerate(out):
        if not math.isfinite(value):
            raise NonFiniteAngle(f"joint {joint} angle is {value!r}")
    state.previous, state.initialized = out, True
    return np.array(out)


@dataclass
class Pipeline:
    """The validated retargeting components a control loop drives."""

    skeleton: HumanSkeleton
    rmap: RetargetMap
    model: RobotModel
    filter_state: FilterState = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.skeleton) != self.rmap.segment_count:
            raise DimensionMismatch("skeleton does not match the one the map was loaded against")
        if len(self.model) != self.rmap.joint_count:
            raise DimensionMismatch("model does not match the one the map was loaded against")
        if self.filter_state is None:
            self.filter_state = FilterState.create(len(self.model))
        elif len(self.filter_state.previous) != len(self.model):
            raise DimensionMismatch(f"filter has {len(self.filter_state.previous)} joints, model has {len(self.model)}")

    def step(self, frame: MocapFrame, dt: float, clock) -> tuple[JointCommand, RetargetDiagnostics]:
        """map_frame -> smooth -> enforce_limits, once, on one frame.

        The stages pass the map's float list along; the command's
        ``angles`` and ``clamped`` are tuples of the clamp's floats and
        flags, immutable, so the loop's holds can share them.  The command
        is stamped with ``clock`` when the clamp is done; the control
        loop sends it as soon as the step returns, whether at a tick or as
        the frame arrives.  A NaN or infinite angle raises NonFiniteAngle
        before the filter state changes.
        """
        state = self.filter_state
        raw, gimbal_warnings = _map_frame(self.rmap, frame)
        smoothed = _smoothed(state, raw, dt)
        angles, flags, excursion = _clamped(self.model, smoothed)
        state.previous, state.initialized = smoothed, True
        command = JointCommand(
            seq=0,
            source_seq=frame.seq,
            source_timestamp_us=frame.timestamp_us,
            emission_timestamp_us=clock.now_us(),
            angles=tuple(angles),
            clamped=tuple(flags),
        )
        return command, RetargetDiagnostics(flags.count(True), excursion, gimbal_warnings)
