"""Per-frame retargeting: geometric mapping, smoothing, soft-limit clamping.

One call to ``retarget_step`` turns one motion frame into one synchronized
joint command: every output angle comes from the same source frame, and the
stages run in the fixed order map -> smooth -> clamp.  Clamping last is what
makes the safety property unconditional: even if the filter overshoots, the
emitted vector never leaves the soft interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .geometry import _euler_angles, _twist_angle, euler_decompose
from .model import HumanSkeleton, RetargetMap, RobotModel
from .stream import MocapFrame


@dataclass
class FilterState:
    """Per-joint first-order low-pass state.

    ``tau`` is the time constant in seconds (0 disables smoothing for that
    joint).  The first smoothed frame passes through unchanged, so there is
    no startup transient from an arbitrary initial state.  The gains for
    the last ``dt`` are kept (one entry, so memory is bounded however many
    distinct steps a run sees); ``tau`` is read when a new ``dt`` arrives.
    """

    previous: np.ndarray
    tau: np.ndarray
    initialized: bool = False
    # (dt, alpha, 1 - alpha) for the last dt smooth() saw
    _gains: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    @classmethod
    def create(cls, joint_count: int, tau=0.020) -> "FilterState":
        tau_vec = np.broadcast_to(np.asarray(tau, dtype=float), (joint_count,)).copy()
        if not np.isfinite(tau_vec).all() or (tau_vec < 0).any():
            raise ValueError("tau must be finite and >= 0")
        return cls(previous=np.zeros(joint_count), tau=tau_vec)


@dataclass(eq=False)
class JointCommand:
    """One synchronized vector of target angles, traceable to one frame.

    ``seq`` is the emission sequence number assigned by the control loop;
    ``clamped`` flags the joints whose values the soft-limit stage changed;
    ``hold`` marks commands that repeat the previous posture because no
    fresh frame was available.
    """

    seq: int
    source_seq: int
    source_timestamp_us: int
    emission_timestamp_us: int
    angles: np.ndarray
    clamped: np.ndarray
    hold: bool = False


@dataclass
class RetargetDiagnostics:
    clamped_count: int
    worst_excursion: float  # rad beyond a soft bound, before clamping
    gimbal_warnings: int


def _map_frame(rmap: RetargetMap, frame: MocapFrame) -> tuple[np.ndarray, int]:
    # Runs the map's compiled rules on the frame's floats; a triple rule near
    # gimbal lock takes euler_decompose's tie-break.
    if frame.segment_count != rmap.segment_count:
        raise DimensionMismatch(
            f"frame has {frame.segment_count} segments, map expects {rmap.segment_count}"
        )
    quats = frame.orientations.tolist()
    out = rmap.default_angles.tolist()
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
    return np.array(out), gimbal_warnings


def map_frame(rmap: RetargetMap, frame: MocapFrame) -> np.ndarray:
    """Project one frame onto raw joint angles (no limit clamping here).

    Twist rules read the rotation component about their axis; triple rules
    read a three-angle decomposition in their configured order; unmapped
    joints sit at their default angle.
    """
    return _map_frame(rmap, frame)[0]


def enforce_limits(model: RobotModel, raw) -> tuple[np.ndarray, np.ndarray]:
    """Clamp to the soft interval [min+soft, max-soft]; flag changed joints."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (len(model),):
        raise DimensionMismatch(f"expected {len(model)} angles, got shape {raw.shape}")
    clamped = np.clip(raw, model.soft_lower, model.soft_upper)
    return clamped, clamped != raw


def smooth(state: FilterState, angles, dt: float) -> np.ndarray:
    """One step of the per-joint exponential moving average.

    alpha = 1 - exp(-dt/tau), the exact discretization of a first-order
    low-pass, so behavior is independent of the sampling rate; tau = 0 gives
    alpha = 1 (pass-through).  The first call returns the input unchanged.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    angles = np.asarray(angles, dtype=float)
    if angles.shape != state.previous.shape:
        raise DimensionMismatch(
            f"expected {state.previous.shape[0]} angles, got shape {angles.shape}"
        )
    if state.initialized:
        cached_dt, alpha, keep = state._gains
        if cached_dt != dt:
            alpha = np.ones_like(state.tau)
            active = state.tau > 0
            alpha[active] = 1.0 - np.exp(-dt / state.tau[active])
            keep = 1.0 - alpha
            state._gains = (dt, alpha, keep)
        out = alpha * angles + keep * state.previous
    else:
        out = angles.astype(float, copy=True)
        state.initialized = True
    state.previous = out
    return out.copy()


def retarget_step(
    rmap: RetargetMap,
    model: RobotModel,
    state: FilterState,
    frame: MocapFrame,
    dt: float,
    clock,
) -> tuple[JointCommand, RetargetDiagnostics]:
    """map_frame -> smooth -> enforce_limits, once, on one frame."""
    raw, gimbal_warnings = _map_frame(rmap, frame)
    smoothed = smooth(state, raw, dt)
    angles, flags = enforce_limits(model, smoothed)
    # The clamp moved each joint exactly as far as it was beyond its bound.
    excursion = max(0.0, float(np.max(np.abs(angles - smoothed))))
    command = JointCommand(
        seq=0,
        source_seq=frame.seq,
        source_timestamp_us=frame.timestamp_us,
        emission_timestamp_us=clock.now_us(),
        angles=angles,
        clamped=flags,
    )
    return command, RetargetDiagnostics(int(np.count_nonzero(flags)), excursion, gimbal_warnings)


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
        if self.filter_state is None:
            self.filter_state = FilterState.create(len(self.model))

    def step(self, frame: MocapFrame, dt: float, clock):
        return retarget_step(self.rmap, self.model, self.filter_state, frame, dt, clock)
