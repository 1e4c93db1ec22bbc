"""Per-frame retargeting: geometric mapping, smoothing, soft-limit clamping.

One call to ``retarget_step`` turns one motion frame into one synchronized
joint command: every output angle comes from the same source frame, and the
stages run in the fixed order map -> smooth -> clamp.  Clamping last is what
makes the safety property unconditional: even if the filter overshoots, the
emitted vector never leaves the soft interval.

The three stages run on the Python floats the compiled map builds; the
command's arrays are made once, at the end.  The smoothing rule and the soft
clamp each live once, as float kernels; the public ``smooth`` and
``enforce_limits`` are array wrappers around them.
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
    no startup transient from an arbitrary initial state.  ``previous``, the
    last output, is a list of floats.  The gains for the last ``dt`` are
    kept as floats (one entry, so memory is bounded however many distinct
    steps a run sees); ``tau`` is read when a new ``dt`` arrives.
    """

    previous: list
    tau: np.ndarray
    initialized: bool = False
    # (dt, alpha, 1 - alpha) for the last dt the smoothing rule saw
    _gains: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    @classmethod
    def create(cls, joint_count: int, tau=0.020) -> "FilterState":
        tau_vec = np.broadcast_to(np.asarray(tau, dtype=float), (joint_count,)).copy()
        if not np.isfinite(tau_vec).all() or (tau_vec < 0).any():
            raise ValueError("tau must be finite and >= 0")
        return cls(previous=[0.0] * joint_count, tau=tau_vec)


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


def _map_frame(rmap: RetargetMap, frame: MocapFrame) -> tuple[list, int]:
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
    return out, gimbal_warnings


def map_frame(rmap: RetargetMap, frame: MocapFrame) -> np.ndarray:
    """Project one frame onto raw joint angles (no limit clamping here).

    Twist rules read the rotation component about their axis; triple rules
    read a three-angle decomposition in their configured order; unmapped
    joints sit at their default angle.
    """
    return np.array(_map_frame(rmap, frame)[0])


def _smoothed(state: FilterState, raw: list, dt: float) -> list:
    """The smoothing rule on floats: updates ``state`` and returns its new output.

    ``alpha * x + (1 - alpha) * previous`` per joint, with the gains of
    ``dt`` computed by numpy once per distinct ``dt``.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    if len(raw) != len(state.previous):
        raise DimensionMismatch(f"expected {len(state.previous)} angles, got shape ({len(raw)},)")
    if state.initialized:
        cached_dt, alpha, keep = state._gains
        if cached_dt != dt:
            gains = np.ones_like(state.tau)
            active = state.tau > 0
            gains[active] = 1.0 - np.exp(-dt / state.tau[active])
            alpha, keep = gains.tolist(), (1.0 - gains).tolist()
            state._gains = (dt, alpha, keep)
        out = [a * x + k * p for a, x, k, p in zip(alpha, raw, keep, state.previous)]
    else:
        out = list(raw)
        state.initialized = True
    state.previous = out
    return out


def _clamped(model: RobotModel, values: list) -> tuple[list, list, float]:
    """The soft clamp on floats: clamped angles, changed-joint flags, worst excursion.

    Each value is clamped as ``np.clip`` does it: at or below the lower soft
    bound it becomes that bound, then at or above the upper one it becomes
    that bound.  The excursion is the largest distance the clamp moved a
    joint, 0.0 if it moved none.  A NaN angle passes the clamp unchanged; it
    is flagged, because NaN != NaN, and it makes the excursion 0.0, as
    ``max(0.0, np.max(...))`` of a NaN is.
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
            if d > worst or d != d:  # a NaN stays, as in np.max
                worst = d
    return angles, flags, max(0.0, worst)


def _row(values, length: int) -> list:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DimensionMismatch(f"expected {length} angles, got shape {values.shape}")
    return values.tolist()


def enforce_limits(model: RobotModel, raw) -> tuple[np.ndarray, np.ndarray]:
    """Clamp to the soft interval [min+soft, max-soft]; flag changed joints.

    A NaN angle passes unchanged and is flagged (NaN != NaN).
    """
    angles, flags, _ = _clamped(model, _row(raw, len(model)))
    return np.array(angles), np.array(flags, dtype=bool)


def smooth(state: FilterState, angles, dt: float) -> np.ndarray:
    """One step of the per-joint exponential moving average.

    alpha = 1 - exp(-dt/tau), the exact discretization of a first-order
    low-pass, so behavior is independent of the sampling rate; tau = 0 gives
    alpha = 1 (pass-through).  The first call returns the input unchanged.
    """
    return np.array(_smoothed(state, _row(angles, len(state.previous)), dt))


def retarget_step(
    rmap: RetargetMap,
    model: RobotModel,
    state: FilterState,
    frame: MocapFrame,
    dt: float,
    clock,
) -> tuple[JointCommand, RetargetDiagnostics]:
    """map_frame -> smooth -> enforce_limits, once, on one frame.

    The stages pass the map's float list along; ``angles`` and ``clamped``
    are the only arrays built.
    """
    raw, gimbal_warnings = _map_frame(rmap, frame)
    angles, flags, excursion = _clamped(model, _smoothed(state, raw, dt))
    command = JointCommand(
        seq=0,
        source_seq=frame.seq,
        source_timestamp_us=frame.timestamp_us,
        emission_timestamp_us=clock.now_us(),
        angles=np.array(angles),
        clamped=np.array(flags, dtype=bool),
    )
    return command, RetargetDiagnostics(flags.count(True), excursion, gimbal_warnings)


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
