"""Real-time retargeting of streamed human orientation frames onto a
configurable humanoid joint model, with a kinematic trace validator.

Submodules:

- ``geometry``  quaternion algebra, swing-twist and Euler decompositions
- ``model``     robot / skeleton / map configs and forward kinematics
- ``wire``      motion frames, joint commands and their three wire formats
- ``stream``    frame sources: scheduled playback, synthesis, UDP
- ``retarget``  the per-frame map -> smooth -> clamp pipeline
- ``runtime``   fixed-rate loop, latest-frame slot, sinks, metrics
- ``validate``  limit / continuity / self-collision audit of command traces
- ``cli``       the ``teleokin`` command-line entry point
"""

from .clock import VirtualClock, WallClock
from .data import sample_path, sample_text
from .geometry import (
    euler_decompose,
    quat_conjugate,
    quat_from_axis_angle,
    quat_identity,
    quat_multiply,
    quat_normalize,
    quat_rotate_vector,
    swing_twist,
)
from .model import (
    HumanSkeleton,
    RetargetMap,
    RobotModel,
    canonical_skeleton,
    forward_kinematics,
    forward_kinematics_batch,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
)
from .retarget import (
    FilterState,
    Pipeline,
    enforce_limits,
    map_frame,
    smooth,
)
from .runtime import (
    LatestFrameSlot,
    LoopMetrics,
    MultiSink,
    NullSink,
    datagram_sink,
    run_loop,
    trace_sink,
    validator_sink,
)
from .stream import (
    DatagramSource,
    StreamStats,
    schedule,
    synth_motion,
)
from .validate import Thresholds, ValidationReport, validate_trace
from .wire import (
    JointCommand,
    MocapFrame,
    decode_frame,
    encode_frame,
    identity_frame,
    read_recording,
    read_trace,
    write_recording,
)

__version__ = "0.1.0"
