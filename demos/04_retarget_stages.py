"""
The three retargeting stages, separately and composed
=====================================================

One frame becomes one command through map -> smooth -> clamp.  The order is
load-bearing: clamping last means the emitted vector stays inside the soft
limits no matter what the mapping or the filter produced.
"""

import numpy as np

from teleokin import (
    FilterState,
    Pipeline,
    VirtualClock,
    enforce_limits,
    identity_frame,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
    map_frame,
    quat_from_axis_angle,
    sample_text,
    smooth,
)

model = load_robot_model(sample_text("g1_sample.cfg"))
skeleton = load_skeleton(sample_text("human_sample.cfg"))
rmap = load_retarget_map(sample_text("g1_sample.map"), skeleton, model)

# Twist the left hand far past what the wrist can follow (limits +-1.9 rad).
frame = identity_frame(len(skeleton))
frame.orientations[skeleton.index("left_hand")] = quat_from_axis_angle([0, 0, 1], 2.8)

wrist = model.joint_index("left_wrist_roll")
raw = map_frame(rmap, frame)
print(f"stage 1 map:    wrist raw angle {raw[wrist]:+.3f} rad")

state = FilterState.create(len(model), tau=0.050)
smooth(state, np.zeros(len(model)), dt=0.002)  # filter at rest
for _ in range(25):
    smoothed = smooth(state, raw, dt=0.002)
print(f"stage 2 smooth: after 50 ms of tau=50 ms filtering {smoothed[wrist]:+.3f} rad")

clamped, flags = enforce_limits(model, smoothed)
lo, hi = model.soft_lower[wrist], model.soft_upper[wrist]
print(f"stage 3 clamp:  [{lo:+.2f}, {hi:+.2f}] -> {clamped[wrist]:+.3f} rad, flagged={bool(flags[wrist])}")

# Pipeline.step is exactly that composition, once, with provenance attached.
pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=0.0))
command, diagnostics = pipeline.step(frame, 0.002, VirtualClock())
print(
    f"\none step:       wrist {command.angles[wrist]:+.3f} rad, "
    f"{diagnostics.clamped_count} joint clamped, "
    f"worst pre-clamp excursion {diagnostics.worst_excursion:.3f} rad"
)
print(f"traceability:   command carries source frame seq {command.source_seq}")
assert (command.angles >= model.soft_lower).all()
assert (command.angles <= model.soft_upper).all()
print("safety:         every emitted angle inside the soft interval")
