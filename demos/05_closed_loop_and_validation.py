"""
A deterministic closed loop, traced and audited
===============================================

The control loop consumes the newest frame each cycle (older unconsumed
frames are overwritten, never queued), emits exactly one command per cycle,
and under a virtual clock two runs produce byte-identical trace files.  The
validator then replays the kinematic battery over the trace: soft limits,
velocity continuity, sphere self-collision.
"""

from pathlib import Path

from teleokin import (
    FilterState,
    Pipeline,
    VirtualClock,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
    read_trace,
    run_loop,
    sample_text,
    schedule,
    synth_motion,
    trace_sink,
    validate_trace,
)

model = load_robot_model(sample_text("g1_sample.cfg"))
skeleton = load_skeleton(sample_text("human_sample.cfg"))
rmap = load_retarget_map(sample_text("g1_sample.map"), skeleton, model)


def one_run(path):
    pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=0.020))
    frames = synth_motion("squat", rate=100, duration=2.0, noise_std=0.01, seed=11)
    sink = trace_sink(path)
    # 100 Hz suit into a 500 Hz servo loop: four of five cycles hold.
    metrics = run_loop(
        schedule(frames), pipeline, sink, rate_hz=500, max_cycles=1000, clock=VirtualClock()
    )
    sink.close()
    return metrics


metrics = one_run("/tmp/squat_a.trc")
print(f"cycles={metrics.cycles} commands={metrics.commands} holds={metrics.holds}")
print(f"frames consumed={metrics.frames_consumed} overwritten={metrics.frames_overwritten}")

one_run("/tmp/squat_b.trc")
identical = Path("/tmp/squat_a.trc").read_bytes() == Path("/tmp/squat_b.trc").read_bytes()
print(f"two virtual-clock runs byte-identical: {identical}")

trace = read_trace("/tmp/squat_a.trc")
report = validate_trace(model, trace, period_us=2000)
print("\naudit of the emitted trace:")
print(report.format())

# Doctor one sample past a hard limit and audit again.
knee = model.joint_index("left_knee")
doctored = trace[300].angles.copy()
doctored[knee] = model.joints[knee].limit_max + 0.1
trace[300].angles = doctored
report = validate_trace(model, trace, period_us=2000)
print("after injecting one out-of-limit sample:")
for line in report.format().splitlines()[4:9]:
    print(line)
