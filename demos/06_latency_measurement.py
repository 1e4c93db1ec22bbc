"""
Measuring per-cycle latency on the wall clock
=============================================

"No perceptible delay" only means something with numbers attached.  Running
the full 23-joint pipeline at 500 Hz against a null sink measures what the
retargeting step actually costs per cycle; the bound that matters is p99
under half a cycle (1 ms at 500 Hz).
"""

from teleokin import (
    FilterState,
    NullSink,
    Pipeline,
    WallClock,
    load_retarget_map,
    load_robot_model,
    load_skeleton,
    run_loop,
    sample_text,
    schedule,
    synth_motion,
)

model = load_robot_model(sample_text("g1_sample.cfg"))
skeleton = load_skeleton(sample_text("human_sample.cfg"))
rmap = load_retarget_map(sample_text("g1_sample.map"), skeleton, model)
pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=0.020))

cycles = 2500  # 5 s of wall time at 500 Hz
frames = synth_motion("walk-cycle", rate=100, duration=cycles / 500, noise_std=0.01, seed=1)
print(f"running {cycles} cycles at 500 Hz against a null sink (takes ~{cycles / 500:.0f} s)...")
metrics = run_loop(
    schedule(frames), pipeline, NullSink(), rate_hz=500, max_cycles=cycles, clock=WallClock()
)

compute = metrics.compute_us
print(f"compute per cycle: p50={compute.percentile(50)} us"
      f" p99={compute.percentile(99)} us max={compute.maximum()} us")
print(f"cycle jitter:      p99={metrics.jitter_us.percentile(99)} us")
print(f"frame age at emit: p99={metrics.frame_age_us.percentile(99)} us")
print("\nbucketed compute histogram (upper bound us = count):")
for upper, count in compute.bucket_counts().items():
    print(f"  <{upper:>5} us: {count}")

# The same numbers come from the CLI, whose bench is run with a null sink and
# the wall clock:  teleokin bench --rate 500 --frames 5000
