"""
Synthetic motion, the wire format, and recordings
=================================================

Without a motion-capture suit on the desk, the synthesizer stands in for
it: deterministic sinusoidal joint programs on the canonical 23-segment
skeleton, with optional seeded sensor noise.  Frames serialize to a compact
CRC-protected binary format, 391 bytes for 23 segments.
"""

import math

from teleokin import (
    LatestFrameSlot,
    VirtualClock,
    canonical_skeleton,
    decode_frame,
    encode_frame,
    read_recording,
    schedule,
    swing_twist,
    synth_motion,
    write_recording,
)

# The synthesizer makes each frame when it is asked for one, so an hour of
# motion costs no more memory than a second.  This demo keeps one second.
frames = list(synth_motion("arm-wave", rate=100, duration=1.0, noise_std=0.01, seed=42))
print(f"arm-wave: {len(frames)} frames at 100 Hz")

skeleton = canonical_skeleton()
arm = skeleton.index("left_upper_arm")
peaks = max(
    swing_twist(f.orientations[arm], [0.0, 1.0, 0.0])[1] for f in frames
)
print(f"peak upper-arm swing: {peaks:.3f} rad (program amplitude 0.5, plus noise)")

# One frame on the wire.
blob = encode_frame(frames[0])
print(f"\nencoded frame: {len(blob)} bytes, magic {blob[:4]!r}, CRC tail {blob[-4:].hex()}")
back = decode_frame(blob)
print(f"decoded seq={back.seq} t={back.timestamp_us} us, {back.segment_count} segments")

corrupted = bytearray(blob)
corrupted[40] ^= 0xFF
try:
    decode_frame(bytes(corrupted))
except Exception as exc:
    print(f"one flipped byte -> {type(exc).__name__}: discarded, never crashes the loop")

# Recordings are the same frames back to back behind an 8-byte magic.
write_recording("/tmp/arm_wave.rec", frames)
loaded = read_recording("/tmp/arm_wave.rec")
print(f"\nrecording round trip: {len(loaded)} frames from /tmp/arm_wave.rec")

# The control loop plays a recording through a source, the same way it
# reads a live one: started on the loop's slot and clock, the source writes
# each frame into the slot as it falls due, reproducing the recorded gaps.
# The slot keeps the newest frame only.
clock = VirtualClock()
slot = LatestFrameSlot()
schedule(loaded).start(slot, clock)
for t_us in (0, 45_000, 2_000_000):
    clock.sleep_until(t_us)
    slot.poll()
    frame, arrival_us = slot.take()
    print(f"at {t_us:>7} us: {slot.written:>3} frames written, newest seq={frame.seq} due at {arrival_us} us,"
          f" source ended: {slot.ended}")

# speed=inf makes every frame due at once, in recorded order.
slot = LatestFrameSlot()
schedule(loaded, math.inf).start(slot, VirtualClock())
slot.poll()
frame, arrival_us = slot.take()
print(f"speed=inf: {slot.written} frames written at {arrival_us} us, newest seq={frame.seq},"
      f" {slot.overwritten} overwritten unread")
