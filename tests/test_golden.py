"""Golden traces: virtual-clock CLI runs are pinned byte for byte.

Each digest is the SHA-256 of the CMDTRC01 file that
``teleokin run --source synth:<pattern> --source-rate 100 --rate 500
--noise 0.01 --frames 1000`` writes under the virtual clock: 200 fresh
commands and 800 hold commands.  A change that alters any command byte
fails here; one that alters the output on purpose updates the digest and
says why.

The replay digest pins the file path as well: a recording written by
``teleokin gen``, read back by ``read_recording``, retargeted to a trace,
then read back by ``read_trace`` for ``teleokin validate``.

Two runs also pin ``teleokin run``'s whole stdout under the virtual clock:
a synth run with a cycle budget, and a replay run without one, which ends
at the first tick after the recording's last frame was sent.
"""

import hashlib

import pytest

from teleokin.cli import main

GOLDEN_SHA256 = {
    "arm-wave": "0eef5b8a68f761d7af68c58075dc0b1858bf3a3f88d02376f8488a68bd7fe2f0",
    "squat": "ae023edc61ab18cc40789b3b9f279a502c57e405941222b2e9ff8060930a65d4",
    "walk-cycle": "a0c106aabff18bcef3d26f0b7caa348184af76bfacf3abdf34d3cc4eb5a66cf6",
}


@pytest.mark.parametrize("pattern", sorted(GOLDEN_SHA256))
def test_virtual_clock_trace_matches_golden_digest(pattern, tmp_path, capsys):
    trace = tmp_path / f"{pattern}.trc"
    code = main([
        "run", "--source", f"synth:{pattern}", "--sink", f"trace:{trace}",
        "--source-rate", "100", "--rate", "500", "--noise", "0.01", "--frames", "1000",
        "--clock", "virtual",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "holds=800\n" in out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_SHA256[pattern]


REPLAY_SHA256 = "f3cc1e690a3d458dc020fa6b31dec6a0203298ae897dd44220471a6d1374903a"
REPLAY_VALIDATE_STDOUT = """\
# kinematic trace audit
# cycles=1000 period_us=2000
# velocity threshold: per-joint vmax from the robot model
# acceleration_limit=off collision_margin=0.0
verdict=pass
limit=0 velocity=0 acceleration=0 self-collision=0
"""


def test_replay_trace_and_audit_match_golden(tmp_path, capsys):
    recording = tmp_path / "walk.moc"
    trace = tmp_path / "walk.trc"
    assert main([
        "gen", "--pattern", "walk-cycle", "--rate", "100", "--duration", "2", "--noise", "0.01",
        "--out", str(recording),
    ]) == 0
    assert main([
        "run", "--source", f"replay:{recording}", "--clock", "virtual", "--frames", "1000",
        "--sink", f"trace:{trace}",
    ]) == 0
    assert "holds=800\n" in capsys.readouterr().out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == REPLAY_SHA256
    assert main(["validate", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == REPLAY_VALIDATE_STDOUT


SYNTH_RUN_STDOUT = """\
cycles=1000
commands=1000
holds=800
frames_written=200
frames_consumed=200
frames_overwritten=0
clamped_joints=0
worst_excursion_rad=0.0
gimbal_warnings=0
early_commands=0
headroom_ratio=0.00
compute_us_p50=0
compute_us_p99=0
compute_us_max=0
compute_us_lt_1us=1000
fresh_compute_us_p50=0
fresh_compute_us_p99=0
fresh_compute_us_max=0
fresh_compute_us_lt_1us=200
frame_age_us_p50=0
frame_age_us_p99=0
frame_age_us_max=0
frame_age_us_lt_1us=200
jitter_us_p50=0
jitter_us_p99=0
jitter_us_max=0
jitter_us_lt_1us=1000
# kinematic trace audit
# cycles=1000 period_us=2000
# velocity threshold: per-joint vmax from the robot model
# acceleration_limit=off collision_margin=0.0
verdict=pass
limit=0 velocity=0 acceleration=0 self-collision=0
"""

REPLAY_RUN_STDOUT = """\
cycles=996
commands=996
holds=796
frames_written=200
frames_consumed=200
frames_overwritten=0
clamped_joints=0
worst_excursion_rad=0.0
gimbal_warnings=0
early_commands=0
headroom_ratio=0.00
compute_us_p50=0
compute_us_p99=0
compute_us_max=0
compute_us_lt_1us=996
fresh_compute_us_p50=0
fresh_compute_us_p99=0
fresh_compute_us_max=0
fresh_compute_us_lt_1us=200
frame_age_us_p50=0
frame_age_us_p99=0
frame_age_us_max=0
frame_age_us_lt_1us=200
jitter_us_p50=0
jitter_us_p99=0
jitter_us_max=0
jitter_us_lt_1us=996
# kinematic trace audit
# cycles=996 period_us=2000
# velocity threshold: per-joint vmax from the robot model
# acceleration_limit=off collision_margin=0.0
verdict=pass
limit=0 velocity=0 acceleration=0 self-collision=0
"""


def test_synth_run_stdout_matches_golden(capsys):
    assert main([
        "run", "--source", "synth:walk-cycle", "--sink", "validate", "--noise", "0.01", "--frames", "1000",
        "--clock", "virtual",
    ]) == 0
    assert capsys.readouterr().out == SYNTH_RUN_STDOUT


def test_replay_run_to_the_source_end_stdout_matches_golden(tmp_path, capsys):
    recording = tmp_path / "walk.moc"
    assert main([
        "gen", "--pattern", "walk-cycle", "--rate", "100", "--duration", "2", "--noise", "0.01",
        "--out", str(recording),
    ]) == 0
    capsys.readouterr()
    assert main(["run", "--source", f"replay:{recording}", "--clock", "virtual", "--sink", "validate"]) == 0
    assert capsys.readouterr().out == REPLAY_RUN_STDOUT
