"""Command-line interface: flows, exit codes, determinism."""

import os
import socket
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleokin import cli
from teleokin.cli import main
from teleokin.data import sample_text
from teleokin.errors import SinkBackpressure
from teleokin.model import load_robot_model
from teleokin.retarget import JointCommand
from teleokin.runtime import LoopMetrics, read_trace, trace_sink
from teleokin.stream import (
    DatagramSource,
    encode_frame,
    identity_frame,
    synth_motion,
    write_recording,
)


def run_cli(*argv):
    return main(list(argv))


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestRun:
    def test_synth_to_trace(self, tmp_path, capsys):
        trace = tmp_path / "out.trc"
        code = run_cli(
            "run", "--source", "synth:arm-wave", "--sink", f"trace:{trace}",
            "--rate", "500", "--frames", "1000",
        )
        assert code == 0
        assert trace.stat().st_size == 8 + 1000 * 214
        kv = parse_kv(capsys.readouterr().out)
        assert kv["cycles"] == "1000"
        assert kv["commands"] == "1000"

    def test_datagram_sink_counters_are_printed(self, tmp_path, capsys):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        try:
            code = run_cli(
                "run", "--source", "synth:static", "--clock", "virtual", "--frames", "10",
                "--sink", f"datagram:127.0.0.1:{receiver.getsockname()[1]}", "--sink", f"trace:{tmp_path / 't.trc'}",
            )
        finally:
            receiver.close()
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("datagram_sent=") == 1
        assert "\ndatagram_sent=10\ndatagram_send_errors=0\n" in out

    def test_counters_of_sinks_of_one_kind_are_summed(self, capsys):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as receiver:
            receiver.bind(("127.0.0.1", 0))
            address = f"datagram:127.0.0.1:{receiver.getsockname()[1]}"
            code = run_cli("run", "--source", "synth:static", "--clock", "virtual", "--frames", "10",
                           "--sink", address, "--sink", address)
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("datagram_sent=") == 1 and out.count("datagram_send_errors=") == 1
        assert "\ndatagram_sent=20\ndatagram_send_errors=0\n" in out

    def test_missing_map_names_path(self, tmp_path, capsys):
        code = run_cli(
            "run", "--map", str(tmp_path / "nope.map"), "--source", "synth:static",
            "--sink", "null", "--frames", "10",
        )
        assert code == 2
        assert "nope.map" in capsys.readouterr().err

    def test_missing_replay_file_names_path(self, tmp_path, capsys):
        code = run_cli(
            "run", "--source", f"replay:{tmp_path / 'nope.rec'}", "--sink", "null", "--frames", "10",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'nope.rec'}:" in err

    def test_validate_sink_on_compliant_motion(self, capsys):
        code = run_cli(
            "run", "--source", "synth:squat", "--sink", "validate",
            "--rate", "500", "--frames", "500", "--noise", "0.01",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out

    def test_validate_sink_period_is_the_loop_period(self, tmp_path, capsys):
        # 1e6 / 300 is not a whole number of microseconds
        trace = tmp_path / "t.trc"
        code = run_cli(
            "run", "--source", "synth:static", "--sink", "validate", "--sink", f"trace:{trace}",
            "--rate", "300", "--frames", "20",
        )
        assert code == 0
        emitted = [cmd.emission_timestamp_us for cmd in read_trace(trace)]
        periods = set(np.diff(emitted).tolist())
        assert periods == {3333}
        assert "# cycles=20 period_us=3333\n" in capsys.readouterr().out

    def test_synth_run_bounded_by_duration_alone(self, capsys):
        code = run_cli("run", "--source", "synth:static", "--sink", "null", "--clock", "virtual",
                       "--rate", "500", "--duration", "0.02")
        assert code == 0
        assert parse_kv(capsys.readouterr().out)["cycles"] == "10"

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--source", "synth:static", "--sink", "null", "--wat")
        assert exc.value.code == 2

    def test_no_sink_is_usage_error(self, capsys):
        code = run_cli("run", "--source", "synth:static", "--frames", "10")
        assert code == 2

    def test_replay_source(self, tmp_path, capsys):
        rec = tmp_path / "motion.rec"
        assert run_cli("gen", "--pattern", "walk-cycle", "--rate", "100", "--duration", "1",
                       "--out", str(rec)) == 0
        trace = tmp_path / "replayed.trc"
        code = run_cli(
            "run", "--source", f"replay:{rec}:inf", "--sink", f"trace:{trace}",
            "--rate", "100", "--frames", "5",
        )
        assert code == 0
        assert len(read_trace(trace)) == 5

    def test_replay_timestamps_going_backwards_name_the_frame(self, tmp_path, capsys):
        rec = tmp_path / "backwards.rec"
        stamps = (0, 10_000, 5_000, 20_000)
        write_recording(rec, [identity_frame(23, seq=seq, timestamp_us=t) for seq, t in enumerate(stamps)])
        trace = tmp_path / "out.trc"
        code = run_cli("run", "--source", f"replay:{rec}", "--sink", f"trace:{trace}", "--rate", "100")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: frame seq 2 is stamped 5000 us, before its predecessor's 10000 us" in err
        assert "Traceback" not in err
        # frame 2 is read when frame 1 falls due, after cycle 0's command; the sink was closed
        assert [cmd.source_seq for cmd in read_trace(trace)] == [0]

    def test_replay_of_another_segment_count_exits_2(self, tmp_path, capsys):
        rec = tmp_path / "five.rec"
        write_recording(rec, [identity_frame(5, seq=seq, timestamp_us=seq * 10_000) for seq in range(3)])
        code = run_cli("run", "--source", f"replay:{rec}", "--sink", "null", "--rate", "100")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: frame has 5 segments, map expects 23" in err
        assert "Traceback" not in err

    def test_live_run_counts_decode_errors_by_reason(self, monkeypatch, capsys):
        class SelfFeeding(DatagramSource):  # sends four bad datagrams to itself
            def start(self, slot, clock):
                super().start(slot, clock)
                good = encode_frame(identity_frame(23))
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                    for data in (b"JUNK" + good[4:], good[:-1] + bytes([good[-1] ^ 0xFF]),
                                 good[:10], good[:-1]):
                        out.sendto(data, ("127.0.0.1", self.port))

        monkeypatch.setattr(cli, "DatagramSource", SelfFeeding)
        code = run_cli("run", "--source", "live:0", "--sink", "null", "--rate", "500", "--frames", "25")
        assert code == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["stream_decode_errors"] == "4"
        assert kv["stream_decode_errors_BadMagic"] == "1"
        assert kv["stream_decode_errors_CrcMismatch"] == "1"
        assert kv["stream_decode_errors_TruncatedFrame"] == "2"
        assert kv["stream_received"] == "0"
        assert kv["stream_restarts"] == "0"
        assert 0 < int(kv["live_port"]) <= 65535  # the port live:0 bound, for a sender to use

    def test_live_port_is_printed_while_the_run_listens(self):
        run = subprocess.Popen(
            [sys.executable, "-m", "teleokin", "run", "--source", "live:0", "--sink", "null", "--duration", "2"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            first = run.stdout.readline()
            assert first.startswith("live_port=")
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                out.sendto(encode_frame(identity_frame(23)), ("127.0.0.1", int(first.partition("=")[2])))
            rest, err = run.communicate(timeout=60)
        finally:
            run.kill()
            run.wait()
        assert run.returncode == 0, err
        kv = parse_kv(first + rest)
        assert kv["stream_received"] == "1"
        assert kv["frames_consumed"] == "1"
        assert (first + rest).count("live_port=") == 1

    def test_backpressure_abort_keeps_the_report(self, monkeypatch, capsys):
        model = load_robot_model(sample_text("g1_sample.cfg"))

        def aborting(source, pipeline, sink, **kwargs):
            metrics = LoopMetrics(period_us=2000, cycles=3, commands=3, holds=3)
            for seq in range(3):
                angles = model.default_angles.copy()
                sink.emit(JointCommand(seq, 0, 0, seq * 2000, angles, np.zeros(len(model), dtype=bool), hold=True))
            raise SinkBackpressure("sink exceeded the 2000 us period for 8 consecutive cycles", metrics=metrics)

        monkeypatch.setattr(cli, "run_loop", aborting)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as receiver:
            receiver.bind(("127.0.0.1", 0))
            code = run_cli("run", "--source", "live:0", "--sink", "validate", "--frames", "10",
                           "--sink", f"datagram:127.0.0.1:{receiver.getsockname()[1]}")
        assert code == 1
        out = capsys.readouterr().out
        kv = parse_kv(out)
        assert kv["cycles"] == "3"
        assert kv["datagram_sent"] == "3" and kv["datagram_send_errors"] == "0"
        assert kv["stream_received"] == "0" and kv["stream_decode_errors"] == "0"
        assert "# cycles=3 period_us=2000\n" in out and "verdict=pass" in out

    def test_unresolvable_datagram_host_is_a_usage_error(self, monkeypatch, capsys):
        def unresolvable(sock, address):  # stands in for the resolver: no lookup leaves the machine
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket.socket, "connect", unresolvable)
        code = run_cli("run", "--source", "synth:static", "--sink", "datagram:no.such.host.invalid:9100",
                       "--frames", "5")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: datagram:no.such.host.invalid:9100: Name or service not known" in err
        assert "Traceback" not in err

    def test_deterministic_under_seed_and_virtual_clock(self, tmp_path, capsys):
        blobs = []
        for name in ("a.trc", "b.trc"):
            trace = tmp_path / name
            assert run_cli(
                "run", "--source", "synth:walk-cycle", "--sink", f"trace:{trace}",
                "--rate", "500", "--frames", "400", "--noise", "0.01", "--seed", "9",
                "--clock", "virtual",
            ) == 0
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]


class TestValidateCommand:
    def test_compliant_trace_exits_0(self, tmp_path, capsys):
        trace = tmp_path / "good.trc"
        run_cli("run", "--source", "synth:arm-wave", "--sink", f"trace:{trace}",
                "--rate", "500", "--frames", "300")
        assert run_cli("validate", "--trace", str(trace), "--rate", "500") == 0
        assert "verdict=pass" in capsys.readouterr().out

    def test_doctored_trace_exits_1_with_violation_line(self, tmp_path, capsys):
        trace = tmp_path / "good.trc"
        run_cli("run", "--source", "synth:static", "--sink", f"trace:{trace}",
                "--rate", "100", "--frames", "50")
        data = bytearray(trace.read_bytes())
        # rewrite one angle in record 10 to a wild value and fix its CRC
        import struct
        import zlib

        record_size = 214
        offset = 8 + 10 * record_size
        struct.pack_into("<d", data, offset + 25 + 8 * 3, 9.0)
        body = bytes(data[offset : offset + record_size - 4])
        struct.pack_into("<I", data, offset + record_size - 4, zlib.crc32(body))
        trace.write_bytes(bytes(data))
        capsys.readouterr()
        code = run_cli("validate", "--trace", str(trace), "--rate", "100")
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict=fail" in out
        violation_lines = [
            l for l in out.splitlines() if l.startswith(("limit ", "velocity "))
        ]
        assert any(l.startswith("limit 10 ") for l in violation_lines)

    def test_joint_count_mismatch_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "narrow.trc"
        robot = tmp_path / "one.cfg"
        robot.write_text(
            "joint only parent=base child=l1 origin=0,0,0;1,0,0,0 axis=0,0,1"
            " limits=-1,1 soft=0 vmax=10 default=0\n"
        )
        run_cli("run", "--robot", str(robot), "--map",
                str(_one_joint_map(tmp_path)), "--skeleton", str(_two_segment_skeleton(tmp_path)),
                "--source", "synth:static", "--sink", f"trace:{trace}",
                "--rate", "100", "--frames", "10", "--source-rate", "100")
        code = run_cli("validate", "--trace", str(trace), "--rate", "100")
        assert code == 2

    def test_non_positive_rate_exits_2(self, tmp_path, capsys):
        # waist_yaw jumps 0.5 rad in one 2 ms step; at a negative rate every rate
        # would be negative, and no velocity check could trip on the jump.
        model = load_robot_model(sample_text("g1_sample.cfg"))
        rows = np.zeros((4, len(model)))
        rows[2, model.joint_index("waist_yaw")] = 0.5
        trace = tmp_path / "jump.trc"
        sink = trace_sink(trace)
        for i, row in enumerate(rows):
            sink.emit(JointCommand(i, i, i * 2000, i * 2000, row, np.zeros(len(model), dtype=bool)))
        sink.close()
        assert run_cli("validate", "--trace", str(trace), "--rate", "500") == 1
        assert "velocity=2" in capsys.readouterr().out
        for rate in ("-500", "0"):
            with pytest.raises(SystemExit) as exc:
                run_cli("validate", "--trace", str(trace), "--rate", rate)
            assert exc.value.code == 2
            assert "--rate" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, tmp_path):
        assert run_cli("validate", "--trace", str(tmp_path / "none.trc")) == 2


def _two_segment_skeleton(tmp_path):
    path = tmp_path / "skel.cfg"
    path.write_text("segment root parent=-\nsegment limb parent=root\n")
    return path


def _one_joint_map(tmp_path):
    path = tmp_path / "one.map"
    path.write_text("map only segment=limb axis=0,0,1 sign=+1 scale=1 offset=0\n")
    return path


class TestGen:
    def test_writes_expected_frame_count(self, tmp_path, capsys):
        rec = tmp_path / "static.rec"
        assert run_cli("gen", "--pattern", "static", "--rate", "100", "--duration", "1",
                       "--out", str(rec)) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["frames"] == "100"

    def test_same_seed_is_byte_identical(self, tmp_path):
        paths = []
        for name in ("one.rec", "two.rec"):
            path = tmp_path / name
            run_cli("gen", "--pattern", "squat", "--rate", "100", "--duration", "1",
                    "--noise", "0.01", "--seed", "3", "--out", str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_bad_rate_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value this way
            run_cli("gen", "--pattern", "static", "--rate", "0", "--duration", "1",
                    "--out", str(tmp_path / "x.rec"))
        assert exc.value.code == 2

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.rec"
        with pytest.raises(SystemExit) as exc:  # argparse rejects the flag, as for run and bench
            run_cli("gen", "--pattern", "static", "--duration", "1", "--seed", "-1", "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer >= 0, got '-1'" in err and "Traceback" not in err
        assert not out.exists()


class TestBench:
    def test_prints_statistics(self, capsys):
        code = run_cli("bench", "--source", "synth:static", "--frames", "300", "--rate", "1000")
        assert code == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["cycles"] == "300"
        assert int(kv["compute_us_p99"]) >= int(kv["compute_us_p50"])
        assert "frame_age_us_max" in kv

    def test_one_joint_model_is_faster_than_the_sample(self, tmp_path, capsys):
        robot = tmp_path / "one.cfg"
        robot.write_text(
            "joint only parent=base child=l1 origin=0,0,0;1,0,0,0 axis=0,0,1"
            " limits=-1,1 soft=0 vmax=10 default=0\n"
        )
        # matched source and loop rates so every cycle pays the mapping cost
        run_cli(
            "bench", "--robot", str(robot), "--skeleton", str(_two_segment_skeleton(tmp_path)),
            "--map", str(_one_joint_map(tmp_path)), "--source", "synth:static",
            "--frames", "600", "--rate", "500", "--source-rate", "500",
        )
        small = parse_kv(capsys.readouterr().out)
        run_cli(
            "bench", "--source", "synth:static", "--frames", "600", "--rate", "500",
            "--source-rate", "500",
        )
        full = parse_kv(capsys.readouterr().out)
        assert int(small["compute_us_p50"]) < int(full["compute_us_p50"])

    def test_validate_sink(self, capsys):
        code = run_cli("bench", "--frames", "200", "--sink", "validate")
        assert code == 0
        assert "verdict=pass" in capsys.readouterr().out


BAD_NUMBERS = [
    ("run", "--source", "replay:{rec}:nan", "--sink", "null", "--frames", "5"),
    ("run", "--source", "replay:{rec}:-1", "--sink", "null", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "null", "--frames", "5", "--rate", "0"),
    ("run", "--source", "synth:static", "--sink", "null", "--frames", "5", "--tau", "-1"),
    ("run", "--source", "synth:static", "--sink", "null", "--frames", "5", "--source-rate", "0"),
    ("run", "--source", "synth:static", "--sink", "null", "--frames", "-5"),
    ("run", "--source", "synth:static", "--sink", "datagram:127.0.0.1:abc", "--frames", "5"),
    ("run", "--source", "live:99999", "--sink", "null", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "validate", "--frames", "5", "--margin", "nan"),
    ("validate", "--trace", "{rec}", "--margin", "nan"),
    ("bench", "--rate", "0"),
    ("gen", "--pattern", "static", "--rate", "100", "--duration", "inf", "--out", "{rec}.out"),
    ("gen", "--pattern", "static", "--duration", "1", "--noise", "nan", "--out", "{rec}.out"),
]


BAD_SPECS = [
    ("run", "--source", "wat:1", "--sink", "null", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "wat", "--frames", "5"),
    ("run", "--source", "replay:", "--sink", "null", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "trace:", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "datagram:", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "null"),
    ("run", "--source", "live:0", "--sink", "null"),
    ("run", "--source", "synth:wat", "--sink", "null", "--frames", "5"),
    ("run", "--source", "replay:{rec}:max", "--sink", "null", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "validate", "--frames", "5", "--acc-limit", "fast"),
    ("run", "--source", "synth:static", "--sink", "validate", "--frames", "5", "--acc-limit", "inf"),
    ("validate", "--trace", "{rec}", "--acc-limit", "-1"),
    ("run", "--source", "synth:static", "--sink", "trace:{rec}.d/x.trc", "--frames", "5"),
    ("run", "--source", "synth:static", "--sink", "trace:{rec}.trc", "--sink", "trace:{rec}.d/x.trc", "--frames", "5"),
    ("run", "--source", "live:{busy}", "--sink", "null", "--frames", "5"),
    ("gen", "--pattern", "static", "--duration", "1", "--out", "{rec}.d/x.rec"),
    ("run", "--source", "synth:static", "--sink", "null", "--frames", "5", "--seed", "-1"),
    ("bench", "--seed", "-1"),
    ("gen", "--pattern", "static", "--duration", "1", "--seed", "-1", "--out", "{rec}.out"),
]


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids=[" ".join(a) for a in BAD_NUMBERS])
def test_bad_number_is_a_usage_error(argv, tmp_path, capsys):
    assert_usage_error(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", BAD_SPECS, ids=[" ".join(a) for a in BAD_SPECS])
def test_bad_spec_is_a_usage_error(argv, tmp_path, capsys):
    assert_usage_error(argv, tmp_path, capsys)


def assert_usage_error(argv, tmp_path, capsys):
    """Exit 2 with an error line, and nothing setup opened left for the collector to close."""
    rec = tmp_path / "static.rec"  # "{rec}.d" is a directory that does not exist
    write_recording(rec, synth_motion("static", rate=100, duration=0.1))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as busy:  # "{busy}" is its port
        busy.bind(("127.0.0.1", 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run_cli(*(arg.format(rec=rec, busy=busy.getsockname()[1]) for arg in argv))
            except SystemExit as exc:  # argparse rejects a bad flag value this way
                code = exc.code
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


class TestHelp:
    def test_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--robot", "--source", "--sink", "--rate", "--frames", "--tau",
                     "--clock", "--seed"):
            assert flag in out


class TestEnvAndEntryPoint:
    def test_invalid_teleop_log_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TELEOP_LOG", "loud")
        assert run_cli("gen", "--pattern", "static", "--rate", "10", "--duration", "0.1",
                       "--out", "/tmp/ignored.rec") == 2

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "teleokin", "gen", "--pattern", "static",
             "--rate", "10", "--duration", "0.5", "--out", str(tmp_path / "m.rec")],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "frames=5" in result.stdout
