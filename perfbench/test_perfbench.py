"""Tests for the benchmark's own arithmetic and wire codec.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from arith import due_latencies, percentile, self_times, steal_share, tail_percentile  # noqa: E402
from inputs import decode_command_datagram, encode_frame  # noqa: E402
from speed import NOMINAL_NS, probe_ns, scaled  # noqa: E402
from spans import SpanSet, Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    assert percentile([], 50) is None


def test_self_time_subtracts_direct_children_only():
    #  A [0, 100)  children B [10, 40) and C [50, 70); B has child D [15, 25)
    starts = [0, 10, 50, 15]
    ends = [100, 40, 70, 25]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents).tolist() == [50.0, 20.0, 20.0, 10.0]


def test_tracer_records_parents_and_request_ids(tmp_path):
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.001)
        return x

    wrapped_leaf = tracer.wrap("geometry.leaf", leaf)

    class Frame:
        seq = 42

    def outer(frame):
        return wrapped_leaf(1) + wrapped_leaf(2)

    tracer.wrap("retarget.outer", outer, request_id=lambda a: a[0].seq)(Frame())
    tracer.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as data:
        names = list(data["names"])
        spans = data["spans"]
    # The outer span is opened first, so it holds index 0 and is the leaves' parent.
    outer_row = spans[[names[i] for i in spans[:, 0]].index("retarget.outer")]
    leaves = spans[spans[:, 3] == 0]
    assert len(leaves) == 2 and outer_row[3] == -1
    assert set(spans[:, 4]) == {42}  # children inherit the frame's seq
    own = self_times(spans[:, 1], spans[:, 2], spans[:, 3])
    assert own[0] == pytest.approx((outer_row[2] - outer_row[1]) - (leaves[:, 2] - leaves[:, 1]).sum())


def test_due_latency_counts_generator_lateness():
    due = {1: 1_000, 2: 9_333, 3: 17_667}
    commands = [
        (1_500, 1, True),  # a hold carrying seq 1 does not answer it
        (3_000, 1, False),  # first fresh command for frame 1
        (5_000, 1, False),  # later commands for the same frame are ignored
        (11_000, 2, False),  # frame 2 was sent 500 us late; latency is still from due
        (12_000, 99, False),  # a seq that was never sent
    ]
    latencies = due_latencies(due, commands)
    assert latencies == {1: 2_000, 2: 1_667}
    assert 3 not in latencies  # unanswered: failed unless the loop superseded it


def test_speed_scaling_maps_the_nominal_probe_to_itself():
    assert scaled(1234.5, NOMINAL_NS) == 1234.5
    assert scaled(1000.0, 2 * NOMINAL_NS) == 500.0  # a core twice as slow: half the time
    assert probe_ns() > 0


def test_steal_share():
    before = ["100", "0", "50", "800", "0", "0", "0", "50", "7", "0"]
    after = ["200", "0", "100", "1600", "0", "0", "0", "100", "99", "0"]
    assert steal_share(before, after) == pytest.approx(50 / 1000)


def test_codec_agrees_with_the_program():
    import teleokin as tk

    quats = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5]])
    frame = tk.decode_frame(encode_frame(7, 123_456, quats))
    assert frame.seq == 7 and frame.timestamp_us == 123_456
    assert np.allclose(frame.orientations, quats, atol=1e-7)

    cmd = tk.JointCommand(3, 7, 123_456, 130_000, np.array([0.25, -1.5]), np.zeros(2, bool), hold=True)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as receiver:
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5)
        sink = tk.datagram_sink(receiver.getsockname())
        sink.emit(cmd)
        sink.close()
        data = receiver.recv(4096)
    seq, source_seq, source_ts, angles, hold = decode_command_datagram(data)
    assert (seq, source_seq, source_ts, hold) == (3, 7, 123_456, True)
    assert angles.tolist() == [0.25, -1.5]
    corrupt = bytearray(data)
    corrupt[20] ^= 0xFF
    assert decode_command_datagram(bytes(corrupt)) is None


def test_every_declared_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(layer_metrics(SpanSet([]), [], {"received": 0, "decode_errors": 0}, [], 0))
    produced |= {"tracing.overhead_frame_to_command_us", "tracing.overhead_audit_us_per_command"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "frame_to_command_us", "audit_us_per_command", "setup_s", "peak_rss_mb"
    }
