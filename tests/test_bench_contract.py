"""The benchmark's program contract: perfbench's child drives the public API.

Each case runs ``perfbench/run.py`` for half a second and checks that it
exits 0 with every check correct and no failed operation on the last line.
A change that breaks an entry point the child calls (``Pipeline``,
``pipeline.step``, the loader, ``run_loop``, the sinks) fails here.
live-udp is left out: it runs on the wall clock over loopback UDP.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    ("offline-retarget", "0"), ("online-validate", "0"), ("offline-retarget", "1"), ("online-validate", "1"),
])
def test_workload_runs_correct_with_no_failures(workload, trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, result.stdout[-2000:]
