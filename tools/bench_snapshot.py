"""Write one BENCH_<n>.json snapshot of the benchmark and the host.

    python3 tools/bench_snapshot.py BENCH_<n>.json

Run it from the root of a checkout.  In order, it records:

1. a host wake-up probe: a bare loop, no teleokin code, that sleeps to
   300 us before each 2 ms deadline and spins the rest, and how late each
   wake-up was;
2. ``perfbench/run.py --workload all --seed 1 --seconds 30`` at ``--trace 0``
   and at ``--trace 1``: each workload's ``DETAIL`` line and the result line;
3. three ``teleokin bench --rate 500 --frames 5000`` metrics dumps;
4. three of the same with ``--sink validate``, the operator's paced
   validator path: each dump, the validator's verdict line and the exit
   code (1 on a ``fail`` verdict, recorded like a pass);
5. the wake-up probe again.

A wall-clock tail in 2 to 4 can then be read against the host's own
wake-up tail around it.  The file also names the machine, Python and numpy,
and counts the lines of ``src/teleokin/*.py`` (``src_lines``), the size of
the program the numbers belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PROBE_PERIOD_NS = 2_000_000
PROBE_SPIN_NS = 300_000
PROBE_WAKEUPS = 2500  # 5 s
PERFBENCH_SECONDS = 30
BENCH_RUNS = 3
BENCH = [sys.executable, "-m", "teleokin", "bench", "--rate", "500", "--frames", "5000"]


def wakeup_probe() -> dict:
    """Sleep to PROBE_SPIN_NS before each deadline, spin to it, record the lateness."""
    late_us = []
    deadline = time.monotonic_ns() + PROBE_PERIOD_NS
    for _ in range(PROBE_WAKEUPS):
        remaining = deadline - PROBE_SPIN_NS - time.monotonic_ns()
        if remaining > 0:
            time.sleep(remaining / 1e9)
        while (now := time.monotonic_ns()) < deadline:
            pass
        late_us.append((now - deadline) / 1e3)
        deadline += PROBE_PERIOD_NS
    late = np.array(late_us)
    return {
        "period_us": PROBE_PERIOD_NS // 1000,
        "spin_us": PROBE_SPIN_NS // 1000,
        "wakeups": len(late),
        "late_us_p50": round(float(np.percentile(late, 50)), 1),
        "late_us_p99": round(float(np.percentile(late, 99)), 1),
        "late_us_max": round(float(late.max()), 1),
    }


def _run(argv: list[str], ok=(0,)) -> subprocess.CompletedProcess:
    """Run ``argv`` from the checkout; an exit code not in ``ok`` raises."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode not in ok:
        raise subprocess.CalledProcessError(done.returncode, argv, done.stdout, done.stderr)
    return done


def perfbench(trace: int) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
                "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)])
    lines = out.stdout.splitlines()
    details = [json.loads(line[len("DETAIL "):]) for line in lines if line.startswith("DETAIL ")]
    return {"result": json.loads(lines[-1]), "detail": details}


def _number(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _dump(lines: list[str]) -> dict:
    return {key: _number(value) for key, _, value in (line.partition("=") for line in lines)}


def teleokin_bench() -> dict:
    return _dump(_run(BENCH).stdout.splitlines())


def teleokin_bench_validate() -> dict:
    """One paced ``bench --sink validate`` run: its dump, the validator's
    verdict line and the exit code.  A ``fail`` verdict exits 1 and is
    recorded, not raised."""
    done = _run([*BENCH, "--sink", "validate"], ok=(0, 1))
    lines = done.stdout.splitlines()
    audit = lines.index("# kinematic trace audit")  # the validator's report follows the dump
    verdict = next(line for line in lines[audit:] if line.startswith("verdict="))
    return {"exit_code": done.returncode, "verdict": verdict, "dump": _dump(lines[:audit])}


def host() -> dict:
    cpu = next(
        (line.partition(":")[2].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caveat": (
            f"{os.cpu_count()} CPUs, shared by perfbench's driver, the loop process and, on a "
            "virtual machine, other tenants, whose load changes the speed and the wake-up latency "
            "in stretches. Read a wall-clock tail against the wake-up probes taken before and after."
        ),
    }


def src_lines() -> int:
    """Lines in ``src/teleokin/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "teleokin").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="output JSON file, BENCH_<n>.json")
    args = parser.parse_args(argv)
    snapshot = {"host": host(), "src_lines": src_lines(), "wakeup_probe_before": wakeup_probe()}
    snapshot["perfbench_trace0"] = perfbench(0)
    snapshot["perfbench_trace1"] = perfbench(1)
    snapshot["teleokin_bench"] = [teleokin_bench() for _ in range(BENCH_RUNS)]
    snapshot["teleokin_bench_validate"] = [teleokin_bench_validate() for _ in range(BENCH_RUNS)]
    snapshot["wakeup_probe_after"] = wakeup_probe()
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
