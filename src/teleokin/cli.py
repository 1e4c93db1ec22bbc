"""Command-line entry point.

Subcommands wire the configs, a frame source, the retargeting pipeline, and
one or more sinks together:

- ``run``       drive the control loop (synth / replay / live source)
- ``validate``  audit a recorded command trace, exit 1 on violations
- ``gen``       write a synthetic motion recording
- ``bench``     measure per-cycle compute latency with a null sink

Exit codes: 0 success, 1 violations or sink backpressure, 2 usage or config
errors.  Machine-readable output goes to stdout; diagnostics go to stderr at
the verbosity selected by the ``TELEOP_LOG`` environment variable
(error/warn/info/debug).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .clock import VirtualClock, WallClock
from .data import sample_path
from .errors import SinkBackpressure, TeleokinError
from .metrics import Histogram
from .model import load_retarget_map, load_robot_model, load_skeleton
from .retarget import FilterState, Pipeline
from .runtime import (
    MultiSink,
    NullSink,
    datagram_sink,
    read_trace,
    run_loop,
    trace_sink,
    validator_sink,
)
from .stream import (
    SYNTH_PATTERNS,
    DatagramSource,
    read_recording,
    schedule,
    synth_motion,
    write_recording,
)
from .validate import Thresholds, validate_trace

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": "ERROR", "warn": "WARNING", "info": "INFO", "debug": "DEBUG"}


def _configure_logging() -> None:
    wanted = os.environ.get("TELEOP_LOG", "warn").lower()
    if wanted not in _LOG_LEVELS:
        raise UsageError(f"TELEOP_LOG must be one of {sorted(_LOG_LEVELS)}, got {wanted!r}")
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[wanted], format="%(levelname)s %(name)s: %(message)s")


class UsageError(Exception):
    pass


def _read_file(path, read, *extra):
    """``read(path, *extra)``, with an unreadable or malformed file as a UsageError naming it."""
    try:
        return read(path, *extra)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except TeleokinError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _read_config(path, loader, *extra):
    with open(path, "r", encoding="utf-8") as fh:
        return loader(fh.read(), *extra)


def _load_configs(args):
    model = _read_file(args.robot, _read_config, load_robot_model)
    skeleton = _read_file(args.skeleton, _read_config, load_skeleton)
    rmap = _read_file(args.map, _read_config, load_retarget_map, skeleton, model)
    return model, skeleton, rmap


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--robot", default=str(sample_path("g1_sample.cfg")), help="robot config file")
    parser.add_argument(
        "--skeleton", default=str(sample_path("human_sample.cfg")), help="skeleton config file"
    )
    parser.add_argument("--map", default=str(sample_path("g1_sample.map")), help="retarget map file")


def _parse_source(args, cycles_hint: float | None, skeleton=None):
    """Build (source, is_live) from the --source spec."""
    spec = args.source
    kind, _, rest = spec.partition(":")
    if kind == "synth":
        pattern = rest or "arm-wave"
        if pattern not in SYNTH_PATTERNS:
            raise UsageError(f"unknown synth pattern {pattern!r}; expected one of {SYNTH_PATTERNS}")
        if args.duration is not None:
            duration = args.duration
        elif cycles_hint is not None:
            duration = cycles_hint / args.rate
        else:
            raise UsageError("synth source needs --frames or --duration")
        frames = synth_motion(
            pattern,
            rate=args.source_rate,
            duration=duration,
            noise_std=args.noise,
            seed=args.seed,
            skeleton=skeleton,
        )
        return schedule(frames), False
    if kind == "replay":
        path, _, speed_text = rest.partition(":")
        if not path:
            raise UsageError("replay source needs a path: replay:<file>[:speed]")
        speed = 1.0
        if speed_text:
            try:
                speed = math.inf if speed_text in ("inf", "max") else float(speed_text)
            except ValueError:
                raise UsageError(f"replay speed must be a number or 'inf', got {speed_text!r}") from None
        return schedule(_read_file(path, read_recording), speed=speed), False
    if kind == "live":
        if not rest or not rest.isdigit():
            raise UsageError("live source needs a numeric port: live:<port>")
        if args.frames is None and args.duration is None:
            raise UsageError("live source needs --frames or --duration to bound the run")
        return DatagramSource(int(rest)), True
    raise UsageError(f"unknown source {spec!r}; expected synth:*, replay:*, or live:*")


def _parse_sinks(args, model):
    sinks = []
    validator = None
    for spec in args.sink:
        kind, _, rest = spec.partition(":")
        if kind == "trace":
            if not rest:
                raise UsageError("trace sink needs a path: trace:<file>")
            sinks.append(trace_sink(rest))
        elif kind == "datagram":
            if not rest:
                raise UsageError("datagram sink needs an address: datagram:<host>:<port>")
            sinks.append(datagram_sink(rest))
        elif kind == "validate":
            validator = validator_sink(
                model, _thresholds_from(args), period_us=round(1e6 / args.rate)
            )
            sinks.append(validator)
        elif kind == "null":
            sinks.append(NullSink())
        else:
            raise UsageError(f"unknown sink {spec!r}; expected trace:*, datagram:*, validate, null")
    if not sinks:
        raise UsageError("at least one --sink is required")
    return (sinks[0] if len(sinks) == 1 else MultiSink(sinks)), sinks, validator


def _thresholds_from(args) -> Thresholds:
    acc = getattr(args, "acc_limit", "off")
    if acc in (None, "off"):
        limit = None
    else:
        try:
            limit = float(acc)
        except ValueError:
            raise UsageError(f"--acc-limit must be a number or 'off', got {acc!r}") from None
    try:
        return Thresholds(acceleration_limit=limit, collision_margin=getattr(args, "margin", 0.0))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _pick_clock(args, live: bool):
    choice = args.clock
    if choice == "auto":
        choice = "wall" if live else "virtual"
    return WallClock() if choice == "wall" else VirtualClock()


def cmd_run(args) -> int:
    model, skeleton, rmap = _load_configs(args)
    source, live = _parse_source(args, cycles_hint=args.frames, skeleton=skeleton)
    sink, all_sinks, validator = _parse_sinks(args, model)
    pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=args.tau))
    clock = _pick_clock(args, live)
    try:
        metrics = run_loop(
            source,
            pipeline,
            sink,
            rate_hz=args.rate,
            max_cycles=args.frames,
            duration_s=args.duration,
            clock=clock,
            sink_budget_us=args.sink_budget_us,
        )
    except SinkBackpressure as exc:
        sink.close()
        log.error("aborted: %s", exc)
        if exc.metrics is not None:
            sys.stdout.write(exc.metrics.format())
        return 1
    sink.close()
    sys.stdout.write(metrics.format())
    for s in all_sinks:
        if hasattr(s, "send_errors"):
            sys.stdout.write(f"datagram_sent={s.sent}\ndatagram_send_errors={s.send_errors}\n")
    if live:
        stats = source.stats
        sys.stdout.write(
            f"stream_received={stats.received}\nstream_dropped={stats.dropped}\n"
            f"stream_duplicates={stats.duplicates}\nstream_out_of_order={stats.out_of_order}\n"
            f"stream_decode_errors={sum(source.decode_errors.values())}\n"
        )
        for name, count in sorted(source.decode_errors.items()):
            sys.stdout.write(f"stream_decode_errors_{name}={count}\n")
    if validator is not None:
        report = validator.report()
        sys.stdout.write(report.format())
        if not report.passed:
            return 1
    return 0


def cmd_validate(args) -> int:
    model = _read_file(args.robot, _read_config, load_robot_model)
    trace = _read_file(args.trace, read_trace)
    period = round(1e6 / args.rate) if args.rate else None
    report = validate_trace(model, trace, thresholds=_thresholds_from(args), period_us=period)
    sys.stdout.write(report.format())
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    try:
        frames = synth_motion(
            args.pattern, rate=args.rate, duration=args.duration, noise_std=args.noise, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    count = write_recording(args.out, frames)
    sys.stdout.write(f"frames={count}\npath={args.out}\n")
    return 0


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise UsageError("--repetitions must be at least 1")
    model, skeleton, rmap = _load_configs(args)
    compute = Histogram()
    fresh_compute = Histogram()
    frame_age = Histogram()
    for rep in range(args.repetitions):
        pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=args.tau))
        frames = synth_motion(
            args.pattern,
            rate=args.source_rate,
            duration=args.cycles / args.rate,
            noise_std=args.noise,
            seed=args.seed + rep,
            skeleton=skeleton,
        )
        metrics = run_loop(
            schedule(frames),
            pipeline,
            NullSink(),
            rate_hz=args.rate,
            max_cycles=args.cycles,
            clock=WallClock(),
        )
        compute.samples.extend(metrics.compute_us.samples)
        fresh_compute.samples.extend(metrics.fresh_compute_us.samples)
        frame_age.samples.extend(metrics.frame_age_us.samples)
    sys.stdout.write(
        f"repetitions={args.repetitions}\ncycles_per_repetition={args.cycles}\nrate_hz={args.rate}\n"
        f"compute_us_p50={compute.percentile(50)}\ncompute_us_p99={compute.percentile(99)}\n"
        f"compute_us_max={compute.maximum()}\n"
        f"fresh_compute_us_p50={fresh_compute.percentile(50)}\n"
        f"fresh_compute_us_p99={fresh_compute.percentile(99)}\n"
        f"fresh_compute_us_max={fresh_compute.maximum()}\n"
        f"frame_age_us_p50={frame_age.percentile(50)}\nframe_age_us_p99={frame_age.percentile(99)}\n"
        f"frame_age_us_max={frame_age.maximum()}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleokin",
        description="Retarget streamed human motion onto a humanoid joint model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="drive the control loop")
    _add_config_flags(run)
    run.add_argument("--source", required=True, help="synth:<pattern> | replay:<file>[:speed] | live:<port>")
    run.add_argument("--sink", action="append", default=[], help="trace:<file> | datagram:<host>:<port> | validate | null (repeatable)")
    run.add_argument("--rate", type=float, default=500.0, help="loop rate in Hz (default 500)")
    run.add_argument("--frames", type=int, default=None, help="cycle budget")
    run.add_argument("--duration", type=float, default=None, help="run duration in seconds")
    run.add_argument("--tau", type=float, default=0.020, help="filter time constant in seconds (default 0.02)")
    run.add_argument("--clock", choices=("auto", "virtual", "wall"), default="auto",
                     help="virtual for offline sources, wall for live (default auto)")
    run.add_argument("--source-rate", type=float, default=100.0, help="synth source rate in Hz")
    run.add_argument("--noise", type=float, default=0.0, help="synth noise std in radians")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sink-budget-us", type=int, default=None, help="per-cycle sink time budget")
    run.add_argument("--acc-limit", default="off", help="validator acceleration limit rad/s^2, or 'off'")
    run.add_argument("--margin", type=float, default=0.0, help="validator collision margin in meters")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="audit a recorded command trace")
    val.add_argument("--robot", default=str(sample_path("g1_sample.cfg")), help="robot config file")
    val.add_argument("--trace", required=True, help="CMDTRC01 trace file")
    val.add_argument("--rate", type=float, default=None, help="nominal loop rate; default: inferred")
    val.add_argument("--acc-limit", default="off", help="acceleration limit rad/s^2, or 'off'")
    val.add_argument("--margin", type=float, default=0.0, help="collision margin in meters")
    val.set_defaults(func=cmd_validate)

    gen = sub.add_parser("gen", help="write a synthetic motion recording")
    gen.add_argument("--pattern", choices=SYNTH_PATTERNS, required=True)
    gen.add_argument("--rate", type=float, default=100.0, help="frame rate in Hz (default 100)")
    gen.add_argument("--duration", type=float, required=True, help="seconds of motion")
    gen.add_argument("--noise", type=float, default=0.0, help="noise std in radians")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output MOCREC01 file")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="measure per-cycle compute latency")
    _add_config_flags(bench)
    bench.add_argument("--rate", type=float, default=500.0, help="loop rate in Hz (default 500)")
    bench.add_argument("--cycles", type=int, default=10_000, help="cycles per repetition")
    bench.add_argument("--repetitions", type=int, default=1)
    bench.add_argument("--pattern", choices=SYNTH_PATTERNS, default="arm-wave")
    bench.add_argument("--source-rate", type=float, default=100.0)
    bench.add_argument("--noise", type=float, default=0.01)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--tau", type=float, default=0.020)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, TeleokinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
