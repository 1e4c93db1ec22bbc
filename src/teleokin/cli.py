"""Command-line entry point.

Subcommands wire the configs, a frame source, the retargeting pipeline, and
one or more sinks together:

- ``run``       drive the control loop (synth / replay / live source)
- ``validate``  audit a recorded command trace, exit 1 on violations
- ``gen``       write a synthetic motion recording
- ``bench``     ``run`` with latency defaults: arm-wave, null sink, wall clock

Exit codes: 0 success, 1 violations or sink backpressure, 2 usage, config
or setup errors (such as an output directory that does not exist or a port
in use), 141 stdout closed before the output was written (as a shell
reports a command that SIGPIPE ended).  Machine-readable output goes to
stdout; diagnostics go to stderr at the verbosity selected by the
``TELEOP_LOG`` environment variable (error/warn/info/debug).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys

from .clock import VirtualClock, WallClock
from .data import SAMPLE_MAP, SAMPLE_ROBOT, SAMPLE_SKELETON, sample_path
from .errors import SinkBackpressure, TeleokinError
from .model import load_retarget_map, load_robot_model, load_skeleton
from .retarget import FilterState, Pipeline
from .runtime import (
    MultiSink,
    NullSink,
    datagram_sink,
    loop_period_us,
    run_loop,
    trace_sink,
    validator_sink,
)
from .stream import SYNTH_PATTERNS, DatagramSource, schedule, synth_motion
from .validate import Thresholds, validate_trace
from .wire import read_recording, read_trace, write_recording

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


def _opened(spec: str, make, *args):
    """``make(*args)``, with an OSError (a missing directory, a busy port) as a UsageError naming ``spec``."""
    try:
        return make(*args)
    except OSError as exc:
        raise UsageError(f"{spec}: {exc.strerror or exc}") from None


def _read_config(path, loader, *extra):
    with open(path, "r", encoding="utf-8") as fh:
        return loader(fh.read(), *extra)


def _checked(convert, ok, what: str):
    """An argparse ``type``: ``convert`` the text, then reject values failing ``ok``."""
    def parse(text: str):
        value = convert(text)  # argparse reports a ValueError as "invalid <type> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")


def number_or_off(text: str) -> float | None:  # argparse prints this name: "invalid number_or_off value"
    return None if text == "off" else float(text)


_ACC_LIMIT = _checked(number_or_off, lambda v: v is None or 0 < v < math.inf, "'off' or positive and finite")


def _add_audit_flags(parser):
    """The flags ``run``, ``bench`` and ``validate`` share: the robot and the validator's thresholds."""
    parser.add_argument("--robot", default=str(sample_path(SAMPLE_ROBOT)), help="robot config file")
    parser.add_argument("--acc-limit", type=_ACC_LIMIT, default=None, help="validator acceleration limit rad/s^2, or 'off' (default)")
    parser.add_argument("--margin", type=_NON_NEGATIVE, default=0.0, help="validator collision margin in meters")


def _add_loop_flags(parser, *, source=None, sink=None, clock="auto", noise=0.0, frames=None):
    """The flags of ``run``; ``bench`` is ``run`` with other defaults."""
    _add_audit_flags(parser)
    parser.add_argument("--skeleton", default=str(sample_path(SAMPLE_SKELETON)), help="skeleton config file")
    parser.add_argument("--map", default=str(sample_path(SAMPLE_MAP)), help="retarget map file")
    parser.add_argument("--source", required=source is None, default=source,
                        help="synth:<pattern> | replay:<file>[:speed] | live:[<host>:]<port>")
    parser.add_argument("--sink", action="append", help="trace:<file> | datagram:<host>:<port> | validate | null (repeatable)")
    parser.add_argument("--rate", type=_POSITIVE, default=500.0, help="loop rate in Hz (default 500)")
    parser.add_argument("--frames", type=_POSITIVE_INT, default=frames, help="cycle budget (default %(default)s)")
    parser.add_argument("--duration", type=_POSITIVE, default=None, help="run duration in seconds")
    parser.add_argument("--tau", type=_NON_NEGATIVE, default=0.020, help="filter time constant in seconds (default 0.02)")
    parser.add_argument("--clock", choices=("auto", "virtual", "wall"), default=clock,
                        help="virtual for offline sources, wall for live (default %(default)s)")
    parser.add_argument("--source-rate", type=_POSITIVE, default=100.0, help="synth source rate in Hz")
    parser.add_argument("--noise", type=_NON_NEGATIVE, default=noise, help="synth noise std in radians (default %(default)s)")
    parser.add_argument("--seed", type=_SEED, default=0)
    # not --sink's own default: an appending flag adds to its default, never replaces it
    parser.set_defaults(func=cmd_run, default_sinks=[sink] if sink else [])


def _address(text: str, what: str) -> tuple[str, int]:
    """``[<host>:]<port>`` as ``(host, port)``; the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not port.isdecimal() or int(port) > 65535:
        raise UsageError(f"{what} needs a port in 0..65535, got {port!r}")
    return host or "127.0.0.1", int(port)


def _parse_source(args, skeleton):
    """Build (source, is_live) from the --source spec."""
    spec = args.source
    kind, _, rest = spec.partition(":")
    if kind == "synth":
        pattern = rest or "arm-wave"
        if args.duration is not None:
            duration = args.duration
        elif args.frames is not None:
            duration = args.frames / args.rate
        else:
            raise UsageError("synth source needs --frames or --duration")
        try:
            frames = synth_motion(
                pattern,
                rate=args.source_rate,
                duration=duration,
                noise_std=args.noise,
                seed=args.seed,
                skeleton=skeleton,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return schedule(frames), False
    if kind == "replay":
        path, _, speed_text = rest.partition(":")
        if not path:
            raise UsageError("replay source needs a path: replay:<file>[:speed]")
        try:
            speed = float(speed_text or 1.0)
        except ValueError:
            speed = math.nan  # rejected below, with the speeds that are not positive
        if not (speed > 0):
            raise UsageError(f"replay speed must be a positive number or 'inf', got {speed_text!r}")
        return schedule(_read_file(path, read_recording), speed=speed), False
    if kind == "live":
        host, port = _address(rest, "live source")
        if args.frames is None and args.duration is None:
            raise UsageError("live source needs --frames or --duration to bound the run")
        return _opened(spec, DatagramSource, port, host), True
    raise UsageError(f"unknown source {spec!r}; expected synth:*, replay:*, or live:*")


def _parse_sinks(args, model, opened: contextlib.ExitStack):
    """Build the sinks of the --sink specs; ``opened`` closes each one as it is built."""
    sinks = []
    validator = None
    for spec in args.sink or args.default_sinks:
        kind, _, rest = spec.partition(":")
        if kind == "trace":
            if not rest:
                raise UsageError("trace sink needs a path: trace:<file>")
            sink = _opened(spec, trace_sink, rest)
        elif kind == "datagram":
            if not rest:
                raise UsageError("datagram sink needs an address: datagram:<host>:<port>")
            sink = _opened(spec, datagram_sink, _address(rest, "datagram sink"))
        elif kind == "validate":
            sink = validator = validator_sink(model, Thresholds(args.acc_limit, args.margin), period_us=loop_period_us(args.rate))
        elif kind == "null":
            sink = NullSink()
        else:
            raise UsageError(f"unknown sink {spec!r}; expected trace:*, datagram:*, validate, null")
        opened.callback(sink.close)
        sinks.append(sink)
    if not sinks:
        raise UsageError("at least one --sink is required")
    return (sinks[0] if len(sinks) == 1 else MultiSink(sinks)), sinks, validator


def _pick_clock(args, live: bool):
    wall = args.clock == "wall" or (args.clock == "auto" and live)
    return WallClock() if wall else VirtualClock()


def cmd_run(args) -> int:
    model = _read_file(args.robot, _read_config, load_robot_model)
    skeleton = _read_file(args.skeleton, _read_config, load_skeleton)
    rmap = _read_file(args.map, _read_config, load_retarget_map, skeleton, model)
    with contextlib.ExitStack() as opened:  # on any exit: stop the source, close every sink built
        source, live = _parse_source(args, skeleton)
        opened.callback(source.stop)  # a live source bound its port when it was built
        sink, all_sinks, validator = _parse_sinks(args, model, opened)
        pipeline = Pipeline(skeleton, rmap, model, FilterState.create(len(model), tau=args.tau))
        clock = _pick_clock(args, live)
        if live:
            print(f"live_port={source.port}", flush=True)  # now, so a sender can learn the port live:0 bound
        code = 0
        try:
            metrics = run_loop(
                source,
                pipeline,
                sink,
                rate_hz=args.rate,
                max_cycles=args.frames,
                duration_s=args.duration,
                clock=clock,
            )
        except SinkBackpressure as exc:
            log.error("aborted: %s", exc)
            metrics, code = exc.metrics, 1
    sys.stdout.write(metrics.format())
    counts: dict[str, int] = {}  # every sink's counters, then the source's; a shared name is summed
    for part in (*all_sinks, source):
        for name, count in getattr(part, "counters", dict)().items():
            counts[name] = counts.get(name, 0) + count
    sys.stdout.write("".join(f"{name}={count}\n" for name, count in counts.items()))
    if validator is not None:
        report = validator.report()
        sys.stdout.write(report.format())
        if not report.passed:
            code = 1
    return code


def cmd_validate(args) -> int:
    model = _read_file(args.robot, _read_config, load_robot_model)
    trace = _read_file(args.trace, read_trace)
    period = None if args.rate is None else loop_period_us(args.rate)
    report = validate_trace(model, trace, thresholds=Thresholds(args.acc_limit, args.margin), period_us=period)
    sys.stdout.write(report.format())
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    try:
        frames = synth_motion(
            args.pattern, rate=args.rate, duration=args.duration, noise_std=args.noise, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    count = _opened(args.out, write_recording, args.out, frames)
    sys.stdout.write(f"frames={count}\npath={args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleokin",
        description="Retarget streamed human motion onto a humanoid joint model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_loop_flags(sub.add_parser("run", help="drive the control loop"))

    val = sub.add_parser("validate", help="audit a recorded command trace")
    _add_audit_flags(val)
    val.add_argument("--trace", required=True, help="CMDTRC01 trace file")
    val.add_argument("--rate", type=_POSITIVE, default=None, help="nominal loop rate; default: inferred")
    val.set_defaults(func=cmd_validate)

    gen = sub.add_parser("gen", help="write a synthetic motion recording")
    gen.add_argument("--pattern", choices=SYNTH_PATTERNS, required=True)
    gen.add_argument("--rate", type=_POSITIVE, default=100.0, help="frame rate in Hz (default 100)")
    gen.add_argument("--duration", type=_POSITIVE, required=True, help="seconds of motion")
    gen.add_argument("--noise", type=_NON_NEGATIVE, default=0.0, help="noise std in radians")
    gen.add_argument("--seed", type=_SEED, default=0)
    gen.add_argument("--out", required=True, help="output MOCREC01 file")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run with an arm-wave source, a null sink and the wall clock by default")
    _add_loop_flags(bench, source="synth:arm-wave", sink="null", clock="wall", noise=0.01, frames=10_000)

    return parser


STDOUT_CLOSED = 141  # what a shell reports for a command killed by SIGPIPE: 128 + 13


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed stdout raises below, not at interpreter exit
        return code
    except (UsageError, TeleokinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``teleokin run ... | head -1``).  As the
        # Python docs' SIGPIPE note advises, point stdout at devnull, so the
        # flush at exit does not raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
