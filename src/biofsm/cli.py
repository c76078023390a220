"""Command line entry points.

Four verbs cover the two nodes and the offline tools (`sim`, `evaluate`):

  biofsm wearable   stream synthetic or recorded signals, send class bytes
  biofsm benchtop   receive class bytes, drive the actuation machine
  biofsm simulate   run a scripted input sequence on the virtual clock
  biofsm evaluate   score the bundled (or a custom) study fixture

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
config file, malformed script, missing or unreadable input file), 1 for
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path

from .evaluate import evaluate_table3, load_table3, render_report
from .fsm import DEFAULT_BROWNOUT_TICKS, verify_determinism
from .nodes import DEFAULT_TICK_MS, iter_wearable, run_benchtop, run_wearable
from .protocol import DEFAULT_HOST, DEFAULT_PORT, EndpointConfig, UdpReceiver
from .signals import SignalProfile, load_trace, synth_physio
from .sim import load_script, run_simulation, serialize_trace

log = logging.getLogger(__name__)

LOG_DIR_ENV = "BIOFSM_LOG_DIR"


class ConfigError(ValueError):
    """Raised for malformed node config files."""


# What each scalar config field accepts, and how an error names it. JSON
# true/false parse as bool, an int subclass, so bool is rejected everywhere.
_FIELD_TYPES = {
    **dict.fromkeys(("port", "brownout_ticks", "seed"), ((int,), "an integer")),
    **dict.fromkeys(("tick_ms", "duration_s", "ppg_noise", "gsr_noise"), ((int, float), "a number")),
    "host": ((str,), "a string"),
    **dict.fromkeys(("log", "trace_path"), ((str, type(None)), "a string or null")),
}


@dataclass
class NodeConfig:
    """File-loadable settings for either node role.

    A config file is plain JSON with these field names; command line flags
    override individual fields.
    """

    role: str
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    tick_ms: float = DEFAULT_TICK_MS
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS
    log: str | None = None
    # wearable signal source: the trace at trace_path if set, else synthesis
    trace_path: str | None = None
    seed: int = 0
    duration_s: float = 75.0
    bpm: tuple[float, float | None] = (70.0, None)
    gsr: tuple[float, float | None] = (10.0, None)
    ppg_noise: float = 0.0
    gsr_noise: float = 0.0

    ROLES = ("wearable", "benchtop")

    def __post_init__(self) -> None:
        if self.role not in self.ROLES:
            raise ConfigError(f"role must be one of {self.ROLES}, got {self.role!r}")
        for name, (types, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        self.bpm = _as_ramp(self.bpm, "bpm")
        self.gsr = _as_ramp(self.gsr, "gsr")

    @classmethod
    def from_dict(cls, data: dict) -> "NodeConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "role" not in data:
            raise ConfigError("config must set 'role'")
        return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "NodeConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_ramp(value, name: str) -> tuple[float, float | None]:
    start, end = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, None)
    if _is_number(start) and (end is None or _is_number(end)):
        return (float(start), None if end is None else float(end))
    raise ConfigError(f"{name} must be a number or [start, end] pair, got {value!r}")


def _parse_ramp_flag(text: str, name: str) -> tuple[float, float | None]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]), None)
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"--{name} expects START or START:END, got {text!r}")


def resolve_log_path(explicit: str | None, role: str) -> Path | None:
    """Pick the session log location.

    An absolute --log wins outright. A relative --log lands inside
    $BIOFSM_LOG_DIR when that is set. With no --log at all, setting
    $BIOFSM_LOG_DIR turns on logging to <dir>/<role>.jsonl; otherwise no
    log file is written. A leading `~` in either is home, which no shell expands in JSON.
    """
    env_dir = os.path.expanduser(os.environ.get(LOG_DIR_ENV, ""))
    if explicit:
        path = Path(os.path.expanduser(explicit))
        if not path.is_absolute() and env_dir:
            return Path(env_dir) / path
        return path
    if env_dir:
        return Path(env_dir) / f"{role}.jsonl"
    return None


def _load_or_default(args: argparse.Namespace, role: str) -> NodeConfig:
    if args.config:
        config = NodeConfig.load(args.config)
        if config.role != role:
            raise ConfigError(f"config role {config.role!r} does not match the {role!r} command")
    else:
        config = NodeConfig(role=role)
    # Each flag's dest is the name of the field it overrides.
    for name in (field.name for field in fields(NodeConfig)):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, _parse_ramp_flag(value, name) if name in ("bpm", "gsr") else value)
    return config


def _wearable_samples(config: NodeConfig):
    if config.trace_path is not None:
        return load_trace(os.path.expanduser(config.trace_path))
    profile = SignalProfile(
        bpm_start=config.bpm[0],
        bpm_end=config.bpm[1],
        gsr_start_us=config.gsr[0],
        gsr_end_us=config.gsr[1],
        ppg_noise=config.ppg_noise,
        gsr_noise_us=config.gsr_noise,
    )
    return synth_physio(profile, config.duration_s * 1000.0, config.seed)


def _cmd_wearable(args: argparse.Namespace) -> int:
    config = _load_or_default(args, "wearable")
    endpoint = EndpointConfig(config.host, config.port)
    log_path = resolve_log_path(config.log, "wearable")
    samples = _wearable_samples(config)
    if not args.duplex:
        if config.port == 0:
            raise ConfigError("port 0 is not a send destination; only --duplex binds an ephemeral port")
        emissions = run_wearable(samples, endpoint, log_path)
    else:
        emissions = []
        # Port 0 binds an ephemeral port, so the wearable sends to the one actually bound.
        with UdpReceiver(endpoint) as receiver, closing(
            iter_wearable(samples, EndpointConfig(config.host, receiver.port), log_path)
        ) as windows:

            def next_window() -> bool:
                # Tick k sends window k's byte just before its poll; the tick after the last window stops.
                decision = next(windows, None)
                if decision is not None:
                    emissions.append(decision)
                return decision is None

            run_benchtop(
                receiver=receiver,
                tick_ms=config.tick_ms,
                brownout_ticks=config.brownout_ticks,
                log_path=resolve_log_path(None, "benchtop"),
                should_stop=next_window,
            )
    sent = sum(1 for e in emissions if e.byte_sent is not None)
    print(f"wearable: {len(emissions)} windows closed, {sent} bytes sent")
    return 0


def _cmd_benchtop(args: argparse.Namespace) -> int:
    config = _load_or_default(args, "benchtop")
    with UdpReceiver(EndpointConfig(config.host, config.port)) as receiver:
        steps = run_benchtop(
            receiver,
            tick_ms=config.tick_ms,
            brownout_ticks=config.brownout_ticks,
            log_path=resolve_log_path(config.log, "benchtop"),
            max_ticks=args.max_ticks,
        )
    print(f"benchtop: {len(steps)} ticks processed")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.transitions:
        report = verify_determinism(args.brownout_ticks)
        print(report.render())
        return 0 if report.deterministic else 1
    if not args.script:
        raise ConfigError("simulate needs a script file (or --transitions)")
    symbols = load_script(args.script)
    steps = run_simulation(symbols, args.brownout_ticks)
    trace = serialize_trace(steps)
    if args.output:
        Path(args.output).write_text(trace, encoding="utf-8")
        print(f"simulate: {len(steps)} ticks -> {args.output}")
    else:
        sys.stdout.write(trace)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate_table3(load_table3(args.fixture))
    print(json.dumps(report, indent=2) if args.json else render_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biofsm", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON node config file")
        p.add_argument("--port", type=int, help=f"UDP port (default {DEFAULT_PORT})")
        p.add_argument("--log", help="session log path (JSON lines)")

    w = sub.add_parser("wearable", help="run the sensing/classifying node")
    add_common(w)
    w.add_argument("--host", help="benchtop address to send to")
    w.add_argument("--trace", dest="trace_path", help="replay a recorded trace CSV instead of synthesizing")
    w.add_argument("--seed", type=int, help="synthesis seed")
    w.add_argument("--duration-s", type=float, dest="duration_s", help="synthesis length in seconds")
    w.add_argument("--bpm", help="synthetic heart rate, START or START:END")
    w.add_argument("--gsr", help="synthetic skin conductance in uS, START or START:END")
    w.add_argument("--ppg-noise", type=float, dest="ppg_noise", help="uniform PPG noise half-width")
    w.add_argument("--gsr-noise", type=float, dest="gsr_noise", help="uniform GSR noise half-width")
    w.add_argument("--duplex", action="store_true", help="also run a benchtop in-process, bound to the address sent to")
    w.add_argument("--tick-ms", type=float, dest="tick_ms", help="duplex benchtop tick length")
    w.add_argument("--brownout-ticks", type=int, dest="brownout_ticks", help="duplex benchtop silence budget")
    w.set_defaults(func=_cmd_wearable)

    b = sub.add_parser("benchtop", help="run the actuation node")
    add_common(b)
    b.add_argument("--host", help="address to bind")
    b.add_argument("--tick-ms", type=float, dest="tick_ms", help="tick length in milliseconds")
    b.add_argument("--brownout-ticks", type=int, dest="brownout_ticks", help="silent ticks before brownout")
    b.add_argument("--max-ticks", type=int, help="stop after this many ticks (default: run until Ctrl-C or SIGTERM)")
    b.set_defaults(func=_cmd_benchtop)

    s = sub.add_parser("simulate", help="run a tick script on the virtual clock")
    s.add_argument("script", nargs="?", help="script file, one of A/B/C/X/- per line")
    s.add_argument("--brownout-ticks", type=int, default=DEFAULT_BROWNOUT_TICKS, help="silent ticks before brownout")
    s.add_argument("--output", help="write the JSONL trace here instead of stdout")
    s.add_argument("--transitions", action="store_true", help="print the verified transition table and exit")
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("evaluate", help="score self-report vs prediction fixtures")
    e.add_argument("--fixture", help="fixture CSV (default: bundled study data)")
    e.add_argument("--json", action="store_true", help="machine-readable output")
    e.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # SIGTERM stops a node as Ctrl-C does, for this call only; setting a handler needs the main thread.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
