"""Deterministic tick simulation, input scripts, trace output and evaluation.

The simulator drives the benchtop machine with a scripted symbol per tick on
a purely virtual clock: tick indices are the only notion of time, so runs
are reproducible byte for byte. The same scripts can instead be replayed
over a real loopback UDP socket pair (`replay_script`) to show the wire path
produces the identical trace.

Evaluation compares self-reported arousal against predictions for the
bundled three-clip study fixture and reports exact-match accuracy per clip,
alongside the figures originally reported for the prototype.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .classifier import ArousalClass
from .fsm import (
    ACTUATION,
    DEFAULT_BROWNOUT_TICKS,
    ActuationCommand,
    BenchState,
    FsmRuntime,
    tick,
)
from .protocol import PAYLOADS, EndpointConfig, InputSymbol, UdpReceiver, UdpSender

# Token -> symbol, probed once per script line by `parse_script`: a dict
# lookup, because calling InputSymbol(token) costs about twenty times as much.
_TOKENS = {symbol.value: symbol for symbol in InputSymbol}

DEFAULT_TICK_MS = 50.0  # one tick of wall time on the live and wire paths


class ScriptError(ValueError):
    """Raised for malformed tick scripts, with the offending line number."""


def parse_script(text: str) -> list[InputSymbol]:
    """Parse a tick script: one token per line, A/B/C/X/-, # comments allowed."""
    symbols: list[InputSymbol] = []
    append, token = symbols.append, _TOKENS.get
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        symbol = token(line)
        if symbol is not None:
            append(symbol)
        elif line and not line.startswith("#"):
            raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return symbols


def load_script(path: str | Path) -> list[InputSymbol]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScriptError(f"cannot read script {path}: {exc}") from exc
    try:
        return parse_script(text)
    except ScriptError as exc:
        raise ScriptError(f"{path}: {exc}") from None


# A trace line after its tick number depends only on (input, state), so each
# of the 25 tails is rendered once, here.
_TAILS = {
    (symbol, state): json.dumps(
        {"input": symbol.value, "state": state.value, "color": list(command.color), "tone": command.tone.value}
    )[1:] + "\n"
    for state, command in ACTUATION.items()
    for symbol in InputSymbol
}


@dataclass(slots=True)
class SimStep:
    """One simulated tick: the input consumed and the resulting state."""

    tick: int
    input: InputSymbol
    state: BenchState

    @property
    def command(self) -> ActuationCommand:
        return ACTUATION[self.state]

    def line(self) -> str:
        """This step's trace line: one JSON object, stable key order, LF ending."""
        return f'{{"tick": {self.tick}, {_TAILS[self.input, self.state]}'


def iter_steps(symbols: Iterable[InputSymbol], brownout_ticks: int) -> Iterator[SimStep]:
    """The tick loop every caller shares: one step per symbol, from NORMAL.

    Symbols are pulled one per step, so `symbols` may poll a socket. `tick`
    runs once per (configuration, input) pair the run reaches; a memo local
    to this call, never over 25·(brownout_ticks+1) entries, answers repeats.
    """
    runtime = FsmRuntime(brownout_ticks=brownout_ticks)
    successors: dict[tuple[FsmRuntime, InputSymbol], FsmRuntime] = {}
    for index, symbol in enumerate(symbols):
        key = runtime, symbol
        runtime = successors.get(key)
        if runtime is None:
            runtime = successors[key] = tick(*key)[0]
        yield SimStep(index, symbol, runtime.state)


def run_simulation(
    script: Sequence[InputSymbol],
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS,
) -> list[SimStep]:
    """Run the machine over a script on the virtual clock."""
    return list(iter_steps(script, brownout_ticks))


def serialize_trace(steps: Iterable[SimStep]) -> str:
    """Render steps as JSON lines. Stable key order, LF endings."""
    return "".join(step.line() for step in steps)


def replay_script(
    script: Sequence[InputSymbol],
    tick_ms: float = DEFAULT_TICK_MS,
    drop_ticks: set[int] | None = None,
    brownout_ticks: int = DEFAULT_BROWNOUT_TICKS,
) -> list[SimStep]:
    """Replay a script over real loopback UDP, lockstep one datagram per tick.

    Scripted ABSENT ticks send nothing, as do ticks listed in `drop_ticks`
    (simulating loss in flight); UNRECOGNIZED ticks send a byte outside the
    protocol alphabet. The receiver classifies each tick from what actually
    arrived, so the returned steps carry the symbols as seen on the wire.
    """
    drop_ticks = drop_ticks or set()
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        endpoint = EndpointConfig(port=receiver.port)
        with UdpSender(endpoint) as sender:
            def observed() -> Iterator[InputSymbol]:
                for index, symbol in enumerate(script):
                    if symbol is not InputSymbol.ABSENT and index not in drop_ticks:
                        sender.send_raw(PAYLOADS.get(symbol, b"?"))
                    yield receiver.poll_receive(tick_ms / 1000.0)

            return list(iter_steps(observed(), brownout_ticks))


@dataclass
class TraceRecord:
    """One rated interval of one clip from the study fixture."""

    clip_id: int
    interval_index: int
    self_report: ArousalClass
    predicted: ArousalClass


_CLASS_NAMES = {c.name: c for c in ArousalClass}

FIXTURE_INTERVALS_PER_CLIP = 16

# Accuracy figures originally reported for the prototype. The bundled
# fixture does not reproduce them; evaluation reports both and flags the
# discrepancy instead of hiding it.
REPORTED_ACCURACY = {1: 66.67, 2: 13.0, 3: 43.75}
REPORTED_AVERAGE = 41.0


def load_table3(path: str | Path | None = None) -> list[TraceRecord]:
    """Load the study fixture CSV; the packaged copy is used by default."""
    if path is None:
        source = resources.files("biofsm").joinpath("data/table3.csv")
        text = source.read_text(encoding="utf-8")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read fixture {path}: {exc}") from None
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header != ["clip", "interval", "self_report", "predicted"]:
        raise ValueError("fixture header must be clip,interval,self_report,predicted")
    records: list[TraceRecord] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            clip = int(row[0])
            interval = int(row[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer clip or interval") from None
        for name in (row[2], row[3]):
            if name not in _CLASS_NAMES:
                raise ValueError(f"line {lineno}: unknown class {name!r}")
        records.append(TraceRecord(clip, interval, _CLASS_NAMES[row[2]], _CLASS_NAMES[row[3]]))
    return records


@dataclass
class ClipAccuracy:
    clip_id: int
    matches: int
    total: int
    reported_percent: float | None

    @property
    def percent(self) -> float:
        return 100.0 * self.matches / self.total


@dataclass
class AccuracyReport:
    clips: list[ClipAccuracy]
    reported_average: float | None

    @property
    def average_percent(self) -> float:
        return sum(c.percent for c in self.clips) / len(self.clips)

    @property
    def discrepancies(self) -> list[int]:
        """Clip ids whose computed accuracy differs from the reported one."""
        return [
            c.clip_id
            for c in self.clips
            if c.reported_percent is not None and abs(c.percent - c.reported_percent) >= 0.005
        ]

    def to_dict(self) -> dict:
        return {
            "clips": [
                {
                    "clip": c.clip_id,
                    "matches": c.matches,
                    "total": c.total,
                    "accuracy_percent": round(c.percent, 2),
                    "reported_percent": c.reported_percent,
                }
                for c in self.clips
            ],
            "average_percent": round(self.average_percent, 2),
            "reported_average_percent": self.reported_average,
            "discrepancy_clips": self.discrepancies,
        }

    def render(self) -> str:
        discrepancies = self.discrepancies
        lines = ["clip  matches  accuracy   reported"]
        for c in self.clips:
            reported = f"{c.reported_percent:.2f}%" if c.reported_percent is not None else "-"
            flag = "  <- differs" if c.clip_id in discrepancies else ""
            lines.append(
                f"{c.clip_id:<4}  {c.matches}/{c.total:<5}  {c.percent:6.2f}%   {reported}{flag}"
            )
        reported_avg = f"{self.reported_average:.2f}%" if self.reported_average is not None else "-"
        lines.append(f"average {self.average_percent:.2f}% (reported {reported_avg})")
        if discrepancies:
            lines.append(
                "computed accuracies do not match the originally reported figures "
                f"for clips {discrepancies}; the reported figures are not "
                "reproducible from the published per-interval data"
            )
        return "\n".join(lines)


def evaluate_table3(records: Sequence[TraceRecord]) -> AccuracyReport:
    """Exact-match accuracy per clip plus the overall mean.

    Every clip must carry exactly the expected number of intervals, none of
    them twice; partial fixtures indicate a corrupted file and are rejected.
    """
    by_clip: dict[int, list[TraceRecord]] = {}
    for record in records:
        by_clip.setdefault(record.clip_id, []).append(record)
    if not by_clip:
        raise ValueError("no records to evaluate")
    clips: list[ClipAccuracy] = []
    for clip_id in sorted(by_clip):
        rows = by_clip[clip_id]
        if len(rows) != FIXTURE_INTERVALS_PER_CLIP:
            raise ValueError(
                f"clip {clip_id} has {len(rows)} intervals, expected {FIXTURE_INTERVALS_PER_CLIP}"
            )
        intervals = [r.interval_index for r in rows]
        for k, interval in enumerate(intervals):
            if interval in intervals[:k]:
                raise ValueError(f"clip {clip_id} repeats interval {interval}")
        matches = sum(1 for r in rows if r.self_report == r.predicted)
        clips.append(ClipAccuracy(clip_id, matches, len(rows), REPORTED_ACCURACY.get(clip_id)))
    return AccuracyReport(clips, REPORTED_AVERAGE)
