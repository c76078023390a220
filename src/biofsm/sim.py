"""Deterministic tick simulation, input scripts and trace output.

The simulator drives the benchtop machine with a scripted symbol per tick on
a purely virtual clock: tick indices are the only notion of time, so runs
are reproducible byte for byte. `iter_steps` is also the live benchtop's
tick loop, which `nodes.replay_script` drives with a script over UDP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fsm import (
    ACTUATION,
    DEFAULT_BROWNOUT_TICKS,
    ActuationCommand,
    BenchState,
    FsmRuntime,
    tick,
)
from .protocol import InputSymbol

# Token -> symbol, probed once per script line by `parse_script`: a dict
# lookup, because calling InputSymbol(token) costs about twenty times as much.
_TOKENS = {symbol.value: symbol for symbol in InputSymbol}


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
