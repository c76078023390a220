"""Deterministic tick simulation, input scripts and trace output.

The simulator drives the benchtop machine with a scripted symbol per tick on
a purely virtual clock: tick indices are the only notion of time, so runs
are reproducible byte for byte. A step's tick is its position in the run, so
each of the 25 (input, state) steps is built once and shared. `iter_steps` is
also the benchtop's live tick loop, driven over UDP by `nodes.replay_script`.
It walks the graph of configurations its run has reached: one edge dict each.
`serialize_trace` is the one trace renderer; the live benchtop logs with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fsm import (
    ACTUATION,
    DEFAULT_BROWNOUT_TICKS,
    BenchState,
    FsmRuntime,
    tick,
)
from .protocol import InputSymbol

# Token -> symbol: `parse_script` reads a line's token with a dict lookup,
# because calling InputSymbol(token) costs about twenty times as much.
_TOKENS = {symbol.value: symbol for symbol in InputSymbol}


class ScriptError(ValueError):
    """Raised for malformed tick scripts, with the offending line number."""


def parse_script(text: str) -> list[InputSymbol]:
    """Parse a tick script: one token per line, A/B/C/X/-, # comments allowed."""
    lines = text.splitlines()
    # Each distinct line is read once in Python, then mapping every line is one
    # C-level pass: a token joins this table, and a blank or comment stays out.
    table = {}
    bad = set()
    for raw in set(lines):
        line = raw.strip()
        if line in _TOKENS:
            table[raw] = _TOKENS[line]
        elif line and line[0] != "#":
            bad.add(raw)
    if bad:
        first = next(filter(bad.__contains__, lines))  # the first bad line
        lineno, line = lines.index(first) + 1, first.strip()
        raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return list(filter(None, map(table.get, lines)))


def load_script(path: str | Path) -> list[InputSymbol]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScriptError(f"cannot read script {path}: {exc}") from exc
    try:
        return parse_script(text)
    except ScriptError as exc:
        raise ScriptError(f"{path}: {exc}") from None


@dataclass(frozen=True, slots=True)
class SimStep:
    """A tick's input and resulting state, shared by every such tick (`_STEPS`)."""

    input: InputSymbol
    state: BenchState
    tail: str = field(repr=False, compare=False)  # the trace line after its tick number


_STEPS = {
    (symbol, state): SimStep(symbol, state, json.dumps(
        {"input": symbol.value, "state": state.value, "color": list(command.color), "tone": command.tone.value}
    )[1:] + "\n")
    for state, command in ACTUATION.items() for symbol in InputSymbol
}


# Above the 5·(b+1) configurations a run can reach under any budget b <= 50,
# the default included, so there the table never empties.
MAX_CONFIGURATIONS = 1024


def iter_steps(symbols: Iterable[InputSymbol], brownout_ticks: int) -> Iterator[SimStep]:
    """The tick loop every caller shares: one step per symbol, from NORMAL.

    Symbols are pulled one per step, so `symbols` may poll a socket. A table
    local to this call maps each configuration reached to one dict, input ->
    (successor's dict, successor, shared step): `tick` runs once per pair the
    run reaches, at most 25·(brownout_ticks+1) times, and a repeat is a probe.
    A miss with MAX_CONFIGURATIONS already in the table empties it and starts
    over from the current configuration, so a long silence under a large
    budget holds bounded memory, and `tick` runs again for pairs seen before.
    """
    runtime = FsmRuntime(brownout_ticks=brownout_ticks)
    edges_of: dict[FsmRuntime, dict[InputSymbol, tuple[dict, FsmRuntime, SimStep]]] = {}
    edges = edges_of[runtime] = {}
    try:
        for symbol in symbols:
            hit = edges.get(symbol)
            if hit is None:
                if len(edges_of) >= MAX_CONFIGURATIONS:
                    for table in edges_of.values():
                        table.clear()
                    edges_of = {runtime: edges}
                nxt = tick(runtime, symbol)[0]
                hit = edges[symbol] = edges_of.setdefault(nxt, {}), nxt, _STEPS[symbol, nxt.state]
            edges, runtime, step = hit
            yield step
    finally:
        # The table is a cyclic graph: emptying each dict frees it by reference counting.
        for table in edges_of.values():
            table.clear()


def run_simulation(script: Sequence[InputSymbol], brownout_ticks: int = DEFAULT_BROWNOUT_TICKS) -> list[SimStep]:
    """Run the machine over a script on the virtual clock."""
    return list(iter_steps(script, brownout_ticks))


def serialize_trace(steps: Iterable[SimStep], start: int = 0) -> str:
    """Render steps as JSON lines, ticks counted from `start`. Stable key order, LF endings."""
    return "".join([f'{{"tick": {k}, {step.tail}' for k, step in enumerate(steps, start)])
