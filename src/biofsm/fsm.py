"""Benchtop actuation state machine.

Five states drive an RGB LED and a buzzer. Valid inputs move to the matching
arousal state from anywhere, including out of BROWNOUT. An unrecognized
payload forces INVALID, except that BROWNOUT absorbs it: garbage is not
evidence the wearable is back. Silence is counted per tick; enough
consecutive silent ticks latch BROWNOUT until a valid byte arrives.

Transitions are pure functions of (state, silence counter, input), which
makes the machine exhaustively checkable: `verify_determinism` enumerates
every configuration and checks that each successor is a valid one. Each
`tick` builds and validates a fresh successor configuration.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

from .protocol import CLASS_SYMBOLS, InputSymbol


class BenchState(Enum):
    # Members are singletons and equality is identity, so this agrees with == and hashes in C.
    __hash__ = object.__hash__
    NORMAL = "NORMAL"
    MILD = "MILD"
    HIGH = "HIGH"
    INVALID = "INVALID"
    BROWNOUT = "BROWNOUT"


class Tone(Enum):
    TONE1 = "TONE1"
    TONE2 = "TONE2"
    TONE3 = "TONE3"
    SILENT = "SILENT"


@dataclass(frozen=True)
class ActuationCommand:
    """LED color as an 8-bit RGB triple plus a buzzer tone selector."""

    color: tuple[int, int, int]
    tone: Tone


# The benchtop's five-row actuation table. Every tick returns one of these
# shared commands.
ACTUATION: dict[BenchState, ActuationCommand] = {
    BenchState.NORMAL: ActuationCommand((0, 255, 0), Tone.TONE1),
    BenchState.MILD: ActuationCommand((255, 165, 0), Tone.TONE2),
    BenchState.HIGH: ActuationCommand((255, 0, 0), Tone.TONE3),
    BenchState.INVALID: ActuationCommand((255, 255, 255), Tone.SILENT),
    BenchState.BROWNOUT: ActuationCommand((255, 0, 255), Tone.SILENT),
}

# A valid symbol moves to the state named after the class it carries.
_TARGETS = {symbol: BenchState[arousal.name] for arousal, symbol in CLASS_SYMBOLS.items()}

# Members the tick reads, bound once: on Python 3.11 the metaclass
# __getattr__ hook makes `Cls.MEMBER` about 5x slower than a global read.
_ABSENT, _UNRECOGNIZED = InputSymbol.ABSENT, InputSymbol.UNRECOGNIZED
_BROWNOUT, _INVALID = BenchState.BROWNOUT, BenchState.INVALID

DEFAULT_BROWNOUT_TICKS = 10


class FsmRuntime(namedtuple("FsmRuntime", "state silence_ticks brownout_ticks")):
    """Complete machine configuration between ticks; every way of building one validates it."""

    __slots__ = ()

    def __new__(
        cls, state: BenchState = BenchState.NORMAL, silence_ticks: int = 0, brownout_ticks: int = DEFAULT_BROWNOUT_TICKS
    ) -> FsmRuntime:
        if brownout_ticks < 1:
            raise ValueError("brownout_ticks must be >= 1")
        if not (0 <= silence_ticks <= brownout_ticks):
            raise ValueError(f"silence_ticks {silence_ticks} outside 0-{brownout_ticks}")
        return tuple.__new__(cls, (state, silence_ticks, brownout_ticks))

    @classmethod
    def _make(cls, iterable) -> FsmRuntime:
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would otherwise bypass __new__'s checks
        return type(self), tuple(self)


def tick(runtime: FsmRuntime, symbol: InputSymbol) -> tuple[FsmRuntime, ActuationCommand]:
    """Advance the machine one tick. Pure: equal inputs give equal outputs."""
    silence = 0
    if symbol is _ABSENT:
        silence = min(runtime.silence_ticks + 1, runtime.brownout_ticks)
        state = _BROWNOUT if silence >= runtime.brownout_ticks else runtime.state
    elif symbol is _UNRECOGNIZED:
        # Garbage proves the link is alive, so the silence counter resets,
        # but only a valid byte may lift a brownout.
        state = runtime.state if runtime.state is _BROWNOUT else _INVALID
    else:
        state = _TARGETS[symbol]
    return FsmRuntime(state, silence, runtime.brownout_ticks), ACTUATION[state]


@dataclass
class DeterminismReport:
    """Result of exhaustively enumerating the transition function."""

    brownout_ticks: int
    configurations_checked: int
    successors: dict[tuple[BenchState, InputSymbol], set[BenchState]]
    conflicts: list[str]

    @property
    def deterministic(self) -> bool:
        return not self.conflicts

    def render(self) -> str:
        """Human-readable transition table, one row per state."""
        symbols = list(InputSymbol)
        width = max(len(s.name) for s in BenchState) + 1
        header = "state".ljust(width) + "".join(s.name.ljust(14) for s in symbols)
        lines = [header, "-" * len(header)]
        for state in BenchState:
            cells = []
            for symbol in symbols:
                names = sorted(s.name for s in self.successors[(state, symbol)])
                cells.append("/".join(names).ljust(14))
            lines.append(state.name.ljust(width) + "".join(cells))
        verdict = "deterministic" if self.deterministic else "NON-DETERMINISTIC"
        lines.append(
            f"{self.configurations_checked} configurations checked, "
            f"brownout after {self.brownout_ticks} silent ticks: {verdict}"
        )
        return "\n".join(lines)


def verify_determinism(brownout_ticks: int = DEFAULT_BROWNOUT_TICKS) -> DeterminismReport:
    """Check every (state, silence, input) configuration's successor.

    Each configuration is ticked once. Its successor must be a valid
    configuration of the same machine (construction rejects a silence
    counter outside 0..brownout_ticks) carrying its state's actuation. The
    successor table is keyed by (state, input); an ABSENT cell may legally
    hold several successors because the silence counter, not the state,
    picks between staying put and browning out.
    """
    FsmRuntime(brownout_ticks=brownout_ticks)  # rejects a budget below one tick
    successors: dict[tuple[BenchState, InputSymbol], set[BenchState]] = {
        (state, symbol): set() for state, symbol in itertools.product(BenchState, InputSymbol)
    }
    conflicts: list[str] = []
    checked = 0
    for state, symbol in itertools.product(BenchState, InputSymbol):
        for silence in range(brownout_ticks + 1):
            nxt, command = tick(FsmRuntime(state, silence, brownout_ticks), symbol)
            checked += 1
            if nxt.brownout_ticks != brownout_ticks or command is not ACTUATION[nxt.state]:
                conflicts.append(f"({state.name}, silence={silence}, {symbol.name}) gave {nxt}, {command}")
            successors[(state, symbol)].add(nxt.state)
        if symbol is not InputSymbol.ABSENT and len(successors[(state, symbol)]) > 1:
            names = sorted(s.name for s in successors[(state, symbol)])
            conflicts.append(f"({state.name}, {symbol.name}) has successors {names}")
    return DeterminismReport(brownout_ticks, checked, successors, conflicts)
