"""Benchtop actuation state machine.

Five states drive an RGB LED and a buzzer. Valid inputs move to the matching
arousal state from anywhere, including out of BROWNOUT. An unrecognized
payload forces INVALID, except that BROWNOUT absorbs it: garbage is not
evidence the wearable is back. Silence is counted per tick; enough
consecutive silent ticks latch BROWNOUT until a valid byte arrives.

Transitions are pure functions of (state, silence counter, input), and
`tick` reads the counter s only as `min(s+1, b)` and through `>= b`. So
`verify_determinism` proves a budget b, however large, by ticking each state
at four counter values: 0, b-1, b, and 1 standing for every 1 <= s <= b-2.
Each `tick` builds a fresh successor without re-validating it, because
`verify_determinism` checks each successor's counter itself, for every b.
"""

from __future__ import annotations

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
    """Complete machine configuration between ticks; validated whenever built, except as `tick`'s proved successor."""

    __slots__ = ()

    def __new__(
        cls, state: BenchState = BenchState.NORMAL, silence_ticks: int = 0, brownout_ticks: int = DEFAULT_BROWNOUT_TICKS
    ) -> FsmRuntime:
        if not isinstance(state, BenchState):
            raise ValueError(f"state must be a BenchState, got {state!r}")
        for name, value in (("brownout_ticks", brownout_ticks), ("silence_ticks", silence_ticks)):
            if isinstance(value, bool) or not isinstance(value, int):  # as NodeConfig: bool is no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        try:
            state = _TARGETS[symbol]
        except (KeyError, TypeError):  # TypeError: unhashable
            raise ValueError(f"input {symbol!r} is not an InputSymbol") from None
    return tuple.__new__(FsmRuntime, (state, silence, runtime.brownout_ticks)), ACTUATION[state]


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
    """Check the successor of every (state, silence, input) configuration, for any budget.

    With b = brownout_ticks, `tick` reads the silence counter s only as
    `min(s+1, b)` and through `>= b`, so it treats alike every s within each
    of four classes: 0, after any byte; "mid", 1 <= s <= b-2; "last",
    s = b-1; and "full", s = b. Each state is built once at each class's
    representative, sorted({0, 1, b-1, b}) (every counter value when
    b <= 2), and ticked once with each input: at most 100 ticks, whatever b
    is. Each successor must be a configuration of the same machine with a
    silence counter within 0..b (checked here, because `tick` builds it
    unvalidated) carrying its state's shared actuation; a `tick` that
    raises ValueError instead is a conflict too. The successor table
    is keyed by (state, input); an ABSENT cell may legally hold several
    successors because the silence counter, not the state, picks between
    staying put and browning out. `configurations_checked` counts the
    25·(b+1) concrete (state, silence, input) triples that the classes cover.
    """
    FsmRuntime(brownout_ticks=brownout_ticks)  # rejects a budget below one tick
    successors: dict[tuple[BenchState, InputSymbol], set[BenchState]] = {
        (state, symbol): set() for state in BenchState for symbol in InputSymbol
    }
    conflicts: list[str] = []
    silences = sorted({0, 1, brownout_ticks - 1, brownout_ticks})
    for state in BenchState:
        cells = [(symbol, successors[state, symbol]) for symbol in InputSymbol]
        for silence in silences:
            runtime = FsmRuntime(state, silence, brownout_ticks)
            for symbol, cell in cells:
                try:
                    nxt, command = tick(runtime, symbol)
                except ValueError as exc:  # e.g. a successor built with FsmRuntime(...), whose checks reject it
                    conflicts.append(f"({state.name}, silence={silence}, {symbol.name}) raised {exc}")
                    continue
                b, s = nxt.brownout_ticks, nxt.silence_ticks
                if b != brownout_ticks or not 0 <= s <= b or command is not ACTUATION[nxt.state]:
                    conflicts.append(f"({state.name}, silence={silence}, {symbol.name}) gave {nxt}, {command}")
                cell.add(nxt.state)
        for symbol, cell in cells:
            if symbol is not _ABSENT and len(cell) > 1:
                conflicts.append(f"({state.name}, {symbol.name}) has successors {sorted(s.name for s in cell)}")
    return DeterminismReport(brownout_ticks, len(successors) * (brownout_ticks + 1), successors, conflicts)
