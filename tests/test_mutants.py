"""Mutants: plausible slips, each written out, patched in and caught by a check an ordinary test runs too.

Each test runs its check on the real code, where it passes, then patches the
mutant in and shows the same check failing. The check is the plain function
that the ordinary test named beside it calls, so that test catches the slip.
"""

from pathlib import Path

import pytest

from biofsm import fsm, sim
from biofsm.fsm import ACTUATION, BenchState, FsmRuntime, verify_determinism
from biofsm.protocol import InputSymbol, UdpSender
from biofsm.sim import ScriptError
from test_fsm import check_brownout_fires_on_the_tenth_silent_tick
from test_protocol import check_send_symbol_round_trips
from test_sim import WITNESSES, check_parse_script_agrees_with_its_reference

GOLDEN_TRANSITIONS = (Path(__file__).resolve().parent / "golden" / "transitions.txt").read_text()


def tick_forgetting_the_plus_one(runtime, symbol):
    silence = 0
    if symbol is InputSymbol.ABSENT:
        silence = min(runtime.silence_ticks, runtime.brownout_ticks)  # the slip: no +1
        state = BenchState.BROWNOUT if silence >= runtime.brownout_ticks else runtime.state
    elif symbol is InputSymbol.UNRECOGNIZED:
        state = runtime.state if runtime.state is BenchState.BROWNOUT else BenchState.INVALID
    else:
        state = fsm._TARGETS[symbol]
    return tuple.__new__(FsmRuntime, (state, silence, runtime.brownout_ticks)), ACTUATION[state]


def test_a_tick_that_forgets_the_plus_one_fails_the_brownout_check(monkeypatch):
    # Caught by test_fsm.py::test_brownout_fires_on_the_tenth_silent_tick.
    check_brownout_fires_on_the_tenth_silent_tick(BenchState.NORMAL)
    monkeypatch.setattr(fsm, "tick", tick_forgetting_the_plus_one)
    with pytest.raises(AssertionError):
        check_brownout_fires_on_the_tenth_silent_tick(BenchState.NORMAL)
    # The proof alone is blind to it: only the unreachable (state, silence b)
    # configurations brown out, and they fill in the golden table.
    assert verify_determinism().render() + "\n" == GOLDEN_TRANSITIONS


def parse_naming_any_bad_line(text):
    lines = text.splitlines()
    table = {}
    bad = set()
    for raw in set(lines):
        line = raw.strip()
        if line in sim._TOKENS:
            table[raw] = sim._TOKENS[line]
        elif line and line[0] != "#":
            bad.add(raw)
    if bad:
        first = next(iter(bad))  # the slip: some bad line, not the first in line order
        lineno, line = lines.index(first) + 1, first.strip()
        raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return list(filter(None, map(table.get, lines)))


def parse_dropping_padded_tokens(text):
    lines = text.splitlines()
    table = {}
    bad = set()
    for raw in set(lines):
        line = raw.strip()
        if raw in sim._TOKENS:  # the slip: a padded token joins neither the table nor `bad`
            table[raw] = sim._TOKENS[raw]
        elif line not in sim._TOKENS and line and line[0] != "#":
            bad.add(raw)
    if bad:
        first = next(filter(bad.__contains__, lines))
        lineno, line = lines.index(first) + 1, first.strip()
        raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return list(filter(None, map(table.get, lines)))


def parse_testing_the_last_character(text):
    lines = text.splitlines()
    table = {}
    bad = set()
    for raw in set(lines):
        line = raw.strip()
        if line in sim._TOKENS:
            table[raw] = sim._TOKENS[line]
        elif line and line[-1] != "#":  # the slip: a comment is a line that ends in "#"
            bad.add(raw)
    if bad:
        first = next(filter(bad.__contains__, lines))
        lineno, line = lines.index(first) + 1, first.strip()
        raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return list(filter(None, map(table.get, lines)))


def parse_skipping_the_first_line(text):
    lines = text.splitlines()
    table = {}
    bad = set()
    for raw in set(lines[1:]):  # the slip: the first line is never read
        line = raw.strip()
        if line in sim._TOKENS:
            table[raw] = sim._TOKENS[line]
        elif line and line[0] != "#":
            bad.add(raw)
    if bad:
        first = next(filter(bad.__contains__, lines))
        lineno, line = lines.index(first) + 1, first.strip()
        raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
    return list(filter(None, map(table.get, lines)))


@pytest.mark.parametrize(
    "mutant",
    [parse_naming_any_bad_line, parse_dropping_padded_tokens, parse_testing_the_last_character,
     parse_skipping_the_first_line],
)
def test_a_parse_script_mutant_disagrees_with_the_reference(mutant, monkeypatch):
    # Caught by test_sim.py::test_parse_script_agrees_with_its_reference, whose examples are the witnesses.
    for text in WITNESSES:
        check_parse_script_agrees_with_its_reference(text)
    monkeypatch.setattr(sim, "parse_script", mutant)
    with pytest.raises(AssertionError):
        for text in WITNESSES:
            check_parse_script_agrees_with_its_reference(text)


def send_symbol_sending_absent_as_a_dash(self, symbol):
    return self.send_raw(symbol.value.encode("ascii"))  # the slip: ABSENT goes out as b"-"


def test_a_send_symbol_that_sends_absent_fails_the_round_trip(monkeypatch):
    # Caught by test_protocol.py::test_decode_round_trip.
    check_send_symbol_round_trips()
    monkeypatch.setattr(UdpSender, "send_symbol", send_symbol_sending_absent_as_a_dash)
    with pytest.raises(AssertionError):
        check_send_symbol_round_trips()
