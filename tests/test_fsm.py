import copy
import pickle
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from biofsm.fsm import (
    ACTUATION,
    DEFAULT_BROWNOUT_TICKS,
    ActuationCommand,
    BenchState,
    FsmRuntime,
    Tone,
    tick,
    verify_determinism,
)
from biofsm import fsm, sim
from biofsm.cli import main
from biofsm.protocol import PAYLOADS, InputSymbol

VALID = (InputSymbol.VALID_A, InputSymbol.VALID_B, InputSymbol.VALID_C)
TARGETS = {
    InputSymbol.VALID_A: BenchState.NORMAL,
    InputSymbol.VALID_B: BenchState.MILD,
    InputSymbol.VALID_C: BenchState.HIGH,
}


def test_actuation_table_is_exact():
    assert ACTUATION == {
        BenchState.NORMAL: ActuationCommand((0, 255, 0), Tone.TONE1),
        BenchState.MILD: ActuationCommand((255, 165, 0), Tone.TONE2),
        BenchState.HIGH: ActuationCommand((255, 0, 0), Tone.TONE3),
        BenchState.INVALID: ActuationCommand((255, 255, 255), Tone.SILENT),
        BenchState.BROWNOUT: ActuationCommand((255, 0, 255), Tone.SILENT),
    }


@pytest.mark.parametrize("origin", list(BenchState))
@pytest.mark.parametrize("symbol", VALID)
def test_valid_input_reaches_its_state_from_anywhere(origin, symbol):
    runtime = FsmRuntime(origin, silence_ticks=7)
    nxt, command = tick(runtime, symbol)
    assert nxt.state is TARGETS[symbol]
    assert nxt.silence_ticks == 0
    assert command is ACTUATION[TARGETS[symbol]]  # the shared command, not a copy


@pytest.mark.parametrize(
    "origin", [BenchState.NORMAL, BenchState.MILD, BenchState.HIGH, BenchState.INVALID]
)
def test_unrecognized_forces_invalid(origin):
    nxt, command = tick(FsmRuntime(origin, silence_ticks=5), InputSymbol.UNRECOGNIZED)
    assert nxt.state is BenchState.INVALID
    assert nxt.silence_ticks == 0
    assert command.color == (255, 255, 255)


def test_unrecognized_does_not_lift_a_brownout():
    runtime = FsmRuntime(BenchState.BROWNOUT, silence_ticks=10)
    nxt, command = tick(runtime, InputSymbol.UNRECOGNIZED)
    assert nxt.state is BenchState.BROWNOUT
    assert nxt.silence_ticks == 0  # garbage still counts as link activity
    assert command.tone is Tone.SILENT


@pytest.mark.parametrize(
    "origin", [BenchState.NORMAL, BenchState.MILD, BenchState.HIGH, BenchState.INVALID]
)
def test_brownout_fires_on_the_tenth_silent_tick(origin):
    runtime = FsmRuntime(origin)
    for expected_count in range(1, DEFAULT_BROWNOUT_TICKS):
        runtime, _ = tick(runtime, InputSymbol.ABSENT)
        assert runtime.state is origin, f"left {origin} after only {expected_count} silent ticks"
        assert runtime.silence_ticks == expected_count
    runtime, command = tick(runtime, InputSymbol.ABSENT)
    assert runtime.state is BenchState.BROWNOUT
    assert command.color == (255, 0, 255)


def test_silence_counter_saturates_in_brownout():
    runtime = FsmRuntime(BenchState.BROWNOUT, silence_ticks=10)
    for _ in range(5):
        runtime, _ = tick(runtime, InputSymbol.ABSENT)
        assert runtime.state is BenchState.BROWNOUT
        assert runtime.silence_ticks == DEFAULT_BROWNOUT_TICKS


def test_one_valid_byte_ends_a_brownout():
    runtime = FsmRuntime(BenchState.BROWNOUT, silence_ticks=10)
    nxt, command = tick(runtime, InputSymbol.VALID_B)
    assert nxt.state is BenchState.MILD
    assert nxt.silence_ticks == 0
    assert command == ActuationCommand((255, 165, 0), Tone.TONE2)


def test_valid_input_resets_the_silence_counter():
    runtime = FsmRuntime(BenchState.NORMAL, silence_ticks=9)
    nxt, _ = tick(runtime, InputSymbol.VALID_A)
    assert nxt.silence_ticks == 0
    # nine more silent ticks still are not enough to brown out again
    for _ in range(9):
        nxt, _ = tick(nxt, InputSymbol.ABSENT)
    assert nxt.state is BenchState.NORMAL


def test_custom_brownout_budget():
    runtime = FsmRuntime(BenchState.HIGH, brownout_ticks=3)
    runtime, _ = tick(runtime, InputSymbol.ABSENT)
    runtime, _ = tick(runtime, InputSymbol.ABSENT)
    assert runtime.state is BenchState.HIGH
    runtime, _ = tick(runtime, InputSymbol.ABSENT)
    assert runtime.state is BenchState.BROWNOUT


def test_runtime_validation():
    with pytest.raises(ValueError):
        FsmRuntime(brownout_ticks=0)
    with pytest.raises(ValueError):
        FsmRuntime(silence_ticks=11)
    with pytest.raises(ValueError):
        FsmRuntime(silence_ticks=-1)


def test_tick_is_pure():
    runtime = FsmRuntime(BenchState.MILD, silence_ticks=4)
    results = {tick(runtime, InputSymbol.ABSENT) for _ in range(10)}
    assert len(results) == 1
    assert runtime.silence_ticks == 4  # input runtime untouched


def test_exhaustive_enumeration_is_deterministic_and_fast():
    started = time.monotonic()
    report = verify_determinism()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    assert report.deterministic
    assert report.conflicts == []
    assert report.configurations_checked == 5 * 5 * (DEFAULT_BROWNOUT_TICKS + 1)
    # symbol-level cells: valid and unrecognized inputs have one successor
    for state in BenchState:
        for symbol in VALID:
            assert report.successors[(state, symbol)] == {TARGETS[symbol]}
        expected_invalid = (
            BenchState.BROWNOUT if state is BenchState.BROWNOUT else BenchState.INVALID
        )
        assert report.successors[(state, InputSymbol.UNRECOGNIZED)] == {expected_invalid}
        # silence either keeps the state or latches brownout, nothing else
        assert report.successors[(state, InputSymbol.ABSENT)] <= {state, BenchState.BROWNOUT}
    table = report.render()
    assert "deterministic" in table
    for state in BenchState:
        assert state.name in table


@pytest.mark.parametrize("budget", [0, -3])
def test_enumeration_rejects_a_budget_below_one_tick(budget, capsys):
    # An empty enumeration would otherwise print a vacuous "deterministic".
    with pytest.raises(ValueError, match=r"^brownout_ticks must be >= 1$"):
        verify_determinism(budget)
    assert main(["simulate", "--transitions", "--brownout-ticks", str(budget)]) == 2
    assert capsys.readouterr() == ("", "error: brownout_ticks must be >= 1\n")


def test_enumeration_flags_a_successor_outside_the_machine(monkeypatch):
    import biofsm.fsm as fsm

    real_tick = fsm.tick

    def resized(runtime, symbol):
        nxt, command = real_tick(runtime, symbol)
        return FsmRuntime(nxt.state, nxt.silence_ticks, runtime.brownout_ticks + 1), command

    def copied(runtime, symbol):
        nxt, command = real_tick(runtime, symbol)
        return nxt, ActuationCommand(command.color, command.tone)

    for broken in (resized, copied):
        monkeypatch.setattr(fsm, "tick", broken)
        report = verify_determinism()
        assert not report.deterministic
        assert len(report.conflicts) == report.configurations_checked


def test_enumeration_rejects_a_mutant_that_lets_silence_pick_a_valid_target(monkeypatch, capsys):
    real_tick = fsm.tick

    def mutant(runtime, symbol):
        # A after any silence lands in HIGH, as C would
        if symbol is InputSymbol.VALID_A and runtime.silence_ticks > 0:
            return real_tick(runtime, InputSymbol.VALID_C)
        return real_tick(runtime, symbol)

    monkeypatch.setattr(fsm, "tick", mutant)
    report = verify_determinism()
    assert not report.deterministic
    assert report.conflicts == [f"({state.name}, VALID_A) has successors ['HIGH', 'NORMAL']" for state in BenchState]
    assert main(["simulate", "--transitions"]) == 1
    out = capsys.readouterr().out
    assert "HIGH/NORMAL" in out and out.endswith(": NON-DETERMINISTIC\n")


@settings(max_examples=60)
@given(st.lists(st.sampled_from(list(InputSymbol)), max_size=80))
def test_any_script_replays_identically(script):
    def run(symbols):
        runtime = FsmRuntime()
        trail = []
        for symbol in symbols:
            runtime, command = tick(runtime, symbol)
            trail.append((runtime, command))
        return trail

    first = run(script)
    assert first == run(script)
    # a valid byte anywhere always lands in its mapped state
    for symbol, (runtime, _) in zip(script, first):
        if symbol in VALID:
            assert runtime.state is TARGETS[symbol]


# copy, deepcopy and a pickle round trip at every protocol.
ROUND_TRIPS = [
    copy.copy,
    copy.deepcopy,
    *(
        lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ),
]


def round_trips(member):
    for trip in ROUND_TRIPS:
        yield trip(member)


@pytest.mark.parametrize("member", [*BenchState, *InputSymbol], ids=str)
def test_copied_and_unpickled_members_are_the_member_itself(member):
    # Both enums hash by identity, which agrees with == only while every
    # way of reproducing a member returns the singleton.
    for clone in round_trips(member):
        assert clone is member
        if isinstance(member, BenchState):
            assert ACTUATION[clone] is ACTUATION[member]
            for symbol in InputSymbol:
                assert sim._TAILS[symbol, clone] is sim._TAILS[symbol, member]
        else:
            assert fsm._TARGETS.get(clone) is fsm._TARGETS.get(member)
            assert PAYLOADS.get(clone) is PAYLOADS.get(member)
            for state in BenchState:
                assert sim._TAILS[clone, state] is sim._TAILS[member, state]


@pytest.mark.parametrize(
    "fields, message",
    [
        ((BenchState.MILD, 11, 10), "silence_ticks 11 outside 0-10"),
        ((BenchState.MILD, -1, 10), "silence_ticks -1 outside 0-10"),
        ((BenchState.BROWNOUT, 4, 3), "silence_ticks 4 outside 0-3"),
        ((BenchState.NORMAL, 0, 0), "brownout_ticks must be >= 1"),
    ],
)
def test_every_way_of_building_a_runtime_validates_it(fields, message):
    state, silence, budget = fields
    valid = FsmRuntime(state)
    builds = [
        lambda: FsmRuntime(*fields),
        lambda: FsmRuntime(state=state, silence_ticks=silence, brownout_ticks=budget),
        lambda: valid._replace(silence_ticks=silence, brownout_ticks=budget),
        lambda: FsmRuntime._make(fields),
    ]
    # tuple.__new__ is the one way round the constructor; copying or
    # unpickling such a forgery must still reject it.
    forged = tuple.__new__(FsmRuntime, fields)
    builds += [lambda trip=trip: trip(forged) for trip in ROUND_TRIPS]
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    for trip in ROUND_TRIPS:
        clone = trip(valid)
        assert type(clone) is FsmRuntime and clone == valid


def test_runtime_fields_cannot_be_set():
    runtime = FsmRuntime()
    for name in ("state", "silence_ticks", "brownout_ticks", "extra"):
        with pytest.raises(AttributeError):
            setattr(runtime, name, 1)
    assert runtime == FsmRuntime()


def test_runtime_repr_is_exact():
    # verify_determinism's conflict text embeds it.
    runtime = FsmRuntime(BenchState.MILD, silence_ticks=3)
    expected = "FsmRuntime(state=<BenchState.MILD: 'MILD'>, silence_ticks=3, brownout_ticks=10)"
    assert repr(runtime) == f"{runtime}" == expected


def test_equal_runtimes_are_equal_and_hash_equal():
    a = FsmRuntime(BenchState.HIGH, 2, 5)
    b = FsmRuntime(state=BenchState.HIGH, silence_ticks=2, brownout_ticks=5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, a._replace()}) == 1
    assert a != FsmRuntime(BenchState.HIGH, 3, 5)
    assert a != FsmRuntime(BenchState.MILD, 2, 5)
    assert a == (BenchState.HIGH, 2, 5)  # and equal to the plain tuple
