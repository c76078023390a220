import copy
import itertools
import math
import pickle
import re
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from biofsm.fsm import (
    ACTUATION,
    DEFAULT_BROWNOUT_TICKS,
    ActuationCommand,
    BenchState,
    DeterminismReport,
    FsmRuntime,
    Tone,
    tick,
    verify_determinism,
)
from biofsm import fsm, sim
from biofsm.cli import main
from biofsm.protocol import InputSymbol, UdpSender

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
    check_brownout_fires_on_the_tenth_silent_tick(origin)


def check_brownout_fires_on_the_tenth_silent_tick(origin):
    """`fsm.tick` from `origin` holds it for 9 silent ticks, counting each, and browns out on the tenth."""
    runtime = FsmRuntime(origin)
    for expected_count in range(1, DEFAULT_BROWNOUT_TICKS):
        runtime, _ = fsm.tick(runtime, InputSymbol.ABSENT)
        assert runtime.state is origin, f"left {origin} after only {expected_count} silent ticks"
        assert runtime.silence_ticks == expected_count
    runtime, command = fsm.tick(runtime, InputSymbol.ABSENT)
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
    ticks = []

    def resized(runtime, symbol):
        ticks.append(runtime)
        nxt, command = real_tick(runtime, symbol)
        return FsmRuntime(nxt.state, nxt.silence_ticks, runtime.brownout_ticks + 1), command

    def copied(runtime, symbol):
        ticks.append(runtime)
        nxt, command = real_tick(runtime, symbol)
        return nxt, ActuationCommand(command.color, command.tone)

    for broken in (resized, copied):
        ticks.clear()
        monkeypatch.setattr(fsm, "tick", broken)
        report = verify_determinism()
        assert not report.deterministic
        assert len(report.conflicts) == len(ticks)  # every ticked edge is flagged


def test_enumeration_rejects_a_mutant_that_lets_silence_pick_a_valid_target(monkeypatch, capsys):
    real_tick = fsm.tick

    def mutant(runtime, symbol):
        # A after any silence lands in HIGH, as C would
        if symbol is InputSymbol.VALID_A and runtime.silence_ticks > 0:
            return real_tick(runtime, InputSymbol.VALID_C)
        return real_tick(runtime, symbol)

    monkeypatch.setattr(fsm, "tick", mutant)
    for brownout_ticks in (10, 10**9):
        report = verify_determinism(brownout_ticks)
        assert not report.deterministic
        assert report.conflicts == [f"({state.name}, VALID_A) has successors ['HIGH', 'NORMAL']" for state in BenchState]
        assert main(["simulate", "--transitions", "--brownout-ticks", str(brownout_ticks)]) == 1
        out = capsys.readouterr().out
        assert "HIGH/NORMAL" in out and out.endswith(": NON-DETERMINISTIC\n")


def test_the_proof_itself_rejects_a_silence_counter_past_the_budget(monkeypatch, capsys):
    def uncapped(runtime, symbol):
        # forgets the cap on silence and, as `tick` does, builds its successor unvalidated
        if symbol is not InputSymbol.ABSENT:
            return tick(runtime, symbol)
        silence = runtime.silence_ticks + 1
        state = BenchState.BROWNOUT if silence >= runtime.brownout_ticks else runtime.state
        return tuple.__new__(FsmRuntime, (state, silence, runtime.brownout_ticks)), ACTUATION[state]

    monkeypatch.setattr(fsm, "tick", uncapped)
    for brownout_ticks in (1, 10, 10**9):
        conflicts = verify_determinism(brownout_ticks).conflicts
        assert [c.split(" gave ")[0] for c in conflicts] == [
            f"({state.name}, silence={brownout_ticks}, ABSENT)" for state in BenchState
        ]
        assert all(f"silence_ticks={brownout_ticks + 1}," in c for c in conflicts)
        assert main(["simulate", "--transitions", "--brownout-ticks", str(brownout_ticks)]) == 1
        assert capsys.readouterr().out.endswith(": NON-DETERMINISTIC\n")


def test_a_tick_that_raises_is_a_conflict_not_a_configuration_error(monkeypatch, capsys):
    def uncapped(runtime, symbol):
        # forgets the cap on silence and builds its successor with FsmRuntime, whose check then raises
        if symbol is not InputSymbol.ABSENT:
            return tick(runtime, symbol)
        silence = runtime.silence_ticks + 1
        state = BenchState.BROWNOUT if silence >= runtime.brownout_ticks else runtime.state
        return FsmRuntime(state, silence, runtime.brownout_ticks), ACTUATION[state]

    monkeypatch.setattr(fsm, "tick", uncapped)
    for b in (1, 10, 10**9):
        assert verify_determinism(b).conflicts == [
            f"({state.name}, silence={b}, ABSENT) raised silence_ticks {b + 1} outside 0-{b}" for state in BenchState
        ]
        assert main(["simulate", "--transitions", "--brownout-ticks", str(b)]) == 1
        assert capsys.readouterr() == (verify_determinism(b).render() + "\n", "")


GOLDEN_ROWS = (Path(__file__).resolve().parent / "golden" / "transitions.txt").read_text().splitlines()[2:7]


def never_advances_silence(runtime, symbol):
    # ABSENT keeps the whole configuration, so no silent run ever browns out.
    if symbol is InputSymbol.ABSENT:
        return runtime, ACTUATION[runtime.state]
    return tick(runtime, symbol)


def any_byte_lifts_brownout_to_normal(runtime, symbol):
    if runtime.state is BenchState.BROWNOUT and symbol is not InputSymbol.ABSENT:
        return tick(runtime, InputSymbol.VALID_A)
    return tick(runtime, symbol)


@pytest.mark.parametrize(
    "mutant, changed_rows",
    [
        (never_advances_silence, ["NORMAL", "MILD", "HIGH", "INVALID"]),
        (any_byte_lifts_brownout_to_normal, ["BROWNOUT"]),
    ],
)
def test_the_table_exposes_each_robustness_mutant_at_any_budget(mutant, changed_rows, monkeypatch):
    # Both mutants are deterministic, so only their tables give them away.
    monkeypatch.setattr(fsm, "tick", mutant)
    for brownout_ticks in (10, 10**9):
        report = verify_determinism(brownout_ticks)
        assert report.deterministic
        rows = report.render().splitlines()[2:7]
        assert [row.split()[0] for row, golden in zip(rows, GOLDEN_ROWS) if row != golden] == changed_rows


def reference_verify_determinism(brownout_ticks, step=tick):
    """The proof as a plain product loop: a fresh configuration for every (state, input, silence).

    `verify_determinism` ticks one silence per counter class, so it is blind
    to a `tick` that treats two silences of one class differently (see
    `misbehaves_at_silence_5`). This loop ticks every silence, which is why
    it stays here as the reference.
    """
    successors = {(state, symbol): set() for state, symbol in itertools.product(BenchState, InputSymbol)}
    checked = 0
    for (state, symbol), silence in itertools.product(successors, range(brownout_ticks + 1)):
        successors[state, symbol].add(step(FsmRuntime(state, silence, brownout_ticks), symbol)[0].state)
        checked += 1
    return successors, checked


@pytest.mark.parametrize("brownout_ticks", [*range(1, 13), 50, 10**9])
def test_the_proof_ticks_each_configuration_once_with_each_input(brownout_ticks, monkeypatch):
    calls = []  # holds every configuration, so no id is reused

    def counted(runtime, symbol):
        calls.append((runtime, symbol))
        return tick(runtime, symbol)

    monkeypatch.setattr(fsm, "tick", counted)
    assert verify_determinism(brownout_ticks).deterministic
    configurations = 5 * len({0, 1, brownout_ticks - 1, brownout_ticks})
    assert len(calls) == 5 * configurations <= 100
    assert len(set(calls)) == len(calls)
    assert len({id(runtime) for runtime, _ in calls}) == configurations


@pytest.mark.parametrize("brownout_ticks", range(1, 65))
def test_the_proof_reports_what_a_product_loop_finds(brownout_ticks):
    report = verify_determinism(brownout_ticks)
    successors, checked = reference_verify_determinism(brownout_ticks)
    assert report.successors == successors
    assert list(report.successors) == list(successors)
    assert report.configurations_checked == checked
    assert report.render() == DeterminismReport(brownout_ticks, checked, successors, []).render()


def representative(silence, brownout_ticks):
    """The silence `verify_determinism` ticks in place of `silence`: 0, b-1 and b stand for themselves, the rest for 1."""
    return silence if silence in (0, brownout_ticks - 1, brownout_ticks) else 1


def counter_class(silence, brownout_ticks):
    if silence == 0:
        return "zero"
    if silence == brownout_ticks:
        return "full"
    return "last" if silence == brownout_ticks - 1 else "mid"


# The abstract machine's ABSENT edges; any byte leads to "zero". From
# "zero", the first silent tick lands in "mid", "last" or "full" as b is
# at least 3, 2 or 1.
ABSENT_EDGES = {"zero": {"mid", "last", "full"}, "mid": {"mid", "last"}, "last": {"full"}, "full": {"full"}}


def abstraction_errors(step, state, silence, brownout_ticks, symbol):
    """How `step` from (state, silence) breaks the counter abstraction `verify_determinism` rests on."""
    nxt, command = step(FsmRuntime(state, silence, brownout_ticks), symbol)
    rep = representative(silence, brownout_ticks)
    rep_nxt, rep_command = step(FsmRuntime(state, rep, brownout_ticks), symbol)
    errors = []
    if (nxt.state, command) != (rep_nxt.state, rep_command):
        errors.append(f"silence {silence} gave {nxt.state.name}, silence {rep} gave {rep_nxt.state.name}")
    edges = ABSENT_EDGES[counter_class(silence, brownout_ticks)] if symbol is InputSymbol.ABSENT else {"zero"}
    if counter_class(nxt.silence_ticks, brownout_ticks) not in edges:
        errors.append(f"silence {silence} led to silence {nxt.silence_ticks}")
    return errors


@st.composite
def budgets_and_silences(draw):
    brownout_ticks = draw(st.one_of(st.integers(1, 70), st.integers(1, 10**12)))
    edges = [s for s in (0, 1, 2, brownout_ticks - 2, brownout_ticks - 1, brownout_ticks) if 0 <= s <= brownout_ticks]
    silence = draw(st.one_of(st.integers(0, brownout_ticks), st.sampled_from(edges)))
    return brownout_ticks, silence


@settings(max_examples=300)
@given(budgets_and_silences(), st.sampled_from(list(BenchState)), st.sampled_from(list(InputSymbol)))
def test_tick_cannot_tell_a_silence_from_its_class_representative(budget_and_silence, state, symbol):
    brownout_ticks, silence = budget_and_silence
    assert abstraction_errors(tick, state, silence, brownout_ticks, symbol) == []


def misbehaves_at_silence_5(runtime, symbol):
    # Silence 5 of b = 10 is a "mid" value that `verify_determinism` never ticks.
    if symbol is InputSymbol.VALID_A and runtime.silence_ticks == 5 and runtime.brownout_ticks == 10:
        return tick(runtime, InputSymbol.VALID_C)
    return tick(runtime, symbol)


def test_a_mutant_between_representatives_fails_the_property_and_the_reference(monkeypatch):
    failing = {
        (state, silence)
        for state in BenchState
        for silence in range(11)
        if abstraction_errors(misbehaves_at_silence_5, state, silence, 10, InputSymbol.VALID_A)
    }
    assert failing == {(state, 5) for state in BenchState}
    successors, _ = reference_verify_determinism(10, misbehaves_at_silence_5)
    for state in BenchState:
        assert successors[state, InputSymbol.VALID_A] == {BenchState.NORMAL, BenchState.HIGH}
    # The abstract proof alone cannot see it: its soundness is the property above.
    monkeypatch.setattr(fsm, "tick", misbehaves_at_silence_5)
    assert verify_determinism(10).deterministic


def test_the_proof_keeps_no_configuration_list():
    verify_determinism(5000)  # warm up, so only the proof's own memory is traced
    tracemalloc.start()
    try:
        verify_determinism(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # a list of its 5,001 configurations per state would take about 1 MiB


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
                assert sim._STEPS[symbol, clone] is sim._STEPS[symbol, member]
        else:
            assert fsm._TARGETS.get(clone) is fsm._TARGETS.get(member)
            sent = []
            wire = SimpleNamespace(send_raw=lambda payload: sent.append(payload) or True)
            assert UdpSender.send_symbol(wire, clone) is UdpSender.send_symbol(wire, member)
            assert sent[::2] == sent[1::2]  # sent as the member is, or not at all
            for state in BenchState:
                assert sim._STEPS[clone, state] is sim._STEPS[member, state]


@pytest.mark.parametrize(
    "fields, message",
    [
        ((BenchState.MILD, 11, 10), "silence_ticks 11 outside 0-10"),
        ((BenchState.MILD, -1, 10), "silence_ticks -1 outside 0-10"),
        ((BenchState.BROWNOUT, 4, 3), "silence_ticks 4 outside 0-3"),
        ((BenchState.NORMAL, 0, 0), "brownout_ticks must be >= 1"),
        ((BenchState.NORMAL, 0, 2.5), "brownout_ticks must be an integer, got 2.5"),
        ((BenchState.NORMAL, 0, math.inf), "brownout_ticks must be an integer, got inf"),
        ((BenchState.NORMAL, 0, True), "brownout_ticks must be an integer, got True"),
        ((BenchState.NORMAL, 0, 0.0), "brownout_ticks must be an integer, got 0.0"),
        ((BenchState.NORMAL, 1.5, 10), "silence_ticks must be an integer, got 1.5"),
        ((BenchState.NORMAL, False, 10), "silence_ticks must be an integer, got False"),
        ((BenchState.NORMAL, 2.0, 10), "silence_ticks must be an integer, got 2.0"),
        (("NORMAL", 0, 10), "state must be a BenchState, got 'NORMAL'"),
        ((None, 0, 10), "state must be a BenchState, got None"),
        ((InputSymbol.VALID_A, 0, 10), "state must be a BenchState, got <InputSymbol.VALID_A: 'A'>"),
        (("NORMAL", -1, 0), "state must be a BenchState, got 'NORMAL'"),  # checked before the counters
    ],
)
def test_every_way_of_building_a_runtime_validates_it(fields, message):
    state, silence, budget = fields
    valid = FsmRuntime()
    builds = [
        lambda: FsmRuntime(*fields),
        lambda: FsmRuntime(state=state, silence_ticks=silence, brownout_ticks=budget),
        lambda: valid._replace(state=state, silence_ticks=silence, brownout_ticks=budget),
        lambda: FsmRuntime._make(fields),
    ]
    # tuple.__new__ is the one way round the constructor (`tick` builds its
    # proved successors so); copying or unpickling a forgery must still reject it.
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
