import dataclasses
import gc
import itertools
import json
import random
import re
import tracemalloc
import zipfile
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from biofsm import evaluate, sim
from biofsm.classifier import ArousalClass
from biofsm.evaluate import TraceRecord, evaluate_table3, load_table3, render_report
from biofsm.fsm import ACTUATION, DEFAULT_BROWNOUT_TICKS, BenchState, FsmRuntime, tick, verify_determinism
from biofsm.nodes import replay_script
from biofsm.protocol import CLASS_SYMBOLS, InputSymbol
from biofsm.sim import (
    ScriptError,
    iter_steps,
    load_script,
    parse_script,
    run_simulation,
    serialize_trace,
)

A, B, C = InputSymbol.VALID_A, InputSymbol.VALID_B, InputSymbol.VALID_C
X, ABSENT = InputSymbol.UNRECOGNIZED, InputSymbol.ABSENT


def test_parse_script_tokens_comments_blanks():
    text = "A\n# warm up\n\nB\nC\nX\n-\n"
    assert parse_script(text) == [A, B, C, X, ABSENT]
    for text, expected in [("", []), ("A", [A]), ("A\nB\n", [A, B]), ("A\n B\n", [A, B])]:
        assert parse_script(text) == expected


def test_a_form_feed_ends_a_script_line():
    # Lines split as str.splitlines splits them, as README says.
    assert parse_script("A\fB\n") == [A, B]


def test_parse_script_reports_the_offending_line():
    with pytest.raises(ScriptError, match="line 3"):
        parse_script("A\nB\nQ\n")


def test_script_file_roundtrip(tmp_path):
    path = tmp_path / "script.txt"
    symbols = [A, ABSENT, X, C]
    path.write_text("".join(f"{s.value}\n" for s in symbols))
    assert load_script(path) == symbols


def test_load_script_prefixes_the_path(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("A\nZZ\n")
    with pytest.raises(ScriptError, match="bad.txt"):
        load_script(path)


def reference_parse_script(text):
    """`parse_script` as first written: a comment test, a membership probe, then an index."""
    tokens = {symbol.value: symbol for symbol in InputSymbol}
    symbols = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line not in tokens:
            raise ScriptError(f"line {lineno}: unknown symbol {line!r} (expected A, B, C, X or -)")
        symbols.append(tokens[line])
    return symbols


PADS = st.sampled_from(["", " ", "\t", " \t "])
SCRIPT_LINES = st.one_of(
    st.builds(lambda pad, token, tail: pad + token + tail, PADS, st.sampled_from("ABCX-"), PADS),
    st.sampled_from(["", "#", "  # note", "#A"]),
    st.sampled_from(["Q", "AB", "a", "--", "A #x"]),
)
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
BARE_TOKENS = st.sampled_from("ABCX-")
# A line that is not a bare token: a padded token, a blank, a comment or a bad line.
ODD_LINES = SCRIPT_LINES.filter(lambda line: line not in ("A", "B", "C", "X", "-"))


@st.composite
def script_texts(draw):
    """Script lines each ended by a line break, the last break sometimes dropped.

    Half the scripts are bare tokens, which `parse_script` maps without
    reading any line in Python, half of those with one odd line inserted.
    """
    if draw(st.booleans()):
        lines = draw(st.lists(st.tuples(BARE_TOKENS, LINE_BREAKS), max_size=60))
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.tuples(ODD_LINES, LINE_BREAKS)))
    else:
        lines = draw(st.lists(st.tuples(SCRIPT_LINES, LINE_BREAKS), max_size=12))
    text = "".join(line + brk for line, brk in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]
    return text


def parse_outcome(parse, text):
    """What `parse` makes of `text`: its symbols, or the message of the ScriptError it raises."""
    try:
        return parse(text)
    except ScriptError as exc:
        return str(exc)


def check_parse_script_agrees_with_its_reference(text):
    assert parse_outcome(sim.parse_script, text) == parse_outcome(reference_parse_script, text)


# Scripts on which a plausible slip in `parse_script` differs from the reference:
# a padded token, a comment not ending in "#", a bad first line, and many bad
# lines in both orders, so naming some bad line other than the first shows.
WITNESSES = [
    "A\n B\n",
    "# note\nA\n",
    "Q\nA\n",
    "".join(f"Q{i}\n" for i in range(50)),
    "".join(f"Q{i}\n" for i in reversed(range(50))),
]


@settings(max_examples=300, deadline=None)
@given(script_texts())
@example(WITNESSES[0])
@example(WITNESSES[1])
@example(WITNESSES[2])
@example(WITNESSES[3])
@example(WITNESSES[4])
def test_parse_script_agrees_with_its_reference(text):
    check_parse_script_agrees_with_its_reference(text)


def test_simulation_tracks_valid_inputs():
    steps = run_simulation([A, B, C])
    assert [s.state for s in steps] == [BenchState.NORMAL, BenchState.MILD, BenchState.HIGH]
    assert [json.loads(line)["tick"] for line in serialize_trace(steps).splitlines()] == [0, 1, 2]


def test_simulation_outage_and_recovery():
    steps = run_simulation([A] + [ABSENT] * 10 + [A])
    # nine silent ticks hold the last state, the tenth latches brownout
    assert all(s.state is BenchState.NORMAL for s in steps[1:10])
    assert steps[10].state is BenchState.BROWNOUT
    assert steps[11].state is BenchState.NORMAL


def test_simulation_nine_absences_do_not_brown_out():
    steps = run_simulation([B] + [ABSENT] * 9)
    assert steps[-1].state is BenchState.MILD


def test_empty_script_is_a_noop():
    assert run_simulation([]) == []


@pytest.mark.parametrize("bad", ["A", None, 1, [], {}], ids=repr)
def test_a_script_entry_that_is_no_input_symbol_is_named(bad):
    named = f"^input {re.escape(repr(bad))} is not an InputSymbol$"
    for script in ([A, bad], [bad]):
        with pytest.raises(ValueError, match=named):
            run_simulation(script)
    with pytest.raises(ValueError, match=named):
        tick(FsmRuntime(), bad)


def test_a_type_error_from_the_symbol_iterator_is_not_renamed():
    def symbols():
        yield A
        raise TypeError("from the source")

    with pytest.raises(TypeError, match="^from the source$"):
        run_simulation(symbols())


def test_initial_state_is_configurable():
    # Every run starts in NORMAL; a C prefix puts the machine in HIGH.
    steps = run_simulation([C, ABSENT])
    assert [s.state for s in steps] == [BenchState.HIGH, BenchState.HIGH]


def test_trace_serialization_is_stable_and_exact():
    steps = run_simulation([A, X])
    expected = (
        '{"tick": 0, "input": "A", "state": "NORMAL", "color": [0, 255, 0], "tone": "TONE1"}\n'
        '{"tick": 1, "input": "X", "state": "INVALID", "color": [255, 255, 255], "tone": "SILENT"}\n'
    )
    assert serialize_trace(steps) == expected
    assert serialize_trace(run_simulation([A, X])) == expected


def reference_line(step, tick):
    """The reference trace line: `json.dumps` of the step's full record at `tick`."""
    command = ACTUATION[step.state]
    record = {
        "tick": tick,
        "input": step.input.value,
        "state": step.state.value,
        "color": list(command.color),
        "tone": command.tone.value,
    }
    return json.dumps(record) + "\n"


@pytest.mark.parametrize("tick_index", [0, 9, 10, 123456])
def test_every_trace_line_equals_its_reference(tick_index):
    assert set(sim._STEPS) == set(itertools.product(InputSymbol, BenchState))
    for (symbol, state), step in sim._STEPS.items():
        assert (step.input, step.state) == (symbol, state)
        assert sim.serialize_trace([step], tick_index) == reference_line(step, tick_index)


def test_a_long_run_holds_one_shared_step_per_tick():
    script = ([A, B, X, C] + [ABSENT] * 11 + [X]) * 6250  # 100,000 ticks through all five states
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        steps = run_simulation(script)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(steps) == 100_000
    assert {step.state for step in steps} == set(BenchState)
    assert len({id(step) for step in steps}) <= 25
    assert all(step is sim._STEPS[step.input, step.state] for step in steps)
    assert held / len(steps) < 16  # the list's pointer, and no step of its own
    with pytest.raises(dataclasses.FrozenInstanceError):
        steps[0].state = BenchState.HIGH


def model_successor(state, silence, symbol, brownout_ticks):
    """The machine's rule written out plainly: (state, silence) after one tick."""
    if symbol is ABSENT:
        silence = min(silence + 1, brownout_ticks)
        return (BenchState.BROWNOUT if silence == brownout_ticks else state), silence
    if symbol is X:
        return (state if state is BenchState.BROWNOUT else BenchState.INVALID), 0
    return {A: BenchState.NORMAL, B: BenchState.MILD, C: BenchState.HIGH}[symbol], 0


# Scripts as runs of one symbol, up to 14 long, so a silence can outlast
# every budget tried and single ticks of any symbol still occur.
scripts = st.lists(st.tuples(st.sampled_from(list(InputSymbol)), st.integers(1, 14)), max_size=40).map(
    lambda runs: [symbol for symbol, length in runs for _ in range(length)]
)


@settings(max_examples=80, deadline=None)
@given(scripts, st.integers(1, 12))
def test_any_script_traces_like_the_reference(script, brownout_ticks):
    steps = run_simulation(script, brownout_ticks)
    assert serialize_trace(steps) == "".join(reference_line(step, k) for k, step in enumerate(steps))
    state, silence, states = BenchState.NORMAL, 0, []
    for symbol in script:
        state, silence = model_successor(state, silence, symbol, brownout_ticks)
        states.append(state)
    assert [step.state for step in steps] == states
    runtime = FsmRuntime(brownout_ticks=brownout_ticks)
    for symbol in script:
        expected = FsmRuntime(
            *model_successor(runtime.state, runtime.silence_ticks, symbol, brownout_ticks), brownout_ticks
        )
        runtime, command = tick(runtime, symbol)
        assert runtime == expected
        assert command is ACTUATION[runtime.state]
    assert verify_determinism(brownout_ticks).deterministic


@settings(max_examples=80, deadline=None)
@given(scripts, st.integers(0, 10**6))
def test_a_trace_is_its_steps_rendered_one_by_one(script, start):
    # The live benchtop logs each tick this way; the whole trace must agree.
    steps = run_simulation(script)
    assert serialize_trace(steps, start) == "".join(serialize_trace([s], start + k) for k, s in enumerate(steps))


def test_a_run_leaves_no_cyclic_garbage():
    script = [A, B, X, C] + [ABSENT] * 11 + [X]  # through all five states
    gc.collect()
    gc.disable()
    try:
        trace = serialize_trace(run_simulation(script))
        assert gc.collect() == 0
        steps = iter_steps(script * 2, DEFAULT_BROWNOUT_TICKS)
        for _ in script:
            next(steps)
        steps.close()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert {json.loads(line)["state"] for line in trace.splitlines()} == {state.value for state in BenchState}


def ticks_called(script, brownout_ticks):
    """`run_simulation`'s steps and the (configuration, input) pairs it handed `tick`, in order."""
    calls = []

    def counted(runtime, symbol):
        calls.append((runtime, symbol))
        return tick(runtime, symbol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "tick", counted)
        steps = run_simulation(script, brownout_ticks)
    return steps, calls


def assert_tick_runs_once_per_reached_pair(script, brownout_ticks):
    """Check the tick loop's table against a plain fold of `tick`; return the number of calls."""
    runtime, reached = FsmRuntime(brownout_ticks=brownout_ticks), set()
    for symbol in script:
        reached.add((runtime, symbol))
        runtime = tick(runtime, symbol)[0]
    steps, calls = ticks_called(script, brownout_ticks)
    assert len(calls) == len(set(calls))
    assert set(calls) == reached
    assert len(calls) <= 25 * (brownout_ticks + 1)
    # A second run calls `tick` all over again: nothing is cached across calls.
    assert ticks_called(script, brownout_ticks) == (steps, calls)
    state, silence, states = BenchState.NORMAL, 0, []
    for symbol in script:
        state, silence = model_successor(state, silence, symbol, brownout_ticks)
        states.append(state)
    assert [step.state for step in steps] == states
    return len(calls)


@settings(max_examples=60, deadline=None)
@given(scripts, st.integers(1, 12))
def test_tick_runs_once_per_reached_pair(script, brownout_ticks):
    assert_tick_runs_once_per_reached_pair(script, brownout_ticks)


@pytest.mark.parametrize("brownout_ticks, calls", [(1, 8), (10, 26), (50, 105)])
def test_long_silences_tick_once_per_reached_pair(brownout_ticks, calls):
    # A silence past every budget tried, then one that falls short of 50.
    script = [A] + [ABSENT] * 60 + [B] + [ABSENT] * 49 + [C, X, A]
    assert assert_tick_runs_once_per_reached_pair(script, brownout_ticks) == calls


def tick_fold(symbols, brownout_ticks):
    """(input, state) per tick from folding `tick` over `symbols`, with no table."""
    runtime = FsmRuntime(brownout_ticks=brownout_ticks)
    for symbol in symbols:
        runtime = tick(runtime, symbol)[0]
        yield symbol, runtime.state


def test_a_long_silence_under_a_large_budget_holds_bounded_memory():
    # Unbounded, the table grew by one configuration per silent tick: 85 MiB here.
    def script():
        yield A
        yield from itertools.repeat(ABSENT, 200_000)

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in iter_steps(script(), 10**9):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 4 * 2**20
    steps = ((step.input, step.state) for step in iter_steps(script(), 10**9))
    assert all(got == expected for got, expected in zip(steps, tick_fold(script(), 10**9), strict=True))


@pytest.mark.parametrize("brownout_ticks", [1, 10, 2000, 10**6])
def test_a_table_that_starts_over_still_steps_like_the_plain_fold(brownout_ticks):
    rng = random.Random(67)
    script = []
    while len(script) < 67_000:
        script += rng.choices([A, B, C, X], k=rng.randint(1, 5))
        script += [ABSENT] * rng.choice([rng.randint(0, 20), rng.randint(0, 3000)])
    steps, calls = ticks_called(script, brownout_ticks)
    assert [(step.input, step.state) for step in steps] == list(tick_fold(script, brownout_ticks))
    # Only the budgets whose silences outgrow the table make it start over.
    assert (len(calls) > len(set(calls))) == (brownout_ticks >= 2000)


def test_iter_steps_pulls_one_symbol_per_step():
    pulled = 0

    def symbols():
        nonlocal pulled
        for symbol in [A, ABSENT, X, B, ABSENT, C] * 10:
            pulled += 1
            yield symbol

    steps = iter_steps(symbols(), DEFAULT_BROWNOUT_TICKS)
    assert pulled == 0
    for k in range(1, 31):
        next(steps)
        assert pulled == k


def test_interleaved_runs_keep_their_own_budgets():
    script = ([A] + [ABSENT] * 3 + [X] + [ABSENT] * 12 + [B, X]) * 3
    short, long = iter_steps(script, 1), iter_steps(script, 10)
    got_short, got_long = [], []
    for step_short, step_long in zip(short, long):
        got_short.append(step_short)
        got_long.append(step_long)
    assert got_short == run_simulation(script, 1)
    assert got_long == run_simulation(script, 10)
    assert got_short != got_long


def test_trace_lines_parse_back_as_json():
    steps = run_simulation([A, B, C, X] + [ABSENT] * 10)
    lines = serialize_trace(steps).splitlines()
    assert len(lines) == len(steps)
    for k, (line, step) in enumerate(zip(lines, steps)):
        record = json.loads(line)
        assert record["tick"] == k
        assert record["state"] == step.state.value
        assert tuple(record["color"]) == ACTUATION[step.state].color


def test_bundled_fixture_shape():
    records = load_table3()
    assert len(records) == 48
    for clip in (1, 2, 3):
        assert sum(1 for r in records if r.clip_id == clip) == 16
    first_of_clip2 = next(r for r in records if r.clip_id == 2)
    assert first_of_clip2.self_report is ArousalClass.HIGH
    assert first_of_clip2.predicted is ArousalClass.HIGH


def test_fixture_accuracy_counts():
    report = evaluate_table3(load_table3())
    by_clip = {c["clip"]: c for c in report["clips"]}
    assert (by_clip[1]["matches"], by_clip[2]["matches"], by_clip[3]["matches"]) == (9, 5, 5)
    assert by_clip[1]["accuracy_percent"] == 56.25
    assert by_clip[2]["accuracy_percent"] == 31.25
    assert by_clip[3]["accuracy_percent"] == 31.25
    assert report["average_percent"] == 39.58


def test_fixture_discrepancy_is_flagged():
    report = evaluate_table3(load_table3())
    by_clip = {c["clip"]: c for c in report["clips"]}
    assert by_clip[1]["reported_percent"] == 66.67
    assert by_clip[2]["reported_percent"] == 13.0
    assert by_clip[3]["reported_percent"] == 43.75
    assert report["reported_average_percent"] == 41.0
    assert report["discrepancy_clips"] == [1, 2, 3]
    rendered = render_report(report)
    assert "differs" in rendered
    assert "not" in rendered and "reproducible" in rendered
    assert rendered.endswith("\nthe reported figures for clips [1, 2] are not k/16 for any k, so no scoring of 16 intervals gives them")
    payload = json.loads(json.dumps(report))
    assert payload["discrepancy_clips"] == [1, 2, 3]
    assert payload["reported_average_percent"] == 41.0


def test_perfect_agreement_scores_100():
    records = [
        TraceRecord(7, i, ArousalClass.NORMAL, ArousalClass.NORMAL) for i in range(16)
    ]
    report = evaluate_table3(records)
    assert report["clips"][0]["accuracy_percent"] == 100.0
    assert report["discrepancy_clips"] == []  # no reported figure to disagree with


def test_partial_clip_is_rejected():
    records = [
        TraceRecord(1, i, ArousalClass.NORMAL, ArousalClass.NORMAL) for i in range(15)
    ]
    with pytest.raises(ValueError, match="15"):
        evaluate_table3(records)
    with pytest.raises(ValueError):
        evaluate_table3([])


def test_custom_fixture_file(tmp_path):
    path = tmp_path / "fixture.csv"
    rows = ["clip,interval,self_report,predicted"]
    rows += [f"4,{i},MILD,MILD" for i in range(1, 17)]
    path.write_text("\n".join(rows) + "\n")
    records = load_table3(path)
    assert len(records) == 16
    assert evaluate_table3(records)["clips"][0]["accuracy_percent"] == 100.0


def test_fixture_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip,interval,self_report,predicted\n1,1,CALM,NORMAL\n")
    with pytest.raises(ValueError, match="CALM"):
        load_table3(path)
    path.write_text("c,i,s,p\n")
    with pytest.raises(ValueError, match="header"):
        load_table3(path)


def test_the_bundled_fixture_is_read_and_named_like_a_given_file(tmp_path, monkeypatch):
    # A zipped install serves the fixture as a zipfile.Path, which `pathlib.Path` cannot open.
    archive = tmp_path / "biofsm.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("biofsm/data/table3.csv", (resources.files("biofsm") / "data/table3.csv").read_bytes())
        zf.writestr("header/data/table3.csv", "c,i,s,p\n")
        zf.writestr("bytes/data/table3.csv", b"\xff\n")
    bundled = load_table3()

    def install(package):
        monkeypatch.setattr(evaluate, "resources", SimpleNamespace(files=lambda _: zipfile.Path(archive, package)))

    for package, message in [("header/", "{}: fixture header must be clip,interval,self_report,predicted"),
                             ("bytes/", "cannot read fixture {}: 'utf-8' codec can't decode")]:
        install(package)
        source = zipfile.Path(archive, package + "data/table3.csv")
        with pytest.raises(ValueError, match="^" + re.escape(message.format(source))):
            load_table3()
    install("biofsm/")
    assert load_table3() == bundled
    # A given path is named exactly as given, not as pathlib would normalise it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("c,i,s,p\n")
    with pytest.raises(ValueError, match=r"^\./\./bad\.csv: fixture header"):
        load_table3("././bad.csv")


def test_wire_replay_matches_the_virtual_clock():
    script = [A, B, C, X, A] + [ABSENT] * 10 + [B]
    wire = replay_script(script, tick_ms=40.0)
    sim = run_simulation(script)
    assert [(s.input, s.state) for s in wire] == [(s.input, s.state) for s in sim]
    assert serialize_trace(wire) == serialize_trace(sim)


def test_wire_drop_becomes_a_single_absent_tick():
    wire = replay_script([A] * 5, tick_ms=40.0, drop_ticks={2})
    assert [s.input for s in wire] == [A, A, ABSENT, A, A]
    assert all(s.state is BenchState.NORMAL for s in wire)


def test_wire_outage_browns_out_and_recovers():
    script = [C] + [ABSENT] * 10 + [A]
    wire = replay_script(script, tick_ms=40.0)
    assert wire[0].state is BenchState.HIGH
    assert wire[10].state is BenchState.BROWNOUT
    assert wire[11].state is BenchState.NORMAL


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(list(InputSymbol)), max_size=40), st.sets(st.integers(0, 39)))
def test_wire_replay_is_the_simulation_with_each_dropped_tick_absent(script, drop_ticks):
    # The benchtop's own tick loop, fed over loopback UDP, against the proven machine.
    heard = [ABSENT if k in drop_ticks else symbol for k, symbol in enumerate(script)]
    wire = replay_script(script, tick_ms=2.0, drop_ticks=drop_ticks)
    assert serialize_trace(wire) == serialize_trace(run_simulation(heard))


def test_end_to_end_fixture_replay():
    records = load_table3()[:16]
    wire = replay_script([CLASS_SYMBOLS[r.predicted] for r in records], tick_ms=30.0)
    expected = {
        ArousalClass.NORMAL: BenchState.NORMAL,
        ArousalClass.MILD: BenchState.MILD,
        ArousalClass.HIGH: BenchState.HIGH,
    }
    assert [s.state for s in wire] == [expected[r.predicted] for r in records]
