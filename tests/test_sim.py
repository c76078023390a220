import json

import pytest

from biofsm.classifier import ArousalClass
from biofsm.fsm import BenchState
from biofsm.protocol import CLASS_SYMBOLS, InputSymbol
from biofsm.sim import (
    ScriptError,
    TraceRecord,
    evaluate_table3,
    load_script,
    load_table3,
    parse_script,
    replay_script,
    run_simulation,
    serialize_trace,
)

A, B, C = InputSymbol.VALID_A, InputSymbol.VALID_B, InputSymbol.VALID_C
X, ABSENT = InputSymbol.UNRECOGNIZED, InputSymbol.ABSENT


def test_parse_script_tokens_comments_blanks():
    text = "A\n# warm up\n\nB\nC\nX\n-\n"
    assert parse_script(text) == [A, B, C, X, ABSENT]


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


def test_simulation_tracks_valid_inputs():
    steps = run_simulation([A, B, C])
    assert [s.state for s in steps] == [BenchState.NORMAL, BenchState.MILD, BenchState.HIGH]
    assert [s.tick for s in steps] == [0, 1, 2]


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


def test_trace_lines_parse_back_as_json():
    steps = run_simulation([A, B, C, X] + [ABSENT] * 10)
    lines = serialize_trace(steps).splitlines()
    assert len(lines) == len(steps)
    for line, step in zip(lines, steps):
        record = json.loads(line)
        assert record["tick"] == step.tick
        assert record["state"] == step.state.value
        assert tuple(record["color"]) == step.command.color


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
    by_clip = {c.clip_id: c for c in report.clips}
    assert (by_clip[1].matches, by_clip[2].matches, by_clip[3].matches) == (9, 5, 5)
    assert by_clip[1].percent == pytest.approx(56.25)
    assert by_clip[2].percent == pytest.approx(31.25)
    assert by_clip[3].percent == pytest.approx(31.25)
    assert report.average_percent == pytest.approx(39.5833, abs=0.001)


def test_fixture_discrepancy_is_flagged():
    report = evaluate_table3(load_table3())
    by_clip = {c.clip_id: c for c in report.clips}
    assert by_clip[1].reported_percent == 66.67
    assert by_clip[2].reported_percent == 13.0
    assert by_clip[3].reported_percent == 43.75
    assert report.reported_average == 41.0
    assert report.discrepancies == [1, 2, 3]
    rendered = report.render()
    assert "differs" in rendered
    assert "not" in rendered and "reproducible" in rendered
    payload = report.to_dict()
    assert payload["discrepancy_clips"] == [1, 2, 3]
    assert payload["reported_average_percent"] == 41.0


def test_perfect_agreement_scores_100():
    records = [
        TraceRecord(7, i, ArousalClass.NORMAL, ArousalClass.NORMAL) for i in range(16)
    ]
    report = evaluate_table3(records)
    assert report.clips[0].percent == 100.0
    assert report.discrepancies == []  # no reported figure to disagree with


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
    assert evaluate_table3(records).clips[0].percent == 100.0


def test_fixture_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip,interval,self_report,predicted\n1,1,CALM,NORMAL\n")
    with pytest.raises(ValueError, match="CALM"):
        load_table3(path)
    path.write_text("c,i,s,p\n")
    with pytest.raises(ValueError, match="header"):
        load_table3(path)


def test_wire_replay_matches_the_virtual_clock():
    script = [A, B, C, X, A] + [ABSENT] * 10 + [B]
    wire = replay_script(script, tick_ms=40.0)
    sim = run_simulation(script)
    assert [(s.input, s.state, s.command) for s in wire] == [
        (s.input, s.state, s.command) for s in sim
    ]
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


def test_end_to_end_fixture_replay():
    records = load_table3()[:16]
    wire = replay_script([CLASS_SYMBOLS[r.predicted] for r in records], tick_ms=30.0)
    expected = {
        ArousalClass.NORMAL: BenchState.NORMAL,
        ArousalClass.MILD: BenchState.MILD,
        ArousalClass.HIGH: BenchState.HIGH,
    }
    assert [s.state for s in wire] == [expected[r.predicted] for r in records]
