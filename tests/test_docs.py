import json
import re
from pathlib import Path

from biofsm import classifier, fsm, signals
from biofsm.cli import main
from biofsm.fsm import ACTUATION, BenchState, Tone
from biofsm.protocol import CLASS_SYMBOLS, InputSymbol
from biofsm.sim import run_simulation, serialize_trace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    out = capsys.readouterr().out
    assert '{"tick": 2, "input": "-", "state": "MILD"' in out
    assert "deterministic" in out
    assert "HIGH (255, 0, 0)" in out
    assert "['MILD', 'MILD']" in out
    assert "average 39.58% (reported 41.00%)" in out


def test_readme_duplex_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    command = re.search(r"^biofsm (wearable --duplex .*)$", section, re.M).group(1)
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert main([*command.split(), "--port", "0"]) == 0
    assert re.fullmatch(r"wearable: (\d+) windows closed, \1 bytes sent\n", capsys.readouterr().out)
    trace = (tmp_path / "benchtop.jsonl").read_text()
    records = [json.loads(line) for line in trace.splitlines()]
    shown = re.search(r"the benchtop shows `([ABC-](?: [ABC-])*)`", section).group(1)
    assert " ".join(r["input"] for r in records) == shown == "A A B B B"
    assert trace == serialize_trace(run_simulation([InputSymbol(r["input"]) for r in records]))


def test_readme_log_examples_are_lines_the_nodes_write():
    section = README.read_text(encoding="utf-8").split("## Logs and traces", 1)[1].split("\n## ", 1)[0]
    tick_block, window_block = re.findall(r"^```\n(.*?)^```$", section, re.S | re.M)
    silence = serialize_trace(run_simulation([InputSymbol.ABSENT] * 15)).splitlines(keepends=True)
    assert tick_block == silence[14]
    golden = (README.parent / "tests" / "golden" / "wearable_seed3.jsonl").read_text(encoding="utf-8").splitlines()
    windows = window_block.splitlines()
    assert len(windows) == 2
    assert [line for line in windows if line not in golden] == []


def test_every_tuning_constant_the_readme_names_exists():
    section = README.read_text(encoding="utf-8").split("## How the wearable decides", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", section))
    assert len(names) >= 14
    assert [n for n in sorted(names) if not (hasattr(classifier, n) or hasattr(signals, n))] == []


def test_readme_state_table_is_the_machine_s_correspondence():
    head = README.read_text(encoding="utf-8").split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+) +\| (.+?) +\| \w+ \((\d+), (\d+), (\d+)\) +\| (\w+) +\|$", head, re.M)
    assert [BenchState[name] for name, *_ in rows] == list(ACTUATION)
    inputs = {}
    for name, cell, r, g, b, tone in rows:
        state = BenchState[name]
        assert ACTUATION[state].color == (int(r), int(g), int(b))
        assert ACTUATION[state].tone is (Tone.SILENT if tone == "silent" else Tone[tone])
        inputs[state] = cell
    for symbol in CLASS_SYMBOLS.values():  # a class byte moves to its own state
        assert inputs.pop(fsm._TARGETS[symbol]) == f"`{symbol.value}`"
    assert inputs == {BenchState.INVALID: "anything else", BenchState.BROWNOUT: "(silence)"}
