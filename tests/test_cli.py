import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from biofsm import cli
from biofsm.cli import ConfigError, NodeConfig, _load_or_default, build_parser, main, resolve_log_path
from biofsm.fsm import DEFAULT_BROWNOUT_TICKS
from biofsm.protocol import EndpointConfig, InputSymbol, UdpSender
from biofsm.sim import run_simulation, serialize_trace


def free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def assert_simulator_agrees(path, brownout_ticks=DEFAULT_BROWNOUT_TICKS):
    """A live benchtop log is byte for byte the simulator's trace of the inputs it logged."""
    inputs = [InputSymbol(record["input"]) for record in read_jsonl(path)]
    assert Path(path).read_text() == serialize_trace(run_simulation(inputs, brownout_ticks))


def assert_benchtop_shows_each_window(log_dir):
    """Duplex tick k shows window k's byte, `-` for an undecided window or a failed send."""
    inputs = [r["input"] for r in read_jsonl(log_dir / "benchtop.jsonl")]
    assert inputs == [w["byte_sent"] or "-" for w in read_jsonl(log_dir / "wearable.jsonl")]
    assert_simulator_agrees(log_dir / "benchtop.jsonl")


def test_config_roundtrip(tmp_path):
    config = NodeConfig(
        role="wearable",
        port=9100,
        seed=12,
        duration_s=30.0,
        bpm=(60.0, 90.0),
        gsr=(5.0, None),
    )
    path = tmp_path / "node.json"
    path.write_text(json.dumps(asdict(config)))
    assert NodeConfig.load(path) == config


def test_config_validation():
    with pytest.raises(ConfigError):
        NodeConfig(role="gateway")
    with pytest.raises(ConfigError):
        NodeConfig.from_dict({"role": "wearable", "bogus_key": 1})
    with pytest.raises(ConfigError):
        NodeConfig.from_dict({"port": 9000})  # role is mandatory
    with pytest.raises(ConfigError):
        NodeConfig.from_dict({"role": "wearable", "bpm": "fast"})


def test_bad_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["benchtop", "--config", str(path), "--max-ticks", "1"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_config_role_must_match_command(tmp_path, capsys):
    path = tmp_path / "node.json"
    path.write_text(json.dumps({"role": "wearable"}))
    assert main(["benchtop", "--config", str(path), "--max-ticks", "1"]) == 2


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("port", "9000", "an integer"),
        ("brownout_ticks", 10.0, "an integer"),
        ("seed", True, "an integer"),
        ("tick_ms", "50", "a number"),
        ("window_ms", False, "a number"),
        ("duration_s", "5", "a number"),
        ("ppg_noise", None, "a number"),
        ("gsr_noise", [0.3], "a number"),
        ("host", None, "a string"),
        ("log", 1, "a string or null"),
        ("trace_path", True, "a string or null"),
        ("bpm", True, "a number or [start, end] pair"),
        ("gsr", [True, None], "a number or [start, end] pair"),
        ("bpm", ["fast", 90], "a number or [start, end] pair"),
    ],
)
def test_config_rejects_a_wrongly_typed_field(field, value, kind):
    with pytest.raises(ConfigError) as excinfo:
        NodeConfig.from_dict({"role": "wearable", field: value})
    assert str(excinfo.value) == f"{field} must be {kind}, got {value!r}"


@pytest.mark.parametrize(
    "role, extra, fields, message",
    [
        ("benchtop", ["--max-ticks", "1"], {"port": "9000"}, "port must be an integer, got '9000'"),
        ("wearable", [], {"duration_s": "5"}, "duration_s must be a number, got '5'"),
    ],
    ids=["benchtop-port", "wearable-duration_s"],
)
def test_wrongly_typed_config_file_exits_2(role, extra, fields, message, tmp_path, capsys):
    path = tmp_path / "node.json"
    path.write_text(json.dumps({"role": role, **fields}))
    assert main([role, "--config", str(path), *extra]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# Every field a flag can override, set in a config file; the flags below
# give each one a different value.
FILE_FIELDS = {
    "host": "10.0.0.1",
    "port": 9001,
    "tick_ms": 40.0,
    "brownout_ticks": 7,
    "window_ms": 12000.0,
    "log": "file.jsonl",
    "trace_path": "file.csv",
    "seed": 1,
    "duration_s": 30.0,
    "bpm": [65.0, 75.0],
    "gsr": [8.0, None],
    "ppg_noise": 1.0,
    "gsr_noise": 0.1,
}
COMMON_FLAGS = ["--host", "10.0.0.2", "--port", "9002", "--tick-ms", "25", "--brownout-ticks", "4", "--log", "flag.jsonl"]
COMMON_VALUES = {"host": "10.0.0.2", "port": 9002, "tick_ms": 25.0, "brownout_ticks": 4, "log": "flag.jsonl"}


@pytest.mark.parametrize(
    "role, flags, overridden",
    [
        (
            "wearable",
            COMMON_FLAGS + ["--window-ms", "5000", "--trace", "flag.csv", "--seed", "2", "--duration-s", "60",
                            "--bpm", "80:100", "--gsr", "12", "--ppg-noise", "2", "--gsr-noise", "0.2"],
            {**COMMON_VALUES, "window_ms": 5000.0, "trace_path": "flag.csv", "seed": 2,
             "duration_s": 60.0, "bpm": (80.0, 100.0), "gsr": (12.0, None), "ppg_noise": 2.0, "gsr_noise": 0.2},
        ),
        ("benchtop", COMMON_FLAGS + ["--max-ticks", "1"], COMMON_VALUES),
    ],
)
def test_each_flag_overrides_its_config_field(role, flags, overridden, tmp_path):
    path = tmp_path / "node.json"
    path.write_text(json.dumps({"role": role, **FILE_FIELDS}))
    args = build_parser().parse_args([role, "--config", str(path), *flags])
    assert _load_or_default(args, role) == NodeConfig(role=role, **{**FILE_FIELDS, **overridden})


def test_every_demo_config_loads_for_its_verb():
    paths = sorted((Path(__file__).parent.parent / "demo").glob("*.json"))
    assert [path.stem for path in paths] == ["benchtop", "wearable"]
    for path in paths:
        args = build_parser().parse_args([path.stem, "--config", str(path)])
        assert _load_or_default(args, path.stem) == NodeConfig.from_dict(json.loads(path.read_text()))


def home_and_cwd(monkeypatch, tmp_path):
    """Point HOME and the working directory at two fresh directories; return them."""
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(cwd)
    return home, cwd


def test_resolve_log_path(monkeypatch, tmp_path):
    home, _ = home_and_cwd(monkeypatch, tmp_path)
    monkeypatch.delenv("BIOFSM_LOG_DIR", raising=False)
    assert resolve_log_path(None, "benchtop") is None
    assert resolve_log_path("/var/log/x.jsonl", "benchtop") == Path("/var/log/x.jsonl")
    assert resolve_log_path("~/x.jsonl", "benchtop") == home / "x.jsonl"
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert resolve_log_path(None, "benchtop") == tmp_path / "benchtop.jsonl"
    assert resolve_log_path("run.jsonl", "wearable") == tmp_path / "run.jsonl"
    assert resolve_log_path("/abs/override.jsonl", "wearable") == Path("/abs/override.jsonl")
    assert resolve_log_path("~/x.jsonl", "wearable") == home / "x.jsonl"  # home is absolute: it wins
    monkeypatch.setenv("BIOFSM_LOG_DIR", "~/logs")
    assert resolve_log_path(None, "benchtop") == home / "logs" / "benchtop.jsonl"
    assert resolve_log_path("run.jsonl", "wearable") == home / "logs" / "run.jsonl"


@pytest.mark.parametrize("where", ["config", "env"])
def test_a_tilde_in_a_config_log_or_the_log_dir_is_home(where, monkeypatch, tmp_path):
    # The shell expands `~` in a flag, but not inside JSON or a quoted variable.
    home, cwd = home_and_cwd(monkeypatch, tmp_path)
    config = tmp_path / "b.json"
    if where == "config":
        monkeypatch.delenv("BIOFSM_LOG_DIR", raising=False)
        config.write_text(json.dumps({"role": "benchtop", "log": "~/biofsm-logs/benchtop.jsonl"}))
    else:
        monkeypatch.setenv("BIOFSM_LOG_DIR", "~/biofsm-logs")
        config.write_text(json.dumps({"role": "benchtop"}))
    argv = ["benchtop", "--config", str(config), "--port", "0", "--max-ticks", "2", "--tick-ms", "1"]
    assert main(argv) == 0
    log = home / "biofsm-logs" / "benchtop.jsonl"
    assert log.read_text() == serialize_trace(run_simulation([InputSymbol.ABSENT] * 2))  # nothing is sent
    assert list(cwd.iterdir()) == []  # no `~` directory


def test_a_tilde_in_a_config_trace_path_is_home(monkeypatch, tmp_path, capsys):
    home, _ = home_and_cwd(monkeypatch, tmp_path)
    (home / "s.csv").write_text("timestamp_ms,channel,value\n")
    config = tmp_path / "w.json"
    config.write_text(json.dumps({"role": "wearable", "trace_path": "~/s.csv", "port": free_udp_port()}))
    assert main(["wearable", "--config", str(config)]) == 0
    assert capsys.readouterr() == ("wearable: 0 windows closed, 0 bytes sent\n", "")


def test_simulate_prints_a_trace(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("A\nB\nC\n")
    assert main(["simulate", str(script)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[2])["state"] == "HIGH"


def test_simulate_writes_a_file(tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("A\n-\n")
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", str(script), "--output", str(out)]) == 0
    assert len(read_jsonl(out)) == 2


def test_simulate_rejects_bad_symbol(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("A\nB\nQ\n")
    assert main(["simulate", str(script)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_needs_a_script(capsys):
    assert main(["simulate"]) == 2


def test_simulate_transitions_table(capsys):
    assert main(["simulate", "--transitions"]) == 0
    out = capsys.readouterr().out
    assert "BROWNOUT" in out and "deterministic" in out


def test_simulate_transitions_proves_a_billion_tick_budget(capsys):
    started = time.monotonic()
    assert main(["simulate", "--transitions", "--brownout-ticks", "1000000000"]) == 0
    elapsed = time.monotonic() - started
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "25000000025 configurations checked, brownout after 1000000000 silent ticks: deterministic"
    assert elapsed < 1.0


@pytest.mark.parametrize("brownout_ticks", [1, 2, 3, 64, 10**9])
def test_simulate_transitions_rows_match_the_golden_table_at_every_budget(brownout_ticks, capsys):
    golden = (Path(__file__).resolve().parent / "golden" / "transitions.txt").read_text().splitlines()
    assert main(["simulate", "--transitions", "--brownout-ticks", str(brownout_ticks)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[:2] == golden[:2]
    changed = {
        (row.split()[0], symbol.name)
        for row, golden_row in zip(table[2:7], golden[2:7])
        for symbol, cell, golden_cell in zip(InputSymbol, row.split()[1:], golden_row.split()[1:], strict=True)
        if cell != golden_cell
    }
    if brownout_ticks == 1:
        # One silent tick browns out, so no state but BROWNOUT can stay put on silence.
        assert changed == {(state, "ABSENT") for state in ("NORMAL", "MILD", "HIGH", "INVALID")}
    else:
        assert table[2:7] == golden[2:7]


@pytest.mark.parametrize("target", [["script.txt"], ["--transitions"]])
def test_simulate_rejects_zero_brownout_ticks(target, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("script.txt").write_text("A\n-\n")
    assert main(["simulate", *target, "--brownout-ticks", "0"]) == 2
    assert capsys.readouterr() == ("", "error: brownout_ticks must be >= 1\n")


def test_benchtop_rejects_negative_max_ticks(capsys):
    assert main(["benchtop", "--port", "0", "--max-ticks", "-1"]) == 2
    assert capsys.readouterr().err == "error: max_ticks must be non-negative, got -1\n"


def test_benchtop_on_a_busy_port_exits_1_and_closes_its_socket(capsys):
    # A socket left open would fail this test through the ResourceWarning filter.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        assert main(["benchtop", "--port", str(holder.getsockname()[1]), "--max-ticks", "1"]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 98] Address already in use\n")


def test_benchtop_reports_a_busy_port_before_a_bad_tick(capsys):
    # The receiver is bound before `run_benchtop` checks its settings, as in `wearable --duplex`.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        assert main(["benchtop", "--port", str(holder.getsockname()[1]), "--tick-ms", "0"]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 98] Address already in use\n")


def test_main_restores_the_sigterm_handler():
    before = signal.getsignal(signal.SIGTERM)
    assert main(["simulate", "--transitions"]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_benchtop_rejects_zero_brownout_ticks_before_touching_its_log(tmp_path, capsys):
    log = tmp_path / "x.jsonl"
    log.write_bytes(b'{"tick": 0}\n')
    args = ["benchtop", "--port", "0", "--brownout-ticks", "0", "--log", str(log), "--max-ticks", "3"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: brownout_ticks must be >= 1\n"
    assert log.read_bytes() == b'{"tick": 0}\n'


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


INPUT_FILES = [
    (["simulate"], "script", b"A\n"),
    (["wearable", "--trace"], "trace", b"timestamp_ms,channel,value\n"),
    (["benchtop", "--config"], "config", b'{"role": "benchtop", "host": "'),
    (["evaluate", "--fixture"], "fixture", b"clip,interval,self_report,predicted\n"),
]
INPUT_FILE_IDS = ["simulate", "wearable", "benchtop", "evaluate"]


@pytest.mark.parametrize("argv, kind, head", INPUT_FILES, ids=INPUT_FILE_IDS)
def test_a_file_that_is_not_utf8_is_named(argv, kind, head, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(head + b"\xff\n")
    assert main([*argv, str(path)]) == 2
    reason = f"'utf-8' codec can't decode byte 0xff in position {len(head)}: invalid start byte"
    assert capsys.readouterr() == ("", f"error: cannot read {kind} {path}: {reason}\n")


@pytest.mark.parametrize("argv, kind", [(argv, kind) for argv, kind, _ in INPUT_FILES], ids=INPUT_FILE_IDS)
def test_a_missing_input_file_exits_2(argv, kind, tmp_path, capsys):
    path = tmp_path / "missing"
    assert main([*argv, str(path)]) == 2
    reason = f"[Errno 2] No such file or directory: '{path}'"
    assert capsys.readouterr() == ("", f"error: cannot read {kind} {path}: {reason}\n")


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["simulate"], "A\nZZ\n", "line 2: unknown symbol 'ZZ' (expected A, B, C, X or -)"),
        (["wearable", "--trace"], "timestamp_ms,channel,value\n0,EEG,1\n", "line 2: unknown channel 'EEG'"),
        (["benchtop", "--config"], "[1, 2]", "config root must be a JSON object"),
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n1,0,NORMAL\n", "line 2: expected 4 fields, got 3"),
        # the blank row is skipped, and line numbers still count it
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n\none,1,MILD,MILD\n", "line 3: non-integer clip or interval"),
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n", "no records to evaluate"),
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n1,1,MILD,MILD\n", "clip 1 has 1 intervals, expected 16"),
        # a quoted field spans lines 2-3, so the next record is on line 4
        (["evaluate", "--fixture"], 'clip,interval,self_report,predicted\n"1\n",1,MILD,MILD\none,2,MILD,MILD\n',
         "line 4: non-integer clip or interval"),
        (["wearable", "--trace"], "timestamp_ms,channel,value\n0,PPG," + "1" * 131_073 + "\n",
         "line 2: field larger than field limit (131072)"),
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n1,1,MILD," + "M" * 131_073 + "\n",
         "line 2: field larger than field limit (131072)"),
        # only a line end ends a record: a form feed is part of its field
        (["evaluate", "--fixture"], "clip,interval,self_report,predicted\n1,1,MI\fLD,MILD\n",
         "line 2: unknown class 'MI\\x0cLD'"),
    ],
    ids=["simulate", "wearable", "benchtop", "evaluate-fields", "evaluate-integer", "evaluate-empty", "evaluate-short-clip",
         "evaluate-after-a-multi-line-record", "wearable-oversized-field", "evaluate-oversized-field",
         "evaluate-form-feed-in-a-field"],
)
def test_a_malformed_input_file_is_named(argv, content, message, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(content)
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_evaluate_table(capsys):
    assert main(["evaluate"]) == 0
    out = capsys.readouterr().out
    assert "56.25" in out and "66.67" in out
    assert "differs" in out


def test_evaluate_json(capsys):
    assert main(["evaluate", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clips"][0]["matches"] == 9
    assert payload["discrepancy_clips"] == [1, 2, 3]


def test_evaluate_rejects_a_clip_that_repeats_an_interval(tmp_path, capsys):
    # Clip 1 drops interval 5 and carries interval 4 twice: still 16 rows.
    bundled = (Path(__file__).resolve().parents[1] / "src/biofsm/data/table3.csv").read_text()
    assert "\n1,5,NORMAL,NORMAL\n" in bundled
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(bundled.replace("\n1,5,NORMAL,NORMAL\n", "\n1,4,MILD,MILD\n"))
    assert main(["evaluate", "--fixture", str(fixture)]) == 2
    assert capsys.readouterr() == ("", f"error: {fixture}: clip 1 repeats interval 4\n")


def test_evaluate_flags_a_row_exactly_when_its_clip_is_a_discrepancy(tmp_path, capsys):
    # Clip 7 has no reported figure, so it cannot differ from one.
    fixture = tmp_path / "clip7.csv"
    fixture.write_text("clip,interval,self_report,predicted\n" + "".join(f"7,{i},MILD,MILD\n" for i in range(1, 17)))
    assert main(["evaluate", "--fixture", str(fixture)]) == 0
    table = capsys.readouterr().out
    assert main(["evaluate", "--fixture", str(fixture), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert (document["discrepancy_clips"], document["reported_average_percent"]) == ([], None)
    assert table == (
        "clip  matches  accuracy   reported\n"
        "7     16/16     100.00%   -\n"
        "average 100.00% (reported -)\n"
    )


def test_wearable_synthetic_run_sends_class_bytes(tmp_path, capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
        port = sink.getsockname()[1]
        log = tmp_path / "wearable.jsonl"
        code = main(
            [
                "wearable",
                "--port", str(port),
                "--seed", "3",
                "--duration-s", "70",
                "--bpm", "70",
                "--gsr", "17.5",
                "--log", str(log),
            ]
        )
        assert code == 0
        payloads = []
        for _ in range(5):
            payloads.append(sink.recv(16))
        assert payloads == [b"B"] * 5
    records = read_jsonl(log)
    assert len(records) == 5
    assert all(r["arousal"] == "MILD" and r["byte_sent"] == "B" for r in records)
    assert all(60.0 <= r["bpm_mean"] <= 85.0 for r in records)
    assert "5 bytes sent" in capsys.readouterr().out


def test_wearable_ramp_crosses_into_mild(tmp_path):
    # constant 70 BPM, conductance ramping 4 -> 19 uS over a minute: the
    # first three windows vote NORMAL, the last one MILD
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
        port = sink.getsockname()[1]
        log = tmp_path / "wearable.jsonl"
        code = main(
            [
                "wearable",
                "--port", str(port),
                "--seed", "8",
                "--duration-s", "60",
                "--bpm", "70",
                "--gsr", "4:19",
                "--log", str(log),
            ]
        )
        assert code == 0
        received = [sink.recv(16) for _ in range(4)]
    assert received == [b"A", b"A", b"A", b"B"]
    assert [r["arousal"] for r in read_jsonl(log)] == ["NORMAL", "NORMAL", "NORMAL", "MILD"]


def test_wearable_empty_trace_sends_nothing(tmp_path, capsys):
    trace = tmp_path / "empty.csv"
    trace.write_text("timestamp_ms,channel,value\n")
    port = free_udp_port()
    assert main(["wearable", "--trace", str(trace), "--port", str(port)]) == 0
    assert "0 windows closed, 0 bytes sent" in capsys.readouterr().out


@pytest.mark.parametrize("window_ms", ["nan", "inf"])
def test_wearable_rejects_a_non_finite_window_before_touching_its_log(window_ms, tmp_path, capsys):
    log = tmp_path / "w.jsonl"
    log.write_bytes(b'{"window": 0}\n')
    args = ["wearable", "--window-ms", window_ms, "--log", str(log), "--port", str(free_udp_port())]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: window_ms must be finite and positive, got {window_ms}\n")
    assert log.read_bytes() == b'{"window": 0}\n'


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_wearable_rejects_a_non_finite_duration(duration, capsys):
    assert main(["wearable", "--duration-s", duration, "--port", str(free_udp_port())]) == 2
    assert capsys.readouterr().err == f"error: duration_ms must be finite and positive, got {duration}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gsr", "10:nan"], "gsr_end_us must be finite, got nan"),
        (["--gsr", "inf"], "gsr_start_us must be finite, got inf"),
        (["--ppg-noise", "inf"], "ppg_noise must be finite, got inf"),
        (["--gsr-noise", "-1"], "gsr_noise_us must be non-negative, got -1.0"),
        (["--bpm", "1:2:3"], "--bpm expects START or START:END, got '1:2:3'"),
        (["--gsr", "10:x"], "--gsr expects START or START:END, got '10:x'"),
        (["--ppg-noise", "1e308"], "PPG noise width overflows with ppg_noise=1e+308"),
        (["--gsr=-1e308:1e308"], "GSR span overflows with gsr_start_us=-1e+308, gsr_end_us=1e+308"),
        (["--bpm", "1.7e308"], "PPG phase overflows with bpm_start=1.7e+308, bpm_end=None, duration_ms=60000.0"),
    ],
)
def test_wearable_rejects_bad_synthesis_parameters(flags, message, capsys):
    assert main(["wearable", *flags, "--duration-s", "60", "--port", str(free_udp_port())]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--bpm", "nan", "--log", "w.jsonl"], "bpm_start must be finite and positive, got nan"),
        (["--duration-s", "0", "--log", "w.jsonl"], "duration_ms must be finite and positive, got 0.0"),
        (["--duplex", "--ppg-noise", "-1"], "ppg_noise must be non-negative, got -1.0"),
    ],
    ids=["bpm-nan", "duration-0", "duplex-negative-noise"],
)
def test_wearable_rejects_a_synthesis_setting_before_touching_any_log(flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    logs = {name: f'{{"{name}": 0}}\n'.encode() for name in ("w.jsonl", "wearable.jsonl", "benchtop.jsonl")}
    for name, content in logs.items():
        (tmp_path / name).write_bytes(content)
    assert main(["wearable", "--port", "0", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == logs


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_standalone_wearable_rejects_port_0_before_touching_any_log(source, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    logs = {name: f'{{"{name}": 0}}\n'.encode() for name in ("w.jsonl", "wearable.jsonl")}
    for name, content in logs.items():
        (tmp_path / name).write_bytes(content)
    config = tmp_path / "wearable.json"
    config.write_text('{"role": "wearable", "port": 0}')
    logs[config.name] = config.read_bytes()
    flags = ["--port", "0"] if source == "flag" else ["--config", str(config)]
    assert main(["wearable", *flags, "--log", "w.jsonl", "--duration-s", "31", "--gsr", "17.5"]) == 2
    message = "port 0 is not a send destination; only --duplex binds an ephemeral port"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == logs


def test_wearable_trace_replay(tmp_path):
    # record a synthetic run, then replay the file; same decisions
    from biofsm.signals import SignalProfile, save_trace, synth_physio

    trace = tmp_path / "session.csv"
    save_trace(trace, synth_physio(SignalProfile(bpm_start=70.0, gsr_start_us=17.5), 40_000, seed=4))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(2.0)
        port = sink.getsockname()[1]
        log = tmp_path / "wearable.jsonl"
        assert main(["wearable", "--trace", str(trace), "--port", str(port), "--log", str(log)]) == 0
        assert sink.recv(16) == b"B"
    assert all(r["arousal"] == "MILD" for r in read_jsonl(log))


def feed_benchtop(monkeypatch, payloads):
    """Make the `benchtop` verb send tick k's payload (None: nothing) just before its poll, as `replay_script` does."""
    real_run_benchtop = cli.run_benchtop

    def fed(receiver, **settings):
        ticks = iter(payloads)
        with UdpSender(EndpointConfig(port=receiver.port)) as sender:
            def send_next():
                if (payload := next(ticks)) is not None:
                    sender.send_raw(payload)
                return False

            return real_run_benchtop(receiver, should_stop=send_next, **settings)

    monkeypatch.setattr(cli, "run_benchtop", fed)


def test_benchtop_ticks_and_browns_out(tmp_path, monkeypatch, capsys):
    # A few C bytes across the first ticks, then quiet past the 4-tick budget.
    log = tmp_path / "benchtop.jsonl"
    feed_benchtop(monkeypatch, [b"C"] * 6 + [None] * 10)
    argv = ["benchtop", "--port", "0", "--tick-ms", "10", "--max-ticks", "16", "--brownout-ticks", "4"]
    assert main([*argv, "--log", str(log)]) == 0
    assert capsys.readouterr().out == "benchtop: 16 ticks processed\n"
    script = [InputSymbol.VALID_C] * 6 + [InputSymbol.ABSENT] * 10
    assert log.read_text() == serialize_trace(run_simulation(script, 4))
    assert [r["state"] for r in read_jsonl(log)] == ["HIGH"] * 9 + ["BROWNOUT"] * 7


def test_benchtop_flags_garbage_input(tmp_path, monkeypatch):
    log = tmp_path / "benchtop.jsonl"
    feed_benchtop(monkeypatch, [b"hello"] * 4 + [None] * 4)
    assert main(["benchtop", "--port", "0", "--tick-ms", "10", "--max-ticks", "8", "--log", str(log)]) == 0
    script = [InputSymbol.UNRECOGNIZED] * 4 + [InputSymbol.ABSENT] * 4  # b"hello" reads as X
    assert log.read_text() == serialize_trace(run_simulation(script))
    assert [r["state"] for r in read_jsonl(log)] == ["INVALID"] * 8


def test_log_dir_env_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path / "logs"))
    port = free_udp_port()
    code = main(
        ["wearable", "--port", str(port), "--seed", "1", "--duration-s", "20", "--gsr", "17.5"]
    )
    assert code == 0
    assert (tmp_path / "logs" / "wearable.jsonl").exists()


def test_duplex_runs_both_nodes_in_one_process(tmp_path, monkeypatch):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    port = free_udp_port()
    code = main(
        [
            "wearable",
            "--duplex",
            "--port", str(port),
            "--seed", "5",
            "--duration-s", "40",
            "--bpm", "70",
            "--gsr", "17.5",
            "--tick-ms", "25",
        ]
    )
    assert code == 0
    wearable_log = read_jsonl(tmp_path / "wearable.jsonl")
    benchtop_log = read_jsonl(tmp_path / "benchtop.jsonl")
    assert all(r["byte_sent"] == "B" for r in wearable_log)
    assert [r["state"] for r in benchtop_log] == ["MILD"] * len(wearable_log)
    assert_benchtop_shows_each_window(tmp_path)


def test_duplex_on_port_0_sends_to_the_bound_port(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert main(["wearable", "--duplex", "--port", "0", "--seed", "7", "--duration-s", "30"]) == 0
    wearable_log = read_jsonl(tmp_path / "wearable.jsonl")
    decided = sum(1 for r in wearable_log if r["arousal"] is not None)
    assert decided > 0
    assert [r["byte_sent"] is not None for r in wearable_log] == [r["arousal"] is not None for r in wearable_log]
    assert capsys.readouterr().out == f"wearable: {len(wearable_log)} windows closed, {decided} bytes sent\n"
    assert_benchtop_shows_each_window(tmp_path)


def test_duplex_benchtop_failure_exits_1(tmp_path, monkeypatch, capsys):
    # The benchtop's log is opened before the wearable starts, so not one of
    # the hour's 240 windows closes.
    (tmp_path / "benchtop.jsonl").mkdir()
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert main(["wearable", "--duplex", "--port", "0", "--duration-s", "3600"]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{tmp_path / 'benchtop.jsonl'}'\n")
    assert not (tmp_path / "wearable.jsonl").exists()


def test_duplex_wearable_failure_exits_1(tmp_path, monkeypatch, capsys):
    # The wearable opens its log in tick 0's hook, before tick 0 is logged.
    (tmp_path / "wearable.jsonl").mkdir()
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert main(["wearable", "--duplex", "--port", "0", "--tick-ms", "25", "--duration-s", "40"]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{tmp_path / 'wearable.jsonl'}'\n")
    assert (tmp_path / "benchtop.jsonl").read_text() == ""


def test_duplex_benchtop_binds_the_host_sent_to(tmp_path, monkeypatch):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    flags = ["--seed", "5", "--duration-s", "40", "--bpm", "70", "--gsr", "17.5", "--tick-ms", "25"]
    assert main(["wearable", "--duplex", "--host", "127.0.0.2", "--port", "0", *flags]) == 0
    assert "B" in {r["input"] for r in read_jsonl(tmp_path / "benchtop.jsonl")}
    assert_benchtop_shows_each_window(tmp_path)


@pytest.mark.parametrize("tick_ms", ["25", "1", "0.01"])  # at 0.01 ms every poll is late
@pytest.mark.parametrize("seed", range(1, 9))
def test_duplex_benchtop_shows_each_window_in_turn(seed, tick_ms, tmp_path, monkeypatch):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    flags = ["--duration-s", "120", "--bpm", "60:118", "--gsr", "5:24", "--ppg-noise", "0.3"]
    assert main(["wearable", "--duplex", "--port", "0", "--seed", str(seed), "--tick-ms", tick_ms, *flags]) == 0
    assert len(read_jsonl(tmp_path / "wearable.jsonl")) == 8
    assert_benchtop_shows_each_window(tmp_path)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--brownout-ticks", "0"], "brownout_ticks must be >= 1"),
        (["--tick-ms", "0"], "tick_ms must be finite and positive, got 0.0"),
        (["--tick-ms", "1e300"], f"tick_ms must be at most {threading.TIMEOUT_MAX * 1000.0!r}, got 1e+300"),
    ],
)
def test_duplex_rejects_a_benchtop_setting_before_starting(flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert main(["wearable", "--duplex", "--port", "0", *flags, "--duration-s", "20"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # no window closed, no benchtop log opened


def test_duplex_whose_benchtop_stops_before_tick_0_closed_no_window(tmp_path, monkeypatch, capsys):
    # As when Ctrl-C lands after the benchtop's log opens and before its first tick.
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "run_benchtop", lambda receiver, **settings: [])
    assert main(["wearable", "--duplex", "--port", "0", "--duration-s", "20"]) == 0
    assert capsys.readouterr() == ("wearable: 0 windows closed, 0 bytes sent\n", "")
    assert not (tmp_path / "wearable.jsonl").exists()


@pytest.mark.slow
def test_two_processes_over_real_sockets(tmp_path):
    port = free_udp_port()
    log = tmp_path / "benchtop.jsonl"
    benchtop = subprocess.Popen(
        [
            sys.executable, "-m", "biofsm.cli",
            "benchtop",
            "--port", str(port),
            "--tick-ms", "50",
            "--max-ticks", "40",
            "--log", str(log),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        time.sleep(0.5)  # let it bind before the wearable floods
        wearable = subprocess.run(
            [
                sys.executable, "-m", "biofsm.cli",
                "wearable",
                "--port", str(port),
                "--seed", "5",
                "--duration-s", "70",
                "--bpm", "70",
                "--gsr", "17.5",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert wearable.returncode == 0, wearable.stderr
        out, err = benchtop.communicate(timeout=60)
        assert benchtop.returncode == 0, err
    finally:
        if benchtop.poll() is None:
            benchtop.kill()
    records = read_jsonl(log)
    assert len(records) == 40
    assert any(r["input"] == "B" and r["state"] == "MILD" for r in records)
    assert_simulator_agrees(log)


def wait_for_ticks(log, ticks, node, timeout_s=20.0):
    """Wait until `log` holds `ticks` lines, and check that `node` is still running."""
    deadline = time.monotonic() + timeout_s
    while not (log.exists() and log.read_text().count("\n") >= ticks):
        assert node.poll() is None, node.communicate()
        assert time.monotonic() < deadline, f"{log} has fewer than {ticks} ticks after {timeout_s} s"
        time.sleep(0.02)
    assert node.poll() is None, node.communicate()


SIGNALLED_NODES = {
    "benchtop": ["benchtop", "--port", "0", "--log", "benchtop.jsonl"],  # a relative --log lands in $BIOFSM_LOG_DIR
    # About 116 days of signal: the wearable is still sending when signalled.
    "duplex": ["wearable", "--duplex", "--port", "0", "--duration-s", "10000000"],
    # Sent to the discard port: a UDP send succeeds whether or not anything listens there.
    "wearable": ["wearable", "--port", "9", "--duration-s", "10000000"],
}


@pytest.mark.slow
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
@pytest.mark.parametrize("node", SIGNALLED_NODES)
def test_a_signalled_node_leaves_its_trace(node, sig, tmp_path):
    """SIGTERM stops a node as Ctrl-C does; after either signal a benchtop log is the simulator's trace."""
    benchtop_log, wearable_log = tmp_path / "benchtop.jsonl", tmp_path / "wearable.jsonl"
    process = subprocess.Popen(
        [sys.executable, "-m", "biofsm.cli", *SIGNALLED_NODES[node]],
        env={**os.environ, "BIOFSM_LOG_DIR": str(tmp_path)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        wait_for_ticks(wearable_log if node == "wearable" else benchtop_log, 4, process)
        process.send_signal(sig)
        out, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if node != "wearable":
        assert_simulator_agrees(benchtop_log)
    windows = read_jsonl(wearable_log) if node != "benchtop" else []  # every line parses, after SIGKILL too
    if node == "duplex":
        # Tick k polls for window k's byte, so a signal during that poll leaves the last window unticked.
        inputs = [r["input"] for r in read_jsonl(benchtop_log)]
        assert inputs == [w["byte_sent"] or "-" for w in windows[: len(inputs)]]
        assert len(windows) - 1 <= len(inputs)
    if sig == signal.SIGKILL:
        assert process.returncode == -signal.SIGKILL
        return
    assert (process.returncode, err) == (0, "")
    if node == "benchtop":
        assert out == f"benchtop: {len(read_jsonl(benchtop_log))} ticks processed\n"
    else:
        sent = sum(1 for w in windows if w["byte_sent"] is not None)
        assert out == f"wearable: {len(windows)} windows closed, {sent} bytes sent\n"
