import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from biofsm.cli import ConfigError, NodeConfig, main, resolve_log_path
from biofsm.fsm import DEFAULT_BROWNOUT_TICKS
from biofsm.protocol import InputSymbol
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
    config.save(path)
    assert NodeConfig.load(path) == config


def test_config_validation():
    with pytest.raises(ConfigError):
        NodeConfig(role="gateway")
    with pytest.raises(ConfigError):
        NodeConfig(role="wearable", source="mic")
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
    NodeConfig(role="wearable").save(path)
    assert main(["benchtop", "--config", str(path), "--max-ticks", "1"]) == 2


def test_resolve_log_path(monkeypatch, tmp_path):
    monkeypatch.delenv("BIOFSM_LOG_DIR", raising=False)
    assert resolve_log_path(None, "benchtop") is None
    assert resolve_log_path("/var/log/x.jsonl", "benchtop") == Path("/var/log/x.jsonl")
    monkeypatch.setenv("BIOFSM_LOG_DIR", str(tmp_path))
    assert resolve_log_path(None, "benchtop") == tmp_path / "benchtop.jsonl"
    assert resolve_log_path("run.jsonl", "wearable") == tmp_path / "run.jsonl"
    assert resolve_log_path("/abs/override.jsonl", "wearable") == Path("/abs/override.jsonl")


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


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


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


def test_benchtop_ticks_and_browns_out(tmp_path):
    port = free_udp_port()
    log = tmp_path / "benchtop.jsonl"
    done = {}

    def run():
        done["code"] = main(
            [
                "benchtop",
                "--port", str(port),
                "--tick-ms", "25",
                "--max-ticks", "16",
                "--brownout-ticks", "4",
                "--log", str(log),
            ]
        )

    thread = threading.Thread(target=run)
    thread.start()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        # burst a few C bytes across the first ticks, then go quiet
        for _ in range(6):
            sender.sendto(b"C", ("127.0.0.1", port))
            time.sleep(0.02)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert done["code"] == 0
    records = read_jsonl(log)
    assert len(records) == 16
    assert any(r["input"] == "C" and r["state"] == "HIGH" for r in records)
    assert records[-1]["state"] == "BROWNOUT"
    assert records[-1]["color"] == [255, 0, 255]
    assert_simulator_agrees(log, brownout_ticks=4)


def test_benchtop_flags_garbage_input(tmp_path):
    port = free_udp_port()
    log = tmp_path / "benchtop.jsonl"
    done = {}

    def run():
        done["code"] = main(
            [
                "benchtop",
                "--port", str(port),
                "--tick-ms", "25",
                "--max-ticks", "8",
                "--log", str(log),
            ]
        )

    thread = threading.Thread(target=run)
    thread.start()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        for _ in range(4):
            sender.sendto(b"hello", ("127.0.0.1", port))
            time.sleep(0.02)
    thread.join(timeout=10.0)
    assert done["code"] == 0
    records = read_jsonl(log)
    assert any(r["input"] == "X" and r["state"] == "INVALID" for r in records)
    assert_simulator_agrees(log)


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
    assert any(r["input"] == "B" and r["state"] == "MILD" for r in benchtop_log)
    assert_simulator_agrees(tmp_path / "benchtop.jsonl")


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
