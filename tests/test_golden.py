"""Byte-exact golden outputs of the command line.

The fixtures under tests/golden/ were captured from the package before it
was refactored. Any change to a simulated trace, the transition table, the
evaluation report or a wearable session log shows up here as a byte
difference.
"""

from pathlib import Path

import pytest

from biofsm.cli import main
from biofsm.protocol import EndpointConfig, UdpReceiver

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

STDOUT_CASES = {
    "outage.jsonl": ["simulate", str(ROOT / "demo" / "outage.script")],
    "transitions.txt": ["simulate", "--transitions"],
    "evaluate.json": ["evaluate", "--json"],
}
# Wearable session logs; the second run reaches all three classes, drops
# out-of-range frames and leaves windows undecided.
WEARABLE_CASES = {
    "wearable_seed7.jsonl": ["--seed", "7", "--duration-s", "75", "--bpm", "70:100", "--gsr", "10:22"],
    "wearable_seed3.jsonl": [
        "--seed", "3", "--duration-s", "90", "--bpm", "55:130", "--gsr", "10:40", "--ppg-noise", "5",
    ],
}


def run_case(name: str, tmp_path: Path, capsys) -> bytes:
    if name in STDOUT_CASES:
        assert main(STDOUT_CASES[name]) == 0
        return capsys.readouterr().out.encode("utf-8")
    log = tmp_path / name
    with UdpReceiver(EndpointConfig(port=0)) as receiver:
        argv = ["wearable", "--port", str(receiver.port), "--log", str(log), *WEARABLE_CASES[name]]
        assert main(argv) == 0
    return log.read_bytes()


@pytest.mark.parametrize("name", [*STDOUT_CASES, *WEARABLE_CASES])
def test_output_matches_golden(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == (GOLDEN / name).read_bytes()
