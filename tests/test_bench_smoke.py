"""The benchmark runs and reports the metrics BENCHMARK.json declares.

Short, tiny `script`, `replay` and `live` runs, each in a subprocess. They
assert the result line's shape and correctness, never a timing, so host
noise cannot fail them. The `replay` run covers `load_trace`, `run_wearable`
and the sink's in-order check of every emitted byte; the `live` run covers
the sender process, UDP polling and the benchtop tick loop. The traced
`script` run covers the bench's own `FsmRuntime()` and `tick` loop, and the
traced `replay` run its per-layer passes, which call `BeatDetector()`,
`WindowAccumulator()` and `classify_window(frames, LadderConfig(), index)`
directly. Traced runs write their spans to the gitignored `.bench_out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tiny(workload, *flags):
    """The result line of a tiny seed-1 run of `workload`."""
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.2", "--tiny", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def assert_reports_the_declared_metrics(workload):
    result = run_tiny(workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["correct"] is True
    assert result["failed"] == 0


def test_script_workload_reports_the_declared_metrics():
    assert_reports_the_declared_metrics("script")


def test_replay_workload_reports_the_declared_metrics():
    assert_reports_the_declared_metrics("replay")


def test_live_workload_reports_the_declared_metrics():
    assert_reports_the_declared_metrics("live")


def test_traced_script_workload_reports_its_per_layer_metrics():
    result = run_tiny("script", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["fsm.tick_ns"]["value"] > 0
    assert result["metrics"]["fsm.verify_determinism_ms"]["value"] > 0


def test_traced_replay_workload_reports_its_per_layer_metrics():
    result = run_tiny("replay", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["classifier.classify_window_us"]["value"] > 0
    assert result["metrics"]["classifier.frames_used"]["value"] > 0
