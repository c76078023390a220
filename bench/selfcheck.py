"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 bench/selfcheck.py

1. Every workload, untraced and traced, prints a result whose metrics are
   exactly the ones BENCHMARK.json lists for that mode, each a finite number
   with its unit, with every correctness check passing.
2. Each correctness check fires on a deliberately corrupted output.
3. Without the package source next to it, the benchmark exits non-zero and
   prints no result.

Exits 0 when everything holds; prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import harness

RUN = Path(__file__).resolve().parent / "run.py"
failures: list[str] = []


def verdict(ok: bool, name: str, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def run_bench(workload: str, trace: int, cwd: Path = harness.ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result_shape(spec: dict) -> None:
    for workload in ("replay", "script", "live"):
        for trace in (0, 1):
            name = f"{workload} --trace {trace} emits every metric with its unit"
            out = run_bench(workload, trace)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                verdict(False, name, f"exit {out.returncode}: {out.stderr.strip()[-400:]}")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if set(result.get("metrics", {})) != set(wanted):
                problems.append("metric names differ from BENCHMARK.json")
            for metric, unit in wanted.items():
                entry = result.get("metrics", {}).get(metric, {})
                if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)) \
                        or not math.isfinite(entry["value"]):
                    problems.append(f"{metric}: {entry}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"checks: {out.stderr.strip()[-400:]}")
            if trace == 0 and any(result["metrics"][m]["value"] == 0 for m in wanted):
                problems.append("an end-to-end metric reads 0")
            verdict(not problems, name, "; ".join(problems))


def check_oracle_fires() -> None:
    sys.path.insert(0, str(harness.SRC))
    from biofsm.sim import parse_script, run_simulation, serialize_trace

    import oracle

    tokens = list("AAB-X----------XC") + ["-"] * 3
    text = serialize_trace(run_simulation(parse_script("\n".join(tokens))))
    verdict(oracle.check_trace(text, tokens)[0] == 0, "oracle accepts a correct trace")
    lines = text.splitlines(keepends=True)
    for label, field, value in (("state", "state", "HIGH"), ("color", "color", [1, 2, 3]), ("tone", "tone", "TONE3")):
        record = json.loads(lines[4])
        record[field] = value
        corrupted = "".join(lines[:4] + [json.dumps(record) + "\n"] + lines[5:])
        verdict(oracle.check_trace(corrupted, tokens)[0] == 1, f"oracle flags a corrupted {label}")
    verdict(oracle.check_trace("".join(lines[:-1]), tokens)[0] == 1, "oracle flags a missing step")


def check_replay_fires() -> None:
    import replay

    def emission(index: int, byte: str | None):
        return SimpleNamespace(byte_sent=byte, record=lambda: {"window": index, "byte_sent": byte})

    emissions = [emission(0, "A"), emission(1, None), emission(2, "C"), emission(3, "B")]
    for label, received, bad in (
        ("in order", ["41", "43", "42"], 0),
        ("a missing byte", ["41", "42"], 2),
        ("reordered bytes", ["41", "42", "43"], 2),
        ("an extra byte", ["41", "43", "42", "42"], 1),
    ):
        checks = harness.Checks()
        replay.check_iteration(SimpleNamespace(collect=lambda r=received: r), emissions, checks, [])
        verdict(checks.failed == bad, f"replay delivery check with {label} counts {bad} failures")
    checks = harness.Checks()
    digests: list[str] = []
    session = SimpleNamespace(collect=lambda: ["41", "43", "42"])
    replay.check_iteration(session, emissions, checks, digests)
    replay.check_iteration(session, emissions[:3] + [emission(3, "A")], checks, digests)
    verdict(
        checks.failed >= 1 and digests[0] != digests[1], "replay flags emission records that change between repeats"
    )


def check_live_fires() -> None:
    import live

    ms = 1_000_000
    ticks = [live.Tick(k * 10 * ms, (k + 1) * 10 * ms, token, "NORMAL") for k, token in enumerate("A--B")]
    sends = [
        live.Send(1 * ms, 1 * ms, 1 * ms + 50_000, "43", True),  # C, superseded within tick 0
        live.Send(2 * ms, 2 * ms, 2 * ms + 50_000, "41", True),  # A, applied at tick 0
        live.Send(29 * ms, 29_990_000, 30_010_000, "42", True),  # B, lands after tick 2's poll
    ]
    applied, collapsed, lost, unexplained = live.align(ticks, sends, 10 * ms)
    verdict(
        applied == {1: 0, 2: 3} and collapsed == [0] and not lost and not unexplained,
        "live alignment explains collapse and a datagram that crossed a tick boundary",
        f"{applied} {collapsed} {lost} {unexplained}",
    )
    same = [live.Tick(k * 10 * ms, (k + 1) * 10 * ms, token, "NORMAL") for k, token in enumerate("AA")]
    twice = [
        live.Send(1 * ms, 1 * ms, 1 * ms + 50_000, "41", True),  # A, applied at tick 0
        live.Send(9 * ms, 9_990_000, 10_010_000, "41", True),  # A again, lands after tick 0's poll
    ]
    applied, collapsed, lost, unexplained = live.align(same, twice, 10 * ms)
    verdict(
        applied == {0: 0, 1: 1} and not collapsed and not lost and not unexplained,
        "live alignment hands a boundary datagram on when the next tick needs it",
        f"{applied} {collapsed} {lost} {unexplained}",
    )
    us = 1_000
    chain = [live.Tick(0, 10_300 * us, "A", "NORMAL"), live.Tick(10_300 * us, 20_740 * us, "A", "NORMAL"),
             live.Tick(20_740 * us, 31_100 * us, "A", "NORMAL")]
    paced = [
        live.Send(200 * us, 300 * us, 400 * us, "41", True),
        live.Send(10_200 * us, 10_250 * us, 10_280 * us, "41", True),  # ends 20 us before tick 0's boundary
        live.Send(20_200 * us, 20_700 * us, 20_730 * us, "41", True),  # ends 10 us before tick 1's boundary
    ]
    applied, collapsed, lost, unexplained = live.align(chain, paced, 10 * ms)
    verdict(
        applied == {0: 0, 1: 1, 2: 2} and not collapsed and not lost and not unexplained,
        "live alignment hands paced datagrams on over several ticks when the last tick needs it",
        f"{applied} {collapsed} {lost} {unexplained}",
    )
    stalled = [live.Tick(0, 50 * ms, "-", "NORMAL"), live.Tick(50 * ms, 60 * ms, "A", "NORMAL")]
    late = [live.Send(20 * ms, 20 * ms, 20 * ms + 50_000, "41", True)]  # after tick 0's deadline, in its stall
    applied, collapsed, lost, unexplained = live.align(stalled, late, 10 * ms)
    verdict(
        applied == {0: 1} and not collapsed and not lost and not unexplained,
        "live alignment hands on a datagram sent after the deadline of a tick that stalled",
        f"{applied} {collapsed} {lost} {unexplained}",
    )
    quiet = [live.Tick(k * 10 * ms, (k + 1) * 10 * ms, "-", "NORMAL") for k in range(3)]
    _, _, lost, _ = live.align(quiet, sends[:1], 1 * ms)
    verdict(lost == [0], "live flags a datagram no tick received")
    _, _, _, unexplained = live.align(ticks[:1], [], 1 * ms)
    verdict(unexplained == [0], "live flags a tick input no datagram explains")


def refuses(spec: dict, metrics: dict, trace: bool, owned: frozenset[str]) -> bool:
    outcome = harness.Outcome(metrics, {}, harness.Checks(), harness.Tracer(False))
    try:
        harness.result_line(outcome, trace, spec, owned)
    except RuntimeError:
        return True
    return False


def check_result_line_strict(spec: dict) -> None:
    import replay

    verdict(refuses(spec, {"setup_s": 1.0}, False, frozenset()), "result line refuses a missing end-to-end metric")
    owned = {name: 1.0 for name in replay.PER_LAYER}
    dropped = {name: v for name, v in owned.items() if name != "classifier.frames_used"}
    verdict(refuses(spec, dropped, True, replay.PER_LAYER), "traced result line refuses a missing owned metric")
    verdict(
        refuses(spec, dict(owned, **{"fsm.tick_ns": 1.0}), True, replay.PER_LAYER),
        "traced result line refuses a metric of a layer the workload does not own",
    )
    outcome = harness.Outcome(dict(owned), {}, harness.Checks(), harness.Tracer(False))
    metrics = harness.result_line(outcome, True, spec, replay.PER_LAYER)["metrics"]
    verdict(
        all(metrics[name]["value"] == (1.0 if name in replay.PER_LAYER else 0.0) for name in metrics),
        "traced result line reads 0 only for metrics of layers the workload bypasses",
    )


def check_needs_source() -> None:
    bare = harness.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.SPEC_PATH, bare / "BENCHMARK.json")
    out = run_bench("script", 0, cwd=bare, script=bare / "bench" / "run.py")
    last = out.stdout.strip().splitlines()[-1:] or [""]
    verdict(out.returncode != 0 and '"correct"' not in last[0], "exits non-zero without the package source")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = harness.load_spec()
    check_oracle_fires()
    check_replay_fires()
    check_live_fires()
    check_result_line_strict(spec)
    check_needs_source()
    check_result_shape(spec)
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
