"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or in captured output on failure) before asserting.
"""

import csv
import json
import time
from statistics import median

from biofsm.classifier import ArousalClass, FeatureExtractor, FeatureFrame, classify_window
from biofsm.evaluate import evaluate_table3, load_table3, render_report
from biofsm.fsm import (
    DEFAULT_BROWNOUT_TICKS,
    BenchState,
    FsmRuntime,
    tick,
    verify_determinism,
)
from biofsm.nodes import replay_script
from biofsm.protocol import InputSymbol
from biofsm.signals import (
    Channel,
    PhysioSample,
    SignalProfile,
    synth_physio,
)
from biofsm.sim import run_simulation, serialize_trace

A, B, C = InputSymbol.VALID_A, InputSymbol.VALID_B, InputSymbol.VALID_C
X, ABSENT = InputSymbol.UNRECOGNIZED, InputSymbol.ABSENT


def _check(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {verdict}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_fsm_determinism_enumeration():
    started = time.monotonic()
    report = verify_determinism()
    elapsed = time.monotonic() - started
    ok = (
        report.deterministic
        and report.configurations_checked == 5 * 5 * (DEFAULT_BROWNOUT_TICKS + 1)
        and all(
            len(report.successors[(state, symbol)]) == 1
            for state in BenchState
            for symbol in InputSymbol
            if symbol is not InputSymbol.ABSENT
        )
        and elapsed < 1.0
    )
    _check(
        1,
        "transition function is deterministic",
        ok,
        f"{report.configurations_checked} configurations in {elapsed * 1000:.0f} ms, "
        f"{len(report.conflicts)} conflicts",
    )


def test_criterion_2_brownout_timing_is_exact():
    problems = []
    for origin in (BenchState.NORMAL, BenchState.MILD, BenchState.HIGH, BenchState.INVALID):
        runtime = FsmRuntime(origin)
        for count in range(1, 10):
            runtime, _ = tick(runtime, ABSENT)
            if runtime.state is not origin:
                problems.append(f"{origin.name} left after {count} silent ticks")
                break
        else:
            runtime, _ = tick(runtime, ABSENT)
            if runtime.state is not BenchState.BROWNOUT:
                problems.append(f"{origin.name} not browned out on the 10th silent tick")
            else:
                recovered, _ = tick(runtime, B)
                if recovered.state is not BenchState.MILD or recovered.silence_ticks != 0:
                    problems.append(f"{origin.name} brownout not lifted by one valid byte")
    _check(2, "brownout after exactly 10 silent ticks", not problems, "; ".join(problems))


def test_criterion_3_actuation_map_is_bit_exact_in_the_log():
    # drive the machine through all five states and audit the serialized log
    script = [A, B, C, X] + [ABSENT] * 10
    log_lines = serialize_trace(run_simulation(script)).splitlines()
    expected = {
        "NORMAL": ([0, 255, 0], "TONE1"),
        "MILD": ([255, 165, 0], "TONE2"),
        "HIGH": ([255, 0, 0], "TONE3"),
        "INVALID": ([255, 255, 255], "SILENT"),
        "BROWNOUT": ([255, 0, 255], "SILENT"),
    }
    seen = {}
    mismatches = []
    for line in log_lines:
        record = json.loads(line)
        seen[record["state"]] = (record["color"], record["tone"])
        if (record["color"], record["tone"]) != expected[record["state"]]:
            mismatches.append(f"tick {record['tick']}: {record['state']} -> {record['color']}, {record['tone']}")
    ok = not mismatches and set(seen) == set(expected)
    _check(
        3,
        "logged actuation matches the state/color/tone map",
        ok,
        f"visited {sorted(seen)}; {len(mismatches)} mismatches",
    )


def test_criterion_4_fixture_accuracy_with_discrepancy_flag():
    records = load_table3()
    report = evaluate_table3(records)
    by_clip = {c["clip"]: c for c in report["clips"]}

    # independent recount straight off the raw CSV, no shared code path
    from importlib import resources

    raw = resources.files("biofsm").joinpath("data/table3.csv").read_text(encoding="utf-8")
    recount = {1: 0, 2: 0, 3: 0}
    rows = list(csv.DictReader(raw.splitlines()))
    for row in rows:
        if row["self_report"] == row["predicted"]:
            recount[int(row["clip"])] += 1

    ok = (
        len(rows) == 48
        and (by_clip[1]["matches"], by_clip[2]["matches"], by_clip[3]["matches"]) == (9, 5, 5)
        and (recount[1], recount[2], recount[3]) == (9, 5, 5)
        and by_clip[1]["accuracy_percent"] == 56.25
        and by_clip[2]["accuracy_percent"] == 31.25
        and by_clip[3]["accuracy_percent"] == 31.25
        and report["average_percent"] == 39.58
        and by_clip[1]["reported_percent"] == 66.67
        and by_clip[2]["reported_percent"] == 13.0
        and by_clip[3]["reported_percent"] == 43.75
        and report["reported_average_percent"] == 41.0
        and report["discrepancy_clips"] == [1, 2, 3]
        and "differs" in render_report(report)
    )
    _check(
        4,
        "fixture scores 9/16, 5/16, 5/16 and flags the reported figures",
        ok,
        f"computed {[c['matches'] for c in report['clips']]} vs reported "
        f"{[c['reported_percent'] for c in report['clips']]}, flagged {report['discrepancy_clips']}",
    )


def _recovered_bpm(profile, seed):
    frames = map(FeatureExtractor().add, synth_physio(profile, 60_000, seed))
    return median([frame.bpm for frame in frames if frame is not None][2:])


def test_criterion_5_beat_rate_fidelity():
    failures = []
    for target in (60.0, 90.0, 120.0):
        clean = _recovered_bpm(SignalProfile(bpm_start=target), seed=1)
        if abs(clean - target) > 2.0:
            failures.append(f"clean {target}: {clean:.2f}")
        noisy = _recovered_bpm(SignalProfile(bpm_start=target, ppg_noise=20.0), seed=7)
        if abs(noisy - target) > 5.0:
            failures.append(f"noisy {target}: {noisy:.2f}")
    _check(
        5,
        "recovered heart rate within 2 BPM clean, 5 BPM at 20% noise",
        not failures,
        "; ".join(failures) or "all six runs in tolerance",
    )


def _smoothed(values):
    """The extractor's `gsr_us` at the one framed beat of a PPG spike pair fed after these GSR values."""
    extractor = FeatureExtractor()
    for i, value in enumerate(values):
        extractor.add(PhysioSample(i * 100.0, Channel.GSR, value))
    pulse = [(0.0, 0.0), (1000.0, 100.0), (1020.0, 0.0), (1500.0, 100.0)]
    frames = [f for f in (extractor.add(PhysioSample(t, Channel.PPG, v)) for t, v in pulse) if f is not None]
    return frames[0].gsr_us if frames else None


def test_criterion_6_gsr_smoother_exact_and_linear():
    step = _smoothed([0.0] * 4 + [8.0] * 4)
    full = _smoothed([8.0] * 8)
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    ys = [10.0, -4.0, 0.5, 2.0, 7.0, 1.0, -3.0, 6.0]
    combined = [2.0 * x + y for x, y in zip(xs, ys)]
    linear_error = abs(_smoothed(combined) - (2.0 * _smoothed(xs) + _smoothed(ys)))
    ok = step == 4.0 and full == 8.0 and _smoothed([10.0] * 8) == 10.0 and linear_error < 1e-9
    _check(
        6,
        "smoother is exact on steps and linear",
        ok,
        f"step={step}, full={full}, linearity error {linear_error:.2e}",
    )


def test_criterion_7_mild_outweighs_normal_in_the_overlap():
    violations = []
    for bpm in (60.0, 70.0, 80.0, 84.9):
        for gsr in (15.0, 16.0, 17.5, 19.9):
            arousal = classify_window([FeatureFrame(0.0, bpm, gsr)]).arousal
            if arousal is not ArousalClass.MILD:
                violations.append(f"bpm={bpm}, gsr={gsr}: {arousal}")
    _check(
        7,
        "calm heart rate with raised conductance favors MILD",
        not violations,
        "; ".join(violations) or "16 grid points all favor MILD",
    )


def test_criterion_8_wire_replay_equals_simulation():
    started = time.monotonic()
    problems = []

    # a) same script through sockets and the virtual clock
    script = [A, B, C, X, A] + [ABSENT] * 10 + [B, C]
    wire = replay_script(script, tick_ms=40.0)
    sim = run_simulation(script)
    if serialize_trace(wire) != serialize_trace(sim):
        problems.append("wire trace differs from simulation")

    # b) one dropped datagram: one ABSENT tick, no brownout
    dropped = replay_script([A] * 6, tick_ms=40.0, drop_ticks={3})
    if [s.input for s in dropped] != [A, A, A, ABSENT, A, A]:
        problems.append(f"drop produced {[s.input.value for s in dropped]}")
    if any(s.state is not BenchState.NORMAL for s in dropped):
        problems.append("single drop disturbed the state")

    # c) ten-tick outage browns out, next valid byte recovers
    outage = replay_script([C] + [ABSENT] * 10 + [A], tick_ms=40.0)
    if outage[10].state is not BenchState.BROWNOUT:
        problems.append(f"outage tick 10 was {outage[10].state.name}")
    if outage[11].state is not BenchState.NORMAL:
        problems.append(f"recovery tick was {outage[11].state.name}")

    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f} s")
    _check(
        8,
        "UDP replay reproduces the simulation, drops and outages included",
        not problems,
        "; ".join(problems) or f"{len(script) + 18} live ticks in {elapsed:.1f} s",
    )


def test_criterion_9_byte_identical_determinism():
    script = [A, B, ABSENT, X, C] + [ABSENT] * 12 + [A]
    trace_a = serialize_trace(run_simulation(script))
    trace_b = serialize_trace(run_simulation(script))

    profile = SignalProfile(bpm_start=75.0, bpm_end=100.0, ppg_noise=10.0, gsr_noise_us=0.4)
    stream_a = list(synth_physio(profile, 20_000, seed=123))
    stream_b = list(synth_physio(profile, 20_000, seed=123))
    stream_other = list(synth_physio(profile, 20_000, seed=124))

    ok = (
        trace_a == trace_b
        and trace_a.encode("utf-8") == trace_b.encode("utf-8")
        and stream_a == stream_b
        and stream_a != stream_other
    )
    _check(
        9,
        "simulation traces and synthetic streams are run-to-run identical",
        ok,
        f"{len(trace_a)} trace bytes, {len(stream_a)} samples compared",
    )
