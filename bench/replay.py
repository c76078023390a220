"""`replay` workload: offline replay of a recorded multi-hour session.

Why: `signals` (trace parsing, beat detection) and `classifier` (features,
window vote) do almost all the work, `protocol` sends one byte per 15 s
window and `fsm` is not used. Set-up writes the session with `save_trace`
as 5-minute files, as a recorder rotating its files would; the timed part
is `load_trace` of every file, then one `run_wearable` over the whole
session aimed at a sink process that keeps every datagram, so each emitted
byte can be checked on arrival.

Each repeat is timed in short units (one file load, or 8192 samples of
`run_wearable`), each between two reference passes (`harness.Calibration`);
the throughput divides the samples by the sum over units of each unit's
median duration in reference seconds, which a shared host's drifting speed
leaves alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from biofsm.classifier import FeatureExtractor, LadderConfig, WindowAccumulator, classify_window
from biofsm.nodes import run_wearable
from biofsm.protocol import EndpointConfig
from biofsm.signals import BeatDetector, Channel, SignalProfile, load_trace, save_trace, synth_physio

from harness import (
    OUT_DIR, Calibration, Checks, Outcome, RunContext, Tracer, figure, now_ns, peak_rss_mb, setup_figures,
    timed_setups,
)
from sink import MARK, QUIT

HERE = Path(__file__).resolve().parent
TRACE_MS = 2 * 3600 * 1000.0
TINY_TRACE_MS = 20 * 60 * 1000.0
SEGMENT_MS = 5 * 60 * 1000.0
CHUNK = 8192
PASSES = 3  # repeats of each layer pass in the traced run
SETUP_REPEATS = 3
# BPM ramps through and past the supported 60-120 band and GSR through and
# past 0-25 uS, so all three classes, dropped frames and undecided windows
# occur; the seed drives the noise.
PROFILE = SignalProfile(
    bpm_start=50.0, bpm_end=130.0, gsr_start_us=0.0, gsr_end_us=27.0, ppg_noise=15.0, gsr_noise_us=0.8
)
PER_LAYER = frozenset({
    "signals.load_trace_rows_per_s", "signals.detector_step_ns", "classifier.extractor_add_ns",
    "classifier.extractor_self_ns", "classifier.classify_window_us", "classifier.frames_used",
    "classifier.frames_dropped", "classifier.windows_undecided", "protocol.datagrams_sent",
    "protocol.datagrams_received", "protocol.datagrams_collapsed", "trace_overhead_pct",
})


class Session:
    """One set-up: the session's trace files on disk plus a running sink process."""

    def __init__(self, directory: Path, seed: int, duration_ms: float):
        directory.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []
        stream = synth_physio(PROFILE, duration_ms, seed)
        for index, segment in itertools.groupby(stream, key=lambda s: int(s.timestamp_ms // SEGMENT_MS)):
            path = directory / f"segment-{index:03d}.csv"
            save_trace(path, segment)
            self.paths.append(path)
        self.sink = subprocess.Popen(
            [sys.executable, str(HERE / "sink.py")], stdout=subprocess.PIPE, text=True
        )
        self.poke = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.port = int(self._line())
        except BaseException:
            self.close()
            raise

    def _line(self, timeout_s: float = 30.0) -> str:
        ready, _, _ = select.select([self.sink.stdout], [], [], timeout_s)
        line = self.sink.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("sink process did not answer")
        return line

    def collect(self) -> list[str]:
        """Hex payloads the sink received since the last call, in order."""
        self.poke.sendto(MARK, ("127.0.0.1", self.port))
        return json.loads(self._line())

    def close(self) -> None:
        try:
            self.poke.sendto(QUIT, ("127.0.0.1", self.port))
        except (OSError, AttributeError):
            pass
        try:
            self.sink.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.sink.kill()
            self.sink.wait()
        self.sink.stdout.close()
        self.poke.close()


@dataclass
class Iteration:
    rows: int
    units_ns: list[int]  # file loads first, then run_wearable chunks; same layout every repeat
    passes_ns: list[int]  # reference passes around the units: one before each, one after the last
    loads: int
    traced: bool = False


def emission_digest(emissions) -> str:
    text = "\n".join(json.dumps(e.record(), sort_keys=True) for e in emissions)
    return hashlib.sha256(text.encode()).hexdigest()


def chunked(samples: list, marks: list[tuple[int, int, int]], calibration: Calibration):
    """Yield the samples in chunks; between chunks, time a reference pass.

    Appends (end of the previous chunk, start of this one, reference pass ns)
    for every chunk after the first, so the pass stays outside the units.
    """
    for start in range(0, len(samples), CHUNK):
        if start:
            done = now_ns()
            local = calibration.sample()
            marks.append((done, now_ns(), local))
        yield from samples[start:start + CHUNK]


def run_once(session: Session, tracer: Tracer, calibration: Calibration):
    units: list[int] = []
    passes: list[int] = []
    samples: list = []
    for path in session.paths:
        passes.append(calibration.sample())
        with tracer.span("signals.load_trace"):
            start = now_ns()
            samples.extend(load_trace(path))
            units.append(now_ns() - start)
    marks: list[tuple[int, int, int]] = []
    passes.append(calibration.sample())
    with tracer.span("nodes.run_wearable"):
        begin = now_ns()
        emissions = run_wearable(chunked(samples, marks, calibration), endpoint=EndpointConfig(port=session.port))
        end = now_ns()
    starts = [begin] + [m[1] for m in marks]
    ends = [m[0] for m in marks] + [end]
    units.extend(e - s for s, e in zip(starts, ends))
    passes.extend(m[2] for m in marks)
    passes.append(calibration.sample())
    return Iteration(len(samples), units, passes, len(session.paths)), samples, emissions


def best_ns(iterations: list[Iteration], part: slice = slice(None)) -> int:
    """Sum over units of each unit's best wall time across the repeats."""
    return sum(min(column) for column in zip(*(it.units_ns[part] for it in iterations)))


def reference_s(iterations: list[Iteration], part: slice = slice(None)) -> float:
    """Sum over units of each unit's median duration in reference seconds."""
    columns = zip(*(Calibration.bracketed_s(it.units_ns, it.passes_ns)[part] for it in iterations))
    return sum(statistics.median(column) for column in columns)


def check_iteration(session: Session, emissions, checks: Checks, digests: list[str]) -> tuple[int, int]:
    """Every emitted byte arrived, in order; the emission records repeat exactly."""
    sent = [e.byte_sent.encode("ascii").hex() for e in emissions if e.byte_sent is not None]
    received = session.collect()
    wrong = sum(1 for i, b in enumerate(sent) if i >= len(received) or received[i] != b)
    wrong += max(0, len(received) - len(sent))
    checks.expect(wrong == 0, "emitted bytes missing or out of order at the receiver", len(sent), wrong)
    digests.append(emission_digest(emissions))
    if len(digests) > 1:
        checks.expect(digests[-1] == digests[0], "emission records differ between repeats of one seed")
    return len(sent), len(received)


def measure(
    session: Session, until_ns: int, tracer: Tracer, calibration: Calibration, alternate: bool,
    checks: Checks, digests: list[str],
):
    """Repeat the timed part until `until_ns` (at least once); keep the last samples.

    With `alternate`, every second repeat is traced, so drift over the run
    falls on traced and untraced repeats alike.
    """
    iterations: list[Iteration] = []
    samples = emissions = None
    wire = (0, 0)
    while len(iterations) < 1 + alternate or now_ns() < until_ns:
        samples = emissions = None  # free the previous trace before loading the next
        tracer.enabled = alternate and len(iterations) % 2 == 1
        iteration, samples, emissions = run_once(session, tracer, calibration)
        iteration.traced = tracer.enabled
        iterations.append(iteration)
        wire = check_iteration(session, emissions, checks, digests)
    tracer.enabled = alternate
    return iterations, samples, emissions, wire


def check_coverage(emissions, checks: Checks) -> None:
    classes = {e.arousal for e in emissions}
    checks.expect(
        {"NORMAL", "MILD", "HIGH", None} <= classes,
        f"replay trace must produce all three classes and undecided windows, got {sorted(map(str, classes))}",
    )


def layer_passes(samples: list, tracer: Tracer) -> tuple[list[list[int]], list[list[int]]]:
    """Per pass, per chunk: ns of `BeatDetector.step` over the chunk's PPG samples, then of
    `FeatureExtractor.add` over the whole chunk.

    The two run back to back on each chunk, so they see the same host speed
    and their difference is the extractor's own work. Each pass starts from
    fresh objects.
    """
    detector_passes, extractor_passes = [], []
    for _ in range(PASSES):
        step = BeatDetector().step
        add = FeatureExtractor().add
        detector, extractor = [], []
        for start in range(0, len(samples), CHUNK):
            chunk = samples[start:start + CHUNK]
            ppg = [s for s in chunk if s.channel is Channel.PPG]
            with tracer.span("signals.BeatDetector.step") as detector_span:
                for sample in ppg:
                    step(sample)
            with tracer.span("classifier.FeatureExtractor.add") as extractor_span:
                for sample in chunk:
                    add(sample)
            detector.append(detector_span.duration_ns)
            extractor.append(extractor_span.duration_ns)
        detector_passes.append(detector)
        extractor_passes.append(extractor)
    return detector_passes, extractor_passes


def median_sum(passes: list[list[float]]) -> float:
    """Sum over chunks of each chunk's median over the passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def decompose(samples, emissions, tracer: Tracer, checks: Checks) -> dict[str, float]:
    """Time the layers under `run_wearable` by driving its public parts in turn."""
    ppg_count = sum(1 for s in samples if s.channel is Channel.PPG)
    detector, extractor = layer_passes(samples, tracer)
    extractor_self = [[e - d for e, d in zip(ep, dp)] for ep, dp in zip(extractor, detector)]
    frames = [f for f in map(FeatureExtractor().add, samples) if f is not None]
    accumulator = WindowAccumulator()
    closed = [w for frame in frames for w in accumulator.add(frame)] + accumulator.flush()
    ladder = LadderConfig()
    classify_ns = []
    for _ in range(PASSES):
        with tracer.span("classifier.classify_window") as classify_span:
            decisions = [classify_window(w.frames, ladder, w.window_index) for w in closed]
        classify_ns.append(classify_span.duration_ns)

    composed = [
        (w.window_index, None if d is None else d.arousal.name, 0 if d is None else d.frames_used)
        for w, d in zip(closed, decisions)
    ]
    emitted = [(e.window_index, e.arousal, e.frames_used) for e in emissions]
    checks.expect(composed == emitted, "run_wearable windows differ from its composed public parts")

    used = sum(d.frames_used for d in decisions if d is not None)
    n = len(samples)
    return {
        "signals.detector_step_ns": median_sum(detector) / ppg_count,
        "classifier.extractor_add_ns": median_sum(extractor) / n,
        "classifier.extractor_self_ns": median_sum(extractor_self) / n,
        "classifier.classify_window_us": statistics.median(classify_ns) / len(closed) / 1e3,
        "classifier.frames_used": used,
        "classifier.frames_dropped": sum(len(w.frames) for w in closed) - used,
        "classifier.windows_undecided": sum(1 for d in decisions if d is None),
    }


def run(ctx: RunContext) -> Outcome:
    checks = Checks()
    tracer = Tracer(enabled=False)
    duration_ms = TINY_TRACE_MS if ctx.tiny else TRACE_MS
    directory = OUT_DIR / f"replay-{ctx.seed}-{os.getpid()}"
    session = None
    try:
        calibration = Calibration()
        session, setup_ref, setup_wall = timed_setups(
            lambda: Session(directory, ctx.seed, duration_ms), Session.close, SETUP_REPEATS, calibration
        )
        digests: list[str] = []
        iterations, samples, emissions, wire = measure(
            session, now_ns() + int(ctx.seconds * 1e9), tracer, calibration, ctx.trace, checks, digests
        )
        check_coverage(emissions, checks)
        rows = iterations[0].rows
        loads = slice(0, iterations[0].loads)
        if not ctx.trace:
            best = best_ns(iterations)
            throughput = rows / reference_s(iterations)
            rss = peak_rss_mb()
            setup_s, setup_report = setup_figures(setup_ref, setup_wall)
            metrics = {"setup_s": setup_s, "throughput_per_s": throughput, "peak_rss_mb": rss}
            report = {
                **setup_report,
                "samples_per_ref_s": figure(throughput, "1/ref_s", len(iterations)),
                "samples_per_s.best": figure(rows / (best / 1e9), "1/s", len(iterations)),
                "samples_per_s.median_repeat": figure(
                    rows / (statistics.median(sum(it.units_ns) for it in iterations) / 1e9), "1/s", len(iterations)
                ),
                "real_time_factor": figure(duration_ms / 1e3 / (best / 1e9), "x", len(iterations)),
                "load_trace_rows_per_ref_s": figure(rows / reference_s(iterations, loads), "1/ref_s", len(iterations)),
                "reference_pass_us.median": calibration.figure(),
                "peak_rss_mb": figure(rss, "MB"),
            }
        else:
            traced = [it for it in iterations if it.traced]
            untraced = [it for it in iterations if not it.traced]
            metrics = decompose(samples, emissions, tracer, checks)
            metrics.update({
                "signals.load_trace_rows_per_s": rows / reference_s(traced, loads),
                "protocol.datagrams_sent": wire[0],
                "protocol.datagrams_received": wire[1],
                "protocol.datagrams_collapsed": 0,
                "trace_overhead_pct": (reference_s(traced) / reference_s(untraced) - 1.0) * 100.0,
            })
            report = {
                "untraced_iterations": figure(len(untraced), "count"),
                "traced_iterations": figure(len(traced), "count"),
            }
        report["failed_share"] = figure(checks.failed / max(checks.attempted, 1), "1", checks.attempted)
        report["emission_digest"] = {"value": digests[0], "unit": "sha256"}
        return Outcome(metrics, report, checks, tracer)
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(directory, ignore_errors=True)
