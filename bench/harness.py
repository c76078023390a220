"""Shared pieces of the benchmark: clocks, percentiles, spans, checks, results.

Every workload module exposes `run(ctx) -> Outcome`. `run.py` turns the
outcome into the report line and the final result line; metric names and
units come from BENCHMARK.json, so a workload that forgets a metric or
invents one fails loudly instead of printing a partial result.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"


def now_ns() -> int:
    """CLOCK_MONOTONIC in ns; the same clock in every process on the host."""
    return time.monotonic_ns()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]. Needs at least one value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _Point:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: float):
        self.t = t
        self.v = v


_CALIBRATION_CSV = "".join(f"{i * 20.0!r},{'GSR' if i % 6 == 0 else 'PPG'},{1000.0 + i * 0.37!r}\n" for i in range(64))


def _reference_pass() -> float:
    """A fixed mix of interpreter work: CSV parsing, float math, objects, dicts, JSON."""
    total = 0.0
    index: dict[str, int] = {}
    points = []
    for row in csv.reader(io.StringIO(_CALIBRATION_CSV)):
        point = _Point(float(row[0]), float(row[2]))
        points.append(point)
        index[row[1]] = len(points)
        total += point.v * 0.5 - point.t * 0.25
    for k in range(400):
        point = points[k & 63]
        total += point.v if k % 3 else -point.t
        index[str(k & 31)] = k
    return total + len(json.dumps({"n": len(points), "total": total, "keys": sorted(index)}))


class Calibration:
    """How fast the host runs at a moment, from a routine of the benchmark's own.

    The host is shared and its speed drifts by tens of percent for tens of
    seconds at a time. Each unit of work is timed between two reference
    passes, and its duration is expressed in reference seconds: the time of
    REFERENCE_PASSES passes at the mean speed of the two (about one second on
    an idle 2-vCPU Linux VM, Python 3.11). Code under test never runs inside a
    pass, so a faster program still reads faster; a slower host does not.
    The divisor must not depend on the program's state. A pass therefore
    runs with the garbage collector off, so a collection set off by the heap
    the program leaves alive (the replay samples, say) never lands inside
    it, and an untimed pass goes first, so the timed one does not pay for
    caches the program's work just left cold.
    """

    REFERENCE_PASSES = 6400

    @classmethod
    def bracketed_s(cls, units_ns: list[int], passes_ns: list[int]) -> list[float]:
        """Each unit, timed between consecutive passes, in reference seconds."""
        return [cls.reference_s(ns, (a + b) / 2) for ns, a, b in zip(units_ns, passes_ns, passes_ns[1:])]

    def __init__(self) -> None:
        self.passes_ns: list[int] = []

    def sample(self) -> int:
        """Time one reference pass, after a warm-up pass; returns its duration in ns."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            _reference_pass()
            start = now_ns()
            _reference_pass()
            took = now_ns() - start
        finally:
            if collecting:
                gc.enable()
        self.passes_ns.append(took)
        return took

    def sample_median(self, passes: int) -> float:
        """Median of several passes: a steadier reading for one long unit of work."""
        return statistics.median(self.sample() for _ in range(passes))

    @classmethod
    def reference_s(cls, ns: float, pass_ns: float) -> float:
        """A duration in reference seconds, given the reference pass timed next to it."""
        return ns / (pass_ns * cls.REFERENCE_PASSES)

    def figure(self) -> dict:
        return figure(statistics.median(self.passes_ns) / 1e3, "us", len(self.passes_ns))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int | None
    parent: int | None

    @property
    def duration_ns(self) -> int:
        return (self.end_ns or self.start_ns) - self.start_ns


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    A disabled tracer records nothing, so untraced passes pay only for an
    empty context manager around each (coarse) call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []

    def begin(self, name: str, parent: Span | None = None, start_ns: int | None = None) -> Span:
        span = Span(
            len(self.spans),
            name,
            now_ns() if start_ns is None else start_ns,
            None,
            None if parent is None else parent.id,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, end_ns: int | None = None) -> None:
        span.end_ns = now_ns() if end_ns is None else end_ns

    def span(self, name: str, parent: Span | None = None):
        return self._span(name, parent) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, parent: Span | None) -> Iterator[Span]:
        span = self.begin(name, parent)
        try:
            yield span
        finally:
            self.end(span)

    def durations_ns(self, name: str) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name == name]

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the time its children cover."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + span.duration_ns
        totals: dict[str, int] = {}
        for span in self.spans:
            own = span.duration_ns - child_ns.get(span.id, 0)
            totals[span.name] = totals.get(span.name, 0) + own
        return totals

    def self_ms_by_module(self) -> dict[str, float]:
        """Self time per package module, the span-name prefix before the first dot."""
        modules: dict[str, float] = {}
        for name, ns in self.self_ns().items():
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + ns / 1e6
        return modules

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent,
                }) + "\n")


@dataclass
class Checks:
    """Correctness checks: each one attempted is counted, each failure printed."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str, count: int = 1, failures: int | None = None) -> None:
        """Record `count` checks; `failures` of them failed (all of them when not ok)."""
        self.attempted += count
        bad = (0 if ok else count) if failures is None else failures
        if bad:
            self.failed += bad
            self.messages.append(f"{message} ({bad} of {count} failed)")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def figure(value: float, unit: str, n: int | None = None) -> dict:
    """One named figure of the report: value, unit and the sample count behind it."""
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


@dataclass
class RunContext:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool


@dataclass
class Outcome:
    metrics: dict[str, float]
    report: dict[str, dict]
    checks: Checks
    tracer: Tracer


SETUP_BRACKET_PASSES = 5


def timed_setups(make: Callable[[], object], discard: Callable[[object], None], repeats: int,
                 calibration: Calibration | None):
    """Run a workload's set-up `repeats` times, each between two reference passes.

    Keeps the last set-up; returns it with each set-up's duration in
    reference seconds (None without a calibration, for a figure in wall
    seconds) and in wall ns. A set-up is long and there are few, so each
    bracket is the median of several passes: one pass slowed by a passing
    interruption would otherwise skew the two set-ups beside it.
    """
    times: list[int] = []
    passes = [calibration.sample_median(SETUP_BRACKET_PASSES)] if calibration else []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            discard(kept)
        start = now_ns()
        kept = make()
        times.append(now_ns() - start)
        if calibration:
            passes.append(calibration.sample_median(SETUP_BRACKET_PASSES))
    return kept, Calibration.bracketed_s(times, passes) if calibration else None, times


def setup_figures(values_s: list[float], wall_ns: list[int], unit: str = "ref_s") -> tuple[float, dict]:
    """`setup_s` (median set-up, in reference seconds by default) and its report entries."""
    setup_s = statistics.median(values_s)
    return setup_s, {
        "setup_s": figure(setup_s, unit, len(values_s)),
        "setup_s.wall_median": figure(statistics.median(wall_ns) / 1e9, "s", len(wall_ns)),
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(ctx: RunContext, measured_s: float) -> dict:
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": int(ctx.trace),
        "run_seconds": ctx.seconds,
        "measured_s": round(measured_s, 3),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(outcome: Outcome, trace: bool, spec: dict, owned: frozenset[str]) -> dict:
    """The final line: every metric the spec lists for this mode, nothing else.

    `owned` names the per-layer metrics the workload measures. Any other
    per-layer metric belongs to a layer the workload bypasses and reads 0;
    an owned one, like an end-to-end metric, is never defaulted.
    """
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = set(outcome.metrics)
    extra = sorted(emitted - set(wanted) | (emitted - owned if trace else set()))
    if trace:
        outcome.metrics.update({name: 0.0 for name in set(wanted) - owned})
    missing = sorted(set(wanted) - set(outcome.metrics))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": outcome.checks.correct,
        "attempted": outcome.checks.attempted,
        "failed": outcome.checks.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
