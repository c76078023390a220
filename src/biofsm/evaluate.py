"""Table 3 evaluation: exact-match accuracy on the study fixture.

Compares self-reported arousal against predictions for the bundled
three-clip study fixture and reports exact-match accuracy per clip,
alongside the figures originally reported for the prototype.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .classifier import ArousalClass


@dataclass
class TraceRecord:
    """One rated interval of one clip from the study fixture."""

    clip_id: int
    interval_index: int
    self_report: ArousalClass
    predicted: ArousalClass


FIXTURE_INTERVALS_PER_CLIP = 16

# Accuracy figures originally reported for the prototype. The bundled
# fixture does not reproduce them; evaluation reports both and flags the
# discrepancy instead of hiding it.
REPORTED_ACCURACY = {1: 66.67, 2: 13.0, 3: 43.75}
REPORTED_AVERAGE = 41.0


def load_table3(path: str | Path | None = None) -> list[TraceRecord]:
    """Load the study fixture CSV, the packaged copy by default; an error names the file as the caller gave it."""
    source = resources.files("biofsm").joinpath("data/table3.csv") if path is None else Path(path)
    name = source if path is None else path
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read fixture {name}: {exc}") from None
    try:
        return _parse_table3(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_table3(text: str) -> list[TraceRecord]:
    """Parse the study fixture CSV, read with universal newlines, naming the line a bad record ends on."""
    reader = csv.reader(text.split("\n"))
    records: list[TraceRecord] = []
    try:
        if next(reader, None) != ["clip", "interval", "self_report", "predicted"]:
            raise ValueError("fixture header must be clip,interval,self_report,predicted")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"line {reader.line_num}: expected 4 fields, got {len(row)}")
            try:
                clip = int(row[0])
                interval = int(row[1])
            except ValueError:
                raise ValueError(f"line {reader.line_num}: non-integer clip or interval") from None
            for name in (row[2], row[3]):
                if name not in ArousalClass.__members__:
                    raise ValueError(f"line {reader.line_num}: unknown class {name!r}")
            records.append(TraceRecord(clip, interval, ArousalClass(row[2]), ArousalClass(row[3])))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    _by_clip(records)
    return records


def _by_clip(records: Sequence[TraceRecord]) -> dict[int, list[TraceRecord]]:
    """Group records by clip, in clip order.

    Every clip must carry exactly the expected number of intervals, none of
    them twice; partial fixtures indicate a corrupted file and are rejected.
    """
    by_clip: dict[int, list[TraceRecord]] = {}
    for record in sorted(records, key=lambda r: r.clip_id):  # stable: each clip keeps its row order
        by_clip.setdefault(record.clip_id, []).append(record)
    if not by_clip:
        raise ValueError("no records to evaluate")
    for clip_id, rows in by_clip.items():
        intervals = [r.interval_index for r in rows]
        if len(intervals) != FIXTURE_INTERVALS_PER_CLIP:
            raise ValueError(f"clip {clip_id} has {len(intervals)} intervals, expected {FIXTURE_INTERVALS_PER_CLIP}")
        for k, interval in enumerate(intervals):
            if interval in intervals[:k]:
                raise ValueError(f"clip {clip_id} repeats interval {interval}")
    return by_clip


def evaluate_table3(records: Sequence[TraceRecord]) -> dict:
    """Exact-match accuracy per clip plus the overall mean: the `evaluate --json` document.

    With 16 intervals a clip's accuracy is a multiple of 6.25, exact at 2
    places: the mean loses nothing to its rounding, and a clip differs from
    its reported figure exactly when the two are unequal.
    """
    clips = []
    for clip_id, rows in _by_clip(records).items():
        matches = sum(r.self_report == r.predicted for r in rows)
        clips.append({
            "clip": clip_id,
            "matches": matches,
            "total": len(rows),
            "accuracy_percent": round(100.0 * matches / len(rows), 2),
            "reported_percent": REPORTED_ACCURACY.get(clip_id),
        })
    return {
        "clips": clips,
        "average_percent": round(sum(c["accuracy_percent"] for c in clips) / len(clips), 2),
        "reported_average_percent": REPORTED_AVERAGE if any(c["reported_percent"] is not None for c in clips) else None,
        "discrepancy_clips": [c["clip"] for c in clips if c["reported_percent"] not in (None, c["accuracy_percent"])],
    }


def render_report(report: dict) -> str:
    """The text table `biofsm evaluate` prints for an `evaluate_table3` document.

    It ends by naming the clips whose reported figure is not k/16 for any
    k, which no scoring of the fixture's 16 intervals can give.
    """
    discrepancies = report["discrepancy_clips"]
    lines = ["clip  matches  accuracy   reported"]
    for c in report["clips"]:
        reported = "-" if c["reported_percent"] is None else f"{c['reported_percent']:.2f}%"
        flag = "  <- differs" if c["clip"] in discrepancies else ""
        lines.append("{clip:<4}  {matches}/{total:<5}  {accuracy_percent:6.2f}%   ".format(**c) + reported + flag)
    average = report["reported_average_percent"]
    average = "-" if average is None else f"{average:.2f}%"
    lines.append(f"average {report['average_percent']:.2f}% (reported {average})")
    if discrepancies:
        lines.append(
            "computed accuracies do not match the originally reported figures "
            f"for clips {discrepancies}; the reported figures are not "
            "reproducible from the published per-interval data"
        )
    n = FIXTURE_INTERVALS_PER_CLIP
    scores = {round(100.0 * k / n, 2) for k in range(n + 1)}
    off_grid = [c["clip"] for c in report["clips"] if c["reported_percent"] not in (None, *scores)]
    if off_grid:
        lines.append(
            f"the reported figures for clips {off_grid} are not k/{n} for any k, "
            f"so no scoring of {n} intervals gives them"
        )
    return "\n".join(lines)
