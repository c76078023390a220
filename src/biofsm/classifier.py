"""Arousal classification: weighted threshold ladder over HR and GSR features.

Each beat yields a feature frame (heart rate, smoothed skin conductance).
Frames accumulate into fixed back-to-back windows; at each window boundary
the frames vote through a two-band threshold ladder and the class with the
highest weighted score wins. Skin conductance carries more weight than heart
rate. Frames outside the supported physiological range are dropped rather
than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .signals import BeatDetector, Channel, GsrCollector, PhysioSample

_GSR = Channel.GSR  # bound once for the per-sample loop, as in signals

DEFAULT_WINDOW_MS = 15000.0


class ArousalClass(str, Enum):
    __str__ = str.__str__  # str() and f-strings give the name, as JSON and logs do
    NORMAL = "NORMAL"
    MILD = "MILD"
    HIGH = "HIGH"


_CLASSES = tuple(ArousalClass)  # score-vector order: position k scores _CLASSES[k]


@dataclass
class FeatureFrame:
    """Per-beat feature vector used for window voting."""

    beat_index: int
    timestamp_ms: float
    bpm: float
    gsr_us: float


# The threshold ladder. Bands are half-open on the right below the top edge;
# the top edge itself is included so that a reading exactly at the supported
# maximum still lands in the HIGH band. The two weights total 1.
HR_RANGE = (60.0, 120.0)
HR_SPLITS = (85.0, 105.0)
HR_WEIGHT = 0.4
GSR_RANGE = (0.0, 25.0)
GSR_SPLITS = (15.0, 20.0)
GSR_WEIGHT = 0.6


@dataclass
class LadderConfig:
    """The window length frames vote in; band edges and weights are the constants above."""

    window_ms: float = DEFAULT_WINDOW_MS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window_ms) and self.window_ms > 0):
            raise ValueError(f"window_ms must be finite and positive, got {self.window_ms!r}")


def frame_in_range(frame: FeatureFrame) -> bool:
    return HR_RANGE[0] <= frame.bpm <= HR_RANGE[1] and GSR_RANGE[0] <= frame.gsr_us <= GSR_RANGE[1]


def _band(value: float, value_range: tuple[float, float], splits: tuple[float, float], name: str) -> int:
    lo, hi = value_range
    if not (lo <= value <= hi):
        raise ValueError(f"{name} {value} outside supported range [{lo}, {hi}]")
    if value < splits[0]:
        return 0
    if value < splits[1]:
        return 1
    return 2


def score_frame(frame: FeatureFrame) -> list[float]:
    """Weighted one-hot scores [normal, mild, high] for a single frame."""
    scores = [0.0, 0.0, 0.0]
    scores[_band(frame.bpm, HR_RANGE, HR_SPLITS, "heart rate")] += HR_WEIGHT
    scores[_band(frame.gsr_us, GSR_RANGE, GSR_SPLITS, "skin conductance")] += GSR_WEIGHT
    return scores


@dataclass
class WindowDecision:
    """A window's vote, the means of the in-range frames that cast it, and the byte sent for it.

    A window with no usable frame is `WindowDecision(window_index)`: 0 frames, the rest None.
    """

    window_index: int
    frames_used: int = 0
    bpm_mean: float | None = None
    gsr_mean: float | None = None
    arousal: ArousalClass | None = None
    score_vector: list[float] | None = None
    byte_sent: str | None = None

    def record(self) -> dict:
        """The wearable's log line for this window; the class is written by name."""
        return {
            "window": self.window_index,
            "frames_used": self.frames_used,
            "bpm_mean": self.bpm_mean,
            "gsr_mean": self.gsr_mean,
            "arousal": self.arousal,
            "byte_sent": self.byte_sent,
        }


def classify_window(
    frames: list[FeatureFrame],
    config: LadderConfig | None = None,
    window_index: int = 0,
) -> WindowDecision | None:
    """Vote a window of frames into one arousal class.

    Out-of-range frames are dropped. With no usable frames the window is
    undecidable and None is returned. Ties resolve to the lower class, i.e.
    the calmer interpretation wins. No byte is sent yet, so `byte_sent` is
    None. `config` is unread, as the ladder is fixed; it stays because
    bench/replay.py passes a LadderConfig there.
    """
    used = [frame for frame in frames if frame_in_range(frame)]
    if not used:
        return None
    totals = [0.0, 0.0, 0.0]
    for frame in used:
        for k, s in enumerate(score_frame(frame)):
            totals[k] += s
    best = _CLASSES[max(range(3), key=totals.__getitem__)]  # max keeps the first of tied scores
    n = len(used)
    return WindowDecision(
        window_index, n, sum(f.bpm for f in used) / n, sum(f.gsr_us for f in used) / n, best, totals
    )


@dataclass
class ClosedWindow:
    """The frames that landed in one window, in arrival order."""

    window_index: int
    frames: list[FeatureFrame]


class WindowAccumulator:
    """Partitions the feature stream into back-to-back fixed windows.

    Window k covers [k*window_ms, (k+1)*window_ms). A frame landing past the
    current window closes it (and any empty windows in between) before being
    buffered. `flush` closes the trailing partial window at end of stream.
    """

    def __init__(self, config: LadderConfig | None = None):
        self.config = config or LadderConfig()
        self._current = 0
        self._frames: list[FeatureFrame] = []

    def add(self, frame: FeatureFrame) -> list[ClosedWindow]:
        target = int(frame.timestamp_ms // self.config.window_ms)
        closed: list[ClosedWindow] = []
        while self._current < target:
            closed.append(self._close())
        self._frames.append(frame)
        return closed

    def flush(self) -> list[ClosedWindow]:
        if not self._frames:
            return []
        return [self._close()]

    def _close(self) -> ClosedWindow:
        frames = self._frames
        self._frames = []
        index = self._current
        self._current += 1
        return ClosedWindow(index, frames)


class FeatureExtractor:
    """Fuses the raw two-channel stream into per-beat feature frames.

    Heart rate is 60000 / the latest inter-beat gap, skin conductance the
    smoothing window's mean at the beat. Frames start once the first gap
    exists and the GSR window has filled. A sample whose value or timestamp
    is not finite is skipped and counted in `non_finite`.
    """

    def __init__(self):
        self.detector = BeatDetector()
        self.collector = GsrCollector()
        self.non_finite = 0

    def add(self, sample: PhysioSample) -> FeatureFrame | None:
        if not (math.isfinite(sample.value) and math.isfinite(sample.timestamp_ms)):
            self.non_finite += 1
            return None
        if sample.channel is _GSR:
            self.collector.add(sample)
            return None
        beat = self.detector.step(sample)
        if beat is None:
            return None
        gap = beat.inter_beat_interval_ms
        gsr = self.collector.smoothed()
        if gap is None or gsr is None:
            return None
        return FeatureFrame(beat.beat_index, beat.timestamp_ms, 60000.0 / gap, gsr)
