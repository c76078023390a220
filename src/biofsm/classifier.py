"""Arousal classification: weighted threshold ladder over HR and GSR features.

Each beat yields a feature frame (heart rate, smoothed skin conductance).
Frames accumulate into fixed back-to-back windows; at each window boundary
the frames vote through a two-band threshold ladder and the class with the
highest weighted score wins. Skin conductance carries more weight than heart
rate. Frames outside the supported physiological range are dropped rather
than clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .signals import (
    BeatDetector,
    DetectorConfig,
    GsrCollector,
    HeartRateTracker,
    Channel,
    PhysioSample,
)


class ArousalClass(IntEnum):
    NORMAL = 0
    MILD = 1
    HIGH = 2


@dataclass
class FeatureFrame:
    """Per-beat feature vector used for window voting."""

    beat_index: int
    timestamp_ms: float
    bpm: float
    gsr_us: float


@dataclass
class LadderConfig:
    """Band edges and weights for the threshold ladder.

    Bands are half-open on the right below the top edge; the top edge itself
    is included so that a reading exactly at the supported maximum still
    lands in the HIGH band. hr_weight + gsr_weight must total 1.
    """

    hr_range: tuple[float, float] = (60.0, 120.0)
    hr_splits: tuple[float, float] = (85.0, 105.0)
    gsr_range: tuple[float, float] = (0.0, 25.0)
    gsr_splits: tuple[float, float] = (15.0, 20.0)
    hr_weight: float = 0.4
    gsr_weight: float = 0.6
    window_ms: float = 15000.0

    def __post_init__(self) -> None:
        for name, (lo, hi), (s0, s1) in (
            ("hr", self.hr_range, self.hr_splits),
            ("gsr", self.gsr_range, self.gsr_splits),
        ):
            if not (lo < s0 < s1 < hi):
                raise ValueError(f"{name} splits {s0}, {s1} must sit strictly inside ({lo}, {hi})")
        if self.hr_weight < 0 or self.gsr_weight < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.hr_weight + self.gsr_weight - 1.0) > 1e-9:
            raise ValueError("hr_weight + gsr_weight must equal 1")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")

    def hr_band(self, bpm: float) -> ArousalClass:
        lo, hi = self.hr_range
        if not (lo <= bpm <= hi):
            raise ValueError(f"heart rate {bpm} outside supported range [{lo}, {hi}]")
        if bpm < self.hr_splits[0]:
            return ArousalClass.NORMAL
        if bpm < self.hr_splits[1]:
            return ArousalClass.MILD
        return ArousalClass.HIGH

    def gsr_band(self, gsr_us: float) -> ArousalClass:
        lo, hi = self.gsr_range
        if not (lo <= gsr_us <= hi):
            raise ValueError(f"skin conductance {gsr_us} outside supported range [{lo}, {hi}]")
        if gsr_us < self.gsr_splits[0]:
            return ArousalClass.NORMAL
        if gsr_us < self.gsr_splits[1]:
            return ArousalClass.MILD
        return ArousalClass.HIGH

    def frame_in_range(self, frame: FeatureFrame) -> bool:
        return (
            self.hr_range[0] <= frame.bpm <= self.hr_range[1]
            and self.gsr_range[0] <= frame.gsr_us <= self.gsr_range[1]
        )


def score_frame(frame: FeatureFrame, config: LadderConfig) -> list[float]:
    """Weighted one-hot scores [normal, mild, high] for a single frame."""
    scores = [0.0, 0.0, 0.0]
    scores[config.hr_band(frame.bpm)] += config.hr_weight
    scores[config.gsr_band(frame.gsr_us)] += config.gsr_weight
    return scores


@dataclass
class WindowDecision:
    """A window's vote, with the means of the in-range frames that cast it."""

    window_index: int
    arousal: ArousalClass
    score_vector: list[float]
    frames_used: int
    bpm_mean: float
    gsr_mean: float


def classify_window(
    frames: list[FeatureFrame],
    config: LadderConfig | None = None,
    window_index: int = 0,
) -> WindowDecision | None:
    """Vote a window of frames into one arousal class.

    Out-of-range frames are dropped. With no usable frames the window is
    undecidable and None is returned. Ties resolve to the lower class, i.e.
    the calmer interpretation wins.
    """
    config = config or LadderConfig()
    used = [frame for frame in frames if config.frame_in_range(frame)]
    if not used:
        return None
    totals = [0.0, 0.0, 0.0]
    for frame in used:
        for k, s in enumerate(score_frame(frame, config)):
            totals[k] += s
    best = ArousalClass.NORMAL
    for cls in (ArousalClass.MILD, ArousalClass.HIGH):
        if totals[cls] > totals[best]:
            best = cls
    n = len(used)
    return WindowDecision(
        window_index, best, totals, n, sum(f.bpm for f in used) / n, sum(f.gsr_us for f in used) / n
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

    Heart rate comes from the latest inter-beat gap, skin conductance from
    the smoothing window's mean at the beat. Frames start once the first gap
    exists and the GSR window has filled.
    """

    def __init__(self, detector_config: DetectorConfig | None = None):
        self.detector = BeatDetector(detector_config)
        self.tracker = HeartRateTracker()
        self.collector = GsrCollector()

    def add(self, sample: PhysioSample) -> FeatureFrame | None:
        if sample.channel is Channel.GSR:
            self.collector.add(sample)
            return None
        beat = self.detector.step(sample)
        if beat is None:
            return None
        bpm = self.tracker.update(beat)
        gsr = self.collector.smoothed()
        if bpm is None or gsr is None:
            return None
        return FeatureFrame(beat.beat_index, beat.timestamp_ms, bpm, gsr)
