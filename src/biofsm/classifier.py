"""Arousal classification: weighted threshold ladder over HR and GSR features.

Each beat yields a feature frame: heart rate, and skin conductance smoothed
by the mean of the last GSR_WINDOW_SIZE samples, read at the beat so both
features stay synchronized to the heartbeat. Frames accumulate into
back-to-back 15 s windows (WINDOW_MS); at each boundary the frames vote
through a two-band threshold ladder and the class with the most votes wins.
Skin conductance casts more votes than heart rate. Frames outside the
supported physiological range are dropped rather than clamped.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .signals import BeatDetector, Channel, PhysioSample, SampleOrderError

log = logging.getLogger(__name__)
_GSR = Channel.GSR  # bound once for the per-sample loop, as in signals

WINDOW_MS = 15000.0  # the length of the back-to-back windows frames vote in
GSR_WINDOW_SIZE = 8  # GSR samples in the moving mean read at each beat


class ArousalClass(str, Enum):
    __str__ = str.__str__  # str() and f-strings give the name, as JSON and logs do
    NORMAL = "NORMAL"
    MILD = "MILD"
    HIGH = "HIGH"


_CLASSES = tuple(ArousalClass)  # band order: band k votes for _CLASSES[k]


@dataclass
class FeatureFrame:
    """Per-beat feature vector used for window voting."""

    timestamp_ms: float
    bpm: float
    gsr_us: float


# The threshold ladder. Bands are half-open on the right below the top edge;
# the top edge itself is included so that a reading exactly at the supported
# maximum still lands in the HIGH band. A frame casts HR_VOTES for its heart-rate
# band and GSR_VOTES for its conductance band, weights 0.4 : 0.6 as whole
# numbers, so that equal tallies tie exactly.
HR_RANGE = (60.0, 120.0)
HR_SPLITS = (85.0, 105.0)
HR_VOTES = 2
GSR_RANGE = (0.0, 25.0)
GSR_SPLITS = (15.0, 20.0)
GSR_VOTES = 3


class LadderConfig:
    """No setting: the window, band edges and votes are module constants. Only bench/replay.py builds one."""


def _band(value: float, value_range: tuple[float, float], splits: tuple[float, float]) -> int | None:
    """The band 0/1/2 (NORMAL/MILD/HIGH) of `value`, or None outside `value_range` (NaN included)."""
    if not (value_range[0] <= value <= value_range[1]):
        return None
    if value < splits[0]:
        return 0
    if value < splits[1]:
        return 1
    return 2


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
    None. `config` is unread, as the window and ladder are fixed; it stays
    because bench/replay.py passes a LadderConfig there.
    """
    votes = [0, 0, 0]
    used = []
    for frame in frames:
        hr = _band(frame.bpm, HR_RANGE, HR_SPLITS)
        gsr = _band(frame.gsr_us, GSR_RANGE, GSR_SPLITS)
        if hr is not None and gsr is not None:
            votes[hr] += HR_VOTES
            votes[gsr] += GSR_VOTES
            used.append(frame)
    if not used:
        return None
    best = _CLASSES[max(range(3), key=votes.__getitem__)]  # max keeps the first, calmer, of tied classes
    n = len(used)
    return WindowDecision(window_index, n, sum(f.bpm for f in used) / n, sum(f.gsr_us for f in used) / n, best)


@dataclass
class ClosedWindow:
    """The frames that landed in one window, in arrival order."""

    window_index: int
    frames: list[FeatureFrame]


class WindowAccumulator:
    """Partitions the feature stream into back-to-back WINDOW_MS windows.

    Window k covers [k*WINDOW_MS, (k+1)*WINDOW_MS). A frame landing past the
    current window closes it (and any empty windows in between) before being
    buffered. `flush` closes the trailing partial window at end of stream.
    """

    def __init__(self):
        self._current = 0
        self._frames: list[FeatureFrame] = []

    def add(self, frame: FeatureFrame) -> list[ClosedWindow]:
        target = int(frame.timestamp_ms // WINDOW_MS)
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
    uniform mean of the last GSR_WINDOW_SIZE GSR samples at the beat. Frames
    start once the first gap exists and that many GSR samples have arrived.
    GSR timestamps must exceed `gsr_timestamp_ms`, a floor of -inf at first.
    A sample whose value or timestamp is not finite is skipped and counted
    in `non_finite`.
    """

    def __init__(self):
        self.detector = BeatDetector()
        self.gsr_window: deque[float] = deque(maxlen=GSR_WINDOW_SIZE)
        self.gsr_timestamp_ms: float = -math.inf
        self.non_finite = 0

    def add(self, sample: PhysioSample) -> FeatureFrame | None:
        if not (math.isfinite(sample.value) and math.isfinite(sample.timestamp_ms)):
            self.non_finite += 1
            return None
        if sample.channel is _GSR:
            last = self.gsr_timestamp_ms
            if sample.timestamp_ms <= last:
                raise SampleOrderError(f"GSR timestamp {sample.timestamp_ms} not after {last}")
            self.gsr_timestamp_ms = sample.timestamp_ms
            self.gsr_window.append(sample.value)
            return None
        gap = self.detector.step(sample)
        if gap is None or len(self.gsr_window) < GSR_WINDOW_SIZE:
            return None
        return FeatureFrame(sample.timestamp_ms, 60000.0 / gap, sum(self.gsr_window) / GSR_WINDOW_SIZE)


def iter_decisions(samples: Iterable[PhysioSample]) -> Iterator[WindowDecision]:
    """Classify each closed window in order, reading samples only up to the frame that closes it.

    Ctrl-C while samples are read ends the stream, and the partial window is still classified.
    Skipped non-finite samples are counted in one log line at the end, even if closed early.
    """
    extractor, accumulator = FeatureExtractor(), WindowAccumulator()

    def closed_windows() -> Iterator[ClosedWindow]:
        try:
            for sample in samples:
                frame = extractor.add(sample)
                if frame is not None:
                    yield from accumulator.add(frame)
        except KeyboardInterrupt:
            log.info("wearable interrupted, stopping")
        yield from accumulator.flush()

    try:
        for closed in closed_windows():
            yield classify_window(closed.frames, None, closed.window_index) or WindowDecision(closed.window_index)
    finally:
        if extractor.non_finite:
            log.warning("skipped %d samples with a non-finite value or timestamp", extractor.non_finite)
