"""Physiological signal layer: sample streams, beat detection, GSR smoothing.

The wearable side of the system works on two raw channels. The optical pulse
channel (PPG) carries a small cardiac AC ripple on top of a large, slowly
moving DC baseline; beats are declared by threshold crossings of the
baseline-removed signal. The skin-conductance channel (GSR) is smoothed by a
short moving mean that is read at each beat detection, so downstream
features stay synchronized to the heartbeat.

Streams can come from the synthetic generator (`synth_physio`) or from a
recorded trace CSV (`load_trace`). Both produce the same `PhysioSample` items.
"""

from __future__ import annotations

import csv
import math
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator


class Channel(str, Enum):
    PPG = "PPG"
    GSR = "GSR"


class SampleOrderError(ValueError):
    """Raised when per-channel timestamps do not strictly increase."""


@dataclass
class PhysioSample:
    """One timestamped raw sensor reading.

    `value` is a dimensionless ADC-like amplitude for PPG and microsiemens
    for GSR. Timestamps are milliseconds since session start, non-negative
    and strictly increasing per channel.
    """

    timestamp_ms: float
    channel: Channel
    value: float


@dataclass
class BeatEvent:
    """A detected heartbeat. `inter_beat_interval_ms` is absent for beat 0."""

    beat_index: int
    timestamp_ms: float
    inter_beat_interval_ms: float | None = None


@dataclass
class DetectorConfig:
    """Tuning constants for the beat detector.

    The original embedded implementation publishes no constants; these are
    stand-ins chosen for a 50 samples/s stream and a 60-120 BPM signal.
    """

    dc_coefficient: float = 0.95     # single-pole baseline tracker, weight of old estimate
    threshold_fraction: float = 0.5  # beat threshold as a fraction of the AC peak envelope
    envelope_decay: float = 0.995    # per-sample decay of the peak envelope
    min_threshold: float = 1e-6      # strictly positive floor; ignores numerical dust on flat input
    refractory_ms: float = 300.0     # minimum spacing between declared beats
    rearm_level: float = 0.0         # AC must dip below this before the next crossing can fire


class BeatDetector:
    """Baseline-attenuating threshold-crossing beat detector.

    Each sample updates a single-pole low-pass estimate of the DC baseline;
    the residual is the pulsatile AC component. A beat fires when the AC
    value rises through a threshold derived from a decaying envelope of past
    AC peaks. Two guards prevent double counting: a refractory period after
    each accepted beat, and a re-arm rule requiring the AC value to fall back
    below baseline between beats.
    """

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config or DetectorConfig()
        if self.config.min_threshold <= 0:
            raise ValueError("min_threshold must be strictly positive")
        self.dc_estimate: float | None = None
        self.ac_value: float = 0.0
        self.envelope: float = 0.0
        self.last_crossing_ms: float | None = None
        self.last_timestamp_ms: float | None = None
        self.beat_count: int = 0
        self._armed: bool = True

    @property
    def threshold(self) -> float:
        return max(self.config.threshold_fraction * self.envelope, self.config.min_threshold)

    def step(self, sample: PhysioSample) -> BeatEvent | None:
        """Consume one PPG sample, returning a BeatEvent on an accepted crossing."""
        if sample.channel is not Channel.PPG:
            raise ValueError(f"beat detector expects PPG samples, got {sample.channel}")
        if self.last_timestamp_ms is not None and sample.timestamp_ms <= self.last_timestamp_ms:
            raise SampleOrderError(
                f"PPG timestamp {sample.timestamp_ms} not after {self.last_timestamp_ms}"
            )
        self.last_timestamp_ms = sample.timestamp_ms

        cfg = self.config
        if self.dc_estimate is None:
            self.dc_estimate = sample.value
        else:
            self.dc_estimate = cfg.dc_coefficient * self.dc_estimate + (1.0 - cfg.dc_coefficient) * sample.value
        self.ac_value = sample.value - self.dc_estimate

        # Threshold uses the envelope from past samples only, otherwise the
        # envelope would chase the current sample and the threshold could
        # never be exceeded by less than a factor of two.
        threshold = self.threshold

        beat: BeatEvent | None = None
        if self._armed and self.ac_value >= threshold:
            self._armed = False
            if (
                self.last_crossing_ms is None
                or sample.timestamp_ms - self.last_crossing_ms >= cfg.refractory_ms
            ):
                interval = None
                if self.last_crossing_ms is not None:
                    interval = sample.timestamp_ms - self.last_crossing_ms
                beat = BeatEvent(self.beat_count, sample.timestamp_ms, interval)
                self.beat_count += 1
                self.last_crossing_ms = sample.timestamp_ms
        elif not self._armed and self.ac_value < cfg.rearm_level:
            self._armed = True

        self.envelope = max(self.envelope * cfg.envelope_decay, self.ac_value)
        return beat


class HeartRateTracker:
    """Heart rate from the mean of the last `intervals` inter-beat gaps.

    With intervals=1, the system's setting, this is the single-interval
    estimate 60000 / gap.
    """

    def __init__(self, intervals: int = 1):
        if intervals < 1:
            raise ValueError("intervals must be >= 1")
        self._gaps: deque[float] = deque(maxlen=intervals)

    def update(self, event: BeatEvent) -> float | None:
        """BPM after this beat; None for beat 0, which has no gap."""
        if event.inter_beat_interval_ms is None:
            return None
        if event.inter_beat_interval_ms <= 0:
            raise ValueError(f"inter-beat interval must be positive, got {event.inter_beat_interval_ms}")
        self._gaps.append(event.inter_beat_interval_ms)
        mean_gap = sum(self._gaps) / len(self._gaps)
        return 60000.0 / mean_gap


GSR_WINDOW_SIZE = 8


class GsrCollector:
    """Rolling buffer of the last few GSR samples; its mean is the smoothed level."""

    def __init__(self, size: int = GSR_WINDOW_SIZE):
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self._samples: deque[float] = deque(maxlen=size)
        self._last_timestamp_ms: float | None = None

    def add(self, sample: PhysioSample) -> None:
        if sample.channel is not Channel.GSR:
            raise ValueError(f"GSR collector expects GSR samples, got {sample.channel}")
        if self._last_timestamp_ms is not None and sample.timestamp_ms <= self._last_timestamp_ms:
            raise SampleOrderError(
                f"GSR timestamp {sample.timestamp_ms} not after {self._last_timestamp_ms}"
            )
        self._last_timestamp_ms = sample.timestamp_ms
        self._samples.append(sample.value)

    def smoothed(self) -> float | None:
        """Uniform mean of the last `size` samples; None until that many arrived."""
        if len(self._samples) < self.size:
            return None
        return sum(self._samples) / self.size


@dataclass
class SignalProfile:
    """Target trajectories for the synthetic signal generator.

    Rates and levels ramp linearly from the start value to the end value over
    the stream duration; leaving an end value unset keeps the start value
    constant. Noise values are half-widths of uniform noise added per sample.
    """

    bpm_start: float = 60.0
    bpm_end: float | None = None
    gsr_start_us: float = 5.0
    gsr_end_us: float | None = None
    ppg_amplitude: float = 100.0
    ppg_offset: float = 1000.0
    ppg_drift_per_s: float = 0.0
    ppg_noise: float = 0.0
    gsr_noise_us: float = 0.0
    ppg_rate_hz: float = 50.0
    gsr_rate_hz: float = 10.0


def _ramp(start: float, end: float | None, t_ms: float, duration_ms: float) -> float:
    if end is None or end == start:
        return start
    return start + (end - start) * (t_ms / duration_ms)


def synth_physio(profile: SignalProfile, duration_ms: float, seed: int) -> Iterator[PhysioSample]:
    """Generate a merged, timestamp-ordered PPG + GSR stream.

    Deterministic for a given (profile, duration, seed): equal inputs yield
    bit-identical streams. The PPG waveform is a sinusoid whose instantaneous
    frequency follows the BPM trajectory, riding on a configurable DC offset
    and drift; the GSR stream tracks its level trajectory.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if profile.ppg_rate_hz <= 0 or profile.gsr_rate_hz <= 0:
        raise ValueError("sample rates must be positive")
    if profile.bpm_start <= 0 or (profile.bpm_end is not None and profile.bpm_end <= 0):
        raise ValueError("BPM trajectory must stay positive")

    rng_ppg = random.Random(f"{seed}/ppg")
    rng_gsr = random.Random(f"{seed}/gsr")
    ppg_dt_ms = 1000.0 / profile.ppg_rate_hz
    gsr_dt_ms = 1000.0 / profile.gsr_rate_hz

    n_ppg = int(duration_ms / ppg_dt_ms)
    n_gsr = int(duration_ms / gsr_dt_ms)

    phase = 0.0
    i = j = 0
    while i < n_ppg or j < n_gsr:
        t_ppg = i * ppg_dt_ms if i < n_ppg else math.inf
        t_gsr = j * gsr_dt_ms if j < n_gsr else math.inf
        if t_ppg <= t_gsr:
            bpm = _ramp(profile.bpm_start, profile.bpm_end, t_ppg, duration_ms)
            value = (
                profile.ppg_offset
                + profile.ppg_drift_per_s * (t_ppg / 1000.0)
                + profile.ppg_amplitude * math.sin(phase)
            )
            if profile.ppg_noise > 0:
                value += rng_ppg.uniform(-profile.ppg_noise, profile.ppg_noise)
            yield PhysioSample(t_ppg, Channel.PPG, value)
            phase += 2.0 * math.pi * (bpm / 60.0) * (ppg_dt_ms / 1000.0)
            i += 1
        else:
            level = _ramp(profile.gsr_start_us, profile.gsr_end_us, t_gsr, duration_ms)
            if profile.gsr_noise_us > 0:
                level += rng_gsr.uniform(-profile.gsr_noise_us, profile.gsr_noise_us)
            yield PhysioSample(t_gsr, Channel.GSR, level)
            j += 1


TRACE_HEADER = ["timestamp_ms", "channel", "value"]


def load_trace(path: str | Path) -> list[PhysioSample]:
    """Read a trace CSV (`timestamp_ms,channel,value`) into sample order.

    Rejects non-finite fields and enforces per-channel strictly increasing
    timestamps so replays behave like live capture.
    """
    samples: list[PhysioSample] = []
    last_seen: dict[Channel, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRACE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            try:
                channel = Channel(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unknown channel {row[1]!r}") from None
            try:
                timestamp = float(row[0])
                value = float(row[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            if not (math.isfinite(timestamp) and math.isfinite(value)):
                raise ValueError(f"{path}: line {lineno}: non-finite field")
            if timestamp < 0:
                raise SampleOrderError(f"{path}: line {lineno}: negative timestamp")
            prev = last_seen.get(channel)
            if prev is not None and timestamp <= prev:
                raise SampleOrderError(
                    f"{path}: line {lineno}: {channel.value} timestamp {timestamp} not after {prev}"
                )
            last_seen[channel] = timestamp
            samples.append(PhysioSample(timestamp, channel, value))
    return samples


def save_trace(path: str | Path, samples: Iterable[PhysioSample]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for sample in samples:
            writer.writerow([repr(sample.timestamp_ms), sample.channel.value, repr(sample.value)])
