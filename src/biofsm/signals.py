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


# Bound once for the per-sample loops: on Python 3.11 the metaclass
# __getattr__ hook makes `Channel.PPG` about 5x slower than a global read.
_PPG, _GSR = Channel.PPG, Channel.GSR


class SampleOrderError(ValueError):
    """Raised when per-channel timestamps do not strictly increase."""


@dataclass(slots=True)
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


# Beat detector tuning. The original embedded implementation publishes none;
# these are stand-ins chosen for a 50 samples/s stream and a 60-120 BPM signal.
DC_COEFFICIENT = 0.95      # single-pole baseline tracker, weight of old estimate
THRESHOLD_FRACTION = 0.5   # beat threshold as a fraction of the AC peak envelope
ENVELOPE_DECAY = 0.995     # per-sample decay of the peak envelope
MIN_THRESHOLD = 1e-6       # strictly positive floor; ignores numerical dust on flat input
REFRACTORY_MS = 300.0      # minimum spacing between declared beats
REARM_LEVEL = 0.0          # AC must dip below this before the next crossing can fire


class BeatDetector:
    """Baseline-attenuating threshold-crossing beat detector.

    Each sample updates a single-pole low-pass estimate of the DC baseline;
    the residual is the pulsatile AC component. A beat fires when the AC
    value rises through a threshold derived from a decaying envelope of past
    AC peaks. Two guards prevent double counting: a refractory period after
    each accepted beat, and a re-arm rule requiring the AC value to fall back
    below baseline between beats. The tuning is the module constants above.
    """

    def __init__(self):
        self.dc_estimate: float | None = None
        self.ac_value: float = 0.0
        self.envelope: float = 0.0
        self.last_crossing_ms: float | None = None
        self.last_timestamp_ms: float | None = None
        self.beat_count: int = 0
        self._armed: bool = True

    def step(self, sample: PhysioSample) -> BeatEvent | None:
        """Consume one PPG sample, returning a BeatEvent on an accepted crossing."""
        if sample.channel is not _PPG:
            raise ValueError(f"beat detector expects PPG samples, got {sample.channel}")
        timestamp = sample.timestamp_ms
        last_timestamp = self.last_timestamp_ms
        if last_timestamp is not None and timestamp <= last_timestamp:
            raise SampleOrderError(f"PPG timestamp {timestamp} not after {last_timestamp}")
        self.last_timestamp_ms = timestamp

        value = sample.value
        dc = self.dc_estimate
        dc = value if dc is None else DC_COEFFICIENT * dc + (1.0 - DC_COEFFICIENT) * value
        self.dc_estimate = dc
        self.ac_value = ac = value - dc

        # Threshold uses the envelope from past samples only, otherwise the
        # envelope would chase the current sample and the threshold could
        # never be exceeded by less than a factor of two. Like `max(a, b)`,
        # each comparison below takes b only when b > a, so ties and NaN
        # keep a.
        envelope = self.envelope
        threshold = THRESHOLD_FRACTION * envelope
        if MIN_THRESHOLD > threshold:
            threshold = MIN_THRESHOLD

        beat: BeatEvent | None = None
        if self._armed and ac >= threshold:
            self._armed = False
            last_crossing = self.last_crossing_ms
            if last_crossing is None or timestamp - last_crossing >= REFRACTORY_MS:
                interval = None if last_crossing is None else timestamp - last_crossing
                beat = BeatEvent(self.beat_count, timestamp, interval)
                self.beat_count += 1
                self.last_crossing_ms = timestamp
        elif not self._armed and ac < REARM_LEVEL:
            self._armed = True

        envelope *= ENVELOPE_DECAY
        self.envelope = ac if ac > envelope else envelope
        return beat


GSR_WINDOW_SIZE = 8


class GsrCollector:
    """Rolling buffer of the last few GSR samples; its mean is the smoothed level."""

    def __init__(self):
        self._samples: deque[float] = deque(maxlen=GSR_WINDOW_SIZE)
        self._last_timestamp_ms: float | None = None

    def add(self, sample: PhysioSample) -> None:
        if sample.channel is not _GSR:
            raise ValueError(f"GSR collector expects GSR samples, got {sample.channel}")
        if self._last_timestamp_ms is not None and sample.timestamp_ms <= self._last_timestamp_ms:
            raise SampleOrderError(
                f"GSR timestamp {sample.timestamp_ms} not after {self._last_timestamp_ms}"
            )
        self._last_timestamp_ms = sample.timestamp_ms
        self._samples.append(sample.value)

    def smoothed(self) -> float | None:
        """Uniform mean of the last GSR_WINDOW_SIZE samples; None until that many arrived."""
        if len(self._samples) < GSR_WINDOW_SIZE:
            return None
        return sum(self._samples) / GSR_WINDOW_SIZE


PPG_RATE_HZ = 50.0      # synthetic sample rates
GSR_RATE_HZ = 10.0
PPG_AMPLITUDE = 100.0   # synthetic PPG sinusoid, and the DC offset it rides on
PPG_OFFSET = 1000.0


@dataclass
class SignalProfile:
    """Target trajectories for the synthetic signal generator.

    Heart rate and conductance ramp linearly from start to end over the
    stream duration; an unset end keeps the start value. Noise values are
    half-widths of uniform noise added per sample.
    """

    bpm_start: float = 60.0
    bpm_end: float | None = None
    gsr_start_us: float = 5.0
    gsr_end_us: float | None = None
    ppg_noise: float = 0.0
    gsr_noise_us: float = 0.0


def synth_physio(profile: SignalProfile, duration_ms: float, seed: int) -> Iterator[PhysioSample]:
    """Generate a merged, timestamp-ordered PPG + GSR stream.

    Deterministic for a given (profile, duration, seed): equal inputs yield
    bit-identical streams. The PPG waveform is a PPG_AMPLITUDE sinusoid whose
    instantaneous frequency follows the BPM trajectory, riding on PPG_OFFSET;
    the GSR stream tracks its level trajectory. Bad settings raise ValueError
    at the call, before the first sample is asked for.
    """
    positive = {"duration_ms": duration_ms, "bpm_start": profile.bpm_start, "bpm_end": profile.bpm_end}
    for name, x in positive.items():
        if x is not None and not 0 < x < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {x!r}")
    finite = {"gsr_start_us": profile.gsr_start_us, "gsr_end_us": profile.gsr_end_us,
              "ppg_noise": profile.ppg_noise, "gsr_noise_us": profile.gsr_noise_us}
    for name, x in finite.items():
        if x is not None and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    for name in ("ppg_noise", "gsr_noise_us"):
        if finite[name] < 0:
            raise ValueError(f"{name} must be non-negative, got {finite[name]!r}")
    return _synth(profile, duration_ms, seed)


def _synth(profile: SignalProfile, duration_ms: float, seed: int) -> Iterator[PhysioSample]:
    ppg_uniform = random.Random(f"{seed}/ppg").uniform
    gsr_uniform = random.Random(f"{seed}/gsr").uniform
    ppg_dt_ms = 1000.0 / PPG_RATE_HZ
    gsr_dt_ms = 1000.0 / GSR_RATE_HZ
    n_ppg = int(duration_ms / ppg_dt_ms)
    n_gsr = int(duration_ms / gsr_dt_ms)

    # A trajectory whose end is unset or equal stays at its start, sign of zero kept.
    bpm0, bpm_end, ppg_noise = profile.bpm_start, profile.bpm_end, profile.ppg_noise
    gsr0, gsr_end, gsr_noise = profile.gsr_start_us, profile.gsr_end_us, profile.gsr_noise_us
    bpm_span = None if bpm_end in (None, bpm0) else bpm_end - bpm0
    gsr_span = None if gsr_end in (None, gsr0) else gsr_end - gsr0
    sin, inf, two_pi, ppg_dt_s = math.sin, math.inf, 2.0 * math.pi, ppg_dt_ms / 1000.0
    phase = 0.0
    i = j = 0
    t_ppg = 0.0 if n_ppg else inf
    t_gsr = 0.0 if n_gsr else inf
    for _ in range(n_ppg + n_gsr):
        if t_ppg <= t_gsr:
            bpm = bpm0 if bpm_span is None else bpm0 + bpm_span * (t_ppg / duration_ms)
            value = PPG_OFFSET + PPG_AMPLITUDE * sin(phase)
            if ppg_noise > 0:
                value += ppg_uniform(-ppg_noise, ppg_noise)
            yield PhysioSample(t_ppg, _PPG, value)
            phase += two_pi * (bpm / 60.0) * ppg_dt_s
            i += 1
            t_ppg = i * ppg_dt_ms if i < n_ppg else inf
        else:
            level = gsr0 if gsr_span is None else gsr0 + gsr_span * (t_gsr / duration_ms)
            if gsr_noise > 0:
                level += gsr_uniform(-gsr_noise, gsr_noise)
            yield PhysioSample(t_gsr, _GSR, level)
            j += 1
            t_gsr = j * gsr_dt_ms if j < n_gsr else inf


TRACE_HEADER = ["timestamp_ms", "channel", "value"]
_CHANNELS = {c.value: c for c in Channel}
_CHANNEL_NAMES = {c: c.value for c in Channel}  # `Channel.value` is a Python-level property


def load_trace(path: str | Path) -> list[PhysioSample]:
    """Read a trace CSV (`timestamp_ms,channel,value`) into sample order.

    Rejects non-finite fields and enforces per-channel strictly increasing
    timestamps so replays behave like live capture.
    """
    samples: list[PhysioSample] = []
    last_seen: dict[Channel, float] = {}
    try:
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
                channel = _CHANNELS.get(row[1])
                if channel is None:
                    raise ValueError(f"{path}: line {lineno}: unknown channel {row[1]!r}")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read trace {path}: {exc}") from None
    return samples


def save_trace(path: str | Path, samples: Iterable[PhysioSample]) -> None:
    """Write samples to a trace CSV that `load_trace` reads back bit for bit.

    The file is the header line `timestamp_ms,channel,value`, then one row
    per sample in the order given, written as it arrives (the stream is not
    held in memory): `repr` of the timestamp, the channel name and `repr`
    of the value, comma-separated, unquoted, each line ending in a line feed.
    Nothing is validated, so a NaN is written as `nan`, which `load_trace`
    then refuses; a finite stream ordered per channel round-trips exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        fh.writelines(f"{s.timestamp_ms!r},{_CHANNEL_NAMES[s.channel]},{s.value!r}\n" for s in samples)
