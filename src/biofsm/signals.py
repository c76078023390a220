"""Physiological signal layer: sample streams and beat detection.

The wearable side of the system works on two raw channels. The optical pulse
channel (PPG) carries a small cardiac AC ripple on top of a large, slowly
moving DC baseline; beats are declared by threshold crossings of the
baseline-removed signal. The skin-conductance channel (GSR) passes through
unchanged; `classifier.FeatureExtractor` smooths it at each beat.

Streams can come from the synthetic generator (`synth_physio`) or from a
recorded trace CSV (`load_trace`). Both produce the same `PhysioSample` items.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator


class Channel(str, Enum):
    __str__ = str.__str__  # str() and f-strings give the name on every Python, as for ArousalClass
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

    `load_trace` and `synth_physio` skip `__init__`: they create each sample
    with `object.__new__` and set its slots directly, so a new field must be
    set in both (`test_trace_roundtrip`'s `==` fails if one is missed).
    """

    timestamp_ms: float
    channel: Channel
    value: float


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
    Every timestamp must exceed `last_timestamp_ms`, a floor of -inf at first.
    """

    def __init__(self):
        self.dc_estimate: float | None = None
        self.envelope: float = 0.0
        self.last_crossing_ms: float | None = None
        self.last_timestamp_ms: float = -math.inf
        self._armed: bool = True

    def step(self, sample: PhysioSample) -> float | None:
        """Consume one PPG sample; an accepted beat after the first returns its gap in ms, else None."""
        if sample.channel is not _PPG:
            raise ValueError(f"beat detector expects PPG samples, got {sample.channel}")
        timestamp = sample.timestamp_ms
        last_timestamp = self.last_timestamp_ms
        if not timestamp > last_timestamp:  # NaN fails too: stored, it would let any timestamp through
            raise SampleOrderError(f"PPG timestamp {timestamp} not after {last_timestamp}")
        self.last_timestamp_ms = timestamp

        value = sample.value
        dc = self.dc_estimate
        dc = value if dc is None else DC_COEFFICIENT * dc + (1.0 - DC_COEFFICIENT) * value
        self.dc_estimate = dc
        ac = value - dc

        # Threshold uses the envelope from past samples only, otherwise the
        # envelope would chase the current sample and the threshold could
        # never be exceeded by less than a factor of two. Like `max(a, b)`,
        # each comparison below takes b only when b > a, so ties and NaN
        # keep a.
        envelope = self.envelope
        threshold = THRESHOLD_FRACTION * envelope
        if MIN_THRESHOLD > threshold:
            threshold = MIN_THRESHOLD

        gap: float | None = None
        if self._armed and ac >= threshold:
            self._armed = False
            last_crossing = self.last_crossing_ms
            if last_crossing is None or timestamp - last_crossing >= REFRACTORY_MS:
                gap = None if last_crossing is None else timestamp - last_crossing
                self.last_crossing_ms = timestamp
        elif not self._armed and ac < REARM_LEVEL:
            self._armed = True

        envelope *= ENVELOPE_DECAY
        self.envelope = ac if ac > envelope else envelope
        return gap


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
    # Finite settings can still overflow a sample: through a noise width 2n, the
    # GSR span, a GSR level plus noise (a level lies within |start| + |span| of
    # zero) or the PPG phase; a heart-rate span cannot, both ends being positive.
    # The phase grows by one step per PPG sample, and rounding carries that sum
    # past the phase at the top rate over the whole duration by less than 8x.
    gsr0, gsr_noise = profile.gsr_start_us, profile.gsr_noise_us
    gsr_span = (gsr0 if profile.gsr_end_us is None else profile.gsr_end_us) - gsr0
    top_bpm = max(profile.bpm_start, profile.bpm_end or 0.0)
    settings = positive | finite
    for what, names, x in (
        ("PPG noise width", "ppg_noise", 2.0 * profile.ppg_noise),
        ("GSR noise width", "gsr_noise_us", 2.0 * gsr_noise),
        ("GSR span", "gsr_start_us gsr_end_us", gsr_span),
        ("GSR level plus noise", "gsr_start_us gsr_end_us gsr_noise_us", abs(gsr0) + abs(gsr_span) + gsr_noise),
        ("PPG phase", "bpm_start bpm_end duration_ms", 8.0 * 2.0 * math.pi * top_bpm / 60.0 * duration_ms / 1000.0),
    ):
        if not abs(x) < math.inf:
            raise ValueError(f"{what} overflows with " + ", ".join(f"{n}={settings[n]!r}" for n in names.split()))
    return _synth(profile, duration_ms, seed)


def _synth(profile: SignalProfile, duration_ms: float, seed: int) -> Iterator[PhysioSample]:
    ppg_random = random.Random(f"{seed}/ppg").random
    gsr_random = random.Random(f"{seed}/gsr").random
    ppg_dt_ms = 1000.0 / PPG_RATE_HZ
    gsr_dt_ms = 1000.0 / GSR_RATE_HZ
    n_ppg = int(duration_ms / ppg_dt_ms)
    n_gsr = int(duration_ms / gsr_dt_ms)

    # A trajectory whose end is unset or equal stays at its start, sign of zero kept.
    bpm0, bpm_end, ppg_noise = profile.bpm_start, profile.bpm_end, profile.ppg_noise
    gsr0, gsr_end, gsr_noise = profile.gsr_start_us, profile.gsr_end_us, profile.gsr_noise_us
    bpm_span = None if bpm_end in (None, bpm0) else bpm_end - bpm0
    gsr_span = None if gsr_end in (None, gsr0) else gsr_end - gsr0
    # Noise is `Random.uniform(-n, n)`'s own arithmetic, `-n + (n - -n) * random()`,
    # with the width taken once.
    ppg_width, gsr_width = ppg_noise - -ppg_noise, gsr_noise - -gsr_noise
    sin, inf, new, two_pi, ppg_dt_s = math.sin, math.inf, object.__new__, 2.0 * math.pi, ppg_dt_ms / 1000.0
    phase = 0.0
    i = j = 0
    t_ppg = 0.0 if n_ppg else inf
    t_gsr = 0.0 if n_gsr else inf
    for _ in range(n_ppg + n_gsr):
        if t_ppg <= t_gsr:
            bpm = bpm0 if bpm_span is None else bpm0 + bpm_span * (t_ppg / duration_ms)
            value = PPG_OFFSET + PPG_AMPLITUDE * sin(phase)
            if ppg_noise > 0:
                value += -ppg_noise + ppg_width * ppg_random()
            sample = new(PhysioSample)
            sample.timestamp_ms, sample.channel, sample.value = t_ppg, _PPG, value
            yield sample
            phase += two_pi * (bpm / 60.0) * ppg_dt_s
            i += 1
            t_ppg = i * ppg_dt_ms if i < n_ppg else inf
        else:
            level = gsr0 if gsr_span is None else gsr0 + gsr_span * (t_gsr / duration_ms)
            if gsr_noise > 0:
                level += -gsr_noise + gsr_width * gsr_random()
            sample = new(PhysioSample)
            sample.timestamp_ms, sample.channel, sample.value = t_gsr, _GSR, level
            yield sample
            j += 1
            t_gsr = j * gsr_dt_ms if j < n_gsr else inf


TRACE_HEADER = ["timestamp_ms", "channel", "value"]
_CHANNELS = {c.value: c for c in Channel}
_CHANNEL_NAMES = {c: c.value for c in Channel}  # `Channel.value` is a Python-level property


def load_trace(path: str | Path) -> list[PhysioSample]:
    """Read a trace CSV (`timestamp_ms,channel,value`) into sample order.

    Rejects non-finite fields and per-channel timestamps that do not strictly
    increase, as live capture would, naming the line a bad record ends on.
    """
    samples: list[PhysioSample] = []
    append, new, channel_of = samples.append, object.__new__, _CHANNELS.get
    inf, last_seen = math.inf, dict.fromkeys(Channel, -1.0)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != TRACE_HEADER:
                raise ValueError(f"{path}: expected header {','.join(TRACE_HEADER)}")
            for row in reader:
                try:
                    t, name, v = row
                except ValueError:
                    if not row:
                        continue
                    raise ValueError(f"{path}: line {reader.line_num}: expected 3 fields, got {len(row)}") from None
                channel = channel_of(name)
                if channel is None:
                    raise ValueError(f"{path}: line {reader.line_num}: unknown channel {name!r}")
                try:
                    timestamp, value = float(t), float(v)
                except ValueError:
                    raise ValueError(f"{path}: line {reader.line_num}: non-numeric field") from None
                if not (0.0 <= timestamp < inf and -inf < value < inf):
                    if math.isfinite(timestamp) and math.isfinite(value):
                        raise SampleOrderError(f"{path}: line {reader.line_num}: negative timestamp")
                    raise ValueError(f"{path}: line {reader.line_num}: non-finite field")
                if timestamp <= last_seen[channel]:
                    raise SampleOrderError(f"{path}: line {reader.line_num}: "
                                           f"{name} timestamp {timestamp} not after {last_seen[channel]}")
                last_seen[channel] = timestamp
                sample = new(PhysioSample)
                sample.timestamp_ms, sample.channel, sample.value = timestamp, channel, value
                append(sample)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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
