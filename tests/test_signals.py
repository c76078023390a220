import csv
import itertools
import math
import random
import struct
from statistics import median

import pytest
from hypothesis import example, given, settings, strategies as st

from biofsm import signals
from biofsm.classifier import GSR_WINDOW_SIZE, FeatureExtractor
from biofsm.signals import (
    DC_COEFFICIENT,
    ENVELOPE_DECAY,
    GSR_RATE_HZ,
    MIN_THRESHOLD,
    PPG_AMPLITUDE,
    PPG_OFFSET,
    PPG_RATE_HZ,
    REARM_LEVEL,
    REFRACTORY_MS,
    THRESHOLD_FRACTION,
    BeatDetector,
    Channel,
    PhysioSample,
    SampleOrderError,
    SignalProfile,
    TRACE_HEADER,
    load_trace,
    save_trace,
    synth_physio,
)


def ppg_only(profile, duration_ms, seed):
    for sample in synth_physio(profile, duration_ms, seed):
        if sample.channel is Channel.PPG:
            yield sample


def detect_bpms(profile, duration_ms, seed, skip=2):
    """The extractor's per-beat rates, dropping the first few warm-up beats."""
    frames = map(FeatureExtractor().add, synth_physio(profile, duration_ms, seed))
    return [frame.bpm for frame in frames if frame is not None][skip:]


def pulse_frames(gaps_ms):
    """What the extractor returns at each spike of a flat PPG line whose spikes are `gaps_ms` apart.

    The GSR window is already full, so every beat with a gap makes a frame.
    """
    extractor = FeatureExtractor()
    for i in range(GSR_WINDOW_SIZE):
        extractor.add(PhysioSample(i * 100.0, Channel.GSR, 10.0))
    extractor.add(PhysioSample(0.0, Channel.PPG, 0.0))
    results, t = [], 1000.0
    for gap in (0.0, *gaps_ms):
        t += gap
        results.append(extractor.add(PhysioSample(t, Channel.PPG, 100.0)))
        assert extractor.add(PhysioSample(t + 20.0, Channel.PPG, 0.0)) is None
    return results


def smoothed(values):
    """The extractor's `gsr_us` at a beat after these GSR values; None if the beat makes no frame.

    The beat is a PPG spike pair on a flat line, so its frame carries a gap.
    """
    extractor = FeatureExtractor()
    for i, value in enumerate(values):
        assert extractor.add(PhysioSample(i * 100.0, Channel.GSR, value)) is None
    pulse = [(0.0, 0.0), (1000.0, 100.0), (1020.0, 0.0), (1500.0, 100.0)]
    *warmup, frame = [extractor.add(PhysioSample(t, Channel.PPG, v)) for t, v in pulse]
    assert warmup == [None, None, None] and extractor.detector.last_crossing_ms == 1500.0
    return None if frame is None else frame.gsr_us


def test_constant_input_produces_no_beats():
    detector = BeatDetector()
    for i in range(2000):
        assert detector.step(PhysioSample(i * 20.0, Channel.PPG, 1000.0)) is None
    assert detector.last_crossing_ms is None


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_beat_intervals_land_on_the_sample_grid(target_bpm):
    # Oracle: a clean sinusoid at B BPM sampled every 20 ms can only yield
    # inter-beat gaps equal to the period rounded down or up to the grid.
    dt_ms = 20.0
    period_ms = 60000.0 / target_bpm
    allowed = {math.floor(period_ms / dt_ms) * dt_ms, math.ceil(period_ms / dt_ms) * dt_ms}

    detector = BeatDetector()
    intervals = []
    for sample in ppg_only(SignalProfile(bpm_start=target_bpm), 60_000, seed=11):
        gap = detector.step(sample)
        if gap is not None:
            intervals.append(gap)
    assert len(intervals) >= target_bpm * 0.9
    assert set(intervals[2:]) <= allowed


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_clean_beat_rate_within_two_bpm(target_bpm):
    estimates = detect_bpms(SignalProfile(bpm_start=target_bpm), 60_000, seed=1)
    assert estimates
    assert abs(median(estimates) - target_bpm) <= 2.0


@pytest.mark.parametrize("target_bpm", [60.0, 90.0, 120.0])
def test_noisy_beat_rate_within_five_bpm(target_bpm):
    # 20 units of uniform noise on a 100-unit pulse: 20% contamination.
    profile = SignalProfile(bpm_start=target_bpm, ppg_noise=20.0)
    estimates = detect_bpms(profile, 60_000, seed=7)
    assert estimates
    assert abs(median(estimates) - target_bpm) <= 5.0


def test_baseline_drift_does_not_disturb_detection():
    # The PPG baseline climbs 0.05 units/ms (50/s), added to the synthesized values.
    drifting = (
        PhysioSample(s.timestamp_ms, s.channel, s.value + 0.05 * s.timestamp_ms) if s.channel is Channel.PPG else s
        for s in synth_physio(SignalProfile(bpm_start=60.0), 60_000, seed=2)
    )
    frames = map(FeatureExtractor().add, drifting)
    estimates = [frame.bpm for frame in frames if frame is not None][2:]
    assert abs(median(estimates) - 60.0) <= 2.0


def test_first_beat_has_no_rate():
    first, second = pulse_frames([1000.0])
    assert first is None
    assert second.timestamp_ms == 2000.0 and second.bpm == 60.0


@pytest.mark.parametrize(
    "interval_ms,expected",
    [(1000.0, 60.0), (500.0, 120.0), (666.7, 89.995)],
)
def test_rate_from_interval(interval_ms, expected):
    assert pulse_frames([interval_ms])[1].bpm == pytest.approx(expected, abs=0.01)


def test_rate_rejects_nonpositive_interval():
    # The detector refuses a PPG timestamp not after the last one, so a gap
    # of zero or less never reaches the rate.
    with pytest.raises(SampleOrderError):
        pulse_frames([1000.0, 0.0])
    with pytest.raises(SampleOrderError):
        pulse_frames([1000.0, -5.0])


def test_tracker_single_interval_matches_plain_estimate():
    # only the latest gap counts
    assert [frame.bpm for frame in pulse_frames([750.0, 600.0])[1:]] == [60000.0 / 750.0, 60000.0 / 600.0]


def test_ramp_estimates_rise_monotonically():
    # A beat is declared at the first PPG sample at or past its crossing, a
    # lag in [0, dt), so every gap is a multiple of dt. Two consecutive gaps
    # share a beat: they differ by the change in the true gap plus lag terms
    # in (-2*dt, 2*dt). On a rising rate the true gap does not grow, so a
    # gap exceeds the one before it by at most one dt.
    profile = SignalProfile(bpm_start=60.0, bpm_end=110.0)
    dt_ms = 1000.0 / PPG_RATE_HZ
    estimates = detect_bpms(profile, 120_000, seed=5)
    assert estimates[-1] - estimates[0] > 30.0
    for previous, current in zip(estimates, estimates[1:]):
        assert 60000.0 / current <= 60000.0 / previous + dt_ms + 1e-6


class ReferenceDetector:
    """`BeatDetector.step` as it read before it was inlined: a `threshold`
    property and two `max` calls, kept as the reference."""

    def __init__(self):
        self.dc_estimate = None
        self.envelope = 0.0
        self.last_crossing_ms = None
        self.last_timestamp_ms = None
        self._armed = True

    @property
    def threshold(self):
        return max(THRESHOLD_FRACTION * self.envelope, MIN_THRESHOLD)

    def step(self, sample):
        self.last_timestamp_ms = sample.timestamp_ms
        if self.dc_estimate is None:
            self.dc_estimate = sample.value
        else:
            self.dc_estimate = DC_COEFFICIENT * self.dc_estimate + (1.0 - DC_COEFFICIENT) * sample.value
        ac = sample.value - self.dc_estimate
        threshold = self.threshold
        gap = None
        if self._armed and ac >= threshold:
            self._armed = False
            if (
                self.last_crossing_ms is None
                or sample.timestamp_ms - self.last_crossing_ms >= REFRACTORY_MS
            ):
                if self.last_crossing_ms is not None:
                    gap = sample.timestamp_ms - self.last_crossing_ms
                self.last_crossing_ms = sample.timestamp_ms
        elif not self._armed and ac < REARM_LEVEL:
            self._armed = True
        self.envelope = max(self.envelope * ENVELOPE_DECAY, ac)
        return gap


def bits(x):
    """A float by its bit pattern, so -0.0 differs from 0.0 and NaN equals itself."""
    return struct.pack("<d", x) if isinstance(x, float) else x


def detector_state(detector):
    names = ("dc_estimate", "envelope", "last_crossing_ms", "last_timestamp_ms", "_armed")
    return {name: bits(getattr(detector, name)) for name in names}


# A small pool of exact values makes repeats, zeros of both signs and ties
# with `MIN_THRESHOLD`, `REARM_LEVEL` and the decayed envelope common; large
# finite floats can still overflow `ac` to infinity.
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -1.0, 1e-6])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 1000),
    st.lists(
        st.tuples(st.integers(1, 400), st.one_of(TIE_VALUES, st.floats(allow_nan=False, allow_infinity=False))),
        max_size=120,
    ),
)
def test_detector_steps_like_the_reference(start_ms, steps):
    detector, reference = BeatDetector(), ReferenceDetector()
    timestamps = itertools.accumulate((gap for gap, _ in steps), initial=start_ms)
    for timestamp, (_, value) in zip(timestamps, steps):
        sample = PhysioSample(float(timestamp), Channel.PPG, value)
        assert bits(detector.step(sample)) == bits(reference.step(sample))
        assert detector_state(detector) == detector_state(reference)


def test_detector_rejects_gsr_samples():
    with pytest.raises(ValueError, match="^beat detector expects PPG samples, got GSR$"):
        BeatDetector().step(PhysioSample(0.0, Channel.GSR, 5.0))


def test_detector_enforces_timestamp_order():
    detector = BeatDetector()
    detector.step(PhysioSample(0.0, Channel.PPG, 1000.0))
    with pytest.raises(SampleOrderError):
        detector.step(PhysioSample(0.0, Channel.PPG, 1001.0))


def test_detector_rejects_a_nan_timestamp():
    # A stored NaN compares neither before nor after anything, so timestamps
    # could then run backwards and the spike at 10.0 would be taken as a beat.
    nan = math.nan
    detector = BeatDetector()
    assert detector.step(PhysioSample(100.0, Channel.PPG, 1000.0)) is None
    accepted = detector_state(detector)
    for timestamp, value in [(nan, 1000.0), (50.0, 1000.0), (nan, 1000.0), (10.0, 1e6)]:
        with pytest.raises(SampleOrderError) as excinfo:
            detector.step(PhysioSample(timestamp, Channel.PPG, value))
        assert str(excinfo.value) == f"PPG timestamp {timestamp} not after 100.0"
        assert detector_state(detector) == accepted
    assert detector.last_crossing_ms is None

    # A first NaN fails the same test against the floor a fresh detector starts from.
    first = BeatDetector()
    fresh = detector_state(first)
    with pytest.raises(SampleOrderError) as excinfo:
        first.step(PhysioSample(nan, Channel.PPG, 1000.0))
    assert str(excinfo.value) == "PPG timestamp nan not after -inf"
    assert first.last_timestamp_ms == -math.inf
    assert detector_state(first) == fresh


def test_detector_refuses_a_first_minus_inf_timestamp():
    # Stored, -inf would let any later timestamp through, as a NaN would.
    detector = BeatDetector()
    fresh = detector_state(detector)
    with pytest.raises(SampleOrderError) as excinfo:
        detector.step(PhysioSample(-math.inf, Channel.PPG, 1000.0))
    assert str(excinfo.value) == "PPG timestamp -inf not after -inf"
    assert detector_state(detector) == fresh


def test_smoother_uniform_mean_is_exact():
    assert smoothed([10.0] * 8) == 10.0
    assert smoothed([0.0] * 4 + [8.0] * 4) == 4.0
    assert smoothed([8.0] * 8) == 8.0


def test_smoother_rejects_empty_window():
    assert smoothed([]) is None


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=8),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=8),
    st.floats(min_value=-5, max_value=5),
)
def test_smoother_is_linear(xs, ys, a):
    # mean(a*x + y) must equal a*mean(x) + mean(y) up to float error
    combined = [a * x + y for x, y in zip(xs, ys)]
    left = smoothed(combined)
    right = a * smoothed(xs) + smoothed(ys)
    assert left == pytest.approx(right, abs=1e-6)


def test_collector_keeps_last_eight():
    assert smoothed([float(i) for i in range(10)]) == sum([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) / 8


def test_collector_warmup_and_order():
    values = [float(i) for i in range(GSR_WINDOW_SIZE)]
    for n in range(GSR_WINDOW_SIZE):
        assert smoothed(values[:n]) is None  # not warm until eight samples
    assert smoothed(values) == 3.5
    extractor = FeatureExtractor()
    for i, value in enumerate(values):
        extractor.add(PhysioSample(i * 100.0, Channel.GSR, value))
    with pytest.raises(SampleOrderError) as excinfo:
        extractor.add(PhysioSample(700.0, Channel.GSR, 4.0))
    assert str(excinfo.value) == "GSR timestamp 700.0 not after 700.0"


def test_synthesis_is_deterministic():
    profile = SignalProfile(bpm_start=75.0, gsr_start_us=12.0, ppg_noise=5.0, gsr_noise_us=0.5)
    first = list(synth_physio(profile, 10_000, seed=42))
    second = list(synth_physio(profile, 10_000, seed=42))
    assert first == second


def test_synthesis_seed_changes_noise():
    profile = SignalProfile(ppg_noise=5.0)
    a = list(synth_physio(profile, 5_000, seed=1))
    b = list(synth_physio(profile, 5_000, seed=2))
    assert a != b


def test_synthesis_stream_is_ordered_and_merged():
    samples = list(synth_physio(SignalProfile(), 2_000, seed=0))
    assert samples[0].channel is Channel.PPG  # PPG wins the t=0 tie
    assert samples[1].channel is Channel.GSR
    for chan in Channel:
        stamps = [s.timestamp_ms for s in samples if s.channel is chan]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
    merged = [s.timestamp_ms for s in samples]
    assert merged == sorted(merged)
    # 50 Hz and 10 Hz over 2 s
    assert sum(1 for s in samples if s.channel is Channel.PPG) == 100
    assert sum(1 for s in samples if s.channel is Channel.GSR) == 20


def test_synthesis_rejects_bad_parameters():
    with pytest.raises(ValueError):
        list(synth_physio(SignalProfile(), 0, seed=0))
    with pytest.raises(ValueError):
        list(synth_physio(SignalProfile(bpm_start=0.0), 1000, seed=0))


def test_synthesis_checks_its_settings_before_the_first_sample():
    with pytest.raises(ValueError, match="^bpm_start must be finite and positive, got 0.0$"):
        synth_physio(SignalProfile(bpm_start=0.0), 1000.0, 0)


POSITIVE_FIELDS = ["duration_ms", "bpm_start", "bpm_end"]
FINITE_FIELDS = ["gsr_start_us", "gsr_end_us", "ppg_noise", "gsr_noise_us"]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", POSITIVE_FIELDS + FINITE_FIELDS)
def test_synthesis_rejects_non_finite_parameters(field, token):
    bad = float(token)
    duration_ms = bad if field == "duration_ms" else 1000.0
    profile = SignalProfile() if field == "duration_ms" else SignalProfile(**{field: bad})
    must = "finite and positive" if field in POSITIVE_FIELDS else "finite"
    with pytest.raises(ValueError, match=f"^{field} must be {must}, got {token}$"):
        list(synth_physio(profile, duration_ms, seed=0))


@pytest.mark.parametrize("bad", [-0.5, -1e-300])
@pytest.mark.parametrize("field", ["ppg_noise", "gsr_noise_us"])
def test_synthesis_rejects_negative_noise(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got {bad!r}$"):
        list(synth_physio(SignalProfile(**{field: bad}), 1000.0, seed=0))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Streams up to 50 s are read whole; a longer one is read as far as that cap.
SAMPLE_CAP = 3_000


@settings(max_examples=300, deadline=None)
@given(FINITE, st.none() | FINITE, FINITE, st.none() | FINITE, FINITE, FINITE, st.floats(0.0, 50_000.0) | FINITE)
@example(75.0, None, 5.0, None, 1e308, 0.0, 31_000.0)
@example(75.0, None, -1e308, 1e308, 0.0, 0.0, 31_000.0)
@example(1.7e308, None, 5.0, None, 0.0, 0.0, 31_000.0)
def test_synthesis_refuses_at_the_call_or_yields_finite_samples(bpm, bpm_end, gsr, gsr_end, ppg_noise, gsr_noise,
                                                                  duration_ms):
    try:
        stream = synth_physio(SignalProfile(bpm, bpm_end, gsr, gsr_end, ppg_noise, gsr_noise), duration_ms, seed=0)
    except ValueError:
        return
    for sample in itertools.islice(stream, SAMPLE_CAP):
        assert math.isfinite(sample.timestamp_ms) and math.isfinite(sample.value), sample


def test_trace_roundtrip(tmp_path):
    samples = list(synth_physio(SignalProfile(ppg_noise=2.0), 3_000, seed=9))
    path = tmp_path / "trace.csv"
    save_trace(path, samples)
    assert load_trace(path) == samples


def reference_synth(profile, duration_ms, seed):
    """`synth_physio`'s loop as it read before its per-sample reads were
    hoisted: both next timestamps, a `_ramp` call and the profile's fields
    every sample, kept as the reference."""

    def ramp(start, end, t_ms):
        if end is None or end == start:
            return start
        return start + (end - start) * (t_ms / duration_ms)

    rng_ppg = random.Random(f"{seed}/ppg")
    rng_gsr = random.Random(f"{seed}/gsr")
    ppg_dt_ms = 1000.0 / PPG_RATE_HZ
    gsr_dt_ms = 1000.0 / GSR_RATE_HZ
    n_ppg = int(duration_ms / ppg_dt_ms)
    n_gsr = int(duration_ms / gsr_dt_ms)
    phase = 0.0
    i = j = 0
    while i < n_ppg or j < n_gsr:
        t_ppg = i * ppg_dt_ms if i < n_ppg else math.inf
        t_gsr = j * gsr_dt_ms if j < n_gsr else math.inf
        if t_ppg <= t_gsr:
            bpm = ramp(profile.bpm_start, profile.bpm_end, t_ppg)
            value = PPG_OFFSET + PPG_AMPLITUDE * math.sin(phase)
            if profile.ppg_noise > 0:
                value += rng_ppg.uniform(-profile.ppg_noise, profile.ppg_noise)
            yield PhysioSample(t_ppg, Channel.PPG, value)
            phase += 2.0 * math.pi * (bpm / 60.0) * (ppg_dt_ms / 1000.0)
            i += 1
        else:
            level = ramp(profile.gsr_start_us, profile.gsr_end_us, t_gsr)
            if profile.gsr_noise_us > 0:
                level += rng_gsr.uniform(-profile.gsr_noise_us, profile.gsr_noise_us)
            yield PhysioSample(t_gsr, Channel.GSR, level)
            j += 1


def reference_save_trace(path, samples, **dialect):
    """`save_trace` as it read before it streamed preformatted rows: one
    `csv.writer` row per sample, kept as the reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, **{"lineterminator": "\n", **dialect})
        writer.writerow(TRACE_HEADER)
        for sample in samples:
            writer.writerow([repr(sample.timestamp_ms), sample.channel.value, repr(sample.value)])


def sample_bits(samples):
    return [(bits(s.timestamp_ms), s.channel, bits(s.value)) for s in samples]


@st.composite
def trajectories(draw, start):
    """(start, end) pairs: flat (end unset or equal to the start) or ramped."""
    first = draw(start)
    end = draw(st.one_of(st.none(), st.just(first), start))
    return first, end


POSITIVE = st.floats(1.0, 250.0)
LEVELS = st.one_of(st.sampled_from([0.0, -0.0, 5.0]), st.floats(-50.0, 50.0))
NOISE = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
DURATIONS = st.one_of(st.sampled_from([95.0, 100.0, 110.0, 12_345.6]), st.floats(0.5, 15_000.0))


@settings(max_examples=150, deadline=None)
@given(trajectories(POSITIVE), trajectories(LEVELS), NOISE, NOISE, DURATIONS, st.integers(0, 2**32))
def test_recorder_matches_the_reference(tmp_path_factory, bpm, gsr, ppg_noise, gsr_noise, duration_ms, seed):
    profile = SignalProfile(*bpm, *gsr, ppg_noise, gsr_noise)
    samples = list(synth_physio(profile, duration_ms, seed))
    assert sample_bits(samples) == sample_bits(reference_synth(profile, duration_ms, seed))
    directory = tmp_path_factory.getbasetemp()
    save_trace(directory / "head.csv", iter(samples))
    reference_save_trace(directory / "reference.csv", samples)
    assert (directory / "head.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def test_trace_bytes_are_exact_and_unvalidated(tmp_path):
    path = tmp_path / "nan.csv"
    samples = [PhysioSample(0.0, Channel.PPG, 1e-07), PhysioSample(100.0, Channel.GSR, -0.0),
               PhysioSample(20.0, Channel.PPG, math.nan)]
    save_trace(path, samples)
    assert path.read_bytes() == b"timestamp_ms,channel,value\n0.0,PPG,1e-07\n100.0,GSR,-0.0\n20.0,PPG,nan\n"
    with pytest.raises(ValueError, match=r"nan\.csv: line 4: non-finite field"):
        load_trace(path)


@pytest.mark.parametrize(
    "dialect, marker",
    [({"quoting": csv.QUOTE_ALL}, b'"PPG"'), ({"lineterminator": "\r\n"}, b"\r\n")],
    ids=["quote-all", "crlf"],
)
def test_trace_reader_accepts_other_csv_dialects(tmp_path, dialect, marker):
    samples = list(synth_physio(SignalProfile(ppg_noise=2.0, gsr_noise_us=0.5), 3_000, seed=9))
    path = tmp_path / "trace.csv"
    reference_save_trace(path, samples, **dialect)
    assert marker in path.read_bytes()
    assert sample_bits(load_trace(path)) == sample_bits(samples)


def test_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan,val\n0,PPG,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_trace(path)


def test_trace_rejects_unknown_channel(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_ms,channel,value\n0,EKG,1.0\n")
    with pytest.raises(ValueError, match="channel"):
        load_trace(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", ["{},PPG,1.0", "0,PPG,{}"], ids=["timestamp", "value"])
def test_trace_rejects_non_finite_fields(tmp_path, token, row):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp_ms,channel,value\n0,GSR,1.0\n" + row.format(token) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
        load_trace(path)


def test_trace_rejects_backwards_timestamps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp_ms,channel,value\n100,PPG,1.0\n100,PPG,2.0\n"
    )
    with pytest.raises(SampleOrderError):
        load_trace(path)


@pytest.mark.parametrize(
    "row,error,message",
    [
        ("0,PPG", ValueError, "expected 3 fields, got 2"),
        ("0,PPG,1.0,2.0", ValueError, "expected 3 fields, got 4"),
        ("x,PPG,1.0", ValueError, "non-numeric field"),
        ("0,PPG,one", ValueError, "non-numeric field"),
        ("-1,PPG,1.0", SampleOrderError, "negative timestamp"),
        ("0,EKG,1.0", ValueError, "unknown channel 'EKG'"),
        ("0,ppg,1.0", ValueError, "unknown channel 'ppg'"),
        ("0,PPG ,1.0", ValueError, "unknown channel 'PPG '"),
        ("5,GSR,1.0", SampleOrderError, "GSR timestamp 5.0 not after 5.0"),
    ],
)
def test_trace_rejection_names_the_file_and_line(tmp_path, row, error, message):
    # Line 3 is blank: it is skipped, but still counted in the line numbers.
    path = tmp_path / "bad.csv"
    path.write_text(f"timestamp_ms,channel,value\n5,GSR,1.0\n\n{row}\n")
    with pytest.raises(error) as excinfo:
        load_trace(path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{path}: line 4: {message}"


def test_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("timestamp_ms,channel,value\n\n0,PPG,1.5\n\n\n20,PPG,2.5\n10,GSR,4.0\n\n")
    assert load_trace(path) == [
        PhysioSample(0.0, Channel.PPG, 1.5),
        PhysioSample(20.0, Channel.PPG, 2.5),
        PhysioSample(10.0, Channel.GSR, 4.0),
    ]


def test_a_row_error_names_the_line_its_record_ends_on(tmp_path):
    # The quoted value spans lines 2-3 and line 4 is blank, so the bad record is on line 5.
    path = tmp_path / "multi.csv"
    path.write_text('timestamp_ms,channel,value\n0.0,PPG,"1\n"\n\n40.0,PPG,x\n')
    with pytest.raises(ValueError) as excinfo:
        load_trace(path)
    assert str(excinfo.value) == f"{path}: line 5: non-numeric field"


def reference_load_trace(path):
    """`load_trace`'s row loop as it read before each property was tested
    once per row: a blank-row test, a field count, a channel lookup, two
    `math.isfinite` calls, a sign test and `last_seen.get` with a `None`
    test. Only its line numbers (`reader.line_num`, the line a record ends
    on) and its `csv.Error` report follow the loader; kept as the reference."""
    samples = []
    last_seen = {}
    channels = {c.value: c for c in Channel}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != TRACE_HEADER:
                raise ValueError(f"{path}: expected header {','.join(TRACE_HEADER)}")
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{where}: expected 3 fields, got {len(row)}")
                channel = channels.get(row[1])
                if channel is None:
                    raise ValueError(f"{where}: unknown channel {row[1]!r}")
                try:
                    timestamp = float(row[0])
                    value = float(row[2])
                except ValueError:
                    raise ValueError(f"{where}: non-numeric field") from None
                if not (math.isfinite(timestamp) and math.isfinite(value)):
                    raise ValueError(f"{where}: non-finite field")
                if timestamp < 0:
                    raise SampleOrderError(f"{where}: negative timestamp")
                prev = last_seen.get(channel)
                if prev is not None and timestamp <= prev:
                    raise SampleOrderError(f"{where}: {channel.value} timestamp {timestamp} not after {prev}")
                last_seen[channel] = timestamp
                samples.append(PhysioSample(timestamp, channel, value))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return samples


# Each defect rewrites one row's fields; "fields" goes last, since it changes their number.
ROW_DEFECTS = ["channel", "numeric", "non-finite", "negative", "order", "oversized", "fields"]


@st.composite
def trace_texts(draw):
    """A trace file's text: valid rows with blank lines between them, fields
    quoted or not (a quoted number may end in a line break, so its record
    spans two lines), and at most one row with each kind of defect."""
    rows, first = [], {}
    for _ in range(draw(st.integers(0, 10))):
        name = draw(st.sampled_from(["PPG", "GSR"]))
        timestamp = first[name] = first.get(name, -1.0) + draw(st.floats(1.0, 1e3))
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        rows.append([repr(timestamp), name, repr(value)])
    for kind in ROW_DEFECTS:
        if not rows or draw(st.integers(0, 2)):  # a third of the files have each defect
            continue
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if kind == "channel":
            row[1] = draw(st.sampled_from(["EKG", "ppg", "PPG ", "", "Channel.GSR"]))
        elif kind == "numeric":
            row[draw(st.sampled_from([0, 2]))] = draw(st.sampled_from(["x", "", "1.0.0", "0x10", "1,0"]))
        elif kind == "non-finite":
            row[draw(st.sampled_from([0, 2]))] = draw(st.sampled_from(["nan", "-inf", "inf", "Infinity", "-nan"]))
        elif kind == "negative":
            row[0] = draw(st.sampled_from(["-1", "-1e-300", "-0.0", "-5e3"]))
        elif kind == "order":
            earlier = [r[0] for r in rows[:i] if r[1] == row[1]]
            if earlier:
                row[0] = earlier[-1] if draw(st.booleans()) else draw(st.sampled_from(earlier))
        elif kind == "oversized":
            row[2] = "1" * 131_073
        else:
            rows[i] = draw(st.sampled_from([row[:1], row[:2], row + ["0"], row + row]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(TRACE_HEADER)]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 2)))
        fields = []
        for k, field in enumerate(row):
            style = draw(st.sampled_from(["plain", "quoted", "multi-line"] if k != 1 else ["plain", "quoted"]))
            fields.append(field if style == "plain" else f'"{field}{newline if style == "multi-line" else ""}"')
        lines.append(",".join(fields))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def load_outcome(load, path):
    try:
        return sample_bits(load(path))
    except ValueError as exc:
        return type(exc), str(exc)


def check_the_loader_agrees_with_the_reference_loop(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert load_outcome(signals.load_trace, path) == load_outcome(reference_load_trace, path)


# Each is also an @example of the property: a first timestamp of 0, a negative
# one, a blank line, a bad row after a record spanning two lines, a repeated timestamp.
LOADER_WITNESSES = [
    "timestamp_ms,channel,value\n0.0,PPG,1.0\n",
    "timestamp_ms,channel,value\n-1.0,PPG,1.0\n",
    "timestamp_ms,channel,value\n1.0,PPG,1.0\n\n2.0,GSR,1.0\n",
    'timestamp_ms,channel,value\n"1.0\n",PPG,1.0\n2.0,PPG,x\n',
    "timestamp_ms,channel,value\n1.0,PPG,1.0\n1.0,PPG,2.0\n",
]


@settings(max_examples=300, deadline=None)
@given(trace_texts())
@example(LOADER_WITNESSES[0])
@example(LOADER_WITNESSES[1])
@example(LOADER_WITNESSES[2])
@example(LOADER_WITNESSES[3])
@example(LOADER_WITNESSES[4])
def test_the_loader_agrees_with_the_reference_loop(tmp_path_factory, text):
    check_the_loader_agrees_with_the_reference_loop(tmp_path_factory.getbasetemp() / "generated.csv", text)
